//! Named model slots over `triad-core::persist`, with an LRU cache of
//! deserialized models and atomic on-disk save/reload.
//!
//! The registry maps model names to files in a models directory
//! (`<dir>/<name>.triad`). Deserialized [`FittedTriad`]s are cached per slot
//! behind a `Mutex`; at most `capacity` slots hold a live model at once —
//! beyond that the least-recently-used one is dropped back to its file
//! (`evict` does the same explicitly, and a subsequent detect reloads
//! bit-identical state, which the end-to-end test asserts).
//!
//! ## Threading model
//!
//! `FittedTriad` is `Send + Sync`, so a cached model lives directly in its
//! slot's `Mutex`. The mutex is the cache protocol, not a thread-safety
//! patch: it serializes the load-on-miss so a file is read once, and a
//! `detect` holds it for its one pipeline run, so detects on one model run
//! one at a time while other models' slots proceed in parallel.

use crate::metrics::{inc, Metrics};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use triad_core::{persist, FittedTriad, NumericMode};

/// One named model: its file plus an optional deserialized instance.
pub struct ModelSlot {
    name: String,
    path: PathBuf,
    model: Mutex<Option<FittedTriad>>,
    /// Logical-clock stamp of the last detect/load touch (drives LRU).
    last_used: AtomicU64,
    /// Serialized size on disk, bytes.
    file_bytes: AtomicU64,
}

impl ModelSlot {
    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn is_loaded(&self) -> bool {
        self.model.lock().map(|g| g.is_some()).unwrap_or(false)
    }

    pub fn file_bytes(&self) -> u64 {
        // relaxed-ok: size is display-only bookkeeping for the `list` verb;
        // a stale read is harmless.
        self.file_bytes.load(Ordering::Relaxed)
    }
}

/// Summary row for the `list` verb.
pub struct ModelInfo {
    pub name: String,
    pub loaded: bool,
    pub file_bytes: u64,
}

/// The registry. Callers share it as `Arc<RwLock<ModelRegistry>>`: writes
/// (slot creation/removal) take the write lock; the per-request path only
/// needs a read lock to clone a slot `Arc`, so detects on different models
/// proceed in parallel.
pub struct ModelRegistry {
    dir: PathBuf,
    /// BTreeMap so eviction scans and listings visit slots in name order.
    slots: BTreeMap<String, Arc<ModelSlot>>,
    clock: AtomicU64,
    capacity: usize,
    metrics: Arc<Metrics>,
    /// Worker-thread count applied to every model this registry hands out
    /// (0 = auto). A pure performance knob — detections are bit-identical
    /// at any value — so it is registry-wide, not persisted per model.
    threads: usize,
    /// Numeric kernel mode applied to every model this registry hands out.
    /// Like `threads` it is a serving-time knob, not persisted per model:
    /// within either mode results are bit-identical across thread counts.
    numeric_mode: NumericMode,
}

/// `<name>.triad` under the models directory.
const MODEL_EXT: &str = "triad";

fn validate_name(name: &str) -> Result<(), String> {
    if name.is_empty() || name.len() > 64 {
        return Err("model name must be 1..=64 characters".into());
    }
    if !name
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-' || c == '.')
        || name.starts_with('.')
    {
        return Err(format!(
            "invalid model name {name:?}: use [A-Za-z0-9_.-], not starting with '.'"
        ));
    }
    Ok(())
}

impl ModelRegistry {
    /// Open (creating if needed) a models directory; every existing
    /// `*.triad` file becomes an unloaded slot.
    pub fn open(dir: &Path, capacity: usize, metrics: Arc<Metrics>) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let mut slots = BTreeMap::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some(MODEL_EXT) {
                continue;
            }
            let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
                continue;
            };
            if validate_name(stem).is_err() {
                continue;
            }
            let bytes = entry.metadata().map(|m| m.len()).unwrap_or(0);
            slots.insert(
                stem.to_string(),
                Arc::new(ModelSlot {
                    name: stem.to_string(),
                    path: path.clone(),
                    model: Mutex::new(None),
                    last_used: AtomicU64::new(0),
                    file_bytes: AtomicU64::new(bytes),
                }),
            );
        }
        Ok(ModelRegistry {
            dir: dir.to_path_buf(),
            slots,
            clock: AtomicU64::new(1),
            capacity: capacity.max(1),
            metrics,
            threads: 0,
            numeric_mode: NumericMode::default(),
        })
    }

    /// Worker-thread count applied to models as they are loaded or saved
    /// (0 = auto; already-cached instances keep their setting).
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads;
    }

    /// Numeric kernel mode applied to models as they are loaded or saved
    /// (already-cached instances keep their setting).
    pub fn set_numeric_mode(&mut self, mode: NumericMode) {
        self.numeric_mode = mode;
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn touch(&self, slot: &ModelSlot) {
        // relaxed-ok: LRU stamps are advisory; the fetch_add is already a
        // total order on the clock itself, and an approximately-ordered
        // last_used only perturbs which victim eviction picks.
        let t = self.clock.fetch_add(1, Ordering::Relaxed);
        slot.last_used.store(t, Ordering::Relaxed);
    }

    /// Persist a freshly fitted model under `name` (atomic rename) and cache
    /// the live instance. Overwrites any previous model of the same name.
    pub fn save_fitted(&mut self, name: &str, mut fitted: FittedTriad) -> Result<(), String> {
        validate_name(name)?;
        fitted.set_threads(self.threads);
        fitted.set_numeric_mode(self.numeric_mode);
        let final_path = self.dir.join(format!("{name}.{MODEL_EXT}"));
        persist::save_file(&final_path, &fitted).map_err(|e| format!("save {name}: {e}"))?;
        let bytes = std::fs::metadata(&final_path).map(|m| m.len()).unwrap_or(0);

        let slot = self
            .slots
            .entry(name.to_string())
            .or_insert_with(|| {
                Arc::new(ModelSlot {
                    name: name.to_string(),
                    path: final_path.clone(),
                    model: Mutex::new(None),
                    last_used: AtomicU64::new(0),
                    file_bytes: AtomicU64::new(0),
                })
            })
            .clone();
        // relaxed-ok: display-only size bookkeeping; see `file_bytes`.
        slot.file_bytes.store(bytes, Ordering::Relaxed);
        *slot.model.lock().map_err(|_| "slot poisoned")? = Some(fitted);
        self.touch(&slot);
        self.enforce_capacity();
        Ok(())
    }

    /// Look up a slot by name.
    pub fn slot(&self, name: &str) -> Option<Arc<ModelSlot>> {
        self.slots.get(name).cloned()
    }

    /// Lock a slot's model, deserializing from disk on a cache miss, and
    /// update LRU bookkeeping. The returned guard keeps exclusive use of the
    /// model for the caller's detection.
    pub fn lock_loaded<'s>(
        &self,
        slot: &'s ModelSlot,
    ) -> Result<MutexGuard<'s, Option<FittedTriad>>, String> {
        // lint-allow(lock-across-io): deserializing under the slot lock is the
        // cache-miss protocol — it serializes concurrent loads of one model so
        // the file is read once, and the guard is exactly what callers came
        // for; other models' slots are untouched and proceed in parallel.
        let mut guard = slot.model.lock().map_err(|_| "slot poisoned")?;
        if guard.is_some() {
            inc(&self.metrics.cache_hits);
        } else {
            inc(&self.metrics.cache_misses);
            let mut fitted =
                persist::load_file(&slot.path).map_err(|e| format!("load {}: {e}", slot.name))?;
            fitted.set_threads(self.threads);
            fitted.set_numeric_mode(self.numeric_mode);
            *guard = Some(fitted);
        }
        self.touch(slot);
        // A fresh load may have pushed us over the cache budget.
        self.enforce_capacity();
        Ok(guard)
    }

    /// Drop the deserialized copy (the file stays). Returns whether a live
    /// instance was actually evicted.
    pub fn evict(&self, name: &str) -> Result<bool, String> {
        let Some(slot) = self.slots.get(name) else {
            return Err(format!("no such model {name:?}"));
        };
        let mut guard = slot.model.lock().map_err(|_| "slot poisoned")?;
        let was_loaded = guard.take().is_some();
        if was_loaded {
            inc(&self.metrics.cache_evictions);
        }
        Ok(was_loaded)
    }

    /// Keep at most `capacity` models deserialized, dropping the
    /// least-recently-used ones. Slots whose lock is currently held (a detect
    /// is running on them) are skipped — they are in use by definition.
    fn enforce_capacity(&self) {
        loop {
            let mut loaded: Vec<(&Arc<ModelSlot>, u64)> = Vec::new();
            for slot in self.slots.values() {
                if let Ok(g) = slot.model.try_lock() {
                    if g.is_some() {
                        // relaxed-ok: advisory LRU stamp; see `touch`.
                        loaded.push((slot, slot.last_used.load(Ordering::Relaxed)));
                    }
                }
            }
            if loaded.len() <= self.capacity {
                return;
            }
            let Some(&(victim, _)) = loaded.iter().min_by_key(|(_, t)| *t) else {
                return;
            };
            if let Ok(mut g) = victim.model.try_lock() {
                if g.take().is_some() {
                    inc(&self.metrics.cache_evictions);
                }
            } else {
                return;
            }
        }
    }

    /// All known models, sorted by name.
    pub fn list(&self) -> Vec<ModelInfo> {
        let mut out: Vec<ModelInfo> = self
            .slots
            .values()
            .map(|s| ModelInfo {
                name: s.name.clone(),
                loaded: s.is_loaded(),
                file_bytes: s.file_bytes(),
            })
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;
    use triad_core::{TriAd, TriadConfig};

    fn quick_fit(seed: u64) -> FittedTriad {
        let train: Vec<f64> = (0..600)
            .map(|i| (2.0 * PI * i as f64 / 40.0).sin())
            .collect();
        let cfg = TriadConfig {
            epochs: 2,
            depth: 2,
            hidden: 6,
            batch: 4,
            merlin_step: 4,
            seed,
            ..Default::default()
        };
        TriAd::new(cfg).fit(&train).expect("fit")
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("triad_registry_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn save_list_evict_reload() {
        let dir = tmp_dir("basic");
        let metrics = Arc::new(Metrics::new());
        let mut reg = ModelRegistry::open(&dir, 4, Arc::clone(&metrics)).unwrap();
        assert!(reg.is_empty());

        reg.save_fitted("m1", quick_fit(1)).unwrap();
        let infos = reg.list();
        assert_eq!(infos.len(), 1);
        assert!(infos[0].loaded && infos[0].file_bytes > 0);

        // Evict drops the instance but keeps the file; reload works.
        assert!(reg.evict("m1").unwrap());
        assert!(!reg.slot("m1").unwrap().is_loaded());
        let slot = reg.slot("m1").unwrap();
        {
            let guard = reg.lock_loaded(&slot).unwrap();
            assert!(guard.is_some());
        }
        assert_eq!(crate::metrics::get(&metrics.cache_misses), 1);
        assert!(reg.evict("nope").is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_discovers_saved_models() {
        let dir = tmp_dir("reopen");
        let metrics = Arc::new(Metrics::new());
        {
            let mut reg = ModelRegistry::open(&dir, 4, Arc::clone(&metrics)).unwrap();
            reg.save_fitted("persisted", quick_fit(2)).unwrap();
        }
        let reg = ModelRegistry::open(&dir, 4, metrics).unwrap();
        assert_eq!(reg.len(), 1);
        let slot = reg.slot("persisted").unwrap();
        assert!(!slot.is_loaded());
        assert!(reg.lock_loaded(&slot).unwrap().is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lru_caps_loaded_models() {
        let dir = tmp_dir("lru");
        let metrics = Arc::new(Metrics::new());
        let mut reg = ModelRegistry::open(&dir, 2, Arc::clone(&metrics)).unwrap();
        for (i, name) in ["a", "b", "c"].iter().enumerate() {
            reg.save_fitted(name, quick_fit(i as u64)).unwrap();
        }
        let loaded: usize = reg.list().iter().filter(|m| m.loaded).count();
        assert!(loaded <= 2, "{loaded} loaded");
        assert!(crate::metrics::get(&metrics.cache_evictions) >= 1);
        // The most recently saved model survived.
        assert!(reg.slot("c").unwrap().is_loaded());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejects_bad_names() {
        let dir = tmp_dir("names");
        let metrics = Arc::new(Metrics::new());
        let mut reg = ModelRegistry::open(&dir, 2, metrics).unwrap();
        for bad in ["", "../escape", "a/b", ".hidden", &"x".repeat(65)] {
            assert!(reg.save_fitted(bad, quick_fit(0)).is_err(), "{bad:?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn detection_identical_across_evict_reload() {
        let dir = tmp_dir("bitexact");
        let metrics = Arc::new(Metrics::new());
        let mut reg = ModelRegistry::open(&dir, 4, metrics).unwrap();
        reg.save_fitted("m", quick_fit(7)).unwrap();
        let test: Vec<f64> = (0..300)
            .map(|i| {
                (2.0 * PI * i as f64 / 40.0).sin() + if (120..160).contains(&i) { 0.8 } else { 0.0 }
            })
            .collect();
        let slot = reg.slot("m").unwrap();
        let before = {
            let guard = reg.lock_loaded(&slot).unwrap();
            guard.as_ref().unwrap().detect(&test)
        };
        reg.evict("m").unwrap();
        let after = {
            let guard = reg.lock_loaded(&slot).unwrap();
            guard.as_ref().unwrap().detect(&test)
        };
        assert_eq!(before.prediction, after.prediction);
        assert_eq!(before.votes, after.votes);
        assert_eq!(before.discords, after.discords);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
