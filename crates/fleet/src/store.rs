//! Generation-numbered checkpoint storage for evicted stream engines.
//!
//! Each eviction (or sweep) of stream `s` writes generation `g` as
//! `s.g<8-digit>.ckpt` in the store directory, via a `.tmp` file renamed
//! into place ([`persist::write_atomic`]) so a crash mid-write never
//! clobbers the previous good generation. The payload (a TRIADS1 engine
//! checkpoint, itself CRC'd) is wrapped in a second framing layer with its
//! own magic, length field, and whole-file CRC-32 trailer:
//!
//! ```text
//! magic   b"TRIADF1\n"
//! u64     generation
//! u64     payload length (bounded)
//! bytes   payload (TRIADS1 checkpoint)
//! u32     CRC-32 (IEEE) of every preceding byte, little-endian
//! ```
//!
//! [`CheckpointStore::latest`] walks a stream's generations newest-first
//! and returns the first one that passes the magic/length/CRC gauntlet —
//! a torn or truncated newest file silently falls back to the previous
//! intact generation (stale-generation recovery). Superseded generations
//! are deleted by [`compact`](CheckpointStore::compact) after a successful
//! write; `.tmp` orphans from crashed writers are collected on open.

use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use triad_core::persist::{self, read_exact_ctx, CrcReader, CrcWriter};

const MAGIC: &[u8; 8] = b"TRIADF1\n";

/// Largest accepted wrapped payload (a TRIADS1 checkpoint; 1 GiB is far
/// beyond any engine this crate budgets for).
const MAX_PAYLOAD: u64 = 1 << 30;

/// Directory-backed, generation-numbered checkpoint store. See the module
/// docs for the file format and recovery rules.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
}

fn file_name(stream: &str, generation: u64) -> String {
    format!("{stream}.g{generation:08}.ckpt")
}

/// Parse `"<stream>.g<digits>.ckpt"` back into `(stream, generation)`.
/// Returns `None` for anything else (including `.tmp` orphans).
fn parse_name(name: &str) -> Option<(&str, u64)> {
    let rest = name.strip_suffix(".ckpt")?;
    let (stem, gen_seg) = rest.rsplit_once('.')?;
    let digits = gen_seg.strip_prefix('g')?;
    if digits.len() < 8 || digits.len() > 20 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    Some((stem, digits.parse().ok()?))
}

impl CheckpointStore {
    /// Open (creating if needed) a store rooted at `dir` and collect any
    /// `.tmp` orphans a crashed writer left behind.
    pub fn open(dir: &Path) -> Result<CheckpointStore, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("checkpoint store {dir:?}: {e}"))?;
        let store = CheckpointStore {
            dir: dir.to_path_buf(),
        };
        store.gc_orphans();
        Ok(store)
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_of(&self, stream: &str, generation: u64) -> PathBuf {
        self.dir.join(file_name(stream, generation))
    }

    /// Remove `.tmp` files from writers that died mid-checkpoint. Returns
    /// how many were collected.
    pub fn gc_orphans(&self) -> usize {
        let mut removed = 0;
        for entry in self.entries() {
            if entry.extension().and_then(|e| e.to_str()) == Some("tmp")
                && std::fs::remove_file(&entry).is_ok()
            {
                removed += 1;
            }
        }
        removed
    }

    /// Sorted directory listing (sorted so every walk is deterministic
    /// regardless of filesystem enumeration order).
    fn entries(&self) -> Vec<PathBuf> {
        let mut out = Vec::new();
        if let Ok(dir) = std::fs::read_dir(&self.dir) {
            for entry in dir.flatten() {
                out.push(entry.path());
            }
        }
        out.sort();
        out
    }

    /// Write one generation atomically ([`persist::write_atomic`]). An
    /// existing file for the same generation is replaced.
    pub fn put(&self, stream: &str, generation: u64, payload: &[u8]) -> Result<(), String> {
        if payload.len() as u64 > MAX_PAYLOAD {
            return Err(format!(
                "checkpoint payload for {stream:?} is {} bytes, over the {MAX_PAYLOAD} cap",
                payload.len()
            ));
        }
        let path = self.path_of(stream, generation);
        persist::write_atomic(&path, |w| {
            let mut w = CrcWriter::new(w);
            w.write_all(MAGIC)?;
            w.write_all(&generation.to_le_bytes())?;
            w.write_all(&(payload.len() as u64).to_le_bytes())?;
            w.write_all(payload)?;
            w.finish()
        })
        .map_err(|e: std::io::Error| format!("checkpoint write {path:?}: {e}"))
    }

    /// Read and verify one specific generation file.
    fn read_generation(&self, stream: &str, generation: u64) -> Result<Vec<u8>, String> {
        let path = self.path_of(stream, generation);
        let f = std::fs::File::open(&path).map_err(|e| format!("open {path:?}: {e}"))?;
        let mut r = CrcReader::new(std::io::BufReader::new(f));
        let mut magic = [0u8; 8];
        read_exact_ctx(&mut r, &mut magic, "store magic").map_err(|e| e.to_string())?;
        if &magic != MAGIC {
            return Err(format!("{path:?}: bad magic"));
        }
        let mut b = [0u8; 8];
        read_exact_ctx(&mut r, &mut b, "store generation").map_err(|e| e.to_string())?;
        let stored_gen = u64::from_le_bytes(b);
        if stored_gen != generation {
            return Err(format!(
                "{path:?}: generation field {stored_gen} disagrees with file name {generation}"
            ));
        }
        read_exact_ctx(&mut r, &mut b, "store payload length").map_err(|e| e.to_string())?;
        let len = u64::from_le_bytes(b);
        if len > MAX_PAYLOAD {
            return Err(format!("{path:?}: implausible payload length {len}"));
        }
        let mut payload = vec![0u8; len as usize];
        r.read_exact(&mut payload)
            .map_err(|e| format!("{path:?}: truncated payload: {e}"))?;
        r.verify_trailer().map_err(|e| format!("{path:?}: {e}"))?;
        Ok(payload)
    }

    /// Every on-disk generation of `stream`, ascending.
    pub fn generations(&self, stream: &str) -> Vec<u64> {
        let mut gens = Vec::new();
        for path in self.entries() {
            if let Some(name) = path.file_name().and_then(|n| n.to_str()) {
                if let Some((s, g)) = parse_name(name) {
                    if s == stream {
                        gens.push(g);
                    }
                }
            }
        }
        gens.sort_unstable();
        gens
    }

    /// The newest *intact* generation of `stream` and its payload, or
    /// `None` when no generation survives validation. Torn or corrupt files
    /// are skipped (newest-first), which is the crash-recovery path: a
    /// write that died after `rename` of a damaged tmp can never mask the
    /// previous good generation.
    pub fn latest(&self, stream: &str) -> Option<(u64, Vec<u8>)> {
        let mut gens = self.generations(stream);
        gens.reverse();
        for g in gens {
            if let Ok(payload) = self.read_generation(stream, g) {
                return Some((g, payload));
            }
        }
        None
    }

    /// Delete every generation of `stream` older than `keep`. Returns how
    /// many files were removed.
    pub fn compact(&self, stream: &str, keep: u64) -> usize {
        let mut removed = 0;
        for g in self.generations(stream) {
            if g < keep && std::fs::remove_file(self.path_of(stream, g)).is_ok() {
                removed += 1;
            }
        }
        removed
    }

    /// Delete every generation of `stream` (stream closed). Returns how
    /// many files were removed.
    pub fn remove_stream(&self, stream: &str) -> usize {
        let mut removed = 0;
        for g in self.generations(stream) {
            if std::fs::remove_file(self.path_of(stream, g)).is_ok() {
                removed += 1;
            }
        }
        removed
    }

    /// `(stream, latest generation)` for every stream with at least one
    /// generation on disk, sorted by stream name.
    pub fn list(&self) -> Vec<(String, u64)> {
        let mut latest: Vec<(String, u64)> = Vec::new();
        for path in self.entries() {
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            let Some((s, g)) = parse_name(name) else {
                continue;
            };
            match latest.iter_mut().find(|(seen, _)| seen == s) {
                Some((_, best)) => *best = (*best).max(g),
                None => latest.push((s.to_string(), g)),
            }
        }
        latest.sort();
        latest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> CheckpointStore {
        let dir =
            std::env::temp_dir().join(format!("triad_fleet_store_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        CheckpointStore::open(&dir).expect("open store")
    }

    #[test]
    fn put_latest_round_trip_and_generation_ordering() {
        let store = temp_store("roundtrip");
        store.put("alpha", 1, b"one").expect("put g1");
        store.put("alpha", 2, b"two").expect("put g2");
        store.put("beta.01", 7, b"seven").expect("put beta");

        assert_eq!(store.generations("alpha"), vec![1, 2]);
        let (g, payload) = store.latest("alpha").expect("latest");
        assert_eq!((g, payload.as_slice()), (2, b"two".as_slice()));
        let (g, payload) = store.latest("beta.01").expect("latest dotted");
        assert_eq!((g, payload.as_slice()), (7, b"seven".as_slice()));
        assert_eq!(
            store.list(),
            vec![("alpha".to_string(), 2), ("beta.01".to_string(), 7)]
        );
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn compact_removes_only_superseded_generations() {
        let store = temp_store("compact");
        for g in 1..=4 {
            store.put("s", g, &[g as u8]).expect("put");
        }
        assert_eq!(store.compact("s", 4), 3);
        assert_eq!(store.generations("s"), vec![4]);
        assert_eq!(store.latest("s").map(|(g, _)| g), Some(4));
        assert_eq!(store.remove_stream("s"), 1);
        assert_eq!(store.latest("s"), None);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn torn_newest_generation_falls_back_to_previous_intact_one() {
        let store = temp_store("torn");
        store.put("s", 1, b"good generation one").expect("put g1");
        store.put("s", 2, b"good generation two").expect("put g2");

        // Tear generation 2: truncate it mid-payload.
        let path = store.dir().join(file_name("s", 2));
        let bytes = std::fs::read(&path).expect("read");
        std::fs::write(&path, &bytes[..bytes.len() - 7]).expect("truncate");

        let (g, payload) = store.latest("s").expect("fallback");
        assert_eq!(
            (g, payload.as_slice()),
            (1, b"good generation one".as_slice())
        );

        // A corrupted (bit-flipped) newest generation is also skipped.
        let mut flipped = std::fs::read(store.dir().join(file_name("s", 1))).expect("read g1");
        store.put("s", 3, b"good generation three").expect("put g3");
        let p3 = store.dir().join(file_name("s", 3));
        let len = flipped.len();
        flipped[len / 2] ^= 0x40;
        std::fs::write(&p3, &flipped).expect("overwrite g3 with corrupt bytes");
        assert_eq!(store.latest("s").map(|(g, _)| g), Some(1));
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn orphan_tmp_files_are_collected_on_open() {
        let store = temp_store("orphans");
        // The writer's own temp name, and the older `<file>.tmp` form.
        for orphan in [".s.g00000001.ckpt.tmp", "s.g00000001.ckpt.tmp"] {
            std::fs::write(store.dir().join(orphan), b"torn writer").expect("write orphan");
        }
        let reopened = CheckpointStore::open(store.dir()).expect("reopen");
        assert_eq!(reopened.list(), Vec::new());
        assert!(!store.dir().join(".s.g00000001.ckpt.tmp").exists());
        assert!(!store.dir().join("s.g00000001.ckpt.tmp").exists());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn failed_put_keeps_the_previous_file_intact() {
        let store = temp_store("atomic");
        store.put("s", 1, b"first payload").expect("put g1");
        let path = store.dir().join(file_name("s", 1));
        let before = std::fs::read(&path).expect("read g1");

        // A directory squatting on the temp path makes the write fail
        // before anything could touch the target.
        std::fs::create_dir(store.dir().join(".s.g00000001.ckpt.tmp")).expect("squat");
        assert!(store.put("s", 1, b"second payload").is_err());
        assert_eq!(std::fs::read(&path).expect("reread g1"), before);
        assert_eq!(
            store.latest("s"),
            Some((1, b"first payload".to_vec())),
            "the old generation still reads back"
        );
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn foreign_files_are_ignored() {
        let store = temp_store("foreign");
        std::fs::write(store.dir().join("README.txt"), b"not a checkpoint").expect("write");
        std::fs::write(store.dir().join("s.ckpt"), b"no generation segment").expect("write");
        assert_eq!(store.list(), Vec::new());
        assert_eq!(store.latest("s"), None);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use std::sync::atomic::{AtomicUsize, Ordering};

        /// Per-case directory counter: proptest reuses one process, so the
        /// pid alone would alias cases.
        static CASE: AtomicUsize = AtomicUsize::new(0);

        fn case_store(tag: &str) -> CheckpointStore {
            let dir = std::env::temp_dir().join(format!(
                "triad_fleet_prop_{tag}_{}_{}",
                std::process::id(),
                CASE.fetch_add(1, Ordering::SeqCst)
            ));
            let _ = std::fs::remove_dir_all(&dir);
            CheckpointStore::open(&dir).expect("open store")
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(12))]

            // Any ascending set of generations round-trips byte-exactly:
            // `latest` returns the highest generation's payload, and
            // compacting to it removes exactly the superseded files
            // without touching the survivor.
            #[test]
            fn generation_round_trip(
                deltas in prop::collection::vec(1u64..10_000, 1..6),
                payloads in prop::collection::vec(
                    prop::collection::vec(0u8..=255, 0..256), 6..7),
            ) {
                let store = case_store("rt");
                // Strictly ascending generations from positive deltas.
                let gens: Vec<u64> = deltas
                    .iter()
                    .scan(0u64, |acc, d| {
                        *acc += d;
                        Some(*acc)
                    })
                    .collect();
                for (g, p) in gens.iter().zip(&payloads) {
                    store.put("s", *g, p).expect("put");
                }
                prop_assert_eq!(store.generations("s"), gens.clone());
                let top = *gens.last().expect("nonempty");
                let want = payloads[gens.len() - 1].clone();
                let (g, payload) = store.latest("s").expect("latest");
                prop_assert_eq!((g, payload), (top, want.clone()));
                prop_assert_eq!(store.list(), vec![("s".to_string(), top)]);

                prop_assert_eq!(store.compact("s", top), gens.len() - 1);
                prop_assert_eq!(store.generations("s"), vec![top]);
                let (g, payload) = store.latest("s").expect("latest after compact");
                prop_assert_eq!((g, payload), (top, want));
                let _ = std::fs::remove_dir_all(store.dir());
            }

            // Whatever happens to the newest generation file — truncated at
            // any point, any byte corrupted, or replaced with garbage — the
            // store falls back to the previous intact generation.
            #[test]
            fn damaged_newest_generation_recovers_previous_intact_one(
                good in prop::collection::vec(0u8..=255, 1..200),
                newest in prop::collection::vec(0u8..=255, 1..200),
                corruption in 0usize..3,
                pos_frac in 0.0f64..1.0,
            ) {
                let store = case_store("torn");
                store.put("s", 3, &good).expect("put g3");
                store.put("s", 4, &newest).expect("put g4");

                let path = store.dir().join(file_name("s", 4));
                let bytes = std::fs::read(&path).expect("read g4");
                match corruption {
                    0 => {
                        // Torn write: any strict prefix of the file.
                        let cut = ((bytes.len() - 1) as f64 * pos_frac) as usize;
                        std::fs::write(&path, &bytes[..cut]).expect("truncate");
                    }
                    1 => {
                        // Single corrupted byte anywhere: magic, generation,
                        // length, payload, or the CRC trailer itself.
                        let mut b = bytes;
                        let idx = ((b.len() - 1) as f64 * pos_frac) as usize;
                        b[idx] ^= 0x10;
                        std::fs::write(&path, &b).expect("flip");
                    }
                    _ => {
                        std::fs::write(&path, b"not a checkpoint at all").expect("garbage");
                    }
                }

                let (g, payload) = store.latest("s").expect("fallback generation");
                prop_assert_eq!((g, payload), (3, good));
                let _ = std::fs::remove_dir_all(store.dir());
            }
        }
    }
}
