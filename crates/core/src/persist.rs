//! Save / load a trained TriAD model.
//!
//! Per-dataset training is cheap but not free; a monitoring deployment wants
//! to train once and re-run detection on fresh test windows. The format is
//! a small header (config fields the pipeline needs at inference, training
//! metadata, the training series for the window-selection stage) followed by
//! the `neuro` parameter block, with a whole-file checksum trailer.
//!
//! ```text
//! magic   b"TRIAD2\n"
//! u32     header length
//! header  UTF-8 "key=value" lines (config + metadata)
//! u64     training-series length, then f64×len little-endian samples
//! block   neuro::serialize parameter file (all encoder + head params)
//! u32     CRC-32 (IEEE) of every preceding byte, little-endian
//! ```
//!
//! `load` is hardened against hostile or damaged input: every length field
//! is bounded, header values are validated before they reach code that
//! asserts on them (window/stride/period), truncation surfaces as a typed
//! [`PersistError`] rather than a panic, and the checksum catches bit-level
//! corruption anywhere in the file.

use crate::config::TriadConfig;
use crate::error::PersistError;
use crate::features::FeatureExtractor;
use crate::pipeline::FittedTriad;
use crate::train::TrainReport;
use neuro::serialize::{load_params, write_params};
use std::fs::File;
use std::io::{self, BufWriter, Read, Write};
use std::path::Path;
use tsops::window::Segmenter;

const MAGIC: &[u8; 7] = b"TRIAD2\n";

/// Longest accepted header, bytes.
const MAX_HEADER: usize = 1 << 20;
/// Longest accepted training series (2^26 samples = 512 MiB of f64s).
const MAX_TRAIN: usize = 1 << 26;

// ---------------------------------------------------------------- checksum

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

const CRC_TABLE: [u32; 256] = crc32_table();

fn crc32_update(mut crc: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        crc = CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// One-shot CRC-32 (IEEE, the same polynomial as the TRIAD2/TRIADS1 file
/// trailers). Public so sibling record formats — the evalbed JSONL result
/// rows — checksum with the identical algorithm instead of re-deriving it.
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update(0xFFFF_FFFF, bytes)
}

/// Writer shim that checksums everything passing through it; [`finish`]
/// appends the trailer.
///
/// Public so sibling persisted formats (the stream checkpoints of
/// `triad-stream`) share the exact CRC-32 framing instead of re-deriving it.
///
/// [`finish`]: CrcWriter::finish
pub struct CrcWriter<W: Write> {
    inner: W,
    crc: u32,
}

impl<W: Write> CrcWriter<W> {
    pub fn new(inner: W) -> Self {
        CrcWriter {
            inner,
            crc: 0xFFFF_FFFF,
        }
    }

    pub fn finish(mut self) -> io::Result<()> {
        let digest = !self.crc;
        self.inner.write_all(&digest.to_le_bytes())?;
        self.inner.flush()
    }
}

impl<W: Write> Write for CrcWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.crc = crc32_update(self.crc, &buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Reader shim mirroring [`CrcWriter`]; [`verify_trailer`] checks the stored
/// digest after the payload has been consumed.
///
/// [`verify_trailer`]: CrcReader::verify_trailer
pub struct CrcReader<R: Read> {
    inner: R,
    crc: u32,
}

impl<R: Read> CrcReader<R> {
    pub fn new(inner: R) -> Self {
        CrcReader {
            inner,
            crc: 0xFFFF_FFFF,
        }
    }

    pub fn verify_trailer(mut self) -> Result<(), PersistError> {
        let computed = !self.crc;
        let mut t = [0u8; 4];
        self.inner
            .read_exact(&mut t)
            .map_err(|e| PersistError::Truncated {
                what: "checksum trailer".into(),
                source: e,
            })?;
        let stored = u32::from_le_bytes(t);
        if stored != computed {
            return Err(invalid(format!(
                "model file corrupted: checksum mismatch (stored {stored:08x}, computed {computed:08x})"
            )));
        }
        Ok(())
    }
}

impl<R: Read> Read for CrcReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.crc = crc32_update(self.crc, &buf[..n]);
        Ok(n)
    }
}

// ------------------------------------------------------------------ header

fn invalid(msg: impl Into<String>) -> PersistError {
    PersistError::Format(msg.into())
}

/// `read_exact` that reports *which* field was being read when the stream
/// ended, as a typed [`PersistError::Truncated`]. Shared with the stream
/// checkpoint reader.
pub fn read_exact_ctx<R: Read>(r: &mut R, buf: &mut [u8], what: &str) -> Result<(), PersistError> {
    r.read_exact(buf).map_err(|e| PersistError::Truncated {
        what: what.into(),
        source: e,
    })
}

fn header_string(fitted: &FittedTriad) -> String {
    let cfg = fitted.config();
    let rep = fitted.report();
    let fx = fitted.extractor();
    let domains: Vec<&str> = cfg.domains().iter().map(|d| d.name()).collect();
    [
        format!("alpha={}", cfg.alpha),
        format!("depth={}", cfg.depth),
        format!("hidden={}", cfg.hidden),
        format!("kernel={}", cfg.kernel),
        format!("temperature={}", cfg.temperature),
        format!("top_z={}", cfg.top_z),
        format!("weighted_voting={}", cfg.weighted_voting),
        format!("triad_vote_weight={}", cfg.triad_vote_weight),
        format!("merlin_pad_windows={}", cfg.merlin_pad_windows),
        format!("merlin_min_len={}", cfg.merlin_min_len),
        format!("merlin_max_len={}", cfg.merlin_max_len),
        format!("merlin_step={}", cfg.merlin_step),
        format!("seed={}", cfg.seed),
        format!("domains={}", domains.join(",")),
        format!("period={}", rep.period),
        format!("window={}", rep.window),
        format!("stride={}", rep.stride),
        format!("residual_scale={}", fx.residual_scale),
    ]
    .join("\n")
}

fn parse_header(text: &str) -> Result<std::collections::HashMap<String, String>, PersistError> {
    let mut map = std::collections::HashMap::new();
    for line in text.lines() {
        let (k, v) = line
            .split_once('=')
            .ok_or_else(|| invalid(format!("bad header line: {line}")))?;
        map.insert(k.to_string(), v.to_string());
    }
    Ok(map)
}

fn get<T: std::str::FromStr>(
    map: &std::collections::HashMap<String, String>,
    key: &str,
) -> Result<T, PersistError> {
    map.get(key)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| invalid(format!("missing/bad header field {key}")))
}

// --------------------------------------------------------------- save/load

/// Serialize a fitted model.
pub fn save<W: Write>(w: W, fitted: &FittedTriad) -> Result<(), PersistError> {
    let mut w = CrcWriter::new(w);
    w.write_all(MAGIC)?;
    let header = header_string(fitted);
    w.write_all(&(header.len() as u32).to_le_bytes())?;
    w.write_all(header.as_bytes())?;
    let train = fitted.train_series();
    w.write_all(&(train.len() as u64).to_le_bytes())?;
    for &v in train {
        w.write_all(&v.to_le_bytes())?;
    }
    write_params(&mut w, &fitted.model().params())?;
    w.finish()?;
    Ok(())
}

/// Write `path` atomically: `write` fills `.<file>.tmp` beside the target,
/// which is then renamed over it, so a failed or interrupted write never
/// leaves a truncated file where the previous one was. The temp file is
/// removed on error. Model files and fleet checkpoints are both written
/// through here.
pub fn write_atomic<E: From<io::Error>>(
    path: &Path,
    write: impl FnOnce(&mut BufWriter<File>) -> Result<(), E>,
) -> Result<(), E> {
    let name = path.file_name().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("path {} has no file name", path.display()),
        )
    })?;
    let mut tmp_name = std::ffi::OsString::from(".");
    tmp_name.push(name);
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    let written = File::create(&tmp)
        .map_err(E::from)
        .and_then(|file| {
            let mut w = BufWriter::new(file);
            write(&mut w)?;
            w.flush().map_err(E::from)
        })
        .and_then(|()| std::fs::rename(&tmp, path).map_err(E::from));
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

/// Save to a file path atomically (see [`write_atomic`]).
pub fn save_file(path: &Path, fitted: &FittedTriad) -> Result<(), PersistError> {
    write_atomic(path, |w| save(w, fitted))
}

/// Deserialize a fitted model, validating every field before it reaches
/// code that would panic on nonsense (see module docs).
pub fn load<R: Read>(r: R) -> Result<FittedTriad, PersistError> {
    let mut r = CrcReader::new(r);
    let mut magic = [0u8; 7];
    read_exact_ctx(&mut r, &mut magic, "magic")?;
    if &magic != MAGIC {
        return Err(invalid("not a TRIAD2 model file"));
    }
    let mut len4 = [0u8; 4];
    read_exact_ctx(&mut r, &mut len4, "header length")?;
    let hlen = u32::from_le_bytes(len4) as usize;
    if hlen > MAX_HEADER {
        return Err(invalid(format!("oversized header ({hlen} bytes)")));
    }
    let mut hbuf = vec![0u8; hlen];
    read_exact_ctx(&mut r, &mut hbuf, "header")?;
    let header = String::from_utf8(hbuf).map_err(|_| invalid("non-UTF8 header"))?;
    let map = parse_header(&header)?;

    let mut cfg = TriadConfig {
        alpha: get(&map, "alpha")?,
        depth: get(&map, "depth")?,
        hidden: get(&map, "hidden")?,
        kernel: get(&map, "kernel")?,
        temperature: get(&map, "temperature")?,
        top_z: get(&map, "top_z")?,
        weighted_voting: get(&map, "weighted_voting")?,
        triad_vote_weight: get(&map, "triad_vote_weight")?,
        merlin_pad_windows: get(&map, "merlin_pad_windows")?,
        merlin_min_len: get(&map, "merlin_min_len")?,
        merlin_max_len: get(&map, "merlin_max_len")?,
        merlin_step: get(&map, "merlin_step")?,
        seed: get(&map, "seed")?,
        ..TriadConfig::default()
    };
    let domain_names: String = get(&map, "domains")?;
    cfg.use_temporal = domain_names.split(',').any(|d| d == "temporal");
    cfg.use_frequency = domain_names.split(',').any(|d| d == "frequency");
    cfg.use_residual = domain_names.split(',').any(|d| d == "residual");
    // The same validation `fit` runs: a tampered header cannot smuggle
    // values the pipeline's own invariants reject.
    cfg.validate()
        .map_err(|e| invalid(format!("invalid config in header: {e}")))?;

    let period: usize = get(&map, "period")?;
    let window: usize = get(&map, "window")?;
    let stride: usize = get(&map, "stride")?;
    let residual_scale: f64 = get(&map, "residual_scale")?;
    // These reach `Segmenter::new` / `FeatureExtractor`, which assert;
    // reject bad values here with an error instead.
    if period < 2 {
        return Err(invalid(format!("invalid header: period {period} < 2")));
    }
    if window == 0 || stride == 0 {
        return Err(invalid(format!(
            "invalid header: window {window} / stride {stride} must be ≥ 1"
        )));
    }
    if !residual_scale.is_finite() {
        return Err(invalid("invalid header: non-finite residual_scale"));
    }

    let mut len8 = [0u8; 8];
    read_exact_ctx(&mut r, &mut len8, "train length")?;
    let n_train = u64::from_le_bytes(len8);
    if n_train > MAX_TRAIN as u64 {
        return Err(invalid(format!("implausible train length {n_train}")));
    }
    let n_train = n_train as usize;
    if n_train < window {
        return Err(invalid(format!(
            "train series ({n_train} points) shorter than window ({window})"
        )));
    }
    let mut train = Vec::with_capacity(n_train);
    let mut b8 = [0u8; 8];
    for i in 0..n_train {
        read_exact_ctx(&mut r, &mut b8, &format!("train sample {i}/{n_train}"))?;
        train.push(f64::from_le_bytes(b8));
    }

    // Rebuild the model skeleton exactly as `train::fit` does (same seed,
    // same construction order), then overwrite its parameters.
    let model = crate::train::skeleton(&cfg);
    load_params(&mut r, &model.params())?;
    r.verify_trailer()?;

    let extractor = FeatureExtractor {
        period,
        residual_scale,
    };
    let segmenter = Segmenter::new(window, stride);
    let report = TrainReport {
        epoch_losses: Vec::new(),
        val_losses: Vec::new(),
        period,
        window,
        stride,
        n_windows: 0,
    };
    Ok(FittedTriad::from_parts(
        cfg, model, extractor, segmenter, report, train,
    ))
}

/// Load from a file path.
pub fn load_file(path: &Path) -> Result<FittedTriad, PersistError> {
    load(std::io::BufReader::new(
        std::fs::File::open(path).map_err(PersistError::Io)?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::TriAd;
    use proptest::prelude::*;
    use std::f64::consts::PI;

    fn series() -> (Vec<f64>, Vec<f64>) {
        let mut full: Vec<f64> = (0..1000)
            .map(|i| (2.0 * PI * i as f64 / 40.0).sin() + 0.25 * (4.0 * PI * i as f64 / 40.0).sin())
            .collect();
        for i in 800..860 {
            full[i] = (8.0 * PI * i as f64 / 40.0).sin();
        }
        (full[..600].to_vec(), full[600..].to_vec())
    }

    fn quick_cfg() -> TriadConfig {
        TriadConfig {
            epochs: 3,
            depth: 2,
            hidden: 8,
            batch: 4,
            merlin_step: 4,
            ..Default::default()
        }
    }

    /// `load(...).unwrap_err()` without requiring `FittedTriad: Debug`.
    fn load_err(bytes: &[u8], what: &str) -> PersistError {
        match load(bytes) {
            Ok(_) => panic!("expected load to fail: {what}"),
            Err(e) => e,
        }
    }

    fn saved_bytes() -> Vec<u8> {
        let (train, _) = series();
        let fitted = TriAd::new(quick_cfg()).fit(&train).expect("fit");
        let mut buf = Vec::new();
        save(&mut buf, &fitted).expect("save");
        buf
    }

    #[test]
    fn save_load_round_trip_reproduces_detection() {
        let (train, test) = series();
        let fitted = TriAd::new(quick_cfg()).fit(&train).expect("fit");
        let before = fitted.detect(&test);

        let mut buf = Vec::new();
        save(&mut buf, &fitted).expect("save");
        let restored = load(buf.as_slice()).expect("load");

        assert_eq!(restored.period(), fitted.period());
        assert_eq!(restored.window_len(), fitted.window_len());
        let after = restored.detect(&test);
        assert_eq!(before.prediction, after.prediction);
        assert_eq!(before.votes, after.votes);
        assert_eq!(before.selected_window, after.selected_window);
        assert_eq!(before.discords, after.discords);
    }

    #[test]
    fn ablated_models_round_trip() {
        let (train, test) = series();
        let mut cfg = quick_cfg();
        cfg.use_residual = false;
        let fitted = TriAd::new(cfg).fit(&train).expect("fit");
        let mut buf = Vec::new();
        save(&mut buf, &fitted).unwrap();
        let restored = load(buf.as_slice()).unwrap();
        assert_eq!(restored.model().encoders.len(), 2);
        assert_eq!(
            fitted.detect(&test).prediction,
            restored.detect(&test).prediction
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(load(&b"not a model"[..]).is_err());
        let mut bad = MAGIC.to_vec();
        bad.extend_from_slice(&(5u32).to_le_bytes());
        bad.extend_from_slice(b"x=y\nz"); // malformed header line
        assert!(load(bad.as_slice()).is_err());
    }

    #[test]
    fn rejects_every_truncation() {
        let buf = saved_bytes();
        // Every proper prefix must fail with an error, never panic: the
        // checksum trailer guarantees even "clean" cuts at field boundaries
        // are caught.
        let step = (buf.len() / 23).max(1);
        let mut cuts: Vec<usize> = (0..buf.len()).step_by(step).collect();
        cuts.extend([buf.len() - 1, buf.len() - 4, buf.len() - 5]);
        for cut in cuts {
            let err = load_err(&buf[..cut], &format!("prefix of {cut} bytes"));
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn rejects_every_bit_flip() {
        let buf = saved_bytes();
        let step = (buf.len() / 29).max(1);
        let mut spots: Vec<usize> = (0..buf.len()).step_by(step).collect();
        spots.extend([0, 3, 7, 8, 12, buf.len() - 4, buf.len() - 1]);
        for pos in spots {
            for bit in [0, 4, 7] {
                let mut evil = buf.clone();
                evil[pos] ^= 1 << bit;
                assert!(
                    load(evil.as_slice()).is_err(),
                    "flip at byte {pos} bit {bit} loaded"
                );
            }
        }
    }

    #[test]
    fn truncated_file_reports_descriptive_error() {
        let buf = saved_bytes();
        let err = load_err(&buf[..buf.len() - 2], "2-byte truncation");
        let msg = err.to_string();
        assert!(
            msg.contains("truncated") || msg.contains("checksum"),
            "unhelpful error: {msg}"
        );
    }

    #[test]
    fn rejects_header_values_that_would_panic_downstream() {
        // Forge a structurally valid file with window=0 by rewriting the
        // header and re-sealing the checksum, so only validation can save us.
        let buf = saved_bytes();
        let hlen = u32::from_le_bytes(buf[7..11].try_into().unwrap()) as usize;
        let header = std::str::from_utf8(&buf[11..11 + hlen]).unwrap();
        assert!(header.lines().any(|l| l.starts_with("window=")));
        let patched: String = header
            .lines()
            .map(|l| {
                if l.starts_with("window=") {
                    "window=0"
                } else {
                    l
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        let mut evil = Vec::new();
        evil.extend_from_slice(MAGIC);
        evil.extend_from_slice(&(patched.len() as u32).to_le_bytes());
        evil.extend_from_slice(patched.as_bytes());
        evil.extend_from_slice(&buf[11 + hlen..buf.len() - 4]);
        let crc = !crc32_update(0xFFFF_FFFF, &evil);
        evil.extend_from_slice(&crc.to_le_bytes());
        let err = load_err(&evil, "window=0 header");
        assert!(err.to_string().contains("window"), "{err}");
    }

    #[test]
    fn file_round_trip() {
        let (train, _) = series();
        let fitted = TriAd::new(quick_cfg()).fit(&train).expect("fit");
        let path = std::env::temp_dir().join("triad_persist_test.bin");
        save_file(&path, &fitted).unwrap();
        let restored = load_file(&path).unwrap();
        assert_eq!(restored.window_len(), fitted.window_len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn failed_save_keeps_the_previous_file_intact() {
        let (train, _) = series();
        let fitted = TriAd::new(quick_cfg()).fit(&train).expect("fit");
        let dir = std::env::temp_dir().join(format!("triad_persist_atomic_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.triad");
        save_file(&path, &fitted).unwrap();
        let before = std::fs::read(&path).unwrap();

        // A directory squatting on the temp path makes the write fail
        // before anything could touch the target.
        std::fs::create_dir(dir.join(".m.triad.tmp")).unwrap();
        let other = TriAd::new(TriadConfig {
            seed: 99,
            ..quick_cfg()
        })
        .fit(&train)
        .expect("fit");
        assert!(save_file(&path, &other).is_err());
        assert_eq!(std::fs::read(&path).unwrap(), before);
        std::fs::remove_dir_all(&dir).ok();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        // Params + config survive save→load exactly: re-serializing the
        // loaded model reproduces the original byte stream.
        #[test]
        fn save_load_save_is_byte_identical(
            hidden in 4usize..=8,
            depth in 1usize..=2,
            seed in any::<u64>(),
            alpha in 0.05f64..0.95,
            use_residual in any::<bool>(),
        ) {
            let train: Vec<f64> = (0..300)
                .map(|i| (2.0 * PI * i as f64 / 30.0).sin())
                .collect();
            let cfg = TriadConfig {
                epochs: 1,
                batch: 4,
                merlin_step: 8,
                hidden,
                depth,
                seed,
                alpha,
                use_residual,
                ..Default::default()
            };
            let fitted = match TriAd::new(cfg).fit(&train) {
                Ok(f) => f,
                Err(e) => return Err(TestCaseError::fail(format!("fit failed: {e}"))),
            };
            let mut first = Vec::new();
            save(&mut first, &fitted).expect("save");
            let restored = load(first.as_slice()).expect("load");
            prop_assert_eq!(restored.config().hidden, hidden);
            prop_assert_eq!(restored.config().depth, depth);
            prop_assert_eq!(restored.config().seed, seed);
            prop_assert_eq!(restored.config().use_residual, use_residual);
            let mut second = Vec::new();
            save(&mut second, &restored).expect("re-save");
            prop_assert_eq!(&first, &second);
        }
    }
}
