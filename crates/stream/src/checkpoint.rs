//! Checkpoint / restore for [`StreamEngine`] state.
//!
//! Same hardening discipline as the `TRIAD2` model format in
//! `triad_core::persist` (whose CRC framing this reuses): magic, a small
//! `key=value` header, bounded length fields on every variable-size section,
//! and a whole-file CRC-32 trailer. Every float is written as raw IEEE-754
//! bits, so a restored engine continues **bit-identically** — the sliding
//! DFT, rolling moments, pairwise-similarity sums, and hysteresis state all
//! resume exactly where the checkpointed engine stopped.
//!
//! ```text
//! magic   b"TRIADS1\n"
//! u32     header length
//! header  UTF-8 "key=value" lines (model/stream names, shape, scalars)
//! ring    u64 len, f64-bits × len
//! sdft    u64 bins, (f64-bits re, f64-bits im) × bins
//! phase   u64 period, f64-bits sums × period, u64 counts × period
//! resid   u64 len, f64-bits × len
//! ranker  u64 domains, per domain { u64 rows, per row u32 len + f32-bits;
//!         u64 sums, f64-bits × sums }
//! starts  u64 len, u64 × len
//! events  u64 len, per event { u64 start, u8 has_end, u64 end, f64-bits peak }
//! u32     CRC-32 (IEEE) of every preceding byte, little-endian
//! ```
//!
//! Restore is two-phase: [`load`] parses and bounds-checks the file into a
//! [`CheckpointState`] (which names the model it was built with), then
//! [`CheckpointState::into_engine`] validates the state against the actual
//! fitted model before any of it touches code that asserts.

use crate::engine::{StreamConfig, StreamEngine, StreamEvent};
use crate::ring::RingBuffer;
use crate::StreamError;
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::path::Path;
use triad_core::persist::{read_exact_ctx, CrcReader, CrcWriter};
use triad_core::{FittedTriad, OnlineRanker, PersistError};
use tsops::fft::Complex;
use tsops::sliding::SlidingDft;

const MAGIC: &[u8; 8] = b"TRIADS1\n";

/// Longest accepted header, bytes.
const MAX_HEADER: usize = 1 << 16;
/// Longest accepted ring contents (2^26 samples = 512 MiB of f64s).
const MAX_RING: u64 = 1 << 26;
/// Most scored windows a checkpoint may carry.
const MAX_WINDOWS: u64 = 1 << 22;
/// Most hysteresis events a checkpoint may carry.
const MAX_EVENTS: u64 = 1 << 20;
/// Longest accepted embedding row.
const MAX_ROW: u32 = 1 << 16;
/// Most domains a checkpoint may carry (the paper uses 3).
const MAX_DOMAINS: u64 = 8;
/// Largest accepted period / tracked-bin count.
const MAX_PERIOD: u64 = 1 << 24;

fn invalid(msg: impl Into<String>) -> StreamError {
    StreamError::Checkpoint(PersistError::Format(msg.into()))
}

// ------------------------------------------------------------------- write

fn w_u64<W: Write>(w: &mut W, v: u64) -> Result<(), StreamError> {
    w.write_all(&v.to_le_bytes()).map_err(io_err)
}

fn w_u32<W: Write>(w: &mut W, v: u32) -> Result<(), StreamError> {
    w.write_all(&v.to_le_bytes()).map_err(io_err)
}

fn w_f64<W: Write>(w: &mut W, v: f64) -> Result<(), StreamError> {
    w_u64(w, v.to_bits())
}

fn io_err(e: std::io::Error) -> StreamError {
    StreamError::Checkpoint(PersistError::Io(e))
}

/// Serialize one stream's engine state.
pub fn save<W: Write>(
    w: W,
    stream: &str,
    model: &str,
    engine: &StreamEngine,
) -> Result<(), StreamError> {
    let mut w = CrcWriter::new(w);
    w.write_all(MAGIC).map_err(io_err)?;

    let header = [
        "version=1".to_string(),
        format!("stream={stream}"),
        format!("model={model}"),
        format!("window={}", engine.window),
        format!("stride={}", engine.stride),
        format!("period={}", engine.period),
        format!("capacity={}", engine.ring.capacity()),
        format!("tracked_bins={}", engine.cfg.tracked_bins),
        format!("enter_bits={}", engine.cfg.enter.to_bits()),
        format!("exit_bits={}", engine.cfg.exit.to_bits()),
        format!("base={}", engine.ring.base_seq()),
        format!("roll_count={}", engine.roll_count),
        format!("roll_sum_bits={}", engine.roll_sum.to_bits()),
        format!("roll_sumsq_bits={}", engine.roll_sumsq.to_bits()),
        format!("residual_sumsq_bits={}", engine.residual_sumsq.to_bits()),
        format!("sdft_ready={}", u8::from(engine.sdft_ready)),
        format!(
            "last_deviance_bits={}",
            engine.last_deviance.map_or(u64::MAX, f64::to_bits)
        ),
        format!(
            "has_last_deviance={}",
            u8::from(engine.last_deviance.is_some())
        ),
        format!("rejected_nonfinite={}", engine.rejected_nonfinite),
    ]
    .join("\n");
    w_u32(&mut w, header.len() as u32)?;
    w.write_all(header.as_bytes()).map_err(io_err)?;

    // Ring contents, oldest first.
    let ring = engine.ring.to_vec();
    w_u64(&mut w, ring.len() as u64)?;
    for v in &ring {
        w_f64(&mut w, *v)?;
    }

    // Sliding-DFT state, aligned with the reconstructable bin list.
    let spectrum = engine.sdft.spectrum();
    w_u64(&mut w, spectrum.len() as u64)?;
    for c in spectrum {
        w_f64(&mut w, c.re)?;
        w_f64(&mut w, c.im)?;
    }

    // Per-phase residual accumulators.
    w_u64(&mut w, engine.phase_sums.len() as u64)?;
    for s in &engine.phase_sums {
        w_f64(&mut w, *s)?;
    }
    for c in &engine.phase_counts {
        w_u64(&mut w, *c)?;
    }

    // Residual tail window.
    w_u64(&mut w, engine.residuals.len() as u64)?;
    for r in &engine.residuals {
        w_f64(&mut w, *r)?;
    }

    // Online-ranker state: embedding rows and pairwise-dot sums per domain.
    let (rows, sums) = engine.ranker.state();
    w_u64(&mut w, rows.len() as u64)?;
    for (domain_rows, domain_sums) in rows.iter().zip(sums) {
        w_u64(&mut w, domain_rows.len() as u64)?;
        for row in domain_rows {
            w_u32(&mut w, row.len() as u32)?;
            for &v in row {
                w_u32(&mut w, v.to_bits())?;
            }
        }
        w_u64(&mut w, domain_sums.len() as u64)?;
        for &s in domain_sums {
            w_f64(&mut w, s)?;
        }
    }

    // Scored-window starts.
    w_u64(&mut w, engine.window_starts.len() as u64)?;
    for &s in &engine.window_starts {
        w_u64(&mut w, s)?;
    }

    // Hysteresis events.
    w_u64(&mut w, engine.events.len() as u64)?;
    for ev in &engine.events {
        w_u64(&mut w, ev.start)?;
        w.write_all(&[u8::from(ev.end.is_some())]).map_err(io_err)?;
        w_u64(&mut w, ev.end.unwrap_or(0))?;
        w_f64(&mut w, ev.peak_deviance)?;
    }

    w.finish().map_err(io_err)?;
    Ok(())
}

/// Save to a file path. Not atomic on its own: the fleet tier stores
/// checkpoints through `triad_fleet::CheckpointStore`, which frames the
/// payload and writes via tmp + rename.
pub fn save_file(
    path: &Path,
    stream: &str,
    model: &str,
    engine: &StreamEngine,
) -> Result<(), StreamError> {
    let f = std::fs::File::create(path).map_err(io_err)?;
    save(std::io::BufWriter::new(f), stream, model, engine)
}

// -------------------------------------------------------------------- read

fn r_u64<R: Read>(r: &mut R, what: &str) -> Result<u64, StreamError> {
    let mut b = [0u8; 8];
    read_exact_ctx(r, &mut b, what)?;
    Ok(u64::from_le_bytes(b))
}

fn r_u32<R: Read>(r: &mut R, what: &str) -> Result<u32, StreamError> {
    let mut b = [0u8; 4];
    read_exact_ctx(r, &mut b, what)?;
    Ok(u32::from_le_bytes(b))
}

fn r_f64<R: Read>(r: &mut R, what: &str) -> Result<f64, StreamError> {
    Ok(f64::from_bits(r_u64(r, what)?))
}

fn get<T: std::str::FromStr>(map: &HashMap<String, String>, key: &str) -> Result<T, StreamError> {
    map.get(key)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| invalid(format!("missing/bad checkpoint header field {key}")))
}

/// Parsed-and-bounds-checked checkpoint, not yet bound to a model.
///
/// [`model`](CheckpointState::model) tells the caller which fitted model to
/// load; [`into_engine`](CheckpointState::into_engine) then validates shape
/// agreement before rebuilding the engine.
#[derive(Debug, Clone)]
pub struct CheckpointState {
    /// Stream name recorded at save time.
    pub stream: String,
    /// Model name recorded at save time.
    pub model: String,
    window: usize,
    stride: usize,
    period: usize,
    capacity: usize,
    tracked_bins: usize,
    enter: f64,
    exit: f64,
    base: u64,
    roll_count: usize,
    roll_sum: f64,
    roll_sumsq: f64,
    residual_sumsq: f64,
    sdft_ready: bool,
    last_deviance: Option<f64>,
    rejected_nonfinite: u64,
    ring: Vec<f64>,
    spectrum: Vec<Complex>,
    phase_sums: Vec<f64>,
    phase_counts: Vec<u64>,
    residuals: Vec<f64>,
    rows: Vec<Vec<Vec<f32>>>,
    sums: Vec<Vec<f64>>,
    window_starts: Vec<u64>,
    events: Vec<StreamEvent>,
}

/// Deserialize a checkpoint, bounds-checking every length field and
/// verifying the CRC trailer. Model binding happens in
/// [`CheckpointState::into_engine`].
pub fn load<R: Read>(r: R) -> Result<CheckpointState, StreamError> {
    let mut r = CrcReader::new(r);
    let mut magic = [0u8; 8];
    read_exact_ctx(&mut r, &mut magic, "checkpoint magic")?;
    if &magic != MAGIC {
        return Err(invalid("not a TRIADS1 stream checkpoint"));
    }

    let hlen = r_u32(&mut r, "checkpoint header length")? as usize;
    if hlen > MAX_HEADER {
        return Err(invalid(format!(
            "oversized checkpoint header ({hlen} bytes)"
        )));
    }
    let mut hbuf = vec![0u8; hlen];
    read_exact_ctx(&mut r, &mut hbuf, "checkpoint header")?;
    let header = String::from_utf8(hbuf).map_err(|_| invalid("non-UTF8 checkpoint header"))?;
    let mut map = HashMap::new();
    for line in header.lines() {
        let (k, v) = line
            .split_once('=')
            .ok_or_else(|| invalid(format!("bad checkpoint header line: {line}")))?;
        map.insert(k.to_string(), v.to_string());
    }

    let version: u32 = get(&map, "version")?;
    if version != 1 {
        return Err(invalid(format!("unsupported checkpoint version {version}")));
    }
    let window: usize = get(&map, "window")?;
    let stride: usize = get(&map, "stride")?;
    let period: usize = get(&map, "period")?;
    let capacity: usize = get(&map, "capacity")?;
    let tracked_bins: usize = get(&map, "tracked_bins")?;
    if window == 0 || stride == 0 || period == 0 {
        return Err(invalid(format!(
            "invalid checkpoint shape: window {window} / stride {stride} / period {period}"
        )));
    }
    if period as u64 > MAX_PERIOD || tracked_bins as u64 > MAX_PERIOD {
        return Err(invalid("implausible period / tracked_bins"));
    }
    if capacity < window + 1 || capacity as u64 > MAX_RING {
        return Err(invalid(format!(
            "invalid checkpoint capacity {capacity} for window {window}"
        )));
    }

    let state = CheckpointState {
        stream: get(&map, "stream")?,
        model: get(&map, "model")?,
        window,
        stride,
        period,
        capacity,
        tracked_bins,
        enter: f64::from_bits(get(&map, "enter_bits")?),
        exit: f64::from_bits(get(&map, "exit_bits")?),
        base: get(&map, "base")?,
        roll_count: get(&map, "roll_count")?,
        roll_sum: f64::from_bits(get(&map, "roll_sum_bits")?),
        roll_sumsq: f64::from_bits(get(&map, "roll_sumsq_bits")?),
        residual_sumsq: f64::from_bits(get(&map, "residual_sumsq_bits")?),
        sdft_ready: get::<u8>(&map, "sdft_ready")? != 0,
        last_deviance: if get::<u8>(&map, "has_last_deviance")? != 0 {
            Some(f64::from_bits(get(&map, "last_deviance_bits")?))
        } else {
            None
        },
        rejected_nonfinite: get(&map, "rejected_nonfinite")?,
        ring: Vec::new(),
        spectrum: Vec::new(),
        phase_sums: Vec::new(),
        phase_counts: Vec::new(),
        residuals: Vec::new(),
        rows: Vec::new(),
        sums: Vec::new(),
        window_starts: Vec::new(),
        events: Vec::new(),
    };
    let mut st = state;

    // Ring.
    let n_ring = r_u64(&mut r, "ring length")?;
    if n_ring > st.capacity as u64 {
        return Err(invalid(format!(
            "ring length {n_ring} exceeds capacity {}",
            st.capacity
        )));
    }
    st.ring = (0..n_ring)
        .map(|_| r_f64(&mut r, "ring sample"))
        .collect::<Result<_, _>>()?;

    // Sliding-DFT spectrum.
    let n_bins = r_u64(&mut r, "sdft bin count")?;
    let expect_bins = st.tracked_bins.min(st.window) as u64;
    if n_bins != expect_bins {
        return Err(invalid(format!(
            "sdft bin count {n_bins} does not match tracked_bins {} for window {}",
            st.tracked_bins, st.window
        )));
    }
    st.spectrum = (0..n_bins)
        .map(|_| {
            let re = r_f64(&mut r, "sdft re")?;
            let im = r_f64(&mut r, "sdft im")?;
            Ok::<_, StreamError>(Complex::new(re, im))
        })
        .collect::<Result<_, _>>()?;

    // Per-phase accumulators.
    let n_phase = r_u64(&mut r, "phase count")?;
    if n_phase != st.period as u64 {
        return Err(invalid(format!(
            "phase table length {n_phase} does not match period {}",
            st.period
        )));
    }
    st.phase_sums = (0..n_phase)
        .map(|_| r_f64(&mut r, "phase sum"))
        .collect::<Result<_, _>>()?;
    st.phase_counts = (0..n_phase)
        .map(|_| r_u64(&mut r, "phase counter"))
        .collect::<Result<_, _>>()?;

    // Residual tail.
    let n_res = r_u64(&mut r, "residual length")?;
    if n_res > st.window as u64 {
        return Err(invalid(format!(
            "residual window {n_res} exceeds window length {}",
            st.window
        )));
    }
    st.residuals = (0..n_res)
        .map(|_| r_f64(&mut r, "residual sample"))
        .collect::<Result<_, _>>()?;

    // Ranker state.
    let n_domains = r_u64(&mut r, "domain count")?;
    if n_domains > MAX_DOMAINS {
        return Err(invalid(format!("implausible domain count {n_domains}")));
    }
    for _ in 0..n_domains {
        let n_rows = r_u64(&mut r, "row count")?;
        if n_rows > MAX_WINDOWS {
            return Err(invalid(format!("implausible row count {n_rows}")));
        }
        let mut domain_rows = Vec::with_capacity(n_rows as usize);
        for _ in 0..n_rows {
            let rl = r_u32(&mut r, "row length")?;
            if rl > MAX_ROW {
                return Err(invalid(format!("implausible embedding row length {rl}")));
            }
            let mut row = Vec::with_capacity(rl as usize);
            for _ in 0..rl {
                row.push(f32::from_bits(r_u32(&mut r, "row value")?));
            }
            domain_rows.push(row);
        }
        let n_sums = r_u64(&mut r, "sum count")?;
        if n_sums != n_rows {
            return Err(invalid(format!(
                "ranker sums ({n_sums}) misaligned with rows ({n_rows})"
            )));
        }
        let domain_sums = (0..n_sums)
            .map(|_| r_f64(&mut r, "pairwise sum"))
            .collect::<Result<_, _>>()?;
        st.rows.push(domain_rows);
        st.sums.push(domain_sums);
    }

    // Window starts.
    let n_starts = r_u64(&mut r, "window-start count")?;
    if n_starts > MAX_WINDOWS {
        return Err(invalid(format!("implausible window count {n_starts}")));
    }
    st.window_starts = (0..n_starts)
        .map(|_| r_u64(&mut r, "window start"))
        .collect::<Result<_, _>>()?;

    // Events.
    let n_events = r_u64(&mut r, "event count")?;
    if n_events > MAX_EVENTS {
        return Err(invalid(format!("implausible event count {n_events}")));
    }
    for _ in 0..n_events {
        let start = r_u64(&mut r, "event start")?;
        let mut flag = [0u8; 1];
        read_exact_ctx(&mut r, &mut flag, "event end flag")?;
        let end_raw = r_u64(&mut r, "event end")?;
        let peak_deviance = r_f64(&mut r, "event peak")?;
        st.events.push(StreamEvent {
            start,
            end: (flag[0] != 0).then_some(end_raw),
            peak_deviance,
        });
    }

    r.verify_trailer()?;

    // Cross-section consistency not already enforced inline.
    for (domain_rows, domain_sums) in st.rows.iter().zip(&st.sums) {
        debug_assert_eq!(domain_rows.len(), domain_sums.len());
    }
    if let Some(first) = st.rows.first() {
        if first.len() != st.window_starts.len() {
            return Err(invalid(format!(
                "scored-window starts ({}) misaligned with ranker rows ({})",
                st.window_starts.len(),
                first.len()
            )));
        }
    }
    Ok(st)
}

/// Load from a file path.
pub fn load_file(path: &Path) -> Result<CheckpointState, StreamError> {
    let f = std::fs::File::open(path).map_err(io_err)?;
    load(std::io::BufReader::new(f))
}

impl CheckpointState {
    /// Validate this checkpoint against the fitted model it claims to have
    /// been built with and rebuild the engine. Shape disagreements surface
    /// as [`StreamError::ModelMismatch`], never as a panic.
    pub fn into_engine(self, fitted: &FittedTriad) -> Result<StreamEngine, StreamError> {
        if fitted.window_len() != self.window
            || fitted.segmenter().stride != self.stride
            || fitted.period().max(1) != self.period
        {
            return Err(StreamError::ModelMismatch(format!(
                "checkpoint shape (window {}, stride {}, period {}) does not match model {:?} \
                 (window {}, stride {}, period {})",
                self.window,
                self.stride,
                self.period,
                self.model,
                fitted.window_len(),
                fitted.segmenter().stride,
                fitted.period().max(1)
            )));
        }
        let fresh = fitted.online_ranker();
        if self.rows.len() != fresh.domains().len() {
            return Err(StreamError::ModelMismatch(format!(
                "checkpoint has {} domains, model {:?} has {}",
                self.rows.len(),
                self.model,
                fresh.domains().len()
            )));
        }

        let bins: Vec<usize> = (0..self.tracked_bins.min(self.window)).collect();
        let mut sdft = SlidingDft::new(self.window, &bins);
        sdft.set_spectrum(&self.spectrum);

        Ok(StreamEngine {
            cfg: StreamConfig {
                capacity: self.capacity,
                enter: self.enter,
                exit: self.exit,
                tracked_bins: self.tracked_bins,
            },
            window: self.window,
            stride: self.stride,
            period: self.period,
            ring: RingBuffer::from_parts(self.capacity, self.base, self.ring),
            ranker: OnlineRanker::from_state(fitted.model(), self.rows, self.sums),
            window_starts: self.window_starts,
            roll_sum: self.roll_sum,
            roll_sumsq: self.roll_sumsq,
            roll_count: self.roll_count,
            sdft,
            sdft_ready: self.sdft_ready,
            phase_sums: self.phase_sums,
            phase_counts: self.phase_counts,
            residuals: VecDeque::from(self.residuals),
            residual_sumsq: self.residual_sumsq,
            events: self.events,
            last_deviance: self.last_deviance,
            rejected_nonfinite: self.rejected_nonfinite,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::StreamConfig;
    use crate::testutil::{anomalous_test, periodic, quick_fitted};
    use triad_core::{TriAd, TriadConfig};

    fn streamed_engine(fitted: &FittedTriad, points: &[f64]) -> StreamEngine {
        let mut engine = StreamEngine::new(
            fitted,
            StreamConfig {
                enter: 0.3,
                exit: 0.1,
                ..StreamConfig::default()
            },
        );
        for &x in points {
            engine.push(fitted, x).expect("finite");
        }
        engine
    }

    #[test]
    fn kill_and_restore_mid_stream_is_bit_identical() {
        let fitted = quick_fitted();
        let test = anomalous_test(420, 32.0);
        let cut = 230; // mid-stream, past several windows and the anomaly start

        let mut original = streamed_engine(&fitted, &test[..cut]);
        let mut buf = Vec::new();
        save(&mut buf, "s1", "m1", &original).expect("save");

        let state = load(buf.as_slice()).expect("load");
        assert_eq!(state.stream, "s1");
        assert_eq!(state.model, "m1");
        let mut restored = state.into_engine(&fitted).expect("into_engine");
        assert_eq!(restored.status(), original.status());

        // Both engines continue over the identical tail…
        for &x in &test[cut..] {
            let a = original.push(&fitted, x).expect("finite");
            let b = restored.push(&fitted, x).expect("finite");
            assert_eq!(a, b);
        }
        assert_eq!(restored.status(), original.status());
        // …and the kill-and-restore run finalizes bit-equal to both the
        // uninterrupted engine and the offline batch detection.
        let det_restored = restored.finalize(&fitted).expect("finalize");
        assert_eq!(det_restored, original.finalize(&fitted).expect("finalize"));
        assert_eq!(det_restored, fitted.detect(&test));
    }

    #[test]
    fn every_truncation_and_bit_flip_is_rejected() {
        let fitted = quick_fitted();
        let engine = streamed_engine(&fitted, &periodic(300, 32.0));
        let mut buf = Vec::new();
        save(&mut buf, "s1", "m1", &engine).expect("save");

        let step = (buf.len() / 19).max(1);
        for cut in (0..buf.len()).step_by(step) {
            assert!(load(&buf[..cut]).is_err(), "prefix of {cut} bytes loaded");
        }
        for pos in (0..buf.len()).step_by(step) {
            let mut evil = buf.clone();
            evil[pos] ^= 0x10;
            assert!(load(evil.as_slice()).is_err(), "bit flip at {pos} loaded");
        }
    }

    #[test]
    fn not_a_checkpoint_is_rejected() {
        assert!(load(&b"garbage"[..]).is_err());
        assert!(load(&b"TRIAD2\n\0\0\0\0more"[..]).is_err());
    }

    #[test]
    fn model_mismatch_is_a_typed_error_not_a_panic() {
        let fitted = quick_fitted();
        let engine = streamed_engine(&fitted, &periodic(300, 32.0));
        let mut buf = Vec::new();
        save(&mut buf, "s1", "m1", &engine).expect("save");

        // A model trained on a different period has a different window.
        let other = TriAd::new(TriadConfig {
            epochs: 1,
            depth: 1,
            hidden: 6,
            batch: 4,
            merlin_step: 8,
            period_override: Some(16),
            ..Default::default()
        })
        .fit(&periodic(400, 16.0))
        .expect("fit");
        assert_ne!(other.window_len(), fitted.window_len());

        let state = load(buf.as_slice()).expect("load");
        assert!(matches!(
            state.into_engine(&other),
            Err(StreamError::ModelMismatch(_))
        ));
    }

    #[test]
    fn file_round_trip_with_temp_path() {
        let fitted = quick_fitted();
        let engine = streamed_engine(&fitted, &periodic(260, 32.0));
        let path = std::env::temp_dir().join("triad_stream_ckpt_test.ckpt");
        save_file(&path, "s9", "m9", &engine).expect("save_file");
        let state = load_file(&path).expect("load_file");
        assert_eq!(state.stream, "s9");
        let restored = state.into_engine(&fitted).expect("into_engine");
        assert_eq!(restored.status(), engine.status());
        std::fs::remove_file(&path).ok();
    }
}
