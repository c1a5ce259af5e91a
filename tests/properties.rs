//! Property-based tests (proptest) over the substrate invariants the whole
//! pipeline leans on.

use obs::json::{self, Value};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A periodic test signal with deterministic jitter — cheap to generate,
/// rich enough for the pipeline to find a period and for MERLIN to have
/// non-trivial nearest-neighbour structure.
fn jittered_sine(n: usize, period: usize, phase: u64) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let t = 2.0 * std::f64::consts::PI * i as f64 / period as f64;
            t.sin()
                + 0.4 * (2.0 * t).cos()
                + 0.05 * (((i as u64 * 37 + phase * 13) % 97) as f64 / 97.0 - 0.5)
        })
        .collect()
}

/// Characters the JSON writer must escape or pass through untouched:
/// quotes, backslashes, control characters, DEL and non-ASCII text.
const TRICKY_CHARS: [char; 16] = [
    '"',
    '\\',
    '/',
    '\n',
    '\r',
    '\t',
    '\u{0}',
    '\u{8}',
    '\u{c}',
    '\u{1f}',
    '\u{7f}',
    'é',
    '—',
    '€',
    '😀',
    '\u{10FFFF}',
];

fn random_string(rng: &mut StdRng) -> String {
    (0..rng.random_range(0usize..12))
        .map(|_| {
            if rng.random_bool(0.5) {
                TRICKY_CHARS[rng.random_range(0..TRICKY_CHARS.len())]
            } else {
                char::from_u32(rng.random_range(0x20u32..0xD800)).expect("below surrogates")
            }
        })
        .collect()
}

/// A random finite float, drawn from all bit patterns (subnormals, huge
/// exponents, negative zero) rather than from a range.
fn random_finite(rng: &mut StdRng) -> f64 {
    loop {
        let x = f64::from_bits(rng.random::<u64>());
        if x.is_finite() {
            return x;
        }
    }
}

/// A seeded random JSON tree at most `depth` containers deep.
fn random_json(rng: &mut StdRng, depth: usize) -> Value {
    if depth > 0 && rng.random_bool(0.6) {
        let len = rng.random_range(0usize..5);
        return if rng.random_bool(0.5) {
            Value::Arr((0..len).map(|_| random_json(rng, depth - 1)).collect())
        } else {
            Value::Obj(
                (0..len)
                    .map(|_| (random_string(rng), random_json(rng, depth - 1)))
                    .collect(),
            )
        };
    }
    match rng.random_range(0..4) {
        0 => Value::Null,
        1 => Value::Bool(rng.random()),
        2 => Value::Num(random_finite(rng)),
        _ => Value::Str(random_string(rng)),
    }
}

/// Every number in `v`, as bits, in document order.
fn number_bits(v: &Value, out: &mut Vec<u64>) {
    match v {
        Value::Num(n) => out.push(n.to_bits()),
        Value::Arr(items) => items.iter().for_each(|it| number_bits(it, out)),
        Value::Obj(fields) => fields.iter().for_each(|(_, it)| number_bits(it, out)),
        _ => {}
    }
}

/// `depth` nested containers, each an array or an object as `rng` picks.
fn nested(rng: &mut StdRng, depth: usize) -> String {
    let mut closers = Vec::with_capacity(depth);
    let mut text = String::new();
    for _ in 0..depth {
        if rng.random_bool(0.5) {
            text.push('[');
            closers.push(']');
        } else {
            text.push_str("{\"k\":");
            closers.push('}');
        }
    }
    text.push('0');
    text.extend(closers.iter().rev());
    text
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// FFT round-trip: ifft(fft(x)) == x for arbitrary real signals and
    /// lengths (hits both the radix-2 and Bluestein paths).
    #[test]
    fn fft_round_trip(x in prop::collection::vec(-1e3f64..1e3, 1..200)) {
        let spec = tsops::fft::rfft(&x);
        let back = tsops::fft::irfft_real(&spec);
        prop_assert_eq!(back.len(), x.len());
        for (a, b) in x.iter().zip(&back) {
            prop_assert!((a - b).abs() < 1e-6 * (1.0 + a.abs()), "{} vs {}", a, b);
        }
    }

    /// Parseval: time-domain and frequency-domain energies match.
    #[test]
    fn parseval(x in prop::collection::vec(-100f64..100.0, 2..150)) {
        let te: f64 = x.iter().map(|v| v * v).sum();
        let fe: f64 = tsops::fft::rfft(&x).iter().map(|z| z.norm_sqr()).sum::<f64>() / x.len() as f64;
        prop_assert!((te - fe).abs() < 1e-6 * (1.0 + te));
    }

    /// Z-normalisation invariants: zero mean, unit (or zero) std, and
    /// invariance to affine input transforms.
    #[test]
    fn znorm_affine_invariance(
        x in prop::collection::vec(-50f64..50.0, 4..100),
        scale in 0.1f64..10.0,
        offset in -100f64..100.0,
    ) {
        let z1 = tsops::stats::znormalize(&x);
        let shifted: Vec<f64> = x.iter().map(|v| v * scale + offset).collect();
        let z2 = tsops::stats::znormalize(&shifted);
        for (a, b) in z1.iter().zip(&z2) {
            prop_assert!((a - b).abs() < 1e-6, "{} vs {}", a, b);
        }
    }

    /// Z-normalised subsequence distance is symmetric, non-negative, and
    /// bounded by 2√w.
    #[test]
    fn znorm_distance_properties(
        x in prop::collection::vec(-10f64..10.0, 30..120),
        wsel in 2usize..12,
    ) {
        let w = wsel.min(x.len() / 2);
        let zs = tsops::distance::ZnormSeries::new(&x, w);
        let n = zs.count();
        prop_assume!(n >= 2);
        let i = 0;
        let j = n - 1;
        let dij = zs.dist(i, j);
        let dji = zs.dist(j, i);
        prop_assert!((dij - dji).abs() < 1e-9);
        prop_assert!(dij >= 0.0);
        prop_assert!(dij <= 2.0 * (w as f64).sqrt() + 1e-6);
        prop_assert!(zs.dist(i, i) < 1e-9);
    }

    /// Point adjustment only ever adds positives, never removes them.
    #[test]
    fn pa_is_monotone(
        pred in prop::collection::vec(any::<bool>(), 1..200),
        labels in prop::collection::vec(any::<bool>(), 1..200),
    ) {
        let n = pred.len().min(labels.len());
        let (pred, labels) = (&pred[..n], &labels[..n]);
        let adj = evalkit::pa::adjust(pred, labels);
        for i in 0..n {
            prop_assert!(adj[i] || !pred[i], "PA removed a positive at {}", i);
        }
        // And F1(PA) dominates F1(PW).
        let pw = evalkit::pointwise::prf(pred, labels).f1;
        let pa = evalkit::pointwise::prf(&adj, labels).f1;
        prop_assert!(pa >= pw - 1e-12);
    }

    /// PA%K F1 is monotone non-increasing in K for any prediction.
    #[test]
    fn pak_monotone_in_k(
        pred in prop::collection::vec(any::<bool>(), 10..150),
        labels in prop::collection::vec(any::<bool>(), 10..150),
    ) {
        let n = pred.len().min(labels.len());
        let (pred, labels) = (&pred[..n], &labels[..n]);
        let mut last = f64::INFINITY;
        for k in [0.0, 20.0, 40.0, 60.0, 80.0, 100.0] {
            let f1 = evalkit::pak::prf_at_k(pred, labels, k).f1;
            prop_assert!(f1 <= last + 1e-12);
            last = f1;
        }
    }

    /// Affiliation metrics stay in [0, 1] for arbitrary inputs.
    #[test]
    fn affiliation_bounded(
        pred in prop::collection::vec(any::<bool>(), 5..150),
        labels in prop::collection::vec(any::<bool>(), 5..150),
    ) {
        let n = pred.len().min(labels.len());
        let m = evalkit::affiliation::affiliation_prf(&pred[..n], &labels[..n]);
        for v in [m.precision, m.recall, m.f1] {
            prop_assert!((0.0..=1.0 + 1e-9).contains(&v), "{}", v);
        }
    }

    /// Segmentation always covers the full series (no uncovered suffix) and
    /// every window is in bounds.
    #[test]
    fn segmentation_covers(
        len in 1usize..500,
        window in 1usize..60,
        stride in 1usize..30,
    ) {
        prop_assume!(stride <= window); // overlapping-or-adjacent policy only
        let seg = tsops::window::Segmenter::new(window, stride);
        let w = seg.segment(len);
        if len >= window {
            prop_assert!(!w.is_empty());
            let mut covered = vec![false; len];
            for i in 0..w.count() {
                let r = w.range(i);
                prop_assert!(r.end <= len);
                for c in &mut covered[r] { *c = true; }
            }
            prop_assert!(covered.iter().all(|&c| c), "uncovered point");
        } else {
            prop_assert!(w.is_empty());
        }
    }

    /// The Butterworth cascade never amplifies any frequency (|H| ≤ 1 for a
    /// low-pass Butterworth) and is monotone decreasing in frequency.
    #[test]
    fn butterworth_gain_bounded(cut in 0.05f64..0.9) {
        let f = tsops::filter::Butterworth::lowpass(4, cut);
        let mut last = f64::INFINITY;
        for k in 0..=20 {
            let freq = k as f64 / 20.0 * 0.999;
            let gain = f.magnitude(freq);
            prop_assert!(gain <= 1.0 + 1e-9);
            prop_assert!(gain <= last + 1e-9, "gain not monotone at {}", freq);
            last = gain;
        }
    }

    /// Archive generation respects the UCR contract for arbitrary seeds.
    #[test]
    fn archive_contract(seed in 0u64..5000, id in 1usize..260) {
        let ds = ucrgen::archive::generate_dataset(seed, id);
        prop_assert!(ds.validate().is_ok());
        prop_assert!(ds.anomaly.start >= ds.train_end);
        prop_assert!(!ds.test_labels().iter().all(|&b| b));
        prop_assert!(ds.test_labels().iter().any(|&b| b));
    }

    /// The sliding DFT stays within 1e-9 of a batch FFT over the same
    /// window, for arbitrary window/stride/bin combinations. The streaming
    /// engine leans on this to keep frequency bins current in O(k) per
    /// point instead of an O(L log L) FFT per window.
    #[test]
    fn sliding_dft_matches_batch_fft(
        x in prop::collection::vec(-10f64..10.0, 24..240),
        wsel in 4usize..64,
        stride in 1usize..16,
        binsel in 0usize..1000,
    ) {
        let w = wsel.min(x.len() / 2);
        let k = binsel % w;
        // Track DC, a random bin, and the topmost bin (deduped, sorted).
        let bins = {
            let mut b = vec![0, k, w - 1];
            b.sort_unstable();
            b.dedup();
            b
        };
        let mut sd = tsops::sliding::SlidingDft::from_window(&x[..w], &bins);
        let mut start = 0usize;
        while start + stride + w <= x.len() {
            for s in start..start + stride {
                sd.slide(x[s], x[s + w]);
            }
            start += stride;
            let spec = tsops::fft::rfft(&x[start..start + w]);
            for &b in &bins {
                let got = sd.bin(b).expect("tracked bin");
                prop_assert!(
                    (got - spec[b]).abs() < 1e-9,
                    "w={} stride={} bin={} start={}: {:?} vs {:?}",
                    w, stride, b, start, got, spec[b]
                );
            }
        }
    }

    /// The workspace's one JSON writer and parser round-trip any tree:
    /// `parse(v.to_string()) == v`, with every float bit-exact and
    /// strings full of quotes, backslashes, control and non-ASCII text.
    #[test]
    fn json_round_trips_random_trees(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let v = random_json(&mut rng, 5);
        let text = v.to_string();
        let back = json::parse(&text);
        prop_assert!(back.as_ref() == Ok(&v), "{:?} via {}", back, text);
        let (mut want, mut got) = (Vec::new(), Vec::new());
        number_bits(&v, &mut want);
        number_bits(&back.expect("parsed"), &mut got);
        prop_assert_eq!(want, got);
    }

    /// The parser never panics, whatever the line: arbitrary bytes decoded
    /// lossily, alone, spliced into a document, and every prefix of a
    /// valid document.
    #[test]
    fn json_parse_never_panics(
        bytes in prop::collection::vec(0u8..=255, 0..200),
        seed in any::<u64>(),
    ) {
        let junk = String::from_utf8_lossy(&bytes);
        let _ = json::parse(&junk);
        let _ = json::parse(&format!("{{\"verb\":[\"{junk}"));
        let _ = json::parse(&format!("[1,{junk}]"));
        let text = random_json(&mut StdRng::seed_from_u64(seed), 3).to_string();
        for (cut, _) in text.char_indices() {
            let _ = json::parse(&text[..cut]);
        }
    }

    /// At most 64 nested containers parse; one more is an error, however
    /// arrays and objects are mixed.
    #[test]
    fn json_nesting_deeper_than_64_is_rejected(
        seed in any::<u64>(),
        extra in 1usize..400,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let depth = rng.random_range(1usize..=64);
        prop_assert!(json::parse(&nested(&mut rng, depth)).is_ok());
        for deeper in [65, 64 + extra] {
            prop_assert!(json::parse(&nested(&mut rng, deeper)).is_err());
        }
    }
}

// Determinism of the parallel runtime (crates/parallel) under arbitrary
// configurations. These complement the fixed matrix in
// tests/parallel_determinism.rs with randomized shard/thread/seed choices.
// Case counts are low because each case trains a model.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Parallel gradient accumulation is **exact**, not approximate: for a
    /// random seed, shard count, and worker count, a fit equals the serial
    /// fit bit-for-bit — persisted TRIAD2 bytes and the full loss trace.
    #[test]
    fn parallel_fit_equals_serial_exactly(
        seed in 0u64..1000,
        grad_shards in 1usize..5,
        threads in 2usize..9,
    ) {
        let series = jittered_sine(384, 24, seed);
        let cfg = triad_core::TriadConfig {
            epochs: 1,
            depth: 2,
            hidden: 8,
            batch: 4,
            merlin_step: 4,
            period_override: Some(24),
            seed,
            grad_shards,
            threads: 1,
            ..Default::default()
        };
        let fit_bytes = |threads: usize| -> (Vec<u8>, Vec<f64>) {
            let cfg = triad_core::TriadConfig { threads, ..cfg.clone() };
            let fitted = triad_core::TriAd::new(cfg).fit(&series).expect("fit");
            let mut bytes = Vec::new();
            triad_core::persist::save(&mut bytes, &fitted).expect("persist");
            (bytes, fitted.report().epoch_losses.clone())
        };
        let (serial_bytes, serial_losses) = fit_bytes(1);
        let (par_bytes, par_losses) = fit_bytes(threads);
        prop_assert_eq!(serial_losses, par_losses);
        prop_assert_eq!(serial_bytes, par_bytes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The parallel per-length MERLIN sweep returns the **same discord set**
    /// regardless of worker count, for arbitrary series and length ranges.
    #[test]
    fn merlin_is_worker_count_invariant(
        n in 80usize..400,
        period in 8usize..40,
        phase in 0u64..1000,
        min_sel in 4usize..12,
        span in 0usize..40,
        step in 1usize..5,
        threads in 2usize..9,
    ) {
        let mut series = jittered_sine(n, period, phase);
        // Plant a small disturbance so the discord is non-degenerate.
        let at = n / 2;
        for (off, v) in series[at..(at + 6).min(n)].iter_mut().enumerate() {
            *v += 1.5 + 0.2 * off as f64;
        }
        let min_len = min_sel;
        let max_len = (min_len + span).min(n / 2);
        prop_assume!(max_len >= min_len);
        let cfg = discord::merlin::MerlinConfig::new(min_len, max_len).with_step(step);
        let serial = parallel::with_ambient(1, || discord::merlin::merlin(&series, cfg));
        let par = parallel::with_ambient(threads, || discord::merlin::merlin(&series, cfg));
        prop_assert_eq!(serial, par);
    }
}
