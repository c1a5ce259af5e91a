//! Seeded workload inputs and the fixed model configuration.
//!
//! Every workload draws from one fixed slice of the synthetic UCR archive
//! (master seed [`ARCHIVE_SEED`], ids [`SLICE`]: all five signal families
//! × all six anomaly kinds). The run's `--seed` perturbs the *training*
//! splits with Gaussian noise at [`PERTURB`] of each series' own standard
//! deviation — so every seed fits different models and produces different
//! scores — and orders the work. Test splits keep the archive's values,
//! except the per-stream copies of `fleet-evict` ([`stream_copy`]), whose
//! fast-mode cost does not depend on the values. Exact-mode detection cost
//! depends on the test values (the discord search prunes by distance) and
//! varies ~40× between archive datasets, so seeding the test data or the
//! choice of datasets would make the run-to-run spread a property of the
//! draw rather than of the program (see README.md, "Seeds").

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::{Range, RangeInclusive};
use triad_core::{NumericMode, TriAd, TriadConfig};
use ucrgen::anomaly::AnomalyKind;
use ucrgen::archive::generate_dataset;

/// Master seed of the archive slice.
pub const ARCHIVE_SEED: u64 = 3;
/// Archive ids every workload draws from (one full family × kind cycle).
pub const SLICE: RangeInclusive<usize> = 1..=30;
/// Perturbation noise, as a fraction of the series' standard deviation.
pub const PERTURB: f64 = 0.002;
/// Training epochs of every fit the benchmark makes.
pub const EPOCHS: usize = 2;

/// One dataset after seeding: clean training split, test split, and the
/// labelled event in test coordinates.
#[derive(Debug, Clone)]
pub struct Case {
    pub id: usize,
    pub train: Vec<f64>,
    pub test: Vec<f64>,
    pub anomaly: Range<usize>,
}

/// Standard normal draw (Box–Muller).
fn gaussian(rng: &mut StdRng) -> f64 {
    let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
    let v: f64 = rng.random();
    (-2.0 * u.ln()).sqrt() * (2.0 * std::f64::consts::PI * v).cos()
}

/// Add seeded noise at [`PERTURB`] of the series' own spread.
fn perturb(series: &mut [f64], rng: &mut StdRng) {
    let scale = PERTURB * tsops::stats::std_dev(series);
    for v in series.iter_mut() {
        *v += scale * gaussian(rng);
    }
}

fn rng_for(id: usize, seed: u64, salt: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (id as u64) ^ (salt << 32))
}

/// Archive dataset `id` with its training split perturbed by `seed`.
pub fn case(id: usize, seed: u64) -> Case {
    let ds = generate_dataset(ARCHIVE_SEED, id);
    let (train, test) = ds.series.split_at(ds.train_end);
    let mut train = train.to_vec();
    perturb(&mut train, &mut rng_for(id, seed, 0));
    Case {
        id,
        train,
        test: test.to_vec(),
        anomaly: ds.anomaly_in_test(),
    }
}

/// A copy of `case`'s test split with its own perturbation (`salt` ≥ 1).
pub fn stream_copy(case: &Case, seed: u64, salt: u64) -> Vec<f64> {
    let mut test = case.test.clone();
    perturb(&mut test, &mut rng_for(case.id, seed, salt));
    test
}

/// The whole slice, seeded.
pub fn slice(seed: u64) -> Vec<Case> {
    SLICE.map(|id| case(id, seed)).collect()
}

/// The first dataset of each anomaly kind in the slice, seeded — six
/// cases, one per kind.
pub fn one_per_kind(seed: u64) -> Vec<Case> {
    AnomalyKind::ALL
        .iter()
        .map(|&kind| {
            let id = SLICE
                .clone()
                .find(|&id| generate_dataset(ARCHIVE_SEED, id).kind == kind)
                .expect("every anomaly kind occurs in one family × kind cycle");
            case(id, seed)
        })
        .collect()
}

/// The training configuration of every fit: the integration tests' quick
/// model at [`EPOCHS`] epochs.
pub fn train_config(threads: usize, mode: NumericMode) -> TriadConfig {
    TriadConfig {
        epochs: EPOCHS,
        depth: 2,
        hidden: 8,
        batch: 4,
        merlin_step: 4,
        seed: 0,
        threads,
        numeric_mode: mode,
        ..TriadConfig::default()
    }
}

/// Fit one case; returns the model and the fit's wall time in seconds.
pub fn fit(
    case: &Case,
    threads: usize,
    mode: NumericMode,
) -> Result<(triad_core::FittedTriad, f64), String> {
    let t0 = std::time::Instant::now();
    let fitted = TriAd::new(train_config(threads, mode))
        .fit(&case.train)
        .map_err(|e| format!("fit dataset {}: {e}", case.id))?;
    Ok((fitted, t0.elapsed().as_secs_f64()))
}

/// Worker threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A seeded permutation of `0..n`.
pub fn shuffled(n: usize, rng: &mut StdRng) -> Vec<usize> {
    use rand::seq::SliceRandom;
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);
    order
}

/// FNV-1a over a detection's outputs (f64 via bit patterns): the
/// run-repeatability checksum.
pub fn checksum(det: &triad_core::TriadDetection) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    };
    for &v in &det.votes {
        eat(v.to_bits());
    }
    for &p in &det.prediction {
        eat(p as u64);
    }
    eat(det.threshold.to_bits());
    for r in &det.rankings {
        for &s in &r.scores {
            eat(s.to_bits());
        }
    }
    for d in &det.discords {
        eat(d.index as u64);
        eat(d.length as u64);
        eat(d.distance.to_bits());
    }
    eat(det.selected_window.start as u64);
    eat(det.selected_window.end as u64);
    h
}
