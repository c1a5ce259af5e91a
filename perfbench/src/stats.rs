//! Sample statistics and span arithmetic shared by every workload.
//!
//! Every percentile and median is a Harrell–Davis estimate ([`percentile`]).
//! Two honesty rules live here rather than in the workloads:
//!
//! * a tail percentile (above the median) is only reported when at least
//!   [`MIN_TAIL`] samples lie strictly beyond it; the median itself is
//!   always reported, with its sample count beside it;
//! * a layer's self time is its span minus the *union* of its children's
//!   intervals (clipped to the span), so overlapping children are not
//!   subtracted twice.

/// Samples that must lie beyond a tail percentile before it is reported.
pub const MIN_TAIL: usize = 10;

/// The Harrell–Davis estimate of the `q` quantile of `samples` (any
/// order): a weighted mean of every order statistic, the `i`-th (of `n`)
/// weighted by `I(i/n; a, b) − I((i−1)/n; a, b)` with `a = q(n+1)`,
/// `b = (1−q)(n+1)` and `I` the regularized incomplete beta function.
/// `None` for an empty set.
///
/// The workloads' samples are mixtures — detect time varies ~40× across
/// datasets — and a single order statistic lands on a gap between two
/// datasets' clusters whenever the quantile falls between them, where it
/// reads the extreme sample of one cluster and jumps from run to run. The
/// weighted mean reads the order statistics on both sides of the rank, so
/// it stays put.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n <= 1 || q <= 0.0 {
        return sorted.first().copied();
    }
    if q >= 1.0 {
        return sorted.last().copied();
    }
    let (a, b) = (q * (n + 1) as f64, (1.0 - q) * (n + 1) as f64);
    let mut prev = 0.0;
    let mut sum = 0.0;
    for (i, x) in sorted.iter().enumerate() {
        let cur = inc_beta((i + 1) as f64 / n as f64, a, b);
        sum += (cur - prev) * x;
        prev = cur;
    }
    Some(sum)
}

/// Nearest-rank percentile of `samples` (any order): the sample at rank
/// `ceil(q·n)`, for counts, whose median must be one of the counts.
pub fn nearest_rank(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), q) - 1])
}

/// ln Γ(x) for x > 0 (Lanczos, g = 7, nine terms).
fn ln_gamma(x: f64) -> f64 {
    const G: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let t = x + 7.5;
    let series = G[1..]
        .iter()
        .enumerate()
        .fold(G[0], |acc, (k, g)| acc + g / (x + (k + 1) as f64));
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + series.ln()
}

/// Regularized incomplete beta function `I(x; a, b)` by its continued
/// fraction (modified Lentz), using the symmetry `I(x; a, b) =
/// 1 − I(1−x; b, a)` where the fraction converges slowly.
fn inc_beta(x: f64, a: f64, b: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let front =
        (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_fraction(x, a, b) / a
    } else {
        1.0 - front * beta_fraction(1.0 - x, b, a) / b
    }
}

fn beta_fraction(x: f64, a: f64, b: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let clamp = |v: f64| if v.abs() < TINY { TINY } else { v };
    let mut c = 1.0;
    let mut d = 1.0 / clamp(1.0 - (a + b) * x / (a + 1.0));
    let mut h = d;
    for m in 1..10_000 {
        let m = m as f64;
        let m2 = 2.0 * m;
        let even = m * (b - m) * x / ((a + m2 - 1.0) * (a + m2));
        d = 1.0 / clamp(1.0 + even * d);
        c = clamp(1.0 + even / c);
        h *= d * c;
        let odd = -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1.0));
        d = 1.0 / clamp(1.0 + odd * d);
        c = clamp(1.0 + odd / c);
        let step = d * c;
        h *= step;
        if (step - 1.0).abs() < 1e-15 {
            break;
        }
    }
    h
}

/// 1-based nearest rank of quantile `q` in a set of `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// How many samples lie strictly beyond the `q` percentile's rank.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// The `q` percentile when enough samples back it: the median is always
/// reported; a percentile above it needs [`MIN_TAIL`] samples beyond it.
pub fn honest_percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    if q > 0.5 && beyond(samples.len(), q) < MIN_TAIL {
        return Err(format!(
            "p{:.0} of {} samples has only {} beyond it (need {MIN_TAIL})",
            q * 100.0,
            samples.len(),
            beyond(samples.len(), q)
        ));
    }
    percentile(samples, q).ok_or_else(|| "no samples".to_string())
}

/// Smallest sample count at which the `q` percentile has [`MIN_TAIL`]
/// samples beyond it.
pub fn samples_for(q: f64) -> usize {
    (1..)
        .find(|&n| beyond(n, q) >= MIN_TAIL)
        .unwrap_or(usize::MAX)
}

pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// A closed-open time interval in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    pub start: u64,
    pub end: u64,
}

impl Interval {
    pub fn len(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Self time of `parent`: its length minus the length of the union of
/// `children`, each clipped to the parent.
pub fn self_time(parent: Interval, children: &[Interval]) -> u64 {
    let mut clipped: Vec<Interval> = children
        .iter()
        .map(|c| Interval {
            start: c.start.max(parent.start),
            end: c.end.min(parent.end),
        })
        .filter(|c| c.end > c.start)
        .collect();
    clipped.sort_by_key(|c| c.start);
    let mut covered = 0u64;
    let mut open: Option<Interval> = None;
    for c in clipped {
        match open {
            Some(ref mut cur) if c.start <= cur.end => cur.end = cur.end.max(c.end),
            _ => {
                if let Some(cur) = open.take() {
                    covered += cur.len();
                }
                open = Some(c);
            }
        }
    }
    if let Some(cur) = open {
        covered += cur.len();
    }
    parent.len() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9 * b.abs().max(1.0)
    }

    #[test]
    fn incomplete_beta_matches_closed_forms() {
        for &x in &[0.05, 0.3, 0.5, 0.77, 0.99] {
            assert!(close(inc_beta(x, 1.0, 1.0), x));
            assert!(close(inc_beta(x, 3.0, 1.0), x * x * x));
            assert!(close(inc_beta(x, 1.0, 4.0), 1.0 - (1.0 - x).powi(4)));
            // Symmetry, including large shapes like those of a long run.
            assert!(close(
                inc_beta(x, 2.5, 7.0),
                1.0 - inc_beta(1.0 - x, 7.0, 2.5)
            ));
            assert!(close(
                inc_beta(x, 900.5, 100.5),
                1.0 - inc_beta(1.0 - x, 100.5, 900.5)
            ));
        }
        assert!(close(inc_beta(0.5, 1500.0, 1500.0), 0.5));
        assert!(close(ln_gamma(5.0), 24f64.ln()));
        assert!(close(ln_gamma(0.5), std::f64::consts::PI.sqrt().ln()));
    }

    #[test]
    fn nearest_rank_percentiles_on_fixed_inputs() {
        let xs: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(nearest_rank(&xs, 0.5), Some(5.0));
        assert_eq!(nearest_rank(&xs, 0.9), Some(9.0));
        assert_eq!(nearest_rank(&xs, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&[3.0, 1.0, 2.0], 0.5), Some(2.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
    }

    #[test]
    fn harrell_davis_percentiles_on_fixed_inputs() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7.0], 0.9), Some(7.0));
        // Two samples: the median is their mean.
        assert!(close(percentile(&[4.0, 2.0], 0.5).unwrap(), 3.0));
        // Symmetric samples: the median is the centre, in any order.
        let xs: Vec<f64> = (1..=9).rev().map(f64::from).collect();
        assert!(close(median(&xs).unwrap(), 5.0));
        assert!(close(percentile(&[3.0; 40], 0.9).unwrap(), 3.0));
        // Quantiles are ordered and stay within the samples.
        let ys: Vec<f64> = (0..200).map(|i| f64::from(i * i % 97)).collect();
        let (p10, p50, p90) = (
            percentile(&ys, 0.1).unwrap(),
            percentile(&ys, 0.5).unwrap(),
            percentile(&ys, 0.9).unwrap(),
        );
        assert!(0.0 <= p10 && p10 < p50 && p50 < p90 && p90 <= 96.0);
        assert_eq!(percentile(&ys, 0.0), Some(0.0));
        assert_eq!(percentile(&ys, 1.0), Some(96.0));
    }

    #[test]
    fn percentile_between_two_clusters_ignores_one_extreme_sample() {
        // Two datasets of 12 detects each, at 30 ms and 50 ms: the median
        // falls between them. Moving the slow end of the fast cluster by
        // 5 ms moves a single order statistic by 5 ms; the estimate moves
        // by a small share of that.
        let mut xs: Vec<f64> = (0..12).map(|i| 30.0 + 0.1 * f64::from(i)).collect();
        xs.extend((0..12).map(|i| 50.0 + 0.1 * f64::from(i)));
        let before = median(&xs).unwrap();
        assert!(30.0 < before && before < 51.2);
        xs[11] += 5.0;
        let after = median(&xs).unwrap();
        assert!((after - before).abs() < 1.5);
    }

    #[test]
    fn tail_percentiles_need_ten_samples_beyond() {
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(beyond(99, 0.9), 9);
        assert_eq!(samples_for(0.9), 100);
        assert_eq!(samples_for(0.5), 20);
        let ninety_nine: Vec<f64> = (0..99).map(f64::from).collect();
        assert!(honest_percentile(&ninety_nine, 0.9).is_err());
        let hundred: Vec<f64> = (0..100).map(f64::from).collect();
        assert!(honest_percentile(&hundred, 0.9).is_ok());
        // The median is reported at any sample count.
        assert!(honest_percentile(&[4.0, 2.0, 9.0], 0.5).is_ok());
    }

    #[test]
    fn self_time_subtracts_the_union_of_clipped_children() {
        let iv = |start, end| Interval { start, end };
        let parent = iv(100, 200);
        assert_eq!(self_time(parent, &[]), 100);
        // Disjoint children.
        assert_eq!(self_time(parent, &[iv(110, 120), iv(150, 170)]), 70);
        // Overlapping children count once.
        assert_eq!(self_time(parent, &[iv(110, 140), iv(130, 160)]), 50);
        // Children reaching outside the parent are clipped.
        assert_eq!(self_time(parent, &[iv(50, 120), iv(190, 260)]), 70);
        // A child outside the parent removes nothing.
        assert_eq!(self_time(parent, &[iv(300, 400)]), 100);
        // A child covering the parent leaves no self time.
        assert_eq!(self_time(parent, &[iv(0, 1000)]), 0);
    }
}
