//! Discord-discovery substrate.
//!
//! A *discord* is the subsequence of a series with the largest z-normalised
//! Euclidean distance to its nearest non-overlapping neighbour — the classic
//! similarity-based definition of a time-series anomaly. This crate provides
//! the full lineage the paper discusses (Sec. III-D2):
//!
//! * [`matrix_profile`] — exact brute-force matrix profile, O(n²·w). The
//!   ground truth the fast algorithms are validated against.
//! * [`drag`] — the Discord Range-Aware Gathering algorithm (Yankov, Keogh &
//!   Rebbapragada 2008): a two-phase candidate-select / refine scan that finds
//!   all discords with nearest-neighbour distance ≥ r in ~O(n·w) when r is
//!   well chosen.
//! * [`merlin`] — MERLIN (Nakamura et al. 2020): parameter-free sweep over a
//!   range of subsequence lengths, re-seeding DRAG's range from the previous
//!   length's discord distance.
//! * [`merlin_pp`] — MERLIN++ (Nakamura et al. 2023): same outputs as MERLIN,
//!   accelerated with an Orchard-style reference-point index whose triangle-
//!   inequality bound prunes nearest-neighbour refinement. Same accuracy by
//!   construction, faster on large inputs.
//! * [`fast`] — the tolerance-gated fast numeric mode: full per-length
//!   distance profiles via FFT-seeded diagonal recurrences, selected at
//!   runtime through [`merlin_mode`] when
//!   [`tsops::NumericMode::Fast`] is configured.
//!
//! All algorithms share [`tsops::distance::ZnormSeries`] for O(w) distances
//! and use the standard self-match exclusion zone `|i − j| ≥ w`.

#![forbid(unsafe_code)]

pub mod drag;
pub mod fast;
pub mod matrix_profile;
pub mod merlin;
pub mod merlin_pp;

use merlin::MerlinConfig;
use tsops::NumericMode;

/// Run the MERLIN length sweep with the kernels selected by `mode`:
/// [`merlin::merlin`] (exact ladder, bit-identical) or
/// [`fast::merlin_fast`] (MASS profile kernels, tolerance-equivalent).
pub fn merlin_mode(series: &[f64], cfg: MerlinConfig, mode: NumericMode) -> Vec<Discord> {
    match mode {
        NumericMode::Exact => merlin::merlin(series, cfg),
        NumericMode::Fast => fast::merlin_fast(series, cfg),
    }
}

/// One discovered discord.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Discord {
    /// Start index of the discord subsequence.
    pub index: usize,
    /// Subsequence length it was found at.
    pub length: usize,
    /// Z-normalised Euclidean distance to its nearest neighbour.
    pub distance: f64,
}

impl Discord {
    /// Half-open range covered by this discord.
    pub fn range(&self) -> std::ops::Range<usize> {
        self.index..self.index + self.length
    }
}
