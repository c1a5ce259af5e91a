//! The traced decomposition of one detection into its layers.
//!
//! `FittedTriad::try_detect` runs under a `core.detect` span; then the same
//! detection is rebuilt from the public stage functions under a
//! `core.decompose` span:
//!
//! * `core.encode` — `Model::embed_windows_par`, once per domain;
//! * `core.featurize` / `neuro.embed` — the same rows again, batch by batch,
//!   through `FeatureExtractor::batch_tensor` and `core::encoder::embed`;
//! * the stage-1 ranking of those rows (core keeps it private, so it is
//!   replayed here in core's accumulation order);
//! * `core.backhalf` — `detect_from_rankings`;
//! * `discord.sweep` — `discord::merlin_mode` on the detection's search
//!   region with the detect sweep.
//!
//! Every piece must reproduce the whole detection bit for bit; a miss is a
//! failed operation. `core.rank_ms` is not taken from the replay: it is
//! the sum of the program's own `rank` spans (one per domain) inside the
//! `detect` span of the `try_detect` call under `core.detect`, so it
//! measures core's ranking within that one execution.

use discord::merlin::MerlinConfig;
use discord::Discord;
use triad_core::{DomainRanking, FittedTriad, TriadDetection};

/// Span ids and sizes of one decomposed detection.
#[derive(Debug, Clone, Copy)]
pub struct Decomposed {
    /// The `core.detect` span around the whole `try_detect`.
    pub detect: u64,
    /// The `core.decompose` span holding the per-layer spans.
    pub decompose: u64,
    /// Domains the model ranks (one program `rank` span each).
    pub domains: usize,
    /// Discord lengths the sweep visited.
    pub lengths: usize,
    /// Length of the search region the sweep scanned.
    pub region_len: usize,
}

/// Mean-pairwise-similarity scores of unit-norm rows, accumulated in
/// core's order: pairs `(i, j > i)` with `i` then `j` ascending, the dot
/// added to `i` before `j`.
pub fn similarity_scores(rows: &[Vec<f32>]) -> Vec<f64> {
    let m = rows.len();
    if m <= 1 {
        return vec![0.0; m];
    }
    let mut scores = vec![0.0f64; m];
    for i in 0..m {
        for j in (i + 1)..m {
            let dot = parallel::reduce::dot_f32_in_order(&rows[i], &rows[j]);
            scores[i] += dot;
            scores[j] += dot;
        }
    }
    for s in &mut scores {
        *s /= (m - 1) as f64;
    }
    scores
}

fn ranking(domain: triad_core::Domain, scores: Vec<f64>, z: usize) -> DomainRanking {
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]));
    let tops: Vec<usize> = order.into_iter().take(z).collect();
    DomainRanking {
        domain,
        top: tops.first().copied().unwrap_or(0),
        tops,
        scores,
    }
}

/// The MERLIN sweep `detect` runs around its selected window.
pub fn detect_sweep(fitted: &FittedTriad, det: &TriadDetection) -> MerlinConfig {
    let cfg = fitted.config();
    let l = det.selected_window.len();
    let max_len = cfg.merlin_max_len.min(l.max(cfg.merlin_min_len));
    MerlinConfig::new(cfg.merlin_min_len.min(max_len).max(2), max_len).with_step(cfg.merlin_step)
}

fn mismatch(what: &str) -> String {
    format!("decomposition: {what} differs from the whole detect")
}

/// Run `try_detect` and its traced decomposition; errors when any piece
/// does not reproduce the whole detection bit for bit.
pub fn traced_detect(
    fitted: &FittedTriad,
    test: &[f64],
) -> Result<(TriadDetection, Decomposed), String> {
    let cfg = fitted.config();
    let model = fitted.model();
    let fx = fitted.extractor();
    let (whole, detect) = {
        let span = obs::span("core.detect");
        let id = span.id();
        (fitted.try_detect(test).map_err(|e| e.to_string())?, id)
    };

    let root = obs::span("core.decompose");
    let decompose = root.id();
    let (rankings, windows, sweep_found, lengths, region_len) =
        parallel::with_ambient(cfg.threads, || -> Result<_, String> {
            let windows = fitted.segmenter().segment_clamped(test.len());
            let slices: Vec<&[f64]> = (0..windows.count())
                .map(|i| windows.slice(test, i))
                .collect();
            let z = cfg.top_z.max(1);
            let mut rankings = Vec::with_capacity(model.encoders.len());
            for (domain, encoder) in &model.encoders {
                let rows = {
                    let _s = obs::span("core.encode");
                    model.embed_windows_par(cfg, fx, &slices, *domain)
                };
                let mut batched: Vec<Vec<f32>> = Vec::with_capacity(rows.len());
                for chunk in slices.chunks(16) {
                    let batch = {
                        let _s = obs::span("core.featurize");
                        fx.batch_tensor(chunk, *domain)
                    };
                    let out = {
                        let _s = obs::span("neuro.embed");
                        triad_core::encoder::embed(encoder, &model.head, batch)
                    };
                    batched.extend((0..chunk.len()).map(|i| out.row(i).to_vec()));
                }
                if batched != rows {
                    return Err(mismatch("batch-by-batch embedding"));
                }
                rankings.push(ranking(*domain, similarity_scores(&rows), z));
            }
            let region = whole.search_region.clone();
            let sweep = detect_sweep(fitted, &whole);
            let lengths = discord::merlin::swept_lengths(region.len(), sweep).len();
            let found: Vec<Discord> = {
                let _s = obs::span("discord.sweep");
                discord::merlin_mode(&test[region.clone()], sweep, cfg.numeric_mode)
            };
            let found = found
                .into_iter()
                .map(|d| Discord {
                    index: d.index + region.start,
                    ..d
                })
                .collect::<Vec<_>>();
            Ok((rankings, windows, found, lengths, region.len()))
        })?;
    if rankings != whole.rankings {
        return Err(mismatch("stage-1 ranking"));
    }
    let back = {
        let _s = obs::span("core.backhalf");
        fitted.detect_from_rankings(test, &windows, rankings)
    };
    drop(root);
    if back != whole {
        return Err(mismatch("back half"));
    }
    if sweep_found != whole.discords {
        return Err(mismatch("discord sweep"));
    }
    Ok((
        whole,
        Decomposed {
            detect,
            decompose,
            domains: model.encoders.len(),
            lengths,
            region_len,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data;
    use crate::trace::Trace;
    use triad_core::NumericMode;

    #[test]
    fn decomposition_reproduces_detect_on_a_fixed_dataset() {
        obs::set_enabled(true);
        for mode in [NumericMode::Exact, NumericMode::Fast] {
            let case = data::case(4, 11);
            let (fitted, _) = data::fit(&case, 1, mode).expect("fit");
            let (det, parts) = traced_detect(&fitted, &case.test).expect("decomposition matches");
            assert_eq!(det, fitted.try_detect(&case.test).unwrap());
            assert_eq!(parts.region_len, det.search_region.len());
            assert!(parts.lengths >= det.discords.len());
            let trace = Trace::collect();
            assert_eq!(
                trace
                    .children_of(parts.decompose)
                    .filter(|s| s.name == "core.encode")
                    .count(),
                3
            );
            assert!(trace.child_sum_ms(parts.decompose, "neuro.embed") > 0.0);
            let rank = trace.rank_ms(parts.detect);
            assert_eq!(rank.len(), parts.domains);
            assert!(rank.iter().all(|&ms| ms >= 0.0));
        }
    }

    #[test]
    fn similarity_replay_flags_the_odd_row_and_matches_core_rankings() {
        let mut rows = vec![vec![1.0f32, 0.0, 0.0]; 5];
        rows.push(vec![0.0, 1.0, 0.0]);
        let s = similarity_scores(&rows);
        assert_eq!(s.len(), 6);
        assert_eq!(s[5], 0.0);
        assert_eq!(s[0], 4.0 / 5.0);
        let r = ranking(triad_core::Domain::Temporal, s, 2);
        assert_eq!(r.tops, vec![5, 0]);
        assert_eq!(r.top, 5);
        assert!(similarity_scores(&[]).is_empty());
        assert_eq!(similarity_scores(&[vec![1.0]]), vec![0.0]);
    }
}
