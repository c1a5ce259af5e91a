//! Run-level aggregation and the CI regression gate.
//!
//! A [`Summary`] is built from the complete set of result rows: per-method
//! per-metric means, a ranking by the headline column, and the per-dataset
//! win/loss matrix. Its JSON form is canonical (fixed key order, shortest
//! round-trip floats) so two runs that computed identical results serialize
//! to identical bytes — the determinism tests compare summaries literally.
//!
//! Wall-clock totals ride along under a dedicated `timing_ms` key that
//! [`compare`] never reads: timing is machine-dependent and must not gate.

use crate::metrics::{selected, HEADLINE, METRIC_NAMES};
use crate::rows::{fmt_f64, ResultRow};
use obs::json::{self, Value};

/// Aggregates for one method, in run order.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodAggregate {
    pub name: String,
    /// Per-column means, aligned with [`Summary::metric_names`].
    pub means: Vec<f64>,
    /// Headline-metric value on each dataset (dataset order); feeds the
    /// win/loss matrix and ranking but is not serialized per-dataset.
    pub headline: Vec<f64>,
    /// Total test points scored (deterministic, gated).
    pub n_test: usize,
    /// Total wall time, ms (machine-dependent, NOT gated).
    pub wall_ms: f64,
}

/// Everything `EVALBED_summary.json` carries.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub smoke: bool,
    pub archive_seed: u64,
    pub seed: u64,
    pub epochs: usize,
    pub dataset_ids: Vec<usize>,
    /// Selected metric columns, canonical order.
    pub metric_names: Vec<String>,
    /// Per-method aggregates, run order.
    pub methods: Vec<MethodAggregate>,
    /// Method names sorted by mean headline metric, best first (ties keep
    /// run order — deterministic).
    pub ranking: Vec<String>,
    /// `wins[i][j]` = number of datasets where method `i` beats method `j`
    /// on the headline metric (strict `>`; indices follow [`Self::methods`]).
    pub wins: Vec<Vec<usize>>,
}

/// Run parameters the summary records (everything that determines results).
#[derive(Debug, Clone)]
pub struct RunMeta {
    pub smoke: bool,
    pub archive_seed: u64,
    pub seed: u64,
    pub epochs: usize,
}

impl Summary {
    /// Aggregate a complete result set. `rows` must hold exactly one row per
    /// (method, dataset) pair of `method_order` × `dataset_ids` — the engine
    /// guarantees this before calling.
    pub fn from_rows(
        rows: &[ResultRow],
        method_order: &[String],
        dataset_ids: &[usize],
        metric_filter: &[String],
        meta: &RunMeta,
    ) -> Result<Summary, String> {
        let metric_names: Vec<String> = METRIC_NAMES
            .iter()
            .filter(|n| selected(metric_filter, n))
            .map(|n| n.to_string())
            .collect();
        let headline_idx = METRIC_NAMES
            .iter()
            .position(|&n| n == HEADLINE)
            .ok_or("headline metric missing from schema")?;

        let mut methods = Vec::with_capacity(method_order.len());
        for name in method_order {
            let mut means = vec![0.0f64; metric_names.len()];
            let mut headline = Vec::with_capacity(dataset_ids.len());
            let mut n_test = 0usize;
            let mut wall_ms = 0.0f64;
            for &id in dataset_ids {
                let row = rows
                    .iter()
                    .find(|r| &r.method == name && r.dataset == id)
                    .ok_or_else(|| format!("missing result row for ({name}, {id})"))?;
                for (slot, metric) in means.iter_mut().zip(&metric_names) {
                    *slot += row.metrics.get(metric).unwrap_or(0.0);
                }
                headline.push(row.metrics.values[headline_idx]);
                n_test += row.n_test;
                wall_ms += row.wall_ms;
            }
            let n = dataset_ids.len().max(1) as f64;
            for slot in means.iter_mut() {
                *slot /= n;
            }
            methods.push(MethodAggregate {
                name: name.clone(),
                means,
                headline,
                n_test,
                wall_ms,
            });
        }

        // Ranking: stable sort by mean headline, descending; ties keep run
        // order. Comparing on `total_cmp` keeps this deterministic even for
        // pathological values.
        let mut order: Vec<usize> = (0..methods.len()).collect();
        order.sort_by(|&a, &b| mean(&methods[b].headline).total_cmp(&mean(&methods[a].headline)));
        let ranking: Vec<String> = order.iter().map(|&i| methods[i].name.clone()).collect();

        // Win/loss matrix over datasets, strict-greater on the headline.
        let wins: Vec<Vec<usize>> = methods
            .iter()
            .map(|mi| {
                methods
                    .iter()
                    .map(|mj| {
                        mi.headline
                            .iter()
                            .zip(&mj.headline)
                            .filter(|(a, b)| a > b)
                            .count()
                    })
                    .collect()
            })
            .collect();

        Ok(Summary {
            smoke: meta.smoke,
            archive_seed: meta.archive_seed,
            seed: meta.seed,
            epochs: meta.epochs,
            dataset_ids: dataset_ids.to_vec(),
            metric_names,
            methods,
            ranking,
            wins,
        })
    }

    /// Canonical JSON. Gated content first, `timing_ms` last (ignored by
    /// [`compare`]). `gated_only` drops the timing section entirely — the
    /// bit-identity tests serialize with it off so thread count cannot leak
    /// into the compared bytes.
    pub fn to_json(&self, gated_only: bool) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str(&format!(
            "{{\"v\":{},\"smoke\":{},\"archive_seed\":{},\"seed\":{},\"epochs\":{}",
            crate::rows::SCHEMA_VERSION,
            self.smoke,
            self.archive_seed,
            self.seed,
            self.epochs
        ));
        out.push_str(",\"datasets\":[");
        push_list(&mut out, self.dataset_ids.iter().map(|d| d.to_string()));
        out.push_str("],\"metrics\":[");
        push_list(
            &mut out,
            self.metric_names.iter().map(|m| format!("\"{m}\"")),
        );
        out.push_str("],\"method_order\":[");
        push_list(
            &mut out,
            self.methods.iter().map(|m| format!("\"{}\"", m.name)),
        );
        out.push_str("],\"ranking\":[");
        push_list(&mut out, self.ranking.iter().map(|m| format!("\"{m}\"")));
        out.push_str("],\"aggregates\":{");
        for (i, m) in self.methods.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{{", m.name));
            for (j, (name, v)) in self.metric_names.iter().zip(&m.means).enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{name}\":{}", fmt_f64(*v)));
            }
            out.push_str(&format!(",\"n_test\":{}", m.n_test));
            out.push('}');
        }
        out.push_str("},\"wins\":[");
        for (i, row) in self.wins.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('[');
            push_list(&mut out, row.iter().map(|w| w.to_string()));
            out.push(']');
        }
        out.push(']');
        if !gated_only {
            out.push_str(",\"timing_ms\":{");
            for (i, m) in self.methods.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{}\":{}", m.name, fmt_f64(m.wall_ms)));
            }
            out.push('}');
        }
        out.push('}');
        out
    }

    /// Parse a summary previously written by [`Self::to_json`] (either
    /// flavour; missing timing reads as zero).
    pub fn parse(text: &str) -> Result<Summary, String> {
        let doc = json::parse(text).map_err(|e| format!("bad summary json: {e}"))?;
        let version = doc
            .get("v")
            .and_then(Value::as_u64)
            .ok_or("missing summary version")?;
        if version != crate::rows::SCHEMA_VERSION as u64 {
            return Err(format!(
                "summary schema version {version} (this build reads {})",
                crate::rows::SCHEMA_VERSION
            ));
        }
        let dataset_ids: Vec<usize> = doc
            .get("datasets")
            .and_then(Value::as_arr)
            .ok_or("missing datasets")?
            .iter()
            .map(|j| j.as_u64().map(|v| v as usize).ok_or("bad dataset id"))
            .collect::<Result<_, _>>()?;
        let metric_names = str_list(&doc, "metrics")?;
        let method_order = str_list(&doc, "method_order")?;
        let ranking = str_list(&doc, "ranking")?;
        let aggregates = doc.get("aggregates").ok_or("missing aggregates")?;
        let timing = doc.get("timing_ms");
        let mut methods = Vec::with_capacity(method_order.len());
        for name in &method_order {
            let obj = aggregates
                .get(name)
                .ok_or_else(|| format!("missing aggregates for {name:?}"))?;
            let means = metric_names
                .iter()
                .map(|metric| {
                    obj.get(metric)
                        .and_then(Value::as_f64)
                        .ok_or_else(|| format!("missing mean {metric:?} for {name:?}"))
                })
                .collect::<Result<Vec<f64>, String>>()?;
            let n_test = obj
                .get("n_test")
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("missing n_test for {name:?}"))?
                as usize;
            let wall_ms = timing
                .and_then(|t| t.get(name))
                .and_then(Value::as_f64)
                .unwrap_or(0.0);
            methods.push(MethodAggregate {
                name: name.clone(),
                means,
                headline: Vec::new(), // per-dataset detail is not serialized
                n_test,
                wall_ms,
            });
        }
        let wins: Vec<Vec<usize>> = doc
            .get("wins")
            .and_then(Value::as_arr)
            .ok_or("missing wins")?
            .iter()
            .map(|row| {
                row.as_arr()
                    .ok_or("bad wins row")?
                    .iter()
                    .map(|j| j.as_u64().map(|v| v as usize).ok_or("bad wins cell"))
                    .collect::<Result<Vec<usize>, _>>()
            })
            .collect::<Result<_, _>>()?;
        Ok(Summary {
            smoke: matches!(doc.get("smoke"), Some(Value::Bool(true))),
            archive_seed: doc.get("archive_seed").and_then(Value::as_u64).unwrap_or(0),
            seed: doc.get("seed").and_then(Value::as_u64).unwrap_or(0),
            epochs: doc.get("epochs").and_then(Value::as_u64).unwrap_or(0) as usize,
            dataset_ids,
            metric_names,
            methods,
            ranking,
            wins,
        })
    }

    /// The EVALBED.md body: method × metric table, win/loss matrix,
    /// informational throughput, and — when TriAD stride variants ran — the
    /// stride/overlap sweep table.
    pub fn to_markdown(&self) -> String {
        let mut md = String::with_capacity(2048);
        md.push_str("# evalbed results\n\n");
        md.push_str(&format!(
            "Mode: {} · archive seed {} · model seed {} · epochs {} · {} datasets · \
             headline metric `{HEADLINE}`.\n\n",
            if self.smoke { "smoke" } else { "full archive" },
            self.archive_seed,
            self.seed,
            self.epochs,
            self.dataset_ids.len()
        ));
        md.push_str(
            "Regenerate with `triad evalbed` (see README). Metric means and the win/loss \
             matrix are deterministic and CI-gated; timing is informational only.\n\n",
        );

        md.push_str("## Method × metric means\n\n");
        md.push_str("| method |");
        for name in &self.metric_names {
            md.push_str(&format!(" {name} |"));
        }
        md.push('\n');
        md.push_str("|---|");
        md.push_str(&"---|".repeat(self.metric_names.len()));
        md.push('\n');
        for name in &self.ranking {
            if let Some(m) = self.methods.iter().find(|m| &m.name == name) {
                md.push_str(&format!("| {} |", m.name));
                for v in &m.means {
                    md.push_str(&format!(" {v:.4} |"));
                }
                md.push('\n');
            }
        }

        md.push_str(&format!(
            "\n## Win/loss matrix (`{HEADLINE}`, row beats column on N datasets)\n\n"
        ));
        md.push_str("| |");
        for m in &self.methods {
            md.push_str(&format!(" {} |", m.name));
        }
        md.push('\n');
        md.push_str("|---|");
        md.push_str(&"---|".repeat(self.methods.len()));
        md.push('\n');
        for (i, m) in self.methods.iter().enumerate() {
            md.push_str(&format!("| **{}** |", m.name));
            for (j, w) in self.wins[i].iter().enumerate() {
                if i == j {
                    md.push_str(" – |");
                } else {
                    md.push_str(&format!(" {w} |"));
                }
            }
            md.push('\n');
        }

        md.push_str("\n## Throughput (informational — not gated)\n\n");
        md.push_str("| method | wall s | points/s |\n|---|---|---|\n");
        for m in &self.methods {
            let secs = m.wall_ms / 1000.0;
            let pps = if secs > 0.0 {
                m.n_test as f64 / secs
            } else {
                0.0
            };
            md.push_str(&format!("| {} | {secs:.2} | {pps:.0} |\n", m.name));
        }

        let sweep: Vec<&MethodAggregate> = self
            .methods
            .iter()
            .filter(|m| m.name == "triad" || m.name.starts_with("triad-s"))
            .collect();
        if sweep.len() > 1 {
            md.push_str("\n## Stride/overlap sweep (TriAD windowing)\n\n");
            md.push_str(
                "Stride as a fraction of the window length; smaller stride = more \
                 window overlap = more work per point.\n\n",
            );
            md.push_str(&format!(
                "| method | stride | {HEADLINE} | event_hit | points/s |\n|---|---|---|---|---|\n"
            ));
            for m in sweep {
                let stride = match m.name.as_str() {
                    "triad" => "0.25".to_string(),
                    other => other
                        .strip_prefix("triad-s")
                        .map(|pct| {
                            pct.parse::<f64>()
                                .map(|p| format!("{:.2}", p / 100.0))
                                .unwrap_or_else(|_| "?".to_string())
                        })
                        .unwrap_or_else(|| "?".to_string()),
                };
                let headline = self
                    .metric_names
                    .iter()
                    .position(|n| n == HEADLINE)
                    .and_then(|i| m.means.get(i))
                    .copied()
                    .unwrap_or(0.0);
                let event = self
                    .metric_names
                    .iter()
                    .position(|n| n == "event_hit")
                    .and_then(|i| m.means.get(i))
                    .copied()
                    .unwrap_or(0.0);
                let secs = m.wall_ms / 1000.0;
                let pps = if secs > 0.0 {
                    m.n_test as f64 / secs
                } else {
                    0.0
                };
                md.push_str(&format!(
                    "| {} | {stride} | {headline:.4} | {event:.4} | {pps:.0} |\n",
                    m.name
                ));
            }
        }
        md
    }
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

fn push_list(out: &mut String, items: impl Iterator<Item = String>) {
    for (i, item) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&item);
    }
}

fn str_list(doc: &Value, key: &str) -> Result<Vec<String>, String> {
    doc.get(key)
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("missing field {key:?}"))?
        .iter()
        .map(|j| {
            j.as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("non-string entry in {key:?}"))
        })
        .collect()
}

/// The CI regression gate: structural changes (dataset set, method set),
/// ranking flips, and per-method metric **drops** beyond `tolerance` are
/// regressions. Improvements and timing changes never fail the gate.
pub fn compare(current: &Summary, baseline: &Summary, tolerance: f64) -> Vec<String> {
    let mut regressions = Vec::new();
    if current.dataset_ids != baseline.dataset_ids {
        regressions.push(format!(
            "dataset set changed: baseline has {} datasets, current has {}",
            baseline.dataset_ids.len(),
            current.dataset_ids.len()
        ));
    }
    let cur_methods: Vec<&str> = current.methods.iter().map(|m| m.name.as_str()).collect();
    let base_methods: Vec<&str> = baseline.methods.iter().map(|m| m.name.as_str()).collect();
    if cur_methods != base_methods {
        regressions.push(format!(
            "method set changed: baseline {base_methods:?}, current {cur_methods:?}"
        ));
        return regressions; // per-method comparison below would mislead
    }
    if current.ranking != baseline.ranking {
        regressions.push(format!(
            "method ranking flipped: baseline {:?}, current {:?}",
            baseline.ranking, current.ranking
        ));
    }
    for (cur, base) in current.methods.iter().zip(&baseline.methods) {
        for metric in &baseline.metric_names {
            let Some(bi) = baseline.metric_names.iter().position(|m| m == metric) else {
                continue;
            };
            let Some(ci) = current.metric_names.iter().position(|m| m == metric) else {
                regressions.push(format!("metric column {metric:?} disappeared"));
                continue;
            };
            let delta = cur.means[ci] - base.means[bi];
            if delta < -tolerance {
                regressions.push(format!(
                    "{}/{metric} dropped {:.6} -> {:.6} (Δ {delta:+.6}, tolerance {tolerance})",
                    cur.name, base.means[bi], cur.means[ci]
                ));
            }
        }
    }
    regressions
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricSet;

    fn row(method: &str, dataset: usize, headline: f64, wall: f64) -> ResultRow {
        let mut values = [0.5f64; METRIC_NAMES.len()];
        let idx = METRIC_NAMES
            .iter()
            .position(|&n| n == HEADLINE)
            .expect("headline");
        values[idx] = headline;
        ResultRow {
            method: method.to_string(),
            dataset,
            dataset_name: format!("{dataset:03}_x"),
            anomaly_kind: "Noise".into(),
            n_test: 100,
            metrics: MetricSet { values },
            wall_ms: wall,
        }
    }

    fn meta() -> RunMeta {
        RunMeta {
            smoke: true,
            archive_seed: 7,
            seed: 0,
            epochs: 2,
        }
    }

    fn sample() -> Summary {
        let rows = vec![
            row("triad", 1, 0.9, 10.0),
            row("triad", 2, 0.8, 11.0),
            row("random", 1, 0.2, 1.0),
            row("random", 2, 0.3, 1.0),
        ];
        Summary::from_rows(
            &rows,
            &["triad".to_string(), "random".to_string()],
            &[1, 2],
            &[],
            &meta(),
        )
        .expect("summary")
    }

    #[test]
    fn ranking_and_wins() {
        let s = sample();
        assert_eq!(s.ranking, vec!["triad".to_string(), "random".to_string()]);
        assert_eq!(s.wins[0][1], 2); // triad beats random on both datasets
        assert_eq!(s.wins[1][0], 0);
        assert_eq!(s.wins[0][0], 0);
    }

    #[test]
    fn json_round_trip_preserves_gated_content() {
        let s = sample();
        let text = s.to_json(false);
        let back = Summary::parse(&text).expect("parse");
        assert_eq!(back.ranking, s.ranking);
        assert_eq!(back.wins, s.wins);
        assert_eq!(back.dataset_ids, s.dataset_ids);
        for (a, b) in s.methods.iter().zip(&back.methods) {
            assert_eq!(a.name, b.name);
            for (x, y) in a.means.iter().zip(&b.means) {
                assert_eq!(x.to_bits(), y.to_bits()); // bit-exact round trip
            }
        }
        // Gated serialization is identical regardless of timing content.
        let mut timed = s.clone();
        for m in timed.methods.iter_mut() {
            m.wall_ms *= 31.0;
        }
        assert_eq!(s.to_json(true), timed.to_json(true));
        assert_ne!(s.to_json(false), timed.to_json(false));
    }

    #[test]
    fn compare_passes_identical_and_catches_drop() {
        let s = sample();
        assert!(compare(&s, &s, 1e-9).is_empty());
        let mut worse = s.clone();
        for m in worse.methods.iter_mut() {
            for v in m.means.iter_mut() {
                *v -= 0.05;
            }
        }
        let regressions = compare(&worse, &s, 1e-3);
        assert!(!regressions.is_empty());
        // Improvements do not fail the gate.
        assert!(compare(&s, &worse, 1e-3).is_empty());
    }

    #[test]
    fn compare_catches_ranking_flip() {
        let s = sample();
        let mut flipped = s.clone();
        flipped.ranking.reverse();
        let regressions = compare(&flipped, &s, 1e-9);
        assert!(regressions.iter().any(|r| r.contains("ranking")));
    }

    #[test]
    fn markdown_has_all_sections() {
        let rows = vec![
            row("triad", 1, 0.9, 10.0),
            row("triad-s50", 1, 0.85, 6.0),
            row("random", 1, 0.2, 1.0),
        ];
        let s = Summary::from_rows(
            &rows,
            &[
                "triad".to_string(),
                "triad-s50".to_string(),
                "random".to_string(),
            ],
            &[1],
            &[],
            &meta(),
        )
        .expect("summary");
        let md = s.to_markdown();
        assert!(md.contains("## Method × metric means"));
        assert!(md.contains("## Win/loss matrix"));
        assert!(md.contains("## Throughput"));
        assert!(md.contains("## Stride/overlap sweep"));
        assert!(md.contains("| triad-s50 | 0.50 |"));
    }
}
