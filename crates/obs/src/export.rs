//! Trace exporters (JSONL and Chrome trace-event JSON), the matching
//! parsers, structural validation, and the per-stage summary behind
//! `triad trace`.
//!
//! Both formats round-trip: `parse_jsonl(to_jsonl(r))` and
//! `parse_chrome(to_chrome(r))` recover ids, parent links, names,
//! nanosecond timestamps and fields exactly (Chrome stores microseconds
//! with three decimals, i.e. nanosecond resolution).

use crate::json::{self, Value};
use crate::trace::SpanRecord;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::Write as _;

/// A span read back from an exported trace (owned name/fields, unlike the
/// `&'static str` of a live [`SpanRecord`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedSpan {
    pub id: u64,
    pub parent: u64,
    pub tid: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub fields: Vec<(String, String)>,
}

// ----------------------------------------------------------------- writers

/// One span per line:
/// `{"id":…,"parent":…,"tid":…,"name":"…","start_ns":…,"end_ns":…,"fields":{…}}`.
pub fn to_jsonl(records: &[SpanRecord]) -> String {
    let mut out = String::new();
    for r in records {
        let _ = write!(
            out,
            "{{\"id\":{},\"parent\":{},\"tid\":{},\"name\":\"",
            r.id, r.parent, r.tid
        );
        let _ = json::escape(r.name, &mut out);
        let _ = write!(
            out,
            "\",\"start_ns\":{},\"end_ns\":{},\"fields\":{{",
            r.start_ns, r.end_ns
        );
        for (i, (k, v)) in r.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            let _ = json::escape(k, &mut out);
            out.push_str("\":\"");
            let _ = json::escape(v, &mut out);
            out.push('"');
        }
        out.push_str("}}\n");
    }
    out
}

/// Microseconds with three decimals — nanosecond resolution in the unit
/// `chrome://tracing` expects.
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// Chrome trace-event JSON: one complete (`"ph":"X"`) event per span, ids
/// and fields preserved under `args`. Loadable by `chrome://tracing` and
/// Perfetto.
pub fn to_chrome(records: &[SpanRecord]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n{\"name\":\"");
        let _ = json::escape(r.name, &mut out);
        let _ = write!(
            out,
            "\",\"cat\":\"triad\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{}",
            us(r.start_ns),
            us(r.end_ns.saturating_sub(r.start_ns)),
            r.tid,
            r.id,
            r.parent
        );
        for (k, v) in &r.fields {
            out.push_str(",\"");
            let _ = json::escape(k, &mut out);
            out.push_str("\":\"");
            let _ = json::escape(v, &mut out);
            out.push('"');
        }
        out.push_str("}}");
    }
    out.push_str("\n]}\n");
    out
}

// ----------------------------------------------------------------- parsers

fn field_u64(obj: &Value, key: &str) -> Result<u64, String> {
    obj.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("missing/bad {key:?}"))
}

/// Parse [`to_jsonl`] output back into spans.
pub fn parse_jsonl(text: &str) -> Result<Vec<ParsedSpan>, String> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let name = v
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("line {}: missing name", lineno + 1))?
            .to_string();
        let mut fields = Vec::new();
        if let Some(entries) = v.get("fields").and_then(Value::entries) {
            for (k, fv) in entries {
                let s = fv
                    .as_str()
                    .ok_or_else(|| format!("line {}: non-string field {k:?}", lineno + 1))?;
                fields.push((k.clone(), s.to_string()));
            }
        }
        out.push(ParsedSpan {
            id: field_u64(&v, "id").map_err(|e| format!("line {}: {e}", lineno + 1))?,
            parent: field_u64(&v, "parent").map_err(|e| format!("line {}: {e}", lineno + 1))?,
            tid: field_u64(&v, "tid").map_err(|e| format!("line {}: {e}", lineno + 1))?,
            name,
            start_ns: field_u64(&v, "start_ns").map_err(|e| format!("line {}: {e}", lineno + 1))?,
            end_ns: field_u64(&v, "end_ns").map_err(|e| format!("line {}: {e}", lineno + 1))?,
            fields,
        })
    }
    Ok(out)
}

/// Microsecond float (µs with ≤3 decimals) back to integer nanoseconds.
fn us_to_ns(v: f64) -> Result<u64, String> {
    if !v.is_finite() || v < 0.0 {
        return Err(format!("bad microsecond value {v}"));
    }
    Ok((v * 1000.0).round() as u64)
}

/// Parse [`to_chrome`] output back into spans.
pub fn parse_chrome(text: &str) -> Result<Vec<ParsedSpan>, String> {
    let doc = json::parse(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .ok_or_else(|| "missing traceEvents array".to_string())?;
    let mut out = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        let ctx = |e: String| format!("event {i}: {e}");
        let name = ev
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| ctx("missing name".into()))?
            .to_string();
        let ts = ev
            .get("ts")
            .and_then(Value::as_f64)
            .ok_or_else(|| ctx("missing ts".into()))?;
        let dur = ev
            .get("dur")
            .and_then(Value::as_f64)
            .ok_or_else(|| ctx("missing dur".into()))?;
        let args = ev.get("args").ok_or_else(|| ctx("missing args".into()))?;
        let mut fields = Vec::new();
        if let Some(entries) = args.entries() {
            for (k, fv) in entries {
                if k == "id" || k == "parent" {
                    continue;
                }
                let s = fv
                    .as_str()
                    .ok_or_else(|| ctx(format!("non-string field {k:?}")))?;
                fields.push((k.clone(), s.to_string()));
            }
        }
        let start_ns = us_to_ns(ts).map_err(ctx)?;
        out.push(ParsedSpan {
            id: field_u64(args, "id").map_err(ctx)?,
            parent: field_u64(args, "parent").map_err(ctx)?,
            tid: field_u64(ev, "tid").map_err(ctx)?,
            name,
            start_ns,
            end_ns: start_ns + us_to_ns(dur).map_err(ctx)?,
            fields,
        })
    }
    Ok(out)
}

// -------------------------------------------------------------- validation

/// Structural validation of a parsed trace:
///
/// * span ids are unique and non-zero;
/// * every non-zero parent link resolves to a span in the trace;
/// * `start ≤ end` for every span, and children nest inside their parent's
///   interval (within `slack_ns`, for formats that round timestamps);
/// * per thread, spans appear in completion order (end timestamps are
///   non-decreasing in file order — the order the recorder emits them).
pub fn validate(spans: &[ParsedSpan], slack_ns: u64) -> Result<(), String> {
    let mut intervals: HashMap<u64, (u64, u64)> = HashMap::new();
    for s in spans {
        if s.id == 0 {
            return Err(format!("span {:?} has id 0", s.name));
        }
        if intervals.insert(s.id, (s.start_ns, s.end_ns)).is_some() {
            return Err(format!("duplicate span id {}", s.id));
        }
        if s.start_ns > s.end_ns {
            return Err(format!(
                "span {} ({:?}) ends before it starts ({} > {})",
                s.id, s.name, s.start_ns, s.end_ns
            ));
        }
    }
    for s in spans {
        if s.parent == 0 {
            continue;
        }
        let Some(&(p_start, p_end)) = intervals.get(&s.parent) else {
            return Err(format!(
                "span {} ({:?}) has orphan parent id {}",
                s.id, s.name, s.parent
            ));
        };
        if s.start_ns + slack_ns < p_start || s.end_ns > p_end + slack_ns {
            return Err(format!(
                "span {} ({:?}) [{}, {}] escapes parent {} [{}, {}]",
                s.id, s.name, s.start_ns, s.end_ns, s.parent, p_start, p_end
            ));
        }
    }
    let mut last_end: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if let Some(&prev) = last_end.get(&s.tid) {
            if s.end_ns + slack_ns < prev {
                return Err(format!(
                    "thread {} spans out of completion order ({} after {})",
                    s.tid, s.end_ns, prev
                ));
            }
        }
        last_end.insert(s.tid, s.end_ns);
    }
    Ok(())
}

// ----------------------------------------------------------------- summary

/// Aggregate statistics for one span name.
#[derive(Debug, Clone, PartialEq)]
pub struct StageStats {
    pub name: String,
    pub count: u64,
    pub total_ns: u64,
    /// Exact (nearest-rank, interpolation-free) quantiles over durations.
    pub p50_ns: u64,
    pub p95_ns: u64,
    pub p99_ns: u64,
}

/// What `triad trace` prints.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Per-name statistics, sorted by descending total time.
    pub stages: Vec<StageStats>,
    /// Span names from the longest root down its longest-child chain.
    pub critical_path: Vec<String>,
    /// Trace extent: latest end minus earliest start.
    pub wall_ns: u64,
    /// Fraction of the trace extent covered by root spans (the ≥95%
    /// acceptance bar for instrumentation completeness).
    pub coverage: f64,
}

fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    let idx = rank.max(1) - 1;
    sorted.get(idx.min(sorted.len() - 1)).copied().unwrap_or(0)
}

/// Aggregate a parsed trace into per-stage stats, the critical path and
/// root-span coverage.
pub fn summarize(spans: &[ParsedSpan]) -> Summary {
    let mut by_name: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    for s in spans {
        by_name
            .entry(s.name.as_str())
            .or_default()
            .push(s.end_ns - s.start_ns);
    }
    let mut stages: Vec<StageStats> = by_name
        .into_iter()
        .map(|(name, mut durs)| {
            durs.sort_unstable();
            StageStats {
                name: name.to_string(),
                count: durs.len() as u64,
                total_ns: durs.iter().sum(),
                p50_ns: exact_quantile(&durs, 0.50),
                p95_ns: exact_quantile(&durs, 0.95),
                p99_ns: exact_quantile(&durs, 0.99),
            }
        })
        .collect();
    stages.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(&b.name)));

    let wall_ns = match (
        spans.iter().map(|s| s.start_ns).min(),
        spans.iter().map(|s| s.end_ns).max(),
    ) {
        (Some(lo), Some(hi)) => hi - lo,
        _ => 0,
    };
    // Roots don't nest inside each other (different threads aside, the
    // recorder parents concurrent roots to 0 independently), so summing
    // their durations against the extent is the coverage measure.
    let root_total: u64 = spans
        .iter()
        .filter(|s| s.parent == 0)
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    let coverage = if wall_ns == 0 {
        0.0
    } else {
        (root_total as f64 / wall_ns as f64).min(1.0)
    };

    // Critical path: the longest root, then repeatedly its longest child.
    let mut children: HashMap<u64, Vec<&ParsedSpan>> = HashMap::new();
    let mut seen: HashSet<u64> = HashSet::new();
    for s in spans {
        children.entry(s.parent).or_default().push(s);
    }
    let mut critical_path = Vec::new();
    let longest = |list: &[&ParsedSpan]| -> Option<ParsedSpanKey> {
        list.iter()
            .map(|s| ParsedSpanKey {
                dur: s.end_ns - s.start_ns,
                id: s.id,
                name: s.name.clone(),
            })
            .max_by(|a, b| a.dur.cmp(&b.dur).then(b.id.cmp(&a.id)))
    };
    let mut cursor = children.get(&0).and_then(|roots| longest(roots));
    while let Some(node) = cursor {
        if !seen.insert(node.id) {
            break; // defensive: a parent cycle in a hand-edited trace
        }
        critical_path.push(node.name.clone());
        cursor = children.get(&node.id).and_then(|kids| longest(kids));
    }

    Summary {
        stages,
        critical_path,
        wall_ns,
        coverage,
    }
}

/// Helper carrying just what critical-path selection needs.
struct ParsedSpanKey {
    dur: u64,
    id: u64,
    name: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, tid: u64, name: &'static str, s: u64, e: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            tid,
            name,
            start_ns: s,
            end_ns: e,
            fields: Vec::new(),
        }
    }

    /// Spans in the order the recorder emits them: completion order per
    /// thread (children land before their parent).
    fn sample() -> Vec<SpanRecord> {
        let mut root = rec(1, 0, 1, "detect", 100, 10_100);
        root.fields.push(("n_test", "380".to_string()));
        vec![
            rec(2, 1, 1, "featurize", 200, 4_200),
            rec(3, 1, 1, "rank", 4_300, 5_300),
            root,
            rec(4, 2, 2, "worker \"w\"", 250, 2_250),
        ]
    }

    #[test]
    fn jsonl_round_trips_exactly() {
        let recs = sample();
        let text = to_jsonl(&recs);
        let parsed = parse_jsonl(&text).expect("parse");
        assert_eq!(parsed.len(), recs.len());
        for (p, r) in parsed.iter().zip(&recs) {
            assert_eq!(p.id, r.id);
            assert_eq!(p.parent, r.parent);
            assert_eq!(p.tid, r.tid);
            assert_eq!(p.name, r.name);
            assert_eq!(p.start_ns, r.start_ns);
            assert_eq!(p.end_ns, r.end_ns);
            let fields: Vec<(String, String)> = r
                .fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect();
            assert_eq!(p.fields, fields);
        }
        validate(&parsed, 0).expect("valid");
    }

    #[test]
    fn chrome_round_trips_exactly() {
        let recs = sample();
        let text = to_chrome(&recs);
        let parsed = parse_chrome(&text).expect("parse");
        assert_eq!(parsed.len(), recs.len());
        for (p, r) in parsed.iter().zip(&recs) {
            assert_eq!(p.id, r.id);
            assert_eq!(p.parent, r.parent);
            assert_eq!(p.name, r.name);
            assert_eq!(p.start_ns, r.start_ns);
            assert_eq!(p.end_ns, r.end_ns);
        }
        validate(&parsed, 0).expect("valid");
    }

    #[test]
    fn validate_catches_orphans_inversions_and_escapes() {
        let orphan = vec![ParsedSpan {
            id: 2,
            parent: 9,
            tid: 1,
            name: "x".into(),
            start_ns: 0,
            end_ns: 1,
            fields: Vec::new(),
        }]; // parent 9 missing
        assert!(validate(&orphan, 0).expect_err("orphan").contains("orphan"));

        let inverted = parse_jsonl(&to_jsonl(&[rec(1, 0, 1, "x", 10, 5)])).expect("parse");
        assert!(validate(&inverted, 0).is_err());

        let escaping = parse_jsonl(&to_jsonl(&[
            rec(1, 0, 1, "p", 100, 200),
            rec(2, 1, 1, "c", 50, 150),
        ]))
        .expect("parse");
        assert!(validate(&escaping, 0).is_err());
        // With enough slack the same trace passes (rounding tolerance).
        assert!(validate(&escaping, 100).is_ok());
    }

    #[test]
    fn validate_catches_out_of_order_completion() {
        let spans = parse_jsonl(&to_jsonl(&[
            rec(1, 0, 1, "a", 0, 500),
            rec(2, 0, 1, "b", 0, 100),
        ]))
        .expect("parse");
        assert!(validate(&spans, 0).is_err());
        // Different threads are independent timelines.
        let cross = parse_jsonl(&to_jsonl(&[
            rec(1, 0, 1, "a", 0, 500),
            rec(2, 0, 2, "b", 0, 100),
        ]))
        .expect("parse");
        assert!(validate(&cross, 0).is_ok());
    }

    #[test]
    fn summary_stats_critical_path_and_coverage() {
        let parsed = parse_jsonl(&to_jsonl(&sample())).expect("parse");
        let sum = summarize(&parsed);
        assert_eq!(sum.wall_ns, 10_000);
        // One root spanning the whole extent: full coverage.
        assert!((sum.coverage - 1.0).abs() < 1e-12);
        assert_eq!(
            sum.critical_path,
            vec!["detect", "featurize", "worker \"w\""]
        );
        let detect = sum.stages.iter().find(|s| s.name == "detect").expect("row");
        assert_eq!(detect.count, 1);
        assert_eq!(detect.total_ns, 10_000);
        assert_eq!(detect.p50_ns, 10_000);
        // Stages sorted by descending total time.
        assert_eq!(sum.stages.first().map(|s| s.name.as_str()), Some("detect"));
    }

    #[test]
    fn exact_quantiles_nearest_rank() {
        let durs: Vec<u64> = (1..=100).collect();
        assert_eq!(exact_quantile(&durs, 0.50), 50);
        assert_eq!(exact_quantile(&durs, 0.95), 95);
        assert_eq!(exact_quantile(&durs, 0.99), 99);
        assert_eq!(exact_quantile(&durs, 1.0), 100);
        assert_eq!(exact_quantile(&[], 0.5), 0);
    }
}
