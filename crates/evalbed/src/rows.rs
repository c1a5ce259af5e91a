//! The append-only JSONL result format behind `--resume`.
//!
//! One line per completed (method, dataset) task. Each line carries its own
//! CRC-32 (the same polynomial as the TRIAD2 file trailer, via
//! [`triad_core::persist::crc32`]) so a crash mid-append — a torn final
//! line, a partially flushed buffer — is detected and *discarded* rather
//! than silently mis-parsed: a resumed run re-executes exactly the tasks
//! whose rows did not land intact, never double-counting the ones that did.
//!
//! Field exactness: every f64 is written with Rust's shortest round-trip
//! `Display` and read back with `str::parse::<f64>` (correctly rounded), so
//! a row that survives the CRC check reproduces its metric values
//! bit-for-bit. `crates/evalbed/tests/format.rs` proptests both properties.

use crate::metrics::{MetricSet, METRIC_NAMES};
use obs::json::{self, Value};
use std::collections::HashSet;
use std::io::Write;
use std::path::Path;
use triad_core::persist::crc32;

/// Bumped whenever the line schema (field set or metric column order)
/// changes; rows with a different version are ignored on load so a resume
/// never mixes schemas.
pub const SCHEMA_VERSION: u32 = 1;

/// One completed evaluation task.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultRow {
    pub method: String,
    pub dataset: usize,
    pub dataset_name: String,
    pub anomaly_kind: String,
    pub n_test: usize,
    pub metrics: MetricSet,
    /// Wall time of the task, milliseconds. Informational: excluded from
    /// the gated summary (it is machine-dependent), included in the CRC
    /// (it is part of this row's integrity).
    pub wall_ms: f64,
}

impl ResultRow {
    /// The resume key: a task re-runs iff no intact row carries its key.
    pub fn key(&self) -> (String, usize) {
        (self.method.clone(), self.dataset)
    }

    /// Serialize to one JSONL line (no trailing newline). The trailing
    /// `crc` field checksums every byte before it.
    pub fn to_line(&self) -> String {
        let mut body = String::with_capacity(256);
        body.push_str(&format!(
            "{{\"v\":{},\"method\":{},\"dataset\":{},\"name\":{},\"kind\":{},\"n_test\":{},\"m\":{{",
            SCHEMA_VERSION,
            Value::from(self.method.as_str()),
            self.dataset,
            Value::from(self.dataset_name.as_str()),
            Value::from(self.anomaly_kind.as_str()),
            self.n_test,
        ));
        for (i, (name, value)) in METRIC_NAMES.iter().zip(&self.metrics.values).enumerate() {
            if i > 0 {
                body.push(',');
            }
            body.push_str(&format!("\"{name}\":{}", fmt_f64(*value)));
        }
        body.push_str(&format!("}},\"wall_ms\":{}", fmt_f64(self.wall_ms)));
        let digest = crc32(body.as_bytes());
        format!("{body},\"crc\":\"{digest:08x}\"}}")
    }

    /// Parse one line, verifying its CRC and schema version. Any defect —
    /// truncation, bit damage, wrong version, missing field — is an `Err`
    /// so the loader can skip the row (and the resume logic re-run its
    /// task).
    pub fn parse_line(line: &str) -> Result<ResultRow, String> {
        let marker = ",\"crc\":\"";
        let at = line.rfind(marker).ok_or("missing crc field")?;
        let body = &line[..at];
        let tail = &line[at + marker.len()..];
        let hex = tail.strip_suffix("\"}").ok_or("malformed crc trailer")?;
        let stored = u32::from_str_radix(hex, 16).map_err(|e| format!("bad crc hex: {e}"))?;
        let computed = crc32(body.as_bytes());
        if stored != computed {
            return Err(format!(
                "crc mismatch (stored {stored:08x}, computed {computed:08x})"
            ));
        }
        // CRC holds: the body is exactly what was written; parse it as JSON
        // (re-closing the brace the crc trailer owned).
        let doc = json::parse(&format!("{body}}}")).map_err(|e| format!("bad row json: {e}"))?;
        let version = field_u64(&doc, "v")?;
        if version != SCHEMA_VERSION as u64 {
            return Err(format!(
                "schema version {version} (this build reads {SCHEMA_VERSION})"
            ));
        }
        let metrics_obj = doc.get("m").ok_or("missing metrics object")?;
        let mut values = [0.0f64; METRIC_NAMES.len()];
        for (slot, name) in values.iter_mut().zip(METRIC_NAMES.iter()) {
            *slot = metrics_obj
                .get(name)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("missing metric {name:?}"))?;
        }
        Ok(ResultRow {
            method: field_str(&doc, "method")?,
            dataset: field_u64(&doc, "dataset")? as usize,
            dataset_name: field_str(&doc, "name")?,
            anomaly_kind: field_str(&doc, "kind")?,
            n_test: field_u64(&doc, "n_test")? as usize,
            metrics: MetricSet { values },
            wall_ms: doc
                .get("wall_ms")
                .and_then(Value::as_f64)
                .ok_or("missing wall_ms")?,
        })
    }
}

fn field_str(doc: &Value, key: &str) -> Result<String, String> {
    doc.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing field {key:?}"))
}

fn field_u64(doc: &Value, key: &str) -> Result<u64, String> {
    doc.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("missing field {key:?}"))
}

/// Shortest round-trip encoding; non-finite values (never produced by sane
/// metrics, but the format must not emit unparseable JSON) degrade to 0.
pub fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Everything a results file yielded: the intact rows (file order) plus the
/// count of lines that failed CRC/schema/parse and were skipped.
pub struct LoadedRows {
    pub rows: Vec<ResultRow>,
    pub skipped_lines: usize,
}

impl LoadedRows {
    /// Resume keys of the intact rows.
    pub fn keys(&self) -> HashSet<(String, usize)> {
        self.rows.iter().map(ResultRow::key).collect()
    }
}

/// Load a results file, skipping damaged lines (a missing file is just zero
/// rows). The final line of a crash-interrupted run is typically truncated
/// mid-record; its CRC cannot verify, so it lands in `skipped_lines` and
/// its task re-runs on resume.
pub fn load_rows(path: &Path) -> Result<LoadedRows, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(LoadedRows {
                rows: Vec::new(),
                skipped_lines: 0,
            })
        }
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    let mut rows = Vec::new();
    let mut skipped = 0usize;
    let mut seen: HashSet<(String, usize)> = HashSet::new();
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        match ResultRow::parse_line(line) {
            // First intact row per key wins; a duplicate (e.g. a re-run that
            // appended before being killed) is dropped so no task is ever
            // counted twice.
            Ok(row) if seen.insert(row.key()) => rows.push(row),
            Ok(_) => skipped += 1,
            Err(_) => skipped += 1,
        }
    }
    Ok(LoadedRows {
        rows,
        skipped_lines: skipped,
    })
}

/// Append rows (one fsync'd write call) to the results file, creating it if
/// needed. Called once per completed batch so a kill loses at most the
/// in-flight batch.
pub fn append_rows(path: &Path, rows: &[ResultRow]) -> Result<(), String> {
    if rows.is_empty() {
        return Ok(());
    }
    let mut buf = String::new();
    for row in rows {
        buf.push_str(&row.to_line());
        buf.push('\n');
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    f.write_all(buf.as_bytes())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    f.sync_data()
        .map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_row(method: &str, dataset: usize) -> ResultRow {
        let mut values = [0.0f64; METRIC_NAMES.len()];
        for (i, v) in values.iter_mut().enumerate() {
            *v = (i as f64 + 1.0) / 17.0;
        }
        ResultRow {
            method: method.to_string(),
            dataset,
            dataset_name: format!("{dataset:03}_sine_noise"),
            anomaly_kind: "Noise".to_string(),
            n_test: 640,
            metrics: MetricSet { values },
            wall_ms: 12.5,
        }
    }

    #[test]
    fn round_trips_exactly() {
        let row = sample_row("triad", 7);
        let line = row.to_line();
        let back = ResultRow::parse_line(&line).expect("parse");
        assert_eq!(back, row);
        // Bit-exact metric values, not just approximate.
        for (a, b) in row.metrics.values.iter().zip(&back.metrics.values) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn truncation_is_detected() {
        let line = sample_row("usad", 3).to_line();
        for cut in [1, line.len() / 2, line.len() - 1] {
            assert!(
                ResultRow::parse_line(&line[..cut]).is_err(),
                "cut at {cut} parsed"
            );
        }
    }

    #[test]
    fn bit_damage_is_detected() {
        let line = sample_row("usad", 3).to_line();
        let mut bytes = line.into_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] = if bytes[mid] == b'7' { b'8' } else { b'7' };
        let damaged = String::from_utf8(bytes).expect("ascii");
        assert!(ResultRow::parse_line(&damaged).is_err());
    }

    #[test]
    fn load_skips_torn_final_line_and_duplicates() {
        let dir = std::env::temp_dir().join(format!("evalbed_rows_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("results.jsonl");
        let a = sample_row("triad", 1);
        let b = sample_row("triad", 2);
        let torn = sample_row("triad", 3).to_line();
        let torn = &torn[..torn.len() - 9]; // lose the crc trailer
        let dup = sample_row("triad", 1); // duplicate key: must not double-count
        let text = format!(
            "{}\n{}\n{}\n{torn}",
            a.to_line(),
            dup.to_line(),
            b.to_line()
        );
        std::fs::write(&path, text).expect("write");
        let loaded = load_rows(&path).expect("load");
        assert_eq!(loaded.rows.len(), 2);
        assert_eq!(loaded.skipped_lines, 2); // the duplicate + the torn line
        let keys = loaded.keys();
        assert!(keys.contains(&("triad".to_string(), 1)));
        assert!(keys.contains(&("triad".to_string(), 2)));
        assert!(!keys.contains(&("triad".to_string(), 3)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_empty() {
        let loaded = load_rows(Path::new("/nonexistent/evalbed/results.jsonl")).expect("load");
        assert!(loaded.rows.is_empty());
        assert_eq!(loaded.skipped_lines, 0);
    }

    #[test]
    fn append_then_load() {
        let dir = std::env::temp_dir().join(format!("evalbed_append_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("results.jsonl");
        append_rows(&path, &[sample_row("a", 1), sample_row("b", 1)]).expect("append");
        append_rows(&path, &[sample_row("a", 2)]).expect("append");
        let loaded = load_rows(&path).expect("load");
        assert_eq!(loaded.rows.len(), 3);
        assert_eq!(loaded.skipped_lines, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn escaping_survives_hostile_names() {
        let mut row = sample_row("quo\"te", 9);
        row.dataset_name = "line\nbreak\tand\\slash".into();
        let back = ResultRow::parse_line(&row.to_line()).expect("parse");
        assert_eq!(back, row);
    }
}
