//! Metric collection and the two output forms: a human table (every metric
//! with its unit and sample count, plus the noise record and operation
//! counts) and the final one-line JSON result.

use crate::noise::NoiseRecord;
use crate::stats;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (1 for a single measured quantity).
    pub samples: usize,
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Operations attempted: timed operations plus correctness checks.
    pub attempted: u64,
    /// Operations that errored or whose output missed its check.
    pub failed: u64,
    /// Operations retried after backpressure (queue full, poll behind).
    pub retried: u64,
    failures: Vec<String>,
    notes: Vec<String>,
}

/// Failure messages kept for the table; the count is always exact.
const KEEP_FAILURES: usize = 8;

impl Report {
    pub fn put(&mut self, name: &'static str, unit: &'static str, value: f64, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Record the `q` percentile of `samples`, refusing a thin tail.
    pub fn percentile(
        &mut self,
        name: &'static str,
        unit: &'static str,
        samples: &[f64],
        q: f64,
    ) -> Result<(), String> {
        let value = stats::honest_percentile(samples, q).map_err(|e| format!("{name}: {e}"))?;
        self.put(name, unit, value, samples.len());
        Ok(())
    }

    /// Count one operation that went through.
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    /// Count one operation that failed.
    pub fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.failures.len() < KEEP_FAILURES {
            self.failures.push(why);
        }
    }

    /// Count one checked operation; `why` is only built on a miss.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) -> bool {
        if ok {
            self.ok();
        } else {
            self.fail(why());
        }
        ok
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The human-readable table, ending before the JSON line.
    pub fn table(&self, workload: &str, seed: u64, trace: bool, noise: &NoiseRecord) -> String {
        let mut out = format!("workload {workload}  seed {seed}  trace {}\n", trace as u8);
        for m in &self.metrics {
            out.push_str(&format!(
                "  {:<32} {:>16.6} {:<6} n={}\n",
                m.name, m.value, m.unit, m.samples
            ));
        }
        out.push_str(&format!(
            "ops: attempted {} failed {} retried {}\n",
            self.attempted, self.failed, self.retried
        ));
        for f in &self.failures {
            out.push_str(&format!("  failure: {f}\n"));
        }
        for n in &self.notes {
            out.push_str(&format!("note: {n}\n"));
        }
        out.push_str(&format!("{noise}\n"));
        out
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}
