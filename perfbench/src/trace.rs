//! Reading the span records of a traced pass back into per-layer numbers.
//!
//! The benchmark opens its own `obs` spans around each call into a layer's
//! public functions (names like `core.encode`, `stream.push`); the
//! program's own spans, recorded in the same buffers, are read only where
//! a layer has no public boundary to wrap (core's stage-1 ranking, the
//! server's batch queue).

use crate::stats::{self, Interval};
use obs::SpanRecord;
use std::collections::HashMap;

pub struct Trace {
    recs: Vec<SpanRecord>,
    children: HashMap<u64, Vec<usize>>,
}

pub fn interval(r: &SpanRecord) -> Interval {
    Interval {
        start: r.start_ns,
        end: r.end_ns,
    }
}

pub fn ms(r: &SpanRecord) -> f64 {
    interval(r).len() as f64 / 1e6
}

impl Trace {
    /// Drain every span recorded so far (call once the traced work has
    /// quiesced).
    pub fn collect() -> Trace {
        Trace::from_records(obs::take_records())
    }

    pub fn from_records(recs: Vec<SpanRecord>) -> Trace {
        let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
        for (i, r) in recs.iter().enumerate() {
            if r.parent != 0 {
                children.entry(r.parent).or_default().push(i);
            }
        }
        Trace { recs, children }
    }

    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SpanRecord> + 'a {
        self.recs.iter().filter(move |r| r.name == name)
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.named(name).map(ms).collect()
    }

    pub fn children_of<'a>(&'a self, id: u64) -> impl Iterator<Item = &'a SpanRecord> + 'a {
        self.children
            .get(&id)
            .into_iter()
            .flatten()
            .map(move |&i| &self.recs[i])
    }

    /// Total duration (ms) of the children of `id` called `name`.
    pub fn child_sum_ms(&self, id: u64, name: &str) -> f64 {
        self.children_of(id)
            .filter(|r| r.name == name)
            .map(ms)
            .sum()
    }

    /// Durations (ms) of the program's own `rank` spans inside the
    /// `detect` span that `try_detect` opens under the benchmark span `id`:
    /// core's stage-1 ranking, one span per domain, of that one call.
    pub fn rank_ms(&self, id: u64) -> Vec<f64> {
        self.children_of(id)
            .filter(|c| c.name == "detect")
            .flat_map(|d| self.children_of(d.id))
            .filter(|r| r.name == "rank")
            .map(ms)
            .collect()
    }

    /// The server's batch-queue wait of each detect request: the
    /// `batch-wait` span of a `request` minus the executor spans
    /// (`registry`, `detect`) that ran inside it for the same request.
    pub fn batch_waits_ms(&self) -> Vec<f64> {
        self.named("request")
            .filter_map(|req| {
                let wait = self.children_of(req.id).find(|c| c.name == "batch-wait")?;
                let work: Vec<Interval> = self
                    .children_of(req.id)
                    .filter(|c| c.name == "registry" || c.name == "detect")
                    .map(interval)
                    .collect();
                Some(stats::self_time(interval(wait), &work) as f64 / 1e6)
            })
            .collect()
    }
}
