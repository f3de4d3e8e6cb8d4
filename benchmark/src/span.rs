//! In-memory spans recorded by the benchmark around its calls into each
//! layer, kept until the run ends and then written as a chrome trace.
//!
//! A span is `(name, start, end, parent)`; all spans of one run share the
//! workload name as their identifier. A layer's *self time* is its span's
//! duration minus the part of that interval its child spans cover.

use serde_json::{json, Value};
use std::time::Instant;

/// Index of a span within its [`Spans`] log.
pub type SpanId = usize;

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// What ran (`sim.step`, `sim.membership`, `net.probe_wait`, …).
    pub name: &'static str,
    /// Start, in nanoseconds since the log was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the log was created.
    pub end_ns: u64,
    /// The span that caused this one, if any.
    pub parent: Option<SpanId>,
}

impl Span {
    /// The span's duration.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span log of one workload run.
#[derive(Debug)]
pub struct Spans {
    workload: String,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty log whose clock starts now.
    pub fn new(workload: &str) -> Self {
        Spans {
            workload: workload.to_string(),
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the log was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a finished span. A child is clipped to its parent's interval
    /// so children never exceed the span that caused them.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        let (mut start_ns, mut end_ns) = (start_ns, end_ns.max(start_ns));
        if let Some(p) = parent.map(|p| &self.spans[p]) {
            start_ns = start_ns.clamp(p.start_ns, p.end_ns);
            end_ns = end_ns.clamp(start_ns, p.end_ns);
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
        });
        self.spans.len() - 1
    }

    /// Times `f` as a span named `name` under `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (SpanId, T) {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        (self.record(name, parent, start, end), out)
    }

    /// Lays `durations` out back to back as children of `parent`, starting
    /// at the parent's start — for a layer that reports how long each of
    /// its consecutive phases took but not when each began.
    pub fn record_consecutive(&mut self, parent: SpanId, durations: &[(&'static str, u64)]) {
        let mut at = self.spans[parent].start_ns;
        for &(name, dur_ns) in durations {
            self.record(name, Some(parent), at, at + dur_ns);
            at += dur_ns;
        }
    }

    /// Duration of one span, in nanoseconds.
    pub fn dur_ns(&self, id: SpanId) -> u64 {
        self.spans[id].dur_ns()
    }

    /// All spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// For every span, the nanoseconds of its interval that its direct
    /// children cover (overlapping children are counted once).
    fn child_cover_ns(&self) -> Vec<u64> {
        let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                kids[p].push((s.start_ns, s.end_ns));
            }
        }
        kids.into_iter()
            .map(|mut kids| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0, 0);
                for (start, end) in kids {
                    let start = start.max(reach);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                covered
            })
            .collect()
    }

    /// Self time of one span: its duration minus what its children cover.
    pub fn self_ns(&self, id: SpanId) -> u64 {
        self.spans[id].dur_ns() - self.child_cover_ns()[id]
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Mean duration (ns) of the spans named `name`, 0 when there are none.
    pub fn mean_ns(&self, name: &str) -> f64 {
        mean(&self.durations_ns(name))
    }

    /// Mean self time (ns) of the spans named `name`, 0 when there are none.
    pub fn mean_self_ns(&self, name: &str) -> f64 {
        let cover = self.child_cover_ns();
        let selfs: Vec<f64> = self
            .spans
            .iter()
            .zip(cover)
            .filter(|(s, _)| s.name == name)
            .map(|(s, covered)| (s.dur_ns() - covered) as f64)
            .collect();
        mean(&selfs)
    }

    /// The log as a chrome://tracing document (`ph:"X"` complete events,
    /// microsecond timestamps, exact nanoseconds and the parent in `args`).
    /// At most `limit` spans are written; the count dropped is recorded.
    pub fn to_chrome(&self, limit: usize) -> String {
        let events: Vec<Value> = self
            .spans
            .iter()
            .enumerate()
            .take(limit)
            .map(|(id, s)| {
                json!({
                    "name": s.name,
                    "cat": self.workload,
                    "ph": "X",
                    "pid": 0,
                    "tid": 0,
                    "ts": s.start_ns as f64 / 1000.0,
                    "dur": s.dur_ns() as f64 / 1000.0,
                    "args": json!({
                        "id": id,
                        "parent": s.parent.map_or(Value::Null, |p| Value::Int(p as i64)),
                        "start_ns": s.start_ns,
                        "end_ns": s.end_ns
                    })
                })
            })
            .collect();
        let doc = json!({
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": json!({
                "workload": self.workload,
                "spans_recorded": self.spans.len(),
                "spans_dropped_from_file": self.spans.len().saturating_sub(limit)
            })
        });
        serde_json::to_string(&doc).expect("span fields are finite")
    }
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}
