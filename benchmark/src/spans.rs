//! The harness's own in-memory spans: one per call it makes into a layer.
//!
//! Spans live in a `Vec` until the run ends; [`chrome_trace`] then renders
//! them as Chrome trace-event JSON (load in `chrome://tracing` or
//! Perfetto). A span's *self time* is its duration minus the part of that
//! interval its children cover. Spans inside the program are out of scope
//! here: the engine's stage brackets are read back from
//! `JobOutcome.spans` and attached as children of the call that produced
//! them.

use std::sync::Mutex;
use std::time::Instant;

use serde::json::Value;

/// Index of a recorded span (its position in [`Recorder::finish`]'s list).
pub type SpanId = usize;

/// One closed span. Times are nanoseconds since the recorder's origin.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// What was called, e.g. `svc.submit` or `sort.coded`.
    pub name: String,
    /// Start, ns since origin.
    pub start_ns: u64,
    /// End, ns since origin.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// The request this span belongs to: a round or job number. Spans of
    /// one request share it.
    pub request: u64,
    /// Display lane in the trace file (client thread or engine rank).
    pub lane: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans from any thread.
pub struct Recorder {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Recorder {
    /// Nanoseconds from the recorder's origin to `t`.
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span at `start`; children can name it as parent before it
    /// is closed.
    pub fn open(
        &self,
        name: &str,
        start: Instant,
        parent: Option<SpanId>,
        request: u64,
        lane: u32,
    ) -> SpanId {
        let start_ns = self.ns(start);
        let mut spans = self.spans.lock().expect("no recorder holder panics");
        spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent,
            request,
            lane,
        });
        spans.len() - 1
    }

    /// Closes span `id` at `end`.
    pub fn close(&self, id: SpanId, end: Instant) {
        let end_ns = self.ns(end);
        self.spans.lock().expect("no recorder holder panics")[id].end_ns = end_ns;
    }

    /// Records an already finished span around `[start, end]`.
    pub fn leaf(
        &self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        request: u64,
        lane: u32,
    ) -> SpanId {
        let id = self.open(name, start, parent, request, lane);
        self.close(id, end);
        id
    }

    /// All spans recorded so far, in recording order.
    pub fn finish(self) -> Vec<Span> {
        self.spans.into_inner().expect("no recorder holder panics")
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals (clipped to the span, so overlapping or protruding children
/// are never counted twice or beyond the parent).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Renders `spans` as a Chrome trace-event document: one complete (`X`)
/// event per span, timestamps in microseconds, `tid` = lane, and the
/// request id, parent and self time in `args`.
pub fn chrome_trace(workload: &str, spans: &[Span]) -> String {
    let selfs = self_times_ns(spans);
    let events = spans
        .iter()
        .zip(&selfs)
        .enumerate()
        .map(|(id, (s, &self_ns))| {
            Value::object([
                ("name", Value::Str(s.name.clone())),
                ("cat", Value::Str(workload.to_string())),
                ("ph", Value::Str("X".into())),
                ("ts", Value::Float(s.start_ns as f64 / 1e3)),
                ("dur", Value::Float(s.dur_ns() as f64 / 1e3)),
                ("pid", Value::UInt(1)),
                ("tid", Value::UInt(u64::from(s.lane))),
                (
                    "args",
                    Value::object([
                        ("id", Value::UInt(id as u64)),
                        ("request", Value::UInt(s.request)),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                        ),
                        ("self_us", Value::Float(self_ns as f64 / 1e3)),
                    ]),
                ),
            ])
        })
        .collect();
    Value::object([
        ("displayTimeUnit", Value::Str("ms".into())),
        ("traceEvents", Value::Array(events)),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            request: 7,
            lane: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_children_union() {
        let spans = vec![
            span("job", 0, 100, None),
            span("submit", 10, 30, Some(0)),
            span("digest", 30, 70, Some(0)),
            // Overlaps `digest` for 10 ns and protrudes 20 ns past the parent.
            span("fetch", 60, 120, Some(0)),
            span("stage", 35, 45, Some(2)),
        ];
        // Children cover [10, 100) of the parent: 10 ns of self time.
        assert_eq!(self_times_ns(&spans), vec![10, 20, 30, 60, 10]);
    }

    #[test]
    fn childless_span_is_all_self_time() {
        assert_eq!(self_times_ns(&[span("solo", 5, 25, None)]), vec![20]);
    }

    #[test]
    fn chrome_trace_has_one_complete_event_per_span() {
        let doc = chrome_trace(
            "w",
            &[
                span("a", 1_000, 3_000, None),
                span("b", 1_500, 2_000, Some(0)),
            ],
        );
        assert_eq!(doc.matches("\"ph\":\"X\"").count(), 2);
        assert!(doc.contains("\"name\":\"b\""));
        assert!(doc.contains("\"parent\":0"));
        assert!(doc.contains("\"self_us\":1.5"));
    }

    #[test]
    fn recorder_lets_children_name_an_open_parent() {
        let rec = Recorder::default();
        let t0 = Instant::now();
        let job = rec.open("job", t0, None, 1, 0);
        let call = rec.leaf("call", t0, t0, Some(job), 1, 0);
        rec.close(job, t0 + std::time::Duration::from_nanos(50));
        assert_eq!((job, call), (0, 1));
        let spans = rec.finish();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].dur_ns(), 50);
    }
}
