//! Bench-side spans: timed from outside the library, kept in memory, and
//! written out at exit. Each span has a name, start, end, parent span and
//! request id. Nothing here reaches into the crates under test.

use locec_obs::json::Value;
use std::time::Instant;

/// One finished (or still open) span. Times are nanoseconds since the
/// tracer's origin.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `phase1.divide`.
    pub name: &'static str,
    /// Start, ns since origin.
    pub start: u64,
    /// End, ns since origin (equal to `start` while open).
    pub end: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    /// The request (offline pass, update batch or query) it belongs to.
    pub request: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Records spans when enabled; a disabled tracer only runs the closures.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer measuring from `origin` (shared across threads so their
    /// spans line up).
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns span keeping on or off (for interleaved traced/untraced work).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one. `None` when disabled.
    pub fn begin(&mut self, name: &'static str, request: u64) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let now = self.now();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes a span opened by [`Tracer::begin`] (and anything still open
    /// inside it).
    pub fn end(&mut self, id: Option<usize>) {
        let Some(id) = id else { return };
        let now = self.now();
        while let Some(top) = self.open.pop() {
            self.spans[top].end = now;
            if top == id {
                break;
            }
        }
    }

    /// Records an already-measured interval as a closed child of the
    /// innermost open span (used for per-request spans whose clocks the
    /// generator reads anyway).
    pub fn record(&mut self, name: &'static str, request: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start: at(start),
            end: at(end),
            parent: self.open.last().copied(),
            request,
        });
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Takes the recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus its direct children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p] = children[p].saturating_add(s.nanos());
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, c)| s.nanos().saturating_sub(c))
        .collect()
}

/// Summed durations of the spans named `name` and their self time, i.e.
/// the part of those spans no child span accounts for.
pub fn total_and_self(spans: &[Span], name: &str) -> (u64, u64) {
    let selfs = self_times(spans);
    spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.name == name)
        .fold((0, 0), |(t, u), (s, own)| (t + s.nanos(), u + own))
}

/// Share of the `root`-named spans' wall time that no child span covers.
pub fn unattributed_share(spans: &[Span], root: &str) -> f64 {
    let (total, own) = total_and_self(spans, root);
    if total == 0 {
        0.0
    } else {
        own as f64 / total as f64
    }
}

/// The spans as JSON: one object per span, `parent` as an index into the
/// same array (`null` for roots).
pub fn to_json(thread: &str, spans: &[Span]) -> Value {
    Value::Object(vec![
        ("thread".to_owned(), Value::Str(thread.to_owned())),
        (
            "spans".to_owned(),
            Value::Array(
                spans
                    .iter()
                    .map(|s| {
                        Value::Object(vec![
                            ("name".to_owned(), Value::Str(s.name.to_owned())),
                            ("start_ns".to_owned(), Value::Uint(s.start)),
                            ("end_ns".to_owned(), Value::Uint(s.end)),
                            (
                                "parent".to_owned(),
                                s.parent.map_or(Value::Null, |p| Value::Uint(p as u64)),
                            ),
                            ("request".to_owned(), Value::Uint(s.request)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("pass", 0, 100, None),             // 0
            span("phase1.divide", 10, 40, Some(0)), // 1
            span("inner", 15, 35, Some(1)),         // 2
            span("phase2.train", 50, 90, Some(0)),  // 3
        ];
        assert_eq!(self_times(&spans), vec![30, 10, 20, 40]);
        assert_eq!(total_and_self(&spans, "pass"), (100, 30));
        assert!((unattributed_share(&spans, "pass") - 0.3).abs() < 1e-12);
    }

    #[test]
    fn shares_sum_over_repeated_roots() {
        let spans = vec![
            span("pass", 0, 100, None),
            span("a", 0, 100, Some(0)),
            span("pass", 200, 300, None),
            span("a", 200, 250, Some(2)),
        ];
        assert!((unattributed_share(&spans, "pass") - 0.25).abs() < 1e-12);
        assert_eq!(unattributed_share(&spans, "missing"), 0.0);
    }

    #[test]
    fn tracer_nests_and_disabled_tracer_keeps_nothing() {
        let mut t = Tracer::new(true, Instant::now());
        let root = t.begin("pass", 7);
        let inner = t.begin("phase1.divide", 7);
        t.end(inner);
        t.end(root);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].request, 7);
        assert!(s[0].start <= s[1].start && s[1].end <= s[0].end);

        let mut off = Tracer::new(false, Instant::now());
        let id = off.begin("pass", 0);
        assert_eq!(id, None);
        off.end(id);
        assert!(off.spans().is_empty());
    }
}
