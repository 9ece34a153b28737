//! In-memory span recorder for the traced run.
//!
//! A span is a named interval with a parent; spans are kept in memory
//! while the tracer runs and written out once at the end, so recording
//! costs two clock reads and a push. A layer's *self time* is the time
//! its spans cover minus the part covered by their child spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the recorder started.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Single-threaded recorder: spans nest strictly, in call order.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.enter(name);
        let out = f(self);
        self.exit(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One line per span: `id name start_ns end_ns parent` (`-` for a
    /// root), preceded by a header line.
    pub fn render(&self) -> String {
        let mut out = String::from("# id name start_ns end_ns parent\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
            let _ = writeln!(out, "{id} {} {} {} {parent}", s.name, s.start_ns, s.end_ns);
        }
        out
    }
}

/// Self time of each span: its duration minus the durations of its
/// direct children (children of one single-threaded parent never
/// overlap, so their durations add).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.duration_ns();
        }
    }
    spans
        .iter()
        .zip(&child_ns)
        .map(|(s, c)| s.duration_ns().saturating_sub(*c))
        .collect()
}

/// Self time summed by span name, in seconds.
pub fn self_seconds_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut by_name: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times_ns(spans)) {
        *by_name.entry(s.name).or_default() += ns as f64 / 1e9;
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100) ⊃ a [10,60) ⊃ b [20,30), c [35,45); d [70,90)
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 20, 30, Some(1)),
            span("b", 35, 45, Some(1)),
            span("d", 70, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 30, 10, 10, 20]);
        let by_name = self_seconds_by_name(&spans);
        assert!((by_name["b"] - 20e-9).abs() < 1e-15);
        assert!((by_name["root"] - 30e-9).abs() < 1e-15);
        // Self times partition the root span exactly.
        let total: u64 = self_times_ns(&spans).iter().sum();
        assert_eq!(total, spans[0].duration_ns());
    }

    #[test]
    fn recorder_nests_in_call_order() {
        let mut rec = Recorder::new();
        rec.time("outer", |rec| {
            rec.time("inner", |_| std::hint::black_box(1 + 1));
            rec.time("inner", |_| ());
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(spans[1].end_ns <= spans[2].start_ns);
        let self_ns: u64 = self_times_ns(spans).iter().sum();
        assert_eq!(self_ns, spans[0].duration_ns());
        assert_eq!(rec.render().lines().count(), 4);
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_is_a_bug() {
        let mut rec = Recorder::new();
        let a = rec.enter("a");
        let _b = rec.enter("b");
        rec.exit(a);
    }
}
