//! Harness-side span tracing: one span around each call into the library.
//!
//! Spans are recorded by this harness, outside the program under test, and
//! kept in memory until the run ends. A disabled tracer runs the closure
//! and records nothing, so the untraced reps pay one branch per call.

use std::time::Instant;

/// One recorded interval, in nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
}

pub struct Tracer {
    workload: &'static str,
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(workload: &'static str, enabled: bool) -> Tracer {
        Tracer {
            workload,
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Switch recording on or off between reps. Must not be called inside
    /// an open span: the stack of open spans would lose its parent.
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "toggled tracing inside a span");
        self.enabled = enabled;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Run `f` inside a span called `name`; spans opened by `f` through the
    /// tracer it is handed become children.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.epoch.elapsed().as_nanos() as u64;
        result
    }

    /// The whole trace as one JSON document.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"workload\": \"{}\", \"clock\": \"host wall, ns since harness start\", \"spans\": [\n",
            self.workload
        );
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "  {{\"id\": {i}, \"workload\": \"{}\", \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"self_ns\": {}}}{}\n",
                self.workload,
                s.name,
                s.start_ns,
                s.end_ns,
                self_time_ns(&self.spans, i),
                if i + 1 == self.spans.len() { "" } else { "," },
            ));
        }
        out.push_str("]}\n");
        out
    }
}

/// A span's self time: its duration minus the part of it that its direct
/// children cover. Children are clipped to the parent and overlapping
/// children are counted once, so the result never goes negative.
pub fn self_time_ns(spans: &[Span], index: usize) -> u64 {
    let parent = &spans[index];
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(index))
        .map(|s| (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns)))
        .filter(|(start, end)| end > start)
        .collect();
    children.sort_unstable();
    let mut covered = 0;
    let mut frontier = parent.start_ns;
    for (start, end) in children {
        if end > frontier {
            covered += end - start.max(frontier);
            frontier = end;
        }
    }
    (parent.end_ns - parent.start_ns) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("rep", 0, 100, None),
            span("run", 10, 60, Some(0)),
            span("poll", 20, 30, Some(1)), // grandchild: already inside "run"
            span("check", 70, 90, Some(0)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 50 - 20);
        assert_eq!(self_time_ns(&spans, 1), 50 - 10);
        assert_eq!(self_time_ns(&spans, 2), 10);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        let spans = vec![
            span("parent", 100, 200, None),
            span("a", 110, 150, Some(0)),
            span("b", 140, 170, Some(0)), // overlaps a by 10
            span("c", 145, 160, Some(0)), // wholly inside a ∪ b
            span("d", 190, 250, Some(0)), // overhangs the parent's end
            span("e", 50, 105, Some(0)),  // overhangs the parent's start
        ];
        // Covered: [100,105] ∪ [110,170] ∪ [190,200] = 5 + 60 + 10.
        assert_eq!(self_time_ns(&spans, 0), 100 - 75);
    }

    #[test]
    fn tracer_nests_spans_and_skips_them_when_disabled() {
        let mut t = Tracer::new("unit", true);
        let answer = t.span("outer", |t| t.span("inner", |_| 41) + 1);
        assert_eq!(answer, 42);
        t.set_enabled(false);
        t.span("unrecorded", |_| ());
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name.as_str(), spans[0].parent), ("outer", None));
        assert_eq!(
            (spans[1].name.as_str(), spans[1].parent),
            ("inner", Some(0))
        );
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(t.to_json().contains("\"name\": \"inner\""));
    }
}
