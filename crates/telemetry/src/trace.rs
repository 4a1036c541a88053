//! Cycle-stamped span tracing.
//!
//! A [`Span`] is one contiguous stretch of a node's logical clock tagged
//! with the machine phase it belongs to. The paper's §4 efficiency model
//! decomposes one Dslash iteration into exactly these phases: local
//! compute, nearest-neighbour comms, and the global sum.

use std::collections::VecDeque;

/// The machine phase a span belongs to, mirroring the paper's §4
/// decomposition of sustained performance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Local floating-point work on a node.
    Compute,
    /// Nearest-neighbour SCU wire traffic.
    Comms,
    /// Global reduction over the whole partition.
    GlobalSum,
    /// Host-side (qdaemon / diagnostics-network) activity.
    Host,
    /// Anything not covered above.
    Other,
}

impl Phase {
    /// Stable lowercase name used by every exporter.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Compute => "compute",
            Phase::Comms => "comms",
            Phase::GlobalSum => "global_sum",
            Phase::Host => "host",
            Phase::Other => "other",
        }
    }

    /// All phases in canonical export order.
    pub const ALL: [Phase; 5] = [
        Phase::Compute,
        Phase::Comms,
        Phase::GlobalSum,
        Phase::Host,
        Phase::Other,
    ];
}

/// One closed interval of a node's logical clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Static span name, e.g. `"dslash.compute"` or `"scu.shift"`.
    pub name: &'static str,
    /// Node id the span was recorded on.
    pub node: u32,
    /// Which §4 phase the cycles belong to.
    pub phase: Phase,
    /// Logical cycle at which the span opened.
    pub begin: u64,
    /// Logical cycle at which the span closed.
    pub end: u64,
    /// Nesting depth at open time; depth-0 spans partition the clock and
    /// are the ones phase summaries aggregate (nested spans would double
    /// count).
    pub depth: u32,
    /// Free-form argument (iteration index, word count, …).
    pub arg: u64,
}

impl Span {
    /// Duration in logical cycles (saturating, in case of misuse).
    pub fn cycles(&self) -> u64 {
        self.end.saturating_sub(self.begin)
    }
}

/// The span sink: a bounded-memory ring that keeps the most recent
/// `capacity` spans.
#[derive(Debug, Default)]
pub struct RingSink {
    capacity: usize,
    buf: VecDeque<Span>,
}

impl RingSink {
    /// A ring that retains at most `capacity` spans.
    pub fn new(capacity: usize) -> RingSink {
        RingSink {
            capacity,
            buf: VecDeque::with_capacity(capacity.min(4096)),
        }
    }

    /// Accept one closed span, evicting the oldest when full.
    pub fn record(&mut self, span: Span) {
        if self.capacity == 0 {
            return;
        }
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
        }
        self.buf.push_back(span);
    }

    /// Remove and return every span held, oldest first.
    pub fn drain(&mut self) -> Vec<Span> {
        self.buf.drain(..).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(begin: u64, end: u64) -> Span {
        Span {
            name: "t",
            node: 0,
            phase: Phase::Compute,
            begin,
            end,
            depth: 0,
            arg: 0,
        }
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut ring = RingSink::new(2);
        for i in 0..5 {
            ring.record(span(i, i + 1));
        }
        let spans = ring.drain();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].begin, 3);
        assert_eq!(spans[1].begin, 4);
        assert!(ring.drain().is_empty());
    }

    #[test]
    fn zero_capacity_ring_drops_everything() {
        let mut ring = RingSink::new(0);
        ring.record(span(0, 1));
        assert!(ring.drain().is_empty());
    }

    #[test]
    fn span_cycles_saturate() {
        assert_eq!(span(5, 9).cycles(), 4);
        assert_eq!(span(9, 5).cycles(), 0);
    }
}
