//! Per-node telemetry handle: a logical cycle clock, a span sink and a
//! local metrics registry, bundled so instrumented code pays a single
//! branch when telemetry is disabled.

use crate::flight::{FlightEvent, FlightKind, FlightRecorder};
use crate::metrics::MetricsRegistry;
use crate::trace::{Phase, RingSink, Span};

/// Opaque marker returned by [`NodeTelemetry::begin`]; pass it back to
/// [`NodeTelemetry::end_with`] to close the span it opened.
#[derive(Debug, Clone, Copy)]
pub struct SpanToken {
    begin: u64,
}

/// Everything one node needs to instrument itself.
///
/// The clock is *logical*: it only moves when instrumented code calls
/// [`NodeTelemetry::advance`] with a deterministic cycle count (DMA
/// transfer models, flop counts). No wall time is ever read, so traces
/// are reproducible bit for bit.
pub struct NodeTelemetry {
    node: u32,
    clock: u64,
    depth: u32,
    phase_override: Option<Phase>,
    /// Where closed spans go; `None` on a disabled handle, which is what
    /// "disabled" means.
    sink: Option<RingSink>,
    metrics: MetricsRegistry,
    /// The black box: always on, even on a disabled handle — flight
    /// events live on exceptional paths only, so the ring costs nothing
    /// on a clean run and is there the day a run fails.
    flight: FlightRecorder,
}

impl NodeTelemetry {
    /// A disabled handle: every operation is a cheap branch, nothing is
    /// recorded. This is the default wired into uninstrumented runs.
    pub fn disabled(node: u32) -> NodeTelemetry {
        NodeTelemetry {
            node,
            clock: 0,
            depth: 0,
            phase_override: None,
            sink: None,
            metrics: MetricsRegistry::new(),
            flight: FlightRecorder::default(),
        }
    }

    /// An enabled handle backed by a bounded [`RingSink`].
    pub fn with_ring(node: u32, capacity: usize) -> NodeTelemetry {
        NodeTelemetry {
            sink: Some(RingSink::new(capacity)),
            ..NodeTelemetry::disabled(node)
        }
    }

    /// Whether this handle records anything. Call sites with non-trivial
    /// argument construction should check this first.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Current logical clock value.
    #[inline]
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Move the logical clock forward by `cycles`.
    #[inline]
    pub fn advance(&mut self, cycles: u64) {
        if self.is_enabled() {
            self.clock += cycles;
        }
    }

    /// Open a span at the current clock. Always pair with
    /// [`NodeTelemetry::end_with`].
    #[inline]
    pub fn begin(&mut self) -> SpanToken {
        if self.is_enabled() {
            self.depth += 1;
        }
        SpanToken { begin: self.clock }
    }

    /// Close the span opened by `token`, record it, and return its
    /// duration in logical cycles (0 when disabled).
    #[inline]
    pub fn end_with(
        &mut self,
        token: SpanToken,
        name: &'static str,
        phase: Phase,
        arg: u64,
    ) -> u64 {
        let Some(sink) = self.sink.as_mut() else {
            return 0;
        };
        self.depth = self.depth.saturating_sub(1);
        let span = Span {
            name,
            node: self.node,
            phase: self.phase_override.unwrap_or(phase),
            begin: token.begin,
            end: self.clock,
            depth: self.depth,
            arg,
        };
        sink.record(span);
        span.cycles()
    }

    /// Reclassify every span closed while the override is set (used by
    /// `global_sum`, whose internal shifts are comms on the wire but
    /// global-sum time in the §4 decomposition). Returns the previous
    /// override so callers can restore it.
    pub fn set_phase_override(&mut self, phase: Option<Phase>) -> Option<Phase> {
        std::mem::replace(&mut self.phase_override, phase)
    }

    /// Add to a node-local counter (no-op when disabled).
    #[inline]
    pub fn counter_add(&mut self, name: &str, v: u64) {
        if self.is_enabled() {
            self.metrics.counter_add(name, &[], v);
        }
    }

    /// Set a node-local gauge (no-op when disabled).
    #[inline]
    pub fn gauge_set(&mut self, name: &str, v: f64) {
        if self.is_enabled() {
            self.metrics.gauge_set(name, &[], v);
        }
    }

    /// Record a node-local histogram observation (no-op when disabled).
    #[inline]
    pub fn observe(&mut self, name: &str, v: u64) {
        if self.is_enabled() {
            self.metrics.observe(name, &[], v);
        }
    }

    /// Read-only view of the node-local metrics.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Record a flight-recorder event (black box; works even when the
    /// handle is disabled — the flight ring is the part of observability
    /// that must be on when nobody thought to enable it).
    pub fn flight(&mut self, kind: FlightKind, detail: &'static str, a: u64, b: u64) {
        self.flight
            .record(self.node, self.clock, kind, detail, a, b);
    }

    /// Drain the flight ring, oldest first.
    pub fn take_flight(&mut self) -> Vec<FlightEvent> {
        self.flight.drain()
    }

    /// Tear the handle down into its recorded metrics and spans, leaving
    /// it empty (and still enabled/disabled as before).
    pub fn take_parts(&mut self) -> (MetricsRegistry, Vec<Span>) {
        let metrics = std::mem::take(&mut self.metrics);
        let spans = self.sink.as_mut().map_or_else(Vec::new, RingSink::drain);
        (metrics, spans)
    }
}

impl std::fmt::Debug for NodeTelemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeTelemetry")
            .field("node", &self.node)
            .field("clock", &self.clock)
            .field("depth", &self.depth)
            .field("enabled", &self.is_enabled())
            .field("phase_override", &self.phase_override)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let mut t = NodeTelemetry::disabled(7);
        assert!(!t.is_enabled());
        t.advance(100);
        assert_eq!(t.clock(), 0);
        let tok = t.begin();
        t.advance(50);
        assert_eq!(t.end_with(tok, "x", Phase::Compute, 0), 0);
        t.counter_add("c", 1);
        t.observe("h", 1);
        t.gauge_set("g", 1.0);
        let (metrics, spans) = t.take_parts();
        assert!(metrics.is_empty());
        assert!(spans.is_empty());
    }

    #[test]
    fn spans_carry_clock_node_and_depth() {
        let mut t = NodeTelemetry::with_ring(3, 16);
        let outer = t.begin();
        t.advance(10);
        let inner = t.begin();
        t.advance(5);
        assert_eq!(t.end_with(inner, "inner", Phase::Comms, 42), 5);
        assert_eq!(t.end_with(outer, "outer", Phase::Compute, 0), 15);
        let (_, spans) = t.take_parts();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[0].depth, 1);
        assert_eq!(spans[0].begin, 10);
        assert_eq!(spans[0].end, 15);
        assert_eq!(spans[0].arg, 42);
        assert_eq!(spans[1].name, "outer");
        assert_eq!(spans[1].depth, 0);
        assert_eq!(spans[1].node, 3);
        assert_eq!(spans[1].cycles(), 15);
    }

    #[test]
    fn phase_override_reclassifies_nested_spans() {
        let mut t = NodeTelemetry::with_ring(0, 16);
        let prev = t.set_phase_override(Some(Phase::GlobalSum));
        assert_eq!(prev, None);
        let tok = t.begin();
        t.advance(8);
        t.end_with(tok, "scu.shift", Phase::Comms, 0);
        let restored = t.set_phase_override(prev);
        assert_eq!(restored, Some(Phase::GlobalSum));
        let tok = t.begin();
        t.advance(1);
        t.end_with(tok, "scu.shift", Phase::Comms, 0);
        let (_, spans) = t.take_parts();
        assert_eq!(spans[0].phase, Phase::GlobalSum);
        assert_eq!(spans[1].phase, Phase::Comms);
    }

    #[test]
    fn flight_ring_records_even_when_disabled() {
        let mut t = NodeTelemetry::disabled(9);
        t.flight(FlightKind::Retry, "link_rewind", 4, 1);
        t.flight(FlightKind::Wedge, "silent_wire", 0, 0);
        assert_eq!(t.flight.len(), 2);
        let events = t.take_flight();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].node, 9);
        assert_eq!(events[0].kind, FlightKind::Retry);
        assert_eq!(events[1].detail, "silent_wire");
        assert!(t.flight.is_empty());
    }

    #[test]
    fn node_local_metrics_accumulate() {
        let mut t = NodeTelemetry::with_ring(0, 4);
        t.counter_add("words", 3);
        t.counter_add("words", 4);
        t.gauge_set("flips", 2.0);
        t.observe("lat", 9);
        assert_eq!(t.metrics().counter("words", &[]), 7);
        let (metrics, _) = t.take_parts();
        assert_eq!(metrics.counter("words", &[]), 7);
        assert_eq!(metrics.gauge("flips", &[]), Some(2.0));
        assert_eq!(metrics.histogram("lat", &[]).unwrap().count(), 1);
        assert!(t.metrics().is_empty());
    }
}
