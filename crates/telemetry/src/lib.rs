//! Deterministic observability for the QCDOC software twin.
//!
//! The real QCDOC carries a dedicated Ethernet/JTAG diagnostics network
//! (paper §2.2) precisely because a 12,288-node machine is undebuggable
//! without per-node visibility; its performance story (§4) decomposes a
//! Dslash iteration into local compute, nearest-neighbour comms and the
//! global sum. This crate is the twin's version of both: a
//! [`MetricsRegistry`] of named counters/gauges/histograms, cycle-stamped
//! [`Span`] tracing into a bounded [`RingSink`], and exporters to
//! Chrome-trace JSON, Prometheus text, and a compact JSON summary.
//!
//! Two properties are load-bearing:
//!
//! * **Deterministic** — all timestamps are logical cycle clocks advanced
//!   by the timing models (never wall time), and every exporter iterates
//!   sorted maps, so identical runs produce byte-identical output.
//! * **Compile-out cheap** — every instrumented call site first checks a
//!   single `enabled` branch ([`NodeTelemetry::is_enabled`]: whether the
//!   handle has a sink); on a disabled handle the whole layer costs a
//!   predictable branch per event, verified by
//!   `benches/telemetry_overhead.rs`.
//!
//! The crate deliberately has **zero dependencies** so every other crate
//! in the workspace can depend on it without cycles.

#![warn(missing_docs)]

pub mod export;
pub mod flight;
pub mod metrics;
pub mod node;
pub mod trace;

pub use export::{bench_summary_json, chrome_trace, phase_summary, prometheus_text};
pub use flight::{
    dump_events, FlightDumpGuard, FlightEvent, FlightKind, FlightRecorder, HOST_NODE,
};
pub use metrics::{Histogram, MetricKey, MetricValue, MetricsRegistry};
pub use node::{NodeTelemetry, SpanToken};
pub use trace::{Phase, RingSink, Span};

/// Machine-level telemetry: the merge of every node's metrics (stamped
/// with `node="N"` labels), spans, and flight-recorder events, as
/// returned by the execution engines' `*_with_telemetry` entry points.
#[derive(Debug, Default)]
pub struct MachineTelemetry {
    /// Aggregated metrics across all nodes (plus machine-level series).
    pub metrics: MetricsRegistry,
    /// All recorded spans, ordered by node then record order.
    pub spans: Vec<Span>,
    /// All flight-recorder events, ordered by node then record order.
    pub flight: Vec<FlightEvent>,
}

impl MachineTelemetry {
    /// An empty aggregate.
    pub fn new() -> MachineTelemetry {
        MachineTelemetry::default()
    }

    /// Fold one node's telemetry parts into the aggregate: metrics gain a
    /// `node` label, spans are appended.
    pub fn absorb_node(&mut self, node: u32, metrics: MetricsRegistry, spans: Vec<Span>) {
        self.metrics
            .merge_labeled(&metrics, "node", &node.to_string());
        self.spans.extend(spans);
    }

    /// Append one node's flight-recorder events to the machine black box.
    pub fn absorb_flight(&mut self, events: Vec<FlightEvent>) {
        self.flight.extend(events);
    }

    /// Deterministic flight dump, optionally filtered to one node — the
    /// artifact a failed run leaves behind.
    pub fn flight_dump(&self, node: Option<u32>) -> String {
        dump_events(&self.flight, node)
    }

    /// Chrome-trace JSON of all spans.
    pub fn chrome_trace(&self) -> String {
        export::chrome_trace(&self.spans)
    }

    /// Prometheus text dump of all metrics.
    pub fn prometheus_text(&self) -> String {
        export::prometheus_text(&self.metrics)
    }

    /// Depth-0 phase breakdown `(phase, spans, cycles)`.
    pub fn phase_summary(&self) -> Vec<(Phase, u64, u64)> {
        export::phase_summary(&self.spans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_node_labels_metrics_and_appends_spans() {
        let mut machine = MachineTelemetry::new();
        let mut m0 = MetricsRegistry::new();
        m0.counter_add("dma_words", &[], 10);
        let s0 = vec![Span {
            name: "a",
            node: 0,
            phase: Phase::Comms,
            begin: 0,
            end: 5,
            depth: 0,
            arg: 0,
        }];
        machine.absorb_node(0, m0, s0);
        let mut m1 = MetricsRegistry::new();
        m1.counter_add("dma_words", &[], 20);
        machine.absorb_node(1, m1, Vec::new());
        assert_eq!(
            machine
                .metrics
                .counter("dma_words", &[("node", "0".to_string())]),
            10
        );
        assert_eq!(
            machine
                .metrics
                .counter("dma_words", &[("node", "1".to_string())]),
            20
        );
        assert_eq!(machine.spans.len(), 1);
        assert_eq!(machine.phase_summary(), vec![(Phase::Comms, 1, 5)]);
        assert!(machine.chrome_trace().contains("\"pid\":0"));
        assert!(machine
            .prometheus_text()
            .contains("dma_words{node=\"0\"} 10"));
        assert!(
            bench_summary_json("machine", &machine.metrics, &machine.spans)
                .contains("\"spans_total\": 1")
        );
    }
}
