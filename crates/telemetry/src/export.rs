//! Exporters: Chrome `chrome://tracing` JSON, Prometheus-style text, and
//! a compact JSON summary for `BENCH_telemetry.json`-style artifacts.
//!
//! All output is hand-rolled (the crate is zero-dep) and strictly ordered,
//! so identical inputs yield byte-identical strings.

use crate::metrics::{MetricKey, MetricValue, MetricsRegistry};
use crate::trace::{Phase, Span};

/// Escape a string for embedding inside a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render an `f64` the way JSON wants it: finite, with a decimal point or
/// exponent so it round-trips as a float.
fn json_f64(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_string();
    }
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') || s.contains('E') {
        s
    } else {
        format!("{s}.0")
    }
}

/// Render spans as a Chrome trace (`chrome://tracing` / Perfetto).
///
/// Each span becomes a complete (`"ph":"X"`) event with `pid` = node id,
/// `ts`/`dur` in integer logical cycles (we declare them as nanoseconds —
/// the viewer only needs a consistent unit).
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":{},\"tid\":0,\
             \"ts\":{},\"dur\":{},\"args\":{{\"depth\":{},\"arg\":{}}}}}",
            json_escape(s.name),
            s.phase.name(),
            s.node,
            s.begin,
            s.cycles(),
            s.depth,
            s.arg,
        ));
    }
    out.push_str("]}\n");
    out
}

/// Render a registry as Prometheus text exposition format.
///
/// Series are emitted in the registry's deterministic order, with one
/// `# TYPE` line per metric name. Histograms expand into `_bucket`
/// (non-empty buckets only), `_sum` and `_count` series.
///
/// ```
/// use qcdoc_telemetry::export::prometheus_text;
/// use qcdoc_telemetry::metrics::MetricsRegistry;
///
/// let mut reg = MetricsRegistry::new();
/// reg.counter_add("solver_iterations", &[("action", "wilson".into())], 36);
/// reg.gauge_set("solver_residual", &[], 1e-8);
/// let text = prometheus_text(&reg);
/// assert!(text.contains("# TYPE solver_iterations counter"));
/// assert!(text.contains("solver_iterations{action=\"wilson\"} 36"));
/// // Identical registries render byte-identical text.
/// assert_eq!(text, prometheus_text(&reg));
/// ```
pub fn prometheus_text(reg: &MetricsRegistry) -> String {
    let mut out = String::new();
    let mut last_name = None;
    for (key, value) in reg.iter() {
        let name = key.name();
        if last_name.as_ref() != Some(&name) {
            out.push_str(&format!("# TYPE {} {}\n", name, value.type_name()));
        }
        let labels = render_labels(key, None);
        match value {
            MetricValue::Counter(c) => out.push_str(&format!("{}{} {}\n", name, labels, c)),
            MetricValue::Gauge(g) => {
                out.push_str(&format!("{}{} {}\n", name, labels, fmt_gauge(*g)))
            }
            MetricValue::Histogram(h) => {
                for (bound, count) in h.nonzero_buckets() {
                    let le = render_labels(key, Some(("le", &bound.to_string())));
                    out.push_str(&format!("{}_bucket{} {}\n", name, le, count));
                }
                out.push_str(&format!("{}_sum{} {}\n", name, labels, h.sum()));
                out.push_str(&format!("{}_count{} {}\n", name, labels, h.count()));
            }
        }
        last_name = Some(name);
    }
    out
}

fn fmt_gauge(g: f64) -> String {
    if g.is_finite() {
        format!("{g}")
    } else if g.is_nan() {
        "NaN".to_string()
    } else if g > 0.0 {
        "+Inf".to_string()
    } else {
        "-Inf".to_string()
    }
}

fn render_labels(key: &MetricKey, extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = key
        .labels()
        .map(|(k, v)| format!("{}=\"{}\"", k, json_escape(&v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{}=\"{}\"", k, json_escape(v)));
    }
    if parts.is_empty() {
        return String::new();
    }
    format!("{{{}}}", parts.join(","))
}

/// Aggregate depth-0 spans per phase: `(phase, span_count, total_cycles)`.
///
/// Only depth-0 spans count — nested spans live inside an enclosing
/// depth-0 span and would double count its cycles.
pub fn phase_summary(spans: &[Span]) -> Vec<(Phase, u64, u64)> {
    Phase::ALL
        .iter()
        .filter_map(|&phase| {
            let mut n = 0u64;
            let mut cycles = 0u64;
            for s in spans.iter().filter(|s| s.depth == 0 && s.phase == phase) {
                n += 1;
                cycles += s.cycles();
            }
            (n > 0).then_some((phase, n, cycles))
        })
        .collect()
}

/// Render metrics plus a phase breakdown as one JSON document in the v2
/// schema the judge consumes: stamped with the schema version and the
/// bench's name (so mismatched baselines are refused rather than silently
/// diffed), histograms expanded with deterministic p50/p95/p99 and their
/// non-empty buckets, and the phase table populated from the spans
/// actually recorded.
pub fn bench_summary_json(bench: &str, reg: &MetricsRegistry, spans: &[Span]) -> String {
    let mut out = format!(
        "{{\n  \"schema\": \"qcdoc-telemetry-v2\",\n  \"bench\": \"{}\",\n  \"metrics\": [\n",
        json_escape(bench)
    );
    let entries: Vec<String> = reg
        .iter()
        .map(|(key, value)| {
            let labels: Vec<String> = key
                .labels()
                .map(|(k, v)| format!("\"{}\": \"{}\"", json_escape(&k), json_escape(&v)))
                .collect();
            let value_json = match value {
                MetricValue::Counter(c) => format!("\"type\": \"counter\", \"value\": {c}"),
                MetricValue::Gauge(g) => {
                    format!("\"type\": \"gauge\", \"value\": {}", json_f64(*g))
                }
                MetricValue::Histogram(h) => {
                    let buckets: Vec<String> = h
                        .nonzero_buckets()
                        .into_iter()
                        .map(|(bound, count)| format!("[{bound}, {count}]"))
                        .collect();
                    format!(
                        "\"type\": \"histogram\", \"count\": {}, \"sum\": {}, \
                         \"p50\": {}, \"p95\": {}, \"p99\": {}, \"buckets\": [{}]",
                        h.count(),
                        h.sum(),
                        h.p50(),
                        h.p95(),
                        h.p99(),
                        buckets.join(", ")
                    )
                }
            };
            format!(
                "    {{\"name\": \"{}\", \"labels\": {{{}}}, {}}}",
                json_escape(&key.name()),
                labels.join(", "),
                value_json
            )
        })
        .collect();
    out.push_str(&entries.join(",\n"));
    out.push_str("\n  ],\n  \"phases\": [\n");
    let phases: Vec<String> = phase_summary(spans)
        .into_iter()
        .map(|(phase, n, cycles)| {
            format!(
                "    {{\"phase\": \"{}\", \"spans\": {}, \"cycles\": {}}}",
                phase.name(),
                n,
                cycles
            )
        })
        .collect();
    out.push_str(&phases.join(",\n"));
    out.push_str(&format!("\n  ],\n  \"spans_total\": {}\n}}\n", spans.len()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, phase: Phase, begin: u64, end: u64, depth: u32) -> Span {
        Span {
            name,
            node: 1,
            phase,
            begin,
            end,
            depth,
            arg: 7,
        }
    }

    #[test]
    fn chrome_trace_is_valid_shape() {
        let spans = [
            span("dslash.compute", Phase::Compute, 0, 100, 0),
            span("scu.shift", Phase::Comms, 100, 140, 0),
        ];
        let json = chrome_trace(&spans);
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.contains("\"name\":\"dslash.compute\""));
        assert!(json.contains("\"cat\":\"compute\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"pid\":1"));
        assert!(json.contains("\"ts\":100,\"dur\":40"));
        assert!(json.ends_with("]}\n"));
        // Braces/brackets balance.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn chrome_trace_empty_input() {
        assert_eq!(
            chrome_trace(&[]),
            "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[]}\n"
        );
    }

    #[test]
    fn prometheus_counters_gauges_histograms() {
        let mut reg = MetricsRegistry::new();
        reg.counter_add("resends", &[("node", "2".to_string())], 5);
        reg.gauge_set("gflops", &[], 3.5);
        reg.observe("latency", &[], 3);
        reg.observe("latency", &[], 3);
        let text = prometheus_text(&reg);
        assert!(text.contains("# TYPE resends counter\n"));
        assert!(text.contains("resends{node=\"2\"} 5\n"));
        assert!(text.contains("# TYPE gflops gauge\n"));
        assert!(text.contains("gflops 3.5\n"));
        assert!(text.contains("latency_bucket{le=\"3\"} 2\n"));
        assert!(text.contains("latency_sum 6\n"));
        assert!(text.contains("latency_count 2\n"));
    }

    #[test]
    fn phase_summary_ignores_nested_spans() {
        let spans = [
            span("outer", Phase::Compute, 0, 100, 0),
            span("inner", Phase::Compute, 10, 20, 1),
            span("sum", Phase::GlobalSum, 100, 130, 0),
        ];
        let summary = phase_summary(&spans);
        assert_eq!(
            summary,
            vec![(Phase::Compute, 1, 100), (Phase::GlobalSum, 1, 30)]
        );
    }

    #[test]
    fn summary_json_has_schema_and_phases() {
        let mut reg = MetricsRegistry::new();
        reg.counter_add("iters", &[], 10);
        reg.gauge_set("residual", &[], 1e-8);
        let spans = [span("s", Phase::Comms, 0, 50, 0)];
        let json = bench_summary_json("solve", &reg, &spans);
        assert!(json.contains("\"schema\": \"qcdoc-telemetry-v2\""));
        assert!(json.contains("\"name\": \"iters\""));
        assert!(json.contains("\"value\": 10"));
        assert!(json.contains("0.00000001"));
        assert!(json.contains("\"phase\": \"comms\", \"spans\": 1, \"cycles\": 50"));
        assert!(json.contains("\"spans_total\": 1"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn bench_summary_json_stamps_schema_bench_and_quantiles() {
        let mut reg = MetricsRegistry::new();
        reg.gauge_set("ratio", &[], 1.04);
        for v in [2u64, 2, 2, 100] {
            reg.observe("decision_us", &[("load", "empty".to_string())], v);
        }
        let spans = [span("s", Phase::Compute, 0, 9, 0)];
        let json = bench_summary_json("sched", &reg, &spans);
        assert!(json.contains("\"schema\": \"qcdoc-telemetry-v2\""));
        assert!(json.contains("\"bench\": \"sched\""));
        assert!(json.contains("\"p50\": 3, \"p95\": 127, \"p99\": 127"));
        assert!(json.contains("\"buckets\": [[3, 3], [127, 1]]"));
        assert!(json.contains("\"phase\": \"compute\", \"spans\": 1, \"cycles\": 9"));
        assert!(json.contains("\"spans_total\": 1"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        // Byte-determinism: same inputs, same bytes.
        assert_eq!(json, bench_summary_json("sched", &reg, &spans));
    }

    #[test]
    fn prometheus_escapes_label_values() {
        let mut reg = MetricsRegistry::new();
        reg.counter_add("odd", &[("msg", "say \"hi\"\\path\nnext".to_string())], 1);
        let text = prometheus_text(&reg);
        assert!(text.contains("odd{msg=\"say \\\"hi\\\"\\\\path\\nnext\"} 1\n"));
        // The raw specials must never appear unescaped inside the quotes.
        assert!(!text.contains("say \"hi\""));
    }

    /// A registry whose identities stress the order: names that prefix
    /// one another, labels given out of order, an empty label set next to
    /// non-empty ones, empty strings, NUL and other control bytes, and
    /// non-ASCII text.
    fn tricky_registry() -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        let s = |v: &str| v.to_string();
        reg.gauge_set("node", &[], 1.0);
        reg.gauge_set("node_a", &[("node", s("10"))], 2.0);
        reg.gauge_set("node_a", &[("node", s("2"))], 3.0);
        reg.gauge_set("node_a", &[("node", s("1"))], -0.5);
        reg.gauge_set("node_a", &[("node", s("1")), ("link", s("3"))], 4.0);
        reg.gauge_set("node_a", &[("link", s("3")), ("node", s(""))], 5.0);
        reg.counter_add("node_", &[("a", s("x\0y"))], 6);
        reg.counter_add("node_", &[("a", s("x\0"))], 7);
        reg.counter_add("node_", &[("a", s("x"))], 8);
        reg.counter_add("node_", &[("a", s("x\u{1}"))], 9);
        reg.counter_add("node_", &[("a", s("x")), ("", s(""))], 10);
        reg.counter_add("node_", &[("a", s("x")), ("a", s("w"))], 11);
        reg.counter_add("n\u{e9}ud", &[("\u{fc}", s("\u{263a}"))], 12);
        reg.observe("lat", &[("op", s("b")), ("at", s("z"))], 5);
        reg.observe("lat", &[("op", s("a"))], 1_000);
        reg.gauge_set("inf", &[("sign", s("+"))], f64::INFINITY);
        reg
    }

    #[test]
    fn exports_are_byte_for_byte_pinned() {
        let reg = tricky_registry();
        let text = prometheus_text(&reg);
        let json = bench_summary_json("pin", &reg, &[]);
        assert_eq!(
            text,
            r#"# TYPE inf gauge
inf{sign="+"} +Inf
# TYPE lat histogram
lat_bucket{at="z",op="b",le="7"} 1
lat_sum{at="z",op="b"} 5
lat_count{at="z",op="b"} 1
lat_bucket{op="a",le="1023"} 1
lat_sum{op="a"} 1000
lat_count{op="a"} 1
# TYPE node gauge
node 1
# TYPE node_ counter
node_{="",a="x"} 10
node_{a="w",a="x"} 11
node_{a="x"} 8
node_{a="x\u0000"} 7
node_{a="x\u0000y"} 6
node_{a="x\u0001"} 9
# TYPE node_a gauge
node_a{link="3",node=""} 5
node_a{link="3",node="1"} 4
node_a{node="1"} -0.5
node_a{node="10"} 2
node_a{node="2"} 3
# TYPE néud counter
néud{ü="☺"} 12
"#
        );
        assert_eq!(
            json,
            r#"{
  "schema": "qcdoc-telemetry-v2",
  "bench": "pin",
  "metrics": [
    {"name": "inf", "labels": {"sign": "+"}, "type": "gauge", "value": null},
    {"name": "lat", "labels": {"at": "z", "op": "b"}, "type": "histogram", "count": 1, "sum": 5, "p50": 7, "p95": 7, "p99": 7, "buckets": [[7, 1]]},
    {"name": "lat", "labels": {"op": "a"}, "type": "histogram", "count": 1, "sum": 1000, "p50": 1023, "p95": 1023, "p99": 1023, "buckets": [[1023, 1]]},
    {"name": "node", "labels": {}, "type": "gauge", "value": 1.0},
    {"name": "node_", "labels": {"": "", "a": "x"}, "type": "counter", "value": 10},
    {"name": "node_", "labels": {"a": "w", "a": "x"}, "type": "counter", "value": 11},
    {"name": "node_", "labels": {"a": "x"}, "type": "counter", "value": 8},
    {"name": "node_", "labels": {"a": "x\u0000"}, "type": "counter", "value": 7},
    {"name": "node_", "labels": {"a": "x\u0000y"}, "type": "counter", "value": 6},
    {"name": "node_", "labels": {"a": "x\u0001"}, "type": "counter", "value": 9},
    {"name": "node_a", "labels": {"link": "3", "node": ""}, "type": "gauge", "value": 5.0},
    {"name": "node_a", "labels": {"link": "3", "node": "1"}, "type": "gauge", "value": 4.0},
    {"name": "node_a", "labels": {"node": "1"}, "type": "gauge", "value": -0.5},
    {"name": "node_a", "labels": {"node": "10"}, "type": "gauge", "value": 2.0},
    {"name": "node_a", "labels": {"node": "2"}, "type": "gauge", "value": 3.0},
    {"name": "néud", "labels": {"ü": "☺"}, "type": "counter", "value": 12}
  ],
  "phases": [

  ],
  "spans_total": 0
}
"#
        );
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn json_f64_round_trips_as_float() {
        assert_eq!(json_f64(2.0), "2.0");
        assert_eq!(json_f64(2.5), "2.5");
        assert_eq!(json_f64(f64::NAN), "null");
    }
}
