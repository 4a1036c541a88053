//! Shared helpers for the judged benches (see DESIGN.md §4).
//!
//! Every overhead bench exports its measured numbers through one
//! [`BenchRun`], so all `BENCH_*.json` files carry the same schema stamp
//! (`qcdoc-telemetry-v2`), a bench name, real span-derived phase tables,
//! and histogram quantiles — the contract `bench-judge` gates on.

#![warn(missing_docs)]

use qcdoc_telemetry::{bench_summary_json, Histogram, MetricsRegistry, Span};
use std::time::Instant;

/// Minimum wall time of `f` over `reps` runs, in seconds. The minimum —
/// not the mean — is the noise-robust statistic for a deterministic
/// workload on a shared host.
pub fn min_seconds<F: FnMut()>(mut f: F, reps: usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Timed runs of each side per [`overhead_gate`] attempt.
const GATE_REPS: usize = 7;

/// A passed [`overhead_gate`]: the base workload's floor and the
/// variant's price relative to it.
#[derive(Debug, Clone, Copy)]
pub struct Overhead {
    /// Minimum wall seconds of the base workload.
    pub base_seconds: f64,
    /// `variant / base`, minimum over minimum.
    pub ratio: f64,
}

/// The gate every overhead smoke runs: after one warm-up of each side,
/// take the [`min_seconds`] floor of `base` and of `variant` over seven
/// runs each — interleaved, so clock drift and cache-placement luck tax
/// both sides of the ratio equally — and pass as soon as
/// `variant / base < limit`. Up to `attempts` tries ride out host noise;
/// every try prints one line (`names` labels the two sides), a pass
/// prints the verdict, and running out of tries panics.
pub fn overhead_gate(
    bench: &str,
    names: [&str; 2],
    limit: f64,
    attempts: usize,
    mut base: impl FnMut(),
    mut variant: impl FnMut(),
) -> Overhead {
    let [base_name, variant_name] = names;
    base();
    variant();
    for attempt in 1..=attempts {
        let mut base_seconds = f64::INFINITY;
        let mut variant_seconds = f64::INFINITY;
        for _ in 0..GATE_REPS {
            base_seconds = base_seconds.min(min_seconds(&mut base, 1));
            variant_seconds = variant_seconds.min(min_seconds(&mut variant, 1));
        }
        let ratio = variant_seconds / base_seconds;
        println!(
            "{bench} smoke attempt {attempt}: {base_name} {:.1} ms, {variant_name} {:.1} ms, ratio {ratio:.4}",
            base_seconds * 1e3,
            variant_seconds * 1e3,
        );
        if ratio < limit {
            println!("{bench} smoke PASS: {variant_name}/{base_name} ratio {ratio:.4} < {limit}");
            return Overhead {
                base_seconds,
                ratio,
            };
        }
    }
    panic!(
        "{bench}: {variant_name} stayed at or above {limit} x {base_name} in {attempts} attempts"
    );
}

/// Time `cycles` runs of `f` and observe each wall time in microseconds
/// into a fresh [`Histogram`] — the distribution (not just the min) of a
/// repeated operation, so the judge can gate its tail.
pub fn time_histogram_us<F: FnMut()>(mut f: F, cycles: usize) -> Histogram {
    let mut h = Histogram::default();
    for _ in 0..cycles {
        let start = Instant::now();
        f();
        h.observe(start.elapsed().as_micros() as u64);
    }
    h
}

/// One bench's export in progress: a metrics registry, optional spans
/// (for the phase table), and the bench name the judge matches baselines
/// by. Dropping it without calling [`BenchRun::export`] writes nothing.
pub struct BenchRun {
    name: &'static str,
    /// Metrics to export — gauges, counters, histograms.
    pub reg: MetricsRegistry,
    spans: Vec<Span>,
}

impl BenchRun {
    /// A fresh export destined for `BENCH_<name>.json`.
    pub fn new(name: &'static str) -> BenchRun {
        BenchRun {
            name,
            reg: MetricsRegistry::new(),
            spans: Vec::new(),
        }
    }

    /// Set an unlabeled gauge.
    pub fn gauge(&mut self, name: &str, v: f64) {
        self.reg.gauge_set(name, &[], v);
    }

    /// Merge a histogram under `name` with one `load=<load>` label — the
    /// shape the judge's `:p99` gates key on.
    pub fn histogram(&mut self, name: &str, load: &str, h: &Histogram) {
        self.reg
            .histogram_merge(name, &[("load", load.to_string())], h);
    }

    /// Attach spans; the exporter derives the phase table from them.
    pub fn spans(&mut self, spans: Vec<Span>) {
        self.spans = spans;
    }

    /// Render the v2 JSON document without writing it.
    pub fn render(&self) -> String {
        bench_summary_json(self.name, &self.reg, &self.spans)
    }

    /// Write `BENCH_<name>.json` at the workspace root (where verify.sh
    /// and `bench-judge --current .` look for it).
    pub fn export(&self) {
        let json = self.render();
        let path = format!(
            "{}/../../BENCH_{}.json",
            env!("CARGO_MANIFEST_DIR"),
            self.name
        );
        std::fs::write(&path, &json)
            .unwrap_or_else(|e| panic!("write BENCH_{}.json: {e}", self.name));
        println!("Wrote BENCH_{}.json ({} bytes)", self.name, json.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_run_renders_v2_with_name_and_histogram() {
        let mut run = BenchRun::new("selftest");
        run.gauge("ratio", 1.25);
        let mut h = Histogram::default();
        h.observe(3);
        h.observe(200);
        run.histogram("lat_us", "empty", &h);
        let json = run.render();
        assert!(
            json.contains("\"schema\": \"qcdoc-telemetry-v2\""),
            "{json}"
        );
        assert!(json.contains("\"bench\": \"selftest\""), "{json}");
        assert!(json.contains("\"p99\""), "{json}");
        assert!(json.contains("\"load\": \"empty\""), "{json}");
    }

    #[test]
    fn time_histogram_counts_every_cycle() {
        let mut n = 0u64;
        let h = time_histogram_us(|| n += 1, 17);
        assert_eq!(h.count(), 17);
        assert_eq!(n, 17);
    }

    #[test]
    fn overhead_gate_passes_under_the_limit_and_reports_the_floor() {
        let nap = |ms| move || std::thread::sleep(std::time::Duration::from_millis(ms));
        let passed = overhead_gate("selftest", ["nap2", "nap3"], 4.0, 1, nap(2), nap(3));
        // A sleep never returns early, so both floors are lower bounds.
        assert!(passed.base_seconds >= 0.002, "{passed:?}");
        assert!(passed.ratio * passed.base_seconds >= 0.003, "{passed:?}");
        assert!(passed.ratio < 4.0, "{passed:?}");
    }

    #[test]
    #[should_panic(expected = "selftest: nap6 stayed at or above 1.5 x nap2 in 2 attempts")]
    fn overhead_gate_panics_when_no_attempt_clears_the_limit() {
        let nap = |ms| move || std::thread::sleep(std::time::Duration::from_millis(ms));
        overhead_gate("selftest", ["nap2", "nap6"], 1.5, 2, nap(2), nap(6));
    }

    #[test]
    fn min_seconds_is_finite_and_positive() {
        let s = min_seconds(
            || {
                std::hint::black_box(1 + 1);
            },
            3,
        );
        assert!(s.is_finite() && s >= 0.0);
    }
}
