//! Continuous benchmark judge: the enforcement side of observability.
//!
//! Every overhead bench in this workspace exports a `BENCH_<name>.json`
//! snapshot (via [`qcdoc_telemetry::bench_summary_json`]); committed
//! baselines for the same benches live under `bench/baselines/`. This
//! crate diffs the two — per-metric ratios under a per-metric policy
//! (direction, noise tolerance, hard-gate vs report-only, declared in a
//! small manifest) — renders a MetaQCD-style markdown report showing only
//! the significant rows, and tells the caller whether the trajectory
//! regressed. The `bench-judge` binary wires it into `scripts/verify.sh`
//! so the perf story of the repo is a gated trajectory, not an anecdote;
//! `--bless` moves the baseline intentionally (a byte-for-byte copy, so
//! blessing is deterministic), archiving the outgoing baseline set into
//! a numbered slot under `bench/history/` first (see [`history`]).

#![warn(missing_docs)]

pub mod history;
pub mod json;

use json::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Schema stamp a bench export must carry to be judged.
const SCHEMA: &str = "qcdoc-telemetry-v2";

/// One bench's export, flattened for diffing: every gauge/counter becomes
/// a `name{labels}` key, every histogram additionally expands into
/// `:count`, `:sum`, `:p50`, `:p95`, `:p99` keys.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDoc {
    /// Bench name stamped into the export (`"sched"`, `"integrity"`, …).
    pub bench: String,
    /// Flattened metric key → value.
    pub metrics: BTreeMap<String, f64>,
}

/// Parse one `BENCH_*.json` document. Refuses exports without the v2
/// schema stamp or bench name — an unstamped baseline cannot be trusted
/// to be comparing like with like.
pub fn parse_bench_doc(text: &str) -> Result<BenchDoc, String> {
    let doc = json::parse(text)?;
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("export has no schema stamp")?;
    if schema != SCHEMA {
        return Err(format!(
            "schema mismatch: expected {SCHEMA:?}, found {schema:?} — regenerate the export"
        ));
    }
    let bench = doc
        .get("bench")
        .and_then(Json::as_str)
        .ok_or("export has no bench name stamp")?
        .to_string();
    let mut metrics = BTreeMap::new();
    for entry in doc
        .get("metrics")
        .and_then(Json::as_arr)
        .ok_or("export has no metrics array")?
    {
        let name = entry
            .get("name")
            .and_then(Json::as_str)
            .ok_or("metric without name")?;
        let mut labels: Vec<String> = entry
            .get("labels")
            .and_then(Json::as_obj)
            .map(|members| {
                members
                    .iter()
                    .filter_map(|(k, v)| v.as_str().map(|s| format!("{k}={s}")))
                    .collect()
            })
            .unwrap_or_default();
        labels.sort();
        let key = if labels.is_empty() {
            name.to_string()
        } else {
            format!("{name}{{{}}}", labels.join(","))
        };
        let kind = entry.get("type").and_then(Json::as_str).unwrap_or("gauge");
        if kind == "histogram" {
            for facet in ["count", "sum", "p50", "p95", "p99"] {
                if let Some(v) = entry.get(facet).and_then(Json::as_f64) {
                    metrics.insert(format!("{key}:{facet}"), v);
                }
            }
        } else if let Some(v) = entry.get("value").and_then(Json::as_f64) {
            metrics.insert(key, v);
        }
    }
    Ok(BenchDoc { bench, metrics })
}

/// Which way "better" points for a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Smaller is better (overhead ratios, latencies).
    Lower,
    /// Larger is better (occupancy, throughput, speedups).
    Higher,
}

/// What a significant move does to the exit code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// A regression fails the judge (and verify.sh with it).
    Gate,
    /// Shown in the report, never fails the run.
    Report,
}

/// One manifest row: the policy for a metric of a bench.
#[derive(Debug, Clone)]
pub struct Policy {
    /// Bench the policy applies to.
    pub bench: String,
    /// Flattened metric key (as produced by [`parse_bench_doc`]).
    pub metric: String,
    /// Which way better points.
    pub direction: Direction,
    /// Relative noise band: a ratio within `1 ± tolerance` is invariant.
    pub tolerance: f64,
    /// Gate or report-only.
    pub mode: Mode,
}

/// The parsed policy manifest.
#[derive(Debug, Clone)]
pub struct Manifest {
    /// Noise band for metrics with no explicit policy (report-only).
    pub default_tolerance: f64,
    /// Explicit per-metric policies.
    pub policies: Vec<Policy>,
}

impl Manifest {
    /// The policy for `(bench, metric)`, if declared.
    fn lookup(&self, bench: &str, metric: &str) -> Option<&Policy> {
        self.policies
            .iter()
            .find(|p| p.bench == bench && p.metric == metric)
    }
}

/// Parse the manifest format: `#` comments, blank lines,
/// `default_tolerance <f64>`, and policy rows
/// `<bench> <metric> <lower|higher> <tolerance> <gate|report>`.
pub fn parse_manifest(text: &str) -> Result<Manifest, String> {
    let mut manifest = Manifest {
        default_tolerance: 0.05,
        policies: Vec::new(),
    };
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        let at = |msg: &str| format!("manifest line {}: {msg}", lineno + 1);
        if fields[0] == "default_tolerance" {
            if fields.len() != 2 {
                return Err(at("default_tolerance takes one value"));
            }
            manifest.default_tolerance = fields[1]
                .parse()
                .map_err(|_| at("bad default_tolerance value"))?;
            continue;
        }
        if fields.len() != 5 {
            return Err(at(
                "expected `<bench> <metric> <lower|higher> <tolerance> <gate|report>`",
            ));
        }
        let direction = match fields[2] {
            "lower" => Direction::Lower,
            "higher" => Direction::Higher,
            other => return Err(at(&format!("bad direction {other:?}"))),
        };
        let tolerance: f64 = fields[3].parse().map_err(|_| at("bad tolerance"))?;
        if tolerance.is_nan() || tolerance < 0.0 {
            return Err(at("tolerance must be >= 0"));
        }
        let mode = match fields[4] {
            "gate" => Mode::Gate,
            "report" => Mode::Report,
            other => return Err(at(&format!("bad mode {other:?}"))),
        };
        manifest.policies.push(Policy {
            bench: fields[0].to_string(),
            metric: fields[1].to_string(),
            direction,
            tolerance,
            mode,
        });
    }
    Ok(manifest)
}

/// The judge's classification of one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Moved the wrong way past its tolerance.
    Regression,
    /// Moved the right way past its tolerance.
    Improvement,
    /// Within the noise band (hidden from the report table).
    Invariant,
    /// Moved past tolerance, but the metric has no declared direction.
    Changed,
    /// In the baseline (or gated by the manifest) but absent now.
    Missing,
    /// In the current export but not the baseline (informational).
    New,
}

impl Verdict {
    /// Stable uppercase tag used in the report table.
    pub fn tag(self) -> &'static str {
        match self {
            Verdict::Regression => "REGRESSION",
            Verdict::Improvement => "improvement",
            Verdict::Invariant => "invariant",
            Verdict::Changed => "changed",
            Verdict::Missing => "MISSING",
            Verdict::New => "new",
        }
    }
}

/// One judged metric.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Bench the metric belongs to.
    pub bench: String,
    /// Flattened metric key.
    pub metric: String,
    /// Baseline value, when present.
    pub baseline: Option<f64>,
    /// Current value, when present.
    pub current: Option<f64>,
    /// `current / baseline`, when both are present and baseline ≠ 0.
    pub ratio: Option<f64>,
    /// Whether the policy (if any) gates.
    pub mode: Mode,
    /// Human-readable policy string for the report.
    pub policy: String,
    /// The classification.
    pub verdict: Verdict,
}

impl Finding {
    /// Whether this finding fails the judge.
    pub fn fails(&self) -> bool {
        self.mode == Mode::Gate && matches!(self.verdict, Verdict::Regression | Verdict::Missing)
    }

    /// The report table's verdict cell. Only a gated row can fail the
    /// judge, so a report-only row that moved the wrong way reads
    /// `worse (report)`, never `REGRESSION`.
    pub fn tag(&self) -> &'static str {
        match (self.verdict, self.mode) {
            (Verdict::Regression, Mode::Report) => "worse (report)",
            (verdict, _) => verdict.tag(),
        }
    }

    /// Whether the report table shows this finding.
    fn significant(&self) -> bool {
        !matches!(self.verdict, Verdict::Invariant | Verdict::New)
    }
}

/// The full judgement of current exports against baselines.
#[derive(Debug, Clone, Default)]
pub struct Judgement {
    /// Every metric's finding (including invariant ones).
    pub findings: Vec<Finding>,
    /// Bench names compared.
    pub benches: Vec<String>,
}

impl Judgement {
    /// Whether any gated finding regressed or went missing.
    pub fn failed(&self) -> bool {
        self.findings.iter().any(Finding::fails)
    }

    /// Count findings with the given verdict.
    pub fn count(&self, verdict: Verdict) -> usize {
        self.findings
            .iter()
            .filter(|f| f.verdict == verdict)
            .count()
    }

    /// Render the MetaQCD-style markdown report: a header, one table of
    /// significant rows (regressions first), and a summary line covering
    /// what the table hides. Deterministic for identical inputs.
    pub fn render_markdown(&self, baselines_label: &str) -> String {
        let mut out = String::from("# Benchmark judge report\n\n");
        let _ = writeln!(
            out,
            "Baselines: `{}` · benches compared: {}\n",
            baselines_label,
            self.benches.len()
        );
        let mut rows: Vec<&Finding> = self.findings.iter().filter(|f| f.significant()).collect();
        rows.sort_by_key(|f| {
            (
                match f.verdict {
                    Verdict::Regression => 0,
                    Verdict::Missing => 1,
                    Verdict::Changed => 2,
                    Verdict::Improvement => 3,
                    _ => 4,
                },
                f.bench.clone(),
                f.metric.clone(),
            )
        });
        if rows.is_empty() {
            out.push_str("No significant changes against the baselines.\n\n");
        } else {
            out.push_str("| bench | metric | baseline | current | ratio | policy | verdict |\n");
            out.push_str("|---|---|---:|---:|---:|---|---|\n");
            for f in &rows {
                let _ = writeln!(
                    out,
                    "| {} | `{}` | {} | {} | {} | {} | {} |",
                    f.bench,
                    f.metric,
                    fmt_value(f.baseline),
                    fmt_value(f.current),
                    f.ratio.map_or("—".to_string(), |r| format!("{r:.3}")),
                    f.policy,
                    f.tag(),
                );
            }
            out.push('\n');
        }
        let gated_regressions = self
            .findings
            .iter()
            .filter(|f| f.verdict == Verdict::Regression && f.mode == Mode::Gate)
            .count();
        let _ = writeln!(
            out,
            "{} regressions, {} worse (report), {} missing, {} changed, {} improvements; \
             {} within noise and {} new metrics not shown.",
            gated_regressions,
            self.count(Verdict::Regression) - gated_regressions,
            self.count(Verdict::Missing),
            self.count(Verdict::Changed),
            self.count(Verdict::Improvement),
            self.count(Verdict::Invariant),
            self.count(Verdict::New),
        );
        out
    }
}

fn fmt_value(v: Option<f64>) -> String {
    match v {
        None => "—".to_string(),
        Some(0.0) => "0".to_string(),
        Some(v) if v.abs() >= 1e6 || v.abs() < 1e-4 => format!("{v:.3e}"),
        Some(v) => format!("{v:.6}"),
    }
}

/// Judge one bench's current export against its baseline.
fn judge_bench(baseline: &BenchDoc, current: &BenchDoc, manifest: &Manifest) -> Vec<Finding> {
    assert_eq!(
        baseline.bench, current.bench,
        "cannot judge mismatched benches"
    );
    let bench = &baseline.bench;
    let mut keys: Vec<&String> = baseline
        .metrics
        .keys()
        .chain(current.metrics.keys())
        .collect();
    keys.sort();
    keys.dedup();
    let mut findings = Vec::new();
    for key in keys {
        let base = baseline.metrics.get(key).copied();
        let cur = current.metrics.get(key).copied();
        let policy = manifest.lookup(bench, key);
        let mode = policy.map_or(Mode::Report, |p| p.mode);
        let policy_str = match policy {
            Some(p) => format!(
                "{} ±{:.0}% ({})",
                match p.direction {
                    Direction::Lower => "lower",
                    Direction::Higher => "higher",
                },
                p.tolerance * 100.0,
                match p.mode {
                    Mode::Gate => "gate",
                    Mode::Report => "report",
                }
            ),
            None => format!("±{:.0}% (default)", manifest.default_tolerance * 100.0),
        };
        let (ratio, verdict) = match (base, cur) {
            (None, None) => continue,
            (Some(_), None) => (None, Verdict::Missing),
            (None, Some(_)) => (None, Verdict::New),
            (Some(b), Some(c)) => {
                let ratio = if b == 0.0 {
                    if c == 0.0 {
                        Some(1.0)
                    } else {
                        None // a from-zero move has no meaningful ratio
                    }
                } else {
                    Some(c / b)
                };
                let tolerance = policy.map_or(manifest.default_tolerance, |p| p.tolerance);
                let moved = match ratio {
                    Some(r) => (r - 1.0).abs() > tolerance,
                    None => true, // 0 → nonzero is always a move
                };
                let verdict = if !moved {
                    Verdict::Invariant
                } else {
                    match policy.map(|p| p.direction) {
                        None => Verdict::Changed,
                        Some(Direction::Lower) => {
                            // Grew (or appeared from zero): worse.
                            if ratio.is_none_or(|r| r > 1.0) {
                                Verdict::Regression
                            } else {
                                Verdict::Improvement
                            }
                        }
                        Some(Direction::Higher) => {
                            if ratio.is_none_or(|r| r > 1.0) {
                                Verdict::Improvement
                            } else {
                                Verdict::Regression
                            }
                        }
                    }
                };
                (ratio, verdict)
            }
        };
        // A metric the manifest gates but the baseline never had cannot
        // regress; but a gated metric missing from the *current* export
        // is a broken bench, and `fails()` treats it as such.
        findings.push(Finding {
            bench: bench.clone(),
            metric: key.clone(),
            baseline: base,
            current: cur,
            ratio,
            mode,
            policy: policy_str,
            verdict,
        });
    }
    findings
}

/// Judge a set of (baseline, current) bench pairs, matched by name.
/// Benches present on only one side become Missing/New findings under
/// the bench's own name with the pseudo-metric `<bench export>`.
pub fn judge(baselines: &[BenchDoc], currents: &[BenchDoc], manifest: &Manifest) -> Judgement {
    let mut judgement = Judgement::default();
    let current_by_name: BTreeMap<&str, &BenchDoc> =
        currents.iter().map(|d| (d.bench.as_str(), d)).collect();
    let baseline_names: Vec<&str> = baselines.iter().map(|d| d.bench.as_str()).collect();
    for baseline in baselines {
        judgement.benches.push(baseline.bench.clone());
        match current_by_name.get(baseline.bench.as_str()) {
            Some(current) => judgement
                .findings
                .extend(judge_bench(baseline, current, manifest)),
            None => judgement.findings.push(Finding {
                bench: baseline.bench.clone(),
                metric: "<bench export>".to_string(),
                baseline: None,
                current: None,
                ratio: None,
                // A bench that has a committed baseline must keep
                // exporting: its disappearance is a gated failure.
                mode: Mode::Gate,
                policy: "export must exist (gate)".to_string(),
                verdict: Verdict::Missing,
            }),
        }
    }
    for current in currents {
        if !baseline_names.contains(&current.bench.as_str()) {
            judgement.findings.push(Finding {
                bench: current.bench.clone(),
                metric: "<bench export>".to_string(),
                baseline: None,
                current: None,
                ratio: None,
                mode: Mode::Report,
                policy: "no baseline yet (bless to adopt)".to_string(),
                verdict: Verdict::New,
            });
        }
    }
    judgement.benches.sort();
    judgement.benches.dedup();
    judgement
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(bench: &str, metrics: &[(&str, f64)]) -> BenchDoc {
        BenchDoc {
            bench: bench.to_string(),
            metrics: metrics.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        }
    }

    fn manifest(rows: &str) -> Manifest {
        parse_manifest(rows).unwrap()
    }

    #[test]
    fn parse_bench_doc_flattens_and_refuses_v1() {
        let text = r#"{
  "schema": "qcdoc-telemetry-v2",
  "bench": "sched",
  "metrics": [
    {"name": "ratio", "labels": {}, "type": "gauge", "value": 1.02},
    {"name": "lat", "labels": {"load": "empty"}, "type": "histogram", "count": 4, "sum": 9, "p50": 1, "p95": 3, "p99": 3, "buckets": [[1, 3], [3, 1]]}
  ],
  "phases": [],
  "spans_total": 0
}"#;
        let doc = parse_bench_doc(text).unwrap();
        assert_eq!(doc.bench, "sched");
        assert_eq!(doc.metrics["ratio"], 1.02);
        assert_eq!(doc.metrics["lat{load=empty}:p99"], 3.0);
        assert_eq!(doc.metrics["lat{load=empty}:count"], 4.0);

        let v1 =
            r#"{"schema": "qcdoc-telemetry-v1", "metrics": [], "phases": [], "spans_total": 0}"#;
        let err = parse_bench_doc(v1).unwrap_err();
        assert!(err.contains("schema mismatch"), "{err}");
    }

    #[test]
    fn classification_regression_improvement_invariant() {
        let m = manifest(
            "x over lower 0.10 gate\n\
             x thru higher 0.10 gate\n",
        );
        let base = doc("x", &[("over", 1.00), ("thru", 1.00), ("free", 5.0)]);
        // over grows 20% (regression), thru grows 20% (improvement),
        // free drifts 1% (invariant).
        let cur = doc("x", &[("over", 1.20), ("thru", 1.20), ("free", 5.05)]);
        let j = judge(&[base], &[cur], &m);
        let verdict = |metric: &str| {
            j.findings
                .iter()
                .find(|f| f.metric == metric)
                .unwrap()
                .verdict
        };
        assert_eq!(verdict("over"), Verdict::Regression);
        assert_eq!(verdict("thru"), Verdict::Improvement);
        assert_eq!(verdict("free"), Verdict::Invariant);
        assert!(j.failed());
        let report = j.render_markdown("bench/baselines");
        assert!(report.contains("REGRESSION"));
        assert!(!report.contains("| `free` |"), "invariant rows hidden");
    }

    #[test]
    fn direction_matters_for_which_side_fails() {
        let m = manifest("x lat lower 0.5 gate\n");
        let base = doc("x", &[("lat", 100.0)]);
        assert!(!judge(
            std::slice::from_ref(&base),
            &[doc("x", &[("lat", 40.0)])],
            &m
        )
        .failed());
        assert!(judge(&[base], &[doc("x", &[("lat", 200.0)])], &m).failed());
    }

    #[test]
    fn missing_gated_metric_fails_new_metric_does_not() {
        let m = manifest("x over lower 0.10 gate\n");
        let base = doc("x", &[("over", 1.0)]);
        let cur = doc("x", &[("fresh", 2.0)]);
        let j = judge(&[base], &[cur], &m);
        assert!(j.failed());
        assert_eq!(j.count(Verdict::Missing), 1);
        assert_eq!(j.count(Verdict::New), 1);

        // Report-only metrics may vanish without failing.
        let m2 = manifest("");
        let j2 = judge(
            &[doc("x", &[("over", 1.0)])],
            &[doc("x", &[("fresh", 2.0)])],
            &m2,
        );
        assert!(!j2.failed());
    }

    #[test]
    fn missing_bench_export_fails() {
        let m = manifest("");
        let j = judge(&[doc("gone", &[("a", 1.0)])], &[], &m);
        assert!(j.failed());
        assert!(j
            .render_markdown("b")
            .contains("| gone | `<bench export>` |"));
    }

    #[test]
    fn report_only_regressions_do_not_fail() {
        let m = manifest("x over lower 0.10 report\n");
        let j = judge(
            &[doc("x", &[("over", 1.0)])],
            &[doc("x", &[("over", 3.0)])],
            &m,
        );
        assert!(!j.failed());
        assert_eq!(j.count(Verdict::Regression), 1);
    }

    #[test]
    fn a_report_row_never_renders_regression() {
        // The same move, gated and report-only: only the gated row is a
        // REGRESSION, in its cell and in the summary.
        let m = manifest("x over lower 0.10 report\ny over lower 0.10 gate\n");
        let base = [doc("x", &[("over", 1.0)]), doc("y", &[("over", 1.0)])];
        let report_only = judge(&base[..1], &[doc("x", &[("over", 3.0)])], &m);
        let text = report_only.render_markdown("b");
        assert!(!text.contains("REGRESSION"), "{text}");
        assert!(text.contains("| worse (report) |"), "{text}");
        assert!(text.contains("0 regressions, 1 worse (report)"), "{text}");
        let both = judge(
            &base,
            &[doc("x", &[("over", 3.0)]), doc("y", &[("over", 3.0)])],
            &m,
        );
        let text = both.render_markdown("b");
        assert_eq!(text.matches("REGRESSION").count(), 1, "{text}");
        assert!(text.contains("1 regressions, 1 worse (report)"), "{text}");
    }

    #[test]
    fn zero_baseline_moves_are_judged_without_ratio() {
        let m = manifest("x errs lower 0.10 gate\n");
        let j = judge(
            &[doc("x", &[("errs", 0.0)])],
            &[doc("x", &[("errs", 3.0)])],
            &m,
        );
        let f = &j.findings[0];
        assert_eq!(f.ratio, None);
        assert_eq!(f.verdict, Verdict::Regression);
        assert!(j.failed());
        // 0 → 0 is invariant.
        let j2 = judge(
            &[doc("x", &[("errs", 0.0)])],
            &[doc("x", &[("errs", 0.0)])],
            &m,
        );
        assert_eq!(j2.findings[0].verdict, Verdict::Invariant);
    }

    #[test]
    fn manifest_parser_accepts_comments_and_rejects_junk() {
        let m = manifest(
            "# trajectory policy\n\
             default_tolerance 0.08\n\
             sched ratio lower 0.10 gate   # inline comment\n",
        );
        assert_eq!(m.default_tolerance, 0.08);
        assert_eq!(m.policies.len(), 1);
        assert_eq!(m.policies[0].bench, "sched");
        assert!(parse_manifest("sched ratio sideways 0.1 gate").is_err());
        assert!(parse_manifest("sched ratio lower NaN-ish gate").is_err());
        assert!(parse_manifest("sched ratio lower 0.1").is_err());
    }

    #[test]
    fn markdown_report_is_deterministic() {
        let m = manifest("x over lower 0.10 gate\n");
        let j = judge(
            &[doc("x", &[("over", 1.0), ("b", 2.0)])],
            &[doc("x", &[("over", 1.3), ("b", 4.0)])],
            &m,
        );
        assert_eq!(
            j.render_markdown("bench/baselines"),
            j.render_markdown("bench/baselines")
        );
    }
}
