//! What a run hands back: operation counts, correctness failures and
//! metric values, printed one per line and then as the result object.

use crate::catalogue::{END_TO_END, PER_LAYER};

/// Operations attempted and failed. An operation is one node program, one
/// serial solve or one chaos job; a wedged, non-converged or lost one, or
/// one whose output fails a check, counts as failed.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    /// Count `attempted` operations of which `failed` did not complete.
    pub fn ops(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        if failed > 0 {
            self.failed += failed;
            self.failures
                .push(format!("{failed} of {attempted} {what} failed"));
        }
    }

    /// A check on outputs: a false `ok` is one failed operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Two values that must be bit-identical (fingerprints, residual bits,
    /// digests, exact counts).
    pub fn same_bits(&mut self, what: &str, got: u64, want: u64) {
        self.check(got == want, || {
            format!("{what}: {got:#018x} differs from {want:#018x}")
        });
    }
}

/// Metric values by name; rendered in catalogue order with catalogue units.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(value.is_finite(), "{name} is not a finite number: {value}");
        assert!(self.get(name).is_none(), "{name} set twice");
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// The `(name, unit)` rows a run of this kind must report.
fn expected(traced: bool) -> Vec<(&'static str, &'static str)> {
    if traced {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    }
}

/// Print `workload metric value unit` for every metric, then the result
/// object the driver reads as the last line of standard output.
pub fn print_result(workload: &str, traced: bool, checks: &Checks, metrics: &Metrics) {
    for failure in &checks.failures {
        println!("{workload} FAILED {failure}");
    }
    println!("{workload} ops_attempted {} count", checks.attempted);
    println!("{workload} ops_failed {} count", checks.failed);
    let mut body = Vec::new();
    for (name, unit) in expected(traced) {
        let value = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{workload} did not measure {name}"));
        println!("{workload} {name} {value} {unit}");
        body.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        body.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_fingerprint_mismatch_is_a_failed_operation() {
        let mut checks = Checks::default();
        checks.ops(16, 0, "node programs");
        checks.same_bits("solution fingerprint", 0xfeed, 0xfeed);
        assert_eq!((checks.attempted, checks.failed), (16, 0));
        checks.same_bits("solution fingerprint", 0xfeed, 0xbeef);
        assert_eq!((checks.attempted, checks.failed), (16, 1));
        assert!(checks.failures[0].contains("solution fingerprint"));
    }

    #[test]
    fn failed_operations_are_counted_each() {
        let mut checks = Checks::default();
        checks.ops(258, 3, "chaos jobs");
        assert_eq!((checks.attempted, checks.failed), (258, 3));
        assert_eq!(checks.failures.len(), 1);
    }
}
