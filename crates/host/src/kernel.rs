//! The node run kernel (§3.2).
//!
//! "We have chosen to write our own lean, run-time kernel … essentially two
//! threads — a kernel thread and an application thread. For QCD, we have no
//! reason to multitask on the node level, so the run kernels do not do any
//! scheduling." What the twin keeps of it is the part the qdaemon reads:
//! the boot kernel's hardware test and the hardware status the kernel
//! reports back at program termination.

/// Hardware status the kernel reports at job end (§3.2: "it checks on
/// hardware status and reports back to the qdaemon and user").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HardwareStatus {
    /// SCU link parity errors detected (each auto-resent).
    pub link_errors: u64,
    /// EDRAM ECC corrections.
    pub ecc_corrections: u64,
    /// Whether all 24 link checksums matched their partners.
    pub checksums_ok: bool,
}

/// The run kernel of one node.
#[derive(Debug, Clone)]
pub struct RunKernel {
    hardware_tested: bool,
    status: HardwareStatus,
}

impl Default for RunKernel {
    fn default() -> Self {
        RunKernel::new()
    }
}

impl RunKernel {
    /// A freshly loaded run kernel, starting in hardware test.
    pub fn new() -> RunKernel {
        RunKernel {
            hardware_tested: false,
            status: HardwareStatus {
                checksums_ok: true,
                ..Default::default()
            },
        }
    }

    /// Complete hardware tests and go idle (links trained).
    pub fn finish_hardware_test(&mut self) {
        assert!(!self.hardware_tested, "hardware test already finished");
        self.hardware_tested = true;
    }

    /// Fold a machine-sweep snapshot of this node's hardware counters into
    /// the kernel's status. Sweep counters are cumulative totals, so the
    /// merge takes the maximum — re-ingesting the same sweep is idempotent
    /// — while a checksum failure stays sticky.
    pub fn merge_hardware(&mut self, snapshot: HardwareStatus) {
        self.status.link_errors = self.status.link_errors.max(snapshot.link_errors);
        self.status.ecc_corrections = self.status.ecc_corrections.max(snapshot.ecc_corrections);
        self.status.checksums_ok &= snapshot.checksums_ok;
    }

    /// The end-of-run hardware report.
    pub fn hardware_status(&self) -> HardwareStatus {
        self.status
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_failure_is_sticky() {
        let mut k = RunKernel::new();
        k.merge_hardware(HardwareStatus {
            checksums_ok: false,
            ..Default::default()
        });
        k.merge_hardware(HardwareStatus {
            checksums_ok: true,
            ..Default::default()
        });
        assert!(!k.hardware_status().checksums_ok);
    }

    #[test]
    #[should_panic(expected = "hardware test already finished")]
    fn hardware_test_finishes_once() {
        let mut k = RunKernel::new();
        k.finish_hardware_test();
        k.finish_hardware_test();
    }
}
