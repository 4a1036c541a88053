//! Operation ledgers: how workload kernels report their work.
//!
//! The paper's performance numbers are set by the balance between floating
//! point work, local memory traffic, and mesh communication. A
//! [`KernelLedger`] records exactly those quantities for one execution of a
//! kernel on one node; the node model (`crate::node`) and the machine-level
//! performance engine (`qcdoc-core`) convert ledgers into cycles.

use std::ops::{Add, AddAssign};

/// Per-node operation counts for one kernel invocation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelLedger {
    /// Fused multiply-add operations (2 flops each — the FPU's peak mode).
    pub fmadds: u64,
    /// Standalone floating-point adds.
    pub fadds: u64,
    /// Standalone floating-point multiplies.
    pub fmuls: u64,
    /// Bytes read from EDRAM (streaming).
    pub edram_read_bytes: u64,
    /// Bytes written to EDRAM (streaming).
    pub edram_write_bytes: u64,
    /// Bytes read from external DDR.
    pub ddr_read_bytes: u64,
    /// Bytes written to external DDR.
    pub ddr_write_bytes: u64,
    /// Bytes sent to each of the 12 mesh directions.
    pub send_bytes: [u64; 12],
    /// Bytes received from each of the 12 mesh directions.
    pub recv_bytes: [u64; 12],
    /// Number of distinct DMA transfers started per direction (each pays
    /// the transfer start latency).
    pub transfers: [u64; 12],
    /// Number of global reductions (each is one 64-bit word over the whole
    /// partition — CG needs two per iteration).
    pub global_sums: u64,
}

impl KernelLedger {
    /// An empty ledger.
    pub fn new() -> KernelLedger {
        KernelLedger::default()
    }

    /// Total floating-point operations (an FMA counts as two).
    pub fn flops(&self) -> u64 {
        2 * self.fmadds + self.fadds + self.fmuls
    }

    /// Total floating-point *instructions* (an FMA is one issue slot).
    pub fn fpu_ops(&self) -> u64 {
        self.fmadds + self.fadds + self.fmuls
    }

    /// Total EDRAM traffic in bytes.
    pub fn edram_bytes(&self) -> u64 {
        self.edram_read_bytes + self.edram_write_bytes
    }

    /// Total DDR traffic in bytes.
    pub fn ddr_bytes(&self) -> u64 {
        self.ddr_read_bytes + self.ddr_write_bytes
    }

    /// Scale every count by an integer factor (e.g. iterations).
    pub fn scaled(&self, factor: u64) -> KernelLedger {
        let mut out = *self;
        out.fmadds *= factor;
        out.fadds *= factor;
        out.fmuls *= factor;
        out.edram_read_bytes *= factor;
        out.edram_write_bytes *= factor;
        out.ddr_read_bytes *= factor;
        out.ddr_write_bytes *= factor;
        for i in 0..12 {
            out.send_bytes[i] *= factor;
            out.recv_bytes[i] *= factor;
            out.transfers[i] *= factor;
        }
        out.global_sums *= factor;
        out
    }
}

impl Add for KernelLedger {
    type Output = KernelLedger;
    fn add(self, rhs: KernelLedger) -> KernelLedger {
        let mut out = self;
        out += rhs;
        out
    }
}

impl AddAssign for KernelLedger {
    fn add_assign(&mut self, rhs: KernelLedger) {
        self.fmadds += rhs.fmadds;
        self.fadds += rhs.fadds;
        self.fmuls += rhs.fmuls;
        self.edram_read_bytes += rhs.edram_read_bytes;
        self.edram_write_bytes += rhs.edram_write_bytes;
        self.ddr_read_bytes += rhs.ddr_read_bytes;
        self.ddr_write_bytes += rhs.ddr_write_bytes;
        for i in 0..12 {
            self.send_bytes[i] += rhs.send_bytes[i];
            self.recv_bytes[i] += rhs.recv_bytes[i];
            self.transfers[i] += rhs.transfers[i];
        }
        self.global_sums += rhs.global_sums;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fma_counts_two_flops_one_issue() {
        let l = KernelLedger {
            fmadds: 10,
            fadds: 3,
            fmuls: 2,
            ..Default::default()
        };
        assert_eq!(l.flops(), 25);
        assert_eq!(l.fpu_ops(), 15);
    }

    #[test]
    fn scaling_multiplies_everything() {
        let mut l = KernelLedger {
            fmadds: 2,
            global_sums: 1,
            ..Default::default()
        };
        l.send_bytes[3] = 100;
        l.transfers[3] = 1;
        let s = l.scaled(5);
        assert_eq!(s.fmadds, 10);
        assert_eq!(s.send_bytes[3], 500);
        assert_eq!(s.transfers[3], 5);
        assert_eq!(s.global_sums, 5);
    }

    #[test]
    fn addition_accumulates() {
        let mut a = KernelLedger {
            edram_read_bytes: 64,
            ..Default::default()
        };
        a.recv_bytes[0] = 8;
        let mut b = KernelLedger {
            edram_read_bytes: 36,
            ..Default::default()
        };
        b.recv_bytes[0] = 4;
        let c = a + b;
        assert_eq!(c.edram_read_bytes, 100);
        assert_eq!(c.recv_bytes[0], 12);
    }
}
