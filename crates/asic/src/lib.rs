//! The QCDOC ASIC: a functional and timing model of one processing node.
//!
//! Each QCDOC node is a single system-on-a-chip (Figure 1 of the paper)
//! containing an IBM PPC 440 integer core with an attached 64-bit IEEE
//! floating-point unit (one multiply and one add per cycle — 1 Gflops peak
//! at 500 MHz), 32 kB instruction and data caches, 4 MB of on-chip EDRAM
//! behind a custom prefetching controller (8 GB/s to the core), a controller
//! for external DDR SDRAM (2.6 GB/s, up to 2 GB), the Serial Communications
//! Unit driving the 6-D mesh (in `qcdoc-scu`), two Ethernet interfaces, and
//! the Processor Local Bus (PLB) tying it together.
//!
//! This crate models the *node-local* parts the functional engine and the
//! performance model use; the L1 caches and PLB arbitration are not
//! modelled, and kernel timing is priced in closed form by
//! `qcdoc_core::perf`, not here:
//!
//! * [`clock`] — clock domains and cycle/time conversion at the paper's
//!   operating points (500 MHz design target; 450/420/360 MHz measured);
//! * [`memory`] — functional node memory (EDRAM + DDR address spaces) with
//!   access statistics, the storage the SCU DMA engines operate on;
//! * [`ecc`] — the SEC-DED (72,64) Hamming code guarding every stored word
//!   (§2.1 "1024-bit rows + ECC"), with a deterministic scrubber in
//!   [`memory`];
//! * [`edram`] — the prefetching EDRAM controller's two-stream timing model;
//! * [`ddr`] — the external DDR controller's bandwidth and the DIMM
//!   flavours that bound the node clock;
//! * [`blocks`] — the ASIC block inventory and ASCII rendering of Figure 1.

#![warn(missing_docs)]

pub mod blocks;
pub mod clock;
pub mod ddr;
pub mod ecc;
pub mod edram;
pub mod memory;

pub use clock::{Clock, Cycles};
pub use memory::{MemRegion, NodeMemory};
