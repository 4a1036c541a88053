//! # qcdoc — a software twin of the QCDOC supercomputer
//!
//! Facade crate re-exporting the full QCDOC reproduction stack:
//!
//! * [`geometry`] — 6-D torus coordinates, folding, software partitioning;
//! * [`asic`] — the node ASIC: clock domains, ECC-guarded node memory, the
//!   prefetching EDRAM stream controller, DDR bandwidth and DIMM flavours,
//!   and the Figure 1 block inventory;
//! * [`scu`] — the Serial Communications Unit: link protocol, DMA engines,
//!   supervisor and partition interrupts, pass-through global operations;
//! * [`lattice`] — the lattice QCD workload suite (SU(3) algebra, gauge
//!   evolution, Wilson / clover / staggered-ASQTAD / domain-wall Dirac
//!   operators, conjugate-gradient solvers);
//! * [`fault`] — deterministic, seeded fault injection (link bit errors,
//!   stalls, dead links, node crashes, memory soft errors) and the
//!   machine-wide health ledger the host diagnostics path reads out;
//! * [`telemetry`] — machine-wide observability: cycle-stamped span
//!   tracing, a metrics registry, and Chrome-trace / Prometheus / JSON
//!   exporters (the software face of §2.2's diagnostics network);
//! * [`host`] — qdaemon host software, Ethernet/JTAG boot, run kernel;
//! * [`sched`] — the multi-tenant batch scheduler behind the qdaemon:
//!   admission control and quotas, torus-aware partition packing,
//!   fair-share priorities with strict aging, and preemption via
//!   exact-bits CG checkpoints;
//! * [`machine`] — packaging hierarchy, power, footprint, and cost model;
//! * [`core`] — the integrated machine: functional (async node programs
//!   sharded over worker threads) and timing (discrete-event) engines, the
//!   communications API, and the performance model (`core::perf`, the one
//!   closed-form price of a node) that regenerates the paper's evaluation
//!   numbers.
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-vs-measured record.
//!
//! ## Quickstart
//!
//! ```
//! use qcdoc::core::DiracPerf;
//! use qcdoc::lattice::counts::Action;
//!
//! // §4's benchmark: 128 nodes at 450 MHz, 4⁴ sites per node. The
//! // Wilson CG sustains about 40% of peak.
//! let wilson = DiracPerf::paper_bench().evaluate(Action::Wilson);
//! assert!(wilson.fits_edram);
//! assert!((wilson.efficiency - 0.40).abs() < 0.025);
//! ```

pub use qcdoc_asic as asic;
pub use qcdoc_core as core;
pub use qcdoc_fault as fault;
pub use qcdoc_geometry as geometry;
pub use qcdoc_host as host;
pub use qcdoc_lattice as lattice;
pub use qcdoc_machine as machine;
pub use qcdoc_sched as sched;
pub use qcdoc_scu as scu;
pub use qcdoc_telemetry as telemetry;
