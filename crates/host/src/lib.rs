//! QCDOC host software: booting, diagnostics, I/O and job control (§2.3,
//! §3.1, §3.2).
//!
//! Physics runs on the 6-D mesh; *everything else* runs over a conventional
//! Ethernet tree connecting every node to an SMP host:
//!
//! * [`ethernet`] — the Ethernet tree itself: 5-port hubs on daughter- and
//!   motherboards aggregating into Gigabit links at the host;
//! * [`kernel`] — the run kernel's hardware-status report: the link
//!   errors, ECC corrections and checksum verdict a node hands the
//!   qdaemon at job end;
//! * [`qdaemon`] — the host daemon: boots the machine (≈100 UDP packets to
//!   load the boot kernel per node, ≈100 more for the run kernel), tracks
//!   node status, allocates partitions and returns job output and
//!   hardware reports;
//! * [`nfs`] — the host disks the nodes mount, with seeded storage faults;
//! * [`ckstore`] — the durable checkpoint store on those disks;
//! * [`qcsh`] — the modified-tcsh command interface through which users
//!   talk to the qdaemon;
//! * [`recovery`] — the quarantine-and-replan side of self-healing runs:
//!   translate a dirty health ledger into quarantined hardware and a
//!   replacement (possibly degraded) partition from the qdaemon;
//! * [`repair`] — the return-to-service side: scrub + isolated link
//!   burn-in for quarantined nodes, sticky blacklisting for repeat
//!   offenders, spares back into the allocatable pool;
//! * [`chaos`] — the seeded chaos soak harness that drives scheduler,
//!   qdaemon, vault and fault plans together and checks machine-level
//!   SLOs (zero lost jobs, bit-identical solves, capacity recovery).

#![warn(missing_docs)]

pub mod chaos;
pub mod ckstore;
pub mod ethernet;
pub mod kernel;
pub mod nfs;
pub mod qcsh;
pub mod qdaemon;
pub mod recovery;
pub mod repair;

pub use chaos::{run_chaos, ChaosConfig, ChaosReport};
pub use qdaemon::{BootReport, NodeCensus, NodeState, Qdaemon};
pub use recovery::RecoveryPlanner;
pub use repair::{RepairPipeline, RepairStage, RepairTickReport};
