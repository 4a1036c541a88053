//! Deterministic fault injection and machine health for the QCDOC twin.
//!
//! The paper's reliability story has two halves. §2.2 describes the
//! *hardware* defences — low bit-error-rate serial links, distance-3 type
//! codes and payload parity with automatic resend, end-of-run link
//! checksums — and §4 reports the *operational* outcome: a five-day
//! 128-node run reproduced bit-identically with "no hardware errors on
//! the SCU links". To test the twin's protocol machinery the way the
//! designers tested the machine, we need to be able to *break* it on
//! purpose, reproducibly.
//!
//! This crate provides:
//!
//! * [`FaultPlan`] — a seeded, declarative schedule of faults: single and
//!   burst bit-flips on a link, a sustained bit-error rate, link stalls,
//!   permanently dead links, node pauses, node crashes, and memory soft
//!   errors, each targeted at a fixed node/wire or drawn at random;
//! * [`FaultClock`] — the plan compiled against a machine: every random
//!   choice is resolved up front from the seed, and all per-frame and
//!   per-iteration draws are *stateless* (keyed by node, link, and
//!   sequence number), so the injected fault stream is identical across
//!   runs and thread interleavings;
//! * [`NodeTap`] — a [`qcdoc_scu::WireTap`] implementation the execution
//!   engines install on the simulated wires;
//! * [`HealthLedger`] — the machine-wide aggregation of per-link resend
//!   counts, checksum verdicts, stall time, and node liveness that the
//!   host's Ethernet/JTAG diagnostics path reads out;
//! * [`StorageFaultPlan`] / [`StorageClock`] — the same seeded idiom for
//!   the *host-disk* half of reliability (hep-lat/0306023 §4): torn
//!   writes, bit rot at rest, stale handles, transient I/O errors, and
//!   disk-full, injected into the host's NFS server.

#![warn(missing_docs)]

pub mod classify;
pub mod clock;
pub mod health;
pub mod plan;
pub mod storage;

pub use classify::{classify_ledger, convicted_nodes, FailureClass};
pub use clock::{FaultClock, NodeTap, PlanError};
pub use health::{HealthLedger, HealthTotals, LinkHealth, Liveness, NodeHealth};
pub use plan::{FaultEvent, FaultKind, FaultPlan, LinkSelect, NodeSelect};
pub use storage::{StorageClock, StorageFault, StorageFaultPlan};
