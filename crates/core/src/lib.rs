//! The integrated QCDOC machine: the functional execution engine, the
//! timing engine, and the performance model that regenerates the paper's
//! evaluation.
//!
//! * [`functional`] — one node of the functional machine ([`functional::NodeCtx`]):
//!   node memory plus the real SCU link protocol over [`wire`]s, with the
//!   one cooperative wait loop every transfer goes through;
//! * [`wire`] — the transport under it: one single-producer/single-consumer
//!   queue per uni-directional link, a slot of the shard's own table when
//!   both nodes share a worker thread (no lock, no atomic) and a locked
//!   queue only between shards; no blocking and no wake-ups;
//! * [`sharded`] — the functional engine ([`ShardedMachine`]): node
//!   programs are `async` and run as cooperative futures multiplexed onto
//!   worker threads, from one node per worker at debug scale up to the
//!   paper's full 12,288 nodes on a few cores; used for correctness,
//!   bit-reproducibility and fault-injection experiments;
//! * [`comm`] — the node-side communications API (the §3.3 "message
//!   passing API that directly reflects the underlying hardware"),
//!   including dimension-ordered global sums built from link transfers;
//! * [`distributed`] — lattice QCD distributed over the functional
//!   machine: halo exchange of spin-projected faces by SCU DMA, verified
//!   bit-for-bit against the single-node operators;
//! * [`des`] — a discrete-event timing engine: validates the analytic
//!   model and reproduces the self-synchronization behaviour of §2.2;
//! * [`perf`] — the calibrated analytic timing model that reproduces §4's
//!   sustained-efficiency figures (40% Wilson / 38% ASQTAD / 46.5% clover
//!   at 4⁴ local volume, ~30% when spilling to DDR): the twin's one
//!   closed-form price of a node's FPU, memory and links;
//! * [`baseline`] — the commodity-cluster comparison the paper argues
//!   against (5–10 µs message start-up), for the hard-scaling experiment:
//!   `perf`'s local model behind an Ethernet NIC;
//! * [`recovery`] — quarantine-and-resume orchestration: segmented runs,
//!   health-ledger sweeps, repartition around broken hardware, and
//!   bit-identical resume from checkpointed state.

#![warn(missing_docs)]

pub mod baseline;
pub mod comm;
pub mod des;
pub mod distributed;
pub mod functional;
pub mod perf;
pub mod recovery;
pub mod sharded;
pub mod wire;

pub use perf::{DiracPerf, EfficiencyReport, Precision};
pub use recovery::{RecoveryConfig, RecoveryError, RecoveryReport, Replacement, SegmentVerdict};
pub use sharded::ShardedMachine;
