//! The Serial Communications Unit (SCU) and its link protocol.
//!
//! The SCU is the custom block of the QCDOC ASIC that turns isolated nodes
//! into a tightly coupled machine (§2.2). Per node it manages 24 concurrent
//! uni-directional channels — a send and a receive unit for each of the 12
//! nearest-neighbour directions of the 6-D mesh — over bit-serial HSSL
//! links clocked at the processor frequency. The twin moves whole frames;
//! the bit-serial layer and its link training are not modelled.
//!
//! The protocol features reproduced here, all from §2.2:
//!
//! * three packet classes multiplexed per link: **normal** 64-bit data
//!   words moved by DMA engines with block-strided descriptors,
//!   **supervisor** packets (a 64-bit word landing in a neighbour's SCU
//!   register and raising a CPU interrupt), and 8-bit **partition
//!   interrupt** packets flood-forwarded across a partition under the slow
//!   global clock;
//! * an 8-bit packet header whose type codes have pairwise Hamming distance
//!   ≥ 3 (a single bit error cannot re-type a packet) carrying two parity
//!   bits for the payload; a parity failure triggers an automatic hardware
//!   resend;
//! * per-end link checksums compared at the end of a calculation;
//! * the **three-in-the-air** acknowledgement window that amortises the
//!   round-trip handshake and sustains full bandwidth;
//! * **idle receive**: an unprogrammed receiver holds up to three words and
//!   withholds acknowledgement, blocking the sender — so sends and receives
//!   need no temporal ordering, and the machine is self-synchronizing at
//!   the link level;
//! * pass-through **global sums and broadcasts** that forward after only 8
//!   bits have arrived, with a doubled mode using two disjoint link sets.
//!
//! Timing constants live in [`timing`]; they reproduce the paper's 600 ns
//! nearest-neighbour memory-to-memory latency, the 3.3 µs tail of a
//! 24-word transfer, and the 1.3 GB/s aggregate node bandwidth.

#![warn(missing_docs)]

pub mod dma;
pub mod global;
pub mod link;
pub mod packet;
pub mod scu;
pub mod timing;

pub use dma::DmaDescriptor;
pub use link::{LinkError, NullTap, RecvUnit, SendUnit, WireTap, WireVerdict};
pub use packet::{Frame, Packet};
pub use scu::{Scu, ScuEvent, LINKS};
