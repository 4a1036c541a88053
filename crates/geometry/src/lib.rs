//! Torus geometry for the QCDOC six-dimensional mesh network.
//!
//! QCDOC wires its processing nodes into a six-dimensional torus: every node
//! has twelve nearest neighbours (one in the plus and minus sense of each of
//! the six axes) and the machine wraps around in every dimension. The paper
//! (§2.2) chose six dimensions *above* the four or five required by lattice
//! QCD so that lower-dimensional machines can be carved out **in software,
//! without moving cables** — two or three physical axes are folded into one
//! logical axis by routing a Hamiltonian cycle through the folded sub-torus.
//!
//! This crate provides:
//!
//! * [`TorusShape`] / [`NodeCoord`] / [`NodeId`] — machine shapes, node
//!   coordinates, and the lexicographic rank bijection between them;
//! * [`Axis`] / [`Direction`] — the six axes and twelve signed link
//!   directions of the physical mesh;
//! * [`fold`] — Hamiltonian cycles through multi-dimensional sub-tori, the
//!   mechanism behind software partitioning;
//! * [`partition`] — carving logical 1-D .. 6-D machines out of the physical
//!   6-D torus with unit dilation (logical neighbours remain physical
//!   neighbours).
//!
//! Everything here is pure, deterministic combinatorics; the network
//! behaviour built on top of it lives in `qcdoc-scu` and `qcdoc-core`.

#![warn(missing_docs)]

pub mod coord;
pub mod direction;
pub mod fold;
pub mod packing;
pub mod partition;
pub mod torus;

pub use coord::{NodeCoord, NodeId};
pub use direction::{Axis, Direction};
pub use packing::OccupancyMap;
pub use partition::{Partition, PartitionError, PartitionSpec};
pub use torus::TorusShape;
