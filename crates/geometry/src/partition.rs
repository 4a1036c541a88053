//! Software partitioning of the physical 6-D mesh into logical machines.
//!
//! A [`PartitionSpec`] selects a sub-box of the physical torus and groups its
//! axes into logical dimensions. Each group is folded into a ring with a
//! [`FoldCycle`], so the logical machine is itself a
//! torus of rank 1..=6 whose nearest-neighbour hops are all physical
//! nearest-neighbour hops (unit dilation). This is the software realisation
//! of §2.2's "lower-dimensional partitions of the machine … without moving
//! cables" and of the qdaemon's remapping service (§3.1: "a user requests
//! that the qdaemon remap their partition to a dimensionality between one
//! and six, before program execution begins").

use crate::fold::{FoldCycle, FoldError};
use crate::packing::BoxWalk;
use crate::{Direction, NodeCoord, NodeId, TorusShape};

/// Selection of a sub-box of the physical machine plus an axis grouping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionSpec {
    /// Origin of the sub-box in physical coordinates.
    pub origin: NodeCoord,
    /// Extent of the sub-box along each physical axis (must divide into the
    /// machine; `extent[a] == machine extent` means the full axis is used).
    /// A missing trailing extent reads as 1.
    pub extents: Vec<usize>,
    /// Logical axis groups: each inner vec lists physical axis indices, in
    /// fold order. Every non-degenerate physical axis must appear in exactly
    /// one group.
    pub groups: Vec<Vec<usize>>,
}

impl PartitionSpec {
    /// The whole machine folded to a logical torus with the given grouping.
    pub fn whole_machine(machine: &TorusShape, groups: &[&[usize]]) -> PartitionSpec {
        PartitionSpec {
            origin: NodeCoord::ORIGIN,
            extents: machine.dims().to_vec(),
            groups: groups.iter().map(|g| g.to_vec()).collect(),
        }
    }

    /// The whole machine kept at its native rank (identity grouping).
    pub fn native(machine: &TorusShape) -> PartitionSpec {
        let groups = (0..machine.rank()).map(|a| vec![a]).collect();
        PartitionSpec {
            origin: NodeCoord::ORIGIN,
            extents: machine.dims().to_vec(),
            groups,
        }
    }
}

/// Why a partition could not be constructed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionError {
    /// A sub-box extent is zero.
    ZeroExtent {
        /// Physical axis with the zero extent.
        axis: usize,
    },
    /// An extent greater than 1 on an axis the machine does not have.
    NoSuchAxis {
        /// The axis, counted from 0; at least the machine's rank.
        axis: usize,
    },
    /// The sub-box does not fit inside the machine.
    OutOfBounds {
        /// Physical axis where the violation occurred.
        axis: usize,
    },
    /// A physical axis with extent > 1 was not assigned to any group, or was
    /// assigned twice.
    BadAxisCover {
        /// The offending physical axis.
        axis: usize,
    },
    /// A single-axis group uses only part of the physical axis, so its ring
    /// cannot close with unit dilation.
    PartialSingleAxis {
        /// The offending physical axis.
        axis: usize,
    },
    /// A fold inside a group failed.
    Fold(FoldError),
    /// The grouping produced a logical rank outside 1..=6.
    BadRank {
        /// The offending rank.
        rank: usize,
    },
}

impl std::fmt::Display for PartitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionError::ZeroExtent { axis } => {
                write!(f, "partition extent on axis {axis} is zero")
            }
            PartitionError::NoSuchAxis { axis } => {
                write!(
                    f,
                    "partition extent on axis {axis}, which the machine lacks"
                )
            }
            PartitionError::OutOfBounds { axis } => {
                write!(f, "partition sub-box exceeds machine extent on axis {axis}")
            }
            PartitionError::BadAxisCover { axis } => {
                write!(f, "physical axis {axis} must appear in exactly one group")
            }
            PartitionError::PartialSingleAxis { axis } => write!(
                f,
                "single-axis group on axis {axis} does not span the full physical extent; \
                 the logical ring cannot close"
            ),
            PartitionError::Fold(e) => write!(f, "fold error: {e}"),
            PartitionError::BadRank { rank } => {
                write!(f, "logical rank {rank} outside 1..=6")
            }
        }
    }
}

impl std::error::Error for PartitionError {}

impl From<FoldError> for PartitionError {
    fn from(e: FoldError) -> Self {
        PartitionError::Fold(e)
    }
}

/// A validated logical machine carved out of the physical torus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    machine: TorusShape,
    spec: PartitionSpec,
    logical: TorusShape,
    folds: Vec<FoldCycle>,
}

impl Partition {
    /// Validate `spec` against `machine` and build the partition. The
    /// stored spec has exactly one extent per machine axis.
    pub fn new(machine: &TorusShape, mut spec: PartitionSpec) -> Result<Partition, PartitionError> {
        // Extents: none zero, none beyond the machine's rank but 1; a
        // missing trailing extent reads as 1.
        for (axis, &ext) in spec.extents.iter().enumerate() {
            if ext == 0 {
                return Err(PartitionError::ZeroExtent { axis });
            }
            if ext > 1 && axis >= machine.rank() {
                return Err(PartitionError::NoSuchAxis { axis });
            }
        }
        spec.extents.resize(machine.rank(), 1);
        // Sub-box bounds.
        for axis in 0..machine.rank() {
            if spec.origin.get(axis) + spec.extents[axis] > machine.extent(axis) {
                return Err(PartitionError::OutOfBounds { axis });
            }
        }
        // Axis cover: every axis with sub-extent > 1 in exactly one group;
        // no axis in more than one group.
        let mut count = vec![0usize; machine.rank()];
        for g in &spec.groups {
            for &a in g {
                if a >= machine.rank() {
                    return Err(PartitionError::BadAxisCover { axis: a });
                }
                count[a] += 1;
            }
        }
        for (axis, &covered) in count.iter().enumerate() {
            let needed = spec.extents[axis] > 1;
            if (needed && covered != 1) || (!needed && covered > 1) {
                return Err(PartitionError::BadAxisCover { axis });
            }
        }
        let rank = spec.groups.len();
        if rank == 0 || rank > 6 {
            return Err(PartitionError::BadRank { rank });
        }
        // Single-axis groups must span the full physical extent (their ring
        // closes through the torus wrap). Multi-axis groups fold via Gray
        // cycles, which never use wrap links, so sub-boxes are fine.
        let mut folds = Vec::with_capacity(rank);
        let mut logical_dims = Vec::with_capacity(rank);
        for g in &spec.groups {
            let nontrivial: Vec<usize> =
                g.iter().copied().filter(|&a| spec.extents[a] > 1).collect();
            if let [axis] = nontrivial[..] {
                // The ring of a group with exactly one non-degenerate axis
                // closes through the torus wrap, which only exists if the
                // group spans the full physical extent.
                if spec.extents[axis] != machine.extent(axis) {
                    return Err(PartitionError::PartialSingleAxis { axis });
                }
            } else if let Some(&top) = nontrivial.last() {
                // A multi-axis fold closes through the wrap of its top axis
                // (the Gray cycle ends at (0,…,0,r_top−1)). That hop is a
                // plain box edge when the top extent is 2; otherwise the
                // group must span the full physical extent of the top axis
                // so the wrap cable is inside the partition.
                if spec.extents[top] != 2 && spec.extents[top] != machine.extent(top) {
                    return Err(PartitionError::PartialSingleAxis { axis: top });
                }
            }
            let dims: Vec<usize> = g.iter().map(|&a| spec.extents[a]).collect();
            let fold = FoldCycle::new(&dims)?;
            logical_dims.push(fold.len());
            folds.push(fold);
        }
        Ok(Partition {
            machine: machine.clone(),
            logical: TorusShape::new(&logical_dims),
            spec,
            folds,
        })
    }

    /// The logical torus shape of this partition.
    pub fn logical_shape(&self) -> &TorusShape {
        &self.logical
    }

    /// The spec this partition was built from.
    pub fn spec(&self) -> &PartitionSpec {
        &self.spec
    }

    /// Number of nodes in the partition.
    pub fn node_count(&self) -> usize {
        self.logical.node_count()
    }

    /// Physical coordinate of the node at logical coordinate `lc`.
    pub fn physical_of(&self, lc: NodeCoord) -> NodeCoord {
        let mut pc = self.spec.origin;
        for (li, (group, fold)) in self.spec.groups.iter().zip(&self.folds).enumerate() {
            let within = fold.coord_at(lc.get(li));
            for (&axis, &off) in group.iter().zip(&within) {
                pc.set(axis, self.spec.origin.get(axis) + off);
            }
        }
        pc
    }

    /// Logical coordinate of the node at physical coordinate `pc`, if it is
    /// inside the partition.
    pub fn logical_of(&self, pc: NodeCoord) -> Option<NodeCoord> {
        // Bounds check.
        for axis in 0..self.machine.rank() {
            let rel = pc.get(axis).checked_sub(self.spec.origin.get(axis))?;
            if rel >= self.spec.extents[axis] {
                return None;
            }
        }
        let mut lc = NodeCoord::ORIGIN;
        for (li, (group, fold)) in self.spec.groups.iter().zip(&self.folds).enumerate() {
            let within: Vec<usize> = group
                .iter()
                .map(|&a| pc.get(a) - self.spec.origin.get(a))
                .collect();
            lc.set(li, fold.pos_of(&within));
        }
        Some(lc)
    }

    /// Physical node id of the logical node `id` (rank in the logical shape).
    pub fn physical_id(&self, id: NodeId) -> NodeId {
        self.machine
            .rank_of(self.physical_of(self.logical.coord_of(id)))
    }

    /// Physical node ids of the partition's members, in ascending rank:
    /// the sub-box `spec.origin + spec.extents`, walked row by row with no
    /// fold arithmetic. The same set as [`Partition::physical_id`] over
    /// every logical id, in physical rather than logical order.
    pub fn members(&self) -> impl Iterator<Item = NodeId> {
        let walk = BoxWalk::new(&self.machine, &self.spec.extents);
        let mut rows = Vec::with_capacity(self.node_count() / walk.run);
        walk.rows(self.machine.rank_of(self.spec.origin).index(), |row| {
            rows.push(row);
            true
        });
        let run = walk.run;
        rows.into_iter()
            .flat_map(move |row| (row..row + run).map(|n| NodeId(n as u32)))
    }

    /// Logical coordinate of the neighbour of `lc` in logical direction `d`.
    fn logical_neighbour(&self, lc: NodeCoord, d: Direction) -> NodeCoord {
        self.logical.neighbour(lc, d)
    }

    /// Whether this partition's physical sub-box intersects `other`'s.
    /// Placement never wraps a sub-box around the torus (origins are
    /// bounds-checked against the extents), so this is a plain interval
    /// intersection per axis. Two partitions that overlap cannot be
    /// concurrently allocated — the qdaemon refuses the second.
    pub fn overlaps(&self, other: &Partition) -> bool {
        debug_assert_eq!(
            self.machine, other.machine,
            "overlap is only meaningful within one machine"
        );
        (0..self.machine.rank()).all(|axis| {
            let a_lo = self.spec.origin.get(axis);
            let a_hi = a_lo + self.spec.extents[axis];
            let b_lo = other.spec.origin.get(axis);
            let b_hi = b_lo + other.spec.extents[axis];
            a_lo < b_hi && b_lo < a_hi
        })
    }

    /// Maximum physical hop distance between any pair of logical
    /// nearest-neighbours — the *dilation* of the embedding. A valid QCDOC
    /// partition always has dilation 1.
    pub fn dilation(&self) -> usize {
        let mut worst = 0;
        for lc in self.logical.coords() {
            for axis in 0..self.logical.rank() {
                for dir in [
                    crate::Axis(axis as u8).plus(),
                    crate::Axis(axis as u8).minus(),
                ] {
                    if self.logical.extent(axis) == 1 {
                        continue;
                    }
                    let nb = self.logical_neighbour(lc, dir);
                    let d = self
                        .machine
                        .distance(self.physical_of(lc), self.physical_of(nb));
                    worst = worst.max(d);
                }
            }
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Axis;

    fn rack() -> TorusShape {
        TorusShape::rack_1024()
    }

    #[test]
    fn native_partition_is_identity() {
        let m = rack();
        let p = Partition::new(&m, PartitionSpec::native(&m)).unwrap();
        assert_eq!(p.logical_shape(), &m);
        for id in 0..64 {
            assert_eq!(p.physical_id(NodeId(id)), NodeId(id));
        }
        assert_eq!(p.dilation(), 1);
    }

    #[test]
    fn rack_folds_to_4d() {
        // 8x4x4x2x2x2 -> logical 8x4x4x8 by folding the last three axes.
        let m = rack();
        let spec = PartitionSpec::whole_machine(&m, &[&[0], &[1], &[2], &[3, 4, 5]]);
        let p = Partition::new(&m, spec).unwrap();
        assert_eq!(p.logical_shape().dims(), &[8, 4, 4, 8]);
        assert_eq!(p.node_count(), 1024);
        assert_eq!(
            p.dilation(),
            1,
            "fold must preserve nearest-neighbour adjacency"
        );
    }

    #[test]
    fn rack_folds_to_1d_ring() {
        let m = rack();
        let spec = PartitionSpec::whole_machine(&m, &[&[0, 1, 2, 3, 4, 5]]);
        let p = Partition::new(&m, spec).unwrap();
        assert_eq!(p.logical_shape().dims(), &[1024]);
        assert_eq!(p.dilation(), 1);
    }

    #[test]
    fn logical_physical_bijection() {
        let m = rack();
        let spec = PartitionSpec::whole_machine(&m, &[&[0], &[1, 2], &[3, 4, 5]]);
        let p = Partition::new(&m, spec).unwrap();
        let mut seen = std::collections::HashSet::new();
        for lc in p.logical_shape().coords() {
            let pc = p.physical_of(lc);
            assert!(seen.insert(pc), "physical node mapped twice");
            assert_eq!(p.logical_of(pc), Some(lc));
        }
        assert_eq!(seen.len(), 1024);
    }

    #[test]
    fn members_walk_the_box_in_rank_order() {
        // The same set the fold gives, sorted by physical rank.
        let m = rack();
        let mut origin = NodeCoord::ORIGIN;
        origin.set(0, 4);
        origin.set(2, 2);
        let spec = PartitionSpec {
            origin,
            extents: vec![4, 4, 2, 2, 2, 2],
            groups: vec![vec![0, 3], vec![1], vec![2, 4, 5]],
        };
        let p = Partition::new(&m, spec).unwrap();
        let members: Vec<NodeId> = p.members().collect();
        let mut folded: Vec<NodeId> = (0..p.node_count() as u32)
            .map(|i| p.physical_id(NodeId(i)))
            .collect();
        folded.sort();
        assert_eq!(members.len(), 256);
        assert_eq!(members, folded);
        // The whole machine is every rank.
        let whole = Partition::new(&m, PartitionSpec::native(&m)).unwrap();
        assert!(whole.members().map(|n| n.0).eq(0..1024));
    }

    #[test]
    fn sub_box_partition() {
        // Half the rack along axis 0, folded 4D; multi-axis groups avoid
        // wrap links so the sub-box closes fine.
        let m = rack();
        let mut origin = NodeCoord::ORIGIN;
        origin.set(0, 4);
        let spec = PartitionSpec {
            origin,
            extents: vec![4, 4, 4, 2, 2, 2],
            groups: vec![vec![0, 3], vec![1], vec![2], vec![4, 5]],
        };
        let p = Partition::new(&m, spec).unwrap();
        assert_eq!(p.logical_shape().dims(), &[8, 4, 4, 4]);
        assert_eq!(p.node_count(), 512);
        assert_eq!(p.dilation(), 1);
        // Node outside the sub-box is not in the partition.
        assert_eq!(p.logical_of(NodeCoord::ORIGIN), None);
    }

    #[test]
    fn partial_single_axis_rejected() {
        let m = rack();
        let spec = PartitionSpec {
            origin: NodeCoord::ORIGIN,
            extents: vec![4, 4, 4, 2, 2, 2], // axis 0 is half of 8
            groups: vec![vec![0], vec![1], vec![2], vec![3, 4, 5]],
        };
        assert_eq!(
            Partition::new(&m, spec),
            Err(PartitionError::PartialSingleAxis { axis: 0 })
        );
    }

    #[test]
    fn out_of_bounds_rejected() {
        let m = rack();
        let mut origin = NodeCoord::ORIGIN;
        origin.set(1, 2);
        let spec = PartitionSpec {
            origin,
            extents: vec![8, 4, 4, 2, 2, 2], // origin 2 + extent 4 > 4
            groups: vec![vec![0], vec![1], vec![2], vec![3, 4, 5]],
        };
        assert_eq!(
            Partition::new(&m, spec),
            Err(PartitionError::OutOfBounds { axis: 1 })
        );
    }

    #[test]
    fn double_cover_rejected() {
        let m = rack();
        let spec = PartitionSpec {
            origin: NodeCoord::ORIGIN,
            extents: m.dims().to_vec(),
            groups: vec![vec![0, 1], vec![1, 2], vec![3, 4, 5]],
        };
        assert_eq!(
            Partition::new(&m, spec),
            Err(PartitionError::BadAxisCover { axis: 1 })
        );
    }

    #[test]
    fn missing_axis_rejected() {
        let m = rack();
        let spec = PartitionSpec {
            origin: NodeCoord::ORIGIN,
            extents: m.dims().to_vec(),
            groups: vec![vec![0], vec![1], vec![2], vec![3, 4]], // axis 5 missing
        };
        assert_eq!(
            Partition::new(&m, spec),
            Err(PartitionError::BadAxisCover { axis: 5 })
        );
    }

    /// The 32-node machine of the host tests.
    fn small() -> TorusShape {
        TorusShape::new(&[4, 2, 2, 2, 1, 1])
    }

    fn spec(extents: &[usize], groups: &[&[usize]]) -> PartitionSpec {
        PartitionSpec {
            origin: NodeCoord::ORIGIN,
            extents: extents.to_vec(),
            groups: groups.iter().map(|g| g.to_vec()).collect(),
        }
    }

    #[test]
    fn zero_extent_is_an_error_not_a_panic() {
        let m = small();
        assert_eq!(
            Partition::new(&m, spec(&[0, 2, 2, 2, 1, 1], &[&[0], &[1], &[2, 3]])),
            Err(PartitionError::ZeroExtent { axis: 0 })
        );
        assert_eq!(
            Partition::new(&m, spec(&[4, 0, 2, 2, 1, 1], &[&[0, 1, 2, 3, 4, 5]])),
            Err(PartitionError::ZeroExtent { axis: 1 })
        );
        assert_eq!(
            Partition::new(&m, spec(&[0], &[&[0]])),
            Err(PartitionError::ZeroExtent { axis: 0 })
        );
    }

    #[test]
    fn missing_trailing_extents_read_as_one() {
        // Axes 4 and 5 are not given: they read as 1, as in the bounds
        // check, so the spec is the 4-D whole machine.
        let m = small();
        let p = Partition::new(&m, spec(&[4, 2, 2, 2], &[&[0], &[1], &[2, 3]])).unwrap();
        assert_eq!(p.node_count(), 32);
        assert_eq!(p.spec().extents, vec![4, 2, 2, 2, 1, 1]);
        assert_eq!(p.dilation(), 1);
        // On the rack, a 3-extent spec is the 128-node sub-box.
        let m = rack();
        let p = Partition::new(&m, spec(&[8, 4, 4], &[&[0], &[1], &[2]])).unwrap();
        assert_eq!(p.node_count(), 128);
    }

    #[test]
    fn extent_beyond_the_machine_rank_is_rejected() {
        // A seventh extent of 3 would triple the node count a quota
        // charges without adding a node to the partition.
        let m = small();
        assert_eq!(
            Partition::new(&m, spec(&[4, 2, 2, 2, 1, 1, 3], &[&[0], &[1], &[2, 3]])),
            Err(PartitionError::NoSuchAxis { axis: 6 })
        );
        // Trailing extents of 1 add nothing and are accepted.
        let p = Partition::new(&m, spec(&[4, 2, 2, 2, 1, 1, 1], &[&[0], &[1], &[2, 3]])).unwrap();
        assert_eq!(p.node_count(), 32);
        assert_eq!(p.spec().extents.len(), 6);
    }

    #[test]
    fn neighbour_in_folded_axis_is_physical_neighbour() {
        let m = rack();
        let spec = PartitionSpec::whole_machine(&m, &[&[0], &[1], &[2], &[3, 4, 5]]);
        let p = Partition::new(&m, spec).unwrap();
        let t_axis = Axis(3);
        for lc in p.logical_shape().coords() {
            let nb = p.logical_neighbour(lc, t_axis.plus());
            assert_eq!(m.distance(p.physical_of(lc), p.physical_of(nb)), 1);
        }
    }
}
