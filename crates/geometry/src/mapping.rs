//! Block decomposition of a physics lattice onto a machine partition.
//!
//! "On a four-dimensional machine, each processor becomes responsible for the
//! local variables associated with a space-time hypercube" (§1). The mapping
//! is the trivial load-balanced one: the global lattice is cut into equal
//! hyper-rectangles, one per node, with lattice axis *i* running along
//! logical machine axis *i*. Nearest-neighbour (and second/third-neighbour,
//! for improved discretizations) couplings then only ever touch the twelve
//! mesh links of a node.

use crate::{NodeCoord, TorusShape};

/// The local hyper-rectangle of lattice sites owned by one node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalVolume {
    dims: Vec<usize>,
}

impl LocalVolume {
    /// A local volume with the given per-axis extents.
    pub fn new(dims: &[usize]) -> LocalVolume {
        assert!(!dims.is_empty() && dims.iter().all(|&d| d >= 1));
        LocalVolume {
            dims: dims.to_vec(),
        }
    }

    /// The canonical `4^4` local volume of the paper's 128-node benchmarks.
    pub fn hyper4() -> LocalVolume {
        LocalVolume::new(&[4, 4, 4, 4])
    }

    /// Per-axis extents.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of local sites.
    pub fn sites(&self) -> usize {
        self.dims.iter().product()
    }

    /// Number of boundary sites on the face normal to `axis` — the sites
    /// whose neighbour in that direction lives on the adjacent node. This is
    /// the per-direction communication surface for nearest-neighbour
    /// stencils.
    pub fn surface(&self, axis: usize) -> usize {
        self.sites() / self.dims[axis]
    }
}

/// Errors from lattice → machine mapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MappingError {
    /// Lattice rank differs from machine rank.
    RankMismatch {
        /// Lattice rank.
        lattice: usize,
        /// Machine rank.
        machine: usize,
    },
    /// A lattice extent is not divisible by the machine extent on that axis.
    NotDivisible {
        /// Offending axis.
        axis: usize,
    },
}

impl std::fmt::Display for MappingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MappingError::RankMismatch { lattice, machine } => {
                write!(f, "lattice rank {lattice} != machine rank {machine}")
            }
            MappingError::NotDivisible { axis } => {
                write!(
                    f,
                    "lattice extent not divisible by machine extent on axis {axis}"
                )
            }
        }
    }
}

impl std::error::Error for MappingError {}

/// A validated decomposition of a global lattice over a logical machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatticeMapping {
    global: Vec<usize>,
    machine: TorusShape,
    local: LocalVolume,
}

impl LatticeMapping {
    /// Decompose a `global` lattice over `machine`, axis by axis.
    pub fn new(global: &[usize], machine: &TorusShape) -> Result<LatticeMapping, MappingError> {
        if global.len() != machine.rank() {
            return Err(MappingError::RankMismatch {
                lattice: global.len(),
                machine: machine.rank(),
            });
        }
        let mut local = Vec::with_capacity(global.len());
        for (axis, &extent) in global.iter().enumerate() {
            if !extent.is_multiple_of(machine.extent(axis)) {
                return Err(MappingError::NotDivisible { axis });
            }
            local.push(extent / machine.extent(axis));
        }
        Ok(LatticeMapping {
            global: global.to_vec(),
            machine: machine.clone(),
            local: LocalVolume::new(&local),
        })
    }

    /// The machine shape this mapping targets.
    pub fn machine(&self) -> &TorusShape {
        &self.machine
    }

    /// The per-node local volume.
    pub fn local(&self) -> &LocalVolume {
        &self.local
    }

    /// The machine node owning global site `site` (per-axis coordinates).
    pub fn owner(&self, site: &[usize]) -> NodeCoord {
        assert_eq!(site.len(), self.global.len());
        let mut c = NodeCoord::ORIGIN;
        for (axis, &s) in site.iter().enumerate() {
            debug_assert!(s < self.global[axis]);
            c.set(axis, s / self.local.dims()[axis]);
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_benchmark_mapping() {
        // §4: "A 4^4 local volume … translates into a 32^3 x 64 lattice size
        // for a 8,192 node machine" — machine 8x8x8x16.
        let machine = TorusShape::new(&[8, 8, 8, 16]);
        assert_eq!(machine.node_count(), 8192);
        let m = LatticeMapping::new(&[32, 32, 32, 64], &machine).unwrap();
        assert_eq!(m.local().dims(), &[4, 4, 4, 4]);
        assert_eq!(m.local().sites(), 256);
    }

    #[test]
    fn surface_counts() {
        let v = LocalVolume::hyper4();
        for axis in 0..4 {
            assert_eq!(v.surface(axis), 64);
        }
    }

    #[test]
    fn owner_of_a_global_site() {
        let machine = TorusShape::new(&[2, 2, 2, 2]);
        let m = LatticeMapping::new(&[8, 8, 8, 8], &machine).unwrap();
        let site = [5, 0, 3, 7];
        let owner = m.owner(&site);
        assert_eq!(owner.get(0), 1);
        assert_eq!(owner.get(1), 0);
        assert_eq!(owner.get(2), 0);
        assert_eq!(owner.get(3), 1);
    }

    #[test]
    fn indivisible_rejected() {
        let machine = TorusShape::new(&[3, 2]);
        assert_eq!(
            LatticeMapping::new(&[8, 8], &machine),
            Err(MappingError::NotDivisible { axis: 0 })
        );
    }

    #[test]
    fn rank_mismatch_rejected() {
        let machine = TorusShape::new(&[2, 2]);
        assert_eq!(
            LatticeMapping::new(&[8, 8, 8], &machine),
            Err(MappingError::RankMismatch {
                lattice: 3,
                machine: 2
            })
        );
    }

    #[test]
    fn every_site_has_exactly_one_owner() {
        let machine = TorusShape::new(&[2, 4]);
        let m = LatticeMapping::new(&[4, 8], &machine).unwrap();
        let mut counts = std::collections::HashMap::new();
        for x in 0..4 {
            for y in 0..8 {
                *counts.entry(m.owner(&[x, y])).or_insert(0usize) += 1;
            }
        }
        assert_eq!(counts.len(), 8);
        assert!(counts.values().all(|&c| c == m.local().sites()));
    }
}
