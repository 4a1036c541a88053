//! The scheduler's view of the machine.
//!
//! The scheduler computes placements over a [`qcdoc_geometry::OccupancyMap`]
//! snapshot, but the machine itself — node states, partition objects,
//! run kernels — lives elsewhere. [`MeshHost`] is that boundary: the
//! host crate implements it on the `Qdaemon` (so scheduled placements
//! become real partitions with member-node bookkeeping), and [`SimMesh`]
//! implements it on a bare occupancy map for unit tests, property tests
//! and packing benchmarks where booting 12,288 simulated nodes would be
//! noise.

use qcdoc_geometry::{OccupancyMap, Partition, PartitionSpec, TorusShape};
use std::collections::HashMap;

/// A successful placement as reported by the machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// The machine's id for the allocation (the qdaemon partition id).
    pub id: u32,
    /// The logical torus the tenant's application sees.
    pub logical: TorusShape,
}

/// What the scheduler needs from the machine: its shape, a free/busy
/// snapshot, and allocate/release. Implementations must be
/// deterministic — same calls, same ids.
pub trait MeshHost {
    /// The physical machine shape.
    fn shape(&self) -> &TorusShape;

    /// Current occupancy: taken = anything not allocatable (busy,
    /// faulty, unbooted).
    fn occupancy(&self) -> OccupancyMap;

    /// Allocate a partition for the validated spec. Errors are
    /// reported as text; the scheduler treats any error as "does not
    /// fit" and keeps the job queued.
    fn place(&mut self, spec: &PartitionSpec) -> Result<Placement, String>;

    /// Release a previously placed partition.
    fn vacate(&mut self, id: u32);
}

/// A machine that exists only as an occupancy map — no kernels, no
/// Ethernet tree. Placement validates the partition math exactly like
/// the qdaemon does, so packing behaviour matches the real host.
#[derive(Debug, Clone)]
pub struct SimMesh {
    map: OccupancyMap,
    live: HashMap<u32, PartitionSpec>,
    next_id: u32,
}

impl SimMesh {
    /// An all-free simulated machine.
    pub fn new(shape: TorusShape) -> SimMesh {
        SimMesh {
            map: OccupancyMap::new(shape),
            live: HashMap::new(),
            next_id: 0,
        }
    }

    /// Mark a node unavailable (a quarantined or unbooted node).
    pub fn quarantine(&mut self, id: qcdoc_geometry::NodeId) {
        self.map.set_taken(id, true);
    }

    /// Number of free nodes.
    pub fn free_count(&self) -> usize {
        self.map.free_count()
    }
}

impl MeshHost for SimMesh {
    fn shape(&self) -> &TorusShape {
        self.map.shape()
    }

    fn occupancy(&self) -> OccupancyMap {
        self.map.clone()
    }

    fn place(&mut self, spec: &PartitionSpec) -> Result<Placement, String> {
        let partition =
            Partition::new(self.map.shape(), spec.clone()).map_err(|e| e.to_string())?;
        if !self.map.spec_free(spec) {
            return Err("sub-box not free".into());
        }
        self.map.occupy_spec(spec);
        let id = self.next_id;
        self.next_id += 1;
        self.live.insert(id, spec.clone());
        Ok(Placement {
            id,
            logical: partition.logical_shape().clone(),
        })
    }

    fn vacate(&mut self, id: u32) {
        if let Some(spec) = self.live.remove(&id) {
            self.map.vacate_spec(&spec);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcdoc_geometry::NodeCoord;

    #[test]
    fn sim_mesh_places_and_vacates() {
        let mut mesh = SimMesh::new(TorusShape::new(&[4, 2, 2]));
        let spec = PartitionSpec {
            origin: NodeCoord::ORIGIN,
            extents: vec![4, 2, 1],
            groups: vec![vec![0], vec![1]],
        };
        let p = mesh.place(&spec).unwrap();
        assert_eq!(p.logical.dims(), &[4, 2]);
        assert_eq!(mesh.free_count(), 8);
        // The same box cannot be placed twice.
        assert!(mesh.place(&spec).is_err());
        mesh.vacate(p.id);
        assert_eq!(mesh.free_count(), 16);
        // Vacating an unknown id is a no-op.
        mesh.vacate(99);
        assert_eq!(mesh.free_count(), 16);
    }

    #[test]
    fn invalid_specs_are_refused() {
        let mut mesh = SimMesh::new(TorusShape::new(&[4, 2, 2]));
        // Partial single axis: extent 2 of 4 in its own group.
        let spec = PartitionSpec {
            origin: NodeCoord::ORIGIN,
            extents: vec![2, 2, 1],
            groups: vec![vec![0], vec![1]],
        };
        assert!(mesh.place(&spec).is_err());
        assert_eq!(mesh.free_count(), 16);
    }

    #[test]
    fn quarantined_nodes_block_placement() {
        let mut mesh = SimMesh::new(TorusShape::new(&[4, 2, 2]));
        mesh.quarantine(qcdoc_geometry::NodeId(0));
        let spec = PartitionSpec {
            origin: NodeCoord::ORIGIN,
            extents: vec![4, 2, 1],
            groups: vec![vec![0], vec![1]],
        };
        assert!(mesh.place(&spec).is_err());
    }
}
