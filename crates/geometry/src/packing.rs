//! Torus-aware partition packing: free-region search, placement scoring
//! and fragmentation accounting over the physical mesh.
//!
//! The paper's partitioning story (§2.2/§3.1) lets the host carve the
//! 6-D machine into many concurrent logical partitions "without moving
//! cables". Once several tenants compete for the same 12,288 nodes, the
//! host needs more than the mapping math: it must know *where* a
//! requested sub-box still fits, which of the feasible placements
//! fragments the remaining free mesh least, and how shattered the free
//! space has become. [`OccupancyMap`] is that layer — a plain busy/free
//! mask over the physical torus with deterministic box search on top.
//! The scheduler (`qcdoc-sched`) drives it; the map itself knows nothing
//! about jobs or tenants.
//!
//! All searches are deterministic: origins are enumerated in rank order
//! (axis 0 fastest), ties break toward the lexicographically first
//! origin, so the same request stream always produces the same packing.

use crate::{Axis, NodeCoord, NodeId, PartitionSpec, TorusShape};

/// Upper bound on how many feasible origins [`OccupancyMap::best_fit`]
/// scores before settling. Origins are enumerated corner-first, so the
/// cap keeps the search `O(cap · volume)` on a near-empty machine while
/// still preferring snug placements; on a busy machine far fewer origins
/// fit in the first place.
const BEST_FIT_SCORE_CAP: usize = 64;

/// A busy/free mask over the nodes of a physical torus, with box-fit
/// search and packing heuristics. "Taken" covers anything the caller
/// cannot allocate over: busy, faulty, or unbooted nodes alike.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OccupancyMap {
    shape: TorusShape,
    taken: Vec<bool>,
}

impl OccupancyMap {
    /// An all-free map over `shape`.
    pub fn new(shape: TorusShape) -> OccupancyMap {
        let n = shape.node_count();
        OccupancyMap {
            shape,
            taken: vec![false; n],
        }
    }

    /// A map with the given taken mask (indexed by node rank). Panics if
    /// the mask length does not match the shape's node count.
    pub fn from_mask(shape: TorusShape, taken: Vec<bool>) -> OccupancyMap {
        assert_eq!(
            taken.len(),
            shape.node_count(),
            "mask length must match node count"
        );
        OccupancyMap { shape, taken }
    }

    /// The underlying torus shape.
    pub fn shape(&self) -> &TorusShape {
        &self.shape
    }

    /// Mark one node taken or free.
    pub fn set_taken(&mut self, id: NodeId, taken: bool) {
        self.taken[id.index()] = taken;
    }

    /// Number of free nodes.
    pub fn free_count(&self) -> usize {
        self.taken.iter().filter(|&&t| !t).count()
    }

    /// Visit every node of the axis-aligned box at `origin` with the
    /// given `extents` (extents beyond the machine rank must be 1).
    fn for_each_box_node<F: FnMut(NodeCoord) -> bool>(
        &self,
        origin: NodeCoord,
        extents: &[usize],
        mut f: F,
    ) {
        let rank = self.shape.rank();
        let mut cursor = vec![0usize; rank];
        loop {
            let mut c = origin;
            for (axis, &off) in cursor.iter().enumerate() {
                c.set(axis, origin.get(axis) + off);
            }
            if !f(c) {
                return;
            }
            // Odometer over the box extents, axis 0 fastest.
            let mut axis = 0;
            loop {
                if axis == rank {
                    return;
                }
                cursor[axis] += 1;
                if cursor[axis] < extents.get(axis).copied().unwrap_or(1) {
                    break;
                }
                cursor[axis] = 0;
                axis += 1;
            }
        }
    }

    /// Whether the box fits inside the machine bounds at `origin`.
    pub fn box_in_bounds(&self, origin: NodeCoord, extents: &[usize]) -> bool {
        (0..self.shape.rank()).all(|axis| {
            origin.get(axis) + extents.get(axis).copied().unwrap_or(1) <= self.shape.extent(axis)
        }) && extents.len() <= 6
            && extents.iter().skip(self.shape.rank()).all(|&e| e == 1)
    }

    /// Whether every node of the box is free (the box must be in bounds).
    pub fn box_free(&self, origin: NodeCoord, extents: &[usize]) -> bool {
        let mut free = true;
        self.for_each_box_node(origin, extents, |c| {
            free = !self.taken[self.shape.rank_of(c).index()];
            free
        });
        free
    }

    /// Mark every node of the box taken.
    fn occupy_box(&mut self, origin: NodeCoord, extents: &[usize]) {
        let shape = self.shape.clone();
        let mut ids = Vec::new();
        self.for_each_box_node(origin, extents, |c| {
            ids.push(shape.rank_of(c));
            true
        });
        for id in ids {
            self.taken[id.index()] = true;
        }
    }

    /// Mark every node of the box free again.
    pub fn vacate_box(&mut self, origin: NodeCoord, extents: &[usize]) {
        let shape = self.shape.clone();
        let mut ids = Vec::new();
        self.for_each_box_node(origin, extents, |c| {
            ids.push(shape.rank_of(c));
            true
        });
        for id in ids {
            self.taken[id.index()] = false;
        }
    }

    /// Every origin (in rank order) at which the box is in bounds and
    /// entirely free, stopping after `limit` hits (`usize::MAX` for all).
    pub fn fit_origins(&self, extents: &[usize], limit: usize) -> Vec<NodeCoord> {
        let mut out = Vec::new();
        if limit == 0 {
            return out;
        }
        let rank = self.shape.rank();
        let mut slack = Vec::with_capacity(rank);
        for axis in 0..rank {
            let ext = extents.get(axis).copied().unwrap_or(1);
            if ext > self.shape.extent(axis) {
                return out;
            }
            slack.push(self.shape.extent(axis) - ext);
        }
        if extents.iter().skip(rank).any(|&e| e != 1) {
            return out;
        }
        // Odometer over the slack volume, axis 0 fastest (rank order).
        let mut cursor = vec![0usize; rank];
        loop {
            let mut origin = NodeCoord::ORIGIN;
            for (axis, &off) in cursor.iter().enumerate() {
                origin.set(axis, off);
            }
            if self.box_free(origin, extents) {
                out.push(origin);
                if out.len() >= limit {
                    return out;
                }
            }
            let mut axis = 0;
            loop {
                if axis == rank {
                    return out;
                }
                cursor[axis] += 1;
                if cursor[axis] <= slack[axis] {
                    break;
                }
                cursor[axis] = 0;
                axis += 1;
            }
        }
    }

    /// Packing score of a feasible placement: the number of *free* nodes
    /// adjacent (over the 12 torus links) to the box but outside it.
    /// Lower is better — a snug placement flush against occupied nodes
    /// or closing a torus axis leaves the free mesh less fragmented than
    /// one floating in open space.
    fn placement_score(&self, origin: NodeCoord, extents: &[usize]) -> usize {
        let mut inside = std::collections::HashSet::new();
        self.for_each_box_node(origin, extents, |c| {
            inside.insert(c);
            true
        });
        let mut adjacent_free = std::collections::HashSet::new();
        for &c in &inside {
            for axis in 0..self.shape.rank() {
                for d in [Axis(axis as u8).plus(), Axis(axis as u8).minus()] {
                    let nb = self.shape.neighbour(c, d);
                    if !inside.contains(&nb) && !self.taken[self.shape.rank_of(nb).index()] {
                        adjacent_free.insert(nb);
                    }
                }
            }
        }
        adjacent_free.len()
    }

    /// The best feasible origin for the box under the packing score
    /// (ties break toward the lexicographically first origin), or `None`
    /// when the box fits nowhere. At most `BEST_FIT_SCORE_CAP`
    /// candidate origins are scored, corner-first.
    pub fn best_fit(&self, extents: &[usize]) -> Option<NodeCoord> {
        let candidates = self.fit_origins(extents, BEST_FIT_SCORE_CAP);
        let mut best: Option<(usize, NodeCoord)> = None;
        for origin in candidates {
            let score = self.placement_score(origin, extents);
            let better = match best {
                None => true,
                // Strict inequality keeps the earliest origin on ties.
                Some((s, _)) => score < s,
            };
            if better {
                if score == 0 {
                    return Some(origin);
                }
                best = Some((score, origin));
            }
        }
        best.map(|(_, origin)| origin)
    }

    /// How shattered the free mesh is with respect to a probe box:
    /// `1 − packable / free`, where `packable` is the number of free
    /// nodes covered by greedily best-fitting disjoint copies of the
    /// probe until none fits. `0.0` means every free node is reachable
    /// by some probe placement; `1.0` means none is (or nothing is
    /// free). Deterministic for a given map.
    pub fn fragmentation(&self, probe_extents: &[usize]) -> f64 {
        let free = self.free_count();
        if free == 0 {
            return 1.0;
        }
        let volume: usize = probe_extents.iter().product();
        let mut scratch = self.clone();
        let mut packed = 0usize;
        while let Some(origin) = scratch.best_fit(probe_extents) {
            scratch.occupy_box(origin, probe_extents);
            packed += volume;
        }
        1.0 - packed as f64 / free as f64
    }

    /// Whether the sub-box of a [`PartitionSpec`] is entirely free.
    pub fn spec_free(&self, spec: &PartitionSpec) -> bool {
        self.box_in_bounds(spec.origin, &spec.extents) && self.box_free(spec.origin, &spec.extents)
    }

    /// Occupy the sub-box of a validated spec.
    pub fn occupy_spec(&mut self, spec: &PartitionSpec) {
        self.occupy_box(spec.origin, &spec.extents);
    }

    /// Free the sub-box of a previously occupied spec.
    pub fn vacate_spec(&mut self, spec: &PartitionSpec) {
        self.vacate_box(spec.origin, &spec.extents);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape_442() -> TorusShape {
        TorusShape::new(&[4, 4, 2])
    }

    #[test]
    fn empty_map_fits_everywhere_in_rank_order() {
        let map = OccupancyMap::new(shape_442());
        let fits = map.fit_origins(&[2, 2, 1], usize::MAX);
        // Slack 2 × slack 2 × slack 1 → 3 * 3 * 2 origins.
        assert_eq!(fits.len(), 18);
        assert_eq!(fits[0], NodeCoord::ORIGIN);
        // Axis 0 runs fastest.
        assert_eq!(fits[1], NodeCoord::from_slice(&[1, 0, 0]));
    }

    #[test]
    fn occupied_boxes_are_excluded() {
        let mut map = OccupancyMap::new(shape_442());
        map.occupy_box(NodeCoord::ORIGIN, &[4, 4, 1]);
        let fits = map.fit_origins(&[4, 4, 1], usize::MAX);
        assert_eq!(fits, vec![NodeCoord::from_slice(&[0, 0, 1])]);
        map.vacate_box(NodeCoord::ORIGIN, &[4, 4, 1]);
        assert_eq!(map.fit_origins(&[4, 4, 1], usize::MAX).len(), 2);
    }

    #[test]
    fn free_count_tracks_boxes() {
        let mut map = OccupancyMap::new(shape_442());
        assert_eq!(map.free_count(), 32);
        map.occupy_box(NodeCoord::from_slice(&[2, 2, 0]), &[2, 2, 2]);
        assert_eq!(map.free_count(), 24);
        assert!(!map.box_free(NodeCoord::from_slice(&[2, 2, 0]), &[1, 1, 1]));
        assert!(map.box_free(NodeCoord::ORIGIN, &[2, 2, 2]));
    }

    #[test]
    fn best_fit_prefers_snug_placements() {
        let mut map = OccupancyMap::new(TorusShape::new(&[8, 2]));
        // Occupy the left 2-column; a new 2x2 box packs snugly beside it
        // rather than in the middle of open space.
        map.occupy_box(NodeCoord::ORIGIN, &[2, 2]);
        let best = map.best_fit(&[2, 2]).unwrap();
        // Origins 2 (beside the occupied block, one open flank) and 6
        // (wrapping neighbour of the block on the other side) are both
        // snug; rank order prefers the first.
        assert_eq!(best, NodeCoord::from_slice(&[2, 0]));
    }

    #[test]
    fn whole_machine_placement_scores_zero() {
        let map = OccupancyMap::new(shape_442());
        assert_eq!(map.placement_score(NodeCoord::ORIGIN, &[4, 4, 2]), 0);
    }

    #[test]
    fn fragmentation_sees_shattered_free_space() {
        let mut map = OccupancyMap::new(TorusShape::new(&[4, 1]));
        assert_eq!(map.fragmentation(&[2, 1]), 0.0);
        // Take the two middle nodes: two isolated free nodes remain, and
        // no 2-box fits (boxes do not wrap).
        map.occupy_box(NodeCoord::from_slice(&[1, 0]), &[2, 1]);
        assert_eq!(map.fragmentation(&[2, 1]), 1.0);
        // Full machine: defined as fully fragmented.
        map.occupy_box(NodeCoord::ORIGIN, &[1, 1]);
        map.occupy_box(NodeCoord::from_slice(&[3, 0]), &[1, 1]);
        assert_eq!(map.fragmentation(&[1, 1]), 1.0);
    }

    #[test]
    fn oversized_boxes_fit_nowhere() {
        let map = OccupancyMap::new(shape_442());
        assert!(map.fit_origins(&[5, 1, 1], usize::MAX).is_empty());
        assert!(map.best_fit(&[4, 4, 4]).is_none());
    }

    #[test]
    fn spec_round_trip() {
        let mut map = OccupancyMap::new(shape_442());
        let spec = PartitionSpec {
            origin: NodeCoord::from_slice(&[0, 2, 0]),
            extents: vec![4, 2, 2],
            groups: vec![vec![0], vec![1, 2]],
        };
        assert!(map.spec_free(&spec));
        map.occupy_spec(&spec);
        assert!(!map.spec_free(&spec));
        assert_eq!(map.free_count(), 16);
        map.vacate_spec(&spec);
        assert!(map.spec_free(&spec));
    }
}
