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

use crate::{NodeCoord, NodeId, PartitionSpec, TorusShape};

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

    /// Visit the ranks of every node of the axis-aligned box at `origin`
    /// with the given `extents` (extents beyond the machine rank must be
    /// 1), in rank order: one axis-0 run of consecutive ranks at a time,
    /// stepping the other axes by their rank strides. Stops when `f`
    /// returns `false`.
    fn for_each_box_run<F: FnMut(std::ops::Range<usize>) -> bool>(
        shape: &TorusShape,
        origin: NodeCoord,
        extents: &[usize],
        mut f: F,
    ) {
        let rank = shape.rank();
        let ext = |axis: usize| extents.get(axis).copied().unwrap_or(1);
        let mut stride = [0usize; 6];
        let mut step = 1;
        for (axis, s) in stride.iter_mut().enumerate().take(rank) {
            *s = step;
            step *= shape.extent(axis);
        }
        let run = ext(0);
        let mut start = shape.rank_of(origin).index();
        let mut cursor = [0usize; 6];
        loop {
            if !f(start..start + run) {
                return;
            }
            // Odometer over the remaining box extents, axis 1 fastest.
            let mut axis = 1;
            loop {
                if axis >= rank {
                    return;
                }
                cursor[axis] += 1;
                start += stride[axis];
                if cursor[axis] < ext(axis) {
                    break;
                }
                start -= cursor[axis] * stride[axis];
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
        Self::for_each_box_run(&self.shape, origin, extents, |run| {
            free = !self.taken[run].contains(&true);
            free
        });
        free
    }

    /// Number of free nodes in the box (the box must be in bounds).
    fn box_free_count(&self, origin: NodeCoord, extents: &[usize]) -> usize {
        let mut free = 0;
        Self::for_each_box_run(&self.shape, origin, extents, |run| {
            free += self.taken[run].iter().filter(|&&t| !t).count();
            true
        });
        free
    }

    /// Mark every node of the box taken or free.
    fn fill_box(&mut self, origin: NodeCoord, extents: &[usize], taken: bool) {
        let mask = &mut self.taken;
        Self::for_each_box_run(&self.shape, origin, extents, |run| {
            mask[run].fill(taken);
            true
        });
    }

    /// Mark every node of the box taken.
    fn occupy_box(&mut self, origin: NodeCoord, extents: &[usize]) {
        self.fill_box(origin, extents, true);
    }

    /// Mark every node of the box free again.
    pub fn vacate_box(&mut self, origin: NodeCoord, extents: &[usize]) {
        self.fill_box(origin, extents, false);
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
    ///
    /// Those nodes are the box's neighbour slabs: on an axis of torus
    /// extent `n` the box (extent `b`) has none when `b = n`, one when
    /// `b = n − 1` (the slabs below and above it are the same plane), and
    /// two otherwise. Each slab spans the box on every other axis, so
    /// slabs of different axes are disjoint and their free counts sum.
    fn placement_score(&self, origin: NodeCoord, extents: &[usize]) -> usize {
        let mut slab = [1usize; 6];
        for (s, &e) in slab.iter_mut().zip(extents) {
            *s = e;
        }
        let mut score = 0;
        for axis in 0..self.shape.rank() {
            let (n, b, o) = (self.shape.extent(axis), slab[axis], origin.get(axis));
            if b == n {
                continue;
            }
            slab[axis] = 1;
            let slabs = if b + 1 == n { 1 } else { 2 };
            for at in [(o + b) % n, (o + n - 1) % n].into_iter().take(slabs) {
                let mut corner = origin;
                corner.set(axis, at);
                score += self.box_free_count(corner, &slab);
            }
            slab[axis] = b;
        }
        score
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
    use crate::Axis;
    use std::collections::HashSet;

    /// Every node of the box, visited coordinate by coordinate in rank
    /// order: the walk the packer used before it stepped rank strides.
    fn oracle_box_nodes(
        shape: &TorusShape,
        origin: NodeCoord,
        extents: &[usize],
    ) -> Vec<NodeCoord> {
        let rank = shape.rank();
        let mut out = Vec::new();
        let mut cursor = vec![0usize; rank];
        loop {
            let mut c = origin;
            for (axis, &off) in cursor.iter().enumerate() {
                c.set(axis, origin.get(axis) + off);
            }
            out.push(c);
            let mut axis = 0;
            loop {
                if axis == rank {
                    return out;
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

    fn oracle_box_free(map: &OccupancyMap, origin: NodeCoord, extents: &[usize]) -> bool {
        oracle_box_nodes(&map.shape, origin, extents)
            .into_iter()
            .all(|c| !map.taken[map.shape.rank_of(c).index()])
    }

    /// The packing score as a set: every free node one link away from
    /// the box and outside it.
    fn oracle_score(map: &OccupancyMap, origin: NodeCoord, extents: &[usize]) -> usize {
        let inside: HashSet<NodeCoord> = oracle_box_nodes(&map.shape, origin, extents)
            .into_iter()
            .collect();
        let mut adjacent_free = HashSet::new();
        for &c in &inside {
            for axis in 0..map.shape.rank() {
                for d in [Axis(axis as u8).plus(), Axis(axis as u8).minus()] {
                    let nb = map.shape.neighbour(c, d);
                    if !inside.contains(&nb) && !map.taken[map.shape.rank_of(nb).index()] {
                        adjacent_free.insert(nb);
                    }
                }
            }
        }
        adjacent_free.len()
    }

    /// Every in-bounds free origin in rank order, at most `limit`.
    fn oracle_fits(map: &OccupancyMap, extents: &[usize], limit: usize) -> Vec<NodeCoord> {
        map.shape
            .coords()
            .filter(|&o| map.box_in_bounds(o, extents) && oracle_box_free(map, o, extents))
            .take(limit)
            .collect()
    }

    /// SplitMix64, so the masks and boxes are the same on every run.
    struct Draw(u64);

    impl Draw {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// A seeded mask at about `density` % taken: scattered single nodes
    /// when `scattered`, else whole boxes the way jobs occupy the machine.
    fn random_mask(
        shape: &TorusShape,
        density: usize,
        scattered: bool,
        draw: &mut Draw,
    ) -> Vec<bool> {
        let n = shape.node_count();
        if scattered {
            return (0..n).map(|_| draw.below(100) < density).collect();
        }
        let mut taken = vec![false; n];
        while taken.iter().filter(|&&t| t).count() * 100 < n * density {
            let extents: Vec<usize> = shape
                .dims()
                .iter()
                .map(|&d| 1 + draw.below(d.div_ceil(2)))
                .collect();
            let mut origin = NodeCoord::ORIGIN;
            for (axis, (&d, &e)) in shape.dims().iter().zip(&extents).enumerate() {
                origin.set(axis, draw.below(d - e + 1));
            }
            for c in oracle_box_nodes(shape, origin, &extents) {
                taken[shape.rank_of(c).index()] = true;
            }
        }
        taken
    }

    #[test]
    fn surface_score_and_stride_walk_match_the_set_oracle() {
        let mut draw = Draw(0x5eed);
        for dims in [
            &[4, 2, 2, 2, 1, 1][..],
            &[8, 2],
            &[3, 5],
            &[8, 8, 6, 4, 4, 2],
        ] {
            let shape = TorusShape::new(dims);
            let n = shape.node_count();
            // The set oracle is slow on the full machine in a debug build:
            // there, no empty mask, thinner boxes and only the first 64
            // fits.
            let (masks, limit, most) = if n > 1000 {
                (4, 64, 2)
            } else {
                (16, usize::MAX, 3)
            };
            for m in 0..masks {
                let density = [0, 10, 35, 70][m % 4];
                let map = OccupancyMap::from_mask(
                    shape.clone(),
                    random_mask(&shape, density, m / 4 % 2 == 1, &mut draw),
                );
                for _ in 0..8 {
                    // Every axis may span n or n − 1.
                    let extents: Vec<usize> = dims
                        .iter()
                        .map(|&d| match draw.below(5) {
                            0 => d,
                            1 => d.saturating_sub(1).max(1),
                            _ => 1 + draw.below(d.min(most)),
                        })
                        .collect();
                    let fits = oracle_fits(&map, &extents, limit);
                    assert_eq!(map.fit_origins(&extents, limit), fits);
                    // best_fit keeps the first lowest score among the first
                    // BEST_FIT_SCORE_CAP fits.
                    let mut best: Option<(usize, NodeCoord)> = None;
                    for &o in fits.iter().take(BEST_FIT_SCORE_CAP) {
                        let score = oracle_score(&map, o, &extents);
                        assert_eq!(
                            map.placement_score(o, &extents),
                            score,
                            "{dims:?} box {extents:?} at {o:?}"
                        );
                        if best.is_none_or(|(s, _)| score < s) {
                            best = Some((score, o));
                        }
                    }
                    assert_eq!(map.best_fit(&extents), best.map(|(_, o)| o));
                    for _ in 0..8 {
                        let o = shape.coord_of(NodeId(draw.below(n) as u32));
                        if map.box_in_bounds(o, &extents) {
                            assert_eq!(
                                map.box_free(o, &extents),
                                oracle_box_free(&map, o, &extents)
                            );
                        }
                    }
                    // Occupying and vacating touch exactly the box.
                    let o = fits.first().copied().unwrap_or(NodeCoord::ORIGIN);
                    let mut filled = map.clone();
                    let mut expect = map.clone();
                    filled.occupy_box(o, &extents);
                    for c in oracle_box_nodes(&shape, o, &extents) {
                        expect.set_taken(shape.rank_of(c), true);
                    }
                    assert_eq!(filled, expect);
                    filled.vacate_box(o, &extents);
                    for c in oracle_box_nodes(&shape, o, &extents) {
                        expect.set_taken(shape.rank_of(c), false);
                    }
                    assert_eq!(filled, expect);
                }
            }
        }
    }

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
