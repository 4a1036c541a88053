//! Torus-aware partition packing: free-region search and placement
//! scoring over the physical mesh.
//!
//! The paper's partitioning story (§2.2/§3.1) lets the host carve the
//! 6-D machine into many concurrent logical partitions "without moving
//! cables". Once several tenants compete for the same 12,288 nodes, the
//! host needs more than the mapping math: it must know *where* a
//! requested sub-box still fits and which of the feasible placements
//! fragments the remaining free mesh least. [`OccupancyMap`] is that layer — a plain busy/free
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
    /// Per node, by rank: how many nodes from it along axis 0, itself
    /// included and up to the end of its axis-0 line, are free, capped at
    /// `u8::MAX`; 0 when the node is taken. A box row is free when the
    /// hops along these runs cover it, so a probe reads one entry per row
    /// (rows longer than the cap hop more than once). Every mask write
    /// recomputes the entries of the lines it touched.
    free_run: Vec<u8>,
}

/// The rank strides of one box shape on one torus: the set-up of a walk
/// over the box's rows, made once per search rather than once per probe.
pub(crate) struct BoxWalk {
    rank: usize,
    /// The box's extent along axis 0: the length of each row.
    pub(crate) run: usize,
    stride: [usize; 6],
    ext: [usize; 6],
}

impl BoxWalk {
    /// The walk of the box with these `extents` (extents beyond the
    /// machine rank must be 1).
    pub(crate) fn new(shape: &TorusShape, extents: &[usize]) -> BoxWalk {
        let rank = shape.rank();
        let mut walk = BoxWalk {
            rank,
            run: extents.first().copied().unwrap_or(1),
            stride: [0; 6],
            ext: [1; 6],
        };
        let mut step = 1;
        for axis in 0..rank {
            walk.stride[axis] = step;
            walk.ext[axis] = extents.get(axis).copied().unwrap_or(1);
            step *= shape.extent(axis);
        }
        walk
    }

    /// Visit the first rank of every row of the box whose first node has
    /// rank `origin`, in rank order: one axis-0 run of `run` consecutive
    /// ranks per row, the other axes stepped by their rank strides. Stops
    /// at the first row for which `f` returns `false`, and returns whether
    /// every row passed.
    pub(crate) fn rows<F: FnMut(usize) -> bool>(&self, origin: usize, mut f: F) -> bool {
        let mut start = origin;
        let mut cursor = [0usize; 6];
        loop {
            if !f(start) {
                return false;
            }
            // Odometer over the remaining box extents, axis 1 fastest.
            let mut axis = 1;
            loop {
                if axis >= self.rank {
                    return true;
                }
                cursor[axis] += 1;
                start += self.stride[axis];
                if cursor[axis] < self.ext[axis] {
                    break;
                }
                start -= cursor[axis] * self.stride[axis];
                cursor[axis] = 0;
                axis += 1;
            }
        }
    }
}

impl OccupancyMap {
    /// An all-free map over `shape`.
    pub fn new(shape: TorusShape) -> OccupancyMap {
        let n = shape.node_count();
        OccupancyMap::from_mask(shape, vec![false; n])
    }

    /// A map with the given taken mask (indexed by node rank). Panics if
    /// the mask length does not match the shape's node count.
    pub fn from_mask(shape: TorusShape, taken: Vec<bool>) -> OccupancyMap {
        assert_eq!(
            taken.len(),
            shape.node_count(),
            "mask length must match node count"
        );
        let line = shape.extent(0);
        let mut free_run = vec![0u8; taken.len()];
        for (runs, mask) in free_run.chunks_mut(line).zip(taken.chunks(line)) {
            let mut next = 0u8;
            for (r, &t) in runs.iter_mut().zip(mask).rev() {
                next = if t { 0 } else { next.saturating_add(1) };
                *r = next;
            }
        }
        OccupancyMap { shape, free_run }
    }

    /// The underlying torus shape.
    pub fn shape(&self) -> &TorusShape {
        &self.shape
    }

    /// Mark one node taken or free.
    pub fn set_taken(&mut self, id: NodeId, taken: bool) {
        let i = id.index();
        self.write_row(i..i + 1, taken);
    }

    /// Number of free nodes.
    pub fn free_count(&self) -> usize {
        self.free_run.iter().filter(|&&r| r != 0).count()
    }

    /// Mark the ranks of `row` (within one axis-0 line) taken or free,
    /// then recompute the free runs of the nodes before it on its line,
    /// back to the first one whose run does not change. The runs from the
    /// row's end on do not depend on it.
    fn write_row(&mut self, row: std::ops::Range<usize>, taken: bool) {
        let line_start = row.start - row.start % self.shape.extent(0);
        let line_end = line_start + self.shape.extent(0);
        let mut next = if row.end < line_end {
            self.free_run[row.end]
        } else {
            0
        };
        for i in row.clone().rev() {
            next = if taken { 0 } else { next.saturating_add(1) };
            self.free_run[i] = next;
        }
        for i in (line_start..row.start).rev() {
            let run = next.saturating_add(1);
            if self.free_run[i] == 0 || self.free_run[i] == run {
                break;
            }
            self.free_run[i] = run;
            next = run;
        }
    }

    /// Whether the `len` nodes from rank `start` along axis 0 (within one
    /// line) are all free: hop along the free runs until one covers the
    /// rest of the row, or ends short of it at a taken node.
    fn row_free(&self, start: usize, len: usize) -> bool {
        let end = start + len;
        let mut at = start;
        loop {
            let run = self.free_run[at] as usize;
            if at + run >= end {
                return true;
            }
            if run < u8::MAX as usize {
                return false;
            }
            at += run;
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
        let walk = BoxWalk::new(&self.shape, extents);
        walk.rows(self.shape.rank_of(origin).index(), |row| {
            self.row_free(row, walk.run)
        })
    }

    /// Number of free nodes in the box (the box must be in bounds).
    fn box_free_count(&self, origin: NodeCoord, extents: &[usize]) -> usize {
        let walk = BoxWalk::new(&self.shape, extents);
        let mut free = 0;
        walk.rows(self.shape.rank_of(origin).index(), |row| {
            free += self.free_run[row..row + walk.run]
                .iter()
                .filter(|&&r| r != 0)
                .count();
            true
        });
        free
    }

    /// Mark every node of the box taken or free.
    fn fill_box(&mut self, origin: NodeCoord, extents: &[usize], taken: bool) {
        let walk = BoxWalk::new(&self.shape, extents);
        walk.rows(self.shape.rank_of(origin).index(), |row| {
            self.write_row(row..row + walk.run, taken);
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
    /// The origin's rank steps with the odometer and the box's strides
    /// are worked out once, so a probe that fails on its first row costs
    /// one free-run read.
    pub fn fit_origins(&self, extents: &[usize], limit: usize) -> Vec<NodeCoord> {
        let mut out = Vec::new();
        if limit == 0 {
            return out;
        }
        let rank = self.shape.rank();
        let mut slack = [0usize; 6];
        for (axis, s) in slack.iter_mut().enumerate().take(rank) {
            let ext = extents.get(axis).copied().unwrap_or(1);
            if ext > self.shape.extent(axis) {
                return out;
            }
            *s = self.shape.extent(axis) - ext;
        }
        if extents.iter().skip(rank).any(|&e| e != 1) {
            return out;
        }
        let walk = BoxWalk::new(&self.shape, extents);
        // Odometer over the slack volume in rank order, stepping the
        // origin's rank along with it; an axis the box spans has no room
        // to move and is left out.
        let mut moving = [0usize; 6];
        let mut axes = 0;
        for axis in (0..rank).filter(|&axis| slack[axis] > 0) {
            moving[axes] = axis;
            axes += 1;
        }
        let mut cursor = [0usize; 6];
        let mut at = 0usize;
        loop {
            if walk.rows(at, |row| self.row_free(row, walk.run)) {
                out.push(self.shape.coord_of(NodeId(at as u32)));
                if out.len() >= limit {
                    return out;
                }
            }
            let mut k = 0;
            loop {
                if k == axes {
                    return out;
                }
                let axis = moving[k];
                cursor[axis] += 1;
                at += walk.stride[axis];
                if cursor[axis] <= slack[axis] {
                    break;
                }
                at -= cursor[axis] * walk.stride[axis];
                cursor[axis] = 0;
                k += 1;
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

    fn oracle_box_free(
        shape: &TorusShape,
        taken: &[bool],
        origin: NodeCoord,
        extents: &[usize],
    ) -> bool {
        oracle_box_nodes(shape, origin, extents)
            .into_iter()
            .all(|c| !taken[shape.rank_of(c).index()])
    }

    /// The packing score as a set: every free node one link away from
    /// the box and outside it.
    fn oracle_score(
        shape: &TorusShape,
        taken: &[bool],
        origin: NodeCoord,
        extents: &[usize],
    ) -> usize {
        let inside: HashSet<NodeCoord> = oracle_box_nodes(shape, origin, extents)
            .into_iter()
            .collect();
        let mut adjacent_free = HashSet::new();
        for &c in &inside {
            for axis in 0..shape.rank() {
                for d in [Axis(axis as u8).plus(), Axis(axis as u8).minus()] {
                    let nb = shape.neighbour(c, d);
                    if !inside.contains(&nb) && !taken[shape.rank_of(nb).index()] {
                        adjacent_free.insert(nb);
                    }
                }
            }
        }
        adjacent_free.len()
    }

    /// Every in-bounds free origin in rank order, at most `limit`.
    fn oracle_fits(
        shape: &TorusShape,
        taken: &[bool],
        extents: &[usize],
        limit: usize,
    ) -> Vec<NodeCoord> {
        shape
            .coords()
            .filter(|&o| {
                (0..shape.rank()).all(|axis| o.get(axis) + extents[axis] <= shape.extent(axis))
                    && oracle_box_free(shape, taken, o, extents)
            })
            .take(limit)
            .collect()
    }

    /// The best fit as `best_fit` defines it: the first lowest score among
    /// the first `BEST_FIT_SCORE_CAP` fits.
    fn oracle_best_fit(shape: &TorusShape, taken: &[bool], extents: &[usize]) -> Option<NodeCoord> {
        let mut best: Option<(usize, NodeCoord)> = None;
        for o in oracle_fits(shape, taken, extents, BEST_FIT_SCORE_CAP) {
            let score = oracle_score(shape, taken, o, extents);
            if best.is_none_or(|(s, _)| score < s) {
                best = Some((score, o));
            }
        }
        best.map(|(_, o)| o)
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
                let mask = random_mask(&shape, density, m / 4 % 2 == 1, &mut draw);
                let map = OccupancyMap::from_mask(shape.clone(), mask.clone());
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
                    let fits = oracle_fits(&shape, &mask, &extents, limit);
                    assert_eq!(map.fit_origins(&extents, limit), fits);
                    for &o in fits.iter().take(BEST_FIT_SCORE_CAP) {
                        assert_eq!(
                            map.placement_score(o, &extents),
                            oracle_score(&shape, &mask, o, &extents),
                            "{dims:?} box {extents:?} at {o:?}"
                        );
                    }
                    assert_eq!(
                        map.best_fit(&extents),
                        oracle_best_fit(&shape, &mask, &extents)
                    );
                    for _ in 0..8 {
                        let o = shape.coord_of(NodeId(draw.below(n) as u32));
                        if map.box_in_bounds(o, &extents) {
                            assert_eq!(
                                map.box_free(o, &extents),
                                oracle_box_free(&shape, &mask, o, &extents)
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

    /// A random box of `shape`: every axis spans its full extent, one
    /// less, or up to `most` nodes.
    fn random_box(shape: &TorusShape, most: usize, draw: &mut Draw) -> Vec<usize> {
        shape
            .dims()
            .iter()
            .map(|&d| match draw.below(5) {
                0 => d,
                1 => d.saturating_sub(1).max(1),
                _ => 1 + draw.below(d.min(most)),
            })
            .collect()
    }

    #[test]
    fn the_free_runs_follow_every_mask_write() {
        let mut draw = Draw(0xf1ee);
        for (dims, ops, most) in [
            (&[8, 8, 6, 4, 4, 2][..], 24, 2),
            (&[3, 5][..], 200, 3),
            (&[5, 2, 3][..], 200, 3),
        ] {
            let shape = TorusShape::new(dims);
            let n = shape.node_count();
            // The test's own mask: what every write below should leave.
            let mut mask = vec![false; n];
            let mut map = OccupancyMap::new(shape.clone());
            for op in 0..ops {
                match draw.below(4) {
                    0 => {
                        let (node, taken) = (draw.below(n), draw.below(2) == 0);
                        mask[node] = taken;
                        map.set_taken(NodeId(node as u32), taken);
                    }
                    kind @ (1 | 2) => {
                        let extents: Vec<usize> =
                            shape.dims().iter().map(|&d| 1 + draw.below(d)).collect();
                        let mut origin = NodeCoord::ORIGIN;
                        for (axis, (&d, &e)) in shape.dims().iter().zip(&extents).enumerate() {
                            origin.set(axis, draw.below(d - e + 1));
                        }
                        for c in oracle_box_nodes(&shape, origin, &extents) {
                            mask[shape.rank_of(c).index()] = kind == 1;
                        }
                        if kind == 1 {
                            map.occupy_box(origin, &extents);
                        } else {
                            map.vacate_box(origin, &extents);
                        }
                    }
                    _ => {
                        let density = [10, 35, 70][draw.below(3)];
                        mask = random_mask(&shape, density, draw.below(2) == 0, &mut draw);
                        map = OccupancyMap::from_mask(shape.clone(), mask.clone());
                    }
                }
                assert_eq!(map.free_count(), mask.iter().filter(|&&t| !t).count());
                for _ in 0..3 {
                    let extents = random_box(&shape, most, &mut draw);
                    assert_eq!(
                        map.fit_origins(&extents, 64),
                        oracle_fits(&shape, &mask, &extents, 64),
                        "{dims:?} after op {op}, box {extents:?}"
                    );
                    assert_eq!(
                        map.best_fit(&extents),
                        oracle_best_fit(&shape, &mask, &extents),
                        "{dims:?} after op {op}, box {extents:?}"
                    );
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
