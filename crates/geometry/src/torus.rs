//! Torus shapes and the coordinate ↔ rank bijection.

use crate::{Axis, Direction, NodeCoord, NodeId};
use std::fmt;

/// The shape of a torus of rank 1..=6: the extent of each axis.
///
/// The physical QCDOC machines in the paper are all rank-6 (e.g. the first
/// 1024-node rack is `8×4×4×2×2×2`, §4); logical partitions carved out in
/// software may have lower rank.
///
/// ```
/// use qcdoc_geometry::{Axis, TorusShape};
///
/// let rack = TorusShape::rack_1024();
/// assert_eq!(rack.node_count(), 1024);
/// // Wrap-around neighbours on every axis.
/// let origin = rack.coord_of(qcdoc_geometry::NodeId(0));
/// let back = rack.neighbour(origin, Axis(0).minus());
/// assert_eq!(back.get(0), 7);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TorusShape {
    dims: Vec<usize>,
}

impl TorusShape {
    /// Create a torus shape. Every extent must be ≥ 1 and rank must be 1..=6.
    pub fn new(dims: &[usize]) -> TorusShape {
        assert!(
            !dims.is_empty() && dims.len() <= 6,
            "torus rank must be 1..=6, got {}",
            dims.len()
        );
        assert!(dims.iter().all(|&d| d >= 1), "torus extents must be >= 1");
        TorusShape {
            dims: dims.to_vec(),
        }
    }

    /// The canonical 1024-node rack shape from §4: `8×4×4×2×2×2`.
    pub fn rack_1024() -> TorusShape {
        TorusShape::new(&[8, 4, 4, 2, 2, 2])
    }

    /// The 64-node motherboard wired as a `2^6` hypercube (Figure 4).
    pub fn motherboard_64() -> TorusShape {
        TorusShape::new(&[2, 2, 2, 2, 2, 2])
    }

    /// Number of axes.
    #[inline]
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Extent along `axis`.
    #[inline]
    pub fn extent(&self, axis: usize) -> usize {
        self.dims[axis]
    }

    /// All extents.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Total number of nodes.
    pub fn node_count(&self) -> usize {
        self.dims.iter().product()
    }

    /// Lexicographic rank of a coordinate (axis 0 fastest).
    pub fn rank_of(&self, c: NodeCoord) -> NodeId {
        let mut rank = 0usize;
        for axis in (0..self.rank()).rev() {
            debug_assert!(c.get(axis) < self.dims[axis], "coordinate out of bounds");
            rank = rank * self.dims[axis] + c.get(axis);
        }
        NodeId(rank as u32)
    }

    /// Inverse of [`TorusShape::rank_of`].
    pub fn coord_of(&self, id: NodeId) -> NodeCoord {
        let mut rest = id.index();
        let mut c = NodeCoord::ORIGIN;
        for axis in 0..self.rank() {
            c.set(axis, rest % self.dims[axis]);
            rest /= self.dims[axis];
        }
        debug_assert_eq!(rest, 0, "node id out of bounds");
        c
    }

    /// Coordinate of the nearest neighbour of `c` in direction `d`,
    /// wrapping around the torus.
    pub fn neighbour(&self, c: NodeCoord, d: Direction) -> NodeCoord {
        let axis = d.axis.index();
        assert!(
            axis < self.rank(),
            "direction {d} outside torus rank {}",
            self.rank()
        );
        let ext = self.dims[axis];
        let cur = c.get(axis);
        let next = if d.negative {
            (cur + ext - 1) % ext
        } else {
            (cur + 1) % ext
        };
        let mut out = c;
        out.set(axis, next);
        out
    }

    /// The machine's one wiring rule: the wires leaving `node`, in
    /// link-index order, as `(d, far, d.opposite())` — the wire leaves on
    /// `d` and arrives on node `far`'s `d.opposite()` link. Each sense of
    /// each axis of extent > 1 carries a wire; an extent-1 axis carries
    /// none, since its wire would join the node to itself.
    pub fn wires(&self, node: NodeId) -> impl Iterator<Item = (Direction, NodeId, Direction)> + '_ {
        let c = self.coord_of(node);
        (0..self.rank())
            .filter(|&axis| self.dims[axis] > 1)
            .flat_map(|axis| [Axis(axis as u8).plus(), Axis(axis as u8).minus()])
            .map(move |d| (d, self.rank_of(self.neighbour(c, d)), d.opposite()))
    }

    /// Iterate over every coordinate in lexicographic (rank) order.
    pub fn coords(&self) -> impl Iterator<Item = NodeCoord> + '_ {
        (0..self.node_count()).map(|i| self.coord_of(NodeId(i as u32)))
    }

    /// Minimal hop distance between two coordinates on the torus
    /// (sum over axes of the wrap-aware 1-D distance).
    pub fn distance(&self, a: NodeCoord, b: NodeCoord) -> usize {
        (0..self.rank())
            .map(|axis| {
                let ext = self.dims[axis];
                let d = a.get(axis).abs_diff(b.get(axis));
                d.min(ext - d)
            })
            .sum()
    }
}

impl fmt::Display for TorusShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let strs: Vec<String> = self.dims.iter().map(|d| d.to_string()).collect();
        write!(f, "{}", strs.join("x"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rack_shape_has_1024_nodes() {
        assert_eq!(TorusShape::rack_1024().node_count(), 1024);
        assert_eq!(TorusShape::rack_1024().to_string(), "8x4x4x2x2x2");
    }

    #[test]
    fn rank_coord_bijection() {
        let t = TorusShape::new(&[3, 4, 2]);
        for i in 0..t.node_count() {
            let id = NodeId(i as u32);
            assert_eq!(t.rank_of(t.coord_of(id)), id);
        }
    }

    #[test]
    fn axis0_is_fastest() {
        let t = TorusShape::new(&[4, 2]);
        assert_eq!(t.coord_of(NodeId(1)), NodeCoord::from_slice(&[1, 0]));
        assert_eq!(t.coord_of(NodeId(4)), NodeCoord::from_slice(&[0, 1]));
    }

    #[test]
    fn neighbour_wraps() {
        let t = TorusShape::new(&[4, 4]);
        let origin = NodeCoord::ORIGIN;
        let minus = t.neighbour(origin, Axis(0).minus());
        assert_eq!(minus.get(0), 3);
        let plus = t.neighbour(minus, Axis(0).plus());
        assert_eq!(plus, origin);
    }

    #[test]
    fn neighbour_of_extent_one_axis_is_self() {
        // Degenerate extent-1 axes wrap to themselves, which is why they
        // carry no wire.
        let t = TorusShape::new(&[1, 4]);
        let c = NodeCoord::from_slice(&[0, 2]);
        assert_eq!(t.neighbour(c, Axis(0).plus()), c);
        let wired: Vec<_> = t.wires(NodeId(2)).map(|(d, ..)| d).collect();
        assert_eq!(wired, [Axis(1).plus(), Axis(1).minus()]);
    }

    #[test]
    fn wires_land_on_the_neighbours_opposite_link() {
        // Node 0 at (0,0) of [4,2]: +x lands on (1,0) = rank 1; -y wraps
        // the 2-ring to (0,1) = rank 4.
        let t = TorusShape::new(&[4, 2]);
        let wires: Vec<_> = t.wires(NodeId(0)).collect();
        assert_eq!(wires.len(), 4);
        assert_eq!(wires[0], (Axis(0).plus(), NodeId(1), Axis(0).minus()));
        assert_eq!(wires[3], (Axis(1).minus(), NodeId(4), Axis(1).plus()));
    }

    #[test]
    fn distance_wraps() {
        let t = TorusShape::new(&[8, 4]);
        let a = NodeCoord::from_slice(&[0, 0]);
        let b = NodeCoord::from_slice(&[7, 3]);
        // 1 hop in x (wrap) + 1 hop in y (wrap).
        assert_eq!(t.distance(a, b), 2);
        assert_eq!(t.distance(a, a), 0);
    }

    #[test]
    fn coords_cover_all_nodes_once() {
        let t = TorusShape::new(&[2, 3, 2]);
        let all: Vec<_> = t.coords().collect();
        assert_eq!(all.len(), 12);
        for (i, c) in all.iter().enumerate() {
            assert_eq!(t.rank_of(*c), NodeId(i as u32));
        }
    }

    fn any_shape() -> impl Strategy<Value = TorusShape> {
        prop::collection::vec(1usize..=4, 1..=6).prop_map(|dims| TorusShape::new(&dims))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn wires_are_both_senses_of_each_spanned_axis_and_lead_back(shape in any_shape()) {
            let spanned: Vec<Direction> = (0..shape.rank())
                .filter(|&a| shape.extent(a) > 1)
                .flat_map(|a| [Axis(a as u8).plus(), Axis(a as u8).minus()])
                .collect();
            for node in (0..shape.node_count()).map(|n| NodeId(n as u32)) {
                let wires: Vec<_> = shape.wires(node).collect();
                let dirs: Vec<Direction> = wires.iter().map(|&(d, ..)| d).collect();
                prop_assert_eq!(&dirs, &spanned);
                for (d, far, far_d) in wires {
                    prop_assert_ne!(far, node);
                    // The far end's wire on `far_d` comes straight back.
                    let back = shape.wires(far).find(|&(b, ..)| b == far_d);
                    prop_assert_eq!(back, Some((far_d, node, d)));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "rank must be 1..=6")]
    fn reject_rank_7() {
        let _ = TorusShape::new(&[2; 7]);
    }
}
