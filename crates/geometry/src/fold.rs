//! Dimension folding: Hamiltonian cycles through sub-tori.
//!
//! To carve a 4-D machine out of the 6-D mesh *in software* (§2.2: "we chose
//! to make the mesh network six dimensional, so we can make lower-dimensional
//! partitions of the machine in software, without moving cables"), several
//! physical axes are folded into one logical axis. The logical axis must be a
//! *ring* (lattice QCD is periodic) and every logical hop must be a physical
//! nearest-neighbour hop (unit dilation), so the fold is a Hamiltonian cycle
//! through the folded sub-box.
//!
//! We use the reflected mixed-radix Gray code: consecutive codewords differ
//! by ±1 in exactly one digit, so every interior step is a mesh edge. When
//! **all radices are even**, the final codeword is `(0, …, 0, r_top − 1)`,
//! which is adjacent to the first codeword `(0, …, 0)` through the torus
//! wrap of the top axis (and through an ordinary box edge when
//! `r_top == 2`). Partitions therefore order each fold so its top axis
//! either spans the full physical extent (wrap cable available) or has
//! extent 2 (wrap coincides with the box edge).

/// A Hamiltonian cycle through a `dims[0] × … × dims[k-1]` box.
///
/// Positions along the cycle map bijectively to box coordinates; consecutive
/// positions (cyclically) differ by exactly one unit in one coordinate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FoldCycle {
    dims: Vec<usize>,
    len: usize,
}

/// Reasons a fold cannot be constructed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FoldError {
    /// A multi-axis fold contained an odd extent ≥ 3; the Gray-code cycle
    /// cannot close.
    OddExtent {
        /// The offending extent.
        extent: usize,
    },
    /// The fold had no axes.
    Empty,
}

impl std::fmt::Display for FoldError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FoldError::OddExtent { extent } => write!(
                f,
                "cannot fold axes with odd extent {extent}: Gray-code cycle does not close"
            ),
            FoldError::Empty => write!(f, "fold must contain at least one axis"),
        }
    }
}

impl std::error::Error for FoldError {}

impl FoldCycle {
    /// Build a fold cycle through a box with the given extents.
    ///
    /// Extents of 1 are allowed (they are degenerate). If more than one
    /// extent exceeds 1, all extents greater than 1 must be even.
    pub fn new(dims: &[usize]) -> Result<FoldCycle, FoldError> {
        if dims.is_empty() {
            return Err(FoldError::Empty);
        }
        let nontrivial: Vec<usize> = dims.iter().copied().filter(|&d| d > 1).collect();
        if nontrivial.len() > 1 {
            if let Some(&odd) = nontrivial.iter().find(|&&d| d % 2 == 1) {
                return Err(FoldError::OddExtent { extent: odd });
            }
        }
        Ok(FoldCycle {
            dims: dims.to_vec(),
            len: dims.iter().product(),
        })
    }

    /// Length of the cycle (= product of extents).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the cycle is a single point.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Coordinate at position `pos` along the cycle (reflected mixed-radix
    /// Gray code, digit 0 fastest).
    ///
    /// The reflected construction: the top digit steps through its radix in
    /// order, and each time it takes an odd value the entire lower-digit
    /// sub-sequence is traversed in reverse, so consecutive positions differ
    /// by exactly ±1 in exactly one digit.
    pub fn coord_at(&self, pos: usize) -> Vec<usize> {
        assert!(
            pos < self.len,
            "fold position {pos} out of range {}",
            self.len
        );
        let k = self.dims.len();
        let mut digits = vec![0usize; k];
        let mut idx = pos;
        let mut total = self.len;
        let mut reversed = false;
        for j in (0..k).rev() {
            if reversed {
                idx = total - 1 - idx;
            }
            let lower = total / self.dims[j];
            digits[j] = idx / lower;
            idx %= lower;
            reversed = digits[j] % 2 == 1;
            total = lower;
        }
        digits
    }

    /// Position along the cycle of a box coordinate (inverse of
    /// [`FoldCycle::coord_at`]).
    pub fn pos_of(&self, coord: &[usize]) -> usize {
        assert_eq!(coord.len(), self.dims.len(), "coordinate rank mismatch");
        // Rebuild the index bottom-up, undoing each level's reversal. Level
        // j is traversed in reverse exactly when the digit above it is odd.
        let mut idx = 0usize;
        let mut total = 1usize;
        for j in 0..coord.len() {
            debug_assert!(coord[j] < self.dims[j], "coordinate out of bounds");
            let level_total = total * self.dims[j];
            let fwd = coord[j] * total + idx;
            let reversed = if j + 1 < coord.len() {
                coord[j + 1] % 2 == 1
            } else {
                false
            };
            idx = if reversed { level_total - 1 - fwd } else { fwd };
            total = level_total;
        }
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Torus adjacency: exactly one digit differs, by ±1 or by a wrap.
    fn torus_adjacent(a: &[usize], b: &[usize], dims: &[usize]) -> bool {
        let mut diffs = 0;
        let mut unit = true;
        for ((&x, &y), &r) in a.iter().zip(b).zip(dims) {
            if x != y {
                diffs += 1;
                let d = x.abs_diff(y);
                unit &= d == 1 || d == r - 1;
            }
        }
        diffs == 1 && unit
    }

    /// Box adjacency: exactly one digit differs, by ±1 (no wrap).
    fn box_adjacent(a: &[usize], b: &[usize]) -> bool {
        let mut diffs = 0;
        let mut unit = true;
        for (&x, &y) in a.iter().zip(b) {
            if x != y {
                diffs += 1;
                unit &= x.abs_diff(y) == 1;
            }
        }
        diffs == 1 && unit
    }

    #[test]
    fn binary_gray_code() {
        let f = FoldCycle::new(&[2, 2]).unwrap();
        let seq: Vec<_> = (0..4).map(|i| f.coord_at(i)).collect();
        assert_eq!(seq, vec![vec![0, 0], vec![1, 0], vec![1, 1], vec![0, 1]]);
    }

    #[test]
    fn cycle_is_hamiltonian_and_closes() {
        for dims in [
            vec![4, 2],
            vec![2, 2, 2],
            vec![8, 4],
            vec![4, 2, 2],
            vec![2, 4, 2, 2],
        ] {
            let f = FoldCycle::new(&dims).unwrap();
            let n = f.len();
            let mut seen = vec![false; n];
            for i in 0..n {
                let c = f.coord_at(i);
                let next = f.coord_at((i + 1) % n);
                assert!(
                    torus_adjacent(&c, &next, &dims),
                    "{dims:?}: step {i} not adjacent: {c:?} -> {next:?}"
                );
                let mut flat = 0usize;
                for j in (0..dims.len()).rev() {
                    flat = flat * dims[j] + c[j];
                }
                assert!(!seen[flat], "{dims:?}: coordinate visited twice");
                seen[flat] = true;
            }
            assert!(seen.iter().all(|&s| s), "{dims:?}: not Hamiltonian");
        }
    }

    #[test]
    fn interior_steps_are_box_edges() {
        // Only the closing step may use a wrap link, and only on the top
        // axis — the property the partition validity rules rely on.
        for dims in [vec![4, 2], vec![8, 4], vec![4, 4, 2], vec![2, 2, 2, 2]] {
            let f = FoldCycle::new(&dims).unwrap();
            let n = f.len();
            for i in 0..n - 1 {
                let a = f.coord_at(i);
                let b = f.coord_at(i + 1);
                assert!(
                    box_adjacent(&a, &b),
                    "{dims:?}: interior step {i} used a wrap"
                );
            }
            // Closing step: all digits equal except the top one, which goes
            // from r_top - 1 back to 0.
            let last = f.coord_at(n - 1);
            let first = f.coord_at(0);
            let top = dims.len() - 1;
            assert_eq!(&last[..top], &first[..top]);
            assert_eq!(last[top], dims[top] - 1);
            assert_eq!(first[top], 0);
        }
    }

    #[test]
    fn pos_of_inverts_coord_at() {
        for dims in [
            vec![4, 2],
            vec![2, 2, 2],
            vec![6, 2],
            vec![3],
            vec![1, 4, 2],
        ] {
            let f = FoldCycle::new(&dims).unwrap();
            for i in 0..f.len() {
                assert_eq!(f.pos_of(&f.coord_at(i)), i, "dims {dims:?} pos {i}");
            }
        }
    }

    #[test]
    fn single_axis_is_identity_path() {
        let f = FoldCycle::new(&[5]).unwrap();
        for i in 0..5 {
            assert_eq!(f.coord_at(i), vec![i]);
        }
    }

    #[test]
    fn trivial_extents_are_skipped() {
        let f = FoldCycle::new(&[1, 4, 1, 2]).unwrap();
        assert_eq!(f.len(), 8);
        // Still a Hamiltonian cycle over the 4x2 sub-box.
        let mut seen = std::collections::HashSet::new();
        for i in 0..8 {
            seen.insert(f.coord_at(i));
        }
        assert_eq!(seen.len(), 8);
    }

    #[test]
    fn odd_multi_axis_fold_rejected() {
        assert_eq!(
            FoldCycle::new(&[3, 3]),
            Err(FoldError::OddExtent { extent: 3 })
        );
        assert_eq!(
            FoldCycle::new(&[4, 3]),
            Err(FoldError::OddExtent { extent: 3 })
        );
    }

    #[test]
    fn empty_fold_rejected() {
        assert_eq!(FoldCycle::new(&[]), Err(FoldError::Empty));
    }

    #[test]
    fn extent_two_top_axis_closes_without_wrap() {
        // When the top axis has extent 2 the closing hop (1 -> 0) is an
        // ordinary box edge, so such folds work in any sub-box.
        let f = FoldCycle::new(&[4, 4, 2]).unwrap();
        let n = f.len();
        for i in 0..n {
            let a = f.coord_at(i);
            let b = f.coord_at((i + 1) % n);
            assert!(box_adjacent(&a, &b), "step {i}: {a:?} -> {b:?}");
        }
    }
}
