//! Axes and signed link directions of the six-dimensional mesh.

use std::fmt;

/// One of the six axes of the physical QCDOC torus.
///
/// The paper labels the physics directions `x, y, z, t` (plus a fifth for
/// domain-wall fermions); the machine axes are purely topological, so we
/// simply number them 0..6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Axis(pub u8);

impl Axis {
    /// Axis index as usize, for array indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The positive-sense direction along this axis.
    #[inline]
    pub fn plus(self) -> Direction {
        Direction {
            axis: self,
            negative: false,
        }
    }

    /// The negative-sense direction along this axis.
    #[inline]
    pub fn minus(self) -> Direction {
        Direction {
            axis: self,
            negative: true,
        }
    }
}

impl fmt::Display for Axis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "axis{}", self.0)
    }
}

/// A signed link direction: one of the 12 nearest-neighbour links of a node.
///
/// QCDOC supports concurrent sends and receives on each of these, so the SCU
/// manages `2 × 12 = 24` independent uni-directional channels per node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Direction {
    /// The axis this direction runs along.
    pub axis: Axis,
    /// `true` for the minus sense, `false` for the plus sense.
    pub negative: bool,
}

impl Direction {
    /// The opposite direction (same axis, flipped sense).
    #[inline]
    pub fn opposite(self) -> Direction {
        Direction {
            axis: self.axis,
            negative: !self.negative,
        }
    }

    /// Dense index in `0..12`: `2 * axis + (negative as usize)`.
    ///
    /// Used to index per-link state tables in the SCU.
    #[inline]
    pub fn link_index(self) -> usize {
        2 * self.axis.index() + usize::from(self.negative)
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.axis, if self.negative { "-" } else { "+" })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All 12 directions: plus then minus for each of the six axes.
    fn all() -> impl Iterator<Item = Direction> {
        (0..6).flat_map(|a| [Axis(a).plus(), Axis(a).minus()])
    }

    #[test]
    fn twelve_directions() {
        let dirs: Vec<_> = all().collect();
        assert_eq!(dirs.len(), 12);
        // All distinct.
        for (i, a) in dirs.iter().enumerate() {
            for b in &dirs[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn opposite_is_involution() {
        for d in all() {
            assert_eq!(d.opposite().opposite(), d);
            assert_ne!(d.opposite(), d);
            assert_eq!(d.opposite().axis, d.axis);
        }
    }

    #[test]
    fn link_indices_are_distinct() {
        let mut seen = [false; 12];
        for d in all() {
            assert!(!seen[d.link_index()], "duplicate link index");
            seen[d.link_index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
