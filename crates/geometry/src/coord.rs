//! Node identifiers and coordinates.

use std::fmt;

/// Dense rank of a node within a machine or partition, `0 .. node_count`.
///
/// Ranks follow lexicographic order of the node coordinate with axis 0
/// fastest, matching the order in which the host's `qdaemon` enumerates
/// nodes during boot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Rank as usize, for indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Coordinate of a node in a torus of up to six dimensions.
///
/// Stored as a fixed six-element array; axes beyond the torus rank are held
/// at zero so a coordinate is meaningful only together with its
/// [`TorusShape`](crate::TorusShape).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct NodeCoord(pub [u32; 6]);

impl NodeCoord {
    /// The origin coordinate.
    pub const ORIGIN: NodeCoord = NodeCoord([0; 6]);

    /// Build from a slice of at most six components (missing axes are zero).
    pub fn from_slice(c: &[u32]) -> NodeCoord {
        assert!(c.len() <= 6, "coordinate has more than 6 components");
        let mut arr = [0u32; 6];
        arr[..c.len()].copy_from_slice(c);
        NodeCoord(arr)
    }

    /// Component along `axis` as usize.
    #[inline]
    pub fn get(&self, axis: usize) -> usize {
        self.0[axis] as usize
    }

    /// Set the component along `axis`.
    #[inline]
    pub fn set(&mut self, axis: usize, v: usize) {
        self.0[axis] = v as u32;
    }
}

impl fmt::Display for NodeCoord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "({},{},{},{},{},{})",
            self.0[0], self.0[1], self.0[2], self.0[3], self.0[4], self.0[5]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_slice_pads_with_zeros() {
        let c = NodeCoord::from_slice(&[3, 1]);
        assert_eq!(c.get(0), 3);
        assert_eq!(c.get(1), 1);
        for ax in 2..6 {
            assert_eq!(c.get(ax), 0);
        }
    }

    #[test]
    fn set_get_roundtrip() {
        let mut c = NodeCoord::ORIGIN;
        c.set(4, 7);
        assert_eq!(c.get(4), 7);
        assert_eq!(c.get(3), 0);
    }

    #[test]
    #[should_panic(expected = "more than 6")]
    fn from_slice_rejects_seven() {
        let _ = NodeCoord::from_slice(&[1, 1, 1, 1, 1, 1, 1]);
    }

    #[test]
    fn display_forms() {
        assert_eq!(NodeId(5).to_string(), "n5");
        assert_eq!(NodeCoord::from_slice(&[1, 2]).to_string(), "(1,2,0,0,0,0)");
    }
}
