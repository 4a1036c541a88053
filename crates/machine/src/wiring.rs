//! Mesh cabling: which links live on printed circuit and which need the
//! external cables of the §4 purchase order.
//!
//! §2.4: "the motherboard provides a matched impedance path from the
//! ASIC's, through the motherboards, through external cables, onto another
//! motherboard and to the destination ASIC. No redrive is done for these
//! signals." Every motherboard is a 2⁶ hypercube of nodes, so a machine of
//! shape `d₀×…×d₅` is a *board grid* of shape `d₀/2 × … × d₅/2`; mesh
//! links between boards leave the PCB and ride cables.
//!
//! Counting for the 4096-node machine (8×8×4×4×2×2 → board grid
//! 4×4×2×2×1×1): each board-to-board adjacency carries one face of
//! 2⁵ = 32 node links, there are 256 such adjacencies (ring wraps
//! included), and the purchase order lists **768 cables — exactly three
//! per face bundle** (32 bidirectional bit-serial links split across three
//! connectors). That identity is asserted in the tests.

use qcdoc_geometry::TorusShape;

/// Cables per motherboard-face bundle (32 node links across three
/// connectors, from the §4 cable count).
const CABLES_PER_FACE: usize = 3;

/// The wiring breakdown of a machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Wiring {
    /// Node-level mesh links routed on motherboard PCB.
    pub onboard_links: usize,
    /// Node-level mesh links that leave the board.
    pub external_links: usize,
    /// Board-to-board face adjacencies (cable bundles).
    pub faces: usize,
    /// External cables (3 per face).
    pub cables: usize,
}

/// Compute the wiring of a machine whose motherboards are 2⁶ hypercubes.
/// Every machine extent must be 1 or an even multiple of 2 (boards span 2
/// nodes per axis; extent-1 axes stay inside a board trivially).
pub fn wiring(machine: &TorusShape) -> Wiring {
    let rank = machine.rank();
    // Board grid extents: half the machine extent on spanned axes.
    let grid: Vec<usize> = (0..rank)
        .map(|a| {
            let e = machine.extent(a);
            if e == 1 {
                1
            } else {
                assert!(
                    e.is_multiple_of(2),
                    "machine extent {e} not board-divisible on axis {a}"
                );
                e / 2
            }
        })
        .collect();
    let nodes = machine.node_count();
    let mut onboard = 0usize;
    let mut external = 0usize;
    let mut faces = 0usize;
    for a in 0..rank {
        let e = machine.extent(a);
        if e == 1 {
            continue;
        }
        // Undirected node links along this axis: one per node for rings of
        // length ≥ 3; extent-2 rings have two distinct physical connections
        // between each node pair (the +1 and −1 cables coincide in
        // endpoints but the torus provides both, realized as a doubled
        // connection — counted once as a link here, as the schematic does).
        let axis_links = if e == 2 { nodes / 2 } else { nodes };
        // A link is on-board when it stays within a board along this axis:
        // local coordinate 0 -> 1. That is half of all links on axes the
        // board spans fully... precisely: of the e links around each ring,
        // e/2 connect 2k -> 2k+1 (on board) for rings of even length.
        let rings = nodes / e;
        let (on, ext) = if e == 2 {
            // The single node pair sits on one board.
            (axis_links, 0)
        } else {
            (rings * (e / 2), axis_links - rings * (e / 2))
        };
        onboard += on;
        external += ext;
        // Face bundles: ring gaps at board granularity x the other grid
        // extents. A board ring of length g has g gaps (g = 2 gives two
        // separate physical connections between the same board pair).
        let g = grid[a];
        if g > 1 {
            let others: usize = (0..rank).filter(|&b| b != a).map(|b| grid[b]).product();
            faces += g * others;
        }
    }
    Wiring {
        onboard_links: onboard,
        external_links: external,
        faces,
        cables: faces * CABLES_PER_FACE,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    #[test]
    fn columbia_4096_needs_exactly_768_cables() {
        // §4: "the 768 cables for the mesh network cost $71,040."
        let spec = catalog::by_name("columbia-4096").unwrap();
        let w = wiring(&spec.shape);
        assert_eq!(w.faces, 256);
        assert_eq!(w.cables, 768, "{w:?}");
    }

    #[test]
    fn face_bundles_carry_32_links() {
        // Node links crossing one board face (the 2⁵ nodes of a hypercube
        // face).
        const LINKS_PER_FACE: usize = 32;
        let spec = catalog::by_name("columbia-4096").unwrap();
        let w = wiring(&spec.shape);
        assert_eq!(w.external_links, w.faces * LINKS_PER_FACE, "{w:?}");
    }

    #[test]
    fn single_motherboard_needs_no_cables() {
        let w = wiring(&qcdoc_geometry::TorusShape::motherboard_64());
        assert_eq!(w.cables, 0);
        assert_eq!(w.external_links, 0);
        // 6 axes x 32 node pairs on board.
        assert_eq!(w.onboard_links, 6 * 32);
    }

    #[test]
    fn rack_cabling() {
        // 8x4x4x2x2x2 -> board grid 4x2x2x1x1x1: 16 + 16 + 16 = 48 face
        // bundles, 144 cables.
        let w = wiring(&qcdoc_geometry::TorusShape::rack_1024());
        assert_eq!(w.faces, 48);
        assert_eq!(w.cables, 144);
    }

    #[test]
    fn bigger_machines_need_more_cables() {
        let small = wiring(&qcdoc_geometry::TorusShape::rack_1024());
        let big = wiring(&catalog::by_name("rbrc-12288").unwrap().shape);
        assert!(big.cables > small.cables);
        assert!(big.external_links > small.external_links);
    }

    #[test]
    #[should_panic(expected = "not board-divisible")]
    fn odd_extents_rejected() {
        let _ = wiring(&qcdoc_geometry::TorusShape::new(&[6, 3]));
    }
}
