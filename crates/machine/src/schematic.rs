//! The Figure 2 network schematic as data plus an ASCII rendering.
//!
//! Figure 2 shows three overlaid structures: the SCU-driven 6-D mesh among
//! processing nodes (red), the Ethernet tree through hubs to the host and
//! disks (green), and the host with its disk switches. We reproduce it as
//! a machine-readable edge inventory and a printable diagram.

use qcdoc_geometry::{Axis, NodeId, TorusShape};

/// An edge of the machine graph.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Edge {
    /// Mesh link between two nodes.
    Mesh {
        /// One endpoint.
        a: NodeId,
        /// Other endpoint.
        b: NodeId,
    },
    /// Ethernet uplink from a node to its hub.
    NodeToHub {
        /// The node.
        node: NodeId,
        /// Hub index.
        hub: u32,
    },
    /// Hub to host trunk.
    HubToHost {
        /// Hub index.
        hub: u32,
    },
    /// Host to a disk switch.
    HostToDisk {
        /// Disk switch index.
        disk: u32,
    },
}

/// Enumerate the mesh edges of a machine (each physical cable once).
fn mesh_edges(shape: &TorusShape) -> Vec<Edge> {
    let mut edges = Vec::new();
    for c in shape.coords() {
        for axis in 0..shape.rank() {
            if shape.extent(axis) == 1 {
                continue;
            }
            let nb = shape.neighbour(c, Axis(axis as u8).plus());
            let a = shape.rank_of(c);
            let b = shape.rank_of(nb);
            // extent-2 axes give a == plus neighbour == minus neighbour;
            // that is still one cable.
            if shape.extent(axis) == 2 && a > b {
                continue; // counted from the lower-ranked end
            }
            edges.push(Edge::Mesh { a, b });
        }
    }
    edges
}

/// Build the full Figure 2 edge inventory: mesh + Ethernet tree + host +
/// disks. One hub per daughterboard (2 nodes), one disk switch per 8
/// hubs' worth of nodes (schematic scale, as in the figure).
fn full_schematic(shape: &TorusShape) -> Vec<Edge> {
    let mut edges = mesh_edges(shape);
    let nodes = shape.node_count();
    let hubs = nodes.div_ceil(2) as u32;
    for n in 0..nodes {
        edges.push(Edge::NodeToHub {
            node: NodeId(n as u32),
            hub: n as u32 / 2,
        });
    }
    for h in 0..hubs {
        edges.push(Edge::HubToHost { hub: h });
    }
    for d in 0..(nodes.div_ceil(16) as u32).max(1) {
        edges.push(Edge::HostToDisk { disk: d });
    }
    edges
}

/// Render the schematic summary (counts per network, as the figure's
/// legend).
pub fn render(shape: &TorusShape) -> String {
    let edges = full_schematic(shape);
    let mesh = edges
        .iter()
        .filter(|e| matches!(e, Edge::Mesh { .. }))
        .count();
    let eth = edges
        .iter()
        .filter(|e| matches!(e, Edge::NodeToHub { .. }))
        .count();
    let trunks = edges
        .iter()
        .filter(|e| matches!(e, Edge::HubToHost { .. }))
        .count();
    let disks = edges
        .iter()
        .filter(|e| matches!(e, Edge::HostToDisk { .. }))
        .count();
    let mut s = String::new();
    s.push_str("            Figure 2: QCDOC networks\n\n");
    s.push_str("  CPU0 ── CPU1 ── … ── CPUn-1      SCU mesh links (red)\n");
    s.push_str("   │       │             │\n");
    s.push_str("  [hub]──[hub]── … ───[hub]        Ethernet tree (green)\n");
    s.push_str("        │\n");
    s.push_str("      [HOST]──[DISK SWITCH]×k\n\n");
    s.push_str(&format!(
        "  machine {shape}: {mesh} mesh cables, {eth} node Ethernet drops,\n  {trunks} hub uplinks, {disks} disk switches\n"
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_edge_count_matches_torus_formula() {
        // A d-dim torus with all extents > 2 has d*N edges (each node has
        // 2d links, each edge shared by two nodes).
        let shape = TorusShape::new(&[4, 4, 4]);
        let edges = mesh_edges(&shape);
        assert_eq!(edges.len(), 3 * shape.node_count());
    }

    #[test]
    fn extent_two_axes_count_single_cables() {
        // On an extent-2 axis the +1 and -1 neighbours coincide: one cable
        // per node pair, so N/2 edges per such axis.
        let shape = TorusShape::new(&[2, 2]);
        let edges = mesh_edges(&shape);
        // 2 axes x (4/2) = 4 edges.
        assert_eq!(edges.len(), 4);
    }

    #[test]
    fn rack_cable_count_is_plausible() {
        // §4 bought 768 cables for four racks (4096 nodes): many mesh hops
        // stay on-board (motherboards wire 2^6 hypercubes internally), so
        // external cables are a small fraction of all mesh edges.
        let shape = TorusShape::rack_1024();
        let edges = mesh_edges(&shape);
        assert!(
            edges.len() > 768 / 4,
            "total mesh edges exceed external cables per rack"
        );
    }

    #[test]
    fn schematic_has_all_networks() {
        let shape = TorusShape::motherboard_64();
        let edges = full_schematic(&shape);
        assert!(edges.iter().any(|e| matches!(e, Edge::Mesh { .. })));
        assert!(edges.iter().any(|e| matches!(e, Edge::NodeToHub { .. })));
        assert!(edges.iter().any(|e| matches!(e, Edge::HubToHost { .. })));
        assert!(edges.iter().any(|e| matches!(e, Edge::HostToDisk { .. })));
        // Every node has exactly one Ethernet drop.
        let drops = edges
            .iter()
            .filter(|e| matches!(e, Edge::NodeToHub { .. }))
            .count();
        assert_eq!(drops, 64);
    }

    #[test]
    fn render_mentions_every_network() {
        let s = render(&TorusShape::motherboard_64());
        for needle in ["SCU mesh", "Ethernet tree", "HOST", "DISK"] {
            assert!(s.contains(needle), "{s}");
        }
    }
}
