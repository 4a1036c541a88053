//! The Ethernet tree: the boot / diagnostics / I/O network (Figure 2).
//!
//! Every node's 100 Mbit port feeds a 5-port hub on its daughterboard;
//! motherboards aggregate those hubs; the host connects over multiple
//! Gigabit links. The tree never carries physics traffic — only boot
//! packets, RPC, and NFS I/O — so a simple capacity model is enough: the
//! bottleneck for a whole-machine boot is the aggregate Gigabit trunk,
//! while any single node is limited by its own 100 Mbit port.

/// Capacity model of the Ethernet tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EthernetTree {
    /// Number of nodes on the tree.
    pub nodes: usize,
    /// Per-node port rate, bits/second (100 Mbit).
    pub node_bps: f64,
    /// Number of Gigabit links between the tree and the host.
    pub host_links: usize,
    /// Per-host-link rate, bits/second.
    pub host_link_bps: f64,
}

impl EthernetTree {
    /// A tree for `nodes` nodes with the standard port speeds and one host
    /// Gigabit link per 1024 nodes (at least one).
    pub fn for_machine(nodes: usize) -> EthernetTree {
        EthernetTree {
            nodes,
            node_bps: 100.0e6,
            host_links: (nodes / 1024).max(1),
            host_link_bps: 1.0e9,
        }
    }

    /// Aggregate host-side bandwidth in bits/second.
    fn trunk_bps(&self) -> f64 {
        self.host_links as f64 * self.host_link_bps
    }

    /// Time to push `bytes_per_node` to every node simultaneously,
    /// in seconds: limited by the slower of the per-node port and each
    /// node's share of the trunk.
    pub fn broadcast_seconds(&self, bytes_per_node: u64) -> f64 {
        let bits_per_node = bytes_per_node as f64 * 8.0;
        let per_node_port = bits_per_node / self.node_bps;
        let trunk_total = bits_per_node * self.nodes as f64 / self.trunk_bps();
        per_node_port.max(trunk_total)
    }
}

/// Standard boot-packet payload size (I-cache line write + headers).
pub const BOOT_PACKET_BYTES: u64 = 256;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trunk_scales_with_machine_size() {
        let small = EthernetTree::for_machine(512);
        let big = EthernetTree::for_machine(12288);
        assert_eq!(small.host_links, 1);
        assert_eq!(big.host_links, 12);
        assert!(big.trunk_bps() > small.trunk_bps());
    }

    #[test]
    fn small_machine_broadcast_is_port_limited() {
        // 8 nodes demand 0.8 Gbit of a 1 Gbit trunk: the 100 Mbit node
        // port is the bottleneck. (Ten 100 Mbit ports saturate one trunk
        // link, so anything larger is trunk-limited.)
        let t = EthernetTree::for_machine(8);
        let per_port = 8.0 * 1.0e6 / t.node_bps;
        assert!((t.broadcast_seconds(1_000_000) - per_port).abs() < 1e-9);
    }

    #[test]
    fn large_machine_broadcast_is_trunk_limited() {
        let t = EthernetTree::for_machine(12288);
        let trunk = 8.0e6 * 12288.0 / t.trunk_bps();
        assert!((t.broadcast_seconds(1_000_000) - trunk).abs() < 1e-9);
        // And the trunk time exceeds a single port's time.
        assert!(trunk > 8.0e6 / t.node_bps);
    }
}
