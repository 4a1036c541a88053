//! The packaging hierarchy — structural reproduction of Figures 3–5.
//!
//! §2.4: two ASICs and their DIMMs on a 3"×6.5" daughterboard (~20 W for
//! both nodes); 32 daughterboards on a 14.5"×27" motherboard wired as a
//! 2⁶ hypercube; eight motherboards per crate; two crates per water-cooled
//! rack — 1024 nodes, 1.0 Tflops peak, under 10 kW, stackable so "10,000
//! nodes \[have\] a footprint of about 60 square feet".

/// Nodes on one daughterboard.
const NODES_PER_DAUGHTERBOARD: usize = 2;
/// Nodes on one motherboard (a 2⁶ hypercube).
const NODES_PER_MOTHERBOARD: usize = 64;
/// Motherboards per crate.
const MOTHERBOARDS_PER_CRATE: usize = 8;
/// Crates per rack.
const CRATES_PER_RACK: usize = 2;
/// Nodes per rack.
const NODES_PER_RACK: usize = 1024;

/// Power draw of one daughterboard (both nodes + DRAM), watts.
const DAUGHTERBOARD_WATTS: f64 = 20.0;
/// Footprint of ~10,000 nodes in square feet (§2.4).
const FOOTPRINT_10K_NODES_SQFT: f64 = 60.0;

/// Dimensions of one daughterboard in inches.
const DAUGHTERBOARD_INCHES: (f64, f64) = (3.0, 6.5);
/// Dimensions of one motherboard in inches.
const MOTHERBOARD_INCHES: (f64, f64) = (14.5, 27.0);

/// A machine assembled from the packaging hierarchy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineAssembly {
    /// Total node count.
    pub nodes: usize,
}

impl MachineAssembly {
    /// Assemble a machine of `nodes` nodes (must be a multiple of 2).
    pub fn new(nodes: usize) -> MachineAssembly {
        assert!(nodes >= 2 && nodes.is_multiple_of(NODES_PER_DAUGHTERBOARD));
        MachineAssembly { nodes }
    }

    /// Daughterboards required.
    pub fn daughterboards(&self) -> usize {
        self.nodes / NODES_PER_DAUGHTERBOARD
    }

    /// Motherboards required (whole boards).
    pub fn motherboards(&self) -> usize {
        self.nodes.div_ceil(NODES_PER_MOTHERBOARD)
    }

    /// Crates required.
    pub fn crates(&self) -> usize {
        self.motherboards().div_ceil(MOTHERBOARDS_PER_CRATE)
    }

    /// Racks required.
    pub fn racks(&self) -> usize {
        self.crates().div_ceil(CRATES_PER_RACK)
    }

    /// Total power in watts (daughterboard draw; converters folded in).
    pub fn power_watts(&self) -> f64 {
        self.daughterboards() as f64 * DAUGHTERBOARD_WATTS
    }

    /// Peak speed in flops at a given clock in MHz (2 flops/cycle/node).
    pub fn peak_flops(&self, clock_mhz: f64) -> f64 {
        self.nodes as f64 * 2.0 * clock_mhz * 1.0e6
    }

    /// Machine floor footprint in square feet (stacked water-cooled racks,
    /// scaled from the paper's 10,000-node ≈ 60 ft² figure).
    pub fn footprint_sqft(&self) -> f64 {
        self.nodes as f64 / 10_000.0 * FOOTPRINT_10K_NODES_SQFT
    }

    /// Render the packaging tree (the textual stand-in for the Figure 3–5
    /// photographs).
    pub fn render_tree(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "machine: {} nodes, {:.1} kW, {:.0} ft², peak {:.1} Tflops @500 MHz\n",
            self.nodes,
            self.power_watts() / 1000.0,
            self.footprint_sqft(),
            self.peak_flops(500.0) / 1e12,
        ));
        s.push_str(&format!(
            "└─ {} rack(s)   [Fig 5: water-cooled, {} nodes, 1.0 Tflops, <10 kW each]\n",
            self.racks(),
            NODES_PER_RACK
        ));
        s.push_str(&format!(
            "   └─ {} crate(s) ({} motherboards each)\n",
            self.crates(),
            MOTHERBOARDS_PER_CRATE
        ));
        s.push_str(&format!(
            "      └─ {} motherboard(s) [Fig 4: {}\"×{}\", 64 nodes as a 2^6 hypercube, 48 V in]\n",
            self.motherboards(),
            MOTHERBOARD_INCHES.0,
            MOTHERBOARD_INCHES.1
        ));
        s.push_str(&format!(
            "         └─ {} daughterboard(s) [Fig 3: {}\"×{}\", 2 ASICs + 2 DIMMs + hub, ~{} W]\n",
            self.daughterboards(),
            DAUGHTERBOARD_INCHES.0,
            DAUGHTERBOARD_INCHES.1,
            DAUGHTERBOARD_WATTS
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Daughterboards on one motherboard.
    const DAUGHTERBOARDS_PER_MOTHERBOARD: usize = 32;
    /// Rack power budget, watts ("consumes less than 10,000 watts").
    const RACK_WATTS_LIMIT: f64 = 10_000.0;
    /// Peak rack speed at the 500 MHz design clock, flops.
    const RACK_PEAK_FLOPS: f64 = 1.0e12;

    #[test]
    fn hierarchy_arithmetic() {
        assert_eq!(
            NODES_PER_DAUGHTERBOARD * DAUGHTERBOARDS_PER_MOTHERBOARD,
            NODES_PER_MOTHERBOARD
        );
        assert_eq!(
            NODES_PER_MOTHERBOARD * MOTHERBOARDS_PER_CRATE * CRATES_PER_RACK,
            NODES_PER_RACK
        );
    }

    #[test]
    fn columbia_4096_machine() {
        // §4: "The 2048 daughterboards … the 64 mother boards … the four
        // water cooled cabinets".
        let m = MachineAssembly::new(4096);
        assert_eq!(m.daughterboards(), 2048);
        assert_eq!(m.motherboards(), 64);
        assert_eq!(m.racks(), 4);
    }

    #[test]
    fn rack_is_one_teraflops_under_10kw() {
        let rack = MachineAssembly::new(NODES_PER_RACK);
        // 1024 x 1 Gflops = 1.024 Tflops; the paper rounds to "1.0".
        assert!((rack.peak_flops(500.0) / RACK_PEAK_FLOPS - 1.0).abs() < 0.03);
        // 512 daughterboards at "about 20 Watts" ≈ 10.2 kW nominal; the
        // paper quotes both "about 20 W" and "less than 10,000 watts", so
        // consistency only holds to the rounding of the 20 W figure.
        assert!(
            rack.power_watts() < 1.05 * RACK_WATTS_LIMIT,
            "rack draws {} W",
            rack.power_watts()
        );
    }

    #[test]
    fn big_machine_footprint() {
        // "10,000 nodes to have a footprint of about 60 square feet."
        let m = MachineAssembly::new(10_000);
        assert!((m.footprint_sqft() - 60.0).abs() < 1e-9);
        let big = MachineAssembly::new(12_288);
        assert!(big.footprint_sqft() < 80.0);
    }

    #[test]
    fn twelve_k_machine_is_ten_teraflops() {
        // The title claim: 12,288 nodes, 10+ Teraflops.
        let m = MachineAssembly::new(12_288);
        assert!(m.peak_flops(500.0) >= 10.0e12);
        assert_eq!(m.racks(), 12);
    }

    #[test]
    fn render_tree_mentions_figures() {
        let m = MachineAssembly::new(1024);
        let t = m.render_tree();
        for needle in ["Fig 3", "Fig 4", "Fig 5", "2^6 hypercube", "water-cooled"] {
            assert!(t.contains(needle), "missing {needle} in:\n{t}");
        }
    }

    #[test]
    #[should_panic]
    fn odd_node_count_rejected() {
        let _ = MachineAssembly::new(7);
    }
}
