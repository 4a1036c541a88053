//! The ASIC block inventory — a structural reproduction of Figure 1.
//!
//! Figure 1 of the paper shows the QCDOC ASIC as a set of blocks around the
//! Processor Local Bus, with the custom-designed blocks shaded and the IBM
//! standard system-on-a-chip macros unshaded. This module records that
//! inventory as data and renders an ASCII version of the diagram, which is
//! what `examples/asic_tour.rs` prints.

/// Who designed a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// Standard IBM system-on-a-chip macro (unshaded in Figure 1).
    IbmMacro,
    /// Custom VHDL designed by the QCDOC collaboration (shaded in Figure 1).
    Custom,
}

/// One block of the ASIC.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// Short name used in the diagram.
    pub name: &'static str,
    /// Designer.
    pub provenance: Provenance,
    /// One-line datasheet entry.
    pub description: &'static str,
}

/// The full block inventory of the QCDOC ASIC (Figure 1 plus §2.1–2.3).
pub fn inventory() -> Vec<Block> {
    vec![
        Block {
            name: "PPC 440",
            provenance: Provenance::IbmMacro,
            description: "32-bit Book-E integer core, 32 kB I-cache + 32 kB D-cache",
        },
        Block {
            name: "FPU64",
            provenance: Provenance::IbmMacro,
            description: "64-bit IEEE FPU, 1 multiply + 1 add per cycle (1 Gflops @ 500 MHz)",
        },
        Block {
            name: "PLB",
            provenance: Provenance::IbmMacro,
            description: "Processor Local Bus interconnecting the major subsystems",
        },
        Block {
            name: "EDRAM 4MB",
            provenance: Provenance::IbmMacro,
            description: "4 MB embedded DRAM, 1024-bit rows + ECC",
        },
        Block {
            name: "EDRAM prefetch ctl",
            provenance: Provenance::Custom,
            description: "two-stream prefetching controller; 128-bit words to the D-cache at \
                          full core speed (8 GB/s), designed at IBM Yorktown Heights",
        },
        Block {
            name: "DDR ctl",
            provenance: Provenance::IbmMacro,
            description: "external DDR SDRAM controller, 2.6 GB/s, up to 2 GB per node",
        },
        Block {
            name: "SCU",
            provenance: Provenance::Custom,
            description: "Serial Communications Unit: 24 concurrent uni-directional channels, \
                          DMA with block-strided descriptors, supervisor + partition interrupts, \
                          pass-through global sums/broadcasts",
        },
        Block {
            name: "HSSL x24",
            provenance: Provenance::IbmMacro,
            description: "High Speed Serial Link macros, bit-serial at the core clock; \
                          self-training byte alignment",
        },
        Block {
            name: "Ethernet 100Mb",
            provenance: Provenance::IbmMacro,
            description: "standard 100 Mbit Ethernet controller for boot, I/O and NFS",
        },
        Block {
            name: "Ethernet/JTAG",
            provenance: Provenance::Custom,
            description: "UDP-to-JTAG bridge needing no software; loads boot code into the \
                          I-cache after power-on (no PROMs on QCDOC)",
        },
        Block {
            name: "Global tree",
            provenance: Provenance::Custom,
            description: "partition-interrupt forwarding clocked by the ~40 MHz global clock",
        },
        Block {
            name: "Boot/debug",
            provenance: Provenance::Custom,
            description: "RISCWatch-compatible debug access path via Ethernet/JTAG",
        },
    ]
}

/// Render the Figure-1-style ASCII block diagram. Custom blocks are marked
/// with `#` borders (the "shaded" blocks of the paper's figure), IBM macros
/// with plain borders.
pub fn render_diagram() -> String {
    let inv = inventory();
    let mut out = String::new();
    out.push_str("                    QCDOC ASIC (Figure 1)\n");
    out.push_str("  [#...#] = custom QCDOC logic       [-...-] = IBM SoC macro\n\n");
    // Row of core-side blocks, the bus, then peripherals.
    let core_side = ["PPC 440", "FPU64", "EDRAM prefetch ctl", "EDRAM 4MB"];
    let bus = "PLB";
    let periph = [
        "DDR ctl",
        "SCU",
        "HSSL x24",
        "Ethernet 100Mb",
        "Ethernet/JTAG",
        "Global tree",
        "Boot/debug",
    ];
    let boxed = |name: &str| -> String {
        let b = inv
            .iter()
            .find(|b| b.name == name)
            .expect("block in inventory");
        let pad = format!(" {} ", b.name);
        match b.provenance {
            Provenance::Custom => format!("[#{pad}#]"),
            Provenance::IbmMacro => format!("[-{pad}-]"),
        }
    };
    for name in core_side {
        out.push_str("    ");
        out.push_str(&boxed(name));
        out.push('\n');
        out.push_str("        |\n");
    }
    out.push_str(&format!("  ====[ {bus} ]==== (processor local bus)\n"));
    for name in periph {
        out.push_str("        |\n");
        out.push_str("    ");
        out.push_str(&boxed(name));
        out.push('\n');
    }
    out
}

/// Render the per-block datasheet table.
pub fn render_datasheet() -> String {
    let mut out = String::new();
    out.push_str(&format!("{:<20} {:<10} description\n", "block", "origin"));
    out.push_str(&format!("{:-<20} {:-<10} {:-<60}\n", "", "", ""));
    for b in inventory() {
        let origin = match b.provenance {
            Provenance::IbmMacro => "IBM",
            Provenance::Custom => "custom",
        };
        out.push_str(&format!(
            "{:<20} {:<10} {}\n",
            b.name, origin, b.description
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inventory_matches_figure_1_split() {
        let inv = inventory();
        let custom: Vec<_> = inv
            .iter()
            .filter(|b| b.provenance == Provenance::Custom)
            .collect();
        let ibm: Vec<_> = inv
            .iter()
            .filter(|b| b.provenance == Provenance::IbmMacro)
            .collect();
        // The paper's shaded (custom) set: SCU, EDRAM prefetch controller,
        // Ethernet/JTAG, global tree, boot/debug glue.
        assert!(custom.iter().any(|b| b.name == "SCU"));
        assert!(custom.iter().any(|b| b.name == "EDRAM prefetch ctl"));
        assert!(custom.iter().any(|b| b.name == "Ethernet/JTAG"));
        // The IBM macro set: core, FPU, PLB, EDRAM array, DDR, HSSL, Ethernet.
        for name in [
            "PPC 440",
            "FPU64",
            "PLB",
            "EDRAM 4MB",
            "DDR ctl",
            "HSSL x24",
        ] {
            assert!(
                ibm.iter().any(|b| b.name == name),
                "{name} should be an IBM macro"
            );
        }
    }

    #[test]
    fn block_names_unique() {
        let inv = inventory();
        let mut names: Vec<_> = inv.iter().map(|b| b.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), inv.len());
    }

    #[test]
    fn diagram_mentions_every_block() {
        let d = render_diagram();
        for b in inventory() {
            assert!(d.contains(b.name), "diagram missing {}", b.name);
        }
        // Custom blocks get the shaded marker.
        assert!(d.contains("[# SCU #]"));
        assert!(d.contains("[- FPU64 -]"));
    }

    #[test]
    fn datasheet_lists_every_block() {
        let d = render_datasheet();
        for b in inventory() {
            assert!(d.contains(b.name));
        }
    }
}
