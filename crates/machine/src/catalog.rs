//! The machines of the paper, from bring-up boxes to the three 12,288-node
//! installations.

use qcdoc_geometry::TorusShape;

/// Who funded / hosts a machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// Columbia University (development machines + 4096-node machine).
    Columbia,
    /// RIKEN-BNL Research Center at Brookhaven.
    Rbrc,
    /// UKQCD collaboration, Edinburgh.
    Ukqcd,
    /// US Lattice Gauge Theory community machine at BNL.
    UsLgt,
}

/// A catalogued machine.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineSpec {
    /// Name used in the paper.
    pub name: &'static str,
    /// Node count.
    pub nodes: usize,
    /// Native 6-D shape.
    pub shape: TorusShape,
    /// Site.
    pub site: Site,
}

/// The development and production machines mentioned in the paper.
pub fn catalog() -> Vec<MachineSpec> {
    vec![
        MachineSpec {
            name: "bringup-64",
            nodes: 64,
            shape: TorusShape::motherboard_64(),
            site: Site::Columbia,
        },
        MachineSpec {
            name: "bench-128",
            nodes: 128,
            shape: TorusShape::new(&[4, 4, 2, 2, 2, 1]),
            site: Site::Columbia,
        },
        MachineSpec {
            name: "dev-512",
            nodes: 512,
            shape: TorusShape::new(&[8, 4, 4, 2, 2, 1]),
            site: Site::Columbia,
        },
        MachineSpec {
            name: "rack-1024",
            nodes: 1024,
            // §4: "a machine of size 8x4x4x2x2x2".
            shape: TorusShape::rack_1024(),
            site: Site::Columbia,
        },
        MachineSpec {
            name: "columbia-4096",
            nodes: 4096,
            shape: TorusShape::new(&[8, 8, 4, 4, 2, 2]),
            site: Site::Columbia,
        },
        MachineSpec {
            name: "rbrc-12288",
            nodes: 12_288,
            shape: TorusShape::new(&[8, 8, 6, 4, 4, 2]),
            site: Site::Rbrc,
        },
        MachineSpec {
            name: "ukqcd-12288",
            nodes: 12_288,
            shape: TorusShape::new(&[8, 8, 6, 4, 4, 2]),
            site: Site::Ukqcd,
        },
        MachineSpec {
            name: "uslgt-12288",
            nodes: 12_288,
            shape: TorusShape::new(&[8, 8, 6, 4, 4, 2]),
            site: Site::UsLgt,
        },
    ]
}

/// Look up a machine by name.
pub fn by_name(name: &str) -> Option<MachineSpec> {
    catalog().into_iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_match_node_counts() {
        for m in catalog() {
            assert_eq!(m.shape.node_count(), m.nodes, "{}", m.name);
        }
    }

    #[test]
    fn three_production_machines() {
        let prod: Vec<_> = catalog()
            .into_iter()
            .filter(|m| m.nodes == 12_288)
            .collect();
        assert_eq!(prod.len(), 3, "RBRC, UKQCD and US LGT machines");
        let sites: Vec<_> = prod.iter().map(|m| m.site).collect();
        assert!(sites.contains(&Site::Rbrc));
        assert!(sites.contains(&Site::Ukqcd));
        assert!(sites.contains(&Site::UsLgt));
    }

    #[test]
    fn rack_shape_is_papers() {
        let m = by_name("rack-1024").unwrap();
        assert_eq!(m.shape.dims(), &[8, 4, 4, 2, 2, 2]);
    }

    #[test]
    fn development_ladder_sizes() {
        // §4: "we have successfully run our QCD application on 64, 128 and
        // 512 node QCDOC machines".
        for (name, nodes) in [("bringup-64", 64), ("bench-128", 128), ("dev-512", 512)] {
            assert_eq!(by_name(name).unwrap().nodes, nodes);
        }
    }

    #[test]
    fn lookup_missing_machine() {
        assert!(by_name("bluegene-l").is_none());
    }
}
