//! Property-based tests for torus geometry invariants.

use proptest::prelude::*;
use qcdoc_geometry::fold::FoldCycle;
use qcdoc_geometry::{NodeCoord, NodeId, Partition, PartitionSpec, TorusShape};

/// Strategy: a torus shape of rank 1..=6 with small even-ish extents.
fn torus_shape() -> impl Strategy<Value = TorusShape> {
    prop::collection::vec(
        prop_oneof![Just(1usize), Just(2), Just(3), Just(4), Just(6)],
        1..=6,
    )
    .prop_map(|dims| TorusShape::new(&dims))
}

/// Strategy: a torus with all-even extents (foldable).
fn even_torus_shape() -> impl Strategy<Value = TorusShape> {
    prop::collection::vec(prop_oneof![Just(2usize), Just(4), Just(8)], 2..=6)
        .prop_map(|dims| TorusShape::new(&dims))
}

proptest! {
    #[test]
    fn rank_coord_roundtrip(shape in torus_shape(), seed in 0usize..10_000) {
        let n = shape.node_count();
        let id = NodeId((seed % n) as u32);
        prop_assert_eq!(shape.rank_of(shape.coord_of(id)), id);
    }

    #[test]
    fn neighbour_is_involution_via_opposite(shape in torus_shape(), seed in 0usize..10_000) {
        let id = NodeId((seed % shape.node_count()) as u32);
        let c = shape.coord_of(id);
        for (d, ..) in shape.wires(id) {
            let back = shape.neighbour(shape.neighbour(c, d), d.opposite());
            prop_assert_eq!(back, c);
        }
    }

    #[test]
    fn distance_is_symmetric_and_triangle(shape in torus_shape(), s1 in 0usize..10_000, s2 in 0usize..10_000, s3 in 0usize..10_000) {
        let n = shape.node_count();
        let a = shape.coord_of(NodeId((s1 % n) as u32));
        let b = shape.coord_of(NodeId((s2 % n) as u32));
        let c = shape.coord_of(NodeId((s3 % n) as u32));
        prop_assert_eq!(shape.distance(a, b), shape.distance(b, a));
        prop_assert!(shape.distance(a, c) <= shape.distance(a, b) + shape.distance(b, c));
        prop_assert_eq!(shape.distance(a, a), 0);
    }

    #[test]
    fn neighbour_distance_is_at_most_one(shape in torus_shape(), seed in 0usize..10_000) {
        let c = shape.coord_of(NodeId((seed % shape.node_count()) as u32));
        for axis in 0..shape.rank() {
            let d = qcdoc_geometry::Axis(axis as u8).plus();
            let nb = shape.neighbour(c, d);
            prop_assert!(shape.distance(c, nb) <= 1);
        }
    }

    #[test]
    fn fold_is_bijective(dims in prop::collection::vec(prop_oneof![Just(2usize), Just(4)], 1..=4)) {
        let f = FoldCycle::new(&dims).unwrap();
        let mut seen = std::collections::HashSet::new();
        for i in 0..f.len() {
            let c = f.coord_at(i);
            prop_assert_eq!(f.pos_of(&c), i);
            prop_assert!(seen.insert(c));
        }
        prop_assert_eq!(seen.len(), f.len());
    }

    #[test]
    fn full_machine_fold_has_unit_dilation(shape in even_torus_shape(), split in 1usize..6) {
        // Group the axes into two contiguous groups at `split`.
        let rank = shape.rank();
        let cut = split.min(rank.saturating_sub(1)).max(1);
        if cut >= rank {
            return Ok(());
        }
        let g0: Vec<usize> = (0..cut).collect();
        let g1: Vec<usize> = (cut..rank).collect();
        let spec = PartitionSpec {
            origin: NodeCoord::ORIGIN,
            extents: shape.dims().to_vec(),
            groups: vec![g0, g1],
        };
        let p = Partition::new(&shape, spec).unwrap();
        prop_assert_eq!(p.node_count(), shape.node_count());
        prop_assert_eq!(p.dilation(), 1);
    }

    #[test]
    fn partition_is_bijective(shape in even_torus_shape()) {
        let spec = PartitionSpec::whole_machine(
            &shape,
            &[&(0..shape.rank()).collect::<Vec<_>>()[..]],
        );
        let p = Partition::new(&shape, spec).unwrap();
        let mut phys = std::collections::HashSet::new();
        for lc in p.logical_shape().coords() {
            let pc = p.physical_of(lc);
            prop_assert_eq!(p.logical_of(pc), Some(lc));
            prop_assert!(phys.insert(pc));
        }
        prop_assert_eq!(phys.len(), shape.node_count());
    }

    /// Packing edge: a sub-box partition (multi-axis folds close without
    /// wrap links) keeps unit dilation wherever it is placed, and its
    /// `physical_of`/`logical_of` maps stay exact inverses.
    #[test]
    fn sub_box_partition_round_trips_with_unit_dilation(
        ox in 0usize..=2, ot in 0usize..=2, seed in 0usize..10_000
    ) {
        let shape = TorusShape::new(&[4, 4, 2, 2]);
        let mut origin = NodeCoord::ORIGIN;
        origin.set(0, ox);
        origin.set(1, ot);
        let spec = PartitionSpec {
            origin,
            extents: vec![2, 2, 2, 2],
            groups: vec![vec![0, 2], vec![1, 3]],
        };
        let p = Partition::new(&shape, spec).unwrap();
        prop_assert_eq!(p.node_count(), 16);
        // Dilation is bounded below by 1 (some neighbour pair is distinct)
        // and above by 1 (every fold hop is a physical hop).
        prop_assert_eq!(p.dilation(), 1);
        let lc = p.logical_shape().coord_of(NodeId((seed % 16) as u32));
        let pc = p.physical_of(lc);
        prop_assert_eq!(p.logical_of(pc), Some(lc));
        // A physical node outside the sub-box is not in the partition.
        let mut outside = origin;
        outside.set(2, 1);
        outside.set(0, (ox + 2) % 4);
        if outside.get(0) < ox || outside.get(0) >= ox + 2 {
            prop_assert_eq!(p.logical_of(outside), None);
        }
    }

    /// Packing edge: two concurrently placed sub-boxes either overlap —
    /// and then an occupancy map refuses the second — or are disjoint,
    /// and both place. `Partition::overlaps` must agree exactly with the
    /// mask arithmetic.
    #[test]
    fn overlapping_concurrent_specs_are_rejected(
        a0 in 0usize..=2, a1 in 0usize..=2, b0 in 0usize..=2, b1 in 0usize..=2
    ) {
        let shape = TorusShape::new(&[4, 4, 2, 2]);
        let mk = |x: usize, y: usize| {
            let mut origin = NodeCoord::ORIGIN;
            origin.set(0, x);
            origin.set(1, y);
            PartitionSpec {
                origin,
                extents: vec![2, 2, 2, 2],
                groups: vec![vec![0, 2], vec![1, 3]],
            }
        };
        let pa = Partition::new(&shape, mk(a0, a1)).unwrap();
        let pb = Partition::new(&shape, mk(b0, b1)).unwrap();
        let boxes_overlap = a0.abs_diff(b0) < 2 && a1.abs_diff(b1) < 2;
        prop_assert_eq!(pa.overlaps(&pb), boxes_overlap);
        prop_assert!(pa.overlaps(&pa));
        let mut map = qcdoc_geometry::OccupancyMap::new(shape);
        prop_assert!(map.spec_free(pa.spec()));
        map.occupy_spec(pa.spec());
        prop_assert_eq!(map.spec_free(pb.spec()), !boxes_overlap);
        // Vacating restores the map exactly.
        map.vacate_spec(pa.spec());
        prop_assert!(map.spec_free(pb.spec()));
        prop_assert_eq!(map.free_count(), 64);
    }

    /// Packing edge: `fit_origins` returns exactly the origins whose box
    /// is free, in rank order, and `best_fit` returns one of them.
    #[test]
    fn fit_origins_agree_with_box_free(taken_seed in 0u64..1_000) {
        let shape = TorusShape::new(&[4, 2, 2]);
        let n = shape.node_count();
        let mask: Vec<bool> = (0..n)
            .map(|i| (taken_seed >> (i % 10)) & 1 == 1 && i % 3 == 0)
            .collect();
        let map = qcdoc_geometry::OccupancyMap::from_mask(shape.clone(), mask);
        let extents = [2usize, 2, 1];
        let fits = map.fit_origins(&extents, usize::MAX);
        let mut expected = Vec::new();
        for id in 0..n {
            let c = shape.coord_of(NodeId(id as u32));
            if map.box_in_bounds(c, &extents) && map.box_free(c, &extents) {
                expected.push(c);
            }
        }
        prop_assert_eq!(&fits, &expected);
        match map.best_fit(&extents) {
            Some(origin) => prop_assert!(fits.contains(&origin)),
            None => prop_assert!(fits.is_empty()),
        }
    }
}
