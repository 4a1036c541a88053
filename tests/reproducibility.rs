//! Experiment E7: the §4 bit-reproducibility verification, end to end.
//!
//! "A five day simulation was completed on a 128 node machine … and then
//! redone, with the requirement that the resulting QCD configuration be
//! identical in all bits. This was found to be the case. No hardware
//! errors on the SCU links were reported."

use qcdoc::core::distributed::{
    block_fingerprint, dslash_local_async, wilson_solve_cg_async, BlockGeom,
};
use qcdoc::core::functional::{FaultEvent, FaultPlan};
use qcdoc::core::ShardedMachine;
use qcdoc::geometry::TorusShape;
use qcdoc::lattice::field::{FermionField, GaugeField, Lattice};
use qcdoc::lattice::gauge::{evolve, EvolveParams};

#[test]
fn gauge_evolution_rerun_is_bit_identical() {
    let lat = Lattice::new([4, 4, 2, 2]);
    let run = || {
        let mut g = GaugeField::hot(lat, 777);
        let history = evolve(&mut g, EvolveParams::default(), 2004, 8);
        (
            g.fingerprint(),
            history.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
        )
    };
    let (f1, h1) = run();
    let (f2, h2) = run();
    assert_eq!(f1, f2, "configurations must be identical in all bits");
    assert_eq!(h1, h2, "plaquette histories must be identical in all bits");
}

#[test]
fn distributed_solve_identical_with_and_without_injected_faults() {
    let global = Lattice::new([4, 4, 2, 2]);
    let gauge = GaugeField::hot(global, 13);
    let b = FermionField::gaussian(global, 14);
    let solve = |plan: FaultPlan| {
        let machine = ShardedMachine::new(TorusShape::new(&[2, 2])).with_faults(plan);
        machine.run(async |ctx| {
            let geom = BlockGeom::new(ctx, global);
            let lg = geom.extract_gauge(&gauge);
            let lb = geom.extract_fermion(&b);
            let (x, report) = wilson_solve_cg_async(ctx, &geom, &lg, &lb, 0.12, 1e-8, 2000).await;
            (block_fingerprint(&x), report.iterations, report.link_errors)
        })
    };
    let clean = solve(FaultPlan::default());
    let noisy = solve(
        FaultPlan::new(13)
            .with_event(FaultEvent::bit_flip(0, 0, 11, 8))
            .with_event(FaultEvent::bit_flip(2, 3, 70, 33)),
    );
    // Clean run reports no hardware errors (the paper's observation).
    assert!(clean.iter().all(|r| r.2 == 0));
    // Faulty run detects and heals them; physics identical in all bits.
    assert!(noisy.iter().map(|r| r.2).sum::<u64>() >= 2);
    for (c, n) in clean.iter().zip(&noisy) {
        assert_eq!(c.0, n.0, "solution bits diverged under link faults");
        assert_eq!(c.1, n.1, "iteration count diverged under link faults");
    }
}

#[test]
fn decomposition_does_not_change_dslash_bits() {
    // The same global dslash computed on two different machine shapes must
    // agree bitwise with the single-node reference (and hence each other).
    let global = Lattice::new([4, 4, 4, 2]);
    let gauge = GaugeField::hot(global, 21);
    let psi = FermionField::gaussian(global, 22);
    let mut reference = FermionField::zero(global);
    qcdoc::lattice::wilson::WilsonDirac::new(&gauge, 0.1).dslash(&mut reference, &psi);

    for shape in [
        TorusShape::new(&[2, 2]),
        TorusShape::new(&[2, 2, 2]),
        TorusShape::new(&[4]),
    ] {
        let machine = ShardedMachine::new(shape.clone());
        let ok = machine.run(async |ctx| {
            let geom = BlockGeom::new(ctx, global);
            let lg = geom.extract_gauge(&gauge);
            let lp = geom.extract_fermion(&psi);
            let out = dslash_local_async(ctx, &geom, &lg, &lp).await;
            geom.local.sites().all(|l| {
                let want = reference.site(geom.global_site(l));
                (0..4).all(|s| {
                    (0..3).all(|c| {
                        out[l].0[s].0[c].re.to_bits() == want.0[s].0[c].re.to_bits()
                            && out[l].0[s].0[c].im.to_bits() == want.0[s].0[c].im.to_bits()
                    })
                })
            })
        });
        assert!(
            ok.iter().all(|&x| x),
            "shape {shape} diverged from reference"
        );
    }
}

#[test]
fn checkpointed_solve_is_bit_identical_to_uninterrupted_solve() {
    // The self-healing story leans on this: interrupting a CG solve at a
    // checkpoint and resuming from the archived bits must not change a
    // single bit of the answer, or a recovered campaign would silently
    // diverge from an unrecovered one.
    use qcdoc::lattice::checkpoint::{read_checkpoint, write_checkpoint, CgCheckpoint};
    use qcdoc::lattice::solver::{resume_cgne, solve_cgne, solve_cgne_checkpointed, CgParams};
    use qcdoc::lattice::wilson::WilsonDirac;

    let lat = Lattice::new([4, 4, 4, 4]);
    let gauge = GaugeField::hot(lat, 2004);
    let b = FermionField::gaussian(lat, 10);
    let params = CgParams {
        tolerance: 1e-8,
        max_iterations: 500,
    };
    let op = WilsonDirac::new(&gauge, 0.11);

    let mut x_ref = FermionField::zero(lat);
    let ref_report = solve_cgne(&op, &mut x_ref, &b, params);
    assert!(ref_report.converged);

    let mut x_ck = FermionField::zero(lat);
    let mut sink: Vec<CgCheckpoint> = Vec::new();
    let ck_report = solve_cgne_checkpointed(&op, &mut x_ck, &b, params, 4, &mut sink);
    assert_eq!(
        x_ref.fingerprint(),
        x_ck.fingerprint(),
        "writing checkpoints must not perturb the solve"
    );
    assert_eq!(ref_report.residuals, ck_report.residuals);
    assert!(!sink.is_empty());

    // Resume from an archived mid-solve checkpoint (through bytes, as a
    // restart after a crash would) and land on the same bits.
    let restored = read_checkpoint(&write_checkpoint(&sink[sink.len() / 2])).unwrap();
    let (x_res, res_report) = resume_cgne(&op, &b, &restored, params).unwrap();
    assert_eq!(
        x_ref.fingerprint(),
        x_res.fingerprint(),
        "resumed solution bits diverged"
    );
    assert_eq!(ref_report.iterations, res_report.iterations);
    assert_eq!(
        ref_report
            .residuals
            .iter()
            .map(|r| r.to_bits())
            .collect::<Vec<_>>(),
        res_report
            .residuals
            .iter()
            .map(|r| r.to_bits())
            .collect::<Vec<_>>(),
        "residual history diverged after resume"
    );
}

#[test]
fn link_checksums_agree_after_a_noisy_run() {
    // §2.2: "checksums at each end of the link are kept, so at the
    // conclusion of a calculation, these checksums can be compared."
    use qcdoc::geometry::Axis;
    use qcdoc::scu::dma::DmaDescriptor;
    let plan = FaultPlan::new(0).with_event(FaultEvent::bit_flip(0, 0, 1, 25));
    let machine = ShardedMachine::new(TorusShape::new(&[2])).with_faults(plan);
    let results = machine.run(async |ctx| {
        for i in 0..16u64 {
            ctx.mem
                .write_word(0x100 + i * 8, ctx.id.0 as u64 * 1000 + i)
                .unwrap();
        }
        ctx.shift_async(
            Axis(0).plus(),
            DmaDescriptor::contiguous(0x100, 16),
            DmaDescriptor::contiguous(0x800, 16),
        )
        .await;
        // Report this node's send checksum (toward +x) and receive checksum
        // (from -x): on a 2-ring they pair up across the two nodes.
        (
            ctx.send_checksum(Axis(0).plus()),
            ctx.recv_checksum(Axis(0).minus()),
            ctx.link_errors(),
        )
    });
    // Node 0's send pairs with node 1's receive and vice versa.
    assert_eq!(
        results[0].0, results[1].1,
        "node0 -> node1 checksum mismatch"
    );
    assert_eq!(
        results[1].0, results[0].1,
        "node1 -> node0 checksum mismatch"
    );
    assert!(
        results.iter().map(|r| r.2).sum::<u64>() >= 1,
        "the fault must be seen"
    );
}
