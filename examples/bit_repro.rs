//! Bit-reproducibility (experiment E7) — the paper's §4 verification run,
//! in miniature: "A five day simulation was completed on a 128 node
//! machine in December, 2003 and then redone, with the requirement that
//! the resulting QCD configuration be identical in all bits. This was
//! found to be the case. No hardware errors on the SCU links were
//! reported."
//!
//! We go one step further: the second run injects bit errors on the mesh
//! links; the SCU's automatic parity-resend heals them, so the physics is
//! *still* identical in all bits while the hardware status reports the
//! faults.
//!
//! ```text
//! cargo run --release --example bit_repro
//! ```

use qcdoc::core::distributed::{block_fingerprint, wilson_solve_cg_async, BlockGeom};
use qcdoc::core::functional::{FaultEvent, FaultPlan};
use qcdoc::core::ShardedMachine;
use qcdoc::geometry::TorusShape;
use qcdoc::lattice::field::{FermionField, GaugeField, Lattice};
use qcdoc::lattice::gauge::{average_plaquette, evolve, EvolveParams};

fn main() {
    // --- Part 1: the gauge evolution rerun (the paper's actual test).
    let lat = Lattice::new([4, 4, 4, 4]);
    println!("evolving a 4^4 quenched configuration twice from the same seed ...");
    let mut first = GaugeField::hot(lat, 2003);
    let h1 = evolve(&mut first, EvolveParams::default(), 12, 10);
    let mut second = GaugeField::hot(lat, 2003);
    let h2 = evolve(&mut second, EvolveParams::default(), 12, 10);
    assert_eq!(first.fingerprint(), second.fingerprint());
    println!(
        "  run 1 fingerprint {:016x}\n  run 2 fingerprint {:016x}  -> identical in all bits",
        first.fingerprint(),
        second.fingerprint()
    );
    println!(
        "  plaquette history: {:.4} -> {:.4} (both runs bit-identical)\n",
        h1[0],
        h2.last().unwrap()
    );

    // --- Part 2: a distributed solve, rerun with injected link errors.
    let global = Lattice::new([4, 4, 2, 2]);
    let gauge = GaugeField::hot(global, 99);
    let b = FermionField::gaussian(global, 98);
    println!(
        "distributed Wilson CG on a 2x2 functional machine (plaquette {:.4}) ...",
        average_plaquette(&gauge)
    );

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
        FaultPlan::new(2003)
            .with_event(FaultEvent::bit_flip(0, 0, 5, 13))
            .with_event(FaultEvent::bit_flip(1, 2, 40, 60))
            .with_event(FaultEvent::bit_flip(3, 1, 100, 7)),
    );

    let clean_errors: u64 = clean.iter().map(|r| r.2).sum();
    let noisy_errors: u64 = noisy.iter().map(|r| r.2).sum();
    println!(
        "  clean run : {} iterations, {} link errors",
        clean[0].1, clean_errors
    );
    println!(
        "  faulty run: {} iterations, {} link errors (injected 3 bit flips)",
        noisy[0].1, noisy_errors
    );

    for (node, (c, n)) in clean.iter().zip(&noisy).enumerate() {
        assert_eq!(c.0, n.0, "node {node} solution diverged under faults");
        assert_eq!(c.1, n.1, "iteration counts diverged");
    }
    println!(
        "  solutions identical in all bits on every node — the hardware resend made\n  \
         the corruption invisible to the physics, exactly as §2.2 promises."
    );
    assert!(noisy_errors >= 3);
}
