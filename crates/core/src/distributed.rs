//! Lattice QCD distributed over the functional machine.
//!
//! Each node owns a hyper-rectangular block of the global lattice (§1:
//! "each processor becomes responsible for the local variables associated
//! with a space-time hypercube"). A Wilson dslash then needs, from each of
//! the eight neighbours, the spin-projected half-spinors of the adjacent
//! face — 6 complex numbers per face site, staged into node memory and
//! moved by the SCU DMA engines over the real link protocol.
//!
//! The arithmetic is ordered so that the distributed operator is **bitwise
//! identical** to the single-node reference in `qcdoc-lattice`: the same
//! project → SU(3)-multiply → reconstruct → accumulate sequence runs for
//! every site, only the *location* of the data differs. That is the
//! property behind the §4 reproducibility result, and the integration
//! tests assert it — including under injected link faults, where the
//! hardware resend makes corruption invisible to the physics.

use crate::comm::{global_sum_f64_async, COMM_SCRATCH_BASE};
use crate::functional::NodeCtx;
use qcdoc_asic::memory::NodeMemory;
use qcdoc_geometry::{Axis, NodeId, TorusShape};
use qcdoc_lattice::checkpoint::CgCheckpoint;
use qcdoc_lattice::complex::C64;
use qcdoc_lattice::counts::HALF_SPINOR_BYTES;
use qcdoc_lattice::field::{FermionField, GaugeField, Lattice};
use qcdoc_lattice::spinor::{HalfSpinor, ProjSign, Spinor, WORDS_PER_SPINOR};
use qcdoc_lattice::su3::Su3;
use qcdoc_scu::dma::DmaDescriptor;
use qcdoc_telemetry::Phase;

/// Words per half-spinor on the wire (6 complex = 12 × u64): what
/// `lattice::counts`, [`crate::perf`] and the paper charge per face site.
const HALF_WORDS: u64 = HALF_SPINOR_BYTES / 8;

/// Wilson hopping-term floating-point operations per site (§4: the
/// familiar 1320-flop dslash figure — 8 directions of SU(3) half-spinor
/// multiply, project and reconstruct).
const WILSON_FLOPS_PER_SITE: u64 = 1320;

/// Operator name stamped into (and demanded of) every distributed
/// checkpoint — `WilsonDirac`'s [`DiracOperator::name`], so a checkpoint
/// moves freely between this solver and the serial one.
///
/// [`DiracOperator::name`]: qcdoc_lattice::solver::DiracOperator::name
const OPERATOR: &str = "wilson";

/// Logical compute cycles for `sites` lattice sites at `flops` per site,
/// assuming the paper's two floating-point operations per cycle (one
/// fused multiply-add per clock, §3.1).
fn compute_cycles(sites: usize, flops: u64) -> u64 {
    (sites as u64 * flops) / 2
}

/// The block decomposition seen from one node.
#[derive(Debug, Clone)]
pub struct BlockGeom {
    /// The global lattice.
    pub global: Lattice,
    /// The local block.
    pub local: Lattice,
    /// Logical machine extents (padded to 4 axes).
    pub mdims: [usize; 4],
    /// This node's machine coordinate.
    pub mcoord: [usize; 4],
}

impl BlockGeom {
    /// Build the decomposition for this node. The machine's logical rank
    /// must be ≤ 4 and each global extent divisible by the machine extent.
    pub fn new(ctx: &NodeCtx, global: Lattice) -> BlockGeom {
        BlockGeom::for_node(&ctx.shape, ctx.id, global)
    }

    /// Ctx-free decomposition for any node of a shape — what a host-side
    /// recovery planner uses to place per-node blocks into a global
    /// checkpoint without running on the machine.
    pub fn for_node(shape: &TorusShape, node: NodeId, global: Lattice) -> BlockGeom {
        assert!(
            shape.rank() <= 4,
            "lattice decomposition uses at most 4 machine axes"
        );
        let coord = shape.coord_of(node);
        let mut mdims = [1usize; 4];
        let mut mcoord = [0usize; 4];
        for a in 0..shape.rank() {
            mdims[a] = shape.extent(a);
            mcoord[a] = coord.get(a);
        }
        let gd = global.dims();
        let mut ld = [0usize; 4];
        for a in 0..4 {
            assert_eq!(
                gd[a] % mdims[a],
                0,
                "lattice extent not divisible on axis {a}"
            );
            ld[a] = gd[a] / mdims[a];
        }
        BlockGeom {
            global,
            local: Lattice::new(ld),
            mdims,
            mcoord,
        }
    }

    /// Global site index of a local site.
    pub fn global_site(&self, local_idx: usize) -> usize {
        let lc = self.local.coord(local_idx);
        let ld = self.local.dims();
        let mut gc = [0usize; 4];
        for a in 0..4 {
            gc[a] = self.mcoord[a] * ld[a] + lc[a];
        }
        self.global.index(gc)
    }

    /// Extract this node's gauge block from a global field.
    pub fn extract_gauge(&self, g: &GaugeField) -> Vec<[Su3; 4]> {
        assert_eq!(g.lattice(), self.global);
        self.local
            .sites()
            .map(|l| {
                let gsite = self.global_site(l);
                [
                    *g.link(gsite, 0),
                    *g.link(gsite, 1),
                    *g.link(gsite, 2),
                    *g.link(gsite, 3),
                ]
            })
            .collect()
    }

    /// Extract this node's fermion block from a global field.
    pub fn extract_fermion(&self, f: &FermionField) -> Vec<Spinor> {
        assert_eq!(f.lattice(), self.global);
        self.local
            .sites()
            .map(|l| *f.site(self.global_site(l)))
            .collect()
    }

    /// Number of sites on the face normal to `mu`.
    pub fn face_sites(&self, mu: usize) -> usize {
        self.local.volume() / self.local.dims()[mu]
    }

    /// Dense index of a site within the face normal to `mu` (lexicographic
    /// over the other axes, x fastest).
    pub fn face_index(&self, lc: [usize; 4], mu: usize) -> usize {
        let ld = self.local.dims();
        let mut idx = 0usize;
        for a in (0..4).rev() {
            if a == mu {
                continue;
            }
            idx = idx * ld[a] + lc[a];
        }
        idx
    }

    /// Whether hops along `mu` leave the node (machine spans the axis).
    pub fn off_node(&self, mu: usize) -> bool {
        self.mdims[mu] > 1
    }
}

/// Staging layout inside EDRAM: 16 slots (8 send + 8 receive, one per
/// signed direction), sized for the largest face, below the comm scratch.
struct Staging {
    base: u64,
    slot_bytes: u64,
}

impl Staging {
    fn new(geom: &BlockGeom) -> Staging {
        let max_face = (0..4).map(|m| geom.face_sites(m)).max().unwrap() as u64;
        let slot_bytes = max_face * HALF_WORDS * 8;
        Staging {
            base: COMM_SCRATCH_BASE - 16 * slot_bytes,
            slot_bytes,
        }
    }

    /// Byte address of `slot`: `2μ`/`2μ+1` send the low/high face of axis
    /// μ, `8+2μ`/`8+2μ+1` receive from its +μ/−μ neighbour.
    fn slot(&self, slot: usize) -> u64 {
        self.base + slot as u64 * self.slot_bytes
    }
}

/// Pack both faces of every spanned axis into the staging slots and arm
/// all sends/receives; returns the direction lists a completion wait
/// needs.
fn arm_face_exchange(
    ctx: &mut NodeCtx,
    geom: &BlockGeom,
    gauge: &[[Su3; 4]],
    psi: &[Spinor],
) -> (
    Vec<qcdoc_geometry::Direction>,
    Vec<qcdoc_geometry::Direction>,
) {
    let ld = geom.local.dims();
    let staging = Staging::new(geom);
    let mut sends = Vec::new();
    let mut recvs = Vec::new();
    for mu in 0..4 {
        if !geom.off_node(mu) {
            continue;
        }
        let faces = geom.face_sites(mu) as u64;
        // Pack the low face (x_mu = 0): P− ψ, wanted by the −μ neighbour.
        let send_lo = staging.slot(2 * mu);
        // Pack the high face: U†_μ (1+γ_μ) ψ, wanted by the +μ neighbour.
        let send_hi = staging.slot(2 * mu + 1);
        for l in geom.local.sites() {
            let lc = geom.local.coord(l);
            if lc[mu] == 0 {
                let h = psi[l].project(mu, ProjSign::Minus);
                let base = send_lo + geom.face_index(lc, mu) as u64 * HALF_WORDS * 8;
                ctx.mem.write_block(base, &h.to_words()).unwrap();
            }
            if lc[mu] == ld[mu] - 1 {
                let h = psi[l]
                    .project(mu, ProjSign::Plus)
                    .adj_mul_su3(&gauge[l][mu]);
                let base = send_hi + geom.face_index(lc, mu) as u64 * HALF_WORDS * 8;
                ctx.mem.write_block(base, &h.to_words()).unwrap();
            }
        }
        let axis = Axis(mu as u8);
        // Receives: from +μ (their low face) and from −μ (their high face).
        let recv_plus = staging.slot(8 + 2 * mu);
        let recv_minus = staging.slot(8 + 2 * mu + 1);
        ctx.start_recv(
            axis.plus(),
            DmaDescriptor::contiguous(recv_plus, (faces * HALF_WORDS) as u32),
        );
        ctx.start_recv(
            axis.minus(),
            DmaDescriptor::contiguous(recv_minus, (faces * HALF_WORDS) as u32),
        );
        // Sends: low face toward −μ, high face toward +μ.
        ctx.start_send(
            axis.minus(),
            DmaDescriptor::contiguous(send_lo, (faces * HALF_WORDS) as u32),
        );
        ctx.start_send(
            axis.plus(),
            DmaDescriptor::contiguous(send_hi, (faces * HALF_WORDS) as u32),
        );
        sends.push(axis.plus());
        sends.push(axis.minus());
        recvs.push(axis.plus());
        recvs.push(axis.minus());
    }
    (sends, recvs)
}

/// Unpack the received half-spinor faces out of the staging slots — the
/// read-side counterpart of [`arm_face_exchange`], run after completion.
#[allow(clippy::type_complexity)]
fn unpack_faces(
    ctx: &mut NodeCtx,
    geom: &BlockGeom,
) -> ([Vec<HalfSpinor>; 4], [Vec<HalfSpinor>; 4]) {
    let staging = Staging::new(geom);
    let mut from_plus: [Vec<HalfSpinor>; 4] = Default::default();
    let mut from_minus: [Vec<HalfSpinor>; 4] = Default::default();
    for mu in 0..4 {
        if !geom.off_node(mu) {
            continue;
        }
        let faces = geom.face_sites(mu) as u64;
        from_plus[mu] = read_face(&mut ctx.mem, staging.slot(8 + 2 * mu), faces);
        from_minus[mu] = read_face(&mut ctx.mem, staging.slot(8 + 2 * mu + 1), faces);
    }
    (from_plus, from_minus)
}

/// Read the `faces` half-spinors staged from `base` on, each through a
/// stack buffer.
fn read_face(mem: &mut NodeMemory, base: u64, faces: u64) -> Vec<HalfSpinor> {
    (0..faces * HALF_WORDS)
        .step_by(HALF_WORDS as usize)
        .map(|first| {
            let mut words = [0u64; HALF_WORDS as usize];
            for (i, word) in words.iter_mut().enumerate() {
                *word = mem.read_word(base + (first + i as u64) * 8).unwrap();
            }
            HalfSpinor::from_words(&words)
        })
        .collect()
}

/// Exchange all faces of `psi`: returns, per axis, the half-spinors
/// arriving from the +μ neighbour (their projected low face) and from the
/// −μ neighbour (their `U†(1+γ)ψ` high face). Axes the machine does not
/// span return empty vectors.
pub async fn exchange_faces_async(
    ctx: &mut NodeCtx,
    geom: &BlockGeom,
    gauge: &[[Su3; 4]],
    psi: &[Spinor],
) -> ([Vec<HalfSpinor>; 4], [Vec<HalfSpinor>; 4]) {
    let (sends, recvs) = arm_face_exchange(ctx, geom, gauge, psi);
    ctx.complete_async(&sends, &recvs).await;
    unpack_faces(ctx, geom)
}

/// The site loop of the Wilson hopping term: per site, for each μ, forward
/// project → SU(3) multiply → reconstruct, then backward — the exact
/// order the single-node reference uses, so the distributed operator
/// stays bitwise identical to it.
fn dslash_compute(
    ctx: &mut NodeCtx,
    geom: &BlockGeom,
    gauge: &[[Su3; 4]],
    psi: &[Spinor],
    from_plus: &[Vec<HalfSpinor>; 4],
    from_minus: &[Vec<HalfSpinor>; 4],
) -> Vec<Spinor> {
    let token = ctx.telem.begin();
    let local = geom.local;
    let ld = local.dims();
    let mut out = vec![Spinor::ZERO; local.volume()];
    for l in local.sites() {
        let lc = local.coord(l);
        let mut acc = Spinor::ZERO;
        for mu in 0..4 {
            // Forward hop: U_mu(x) (1-gamma) psi(x+mu).
            let hf = if geom.off_node(mu) && lc[mu] == ld[mu] - 1 {
                from_plus[mu][geom.face_index(lc, mu)]
            } else {
                let xf = local.neighbour(l, mu, true);
                psi[xf].project(mu, ProjSign::Minus)
            };
            acc += Spinor::reconstruct(&hf.mul_su3(&gauge[l][mu]), mu, ProjSign::Minus);
            // Backward hop: U_mu(x-mu)^dag (1+gamma) psi(x-mu).
            let hb = if geom.off_node(mu) && lc[mu] == 0 {
                from_minus[mu][geom.face_index(lc, mu)]
            } else {
                let xb = local.neighbour(l, mu, false);
                psi[xb]
                    .project(mu, ProjSign::Plus)
                    .adj_mul_su3(&gauge[xb][mu])
            };
            acc += Spinor::reconstruct(&hb, mu, ProjSign::Plus);
        }
        out[l] = acc;
    }
    ctx.telem
        .advance(compute_cycles(local.volume(), WILSON_FLOPS_PER_SITE));
    ctx.telem.end_with(
        token,
        "dslash.compute",
        Phase::Compute,
        local.volume() as u64,
    );
    ctx.telem.counter_add("dslash_applications", 1);
    out
}

/// Distributed Wilson hopping term on this node's block.
pub async fn dslash_local_async(
    ctx: &mut NodeCtx,
    geom: &BlockGeom,
    gauge: &[[Su3; 4]],
    psi: &[Spinor],
) -> Vec<Spinor> {
    let (from_plus, from_minus) = exchange_faces_async(ctx, geom, gauge, psi).await;
    dslash_compute(ctx, geom, gauge, psi, &from_plus, &from_minus)
}

/// Distributed Wilson operator `M = 1 − κ D`.
pub async fn wilson_apply_async(
    ctx: &mut NodeCtx,
    geom: &BlockGeom,
    gauge: &[[Su3; 4]],
    psi: &[Spinor],
    kappa: f64,
) -> Vec<Spinor> {
    let mut out = dslash_local_async(ctx, geom, gauge, psi).await;
    let mk = C64::real(-kappa);
    for (o, p) in out.iter_mut().zip(psi) {
        *o = p.axpy(mk, o);
    }
    out
}

/// Distributed `M† = γ₅ M γ₅`.
pub async fn wilson_apply_dagger_async(
    ctx: &mut NodeCtx,
    geom: &BlockGeom,
    gauge: &[[Su3; 4]],
    psi: &[Spinor],
    kappa: f64,
) -> Vec<Spinor> {
    let g5: Vec<Spinor> = psi.iter().map(|s| s.apply_gamma5()).collect();
    let mid = wilson_apply_async(ctx, geom, gauge, &g5, kappa).await;
    mid.iter().map(|s| s.apply_gamma5()).collect()
}

/// Block vector helpers with machine-wide reductions.
fn axpy(x: &mut [Spinor], a: f64, y: &[Spinor]) {
    let ac = C64::real(a);
    for (xi, yi) in x.iter_mut().zip(y) {
        *xi = xi.axpy(ac, yi);
    }
}

fn xpay(p: &mut [Spinor], a: f64, r: &[Spinor]) {
    let ac = C64::real(a);
    for (pi, ri) in p.iter_mut().zip(r) {
        *pi = ri.axpy(ac, pi);
    }
}

fn local_norm_sqr(x: &[Spinor]) -> f64 {
    x.iter().map(|s| s.norm_sqr()).sum()
}

fn local_dot_re(x: &[Spinor], y: &[Spinor]) -> f64 {
    x.iter().zip(y).map(|(a, b)| a.dot(b).re).sum()
}

/// Result of a distributed CG solve.
#[derive(Debug, Clone, PartialEq)]
pub struct DistCgReport {
    /// Iterations performed.
    pub iterations: usize,
    /// Final relative residual.
    pub final_residual: f64,
    /// Whether the tolerance was met.
    pub converged: bool,
    /// Link-level rejects this node observed (0 on a clean run).
    pub link_errors: u64,
}

/// Distributed CGNE for the Wilson operator: solves `M x = b`; `x` starts
/// zero. The two inner products per iteration are machine-wide
/// dimension-ordered global sums — the operations §2.2's hardware global
/// mode exists for. This is one unbounded [`wilson_cg_segment_async`], so
/// a node that wedges on dead hardware stops iterating.
pub async fn wilson_solve_cg_async(
    ctx: &mut NodeCtx,
    geom: &BlockGeom,
    gauge: &[[Su3; 4]],
    b: &[Spinor],
    kappa: f64,
    tolerance: f64,
    max_iterations: usize,
) -> (Vec<Spinor>, DistCgReport) {
    let out = wilson_cg_segment_async(
        ctx,
        geom,
        gauge,
        b,
        kappa,
        tolerance,
        max_iterations,
        None,
        max_iterations,
    )
    .await;
    let final_residual = (out.rsq / out.bref).sqrt();
    ctx.telem.gauge_set("cg_final_residual", final_residual);
    ctx.telem
        .gauge_set("cg_converged", if out.converged { 1.0 } else { 0.0 });
    let report = DistCgReport {
        iterations: out.iterations,
        final_residual,
        converged: out.converged,
        link_errors: ctx.link_errors(),
    };
    (out.x, report)
}

/// The state a CG segment hands back: everything needed to checkpoint or
/// continue, plus whether the segment ended by wedging on dead hardware.
#[derive(Debug, Clone)]
pub struct CgSegmentOut {
    /// Solution block after this segment.
    pub x: Vec<Spinor>,
    /// Residual block.
    pub r: Vec<Spinor>,
    /// Search-direction block.
    pub p: Vec<Spinor>,
    /// `‖r‖²` after this segment.
    pub rsq: f64,
    /// Reference scale.
    pub bref: f64,
    /// Total iterations completed (across all segments).
    pub iterations: usize,
    /// Relative residual of every iteration completed so far: the
    /// checkpointed prefix followed by this segment's tail, so
    /// `residuals.len() == iterations`.
    pub residuals: Vec<f64>,
    /// Whether the tolerance is met.
    pub converged: bool,
    /// Whether this node gave up on a silent wire mid-segment; the state
    /// above is then garbage and the segment must be discarded.
    pub wedged: bool,
}

/// One bounded segment of the distributed Wilson CGNE: at most
/// `segment_iters` iterations, starting fresh (`resume = None`) or from a
/// global checkpoint — written by [`assemble_checkpoint`] on *any* machine
/// shape, or by the serial solver — out of which this node takes its own
/// blocks, the scalar recurrence and the residual history. Chaining
/// segments is **bit-identical** to one uninterrupted solve — the same
/// dimension-ordered global sums run in the same order, only control
/// returns to the caller between segments.
///
/// Panics, before any DMA is armed, if the checkpoint fails
/// [`CgCheckpoint::validate`] (another operator's, or another problem
/// size's): a node program has no error channel, and resuming such state
/// silently would be worse.
#[allow(clippy::too_many_arguments)]
pub async fn wilson_cg_segment_async(
    ctx: &mut NodeCtx,
    geom: &BlockGeom,
    gauge: &[[Su3; 4]],
    b: &[Spinor],
    kappa: f64,
    tolerance: f64,
    max_iterations: usize,
    resume: Option<&CgCheckpoint>,
    segment_iters: usize,
) -> CgSegmentOut {
    let (mut x, mut r, mut p, mut rsq, bref, mut iterations, mut residuals) = match resume {
        None => {
            let x = vec![Spinor::ZERO; b.len()];
            // r = M† b (x0 = 0).
            let r = wilson_apply_dagger_async(ctx, geom, gauge, b, kappa).await;
            let bref = global_sum_f64_async(ctx, local_norm_sqr(&r))
                .await
                .max(f64::MIN_POSITIVE);
            let p = r.clone();
            let rsq = global_sum_f64_async(ctx, local_norm_sqr(&r)).await;
            (x, r, p, rsq, bref, 0, Vec::new())
        }
        Some(ckpt) => {
            let (x, r, p) = resume_blocks(geom, ckpt);
            let history = ckpt.residuals.clone();
            (x, r, p, ckpt.rsq, ckpt.bref, ckpt.iterations, history)
        }
    };
    let mut converged = (rsq / bref).sqrt() <= tolerance;
    let mut done_here = 0usize;
    while !ctx.wedged() && !converged && iterations < max_iterations && done_here < segment_iters {
        let t = wilson_apply_async(ctx, geom, gauge, &p, kappa).await;
        let q = wilson_apply_dagger_async(ctx, geom, gauge, &t, kappa).await;
        let pq = global_sum_f64_async(ctx, local_dot_re(&p, &q)).await;
        if ctx.wedged() {
            break;
        }
        if pq <= 0.0 {
            break;
        }
        let alpha = rsq / pq;
        axpy(&mut x, alpha, &p);
        axpy(&mut r, -alpha, &q);
        let new_rsq = global_sum_f64_async(ctx, local_norm_sqr(&r)).await;
        if ctx.wedged() {
            break;
        }
        iterations += 1;
        done_here += 1;
        let rel = (new_rsq / bref).sqrt();
        residuals.push(rel);
        converged = rel <= tolerance;
        let beta = new_rsq / rsq;
        xpay(&mut p, beta, &r);
        rsq = new_rsq;
        ctx.telem.counter_add("cg_iterations", 1);
    }
    CgSegmentOut {
        x,
        r,
        p,
        rsq,
        bref,
        iterations,
        residuals,
        converged,
        wedged: ctx.wedged(),
    }
}

/// Gather per-node segment outputs into one global [`CgCheckpoint`]: each
/// site's [`Spinor::to_words`] image at its global site index, which is
/// `FermionField::to_bits` by construction — so the checkpoint is portable
/// across machine shapes (and down to a single-node resume). The scalars
/// and the residual history are taken from node 0 (the global sums make
/// them identical on every node).
pub fn assemble_checkpoint(
    shape: &TorusShape,
    global: Lattice,
    outs: &[CgSegmentOut],
) -> CgCheckpoint {
    assert_eq!(outs.len(), shape.node_count());
    let mut x = vec![[0u64; WORDS_PER_SPINOR]; global.volume()];
    let mut r = x.clone();
    let mut p = x.clone();
    for (node, out) in outs.iter().enumerate() {
        let geom = BlockGeom::for_node(shape, NodeId(node as u32), global);
        for l in geom.local.sites() {
            let g = geom.global_site(l);
            x[g] = out.x[l].to_words();
            r[g] = out.r[l].to_words();
            p[g] = out.p[l].to_words();
        }
    }
    let head = &outs[0];
    CgCheckpoint {
        operator: OPERATOR.into(),
        iterations: head.iterations,
        converged: head.converged,
        rsq: head.rsq,
        bref: head.bref,
        residuals: head.residuals.clone(),
        // Deterministic functions of the iteration count for the
        // distributed recurrence: one M† in setup, M and M† per iteration;
        // two setup reductions, two per iteration.
        applications: 1 + 2 * head.iterations,
        reductions: 2 + 2 * head.iterations,
        x: x.into_flattened(),
        r: r.into_flattened(),
        p: p.into_flattened(),
    }
}

/// This node's `(x, r, p)` blocks out of a global checkpoint — the inverse
/// of [`assemble_checkpoint`] for an arbitrary (possibly different)
/// machine shape. Panics with the [`ResumeError`]'s message if the
/// checkpoint is not a Wilson checkpoint of `geom.global`.
///
/// [`ResumeError`]: qcdoc_lattice::checkpoint::ResumeError
fn resume_blocks(geom: &BlockGeom, ckpt: &CgCheckpoint) -> (Vec<Spinor>, Vec<Spinor>, Vec<Spinor>) {
    if let Err(refusal) = ckpt.validate(OPERATOR, geom.global.volume() * WORDS_PER_SPINOR) {
        panic!("distributed CG resume refused: {refusal}");
    }
    let block = |words: &[u64]| -> Vec<Spinor> {
        let images = words.as_chunks().0;
        geom.local
            .sites()
            .map(|l| Spinor::from_words(&images[geom.global_site(l)]))
            .collect()
    };
    (block(&ckpt.x), block(&ckpt.r), block(&ckpt.p))
}

/// Bitwise fingerprint of a spinor block — the hash of
/// [`FermionField::fingerprint`](qcdoc_lattice::field::FermionField::fingerprint).
pub use qcdoc_lattice::field::fingerprint_spinors as block_fingerprint;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functional::{FaultEvent, FaultPlan};
    use crate::ShardedMachine;
    use qcdoc_geometry::TorusShape;
    use qcdoc_lattice::wilson::WilsonDirac;

    const KAPPA: f64 = 0.12;

    fn reference_dslash(global: Lattice, gauge: &GaugeField, psi: &FermionField) -> FermionField {
        let d = WilsonDirac::new(gauge, KAPPA);
        let mut out = FermionField::zero(global);
        d.dslash(&mut out, psi);
        out
    }

    #[test]
    fn distributed_dslash_is_bitwise_identical_to_reference() {
        let global = Lattice::new([4, 4, 4, 4]);
        let gauge = GaugeField::hot(global, 314);
        let psi = FermionField::gaussian(global, 315);
        let reference = reference_dslash(global, &gauge, &psi);
        let shape = TorusShape::new(&[2, 2, 2]);
        let machine = ShardedMachine::new(shape);
        let results = machine.run(async |ctx| {
            let geom = BlockGeom::new(ctx, global);
            let lg = geom.extract_gauge(&gauge);
            let lp = geom.extract_fermion(&psi);
            let out = dslash_local_async(ctx, &geom, &lg, &lp).await;
            // Compare against the reference block, bit for bit.
            let mut identical = true;
            for l in geom.local.sites() {
                let want = reference.site(geom.global_site(l));
                for s in 0..4 {
                    for c in 0..3 {
                        identical &= out[l].0[s].0[c].re.to_bits() == want.0[s].0[c].re.to_bits()
                            && out[l].0[s].0[c].im.to_bits() == want.0[s].0[c].im.to_bits();
                    }
                }
            }
            identical
        });
        assert!(
            results.iter().all(|&ok| ok),
            "distributed dslash diverged from reference"
        );
    }

    #[test]
    fn face_exchange_moves_the_bytes_lattice_counts_charges() {
        // One Wilson face exchange on a fully spanned machine: each node
        // sends both faces of every axis, one half-spinor per face site,
        // and the DMA word counter must equal what the performance model
        // prices (`lattice::counts::HALF_SPINOR_BYTES`), not a padded
        // wire format.
        let global = Lattice::new([4, 4, 4, 4]);
        let gauge = GaugeField::hot(global, 271);
        let psi = FermionField::gaussian(global, 272);
        let shape = TorusShape::new(&[2, 2, 2, 2]);
        let machine = ShardedMachine::new(shape.clone())
            .with_telemetry(crate::functional::TelemetryConfig::default());
        let (received, _, telemetry) = machine.run_with_telemetry(async |ctx| {
            let geom = BlockGeom::new(ctx, global);
            let lg = geom.extract_gauge(&gauge);
            let lp = geom.extract_fermion(&psi);
            let (plus, minus) = exchange_faces_async(ctx, &geom, &lg, &lp).await;
            plus.iter().chain(minus.iter()).map(Vec::len).sum::<usize>()
        });
        let geom = BlockGeom::for_node(&shape, NodeId(0), global);
        let face_sites: usize = (0..4).map(|mu| 2 * geom.face_sites(mu)).sum();
        let words = face_sites as u64 * HALF_SPINOR_BYTES / 8;
        assert_eq!(words, 64 * 12, "eight 2^3 faces of 12-word half-spinors");
        assert_eq!(received.len(), shape.node_count());
        for (node, &half_spinors) in received.iter().enumerate() {
            assert_eq!(half_spinors, face_sites, "node {node}");
            let labels = [("node", node.to_string())];
            for counter in ["dma_send_words", "dma_recv_words"] {
                assert_eq!(
                    telemetry.metrics.counter(counter, &labels),
                    words,
                    "node {node} {counter}"
                );
            }
        }
    }

    #[test]
    fn distributed_dslash_survives_link_faults_bitwise() {
        // E7 in miniature: corrupt frames on two links; the hardware
        // resend must make the result bit-identical anyway.
        let global = Lattice::new([4, 4, 2, 2]);
        let gauge = GaugeField::hot(global, 50);
        let psi = FermionField::gaussian(global, 51);
        let reference = reference_dslash(global, &gauge, &psi);
        let plan = FaultPlan::new(0)
            .with_event(FaultEvent::bit_flip(0, 0, 3, 17))
            .with_event(FaultEvent::bit_flip(1, 1, 7, 40));
        let machine = ShardedMachine::new(TorusShape::new(&[2, 2])).with_faults(plan);
        let results = machine.run(async |ctx| {
            let geom = BlockGeom::new(ctx, global);
            let lg = geom.extract_gauge(&gauge);
            let lp = geom.extract_fermion(&psi);
            let out = dslash_local_async(ctx, &geom, &lg, &lp).await;
            let mut identical = true;
            for l in geom.local.sites() {
                let want = reference.site(geom.global_site(l));
                for s in 0..4 {
                    for c in 0..3 {
                        identical &= out[l].0[s].0[c].re.to_bits() == want.0[s].0[c].re.to_bits();
                    }
                }
            }
            (identical, ctx.link_errors())
        });
        assert!(results.iter().all(|(ok, _)| *ok));
        let total_errors: u64 = results.iter().map(|(_, e)| e).sum();
        assert!(
            total_errors >= 2,
            "both injected faults must be detected, got {total_errors}"
        );
    }

    #[test]
    fn distributed_cg_converges_and_matches_reference_solution() {
        let global = Lattice::new([4, 4, 2, 2]);
        let gauge = GaugeField::hot(global, 60);
        let b = FermionField::gaussian(global, 61);
        // Reference solve.
        let op = WilsonDirac::new(&gauge, KAPPA);
        let mut xref = FermionField::zero(global);
        let _ = qcdoc_lattice::solver::solve_cgne(
            &op,
            &mut xref,
            &b,
            qcdoc_lattice::solver::CgParams {
                tolerance: 1e-10,
                max_iterations: 5000,
            },
        );
        let machine = ShardedMachine::new(TorusShape::new(&[2, 2]));
        let results = machine.run(async |ctx| {
            let geom = BlockGeom::new(ctx, global);
            let lg = geom.extract_gauge(&gauge);
            let lb = geom.extract_fermion(&b);
            let (x, report) = wilson_solve_cg_async(ctx, &geom, &lg, &lb, KAPPA, 1e-10, 5000).await;
            // Distance to the reference solution block.
            let mut dist = 0.0;
            let mut norm = 0.0;
            for l in geom.local.sites() {
                let want = xref.site(geom.global_site(l));
                let mut d = x[l];
                d = d.axpy(C64::real(-1.0), want);
                dist += d.norm_sqr();
                norm += want.norm_sqr();
            }
            (report, dist, norm)
        });
        for (report, dist, norm) in &results {
            assert!(
                report.converged,
                "distributed CG did not converge: {report:?}"
            );
            assert_eq!(report.link_errors, 0, "clean run must see no link errors");
            assert!(
                dist / norm < 1e-12,
                "distributed solution differs from reference: {}",
                dist / norm
            );
        }
    }

    #[test]
    fn dslash_is_worker_count_invariant() {
        let global = Lattice::new([4, 4, 2, 2]);
        let gauge = GaugeField::hot(global, 314);
        let psi = FermionField::gaussian(global, 315);
        ShardedMachine::new(TorusShape::new(&[2, 2])).run_worker_sweep(async |ctx| {
            let geom = BlockGeom::new(ctx, global);
            let lg = geom.extract_gauge(&gauge);
            let lp = geom.extract_fermion(&psi);
            block_fingerprint(&dslash_local_async(ctx, &geom, &lg, &lp).await)
        });
    }

    #[test]
    fn cg_is_worker_count_invariant() {
        // The full solve at 1, 2 and 4 workers: same iterations, same
        // solution bits, run after run. This is the acceptance property
        // the engine exists to preserve.
        let global = Lattice::new([4, 2, 2, 2]);
        let gauge = GaugeField::hot(global, 70);
        let b = FermionField::gaussian(global, 71);
        let (results, _) =
            ShardedMachine::new(TorusShape::new(&[2, 2])).run_worker_sweep(async |ctx| {
                let geom = BlockGeom::new(ctx, global);
                let lg = geom.extract_gauge(&gauge);
                let lb = geom.extract_fermion(&b);
                let (x, r) = wilson_solve_cg_async(ctx, &geom, &lg, &lb, KAPPA, 1e-8, 2000).await;
                (block_fingerprint(&x), r.iterations, r.converged)
            });
        assert!(results.iter().all(|&(_, _, c)| c), "CG must converge");
    }

    #[test]
    fn segmented_cg_with_checkpoints_matches_the_uninterrupted_solve() {
        let global = Lattice::new([4, 2, 2, 2]);
        let gauge = GaugeField::hot(global, 70);
        let b = FermionField::gaussian(global, 71);
        let shape = TorusShape::new(&[2, 2]);
        let machine = ShardedMachine::new(shape.clone());
        let reference = machine.run(async |ctx| {
            let geom = BlockGeom::new(ctx, global);
            let lg = geom.extract_gauge(&gauge);
            let lb = geom.extract_fermion(&b);
            let (x, r) = wilson_solve_cg_async(ctx, &geom, &lg, &lb, KAPPA, 1e-8, 2000).await;
            (block_fingerprint(&x), r.iterations)
        });
        // The same solve, 7 iterations at a time, with the state passed
        // between segments through the byte-serialized checkpoint.
        let mut ckpt: Option<CgCheckpoint> = None;
        for _ in 0..100 {
            let machine = ShardedMachine::new(shape.clone());
            let outs = machine.run(async |ctx| {
                let geom = BlockGeom::new(ctx, global);
                let lg = geom.extract_gauge(&gauge);
                let lb = geom.extract_fermion(&b);
                let resume = ckpt.as_ref();
                wilson_cg_segment_async(ctx, &geom, &lg, &lb, KAPPA, 1e-8, 2000, resume, 7).await
            });
            assert!(outs.iter().all(|o| !o.wedged));
            let next = assemble_checkpoint(&shape, global, &outs);
            // Persist through bytes each segment, like a crashed run would.
            let bytes = qcdoc_lattice::checkpoint::write_checkpoint(&next);
            let restored = qcdoc_lattice::checkpoint::read_checkpoint(&bytes).unwrap();
            assert_eq!(restored.digest(), next.digest());
            let done = outs[0].converged;
            ckpt = Some(restored);
            if done {
                for (node, out) in outs.iter().enumerate() {
                    assert_eq!(
                        (block_fingerprint(&out.x), out.iterations),
                        reference[node],
                        "segmented solve diverged on node {node}"
                    );
                }
                return;
            }
        }
        panic!("segmented solve did not converge in 100 segments");
    }

    #[test]
    #[should_panic(
        expected = "checkpoint was taken under operator clover, cannot resume under wilson"
    )]
    fn segment_refuses_another_operators_checkpoint() {
        // Same lattice, same words per vector — only the operator name
        // tells a clover checkpoint from a Wilson one.
        let global = Lattice::new([4, 2, 2, 2]);
        let gauge = GaugeField::hot(global, 70);
        let b = FermionField::gaussian(global, 71);
        let shape = TorusShape::new(&[2, 2]);
        let segment = |resume: Option<&CgCheckpoint>| {
            ShardedMachine::new(shape.clone()).run(async |ctx| {
                let geom = BlockGeom::new(ctx, global);
                let lg = geom.extract_gauge(&gauge);
                let lb = geom.extract_fermion(&b);
                wilson_cg_segment_async(ctx, &geom, &lg, &lb, KAPPA, 1e-8, 2000, resume, 3).await
            })
        };
        let mut ckpt = assemble_checkpoint(&shape, global, &segment(None));
        ckpt.operator = "clover".into();
        segment(Some(&ckpt));
    }

    #[test]
    fn checkpoint_layout_is_fermion_field_to_bits_on_every_machine_shape() {
        // The layout contract, held by a test instead of a comment:
        // blocks → global checkpoint is `FermionField::to_bits` word for
        // word, and checkpoint → blocks is its inverse, whatever the
        // decomposition.
        use qcdoc_lattice::solver::KrylovVector;
        let global = Lattice::new([4, 4, 2, 2]);
        let f = FermionField::gaussian(global, 91);
        let bits =
            |block: &[Spinor]| -> Vec<u64> { block.iter().flat_map(Spinor::to_words).collect() };
        for dims in [&[2, 2, 2][..], &[2, 2], &[1]] {
            let shape = TorusShape::new(dims);
            let blocks: Vec<Vec<Spinor>> = (0..shape.node_count())
                .map(|n| BlockGeom::for_node(&shape, NodeId(n as u32), global).extract_fermion(&f))
                .collect();
            let outs: Vec<CgSegmentOut> = blocks
                .iter()
                .map(|block| CgSegmentOut {
                    x: block.clone(),
                    r: block.clone(),
                    p: block.clone(),
                    rsq: 1.0,
                    bref: 1.0,
                    iterations: 0,
                    residuals: Vec::new(),
                    converged: false,
                    wedged: false,
                })
                .collect();
            let ckpt = assemble_checkpoint(&shape, global, &outs);
            assert_eq!(ckpt.x, f.to_bits(), "shape {dims:?}");
            assert_eq!((&ckpt.r, &ckpt.p), (&ckpt.x, &ckpt.x));
            for (n, block) in blocks.iter().enumerate() {
                let geom = BlockGeom::for_node(&shape, NodeId(n as u32), global);
                let (x, r, p) = resume_blocks(&geom, &ckpt);
                assert_eq!(bits(&x), bits(block), "shape {dims:?} node {n}");
                assert_eq!((bits(&r), bits(&p)), (bits(&x), bits(&x)));
            }
        }
    }
}
