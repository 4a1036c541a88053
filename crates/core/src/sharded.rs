//! The functional execution engine: worker threads multiplex virtual nodes.
//!
//! One OS thread per node tops out around a few hundred nodes — each
//! thread costs a stack and a scheduler slot, and the paper's full machine
//! is 12,288 nodes. This engine runs each node ([`NodeCtx`]: real SCU
//! state machine, node memory, fault tap, telemetry) as a cooperative
//! state machine — a compiler-generated future — and round-robins a
//! contiguous shard of them on each worker thread. A thread-per-node run
//! is the same engine with one node per shard:
//! `ShardedMachine::new(shape).with_workers(shape.node_count())`.
//!
//! Node programs are `async` and wait on transfers with
//! [`NodeCtx::complete_async`], [`NodeCtx::shift_async`], and the
//! `*_async` collectives/solvers layered on them. Sharding is pure
//! scheduling, invisible to the protocol: a program produces bit-identical
//! memory and telemetry at any worker count
//! ([`ShardedMachine::run_worker_sweep`] asserts it).
//!
//! Scheduling is polling-based: a worker sweeps its shard, polling every
//! live future once, then checks the shard's shared *pulse* flag (set by
//! any wire movement inside [`NodeCtx::progress`]). A sweeping shard whose
//! wires are all silent backs off — yields first, then 20 µs sleeps — so a
//! wedged machine converges to sleeping workers instead of a spinning
//! core.

use parking_lot::Mutex;
use qcdoc_fault::{FaultClock, FaultPlan, HealthLedger, NodeHealth};
use qcdoc_geometry::TorusShape;
use qcdoc_scu::RetryPolicy;
use qcdoc_telemetry::{FlightEvent, MachineTelemetry, MetricsRegistry, Span};
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

use crate::functional::{
    build_fabric, yield_once, NodeCtx, NodeCtxConfig, NodeWires, TelemetryConfig, WEDGE_IDLE_SPINS,
};

/// The functional machine: a logical torus of [`NodeCtx`]s driven by a
/// pool of worker threads.
///
/// A tiny machine runs in a doctest — two workers multiplexing four
/// virtual nodes, summing their ranks machine-wide over the real SCU
/// link protocol:
///
/// ```
/// use qcdoc_core::comm::global_sum_f64_async;
/// use qcdoc_core::sharded::ShardedMachine;
/// use qcdoc_geometry::TorusShape;
///
/// let machine = ShardedMachine::new(TorusShape::new(&[4, 1, 1, 1])).with_workers(2);
/// let sums = machine.run(async |ctx| global_sum_f64_async(ctx, ctx.id.0 as f64).await);
/// // Every node holds the same dimension-ordered sum 0 + 1 + 2 + 3.
/// assert_eq!(sums, vec![6.0; 4]);
/// ```
///
/// The full 12,288-node machine uses the same two lines — just the
/// paper's shape:
///
/// ```no_run
/// # use qcdoc_core::sharded::ShardedMachine;
/// # use qcdoc_geometry::TorusShape;
/// let ranks = ShardedMachine::new(TorusShape::new(&[8, 8, 8, 24])).run(async |ctx| ctx.id.0);
/// assert_eq!(ranks.len(), 12_288);
/// ```
pub struct ShardedMachine {
    shape: TorusShape,
    faults: FaultPlan,
    ddr_bytes: u64,
    telemetry: Option<TelemetryConfig>,
    retry_policy: RetryPolicy,
    wedge_spins: u32,
    block_checksums: bool,
    workers: usize,
}

impl ShardedMachine {
    /// A machine with the given logical shape, 128 MB DIMMs, and one
    /// worker per available host core.
    pub fn new(shape: TorusShape) -> ShardedMachine {
        let workers = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        ShardedMachine {
            shape,
            faults: FaultPlan::default(),
            ddr_bytes: 128 * 1024 * 1024,
            telemetry: None,
            retry_policy: RetryPolicy::default(),
            wedge_spins: WEDGE_IDLE_SPINS,
            block_checksums: false,
            workers,
        }
    }

    /// Turn on end-to-end DMA block checksums: every [`NodeCtx::start_send`]
    /// appends a trailing checksum word verified at the receiving SCU
    /// before the block is retired, so multi-bit bursts that evade the
    /// per-frame parity are caught mid-run and healed by a whole-block
    /// replay instead of surfacing only in the end-of-run checksum
    /// comparison (or not at all).
    pub fn with_block_checksums(mut self) -> ShardedMachine {
        self.block_checksums = true;
        self
    }

    /// Install a fault plan (compiled against this machine when a run
    /// starts).
    pub fn with_faults(mut self, plan: FaultPlan) -> ShardedMachine {
        self.faults = plan;
        self
    }

    /// Install a link retry policy on every send unit: a bounded budget of
    /// consecutive no-progress rewinds (with exponential backoff) after
    /// which a link declares itself dead instead of resending forever.
    pub fn with_retry_policy(mut self, policy: RetryPolicy) -> ShardedMachine {
        self.retry_policy = policy;
        self
    }

    /// Override the wedge watchdog: idle pump rounds a node waits on a
    /// silent wire before giving up (the wait loop additionally requires
    /// 20 µs of wall-clock silence per round). Recovery tests use a short
    /// timeout so a deliberately killed node fails in milliseconds, not a
    /// second.
    pub fn with_wedge_timeout(mut self, spins: u32) -> ShardedMachine {
        self.wedge_spins = spins.max(1);
        self
    }

    /// Enable per-node telemetry, collected by
    /// [`ShardedMachine::run_with_telemetry`].
    pub fn with_telemetry(mut self, cfg: TelemetryConfig) -> ShardedMachine {
        self.telemetry = Some(cfg);
        self
    }

    /// Override the worker-thread count (default: available parallelism).
    /// Nodes are partitioned contiguously: worker `w` of `W` drives ranks
    /// `[w·n/W, (w+1)·n/W)`.
    pub fn with_workers(mut self, workers: usize) -> ShardedMachine {
        self.workers = workers.max(1);
        self
    }

    /// The logical shape.
    pub fn shape(&self) -> &TorusShape {
        &self.shape
    }

    /// Swap the fabric under the machine — a recovery repartition: later
    /// runs use the replacement shape and fault plan, keeping the retry
    /// policy, wedge timeout and telemetry configuration.
    pub(crate) fn replace_fabric(&mut self, shape: TorusShape, faults: FaultPlan) {
        self.shape = shape;
        self.faults = faults;
    }

    /// Run the async node program on every node; returns per-node results
    /// in rank order.
    pub fn run<F, R>(&self, app: F) -> Vec<R>
    where
        F: AsyncFn(&mut NodeCtx) -> R + Sync,
        R: Send,
    {
        self.run_inner(app)
            .into_iter()
            .map(|(r, _, _, _)| r)
            .collect()
    }

    /// Like [`ShardedMachine::run`], but also collect every node's SCU
    /// counters and checksums into a finalized [`HealthLedger`] — the
    /// software analogue of the host sweeping its Ethernet/JTAG tree after
    /// a job.
    pub fn run_with_health<F, R>(&self, app: F) -> (Vec<R>, HealthLedger)
    where
        F: AsyncFn(&mut NodeCtx) -> R + Sync,
        R: Send,
    {
        let mut ledger = HealthLedger::new(self.shape.node_count());
        let mut results = Vec::with_capacity(self.shape.node_count());
        for (node, (r, health, _, _)) in self.run_inner(app).into_iter().enumerate() {
            results.push(r);
            *ledger.node_mut(node as u32) = health;
        }
        ledger.finalize(&self.shape);
        (results, ledger)
    }

    /// Like [`ShardedMachine::run_with_health`], but additionally collect
    /// every node's metrics (stamped with `node="N"` labels) and
    /// cycle-stamped spans. The finalized ledger is also exported into the
    /// returned registry, so metrics and health present one view.
    pub fn run_with_telemetry<F, R>(&self, app: F) -> (Vec<R>, HealthLedger, MachineTelemetry)
    where
        F: AsyncFn(&mut NodeCtx) -> R + Sync,
        R: Send,
    {
        let mut ledger = HealthLedger::new(self.shape.node_count());
        let mut telemetry = MachineTelemetry::new();
        let mut results = Vec::with_capacity(self.shape.node_count());
        for (node, (r, health, (metrics, spans), flight)) in
            self.run_inner(app).into_iter().enumerate()
        {
            results.push(r);
            *ledger.node_mut(node as u32) = health;
            telemetry.absorb_node(node as u32, metrics, spans);
            telemetry.absorb_flight(flight);
        }
        ledger.finalize(&self.shape);
        ledger.export_metrics(&mut telemetry.metrics);
        (results, ledger, telemetry)
    }

    /// Test support for the scheduling-invariance contract: run `app` at
    /// one worker, two workers and one worker per node, and panic unless
    /// every run yields the same per-node results and the same
    /// [`HealthLedger::fingerprint`]. Returns the one-per-node run.
    pub fn run_worker_sweep<F, R>(mut self, app: F) -> (Vec<R>, HealthLedger)
    where
        F: AsyncFn(&mut NodeCtx) -> R + Sync,
        R: Send + PartialEq + std::fmt::Debug,
    {
        self.workers = 1;
        let mut last = self.run_with_health(&app);
        for workers in [2, self.shape.node_count()] {
            self.workers = workers;
            let next = self.run_with_health(&app);
            assert_eq!(next.0, last.0, "results differ at {workers} workers");
            assert_eq!(
                next.1.fingerprint(),
                last.1.fingerprint(),
                "health ledger differs at {workers} workers"
            );
            last = next;
        }
        last
    }

    #[allow(clippy::type_complexity)]
    fn run_inner<F, R>(
        &self,
        app: F,
    ) -> Vec<(
        R,
        NodeHealth,
        (MetricsRegistry, Vec<Span>),
        Vec<FlightEvent>,
    )>
    where
        F: AsyncFn(&mut NodeCtx) -> R + Sync,
        R: Send,
    {
        let n = self.shape.node_count();
        let workers = self.workers.min(n).max(1);
        let fabric = build_fabric(&self.shape);
        let clock = Arc::new(FaultClock::resolve(
            &self.faults,
            n as u32,
            2 * self.shape.rank(),
        ));
        type NodeOutput<R> = (
            R,
            NodeHealth,
            (MetricsRegistry, Vec<Span>),
            Vec<FlightEvent>,
        );
        let results: Vec<Mutex<Option<NodeOutput<R>>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let cfg = NodeCtxConfig {
            shape: self.shape.clone(),
            ddr_bytes: self.ddr_bytes,
            telemetry: self.telemetry,
            retry_policy: self.retry_policy,
            wedge_spins: self.wedge_spins,
            block_checksums: self.block_checksums,
        };
        // Global completion count: a node's driver keeps pumping its wires
        // after its program finishes until *everyone* has finished, so no
        // neighbour stalls waiting for an ack from a retired node. Panics
        // count too (the worker bumps it when it catches one), or the
        // survivors would pump forever and the panic never surface.
        let done = AtomicUsize::new(0);
        // First caught panic payload, re-raised from the calling thread
        // after the scope so the caller sees the original panic (letting
        // the worker itself unwind would reach `thread::scope`'s generic
        // "a scoped thread panicked" and lose the payload).
        let panic_slot: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
        // Contiguous shard boundaries: worker w drives [w*n/W, (w+1)*n/W).
        let mut shards: Vec<Vec<(usize, NodeWires)>> = (0..workers).map(|_| Vec::new()).collect();
        for (node, wires) in fabric.into_iter().enumerate() {
            shards[node * workers / n].push((node, wires));
        }
        std::thread::scope(|scope| {
            for shard in shards.drain(..) {
                let app = &app;
                let results = &results;
                let done = &done;
                let cfg = &cfg;
                let clock = &clock;
                let panic_slot = &panic_slot;
                scope.spawn(move || {
                    if let Some(payload) = drive_shard(shard, app, results, done, cfg, clock, n) {
                        panic_slot.lock().get_or_insert(payload);
                    }
                });
            }
        });
        if let Some(payload) = panic_slot.into_inner() {
            std::panic::resume_unwind(payload);
        }
        results
            .into_iter()
            .map(|m| m.into_inner().expect("node produced no result"))
            .collect()
    }
}

/// Worker body: build one driver future per assigned node and poll them
/// round-robin until every driver has retired. Returns the first caught
/// node-program panic, if any, for the caller to re-raise.
///
/// Driver futures are constructed *inside* the worker thread from `Send`
/// seeds (rank + wire ends), so the futures themselves — which hold a
/// `&mut NodeCtx` across await points — never need to be `Send`.
#[allow(clippy::type_complexity)]
fn drive_shard<F, R>(
    shard: Vec<(usize, NodeWires)>,
    app: &F,
    results: &[Mutex<
        Option<(
            R,
            NodeHealth,
            (MetricsRegistry, Vec<Span>),
            Vec<FlightEvent>,
        )>,
    >],
    done: &AtomicUsize,
    cfg: &NodeCtxConfig,
    clock: &Arc<FaultClock>,
    n: usize,
) -> Option<Box<dyn std::any::Any + Send>>
where
    F: AsyncFn(&mut NodeCtx) -> R + Sync,
    R: Send,
{
    // Shared wire-activity flag for this shard: any `progress()` that
    // moves a message sets it; the worker reads-and-clears it once per
    // sweep to decide whether the whole shard has gone silent.
    let pulse = Arc::new(AtomicBool::new(false));
    let mut drivers: Vec<Option<Pin<Box<dyn Future<Output = ()> + '_>>>> = shard
        .into_iter()
        .map(|(node, wires)| {
            let pulse = Arc::clone(&pulse);
            let clock = Arc::clone(clock);
            let fut = async move {
                let mut ctx = NodeCtx::build(node as u32, cfg, wires, clock, pulse);
                ctx.apply_mem_faults();
                let r = app(&mut ctx).await;
                let (snapshot, parts, flight) = ctx.finish_run();
                *results[node].lock() = Some((r, snapshot, parts, flight));
                done.fetch_add(1, Ordering::SeqCst);
                // Keep pumping until the whole machine has finished.
                while done.load(Ordering::SeqCst) < n {
                    ctx.progress();
                    yield_once().await;
                }
            };
            Some(Box::pin(fut) as Pin<Box<dyn Future<Output = ()> + '_>>)
        })
        .collect();
    let mut cx = Context::from_waker(Waker::noop());
    let mut live = drivers.len();
    let mut idle_sweeps = 0u32;
    // A panicked node program must not take its shard-mates down with it:
    // catch the unwind, retire that driver (its NodeCtx drops and its wires
    // go silent, so neighbours wedge rather than hang), let the rest of the
    // machine drain, and hand the payload back for a post-scope re-raise.
    let mut panic_payload: Option<Box<dyn std::any::Any + Send>> = None;
    while live > 0 {
        for slot in drivers.iter_mut() {
            let Some(fut) = slot else { continue };
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                fut.as_mut().poll(&mut cx)
            })) {
                Ok(Poll::Ready(())) => {
                    *slot = None;
                    live -= 1;
                }
                Ok(Poll::Pending) => {}
                Err(payload) => {
                    *slot = None;
                    live -= 1;
                    done.fetch_add(1, Ordering::SeqCst);
                    panic_payload.get_or_insert(payload);
                }
            }
        }
        // Back off only when no wire anywhere in the shard moved during
        // the sweep.
        if pulse.swap(false, Ordering::Relaxed) {
            idle_sweeps = 0;
        } else {
            idle_sweeps += 1;
            if idle_sweeps < 256 {
                std::thread::yield_now();
            } else {
                std::thread::sleep(std::time::Duration::from_micros(20));
            }
        }
    }
    panic_payload
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcdoc_fault::FaultEvent;
    use qcdoc_geometry::{Axis, NodeId};
    use qcdoc_scu::dma::DmaDescriptor;

    fn ring4() -> TorusShape {
        TorusShape::new(&[4])
    }

    #[test]
    fn ring_shift_is_worker_count_invariant() {
        // Every node writes its rank, shifts +x; each ends up with its -x
        // neighbour's value.
        let (results, _) = ShardedMachine::new(ring4()).run_worker_sweep(async |ctx| {
            ctx.mem.write_word(0x100, 1000 + ctx.id.0 as u64).unwrap();
            ctx.shift_async(
                Axis(0).plus(),
                DmaDescriptor::contiguous(0x100, 1),
                DmaDescriptor::contiguous(0x200, 1),
            )
            .await;
            ctx.mem.read_word(0x200).unwrap()
        });
        assert_eq!(results, vec![1003, 1000, 1001, 1002]);
    }

    #[test]
    fn bidirectional_shift_2d_multiplexed() {
        // Four nodes on one worker: every rendezvous is between futures
        // multiplexed on the same thread, so nothing may block.
        let machine = ShardedMachine::new(TorusShape::new(&[2, 2])).with_workers(1);
        let results = machine.run(async |ctx| {
            ctx.mem.write_word(0x0, ctx.id.0 as u64).unwrap();
            ctx.start_recv(Axis(0).minus(), DmaDescriptor::contiguous(0x300, 1));
            ctx.start_recv(Axis(1).minus(), DmaDescriptor::contiguous(0x308, 1));
            ctx.start_send(Axis(0).plus(), DmaDescriptor::contiguous(0x0, 1));
            ctx.start_send(Axis(1).plus(), DmaDescriptor::contiguous(0x0, 1));
            ctx.complete_async(
                &[Axis(0).plus(), Axis(1).plus()],
                &[Axis(0).minus(), Axis(1).minus()],
            )
            .await;
            (
                ctx.mem.read_word(0x300).unwrap(),
                ctx.mem.read_word(0x308).unwrap(),
            )
        });
        let shape = TorusShape::new(&[2, 2]);
        for (i, &(fx, fy)) in results.iter().enumerate() {
            let c = shape.coord_of(NodeId(i as u32));
            let xm = shape.rank_of(shape.neighbour(c, Axis(0).minus())).0 as u64;
            let ym = shape.rank_of(shape.neighbour(c, Axis(1).minus())).0 as u64;
            assert_eq!((fx, fy), (xm, ym), "node {i}");
        }
    }

    #[test]
    fn injected_fault_heals_and_ledger_is_worker_count_invariant() {
        // Same plan, same program, every worker count: payloads and health
        // ledgers must agree (checksums included) — the sharding is pure
        // scheduling, invisible to the protocol.
        let plan = FaultPlan::new(42).with_event(FaultEvent::bit_flip(1, 0, 2, 30));
        let (results, ledger) = ShardedMachine::new(ring4())
            .with_faults(plan)
            .run_worker_sweep(async |ctx| {
                for i in 0..8u64 {
                    ctx.mem
                        .write_word(0x100 + i * 8, ctx.id.0 as u64 * 100 + i)
                        .unwrap();
                }
                ctx.shift_async(
                    Axis(0).plus(),
                    DmaDescriptor::contiguous(0x100, 8),
                    DmaDescriptor::contiguous(0x400, 8),
                )
                .await;
                ctx.mem.read_block(0x400, 8).unwrap()
            });
        // Node 2 receives node 1's data despite the corrupted frame.
        assert_eq!(results[2], (0..8).map(|i| 100 + i).collect::<Vec<_>>());
        assert!(
            ledger.nodes[2].links[1].rejects >= 1,
            "the corrupted frame must have been rejected"
        );
        // The recoverable corruption shows up in the ledger...
        assert_eq!(ledger.total_injected(), 1);
        assert_eq!(ledger.nodes[1].links[0].injected, 1);
        assert!(ledger.total_resends() >= 1);
        // ...while every end-of-run checksum pairing still agrees: the
        // resend healed the wire before the payload landed.
        assert!(ledger.all_checksums_ok());
        assert!(ledger.unhealthy_nodes().is_empty());
        assert_eq!(ledger.nodes[0].links[0].sent_words, 8);
        assert_eq!(ledger.nodes[1].links[1].received_words, 8);
    }

    #[test]
    fn dead_link_wedges_the_shard_without_hanging() {
        // Node 1's +x wire dies before the transfer starts: node 2 never
        // receives, node 1 never gets acked. Both must give up and report
        // rather than spin forever.
        let plan = FaultPlan::new(0).with_event(FaultEvent::dead_link(1, 0, 0));
        let machine = ShardedMachine::new(ring4())
            .with_faults(plan)
            .with_wedge_timeout(2_000)
            .with_workers(1);
        let start = std::time::Instant::now();
        let (_, ledger) = machine.run_with_health(async |ctx| {
            ctx.mem.write_word(0x100, ctx.id.0 as u64).unwrap();
            ctx.shift_async(
                Axis(0).plus(),
                DmaDescriptor::contiguous(0x100, 1),
                DmaDescriptor::contiguous(0x200, 1),
            )
            .await;
        });
        assert_eq!(ledger.dead_links(), vec![(1, 0)]);
        assert_eq!(ledger.nodes[1].liveness, qcdoc_fault::Liveness::Wedged);
        let unhealthy = ledger.unhealthy_nodes();
        assert!(
            unhealthy.contains(&1),
            "the dead wire's node must be flagged: {unhealthy:?}"
        );
        assert!(
            !ledger.all_checksums_ok(),
            "undelivered words must break the checksum pairing"
        );
        // 2k idle rounds at 20 µs each is well under a second even on a
        // busy host.
        assert!(start.elapsed() < std::time::Duration::from_secs(30));
    }

    #[test]
    fn panicked_node_surfaces_after_the_machine_drains() {
        let machine = ShardedMachine::new(ring4()).with_workers(2);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            machine.run(async |ctx| {
                if ctx.id.0 == 2 {
                    panic!("node 2 dies");
                }
                ctx.id.0
            })
        }));
        let err = outcome.expect_err("the node panic must propagate");
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "node 2 dies");
    }

    #[test]
    fn sixty_four_nodes_on_two_workers() {
        // 4x4x4 torus, 32 virtual nodes per worker: a six-direction
        // neighbour exchange where each node checks all incoming ranks.
        let shape = TorusShape::new(&[4, 4, 4]);
        let machine = ShardedMachine::new(shape.clone()).with_workers(2);
        let results = machine.run(async |ctx| {
            ctx.mem.write_word(0x0, ctx.id.0 as u64).unwrap();
            let mut sends = Vec::new();
            let mut recvs = Vec::new();
            for axis in 0..3u8 {
                for dir in [Axis(axis).plus(), Axis(axis).minus()] {
                    ctx.start_recv(
                        dir,
                        DmaDescriptor::contiguous(0x100 + dir.link_index() as u64 * 8, 1),
                    );
                    recvs.push(dir);
                    ctx.start_send(dir, DmaDescriptor::contiguous(0x0, 1));
                    sends.push(dir);
                }
            }
            ctx.complete_async(&sends, &recvs).await;
            let mut got = Vec::new();
            for axis in 0..3u8 {
                for dir in [Axis(axis).plus(), Axis(axis).minus()] {
                    got.push((
                        dir,
                        ctx.mem
                            .read_word(0x100 + dir.link_index() as u64 * 8)
                            .unwrap(),
                    ));
                }
            }
            got
        });
        for (i, got) in results.iter().enumerate() {
            let c = shape.coord_of(NodeId(i as u32));
            for &(dir, val) in got {
                // A word armed toward `dir` lands at the neighbour's
                // opposite-direction receive slot, so the value received
                // "from" dir is the rank of the neighbour in `dir`.
                let expect = shape.rank_of(shape.neighbour(c, dir)).0 as u64;
                assert_eq!(val, expect, "node {i} dir {dir:?}");
            }
        }
    }
}
