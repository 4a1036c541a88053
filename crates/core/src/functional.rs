//! The functional node: one [`NodeCtx`] per node, joined by [`wire`]s.
//!
//! Every node of a (logical) machine owns a [`NodeMemory`] and an [`Scu`];
//! each uni-directional wire is a single-producer/single-consumer queue
//! of [`WireMsg`]s ([`crate::wire`]). All
//! protocol behaviour — DMA descriptors, the three-in-the-air window, idle
//! receive, parity rejects and resends, checksums, partition-interrupt
//! flooding — is the real `qcdoc-scu` state machine; this module only
//! moves messages. Node programs are `async` and wait on transfers with
//! [`NodeCtx::complete_async`]; the one engine that schedules them is
//! [`ShardedMachine`](crate::ShardedMachine).
//!
//! Fault injection: a seeded [`FaultPlan`] (from `qcdoc-fault`) corrupts
//! chosen frames in flight through a per-node [`NodeTap`], exercising the
//! automatic-resend path end to end;
//! [`ShardedMachine::run_with_health`](crate::ShardedMachine::run_with_health)
//! additionally returns the machine-wide [`HealthLedger`] a host would
//! read out over its diagnostics tree.

use qcdoc_asic::memory::NodeMemory;
use qcdoc_fault::{FaultClock, Liveness, NodeHealth, NodeTap};
pub use qcdoc_fault::{FaultEvent, FaultPlan, HealthLedger};
use qcdoc_geometry::{Axis, Direction, NodeCoord, NodeId, TorusShape};
use qcdoc_scu::dma::DmaDescriptor;
use qcdoc_scu::link::WireTap;
use qcdoc_scu::scu::{Scu, ScuEvent, WireMsg};
use qcdoc_scu::timing::LinkTimingConfig;
use qcdoc_scu::{RetryPolicy, WireVerdict};
use qcdoc_telemetry::{
    FlightEvent, FlightKind, MetricsRegistry, NodeTelemetry, Phase, Span, SpanToken,
};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::wire::{wire, WireRx, WireTx};

/// Idle pump rounds in [`NodeCtx::complete_async`] before a node declares
/// its transfer wedged (a dead wire never delivers the data or the ack).
/// The wait loop also requires 20 µs of wall-clock silence per round, so
/// this is roughly a second — far beyond any healthy transfer on an
/// oversubscribed host, and short enough that a dead-link run still fails
/// fast.
pub(crate) const WEDGE_IDLE_SPINS: u32 = 50_000;

/// Telemetry knobs for a [`ShardedMachine`](crate::ShardedMachine) run.
///
/// The functional engine has no global clock of its own (nodes run at
/// host speed), so each node's telemetry clock is advanced by the *link
/// timing model*: a completed transfer of `w` words costs
/// `link.transfer_cycles(w)` logical cycles, the slowest armed link
/// setting the pace — which is exactly how the paper's §4 efficiency
/// model charges communication time.
#[derive(Debug, Clone, Copy)]
pub struct TelemetryConfig {
    /// Per-node span ring-buffer capacity (bounded memory).
    pub ring_capacity: usize,
    /// Link timing used to convert word counts into logical cycles.
    pub link: LinkTimingConfig,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            ring_capacity: 65_536,
            link: LinkTimingConfig::default(),
        }
    }
}

/// One node's execution context: its memory, SCU, and wires.
pub struct NodeCtx {
    /// Logical rank.
    pub id: NodeId,
    /// Logical coordinate.
    pub coord: NodeCoord,
    /// Logical machine shape.
    pub shape: TorusShape,
    /// Node memory (EDRAM + DDR) — the SCU DMA engines address this.
    pub mem: NodeMemory,
    /// Per-node telemetry handle (disabled unless the machine was built
    /// with [`ShardedMachine::with_telemetry`](crate::ShardedMachine::with_telemetry)).
    pub telem: NodeTelemetry,
    scu: Scu,
    wires: NodeWires,
    /// Messages drained off one wire and not yet handed to the SCU; empty
    /// between [`NodeCtx::progress`] calls, kept for its buffer.
    inbox: VecDeque<WireMsg>,
    events: Vec<ScuEvent>,
    tap: NodeTap,
    wedged: bool,
    mem_flips: u64,
    /// Whether DMA transfers carry end-to-end block checksums (machine
    /// opt-in via
    /// [`ShardedMachine::with_block_checksums`](crate::ShardedMachine::with_block_checksums)).
    block_checksums: bool,
    /// Words armed per link since the last accounted completion, used to
    /// charge the telemetry clock with modeled transfer cycles.
    armed_send_words: [u64; 12],
    armed_recv_words: [u64; 12],
    link_timing: LinkTimingConfig,
    wedge_spins: u32,
    /// SCU counter totals at the last flight check, so each
    /// [`NodeCtx::complete_async`] logs only the retries it caused.
    flight_resends_seen: u64,
    flight_block_rejects_seen: u64,
    /// Shared wire-activity flag: set whenever [`NodeCtx::progress`] moves
    /// anything. The engine's workers read-and-clear it to decide when a
    /// whole shard has gone idle and should back off.
    pulse: Arc<AtomicBool>,
}

/// One node's wire ends, indexed by link: `tx[l]` leaves toward direction
/// `l`, `rx[l]` arrives from it. Links beyond the machine's rank are `None`.
#[derive(Default)]
pub(crate) struct NodeWires {
    tx: [Option<WireTx<WireMsg>>; 12],
    rx: [Option<WireRx<WireMsg>>; 12],
}

/// Everything the engine needs to stamp out one node, minus the wires.
pub(crate) struct NodeCtxConfig {
    pub shape: TorusShape,
    pub ddr_bytes: u64,
    pub telemetry: Option<TelemetryConfig>,
    pub retry_policy: RetryPolicy,
    pub wedge_spins: u32,
    pub block_checksums: bool,
}

/// Outcome of one non-blocking completion attempt ([`NodeCtx::pump_step`]).
enum PumpStep {
    /// Every tracked send and receive has retired.
    Done,
    /// Not done, but at least one wire moved this round.
    Moved,
    /// Not done and nothing moved — a candidate wedge round.
    Idle,
}

impl NodeCtx {
    /// Logical coordinate of the neighbour in `dir`.
    pub fn neighbour(&self, dir: Direction) -> NodeId {
        self.shape.rank_of(self.shape.neighbour(self.coord, dir))
    }

    /// Whether the machine spans more than one node along `axis`.
    pub fn axis_spans(&self, axis: usize) -> bool {
        axis < self.shape.rank() && self.shape.extent(axis) > 1
    }

    /// Start a DMA send toward `dir`. A wedged node refuses: its units
    /// were abandoned mid-transfer when the watchdog fired, and re-arming
    /// them would corrupt protocol state the health readout still needs.
    pub fn start_send(&mut self, dir: Direction, desc: DmaDescriptor) {
        if self.wedged {
            return;
        }
        self.armed_send_words[dir.link_index()] += desc.total_words();
        if self.block_checksums {
            self.scu.start_send_checked(dir.link_index(), desc);
        } else {
            self.scu.start_send(dir.link_index(), desc);
        }
    }

    /// Arm a DMA receive for traffic arriving from `dir` (no-op once the
    /// node has wedged, like [`NodeCtx::start_send`]).
    pub fn start_recv(&mut self, dir: Direction, desc: DmaDescriptor) {
        if self.wedged {
            return;
        }
        self.armed_recv_words[dir.link_index()] += desc.total_words();
        if self.block_checksums {
            self.scu
                .start_recv_checked(dir.link_index(), desc, &mut self.mem)
                .expect("receive DMA arm failed");
        } else {
            self.scu
                .start_recv(dir.link_index(), desc, &mut self.mem)
                .expect("receive DMA arm failed");
        }
    }

    /// Send a supervisor word toward `dir`.
    pub fn send_supervisor(&mut self, dir: Direction, word: u64) {
        self.scu.send_supervisor(dir.link_index(), word);
    }

    /// Raise a partition interrupt from this node.
    pub fn raise_partition_irq(&mut self, bits: u8) {
        self.scu.raise_partition_irq(bits);
    }

    /// Partition-interrupt bits seen so far by this node's SCU.
    pub fn partition_irq_state(&self) -> u8 {
        self.scu.partition_irq_state()
    }

    /// Drain SCU events (supervisor/partition interrupts) observed so far.
    pub fn take_events(&mut self) -> Vec<ScuEvent> {
        std::mem::take(&mut self.events)
    }

    /// Link-level rejects observed by this node's receive units (each one
    /// forced a hardware resend).
    pub fn link_errors(&self) -> u64 {
        (0..12).map(|l| self.scu.recv_unit(l).rejects()).sum()
    }

    /// Whether a transfer on this node gave up waiting on a silent wire.
    pub fn wedged(&self) -> bool {
        self.wedged
    }

    /// One pump of every wire: transmit until each link stalls on its ack
    /// window and drain every arrived message. Returns whether anything
    /// moved.
    pub fn progress(&mut self) -> bool {
        let mut moved = false;
        for link in 0..12 {
            let Some(tx) = &self.wires.tx[link] else {
                continue;
            };
            while let Some(mut msg) = self
                .scu
                .tx_next(link, &mut self.mem)
                .expect("send DMA memory fault")
            {
                let verdict = match &mut msg {
                    WireMsg::Data(wf) => {
                        let injected_before = self.tap.injected()[link];
                        let v = self.tap.on_frame(link, wf);
                        if self.tap.injected()[link] > injected_before {
                            self.telem.flight(
                                FlightKind::FaultInjected,
                                "frame_corrupt",
                                link as u64,
                                wf.seq,
                            );
                        }
                        v
                    }
                    // Acks and rejects have no frame, but a dead wire
                    // swallows them all the same.
                    _ => {
                        if self.tap.clock().drop_frame(self.id.0, link, u64::MAX) {
                            WireVerdict::Drop
                        } else {
                            WireVerdict::Deliver
                        }
                    }
                };
                if verdict == WireVerdict::Drop {
                    self.telem
                        .flight(FlightKind::FaultInjected, "frame_drop", link as u64, 0);
                }
                if verdict == WireVerdict::Deliver {
                    tx.send(msg);
                }
                moved = true;
            }
        }
        for link in 0..12 {
            let Some(rx) = &self.wires.rx[link] else {
                continue;
            };
            moved |= rx.drain(&mut self.inbox) > 0;
            while let Some(msg) = self.inbox.pop_front() {
                if let Some(ev) = self
                    .scu
                    .rx(link, msg, &mut self.mem)
                    .expect("receive protocol fault")
                {
                    self.events.push(ev);
                }
            }
        }
        if moved {
            self.pulse.store(true, Ordering::Relaxed);
        }
        moved
    }

    /// Pump until the given sends and receives complete, yielding back to
    /// the shard worker between pump rounds so the other virtual nodes of
    /// the shard keep running.
    ///
    /// A wire that has gone permanently silent (dead link, crashed
    /// neighbour) would leave this loop polling forever; after the wedge
    /// timeout the node gives up, marks itself wedged, and returns so the
    /// run can finish and report the failure through the health ledger
    /// instead of hanging.
    ///
    /// ```no_run
    /// # use qcdoc_core::sharded::ShardedMachine;
    /// # use qcdoc_geometry::{Axis, TorusShape};
    /// # use qcdoc_scu::dma::DmaDescriptor;
    /// let machine = ShardedMachine::new(TorusShape::new(&[4]));
    /// let ranks = machine.run(async |ctx| {
    ///     ctx.mem.write_word(0x100, ctx.id.0 as u64).unwrap();
    ///     ctx.start_recv(Axis(0).minus(), DmaDescriptor::contiguous(0x200, 1));
    ///     ctx.start_send(Axis(0).plus(), DmaDescriptor::contiguous(0x100, 1));
    ///     ctx.complete_async(&[Axis(0).plus()], &[Axis(0).minus()]).await;
    ///     ctx.mem.read_word(0x200).unwrap()
    /// });
    /// assert_eq!(ranks, vec![3, 0, 1, 2]);
    /// ```
    pub async fn complete_async(&mut self, sends: &[Direction], recvs: &[Direction]) {
        if !self.telem.is_enabled() {
            self.complete_inner_async(sends, recvs).await;
            self.record_scu_flight();
            return;
        }
        let token = self.telem.begin();
        self.complete_inner_async(sends, recvs).await;
        self.record_scu_flight();
        self.account_complete(token, sends, recvs);
    }

    /// Charge the logical clock with the modeled wire time: parallel
    /// links overlap, so the slowest one sets the pace (§4's comms
    /// term), while counters see every word moved.
    fn account_complete(&mut self, token: SpanToken, sends: &[Direction], recvs: &[Direction]) {
        let mut send_words = 0u64;
        let mut recv_words = 0u64;
        let mut wire_cycles = 0u64;
        for d in sends {
            let w = std::mem::take(&mut self.armed_send_words[d.link_index()]);
            send_words += w;
            wire_cycles = wire_cycles.max(self.link_timing.transfer_cycles(w).count());
        }
        for d in recvs {
            let w = std::mem::take(&mut self.armed_recv_words[d.link_index()]);
            recv_words += w;
            wire_cycles = wire_cycles.max(self.link_timing.transfer_cycles(w).count());
        }
        self.telem.advance(wire_cycles);
        self.telem.counter_add("dma_send_words", send_words);
        self.telem.counter_add("dma_recv_words", recv_words);
        self.telem
            .counter_add("dma_bytes", (send_words + recv_words) * 8);
        self.telem
            .end_with(token, "scu.complete", Phase::Comms, send_words + recv_words);
    }

    /// Log go-back-N retries and block-checksum replays that happened
    /// since the last check into the flight ring. Exceptional paths only:
    /// a clean transfer leaves no trace.
    fn record_scu_flight(&mut self) {
        let stats = self.scu.stats();
        let resends = stats.total_resends();
        if resends > self.flight_resends_seen {
            self.telem.flight(
                FlightKind::Retry,
                "go_back_n",
                resends - self.flight_resends_seen,
                resends,
            );
            self.flight_resends_seen = resends;
        }
        let block_rejects: u64 = stats.links.iter().map(|l| l.block_rejects).sum();
        if block_rejects > self.flight_block_rejects_seen {
            self.telem.flight(
                FlightKind::BlockReject,
                "block_checksum",
                block_rejects - self.flight_block_rejects_seen,
                block_rejects,
            );
            self.flight_block_rejects_seen = block_rejects;
        }
    }

    /// One non-blocking completion attempt: pump the wires once, then
    /// check whether every tracked transfer has retired.
    fn pump_step(&mut self, sends: &[Direction], recvs: &[Direction]) -> PumpStep {
        let moved = self.progress();
        let sends_done = sends.iter().all(|d| self.scu.send_complete(d.link_index()));
        let recvs_done = recvs.iter().all(|d| self.scu.recv_complete(d.link_index()));
        if sends_done && recvs_done {
            PumpStep::Done
        } else if moved {
            PumpStep::Moved
        } else {
            PumpStep::Idle
        }
    }

    /// Wedge-watchdog bookkeeping: called after an idle pump round, returns
    /// whether the node just gave up.
    fn wedge_after_idle(&mut self, idle_spins: u32, pending: usize) -> bool {
        if idle_spins < self.wedge_spins {
            return false;
        }
        self.wedged = true;
        self.telem.flight(
            FlightKind::Wedge,
            "silent_wire",
            idle_spins as u64,
            pending as u64,
        );
        true
    }

    /// The wait loop: idle rounds yield control back to the shard worker
    /// (which backs off on our behalf once every virtual node of the shard
    /// reports idle) instead of sleeping the thread.
    async fn complete_inner_async(&mut self, sends: &[Direction], recvs: &[Direction]) {
        if self.wedged {
            return;
        }
        let mut idle_spins = 0u32;
        let mut idle_since: Option<std::time::Instant> = None;
        // A backed-off shard spends ~20 µs of real time per idle round, but
        // a shard whose other virtual nodes are still active sweeps much
        // faster than that, so the loop additionally requires the same
        // *wall-clock* silence before giving up on a wire.
        let quiet_needed = std::time::Duration::from_micros(20) * self.wedge_spins;
        loop {
            match self.pump_step(sends, recvs) {
                PumpStep::Done => return,
                PumpStep::Moved => {
                    idle_spins = 0;
                    idle_since = None;
                }
                PumpStep::Idle => {
                    idle_spins += 1;
                    let since = *idle_since.get_or_insert_with(std::time::Instant::now);
                    if idle_spins >= self.wedge_spins
                        && since.elapsed() >= quiet_needed
                        && self.wedge_after_idle(idle_spins, sends.len() + recvs.len())
                    {
                        return;
                    }
                }
            }
            yield_once().await;
        }
    }

    /// Convenience: send one buffer toward `dir`, receive one from the
    /// opposite neighbour, and wait for completion.
    pub async fn shift_async(&mut self, dir: Direction, send: DmaDescriptor, recv: DmaDescriptor) {
        // Data sent toward `dir` arrives at the neighbour from
        // `dir.opposite()`; symmetrically we receive from our own
        // `dir.opposite()` link.
        let from = dir.opposite();
        self.start_recv(from, recv);
        self.start_send(dir, send);
        self.complete_async(&[dir], &[from]).await;
    }

    /// End-of-run checksum of the send side of a link.
    pub fn send_checksum(&self, dir: Direction) -> u64 {
        self.scu.send_unit(dir.link_index()).checksum().value()
    }

    /// End-of-run checksum of the receive side of a link.
    pub fn recv_checksum(&self, dir: Direction) -> u64 {
        self.scu.recv_unit(dir.link_index()).checksum().value()
    }

    /// Read every SCU counter and checksum into a [`NodeHealth`] record —
    /// the per-node readout the host's diagnostics sweep collects.
    fn health_snapshot(&self) -> NodeHealth {
        let clock = self.tap.clock();
        let mem_stats = self.mem.stats();
        let mut health = NodeHealth {
            node: self.id.0,
            liveness: if self.wedged {
                Liveness::Wedged
            } else if let Some(iteration) = clock.crash_iteration(self.id.0) {
                Liveness::Crashed { iteration }
            } else {
                Liveness::Alive
            },
            links: Vec::with_capacity(12),
            mem_flips: self.mem_flips,
            ecc_corrected: mem_stats.ecc_corrected,
            machine_checks: mem_stats.machine_checks,
        };
        let stats = self.scu.stats();
        for (link, ls) in stats.links.iter().enumerate() {
            health.links.push(qcdoc_fault::LinkHealth {
                sent_words: ls.sent_words,
                received_words: ls.received_words,
                resends: ls.resends,
                rejects: ls.rejects,
                injected: self.tap.injected()[link],
                stall_cycles: 0,
                dead: clock.link_dead_from(self.id.0, link).is_some(),
                send_checksum: ls.send_checksum,
                recv_checksum: ls.recv_checksum,
                checksum_ok: None,
                backoff_waits: ls.backoff_waits,
                retry_exhausted: ls.retry_exhausted,
                block_rejects: ls.block_rejects,
                block_resends: ls.block_resends,
            });
        }
        health
    }

    /// Stamp out one node: SCU training, retry policy, tap, telemetry
    /// wiring.
    pub(crate) fn build(
        node: u32,
        cfg: &NodeCtxConfig,
        wires: NodeWires,
        clock: Arc<FaultClock>,
        pulse: Arc<AtomicBool>,
    ) -> NodeCtx {
        let mut scu = Scu::new();
        scu.train_all();
        scu.set_retry_policy(cfg.retry_policy);
        NodeCtx {
            id: NodeId(node),
            coord: cfg.shape.coord_of(NodeId(node)),
            shape: cfg.shape.clone(),
            mem: NodeMemory::new(cfg.ddr_bytes),
            telem: match cfg.telemetry {
                Some(t) => NodeTelemetry::with_ring(node, t.ring_capacity),
                None => NodeTelemetry::disabled(node),
            },
            scu,
            wires,
            inbox: VecDeque::new(),
            events: Vec::new(),
            tap: NodeTap::new(clock, node),
            wedged: false,
            mem_flips: 0,
            block_checksums: cfg.block_checksums,
            armed_send_words: [0; 12],
            armed_recv_words: [0; 12],
            link_timing: cfg.telemetry.map(|c| c.link).unwrap_or_default(),
            wedge_spins: cfg.wedge_spins,
            flight_resends_seen: 0,
            flight_block_rejects_seen: 0,
            pulse,
        }
    }

    /// Strike this node's scheduled memory soft errors before the
    /// application touches its data (flips outside the address map are
    /// silently out of range, like a flip in unused DRAM).
    pub(crate) fn apply_mem_faults(&mut self) {
        let faults = self.tap.clock().mem_faults(self.id.0);
        for (addr, bit) in faults {
            if self.mem.flip_bit(addr, bit).is_ok() {
                self.mem_flips += 1;
                self.telem
                    .flight(FlightKind::FaultInjected, "mem_flip", addr, bit as u64);
            }
        }
    }

    /// End-of-run epilogue: flight bookkeeping, the
    /// ECC scrub over the touched footprint, memory-profile gauges, and
    /// the health snapshot the host's diagnostics sweep collects.
    pub(crate) fn finish_run(
        &mut self,
    ) -> (NodeHealth, (MetricsRegistry, Vec<Span>), Vec<FlightEvent>) {
        self.record_scu_flight();
        if let Some(iteration) = self.tap.clock().crash_iteration(self.id.0) {
            self.telem
                .flight(FlightKind::Crash, "scheduled", iteration as u64, 0);
        }
        // End-of-run ECC scrub: walk the touched footprint so soft errors
        // the application never read still get corrected (1-bit) or latch
        // a machine check (2-bit) before the health snapshot is taken.
        let scrub = self.mem.scrub();
        {
            let ms = self.mem.stats();
            if ms.machine_checks > 0 {
                self.telem.flight(
                    FlightKind::MachineCheck,
                    "uncorrectable_ecc",
                    ms.machine_checks,
                    ms.ecc_corrected,
                );
            }
        }
        let backoff = self.scu.backoff_delay_histogram();
        if backoff.count() > 0 {
            self.telem
                .merge_histogram("scu_backoff_delay_rounds", &backoff);
        }
        if self.telem.is_enabled() {
            // EDRAM-vs-DDR hit gauges: the end-of-run memory profile the
            // §4 model needs to locate data.
            let ms = self.mem.stats();
            self.telem
                .gauge_set("node_mem_edram_reads", ms.edram_reads as f64);
            self.telem
                .gauge_set("node_mem_edram_writes", ms.edram_writes as f64);
            self.telem
                .gauge_set("node_mem_ddr_reads", ms.ddr_reads as f64);
            self.telem
                .gauge_set("node_mem_ddr_writes", ms.ddr_writes as f64);
            self.telem
                .gauge_set("node_mem_ecc_corrected", ms.ecc_corrected as f64);
            self.telem
                .gauge_set("node_mem_machine_checks", ms.machine_checks as f64);
            self.telem
                .gauge_set("node_mem_scrub_cycles", scrub.cycles as f64);
        }
        let snapshot = self.health_snapshot();
        let flight = self.telem.take_flight();
        let parts = self.telem.take_parts();
        (snapshot, parts, flight)
    }
}

/// A future that returns control to the executor exactly once — the
/// cooperative analogue of [`std::thread::yield_now`]. Shard workers poll
/// every virtual node round-robin, so one yield is one trip through the
/// rest of the shard.
pub(crate) fn yield_once() -> YieldOnce {
    YieldOnce { yielded: false }
}

/// See [`yield_once`].
pub(crate) struct YieldOnce {
    yielded: bool,
}

impl std::future::Future for YieldOnce {
    type Output = ();

    fn poll(
        mut self: std::pin::Pin<&mut Self>,
        _cx: &mut std::task::Context<'_>,
    ) -> std::task::Poll<()> {
        if self.yielded {
            std::task::Poll::Ready(())
        } else {
            self.yielded = true;
            std::task::Poll::Pending
        }
    }
}

/// Build the wire fabric for a logical shape: one [`wire`] per (node,
/// outgoing direction); the receiving end goes to the neighbour's
/// opposite-direction slot. Returns every node's ends in rank order.
pub(crate) fn build_fabric(shape: &TorusShape) -> Vec<NodeWires> {
    let mut fabric: Vec<NodeWires> = (0..shape.node_count())
        .map(|_| NodeWires::default())
        .collect();
    for node in 0..fabric.len() {
        let coord = shape.coord_of(NodeId(node as u32));
        for axis in 0..shape.rank() {
            for dir in [Axis(axis as u8).plus(), Axis(axis as u8).minus()] {
                let (tx, rx) = wire();
                let nb = shape.rank_of(shape.neighbour(coord, dir));
                fabric[node].tx[dir.link_index()] = Some(tx);
                fabric[nb.index()].rx[dir.opposite().link_index()] = Some(rx);
            }
        }
    }
    fabric
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShardedMachine;
    use qcdoc_fault::FaultEvent;

    fn ring4() -> TorusShape {
        TorusShape::new(&[4])
    }

    /// Fill eight words with a rank-tagged pattern, shift them one hop +x,
    /// and return what arrived.
    async fn shift_eight_words(ctx: &mut NodeCtx) -> Vec<u64> {
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
    }

    /// Pump the wires for a fixed number of scheduler round trips — enough
    /// for an interrupt to cross a small machine. Deterministic on one
    /// worker, where a yield is exactly one sweep over every node.
    async fn pump_rounds(ctx: &mut NodeCtx, rounds: usize) {
        for _ in 0..rounds {
            ctx.progress();
            yield_once().await;
        }
    }

    #[test]
    fn partition_interrupt_floods_the_machine() {
        let machine = ShardedMachine::new(TorusShape::new(&[2, 2, 2])).with_workers(1);
        let results = machine.run(async |ctx| {
            if ctx.id.0 == 5 {
                ctx.raise_partition_irq(0b10);
            }
            pump_rounds(ctx, 200).await;
            ctx.partition_irq_state()
        });
        assert!(
            results.iter().all(|&s| s == 0b10),
            "all 8 nodes must see the interrupt: {results:?}"
        );
    }

    #[test]
    fn supervisor_interrupt_reaches_neighbour() {
        let machine = ShardedMachine::new(ring4()).with_workers(1);
        let results = machine.run(async |ctx| {
            if ctx.id.0 == 0 {
                ctx.send_supervisor(Axis(0).plus(), 0xFEED_F00D);
            }
            pump_rounds(ctx, 200).await;
            ctx.take_events()
        });
        assert!(results[1].contains(&ScuEvent::SupervisorInterrupt(0xFEED_F00D)));
        assert!(
            results[2].is_empty(),
            "supervisor packets are point-to-point"
        );
    }

    #[test]
    fn neighbour_and_axis_span_queries() {
        let machine = ShardedMachine::new(TorusShape::new(&[4, 2]));
        let results = machine.run(async |ctx| {
            (
                ctx.neighbour(Axis(0).plus()).0,
                ctx.neighbour(Axis(1).minus()).0,
                ctx.axis_spans(0),
                ctx.axis_spans(1),
                ctx.axis_spans(5),
            )
        });
        // Node 0 at (0,0): +x neighbour is (1,0) = rank 1; -y neighbour is
        // (0,1) = rank 4 (wrap on the 2-ring).
        assert_eq!(results[0].0, 1);
        assert_eq!(results[0].1, 4);
        assert!(results[0].2 && results[0].3);
        assert!(!results[0].4, "axes beyond the rank do not span");
    }

    #[test]
    fn events_drain_once() {
        let machine = ShardedMachine::new(ring4()).with_workers(1);
        let results = machine.run(async |ctx| {
            if ctx.id.0 == 0 {
                ctx.send_supervisor(Axis(0).plus(), 7);
            }
            pump_rounds(ctx, 200).await;
            let first = ctx.take_events();
            let second = ctx.take_events();
            (first.len(), second.len())
        });
        assert_eq!(results[1], (1, 0), "take_events must drain");
    }

    #[test]
    fn stuck_link_exhausts_its_retry_budget_and_escalates() {
        // Node 1's +x transmitter goes bad from the first frame: every
        // transmission — resends included — is corrupted, so unlimited
        // retries would resend forever. A bounded budget kills the link
        // after a deterministic number of rewinds, the wedge watchdog
        // unblocks both endpoints, and the ledger pins the blame on node
        // 1's hardware (not on the wedged bystanders).
        let plan = FaultPlan::new(7).with_event(FaultEvent::stuck_link(1, 0, 0));
        let policy = RetryPolicy::bounded(4, 2, 64);
        let machine = ShardedMachine::new(ring4())
            .with_faults(plan)
            .with_retry_policy(policy)
            .with_wedge_timeout(10_000);
        let (_, ledger) = machine.run_with_health(async |ctx| {
            for i in 0..4u64 {
                ctx.mem
                    .write_word(0x100 + i * 8, ctx.id.0 as u64 + i)
                    .unwrap();
            }
            ctx.shift_async(
                Axis(0).plus(),
                DmaDescriptor::contiguous(0x100, 4),
                DmaDescriptor::contiguous(0x200, 4),
            )
            .await;
        });
        let bad = &ledger.nodes[1].links[0];
        assert!(bad.retry_exhausted, "the budget must exhaust");
        assert!(
            bad.resends <= 5 * 3,
            "bounded resends per delivered word, got {}",
            bad.resends
        );
        let culprits = ledger.culprit_nodes();
        assert_eq!(culprits, vec![1], "hardware evidence points at node 1 only");
        // Collateral wedges still show up as unhealthy, but not as culprits.
        assert!(ledger.unhealthy_nodes().contains(&2));
    }

    #[test]
    fn wedged_node_refuses_new_transfers_instead_of_panicking() {
        // A real application keeps issuing collectives after a wedge (it
        // only checks `wedged()` at its own loop boundaries). Arming fresh
        // DMA onto units abandoned mid-transfer used to blow up in the
        // idle-receive drain; a wedged node must go silent instead, so the
        // run still terminates and the ledger still reads out.
        let plan = FaultPlan::new(0).with_event(FaultEvent::dead_link(1, 0, 1));
        let machine = ShardedMachine::new(ring4())
            .with_faults(plan)
            .with_wedge_timeout(2_000);
        let (results, ledger) = machine.run_with_health(async |ctx| {
            // Three rounds of 4-word shifts: the wire dies during the
            // first, the later rounds re-arm every unit regardless.
            for round in 0..3u64 {
                for i in 0..4u64 {
                    ctx.mem
                        .write_word(0x100 + i * 8, round + ctx.id.0 as u64)
                        .unwrap();
                }
                ctx.shift_async(
                    Axis(0).plus(),
                    DmaDescriptor::contiguous(0x100, 4),
                    DmaDescriptor::contiguous(0x200, 4),
                )
                .await;
            }
            ctx.wedged()
        });
        assert!(results.iter().any(|&w| w), "somebody must have wedged");
        assert_eq!(ledger.dead_links(), vec![(1, 0)]);
        assert!(ledger.culprit_nodes().contains(&1));
    }

    #[test]
    fn parity_evading_burst_is_healed_by_block_checksums() {
        // A paired burst inside one data frame flips each parity class an
        // even number of times, so the frame-level code accepts the wrong
        // word without a reject. Only the end-to-end block checksum
        // catches it — and a whole-block replay heals it.
        let plan = FaultPlan::new(0).with_event(FaultEvent::payload_burst(1, 0, 2, 10, 2));
        let machine = ShardedMachine::new(ring4())
            .with_faults(plan)
            .with_block_checksums();
        let (results, ledger) = machine.run_with_health(shift_eight_words);
        assert_eq!(results[2], (0..8).map(|i| 100 + i).collect::<Vec<_>>());
        // The frame parity never fired; the block checksum did.
        assert_eq!(ledger.nodes[2].links[1].rejects, 0);
        assert!(ledger.nodes[2].links[1].block_rejects >= 1);
        assert!(ledger.nodes[1].links[0].block_resends >= 1);
        // After the replay the end-of-run checksum pairings agree again.
        assert!(ledger.all_checksums_ok());
        assert!(ledger.unhealthy_nodes().is_empty());
    }

    #[test]
    fn without_block_checksums_the_burst_is_silent_until_run_end() {
        // Same fault, protection off: the wrong word lands in memory and
        // nothing complains until the end-of-run checksum pairing.
        let plan = FaultPlan::new(0).with_event(FaultEvent::payload_burst(1, 0, 2, 10, 2));
        let machine = ShardedMachine::new(ring4()).with_faults(plan);
        let (results, ledger) = machine.run_with_health(shift_eight_words);
        assert_ne!(
            results[2],
            (0..8).map(|i| 100 + i).collect::<Vec<_>>(),
            "the burst must corrupt node 2's payload silently"
        );
        assert_eq!(ledger.nodes[2].links[1].rejects, 0);
        assert!(
            !ledger.all_checksums_ok(),
            "only the end-of-run pairing notices — after the damage is done"
        );
    }

    #[test]
    fn uncorrectable_memory_error_condemns_the_node() {
        // Two flips of one word defeat SEC-DED correction. Even though
        // the application never reads the word, the end-of-run scrub
        // finds it and latches a machine check — casualty evidence.
        let plan = FaultPlan::new(0).with_event(FaultEvent::mem_double_flip(1, 0x100, 3, 41));
        let machine = ShardedMachine::new(ring4()).with_faults(plan);
        let (_, ledger) = machine.run_with_health(async |_ctx| {});
        assert_eq!(ledger.nodes[1].mem_flips, 2);
        assert!(ledger.nodes[1].machine_checks >= 1);
        assert_eq!(ledger.nodes[1].ecc_corrected, 0);
        assert_eq!(ledger.unhealthy_nodes(), vec![1]);
        assert_eq!(ledger.culprit_nodes(), vec![1]);
    }

    #[test]
    fn correctable_soft_error_is_scrubbed_without_casualty() {
        // A single flipped bit is corrected on read; the only evidence is
        // the counter. The node stays healthy.
        let plan = FaultPlan::new(0).with_event(FaultEvent::mem_bit_flip(1, 0x100, 17));
        let machine = ShardedMachine::new(ring4()).with_faults(plan);
        let (values, ledger) =
            machine.run_with_health(async |ctx| ctx.mem.read_word(0x100).unwrap());
        assert_eq!(values[1], 0, "the read must return the corrected value");
        assert_eq!(ledger.nodes[1].mem_flips, 1);
        assert!(ledger.nodes[1].ecc_corrected >= 1);
        assert_eq!(ledger.nodes[1].machine_checks, 0);
        assert!(ledger.unhealthy_nodes().is_empty());
    }

    #[test]
    fn self_loop_on_extent_one_axis() {
        // A 1-extent axis wires a node to itself; a shift is a local copy.
        let machine = ShardedMachine::new(TorusShape::new(&[2, 1]));
        let results = machine.run(async |ctx| {
            ctx.mem.write_word(0x0, 7 + ctx.id.0 as u64).unwrap();
            ctx.shift_async(
                Axis(1).plus(),
                DmaDescriptor::contiguous(0x0, 1),
                DmaDescriptor::contiguous(0x80, 1),
            )
            .await;
            ctx.mem.read_word(0x80).unwrap()
        });
        assert_eq!(results, vec![7, 8]);
    }
}
