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
//!
//! Nothing here keeps time. A node waiting on a dead wire wedges when the
//! engine finds the whole machine quiescent — every unfinished node parked
//! in [`NodeCtx::complete_async`], every wire empty, no link holding in
//! retry backoff — so a wedge is a property of the fault plan, not of how
//! fast the host runs.

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
use std::rc::Rc;
use std::sync::Arc;

use crate::sharded::ShardSignal;
use crate::wire::{wire, WireRx, WireTx};

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
    /// Links with transmit work, one bit per link: the transmit half of
    /// [`NodeCtx::progress`] visits only these. A bit is set wherever work
    /// is created — an armed send or receive, a drained wire on that link,
    /// a supervisor word, a raised or forwarded partition interrupt (all
    /// twelve) — and cleared after the link's transmit loop once the SCU
    /// has nothing left to send there and the link holds no retry backoff.
    /// A link in backoff must stay pumped, or its countdown never runs out:
    /// `stuck_link_exhausts_its_retry_budget_and_escalates` guards that.
    active_links: u16,
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
    /// SCU counter totals at the last flight check, so each
    /// [`NodeCtx::complete_async`] logs only the retries it caused.
    flight_resends_seen: u64,
    flight_block_rejects_seen: u64,
    /// What this node tells its shard's worker: wire movement and sends
    /// from [`NodeCtx::progress`], parking in an idle
    /// [`NodeCtx::complete_async`]; and the machine's wedge verdict back.
    signal: Rc<ShardSignal>,
}

/// Every link's bit in [`NodeCtx`]'s active-link mask.
const ALL_LINKS: u16 = (1 << 12) - 1;

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
    pub block_checksums: bool,
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
    /// were abandoned mid-transfer, and re-arming them would corrupt
    /// protocol state the health readout still needs.
    pub fn start_send(&mut self, dir: Direction, desc: DmaDescriptor) {
        if self.wedged {
            return;
        }
        self.armed_send_words[dir.link_index()] += desc.total_words();
        self.active_links |= 1 << dir.link_index();
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
        self.active_links |= 1 << dir.link_index();
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
        self.active_links |= 1 << dir.link_index();
        self.scu.send_supervisor(dir.link_index(), word);
    }

    /// Raise a partition interrupt from this node.
    pub fn raise_partition_irq(&mut self, bits: u8) {
        self.active_links = ALL_LINKS;
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

    /// Whether a transfer on this node gave up: the machine went quiescent
    /// with it still pending.
    pub fn wedged(&self) -> bool {
        self.wedged
    }

    /// One pump: receive on every wire, then transmit on the links with
    /// work. Every arrived message is drained into the SCU first, so the
    /// one cumulative ack and any reject it provokes — and the window slots
    /// its acks free — leave in this same pump; then each active link
    /// transmits until it stalls on its ack window. Returns whether anything moved; a link
    /// holding in retry backoff counts, since its countdown is what lets it
    /// resend later.
    pub fn progress(&mut self) -> bool {
        let mut moved = false;
        for link in 0..12 {
            let Some(rx) = &self.wires.rx[link] else {
                continue;
            };
            if rx.drain(&mut self.inbox) == 0 {
                continue;
            }
            moved = true;
            self.active_links |= 1 << link;
            while let Some(msg) = self.inbox.pop_front() {
                if let Some(ev) = self
                    .scu
                    .rx(link, msg, &mut self.mem)
                    .expect("receive protocol fault")
                {
                    // A new interrupt is forwarded on every other link.
                    if let ScuEvent::PartitionInterrupt(_) = ev {
                        self.active_links = ALL_LINKS;
                    }
                    self.events.push(ev);
                }
            }
        }
        let mut pending = self.active_links;
        while pending != 0 {
            let link = pending.trailing_zeros() as usize;
            pending &= pending - 1;
            let Some(tx) = &self.wires.tx[link] else {
                self.active_links &= !(1 << link);
                continue;
            };
            moved |= self.scu.send_unit(link).holding_backoff();
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
                        if v == WireVerdict::Drop {
                            self.telem.flight(
                                FlightKind::FaultInjected,
                                "frame_drop",
                                link as u64,
                                0,
                            );
                        }
                        v
                    }
                    // Acks and rejects have no frame, but a dead wire
                    // swallows them all the same. They leave no flight
                    // event: one ack covers a whole drain, so how many a
                    // dead wire swallows depends on the host's poll order.
                    _ => {
                        if self.tap.clock().drop_frame(self.id.0, link, u64::MAX) {
                            WireVerdict::Drop
                        } else {
                            WireVerdict::Deliver
                        }
                    }
                };
                if verdict == WireVerdict::Deliver {
                    tx.send(msg);
                    self.signal.sent.set(self.signal.sent.get() + 1);
                }
                moved = true;
            }
            if !self.scu.tx_pending(link) && !self.scu.send_unit(link).holding_backoff() {
                self.active_links &= !(1 << link);
            }
        }
        if moved {
            self.signal.moved.set(true);
        }
        moved
    }

    /// Pump until the given sends and receives complete, yielding back to
    /// the shard worker between pump rounds so the other virtual nodes of
    /// the shard keep running.
    ///
    /// A wire that has gone permanently silent (dead link, crashed
    /// neighbour) would leave this loop polling forever. Once the engine
    /// finds the whole machine quiescent the node gives up, marks itself
    /// wedged, and returns so the run can finish and report the failure
    /// through the health ledger instead of hanging.
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
        let token = self.telem.is_enabled().then(|| self.telem.begin());
        self.complete_inner_async(sends, recvs).await;
        self.record_scu_flight();
        if let Some(token) = token {
            self.account_complete(token, sends, recvs);
        }
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

    /// The wait loop: a pump that moved nothing parks the node — it yields
    /// quiet, which is what lets the engine find the machine quiescent —
    /// and a quiescent machine wedges it. The flight record names what was
    /// still pending: sends, then receives.
    async fn complete_inner_async(&mut self, sends: &[Direction], recvs: &[Direction]) {
        if self.wedged {
            return;
        }
        loop {
            let moved = self.progress();
            let sends_left = sends
                .iter()
                .filter(|d| !self.scu.send_complete(d.link_index()))
                .count() as u64;
            let recvs_left = recvs
                .iter()
                .filter(|d| !self.scu.recv_complete(d.link_index()))
                .count() as u64;
            if sends_left + recvs_left == 0 {
                return;
            }
            if !moved && self.signal.wedged.get() {
                self.wedged = true;
                self.telem
                    .flight(FlightKind::Wedge, "silent_wire", sends_left, recvs_left);
                return;
            }
            self.signal.parked.set(!moved);
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
        signal: Rc<ShardSignal>,
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
            active_links: 0,
            inbox: VecDeque::new(),
            events: Vec::new(),
            tap: NodeTap::new(clock, node),
            wedged: false,
            mem_flips: 0,
            block_checksums: cfg.block_checksums,
            armed_send_words: [0; 12],
            armed_recv_words: [0; 12],
            link_timing: cfg.telemetry.map(|c| c.link).unwrap_or_default(),
            flight_resends_seen: 0,
            flight_block_rejects_seen: 0,
            signal,
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

/// Return control to the executor exactly once — the cooperative analogue
/// of [`std::thread::yield_now`]. Shard workers poll every virtual node
/// round-robin, so one yield is one trip through the rest of the shard.
pub(crate) async fn yield_once() {
    let mut yielded = false;
    std::future::poll_fn(|_| {
        if std::mem::replace(&mut yielded, true) {
            std::task::Poll::Ready(())
        } else {
            std::task::Poll::Pending
        }
    })
    .await
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
    use crate::comm::{broadcast_u64_async, global_sum_f64_async};
    use crate::ShardedMachine;
    use qcdoc_fault::FaultEvent;
    use qcdoc_scu::global::dimension_ordered_sum;

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

    /// Pump until `seen` holds, at most `rounds` times; whether it held.
    async fn pump_until(
        ctx: &mut NodeCtx,
        rounds: usize,
        mut seen: impl FnMut(&mut NodeCtx) -> bool,
    ) -> bool {
        for _ in 0..rounds {
            if seen(ctx) {
                return true;
            }
            ctx.progress();
            yield_once().await;
        }
        seen(ctx)
    }

    #[test]
    fn idle_links_still_carry_interrupts_and_supervisor_words() {
        // The pump only transmits on links with work. After a shift every
        // link has drained and left that set, so these two programs start
        // from idle links. A partition interrupt raised by node 5 must
        // still flood the whole [8] ring — each node forwards on links the
        // interrupt, not a transfer, woke — and, in a run with nothing
        // else on the wires, a supervisor word must still reach node 0's
        // +x neighbour. The bounded pumps fail the test instead of hanging
        // it.
        let ring8 = || ShardedMachine::new(TorusShape::new(&[8]));
        let (flooded, _) = ring8().run_worker_sweep(async |ctx| {
            shift_eight_words(ctx).await;
            if ctx.id.0 == 5 {
                ctx.raise_partition_irq(0b100);
            }
            pump_until(ctx, 100_000, |ctx| ctx.partition_irq_state() == 0b100).await
        });
        assert_eq!(flooded, vec![true; 8], "nodes that saw the interrupt");
        let (delivered, _) = ring8().run_worker_sweep(async |ctx| {
            shift_eight_words(ctx).await;
            match ctx.id.0 {
                0 => {
                    ctx.send_supervisor(Axis(0).plus(), 0xFEED_F00D);
                    // One pump puts the word on the wire before the node
                    // finishes, so the ledger is the same at any worker
                    // count.
                    ctx.progress();
                    false
                }
                1 => {
                    let mut events = Vec::new();
                    pump_until(ctx, 100_000, |ctx| {
                        events.extend(ctx.take_events());
                        !events.is_empty()
                    })
                    .await;
                    events == [ScuEvent::SupervisorInterrupt(0xFEED_F00D)]
                }
                _ => false,
            }
        });
        assert!(delivered[1], "the supervisor word never reached node 1");
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
        // after a deterministic number of rewinds, the machine goes
        // quiescent and wedges both endpoints, and the ledger pins the
        // blame on node 1's hardware (not on the wedged bystanders). The
        // backoff holds between rewinds are quiet wires too: a detector
        // that took them for a dead machine would wedge node 1 before its
        // budget ran out.
        let plan = FaultPlan::new(7).with_event(FaultEvent::stuck_link(1, 0, 0));
        let policy = RetryPolicy::bounded(4, 2, 64);
        let machine = ShardedMachine::new(ring4())
            .with_faults(plan)
            .with_retry_policy(policy);
        let (_, ledger) = machine.run_worker_sweep(async |ctx| {
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
        let machine = ShardedMachine::new(ring4()).with_faults(plan);
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
    fn receive_before_transmit_heals_a_noisy_wire_at_any_worker_count() {
        // One seeded wire corrupts ~30 % of its frames. The doubled sum,
        // a broadcast and an 8-word shift must still return the fault-free
        // bits, and `run_worker_sweep` pins results and ledger at 1, 2 and
        // 16 workers — the reordered pump may change *when* a resend
        // leaves, never what lands.
        let shape = TorusShape::new(&[4, 2, 2]);
        let value = |i: u32| 1.0e15 / (i as f64 + 1.0) + 1e-3 * i as f64;
        let values: Vec<f64> = (0..16).map(value).collect();
        let sums = dimension_ordered_sum(&shape, &values);
        for seed in [1, 6, 7] {
            let plan = FaultPlan::new(seed).with_event(FaultEvent::random_bit_error_rate(0.3));
            let (results, ledger) = ShardedMachine::new(shape.clone())
                .with_faults(plan)
                .with_block_checksums()
                .run_worker_sweep(async |ctx| {
                    let sum = global_sum_f64_async(ctx, value(ctx.id.0)).await;
                    let word = broadcast_u64_async(ctx, 0xFEED, 5).await;
                    (sum.to_bits(), word, shift_eight_words(ctx).await)
                });
            assert!(ledger.total_injected() > 0, "seed {seed}: noisy wire idle");
            assert!(ledger.all_checksums_ok(), "seed {seed}");
            for (node, (sum, word, block)) in results.iter().enumerate() {
                let coord = shape.coord_of(NodeId(node as u32));
                let from = shape.rank_of(shape.neighbour(coord, Axis(0).minus())).0 as u64;
                assert_eq!((*sum, *word), (sums[node].to_bits(), 0xFEED), "node {node}");
                assert_eq!(*block, (0..8).map(|i| from * 100 + i).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn dead_minus_link_wedges_the_doubled_sum_instead_of_hanging() {
        // The doubled ring sends toward −axis too, so a dead −x wire now
        // starves node 1's own send: it must wedge and report, not spin.
        let plan = FaultPlan::new(0).with_event(FaultEvent::dead_link(1, 1, 0));
        let machine = ShardedMachine::new(TorusShape::new(&[4, 2, 2])).with_faults(plan);
        let (_, ledger) = machine.run_with_health(async |ctx| global_sum_f64_async(ctx, 1.0).await);
        assert_eq!(ledger.dead_links(), vec![(1, 1)]);
        assert_eq!(ledger.nodes[1].liveness, Liveness::Wedged);
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
