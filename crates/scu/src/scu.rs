//! The per-node Serial Communications Unit: 12 send and 12 receive units,
//! supervisor-packet delivery, and the partition-interrupt forwarding logic.
//!
//! Each uni-directional wire leaving the node multiplexes three things:
//! data frames produced by the send unit of that direction, and
//! acknowledgements / rejects for the data arriving on the paired opposite
//! wire. Acknowledgements are cumulative, so the SCU owes each wire at most
//! one: the highest sequence number accepted since the last one left. A
//! pump that drains every arrival before it transmits therefore sends one
//! ack per link, however many frames it accepted. The functional execution
//! engine (in `qcdoc-core`) moves [`WireMsg`]s between paired SCUs;
//! everything protocol-level lives here.

use crate::dma::{DmaDescriptor, DmaEngine};
use crate::link::{LinkChecksum, LinkError, RecvOutcome, RecvUnit, SendUnit, WireFrame};
use qcdoc_asic::memory::NodeMemory;

/// Number of link directions per node.
pub const LINKS: usize = 12;

/// One message on a uni-directional wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireMsg {
    /// A framed data/supervisor/interrupt packet.
    Data(WireFrame),
    /// Acknowledgement of every data word up to and including `seq` on
    /// the reverse direction. Cumulative, so a duplicate ack is a no-op and
    /// one ack stands for every frame accepted since the previous one: the
    /// receiver sends one per drain, not one per frame.
    Ack(u64),
    /// Reject: ask the sender to rewind to sequence `seq`.
    Reject(u64),
    /// The checked block whose trailing checksum word carried sequence
    /// `seq` verified end to end; the sender may retire the transfer.
    BlockAck(u64),
    /// The checked block whose trailer carried sequence `seq` failed its
    /// end-to-end checksum (a burst evaded the per-frame parity): the
    /// sender must replay the whole block with fresh sequence numbers.
    BlockReject(u64),
}

/// Events the SCU raises to the node's CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScuEvent {
    /// A supervisor packet arrived (§2.2: "the arrival of the supervisor
    /// packet causes an interrupt to be received by the neighbor's CPU").
    SupervisorInterrupt(u64),
    /// A partition interrupt with these bits was newly observed.
    PartitionInterrupt(u8),
}

/// Sender-side state of one end-to-end checked block transfer.
#[derive(Debug, Clone, Copy)]
struct BlockSend {
    /// Descriptor to replay from on a [`WireMsg::BlockReject`].
    desc: DmaDescriptor,
    /// Send-unit end-of-run checksum at the block boundary, restored on a
    /// replay so the healed run's checksums agree with the receiver's.
    snapshot: LinkChecksum,
    /// Running checksum over the payload words fed so far this attempt.
    sum: LinkChecksum,
    /// Whether the trailing checksum word has been enqueued.
    trailer_fed: bool,
    /// Whether the receiver's block acknowledgement arrived.
    acked: bool,
}

/// One link of the SCU, so that one link's pump touches one region of it.
#[derive(Debug, Default)]
struct Port {
    send: SendUnit,
    recv: RecvUnit,
    send_dma: Option<DmaEngine>,
    /// Checked-block state (`None` = plain send).
    block_send: Option<BlockSend>,
    /// Block verdict `(trailer_seq, ok)` owed to the reverse wire.
    outgoing_block: Option<(u64, bool)>,
    /// Highest data sequence number owed an ack on the reverse wire. Acks
    /// are cumulative, so one per pump carries every frame accepted since
    /// the last.
    outgoing_ack: Option<u64>,
    outgoing_reject: Option<u64>,
}

/// The SCU of one node.
#[derive(Debug, Default)]
pub struct Scu {
    ports: [Port; LINKS],
    /// Bits of partition interrupts already seen (forwarded once each,
    /// §2.2: "its SCU forwards this packet on to all of its neighbors if
    /// the packet contains an interrupt which had not been previously
    /// sent").
    irq_seen: u8,
    /// Sums of every port's `resends()` and `block_rejects()`, kept where they move.
    resends: u64,
    block_rejects: u64,
}

impl Scu {
    /// A fresh SCU with all links untrained. Every unit is held inline,
    /// so a node's SCU costs no heap allocation until traffic needs one.
    pub fn new() -> Scu {
        Scu::default()
    }

    /// Complete HSSL training on every link (run-kernel initialization).
    pub fn train_all(&mut self) {
        for p in &mut self.ports {
            p.send.train();
            p.recv.train();
        }
    }

    /// Access the send unit of a direction (for statistics/checksums).
    pub fn send_unit(&self, link: usize) -> &SendUnit {
        &self.ports[link].send
    }

    /// Access the receive unit of a direction.
    pub fn recv_unit(&self, link: usize) -> &RecvUnit {
        &self.ports[link].recv
    }

    /// Go-back-N resends and block-checksum rejects on all links, without visiting them.
    pub fn retry_totals(&self) -> (u64, u64) {
        (self.resends, self.block_rejects)
    }

    /// Begin a send: the DMA engine walks `desc` and feeds the send unit.
    /// Words are fetched from memory by the DMA as the link drains them
    /// (zero-copy: the descriptor points straight at the physics arrays).
    pub fn start_send(&mut self, link: usize, desc: DmaDescriptor) {
        let p = &mut self.ports[link];
        debug_assert!(
            p.send_dma.as_ref().is_none_or(|d| d.done()),
            "send DMA busy"
        );
        p.block_send = None;
        p.send_dma = Some(DmaEngine::start(desc));
    }

    /// Begin an end-to-end *checked* send: after the descriptor's payload
    /// the DMA feeds one trailing checksum word, and the transfer is only
    /// complete once the receiver's [`WireMsg::BlockAck`] confirms the
    /// whole block landed intact. A [`WireMsg::BlockReject`] replays the
    /// block with fresh sequence numbers, charged against the send unit's
    /// retry budget. The receive side must be armed with
    /// [`Scu::start_recv_checked`].
    pub fn start_send_checked(&mut self, link: usize, desc: DmaDescriptor) {
        self.start_send(link, desc);
        let p = &mut self.ports[link];
        p.block_send = Some(BlockSend {
            desc,
            snapshot: p.send.checksum(),
            sum: LinkChecksum::default(),
            trailer_fed: false,
            acked: false,
        });
    }

    /// Arm a receive: drains any idle-receive words and releases their
    /// acknowledgements onto the reverse wire.
    pub fn start_recv(
        &mut self,
        link: usize,
        desc: DmaDescriptor,
        mem: &mut NodeMemory,
    ) -> Result<(), LinkError> {
        let p = &mut self.ports[link];
        p.recv.arm(desc, mem)?;
        p.owe_acks();
        Ok(())
    }

    /// Arm a *checked* receive matching a [`Scu::start_send_checked`] on
    /// the neighbour: the payload is checksummed as it lands and verified
    /// against the sender's trailing checksum word before the block is
    /// retired. If the whole block (trailer included) was already parked
    /// in the idle-receive hold, the verdict is queued immediately.
    pub fn start_recv_checked(
        &mut self,
        link: usize,
        desc: DmaDescriptor,
        mem: &mut NodeMemory,
    ) -> Result<(), LinkError> {
        let p = &mut self.ports[link];
        p.recv.arm_checked(desc, mem)?;
        p.owe_acks();
        if let Some(verdict) = p.recv.take_pending_block() {
            self.block_rejects += u64::from(!verdict.1);
            p.outgoing_block = Some(verdict);
        }
        Ok(())
    }

    /// Send a supervisor word to the neighbour in direction `link`.
    pub fn send_supervisor(&mut self, link: usize, word: u64) {
        self.ports[link].send.enqueue_supervisor(word);
    }

    /// Raise a partition interrupt originating at this node: mark it seen
    /// and forward on every link.
    pub fn raise_partition_irq(&mut self, bits: u8) {
        let new = bits & !self.irq_seen;
        if new == 0 {
            return;
        }
        self.irq_seen |= new;
        for p in &mut self.ports {
            p.send.enqueue_irq(new);
        }
    }

    /// Partition-interrupt bits observed so far.
    pub fn partition_irq_state(&self) -> u8 {
        self.irq_seen
    }

    /// Produce the next message to transmit toward direction `link`.
    /// Control traffic (rejects, then acks) outranks data.
    pub fn tx_next(
        &mut self,
        link: usize,
        mem: &mut NodeMemory,
    ) -> Result<Option<WireMsg>, LinkError> {
        let p = &mut self.ports[link];
        if let Some(seq) = p.outgoing_reject.take() {
            return Ok(Some(WireMsg::Reject(seq)));
        }
        if let Some(seq) = p.outgoing_ack.take() {
            return Ok(Some(WireMsg::Ack(seq)));
        }
        // Block verdicts go out after the trailer's own ack so the sender
        // drains its window before deciding to retire or replay the block.
        if let Some((seq, ok)) = p.outgoing_block.take() {
            return Ok(Some(if ok {
                WireMsg::BlockAck(seq)
            } else {
                WireMsg::BlockReject(seq)
            }));
        }
        // Feed the send unit from its DMA engine: stage exactly one word,
        // and only when it can go straight onto the wire (queue empty and
        // window not full) — the DMA fetches lazily as the link drains.
        if p.send.queue_empty() && p.send.window_len() < crate::link::WINDOW {
            if let Some(engine) = p.send_dma.as_mut() {
                if let Some(addr) = engine.peek() {
                    let word = mem
                        .read_word(addr)
                        .map_err(|e| LinkError::Memory(e.to_string()))?;
                    engine.next_address();
                    if let Some(bs) = &mut p.block_send {
                        bs.sum.update(word);
                    }
                    p.send.enqueue_word(word);
                } else if let Some(bs) = &mut p.block_send {
                    // Payload exhausted: a checked send appends its
                    // trailing checksum word exactly once per attempt.
                    if !bs.trailer_fed && !bs.acked {
                        bs.trailer_fed = true;
                        let trailer = bs.sum.value();
                        p.send.enqueue_word(trailer);
                    }
                }
            }
        }
        let resends = p.send.resends();
        let frame = p.send.next_frame();
        self.resends += p.send.resends() - resends;
        frame.map(|f| f.map(WireMsg::Data))
    }

    /// Whether this direction has anything left to transmit.
    pub fn tx_pending(&self, link: usize) -> bool {
        let p = &self.ports[link];
        p.outgoing_reject.is_some()
            || p.outgoing_ack.is_some()
            || p.outgoing_block.is_some()
            || !p.send.drained()
            || p.send_dma.as_ref().is_some_and(|d| !d.done())
            || p.block_send.as_ref().is_some_and(|b| !b.trailer_fed)
    }

    /// Handle a message arriving *from* direction `link`.
    pub fn rx(
        &mut self,
        link: usize,
        msg: WireMsg,
        mem: &mut NodeMemory,
    ) -> Result<Option<ScuEvent>, LinkError> {
        let p = &mut self.ports[link];
        match msg {
            WireMsg::Ack(seq) => {
                p.send.on_ack(seq);
                Ok(None)
            }
            WireMsg::Reject(seq) => {
                p.send.on_reject(seq);
                Ok(None)
            }
            WireMsg::BlockAck(_) => {
                if let Some(bs) = &mut p.block_send {
                    bs.acked = true;
                    p.send.block_progress();
                }
                Ok(None)
            }
            WireMsg::BlockReject(_) => {
                if let Some(bs) = &mut p.block_send {
                    if !bs.acked {
                        // Whole-block replay: restore the end-of-run
                        // checksum to the block boundary, charge the retry
                        // budget, and (budget permitting) walk the
                        // descriptor again with fresh sequence numbers.
                        p.send.restore_checksum(bs.snapshot);
                        p.send.charge_block_retry();
                        if !p.send.retry_exhausted() {
                            bs.sum = LinkChecksum::default();
                            bs.trailer_fed = false;
                            p.send_dma = Some(DmaEngine::start(bs.desc));
                        }
                    }
                }
                Ok(None)
            }
            WireMsg::Data(wf) => match p.recv.on_frame(&wf, mem)? {
                RecvOutcome::Accepted | RecvOutcome::Duplicate => {
                    // Out-of-band frames (partition irqs ride seq u64::MAX)
                    // never enter the data window and must not be acked.
                    if wf.seq != u64::MAX {
                        p.owe_ack(wf.seq);
                    }
                    Ok(None)
                }
                RecvOutcome::Held => Ok(None),
                RecvOutcome::BlockOk => {
                    p.owe_ack(wf.seq);
                    p.outgoing_block = Some((wf.seq, true));
                    Ok(None)
                }
                RecvOutcome::BlockCorrupt => {
                    p.owe_ack(wf.seq);
                    p.outgoing_block = Some((wf.seq, false));
                    self.block_rejects += 1;
                    Ok(None)
                }
                RecvOutcome::Rejected { seq } => {
                    p.outgoing_reject = Some(seq);
                    Ok(None)
                }
                RecvOutcome::Supervisor(word) => {
                    p.owe_ack(wf.seq);
                    Ok(Some(ScuEvent::SupervisorInterrupt(word)))
                }
                RecvOutcome::PartitionIrq(bits) => {
                    let new = bits & !self.irq_seen;
                    if new == 0 {
                        return Ok(None);
                    }
                    self.irq_seen |= new;
                    // Forward to every link except the one it came from.
                    for (i, p) in self.ports.iter_mut().enumerate() {
                        if i != link {
                            p.send.enqueue_irq(new);
                        }
                    }
                    Ok(Some(ScuEvent::PartitionInterrupt(new)))
                }
            },
        }
    }

    /// Whether the send side of `link` has delivered and acked everything
    /// (and, for a checked send, the block acknowledgement arrived).
    pub fn send_complete(&self, link: usize) -> bool {
        let p = &self.ports[link];
        p.send.drained()
            && p.send_dma.as_ref().is_none_or(|d| d.done())
            && p.block_send.as_ref().is_none_or(|b| b.acked)
    }

    /// Whole-block replays performed on `link` (checked sends only).
    pub fn block_resends(&self, link: usize) -> u64 {
        self.ports[link].send.block_replays()
    }

    /// Whether the armed receive of `link` has fully landed in memory.
    pub fn recv_complete(&self, link: usize) -> bool {
        self.ports[link].recv.complete()
    }
}

impl Port {
    /// Owe the reverse wire an ack covering `seq`.
    fn owe_ack(&mut self, seq: u64) {
        self.outgoing_ack = Some(self.outgoing_ack.map_or(seq, |s| s.max(seq)));
    }

    /// Owe the acks a late arm released from the idle-receive hold.
    fn owe_acks(&mut self) {
        for seq in self.recv.take_pending_acks() {
            self.owe_ack(seq);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trained() -> (Scu, NodeMemory) {
        let mut s = Scu::new();
        s.train_all();
        (s, NodeMemory::with_128mb_dimm())
    }

    /// Shuttle messages between two SCUs over the paired directions
    /// `a_to_b` (on node A) and its reverse `b_to_a` (on node B) until both
    /// sides go quiet. Returns the number of wire messages moved.
    fn pump_pair(
        a: &mut Scu,
        am: &mut NodeMemory,
        b: &mut Scu,
        bm: &mut NodeMemory,
        a_dir: usize,
        b_dir: usize,
    ) -> usize {
        let mut moved = 0;
        loop {
            let mut progressed = false;
            if let Some(msg) = a.tx_next(a_dir, am).unwrap() {
                b.rx(b_dir, msg, bm).unwrap();
                moved += 1;
                progressed = true;
            }
            if let Some(msg) = b.tx_next(b_dir, bm).unwrap() {
                a.rx(a_dir, msg, am).unwrap();
                moved += 1;
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
        moved
    }

    #[test]
    fn dma_to_dma_transfer() {
        let (mut a, mut am) = trained();
        let (mut b, mut bm) = trained();
        am.write_block(0x1000, &[11, 22, 33, 44]).unwrap();
        a.start_send(0, DmaDescriptor::contiguous(0x1000, 4));
        b.start_recv(1, DmaDescriptor::contiguous(0x2000, 4), &mut bm)
            .unwrap();
        pump_pair(&mut a, &mut am, &mut b, &mut bm, 0, 1);
        assert!(a.send_complete(0));
        assert!(b.recv_complete(1));
        assert_eq!(bm.read_block(0x2000, 4).unwrap(), vec![11, 22, 33, 44]);
        assert_eq!(
            a.send_unit(0).checksum(),
            b.recv_unit(1).checksum(),
            "link checksums must agree at end of run"
        );
        // The counters the host's health sweep reads off each unit.
        assert_eq!(a.send_unit(0).sent_words(), 4);
        assert_eq!(b.recv_unit(1).received_words(), 4);
        assert_eq!(a.send_unit(0).resends(), 0);
    }

    #[test]
    fn send_before_recv_is_fine_idle_receive() {
        // §2.2: "there need be no temporal ordering between software
        // issuing a send on one node and a receive on another."
        let (mut a, mut am) = trained();
        let (mut b, mut bm) = trained();
        am.write_block(0x0, &[1, 2, 3, 4, 5, 6]).unwrap();
        a.start_send(4, DmaDescriptor::contiguous(0x0, 6));
        // Pump without a receive armed: sender stalls after 3 held words.
        pump_pair(&mut a, &mut am, &mut b, &mut bm, 4, 5);
        assert!(!a.send_complete(4));
        // Now the receiver posts its buffer; everything drains.
        b.start_recv(5, DmaDescriptor::contiguous(0x8000, 6), &mut bm)
            .unwrap();
        pump_pair(&mut a, &mut am, &mut b, &mut bm, 4, 5);
        assert!(a.send_complete(4));
        assert!(b.recv_complete(5));
        assert_eq!(bm.read_block(0x8000, 6).unwrap(), vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn strided_gather_scatter() {
        // Gather every other word on the sender, land contiguously on the
        // receiver — the lattice face-exchange pattern.
        let (mut a, mut am) = trained();
        let (mut b, mut bm) = trained();
        for i in 0..8u64 {
            am.write_word(0x100 + i * 8, 100 + i).unwrap();
        }
        let gather = DmaDescriptor {
            start: 0x100,
            block_words: 1,
            stride_words: 2,
            blocks: 4,
        };
        a.start_send(2, gather);
        b.start_recv(3, DmaDescriptor::contiguous(0x900, 4), &mut bm)
            .unwrap();
        pump_pair(&mut a, &mut am, &mut b, &mut bm, 2, 3);
        assert_eq!(bm.read_block(0x900, 4).unwrap(), vec![100, 102, 104, 106]);
    }

    #[test]
    fn supervisor_interrupt_delivery() {
        let (mut a, mut am) = trained();
        let (mut b, mut bm) = trained();
        a.send_supervisor(7, 0xCAFE);
        let mut event = None;
        while let Some(msg) = a.tx_next(7, &mut am).unwrap() {
            if let Some(e) = b.rx(6, msg, &mut bm).unwrap() {
                event = Some(e);
            }
            while let Some(back) = b.tx_next(6, &mut bm).unwrap() {
                a.rx(7, back, &mut am).unwrap();
            }
        }
        assert_eq!(event, Some(ScuEvent::SupervisorInterrupt(0xCAFE)));
    }

    #[test]
    fn partition_irq_forwards_once() {
        let (mut a, mut am) = trained();
        let (mut b, mut bm) = trained();
        a.raise_partition_irq(0b0000_0100);
        // Deliver on one wire; B should see the event once and mark it.
        let mut events = 0;
        while let Some(msg) = a.tx_next(0, &mut am).unwrap() {
            if b.rx(1, msg, &mut bm).unwrap().is_some() {
                events += 1;
            }
        }
        assert_eq!(events, 1);
        assert_eq!(b.partition_irq_state(), 0b100);
        // B now forwards on all links except link 1 (where it came from).
        assert!(!b.tx_pending(1) || b.tx_pending(0));
        let mut fwd_dirs = 0;
        for d in 0..LINKS {
            if d == 1 {
                continue;
            }
            if b.tx_next(d, &mut bm).unwrap().is_some() {
                fwd_dirs += 1;
            }
        }
        assert_eq!(fwd_dirs, 11, "forward on all links except the arrival one");
        // A second identical interrupt is suppressed.
        a.raise_partition_irq(0b100);
        assert!(a.tx_next(0, &mut am).unwrap().is_none());
    }

    #[test]
    fn tx_pending_tracks_all_traffic_classes() {
        let (mut a, mut am) = trained();
        assert!(!a.tx_pending(0), "fresh SCU is quiet");
        // Data pending via DMA.
        am.write_word(0x0, 1).unwrap();
        a.start_send(0, DmaDescriptor::contiguous(0x0, 1));
        assert!(a.tx_pending(0));
        // Drain it against an armed peer.
        let (mut b, mut bm) = trained();
        b.start_recv(1, DmaDescriptor::contiguous(0x100, 1), &mut bm)
            .unwrap();
        pump_pair(&mut a, &mut am, &mut b, &mut bm, 0, 1);
        assert!(!a.tx_pending(0));
        // Supervisor word makes it pending again.
        a.send_supervisor(0, 5);
        assert!(a.tx_pending(0));
    }

    #[test]
    fn checked_transfer_clean_path_delivers_and_retires() {
        let (mut a, mut am) = trained();
        let (mut b, mut bm) = trained();
        am.write_block(0x1000, &[11, 22, 33, 44]).unwrap();
        a.start_send_checked(0, DmaDescriptor::contiguous(0x1000, 4));
        b.start_recv_checked(1, DmaDescriptor::contiguous(0x2000, 4), &mut bm)
            .unwrap();
        pump_pair(&mut a, &mut am, &mut b, &mut bm, 0, 1);
        assert!(a.send_complete(0));
        assert!(b.recv_complete(1));
        assert_eq!(bm.read_block(0x2000, 4).unwrap(), vec![11, 22, 33, 44]);
        assert_eq!(a.send_unit(0).checksum(), b.recv_unit(1).checksum());
        // Exactly one extra word on the wire: the trailing checksum.
        assert_eq!(a.send_unit(0).sent_words(), 5);
        assert_eq!(b.recv_unit(1).received_words(), 5);
        assert_eq!(b.recv_unit(1).block_rejects(), 0);
        assert_eq!(a.block_resends(0), 0);
    }

    #[test]
    fn parity_evading_burst_is_caught_and_healed_by_block_checksum() {
        // The "after" counterpart of the link-level
        // `undetected_double_flip_is_caught_only_by_end_of_run_checksums`
        // test: the same two same-parity-class payload flips now trip the
        // end-to-end block checksum mid-run, the block replays, and the
        // right data lands — nothing silently wrong survives.
        let (mut a, mut am) = trained();
        let (mut b, mut bm) = trained();
        am.write_block(0x1000, &[1000, 2000, 3000, 4000]).unwrap();
        a.start_send_checked(0, DmaDescriptor::contiguous(0x1000, 4));
        b.start_recv_checked(1, DmaDescriptor::contiguous(0x2000, 4), &mut bm)
            .unwrap();
        let mut corrupted = false;
        loop {
            let mut progressed = false;
            if let Some(mut msg) = a.tx_next(0, &mut am).unwrap() {
                if let WireMsg::Data(wf) = &mut msg {
                    if !corrupted && wf.seq == 1 {
                        wf.frame.corrupt_bit(8);
                        wf.frame.corrupt_bit(10);
                        assert!(wf.frame.decode().is_ok(), "flips must evade parity");
                        corrupted = true;
                    }
                }
                b.rx(1, msg, &mut bm).unwrap();
                progressed = true;
            }
            if let Some(msg) = b.tx_next(1, &mut bm).unwrap() {
                a.rx(0, msg, &mut am).unwrap();
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
        assert!(corrupted);
        assert!(a.send_complete(0));
        assert!(b.recv_complete(1));
        assert_eq!(
            bm.read_block(0x2000, 4).unwrap(),
            vec![1000, 2000, 3000, 4000]
        );
        assert_eq!(b.recv_unit(1).rejects(), 0, "frame parity never fired");
        assert_eq!(b.recv_unit(1).block_rejects(), 1);
        assert_eq!(a.block_resends(0), 1);
        assert_eq!(
            a.send_unit(0).checksum(),
            b.recv_unit(1).checksum(),
            "healed replay must leave end-of-run checksums agreeing"
        );
    }

    #[test]
    fn checked_block_smaller_than_hold_verifies_on_late_arm() {
        // A two-word block plus its trailer fits in the idle-receive hold,
        // so the whole checked block can arrive before the receive is
        // armed; the late arm must drain, verify, and retire it.
        let (mut a, mut am) = trained();
        let (mut b, mut bm) = trained();
        am.write_block(0x40, &[5, 6]).unwrap();
        a.start_send_checked(0, DmaDescriptor::contiguous(0x40, 2));
        pump_pair(&mut a, &mut am, &mut b, &mut bm, 0, 1);
        assert!(!a.send_complete(0), "no acks before the arm");
        b.start_recv_checked(1, DmaDescriptor::contiguous(0x80, 2), &mut bm)
            .unwrap();
        pump_pair(&mut a, &mut am, &mut b, &mut bm, 0, 1);
        assert!(a.send_complete(0));
        assert!(b.recv_complete(1));
        assert_eq!(bm.read_block(0x80, 2).unwrap(), vec![5, 6]);
        assert_eq!(a.send_unit(0).checksum(), b.recv_unit(1).checksum());
        assert_eq!(b.recv_unit(1).block_rejects(), 0);
    }

    #[test]
    fn persistent_block_corruption_exhausts_the_retry_budget() {
        // A wire that corrupts every data frame with a parity-evading flip
        // pair defeats the frame-level defence entirely (every word is
        // individually acked, so the go-back-N budget keeps resetting).
        // The block-level retry count must bound the replay storm and kill
        // the link deterministically.
        let (mut a, mut am) = trained();
        let (mut b, mut bm) = trained();
        am.write_block(0x0, &[7, 8, 9]).unwrap();
        a.start_send_checked(0, DmaDescriptor::contiguous(0x0, 3));
        b.start_recv_checked(1, DmaDescriptor::contiguous(0x100, 3), &mut bm)
            .unwrap();
        let mut rounds = 0;
        loop {
            rounds += 1;
            assert!(rounds < 1000, "replay storm must be bounded");
            let mut progressed = false;
            if let Some(mut msg) = a.tx_next(0, &mut am).unwrap() {
                if let WireMsg::Data(wf) = &mut msg {
                    wf.frame.corrupt_bit(8);
                    wf.frame.corrupt_bit(10);
                }
                b.rx(1, msg, &mut bm).unwrap();
                progressed = true;
            }
            if let Some(msg) = b.tx_next(1, &mut bm).unwrap() {
                a.rx(0, msg, &mut am).unwrap();
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
        assert!(a.send_unit(0).retry_exhausted());
        assert!(!a.send_complete(0), "the block was never delivered intact");
        // RETRY_BUDGET replays were allowed; the reject after them kills.
        let budget = u64::from(crate::link::RETRY_BUDGET);
        assert_eq!(a.block_resends(0), budget);
        assert_eq!(b.recv_unit(1).block_rejects(), budget + 1);
    }

    #[test]
    fn one_cumulative_ack_per_drained_window() {
        // Each step A transmits until its window stalls, B drains all of
        // it, then B transmits everything it owes and A drains that — the
        // engine's receive-before-transmit pump. B owes one ack per step,
        // not one per frame: 768 words are 256 windows and 256 acks.
        let (mut a, mut am) = trained();
        let (mut b, mut bm) = trained();
        let words: Vec<u64> = (0..768u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        am.write_block(0x1000, &words).unwrap();
        a.start_send(0, DmaDescriptor::contiguous(0x1000, 768));
        b.start_recv(1, DmaDescriptor::contiguous(0x10000, 768), &mut bm)
            .unwrap();
        let mut acks = 0;
        loop {
            let mut moved = false;
            while let Some(msg) = a.tx_next(0, &mut am).unwrap() {
                b.rx(1, msg, &mut bm).unwrap();
                moved = true;
            }
            while let Some(msg) = b.tx_next(1, &mut bm).unwrap() {
                acks += usize::from(matches!(msg, WireMsg::Ack(_)));
                a.rx(0, msg, &mut am).unwrap();
                moved = true;
            }
            if !moved {
                break;
            }
        }
        assert!(a.send_complete(0));
        assert!(b.recv_complete(1));
        assert_eq!(
            acks,
            256,
            "one ack per drained window of {}",
            crate::link::WINDOW
        );
        assert_eq!(bm.read_block(0x10000, 768).unwrap(), words);
        assert_eq!(a.send_unit(0).checksum(), b.recv_unit(1).checksum());
    }

    #[test]
    fn bidirectional_concurrent_transfers() {
        // QCDOC supports concurrent sends and receives to each neighbour
        // (§2.2): run both directions of the same axis at once.
        let (mut a, mut am) = trained();
        let (mut b, mut bm) = trained();
        am.write_block(0x0, &[1, 2, 3]).unwrap();
        bm.write_block(0x0, &[9, 8, 7]).unwrap();
        a.start_send(0, DmaDescriptor::contiguous(0x0, 3));
        b.start_send(1, DmaDescriptor::contiguous(0x0, 3));
        a.start_recv(0, DmaDescriptor::contiguous(0x500, 3), &mut am)
            .unwrap();
        b.start_recv(1, DmaDescriptor::contiguous(0x500, 3), &mut bm)
            .unwrap();
        pump_pair(&mut a, &mut am, &mut b, &mut bm, 0, 1);
        assert_eq!(am.read_block(0x500, 3).unwrap(), vec![9, 8, 7]);
        assert_eq!(bm.read_block(0x500, 3).unwrap(), vec![1, 2, 3]);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// What one drain of `frames` owes the sender, as the receiving
        /// SCU records it: the latest reject, and an ack per accepted or
        /// duplicate data frame in arrival order. `fates` decides each
        /// frame in wire order: 0 corrupts it, 1 delivers it twice,
        /// anything else delivers it once; once `fates` runs out, frames
        /// arrive clean.
        fn drain(
            frames: &[WireFrame],
            fates: &mut impl Iterator<Item = u8>,
            recv: &mut RecvUnit,
            mem: &mut NodeMemory,
        ) -> (Option<u64>, Vec<u64>) {
            let (mut reject, mut acks) = (None, Vec::new());
            for wf in frames {
                let mut wf = wf.clone();
                let fate = fates.next().unwrap_or(2);
                if fate == 0 {
                    wf.frame.corrupt_bit(12);
                }
                for _ in 0..1 + usize::from(fate == 1) {
                    match recv.on_frame(&wf, mem).unwrap() {
                        RecvOutcome::Accepted | RecvOutcome::Duplicate => acks.push(wf.seq),
                        RecvOutcome::Rejected { seq } => reject = Some(seq),
                        other => panic!("unexpected {other:?}"),
                    }
                }
            }
            (reject, acks)
        }

        /// Whether `scu`'s node-wide retry totals equal the sums of its
        /// per-link counters.
        fn totals_match(scu: &Scu) -> bool {
            let resends: u64 = (0..LINKS).map(|l| scu.send_unit(l).resends()).sum();
            let block_rejects: u64 = (0..LINKS).map(|l| scu.recv_unit(l).block_rejects()).sum();
            scu.retry_totals() == (resends, block_rejects)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The node-wide resend and block-reject totals equal the
            /// per-link sums after every message, through transfers that
            /// take random bit errors (frame rejects and go-back-N resends)
            /// and parity-evading bursts (block rejects and replays on a
            /// checked block, silent damage on an unchecked one), armed
            /// before the data arrives or after it sits in the idle hold.
            #[test]
            fn node_retry_totals_are_the_per_link_sums(
                transfers in prop::collection::vec((0usize..3, 1u32..=6, 0u8..8), 1..8),
                fates in prop::collection::vec(0u8..6, 0..64),
            ) {
                let (mut a, mut am) = trained();
                let (mut b, mut bm) = trained();
                let mut fates = fates.into_iter();
                for (pair, words, flags) in transfers {
                    // Which way the block goes, whether it is checked, and
                    // whether the receive is armed only once the sender
                    // stalls on the idle hold.
                    let (a_sends, checked, late_arm) = (flags & 1 != 0, flags & 2 != 0, flags & 4 != 0);
                    // Link 2·pair on one node faces link 2·pair + 1 on the
                    // other, the way a +axis wire meets its −axis end.
                    let (tx, rx) = (2 * pair, 2 * pair + 1);
                    let ((s, sm), (r, rm)) = if a_sends {
                        ((&mut a, &mut am), (&mut b, &mut bm))
                    } else {
                        ((&mut b, &mut bm), (&mut a, &mut am))
                    };
                    let data: Vec<u64> = (0..words as u64).map(|w| w * 0x9E37 + 1).collect();
                    sm.write_block(0x1000, &data).unwrap();
                    let (send, recv) = (
                        DmaDescriptor::contiguous(0x1000, words),
                        DmaDescriptor::contiguous(0x8000, words),
                    );
                    let arm = |r: &mut Scu, rm: &mut NodeMemory| if checked {
                        r.start_recv_checked(rx, recv, rm).unwrap();
                    } else {
                        r.start_recv(rx, recv, rm).unwrap();
                    };
                    if checked {
                        s.start_send_checked(tx, send);
                    } else {
                        s.start_send(tx, send);
                    }
                    let mut armed = !late_arm;
                    if armed {
                        arm(r, rm);
                    }
                    loop {
                        let mut moved = false;
                        if let Some(mut msg) = s.tx_next(tx, sm).unwrap() {
                            if let WireMsg::Data(wf) = &mut msg {
                                match fates.next().unwrap_or(5) {
                                    0 => wf.frame.corrupt_bit(12),
                                    1 => {
                                        wf.frame.corrupt_bit(8);
                                        wf.frame.corrupt_bit(10);
                                    }
                                    _ => {}
                                }
                            }
                            r.rx(rx, msg, rm).unwrap();
                            moved = true;
                        }
                        prop_assert!(totals_match(s) && totals_match(r));
                        if let Some(msg) = r.tx_next(rx, rm).unwrap() {
                            s.rx(tx, msg, sm).unwrap();
                            moved = true;
                        }
                        prop_assert!(totals_match(s) && totals_match(r));
                        if !moved && !armed {
                            arm(r, rm);
                            armed = true;
                            prop_assert!(totals_match(r));
                        } else if !moved {
                            break;
                        }
                    }
                    prop_assert!(s.send_complete(tx) && r.recv_complete(rx));
                }
            }

            /// The coalesced ack is the per-frame ack sequence folded: a
            /// send unit fed the reject and then only the highest ack owed
            /// ends every drain in the same state — window, in-flight
            /// cursor, rewind count — as one fed
            /// the reject and then every ack, under any mix of corrupt and
            /// duplicated frames.
            #[test]
            fn a_coalesced_ack_leaves_the_sender_where_per_frame_acks_do(
                words in 1u32..48,
                schedule in prop::collection::vec(0u8..8, 0..96),
            ) {
                let mut per_frame = SendUnit::new();
                per_frame.train();
                for w in 0..words as u64 {
                    per_frame.enqueue_word(w);
                }
                let mut coalesced = per_frame.clone();
                let mut recv = RecvUnit::new();
                recv.train();
                let mut mem = NodeMemory::with_128mb_dimm();
                recv.arm(DmaDescriptor::contiguous(0x1000, words), &mut mem).unwrap();
                let mut fates = schedule.into_iter();
                for _ in 0..10_000 {
                    if recv.complete() && per_frame.drained() {
                        break;
                    }
                    let mut frames = Vec::new();
                    while let Some(wf) = per_frame.next_frame().unwrap() {
                        prop_assert_eq!(coalesced.next_frame().unwrap(), Some(wf.clone()));
                        frames.push(wf);
                    }
                    prop_assert_eq!(coalesced.next_frame().unwrap(), None);
                    let (reject, acks) = drain(&frames, &mut fates, &mut recv, &mut mem);
                    for unit in [&mut per_frame, &mut coalesced] {
                        if let Some(seq) = reject {
                            unit.on_reject(seq);
                        }
                    }
                    for &seq in &acks {
                        per_frame.on_ack(seq);
                    }
                    if let Some(&max) = acks.iter().max() {
                        coalesced.on_ack(max);
                    }
                    prop_assert_eq!(format!("{coalesced:?}"), format!("{per_frame:?}"));
                }
                prop_assert!(recv.complete() && per_frame.drained(), "transfer must finish");
                prop_assert_eq!(per_frame.checksum(), recv.checksum());
            }

            /// Any even-count burst confined to one parity class — the
            /// exact family of errors the Hamming-distance-3 frame code
            /// cannot see — is caught by the end-to-end block checksum and
            /// healed by a whole-block replay, for every burst width and
            /// position and any payload.
            #[test]
            fn any_parity_evading_burst_is_healed_by_the_block_checksum(
                words in prop::collection::vec(any::<u64>(), 4..=4),
                seq in 0u64..4,
                first_bit in 0usize..64,
                pairs in 1usize..=16,
            ) {
                let (mut a, mut am) = trained();
                let (mut b, mut bm) = trained();
                am.write_block(0x1000, &words).unwrap();
                a.start_send_checked(0, DmaDescriptor::contiguous(0x1000, 4));
                b.start_recv_checked(1, DmaDescriptor::contiguous(0x2000, 4), &mut bm)
                    .unwrap();
                let mut corrupted = false;
                loop {
                    let mut progressed = false;
                    if let Some(mut msg) = a.tx_next(0, &mut am).unwrap() {
                        if let WireMsg::Data(wf) = &mut msg {
                            if !corrupted && wf.seq == seq {
                                // 2·pairs flips spaced two apart: same
                                // parity class, even count — invisible to
                                // the frame parity.
                                for k in 0..2 * pairs {
                                    wf.frame.corrupt_bit(8 + (first_bit + 2 * k) % 64);
                                }
                                prop_assert!(
                                    wf.frame.decode().is_ok(),
                                    "burst must evade the frame parity"
                                );
                                corrupted = true;
                            }
                        }
                        b.rx(1, msg, &mut bm).unwrap();
                        progressed = true;
                    }
                    if let Some(msg) = b.tx_next(1, &mut bm).unwrap() {
                        a.rx(0, msg, &mut am).unwrap();
                        progressed = true;
                    }
                    if !progressed {
                        break;
                    }
                }
                prop_assert!(corrupted);
                prop_assert!(a.send_complete(0));
                prop_assert!(b.recv_complete(1));
                prop_assert_eq!(bm.read_block(0x2000, 4).unwrap(), words);
                prop_assert_eq!(b.recv_unit(1).rejects(), 0);
                prop_assert_eq!(b.recv_unit(1).block_rejects(), 1);
                prop_assert_eq!(a.block_resends(0), 1);
                prop_assert_eq!(
                    a.send_unit(0).checksum(),
                    b.recv_unit(1).checksum()
                );
            }
        }
    }
}
