//! Link-level protocol state machines: one send unit and one receive unit
//! per direction.
//!
//! The observable guarantees (§2.2) implemented here:
//!
//! * every data packet is acknowledged; up to **three words** may be in the
//!   air before an acknowledgement arrives, amortising the round trip;
//! * a detected bit error causes an **automatic hardware resend** — the
//!   sender rewinds to the rejected word (go-back-N over the FIFO wire);
//! * an unprogrammed receiver (**idle receive**) holds up to three words
//!   *without acknowledging them*, stalling the sender until the receive
//!   DMA is armed — so there is no required temporal ordering between a
//!   send on one node and the matching receive on its neighbour;
//! * both ends keep **checksums** over the data words, compared at the end
//!   of a calculation as final confirmation that no corrupted data slipped
//!   through.
//!
//! The simulated wire is FIFO and carries [`Frame`]s tagged with a sequence
//! number. The real hardware needs no sequence numbers — the synchronous
//! bit-serial wire provides the ordering, and nacks return before the next
//! frame completes — but an executor that delivers frames as discrete
//! events does, so the tag travels as simulation metadata outside the
//! 72-bit wire accounting.

use crate::dma::{DmaDescriptor, DmaEngine};
use crate::packet::{Frame, Packet};
use qcdoc_asic::memory::NodeMemory;
use std::collections::VecDeque;

/// Maximum unacknowledged data words per link: the "three in the air"
/// protocol (§2.2).
pub const WINDOW: usize = 3;

/// Capacity of the idle-receive holding register, in words (§2.2).
const IDLE_HOLD: usize = 3;

/// A first-in first-out register of at most `N` entries, held inline: the
/// acknowledgement window and the idle-receive hold are hardware registers
/// of a fixed depth, so a unit carries them without a heap allocation.
#[derive(Clone, Copy)]
struct Ring<T: Copy, const N: usize> {
    slots: [T; N],
    /// Slot of the oldest entry.
    head: usize,
    len: usize,
}

impl<T: Copy, const N: usize> Ring<T, N> {
    /// An empty ring; `fill` only occupies the unused slots.
    const fn new(fill: T) -> Ring<T, N> {
        Ring {
            slots: [fill; N],
            head: 0,
            len: 0,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The `i`th oldest entry.
    fn get(&self, i: usize) -> T {
        assert!(i < self.len, "ring index {i} past length {}", self.len);
        self.slots[(self.head + i) % N]
    }

    fn front(&self) -> Option<T> {
        (self.len > 0).then(|| self.slots[self.head])
    }

    fn push_back(&mut self, entry: T) {
        assert!(self.len < N, "ring of {N} overflowed");
        self.slots[(self.head + self.len) % N] = entry;
        self.len += 1;
    }

    fn pop_front(&mut self) -> Option<T> {
        let entry = self.front()?;
        self.head = (self.head + 1) % N;
        self.len -= 1;
        Some(entry)
    }

    fn iter(&self) -> impl Iterator<Item = T> + '_ {
        (0..self.len).map(|i| self.get(i))
    }
}

impl<T: Copy + std::fmt::Debug, const N: usize> std::fmt::Debug for Ring<T, N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Link protocol failures that are *not* handled by the hardware resend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinkError {
    /// An operation was attempted before HSSL training completed.
    NotTrained,
    /// A memory access performed by the receive DMA failed.
    Memory(String),
}

impl std::fmt::Display for LinkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinkError::NotTrained => write!(f, "link not trained"),
            LinkError::Memory(e) => write!(f, "receive DMA memory fault: {e}"),
        }
    }
}

impl std::error::Error for LinkError {}

/// Order-sensitive checksum over the data words of one link end.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkChecksum(u64);

impl LinkChecksum {
    /// Fold one word into the checksum.
    pub fn update(&mut self, word: u64) {
        self.0 = self.0.wrapping_mul(0x100000001B3).wrapping_add(word);
    }

    /// The checksum value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Consecutive failures a send unit survives before it declares itself
/// dead: `RETRY_BUDGET` go-back-N rewinds with no acknowledged word in
/// between, or as many whole-block replays with no verified block. One
/// more and the unit stops transmitting.
///
/// §2.2's hardware resends a rejected frame at once, and so does the send
/// unit. A *broken* transmitter, though, corrupts every frame and turns
/// that resend into a storm that never looks like a dead wire (frames keep
/// moving, so the machine never goes quiet). The budget ends it: the wire
/// goes silent, the nodes waiting on it wedge, and the health ledger names
/// the link. Resend counts depend on poll order, so the budget sits far
/// above what a bit-error run reaches (2 in a row outside the tests built
/// to exhaust it, EXPERIMENTS E40); a per-frame error rate near ½ can
/// still exhaust it.
pub const RETRY_BUDGET: u32 = 16;

/// A frame on the simulated wire, tagged with its data-sequence number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireFrame {
    /// Sequence number of the data word (metadata; see module docs).
    pub seq: u64,
    /// The framed packet.
    pub frame: Frame,
}

/// What a [`WireTap`] decided about one outgoing frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireVerdict {
    /// Put the frame (possibly corrupted in place) on the wire.
    Deliver,
    /// The frame vanishes — a dead wire or a crashed node.
    Drop,
}

/// Fault-injection hook on the simulated wire.
///
/// An execution engine calls the tap for every outgoing frame of a link
/// *after* the send unit produced it and *before* the frame reaches the
/// neighbour, mirroring where physical bit errors strike. The tap may
/// corrupt the frame in place (exercising the parity-reject and go-back-N
/// resend machinery of [`SendUnit`]/[`RecvUnit`] for real) or drop it
/// entirely (a dead link). The no-fault engine uses [`NullTap`].
pub trait WireTap {
    /// Inspect, corrupt, or drop the frame leaving on `link`.
    fn on_frame(&mut self, link: usize, wf: &mut WireFrame) -> WireVerdict;
}

/// The default tap: every frame travels untouched.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullTap;

impl WireTap for NullTap {
    fn on_frame(&mut self, _link: usize, _wf: &mut WireFrame) -> WireVerdict {
        WireVerdict::Deliver
    }
}

/// The send unit of one direction.
#[derive(Debug, Clone)]
pub struct SendUnit {
    trained: bool,
    /// Unacknowledged data packets (front = oldest), each with its seq.
    window: Ring<(u64, Packet), WINDOW>,
    /// How many of the window entries have been put on the wire.
    in_flight: usize,
    /// Data packets waiting behind the window.
    queue: VecDeque<Packet>,
    /// Supervisor packets wait here and take priority over normal data.
    supervisor_queue: VecDeque<u64>,
    /// Partition-interrupt bytes: fire-and-forget, highest urgency.
    irq_queue: VecDeque<u8>,
    next_seq: u64,
    checksum: LinkChecksum,
    sent_words: u64,
    resends: u64,
    /// Consecutive rewinds since the last acknowledged word.
    rewinds_since_progress: u32,
    /// Consecutive block-checksum replays since the last verified block.
    block_retries_since_ok: u32,
    /// Whole-block replays performed (sticky diagnostic counter).
    block_replays: u64,
    dead: bool,
}

impl Default for SendUnit {
    fn default() -> Self {
        SendUnit::new()
    }
}

impl SendUnit {
    /// A fresh, untrained send unit.
    pub fn new() -> SendUnit {
        SendUnit {
            trained: false,
            window: Ring::new((0, Packet::Idle)),
            in_flight: 0,
            queue: VecDeque::new(),
            supervisor_queue: VecDeque::new(),
            irq_queue: VecDeque::new(),
            next_seq: 0,
            checksum: LinkChecksum::default(),
            sent_words: 0,
            resends: 0,
            rewinds_since_progress: 0,
            block_retries_since_ok: 0,
            block_replays: 0,
            dead: false,
        }
    }

    /// Complete HSSL training.
    pub fn train(&mut self) {
        self.trained = true;
    }

    /// Queue a normal 64-bit data word.
    pub fn enqueue_word(&mut self, word: u64) {
        self.checksum.update(word);
        self.queue.push_back(Packet::Normal(word));
    }

    /// Queue a supervisor packet (priority over normal data).
    pub fn enqueue_supervisor(&mut self, word: u64) {
        self.checksum.update(word);
        self.supervisor_queue.push_back(word);
    }

    /// Queue a partition-interrupt byte.
    pub fn enqueue_irq(&mut self, bits: u8) {
        self.irq_queue.push_back(bits);
    }

    /// Produce the next frame to transmit, or `None` if the unit is idle or
    /// stalled on the acknowledgement window.
    pub fn next_frame(&mut self) -> Result<Option<WireFrame>, LinkError> {
        if !self.trained {
            return Err(LinkError::NotTrained);
        }
        // Partition interrupts bypass the data window entirely.
        if let Some(bits) = self.irq_queue.pop_front() {
            return Ok(Some(WireFrame {
                seq: u64::MAX, // not part of the data sequence
                frame: Frame::encode(Packet::PartitionIrq(bits)),
            }));
        }
        // A dead unit has given up: the wire goes quiet, the nodes waiting
        // on it wedge, and the health ledger carries the verdict.
        if self.dead {
            return Ok(None);
        }
        // Retransmission of a window entry not currently in flight
        // (rewound by a reject).
        if self.in_flight < self.window.len() {
            let (seq, pkt) = self.window.get(self.in_flight);
            self.in_flight += 1;
            // Fresh packets enter the window already in flight, so reaching
            // here always means a go-back retransmission.
            self.resends += 1;
            return Ok(Some(WireFrame {
                seq,
                frame: Frame::encode(pkt),
            }));
        }
        // New data: supervisor first, then normal, if the window has room.
        if self.window.len() >= WINDOW {
            return Ok(None);
        }
        let pkt = if let Some(w) = self.supervisor_queue.pop_front() {
            Packet::Supervisor(w)
        } else if let Some(p) = self.queue.pop_front() {
            p
        } else {
            return Ok(None);
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        self.sent_words += 1;
        self.window.push_back((seq, pkt));
        self.in_flight += 1;
        Ok(Some(WireFrame {
            seq,
            frame: Frame::encode(pkt),
        }))
    }

    /// The neighbour acknowledged every word up to and including `seq`
    /// (cumulative, go-back-N). A rewind storm makes the receiver accept
    /// some words twice (duplicates of frames resent after a reject), so
    /// the same word can be acknowledged more than once; keying the ack by
    /// sequence number makes the repeats harmless no-ops instead of
    /// popping a later, still-unacknowledged word off the window.
    pub fn on_ack(&mut self, seq: u64) {
        let mut popped = false;
        while self.window.front().is_some_and(|(s, _)| s <= seq) {
            self.window.pop_front();
            self.in_flight = self.in_flight.saturating_sub(1);
            popped = true;
        }
        if popped {
            // Forward progress: the retry budget resets.
            self.rewinds_since_progress = 0;
        }
    }

    /// The neighbour rejected the word with sequence `seq` (corrupt frame):
    /// rewind so everything from `seq` on is retransmitted (go-back-N).
    pub fn on_reject(&mut self, seq: u64) {
        if self.dead {
            return;
        }
        let pos = self.window.iter().position(|(s, _)| s == seq);
        if let Some(pos) = pos {
            // Only an actual rewind charges the retry budget: a stale
            // duplicate reject that finds the cursor already at (or
            // before) `pos` changes nothing and costs nothing.
            if pos < self.in_flight {
                self.in_flight = pos;
                self.register_rewind();
            }
        }
    }

    fn register_rewind(&mut self) {
        self.rewinds_since_progress += 1;
        if self.rewinds_since_progress > RETRY_BUDGET {
            self.dead = true;
        }
    }

    /// Whether the retry budget is exhausted (the unit stopped sending).
    pub fn retry_exhausted(&self) -> bool {
        self.dead
    }

    /// Whether the normal-data staging queue is empty.
    pub fn queue_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Number of unacknowledged words in the window.
    pub fn window_len(&self) -> usize {
        self.window.len()
    }

    /// Whether every queued word has been sent and acknowledged.
    pub fn drained(&self) -> bool {
        self.window.is_empty()
            && self.queue.is_empty()
            && self.supervisor_queue.is_empty()
            && self.irq_queue.is_empty()
    }

    /// End-of-run checksum of all data words queued on this end.
    pub fn checksum(&self) -> LinkChecksum {
        self.checksum
    }

    /// Number of go-back retransmissions performed.
    pub fn resends(&self) -> u64 {
        self.resends
    }

    /// Total distinct data words sent.
    pub fn sent_words(&self) -> u64 {
        self.sent_words
    }

    /// Restore the end-of-run checksum to a snapshot taken at a block
    /// boundary. A checked-block replay re-enqueues every payload word
    /// (plus a fresh trailer), so without the restore the failed attempt
    /// would stay folded into the sender's checksum and the end-of-run
    /// comparison would disagree even after a successful heal.
    pub fn restore_checksum(&mut self, snapshot: LinkChecksum) {
        self.checksum = snapshot;
    }

    /// Charge one block-level retry (a [`RecvOutcome::BlockCorrupt`]
    /// replay) against the retry budget. Block retries keep their own
    /// consecutive-failure count: a parity-evading burst is *accepted*
    /// word by word, so the per-word acks keep resetting the go-back-N
    /// budget — only a verified block ([`SendUnit::block_progress`])
    /// counts as progress here. Once the budget is exceeded the unit goes
    /// dead without performing the replay.
    pub fn charge_block_retry(&mut self) {
        if self.dead {
            return;
        }
        self.block_retries_since_ok += 1;
        if self.block_retries_since_ok > RETRY_BUDGET {
            self.dead = true;
        } else {
            self.block_replays += 1;
        }
    }

    /// A block verified end to end: reset the consecutive block-retry
    /// count (the block-level analogue of an ack resetting the go-back-N
    /// budget).
    pub fn block_progress(&mut self) {
        self.block_retries_since_ok = 0;
    }

    /// Whole-block replays performed after block-checksum rejects.
    pub fn block_replays(&self) -> u64 {
        self.block_replays
    }
}

/// What the receive unit did with an incoming frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecvOutcome {
    /// Data word consumed; an acknowledgement should be returned.
    Accepted,
    /// Data word held in the idle-receive register; **no acknowledgement**
    /// (the sender will stall once the window fills — §2.2).
    Held,
    /// Frame corrupt or out of sequence; a reject for `seq` should be
    /// returned so the sender rewinds.
    Rejected {
        /// The sequence number the receiver expected.
        seq: u64,
    },
    /// Duplicate of an already-accepted word (late retransmission); re-ack
    /// without consuming.
    Duplicate,
    /// The trailing block-checksum word of a checked receive matched the
    /// payload that landed: acknowledge it *and* return a block
    /// acknowledgement so the sender may retire the transfer.
    BlockOk,
    /// The trailing block-checksum word did **not** match: a multi-bit
    /// burst evaded the per-frame parity and a wrong word is sitting in
    /// memory. The unit has already rewound its DMA to the block start and
    /// restored its end-of-run checksum; the sender must replay the whole
    /// block (see [`crate::scu::WireMsg::BlockReject`]).
    BlockCorrupt,
    /// A supervisor word: deliver to the SCU register and raise a CPU
    /// interrupt.
    Supervisor(u64),
    /// A partition-interrupt byte for the flood-forwarding logic.
    PartitionIrq(u8),
}

/// State of one end-to-end checked block receive (§2.2's "checksums" made
/// per-transfer): the payload words are checksummed as they land and the
/// sender's trailing checksum word must match before the block is retired.
#[derive(Debug, Clone, Copy)]
struct CheckedBlock {
    /// Descriptor to re-arm on a mismatch — the whole block replays.
    desc: DmaDescriptor,
    /// End-of-run checksum at the block boundary, restored on a mismatch
    /// so a healed replay leaves both link ends agreeing.
    snapshot: LinkChecksum,
    /// `received_words` at the block boundary, restored alongside.
    received_snapshot: u64,
    /// Running checksum over this attempt's landed payload words.
    sum: LinkChecksum,
}

/// The receive unit of one direction.
#[derive(Debug, Clone)]
pub struct RecvUnit {
    trained: bool,
    expected_seq: u64,
    hold: Ring<(u64, u64), IDLE_HOLD>,
    dma: Option<DmaEngine>,
    checksum: LinkChecksum,
    received_words: u64,
    rejects: u64,
    /// Sequence numbers of words accepted from the hold buffer when the
    /// DMA was armed late; their acks are owed to the sender.
    pending_acks: Vec<u64>,
    /// Active checked-block state (`None` for plain receives).
    checked: Option<CheckedBlock>,
    /// Block-checksum mismatches observed (each forced a block replay).
    block_rejects: u64,
    /// Block verdict produced while draining the hold buffer in a late
    /// [`RecvUnit::arm_checked`] (the trailer was already parked there).
    pending_block: Option<(u64, bool)>,
}

impl Default for RecvUnit {
    fn default() -> Self {
        RecvUnit::new()
    }
}

impl RecvUnit {
    /// A fresh, untrained receive unit in idle-receive mode.
    pub fn new() -> RecvUnit {
        RecvUnit {
            trained: false,
            expected_seq: 0,
            hold: Ring::new((0, 0)),
            dma: None,
            checksum: LinkChecksum::default(),
            received_words: 0,
            rejects: 0,
            pending_acks: Vec::new(),
            checked: None,
            block_rejects: 0,
            pending_block: None,
        }
    }

    /// Complete HSSL training.
    pub fn train(&mut self) {
        self.trained = true;
    }

    /// Arm the receive DMA with a destination descriptor. Words parked in
    /// the idle-receive register drain to memory immediately and their
    /// withheld acknowledgements become [`RecvUnit::take_pending_acks`].
    pub fn arm(&mut self, desc: DmaDescriptor, mem: &mut NodeMemory) -> Result<(), LinkError> {
        let mut engine = DmaEngine::start(desc);
        while let Some((seq, word)) = self.hold.pop_front() {
            let addr = engine
                .next_address()
                .expect("descriptor shorter than idle-receive hold");
            mem.write_word(addr, word)
                .map_err(|e| LinkError::Memory(e.to_string()))?;
            self.received_words += 1;
            self.checksum.update(word);
            self.pending_acks.push(seq);
        }
        self.dma = Some(engine);
        Ok(())
    }

    /// Arm a *checked* receive: like [`RecvUnit::arm`], but the sender is
    /// expected to append a trailing checksum word after the `desc`
    /// payload, and the block is only retired once it matches. Held words
    /// past the payload length are the trailer of a block that arrived
    /// entirely before the arm; its verdict is left in
    /// [`RecvUnit::take_pending_block`].
    pub fn arm_checked(
        &mut self,
        desc: DmaDescriptor,
        mem: &mut NodeMemory,
    ) -> Result<(), LinkError> {
        self.checked = Some(CheckedBlock {
            desc,
            snapshot: self.checksum,
            received_snapshot: self.received_words,
            sum: LinkChecksum::default(),
        });
        let mut engine = DmaEngine::start(desc);
        while let Some((seq, word)) = self.hold.pop_front() {
            self.pending_acks.push(seq);
            match engine.next_address() {
                Some(addr) => {
                    mem.write_word(addr, word)
                        .map_err(|e| LinkError::Memory(e.to_string()))?;
                    self.received_words += 1;
                    self.checksum.update(word);
                    if let Some(cb) = &mut self.checked {
                        cb.sum.update(word);
                    }
                }
                None => {
                    // The held word past the payload is the block trailer.
                    self.dma = Some(engine);
                    let ok = matches!(self.verify_trailer(word), RecvOutcome::BlockOk);
                    self.pending_block = Some((seq, ok));
                    return Ok(());
                }
            }
        }
        self.dma = Some(engine);
        Ok(())
    }

    /// Compare the just-arrived trailer word against the running block
    /// checksum; on a mismatch rewind the DMA to the block start and
    /// restore the end-of-run state so the replay heals cleanly.
    fn verify_trailer(&mut self, word: u64) -> RecvOutcome {
        let cb = self
            .checked
            .as_mut()
            .expect("trailer without checked block");
        if word == cb.sum.value() {
            self.received_words += 1;
            self.checksum.update(word);
            self.checked = None;
            RecvOutcome::BlockOk
        } else {
            self.checksum = cb.snapshot;
            self.received_words = cb.received_snapshot;
            cb.sum = LinkChecksum::default();
            let desc = cb.desc;
            self.block_rejects += 1;
            self.dma = Some(DmaEngine::start(desc));
            RecvOutcome::BlockCorrupt
        }
    }

    /// Whether the armed receive descriptor has been fully written (and,
    /// for a checked receive, the trailing block checksum verified).
    pub fn complete(&self) -> bool {
        self.dma.as_ref().is_some_and(|d| d.done()) && self.checked.is_none()
    }

    /// Acknowledgements released by a late [`RecvUnit::arm`].
    pub fn take_pending_acks(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.pending_acks)
    }

    /// Process one incoming frame.
    pub fn on_frame(
        &mut self,
        wf: &WireFrame,
        mem: &mut NodeMemory,
    ) -> Result<RecvOutcome, LinkError> {
        if !self.trained {
            return Err(LinkError::NotTrained);
        }
        let pkt = match wf.frame.decode() {
            Ok(p) => p,
            Err(_) => {
                // Bit error detected by parity or the distance-3 type
                // codes: automatic resend.
                self.rejects += 1;
                return Ok(RecvOutcome::Rejected {
                    seq: self.expected_seq,
                });
            }
        };
        match pkt {
            Packet::PartitionIrq(bits) => Ok(RecvOutcome::PartitionIrq(bits)),
            Packet::Idle | Packet::Train(_) | Packet::Ack => Ok(RecvOutcome::Duplicate),
            Packet::Normal(word) | Packet::Supervisor(word) => {
                if wf.seq < self.expected_seq {
                    // Late retransmission of something already accepted.
                    return Ok(RecvOutcome::Duplicate);
                }
                if wf.seq > self.expected_seq {
                    // Gap after a rejected frame: rewind the sender.
                    self.rejects += 1;
                    return Ok(RecvOutcome::Rejected {
                        seq: self.expected_seq,
                    });
                }
                if let Packet::Supervisor(_) = pkt {
                    self.expected_seq += 1;
                    self.received_words += 1;
                    self.checksum.update(word);
                    return Ok(RecvOutcome::Supervisor(word));
                }
                match &mut self.dma {
                    Some(engine) if !engine.done() => {
                        let addr = engine.next_address().expect("checked not done");
                        mem.write_word(addr, word)
                            .map_err(|e| LinkError::Memory(e.to_string()))?;
                        self.expected_seq += 1;
                        self.received_words += 1;
                        self.checksum.update(word);
                        if let Some(cb) = &mut self.checked {
                            cb.sum.update(word);
                        }
                        Ok(RecvOutcome::Accepted)
                    }
                    Some(_) if self.checked.is_some() => {
                        // Payload complete: this word is the block trailer.
                        self.expected_seq += 1;
                        Ok(self.verify_trailer(word))
                    }
                    _ => {
                        // Idle receive: hold without acknowledging. The
                        // checksum and word count are deferred to the drain
                        // in [`RecvUnit::arm`]/[`RecvUnit::arm_checked`] —
                        // the holding register has not *accepted* anything
                        // yet, and a checked block must be able to restore
                        // to its boundary state.
                        if self.hold.len() < IDLE_HOLD {
                            self.hold.push_back((wf.seq, word));
                            self.expected_seq += 1;
                            Ok(RecvOutcome::Held)
                        } else {
                            // The window should have stalled the sender
                            // before a fourth unacknowledged word.
                            self.rejects += 1;
                            Ok(RecvOutcome::Rejected {
                                seq: self.expected_seq,
                            })
                        }
                    }
                }
            }
        }
    }

    /// End-of-run checksum of all data words accepted on this end.
    pub fn checksum(&self) -> LinkChecksum {
        self.checksum
    }

    /// Total distinct data words accepted.
    pub fn received_words(&self) -> u64 {
        self.received_words
    }

    /// Number of frames rejected (each one forced a hardware resend).
    pub fn rejects(&self) -> u64 {
        self.rejects
    }

    /// Number of block-checksum mismatches (each forced a block replay).
    pub fn block_rejects(&self) -> u64 {
        self.block_rejects
    }

    /// Block verdict `(trailer_seq, ok)` produced by a late
    /// [`RecvUnit::arm_checked`] that found the trailer already parked in
    /// the idle-receive hold.
    pub fn take_pending_block(&mut self) -> Option<(u64, bool)> {
        self.pending_block.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trained_pair() -> (SendUnit, RecvUnit) {
        let mut s = SendUnit::new();
        let mut r = RecvUnit::new();
        s.train();
        r.train();
        (s, r)
    }

    #[test]
    fn duplicate_acks_from_a_rewind_storm_are_no_ops() {
        // The interleaving that livelocks an unkeyed-ack protocol: the
        // receiver rejects a corrupt frame once per delivery attempt, and
        // the second (stale) reject reaches the sender after it already
        // resent the window — so the whole volley goes out twice, the
        // receiver acks the duplicates too, and the sender sees six acks
        // for three words. Seq-keyed cumulative acks make the extra three
        // pop nothing; an unkeyed ack would pop an empty window.
        let (mut s, mut r) = trained_pair();
        let mut m = mem();
        r.arm(DmaDescriptor::contiguous(0x6000, 3), &mut m).unwrap();
        for w in [5, 6, 7] {
            s.enqueue_word(w);
        }
        // First volley fills the window; frame 0 is corrupted in flight.
        let mut first: Vec<WireFrame> = Vec::new();
        while let Some(wf) = s.next_frame().unwrap() {
            first.push(wf);
        }
        assert_eq!(first.len(), WINDOW);
        first[0].frame.corrupt_bit(17);
        // The receiver rejects all three: parity on frame 0, then a
        // sequence gap for frames 1 and 2.
        for wf in &first {
            assert!(matches!(
                r.on_frame(wf, &mut m).unwrap(),
                RecvOutcome::Rejected { seq: 0 }
            ));
        }
        // The first reject rewinds and the volley is resent ...
        s.on_reject(0);
        let second: Vec<WireFrame> = std::iter::from_fn(|| s.next_frame().unwrap()).collect();
        assert_eq!(second.len(), WINDOW);
        // ... and the second, stale reject lands only now, rewinding again
        // and producing a duplicate volley.
        s.on_reject(0);
        let third: Vec<WireFrame> = std::iter::from_fn(|| s.next_frame().unwrap()).collect();
        assert_eq!(third.len(), WINDOW);
        // The receiver accepts the clean volley and acks the duplicate one
        // as well (it cannot know the sender already heard the first acks).
        let mut acks = Vec::new();
        for wf in second.iter().chain(&third) {
            match r.on_frame(wf, &mut m).unwrap() {
                RecvOutcome::Accepted | RecvOutcome::Duplicate => acks.push(wf.seq),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(acks, vec![0, 1, 2, 0, 1, 2]);
        for seq in acks {
            s.on_ack(seq);
        }
        assert!(r.complete());
        assert_eq!(m.read_block(0x6000, 3).unwrap(), vec![5, 6, 7]);
        assert_eq!(s.window_len(), 0, "every word acknowledged exactly once");
        assert_eq!(r.rejects(), 3);
        assert_eq!(s.resends(), 6);
        assert_eq!(s.checksum(), r.checksum());
    }

    fn mem() -> NodeMemory {
        NodeMemory::with_128mb_dimm()
    }

    /// Drive send/recv to completion over a perfect wire, returning acks
    /// seen.
    fn pump(s: &mut SendUnit, r: &mut RecvUnit, m: &mut NodeMemory) -> u64 {
        let mut acks = 0;
        while let Some(wf) = s.next_frame().unwrap() {
            match r.on_frame(&wf, m).unwrap() {
                RecvOutcome::Accepted | RecvOutcome::Duplicate => {
                    s.on_ack(wf.seq);
                    acks += 1;
                }
                RecvOutcome::Held => {}
                RecvOutcome::Rejected { seq } => s.on_reject(seq),
                RecvOutcome::Supervisor(_) | RecvOutcome::PartitionIrq(_) => {
                    acks += 1;
                    s.on_ack(wf.seq);
                }
                RecvOutcome::BlockOk | RecvOutcome::BlockCorrupt => {
                    unreachable!("plain pump never arms a checked receive")
                }
            }
        }
        acks
    }

    #[test]
    fn untrained_link_refuses_traffic() {
        let mut s = SendUnit::new();
        s.enqueue_word(1);
        assert_eq!(s.next_frame(), Err(LinkError::NotTrained));
    }

    #[test]
    fn simple_transfer_lands_in_memory() {
        let (mut s, mut r) = trained_pair();
        let mut m = mem();
        r.arm(DmaDescriptor::contiguous(0x1000, 4), &mut m).unwrap();
        for w in [10, 20, 30, 40] {
            s.enqueue_word(w);
        }
        pump(&mut s, &mut r, &mut m);
        assert!(r.complete());
        assert_eq!(m.read_block(0x1000, 4).unwrap(), vec![10, 20, 30, 40]);
        assert!(s.drained());
        assert_eq!(
            s.checksum(),
            r.checksum(),
            "end-of-run checksums must agree"
        );
    }

    #[test]
    fn window_stalls_at_three_unacked() {
        let (mut s, mut r) = trained_pair();
        let mut m = mem();
        for w in 0..10 {
            s.enqueue_word(w);
        }
        // Receiver is idle (unarmed): words are held, no acks — after three
        // frames the sender must stall. This is the idle-receive blocking
        // behaviour of §2.2.
        let mut sent = 0;
        while let Some(wf) = s.next_frame().unwrap() {
            assert_eq!(r.on_frame(&wf, &mut m).unwrap(), RecvOutcome::Held);
            sent += 1;
            assert!(
                sent <= WINDOW,
                "sender exceeded the three-in-the-air window"
            );
        }
        assert_eq!(sent, 3);
        assert_eq!((s.window.len(), s.in_flight), (WINDOW, WINDOW));
        assert!(!s.queue.is_empty());
    }

    #[test]
    fn arming_late_releases_held_words_and_acks() {
        let (mut s, mut r) = trained_pair();
        let mut m = mem();
        for w in [7, 8, 9, 10, 11] {
            s.enqueue_word(w);
        }
        // Send until stalled (3 held words, no acks).
        while let Some(wf) = s.next_frame().unwrap() {
            r.on_frame(&wf, &mut m).unwrap();
        }
        // Now the application on the receiving node posts its receive.
        r.arm(DmaDescriptor::contiguous(0x2000, 5), &mut m).unwrap();
        let released = r.take_pending_acks();
        assert_eq!(released.len(), 3);
        for seq in released {
            s.on_ack(seq);
        }
        pump(&mut s, &mut r, &mut m);
        assert_eq!(m.read_block(0x2000, 5).unwrap(), vec![7, 8, 9, 10, 11]);
        assert_eq!(s.checksum(), r.checksum());
    }

    #[test]
    fn corrupt_frame_triggers_resend_and_checksums_still_agree() {
        let (mut s, mut r) = trained_pair();
        let mut m = mem();
        r.arm(DmaDescriptor::contiguous(0x3000, 4), &mut m).unwrap();
        for w in [100, 200, 300, 400] {
            s.enqueue_word(w);
        }
        let mut corrupted = false;
        while let Some(mut wf) = s.next_frame().unwrap() {
            if !corrupted && wf.seq == 1 {
                wf.frame.corrupt_bit(20);
                corrupted = true;
            }
            match r.on_frame(&wf, &mut m).unwrap() {
                RecvOutcome::Accepted | RecvOutcome::Duplicate => s.on_ack(wf.seq),
                RecvOutcome::Held => {}
                RecvOutcome::Rejected { seq } => s.on_reject(seq),
                _ => unreachable!(),
            }
        }
        assert!(corrupted);
        assert!(r.rejects() >= 1);
        assert_eq!(m.read_block(0x3000, 4).unwrap(), vec![100, 200, 300, 400]);
        assert_eq!(s.checksum(), r.checksum(), "resend must leave data intact");
    }

    #[test]
    fn supervisor_takes_priority_over_normal_data() {
        let (mut s, mut r) = trained_pair();
        let mut m = mem();
        r.arm(DmaDescriptor::contiguous(0x100, 2), &mut m).unwrap();
        s.enqueue_word(1);
        s.enqueue_word(2);
        s.enqueue_supervisor(0xFEED);
        let wf = s.next_frame().unwrap().unwrap();
        match r.on_frame(&wf, &mut m).unwrap() {
            RecvOutcome::Supervisor(w) => assert_eq!(w, 0xFEED),
            other => panic!("expected supervisor first, got {other:?}"),
        }
    }

    #[test]
    fn partition_irq_bypasses_data_window() {
        let (mut s, mut r) = trained_pair();
        let mut m = mem();
        // Fill and stall the data window.
        for w in 0..5 {
            s.enqueue_word(w);
        }
        while let Some(wf) = s.next_frame().unwrap() {
            r.on_frame(&wf, &mut m).unwrap();
        }
        assert_eq!((s.window.len(), s.in_flight), (WINDOW, WINDOW));
        assert!(!s.queue.is_empty());
        // An interrupt still gets through.
        s.enqueue_irq(0b0000_0001);
        let wf = s
            .next_frame()
            .unwrap()
            .expect("irq must bypass the stalled window");
        assert_eq!(
            r.on_frame(&wf, &mut m).unwrap(),
            RecvOutcome::PartitionIrq(1)
        );
    }

    #[test]
    fn duplicate_after_rewind_is_reacked_not_rewritten() {
        let (mut s, mut r) = trained_pair();
        let mut m = mem();
        r.arm(DmaDescriptor::contiguous(0x500, 2), &mut m).unwrap();
        s.enqueue_word(42);
        s.enqueue_word(43);
        let wf0 = s.next_frame().unwrap().unwrap();
        assert_eq!(r.on_frame(&wf0, &mut m).unwrap(), RecvOutcome::Accepted);
        // Deliver the same frame again (late retransmission).
        assert_eq!(r.on_frame(&wf0, &mut m).unwrap(), RecvOutcome::Duplicate);
        assert_eq!(r.received_words(), 1);
    }

    #[test]
    fn out_of_sequence_frame_is_rejected() {
        let (mut s, mut r) = trained_pair();
        let mut m = mem();
        r.arm(DmaDescriptor::contiguous(0x600, 3), &mut m).unwrap();
        for w in [1, 2, 3] {
            s.enqueue_word(w);
        }
        let wf0 = s.next_frame().unwrap().unwrap();
        let wf1 = s.next_frame().unwrap().unwrap();
        // Drop wf0; deliver wf1 first.
        assert_eq!(
            r.on_frame(&wf1, &mut m).unwrap(),
            RecvOutcome::Rejected { seq: 0 }
        );
        s.on_reject(0);
        // Sender rewinds and retransmits from seq 0.
        let again = s.next_frame().unwrap().unwrap();
        assert_eq!(again.seq, 0);
        assert_eq!(again.frame, wf0.frame);
    }

    #[test]
    fn tap_injected_bit_error_rewinds_sender_and_still_delivers() {
        // A WireTap flips one payload bit of the frame carrying word seq 2
        // on its first transmission. The receiver's parity check must
        // reject it, the sender must rewind (go-back-N), and the retry —
        // which the tap leaves alone — must land every word intact with
        // agreeing end-of-run checksums.
        struct FlipOnce {
            hit: bool,
        }
        impl WireTap for FlipOnce {
            fn on_frame(&mut self, _link: usize, wf: &mut WireFrame) -> WireVerdict {
                if !self.hit && wf.seq == 2 {
                    wf.frame.corrupt_bit(33);
                    self.hit = true;
                }
                WireVerdict::Deliver
            }
        }
        let (mut s, mut r) = trained_pair();
        let mut m = mem();
        let mut tap = FlipOnce { hit: false };
        r.arm(DmaDescriptor::contiguous(0x4000, 6), &mut m).unwrap();
        for w in [11, 22, 33, 44, 55, 66] {
            s.enqueue_word(w);
        }
        while let Some(mut wf) = s.next_frame().unwrap() {
            if tap.on_frame(0, &mut wf) == WireVerdict::Drop {
                continue;
            }
            match r.on_frame(&wf, &mut m).unwrap() {
                RecvOutcome::Accepted | RecvOutcome::Duplicate => s.on_ack(wf.seq),
                RecvOutcome::Held => {}
                RecvOutcome::Rejected { seq } => s.on_reject(seq),
                _ => unreachable!(),
            }
        }
        assert!(tap.hit, "the tap must have fired");
        assert!(s.resends() >= 1, "the sender must have rewound");
        assert!(
            r.rejects() >= 1,
            "the receiver must have rejected the frame"
        );
        assert_eq!(
            m.read_block(0x4000, 6).unwrap(),
            vec![11, 22, 33, 44, 55, 66]
        );
        assert_eq!(s.checksum(), r.checksum(), "healed run must checksum clean");
    }

    #[test]
    fn undetected_double_flip_is_caught_only_by_end_of_run_checksums() {
        // §2.2's layered defence: two flipped payload bits in the *same*
        // parity class (bits 8 and 10 are both even-position bits of the
        // first payload byte) cancel in the parity check, so the frame
        // decodes "successfully" into a wrong word and no resend fires.
        // The end-of-run checksum comparison is what catches it.
        let (mut s, mut r) = trained_pair();
        let mut m = mem();
        r.arm(DmaDescriptor::contiguous(0x5000, 4), &mut m).unwrap();
        for w in [1000, 2000, 3000, 4000] {
            s.enqueue_word(w);
        }
        let mut corrupted = false;
        while let Some(mut wf) = s.next_frame().unwrap() {
            if !corrupted && wf.seq == 1 {
                wf.frame.corrupt_bit(8);
                wf.frame.corrupt_bit(10);
                assert!(wf.frame.decode().is_ok(), "double flip must evade parity");
                corrupted = true;
            }
            match r.on_frame(&wf, &mut m).unwrap() {
                RecvOutcome::Accepted | RecvOutcome::Duplicate => s.on_ack(wf.seq),
                RecvOutcome::Held => {}
                RecvOutcome::Rejected { seq } => s.on_reject(seq),
                _ => unreachable!(),
            }
        }
        assert!(corrupted);
        assert_eq!(
            r.rejects(),
            0,
            "the corruption must go undetected in flight"
        );
        let landed = m.read_block(0x5000, 4).unwrap();
        assert_ne!(landed[1], 2000, "the wrong word must have landed");
        assert_eq!(landed[0], 1000);
        assert_ne!(
            s.checksum(),
            r.checksum(),
            "only the end-of-run checksum comparison exposes the corruption"
        );
    }

    #[test]
    fn null_tap_delivers_everything() {
        let mut tap = NullTap;
        let mut wf = WireFrame {
            seq: 0,
            frame: Frame::encode(Packet::Normal(9)),
        };
        let before = wf.clone();
        assert_eq!(tap.on_frame(3, &mut wf), WireVerdict::Deliver);
        assert_eq!(wf, before, "NullTap must not touch the frame");
    }

    /// Window bookkeeping must stay internally consistent after any
    /// ack/reject sequence: the in-flight cursor can never pass the
    /// window, and the window can never exceed the protocol limit.
    fn assert_window_consistent(s: &SendUnit) {
        assert!(s.in_flight <= s.window.len());
        assert!(s.window.len() <= WINDOW);
    }

    #[test]
    fn stale_ack_below_window_is_a_no_op() {
        let (mut s, mut r) = trained_pair();
        let mut m = mem();
        r.arm(DmaDescriptor::contiguous(0x7000, 4), &mut m).unwrap();
        for w in [1, 2, 3, 4] {
            s.enqueue_word(w);
        }
        // Deliver and ack the first two words.
        for _ in 0..2 {
            let wf = s.next_frame().unwrap().unwrap();
            assert_eq!(r.on_frame(&wf, &mut m).unwrap(), RecvOutcome::Accepted);
            s.on_ack(wf.seq);
        }
        let before = s.window_len();
        // Acks for long-gone sequence numbers change nothing.
        s.on_ack(0);
        s.on_ack(1);
        assert_eq!(s.window_len(), before);
        assert_window_consistent(&s);
        pump(&mut s, &mut r, &mut m);
        assert!(s.drained());
        assert_eq!(m.read_block(0x7000, 4).unwrap(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn ack_beyond_window_drains_it_and_stays_consistent() {
        let (mut s, _r) = trained_pair();
        for w in [1, 2, 3] {
            s.enqueue_word(w);
        }
        while s.next_frame().unwrap().is_some() {}
        assert_eq!(s.window_len(), WINDOW);
        // A (corrupt or misrouted) cumulative ack far past anything sent
        // can only drain the window, never wrap or underflow it.
        s.on_ack(u64::MAX - 1);
        assert_eq!(s.window_len(), 0);
        assert_window_consistent(&s);
        // And a fresh word still flows normally afterwards.
        s.enqueue_word(9);
        let wf = s.next_frame().unwrap().unwrap();
        assert_eq!(wf.seq, 3);
    }

    #[test]
    fn reject_for_unknown_seq_is_a_no_op() {
        let (mut s, _r) = trained_pair();
        for w in [1, 2, 3] {
            s.enqueue_word(w);
        }
        while s.next_frame().unwrap().is_some() {}
        // Rejects for sequence numbers not in the window (already acked,
        // never sent, or garbage) must not move the in-flight cursor.
        s.on_reject(99);
        s.on_reject(u64::MAX - 7);
        assert!(s.next_frame().unwrap().is_none(), "no spurious resend");
        assert_window_consistent(&s);
    }

    #[test]
    fn duplicate_rejects_with_cursor_at_zero_do_not_charge_the_budget() {
        // Stale rejects for the same seq arrive back to back; only the
        // first actually rewinds. With the budget already spent down to
        // its last rewind, the duplicates must not kill the link.
        let (mut s, _r) = trained_pair();
        for w in [1, 2, 3] {
            s.enqueue_word(w);
        }
        for _ in 0..RETRY_BUDGET {
            while s.next_frame().unwrap().is_some() {}
            s.on_reject(0);
        }
        s.on_reject(0); // cursor already at 0: no rewind, no charge
        s.on_reject(0);
        assert!(!s.retry_exhausted());
        // The resend volley still goes out in full.
        let volley: Vec<WireFrame> = std::iter::from_fn(|| s.next_frame().unwrap()).collect();
        assert_eq!(volley.len(), WINDOW);
        assert_window_consistent(&s);
    }

    #[test]
    fn ack_progress_resets_the_retry_budget() {
        let (mut s, mut r) = trained_pair();
        let mut m = mem();
        r.arm(DmaDescriptor::contiguous(0x7100, 6), &mut m).unwrap();
        for w in [1, 2, 3, 4, 5, 6] {
            s.enqueue_word(w);
        }
        // Three separate corrupt-then-heal cycles: each burns the whole
        // budget of rewinds, but the ack in between resets it, so the link
        // survives more total rewinds than its consecutive budget.
        for round in 0..3 {
            for _ in 0..RETRY_BUDGET {
                let mut wf = s.next_frame().unwrap().unwrap();
                wf.frame.corrupt_bit(17);
                match r.on_frame(&wf, &mut m).unwrap() {
                    RecvOutcome::Rejected { seq } => s.on_reject(seq),
                    other => panic!("round {round}: expected reject, got {other:?}"),
                }
            }
            let wf = s.next_frame().unwrap().unwrap();
            assert_eq!(r.on_frame(&wf, &mut m).unwrap(), RecvOutcome::Accepted);
            s.on_ack(wf.seq);
            assert!(!s.retry_exhausted(), "round {round} must not kill the link");
        }
        pump(&mut s, &mut r, &mut m);
        assert_eq!(m.read_block(0x7100, 6).unwrap(), vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(s.checksum(), r.checksum());
    }

    #[test]
    fn exhausted_budget_kills_the_link_deterministically() {
        let (mut s, mut r) = trained_pair();
        let mut m = mem();
        r.arm(DmaDescriptor::contiguous(0x7200, 3), &mut m).unwrap();
        for w in [1, 2, 3] {
            s.enqueue_word(w);
        }
        // The initial volley (3 frames), then RETRY_BUDGET tolerated
        // rewinds. Each rewind happens after the first frame of a volley
        // is rejected, and frames 2,3 of the volley are rejected as gaps
        // against the already-rewound cursor (no extra charge), so each
        // rewind costs at most a window of frames.
        let bound = (RETRY_BUDGET as u64 + 1) * WINDOW as u64;
        // A broken transmitter: every frame arrives corrupt, every volley
        // is rejected. Count frames until the sender gives up.
        let mut frames = 0u64;
        loop {
            match s.next_frame().unwrap() {
                Some(mut wf) => {
                    frames += 1;
                    wf.frame.corrupt_bit(11);
                    if let RecvOutcome::Rejected { seq } = r.on_frame(&wf, &mut m).unwrap() {
                        s.on_reject(seq);
                    }
                }
                None => {
                    if s.retry_exhausted() {
                        break;
                    }
                    // No hold-off and a non-empty window: None without
                    // death would be a livelock bug.
                    panic!("sender idle without exhausting its budget");
                }
            }
            assert!(frames <= bound, "resend storm must be bounded");
        }
        // Dead means silent: no more frames, ever.
        for _ in 0..8 {
            assert!(s.next_frame().unwrap().is_none());
        }
        assert!(!s.drained(), "undelivered words remain — the run is lost");
        assert_window_consistent(&s);
    }

    #[test]
    fn the_retry_budget_still_heals_a_one_shot_error_bit_identically() {
        // The acceptance property in miniature: under the retry budget, a
        // transient corruption heals — same landed data, agreeing
        // checksums, bounded resends per word, and the link stays alive.
        let (mut s, mut r) = trained_pair();
        let mut m = mem();
        r.arm(DmaDescriptor::contiguous(0x7300, 5), &mut m).unwrap();
        for w in [10, 20, 30, 40, 50] {
            s.enqueue_word(w);
        }
        let mut corrupted = false;
        let mut rounds = 0;
        while !s.drained() {
            rounds += 1;
            assert!(rounds < 200, "must terminate");
            let Some(mut wf) = s.next_frame().unwrap() else {
                continue;
            };
            if !corrupted && wf.seq == 2 {
                wf.frame.corrupt_bit(29);
                corrupted = true;
            }
            match r.on_frame(&wf, &mut m).unwrap() {
                RecvOutcome::Accepted | RecvOutcome::Duplicate => s.on_ack(wf.seq),
                RecvOutcome::Held => {}
                RecvOutcome::Rejected { seq } => s.on_reject(seq),
                _ => unreachable!(),
            }
        }
        assert!(corrupted);
        assert_eq!(m.read_block(0x7300, 5).unwrap(), vec![10, 20, 30, 40, 50]);
        assert_eq!(s.checksum(), r.checksum());
        assert!(!s.retry_exhausted());
        // Go-back-N bounds: one error rewinds at most a window's worth.
        assert!((1..=WINDOW as u64).contains(&s.resends()));
    }

    #[test]
    fn checksum_is_order_sensitive() {
        let mut a = LinkChecksum::default();
        let mut b = LinkChecksum::default();
        a.update(1);
        a.update(2);
        b.update(2);
        b.update(1);
        assert_ne!(a.value(), b.value());
    }
}
