//! The compiled fault plan: deterministic, stateless draw machinery.

use crate::plan::{FaultKind, FaultPlan, LinkSelect, NodeSelect};
use qcdoc_geometry::{NodeId, TorusShape};
use qcdoc_scu::link::{WireFrame, WireTap, WireVerdict};
use qcdoc_scu::LINKS;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::sync::Arc;

/// SplitMix64 finalizer: the hash behind every stateless draw, here and
/// in the storage-fault clock.
pub(crate) fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A [`FaultPlan`] compiled against a concrete machine.
///
/// Compilation resolves every `Random` target once, using a seeded
/// [`StdRng`]; after that the clock is immutable and every query is a pure
/// function of `(seed, node, link, sequence)`. Two clocks compiled from
/// equal plans against equal machines answer every query identically —
/// regardless of thread scheduling in the engine that asks.
#[derive(Debug, Clone, Default)]
pub struct FaultClock {
    seed: u64,
    bit_flips: Vec<(u32, usize, u64, usize, usize)>,
    payload_bursts: Vec<(u32, usize, u64, usize, usize)>,
    error_rates: Vec<(u32, usize, f64)>,
    stalls: Vec<(u32, usize, usize, u64)>,
    dead_links: Vec<(u32, usize, u64)>,
    stuck_links: Vec<(u32, usize, u64)>,
    pauses: Vec<(u32, Option<usize>, u64)>,
    crashes: Vec<(u32, usize)>,
    mem_flips: Vec<(u32, u64, u32)>,
}

/// Why a [`FaultPlan`] cannot be compiled against a machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanError {
    /// An event names node `.0` of a machine of `.1` nodes.
    NoSuchNode(u32, usize),
    /// A link-scoped event names link `.1` of node `.0`, which is not a
    /// wire of the machine ([`TorusShape::wires`]).
    NoSuchWire(u32, usize),
    /// An event draws a random link on a machine with no wires.
    NoWires,
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            PlanError::NoSuchNode(node, nodes) => {
                write!(f, "fault plan names node {node} of a {nodes}-node machine")
            }
            PlanError::NoSuchWire(node, link) => {
                write!(f, "fault plan names link {link} of node {node}, not a wire")
            }
            PlanError::NoWires => write!(f, "fault plan draws a link on a machine with no wires"),
        }
    }
}

impl std::error::Error for PlanError {}

impl FaultClock {
    /// Compile `plan` for a machine of `shape`. Refuses a plan that names a
    /// node the machine lacks or aims a link-scoped event at a link that is
    /// not one of its wires; random links draw among the wires.
    pub fn resolve(plan: &FaultPlan, shape: &TorusShape) -> Result<FaultClock, PlanError> {
        let nodes = shape.node_count();
        // Every node has the same links wired.
        let wired: Vec<usize> = shape
            .wires(NodeId(0))
            .map(|(d, ..)| d.link_index())
            .collect();
        let mut rng = StdRng::seed_from_u64(plan.seed);
        let mut clock = FaultClock {
            seed: plan.seed,
            ..FaultClock::default()
        };
        for event in &plan.events {
            let node = match event.node {
                NodeSelect::Node(node) if (node as usize) < nodes => node,
                NodeSelect::Node(node) => return Err(PlanError::NoSuchNode(node, nodes)),
                NodeSelect::Random => rng.gen_range(0..nodes as u32),
            };
            let link = match event.link {
                LinkSelect::Link(link) => link,
                LinkSelect::Random if wired.is_empty() => return Err(PlanError::NoWires),
                LinkSelect::Random => wired[rng.gen_range(0..wired.len())],
            };
            if !event.kind.is_node_scoped() && !wired.contains(&link) {
                return Err(PlanError::NoSuchWire(node, link));
            }
            match event.kind {
                FaultKind::BitFlip {
                    seq,
                    first_bit,
                    burst,
                } => {
                    clock
                        .bit_flips
                        .push((node, link, seq, first_bit, burst.max(1)));
                }
                FaultKind::BitErrorRate { rate } => {
                    assert!((0.0..=1.0).contains(&rate), "rate {rate} outside [0, 1]");
                    clock.error_rates.push((node, link, rate));
                }
                FaultKind::Stall { iteration, cycles } => {
                    clock.stalls.push((node, link, iteration, cycles));
                }
                FaultKind::DeadLink { from_seq } => {
                    clock.dead_links.push((node, link, from_seq));
                }
                FaultKind::StuckLink { from_seq } => {
                    clock.stuck_links.push((node, link, from_seq));
                }
                FaultKind::NodePause { iteration, cycles } => {
                    clock.pauses.push((node, iteration, cycles));
                }
                FaultKind::NodeCrash { iteration } => clock.crashes.push((node, iteration)),
                FaultKind::MemBitFlip { addr, bit } => clock.mem_flips.push((node, addr, bit)),
                FaultKind::MemDoubleFlip { addr, bit, bit2 } => {
                    assert_ne!(bit, bit2, "a double flip needs two distinct bits");
                    // Two raw flips of the same word: the injection loop
                    // stays a plain (addr, bit) stream, and SEC-DED sees
                    // an uncorrectable word.
                    clock.mem_flips.push((node, addr, bit));
                    clock.mem_flips.push((node, addr, bit2));
                }
                FaultKind::PayloadBurst {
                    seq,
                    first_bit,
                    pairs,
                } => {
                    clock
                        .payload_bursts
                        .push((node, link, seq, first_bit, pairs.clamp(1, 16)));
                }
            }
        }
        Ok(clock)
    }

    fn key(&self, tag: u64, node: u32, link: usize, seq: u64) -> u64 {
        mix(self
            .seed
            .wrapping_add(mix(tag))
            .wrapping_add(mix(node as u64 ^ 0xA5A5_0000))
            .wrapping_add(mix(link as u64 ^ 0x5A5A_0000))
            .wrapping_add(mix(seq)))
    }

    /// Whether the wire swallows this frame entirely: a dead link, or a
    /// node that crashed (its outgoing traffic stops).
    pub fn drop_frame(&self, node: u32, link: usize, seq: u64) -> bool {
        if self.crashes.iter().any(|&(n, _)| n == node) {
            return true;
        }
        self.dead_links
            .iter()
            .any(|&(n, l, from)| n == node && l == link && from <= seq)
    }

    /// Apply bit corruption to a *fresh* (first-transmission) data frame.
    /// Returns whether the frame was corrupted. Pure in `(node, link,
    /// seq)`: retransmissions must not be passed back in (see
    /// [`NodeTap`]), or they would be corrupted identically forever.
    fn corrupt_fresh(&self, node: u32, link: usize, wf: &mut WireFrame) -> bool {
        let mut hit = false;
        let bits = wf.frame.wire_bits() as usize;
        for &(n, l, seq, first_bit, burst) in &self.bit_flips {
            if n == node && l == link && seq == wf.seq {
                for b in 0..burst {
                    wf.frame.corrupt_bit((first_bit + b) % bits);
                }
                hit = true;
            }
        }
        for &(n, l, seq, first_bit, pairs) in &self.payload_bursts {
            if n == node && l == link && seq == wf.seq && bits >= 72 {
                // 2·pairs flips, all in the payload (frame bits 8..72) and
                // all in the same even/odd parity class (spacing 2): both
                // class parities flip an even number of times, so the
                // frame still decodes — carrying a wrong word.
                for k in 0..2 * pairs {
                    wf.frame.corrupt_bit(8 + (first_bit + 2 * k) % 64);
                }
                hit = true;
            }
        }
        for (i, &(n, l, rate)) in self.error_rates.iter().enumerate() {
            if n == node && l == link {
                let draw = self.key(0xE44 + i as u64, node, link, wf.seq);
                if unit(draw) < rate {
                    wf.frame.corrupt_bit((mix(draw) % bits as u64) as usize);
                    hit = true;
                }
            }
        }
        hit
    }

    /// Extra compute cycles for `node` at `iteration` (node pauses).
    pub fn pause_cycles(&self, node: u32, iteration: usize) -> u64 {
        self.pauses
            .iter()
            .filter(|&&(n, it, _)| n == node && it.is_none_or(|i| i == iteration))
            .map(|&(_, _, c)| c)
            .sum()
    }

    /// Extra cycles `node`'s `link` withholds its face at `iteration`.
    pub fn stall_cycles(&self, node: u32, link: usize, iteration: usize) -> u64 {
        self.stalls
            .iter()
            .filter(|&&(n, l, it, _)| n == node && l == link && it == iteration)
            .map(|&(_, _, _, c)| c)
            .sum()
    }

    /// Deterministic number of in-flight corruptions on `node`'s `link`
    /// during `iteration`, with `words` data words crossing it. Scheduled
    /// bit-flips whose sequence number falls in the iteration's word range
    /// count directly; sustained error rates contribute a Poisson draw
    /// keyed by `(node, link, iteration)`.
    pub fn wire_errors(&self, node: u32, link: usize, iteration: usize, words: u64) -> u64 {
        let lo = iteration as u64 * words;
        let hi = lo + words;
        let mut count = self
            .bit_flips
            .iter()
            .filter(|&&(n, l, seq, _, _)| n == node && l == link && seq >= lo && seq < hi)
            .count() as u64;
        for (i, &(n, l, rate)) in self.error_rates.iter().enumerate() {
            if n == node && l == link {
                let lambda = rate * words as f64;
                let u = unit(self.key(0xDE5 + i as u64, node, link, iteration as u64));
                // Inverse-CDF Poisson: cheap for the small λ of real BERs.
                let mut k = 0u64;
                let mut p = (-lambda).exp();
                let mut cdf = p;
                while u > cdf && k < words {
                    k += 1;
                    p *= lambda / k as f64;
                    cdf += p;
                }
                count += k;
            }
        }
        count
    }

    /// The iteration at which `node` goes dark, if it ever does.
    pub fn crash_iteration(&self, node: u32) -> Option<usize> {
        self.crashes
            .iter()
            .filter(|&&(n, _)| n == node)
            .map(|&(_, it)| it)
            .min()
    }

    /// The first dropped sequence number of `node`'s `link`, if the wire
    /// is scheduled to die.
    pub fn link_dead_from(&self, node: u32, link: usize) -> Option<u64> {
        self.dead_links
            .iter()
            .filter(|&&(n, l, _)| n == node && l == link)
            .map(|&(_, _, from)| from)
            .min()
    }

    /// The first corrupted sequence number of `node`'s `link`, if the
    /// transmitter is scheduled to break.
    fn link_stuck_from(&self, node: u32, link: usize) -> Option<u64> {
        self.stuck_links
            .iter()
            .filter(|&&(n, l, _)| n == node && l == link)
            .map(|&(_, _, from)| from)
            .min()
    }

    /// Corrupt a frame crossing a stuck transmitter — resends included.
    /// Returns whether the frame was touched. The flipped bit is keyed by
    /// the sequence number alone, so every retransmission of a word is
    /// corrupted identically: the defining property of a broken driver,
    /// and the one the go-back-N resend cannot heal.
    fn corrupt_stuck(&self, node: u32, link: usize, wf: &mut WireFrame) -> bool {
        let Some(from) = self.link_stuck_from(node, link) else {
            return false;
        };
        if wf.seq < from {
            return false;
        }
        let bits = wf.frame.wire_bits();
        let draw = self.key(0x57C4, node, link, wf.seq);
        wf.frame.corrupt_bit((draw % bits) as usize);
        true
    }

    /// Memory soft errors scheduled for `node` (byte address, bit).
    pub fn mem_faults(&self, node: u32) -> Vec<(u64, u32)> {
        self.mem_flips
            .iter()
            .filter(|&&(n, _, _)| n == node)
            .map(|&(_, addr, bit)| (addr, bit))
            .collect()
    }
}

/// One node's wire tap, installable into an execution engine.
///
/// The tap distinguishes first transmissions from go-back-N resends by
/// tracking the highest data sequence seen per link: corruption draws
/// apply only to fresh frames, so an injected error is healed by exactly
/// one resend round instead of recurring forever, and the injected-fault
/// count is deterministic no matter how the engine's threads interleave.
#[derive(Debug)]
pub struct NodeTap {
    clock: Arc<FaultClock>,
    node: u32,
    fresh: [u64; LINKS],
    injected: [u64; LINKS],
}

impl NodeTap {
    /// A tap for logical node `node`.
    pub fn new(clock: Arc<FaultClock>, node: u32) -> NodeTap {
        NodeTap {
            clock,
            node,
            fresh: [0; LINKS],
            injected: [0; LINKS],
        }
    }

    /// Frames corrupted so far, per link (deterministic across runs).
    pub fn injected(&self) -> &[u64; LINKS] {
        &self.injected
    }

    /// The shared clock.
    pub fn clock(&self) -> &Arc<FaultClock> {
        &self.clock
    }
}

impl WireTap for NodeTap {
    fn on_frame(&mut self, link: usize, wf: &mut WireFrame) -> WireVerdict {
        if self.clock.drop_frame(self.node, link, wf.seq) {
            return WireVerdict::Drop;
        }
        // Partition interrupts travel outside the data sequence.
        if wf.seq == u64::MAX {
            return WireVerdict::Deliver;
        }
        // A stuck transmitter mangles every transmission, fresh or resent
        // (so the count below is per-attempt, not per-word).
        if self.clock.corrupt_stuck(self.node, link, wf) {
            self.injected[link] += 1;
            return WireVerdict::Deliver;
        }
        if wf.seq >= self.fresh[link] {
            self.fresh[link] = wf.seq + 1;
            if self.clock.corrupt_fresh(self.node, link, wf) {
                self.injected[link] += 1;
            }
        }
        WireVerdict::Deliver
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultEvent;
    use qcdoc_scu::packet::{Frame, Packet};

    fn frame(seq: u64, word: u64) -> WireFrame {
        WireFrame {
            seq,
            frame: Frame::encode(Packet::Normal(word)),
        }
    }

    /// `plan` compiled for a machine of `dims`, which it must fit.
    fn resolve(plan: &FaultPlan, dims: &[usize]) -> FaultClock {
        FaultClock::resolve(plan, &TorusShape::new(dims)).expect("the plan fits the machine")
    }

    #[test]
    fn random_targets_draw_the_same_stream_among_the_wires() {
        // Two random targets per seed. On a shape with no extent-1 axis the
        // wires are links 0..2·rank, so these are the draws of a uniform
        // link over that range; the seeded benches and examples that use
        // random links depend on them.
        let targets = |dims: &[usize]| -> Vec<Vec<(u32, usize)>> {
            (0..10)
                .map(|seed| {
                    let plan = FaultPlan::new(seed)
                        .with_event(FaultEvent::random_bit_error_rate(0.5))
                        .with_event(FaultEvent::random_bit_error_rate(0.5));
                    let clock = resolve(&plan, dims);
                    clock.error_rates.iter().map(|&(n, l, _)| (n, l)).collect()
                })
                .collect()
        };
        let hypercube: [[(u32, usize); 2]; 10] = [
            [(4, 7), (12, 3)],
            [(7, 6), (11, 1)],
            [(2, 7), (4, 1)],
            [(9, 1), (15, 6)],
            [(0, 7), (14, 1)],
            [(8, 7), (5, 5)],
            [(9, 6), (0, 7)],
            [(12, 2), (11, 2)],
            [(1, 1), (4, 2)],
            [(2, 6), (0, 1)],
        ];
        let full: [[(u32, usize); 2]; 10] = [
            [(1524, 7), (4588, 7)],
            [(3175, 6), (2315, 9)],
            [(3650, 3), (9828, 1)],
            [(6537, 9), (10703, 6)],
            [(4144, 3), (10398, 1)],
            [(9976, 11), (10565, 1)],
            [(12185, 6), (10896, 3)],
            [(9756, 6), (6603, 10)],
            [(10241, 1), (3508, 10)],
            [(6754, 6), (96, 5)],
        ];
        assert_eq!(targets(&[2, 2, 2, 2]), hypercube.map(Vec::from));
        assert_eq!(targets(&[8, 8, 6, 4, 4, 2]), full.map(Vec::from));
        // An extent-1 axis has no wire to draw.
        for (_, link) in targets(&[4, 1, 4]).concat() {
            assert!([0, 1, 4, 5].contains(&link), "link {link}");
        }
    }

    #[test]
    fn node_scoped_events_ignore_their_link_but_not_their_node() {
        // Link-scoped refusals are pinned on both engines in
        // `core::des`; here, the events that name no wire. On a lone node
        // link 0 is not a wire, yet a crash there fits; a crash on a node
        // the machine lacks, or a random link with none to draw, does not.
        let lone = TorusShape::new(&[1, 1]);
        let resolve = |event| FaultClock::resolve(&FaultPlan::new(0).with_event(event), &lone);
        assert!(resolve(FaultEvent::node_crash(0, 1)).is_ok());
        assert_eq!(
            resolve(FaultEvent::node_crash(1, 1)).unwrap_err(),
            PlanError::NoSuchNode(1, 1)
        );
        assert_eq!(
            resolve(FaultEvent::random_bit_error_rate(0.1)).unwrap_err(),
            PlanError::NoWires
        );
    }

    #[test]
    fn scheduled_flip_hits_exactly_its_frame() {
        let plan = FaultPlan::new(1).with_event(FaultEvent::bit_flip(2, 0, 5, 20));
        let clock = resolve(&plan, &[4]);
        let mut hit = frame(5, 42);
        assert!(clock.corrupt_fresh(2, 0, &mut hit));
        assert!(hit.frame.decode().is_err(), "single flip must break parity");
        let mut miss = frame(4, 42);
        assert!(!clock.corrupt_fresh(2, 0, &mut miss));
        let mut wrong_node = frame(5, 42);
        assert!(!clock.corrupt_fresh(1, 0, &mut wrong_node));
    }

    #[test]
    fn burst_flips_adjacent_bits() {
        let plan = FaultPlan::new(1).with_event(FaultEvent::burst(0, 0, 0, 70, 4));
        let clock = resolve(&plan, &[2]);
        let mut wf = frame(0, 7);
        let before = wf.frame;
        assert!(clock.corrupt_fresh(0, 0, &mut wf));
        let differing: u32 = wf
            .frame
            .as_bytes()
            .iter()
            .zip(before.as_bytes())
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(differing, 4, "burst of 4 must flip 4 bits (wrapping)");
    }

    #[test]
    fn error_rate_draws_are_stateless_and_seed_sensitive() {
        let plan = |seed| FaultPlan::new(seed).with_event(FaultEvent::bit_error_rate(0, 0, 0.25));
        let a = resolve(&plan(5), &[2]);
        let b = resolve(&plan(5), &[2]);
        let c = resolve(&plan(6), &[2]);
        let pattern = |clock: &FaultClock| -> Vec<bool> {
            (0..200u64)
                .map(|seq| {
                    let mut wf = frame(seq, seq);
                    clock.corrupt_fresh(0, 0, &mut wf)
                })
                .collect()
        };
        assert_eq!(
            pattern(&a),
            pattern(&b),
            "same seed, same corruption stream"
        );
        assert_ne!(pattern(&a), pattern(&c), "different seed, different stream");
        let hits = pattern(&a).iter().filter(|&&h| h).count();
        assert!(
            (20..=80).contains(&hits),
            "rate 0.25 over 200 draws, got {hits}"
        );
    }

    #[test]
    fn tap_skips_resends_and_counts_injections() {
        let plan = FaultPlan::new(3).with_event(FaultEvent::bit_flip(0, 1, 2, 15));
        let clock = Arc::new(resolve(&plan, &[2, 2]));
        let mut tap = NodeTap::new(clock, 0);
        for seq in 0..4 {
            let mut wf = frame(seq, seq);
            assert_eq!(tap.on_frame(1, &mut wf), WireVerdict::Deliver);
        }
        assert_eq!(tap.injected()[1], 1);
        // The resend of seq 2 travels clean.
        let mut resend = frame(2, 2);
        tap.on_frame(1, &mut resend);
        assert!(
            resend.frame.decode().is_ok(),
            "retransmission must not be re-corrupted"
        );
        assert_eq!(tap.injected()[1], 1);
    }

    #[test]
    fn dead_link_drops_everything_from_cutoff() {
        let plan = FaultPlan::new(0).with_event(FaultEvent::dead_link(1, 0, 3));
        let clock = Arc::new(resolve(&plan, &[2]));
        let mut tap = NodeTap::new(Arc::clone(&clock), 1);
        let mut early = frame(2, 0);
        assert_eq!(tap.on_frame(0, &mut early), WireVerdict::Deliver);
        let mut late = frame(3, 0);
        assert_eq!(tap.on_frame(0, &mut late), WireVerdict::Drop);
        let mut resend = frame(5, 0);
        assert_eq!(tap.on_frame(0, &mut resend), WireVerdict::Drop);
        // Other links unaffected.
        let mut other = frame(9, 0);
        assert_eq!(tap.on_frame(1, &mut other), WireVerdict::Deliver);
        assert_eq!(clock.link_dead_from(1, 0), Some(3));
    }

    #[test]
    fn stuck_link_corrupts_resends_too() {
        let plan = FaultPlan::new(4).with_event(FaultEvent::stuck_link(0, 2, 1));
        let clock = Arc::new(resolve(&plan, &[2, 2]));
        let mut tap = NodeTap::new(Arc::clone(&clock), 0);
        let mut early = frame(0, 10);
        tap.on_frame(2, &mut early);
        assert!(early.frame.decode().is_ok(), "below the cutoff: clean");
        // Every transmission of seq 1 arrives corrupt — identically.
        let mut first = frame(1, 11);
        let mut resend = frame(1, 11);
        tap.on_frame(2, &mut first);
        tap.on_frame(2, &mut resend);
        assert!(first.frame.decode().is_err());
        assert_eq!(first.frame, resend.frame, "same word, same corruption");
        assert_eq!(tap.injected()[2], 2, "stuck injections count per attempt");
        // Other links unaffected.
        let mut other = frame(1, 11);
        tap.on_frame(3, &mut other);
        assert!(other.frame.decode().is_ok());
        assert_eq!(clock.link_stuck_from(0, 2), Some(1));
    }

    #[test]
    fn wire_errors_partition_by_iteration_and_stay_deterministic() {
        let plan = FaultPlan::new(11)
            .with_event(FaultEvent::bit_flip(0, 0, 150, 9))
            .with_event(FaultEvent::bit_error_rate(0, 0, 0.01));
        let clock = resolve(&plan, &[2]);
        // The scheduled flip (seq 150) lands in iteration 1 of a
        // 100-word-per-iteration schedule.
        let base: u64 = clock.wire_errors(0, 0, 1, 100);
        assert!(base >= 1);
        assert_eq!(
            base,
            clock.wire_errors(0, 0, 1, 100),
            "draws must be stateless"
        );
        // Expected error mass over many iterations roughly matches λ.
        let total: u64 = (0..400).map(|it| clock.wire_errors(0, 0, it, 100)).sum();
        assert!(
            (150..=700).contains(&total),
            "λ=1/iter over 400 iters, got {total}"
        );
    }

    #[test]
    fn payload_burst_evades_frame_parity() {
        let plan = FaultPlan::new(2).with_event(FaultEvent::payload_burst(0, 0, 3, 12, 2));
        let clock = resolve(&plan, &[2]);
        let mut wf = frame(3, 0xDEAD_BEEF_CAFE_F00D);
        assert!(clock.corrupt_fresh(0, 0, &mut wf));
        // The defining property: the frame parity does NOT catch it …
        let decoded = wf.frame.decode().expect("burst must evade frame parity");
        // … and the carried word is silently wrong.
        assert_ne!(decoded, Packet::Normal(0xDEAD_BEEF_CAFE_F00D));
        assert!(matches!(decoded, Packet::Normal(_)));
        // Other sequence numbers travel clean.
        let mut miss = frame(4, 1);
        assert!(!clock.corrupt_fresh(0, 0, &mut miss));
    }

    #[test]
    fn payload_bursts_of_every_width_evade_parity() {
        for pairs in 1..=16 {
            for first_bit in 0..64 {
                let plan = FaultPlan::new(0)
                    .with_event(FaultEvent::payload_burst(0, 0, 0, first_bit, pairs));
                let clock = resolve(&plan, &[2]);
                let mut wf = frame(0, 0x0123_4567_89AB_CDEF);
                assert!(clock.corrupt_fresh(0, 0, &mut wf));
                assert!(
                    wf.frame.decode().is_ok(),
                    "burst pairs={pairs} first_bit={first_bit} tripped frame parity"
                );
            }
        }
    }

    #[test]
    fn mem_double_flip_yields_two_flips_of_one_word() {
        let plan = FaultPlan::new(0).with_event(FaultEvent::mem_double_flip(1, 0x200, 3, 41));
        let clock = resolve(&plan, &[4]);
        assert_eq!(clock.mem_faults(1), vec![(0x200, 3), (0x200, 41)]);
        assert!(clock.mem_faults(0).is_empty());
    }

    #[test]
    fn node_scoped_queries() {
        let plan = FaultPlan::new(0)
            .with_event(FaultEvent::node_pause(3, Some(2), 500))
            .with_event(FaultEvent::node_pause(3, None, 7))
            .with_event(FaultEvent::node_crash(1, 4))
            .with_event(FaultEvent::mem_bit_flip(2, 0x100, 63));
        let clock = resolve(&plan, &[2, 2, 2]);
        assert_eq!(clock.pause_cycles(3, 2), 507);
        assert_eq!(clock.pause_cycles(3, 1), 7);
        assert_eq!(clock.pause_cycles(0, 2), 0);
        assert_eq!(clock.crash_iteration(1), Some(4));
        assert_eq!(clock.crash_iteration(3), None);
        assert_eq!(clock.mem_faults(2), vec![(0x100, 63)]);
        assert!(clock.mem_faults(0).is_empty());
        assert!(clock.drop_frame(1, 5, 0), "a crashed node's wires go dark");
    }
}
