//! The declarative fault schedule: what breaks, where, and when.

/// Which node an event strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeSelect {
    /// A fixed logical node rank.
    Node(u32),
    /// Drawn from the plan's seed when the plan is compiled.
    Random,
}

/// Which of a node's wires an event strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkSelect {
    /// A fixed link index (`Direction::link_index`), which must be a wire
    /// of the machine (`TorusShape::wires`) for a link-scoped event.
    Link(usize),
    /// Drawn from the plan's seed among the machine's wires.
    Random,
}

/// The failure mode of one scheduled event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Flip `burst` adjacent bits starting at `first_bit` of the frame
    /// carrying data word `seq`, on its first transmission.
    BitFlip {
        /// Data sequence number of the corrupted word.
        seq: u64,
        /// First flipped bit (taken modulo the frame's wire bits).
        first_bit: usize,
        /// Number of adjacent bits flipped (1 = a single-bit error).
        burst: usize,
    },
    /// Corrupt each fresh data word with probability `rate` (one random
    /// bit per corrupted word) — a sustained per-word bit-error rate.
    BitErrorRate {
        /// Per-word corruption probability.
        rate: f64,
    },
    /// The link withholds its traffic for `cycles` extra at `iteration`
    /// (observed by the timing engine).
    Stall {
        /// Iteration the stall strikes.
        iteration: usize,
        /// Extra cycles the link's face transfer takes.
        cycles: u64,
    },
    /// The wire drops every frame from data word `from_seq` on, forever.
    DeadLink {
        /// First dropped data sequence number (0 = dead from the start).
        from_seq: u64,
    },
    /// A broken transmitter: every data frame leaving on this wire —
    /// resends included — arrives corrupt, from data word `from_seq` on.
    /// Unlike [`FaultKind::BitErrorRate`], the go-back-N resend cannot
    /// heal this; only a bounded retry budget stops the storm.
    StuckLink {
        /// First corrupted data sequence number (0 = stuck from the
        /// start).
        from_seq: u64,
    },
    /// The node computes for `cycles` extra — a memory refresh, an
    /// interrupt, a slow part (observed by the timing engine).
    NodePause {
        /// Iteration the pause strikes (`None` = every iteration).
        iteration: Option<usize>,
        /// Extra compute cycles.
        cycles: u64,
    },
    /// The node goes dark at `iteration`: nothing more leaves any of its
    /// wires, and the timing engine sees it stop.
    NodeCrash {
        /// Iteration the crash strikes.
        iteration: usize,
    },
    /// Flip `bit` of the 64-bit word at byte address `addr` in the node's
    /// EDRAM/DDR before the run starts — a *correctable* memory soft
    /// error: the SEC-DED code fixes it on the next read or scrub.
    MemBitFlip {
        /// Byte address of the afflicted word.
        addr: u64,
        /// Bit within the word (0..64).
        bit: u32,
    },
    /// Flip two distinct bits of the *same* word — an *uncorrectable*
    /// memory soft error. SEC-DED detects it (nonzero syndrome, even
    /// overall parity) but cannot fix it: the node latches a machine check
    /// and the health machinery treats it like a casualty.
    MemDoubleFlip {
        /// Byte address of the afflicted word.
        addr: u64,
        /// First flipped bit (0..64).
        bit: u32,
        /// Second flipped bit (0..64, distinct from `bit`).
        bit2: u32,
    },
    /// A multi-bit burst inside one data frame's *payload*, engineered to
    /// evade the per-frame parity: `2 * pairs` flips all land in the same
    /// even/odd parity class (positions spaced 2 apart), so both class
    /// parities are flipped an even number of times and the frame decodes
    /// clean — with a wrong word. Only the end-to-end DMA block checksum
    /// catches it. Applied to the first transmission only.
    PayloadBurst {
        /// Data sequence number of the corrupted word.
        seq: u64,
        /// First flipped payload bit (taken modulo 64).
        first_bit: usize,
        /// Number of *pairs* of same-class flips (1..=16; 2·pairs bits).
        pairs: usize,
    },
}

impl FaultKind {
    /// Whether the kind strikes the node as a whole, ignoring its event's
    /// link; every other kind strikes one wire.
    pub fn is_node_scoped(&self) -> bool {
        matches!(
            self,
            FaultKind::NodePause { .. }
                | FaultKind::NodeCrash { .. }
                | FaultKind::MemBitFlip { .. }
                | FaultKind::MemDoubleFlip { .. }
        )
    }
}

/// One scheduled fault: a failure mode aimed at a node and wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Target node.
    pub node: NodeSelect,
    /// Target wire direction (ignored by node-scoped kinds).
    pub link: LinkSelect,
    /// What happens.
    pub kind: FaultKind,
}

impl FaultEvent {
    /// A single-bit flip of data word `seq` leaving `node` on `link`.
    pub fn bit_flip(node: u32, link: usize, seq: u64, bit: usize) -> FaultEvent {
        FaultEvent {
            node: NodeSelect::Node(node),
            link: LinkSelect::Link(link),
            kind: FaultKind::BitFlip {
                seq,
                first_bit: bit,
                burst: 1,
            },
        }
    }

    /// A burst of `burst` adjacent flipped bits in one frame.
    pub fn burst(node: u32, link: usize, seq: u64, first_bit: usize, burst: usize) -> FaultEvent {
        FaultEvent {
            node: NodeSelect::Node(node),
            link: LinkSelect::Link(link),
            kind: FaultKind::BitFlip {
                seq,
                first_bit,
                burst,
            },
        }
    }

    /// A sustained per-word bit-error rate on one wire.
    pub fn bit_error_rate(node: u32, link: usize, rate: f64) -> FaultEvent {
        FaultEvent {
            node: NodeSelect::Node(node),
            link: LinkSelect::Link(link),
            kind: FaultKind::BitErrorRate { rate },
        }
    }

    /// A sustained bit-error rate on a wire drawn from the seed.
    pub fn random_bit_error_rate(rate: f64) -> FaultEvent {
        FaultEvent {
            node: NodeSelect::Random,
            link: LinkSelect::Random,
            kind: FaultKind::BitErrorRate { rate },
        }
    }

    /// A one-iteration link stall.
    pub fn stall(node: u32, link: usize, iteration: usize, cycles: u64) -> FaultEvent {
        FaultEvent {
            node: NodeSelect::Node(node),
            link: LinkSelect::Link(link),
            kind: FaultKind::Stall { iteration, cycles },
        }
    }

    /// A permanently dead wire from data word `from_seq` on.
    pub fn dead_link(node: u32, link: usize, from_seq: u64) -> FaultEvent {
        FaultEvent {
            node: NodeSelect::Node(node),
            link: LinkSelect::Link(link),
            kind: FaultKind::DeadLink { from_seq },
        }
    }

    /// A broken transmitter corrupting every frame from `from_seq` on.
    pub fn stuck_link(node: u32, link: usize, from_seq: u64) -> FaultEvent {
        FaultEvent {
            node: NodeSelect::Node(node),
            link: LinkSelect::Link(link),
            kind: FaultKind::StuckLink { from_seq },
        }
    }

    /// A node pause (`iteration = None` slows the node every iteration).
    pub fn node_pause(node: u32, iteration: Option<usize>, cycles: u64) -> FaultEvent {
        FaultEvent {
            node: NodeSelect::Node(node),
            link: LinkSelect::Link(0),
            kind: FaultKind::NodePause { iteration, cycles },
        }
    }

    /// A node crash at `iteration`.
    pub fn node_crash(node: u32, iteration: usize) -> FaultEvent {
        FaultEvent {
            node: NodeSelect::Node(node),
            link: LinkSelect::Link(0),
            kind: FaultKind::NodeCrash { iteration },
        }
    }

    /// A correctable (single-bit) memory soft error in `node`'s address
    /// space.
    pub fn mem_bit_flip(node: u32, addr: u64, bit: u32) -> FaultEvent {
        FaultEvent {
            node: NodeSelect::Node(node),
            link: LinkSelect::Link(0),
            kind: FaultKind::MemBitFlip { addr, bit },
        }
    }

    /// An uncorrectable (double-bit) memory soft error: both flips strike
    /// the same word, defeating SEC-DED correction.
    pub fn mem_double_flip(node: u32, addr: u64, bit: u32, bit2: u32) -> FaultEvent {
        assert_ne!(bit, bit2, "a double flip needs two distinct bits");
        FaultEvent {
            node: NodeSelect::Node(node),
            link: LinkSelect::Link(0),
            kind: FaultKind::MemDoubleFlip { addr, bit, bit2 },
        }
    }

    /// A parity-evading payload burst in the frame carrying data word
    /// `seq` on `node`'s `link`.
    pub fn payload_burst(
        node: u32,
        link: usize,
        seq: u64,
        first_bit: usize,
        pairs: usize,
    ) -> FaultEvent {
        FaultEvent {
            node: NodeSelect::Node(node),
            link: LinkSelect::Link(link),
            kind: FaultKind::PayloadBurst {
                seq,
                first_bit,
                pairs,
            },
        }
    }
}

/// A seeded, declarative schedule of faults.
///
/// The plan is pure data; nothing random happens until it is compiled
/// into a [`crate::FaultClock`] against a concrete machine, at which point
/// every `Random` target is resolved from `seed`. Two plans with the same
/// seed and events always produce the same injected fault stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed for every random draw the plan implies.
    pub seed: u64,
    /// The scheduled events.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan with the given seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            events: Vec::new(),
        }
    }

    /// Add an event (builder style).
    pub fn with_event(mut self, event: FaultEvent) -> FaultPlan {
        self.events.push(event);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_events() {
        let plan = FaultPlan::new(7)
            .with_event(FaultEvent::bit_flip(1, 0, 2, 30))
            .with_event(FaultEvent::dead_link(3, 1, 0));
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.events.len(), 2);
        assert!(FaultPlan::new(0).events.is_empty());
    }
}
