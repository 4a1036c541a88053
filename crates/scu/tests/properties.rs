//! Property-based tests: the link protocol delivers exactly-once in-order
//! under arbitrary corruption, and packets survive framing.

use proptest::prelude::*;
use qcdoc_asic::memory::NodeMemory;
use qcdoc_scu::dma::DmaDescriptor;
use qcdoc_scu::link::{RecvOutcome, RecvUnit, SendUnit};
use qcdoc_scu::packet::{Frame, Packet};

fn arb_packet() -> impl Strategy<Value = Packet> {
    prop_oneof![
        any::<u64>().prop_map(Packet::Normal),
        any::<u64>().prop_map(Packet::Supervisor),
        any::<u8>().prop_map(Packet::PartitionIrq),
        Just(Packet::Ack),
        Just(Packet::Idle),
        any::<u8>().prop_map(Packet::Train),
    ]
}

proptest! {
    #[test]
    fn frame_roundtrip(pkt in arb_packet()) {
        let f = Frame::encode(pkt);
        prop_assert_eq!(f.decode().unwrap(), pkt);
    }

    #[test]
    fn single_bit_corruption_never_misdelivers(pkt in arb_packet(), bit in 0usize..72) {
        let f0 = Frame::encode(pkt);
        let bits = f0.wire_bits() as usize;
        let bit = bit % bits;
        let mut f = f0;
        f.corrupt_bit(bit);
        match f.decode() {
            // Detection is the requirement: a corrupted frame must never
            // decode to a *different* packet.
            Err(_) => {}
            Ok(decoded) => prop_assert_eq!(decoded, pkt, "bit {} re-typed the packet", bit),
        }
    }

    #[test]
    fn transfer_survives_random_corruption(
        words in prop::collection::vec(any::<u64>(), 1..40),
        corrupt in prop::collection::vec((0usize..200, 0usize..72), 0..6),
    ) {
        // Corrupt selected (frame_index, bit) pairs on the wire; the
        // go-back-N resend must still deliver every word exactly once, in
        // order, with matching checksums.
        let mut s = SendUnit::new();
        let mut r = RecvUnit::new();
        s.train();
        r.train();
        let mut mem = NodeMemory::with_128mb_dimm();
        r.arm(DmaDescriptor::contiguous(0x4000, words.len() as u32), &mut mem).unwrap();
        for &w in &words {
            s.enqueue_word(w);
        }
        let mut frame_no = 0usize;
        let mut guard = 0usize;
        loop {
            guard += 1;
            prop_assert!(guard < 100_000, "protocol livelock");
            let Some(mut wf) = s.next_frame().unwrap() else { break };
            if let Some(&(_, bit)) = corrupt.iter().find(|&&(idx, _)| idx == frame_no) {
                let wire_bits = wf.frame.wire_bits() as usize;
                wf.frame.corrupt_bit(bit % wire_bits);
            }
            frame_no += 1;
            match r.on_frame(&wf, &mut mem).unwrap() {
                RecvOutcome::Accepted | RecvOutcome::Duplicate => s.on_ack(wf.seq),
                RecvOutcome::Held => {}
                RecvOutcome::Rejected { seq } => s.on_reject(seq),
                other => prop_assert!(false, "unexpected outcome {:?}", other),
            }
        }
        prop_assert!(r.complete());
        prop_assert_eq!(mem.read_block(0x4000, words.len()).unwrap(), words);
        prop_assert_eq!(s.checksum(), r.checksum());
    }

    #[test]
    fn strided_descriptor_addresses_are_unique_and_ordered(
        start_word in 0u64..1000,
        block in 1u32..8,
        extra_stride in 0u32..8,
        blocks in 1u32..8,
    ) {
        let d = DmaDescriptor {
            start: start_word * 8,
            block_words: block,
            stride_words: block + extra_stride,
            blocks,
        };
        let addrs: Vec<u64> = d.addresses().collect();
        prop_assert_eq!(addrs.len() as u64, d.total_words());
        for w in addrs.windows(2) {
            prop_assert!(w[0] < w[1], "addresses must strictly increase");
        }
    }

    #[test]
    fn checksums_agree_on_any_clean_transfer(words in prop::collection::vec(any::<u64>(), 1..60)) {
        let mut s = SendUnit::new();
        let mut r = RecvUnit::new();
        s.train();
        r.train();
        let mut mem = NodeMemory::with_128mb_dimm();
        r.arm(DmaDescriptor::contiguous(0x8000, words.len() as u32), &mut mem).unwrap();
        for &w in &words {
            s.enqueue_word(w);
        }
        while let Some(wf) = s.next_frame().unwrap() {
            match r.on_frame(&wf, &mut mem).unwrap() {
                RecvOutcome::Accepted => s.on_ack(wf.seq),
                other => prop_assert!(false, "unexpected {:?}", other),
            }
        }
        prop_assert_eq!(s.checksum(), r.checksum());
        prop_assert_eq!(r.received_words(), words.len() as u64);
        prop_assert_eq!(r.rejects(), 0);
    }
}
