//! E10 — link-protocol ablations (§2.2): the "three in the air" window vs
//! a one-word handshake, and the cost of healing injected bit errors by
//! automatic resend.
//!
//! Prints the handshake-count series (the window amortizes the round trip)
//! and benchmarks the protocol under fault injection. The smoke check is
//! ROADMAP item 3's per-layer price list for the functional engine's
//! per-word path — frame codec, wire hand-off, frames per delivered word,
//! acks per delivered word — exported to `BENCH_link.json` for the judge.

use criterion::{criterion_group, Criterion};
use qcdoc_asic::clock::Clock;
use qcdoc_asic::memory::NodeMemory;
use qcdoc_bench::{min_seconds, BenchRun};
use qcdoc_core::wire::wire;
use qcdoc_scu::dma::DmaDescriptor;
use qcdoc_scu::link::{RecvOutcome, RecvUnit, SendUnit, WINDOW};
use qcdoc_scu::packet::{Frame, Packet};
use qcdoc_scu::scu::{Scu, WireMsg};
use qcdoc_scu::timing::WORD_WIRE_BITS;
use std::collections::VecDeque;
use std::hint::black_box;

/// Transfer `words` with an artificial window cap, counting "round trips"
/// — batches of frames that must wait for an ack before more can fly.
fn round_trips(words: u64, window: u64) -> u64 {
    words.div_ceil(window)
}

fn print_series() {
    eprintln!("\n=== E10: ack-window ablation (24-word nearest-neighbour transfer) ===");
    let clock = Clock::DESIGN;
    // A round trip costs the wire flight + ack serialization; take ~24
    // cycles (cables are short: dense packaging, §1).
    let rt_cycles = 24u64;
    eprintln!(
        "{:>8} {:>12} {:>16} {:>14}",
        "window", "handshakes", "stall cycles", "overhead %"
    );
    for window in [1u64, 2, 3, 6] {
        let trips = round_trips(24, window);
        let stall = trips * rt_cycles;
        let payload = 24 * WORD_WIRE_BITS;
        eprintln!(
            "{:>8} {:>12} {:>16} {:>14.1}",
            window,
            trips,
            stall,
            100.0 * stall as f64 / payload as f64
        );
    }
    eprintln!(
        "(the hardware window is {WINDOW}: at {} the handshake overhead is amortized \
         to ~{:.0}% of wire time)",
        WINDOW,
        100.0 * round_trips(24, WINDOW as u64) as f64 * rt_cycles as f64
            / (24.0 * WORD_WIRE_BITS as f64)
    );
    let _ = clock;
}

/// Pump a transfer with every `err_every`-th frame corrupted.
fn faulty_transfer(words: u32, err_every: u64) -> (u64, u64) {
    let mut s = SendUnit::new();
    let mut r = RecvUnit::new();
    s.train();
    r.train();
    let mut mem = NodeMemory::with_128mb_dimm();
    r.arm(DmaDescriptor::contiguous(0x1000, words), &mut mem)
        .unwrap();
    for w in 0..words as u64 {
        s.enqueue_word(w);
    }
    let mut frames = 0u64;
    while let Some(mut wf) = s.next_frame().unwrap() {
        frames += 1;
        if err_every > 0 && frames.is_multiple_of(err_every) {
            wf.frame.corrupt_bit((frames % 70) as usize);
        }
        match r.on_frame(&wf, &mut mem).unwrap() {
            RecvOutcome::Accepted | RecvOutcome::Duplicate => s.on_ack(wf.seq),
            RecvOutcome::Rejected { seq } => s.on_reject(seq),
            other => panic!("unexpected {other:?}"),
        }
    }
    assert!(r.complete());
    (frames, r.rejects())
}

fn bench(c: &mut Criterion) {
    print_series();
    let clean = faulty_transfer(256, 0);
    let noisy = faulty_transfer(256, 10);
    eprintln!(
        "fault-injection: clean transfer {} frames; 10% corruption -> {} frames ({} rejects healed)",
        clean.0, noisy.0, noisy.1
    );

    let mut group = c.benchmark_group("e10_protocol");
    group.bench_function("clean_256_words", |b| {
        b.iter(|| black_box(faulty_transfer(256, 0)))
    });
    group.bench_function("faulty_every_10th", |b| {
        b.iter(|| black_box(faulty_transfer(256, 10)))
    });
    group.finish();
}

/// Move `words` clean words between two SCUs the way the engine pumps
/// them — the sender transmits until its window stalls, the receiver
/// drains everything and answers — and count the acks on the reverse wire.
fn acks_per_transfer(words: u32) -> u64 {
    let mut mems = [NodeMemory::with_128mb_dimm(), NodeMemory::with_128mb_dimm()];
    let [am, bm] = &mut mems;
    let (mut a, mut b) = (Scu::new(), Scu::new());
    a.train_all();
    b.train_all();
    a.start_send(0, DmaDescriptor::contiguous(0x1000, words));
    b.start_recv(1, DmaDescriptor::contiguous(0x10_0000, words), bm)
        .unwrap();
    let mut acks = 0;
    loop {
        let mut moved = false;
        while let Some(msg) = a.tx_next(0, am).unwrap() {
            b.rx(1, msg, bm).unwrap();
            moved = true;
        }
        while let Some(msg) = b.tx_next(1, bm).unwrap() {
            acks += u64::from(matches!(msg, WireMsg::Ack(_)));
            a.rx(0, msg, am).unwrap();
            moved = true;
        }
        if !moved {
            break;
        }
    }
    assert!(a.send_complete(0) && b.recv_complete(1));
    acks
}

/// Frame `words` data words and decode each again; returns the XOR of the
/// decoded payloads so the work cannot be elided.
fn codec_round(words: u64) -> u64 {
    (0..words).fold(0, |acc, w| {
        let frame = Frame::encode(Packet::Normal(black_box(w)));
        match black_box(frame).decode() {
            Ok(Packet::Normal(word)) => acc ^ word,
            other => panic!("a clean frame decoded as {other:?}"),
        }
    })
}

/// Push `msgs` messages through one wire the way the engine does: a
/// window's worth sent, then one drain on the consumer side. Returns how
/// many arrived.
fn wire_round(msgs: u64) -> u64 {
    let (tx, rx) = wire();
    let mut inbox = VecDeque::new();
    let mut arrived = 0;
    for seq in 0..msgs {
        tx.send(WireMsg::Ack(seq));
        if seq % WINDOW as u64 == WINDOW as u64 - 1 {
            rx.drain(&mut inbox);
            while let Some(msg) = inbox.pop_front() {
                black_box(msg);
                arrived += 1;
            }
        }
    }
    arrived
}

/// Export the per-word path's prices. The frame and ack counts are
/// logical — the same on every host — so the judge gates them at 1%; the
/// two timings ride host noise and are report-only.
fn smoke_check() {
    const WORDS: u64 = 100_000;
    black_box(codec_round(1_000));
    let codec_ns = min_seconds(
        || {
            black_box(codec_round(WORDS));
        },
        7,
    ) / WORDS as f64
        * 1e9;
    const MSGS: u64 = 99_999; // a whole number of windows
    assert_eq!(wire_round(MSGS), MSGS);
    let wire_ns = min_seconds(
        || {
            black_box(wire_round(MSGS));
        },
        7,
    ) / MSGS as f64
        * 1e9;
    let (frames, rejects) = faulty_transfer(256, 10);
    assert!(rejects > 0, "the noisy transfer must exercise the resend");
    let acks = acks_per_transfer(256);
    println!(
        "link_protocol: frame codec {codec_ns:.1} ns, wire {wire_ns:.1} ns/msg, \
         {frames} frames per 256 words at 10% corruption, {acks} acks per 256 clean words"
    );

    let mut run = BenchRun::new("link");
    run.gauge("link_frame_codec_ns", codec_ns);
    run.gauge("wire_ns_per_msg", wire_ns);
    run.gauge("link_frames_per_256_words", frames as f64);
    run.gauge("link_acks_per_256_words", acks as f64);
    run.export();
}

criterion_group!(benches, bench);

fn main() {
    smoke_check();
    benches();
}
