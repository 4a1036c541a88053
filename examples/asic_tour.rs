//! A tour of the QCDOC ASIC (Figure 1): block diagram, per-block
//! datasheet, and the headline numbers of each subsystem.
//!
//! ```text
//! cargo run --release --example asic_tour
//! ```

use qcdoc::asic::blocks;
use qcdoc::asic::clock::Clock;
use qcdoc::asic::edram::{EdramController, PORT_BYTES_PER_CYCLE};
use qcdoc::asic::memory::{DDR_MAX_SIZE, EDRAM_SIZE};
use qcdoc::scu::timing::{channel_bandwidth, node_bandwidth, transfer_ns};

fn main() {
    print!("{}", blocks::render_diagram());
    println!();
    print!("{}", blocks::render_datasheet());

    let clock = Clock::DESIGN;
    println!(
        "\nsubsystem headline numbers at the {} design point:",
        clock
    );
    println!(
        "  FPU            : 1 multiply + 1 add per cycle  = {:.1} Gflops peak",
        clock.peak_flops() / 1e9
    );
    println!(
        "  EDRAM          : {} MB on chip, {} B/cycle to the D-cache = {:.1} GB/s",
        EDRAM_SIZE / (1024 * 1024),
        PORT_BYTES_PER_CYCLE,
        PORT_BYTES_PER_CYCLE as f64 * clock.hz() as f64 / 1e9
    );
    println!(
        "  DDR            : 2.6 GB/s external, up to {} GB",
        DDR_MAX_SIZE / (1 << 30)
    );
    println!(
        "  mesh link      : bit-serial at {} -> {:.1} MB/s payload per direction",
        clock,
        channel_bandwidth(clock) / 1e6
    );
    println!(
        "  all 24 channels: {:.2} GB/s aggregate (paper: 1.3 GB/s)",
        node_bandwidth(clock) / 1e9
    );
    println!(
        "  latency        : {:.0} ns memory-to-memory nearest neighbour (paper: ~600 ns)",
        transfer_ns(1, clock)
    );
    println!(
        "  24-word message: {:.2} us total ({:.0} ns first word + {:.2} us tail; paper: 3.3 us tail)",
        transfer_ns(24, clock) / 1000.0,
        transfer_ns(1, clock),
        (transfer_ns(24, clock) - transfer_ns(1, clock)) / 1000.0
    );

    // The two-stream prefetch demonstration (§2.1: a(x) × b(x)).
    println!("\nEDRAM prefetch demonstration — interleaving N sequential streams:");
    for streams in 1..=4 {
        let mut ctl = EdramController::new();
        let mut addrs: Vec<u64> = (0..streams).map(|s| s as u64 * 0x10_0000).collect();
        let mut cycles = 0u64;
        const BEATS: usize = 200;
        for _ in 0..BEATS {
            for a in &mut addrs {
                cycles += ctl.access(*a, 128).count();
                *a += 128;
            }
        }
        let bytes = (BEATS * streams * 128) as f64;
        println!(
            "  {} stream(s): {:>6.2} B/cycle effective ({} page misses)",
            streams,
            bytes / cycles as f64,
            ctl.page_misses()
        );
    }
    println!("  -> two streams run at the full port rate; a third thrashes the prefetcher,");
    println!("     which is why the Dirac kernels are blocked as two-operand streams (§2.1).");
}
