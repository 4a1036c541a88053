//! The benchmark's names in one place: workloads, end-to-end metrics and
//! per-layer metrics, with units. `/BENCHMARK.json` is this table rendered
//! (a unit test compares them), and the result line of a run is filled from
//! it, so the two cannot drift apart.

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

pub const RUN_SECONDS: u32 = 15;

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "torus_latency",
        why: "4,096 one-site nodes: 12-word faces and 28-hop sums, so per-message cost, poll sweeps and core::comm dominate and per-word cost is negligible",
    },
    Workload {
        name: "torus_bandwidth",
        why: "16 nodes with the paper's 4^4 local volume: 768-word faces, so the per-word path (scu::link, scu::packet, asic::memory) dominates and sums are 4 hops",
    },
    Workload {
        name: "torus_faulty",
        why: "torus_bandwidth under a 1e-3 bit-error rate with block checksums: the reject/resend/replay path is hot, so a clean-path gain bought at its expense shows",
    },
    Workload {
        name: "local_solve",
        why: "serial 16^4 CG with no machine: lattice does all the work, so every engine optimisation predicts no change here; the single-threaded baseline",
    },
    Workload {
        name: "control_plane",
        why: "12,288-node boot, fold, chaos soaks and a checkpoint-store round trip: host, sched, fault::classify and geometry work with no engine and no kernels",
    },
];

const fn end_to_end(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// The three timings share the widest bound the contract allows: ten runs
/// on ten seeds spread 4-9 % on the sandbox's two cores, and its speed
/// drifts further than that between spells (README, *Steadiness*).
pub const END_TO_END: &[EndToEnd] = &[
    end_to_end("wall_s", "s", "lower", 0.25),
    end_to_end("cpu_s", "s", "lower", 0.25),
    end_to_end("work_per_s", "1/s", "higher", 0.25),
    end_to_end("peak_rss_mb", "MB", "lower", 0.1),
    end_to_end("setup_s", "s", "lower", 0.25),
];

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Layer {
    Layer { name, unit, better }
}

/// Counts marked `count` repeat exactly for a seed; their direction only
/// says which way less work lies.
pub const PER_LAYER: &[Layer] = &[
    layer("core.sharded.spawn_ms", "ms", "lower"),
    layer("core.comm.global_sum_us", "us", "lower"),
    layer("core.distributed.face_exchange_us", "us", "lower"),
    layer("core.distributed.face_words", "count", "lower"),
    layer("core.sharded.us_per_word", "us", "lower"),
    layer("core.distributed.dslash_us", "us", "lower"),
    layer("core.distributed.cg_iter_ms", "ms", "lower"),
    layer("core.distributed.extract_us_per_node", "us", "lower"),
    layer("core.sharded.worker_speedup", "ratio", "higher"),
    layer("core.sharded.cpu_per_wall", "ratio", "lower"),
    layer("core.engine_overhead_ratio", "ratio", "lower"),
    layer("scu.link.frame_ns", "ns", "lower"),
    layer("scu.link.frames", "count", "lower"),
    layer("scu.link.noisy_frame_ns", "ns", "lower"),
    layer("scu.link.rejects", "count", "lower"),
    layer("scu.link.frames_per_word", "ratio", "lower"),
    layer("asic.memory.word_rw_ns", "ns", "lower"),
    layer("lattice.wilson.dslash_ns_per_site", "ns", "lower"),
    layer("lattice.wilson.dslash_f32_ns_per_site", "ns", "lower"),
    layer("lattice.aosoa.dslash_ns_per_site", "ns", "lower"),
    layer("lattice.aosoa.dslash_f32_ns_per_site", "ns", "lower"),
    layer("lattice.wilson.flops_per_site", "count", "lower"),
    layer("lattice.wilson.bytes_per_site", "count", "lower"),
    layer("lattice.wilson.mflops", "Mflop/s", "higher"),
    layer("lattice.solver.cgne_iter_ms", "ms", "lower"),
    layer("lattice.solver.linalg_share", "ratio", "lower"),
    layer("lattice.solver.mixed_wall_s", "s", "lower"),
    layer("lattice.solver.mixed_lo_fraction", "ratio", "higher"),
    layer("lattice.checkpoint.encode_ms", "ms", "lower"),
    layer("lattice.checkpoint.bytes", "count", "lower"),
    layer("cg.iterations", "count", "lower"),
    layer("fault.injected", "count", "lower"),
    layer("fault.resends", "count", "lower"),
    layer("fault.healed_overhead_ratio", "ratio", "lower"),
    layer("fault.checksum_overhead_ratio", "ratio", "lower"),
    layer("telemetry.enabled_overhead_ratio", "ratio", "lower"),
    layer("telemetry.spans_per_node", "count", "lower"),
    layer("host.qdaemon.boot_ms", "ms", "lower"),
    layer("host.qdaemon.allocate_ms", "ms", "lower"),
    layer("geometry.partition.fold_us", "us", "lower"),
    layer("host.chaos.soak_s", "s", "lower"),
    layer("host.chaos.events", "count", "lower"),
    layer("host.chaos.requeues", "count", "lower"),
    layer("host.chaos.goodput", "ratio", "higher"),
    layer("sched.decisions", "count", "lower"),
    layer("sched.decision_us", "us", "lower"),
    layer("host.ckstore.save_ms", "ms", "lower"),
    layer("host.ckstore.restore_ms", "ms", "lower"),
    layer("host.ckstore.bytes", "count", "lower"),
    layer("trace.overhead_ratio", "ratio", "lower"),
];

/// `/BENCHMARK.json`, rendered from the tables above; `--benchmark-json`
/// prints it.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"bench/e2e/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"bench/e2e\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let rows = |rows: Vec<String>| rows.join(",\n");
    out.push_str("  \"workloads\": [\n");
    out.push_str(&rows(
        WORKLOADS
            .iter()
            .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect(),
    ));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    out.push_str(&rows(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name, m.unit, m.better, m.bound
                )
            })
            .collect(),
    ));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    out.push_str(&rows(
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name, m.unit, m.better
                )
            })
            .collect(),
    ));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// After editing the tables: `qcdoc-e2e --benchmark-json > BENCHMARK.json`.
    #[test]
    fn benchmark_json_is_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("read /BENCHMARK.json");
        assert_eq!(on_disk, benchmark_json());
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(names.iter().all(|n| ok_name(n)), "{names:?}");
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        assert!(END_TO_END
            .iter()
            .all(|m| ok_unit(m.unit) && m.bound <= 0.25));
        assert!(PER_LAYER.iter().all(|m| ok_unit(m.unit)));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
    }
}
