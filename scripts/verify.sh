#!/usr/bin/env bash
# Verification gate: formatting, lints-as-errors, the test suites, the
# overhead smokes, the frozen end-to-end harness (build, unit tests, one run
# of each workload), and the bench judge.
# Every test target runs exactly once, every stage prints its wall seconds.
# Run from anywhere; operates on the repository this script lives in.
set -euo pipefail
cd "$(dirname "$0")/.."

# stage <description> <command...>: run one stage and report its wall time.
stage() {
    local what=$1
    shift
    echo "== $what"
    local started=$SECONDS
    "$@"
    echo "   [$((SECONDS - started)) s] $what"
}

stage "cargo fmt --check" \
    cargo fmt --check

# No host clock in a library result path; only the bench harnesses time things.
stage "no Instant/SystemTime under crates/*/src outside crates/bench" \
    bash -c '! grep -rnwE "Instant|SystemTime" --include="*.rs" crates/*/src | grep -v "^crates/bench/"'

stage "cargo clippy (workspace, all targets, warnings are errors)" \
    cargo clippy --workspace --all-targets -- -D warnings

stage "cargo doc (no deps, rustdoc warnings are errors)" \
    env RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

# The one test stage. It covers tier-1 (`cargo test -q`: the root package's
# suites under tests/), every crate's unit and integration tests, and the
# doctests across the workspace — including the acceptance suites that once
# had stages of their own:
#   telemetry: trace determinism (-p qcdoc-telemetry --test determinism)
#   recovery: quarantine-and-resume acceptance, bit-identical recovered solve (--test recovery)
#   integrity: ECC + block-checksum + ABFT acceptance, corruption healed bit-identically (--test integrity)
#   scheduler: multi-tenant soak + preemption bit-identity acceptance (--test scheduler)
#   flight recorder: black-box acceptance — schedule match, determinism, host ring (--test flight)
#   durability: crash-mid-write + rotted-generation acceptance, fallback restore (--test durability)
#   durability: archive parser fuzz, typed errors only (-p qcdoc-lattice --test parser_fuzz)
#   autonomic: failure classification + convicted-domain placement properties (--test failure_class)
#   autonomic: chaos-soak acceptance — zero lost jobs, bit-identical solves, capacity recovery (--test chaos)
stage "cargo test (workspace: tier-1, every crate, doctests)" \
    cargo test -q --workspace

stage "telemetry: overhead smoke (NullSink path < 5% on the Dslash hot loop)" \
    cargo bench -p qcdoc-bench --bench telemetry_overhead

stage "recovery: checkpoint overhead smoke (interval-0 CG within 5% of raw CG)" \
    cargo bench -p qcdoc-bench --bench recovery_overhead

stage "mixed precision: reliable-update CG acceptance (f64 tolerance, bit-identical, cost envelope)" \
    cargo bench -p qcdoc-bench --bench mixed_precision

stage "integrity: clean-path overhead smoke (ABFT-on CG within 5% of raw CG)" \
    cargo bench -p qcdoc-bench --bench integrity_overhead

stage "scheduler: overhead smoke (managed CG within 5% of the bare solve)" \
    cargo bench -p qcdoc-bench --bench sched_overhead

stage "fault: injection machinery smoke (idle tap price + deterministic DES cycles)" \
    cargo bench -p qcdoc-bench --bench fault_overhead

stage "link: per-word path prices (frame codec, wire hand-off, frames per delivered word)" \
    cargo bench -p qcdoc-bench --bench link_protocol

stage "durability: clean-path overhead smoke (durable checkpointing within 5% of archive-and-drop)" \
    cargo bench -p qcdoc-bench --bench durability_overhead

stage "autonomic: chaos-soak SLO export (goodput, requeue p99, losses gated at zero)" \
    cargo bench -p qcdoc-bench --bench chaos

stage "kernels: scalar ≡ table oracle and AoSoA ≡ scalar word for word, f32 must beat f64, M† priced against M" \
    cargo bench -p qcdoc-bench --bench kernels

stage "full machine: 12,288-node partition-boot-solve on the sharded engine" \
    cargo run -q --release --example hard_scaling

# --locked: bench/e2e/Cargo.lock is frozen with the harness, so a change to
# the workspace dependency graph fails here instead of rewriting the lock.
stage "bench/e2e: frozen end-to-end harness builds against the workspace API" \
    cargo build --release --offline --locked --quiet --manifest-path bench/e2e/Cargo.toml
stage "bench/e2e: frozen end-to-end harness unit tests" \
    cargo test --offline --locked --quiet --manifest-path bench/e2e/Cargo.toml
# The harness exits 1 when an in-run check fails (distributed ≡ serial,
# healed ≡ clean, tracked chaos solves exact, checkpoint-store round trip).
stage "bench/e2e: each workload runs once with its in-run checks green" \
    bash -c 'for w in torus_latency torus_bandwidth torus_faulty local_solve control_plane; do
        out=$(cargo run --release --offline --locked --quiet --manifest-path bench/e2e/Cargo.toml \
            -- --workload "$w" --seconds 1) || { echo "$out"; exit 1; }
    done'

stage "bench judge: current exports vs committed baselines (bless with bench-judge --bless)" \
    cargo run -q --release -p qcdoc-judge --bin bench-judge

echo "verify: all green ($SECONDS s)"
