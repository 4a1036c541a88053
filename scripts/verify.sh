#!/usr/bin/env bash
# Verification gate: formatting, lints-as-errors, the test suites, the
# overhead smokes, the frozen end-to-end harness build, and the bench judge.
# Run from anywhere; operates on the repository this script lives in.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy (workspace, all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (no deps, rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "== cargo test --doc (doctests across the workspace)"
cargo test -q --workspace --doc

echo "== cargo test (tier-1: root package)"
cargo test -q

echo "== cargo test (workspace)"
cargo test -q --workspace

echo "== telemetry: trace determinism"
cargo test -q -p qcdoc-telemetry --test determinism

echo "== telemetry: overhead smoke (NullSink path < 5% on the Dslash hot loop)"
cargo bench -p qcdoc-bench --bench telemetry_overhead

echo "== recovery: quarantine-and-resume acceptance (bit-identical recovered solve)"
cargo test -q --test recovery

echo "== recovery: checkpoint overhead smoke (interval-0 CG within 5% of raw CG)"
cargo bench -p qcdoc-bench --bench recovery_overhead

echo "== mixed precision: reliable-update CG acceptance (f64 tolerance, bit-identical, cost envelope)"
cargo bench -p qcdoc-bench --bench mixed_precision

echo "== integrity: ECC + block-checksum + ABFT acceptance (corruption healed, bit-identical)"
cargo test -q --test integrity

echo "== integrity: clean-path overhead smoke (ABFT-on CG within 5% of raw CG)"
cargo bench -p qcdoc-bench --bench integrity_overhead

echo "== scheduler: multi-tenant soak + preemption bit-identity acceptance"
cargo test -q --test scheduler

echo "== scheduler: overhead smoke (managed CG within 5% of the bare solve)"
cargo bench -p qcdoc-bench --bench sched_overhead

echo "== fault: injection machinery smoke (idle tap price + deterministic DES cycles)"
cargo bench -p qcdoc-bench --bench fault_overhead

echo "== link: per-word path prices (frame codec, wire hand-off, frames per delivered word)"
cargo bench -p qcdoc-bench --bench link_protocol

echo "== flight recorder: black-box acceptance (schedule match, determinism, host ring)"
cargo test -q --test flight

echo "== durability: crash-mid-write + rotted-generation acceptance (fallback restore, bit-identical)"
cargo test -q --test durability

echo "== durability: archive parser fuzz (truncation/bit flips never panic, typed errors only)"
cargo test -q -p qcdoc-lattice --test parser_fuzz

echo "== durability: clean-path overhead smoke (durable checkpointing within 5% of archive-and-drop)"
cargo bench -p qcdoc-bench --bench durability_overhead

echo "== autonomic: failure classification + convicted-domain placement properties"
cargo test -q --test failure_class

echo "== autonomic: chaos-soak acceptance (zero lost jobs, bit-identical solves, capacity recovery)"
cargo test -q --test chaos

echo "== autonomic: chaos-soak SLO export (goodput, requeue p99, losses gated at zero)"
cargo bench -p qcdoc-bench --bench chaos

echo "== kernels: scalar ≡ table oracle and AoSoA ≡ scalar word for word, f32 must beat f64, M† priced against M"
cargo bench -p qcdoc-bench --bench kernels

echo "== full machine: 12,288-node partition-boot-solve on the sharded engine"
cargo run -q --release --example hard_scaling

echo "== bench/e2e: frozen end-to-end harness builds and unit-tests against the workspace API"
cargo build --release --offline --quiet --manifest-path bench/e2e/Cargo.toml
cargo test --offline --quiet --manifest-path bench/e2e/Cargo.toml

echo "== bench judge: current exports vs committed baselines (bless with bench-judge --bless)"
cargo run -q --release -p qcdoc-judge --bin bench-judge

echo "verify: all green"
