#!/usr/bin/env bash
# The benchmark in one command, for people. (The driver's command is the
# `cargo run` line in /BENCHMARK.json; this script wraps the same binary.)
#
#   bench/e2e/run.sh [--seed N] [--workload W]... [--seconds S] [--traced] [--repeat-check]
#
# Lints and unit-tests the package (it is outside the workspace, so
# scripts/verify.sh does not reach it), builds it --release --offline, then
# runs each workload in a process of its own and prints every metric as
# `workload metric value unit`. Each run's result object is also kept in
# bench/e2e/out/. --traced adds the traced run of each workload (per-layer
# metrics and out/trace_<workload>.json). --repeat-check runs the untraced
# set twice and fails if an end-to-end metric differs between the two by
# more than its bound in /BENCHMARK.json.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
seed=11
seconds=""
traced=0
repeat=0
workloads=()
while (($#)); do
    case "$1" in
        --seed) seed="$2"; shift 2 ;;
        --workload) workloads+=("$2"); shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --traced) traced=1; shift ;;
        --repeat-check) repeat=1; shift ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done
if ((${#workloads[@]} == 0)); then
    workloads=(torus_latency torus_bandwidth torus_faulty local_solve control_plane)
fi

cd "$here"
cargo fmt --check
cargo clippy --release --offline --all-targets -- -D warnings
cargo test --release --offline --quiet
cargo build --release --offline
binary="${CARGO_TARGET_DIR:-$here/target}/release/qcdoc-e2e"
mkdir -p "$here/out"

# run_one <workload> <trace 0|1> <file for the result object>
run_one() {
    local args=(--workload "$1" --seed "$seed" --trace "$2")
    [[ -n "$seconds" ]] && args+=(--seconds "$seconds")
    (cd "$root" && "$binary" "${args[@]}") | tee "$here/out/last_run.txt"
    tail -n 1 "$here/out/last_run.txt" > "$3"
}

for w in "${workloads[@]}"; do
    run_one "$w" 0 "$here/out/result_${w}.json"
    if ((traced)); then
        run_one "$w" 1 "$here/out/result_${w}_traced.json"
    fi
done

if ((repeat)); then
    status=0
    for w in "${workloads[@]}"; do
        run_one "$w" 0 "$here/out/result_${w}_again.json"
        python3 - "$root/BENCHMARK.json" "$here/out/result_${w}.json" \
            "$here/out/result_${w}_again.json" "$w" <<'PY' || status=1
import json, sys
bench, first, again, workload = sys.argv[1:]
bounds = {m["name"]: m["bound"] for m in json.load(open(bench))["end_to_end"]}
a, b = (json.load(open(p))["metrics"] for p in (first, again))
failed = False
for name, bound in bounds.items():
    apart = abs(b[name]["value"] - a[name]["value"]) / a[name]["value"]
    verdict = "ok" if apart <= bound else "APART"
    failed |= apart > bound
    print(f"{workload} repeat-check {name} {a[name]['value']:.6g} {b[name]['value']:.6g} "
          f"apart {apart:.3f} bound {bound} {verdict}")
sys.exit(failed)
PY
    done
    exit "$status"
fi
