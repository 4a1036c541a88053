#!/usr/bin/env bash
# Where does one end-to-end workload, or one example, spend its CPU? Self
# and inclusive time per repository frame, for hosts without `perf`.
#
#   scripts/profile.sh <workload> [seconds]     (seconds of reps, default 5)
#   scripts/profile.sh --example <name> [args...]
#
# Builds scripts/sampler.c into target/profile/ and, with frame pointers and
# line tables into target/profile/target/, either the bench/e2e harness or
# the named example of examples/. It runs the workload untraced (or the
# example with its arguments) under the sampler (LD_PRELOAD). For a workload
# it prints the timed reps' share of the samples. Then come two tables with
# one row per (file, function). Self: the share of samples whose
# innermost frame in this repository — inlined frames included, std and libc
# skipped — is that function. Inclusive: the share of samples with that
# function anywhere on the stack. Needs cc and llvm-symbolizer. Not part of
# scripts/verify.sh.
set -euo pipefail
cd "$(dirname "$0")/.."
usage="usage: scripts/profile.sh <workload> [seconds] | --example <name> [args...]"
out=target/profile
mkdir -p "$out"
export RUSTFLAGS="-C force-frame-pointers=yes -C symbol-mangling-version=v0"
export CARGO_PROFILE_RELEASE_DEBUG=line-tables-only CARGO_TARGET_DIR="$out/target"
if [ "${1:-}" = --example ]; then
    example=${2:?$usage}
    shift 2
    cargo build --release --offline --locked --quiet --example "$example"
    bin=$(realpath "$out/target/release/examples/$example")
    run=("$bin" "$@")
else
    example=
    workload=${1:?$usage}
    cargo build --release --offline --locked --quiet --manifest-path bench/e2e/Cargo.toml
    bin=$(realpath "$out/target/release/qcdoc-e2e")
    run=("$bin" --workload "$workload" --seconds "${2:-5}" --trace 0)
fi
cc -O2 -shared -fPIC -o "$out/libsampler.so" scripts/sampler.c

rm -f "$out"/samples.*
SAMPLER_OUT="$out/samples" LD_PRELOAD="$PWD/$out/libsampler.so" "${run[@]}" >"$out/run.log"
samples=$(ls "$out"/samples.*)

# Samples as addresses in the profiled binary: the first mapping of the
# binary is its load base; return addresses step back into their call.
awk -v bin="$bin" '
    function hex(s, v, i) {
        for (i = 1; i <= length(s); i++) v = v * 16 + index("0123456789abcdef", substr(s, i, 1)) - 1
        return v
    }
    $1 == "M" && $7 == bin {
        split($2, r, "-"); lo[++n] = hex(r[1]); hi[n] = hex(r[2])
        if (hex($4) == 0) base = lo[n]
    }
    $1 == "S" { s[++m] = $0 }
    END {
        for (i = 1; i <= m; i++) {
            k = split(s[i], f, " "); line = ""
            for (j = 2; j <= k; j++) {
                pc = hex(f[j])
                for (q = 1; q <= n; q++) if (pc >= lo[q] && pc < hi[q]) break
                if (q <= n) line = line sprintf(" 0x%x", pc - base - (j > 2))
            }
            print line
        }
    }' "$samples" >"$out/stacks"

# Each distinct address to its repository frames, innermost first, one
# "address<TAB>file<TAB>function" line per frame.
tr ' ' '\n' <"$out/stacks" | grep . | sort -u |
    llvm-symbolizer --obj="$bin" --inlining --print-address |
    awk -v root="$PWD/" '
        /^0x/ { addr = $1; fn = ""; next }
        /^$/ { next }
        fn == "" { fn = $0; next }
        {
            file = $0; sub(/:[0-9]+:[0-9]+$/, "", file)
            if (index(file, root) == 1) {
                sub(/ \(\.llvm\.[0-9]+\)$/, "", fn); sub(/::h[0-9a-f]+$/, "", fn)
                print addr "\t" substr(file, length(root) + 1) "\t" fn
            }
            fn = ""
        }' >"$out/frames"

# One table, its 40 largest rows. "self" charges each sample to its innermost
# repository frame; "inclusive" charges it once to every repository function
# on its stack, so a caller's row covers all it calls.
table() {
    awk -F'\t' -v mode="$1" '
        FNR == NR {
            if (!($1 in inner)) inner[$1] = $2 "\t" $3
            frames[$1] = frames[$1] "\n" $2 "\t" $3
            next
        }
        {
            total++; hits = 0; split("", hit)
            for (i = 1; i <= NF; i++) {
                if (!($i in inner)) continue
                if (mode == "self") { hit[inner[$i]] = 1; hits = 1; break }
                k = split(frames[$i], f, "\n")
                for (j = 2; j <= k; j++) { hit[f[j]] = 1; hits = 1 }
            }
            if (!hits) hit["(no repository frame)\t"] = 1
            for (key in hit) count[key]++
        }
        END {
            printf "%d samples (1 ms of CPU each)\n%9s  %-40s %s\n", total, mode, "file", "function"
            for (k in count) { split(k, p, "\t"); printf "%8.1f%%  %-40s %s\n", 100 * count[k] / total, p[1], p[2] }
        }' "$out/frames" FS=' ' "$out/stacks" | { IFS= read -r a; IFS= read -r b; echo "$a"; echo "$b"; sort -rn; } | awk 'NR <= 42'
}
# The timed reps' share of all samples (set-up and warm-up are the rest): a
# row's share of a rep is its share here divided by this one. An example has
# no timed reps.
[ -n "$example" ] || awk -F'\t' '
    FNR == NR {
        if ($3 ~ /measure::timed/) timed[$1] = 1
        if ($3 ~ /Workload>::setup/) setup[$1] = 1
        next
    }
    {
        total++; t = 0; s = 0
        for (i = 1; i <= NF; i++) { if ($i in timed) t = 1; if ($i in setup) s = 1 }
        if (t && !s) reps++
    }
    END {
        printf "%.1f%% of %d samples are under the timed reps (measure::timed, set-up excluded); divide a row by it for its share of a rep\n\n", 100 * reps / total, total
    }' "$out/frames" FS=' ' "$out/stacks"
table self
echo
table inclusive
