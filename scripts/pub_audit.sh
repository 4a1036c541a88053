#!/usr/bin/env bash
# Dead-`pub` audit: every `pub` fn/const/static/struct/enum/trait/type
# declared above its file's first `#[cfg(test)]` under crates/*/src must be
# used somewhere besides its own file's unit tests.
#
# The compiler decides what a use is. The script copies the repository to
# target/pub_audit/tree (never editing the tree it audits), puts
# `#[deprecated(note = "AUDIT <path>:<line>:<name>")]` on every audited item,
# and runs `cargo check --all-targets` on the workspace and on bench/e2e.
# Each use of an item then raises one `deprecated` warning at the use site,
# as the resolver sees it, so a shared or common name cannot pass for a use.
# An item is dead when every use site it gets is at or below the first
# `#[cfg(test)]` of its own file. The rules that follow from this:
#   - a use in a doctest does not count: `cargo check` does not build them;
#   - a use from any integration test, example or bench counts, in this crate
#     or another, and so does a use from bench/e2e;
#   - a `pub use` re-export counts as a use;
#   - an inherent or trait `impl` of a type or trait counts as a use of it.
# Failures are printed as `path:line: name` and the script exits 1.
# An allowlist entry whose `path:name` no longer declares an audited `pub`
# item is stale: it is printed as `path: stale allow entry: name` and
# fails the same way, so an entry cannot outlive its item.
# The audit fails closed: if either `cargo check` fails, or the copy does
# not carry one annotation per audited item, it prints why and exits 1.
#
# Usage: scripts/pub_audit.sh   (from anywhere; audits this repository)
# Its builds go to target/pub_audit/target, apart from every other build.
set -euo pipefail
cd "$(dirname "$0")/.."

# Items kept on purpose, as `path:name`, each with a one-line reason.
allow=(
    # A node program's supervisor channel (§2.2): send_supervisor sends a
    # word to a neighbour, take_events reads the interrupts that arrived.
    "crates/core/src/functional.rs:send_supervisor"
    "crates/core/src/functional.rs:take_events"
    # The address of the first uncorrectable word: the node's fault record.
    "crates/asic/src/memory.rs:machine_check"
    # clippy's len_without_is_empty asks for these beside a live `len`.
    "crates/geometry/src/fold.rs:is_empty"
    "crates/host/src/repair.rs:is_empty"
)

work=target/pub_audit
tree=$work/tree
export CARGO_TARGET_DIR=$PWD/$work/target
rm -rf "$tree"
mkdir -p "$tree/bench/e2e"
# Copies keep their mtimes, so an unchanged file stays fresh for cargo.
cp -a Cargo.toml Cargo.lock crates src tests examples shims "$tree/"
cp -a bench/e2e/Cargo.toml bench/e2e/Cargo.lock bench/e2e/src "$tree/bench/e2e/"

cd "$tree"
# Annotate in place. Print one `item <path> <line> <name>` per audited item
# and one `tests <path> <line>` per file with a test module, its line in the
# annotated copy.
files=$(find crates -path 'crates/*/src/*' -name '*.rs' -type f | sort)
# shellcheck disable=SC2086
awk '
FNR == 1 {
    if (out != "") close(out)
    out = FILENAME ".audit"
    in_tests = 0
    added = 0
}
!in_tests && /#\[cfg\(test\)\]/ {
    in_tests = 1
    print "tests", FILENAME, FNR + added
}
!in_tests {
    line = $0
    if (sub(/^[ \t]*pub[ \t]+/, "", line)) {
        name = ""
        if (match(line, /^((const|async|unsafe)[ \t]+)*fn[ \t]+[A-Za-z_][A-Za-z0-9_]*/)) {
            name = substr(line, RSTART, RLENGTH)
        } else if (match(line, /^(const|static([ \t]+mut)?|struct|enum|trait|type)[ \t]+[A-Za-z_][A-Za-z0-9_]*/)) {
            name = substr(line, RSTART, RLENGTH)
        }
        if (name != "") {
            sub(/.*[ \t]/, "", name)
            indent = $0
            sub(/[^ \t].*/, "", indent)
            printf "%s#[deprecated(note = \"AUDIT %s:%d:%s\")]\n", indent, FILENAME, FNR, name > out
            added++
            print "item", FILENAME, FNR, name
        }
    }
}
{ print > out }
' $files >"../items"
for f in $files; do
    touch -r "$f" "$f.audit"
    mv "$f.audit" "$f"
done

audited=$(awk '$1 == "item"' ../items | wc -l)
# shellcheck disable=SC2086
annotated=$(cat $files | grep -c '^[ \t]*#\[deprecated(note = "AUDIT ' || true)
if ((audited != annotated)); then
    echo "pub audit: $audited items audited but $annotated annotations in the copy" >&2
    exit 1
fi

# check <log> <cargo args...>: check one manifest, every target; fail closed.
check() {
    local log=$1
    shift
    if ! cargo check --offline --all-targets --keep-going --message-format=short "$@" 2>"$log"; then
        grep -E '^(error|[^ ]+: error)' "$log" | head -20 >&2
        echo "pub audit: cargo check $* failed in the annotated copy" \
            "(its line numbers run ahead of the tree's); nothing audited" >&2
        exit 1
    fi
}
check ../workspace.log --workspace
check ../e2e.log --manifest-path bench/e2e/Cargo.toml
root=$PWD
cd - >/dev/null

# A use site reads `path:line:col: warning: use of deprecated … AUDIT key`.
# Workspace paths are relative to the tree; bench/e2e's own are relative to
# bench/e2e, and the workspace's as seen from it are absolute.
awk -v allow="${allow[*]}" -v root="$root/" '
$1 == "item" {
    key = $2 ":" $3 ":" $4
    n++; keys[n] = key; file[key] = $2; line[key] = $3; name[key] = $4
    declared[$2 ":" $4] = 1
    next
}
$1 == "tests" { tests[$2] = $3; next }
/: warning: use of deprecated .*: AUDIT / {
    split($0, at, ":")
    path = at[1]
    if (substr(path, 1, length(root)) == root) path = substr(path, length(root) + 1)
    else if (FILENAME ~ /e2e\.log$/) path = "bench/e2e/" path
    key = $0
    sub(/.*: AUDIT /, "", key)
    if (path == file[key] && (path in tests) && at[2] + 0 >= tests[path]) next
    used[key] = 1
}
END {
    k = split(allow, kept, " ")
    for (i = 1; i <= k; i++) allowed[kept[i]] = 1
    fails = 0
    for (i = 1; i <= k; i++) {
        if (kept[i] in declared) continue
        split(kept[i], parts, ":")
        printf "%s: stale allow entry: %s\n", parts[1], parts[2]
        fails++
    }
    for (i = 1; i <= n; i++) {
        key = keys[i]
        if (key in used || (file[key] ":" name[key]) in allowed) continue
        printf "%s:%d: %s\n", file[key], line[key], name[key]
        fails++
    }
    printf "pub audit: %d items checked, %d dead or stale\n", n, fails > "/dev/stderr"
    exit fails > 0
}
' "$work/items" "$work/workspace.log" "$work/e2e.log"
