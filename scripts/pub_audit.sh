#!/usr/bin/env bash
# Dead-`pub` audit: every `pub` fn/const/static/struct/enum/trait/type
# declared above its file's first `#[cfg(test)]` under crates/*/src must be
# named somewhere besides its own definition line.
#
# An item fails when both hold:
#   - no other .rs file under crates src tests examples bench/e2e/src names
#     it as a word;
#   - its own file names it only on its definition line above #[cfg(test)]
#     (its own unit tests do not count).
# Failures are printed as `path:line: name` and the script exits 1.
# An allowlist entry whose `path:name` no longer declares an audited `pub`
# item is stale: it is printed as `path: stale allow entry: name` and
# fails the same way, so an entry cannot outlive its item.
#
# Usage: scripts/pub_audit.sh   (from anywhere; scans this repository)
set -euo pipefail
cd "$(dirname "$0")/.."

# Items kept on purpose, as `path:name`, each with a one-line reason.
allow=(
    # A node program's only way to read supervisor and partition-interrupt events (§2.2).
    "crates/core/src/functional.rs:take_events"
)

files=$(find crates src tests examples bench/e2e/src -name '*.rs' -type f | sort)

# shellcheck disable=SC2086
awk -v allow="${allow[*]}" '
function words(line, seen,    w) {
    while (match(line, /[A-Za-z_][A-Za-z0-9_]*/)) {
        w = substr(line, RSTART, RLENGTH)
        seen[w] = 1
        line = substr(line, RSTART + RLENGTH)
    }
}
FNR == 1 {
    in_tests = 0
    audited = (FILENAME ~ /^crates\/[^\/]+\/src\//)
    delete in_file
}
{
    if ($0 ~ /#\[cfg\(test\)\]/) in_tests = 1
    delete seen
    words($0, seen)
    for (w in seen) {
        if (!(w in in_file)) { in_file[w] = 1; files_naming[w]++ }
        if (audited && !in_tests) own_lines[FILENAME SUBSEP w]++
    }
    if (audited && !in_tests) {
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
                ndef++
                def_file[ndef] = FILENAME
                def_line[ndef] = FNR
                def_name[ndef] = name
            }
        }
    }
}
END {
    n = split(allow, kept, " ")
    for (i = 1; i <= n; i++) allowed[kept[i]] = 1
    fails = 0
    for (i = 1; i <= ndef; i++) declared[def_file[i] ":" def_name[i]] = 1
    for (i = 1; i <= n; i++) {
        if (kept[i] in declared) continue
        split(kept[i], parts, ":")
        printf "%s: stale allow entry: %s\n", parts[1], parts[2]
        fails++
    }
    for (i = 1; i <= ndef; i++) {
        f = def_file[i]; w = def_name[i]
        if ((f ":" w) in allowed) continue
        if (files_naming[w] > 1) continue
        if (own_lines[f SUBSEP w] > 1) continue
        printf "%s:%d: %s\n", f, def_line[i], w
        fails++
    }
    printf "pub audit: %d items checked, %d dead or stale\n", ndef, fails > "/dev/stderr"
    exit fails > 0
}
' $files
