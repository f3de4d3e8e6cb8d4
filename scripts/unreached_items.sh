#!/bin/sh
# Lists each `pub fn|struct|enum|trait|type|const|static` of the workspace
# crates (`crates/*/src`) whose name appears in no code line other than its
# own definition, i.e. that no runtime code reaches. Code lines are those of
# scripts/code_lines.sh (non-blank, not starting with `//`, above a file's
# first `#[cfg(test)]`), searched over `crates/*/src` and the benchmark
# harness (`benchmark/src`). Tests and examples do not count as reaching an
# item: each output line counts the lines that name it there instead.
#
#   crates/core/src/slab.rs:293 slot_pair_mut tests=3 examples=0
#
# The search is by name, so an item that shares its name with a reached
# item is never listed.
#
#   scripts/unreached_items.sh
set -eu
cd "$(dirname "$0")/.."
# One awk run reads every file, so the counts cover the whole workspace.
# (No path in the repository holds white space.)
files=$(find crates benchmark tests examples -type f -name '*.rs' \
    \( -path 'crates/*/src/*' -o -path 'crates/*/tests/*' -o -path 'benchmark/src/*' \
       -o -path 'benchmark/tests/*' -o -path 'tests/*' -o -path 'examples/*' \) |
    LC_ALL=C sort)
# shellcheck disable=SC2086
awk '
    FNR == 1 {
        below = 0
        if (FILENAME ~ /^examples\//) kind = "example"
        else if (FILENAME ~ /^(crates\/[^\/]*|benchmark)\/src\//) kind = "code"
        else kind = "test"
    }
    /^[[:space:]]*#\[cfg\(test\)\]/ { below = 1 }
    /^[[:space:]]*$/ { next }
    /^[[:space:]]*\/\// { next }
    {
        part = kind
        if (part == "code" && below) part = "test"
        # Count each name once per line.
        split("", seen)
        line = $0
        while (match(line, /[A-Za-z_][A-Za-z0-9_]*/)) {
            word = substr(line, RSTART, RLENGTH)
            line = substr(line, RSTART + RLENGTH)
            if (!(word in seen)) {
                seen[word] = 1
                uses[part, word]++
            }
        }
        if (part != "code" || FILENAME !~ /^crates\//) next
        def = $0
        if (!sub(/^[[:space:]]*pub[[:space:]]+/, "", def)) next
        while (def ~ /^(const|async|unsafe)[[:space:]]+(const|async|unsafe|extern|fn)[[:space:]]/)
            sub(/^[a-z]+[[:space:]]+/, "", def)
        if (!sub(/^(fn|struct|enum|trait|type|const|static)[[:space:]]+(mut[[:space:]]+)?/, "", def)) next
        if (!match(def, /^[A-Za-z_][A-Za-z0-9_]*/)) next
        items++
        where[items] = FILENAME ":" FNR
        name[items] = substr(def, 1, RLENGTH)
    }
    END {
        for (i = 1; i <= items; i++) {
            n = name[i]
            if (uses["code", n] > 1) continue
            printf "%s %s tests=%d examples=%d\n", where[i], n, uses["test", n], uses["example", n]
        }
    }
' $files
