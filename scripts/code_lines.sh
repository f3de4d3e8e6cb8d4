#!/bin/sh
# Prints the code lines of each Rust file under the given paths, then their
# total. A code line is a non-blank line that does not start with `//`
# (after indentation) and lies above the file's first `#[cfg(test)]`, so
# inline unit tests and doc comments are not counted.
#
#   scripts/code_lines.sh crates/sim/src/engine crates/core/src/view.rs
set -eu
if [ "$#" -eq 0 ]; then
    echo "usage: $0 <file or directory>..." >&2
    exit 1
fi
find "$@" -type f -name '*.rs' | LC_ALL=C sort | while read -r file; do
    awk '
        /^[[:space:]]*#\[cfg\(test\)\]/ { exit }
        /^[[:space:]]*$/ { next }
        /^[[:space:]]*\/\// { next }
        { n++ }
        END { printf "%6d  %s\n", n, FILENAME }
    ' "$file"
done | awk '{ print; total += $1 } END { printf "%6d  total\n", total }'
