#!/bin/sh
# Non-test Rust lines per directory: for every *.rs below it, the lines
# before the first column-0 `#[cfg(test)]`. The line ledger CHANGES.md
# quotes; run from the repository root.
[ $# -gt 0 ] || set -- crates/*/src src
total=0
for dir in "$@"; do
    lines=$(find "$dir" -name '*.rs' -exec awk \
        'FNR == 1 { test = 0 } /^#\[cfg\(test\)\]/ { test = 1 } !test { n++ } END { print n + 0 }' {} +)
    echo "$lines $dir"
    total=$((total + lines))
done
echo "$total total"
