#!/usr/bin/env bash
# Non-test line count of the workspace crates: for every tracked
# crates/*/src/**/*.rs file, the lines above its first top-level
# `#[cfg(test)]` (the whole file when it has none). Prints one line per
# crate and the total. Reports only; it gates nothing.
#
#   scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    git ls-files -- "$1" | grep '\.rs$' | while read -r file; do
        awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file"
    done | awk '{ s += $1 } END { print s + 0 }'
}

total=0
for dir in crates/*/src; do
    n=$(count "$dir")
    printf '%-28s %7d\n' "$dir" "$n"
    total=$((total + n))
done
printf '%-28s %7d\n' 'crates/*/src' "$total"
