#!/usr/bin/env bash
# Exact-count gate. The benchmark's exact pass (single-threaded and
# timer-free, see perfbench/README.md) counts the sfences, clwbs, undo
# entries and words, metadata validations and maps, wrpkru executions
# and cache events of its heap calls. For a fixed seed these counts
# repeat exactly, so any change in them is a change in the program.
# This script reruns the pass on every workload and diffs the
# `# exact counts` lines against scripts/exact_counts.expected.
#
# Usage: scripts/exact_counts.sh           check; exit 1 on a mismatch
#        scripts/exact_counts.sh --print   print the current lines
#
# The benchmark command is read from BENCHMARK.json, so the gate runs
# exactly what the benchmark runs. A change that moves a count on
# purpose updates the expected file in the same commit and says why.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

# The "command" array of BENCHMARK.json, one element per line.
mapfile -t cmd < <(sed -n '/"command": \[/,/\]/p' BENCHMARK.json | sed -n 's/^ *"\(.*\)",\{0,1\}$/\1/p')
if [[ ${#cmd[@]} -eq 0 ]]; then
    echo "no benchmark command found in BENCHMARK.json" >&2
    exit 2
fi

actual=$(mktemp)
trap 'rm -f "$actual"' EXIT
for workload in small large kv; do
    line=$("${cmd[@]}" --workload "$workload" --seed 1 --seconds 1 --trace 1 | grep '^# exact counts')
    echo "$workload $line" >>"$actual"
done

if [[ ${1:-} == --print ]]; then
    cat "$actual"
    exit 0
fi
if ! diff -u <(grep -v '^#' scripts/exact_counts.expected) "$actual"; then
    echo "exact counts differ from scripts/exact_counts.expected" >&2
    exit 1
fi
echo "exact counts match scripts/exact_counts.expected."
