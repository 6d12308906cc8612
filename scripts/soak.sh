#!/usr/bin/env bash
# Long-running differential soak: sweep a large seed range through the
# qcheck harness (reference interpreter vs. the full serving stack at
# every engine-configuration lattice point and every emitted rewriting).
# Shrunken counterexamples are written to tests/corpus/ so a find becomes
# a permanent regression test.
#
# With SESSIONS > 1 the same statement streams are additionally replayed
# round-robined across K handles of one shared snapshot store — the
# deterministic multi-session soak (per-handle plan caches invalidated by
# other handles' DDL, snapshot pinning, write batching).
#
# Usage: scripts/soak.sh [N_SEEDS] [START] [SESSIONS]
#   N_SEEDS   seeds to check (default 5000)
#   START     first seed (default 0) — shift it to sweep fresh territory
#   SESSIONS  shared-store handles for a second, interleaved sweep
#             (default 2; set 1 to skip the multi-session pass)
set -euo pipefail
cd "$(dirname "$0")/.."

n=${1:-5000}
start=${2:-0}
sessions=${3:-2}
end=$((start + n))

cargo build --release -p aggview-qcheck
./target/release/qcheck --seeds "$start..$end" --write-failures tests/corpus
if [ "$sessions" -gt 1 ]; then
    ./target/release/qcheck --seeds "$start..$end" --sessions "$sessions" \
        --write-failures tests/corpus
fi
echo "soak: $n seed(s) from $start clean (sessions=$sessions)"
