#!/usr/bin/env bash
# The tier-1 gate: release build, the whole workspace's tests and
# clippy, formatting, a benchmark smoke (the `benchmark/` crate compiles
# against this tree, its tests pass, and all five workloads run once with
# no failed operation), a columnar smoke (the same script answers
# byte-identically with and without --no-columnar), a differential smoke
# (a short qcheck seed sweep plus the persisted corpus, failing on any
# regression, and the fault-injection self-tests proving the sweep
# catches a dropped join-delta term and a stale inline summary and
# shrinks both), a concurrency smoke
# (the shared-store stress test under --release plus a short
# multi-session qcheck sweep), a metrics smoke, a sharding smoke (every
# corpus script answers identically under --shards 2 and 4, and a short
# sharded qcheck sweep and a 4-shard corpus replay pass), a durability smoke (a 200-seed
# crash-recovery sweep and both mid-stream reopen corpus replays pass,
# `serve --data-dir` recovers a directory across two invocations, and
# the fault-injection self-tests prove the crash oracle catches an
# unsoundly skipped fsync and a silently dropped WAL append and shrinks
# both failures), a network smoke
# (every corpus script answered over a real loopback TCP server
# byte-identically to the in-process runner, a clean SIGTERM drain per
# server, a wire-axis qcheck sweep, and the framing fault-injection
# self-test), and an advisor smoke (the suggest-mode proposal dump is
# byte-stable across two runs, every corpus script answers identically
# advisor-off vs. --advisor auto, a 300-seed advisor-axis qcheck sweep
# passes, and the fault-injection self-test proves the advisor oracle
# catches an unsoundly stale advisor view and shrinks the failure).
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# --workspace throughout: a bare cargo command covers only the root
# package, which leaves the crates' own tests and lints (and the qcheck
# binary used below) out of the gate.
cargo build --release --workspace
cargo test -q --workspace
cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings
# benchmark/ is its own workspace, so nothing above compiles it and a
# public-API change can break it unnoticed: build and test it against
# this tree, then run every workload once (answers are checked against
# the reference executor; a wrong one exits non-zero). The per-workload
# report goes to stderr.
cargo test --offline --manifest-path benchmark/Cargo.toml
bench_smoke=$(benchmark/smoke.sh 2>&1)
printf '%s\n' "$bench_smoke" >&2
[ "$(grep -c 'ops_failed 0$' <<<"$bench_smoke")" -eq 5 ]
# Columnar smoke: a row-vs-columnar byte-identity check — the same
# script through the default (vectorized) session and through
# --no-columnar must print exactly the same bytes once wall-clock
# duration tokens are masked (the `N.NN ms)` evaluation timings vary run
# to run by design — the mask is anchored on the closing paren because
# the token sits at the end of a larger parenthetical, not alone in
# one).
columnar_script='CREATE TABLE Sales (Region, Product, Amount);
INSERT INTO Sales VALUES (1, 10, 5), (1, 11, 7), (2, 10, 3), (2, 11, 9), (1, 10, 2);
CREATE VIEW Totals AS SELECT Region, SUM(Amount) AS T, COUNT(Amount) AS N FROM Sales GROUP BY Region;
SELECT Region, SUM(Amount), COUNT(Amount) FROM Sales GROUP BY Region;
SELECT Region, SUM(Amount) FROM Sales WHERE Amount < 5 GROUP BY Region;
SELECT Product, MIN(Amount), MAX(Amount), AVG(Amount) FROM Sales GROUP BY Product;
SELECT Region, T, N FROM Totals;'
col_out=$(./target/release/aggview <<<"$columnar_script" | sed -E 's/[0-9.]+ ms\)/_ ms)/g')
row_out=$(./target/release/aggview --no-columnar <<<"$columnar_script" | sed -E 's/[0-9.]+ ms\)/_ ms)/g')
if [ "$col_out" != "$row_out" ]; then
  echo "ci: columnar and --no-columnar outputs diverge" >&2
  diff <(printf '%s\n' "$col_out") <(printf '%s\n' "$row_out") >&2 || true
  exit 1
fi
# Differential smoke: seconds, not minutes — the deep sweep lives in
# scripts/soak.sh. Each seed replays the 8-point options lattice. A
# corpus regression (a once-interesting case going wrong again) fails
# the gate.
./target/release/qcheck --seeds 0..1000
./target/release/qcheck --replay tests/corpus
# Fault-injection self-test: with the dimension-side term of the join
# delta rule unsoundly dropped (a write to any but a view's first FROM
# table leaves the view as it was, reported as maintained), the same
# sweep must FAIL with a shrunk stale-view witness.
if unsound_delta=$(AGGVIEW_UNSOUND_DROP_DIM_DELTA=1 ./target/release/qcheck --seeds 0..100 2>&1); then
  echo "ci: differential oracle failed to catch a dropped delta term" >&2
  exit 1
fi
grep -q "view-content-mismatch" <<<"$unsound_delta"
grep -q "shrunk" <<<"$unsound_delta"
# Fault-injection self-test: with every inline summary (eager
# aggregation) unsoundly reused from its first materialization instead of
# rebuilt from the pinned snapshot, the stream's writes leave later joins
# answered stale, and the same sweep must FAIL with a shrunk witness.
if unsound_eager=$(AGGVIEW_UNSOUND_EAGER_STALE=1 ./target/release/qcheck --seeds 0..100 2>&1); then
  echo "ci: differential oracle failed to catch a stale inline summary" >&2
  exit 1
fi
grep -q "answer-mismatch" <<<"$unsound_eager"
grep -q "shrunk" <<<"$unsound_eager"
# Concurrency smoke: the 4-reader/1-writer stress test runs under
# --release (debug-mode timing starves the readers), and a short
# multi-session sweep replays the differential stream round-robined
# across 2 handles of one shared store.
cargo test -q --release --test concurrent_store
./target/release/qcheck --seeds 0..350 --sessions 2
# Metrics smoke: run a script through `aggview metrics` and `serve
# --metrics`, assert the pipeline counters landed, and validate every
# exposed line against the Prometheus text format (comments are TYPE
# declarations; samples are `name value` with a bare integer value).
metrics_script='CREATE TABLE Sales (Region, Product, Amount);
INSERT INTO Sales VALUES (1, 10, 5), (1, 11, 7), (2, 10, 3);
CREATE VIEW Totals AS SELECT Region, SUM(Amount) AS T, COUNT(Amount) AS N FROM Sales GROUP BY Region;
SELECT Region, SUM(Amount) FROM Sales GROUP BY Region;
SELECT Region, SUM(Amount) FROM Sales GROUP BY Region;'
scrape=$(./target/release/aggview metrics <<<"$metrics_script")
grep -q '^aggview_statements_total 5$' <<<"$scrape"
grep -q '^aggview_queries_total 2$' <<<"$scrape"
grep -q '^aggview_plan_cache_hits_total 1$' <<<"$scrape"
grep -q 'aggview_stage_duration_nanoseconds_bucket{stage="execute",le="+Inf"} 2' <<<"$scrape"
bad=$(grep -Ev '^(# TYPE aggview_[a-z_]+ (counter|gauge|histogram)|aggview_[a-z_]+(\{[^}]*\})? [0-9]+)$' <<<"$scrape" || true)
if [ -n "$bad" ]; then
  echo "ci: invalid Prometheus exposition line(s):" >&2
  printf '%s\n' "$bad" >&2
  exit 1
fi
serve_scrape=$(./target/release/aggview serve --sessions 2 --metrics <<<"$metrics_script")
grep -q '^aggview_store_publishes_total 3$' <<<"$serve_scrape"
grep -q '^aggview_write_queue_depth 0$' <<<"$serve_scrape"
# Sharding smoke: every corpus script must answer identically through a
# 2-shard and a 4-shard store (the benchmark's count) and an unsharded
# session. Wall-clock tokens and
# maintenance counts are masked (each shard maintains only its own
# partition's views, so the summed count can legitimately differ), and
# lines are sorted (a gathered relation is a shard-order permutation of
# the unsharded row order — bag equality is the contract, and qcheck's
# repeated-select check pins per-plan determinism separately). A short
# sharded qcheck sweep and a 4-shard corpus replay close the gate.
shard_mask='s/[0-9.]+ ms\)/_ ms)/g; s/[0-9]+ view\(s\) maintained/_ view(s) maintained/g'
for f in tests/corpus/*.sql; do
  un=$(./target/release/aggview "$f" | sed -E "$shard_mask" | sort)
  for k in 2 4; do
    sh=$(./target/release/aggview --shards "$k" "$f" | sed -E "$shard_mask" | sort)
    if [ "$un" != "$sh" ]; then
      echo "ci: $k-shard and unsharded outputs diverge on $f" >&2
      diff <(printf '%s\n' "$un") <(printf '%s\n' "$sh") >&2 || true
      exit 1
    fi
  done
done
./target/release/qcheck --seeds 0..350 --shards 2
./target/release/qcheck --replay tests/corpus --shards 4
# Durability smoke: the crash oracle sweeps 200 seeded crash points
# (random crash batch, phase, and checkpoint cadence per seed) and must
# find no discrepancy; the corpus replays through both mid-stream
# reopen drivers; and a two-invocation `serve --data-dir` round trip
# proves the CLI recovers a directory and answers from the recovered
# store (the banner goes to stderr, the rows to stdout).
./target/release/qcheck --crash --seeds 0..200
./target/release/qcheck --replay tests/corpus --sessions 2 --reopen
./target/release/qcheck --replay tests/corpus --shards 2 --reopen
datadir=$(mktemp -d)
./target/release/aggview serve --data-dir "$datadir" >/dev/null <<'SQL'
CREATE TABLE Sales (Region, Amount);
INSERT INTO Sales VALUES (1, 10), (1, 20), (2, 5);
CREATE VIEW Totals AS SELECT Region, SUM(Amount) AS T FROM Sales GROUP BY Region;
SQL
reopened=$(./target/release/aggview serve --data-dir "$datadir" 2>&1 <<'SQL'
SELECT Region, SUM(Amount) FROM Sales GROUP BY Region;
SQL
)
rm -rf "$datadir"
grep -q -- "-- recovered" <<<"$reopened"
grep -q "3 wal batch(es) replayed" <<<"$reopened"
grep -q "30" <<<"$reopened"
# Fault-injection self-test: with fsync unsoundly disabled through the
# test-only env hook, the crash sweep must FAIL (acked batches vanish
# across recovery) and print a shrunk counterexample — proof the oracle
# can actually see durability violations, not just pass on them.
if unsound=$(AGGVIEW_UNSOUND_SKIP_FSYNC=1 ./target/release/qcheck --crash --seeds 0..50 2>&1); then
  echo "ci: crash oracle failed to catch an unsound fsync skip" >&2
  exit 1
fi
grep -q "durability-violation" <<<"$unsound"
grep -q "shrunk" <<<"$unsound"
# The same with every third WAL append unsoundly discarded (the record
# never reaches the log, the batch is still acked).
if unsound_wal=$(AGGVIEW_UNSOUND_DROP_WAL=3 ./target/release/qcheck --crash --seeds 0..50 2>&1); then
  echo "ci: crash oracle failed to catch an unsoundly dropped WAL append" >&2
  exit 1
fi
grep -q "durability-violation" <<<"$unsound_wal"
grep -q "shrunk" <<<"$unsound_wal"
# Network smoke: each corpus script replays through `net-client` against
# a background `serve --listen` on an ephemeral loopback port (a fresh
# server per script — corpus scripts reuse table names), and the wire
# transcript must be byte-identical to the in-process runner once the
# wall-clock tokens are masked. Each server is then SIGTERMed and must
# exit 0 with a drain summary — the clean-drain assert. A wire-axis
# qcheck sweep replays the differential lattice over real sockets (plus
# the seeded frame fuzzer), and the fault-injection self-test proves
# that sweep can actually see a framing bug: with the test-only
# truncation hook armed, it must FAIL and print a shrunk witness.
for f in tests/corpus/*.sql; do
  netout=$(mktemp)
  ./target/release/aggview serve --listen 127.0.0.1:0 >"$netout" 2>/dev/null &
  netpid=$!
  for _ in $(seq 1 100); do
    grep -q "listening on" "$netout" 2>/dev/null && break
    sleep 0.05
  done
  netaddr=$(grep -oE '127\.0\.0\.1:[0-9]+' "$netout" | head -1)
  wire=$(./target/release/aggview net-client --connect "$netaddr" "$f" | sed -E 's/[0-9.]+ ms\)/_ ms)/g')
  local_out=$(./target/release/aggview "$f" | sed -E 's/[0-9.]+ ms\)/_ ms)/g')
  if [ "$wire" != "$local_out" ]; then
    echo "ci: wire and in-process outputs diverge on $f" >&2
    diff <(printf '%s\n' "$wire") <(printf '%s\n' "$local_out") >&2 || true
    exit 1
  fi
  kill -TERM "$netpid"
  wait "$netpid"
  grep -q -- "-- drained:" "$netout"
  rm -f "$netout"
done
./target/release/qcheck --net --seeds 0..350
if unsound_net=$(AGGVIEW_UNSOUND_NET_TRUNCATE=1 ./target/release/qcheck --net --seeds 0..50 2>&1); then
  echo "ci: wire oracle failed to catch an unsound frame truncation" >&2
  exit 1
fi
grep -q "net-" <<<"$unsound_net"
grep -q "shrunk" <<<"$unsound_net"
# Advisor smoke: the suggest-mode proposal dump is deterministic (two
# runs over the same workload print identical bytes); every corpus
# script answers identically with the advisor off and in auto mode once
# the comment headers are dropped (`-- answered from ...` legitimately
# names AdvView* on the auto side), wall-clock tokens masked,
# maintenance counts masked (the advisor's view is one more to
# maintain), and lines sorted; an advisor-axis qcheck sweep replays
# advisor-off vs. auto; and the fault-injection self-test proves that
# sweep can see a stale advisor view: with maintenance of AdvView*
# unsoundly skipped, it must FAIL with a shrunk advisor-divergence
# witness.
advise_script='CREATE TABLE Sales (Region, Product, Amount);
INSERT INTO Sales VALUES (1, 10, 5), (1, 11, 7), (2, 10, 3), (2, 11, 9), (1, 10, 2), (3, 11, 4);
SELECT Region, SUM(Amount) FROM Sales GROUP BY Region;
SELECT Region, SUM(Amount) FROM Sales GROUP BY Region;
SELECT Region, SUM(Amount) FROM Sales GROUP BY Region;
SELECT Product, SUM(Amount) FROM Sales GROUP BY Product;'
dump1=$(./target/release/aggview advise --advisor suggest <<<"$advise_script")
dump2=$(./target/release/aggview advise --advisor suggest <<<"$advise_script")
grep -q "proposal 1:" <<<"$dump1"
if [ "$dump1" != "$dump2" ]; then
  echo "ci: advise proposal dump is not deterministic" >&2
  diff <(printf '%s\n' "$dump1") <(printf '%s\n' "$dump2") >&2 || true
  exit 1
fi
advisor_mask='s/[0-9.]+ ms\)/_ ms)/g; s/[0-9]+ view\(s\) maintained/_ view(s) maintained/g'
for f in tests/corpus/*.sql; do
  plain=$(./target/release/aggview "$f" | sed -E "$advisor_mask" | grep -v '^--' | sort)
  adv=$(./target/release/aggview --advisor auto "$f" | sed -E "$advisor_mask" | grep -v '^--' | sort)
  if [ "$plain" != "$adv" ]; then
    echo "ci: advisor-auto and advisor-off outputs diverge on $f" >&2
    diff <(printf '%s\n' "$plain") <(printf '%s\n' "$adv") >&2 || true
    exit 1
  fi
done
./target/release/qcheck --advisor --seeds 0..300
if unsound_adv=$(AGGVIEW_UNSOUND_ADVISOR_STALE=1 ./target/release/qcheck --advisor --seeds 0..50 2>&1); then
  echo "ci: advisor oracle failed to catch a stale advisor view" >&2
  exit 1
fi
grep -q "advisor-divergence" <<<"$unsound_adv"
grep -q "shrunk" <<<"$unsound_adv"
echo "ci: all checks passed"
