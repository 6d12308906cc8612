//! The metric catalogue: every name the benchmark prints, with its
//! unit, its direction, and — for end-to-end metrics — the bound by
//! which it may worsen before a change counts as a regression.
//! `/BENCHMARK.json` repeats this table; a unit test keeps the two in
//! step.
//!
//! The bounds are what the host supports, not what one would wish:
//! on the sandbox a fixed memory-walking loop drifts by 40 % and a
//! fixed ALU loop by 15 % within four minutes, and ten runs of one
//! binary spread (Q3 - Q1) / median = 4-9 % on every wall-clock
//! metric whatever the trials are combined by (README.md, "A/A").
//! A bound has to sit about three spreads out to be a verdict and not
//! a coin toss, so every metric gets the widest bound the pipeline
//! allows (memory repeats better run to run, but its spread over five
//! runs reached 10 % on `scan_join`).

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// The best of several trials' values.
    pub fn best(self, values: impl Iterator<Item = f64>) -> f64 {
        match self {
            Better::Lower => values.fold(f64::INFINITY, f64::min),
            Better::Higher => values.fold(f64::NEG_INFINITY, f64::max),
        }
    }

    /// `b` relative to `a`, positive when `b` is worse.
    pub fn worsening(self, a: f64, b: f64) -> f64 {
        match self {
            Better::Lower => (b - a) / a,
            Better::Higher => (a - b) / a,
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    pub what: &'static str,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "build backend + load + create views + listen + first answer over TCP",
    },
    EndToEnd {
        name: "read_qps",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        what: "reads completed / wall time of the measured window",
    },
    EndToEnd {
        name: "read_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        what: "median round trip of the workload's probe read",
    },
    EndToEnd {
        name: "write_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        what: "median round trip of an acked one-row INSERT INTO Calls",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
        what: "VmHWM of the benchmark process at exit",
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// What is timed or counted.
    pub what: &'static str,
    /// The end-to-end metric it should move, and where.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    what: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        what,
        moves,
    }
}

use Better::{Higher, Lower};

pub const PER_LAYER: &[PerLayer] = &[
    layer(
        "sql.parse_us",
        "us",
        Lower,
        "parse_script of the probe",
        "read_p50_us @ warm_read",
    ),
    layer(
        "core.canon_us",
        "us",
        Lower,
        "Canonical::from_query + CacheKey::new",
        "read_p50_us @ warm_read",
    ),
    layer(
        "core.rewrite_us",
        "us",
        Lower,
        "Rewriter::rewrite_with_stats against the view pool",
        "read_p50_us @ cold_search; nothing @ warm_read",
    ),
    layer(
        "core.rewrite_attempted",
        "count",
        Lower,
        "(state, view) pairs that reached mapping enumeration",
        "read_p50_us @ cold_search",
    ),
    layer(
        "core.closure_hit_ratio",
        "ratio",
        Higher,
        "closure-cache hits / lookups of one search",
        "read_p50_us @ cold_search",
    ),
    layer(
        "core.cost_rank_us",
        "us",
        Lower,
        "sort of the rewritings by Rewriting::cost",
        "read_p50_us @ cold_search",
    ),
    layer(
        "plan_cache.lookup_us",
        "us",
        Lower,
        "PlanCache::lookup of a stored key",
        "read_p50_us @ warm_read",
    ),
    layer(
        "plan_cache.hit_ratio",
        "ratio",
        Higher,
        "hits / lookups during the traced window (1 @ warm_read, 0 @ cold_search)",
        "read_p50_us @ warm_read",
    ),
    layer(
        "engine.compile_us",
        "us",
        Lower,
        "PhysicalPlan::compile of the executed query",
        "read_p50_us @ cold_search",
    ),
    layer(
        "engine.run_us",
        "us",
        Lower,
        "PhysicalPlan::run of the probe's plan",
        "read_p50_us, read_qps @ scan_join",
    ),
    layer(
        "engine.vectorized_ratio",
        "ratio",
        Higher,
        "ExecVectorized / (ExecVectorized + ExecRowFallback) during the traced window",
        "read_qps @ scan_join",
    ),
    layer(
        "engine.columnar_convert_us",
        "us",
        Lower,
        "ColumnarRelation::from_rows(Calls)",
        "read_p50_us @ mixed_rw",
    ),
    layer(
        "engine.maintain_incremental_us",
        "us",
        Lower,
        "one-row EngineState::insert into Calls (all views maintained)",
        "write_p50_us @ mixed_rw",
    ),
    layer(
        "engine.backfill_us",
        "us",
        Lower,
        "EngineState::create_view of the pool's widest view over the loaded table",
        "setup_s @ warm_read",
    ),
    layer(
        "session.local_execute_us",
        "us",
        Lower,
        "ladder rung: probe on a local Session",
        "read_p50_us @ warm_read",
    ),
    layer(
        "session.overhead_us",
        "us",
        Lower,
        "local rung - canon - lookup - run",
        "read_p50_us @ warm_read",
    ),
    layer(
        "server.shared_execute_us",
        "us",
        Lower,
        "ladder rung: probe on a SharedStore handle",
        "read_p50_us @ warm_read",
    ),
    layer(
        "server.refresh_us",
        "us",
        Lower,
        "shared rung - local rung",
        "read_p50_us @ warm_read",
    ),
    layer(
        "server.state_clone_us",
        "us",
        Lower,
        "EngineState::clone of the loaded state (= one publish)",
        "write_p50_us, peak_rss_mb @ mixed_rw; setup_s everywhere",
    ),
    layer(
        "server.submit_us",
        "us",
        Lower,
        "SharedStore::submit of a one-row insert, ack included",
        "write_p50_us @ mixed_rw",
    ),
    layer(
        "server.queue_wait_us",
        "us",
        Lower,
        "StoreStats mean queue wait per write",
        "write_p50_us @ mixed_rw",
    ),
    layer(
        "server.apply_publish_us",
        "us",
        Lower,
        "StoreStats mean apply+publish per write",
        "write_p50_us @ mixed_rw",
    ),
    layer(
        "server.batch_mean",
        "count",
        Higher,
        "StoreStats mean ops per batch",
        "write_p50_us @ mixed_rw",
    ),
    layer(
        "sharded.execute_us",
        "us",
        Lower,
        "ladder rung: probe on a sharded driver session",
        "read_qps @ sharded_rw",
    ),
    layer(
        "sharded.fallback_ratio",
        "ratio",
        Lower,
        "ShardGatherFallbacks / ShardFanouts during the traced window",
        "read_qps @ sharded_rw",
    ),
    layer(
        "sharded.union_rebuild_us",
        "us",
        Lower,
        "UnionState::ensure after a write",
        "read_p50_us @ sharded_rw; nothing @ mixed_rw",
    ),
    layer(
        "sharded.submit_us",
        "us",
        Lower,
        "ShardedStore::apply_write of a one-row insert",
        "write_p50_us @ sharded_rw",
    ),
    layer(
        "store.wal_append_us",
        "us",
        Lower,
        "Wal::append of one insert's SQL",
        "write_p50_us @ mixed_rw",
    ),
    layer(
        "store.wal_sync_us",
        "us",
        Lower,
        "Wal::sync (fsync) after that append",
        "write_p50_us @ mixed_rw",
    ),
    layer(
        "store.wal_bytes_per_write",
        "bytes",
        Lower,
        "bytes one WAL record of a one-row insert takes",
        "write_p50_us @ mixed_rw",
    ),
    layer(
        "store.checkpoint_encode_us",
        "us",
        Lower,
        "image_from_state + encode_image of the loaded state",
        "tail.write_p99_us @ mixed_rw",
    ),
    layer(
        "store.checkpoint_bytes",
        "bytes",
        Lower,
        "size of that image",
        "tail.write_p99_us @ mixed_rw",
    ),
    layer(
        "store.recovery_ms",
        "ms",
        Lower,
        "reopen of the trial's directory until the first read",
        "tail.write_p99_us @ mixed_rw",
    ),
    layer(
        "net.encode_request_us",
        "us",
        Lower,
        "protocol::encode_request",
        "read_p50_us @ warm_read; nothing @ scan_join",
    ),
    layer(
        "net.decode_request_us",
        "us",
        Lower,
        "protocol::decode_request",
        "read_p50_us @ warm_read; nothing @ scan_join",
    ),
    layer(
        "net.encode_outcome_us",
        "us",
        Lower,
        "protocol::encode_outcome of the probe's answer",
        "read_p50_us @ warm_read; nothing @ scan_join",
    ),
    layer(
        "net.decode_response_us",
        "us",
        Lower,
        "protocol::decode_response of that frame",
        "read_p50_us @ warm_read; nothing @ scan_join",
    ),
    layer(
        "net.bytes_in_per_req",
        "bytes",
        Lower,
        "NetBytesIn / NetRequests during the traced window",
        "read_p50_us @ warm_read",
    ),
    layer(
        "net.bytes_out_per_req",
        "bytes",
        Lower,
        "NetBytesOut / NetRequests during the traced window",
        "read_p50_us @ warm_read",
    ),
    layer(
        "net.rtt_us",
        "us",
        Lower,
        "ladder rung: probe through NetClient",
        "read_p50_us @ warm_read",
    ),
    layer(
        "net.socket_us",
        "us",
        Lower,
        "rtt - backend rung - codec - parse",
        "read_p50_us @ warm_read",
    ),
    layer(
        "tail.read_p99_us",
        "us",
        Lower,
        "p99 of the probe class in the traced window",
        "informational",
    ),
    layer(
        "tail.write_p99_us",
        "us",
        Lower,
        "p99 of acked inserts in the traced window",
        "informational",
    ),
    layer(
        "trace.unattributed_pct",
        "%",
        Lower,
        "(rtt - sum of timed stages) / rtt; above ~10 % is a finding",
        "read_p50_us @ warm_read",
    ),
    layer(
        "trace.overhead_pct",
        "%",
        Lower,
        "read_qps lost by recording a span per request",
        "none: must stay near 0",
    ),
    layer(
        "host.hardware_threads",
        "count",
        Higher,
        "available_parallelism as the program sees it",
        "context",
    ),
    layer(
        "host.loadavg_1m",
        "count",
        Lower,
        "/proc/loadavg at the end of the run",
        "context",
    ),
    layer(
        "host.calib_us",
        "us",
        Lower,
        "fixed xorshift loop, min of start and end of run",
        "context: host drift, not a regression",
    ),
];
