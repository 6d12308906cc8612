//! The metrics registry: enum-indexed atomic counters, one latency
//! histogram per pipeline stage, a shared monotonic clock anchor, and
//! the slow-query ring.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::hist::{HistogramSnapshot, LatencyHistogram};
use crate::ring::{SlowQuery, SlowQueryRing};
use crate::ObsOptions;

/// A pipeline stage with its own latency histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum Stage {
    /// Lexing + parsing a statement.
    Parse,
    /// The view-rewrite search (prepare + enumeration).
    Rewrite,
    /// Plan selection and compilation to a physical plan.
    Plan,
    /// Executing the chosen plan.
    Execute,
    /// Incremental or recompute view maintenance after a write.
    Maintain,
    /// Applying one writer batch to the store (shared-store writer).
    Apply,
    /// WAL append + fsync for one batch (durable stores only).
    Wal,
    /// Publishing a new store snapshot.
    Publish,
    /// Serving one network request end to end (decode through encode).
    Net,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 9] = [
        Stage::Parse,
        Stage::Rewrite,
        Stage::Plan,
        Stage::Execute,
        Stage::Maintain,
        Stage::Apply,
        Stage::Wal,
        Stage::Publish,
        Stage::Net,
    ];

    /// Stable lowercase name, used by both renderers.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::Rewrite => "rewrite",
            Stage::Plan => "plan",
            Stage::Execute => "execute",
            Stage::Maintain => "maintain",
            Stage::Apply => "apply",
            Stage::Wal => "wal",
            Stage::Publish => "publish",
            Stage::Net => "net",
        }
    }
}

const STAGES: usize = Stage::ALL.len();

/// A monotonic event counter (or, for the queue-depth pair, a gauge).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum CounterId {
    /// Statements executed (any kind).
    Statements,
    /// SELECT queries served.
    Queries,
    /// Write statements (INSERT/DELETE) applied.
    Writes,
    /// Rewrite-search states expanded.
    RewriteStates,
    /// Candidate views discarded by the prefilter.
    RewritePrefiltered,
    /// Candidate views attempted in the search.
    RewriteAttempted,
    /// Column mappings enumerated.
    RewriteMappings,
    /// Complete rewritings emitted.
    RewriteEmitted,
    /// Closure-cache hits in the rewrite search.
    ClosureHits,
    /// Closure-cache misses in the rewrite search.
    ClosureMisses,
    /// Plan-cache hits.
    PlanCacheHits,
    /// Plan-cache misses.
    PlanCacheMisses,
    /// Plan-cache entries invalidated by schema changes.
    PlanCacheInvalidations,
    /// Plan-cache hits on a query-shape template (a constant variant of
    /// an earlier query, replayed; also counted in `PlanCacheHits`).
    PlanCacheTemplateHits,
    /// Template replays that found no rewriting matching the cached
    /// choice and fell back to the full search.
    PlanCacheReplayRejects,
    /// Physical plans compiled.
    PlanCompiles,
    /// Grouped-view index probes that answered an aggregate lookup.
    IndexProbes,
    /// Rows returned by index probes.
    IndexProbeRows,
    /// Views maintained incrementally (delta applied).
    MaintainIncremental,
    /// Views maintained by full recompute.
    MaintainRecompute,
    /// Queries that crossed the slow-query threshold.
    SlowQueries,
    /// Writer batches applied (shared store).
    StoreBatches,
    /// Individual write ops inside those batches.
    StoreBatchedOps,
    /// Snapshot publishes (shared store).
    StorePublishes,
    /// Current write-queue depth (gauge: add on submit, sub on drain).
    WriteQueueDepth,
    /// High-water mark of the write queue.
    WriteQueueMax,
    /// Queries answered by the vectorized (columnar) execution path.
    ExecVectorized,
    /// Queries answered by the row-at-a-time interpreter (vectorization
    /// declined or disabled).
    ExecRowFallback,
    /// Sharded SELECTs that entered the scatter-gather planner.
    ShardFanouts,
    /// Per-shard scatter queries issued (fanouts × shard count when no
    /// plan falls back).
    ShardScatterQueries,
    /// Gathers merged as a disjoint union (grouped on the shard key).
    ShardConcatMerges,
    /// Gathers merged by re-aggregating §4 partial aggregates.
    ShardReaggMerges,
    /// Sharded SELECTs served from the union instead (join, unresolvable
    /// shard column, or a failed scatter/merge).
    ShardGatherFallbacks,
    /// Rebuilds of the sharded driver's union of all shard snapshots
    /// (fallback answers, `--verify`, global-state reads).
    ShardUnionBuilds,
    /// WAL records appended (one per applied statement batch).
    WalAppends,
    /// WAL bytes appended (record framing included).
    WalBytes,
    /// Compacted checkpoints written (each truncates the WAL).
    Checkpoints,
    /// WAL batches replayed during the most recent recovery.
    RecoveryReplayedBatches,
    /// Connections accepted by the network front door.
    NetConnections,
    /// Connections refused at the admission gate (server full).
    NetRejects,
    /// Network requests served (every decoded frame gets a response).
    NetRequests,
    /// Bytes read off accepted connections (frame payloads + newlines).
    NetBytesIn,
    /// Bytes written back to clients (responses + newlines).
    NetBytesOut,
    /// Frames that failed to decode (oversized, invalid JSON, bad shape).
    NetProtocolErrors,
    /// Currently open connections (gauge: add on accept, sub on close).
    NetConnectionsOpen,
    /// Requests in flight across all connections (gauge).
    NetInflight,
    /// View proposals emitted by the adaptive advisor.
    AdvisorProposals,
    /// Views the advisor actually created (`auto` policy).
    AdvisorCreated,
    /// Rows backfilled into advisor-created views.
    AdvisorBackfillRows,
    /// Answers served through an inline summary (eager aggregation: a
    /// group-by pushdown over part of `FROM` when no stored view
    /// answers).
    EagerInline,
    /// Auxiliary relations (inline summaries, the paper's `V^a`, `Nat`)
    /// reused from the memo: every relation they read was unchanged.
    AuxMemoHits,
    /// Auxiliary relations built, on a memo miss or with no memo.
    AuxMemoBuilds,
    /// Bytes of auxiliary relations the memo currently keeps (gauge).
    AuxMemoBytes,
}

impl CounterId {
    /// Every counter, in declaration order.
    pub const ALL: [CounterId; 53] = [
        CounterId::Statements,
        CounterId::Queries,
        CounterId::Writes,
        CounterId::RewriteStates,
        CounterId::RewritePrefiltered,
        CounterId::RewriteAttempted,
        CounterId::RewriteMappings,
        CounterId::RewriteEmitted,
        CounterId::ClosureHits,
        CounterId::ClosureMisses,
        CounterId::PlanCacheHits,
        CounterId::PlanCacheMisses,
        CounterId::PlanCacheInvalidations,
        CounterId::PlanCacheTemplateHits,
        CounterId::PlanCacheReplayRejects,
        CounterId::PlanCompiles,
        CounterId::IndexProbes,
        CounterId::IndexProbeRows,
        CounterId::MaintainIncremental,
        CounterId::MaintainRecompute,
        CounterId::SlowQueries,
        CounterId::StoreBatches,
        CounterId::StoreBatchedOps,
        CounterId::StorePublishes,
        CounterId::WriteQueueDepth,
        CounterId::WriteQueueMax,
        CounterId::ExecVectorized,
        CounterId::ExecRowFallback,
        CounterId::ShardFanouts,
        CounterId::ShardScatterQueries,
        CounterId::ShardConcatMerges,
        CounterId::ShardReaggMerges,
        CounterId::ShardGatherFallbacks,
        CounterId::ShardUnionBuilds,
        CounterId::WalAppends,
        CounterId::WalBytes,
        CounterId::Checkpoints,
        CounterId::RecoveryReplayedBatches,
        CounterId::NetConnections,
        CounterId::NetRejects,
        CounterId::NetRequests,
        CounterId::NetBytesIn,
        CounterId::NetBytesOut,
        CounterId::NetProtocolErrors,
        CounterId::NetConnectionsOpen,
        CounterId::NetInflight,
        CounterId::AdvisorProposals,
        CounterId::AdvisorCreated,
        CounterId::AdvisorBackfillRows,
        CounterId::EagerInline,
        CounterId::AuxMemoHits,
        CounterId::AuxMemoBuilds,
        CounterId::AuxMemoBytes,
    ];

    /// Stable snake_case name; the Prometheus metric is
    /// `aggview_<name>_total` (counters) or `aggview_<name>` (gauges).
    pub fn name(self) -> &'static str {
        match self {
            CounterId::Statements => "statements",
            CounterId::Queries => "queries",
            CounterId::Writes => "writes",
            CounterId::RewriteStates => "rewrite_states",
            CounterId::RewritePrefiltered => "rewrite_candidates_prefiltered",
            CounterId::RewriteAttempted => "rewrite_candidates_attempted",
            CounterId::RewriteMappings => "rewrite_mappings",
            CounterId::RewriteEmitted => "rewrite_rewritings",
            CounterId::ClosureHits => "closure_cache_hits",
            CounterId::ClosureMisses => "closure_cache_misses",
            CounterId::PlanCacheHits => "plan_cache_hits",
            CounterId::PlanCacheMisses => "plan_cache_misses",
            CounterId::PlanCacheInvalidations => "plan_cache_invalidations",
            CounterId::PlanCacheTemplateHits => "plan_cache_template_hits",
            CounterId::PlanCacheReplayRejects => "plan_cache_replay_rejects",
            CounterId::PlanCompiles => "plan_compiles",
            CounterId::IndexProbes => "index_probes",
            CounterId::IndexProbeRows => "index_probe_rows",
            CounterId::MaintainIncremental => "maintain_incremental",
            CounterId::MaintainRecompute => "maintain_recompute",
            CounterId::SlowQueries => "slow_queries",
            CounterId::StoreBatches => "store_batches",
            CounterId::StoreBatchedOps => "store_batched_ops",
            CounterId::StorePublishes => "store_publishes",
            CounterId::WriteQueueDepth => "write_queue_depth",
            CounterId::WriteQueueMax => "write_queue_max",
            CounterId::ExecVectorized => "exec_vectorized",
            CounterId::ExecRowFallback => "exec_row_fallback",
            CounterId::ShardFanouts => "shard_fanouts",
            CounterId::ShardScatterQueries => "shard_scatter_queries",
            CounterId::ShardConcatMerges => "shard_concat_merges",
            CounterId::ShardReaggMerges => "shard_reagg_merges",
            CounterId::ShardGatherFallbacks => "shard_gather_fallbacks",
            CounterId::ShardUnionBuilds => "shard_union_builds",
            CounterId::WalAppends => "wal_appends",
            CounterId::WalBytes => "wal_bytes",
            CounterId::Checkpoints => "checkpoints",
            CounterId::RecoveryReplayedBatches => "recovery_replayed_batches",
            CounterId::NetConnections => "net_connections",
            CounterId::NetRejects => "net_rejects",
            CounterId::NetRequests => "net_requests",
            CounterId::NetBytesIn => "net_bytes_in",
            CounterId::NetBytesOut => "net_bytes_out",
            CounterId::NetProtocolErrors => "net_protocol_errors",
            CounterId::NetConnectionsOpen => "net_connections_open",
            CounterId::NetInflight => "net_inflight",
            CounterId::AdvisorProposals => "advisor_proposals",
            CounterId::AdvisorCreated => "advisor_created",
            CounterId::AdvisorBackfillRows => "advisor_backfill_rows",
            CounterId::EagerInline => "eager_inline",
            CounterId::AuxMemoHits => "aux_memo_hits",
            CounterId::AuxMemoBuilds => "aux_memo_builds",
            CounterId::AuxMemoBytes => "aux_memo_bytes",
        }
    }

    /// Gauges are exported without the `_total` suffix and typed `gauge`.
    pub fn is_gauge(self) -> bool {
        matches!(
            self,
            CounterId::WriteQueueDepth
                | CounterId::WriteQueueMax
                | CounterId::NetConnectionsOpen
                | CounterId::NetInflight
                | CounterId::AuxMemoBytes
        )
    }
}

const COUNTERS: usize = CounterId::ALL.len();

/// Per-tenant network counters. Tenants are client-chosen labels of
/// bounded cardinality (the admission gate caps connections), kept in a
/// map behind a mutex rather than flat `CounterId`s — tenant updates
/// happen once per request/connection, never inside the query hot path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantCounters {
    /// Connections this tenant opened.
    pub connections: u64,
    /// Requests this tenant had served.
    pub requests: u64,
    /// Bytes read from this tenant's connections.
    pub bytes_in: u64,
    /// Bytes written back to this tenant.
    pub bytes_out: u64,
    /// Requests or connections refused for this tenant.
    pub rejects: u64,
}

/// One fingerprint's accumulated workload statistics: how often the
/// canonical form was served, how much time it cost, and a sample SQL
/// text (the first sighting) the advisor can re-parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadEntry {
    /// Canonical-form fingerprint (the plan-cache key hash).
    pub fingerprint: u64,
    /// Times this fingerprint was served.
    pub count: u64,
    /// Summed end-to-end serving time, nanoseconds.
    pub total_ns: u64,
    /// Servings that crossed the slow-query threshold.
    pub slow_hits: u64,
    /// Sample SQL text (first sighting of the fingerprint).
    pub sql: String,
}

impl WorkloadEntry {
    /// Mean serving latency in nanoseconds (0 before the first serving).
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }
}

/// The per-session (or per-store) metrics registry.
///
/// All hot-path operations are relaxed atomic adds on fixed arrays; the
/// locks (slow-query ring, workload map) are taken once per served
/// query, never inside the execution inner loop.
#[derive(Debug)]
pub struct MetricsRegistry {
    /// Monotonic clock anchor, resolved once at construction so all span
    /// timestamps in a session share one origin (deterministic ordering
    /// for replay; see crate docs).
    anchor: Instant,
    counters: [AtomicU64; COUNTERS],
    stages: [LatencyHistogram; STAGES],
    ring: SlowQueryRing,
    slow_threshold_ns: u64,
    tenants: Mutex<BTreeMap<String, TenantCounters>>,
    workload: Mutex<BTreeMap<u64, WorkloadEntry>>,
    workload_capacity: usize,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new(&ObsOptions::default())
    }
}

impl MetricsRegistry {
    /// A fresh registry configured from `opts`.
    pub fn new(opts: &ObsOptions) -> Self {
        MetricsRegistry {
            anchor: Instant::now(),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            stages: std::array::from_fn(|_| LatencyHistogram::new()),
            ring: SlowQueryRing::new(opts.slow_query_capacity),
            slow_threshold_ns: opts.slow_query_threshold_ns(),
            tenants: Mutex::new(BTreeMap::new()),
            workload: Mutex::new(BTreeMap::new()),
            workload_capacity: opts.workload_capacity,
        }
    }

    /// Nanoseconds since this registry's clock anchor.
    pub fn now_ns(&self) -> u64 {
        self.anchor.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    /// Add `n` to a counter.
    pub fn add(&self, id: CounterId, n: u64) {
        self.counters[id as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Increment a counter by one.
    pub fn incr(&self, id: CounterId) {
        self.add(id, 1);
    }

    /// Subtract `n` from a gauge-style counter (saturating via wrapping
    /// add of the two's complement is avoided; fetch_sub is fine because
    /// submit/drain are paired).
    pub fn sub(&self, id: CounterId, n: u64) {
        self.counters[id as usize].fetch_sub(n, Ordering::Relaxed);
    }

    /// Raise a high-water-mark counter to at least `n`.
    pub fn raise_max(&self, id: CounterId, n: u64) {
        self.counters[id as usize].fetch_max(n, Ordering::Relaxed);
    }

    /// Current value of a counter.
    pub fn get(&self, id: CounterId) -> u64 {
        self.counters[id as usize].load(Ordering::Relaxed)
    }

    /// Record a latency observation for a stage.
    pub fn observe_ns(&self, stage: Stage, ns: u64) {
        self.stages[stage as usize].record_ns(ns);
    }

    /// A snapshot of one stage's histogram.
    pub fn stage_snapshot(&self, stage: Stage) -> HistogramSnapshot {
        self.stages[stage as usize].snapshot()
    }

    /// Start timing a stage; the returned guard records the elapsed time
    /// when dropped (or at an explicit [`Span::finish`], which also
    /// returns the elapsed nanoseconds).
    pub fn span(&self, stage: Stage) -> Span<'_> {
        Span {
            registry: self,
            stage,
            start_ns: self.now_ns(),
            done: false,
        }
    }

    /// The configured slow-query threshold in nanoseconds.
    pub fn slow_threshold_ns(&self) -> u64 {
        self.slow_threshold_ns
    }

    /// Account one served query: bump the query counter, fold the
    /// serving into the per-fingerprint workload profile, and, if
    /// `total_ns` crosses the threshold, push it into the slow-query
    /// ring with its per-stage breakdown. The SQL text is a closure so
    /// the repeat path never pays for rendering it — only the first
    /// sighting of a fingerprint materializes its text (the workload
    /// sample the advisor re-parses); later slow servings reuse the
    /// stored sample.
    pub fn note_query<F>(&self, fingerprint: u64, sql: F, total_ns: u64, stages: &[(Stage, u64)])
    where
        F: FnOnce() -> String,
    {
        self.incr(CounterId::Queries);
        let slow = total_ns >= self.slow_threshold_ns;
        if slow {
            self.incr(CounterId::SlowQueries);
        }
        let mut sample: Option<String> = None;
        {
            let mut map = self.workload.lock().unwrap();
            if let Some(entry) = map.get_mut(&fingerprint) {
                entry.count += 1;
                entry.total_ns += total_ns;
                entry.slow_hits += slow as u64;
                if slow {
                    sample = Some(entry.sql.clone());
                }
            } else if map.len() < self.workload_capacity {
                // The map is capacity-bounded: a pathological stream of
                // distinct fingerprints stops profiling instead of
                // growing without bound (the ring still sees slow ones),
                // and the text is rendered only when something keeps it.
                let text = sql();
                if slow {
                    sample = Some(text.clone());
                }
                map.insert(
                    fingerprint,
                    WorkloadEntry {
                        fingerprint,
                        count: 1,
                        total_ns,
                        slow_hits: slow as u64,
                        sql: text,
                    },
                );
            } else if slow {
                sample = Some(sql());
            }
        }
        if slow {
            self.ring.push(
                fingerprint,
                sample.as_deref().unwrap_or(""),
                total_ns,
                stages,
            );
        }
    }

    /// The workload profile: every tracked fingerprint with its counts,
    /// most-served first (fingerprint breaks ties, so the order is
    /// deterministic for a deterministic stream).
    pub fn workload(&self) -> Vec<WorkloadEntry> {
        let map = self.workload.lock().unwrap();
        let mut entries: Vec<WorkloadEntry> = map.values().cloned().collect();
        entries.sort_by(|a, b| {
            b.count
                .cmp(&a.count)
                .then(a.fingerprint.cmp(&b.fingerprint))
        });
        entries
    }

    /// How many times one fingerprint has been served (0 if untracked).
    pub fn fingerprint_count(&self, fingerprint: u64) -> u64 {
        self.workload
            .lock()
            .unwrap()
            .get(&fingerprint)
            .map_or(0, |e| e.count)
    }

    /// The retained slow queries, oldest first.
    pub fn slow_queries(&self) -> Vec<SlowQuery> {
        self.ring.entries()
    }

    /// Update one tenant's counters under the registry's tenant lock.
    pub fn tenant_update<F>(&self, tenant: &str, f: F)
    where
        F: FnOnce(&mut TenantCounters),
    {
        let mut map = self.tenants.lock().unwrap();
        f(map.entry(tenant.to_string()).or_default());
    }

    /// All tenants with their counters, in tenant-name order.
    pub fn tenants(&self) -> Vec<(String, TenantCounters)> {
        self.tenants
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }
}

/// A drop guard that records the elapsed wall time of a scope into one
/// stage's histogram.
#[derive(Debug)]
pub struct Span<'a> {
    registry: &'a MetricsRegistry,
    stage: Stage,
    start_ns: u64,
    done: bool,
}

impl Span<'_> {
    /// Stop the span now and return the elapsed nanoseconds.
    pub fn finish(mut self) -> u64 {
        let ns = self.registry.now_ns().saturating_sub(self.start_ns);
        self.registry.observe_ns(self.stage, ns);
        self.done = true;
        ns
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if !self.done {
            let ns = self.registry.now_ns().saturating_sub(self.start_ns);
            self.registry.observe_ns(self.stage, ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_add_and_read() {
        let r = MetricsRegistry::default();
        r.incr(CounterId::Queries);
        r.add(CounterId::Queries, 4);
        assert_eq!(r.get(CounterId::Queries), 5);
        assert_eq!(r.get(CounterId::Writes), 0);
    }

    #[test]
    fn gauge_up_down_and_high_water() {
        let r = MetricsRegistry::default();
        r.add(CounterId::WriteQueueDepth, 3);
        r.raise_max(CounterId::WriteQueueMax, 3);
        r.sub(CounterId::WriteQueueDepth, 2);
        r.raise_max(CounterId::WriteQueueMax, 1);
        assert_eq!(r.get(CounterId::WriteQueueDepth), 1);
        assert_eq!(r.get(CounterId::WriteQueueMax), 3);
    }

    #[test]
    fn span_records_into_stage_histogram() {
        let r = MetricsRegistry::default();
        {
            let _s = r.span(Stage::Execute);
        }
        let ns = r.span(Stage::Execute).finish();
        let snap = r.stage_snapshot(Stage::Execute);
        assert_eq!(snap.count, 2);
        assert!(snap.max_ns >= ns);
        assert_eq!(r.stage_snapshot(Stage::Parse).count, 0);
    }

    #[test]
    fn note_query_thresholds_into_ring() {
        let opts = ObsOptions {
            slow_query_ms: 1,
            ..ObsOptions::default()
        };
        let r = MetricsRegistry::new(&opts);
        r.note_query(1, || "SELECT fast".to_string(), 10_000, &[]);
        r.note_query(
            2,
            || "SELECT slow".to_string(),
            2_000_000,
            &[(Stage::Execute, 1_900_000)],
        );
        assert_eq!(r.get(CounterId::Queries), 2);
        assert_eq!(r.get(CounterId::SlowQueries), 1);
        let slow = r.slow_queries();
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].fingerprint, 2);
        assert_eq!(slow[0].sql, "SELECT slow");
    }

    #[test]
    fn workload_profile_tracks_fingerprints() {
        let r = MetricsRegistry::default();
        r.note_query(7, || "SELECT a FROM t".to_string(), 1_000, &[]);
        r.note_query(7, || panic!("repeat never renders"), 3_000, &[]);
        r.note_query(9, || "SELECT b FROM u".to_string(), 500, &[]);
        let w = r.workload();
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].fingerprint, 7, "most-served first");
        assert_eq!(w[0].count, 2);
        assert_eq!(w[0].total_ns, 4_000);
        assert_eq!(w[0].mean_ns(), 2_000);
        assert_eq!(w[0].sql, "SELECT a FROM t");
        assert_eq!(w[1].count, 1);
        assert_eq!(r.fingerprint_count(7), 2);
        assert_eq!(r.fingerprint_count(42), 0);
    }

    #[test]
    fn workload_profile_is_capacity_bounded() {
        let opts = ObsOptions {
            workload_capacity: 4,
            ..ObsOptions::default()
        };
        let r = MetricsRegistry::new(&opts);
        for fp in 0..10u64 {
            r.note_query(fp, || format!("SELECT {fp}"), 100, &[]);
        }
        assert_eq!(r.workload().len(), 4);
        // Tracked fingerprints keep counting past the cap.
        r.note_query(1, || panic!("tracked"), 100, &[]);
        assert_eq!(r.fingerprint_count(1), 2);
    }

    /// Past the capacity, a fast unseen fingerprint keeps nothing, so its
    /// text is never rendered; a slow one still is, for the ring.
    #[test]
    fn full_workload_map_renders_only_what_it_keeps() {
        let opts = ObsOptions {
            workload_capacity: 4,
            slow_query_ms: 1,
            ..ObsOptions::default()
        };
        let r = MetricsRegistry::new(&opts);
        let rendered = std::cell::Cell::new(0);
        let sql = || {
            rendered.set(rendered.get() + 1);
            "SELECT x".to_string()
        };
        for fp in 0..10u64 {
            r.note_query(fp, sql, 100, &[]);
        }
        assert_eq!(rendered.get(), 4);
        r.note_query(99, sql, 2_000_000, &[]);
        assert_eq!(rendered.get(), 5);
        assert_eq!(r.slow_queries()[0].sql, "SELECT x");
        assert_eq!(r.workload().len(), 4);
    }

    #[test]
    fn tenant_counters_accumulate_per_label() {
        let r = MetricsRegistry::default();
        r.tenant_update("acme", |t| {
            t.connections += 1;
            t.requests += 3;
        });
        r.tenant_update("beta", |t| t.rejects += 1);
        r.tenant_update("acme", |t| t.requests += 2);
        let tenants = r.tenants();
        assert_eq!(tenants.len(), 2);
        assert_eq!(tenants[0].0, "acme");
        assert_eq!(tenants[0].1.connections, 1);
        assert_eq!(tenants[0].1.requests, 5);
        assert_eq!(tenants[1].0, "beta");
        assert_eq!(tenants[1].1.rejects, 1);
    }

    #[test]
    fn stage_and_counter_tables_are_consistent() {
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(*s as usize, i);
        }
        for (i, c) in CounterId::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i);
        }
        // Names are unique (they become Prometheus metric names).
        let mut names: Vec<_> = CounterId::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), CounterId::ALL.len());
    }
}
