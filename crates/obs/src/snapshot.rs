//! `ObsSnapshot`: one point-in-time view of everything the registry and
//! the serving layers know, plus the renderers that replace the three
//! bespoke reporting paths (`:stats`, the `EXPLAIN` tail, and the CLI's
//! concurrent-bench report).

use std::fmt::Write as _;

use crate::hist::HistogramSnapshot;
use crate::registry::{CounterId, MetricsRegistry, Stage, TenantCounters};
use crate::ring::SlowQuery;

/// Output format for [`ObsSnapshot::render`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Line-oriented text for the REPL, `EXPLAIN` tails, and CLI dumps.
    Human,
    /// Prometheus text exposition (`# TYPE` + samples).
    Prometheus,
}

/// Rewrite-search counters for one query (the former
/// `RewriteStats::summary()` payload).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SearchSection {
    /// States popped from the frontier and expanded.
    pub states_expanded: usize,
    /// Candidate pairs rejected by the prefilter.
    pub candidates_prefiltered: usize,
    /// Candidate pairs that reached mapping enumeration.
    pub candidates_attempted: usize,
    /// Column mappings enumerated.
    pub mappings_enumerated: usize,
    /// Rewritings produced.
    pub rewritings: usize,
    /// Closure-cache hits during this search.
    pub closure_cache_hits: u64,
    /// Closure-cache misses during this search.
    pub closure_cache_misses: u64,
    /// Canonicalization wall time, nanoseconds.
    pub prepare_ns: u64,
    /// Search wall time, nanoseconds.
    pub search_ns: u64,
}

impl SearchSection {
    /// Closure-cache hit fraction (0.0 when the cache was untouched).
    pub fn closure_hit_rate(&self) -> f64 {
        let total = self.closure_cache_hits + self.closure_cache_misses;
        if total == 0 {
            0.0
        } else {
            self.closure_cache_hits as f64 / total as f64
        }
    }

    /// One-line summary, byte-identical to the historical
    /// `RewriteStats::summary()` output.
    pub fn summary(&self) -> String {
        format!(
            "states={} candidates={} (prefiltered {}, attempted {}) mappings={} \
             rewritings={} closure-cache={:.0}% hit \
             prepare={:.1}ms search={:.1}ms",
            self.states_expanded,
            self.candidates_prefiltered + self.candidates_attempted,
            self.candidates_prefiltered,
            self.candidates_attempted,
            self.mappings_enumerated,
            self.rewritings,
            self.closure_hit_rate() * 100.0,
            self.prepare_ns as f64 / 1e6,
            self.search_ns as f64 / 1e6,
        )
    }
}

/// Session plan-cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheSection {
    /// Plan-cache hits (session-cumulative).
    pub hits: u64,
    /// Plan-cache misses.
    pub misses: u64,
    /// Entries invalidated by schema changes.
    pub invalidations: u64,
    /// Hits on a query-shape template (included in `hits`).
    pub template_hits: u64,
    /// Template replays that found no match and ran the full search.
    pub replay_rejects: u64,
}

impl PlanCacheSection {
    /// One-line summary: the historical `RewriteStats::plan_cache_summary()`
    /// shape, extended with the template counters once either is nonzero.
    pub fn summary(&self) -> String {
        let mut line = format!(
            "plan-cache: {} hit(s), {} miss(es), {} invalidation(s)",
            self.hits, self.misses, self.invalidations
        );
        if self.template_hits > 0 || self.replay_rejects > 0 {
            line.push_str(&format!(
                "; by order type: {} template hit(s), {} replay reject(s)",
                self.template_hits, self.replay_rejects
            ));
        }
        line
    }
}

/// Shared-store identity and cumulative writer counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreSection {
    /// Is the session a handle on a shared store at all?
    pub attached: bool,
    /// Publish epoch of the snapshot read.
    pub epoch: u64,
    /// Schema epoch of that snapshot.
    pub schema_epoch: u64,
    /// Store-cumulative snapshot publishes.
    pub publishes: u64,
    /// Store-cumulative write batches applied.
    pub batches: u64,
    /// Write statements applied across all batches.
    pub batched_ops: u64,
    /// Largest batch applied.
    pub max_batch: u64,
}

impl StoreSection {
    /// Mean write statements per batch (0.0 before the first).
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_ops as f64 / self.batches as f64
        }
    }

    /// One-line summary, byte-identical to the historical
    /// `RewriteStats::store_summary()` output.
    pub fn summary(&self) -> String {
        if !self.attached {
            return "store: none (session-local state)".to_string();
        }
        format!(
            "store: epoch={} schema-epoch={} publishes={} batches={} \
             batched-ops={} mean-batch={:.1} max-batch={}",
            self.epoch,
            self.schema_epoch,
            self.publishes,
            self.batches,
            self.batched_ops,
            self.mean_batch(),
            self.max_batch,
        )
    }
}

/// Per-query facts for `EXPLAIN ANALYZE`: which plan was used, how long
/// each stage took, and what the search had to do.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QuerySection {
    /// Canonical-form fingerprint (the plan-cache key hash).
    pub fingerprint: u64,
    /// Whether the plan cache served this query.
    pub cached: bool,
    /// Stage timings for this query, in pipeline order, nanoseconds.
    pub stages: Vec<(Stage, u64)>,
    /// End-to-end serving time, nanoseconds.
    pub total_ns: u64,
}

/// One stage's latency distribution, summarized.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageStats {
    /// Which stage.
    pub stage: Stage,
    /// Full bucket snapshot (used for Prometheus exposition).
    pub hist: HistogramSnapshot,
}

impl StageStats {
    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.hist.count
    }
}

/// A point-in-time view of the observability state. Every section is
/// optional: a per-query snapshot (attached to an answer or an `EXPLAIN
/// ANALYZE`) carries the query/search/cache/store sections, while a
/// registry dump (`:stats`, `aggview metrics`) also carries counters,
/// stage histograms, and the slow-query ring. [`ObsSnapshot::render`]
/// skips absent sections.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObsSnapshot {
    /// All registry counters `(id, value)`, empty for per-query snapshots.
    pub counters: Vec<(CounterId, u64)>,
    /// Stage histograms with at least one sample.
    pub stages: Vec<StageStats>,
    /// Retained slow queries, oldest first.
    pub slow: Vec<SlowQuery>,
    /// Slow-query threshold in milliseconds (set iff this snapshot came
    /// from a registry).
    pub slow_threshold_ms: Option<u64>,
    /// Rewrite-search counters for the rendered query.
    pub search: Option<SearchSection>,
    /// Session plan-cache counters.
    pub plan_cache: Option<PlanCacheSection>,
    /// Shared-store identity and writer counters.
    pub store: Option<StoreSection>,
    /// Per-shard store sections of a sharded session, in shard order
    /// (empty for unsharded sessions). Rendered with `shard="i"` labels
    /// in Prometheus output and `shard[i]`-prefixed lines in human
    /// output.
    pub shards: Vec<StoreSection>,
    /// Per-query stage timings (`EXPLAIN ANALYZE`).
    pub query: Option<QuerySection>,
    /// Per-tenant network counters, in tenant-name order (empty unless
    /// the registry served network traffic). Rendered with
    /// `tenant="..."` labels in Prometheus output.
    pub tenants: Vec<(String, TenantCounters)>,
}

impl ObsSnapshot {
    /// Snapshot a registry: all counters, every stage histogram with
    /// samples, and the slow-query ring.
    pub fn from_registry(reg: &MetricsRegistry) -> Self {
        let counters = CounterId::ALL.iter().map(|&id| (id, reg.get(id))).collect();
        let stages = Stage::ALL
            .iter()
            .map(|&stage| StageStats {
                stage,
                hist: reg.stage_snapshot(stage),
            })
            .filter(|s| s.hist.count > 0)
            .collect();
        ObsSnapshot {
            counters,
            stages,
            slow: reg.slow_queries(),
            slow_threshold_ms: Some(reg.slow_threshold_ns() / 1_000_000),
            tenants: reg.tenants(),
            ..ObsSnapshot::default()
        }
    }

    /// The value of one counter in this snapshot (0 if absent).
    pub fn counter(&self, id: CounterId) -> u64 {
        self.counters
            .iter()
            .find(|(c, _)| *c == id)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    }

    /// Render to the requested format. `Human` is the consolidated
    /// replacement for the REPL `:stats` block, the `EXPLAIN` tail, and
    /// the bench report; `Prometheus` backs `aggview metrics` and
    /// `serve --metrics`.
    pub fn render(&self, format: Format) -> String {
        match format {
            Format::Human => self.render_human(),
            Format::Prometheus => self.render_prometheus(),
        }
    }

    fn render_human(&self) -> String {
        let mut out = String::new();
        if let Some(q) = &self.query {
            let _ = writeln!(
                out,
                "query: fingerprint={:016x} plan={}",
                q.fingerprint,
                if q.cached { "cached" } else { "computed" }
            );
            for &(stage, ns) in &q.stages {
                let _ = writeln!(out, "  {:<10} {:>10}", stage.name(), fmt_ns(ns));
            }
            let _ = writeln!(out, "  {:<10} {:>10}", "total", fmt_ns(q.total_ns));
        }
        if let Some(s) = &self.search {
            let _ = writeln!(out, "search: {}", s.summary());
        }
        if let Some(p) = &self.plan_cache {
            let _ = writeln!(out, "{}", p.summary());
        }
        if let Some(s) = &self.store {
            let _ = writeln!(out, "{}", s.summary());
        }
        for (i, s) in self.shards.iter().enumerate() {
            let _ = writeln!(out, "shard[{i}] {}", s.summary());
        }
        for (name, t) in &self.tenants {
            let _ = writeln!(
                out,
                "tenant[{name}] connections={} requests={} bytes-in={} \
                 bytes-out={} rejects={}",
                t.connections, t.requests, t.bytes_in, t.bytes_out, t.rejects,
            );
        }
        if !self.stages.is_empty() {
            let _ = writeln!(
                out,
                "{:<10} {:>8} {:>10} {:>10} {:>10} {:>10}",
                "stage", "count", "p50", "p95", "p99", "max"
            );
            for s in &self.stages {
                let _ = writeln!(
                    out,
                    "{:<10} {:>8} {:>10} {:>10} {:>10} {:>10}",
                    s.stage.name(),
                    s.hist.count,
                    fmt_ns(s.hist.p50_ns()),
                    fmt_ns(s.hist.p95_ns()),
                    fmt_ns(s.hist.p99_ns()),
                    fmt_ns(s.hist.max_ns),
                );
            }
        }
        if let Some(threshold) = self.slow_threshold_ms {
            if self.slow.is_empty() {
                let _ = writeln!(out, "slow queries (>= {threshold}ms): none");
            } else {
                let _ = writeln!(out, "slow queries (>= {threshold}ms), oldest first:");
                for q in &self.slow {
                    let _ = writeln!(
                        out,
                        "  #{} {} fingerprint={:016x} {}",
                        q.seq,
                        fmt_ns(q.total_ns),
                        q.fingerprint,
                        q.sql
                    );
                }
            }
        }
        out
    }

    fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for &(id, value) in &self.counters {
            let name = id.name();
            if id.is_gauge() {
                let _ = writeln!(out, "# TYPE aggview_{name} gauge");
                let _ = writeln!(out, "aggview_{name} {value}");
            } else {
                let _ = writeln!(out, "# TYPE aggview_{name}_total counter");
                let _ = writeln!(out, "aggview_{name}_total {value}");
            }
        }
        if !self.stages.is_empty() {
            let _ = writeln!(out, "# TYPE aggview_stage_duration_nanoseconds histogram");
            for s in &self.stages {
                let stage = s.stage.name();
                let top = s
                    .hist
                    .buckets
                    .iter()
                    .rposition(|&n| n > 0)
                    .unwrap_or(0)
                    .min(63);
                let mut cumulative = 0u64;
                for i in 0..=top {
                    cumulative += s.hist.buckets[i];
                    let le = crate::hist::bucket_upper_edge(i);
                    let _ = writeln!(
                        out,
                        "aggview_stage_duration_nanoseconds_bucket{{stage=\"{stage}\",le=\"{le}\"}} {cumulative}"
                    );
                }
                let _ = writeln!(
                    out,
                    "aggview_stage_duration_nanoseconds_bucket{{stage=\"{stage}\",le=\"+Inf\"}} {}",
                    s.hist.count
                );
                let _ = writeln!(
                    out,
                    "aggview_stage_duration_nanoseconds_sum{{stage=\"{stage}\"}} {}",
                    s.hist.sum_ns
                );
                let _ = writeln!(
                    out,
                    "aggview_stage_duration_nanoseconds_count{{stage=\"{stage}\"}} {}",
                    s.hist.count
                );
            }
        }
        if let Some(p) = &self.plan_cache {
            // Sessions without a registry dump still export their
            // plan-cache counters (per-query snapshots); registry dumps
            // already cover these via CounterId, so skip duplicates.
            if self.counters.is_empty() {
                let _ = writeln!(out, "# TYPE aggview_plan_cache_hits_total counter");
                let _ = writeln!(out, "aggview_plan_cache_hits_total {}", p.hits);
                let _ = writeln!(out, "# TYPE aggview_plan_cache_misses_total counter");
                let _ = writeln!(out, "aggview_plan_cache_misses_total {}", p.misses);
                let _ = writeln!(out, "# TYPE aggview_plan_cache_template_hits_total counter");
                let _ = writeln!(
                    out,
                    "aggview_plan_cache_template_hits_total {}",
                    p.template_hits
                );
                let _ = writeln!(
                    out,
                    "# TYPE aggview_plan_cache_replay_rejects_total counter"
                );
                let _ = writeln!(
                    out,
                    "aggview_plan_cache_replay_rejects_total {}",
                    p.replay_rejects
                );
            }
        }
        if !self.shards.is_empty() {
            let _ = writeln!(out, "# TYPE aggview_shard_publishes_total counter");
            for (i, s) in self.shards.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "aggview_shard_publishes_total{{shard=\"{i}\"}} {}",
                    s.publishes
                );
            }
            let _ = writeln!(out, "# TYPE aggview_shard_batched_ops_total counter");
            for (i, s) in self.shards.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "aggview_shard_batched_ops_total{{shard=\"{i}\"}} {}",
                    s.batched_ops
                );
            }
            let _ = writeln!(out, "# TYPE aggview_shard_epoch gauge");
            for (i, s) in self.shards.iter().enumerate() {
                let _ = writeln!(out, "aggview_shard_epoch{{shard=\"{i}\"}} {}", s.epoch);
            }
        }
        if !self.tenants.is_empty() {
            let fields = [
                "connections",
                "requests",
                "bytes_in",
                "bytes_out",
                "rejects",
            ];
            for (i, field) in fields.iter().enumerate() {
                let _ = writeln!(out, "# TYPE aggview_tenant_{field}_total counter");
                for (name, t) in &self.tenants {
                    let value = [
                        t.connections,
                        t.requests,
                        t.bytes_in,
                        t.bytes_out,
                        t.rejects,
                    ][i];
                    let _ = writeln!(
                        out,
                        "aggview_tenant_{field}_total{{tenant=\"{name}\"}} {value}"
                    );
                }
            }
        }
        out
    }
}

/// Human-readable nanosecond formatting: `560ns`, `1.2µs`, `3.4ms`, `1.20s`.
pub(crate) fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ObsOptions;

    #[test]
    fn search_summary_matches_legacy_shape() {
        let s = SearchSection {
            states_expanded: 3,
            candidates_prefiltered: 4,
            candidates_attempted: 2,
            mappings_enumerated: 7,
            rewritings: 1,
            closure_cache_hits: 3,
            closure_cache_misses: 1,
            prepare_ns: 1_500_000,
            search_ns: 2_500_000,
        };
        assert_eq!(
            s.summary(),
            "states=3 candidates=6 (prefiltered 4, attempted 2) mappings=7 \
             rewritings=1 closure-cache=75% hit \
             prepare=1.5ms search=2.5ms"
        );
    }

    #[test]
    fn store_summary_matches_legacy_shape() {
        let detached = StoreSection::default();
        assert_eq!(detached.summary(), "store: none (session-local state)");
        let attached = StoreSection {
            attached: true,
            epoch: 3,
            schema_epoch: 2,
            publishes: 3,
            batches: 3,
            batched_ops: 3,
            max_batch: 1,
        };
        assert_eq!(
            attached.summary(),
            "store: epoch=3 schema-epoch=2 publishes=3 batches=3 \
             batched-ops=3 mean-batch=1.0 max-batch=1"
        );
    }

    #[test]
    fn plan_cache_summary_matches_legacy_shape() {
        let p = PlanCacheSection {
            hits: 2,
            misses: 1,
            ..PlanCacheSection::default()
        };
        assert_eq!(
            p.summary(),
            "plan-cache: 2 hit(s), 1 miss(es), 0 invalidation(s)"
        );
        let templates = PlanCacheSection {
            template_hits: 1,
            ..p
        };
        assert_eq!(
            templates.summary(),
            "plan-cache: 2 hit(s), 1 miss(es), 0 invalidation(s); \
             by order type: 1 template hit(s), 0 replay reject(s)"
        );
    }

    #[test]
    fn registry_snapshot_renders_both_formats() {
        let reg = MetricsRegistry::new(&ObsOptions::default());
        reg.incr(CounterId::Queries);
        reg.observe_ns(Stage::Execute, 1_234);
        let snap = ObsSnapshot::from_registry(&reg);
        assert_eq!(snap.counter(CounterId::Queries), 1);

        let human = snap.render(Format::Human);
        assert!(human.contains("execute"));
        assert!(human.contains("slow queries (>= 100ms): none"));

        let prom = snap.render(Format::Prometheus);
        assert!(prom.contains("# TYPE aggview_queries_total counter"));
        assert!(prom.contains("aggview_queries_total 1"));
        assert!(prom.contains("# TYPE aggview_write_queue_depth gauge"));
        assert!(prom.contains("aggview_stage_duration_nanoseconds_count{stage=\"execute\"} 1"));
        assert!(prom.contains(
            "aggview_stage_duration_nanoseconds_bucket{stage=\"execute\",le=\"+Inf\"} 1"
        ));
        // Every sample line is `name{labels} value` or `name value`, and
        // every metric has a preceding # TYPE line.
        for line in prom.lines() {
            assert!(
                line.starts_with("# TYPE aggview_") || line.starts_with("aggview_"),
                "unexpected exposition line: {line}"
            );
        }
    }

    #[test]
    fn per_query_snapshot_renders_explain_sections() {
        let snap = ObsSnapshot {
            search: Some(SearchSection::default()),
            plan_cache: Some(PlanCacheSection::default()),
            store: Some(StoreSection::default()),
            query: Some(QuerySection {
                fingerprint: 0xabcd,
                cached: true,
                stages: vec![(Stage::Parse, 100), (Stage::Execute, 2_000)],
                total_ns: 2_100,
            }),
            ..ObsSnapshot::default()
        };
        let human = snap.render(Format::Human);
        assert!(human.contains("query: fingerprint=000000000000abcd plan=cached"));
        assert!(human.contains("search: states=0"));
        assert!(human.contains("plan-cache: 0 hit(s)"));
        assert!(human.contains("store: none (session-local state)"));
        // No registry sections in a per-query snapshot.
        assert!(!human.contains("slow queries"));
    }

    #[test]
    fn tenant_sections_render_with_labels() {
        let reg = MetricsRegistry::new(&ObsOptions::default());
        reg.tenant_update("acme", |t| {
            t.connections = 2;
            t.requests = 9;
            t.bytes_in = 100;
            t.bytes_out = 450;
        });
        reg.tenant_update("beta", |t| t.rejects = 3);
        let snap = ObsSnapshot::from_registry(&reg);

        let human = snap.render(Format::Human);
        assert!(human.contains(
            "tenant[acme] connections=2 requests=9 bytes-in=100 bytes-out=450 rejects=0"
        ));
        assert!(human.contains("tenant[beta]"));

        let prom = snap.render(Format::Prometheus);
        assert!(prom.contains("# TYPE aggview_tenant_requests_total counter"));
        assert!(prom.contains("aggview_tenant_requests_total{tenant=\"acme\"} 9"));
        assert!(prom.contains("aggview_tenant_rejects_total{tenant=\"beta\"} 3"));
    }

    #[test]
    fn fmt_ns_units() {
        assert_eq!(fmt_ns(0), "0ns");
        assert_eq!(fmt_ns(999), "999ns");
        assert_eq!(fmt_ns(1_500), "1.5µs");
        assert_eq!(fmt_ns(2_500_000), "2.5ms");
        assert_eq!(fmt_ns(1_200_000_000), "1.20s");
    }
}
