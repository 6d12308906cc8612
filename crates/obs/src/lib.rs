//! `aggview-obs`: the unified observability layer.
//!
//! One [`MetricsRegistry`] per session (or per shared store) collects
//! everything the serving stack wants to report:
//!
//! * **named counters** ([`CounterId`]) — monotonic event counts from
//!   every layer: statements and queries served, rewrite-search work
//!   (states, candidates, mappings), closure- and plan-cache traffic,
//!   index probes, view maintenance, store batching, and the write-queue
//!   depth gauge;
//! * **fixed-bucket log₂ latency histograms** ([`LatencyHistogram`]) —
//!   one per pipeline [`Stage`] (parse → rewrite search → plan/compile →
//!   execute → maintenance → batch apply → snapshot publish), reporting
//!   p50/p95/p99/max without any allocation on the record path;
//! * **span timing** ([`MetricsRegistry::span`]) — a drop guard that
//!   observes the enclosed scope's wall time into a stage histogram;
//! * a **fingerprint-keyed slow-query ring buffer** ([`SlowQueryRing`])
//!   with a configurable threshold, so "what was slow recently" survives
//!   after the query is gone;
//! * **[`ObsSnapshot`]** — one point-in-time view of all of the above
//!   plus the per-query sections the session fills in (search counters,
//!   plan-cache counters, store identity), rendered by
//!   [`ObsSnapshot::render`] as either a human-readable block (the REPL's
//!   `:stats`, the `EXPLAIN` tail) or Prometheus text exposition
//!   (`aggview metrics`, `aggview serve --metrics`).
//!
//! ## Design constraints
//!
//! * **std-only** (the build environment is fully offline; every vendored
//!   dependency is a stand-in, and this crate needs none of them).
//! * **Lock-free hot path**: counters and histogram buckets are
//!   `AtomicU64`s behind fixed-size arrays indexed by enum — recording is
//!   a handful of relaxed atomic adds, cheap enough to leave enabled in
//!   production serving (`BENCH_4.json` recorded ≤ 5% warm-path
//!   overhead). Only the slow-query ring takes a mutex, and only for
//!   queries already past the slowness threshold.
//! * **Deterministic replay**: the span clock is a single monotonic
//!   [`std::time::Instant`] anchor resolved once per registry
//!   ([`MetricsRegistry::now_ns`]). Timings are observability output
//!   only — they are never part of an answer's equality (the qcheck
//!   differential oracle compares relations, not stats) and never feed
//!   shrink decisions.

mod hist;
mod registry;
mod ring;
mod snapshot;

pub use hist::{HistogramSnapshot, LatencyHistogram, BUCKETS};
pub use registry::{CounterId, MetricsRegistry, Span, Stage, TenantCounters, WorkloadEntry};
pub use ring::{SlowQuery, SlowQueryRing};
pub use snapshot::{
    Format, ObsSnapshot, PlanCacheSection, QuerySection, SearchSection, StageStats, StoreSection,
};

/// Observability configuration, carried by `SessionOptions`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsOptions {
    /// Collect metrics at all. When false the session allocates no
    /// registry and every record call is skipped (`--no-obs`).
    pub enabled: bool,
    /// A query whose end-to-end serving time reaches this many
    /// milliseconds is recorded in the slow-query ring buffer.
    pub slow_query_ms: u64,
    /// How many slow queries the ring buffer retains (oldest evicted).
    pub slow_query_capacity: usize,
    /// Attach an [`ObsSnapshot`] to every `StatementOutcome::Answer`.
    /// Off by default: snapshotting copies every counter and bucket, which
    /// the warm serving path should not pay per query. `EXPLAIN ANALYZE`
    /// and the REPL's `:stats` force a snapshot regardless.
    pub attach_answers: bool,
    /// How many distinct query fingerprints the per-registry workload
    /// profile tracks (frequency, latency, sample SQL — the advisor's
    /// input). Past the cap new fingerprints are not profiled.
    pub workload_capacity: usize,
}

impl Default for ObsOptions {
    fn default() -> Self {
        ObsOptions {
            enabled: true,
            slow_query_ms: 100,
            slow_query_capacity: 32,
            attach_answers: false,
            workload_capacity: 512,
        }
    }
}

impl ObsOptions {
    /// The slowness threshold in nanoseconds.
    pub fn slow_query_threshold_ns(&self) -> u64 {
        self.slow_query_ms.saturating_mul(1_000_000)
    }
}
