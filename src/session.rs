//! A scriptable session: the state machine behind the `aggview` CLI.
//!
//! A session executes [`Statement`]s against an [`EngineState`] — a
//! catalog, a database instance, and the materialized views defined so
//! far:
//!
//! * `CREATE TABLE` registers the schema (with keys) and an empty relation,
//! * `CREATE VIEW` registers and *materializes* the view,
//! * `INSERT` appends literal rows (and refreshes dependent views),
//! * `SELECT` rewrites the query against the known views, picks the
//!   cheapest usable rewriting by actual cardinalities, executes it, and
//!   (optionally) cross-checks the answer against base-table evaluation,
//! * `EXPLAIN SELECT` reports, per view and mapping, the produced
//!   rewriting or the violated usability condition.
//!
//! A session comes in two backends with identical statement semantics:
//!
//! * **Local** ([`Session::new`]): the session owns its state; writes
//!   mutate it in place. This is the classic single-owner CLI mode.
//! * **Shared** ([`Session::on_store`] / `SharedStore::session`): the
//!   session is a handle on a [`crate::server::SharedStore`]. Reads pin
//!   the store's current immutable snapshot and run lock-free against
//!   it; writes are submitted to the store's single writer thread, which
//!   batches them and publishes a new snapshot before acking (so a
//!   handle always reads its own writes). The per-handle plan cache
//!   invalidates off the store's schema epoch, so DDL from any handle
//!   drops every handle's stale plans.
//!
//! Either way the session keeps a private [`PlanCache`] and rewrite
//! options — only the stored state is shared.

use crate::advisor::{
    proposal_lines, workload_proposals, AdvisorMode, AdvisorPolicy, AdvisorState,
};
use crate::plan_cache::{AnswerMeta, CacheKey, PlanCache, DEFAULT_PLAN_CACHE_CAP};
use crate::run::{execute_rewriting_ctx, rewriting_equivalent};
use crate::server::{SharedStore, StoreSnapshot, WriteOp};
use crate::sharded::{gather_plan, ShardedStore, UnionState};
use crate::state::{is_advisor_view_name, EngineState, WritePolicy};
use aggview_core::advisor::suggest_views;
use aggview_core::{Canonical, RewriteOptions, RewriteStats, Rewriter, Rewriting, ViewDef};
use aggview_engine::shard::{self, GatherPlan};
use aggview_engine::{
    execute_ctx, multiset_eq, set_eq, Database, ExecContext, PhysicalPlan, Relation,
};
use aggview_obs::{
    CounterId, Format, MetricsRegistry, ObsOptions, ObsSnapshot, QuerySection, Stage,
};
use aggview_sql::{Query, Statement};
use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Session configuration. Construct with [`SessionOptions::builder`],
/// `Default`, or struct-update syntax — all three stay supported so the
/// differential harness's options lattice keeps compiling unchanged.
#[derive(Debug, Clone)]
pub struct SessionOptions {
    /// Rewriter options (strategy, set mode, expand, ...).
    pub rewrite: RewriteOptions,
    /// Cross-check every rewritten answer against base-table evaluation.
    pub verify: bool,
    /// Maximum number of cached serving plans (`0` disables the cache and
    /// every `SELECT` runs the full search).
    pub plan_cache_cap: usize,
    /// Attach a [`GroupIndex`] on the exposed grouping columns of every
    /// materialized `GROUP BY` view, maintained through inserts/deletes
    /// and probed by rewritten point lookups.
    pub index_views: bool,
    /// Refresh every dependent view by full recomputation instead of the
    /// incremental-maintenance delta path (again a differential-harness
    /// lattice axis: delta and recompute must agree).
    pub recompute_views: bool,
    /// Let eligible queries run on the vectorized columnar operators
    /// (`false` forces the row-at-a-time interpreter on every path — the
    /// differential harness's row-vs-columnar lattice axis, and the
    /// `--no-columnar` escape hatch).
    pub columnar: bool,
    /// Observability configuration: whether a metrics registry is
    /// attached at all, the slow-query threshold and ring capacity, and
    /// whether answers carry an [`ObsSnapshot`].
    pub obs: ObsOptions,
    /// Adaptive view-advisor policy: off (default), suggest-only, or
    /// auto-materialize within budgets (see [`AdvisorPolicy`]).
    pub advisor: AdvisorPolicy,
}

impl Default for SessionOptions {
    fn default() -> Self {
        SessionOptions {
            rewrite: RewriteOptions::default(),
            verify: false,
            plan_cache_cap: DEFAULT_PLAN_CACHE_CAP,
            index_views: true,
            recompute_views: false,
            columnar: true,
            obs: ObsOptions::default(),
            advisor: AdvisorPolicy::default(),
        }
    }
}

impl SessionOptions {
    /// A fluent builder over the defaults.
    pub fn builder() -> SessionOptionsBuilder {
        SessionOptionsBuilder {
            options: SessionOptions::default(),
        }
    }
}

/// Fluent construction of [`SessionOptions`]; every setter defaults to
/// the [`Default`] value when not called.
#[derive(Debug, Clone, Default)]
pub struct SessionOptionsBuilder {
    options: SessionOptions,
}

impl SessionOptionsBuilder {
    /// Set the rewriter options.
    pub fn rewrite(mut self, rewrite: RewriteOptions) -> Self {
        self.options.rewrite = rewrite;
        self
    }

    /// Cross-check every rewritten answer against base-table evaluation.
    pub fn verify(mut self, verify: bool) -> Self {
        self.options.verify = verify;
        self
    }

    /// Maximum number of cached serving plans (0 disables the cache).
    pub fn plan_cache_cap(mut self, cap: usize) -> Self {
        self.options.plan_cache_cap = cap;
        self
    }

    /// Attach group indexes to materialized `GROUP BY` views.
    pub fn index_views(mut self, on: bool) -> Self {
        self.options.index_views = on;
        self
    }

    /// Refresh dependent views by full recomputation.
    pub fn recompute_views(mut self, on: bool) -> Self {
        self.options.recompute_views = on;
        self
    }

    /// Run eligible queries on the vectorized columnar operators.
    pub fn columnar(mut self, on: bool) -> Self {
        self.options.columnar = on;
        self
    }

    /// Set the observability configuration.
    pub fn obs(mut self, obs: ObsOptions) -> Self {
        self.options.obs = obs;
        self
    }

    /// Set the adaptive view-advisor policy.
    pub fn advisor(mut self, advisor: AdvisorPolicy) -> Self {
        self.options.advisor = advisor;
        self
    }

    /// Finish building.
    pub fn build(self) -> SessionOptions {
        self.options
    }
}

/// The outcome of one executed statement.
#[derive(Debug, Clone)]
pub enum StatementOutcome {
    /// DDL/DML acknowledgement (human-readable).
    Ok(String),
    /// A query answer: the relation, the SQL actually executed, and the
    /// views it used (empty = base tables).
    Answer {
        /// The result rows.
        relation: Relation,
        /// The executed query text.
        executed: String,
        /// Views used by the chosen rewriting.
        views_used: Vec<String>,
        /// Number of usable rewritings considered.
        candidates: usize,
        /// The executed rewriting is equivalent under *set* semantics only
        /// (§5): a multiset comparison against the original is not
        /// meaningful, compare as sets.
        set_semantics: bool,
        /// Outcome of the base-table cross-check, when enabled.
        verified: Option<bool>,
        /// Evaluation time of the executed query, milliseconds.
        elapsed_ms: f64,
        /// Instrumentation of the rewrite search that produced the plan
        /// (not printed by `Display`; the REPL surfaces it behind the
        /// `:stats` toggle). Boxed: the stats block is by far the largest
        /// field and would bloat every outcome otherwise.
        search: Box<RewriteStats>,
        /// A per-query observability snapshot (stage timings, search and
        /// cache sections). `None` unless the session's
        /// [`ObsOptions::attach_answers`] is set or the statement was an
        /// `EXPLAIN ANALYZE` (which forces it). Boxed for the same reason
        /// as `search`.
        obs: Option<Box<ObsSnapshot>>,
    },
    /// `EXPLAIN` output: one line per candidate.
    Explanation(Vec<String>),
}

impl fmt::Display for StatementOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatementOutcome::Ok(msg) => writeln!(f, "{msg}"),
            StatementOutcome::Answer {
                relation,
                executed,
                views_used,
                candidates,
                verified,
                elapsed_ms,
                set_semantics: _,
                search: _,
                obs: _,
            } => {
                if views_used.is_empty() {
                    writeln!(
                        f,
                        "-- no usable view; evaluated against base tables ({elapsed_ms:.2} ms)"
                    )?;
                } else {
                    writeln!(
                        f,
                        "-- answered from {views_used:?} ({candidates} candidate rewriting(s), {elapsed_ms:.2} ms)"
                    )?;
                    writeln!(f, "-- executed: {executed}")?;
                }
                if let Some(ok) = verified {
                    writeln!(
                        f,
                        "-- base-table cross-check: {}",
                        if *ok { "equivalent" } else { "MISMATCH" }
                    )?;
                }
                write!(f, "{relation}")
            }
            StatementOutcome::Explanation(lines) => {
                for l in lines {
                    writeln!(f, "{l}")?;
                }
                Ok(())
            }
        }
    }
}

/// Errors surfaced to the CLI user.
#[derive(Debug, Clone)]
pub struct SessionError(pub String);

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for SessionError {}

pub(crate) fn err(msg: impl Into<String>) -> SessionError {
    SessionError(msg.into())
}

/// Where a session's state lives.
enum Backend {
    /// The session owns catalog, database, and views exclusively.
    Local(EngineState),
    /// The session is a handle on a shared store: `snapshot` is the
    /// store state pinned by the most recent statement (what
    /// [`Session::database`] exposes), refreshed before every read and
    /// after every acked write.
    Shared {
        store: SharedStore,
        snapshot: Arc<StoreSnapshot>,
    },
    /// The session drives a [`ShardedStore`]: writes route through the
    /// store (DDL broadcast, DML by partition key), reads scatter to the
    /// per-shard handle sessions and gather with the §4 recombination
    /// operators. `union` caches the unioned shard state — the exact
    /// state an unsharded store would hold — for metadata parity,
    /// fallback answers, and `--verify` cross-checks.
    Sharded {
        store: ShardedStore,
        shards: Vec<Session>,
        union: UnionState,
    },
}

/// A scriptable session.
pub struct Session {
    options: SessionOptions,
    backend: Backend,
    plan_cache: PlanCache,
    /// The observability registry this session records into: its own for
    /// a local session, the store-wide one for a shared handle, `None`
    /// when observability is disabled.
    metrics: Option<Arc<MetricsRegistry>>,
    /// Plan-cache invalidations already folded into the registry (the
    /// cache counts cumulatively; the registry wants event deltas).
    invalidations_synced: u64,
    /// The gather decision of the most recent sharded `SELECT` (`None`
    /// for unsharded sessions), surfaced as the `-- shards:` line of
    /// `EXPLAIN ANALYZE`.
    last_shard_note: Option<String>,
    /// Adaptive-advisor bookkeeping (`None` when the policy mode is
    /// off): claimed fingerprints, created views, budgets.
    advisor: Option<Arc<AdvisorState>>,
}

impl Session {
    /// A fresh session owning its own state.
    pub fn new(options: SessionOptions) -> Self {
        let plan_cache = PlanCache::with_cap(options.plan_cache_cap);
        let metrics = options
            .obs
            .enabled
            .then(|| Arc::new(MetricsRegistry::new(&options.obs)));
        let mut state = EngineState::new();
        if let Some(m) = &metrics {
            state.db.set_metrics(Arc::clone(m));
        }
        let advisor = advisor_state(&options);
        Session {
            options,
            backend: Backend::Local(state),
            plan_cache,
            metrics,
            invalidations_synced: 0,
            last_shard_note: None,
            advisor,
        }
    }

    /// A session handle on a shared store (prefer
    /// [`crate::server::SharedStore::session`]). The handle keeps its own
    /// plan cache and rewrite options; state lives in the store — as does
    /// the metrics registry, so every handle's spans and counters land in
    /// one store-wide view (what `serve --metrics` scrapes).
    pub fn on_store(store: SharedStore, options: SessionOptions) -> Self {
        let plan_cache = PlanCache::with_cap(options.plan_cache_cap);
        let metrics = if options.obs.enabled {
            store.metrics().cloned()
        } else {
            None
        };
        let snapshot = store.load();
        let advisor = advisor_state(&options);
        Session {
            options,
            backend: Backend::Shared { store, snapshot },
            plan_cache,
            metrics,
            invalidations_synced: 0,
            last_shard_note: None,
            advisor,
        }
    }

    /// A driver session over a sharded store (prefer
    /// [`crate::sharded::ShardedStore::session`]). The driver keeps its
    /// own plan cache and records into the store's front-door registry;
    /// it owns one inner handle session per shard for scatter execution
    /// (each recording into its shard's registry). Inner handles never
    /// re-verify — the driver's `--verify` compares the gathered answer
    /// against the union instead.
    pub fn on_sharded_store(store: ShardedStore, options: SessionOptions) -> Self {
        let plan_cache = PlanCache::with_cap(options.plan_cache_cap);
        let metrics = if options.obs.enabled {
            store.metrics().cloned()
        } else {
            None
        };
        let inner_options = SessionOptions {
            verify: false,
            // The advisor acts at the driver, whose CREATE VIEW
            // broadcasts to every shard; a shard-local advisor would
            // materialize views on one shard only.
            advisor: AdvisorPolicy::off(),
            ..options.clone()
        };
        let shards = store
            .shards()
            .iter()
            .map(|s| s.session(inner_options.clone()))
            .collect();
        let advisor = advisor_state(&options);
        Session {
            options,
            backend: Backend::Sharded {
                store,
                shards,
                union: UnionState::new(),
            },
            plan_cache,
            metrics,
            invalidations_synced: 0,
            last_shard_note: None,
            advisor,
        }
    }

    /// The registry this session records into, if observability is on.
    pub fn metrics(&self) -> Option<&Arc<MetricsRegistry>> {
        self.metrics.as_ref()
    }

    /// A full observability snapshot: every registry counter, the stage
    /// latency histograms, the slow-query ring, plus this session's
    /// plan-cache and store sections. `None` when observability is off.
    pub fn obs_snapshot(&self) -> Option<ObsSnapshot> {
        let m = self.metrics.as_ref()?;
        let mut snap = ObsSnapshot::from_registry(m);
        let mut stats = RewriteStats::default();
        self.plan_cache.fill_stats(&mut stats);
        self.fill_store_stats(&mut stats);
        snap.plan_cache = Some(stats.plan_cache_section());
        snap.store = Some(stats.store_section());
        if let Backend::Sharded { store, .. } = &self.backend {
            snap.shards = store.shard_sections();
        }
        Some(snap)
    }

    /// The serving-plan cache (counters surface in `EXPLAIN` and the
    /// REPL's `:stats`; benches read them directly).
    pub fn plan_cache(&self) -> &PlanCache {
        &self.plan_cache
    }

    /// The state this session currently reads: its own, or the store
    /// snapshot pinned by the most recent statement.
    fn state(&self) -> &EngineState {
        match &self.backend {
            Backend::Local(state) => state,
            Backend::Shared { snapshot, .. } => &snapshot.state,
            Backend::Sharded { union, .. } => union.state(),
        }
    }

    /// The current database (base tables and materialized views). For a
    /// store-backed session this is the snapshot the last statement ran
    /// against — exactly the state its answer was computed on.
    pub fn database(&self) -> &Database {
        &self.state().db
    }

    /// The views defined so far.
    pub fn views(&self) -> &[ViewDef] {
        &self.state().views
    }

    /// The shared store behind this session, if any.
    pub fn store(&self) -> Option<&SharedStore> {
        match &self.backend {
            Backend::Shared { store, .. } => Some(store),
            _ => None,
        }
    }

    /// The sharded store behind this session, if any.
    pub fn sharded_store(&self) -> Option<&ShardedStore> {
        match &self.backend {
            Backend::Sharded { store, .. } => Some(store),
            _ => None,
        }
    }

    /// `(publish epoch, schema epoch)` of the pinned snapshot, for
    /// store-backed sessions (readers assert these are monotonic).
    pub fn snapshot_epochs(&self) -> Option<(u64, u64)> {
        match &self.backend {
            Backend::Shared { snapshot, .. } => Some((snapshot.epoch, snapshot.schema_epoch)),
            _ => None,
        }
    }

    /// The write-side maintenance policy of this session's options.
    fn write_policy(&self) -> WritePolicy {
        WritePolicy {
            index_views: self.options.index_views,
            recompute_views: self.options.recompute_views,
            columnar: self.options.columnar,
            durability: false,
        }
    }

    /// Pin the store's current snapshot (no-op for local sessions) and
    /// align the plan cache with its schema epoch. For a sharded session
    /// this (re)builds the union of all shard snapshots when any shard
    /// published since the last build — which can fail if a broadcast
    /// view recomputes with a type error only the union exhibits.
    fn refresh(&mut self) -> Result<(), SessionError> {
        let metrics = self.metrics.clone();
        match &mut self.backend {
            Backend::Local(_) => {}
            Backend::Shared { store, snapshot } => {
                *snapshot = store.load();
                self.plan_cache.sync_epoch(snapshot.schema_epoch);
            }
            Backend::Sharded { store, union, .. } => {
                union.ensure(store, metrics.as_ref())?;
                self.plan_cache.sync_epoch(store.schema_epoch());
            }
        }
        self.sync_invalidation_metrics();
        Ok(())
    }

    /// Fold plan-cache invalidations that happened since the last sync
    /// into the registry (the cache tracks a cumulative count; several
    /// handles can share one store registry, so only deltas are added).
    fn sync_invalidation_metrics(&mut self) {
        if let Some(m) = &self.metrics {
            let now = self.plan_cache.invalidations();
            let delta = now.saturating_sub(self.invalidations_synced);
            if delta > 0 {
                m.add(CounterId::PlanCacheInvalidations, delta);
                self.invalidations_synced = now;
            }
        }
    }

    /// Copy the pinned snapshot's identity and the store-cumulative
    /// counters into a stats record (no-op for local sessions).
    fn fill_store_stats(&self, stats: &mut RewriteStats) {
        match &self.backend {
            Backend::Shared { store, snapshot } => {
                let s = store.stats();
                stats.store_attached = true;
                stats.store_epoch = snapshot.epoch;
                stats.store_schema_epoch = snapshot.schema_epoch;
                stats.store_publishes = s.publishes.load(Ordering::Relaxed);
                stats.store_batches = s.batches.load(Ordering::Relaxed);
                stats.store_batched_ops = s.batched_ops.load(Ordering::Relaxed);
                stats.store_max_batch = s.max_batch.load(Ordering::Relaxed);
            }
            Backend::Sharded { store, .. } => {
                let agg = store.aggregate_section();
                stats.store_attached = true;
                stats.store_epoch = agg.epoch;
                stats.store_schema_epoch = agg.schema_epoch;
                stats.store_publishes = agg.publishes;
                stats.store_batches = agg.batches;
                stats.store_batched_ops = agg.batched_ops;
                stats.store_max_batch = agg.max_batch;
            }
            Backend::Local(_) => {}
        }
    }

    /// Execute one write statement on the session's backend: apply
    /// in place (local) or submit to the store's writer thread and wait
    /// for the publishing ack (shared).
    fn write(&mut self, op: WriteOp) -> Result<StatementOutcome, SessionError> {
        let policy = self.write_policy();
        let metrics = self.metrics.clone();
        if let Some(m) = &metrics {
            m.incr(CounterId::Writes);
        }
        let outcome = match &mut self.backend {
            Backend::Local(state) => {
                let applied = match &op {
                    WriteOp::CreateTable(ct) => state.create_table(ct)?,
                    WriteOp::CreateView(cv) => state.create_view(cv, policy)?,
                    WriteOp::Insert(ins) => state.insert(ins, policy)?,
                    WriteOp::Delete(del) => state.delete(del, policy)?,
                };
                if applied.schema_change {
                    self.plan_cache.note_schema_change();
                }
                Ok(StatementOutcome::Ok(applied.message))
            }
            Backend::Shared { store, snapshot } => {
                let applied = store.submit(op)?;
                // The ack guarantees the snapshot containing this write
                // is published: re-pin so we read our own write.
                *snapshot = store.load();
                self.plan_cache.sync_epoch(snapshot.schema_epoch);
                Ok(StatementOutcome::Ok(applied.message))
            }
            Backend::Sharded {
                store,
                union,
                shards: _,
            } => {
                let view_name = match &op {
                    WriteOp::CreateView(cv) => Some(cv.name.clone()),
                    _ => None,
                };
                let applied = store.apply_write(op)?;
                union.invalidate();
                self.plan_cache.sync_epoch(store.schema_epoch());
                let message = match view_name {
                    // A shard's CREATE VIEW ack reports that shard's
                    // materialized row count; recompose the global one
                    // from the union so the ack matches the unsharded
                    // message byte for byte.
                    Some(name) => {
                        let state = union.ensure(store, metrics.as_ref())?;
                        let n = state.db.get(&name).map_err(|e| err(e.to_string()))?.len();
                        format!("view `{name}` materialized ({n} rows)")
                    }
                    None => applied.message,
                };
                Ok(StatementOutcome::Ok(message))
            }
        };
        self.sync_invalidation_metrics();
        outcome
    }

    /// Execute one statement.
    pub fn execute(&mut self, stmt: &Statement) -> Result<StatementOutcome, SessionError> {
        if let Some(m) = &self.metrics {
            m.incr(CounterId::Statements);
        }
        match stmt {
            Statement::CreateTable(ct) => self.write(WriteOp::CreateTable(ct.clone())),
            Statement::CreateView(cv) => self.write(WriteOp::CreateView(cv.clone())),
            Statement::Insert(ins) => self.write(WriteOp::Insert(ins.clone())),
            Statement::Delete(del) => self.write(WriteOp::Delete(del.clone())),
            Statement::Select(q) => self.select(q, self.options.obs.attach_answers),
            Statement::Explain(q) => self.explain(q),
            Statement::ExplainAnalyze(q) => self.explain_analyze(q),
            Statement::Suggest(q) => self.suggest(q),
        }
    }

    /// Run a whole script, returning per-statement outcomes.
    pub fn run_script(
        &mut self,
        stmts: &[Statement],
    ) -> Result<Vec<StatementOutcome>, SessionError> {
        stmts.iter().map(|s| self.execute(s)).collect()
    }

    /// Disjoint borrows of the read state, the plan cache, the options,
    /// and the registry — what the select path needs simultaneously.
    fn parts_mut(
        &mut self,
    ) -> (
        &EngineState,
        &mut PlanCache,
        &SessionOptions,
        Option<&MetricsRegistry>,
    ) {
        let state = match &self.backend {
            Backend::Local(s) => s,
            Backend::Shared { snapshot, .. } => &snapshot.state,
            Backend::Sharded { union, .. } => union.state(),
        };
        (
            state,
            &mut self.plan_cache,
            &self.options,
            self.metrics.as_deref(),
        )
    }

    fn select(&mut self, q: &Query, attach_obs: bool) -> Result<StatementOutcome, SessionError> {
        self.refresh()?;
        self.last_shard_note = None;
        let mut outcome = if matches!(self.backend, Backend::Sharded { .. }) {
            self.sharded_select(q, attach_obs)?
        } else {
            let (state, plan_cache, options, metrics) = self.parts_mut();
            select_on(state, plan_cache, options, metrics, attach_obs, q)?
        };
        if let StatementOutcome::Answer { search, obs, .. } = &mut outcome {
            self.fill_store_stats(search);
            // The store section is filled after the select path returns,
            // so refresh it on the attached snapshot too.
            if let Some(snap) = obs {
                snap.store = Some(search.store_section());
                if let Backend::Sharded { store, .. } = &self.backend {
                    snap.shards = store.shard_sections();
                }
            }
        }
        self.maybe_auto_advise(q, &outcome);
        Ok(outcome)
    }

    /// The `auto` advisor trigger, run after every served `SELECT`: when
    /// a hot fingerprint is still answered from base tables and the
    /// budgets allow, materialize the best positive-benefit suggestion as
    /// `AdvView{N}` through the ordinary write path — snapshots, WAL
    /// durability, sharded DDL broadcast, and plan-cache epoch
    /// invalidation all apply unchanged. Best-effort: a failed CREATE
    /// VIEW never fails the query that triggered it.
    fn maybe_auto_advise(&mut self, q: &Query, outcome: &StatementOutcome) {
        let Some(advisor) = self.advisor.clone() else {
            return;
        };
        if advisor.policy().mode != AdvisorMode::Auto {
            return;
        }
        let Some(m) = self.metrics.clone() else {
            return;
        };
        let StatementOutcome::Answer { views_used, .. } = outcome else {
            return;
        };
        if !views_used.is_empty() {
            // Already served from a view; nothing to gain.
            return;
        }
        let Some(key) = cache_key(self.state(), q) else {
            return;
        };
        let fingerprint = key.fingerprint();
        if m.fingerprint_count(fingerprint) < advisor.policy().auto_after
            || advisor.created_count() >= advisor.policy().max_views
            || !advisor.claim(fingerprint)
        {
            return;
        }
        // Score candidate views for this hot query against live
        // cardinalities; act only on a positive-benefit suggestion whose
        // estimated materialized size fits the backfill budget.
        let best = {
            let state = self.state();
            let stats = state.table_stats();
            match suggest_views(q, &state.catalog, &stats) {
                Ok(suggestions) => suggestions
                    .into_iter()
                    .find(|s| {
                        s.benefit() > 0.0 && s.estimated_rows <= advisor.policy().max_backfill_rows
                    })
                    .map(|s| s.view.query),
                Err(_) => None,
            }
        };
        let Some(view_query) = best else {
            return;
        };
        let name = advisor.next_name();
        m.incr(CounterId::AdvisorProposals);
        let cv = aggview_sql::CreateView {
            name: name.clone(),
            query: view_query,
        };
        if self.write(WriteOp::CreateView(cv)).is_err() {
            // The fingerprint stays claimed: don't retry a failing view
            // on every subsequent arrival.
            return;
        }
        advisor.note_created(name.clone());
        m.incr(CounterId::AdvisorCreated);
        // The actual backfill cost: the materialized row count.
        if self.refresh().is_ok() {
            if let Ok(rel) = self.state().db.get(&name) {
                m.add(CounterId::AdvisorBackfillRows, rel.len() as u64);
            }
        }
    }

    /// Current advisor proposals for the observed workload, ranked by
    /// measured benefit (estimated scan cost saved × observed
    /// frequency). Works in every advisor mode — `suggest` and `auto`
    /// differ only in whether proposals are acted on. The REPL's
    /// `:advise`, `aggview advise`, and the net `advise` request all
    /// surface exactly these lines.
    pub fn advise(&mut self) -> Result<StatementOutcome, SessionError> {
        self.refresh()?;
        let Some(m) = self.metrics.clone() else {
            return Err(err(
                "advisor needs observability enabled (session started with --no-obs)",
            ));
        };
        let state = self.state();
        let stats = state.table_stats();
        let proposals = workload_proposals(&m, &state.catalog, &stats);
        m.add(CounterId::AdvisorProposals, proposals.len() as u64);
        Ok(StatementOutcome::Explanation(proposal_lines(&proposals)))
    }

    /// The advisor bookkeeping, when the policy mode is not off.
    pub fn advisor_state(&self) -> Option<&Arc<AdvisorState>> {
        self.advisor.as_ref()
    }

    /// The sharded `SELECT` path. The query is always *also* served
    /// through [`select_on`] against the union state — that produces the
    /// metadata (chosen rewriting, candidate count, cache behavior) and
    /// the fallback answer, both byte-identical to an unsharded session
    /// by construction. When the gather planner finds a sound
    /// decomposition, the served relation is replaced by the
    /// scatter+merge result: a disjoint union when each group lives on
    /// one shard, a §4 re-aggregation of partial aggregates otherwise.
    fn sharded_select(
        &mut self,
        q: &Query,
        attach_obs: bool,
    ) -> Result<StatementOutcome, SessionError> {
        let Backend::Sharded {
            store,
            shards,
            union,
        } = &mut self.backend
        else {
            unreachable!("sharded_select on a non-sharded backend");
        };
        let state = union.state();
        let metrics = self.metrics.as_deref();
        let n = store.shard_count();
        if let Some(m) = metrics {
            m.incr(CounterId::ShardFanouts);
        }
        let (merged, note) = match gather_plan(state, q) {
            GatherPlan::Fallback(reason) => {
                if let Some(m) = metrics {
                    m.incr(CounterId::ShardGatherFallbacks);
                }
                (
                    None,
                    format!("-- shards: {n}; gather: fallback ({reason}); served from the union"),
                )
            }
            GatherPlan::Concat => match scatter(shards, q) {
                Ok(parts) => {
                    let rows: Vec<usize> = parts.iter().map(|p| p.len()).collect();
                    if let Some(m) = metrics {
                        m.add(CounterId::ShardScatterQueries, n as u64);
                        m.incr(CounterId::ShardConcatMerges);
                    }
                    (
                        Some(shard::merge_concat(q, parts)),
                        format!(
                            "-- shards: {n}; gather: concat (disjoint groups); per-shard rows: {rows:?}"
                        ),
                    )
                }
                Err(e) => gather_failed(metrics, n, &e),
            },
            GatherPlan::Reaggregate(plan) => match scatter(shards, &plan.scatter) {
                Ok(parts) => {
                    let rows: Vec<usize> = parts.iter().map(|p| p.len()).collect();
                    if let Some(m) = metrics {
                        m.add(CounterId::ShardScatterQueries, n as u64);
                    }
                    match plan.merge(q, &parts) {
                        Ok(rel) => {
                            if let Some(m) = metrics {
                                m.incr(CounterId::ShardReaggMerges);
                            }
                            (
                                Some(rel),
                                format!(
                                    "-- shards: {n}; gather: re-aggregate ({} partial slot(s)); per-shard rows: {rows:?}",
                                    plan.slot_count()
                                ),
                            )
                        }
                        Err(e) => gather_failed(metrics, n, &err(e.to_string())),
                    }
                }
                Err(e) => gather_failed(metrics, n, &e),
            },
        };
        let mut outcome = select_on(
            state,
            &mut self.plan_cache,
            &self.options,
            metrics,
            attach_obs,
            q,
        )?;
        if let Some(mut rel) = merged {
            if let StatementOutcome::Answer {
                relation,
                verified,
                set_semantics,
                ..
            } = &mut outcome
            {
                // The union answer's column names come from the chosen
                // rewriting (e.g. `min_lo` when served from a view); the
                // scatter ran the original query. Adopt the union's
                // names so the printed header matches the unsharded
                // session byte for byte.
                if rel.arity() == relation.arity() {
                    rel.columns = relation.columns.clone();
                }
                if self.options.verify {
                    // The gathered relation is multiset-exact for the
                    // original query; the union answer may come from a
                    // set-semantics rewriting (§5), so compare
                    // accordingly.
                    let agree = if *set_semantics {
                        set_eq(&rel, relation)
                    } else {
                        multiset_eq(&rel, relation)
                    };
                    *verified = Some(verified.unwrap_or(true) && agree);
                }
                *relation = rel;
            }
        }
        self.last_shard_note = Some(note);
        Ok(outcome)
    }

    fn explain(&mut self, q: &Query) -> Result<StatementOutcome, SessionError> {
        self.refresh()?;
        let state = self.state();
        let rewriter = Rewriter::with_options(&state.catalog, self.options.rewrite.clone());
        let reports = rewriter
            .explain(q, &state.views)
            .map_err(|e| err(e.to_string()))?;
        if reports.is_empty() {
            return Ok(StatementOutcome::Explanation(vec![
                "no views defined".to_string()
            ]));
        }
        let mut lines: Vec<String> = reports.iter().map(|r| r.to_string()).collect();
        // Tail: what the full search does with these candidates, the
        // serving-cache status for this query, and the shared store (if
        // any) — one ObsSnapshot, rendered by the shared renderer.
        let (_, search) = rewriter
            .rewrite_with_stats(q, &state.views)
            .map_err(|e| err(e.to_string()))?;
        let status = match cache_key(state, q) {
            Some(k) if self.plan_cache.peek(&k) => {
                format!("cached (fingerprint {:016x})", k.fingerprint())
            }
            Some(k) => format!("not cached (fingerprint {:016x})", k.fingerprint()),
            None => "uncacheable (outside the canonical fragment)".to_string(),
        };
        let mut stats = RewriteStats::default();
        self.plan_cache.fill_stats(&mut stats);
        self.fill_store_stats(&mut stats);
        let snap = ObsSnapshot {
            search: Some(search.search_section()),
            plan_cache: Some(stats.plan_cache_section()),
            store: Some(stats.store_section()),
            ..ObsSnapshot::default()
        };
        lines.extend(explain_tail_lines(&snap, Some(&status)));
        Ok(StatementOutcome::Explanation(lines))
    }

    /// `EXPLAIN ANALYZE`: run the query through the full serving path
    /// (plan cache included) with an observability snapshot forced on,
    /// and report per-stage timings plus the search counters instead of
    /// the result rows.
    fn explain_analyze(&mut self, q: &Query) -> Result<StatementOutcome, SessionError> {
        if self.metrics.is_none() {
            return Err(err(
                "EXPLAIN ANALYZE needs observability enabled (session started with --no-obs)",
            ));
        }
        // Bracket the select with the execution-path counters so the
        // report can say which interpreter answered *this* query.
        let exec_before = self.metrics.as_ref().map(|m| {
            (
                m.get(CounterId::ExecVectorized),
                m.get(CounterId::ExecRowFallback),
            )
        });
        let outcome = self.select(q, true)?;
        let StatementOutcome::Answer {
            relation,
            executed,
            views_used,
            candidates,
            obs,
            ..
        } = outcome
        else {
            return Err(err("EXPLAIN ANALYZE: select path returned no answer"));
        };
        let mut lines = Vec::new();
        if views_used.is_empty() {
            lines.push("-- no usable view; evaluated against base tables".to_string());
        } else {
            lines.push(format!(
                "-- answered from {views_used:?} ({candidates} candidate rewriting(s))"
            ));
        }
        lines.push(format!("-- executed: {executed}"));
        lines.push(format!("-- rows: {}", relation.len()));
        if let (Some(m), Some((vec_before, row_before))) = (&self.metrics, exec_before) {
            let vectorized = m.get(CounterId::ExecVectorized) - vec_before;
            let fallback = m.get(CounterId::ExecRowFallback) - row_before;
            let path = match (vectorized, fallback) {
                (v, 0) if v > 0 => "vectorized (columnar kernels)".to_string(),
                (0, f) if f > 0 => "row-at-a-time interpreter".to_string(),
                (0, 0) => "n/a (no plan execution recorded)".to_string(),
                (v, f) => format!("mixed ({v} vectorized, {f} row)"),
            };
            lines.push(format!(
                "-- exec path: {path}; session totals: exec_vectorized={} exec_row_fallback={}",
                m.get(CounterId::ExecVectorized),
                m.get(CounterId::ExecRowFallback),
            ));
        }
        let advisor_views: Vec<&String> = views_used
            .iter()
            .filter(|v| is_advisor_view_name(v))
            .collect();
        if !advisor_views.is_empty() {
            lines.push(format!(
                "-- advisor: answer served from advisor-created view(s) {advisor_views:?}"
            ));
        }
        if let Some(note) = &self.last_shard_note {
            lines.push(note.clone());
        }
        let snap = obs.expect("metrics enabled forces an attached snapshot");
        lines.extend(explain_tail_lines(&snap, None));
        Ok(StatementOutcome::Explanation(lines))
    }

    fn suggest(&mut self, q: &Query) -> Result<StatementOutcome, SessionError> {
        self.refresh()?;
        let state = self.state();
        let stats = state.table_stats();
        let suggestions =
            suggest_views(q, &state.catalog, &stats).map_err(|e| err(e.to_string()))?;
        if suggestions.is_empty() {
            return Ok(StatementOutcome::Explanation(vec![
                "no beneficial view suggestions".to_string(),
            ]));
        }
        let lines = suggestions
            .iter()
            .take(5)
            .map(|s| {
                format!(
                    "benefit {:>12.0}: CREATE VIEW {} AS {};",
                    s.benefit(),
                    s.view.name,
                    s.view.query
                )
            })
            .collect();
        Ok(StatementOutcome::Explanation(lines))
    }
}

/// Execute `q` on every shard's handle session, in shard order,
/// returning the per-shard relations (the gather barrier).
fn scatter(shards: &mut [Session], q: &Query) -> Result<Vec<Relation>, SessionError> {
    shards
        .iter_mut()
        .map(|s| match s.execute(&Statement::Select(q.clone()))? {
            StatementOutcome::Answer { relation, .. } => Ok(relation),
            _ => Err(err("scatter: shard returned a non-answer outcome")),
        })
        .collect()
}

/// Count and describe a failed scatter/merge; the caller serves the
/// union answer instead (identical to the unsharded result, so a shard
/// execution error never changes what the client sees).
fn gather_failed(
    metrics: Option<&MetricsRegistry>,
    n: usize,
    e: &SessionError,
) -> (Option<Relation>, String) {
    if let Some(m) = metrics {
        m.incr(CounterId::ShardGatherFallbacks);
    }
    (
        None,
        format!("-- shards: {n}; gather: failed ({e}); served from the union"),
    )
}

/// The advisor bookkeeping a set of session options implies (`None`
/// when the mode is off — zero overhead on every path).
fn advisor_state(options: &SessionOptions) -> Option<Arc<AdvisorState>> {
    (options.advisor.mode != AdvisorMode::Off).then(|| Arc::new(AdvisorState::new(options.advisor)))
}

/// The cache key of a query: its normalized canonical form (resolved
/// against every stored relation, views included) plus the output
/// column names. `None` = outside the canonical fragment, uncacheable.
fn cache_key(state: &EngineState, q: &Query) -> Option<CacheKey> {
    let canon = Canonical::from_query(q, &state.db).ok()?;
    Some(CacheKey::new(&canon, q.output_names()))
}

/// Render an [`ObsSnapshot`] as `EXPLAIN`-style tail lines: the shared
/// human renderer, each line `-- `-prefixed, with the per-query cache
/// status appended to the plan-cache line when given.
fn explain_tail_lines(snap: &ObsSnapshot, cache_status: Option<&str>) -> Vec<String> {
    snap.render(Format::Human)
        .lines()
        .map(|l| match cache_status {
            Some(status) if l.starts_with("plan-cache:") => {
                format!("-- {l}; this query: {status}")
            }
            _ => format!("-- {l}"),
        })
        .collect()
}

/// Per-query observability bookkeeping at the end of the select path:
/// account the query (and its slowness) on the registry and build the
/// attached snapshot when requested.
#[allow(clippy::too_many_arguments)]
fn finish_query_obs(
    metrics: Option<&MetricsRegistry>,
    attach: bool,
    q: &Query,
    fingerprint: u64,
    cached: bool,
    total_ns: u64,
    stages: &[(Stage, u64)],
    search: &RewriteStats,
) -> Option<Box<ObsSnapshot>> {
    let m = metrics?;
    m.note_query(fingerprint, || q.to_string(), total_ns, stages);
    attach.then(|| {
        Box::new(ObsSnapshot {
            search: Some(search.search_section()),
            plan_cache: Some(search.plan_cache_section()),
            store: Some(search.store_section()),
            query: Some(QuerySection {
                fingerprint,
                cached,
                stages: stages.to_vec(),
                total_ns,
            }),
            ..ObsSnapshot::default()
        })
    })
}

/// The full select path against one fixed state: plan-cache lookup,
/// rewrite search, cost ranking, compilation, execution, caching. Shared
/// by both backends — a local session passes its own state, a store
/// handle passes its pinned snapshot.
fn select_on(
    state: &EngineState,
    plan_cache: &mut PlanCache,
    options: &SessionOptions,
    metrics: Option<&MetricsRegistry>,
    attach_obs: bool,
    q: &Query,
) -> Result<StatementOutcome, SessionError> {
    let cx = ExecContext::columnar(options.columnar);
    let total_start_ns = metrics.map(|m| m.now_ns());
    let key = cache_key(state, q);
    let fingerprint = key.as_ref().map_or(0, |k| k.fingerprint());
    if let Some(k) = &key {
        // Hit path: no search, no cost ranking, no physical planning —
        // bind the stored relations and run. The entry is used by
        // reference (disjoint borrows), never cloned.
        if let Some(cached) = plan_cache.lookup(k) {
            if let Some(m) = metrics {
                m.incr(CounterId::PlanCacheHits);
            }
            // The warm path is the one the ≤5% observability-overhead
            // budget protects, so it is timed with the registry clock
            // alone: one read before execution, one read after — the
            // second closes the execute stage, the end-to-end total,
            // AND elapsed_ms. (The un-instrumented path keeps its own
            // Instant pair.)
            let exec_start_ns = metrics.map(|m| m.now_ns());
            let t = metrics.is_none().then(std::time::Instant::now);
            let relation = match (&cached.plan, &cached.rewriting) {
                (Some(plan), _) => plan.run(&state.db).map_err(|e| err(e.to_string()))?,
                (None, Some(rw)) => {
                    execute_rewriting_ctx(rw, &state.db, &cx).map_err(|e| err(e.to_string()))?
                }
                (None, None) => execute_ctx(q, &state.db, &cx).map_err(|e| err(e.to_string()))?,
            };
            let (elapsed_ms, hit_timing) = match (metrics, exec_start_ns, total_start_ns) {
                (Some(m), Some(exec_start), Some(total_start)) => {
                    let end = m.now_ns();
                    let exec_ns = end.saturating_sub(exec_start);
                    m.observe_ns(Stage::Execute, exec_ns);
                    (
                        exec_ns as f64 / 1e6,
                        Some((exec_ns, end.saturating_sub(total_start))),
                    )
                }
                _ => (t.map_or(0.0, |t| t.elapsed().as_secs_f64() * 1e3), None),
            };
            let verified = match (options.verify, &cached.rewriting) {
                (true, Some(rw)) => {
                    Some(rewriting_equivalent(q, rw, &state.db).map_err(|e| err(e.to_string()))?)
                }
                _ => None,
            };
            let executed = cached.meta.executed.clone();
            let views_used = cached.meta.views_used.clone();
            let candidates = cached.meta.candidates;
            let set_semantics = cached.meta.set_semantics;
            // No search ran: report zeroed search counters plus the
            // session-cumulative cache counters.
            let mut search = RewriteStats::default();
            plan_cache.fill_stats(&mut search);
            let hit_stages = hit_timing.map(|(exec_ns, _)| [(Stage::Execute, exec_ns)]);
            let obs = finish_query_obs(
                metrics,
                attach_obs,
                q,
                fingerprint,
                true,
                hit_timing.map_or(0, |(_, total_ns)| total_ns),
                hit_stages.as_ref().map_or(&[][..], |s| &s[..]),
                &search,
            );
            return Ok(StatementOutcome::Answer {
                relation,
                executed,
                views_used,
                candidates,
                verified,
                elapsed_ms,
                set_semantics,
                search: Box::new(search),
                obs,
            });
        }
        if let Some(m) = metrics {
            m.incr(CounterId::PlanCacheMisses);
        }
    }
    let rewriter = Rewriter::with_options(&state.catalog, options.rewrite.clone());
    let (mut rewritings, mut search): (Vec<Rewriting>, RewriteStats) = rewriter
        .rewrite_with_stats(q, &state.views)
        .map_err(|e| err(e.to_string()))?;
    if let Some(m) = metrics {
        // Folds the search counters in and observes the rewrite stage
        // with the search's own prepare+search wall time.
        search.record_into(m);
    }
    let rewrite_ns = (search.prepare_time + search.search_time)
        .as_nanos()
        .min(u64::MAX as u128) as u64;
    plan_cache.fill_stats(&mut search);
    let stats = state.table_stats();
    rewritings.sort_by(|a, b| {
        a.cost(&stats)
            .partial_cmp(&b.cost(&stats))
            .expect("finite costs")
    });
    let candidates = rewritings.len();
    match rewritings.first() {
        None => {
            // Base-table answer. Compile once, run, and cache the
            // compiled plan for canonically identical arrivals.
            let plan_span = metrics.map(|m| m.span(Stage::Plan));
            let plan = PhysicalPlan::compile(q, &state.db).ok().map(|mut p| {
                p.set_columnar(options.columnar);
                p
            });
            let plan_ns = plan_span.map(|s| s.finish());
            if let (Some(m), true) = (metrics, plan.is_some()) {
                m.incr(CounterId::PlanCompiles);
            }
            let exec_span = metrics.map(|m| m.span(Stage::Execute));
            let t = std::time::Instant::now();
            let relation = match &plan {
                Some(p) => p.run(&state.db).map_err(|e| err(e.to_string()))?,
                None => execute_ctx(q, &state.db, &cx).map_err(|e| err(e.to_string()))?,
            };
            let elapsed_ms = t.elapsed().as_secs_f64() * 1e3;
            let exec_ns = exec_span.map(|s| s.finish());
            if let Some(k) = key {
                let meta = AnswerMeta {
                    executed: q.to_string(),
                    views_used: Vec::new(),
                    candidates: 0,
                    set_semantics: false,
                };
                plan_cache.store(k, None, plan, meta, search.clone());
            }
            let obs = finish_query_obs(
                metrics,
                attach_obs,
                q,
                fingerprint,
                false,
                total_ns_since(metrics, total_start_ns),
                &miss_stage_timings(rewrite_ns, plan_ns, exec_ns),
                &search,
            );
            Ok(StatementOutcome::Answer {
                relation,
                executed: q.to_string(),
                views_used: Vec::new(),
                candidates: 0,
                verified: None,
                elapsed_ms,
                set_semantics: false,
                search: Box::new(search),
                obs,
            })
        }
        Some(best) => {
            // A rewriting that needs no scaffolding (auxiliary views,
            // the Nat table) is a single block over stored relations:
            // compile it once. Scaffolded rewritings cache without a
            // plan — the hit still skips the whole search.
            let plan_span = metrics.map(|m| m.span(Stage::Plan));
            let plan = (best.aux_views.is_empty() && !best.requires_nat)
                .then(|| PhysicalPlan::compile(&best.query, &state.db).ok())
                .flatten()
                .map(|mut p| {
                    p.set_columnar(options.columnar);
                    p
                });
            let plan_ns = plan_span.map(|s| s.finish());
            if let (Some(m), true) = (metrics, plan.is_some()) {
                m.incr(CounterId::PlanCompiles);
            }
            let exec_span = metrics.map(|m| m.span(Stage::Execute));
            let t = std::time::Instant::now();
            let relation = match &plan {
                Some(p) => p.run(&state.db).map_err(|e| err(e.to_string()))?,
                None => {
                    execute_rewriting_ctx(best, &state.db, &cx).map_err(|e| err(e.to_string()))?
                }
            };
            let elapsed_ms = t.elapsed().as_secs_f64() * 1e3;
            let exec_ns = exec_span.map(|s| s.finish());
            let verified = if options.verify {
                Some(rewriting_equivalent(q, best, &state.db).map_err(|e| err(e.to_string()))?)
            } else {
                None
            };
            let executed = best.query.to_string();
            let views_used = best.views_used.clone();
            let set_semantics = best.set_semantics;
            if let Some(k) = key {
                let meta = AnswerMeta {
                    executed: executed.clone(),
                    views_used: views_used.clone(),
                    candidates,
                    set_semantics,
                };
                plan_cache.store(k, Some(best.clone()), plan, meta, search.clone());
            }
            let obs = finish_query_obs(
                metrics,
                attach_obs,
                q,
                fingerprint,
                false,
                total_ns_since(metrics, total_start_ns),
                &miss_stage_timings(rewrite_ns, plan_ns, exec_ns),
                &search,
            );
            Ok(StatementOutcome::Answer {
                relation,
                executed,
                views_used,
                candidates,
                verified,
                elapsed_ms,
                set_semantics,
                search: Box::new(search),
                obs,
            })
        }
    }
}

/// Elapsed registry-clock nanoseconds since `start_ns` (0 when
/// observability is off).
fn total_ns_since(metrics: Option<&MetricsRegistry>, start_ns: Option<u64>) -> u64 {
    match (metrics, start_ns) {
        (Some(m), Some(start)) => m.now_ns().saturating_sub(start),
        _ => 0,
    }
}

/// The per-query stage breakdown of a plan-cache miss, in pipeline order.
fn miss_stage_timings(
    rewrite_ns: u64,
    plan_ns: Option<u64>,
    exec_ns: Option<u64>,
) -> Vec<(Stage, u64)> {
    let mut stages = vec![(Stage::Rewrite, rewrite_ns)];
    if let Some(ns) = plan_ns {
        stages.push((Stage::Plan, ns));
    }
    if let Some(ns) = exec_ns {
        stages.push((Stage::Execute, ns));
    }
    stages
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggview_engine::Value;
    use aggview_sql::parse_script;

    fn run(script: &str, verify: bool) -> Vec<StatementOutcome> {
        let stmts = parse_script(script).expect("script parses");
        let mut session = Session::new(SessionOptions {
            verify,
            ..SessionOptions::default()
        });
        session.run_script(&stmts).expect("script runs")
    }

    #[test]
    fn end_to_end_script() {
        let outcomes = run(
            "CREATE TABLE Sales (Region, Product, Amount);
             INSERT INTO Sales VALUES (1, 10, 5), (1, 11, 7), (2, 10, 3), (2, 10, 3);
             CREATE VIEW Totals AS
               SELECT Region, Product, SUM(Amount) AS T, COUNT(Amount) AS N
               FROM Sales GROUP BY Region, Product;
             SELECT Region, SUM(Amount) FROM Sales GROUP BY Region;",
            true,
        );
        assert_eq!(outcomes.len(), 4);
        let StatementOutcome::Answer {
            relation,
            views_used,
            verified,
            ..
        } = &outcomes[3]
        else {
            panic!("expected an answer")
        };
        assert_eq!(views_used, &vec!["Totals".to_string()]);
        assert_eq!(verified, &Some(true));
        assert_eq!(relation.len(), 2);
        let rows = relation.sorted_rows();
        assert_eq!(rows[0], vec![Value::Int(1), Value::Int(12)]);
        assert_eq!(rows[1], vec![Value::Int(2), Value::Int(6)]);
    }

    #[test]
    fn select_without_views_hits_base_tables() {
        let outcomes = run(
            "CREATE TABLE T (a); INSERT INTO T VALUES (1), (1); SELECT a FROM T;",
            false,
        );
        let StatementOutcome::Answer {
            views_used,
            relation,
            ..
        } = &outcomes[2]
        else {
            panic!("expected an answer")
        };
        assert!(views_used.is_empty());
        assert_eq!(relation.len(), 2);
    }

    #[test]
    fn insert_refreshes_views() {
        let outcomes = run(
            "CREATE TABLE T (a, b);
             CREATE VIEW V AS SELECT a, SUM(b) AS s, COUNT(b) AS n FROM T GROUP BY a;
             INSERT INTO T VALUES (1, 5), (1, 6);
             SELECT a, SUM(b) FROM T GROUP BY a;",
            true,
        );
        let StatementOutcome::Answer {
            relation, verified, ..
        } = &outcomes[3]
        else {
            panic!("expected an answer")
        };
        assert_eq!(relation.rows, vec![vec![Value::Int(1), Value::Int(11)]]);
        assert_eq!(verified, &Some(true));
    }

    #[test]
    fn explain_reports() {
        let outcomes = run(
            "CREATE TABLE T (a, b);
             CREATE VIEW V AS SELECT a FROM T;
             EXPLAIN SELECT a, SUM(b) FROM T GROUP BY a;",
            false,
        );
        let StatementOutcome::Explanation(lines) = &outcomes[2] else {
            panic!("expected an explanation")
        };
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("not usable"), "{lines:?}");
        assert!(lines[1].contains("-- search:"), "{lines:?}");
        assert!(lines[1].contains("states="), "{lines:?}");
        assert!(lines[2].contains("plan-cache:"), "{lines:?}");
        assert!(lines[2].contains("not cached (fingerprint"), "{lines:?}");
        assert!(lines[3].contains("store: none"), "{lines:?}");
    }

    #[test]
    fn errors_are_reported() {
        let stmts = parse_script("INSERT INTO Nope VALUES (1);").unwrap();
        let mut session = Session::new(SessionOptions::default());
        assert!(session.run_script(&stmts).is_err());

        let stmts = parse_script("CREATE TABLE T (a); INSERT INTO T VALUES (1, 2);").unwrap();
        let mut session = Session::new(SessionOptions::default());
        let e = session.run_script(&stmts).unwrap_err();
        assert!(e.to_string().contains("arity"));
    }

    #[test]
    fn duplicate_relation_names_rejected() {
        let stmts = parse_script("CREATE TABLE T (a); CREATE VIEW T AS SELECT a FROM T;").unwrap();
        let mut session = Session::new(SessionOptions::default());
        assert!(session.run_script(&stmts).is_err());
    }

    #[test]
    fn delete_maintains_views() {
        let outcomes = run(
            "CREATE TABLE T (a, b);
             CREATE VIEW V AS SELECT a, SUM(b) AS s, COUNT(b) AS n FROM T GROUP BY a;
             INSERT INTO T VALUES (1, 5), (1, 6), (2, 7), (2, 7);
             DELETE FROM T WHERE b = 7;
             SELECT a, SUM(b) FROM T GROUP BY a;",
            true,
        );
        let StatementOutcome::Ok(msg) = &outcomes[3] else {
            panic!("expected delete ack")
        };
        assert!(msg.contains("2 row(s) deleted"), "{msg}");
        assert!(msg.contains("1 view(s) maintained incrementally"), "{msg}");
        let StatementOutcome::Answer {
            relation, verified, ..
        } = &outcomes[4]
        else {
            panic!("expected an answer")
        };
        // Group a=2 vanished entirely.
        assert_eq!(relation.rows, vec![vec![Value::Int(1), Value::Int(11)]]);
        assert_eq!(verified, &Some(true));
    }

    #[test]
    fn delete_with_minmax_view_recomputes() {
        let outcomes = run(
            "CREATE TABLE T (a, b);
             CREATE VIEW V AS SELECT a, MAX(b) AS m, COUNT(b) AS n FROM T GROUP BY a;
             INSERT INTO T VALUES (1, 5), (1, 9);
             DELETE FROM T WHERE b = 9;
             SELECT a, MAX(b) FROM T GROUP BY a;",
            true,
        );
        let StatementOutcome::Ok(msg) = &outcomes[3] else {
            panic!("expected delete ack")
        };
        // MAX can loosen under deletes: the view must recompute (0
        // incremental), but the answer stays correct.
        assert!(msg.contains("0 view(s) maintained incrementally"), "{msg}");
        let StatementOutcome::Answer {
            relation, verified, ..
        } = &outcomes[4]
        else {
            panic!("expected an answer")
        };
        assert_eq!(relation.rows, vec![vec![Value::Int(1), Value::Int(5)]]);
        assert_eq!(verified, &Some(true));
    }

    #[test]
    fn delete_everything() {
        let outcomes = run(
            "CREATE TABLE T (a);
             INSERT INTO T VALUES (1), (2);
             DELETE FROM T;
             SELECT a FROM T;",
            false,
        );
        let StatementOutcome::Answer { relation, .. } = &outcomes[3] else {
            panic!("expected an answer")
        };
        assert!(relation.is_empty());
    }

    #[test]
    fn repeated_select_hits_the_plan_cache() {
        let stmts = parse_script(
            "CREATE TABLE T (a, b);
             INSERT INTO T VALUES (1, 5), (1, 6), (2, 7);
             CREATE VIEW V AS SELECT a, SUM(b) AS s, COUNT(b) AS n FROM T GROUP BY a;
             SELECT a, SUM(b) FROM T GROUP BY a;
             SELECT x.a, SUM(x.b) FROM T x GROUP BY x.a;",
        )
        .unwrap();
        let mut session = Session::new(SessionOptions::default());
        let outcomes = session.run_script(&stmts).expect("script runs");
        // The second SELECT is canonically identical (modulo the binding
        // name) and must be served from the cache with the same answer.
        assert_eq!(session.plan_cache().hits(), 1);
        let (
            StatementOutcome::Answer { relation: r1, .. },
            StatementOutcome::Answer { relation: r2, .. },
        ) = (&outcomes[3], &outcomes[4])
        else {
            panic!("expected answers")
        };
        assert_eq!(r1.sorted_rows(), r2.sorted_rows());
    }

    #[test]
    fn create_view_invalidates_cached_plans() {
        let stmts = parse_script(
            "CREATE TABLE T (a, b);
             INSERT INTO T VALUES (1, 5), (1, 6);
             SELECT a, SUM(b) FROM T GROUP BY a;
             CREATE VIEW V AS SELECT a, SUM(b) AS s, COUNT(b) AS n FROM T GROUP BY a;
             SELECT a, SUM(b) FROM T GROUP BY a;",
        )
        .unwrap();
        let mut session = Session::new(SessionOptions::default());
        let outcomes = session.run_script(&stmts).expect("script runs");
        // The CREATE VIEW bumps the epoch: the second SELECT must re-run
        // the search (and now pick up the new view) instead of reusing the
        // stale base-table plan.
        assert_eq!(session.plan_cache().hits(), 0);
        assert_eq!(session.plan_cache().invalidations(), 1);
        let StatementOutcome::Answer { views_used, .. } = &outcomes[4] else {
            panic!("expected an answer")
        };
        assert_eq!(views_used, &vec!["V".to_string()]);
    }

    #[test]
    fn cached_answers_track_writes() {
        // A cached plan binds relations by name: INSERT/DELETE between two
        // hits must still produce fresh answers.
        let stmts = parse_script(
            "CREATE TABLE T (a, b);
             CREATE VIEW V AS SELECT a, SUM(b) AS s, COUNT(b) AS n FROM T GROUP BY a;
             INSERT INTO T VALUES (1, 5);
             SELECT a, SUM(b) FROM T GROUP BY a;
             INSERT INTO T VALUES (1, 10), (2, 1);
             SELECT a, SUM(b) FROM T GROUP BY a;",
        )
        .unwrap();
        let mut session = Session::new(SessionOptions {
            verify: true,
            ..SessionOptions::default()
        });
        let outcomes = session.run_script(&stmts).expect("script runs");
        assert_eq!(session.plan_cache().hits(), 1);
        let StatementOutcome::Answer {
            relation, verified, ..
        } = &outcomes[5]
        else {
            panic!("expected an answer")
        };
        assert_eq!(verified, &Some(true));
        let rows = relation.sorted_rows();
        assert_eq!(rows[0], vec![Value::Int(1), Value::Int(15)]);
        assert_eq!(rows[1], vec![Value::Int(2), Value::Int(1)]);
    }

    #[test]
    fn grouped_views_get_an_index() {
        let stmts = parse_script(
            "CREATE TABLE T (a, b);
             INSERT INTO T VALUES (1, 5), (1, 6), (2, 7);
             CREATE VIEW V AS SELECT a, SUM(b) AS s, COUNT(b) AS n FROM T GROUP BY a;
             INSERT INTO T VALUES (2, 1), (3, 9);
             DELETE FROM T WHERE b = 5;",
        )
        .unwrap();
        let mut session = Session::new(SessionOptions::default());
        session.run_script(&stmts).expect("script runs");
        let idx = session.database().index("V").expect("V is indexed");
        let rel = session.database().get("V").unwrap();
        assert!(idx.is_consistent_with(rel), "index tracks maintenance");
        assert_eq!(idx.key_cols(), &[0]);
    }

    #[test]
    fn index_can_be_disabled() {
        let stmts = parse_script(
            "CREATE TABLE T (a, b);
             CREATE VIEW V AS SELECT a, SUM(b) AS s FROM T GROUP BY a;",
        )
        .unwrap();
        let mut session = Session::new(SessionOptions {
            index_views: false,
            ..SessionOptions::default()
        });
        session.run_script(&stmts).expect("script runs");
        assert!(session.database().index("V").is_none());
    }

    #[test]
    fn cheapest_candidate_wins() {
        // Two usable views; the smaller one must be chosen.
        let outcomes = run(
            "CREATE TABLE T (a, b, c);
             INSERT INTO T VALUES (1,1,1),(1,2,1),(2,1,1),(2,2,1),(1,1,1);
             CREATE VIEW Fine AS SELECT a, b, SUM(c) AS s, COUNT(c) AS n FROM T GROUP BY a, b;
             CREATE VIEW Coarse AS SELECT a, SUM(c) AS s, COUNT(c) AS n FROM T GROUP BY a;
             SELECT a, SUM(c) FROM T GROUP BY a;",
            true,
        );
        let StatementOutcome::Answer {
            views_used,
            verified,
            candidates,
            ..
        } = &outcomes[4]
        else {
            panic!("expected an answer")
        };
        assert!(*candidates >= 2);
        assert_eq!(views_used, &vec!["Coarse".to_string()]);
        assert_eq!(verified, &Some(true));
    }

    const SHARDED_SCRIPT: &str = "CREATE TABLE Sales (Region, Product, Amount);
         INSERT INTO Sales VALUES (1, 10, 5), (1, 11, 7), (2, 10, 3), (2, 10, 3), (3, 12, 9);
         CREATE VIEW Totals AS
           SELECT Region, Product, SUM(Amount) AS T, COUNT(Amount) AS N
           FROM Sales GROUP BY Region, Product;
         SELECT Region, SUM(Amount) FROM Sales GROUP BY Region;
         SELECT Product, SUM(Amount), AVG(Amount) FROM Sales GROUP BY Product;
         SELECT COUNT(Amount) FROM Sales;";

    /// Every sharded answer (concat, re-aggregate, and scalar gather)
    /// equals the unsharded answer as a multiset, with identical DDL/DML
    /// acks and rewrite metadata, at every shard count.
    #[test]
    fn sharded_session_matches_local_answers() {
        let stmts = parse_script(SHARDED_SCRIPT).expect("parses");
        let mut local = Session::new(SessionOptions {
            verify: true,
            ..SessionOptions::default()
        });
        let reference = local.run_script(&stmts).expect("local runs");
        for shards in [1, 2, 3] {
            let store = crate::sharded::ShardedStore::with_defaults(shards);
            let mut session = store.session(SessionOptions {
                verify: true,
                ..SessionOptions::default()
            });
            let outcomes = session.run_script(&stmts).expect("sharded runs");
            assert_eq!(outcomes.len(), reference.len());
            for (i, (got, want)) in outcomes.iter().zip(&reference).enumerate() {
                match (got, want) {
                    (StatementOutcome::Ok(g), StatementOutcome::Ok(w)) => {
                        assert_eq!(g, w, "ack #{i} diverged at {shards} shard(s)")
                    }
                    (
                        StatementOutcome::Answer {
                            relation: gr,
                            views_used: gv,
                            candidates: gc,
                            verified: gok,
                            ..
                        },
                        StatementOutcome::Answer {
                            relation: wr,
                            views_used: wv,
                            candidates: wc,
                            ..
                        },
                    ) => {
                        assert!(
                            multiset_eq(gr, wr),
                            "answer #{i} diverged at {shards} shard(s):\n{gr}\nvs\n{wr}"
                        );
                        assert_eq!(gv, wv, "views #{i} at {shards} shard(s)");
                        assert_eq!(gc, wc, "candidates #{i} at {shards} shard(s)");
                        assert_eq!(gok, &Some(true), "verify #{i} at {shards} shard(s)");
                    }
                    _ => panic!("outcome kind #{i} diverged at {shards} shard(s)"),
                }
            }
        }
    }

    #[test]
    fn sharded_selects_hit_the_driver_plan_cache() {
        let store = crate::sharded::ShardedStore::with_defaults(2);
        let mut session = store.session(SessionOptions::default());
        let stmts = parse_script(
            "CREATE TABLE T (a, b);
             INSERT INTO T VALUES (1, 5), (2, 6), (3, 7);
             SELECT a, SUM(b) FROM T GROUP BY a;
             SELECT a, SUM(b) FROM T GROUP BY a;",
        )
        .expect("parses");
        session.run_script(&stmts).expect("runs");
        assert_eq!(session.plan_cache().hits(), 1);
        let m = session.metrics().expect("obs on by default");
        assert_eq!(m.get(CounterId::ShardFanouts), 2);
        assert_eq!(m.get(CounterId::ShardConcatMerges), 2);
        assert_eq!(m.get(CounterId::ShardScatterQueries), 4);
    }

    #[test]
    fn sharded_explain_analyze_reports_the_gather() {
        let store = crate::sharded::ShardedStore::with_defaults(2);
        let mut session = store.session(SessionOptions::default());
        let stmts = parse_script(
            "CREATE TABLE T (a, b);
             INSERT INTO T VALUES (1, 5), (2, 6);
             EXPLAIN ANALYZE SELECT b, SUM(a) FROM T GROUP BY b;",
        )
        .expect("parses");
        let outcomes = session.run_script(&stmts).expect("runs");
        let StatementOutcome::Explanation(lines) = &outcomes[2] else {
            panic!("expected explanation")
        };
        let shard_line = lines
            .iter()
            .find(|l| l.starts_with("-- shards:"))
            .expect("shards line present");
        assert!(shard_line.contains("gather: re-aggregate"), "{shard_line}");
        // Joins fall back to the union and say so.
        let stmts = parse_script(
            "CREATE TABLE U (a, c);
             EXPLAIN ANALYZE SELECT T.a FROM T, U WHERE T.a = U.a;",
        )
        .expect("parses");
        let outcomes = session.run_script(&stmts).expect("runs");
        let StatementOutcome::Explanation(lines) = &outcomes[1] else {
            panic!("expected explanation")
        };
        let shard_line = lines
            .iter()
            .find(|l| l.starts_with("-- shards:"))
            .expect("shards line present");
        assert!(shard_line.contains("gather: fallback"), "{shard_line}");
    }

    #[test]
    fn sharded_error_messages_match_unsharded() {
        let store = crate::sharded::ShardedStore::with_defaults(2);
        let mut session = store.session(SessionOptions::default());
        let e = session
            .execute(&aggview_sql::parse_statement("INSERT INTO Nope VALUES (1)").unwrap())
            .expect_err("unknown table");
        assert_eq!(e.0, "unknown table `Nope`");
        session
            .execute(&aggview_sql::parse_statement("CREATE TABLE T (a, b)").unwrap())
            .expect("create");
        let e = session
            .execute(&aggview_sql::parse_statement("INSERT INTO T VALUES (1, 2, 3)").unwrap())
            .expect_err("arity");
        assert_eq!(e.0, "row arity 3 does not match table `T` arity 2");
        session
            .execute(&aggview_sql::parse_statement("CREATE VIEW V AS SELECT a FROM T").unwrap())
            .expect("view");
        let e = session
            .execute(&aggview_sql::parse_statement("INSERT INTO V VALUES (1)").unwrap())
            .expect_err("view insert");
        assert_eq!(e.0, "`V` is a view; INSERT into base tables only");
    }
}
