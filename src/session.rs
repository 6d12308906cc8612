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
use crate::eager::{self, Served};
use crate::plan_cache::{AnswerMeta, CacheKey, PlanCache, DEFAULT_PLAN_CACHE_CAP};
use crate::run::{execute_rewriting_ctx, rewriting_equivalent};
use crate::server::{SharedStore, StoreSnapshot, WriteOp};
use crate::sharded::{gather, gather_plan, ShardedStore, UnionState};
use crate::state::{is_advisor_view_name, EngineState, WritePolicy};
use aggview_core::advisor::suggest_views;
use aggview_core::{
    Canonical, RewriteOptions, RewriteStats, Rewriter, Rewriting, TableStats, ViewDef,
};
use aggview_engine::shard::GatherPlan;
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
                for line in answer_header(views_used, *candidates, executed, Some(*elapsed_ms)) {
                    writeln!(f, "{line}")?;
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

/// The first lines of an answer's report: where it came from (stored
/// views, an inline summary, the base tables) and, unless it ran the
/// query as written, what it executed. `elapsed_ms` is shown when
/// `Display` prints it; `EXPLAIN ANALYZE` times stages instead.
fn answer_header(
    views_used: &[String],
    candidates: usize,
    executed: &str,
    elapsed_ms: Option<f64>,
) -> Vec<String> {
    if !views_used.is_empty() {
        let ms = elapsed_ms.map_or(String::new(), |ms| format!(", {ms:.2} ms"));
        return vec![
            format!("-- answered from {views_used:?} ({candidates} candidate rewriting(s){ms})"),
            format!("-- executed: {executed}"),
        ];
    }
    let ms = elapsed_ms.map_or(String::new(), |ms| format!(" ({ms:.2} ms)"));
    match eager::summary_name(executed) {
        Some(summary) => vec![
            format!(
                "-- no usable view; answered from inline summary {summary} over base tables{ms}"
            ),
            format!("-- executed: {executed}"),
        ],
        None => vec![format!(
            "-- no usable view; evaluated against base tables{ms}"
        )],
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
    /// operators, planned from shard 0's catalog and views. `union`
    /// caches the unioned shard state — the exact state an unsharded
    /// store would hold — built only for what the shards cannot answer
    /// (see [`Session::sharded_select`]) and for global-state reads.
    /// `oracle_cache` is the plan cache of `--verify`'s answer on the
    /// union, so that its cached decisions age as an unsharded
    /// session's do.
    Sharded {
        store: ShardedStore,
        shards: Vec<Session>,
        union: UnionState,
        oracle_cache: PlanCache,
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
        let oracle_cache = PlanCache::with_cap(options.plan_cache_cap);
        Session {
            options,
            backend: Backend::Sharded {
                store,
                shards,
                union: UnionState::new(),
                oracle_cache,
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

    /// The state this session currently reads: its own, the store
    /// snapshot pinned by the most recent statement, or the union of the
    /// shard snapshots (built here on the first call after a write).
    fn state(&self) -> &EngineState {
        match &self.backend {
            Backend::Local(state) => state,
            Backend::Shared { snapshot, .. } => &snapshot.state,
            Backend::Sharded { store, union, .. } => {
                union.get_or_build(store, self.metrics.as_ref())
            }
        }
    }

    /// The current database (base tables and materialized views). For a
    /// store-backed session this is the snapshot the last statement ran
    /// against — exactly the state its answer was computed on. For a
    /// sharded driver it is the global state: the union of the shard
    /// snapshots, which the first call after a write builds.
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
            recompute_views: self.options.recompute_views,
            columnar: self.options.columnar,
            durability: false,
        }
    }

    /// Pin the store's current snapshot (no-op for local sessions) and
    /// align the plan cache with its schema epoch. For a sharded session
    /// this drops a union that a shard publish has made stale; nothing
    /// rebuilds it until it is needed.
    fn refresh(&mut self) -> Result<(), SessionError> {
        match &mut self.backend {
            Backend::Local(_) => {}
            Backend::Shared { store, snapshot } => {
                *snapshot = store.load();
                self.plan_cache.sync_epoch(snapshot.schema_epoch);
            }
            Backend::Sharded {
                store,
                union,
                oracle_cache,
                ..
            } => {
                if union.is_stale(store) {
                    union.invalidate();
                }
                self.plan_cache.sync_epoch(store.schema_epoch());
                oracle_cache.sync_epoch(store.schema_epoch());
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
                oracle_cache,
                ..
            } => {
                // Even a refused write may have reached some shards.
                let applied = store.apply_write(op);
                union.invalidate();
                self.plan_cache.sync_epoch(store.schema_epoch());
                oracle_cache.sync_epoch(store.schema_epoch());
                Ok(StatementOutcome::Ok(applied?.message))
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
        let key = match &self.backend {
            // The key needs the schemas only, which shard 0 has.
            Backend::Sharded { store, .. } => cache_key(&store.shards()[0].load().state, q),
            _ => cache_key(self.state(), q),
        };
        let Some(key) = key else {
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

    /// The sharded `SELECT` path. A query the gather planner decomposes
    /// is served from the shard snapshots alone. Its serving decision —
    /// the plan-cache key, the rewrite search and the cost ranking, and
    /// with them `views_used`, `candidates`, `executed`, `set_semantics`
    /// and the column names — comes from shard 0's catalog and views,
    /// ranked by global cardinalities ([`global_stats`]), so it is the
    /// decision an unsharded session makes. Its rows are the
    /// scatter+merge result: a disjoint union when each group lives on
    /// one shard, a §4 re-aggregation of partial aggregates otherwise. A
    /// plan-cache hit is one scatter plus one merge.
    ///
    /// The union is built only for a fallback shape (a join, an unaligned
    /// view), for a failed scatter or merge (both served from the union,
    /// so the client sees the unsharded answer or error), and for
    /// `--verify`, which compares the whole outcome with the union's.
    fn sharded_select(
        &mut self,
        q: &Query,
        attach_obs: bool,
    ) -> Result<StatementOutcome, SessionError> {
        let Backend::Sharded {
            store,
            shards,
            union,
            oracle_cache,
        } = &mut self.backend
        else {
            unreachable!("sharded_select on a non-sharded backend");
        };
        let registry = self.metrics.as_ref();
        let metrics = self.metrics.as_deref();
        let n = store.shard_count();
        if let Some(m) = metrics {
            m.incr(CounterId::ShardFanouts);
        }
        let pinned = store.shards()[0].load();
        let schema = &pinned.state;
        let plan = gather_plan(schema, q);
        let mut consulted = UnionUse::default();
        if let GatherPlan::Fallback(reason) = plan {
            if let Some(m) = metrics {
                m.incr(CounterId::ShardGatherFallbacks);
            }
            let state = consulted.ensure(union, store, registry, "fallback")?;
            let outcome = select_on(
                state,
                &mut self.plan_cache,
                &self.options,
                metrics,
                attach_obs,
                q,
            )?;
            self.last_shard_note = Some(format!(
                "-- shards: {n}; gather: fallback ({reason}); {}",
                consulted.note()
            ));
            return Ok(outcome);
        }

        // The serving decision, from the plan cache or a fresh search.
        let total_start_ns = metrics.map(|m| m.now_ns());
        let key = cache_key(schema, q);
        let fingerprint = key.as_ref().map_or(0, CacheKey::fingerprint);
        let hit = key
            .as_ref()
            .and_then(|k| self.plan_cache.lookup(k))
            .map(|c| (c.meta.clone(), decision_columns(q, c.rewriting.as_ref())));
        let (meta, columns, fresh) = match hit {
            Some((meta, columns)) => {
                if let Some(m) = metrics {
                    m.incr(CounterId::PlanCacheHits);
                }
                (meta, columns, None)
            }
            None => {
                if let (Some(m), Some(_)) = (metrics, &key) {
                    m.incr(CounterId::PlanCacheMisses);
                }
                let rewriter =
                    Rewriter::with_options(&schema.catalog, self.options.rewrite.clone());
                let (mut rewritings, search) = rewriter
                    .rewrite_with_stats(q, &schema.views)
                    .map_err(|e| err(e.to_string()))?;
                if rewritings.len() > 1 {
                    let stats = match global_stats(store, schema, shards, &rewritings) {
                        Some(stats) => stats,
                        None => consulted
                            .ensure(union, store, registry, "cardinalities")?
                            .table_stats(),
                    };
                    rewritings.sort_by(|a, b| {
                        a.cost(&stats)
                            .partial_cmp(&b.cost(&stats))
                            .expect("finite costs")
                    });
                }
                let candidates = rewritings.len();
                let chosen = rewritings.into_iter().next();
                if let Some(m) = metrics {
                    search.record_into(m);
                }
                let meta = match &chosen {
                    None => AnswerMeta {
                        executed: q.to_string(),
                        ..AnswerMeta::default()
                    },
                    Some(rw) => AnswerMeta {
                        executed: rw.query.to_string(),
                        views_used: rw.views_used.clone(),
                        candidates,
                        set_semantics: rw.set_semantics,
                    },
                };
                let columns = decision_columns(q, chosen.as_ref());
                (meta, columns, Some((chosen, search)))
            }
        };

        // The rows: scatter, merge, and adopt the decision's column names
        // (e.g. `min_lo` when served from a view) so the printed header
        // matches the unsharded session byte for byte.
        let exec_start_ns = metrics.map(|m| m.now_ns());
        let t = std::time::Instant::now();
        let (mut relation, rows) = match gather(&plan, q, |sq| scatter(shards, sq)) {
            Ok(gathered) => gathered,
            Err(e) => {
                if let Some(m) = metrics {
                    m.incr(CounterId::ShardGatherFallbacks);
                }
                let state = consulted.ensure(union, store, registry, "a failed gather")?;
                let outcome = select_on(
                    state,
                    &mut PlanCache::with_cap(0),
                    &self.options,
                    metrics,
                    attach_obs,
                    q,
                )?;
                self.last_shard_note = Some(format!(
                    "-- shards: {n}; gather: failed ({e}); served from the union; {}",
                    consulted.note()
                ));
                return Ok(outcome);
            }
        };
        let elapsed_ms = t.elapsed().as_secs_f64() * 1e3;
        let exec_ns = exec_start_ns.zip(metrics).map(|(start, m)| {
            let ns = m.now_ns().saturating_sub(start);
            m.observe_ns(Stage::Execute, ns);
            ns
        });
        if let Some(m) = metrics {
            m.add(CounterId::ShardScatterQueries, n as u64);
            m.incr(match plan {
                GatherPlan::Concat => CounterId::ShardConcatMerges,
                _ => CounterId::ShardReaggMerges,
            });
        }
        if relation.arity() == columns.len() {
            relation.columns = columns;
        }

        let verified = if self.options.verify {
            let state = consulted.ensure(union, store, registry, "verify")?;
            let oracle = select_on(state, oracle_cache, &self.options, None, false, q)?;
            Some(agrees_with(&oracle, &meta, &relation))
        } else {
            None
        };

        // Cache a fresh decision only once it has served an answer, as
        // `select_on` does.
        let (search, rewrite_ns) = match fresh {
            Some((chosen, mut search)) => {
                self.plan_cache.fill_stats(&mut search);
                if let Some(k) = key {
                    self.plan_cache
                        .store(k, chosen, None, meta.clone(), search.clone());
                }
                let ns = (search.prepare_time + search.search_time).as_nanos();
                (search, Some(ns.min(u64::MAX as u128) as u64))
            }
            None => {
                let mut search = RewriteStats::default();
                self.plan_cache.fill_stats(&mut search);
                (search, None)
            }
        };
        let stages = match rewrite_ns {
            Some(ns) => miss_stage_timings(ns, None, exec_ns),
            None => exec_ns.map(|ns| (Stage::Execute, ns)).into_iter().collect(),
        };
        let obs = finish_query_obs(
            metrics,
            attach_obs,
            q,
            fingerprint,
            rewrite_ns.is_none(),
            total_ns_since(metrics, total_start_ns),
            &stages,
            &search,
        );
        let gathered = match &plan {
            GatherPlan::Reaggregate(p) => {
                format!("re-aggregate ({} partial slot(s))", p.slot_count())
            }
            _ => "concat (disjoint groups)".to_string(),
        };
        self.last_shard_note = Some(format!(
            "-- shards: {n}; gather: {gathered}; per-shard rows: {rows:?}; {}",
            consulted.note()
        ));
        Ok(StatementOutcome::Answer {
            relation,
            executed: meta.executed,
            views_used: meta.views_used,
            candidates: meta.candidates,
            verified,
            elapsed_ms,
            set_semantics: meta.set_semantics,
            search: Box::new(search),
            obs,
        })
    }

    fn explain(&mut self, q: &Query) -> Result<StatementOutcome, SessionError> {
        self.refresh()?;
        let state = self.state();
        let rewriter = Rewriter::with_options(&state.catalog, self.options.rewrite.clone());
        let reports = rewriter
            .explain(q, &state.views)
            .map_err(|e| err(e.to_string()))?;
        let (rewritings, search) = rewriter
            .rewrite_with_stats(q, &state.views)
            .map_err(|e| err(e.to_string()))?;
        // With no stored rewriting, name the inline summary the serving
        // path would build instead (eager aggregation).
        let inline = rewritings
            .is_empty()
            .then(|| eager::inline_rewriting(q, state, &state.table_stats()))
            .flatten()
            .map(|rw| {
                format!(
                    "-- eager: no stored view answers; inline summary: {}",
                    eager::executed_text(&rw)
                )
            });
        if reports.is_empty() && inline.is_none() {
            return Ok(StatementOutcome::Explanation(vec![
                "no views defined".to_string()
            ]));
        }
        let mut lines: Vec<String> = reports.iter().map(|r| r.to_string()).collect();
        if lines.is_empty() {
            lines.push("no views defined".to_string());
        }
        lines.extend(inline);
        // Tail: what the full search does with these candidates, the
        // serving-cache status for this query, and the shared store (if
        // any) — one ObsSnapshot, rendered by the shared renderer.
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
        let (vec_before, row_before, eager_before) = (
            self.exec_count(CounterId::ExecVectorized),
            self.exec_count(CounterId::ExecRowFallback),
            self.exec_count(CounterId::EagerInline),
        );
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
        let mut lines = answer_header(&views_used, candidates, &executed, None);
        lines.truncate(1);
        lines.push(format!("-- executed: {executed}"));
        lines.push(format!("-- rows: {}", relation.len()));
        let (vec_total, row_total, eager_total) = (
            self.exec_count(CounterId::ExecVectorized),
            self.exec_count(CounterId::ExecRowFallback),
            self.exec_count(CounterId::EagerInline),
        );
        let path = match (vec_total - vec_before, row_total - row_before) {
            (v, 0) if v > 0 => "vectorized (columnar kernels)".to_string(),
            (0, f) if f > 0 => "row-at-a-time interpreter".to_string(),
            (0, 0) => "n/a (no plan execution recorded)".to_string(),
            (v, f) => format!("mixed ({v} vectorized, {f} row)"),
        };
        lines.push(format!(
            "-- exec path: {path}; session totals: exec_vectorized={vec_total} \
             exec_row_fallback={row_total}"
        ));
        if eager_total > eager_before {
            lines.push(format!(
                "-- eager: inline summary built from the pinned snapshot for this \
                 execution; session totals: eager_inline={eager_total}"
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

    /// `id`'s count in this session's registry plus, for a sharded
    /// driver, in every shard's, where its scatter queries execute.
    fn exec_count(&self, id: CounterId) -> u64 {
        let shards = match &self.backend {
            Backend::Sharded { store, .. } => store.shards(),
            _ => &[],
        };
        let shard_registries = shards.iter().filter_map(SharedStore::metrics);
        self.metrics
            .iter()
            .chain(shard_registries)
            .map(|m| m.get(id))
            .sum()
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

/// Whether, and why, one sharded `SELECT` consulted the union: the tail
/// of its `-- shards:` line.
#[derive(Default)]
struct UnionUse {
    built: bool,
    why: Vec<&'static str>,
}

impl UnionUse {
    /// Bring the union up to date for `why`.
    fn ensure<'u>(
        &mut self,
        union: &'u mut UnionState,
        store: &ShardedStore,
        metrics: Option<&Arc<MetricsRegistry>>,
        why: &'static str,
    ) -> Result<&'u EngineState, SessionError> {
        self.built |= union.rebuild_if_stale(store, metrics)?;
        self.why.push(why);
        Ok(union.state())
    }

    fn note(&self) -> String {
        let why = self.why.join(", ");
        match (self.why.is_empty(), self.built) {
            (true, _) => "union: not built".to_string(),
            (false, true) => format!("union: built for {why}"),
            (false, false) => format!("union: reused for {why}"),
        }
    }
}

/// Global cardinalities of the stored relations `rewritings` read, as an
/// unsharded session's cost ranking sees them: a base table's is the sum
/// of its shard partitions, a view's the row count of its gathered
/// definition. `None` when a view's definition does not gather; the
/// caller then takes the union's.
fn global_stats(
    store: &ShardedStore,
    schema: &EngineState,
    shards: &mut [Session],
    rewritings: &[Rewriting],
) -> Option<TableStats> {
    let snaps = store.load_all();
    let mut stats = TableStats::new();
    let queries = rewritings
        .iter()
        .flat_map(|rw| rw.aux_views.iter().map(|v| &v.query).chain([&rw.query]));
    for name in queries.flat_map(|q| q.from.iter().map(|t| &t.table)) {
        if stats.has(name) {
            continue;
        }
        let rows = if schema.catalog.table(name).is_some() {
            snaps
                .iter()
                .map(|s| s.state.db.get(name).map_or(0, Relation::len))
                .sum()
        } else if let Some(view) = schema.views.iter().find(|v| v.name == *name) {
            let plan = gather_plan(schema, &view.query);
            gather(&plan, &view.query, |q| scatter(shards, q))
                .ok()?
                .0
                .len()
        } else {
            // An auxiliary view or `Nat`: never stored, so priced at the
            // default, as in an unsharded session.
            continue;
        };
        stats.set(name.clone(), rows);
    }
    Some(stats)
}

/// The column names a serving decision's answer carries: the chosen
/// rewriting's output names, or the query's own on the base tables.
fn decision_columns(q: &Query, rewriting: Option<&Rewriting>) -> Vec<String> {
    rewriting.map_or_else(|| q.output_names(), |rw| rw.query.output_names())
}

/// Does the union's outcome `oracle` agree with a union-free answer:
/// its own base-table cross-check, every metadata field, the column
/// names, and the rows (as sets under §5 semantics)?
fn agrees_with(oracle: &StatementOutcome, meta: &AnswerMeta, relation: &Relation) -> bool {
    let StatementOutcome::Answer {
        relation: want,
        executed,
        views_used,
        candidates,
        set_semantics,
        verified,
        ..
    } = oracle
    else {
        return false;
    };
    let rows_agree = if *set_semantics {
        set_eq(relation, want)
    } else {
        multiset_eq(relation, want)
    };
    verified.unwrap_or(true)
        && *executed == meta.executed
        && *views_used == meta.views_used
        && *candidates == meta.candidates
        && *set_semantics == meta.set_semantics
        && want.columns == relation.columns
        && rows_agree
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
            let (relation, served) = run_decision(
                q,
                cached.rewriting.as_ref(),
                cached.plan.as_ref(),
                &state.db,
                &cx,
                metrics,
            )?;
            // The cached decision stands even when a summary no longer
            // shrinks: it was judged on the miss that made it.
            let fell_back = served == Some(Served::BaseTables);
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
                (true, Some(rw)) if !fell_back => {
                    Some(rewriting_equivalent(q, rw, &state.db).map_err(|e| err(e.to_string()))?)
                }
                _ => None,
            };
            let executed = if fell_back {
                q.to_string()
            } else {
                cached.meta.executed.clone()
            };
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
    let stats = state.table_stats();
    rewritings.sort_by(|a, b| {
        a.cost(&stats)
            .partial_cmp(&b.cost(&stats))
            .expect("finite costs")
    });
    let candidates = rewritings.len();
    // The serving decision: the cheapest stored-view rewriting; failing
    // that, an inline summary over part of `FROM` (eager aggregation,
    // timed as part of the search); failing that, the base tables.
    let chosen = match rewritings.into_iter().next() {
        Some(best) => Some(best),
        None => {
            let t = std::time::Instant::now();
            let inline = eager::inline_rewriting(q, state, &stats);
            search.search_time += t.elapsed();
            inline
        }
    };
    if let Some(m) = metrics {
        // Folds the search counters in and observes the rewrite stage
        // with the search's own prepare+search wall time.
        search.record_into(m);
    }
    let rewrite_ns = (search.prepare_time + search.search_time)
        .as_nanos()
        .min(u64::MAX as u128) as u64;
    plan_cache.fill_stats(&mut search);

    // Compile once and cache the plan for canonically identical arrivals:
    // the query itself, or a rewriting that needs no scaffolding (the
    // auxiliary views or inline summary, the Nat table) and so is a single
    // block over stored relations. Scaffolded rewritings cache without a
    // plan — the hit still skips the whole search.
    let compile = |query: &Query| {
        let plan = PhysicalPlan::compile(query, &state.db).ok().map(|mut p| {
            p.set_columnar(options.columnar);
            p
        });
        if let (Some(m), true) = (metrics, plan.is_some()) {
            m.incr(CounterId::PlanCompiles);
        }
        plan
    };
    let plan_span = metrics.map(|m| m.span(Stage::Plan));
    let plan = match &chosen {
        None => compile(q),
        Some(rw) if rw.aux_views.is_empty() && !rw.requires_nat => compile(&rw.query),
        Some(_) => None,
    };
    let plan_ns = plan_span.map(|s| s.finish());
    let exec_span = metrics.map(|m| m.span(Stage::Execute));
    let t = std::time::Instant::now();
    let (relation, served) =
        run_decision(q, chosen.as_ref(), plan.as_ref(), &state.db, &cx, metrics)?;
    let elapsed_ms = t.elapsed().as_secs_f64() * 1e3;
    let exec_ns = exec_span.map(|s| s.finish());
    let fell_back = served == Some(Served::BaseTables);
    let verified = match (options.verify, &chosen) {
        (true, Some(rw)) if !fell_back => {
            Some(rewriting_equivalent(q, rw, &state.db).map_err(|e| err(e.to_string()))?)
        }
        _ => None,
    };
    let base_meta = || AnswerMeta {
        executed: q.to_string(),
        ..AnswerMeta::default()
    };
    let meta = match &chosen {
        None => base_meta(),
        Some(rw) => AnswerMeta {
            executed: if eager::is_inline(rw) {
                eager::executed_text(rw)
            } else {
                rw.query.to_string()
            },
            views_used: rw.views_used.clone(),
            candidates,
            set_semantics: rw.set_semantics,
        },
    };
    let executed = if fell_back {
        q.to_string()
    } else {
        meta.executed.clone()
    };
    let (views_used, candidates, set_semantics) =
        (meta.views_used.clone(), meta.candidates, meta.set_semantics);
    if let Some(k) = key {
        // An inline summary that failed or did not shrink leaves later
        // arrivals the base-table plan.
        if served.is_some_and(|s| s != Served::Summary) {
            plan_cache.store(k, None, compile(q), base_meta(), search.clone());
        } else {
            plan_cache.store(k, chosen, plan, meta, search.clone());
        }
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

/// Execute a serving decision, fresh or cached: its compiled plan when it
/// has one, else its rewriting, else the query over the base tables. An
/// inline-summary rewriting answers through [`eager::answer`] and reports
/// how it was served; any other decision reports `None`.
fn run_decision(
    q: &Query,
    rewriting: Option<&Rewriting>,
    plan: Option<&PhysicalPlan>,
    db: &Database,
    cx: &ExecContext,
    metrics: Option<&MetricsRegistry>,
) -> Result<(Relation, Option<Served>), SessionError> {
    let ran = match (plan, rewriting) {
        (Some(plan), _) => plan.run(db).map(|rel| (rel, None)),
        (None, Some(rw)) if eager::is_inline(rw) => eager::answer(q, rw, db, cx).map(|(rel, s)| {
            if let (Some(m), true) = (metrics, s != Served::BaseTables) {
                m.incr(CounterId::EagerInline);
            }
            (rel, Some(s))
        }),
        (None, Some(rw)) => execute_rewriting_ctx(rw, db, cx).map(|rel| (rel, None)),
        (None, None) => execute_ctx(q, db, cx).map(|rel| (rel, None)),
    };
    ran.map_err(|e| err(e.to_string()))
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

    const EAGER_SETUP: &str = "CREATE TABLE Calling_Plans (Plan_Id, Plan_Name, KEY (Plan_Id));
         CREATE TABLE Calls (Call_Id, Plan_Id, Day, Charge, KEY (Call_Id));
         INSERT INTO Calling_Plans VALUES (1, 'basic'), (2, 'gold');
         INSERT INTO Calls VALUES (1, 1, 1, 10), (2, 2, 1, 5), (3, 1, 2, 7), (4, 1, 2, 1);";
    const EAGER_PROBE: &str = "SELECT Plan_Name, Day, SUM(Charge) FROM Calls, Calling_Plans
         WHERE Calls.Plan_Id = Calling_Plans.Plan_Id GROUP BY Plan_Name, Day";

    fn eager_inline(session: &Session) -> u64 {
        session
            .metrics()
            .expect("obs on by default")
            .get(CounterId::EagerInline)
    }

    /// With no stored view, the join-then-group probe is answered through
    /// an inline summary of `Calls`: cross-checked equivalent, reported as
    /// a base-table answer under the query's own column names, served
    /// again from the plan cache after a write with a fresh summary.
    #[test]
    fn join_without_a_view_is_answered_through_an_inline_summary() {
        let mut session = Session::new(SessionOptions {
            verify: true,
            ..SessionOptions::default()
        });
        session
            .run_script(&parse_script(EAGER_SETUP).unwrap())
            .unwrap();
        let probe = Statement::Select(aggview_sql::parse_query(EAGER_PROBE).unwrap());
        let first = session.execute(&probe).unwrap();
        let StatementOutcome::Answer {
            relation,
            executed,
            views_used,
            candidates,
            verified,
            ..
        } = &first
        else {
            panic!("expected an answer")
        };
        assert!(views_used.is_empty(), "{views_used:?}");
        assert_eq!(*candidates, 0);
        assert_eq!(verified, &Some(true));
        assert_eq!(relation.columns, ["Plan_Name", "Day", "sum_charge"]);
        assert!(executed.starts_with("WITH Eager1 AS (SELECT"), "{executed}");
        assert!(executed.contains("FROM Calls GROUP BY"), "{executed}");
        let shown = first.to_string();
        assert!(
            shown.starts_with("-- no usable view; answered from inline summary Eager1"),
            "{shown}"
        );
        assert_eq!(eager_inline(&session), 1);

        session
            .execute(
                &aggview_sql::parse_statement("INSERT INTO Calls VALUES (5, 2, 1, 100)").unwrap(),
            )
            .unwrap();
        let StatementOutcome::Answer {
            relation, verified, ..
        } = session.execute(&probe).unwrap()
        else {
            panic!("expected an answer")
        };
        assert_eq!(session.plan_cache().hits(), 1);
        assert_eq!(verified, Some(true));
        assert_eq!(eager_inline(&session), 2);
        let gold = vec![Value::Str("gold".into()), Value::Int(1), Value::Int(105)];
        assert!(relation.rows.contains(&gold), "{relation}");
    }

    /// `EXPLAIN` names the inline summary the serving path would build;
    /// `EXPLAIN ANALYZE` names the one it built and the session's count.
    #[test]
    fn explain_names_the_inline_summary() {
        let script =
            format!("{EAGER_SETUP}\n EXPLAIN {EAGER_PROBE}; EXPLAIN ANALYZE {EAGER_PROBE};");
        let outcomes = run(&script, false);
        let n = outcomes.len();
        let (StatementOutcome::Explanation(plain), StatementOutcome::Explanation(analyzed)) =
            (&outcomes[n - 2], &outcomes[n - 1])
        else {
            panic!("expected two explanations")
        };
        assert_eq!(plain[0], "no views defined");
        assert!(
            plain[1]
                .starts_with("-- eager: no stored view answers; inline summary: WITH Eager1 AS"),
            "{plain:#?}"
        );
        assert_eq!(
            analyzed[0],
            "-- no usable view; answered from inline summary Eager1 over base tables"
        );
        assert!(
            analyzed
                .iter()
                .any(|l| l.starts_with("-- eager: inline summary built")
                    && l.ends_with("eager_inline=1")),
            "{analyzed:#?}"
        );
    }

    /// The serving decision the plan cache holds for `q`: (has a
    /// rewriting, has a compiled plan). Counts as a cache hit.
    fn cached_decision(session: &mut Session, q: &Query) -> (bool, bool) {
        let key = cache_key(session.state(), q).expect("cacheable");
        let cached = session.plan_cache.lookup(&key).expect("cached");
        (cached.rewriting.is_some(), cached.plan.is_some())
    }

    /// A summary that cannot be built — `SUM` over a string in a `Calls`
    /// row no plan matches, which the join would drop — falls back to the
    /// base tables, and the cache keeps the compiled base-table plan.
    #[test]
    fn inline_summary_failure_falls_back_to_the_base_tables() {
        let mut session = Session::new(SessionOptions::default());
        let script = format!("{EAGER_SETUP}\n INSERT INTO Calls VALUES (9, 7, 1, 'x');");
        session.run_script(&parse_script(&script).unwrap()).unwrap();
        let probe = Statement::Select(aggview_sql::parse_query(EAGER_PROBE).unwrap());
        for _ in 0..2 {
            let outcome = session.execute(&probe).unwrap();
            let StatementOutcome::Answer {
                relation, executed, ..
            } = &outcome
            else {
                panic!("expected an answer")
            };
            assert!(executed.starts_with("SELECT"), "{executed}");
            assert!(outcome
                .to_string()
                .starts_with("-- no usable view; evaluated against base tables"));
            assert_eq!(
                relation.sorted_rows(),
                vec![
                    vec![Value::Str("basic".into()), Value::Int(1), Value::Int(10)],
                    vec![Value::Str("basic".into()), Value::Int(2), Value::Int(8)],
                    vec![Value::Str("gold".into()), Value::Int(1), Value::Int(5)],
                ]
            );
        }
        assert_eq!(session.plan_cache().hits(), 1);
        assert_eq!(eager_inline(&session), 0);
        let Statement::Select(q) = &probe else {
            unreachable!()
        };
        assert_eq!(cached_decision(&mut session, q), (false, true));
    }

    /// A summary that keeps more than half of its input's rows (grouped
    /// by `Calls`' key) answers the miss, and the cache then holds the
    /// base-table plan: later arrivals run the parent's plan.
    #[test]
    fn unshrunk_summary_caches_the_base_table_plan() {
        let mut session = Session::new(SessionOptions::default());
        let rows: Vec<String> = (10..2010)
            .map(|i| format!("({i}, {}, {}, {i})", 1 + i % 2, i % 28))
            .collect();
        let script = format!(
            "{EAGER_SETUP}\n INSERT INTO Calls VALUES {};",
            rows.join(", ")
        );
        session.run_script(&parse_script(&script).unwrap()).unwrap();
        let q = aggview_sql::parse_query(
            "SELECT Call_Id, Plan_Name, SUM(Charge) FROM Calls, Calling_Plans
             WHERE Calls.Plan_Id = Calling_Plans.Plan_Id GROUP BY Call_Id, Plan_Name",
        )
        .unwrap();
        let probe = Statement::Select(q.clone());
        let StatementOutcome::Answer {
            relation, executed, ..
        } = session.execute(&probe).unwrap()
        else {
            panic!("expected an answer")
        };
        assert!(executed.starts_with("WITH Eager1 AS"), "{executed}");
        assert_eq!(eager_inline(&session), 1);
        let StatementOutcome::Answer {
            relation: again,
            executed,
            ..
        } = session.execute(&probe).unwrap()
        else {
            panic!("expected an answer")
        };
        assert!(executed.starts_with("SELECT"), "{executed}");
        assert_eq!(eager_inline(&session), 1);
        assert_eq!(session.plan_cache().hits(), 1);
        assert_eq!(relation.sorted_rows(), again.sorted_rows());
        assert_eq!(cached_decision(&mut session, &q), (false, true));
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
