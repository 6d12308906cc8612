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
//! A session comes in three backends with identical statement semantics:
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
//! * **Sharded** ([`Session::on_sharded_store`] /
//!   `ShardedStore::session`): the session drives N shard stores,
//!   routing writes and scattering reads (see [`crate::sharded`]).
//!
//! Every backend keeps a private [`PlanCache`] and rewrite options —
//! only the stored state is shared — and serves a `SELECT` down one
//! path: **decide** (the plan-cache entry, or the search, the cost
//! ranking by the backend's cardinalities and the eager candidate, from
//! the backend's pinned schema), **execute** (the one per-backend step:
//! run the decision on a pinned state, or scatter it to the shards and
//! merge), **finish** (verify, cache a fresh decision once it has
//! served, account the query, build the answer).

use crate::advisor::{
    proposal_lines, workload_proposals, AdvisorMode, AdvisorPolicy, AdvisorState,
};
use crate::eager::{self, Served};
use crate::memo::Reuse;
use crate::plan_cache::{
    AnswerMeta, CacheKey, CachedPlan, Choice, PlanCache, Shape, ShapeKey, DEFAULT_PLAN_CACHE_CAP,
};
use crate::run::{execute_with_aux, rewriting_equivalent};
use crate::server::{SharedStore, StoreSnapshot, WriteOp};
use crate::sharded::{gather, gather_plan, scatter, ShardedStore, UnionState};
use crate::state::{is_advisor_view_name, Applied, EngineState, WritePolicy};
use aggview_core::advisor::{suggest_views, ViewSuggestion};
use aggview_core::{
    Canonical, RewriteOptions, RewriteStats, Rewriter, Rewriting, TableStats, ViewDef,
};
use aggview_engine::shard::GatherPlan;
use aggview_engine::{
    execute_ctx, multiset_eq, set_eq, Database, ExecContext, PhysicalPlan, Relation, Table,
};
use aggview_obs::{
    CounterId, Format, MetricsRegistry, ObsOptions, ObsSnapshot, QuerySection, Stage, StoreSection,
};
use aggview_sql::{Query, Statement};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// Session configuration: `Default`, or struct-update syntax over it
/// (`SessionOptions { verify: true, ..Default::default() }`).
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

/// Where a session's state lives. Every backend gives the select path
/// the same two inputs — the pinned state decisions are made from
/// ([`Backend::schema`]) and the cardinalities they are ranked by
/// ([`Backend::stats`]) — and differs only in where an answer's rows
/// come from ([`Target`]) and where writes go.
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
    /// The session drives a [`ShardedStore`].
    Sharded(Box<Driver>),
}

/// A sharded session's driver. Writes route through `store` (DDL
/// broadcast, DML by partition key); reads scatter to `shards`, one
/// handle session per shard, and gather with the §4 recombination
/// operators. Decisions come from `schema`, shard 0's pinned snapshot
/// (DDL broadcasts keep every shard's catalog and views identical),
/// ranked by global cardinalities, so they are the decisions an
/// unsharded session makes. `union` caches the unioned shard state —
/// the exact state an unsharded store would hold — built only for what
/// the shards cannot answer and for global-state reads; `consulted`
/// records why the current `SELECT` used it, and `union_built` whether
/// that took a rebuild. `oracle_cache` is the plan cache of `--verify`'s
/// answer on the union, so that its cached decisions age as an
/// unsharded session's do.
struct Driver {
    store: ShardedStore,
    schema: Arc<StoreSnapshot>,
    shards: Vec<Session>,
    union: UnionState,
    consulted: Vec<&'static str>,
    union_built: bool,
    oracle_cache: PlanCache,
}

impl Backend {
    /// The pinned state a serving decision is made from: catalog, views
    /// and the stored relations' schemas.
    fn schema(&self) -> &EngineState {
        match self {
            Backend::Local(state) => state,
            Backend::Shared { snapshot, .. } => &snapshot.state,
            Backend::Sharded(d) => &d.schema.state,
        }
    }

    /// The cardinalities of the stored relations `names` as an unsharded
    /// session sees them (a pinned state reports all of its own).
    fn stats<'n>(
        &mut self,
        names: impl IntoIterator<Item = &'n String>,
        metrics: Option<&Arc<MetricsRegistry>>,
    ) -> Result<TableStats, SessionError> {
        match self {
            Backend::Sharded(d) => d.stats(names, metrics),
            _ => Ok(self.schema().table_stats()),
        }
    }
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
    /// How an inline summary served the most recent `SELECT`, when one
    /// did: the `-- eager:` line of `EXPLAIN ANALYZE`.
    last_served: Option<Served>,
    /// Adaptive-advisor bookkeeping (`None` when the policy mode is
    /// off): claimed fingerprints, created views, budgets.
    advisor: Option<Arc<AdvisorState>>,
}

impl Session {
    /// A fresh session owning its own state.
    pub fn new(options: SessionOptions) -> Self {
        let metrics = options
            .obs
            .enabled
            .then(|| Arc::new(MetricsRegistry::new(&options.obs)));
        let mut state = EngineState::new();
        if let Some(m) = &metrics {
            state.db.set_metrics(Arc::clone(m));
        }
        Session::with_backend(options, Backend::Local(state), metrics)
    }

    /// A session over `backend`, recording into `metrics` when
    /// observability is on.
    fn with_backend(
        options: SessionOptions,
        backend: Backend,
        metrics: Option<Arc<MetricsRegistry>>,
    ) -> Self {
        Session {
            plan_cache: PlanCache::with_cap(options.plan_cache_cap),
            metrics: metrics.filter(|_| options.obs.enabled),
            advisor: advisor_state(&options),
            options,
            backend,
            invalidations_synced: 0,
            last_shard_note: None,
            last_served: None,
        }
    }

    /// A session handle on a shared store (prefer
    /// [`crate::server::SharedStore::session`]). The handle keeps its own
    /// plan cache and rewrite options; state lives in the store — as does
    /// the metrics registry, so every handle's spans and counters land in
    /// one store-wide view (what `serve --metrics` scrapes).
    pub fn on_store(store: SharedStore, options: SessionOptions) -> Self {
        let metrics = store.metrics().cloned();
        let snapshot = store.load();
        Session::with_backend(options, Backend::Shared { store, snapshot }, metrics)
    }

    /// A driver session over a sharded store (prefer
    /// [`crate::sharded::ShardedStore::session`]). The driver keeps its
    /// own plan cache and records into the store's front-door registry;
    /// it owns one inner handle session per shard for scatter execution
    /// (each recording into its shard's registry). Inner handles never
    /// re-verify — the driver's `--verify` compares the gathered answer
    /// against the union instead.
    pub fn on_sharded_store(store: ShardedStore, options: SessionOptions) -> Self {
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
        let metrics = store.metrics().cloned();
        let driver = Driver {
            schema: store.shards()[0].load(),
            store,
            shards,
            union: UnionState::new(),
            consulted: Vec::new(),
            union_built: false,
            oracle_cache: PlanCache::with_cap(options.plan_cache_cap),
        };
        Session::with_backend(options, Backend::Sharded(Box::new(driver)), metrics)
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
        if let Backend::Sharded(d) = &self.backend {
            snap.shards = d.store.shard_sections();
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
            Backend::Sharded(d) => d.union.get_or_build(&d.store, self.metrics.as_ref()),
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
            Backend::Sharded(d) => Some(&d.store),
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

    /// Pin the store's current snapshot (no-op for local sessions) and
    /// align the plan cache with its schema epoch. For a sharded session
    /// this pins shard 0's snapshot and drops a union that a shard
    /// publish has made stale; nothing rebuilds it until it is needed.
    fn refresh(&mut self) {
        match &mut self.backend {
            Backend::Local(_) => {}
            Backend::Shared { store, snapshot } => {
                *snapshot = store.load();
                self.plan_cache.sync_epoch(snapshot.schema_epoch);
            }
            Backend::Sharded(d) => {
                d.schema = d.store.shards()[0].load();
                if d.union.is_stale(&d.store) {
                    d.union.invalidate();
                }
                self.plan_cache.sync_epoch(d.store.schema_epoch());
                d.oracle_cache.sync_epoch(d.store.schema_epoch());
            }
        }
        self.sync_invalidation_metrics();
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
        let section = match &self.backend {
            Backend::Local(_) => return,
            Backend::Shared { store, snapshot } => StoreSection {
                epoch: snapshot.epoch,
                schema_epoch: snapshot.schema_epoch,
                ..store.store_section()
            },
            Backend::Sharded(d) => d.store.aggregate_section(),
        };
        stats.store_attached = true;
        stats.store_epoch = section.epoch;
        stats.store_schema_epoch = section.schema_epoch;
        stats.store_publishes = section.publishes;
        stats.store_batches = section.batches;
        stats.store_batched_ops = section.batched_ops;
        stats.store_max_batch = section.max_batch;
    }

    /// Execute one write statement on the session's backend: apply
    /// in place (local), submit to the store's writer thread and wait
    /// for the publishing ack (shared), or route it to the shards.
    fn write(&mut self, op: WriteOp) -> Result<Applied, SessionError> {
        if let Some(m) = &self.metrics {
            m.incr(CounterId::Writes);
        }
        let policy = WritePolicy {
            recompute_views: self.options.recompute_views,
            columnar: self.options.columnar,
            durability: false,
        };
        let applied = match &mut self.backend {
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
                Ok(applied)
            }
            Backend::Shared { store, .. } => store.submit(op),
            Backend::Sharded(d) => d.store.apply_write(op),
        };
        // A store's ack guarantees the snapshot containing the write is
        // published: re-pin so the session reads its own write. (Even a
        // refused sharded write may have reached some shards.)
        self.refresh();
        applied
    }

    /// Execute one statement.
    pub fn execute(&mut self, stmt: &Statement) -> Result<StatementOutcome, SessionError> {
        if let Some(m) = &self.metrics {
            m.incr(CounterId::Statements);
        }
        let op = match stmt {
            Statement::CreateTable(ct) => WriteOp::CreateTable(ct.clone()),
            Statement::CreateView(cv) => WriteOp::CreateView(cv.clone()),
            Statement::Insert(ins) => WriteOp::Insert(ins.clone()),
            Statement::Delete(del) => WriteOp::Delete(del.clone()),
            Statement::Select(q) => return self.select(q, self.options.obs.attach_answers),
            Statement::Explain(q) => return self.explain(q),
            Statement::ExplainAnalyze(q) => return self.explain_analyze(q),
            Statement::Suggest(q) => return self.suggest(q),
        };
        self.write(op)
            .map(|applied| StatementOutcome::Ok(applied.message))
    }

    /// Run a whole script, returning per-statement outcomes.
    pub fn run_script(
        &mut self,
        stmts: &[Statement],
    ) -> Result<Vec<StatementOutcome>, SessionError> {
        stmts.iter().map(|s| self.execute(s)).collect()
    }

    fn select(&mut self, q: &Query, attach_obs: bool) -> Result<StatementOutcome, SessionError> {
        self.refresh();
        let sv = Serve {
            q,
            options: &self.options,
            metrics: self.metrics.as_ref(),
            attach: attach_obs,
        };
        let cache = &mut self.plan_cache;
        let (mut outcome, served, note) = match &mut self.backend {
            Backend::Sharded(driver) => driver.select(&sv, cache)?,
            backend => {
                let (outcome, served) = serve(&sv, cache, &mut Target::State(backend.schema()))?;
                (outcome, served, None)
            }
        };
        self.last_served = served;
        self.last_shard_note = note;
        if let StatementOutcome::Answer { search, obs, .. } = &mut outcome {
            self.fill_store_stats(search);
            // The store section is filled after the select path returns,
            // so refresh it on the attached snapshot too.
            if let Some(snap) = obs {
                snap.store = Some(search.store_section());
                if let Backend::Sharded(d) = &self.backend {
                    snap.shards = d.store.shard_sections();
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
        let (Some(advisor), Some(m)) = (self.advisor.clone(), self.metrics.clone()) else {
            return;
        };
        // An answer already served from a view has nothing to gain.
        let StatementOutcome::Answer { views_used, .. } = outcome else {
            return;
        };
        if advisor.policy().mode != AdvisorMode::Auto || !views_used.is_empty() {
            return;
        }
        let Some(key) = cache_key(self.backend.schema(), q) else {
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
        let suggestions = self.suggestions(q).unwrap_or_default();
        let Some(view_query) = suggestions
            .into_iter()
            .find(|s| s.benefit() > 0.0 && s.estimated_rows <= advisor.policy().max_backfill_rows)
            .map(|s| s.view.query)
        else {
            return;
        };
        let name = advisor.next_name();
        m.incr(CounterId::AdvisorProposals);
        let cv = aggview_sql::CreateView {
            name: name.clone(),
            query: view_query,
        };
        // The fingerprint stays claimed on failure: don't retry a failing
        // view on every subsequent arrival.
        let Ok(applied) = self.write(WriteOp::CreateView(cv)) else {
            return;
        };
        advisor.note_created(name);
        m.incr(CounterId::AdvisorCreated);
        // The actual backfill cost: the materialized row count.
        m.add(CounterId::AdvisorBackfillRows, applied.rows_affected as u64);
    }

    /// Current advisor proposals for the observed workload, ranked by
    /// measured benefit (estimated scan cost saved × observed
    /// frequency). Works in every advisor mode — `suggest` and `auto`
    /// differ only in whether proposals are acted on. The REPL's
    /// `:advise`, `aggview advise`, and the net `advise` request all
    /// surface exactly these lines.
    pub fn advise(&mut self) -> Result<StatementOutcome, SessionError> {
        self.refresh();
        let Some(m) = self.metrics.clone() else {
            return Err(err(
                "advisor needs observability enabled (session started with --no-obs)",
            ));
        };
        let catalog = &self.backend.schema().catalog;
        let tables: Vec<String> = catalog.tables().map(|t| t.name.clone()).collect();
        let stats = self.backend.stats(&tables, Some(&m))?;
        let proposals = workload_proposals(&m, &self.backend.schema().catalog, &stats);
        m.add(CounterId::AdvisorProposals, proposals.len() as u64);
        Ok(StatementOutcome::Explanation(proposal_lines(&proposals)))
    }

    /// The advisor bookkeeping, when the policy mode is not off.
    pub fn advisor_state(&self) -> Option<&Arc<AdvisorState>> {
        self.advisor.as_ref()
    }

    fn explain(&mut self, q: &Query) -> Result<StatementOutcome, SessionError> {
        self.refresh();
        let state = self.backend.schema();
        let rewriter = Rewriter::with_options(&state.catalog, self.options.rewrite.clone());
        let reports = rewriter
            .explain(q, &state.views)
            .map_err(|e| err(e.to_string()))?;
        let (rewritings, search) = rewriter
            .rewrite_with_stats(q, &state.views)
            .map_err(|e| err(e.to_string()))?;
        // With no stored rewriting, name the inline summary the serving
        // path would build instead (eager aggregation).
        let stats = if rewritings.is_empty() && q.from.len() > 1 {
            let names = q.from.iter().map(|t| &t.table);
            Some(self.backend.stats(names, self.metrics.as_ref())?)
        } else {
            None
        };
        let state = self.backend.schema();
        let inline = stats
            .and_then(|stats| eager::inline_rewriting(q, state, &stats))
            .map(|rw| {
                format!(
                    "-- eager: no stored view answers; inline summary: {}",
                    eager::executed_text(&rw)
                )
            });
        let mut lines: Vec<String> = reports.iter().map(|r| r.to_string()).collect();
        if lines.is_empty() {
            lines.push("no views defined".to_string());
            if inline.is_none() {
                return Ok(StatementOutcome::Explanation(lines));
            }
        }
        lines.extend(inline);
        // Tail: what the full search does with these candidates, the
        // serving-cache status for this query, and the shared store (if
        // any) — one ObsSnapshot, rendered by the shared renderer.
        let status = match Canonical::from_query(q, &state.db) {
            Ok(canon) => {
                let key = CacheKey::new(&canon, q.output_names());
                let fp = key.fingerprint();
                let cache = &mut self.plan_cache;
                if cache.peek(&key) {
                    format!("cached (fingerprint {fp:016x})")
                } else if let Some(source) =
                    cache.peek_template(&canon, q.output_names(), &state.views, &state.db)
                {
                    format!(
                        "cached by order type (fingerprint {fp:016x}, \
                         template of fingerprint {source:016x})"
                    )
                } else {
                    format!("not cached (fingerprint {fp:016x})")
                }
            }
            Err(_) => "uncacheable (outside the canonical fragment)".to_string(),
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
        let (vec_before, row_before) = (
            self.exec_count(CounterId::ExecVectorized),
            self.exec_count(CounterId::ExecRowFallback),
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
        let (vec_total, row_total) = (
            self.exec_count(CounterId::ExecVectorized),
            self.exec_count(CounterId::ExecRowFallback),
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
        let summary = match self.last_served {
            Some(Served::Summary(Reuse::Reused)) => Some("summary reused".to_string()),
            Some(Served::Summary(Reuse::Built(rows)) | Served::Unshrunk(rows)) => {
                Some(format!("summary built ({rows} rows)"))
            }
            Some(Served::BaseTables) | None => None,
        };
        if let Some(summary) = summary {
            lines.push(format!(
                "-- eager: {summary}; session totals: aux_memo_hits={} aux_memo_builds={} \
                 eager_inline={}",
                self.exec_count(CounterId::AuxMemoHits),
                self.exec_count(CounterId::AuxMemoBuilds),
                self.exec_count(CounterId::EagerInline),
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
            Backend::Sharded(d) => d.store.shards(),
            _ => &[],
        };
        let shard_registries = shards.iter().filter_map(SharedStore::metrics);
        self.metrics
            .iter()
            .chain(shard_registries)
            .map(|m| m.get(id))
            .sum()
    }

    /// The views [`suggest_views`] proposes for `q`, priced by the
    /// cardinalities of `q`'s relations.
    fn suggestions(&mut self, q: &Query) -> Result<Vec<ViewSuggestion>, SessionError> {
        let names = q.from.iter().map(|t| &t.table);
        let stats = self.backend.stats(names, self.metrics.as_ref())?;
        suggest_views(q, &self.backend.schema().catalog, &stats).map_err(|e| err(e.to_string()))
    }

    fn suggest(&mut self, q: &Query) -> Result<StatementOutcome, SessionError> {
        self.refresh();
        let suggestions = self.suggestions(q)?;
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

impl Driver {
    /// The union, brought up to date for `why`.
    fn union_for(
        &mut self,
        why: &'static str,
        metrics: Option<&Arc<MetricsRegistry>>,
    ) -> Result<&EngineState, SessionError> {
        self.union_built |= self.union.rebuild_if_stale(&self.store, metrics)?;
        self.consulted.push(why);
        Ok(self.union.state())
    }

    /// `--verify`'s oracle for a gathered answer: an independent
    /// decision on the union, cached in the union's own plan cache.
    fn oracle(&mut self, sv: &Serve) -> Result<StatementOutcome, SessionError> {
        self.union_for("verify", sv.metrics)?;
        let sv = Serve {
            metrics: None,
            attach: false,
            ..*sv
        };
        let union = &mut Target::State(self.union.state());
        serve(&sv, &mut self.oracle_cache, union).map(|(outcome, _)| outcome)
    }

    /// The cardinalities of the stored relations `names` as an unsharded
    /// session sees them: a base table's is the sum of its shard
    /// partitions, a view's the row count of its gathered definition —
    /// or, when a view's definition does not gather, the union's.
    fn stats<'n>(
        &mut self,
        names: impl IntoIterator<Item = &'n String>,
        metrics: Option<&Arc<MetricsRegistry>>,
    ) -> Result<TableStats, SessionError> {
        let snaps = self.store.load_all();
        let schema = &self.schema.state;
        let mut stats = TableStats::new();
        for name in names {
            let rows = if stats.has(name) {
                continue;
            } else if schema.catalog.table(name).is_some() {
                let parts = snaps
                    .iter()
                    .map(|s| s.state.db.table(name).map_or(0, Table::len));
                parts.sum()
            } else if let Some(view) = schema.views.iter().find(|v| v.name == *name) {
                let plan = gather_plan(schema, &view.query);
                match gather(&plan, &view.query, |q| scatter(&mut self.shards, q)) {
                    Ok((relation, _)) => relation.len(),
                    Err(_) => {
                        let union = self.union_for("cardinalities", metrics)?;
                        return Ok(union.table_stats());
                    }
                }
            } else {
                // An auxiliary view or `Nat`: never stored, so priced at
                // the default, as in an unsharded session.
                continue;
            };
            stats.set(name.clone(), rows);
        }
        Ok(stats)
    }

    /// The sharded `SELECT`: the one select path ([`serve`]) on the
    /// shards when the gather planner decomposes the query, on the union
    /// when it does not (a join, an unaligned view). Also returns the
    /// `-- shards:` line of `EXPLAIN ANALYZE`.
    fn select(
        &mut self,
        sv: &Serve,
        cache: &mut PlanCache,
    ) -> Result<(StatementOutcome, Option<Served>, Option<String>), SessionError> {
        sv.count(CounterId::ShardFanouts);
        self.consulted.clear();
        self.union_built = false;
        let (outcome, served, gathered) = match gather_plan(&self.schema.state, sv.q) {
            GatherPlan::Fallback(reason) => {
                sv.count(CounterId::ShardGatherFallbacks);
                let union = self.union_for("fallback", sv.metrics)?;
                let (outcome, served) = serve(sv, cache, &mut Target::State(union))?;
                (outcome, served, format!("fallback ({reason})"))
            }
            plan => {
                let mut target = Target::Shards {
                    driver: self,
                    plan,
                    gathered: Ok(Vec::new()),
                };
                let (outcome, served) = serve(sv, cache, &mut target)?;
                let Target::Shards { plan, gathered, .. } = target else {
                    unreachable!("the target stays sharded");
                };
                let how = match (gathered, plan) {
                    (Err(e), _) => format!("failed ({e}); served from the union"),
                    (Ok(rows), GatherPlan::Reaggregate(p)) => format!(
                        "re-aggregate ({} partial slot(s)); per-shard rows: {rows:?}",
                        p.slot_count()
                    ),
                    (Ok(rows), _) => format!("concat (disjoint groups); per-shard rows: {rows:?}"),
                };
                (outcome, served, how)
            }
        };
        let why = self.consulted.join(", ");
        let union = match (self.consulted.is_empty(), self.union_built) {
            (true, _) => "not built".to_string(),
            (false, true) => format!("built for {why}"),
            (false, false) => format!("reused for {why}"),
        };
        let n = self.store.shard_count();
        let note = format!("-- shards: {n}; gather: {gathered}; union: {union}");
        Ok((outcome, served, Some(note)))
    }
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

/// One `SELECT`'s inputs besides its backend.
#[derive(Clone, Copy)]
struct Serve<'a> {
    q: &'a Query,
    options: &'a SessionOptions,
    metrics: Option<&'a Arc<MetricsRegistry>>,
    /// Attach an observability snapshot to the answer.
    attach: bool,
}

impl Serve<'_> {
    fn count(&self, id: CounterId) {
        if let Some(m) = self.metrics {
            m.incr(id);
        }
    }
}

/// Where a `SELECT`'s rows come from: the one per-backend step of the
/// select path.
enum Target<'a> {
    /// A pinned state, which the decision runs on: a local session's own,
    /// a shared handle's snapshot, or a sharded driver's union.
    State(&'a EngineState),
    /// A sharded driver's shards, for a query the gather planner
    /// decomposes: scatter, then merge per `plan`. `gathered` is the
    /// per-shard row counts, or why the gather failed (the decision then
    /// ran on the union, so the client sees the unsharded answer or
    /// error).
    Shards {
        driver: &'a mut Driver,
        plan: GatherPlan,
        gathered: Result<Vec<usize>, SessionError>,
    },
}

impl Target<'_> {
    /// The state decisions are made from: catalog, views and the stored
    /// relations' schemas.
    fn schema(&self) -> &EngineState {
        match self {
            Target::State(state) => state,
            Target::Shards { driver, .. } => &driver.schema.state,
        }
    }

    /// The cardinalities the stored relations `rewritings` read have in
    /// the state the answer comes from (all of them for a pinned state).
    fn stats(&mut self, sv: &Serve, rewritings: &[Rewriting]) -> Result<TableStats, SessionError> {
        match self {
            Target::State(state) => Ok(state.table_stats()),
            Target::Shards { driver, .. } => {
                let queries = rewritings
                    .iter()
                    .flat_map(|rw| rw.aux_views.iter().map(|v| &v.query).chain([&rw.query]));
                let names = queries.flat_map(|q| q.from.iter().map(|t| &t.table));
                driver.stats(names, sv.metrics)
            }
        }
    }

    /// Produce the rows of decision `entry`.
    fn execute(
        &mut self,
        sv: &Serve,
        entry: &mut CachedPlan,
    ) -> Result<(Relation, Option<Served>), SessionError> {
        let (driver, plan, gathered) = match self {
            Target::State(state) => return run_decision(sv, entry, &state.db),
            Target::Shards {
                driver,
                plan,
                gathered,
            } => (driver, plan, gathered),
        };
        match gather(plan, sv.q, |sq| scatter(&mut driver.shards, sq)) {
            Ok((mut relation, rows)) => {
                if let Some(m) = sv.metrics {
                    m.add(CounterId::ShardScatterQueries, rows.len() as u64);
                    m.incr(match plan {
                        GatherPlan::Concat => CounterId::ShardConcatMerges,
                        _ => CounterId::ShardReaggMerges,
                    });
                }
                // Adopt the decision's column names (e.g. `min_lo` when
                // served from a view) so the printed header matches the
                // unsharded session byte for byte.
                let columns = entry
                    .rewriting
                    .as_ref()
                    .map_or_else(|| sv.q.output_names(), |rw| rw.query.output_names());
                if relation.arity() == columns.len() {
                    relation.columns = columns;
                }
                *gathered = Ok(rows);
                Ok((relation, None))
            }
            Err(e) => {
                sv.count(CounterId::ShardGatherFallbacks);
                *gathered = Err(e);
                let union = driver.union_for("a failed gather", sv.metrics)?;
                run_decision(sv, entry, &union.db)
            }
        }
    }

    /// `--verify`'s check of an answer. Rows a pinned state produced are
    /// checked by running the decision's rewriting against the base
    /// tables of that state. Gathered rows are compared, metadata and
    /// all, with an independent decision on the union.
    fn verify(
        &mut self,
        sv: &Serve,
        entry: &CachedPlan,
        relation: &Relation,
        served: Option<Served>,
    ) -> Result<Option<bool>, SessionError> {
        if !sv.options.verify {
            return Ok(None);
        }
        let db = match self {
            Target::State(state) => &state.db,
            Target::Shards {
                driver,
                gathered: Ok(_),
                ..
            } => {
                let oracle = driver.oracle(sv)?;
                return Ok(Some(agrees_with(&oracle, &entry.meta, relation)));
            }
            Target::Shards { driver, .. } => &driver.union.state().db,
        };
        match &entry.rewriting {
            Some(rw) if served != Some(Served::BaseTables) => rewriting_equivalent(sv.q, rw, db)
                .map(Some)
                .map_err(|e| err(e.to_string())),
            _ => Ok(None),
        }
    }
}

/// Stage timings of a decision, in the order they ran.
type Stages = Vec<(Stage, u64)>;

/// A `SELECT`'s serving decision.
enum Decision<'c> {
    /// A plan-cache hit: the cached entry, used in place (never cloned).
    Hit(&'c mut CachedPlan),
    /// A template hit: the cached choice of a constant variant, replayed
    /// on this query. Reported as a hit; cached under its literal key once
    /// it has served an answer.
    Replay {
        key: CacheKey,
        entry: Box<CachedPlan>,
        stages: Stages,
    },
    /// A fresh decision and the stage timings of making it; cached under
    /// both keys once it has served an answer.
    Miss {
        key: Option<CacheKey>,
        shape: Option<ShapeKey>,
        entry: Box<CachedPlan>,
        stages: Stages,
    },
}

/// Decide how to serve `sv.q` from `target`'s schema and stats: the
/// plan-cache entry on a hit; the template's choice, replayed, on a hit
/// of a constant variant; otherwise the rewrite search, the cost
/// ranking, the eager candidate when no stored view answers, and — when
/// the target runs decisions on a pinned state — the compiled plan.
fn decide<'c>(
    sv: &Serve,
    target: &mut Target,
    cache: &'c mut PlanCache,
) -> Result<Decision<'c>, SessionError> {
    let q = sv.q;
    let schema = target.schema();
    let canon = Canonical::from_query(q, &schema.db).ok();
    let key = canon.as_ref().map(|c| CacheKey::new(c, q.output_names()));
    if let Some(k) = &key {
        if cache.probe(k) {
            sv.count(CounterId::PlanCacheHits);
            return Ok(Decision::Hit(cache.hit(k)));
        }
    }
    let shape = canon
        .filter(|_| cache.enabled())
        .map(|c| cache.shape_key(&c, q.output_names(), &schema.views, &schema.db));
    let template = shape.as_ref().and_then(|s| cache.lookup_shape(s));
    if let (Some(k), Some(template)) = (&key, template) {
        if let Some((entry, stages)) = replay(sv, target, &template, k.fingerprint())? {
            cache.note_template_hit();
            sv.count(CounterId::PlanCacheHits);
            sv.count(CounterId::PlanCacheTemplateHits);
            let key = k.clone();
            return Ok(Decision::Replay { key, entry, stages });
        }
        cache.note_replay_reject();
        sv.count(CounterId::PlanCacheReplayRejects);
    }
    if key.is_some() {
        cache.note_miss();
        sv.count(CounterId::PlanCacheMisses);
    }
    let schema = target.schema();
    let (mut rewritings, mut search) =
        Rewriter::with_options(&schema.catalog, sv.options.rewrite.clone())
            .rewrite_with_stats(q, &schema.views)
            .map_err(|e| err(e.to_string()))?;
    if rewritings.len() > 1 {
        let stats = target.stats(sv, &rewritings)?;
        rewritings.sort_by(|a, b| a.cost(&stats).total_cmp(&b.cost(&stats)));
    }
    let candidates = rewritings.len();
    // The serving decision: the cheapest stored-view rewriting; failing
    // that, an inline summary over part of `FROM` (eager aggregation,
    // timed as part of the search); failing that, the base tables.
    let mut chosen = rewritings.into_iter().next();
    if chosen.is_none() && q.from.len() > 1 {
        let stats = target.stats(sv, &[])?;
        let t = Instant::now();
        chosen = eager::inline_rewriting(q, target.schema(), &stats);
        search.search_time += t.elapsed();
    }
    if let Some(m) = sv.metrics {
        // Folds the search counters in and observes the rewrite stage
        // with the search's own prepare+search wall time.
        search.record_into(m);
    }
    let rewrite_ns = (search.prepare_time + search.search_time).as_nanos();
    let stages = vec![(Stage::Rewrite, rewrite_ns.min(u64::MAX as u128) as u64)];
    let fingerprint = key.as_ref().map_or(0, CacheKey::fingerprint);
    let (entry, stages) = decision(sv, target, chosen, candidates, fingerprint, search, stages);
    Ok(Decision::Miss {
        key,
        shape,
        entry,
        stages,
    })
}

/// Replay a template's choice on `sv.q`: the rewriter over the pool
/// restricted to the choice's views (and the views `sv.q` reads), kept
/// in pool order, and the candidate with the choice's views and flags —
/// the paper's conditions checked against this query's own constants.
/// An inline choice re-runs the eager planner; a base-table choice needs
/// nothing. `None` when the replay finds no such candidate.
fn replay(
    sv: &Serve,
    target: &mut Target,
    template: &Shape,
    fingerprint: u64,
) -> Result<Option<(Box<CachedPlan>, Stages)>, SessionError> {
    let q = sv.q;
    let t = Instant::now();
    let chosen = match &template.choice {
        Choice::BaseTables => None,
        Choice::Inline => {
            let stats = target.stats(sv, &[])?;
            let Some(rw) = eager::inline_rewriting(q, target.schema(), &stats) else {
                return Ok(None);
            };
            Some(rw)
        }
        Choice::Views { views_used, .. } => {
            let schema = target.schema();
            let reads = |v: &ViewDef| q.from.iter().any(|t| t.table == v.name);
            let pool: Vec<ViewDef> = schema
                .views
                .iter()
                .filter(|v| views_used.contains(&v.name) || reads(v))
                .cloned()
                .collect();
            let rewriter = Rewriter::with_options(&schema.catalog, sv.options.rewrite.clone());
            let Ok(rewritings) = rewriter.rewrite(q, &pool) else {
                return Ok(None);
            };
            let mut matching: Vec<Rewriting> = rewritings
                .into_iter()
                .filter(|rw| Choice::of(Some(rw)) == template.choice)
                .collect();
            if matching.len() > 1 {
                let stats = target.stats(sv, &matching)?;
                matching.sort_by(|a, b| a.cost(&stats).total_cmp(&b.cost(&stats)));
            }
            let Some(rw) = matching.into_iter().next() else {
                return Ok(None);
            };
            Some(rw)
        }
    };
    let replay_ns = t.elapsed().as_nanos().min(u64::MAX as u128) as u64;
    if let Some(m) = sv.metrics {
        m.observe_ns(Stage::Rewrite, replay_ns);
    }
    let (candidates, search) = (template.candidates, RewriteStats::default());
    let stages = vec![(Stage::Rewrite, replay_ns)];
    let made = decision(sv, target, chosen, candidates, fingerprint, search, stages);
    Ok(Some(made))
}

/// A decision for `chosen` (`None` = the base tables): its answer
/// metadata and — when the target runs decisions on a pinned state — its
/// compiled plan, the planning time appended to `stages`.
fn decision(
    sv: &Serve,
    target: &Target,
    chosen: Option<Rewriting>,
    candidates: usize,
    fingerprint: u64,
    search: RewriteStats,
    mut stages: Stages,
) -> (Box<CachedPlan>, Stages) {
    let q = sv.q;
    let meta = match &chosen {
        None => base_meta(q),
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
    // Compile once and cache the plan for canonically identical arrivals:
    // the query itself, or a rewriting that needs no scaffolding (the
    // auxiliary views or inline summary, the Nat table) and so is a single
    // block over stored relations. Scaffolded rewritings cache without a
    // plan — the hit still skips the whole search. Shards compile their
    // own scatter queries.
    let plan = match target {
        Target::State(state) => {
            let span = sv.metrics.map(|m| m.span(Stage::Plan));
            let plan = match &chosen {
                None => compile(sv, q, state),
                Some(rw) if rw.aux_views.is_empty() && !rw.requires_nat => {
                    compile(sv, &rw.query, state)
                }
                Some(_) => None,
            };
            stages.extend(span.map(|s| (Stage::Plan, s.finish())));
            plan
        }
        Target::Shards { .. } => None,
    };
    let entry = Box::new(CachedPlan::new(chosen, plan, meta, fingerprint, search));
    (entry, stages)
}

/// The select path, one for every backend: decide, execute on `target`,
/// finish (verify, cache a fresh decision once it has served, account
/// the query, build the answer). Also returns how an inline summary
/// served the answer, when one did.
fn serve(
    sv: &Serve,
    cache: &mut PlanCache,
    target: &mut Target,
) -> Result<(StatementOutcome, Option<Served>), SessionError> {
    let q = sv.q;
    let start_ns = sv.metrics.map(|m| m.now_ns());
    let mut decision = decide(sv, target, cache)?;
    let entry: &mut CachedPlan = match &mut decision {
        Decision::Hit(entry) => entry,
        Decision::Replay { entry, .. } | Decision::Miss { entry, .. } => entry,
    };
    // The warm path is the one the ≤5% observability-overhead budget
    // protects, so execution is timed with the registry clock alone: one
    // read before, one after, which closes the execute stage and
    // elapsed_ms. (Without a registry an Instant pair times it.)
    let memo_bytes = entry.memo.bytes();
    let exec_start_ns = sv.metrics.map(|m| m.now_ns());
    let t = sv.metrics.is_none().then(Instant::now);
    let (relation, served) = target.execute(sv, entry)?;
    let exec_ns = sv.metrics.zip(exec_start_ns).map(|(m, start)| {
        let ns = m.now_ns().saturating_sub(start);
        m.observe_ns(Stage::Execute, ns);
        ns
    });
    let elapsed_ms = match t {
        Some(t) => t.elapsed().as_secs_f64() * 1e3,
        None => exec_ns.map_or(0.0, |ns| ns as f64 / 1e6),
    };
    let verified = target.verify(sv, entry, &relation, served)?;

    // Finish. A cached decision stands even when a summary no longer
    // shrinks: it was judged on the miss that made it.
    let memo_grew = entry.memo.bytes() > memo_bytes;
    let fingerprint = entry.fingerprint;
    let AnswerMeta {
        executed,
        views_used,
        candidates,
        set_semantics,
    } = entry.meta.clone();
    let executed = match served {
        Some(Served::BaseTables) => q.to_string(),
        _ => executed,
    };
    // An inline summary that failed or did not shrink leaves later
    // arrivals of this query the base-table plan; its template keeps the
    // inline choice, which each variant's replay judges for itself.
    let cacheable = |entry: Box<CachedPlan>| match served {
        Some(Served::Unshrunk(_) | Served::BaseTables) => {
            let plan = compile(sv, q, target.schema());
            CachedPlan::new(None, plan, base_meta(q), fingerprint, entry.search)
        }
        _ => *entry,
    };
    // A hit ran no search: it reports zeroed search counters, and so does
    // a replayed template.
    let (hit, mut search, mut stages) = match decision {
        Decision::Hit(_) => (true, RewriteStats::default(), Vec::new()),
        Decision::Replay { key, entry, stages } => {
            cache.insert(key, cacheable(entry));
            (true, RewriteStats::default(), stages)
        }
        Decision::Miss {
            key,
            shape,
            entry,
            stages,
        } => {
            let search = entry.search.clone();
            if let Some(s) = shape {
                let choice = Choice::of(entry.rewriting.as_ref());
                cache.store_shape(s, choice, candidates, fingerprint);
            }
            if let Some(k) = key {
                cache.insert(k, cacheable(entry));
            }
            (false, search, stages)
        }
    };
    cache.fill_stats(&mut search);
    if memo_grew {
        cache.trim_memos();
    }
    stages.extend(exec_ns.map(|ns| (Stage::Execute, ns)));
    let total_ns = sv
        .metrics
        .zip(start_ns)
        .map_or(0, |(m, start)| m.now_ns().saturating_sub(start));
    let obs = finish_query_obs(sv, fingerprint, hit, total_ns, &stages, &search);
    let answer = StatementOutcome::Answer {
        relation,
        executed,
        views_used,
        candidates,
        verified,
        elapsed_ms,
        set_semantics,
        search: Box::new(search),
        obs,
    };
    Ok((answer, served))
}

/// The metadata of an answer from the base tables.
fn base_meta(q: &Query) -> AnswerMeta {
    AnswerMeta {
        executed: q.to_string(),
        ..AnswerMeta::default()
    }
}

/// Compile `query` against `schema`'s relations. A plan binds relations
/// by name when it runs, so it runs on any state with these schemas.
fn compile(sv: &Serve, query: &Query, schema: &EngineState) -> Option<PhysicalPlan> {
    let mut plan = PhysicalPlan::compile(query, &schema.db).ok()?;
    plan.set_columnar(sv.options.columnar);
    sv.count(CounterId::PlanCompiles);
    Some(plan)
}

/// Per-query observability bookkeeping at the end of the select path:
/// account the query (and its slowness) on the registry and build the
/// attached snapshot when requested.
fn finish_query_obs(
    sv: &Serve,
    fingerprint: u64,
    cached: bool,
    total_ns: u64,
    stages: &[(Stage, u64)],
    search: &RewriteStats,
) -> Option<Box<ObsSnapshot>> {
    let m = sv.metrics?;
    m.note_query(fingerprint, || sv.q.to_string(), total_ns, stages);
    sv.attach.then(|| {
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

/// Execute a serving decision, fresh or cached, on `db`: its compiled
/// plan when it has one, else its rewriting, else the query over the
/// base tables. A rewriting's auxiliary relations come from, and go
/// into, the decision's memo. An inline-summary rewriting answers
/// through [`eager::answer`] and reports how it was served; any other
/// decision reports `None`.
fn run_decision(
    sv: &Serve,
    entry: &mut CachedPlan,
    db: &Database,
) -> Result<(Relation, Option<Served>), SessionError> {
    let cx = ExecContext::columnar(sv.options.columnar);
    let ran = match (&entry.plan, &entry.rewriting) {
        (Some(plan), _) => plan.run(db).map(|rel| (rel, None)),
        (None, Some(rw)) if eager::is_inline(rw) => {
            eager::answer(sv.q, rw, db, &cx, &mut entry.memo).map(|(rel, s)| {
                if s != Served::BaseTables {
                    sv.count(CounterId::EagerInline);
                }
                (rel, Some(s))
            })
        }
        (None, Some(rw)) => execute_with_aux(
            &rw.query,
            &rw.aux_views,
            rw.requires_nat,
            db,
            &cx,
            &mut entry.memo,
        )
        .map(|rel| (rel, None)),
        (None, None) => execute_ctx(sv.q, db, &cx).map(|rel| (rel, None)),
    };
    ran.map_err(|e| err(e.to_string()))
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
        let rel = session.database().table("V").unwrap();
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
    /// `EXPLAIN ANALYZE` says whether this execution built it (and how
    /// big) or reused the memoized build, with the session's counts. A
    /// write to `Calling_Plans`, which the summary does not read, keeps
    /// it; a write to `Calls` rebuilds it.
    #[test]
    fn explain_names_the_inline_summary() {
        let script = format!(
            "{EAGER_SETUP}\n EXPLAIN {EAGER_PROBE}; EXPLAIN ANALYZE {EAGER_PROBE}; \
             EXPLAIN ANALYZE {EAGER_PROBE}; INSERT INTO Calling_Plans VALUES (3, 'x'); \
             EXPLAIN ANALYZE {EAGER_PROBE}; INSERT INTO Calls VALUES (5, 2, 3, 1); \
             EXPLAIN ANALYZE {EAGER_PROBE};"
        );
        let outcomes = run(&script, false);
        let explained: Vec<&Vec<String>> = outcomes
            .iter()
            .filter_map(|o| match o {
                StatementOutcome::Explanation(lines) => Some(lines),
                _ => None,
            })
            .collect();
        let [plain, analyzed @ ..] = &explained[..] else {
            panic!("expected explanations")
        };
        assert_eq!(plain[0], "no views defined");
        assert!(
            plain[1]
                .starts_with("-- eager: no stored view answers; inline summary: WITH Eager1 AS"),
            "{plain:#?}"
        );
        let eager_lines: Vec<&String> = analyzed
            .iter()
            .map(|lines| {
                assert_eq!(
                    lines[0],
                    "-- no usable view; answered from inline summary Eager1 over base tables"
                );
                lines
                    .iter()
                    .find(|l| l.starts_with("-- eager: "))
                    .expect("an eager line")
            })
            .collect();
        assert_eq!(
            eager_lines,
            [
                "-- eager: summary built (3 rows); session totals: aux_memo_hits=0 \
                 aux_memo_builds=1 eager_inline=1",
                "-- eager: summary reused; session totals: aux_memo_hits=1 \
                 aux_memo_builds=1 eager_inline=2",
                "-- eager: summary reused; session totals: aux_memo_hits=2 \
                 aux_memo_builds=1 eager_inline=3",
                "-- eager: summary built (4 rows); session totals: aux_memo_hits=2 \
                 aux_memo_builds=2 eager_inline=4",
            ]
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

    const SHARDED_SETUP: &str = "CREATE TABLE Sales (Region, Product, Amount);
         INSERT INTO Sales VALUES (1, 10, 5), (1, 11, 7), (2, 10, 3), (2, 10, 3), (3, 12, 9);
         CREATE VIEW Totals AS
           SELECT Region, Product, SUM(Amount) AS T, COUNT(Amount) AS N
           FROM Sales GROUP BY Region, Product;";
    const SHARDED_SELECTS: &str = "SELECT Region, SUM(Amount) FROM Sales GROUP BY Region;
         SELECT Product, SUM(Amount), AVG(Amount) FROM Sales GROUP BY Product;
         SELECT COUNT(Amount) FROM Sales;";
    const SHARDED_WRITES: &str = "INSERT INTO Sales VALUES (4, 10, 1), (1, 12, 2);
         INSERT INTO Calls VALUES (5, 2, 1, 100);";

    /// Every backend — local, a shared-store handle, and 1, 2 and 3
    /// shards — gives the same outcome for every statement: acks, and
    /// for answers (concat, re-aggregate, scalar gather, and a join the
    /// shards hand to the union, answered through an inline summary) the
    /// rows as a multiset, `executed`, `views_used`, `candidates`,
    /// `set_semantics` and the column names, on the miss that decides,
    /// the hit that repeats it, and the hit after a write.
    #[test]
    fn sharded_session_matches_local_answers() {
        let parse = |sql| parse_script(sql).expect("parses");
        let mut selects = parse(SHARDED_SELECTS);
        selects.push(Statement::Select(
            aggview_sql::parse_query(EAGER_PROBE).expect("parses"),
        ));
        let stmts: Vec<Statement> = [
            parse(SHARDED_SETUP),
            parse(EAGER_SETUP),
            selects.clone(),
            selects.clone(),
            parse(SHARDED_WRITES),
            selects,
        ]
        .concat();
        let options = SessionOptions {
            verify: true,
            ..SessionOptions::default()
        };
        let reference = Session::new(options.clone())
            .run_script(&stmts)
            .expect("local runs");
        let StatementOutcome::Answer { executed, .. } = &reference[10] else {
            panic!("the join's first answer")
        };
        assert!(executed.starts_with("WITH Eager1 AS ("), "{executed}");
        let mut backends = vec![(
            "shared".to_string(),
            crate::server::SharedStore::with_defaults().session(options.clone()),
        )];
        for shards in [1, 2, 3] {
            let store = crate::sharded::ShardedStore::with_defaults(shards);
            backends.push((format!("{shards} shard(s)"), store.session(options.clone())));
        }
        for (name, mut session) in backends {
            let outcomes = session.run_script(&stmts).expect("runs");
            assert_eq!(outcomes.len(), reference.len());
            for (i, (got, want)) in outcomes.iter().zip(&reference).enumerate() {
                match (got, want) {
                    (StatementOutcome::Ok(g), StatementOutcome::Ok(w)) => {
                        assert_eq!(g, w, "ack #{i} diverged on {name}")
                    }
                    (
                        StatementOutcome::Answer {
                            relation: gr,
                            executed: ge,
                            views_used: gv,
                            candidates: gc,
                            set_semantics: gs,
                            verified: gok,
                            ..
                        },
                        StatementOutcome::Answer {
                            relation: wr,
                            executed: we,
                            views_used: wv,
                            candidates: wc,
                            set_semantics: ws,
                            ..
                        },
                    ) => {
                        assert!(
                            multiset_eq(gr, wr),
                            "answer #{i} diverged on {name}:\n{gr}\nvs\n{wr}"
                        );
                        assert_eq!(gr.columns, wr.columns, "columns #{i} on {name}");
                        assert_eq!(ge, we, "executed #{i} on {name}");
                        assert_eq!(gv, wv, "views #{i} on {name}");
                        assert_eq!(gc, wc, "candidates #{i} on {name}");
                        assert_eq!(gs, ws, "set semantics #{i} on {name}");
                        assert_eq!(gok, &Some(true), "verify #{i} on {name}");
                    }
                    _ => panic!("outcome kind #{i} diverged on {name}"),
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
