//! The top-level rewriter and multi-view iteration — Section 3.2.
//!
//! [`Rewriter::rewrite`] finds **all** rewritings of a query using any
//! number of the given materialized views, by iterating single-view
//! substitutions: each successive rewriting treats previously incorporated
//! views as database tables. Theorem 3.2 guarantees that, for conjunctive
//! views with equality predicates, this iteration is sound, Church-Rosser
//! (order-independent) and complete. States are deduplicated by their
//! *application set* — which view was applied to which (provenance-labeled)
//! occurrences — which is exactly the invariant the Church-Rosser property
//! provides.
//!
//! Routing per candidate (query state, view):
//! * conjunctive view → Section 3 ([`crate::conjunctive`]),
//! * aggregation view + aggregation query → Section 4
//!   ([`crate::aggregate`]),
//! * aggregation view + conjunctive query → rejected (Section 4.5),
//! * conjunctive view + conjunctive query, both provably sets → Section 5
//!   many-to-1 mappings ([`crate::set_mode`]) in addition to the 1-1 ones.
//!
//! # Search architecture
//!
//! The search is a breadth-first walk over states: a FIFO queue of states,
//! each expanded against every prepared view in pool order, every
//! successor appended behind the queue. A state is identified by its
//! application set, and Theorem 3.2's Church-Rosser property is what makes
//! deduplicating on that set complete: every interleaving of the same view
//! applications converges to the same state, so the first one reached
//! stands for all of them. The output is therefore ordered by depth, then
//! state, then view, then mapping enumeration order, and the
//! `max_rewritings` cut-off stops the walk at the rewriting that reaches it.
//!
//! Three optimizations keep candidate evaluation cheap:
//! * a **prefilter index** ([`TableSignature`]) rejects `(state, view)`
//!   pairs whose per-relation occurrence counts already rule out any
//!   column mapping (a necessary condition for C1), before
//!   [`enumerate_mappings`] runs;
//! * **per-pair closure universes**: the closure a `(state, view)` pair
//!   reasons over spans the state's columns and constants plus *that*
//!   view's constants only. Pooling every candidate view's constants into
//!   one shared universe (the obvious alternative) makes each closure
//!   `O(pool size)` wide and the whole search superlinear in the number of
//!   candidate views, yet enables no extra derivations: every implication
//!   checked for the pair only mentions the pair's own terms, and
//!   constant-to-constant order facts are derived directly from values;
//! * a **closure cache** ([`crate::ClosureCache`]) memoizes
//!   [`PredClosure::build`] keyed by `(conds, universe)`, shared across
//!   states and repeated `rewrite` calls on one [`Rewriter`].
//!
//! [`Rewriter::rewrite_with_stats`] reports counters and per-phase wall
//! times for all of the above as [`RewriteStats`].

use crate::aggregate::{rewrite_aggregate, VaMode};
use crate::canon::{Atom, CanonError, Canonical, Term};
use crate::closure::{ClosureCache, PredClosure};
use crate::conjunctive::{is_conjunctive, is_conjunctive_core, rewrite_conjunctive};
use crate::cost::{estimate_cost, TableStats};
use crate::expand::rewrite_expand;
use crate::explain::{CandidateMode, CandidateReport, WhyNot};
use crate::having::normalize_having;
use crate::mapping::{enumerate_mappings, Mapping, TableSignature};
use crate::set_mode::{result_is_set, rewrite_set_mode};
use aggview_catalog::{Catalog, SchemaSource};
use aggview_sql::ast::Query;
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};
use std::fmt;
use std::time::{Duration, Instant};

/// A materialized view: a name and its defining query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewDef {
    /// The view's name (how rewritten queries reference it).
    pub name: String,
    /// The defining query.
    pub query: Query,
}

impl ViewDef {
    /// Create a view definition.
    pub fn new(name: impl Into<String>, query: Query) -> Self {
        ViewDef {
            name: name.into(),
            query,
        }
    }

    /// The view's output column names (see [`Query::output_names`]).
    pub fn output_names(&self) -> Vec<String> {
        self.query.output_names()
    }
}

/// Rewriting strategy for the Section 4 multiplicity machinery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Weighted aggregates (`SUM(N·A)` …) — always sound, no auxiliary
    /// views. The default.
    #[default]
    Weighted,
    /// The paper's `V^a` auxiliary-view construction where it is sound
    /// (see `DESIGN.md`), weighted aggregates otherwise.
    PaperFaithful,
}

/// Options controlling the rewriter.
#[derive(Debug, Clone)]
pub struct RewriteOptions {
    /// Section 4 strategy.
    pub strategy: Strategy,
    /// Enable Section 5 many-to-1 rewritings (needs catalog keys).
    pub enable_set_mode: bool,
    /// Iterate to find multi-view rewritings (Section 3.2); otherwise only
    /// single-view rewritings are produced.
    pub multi_view: bool,
    /// Stop after this many rewritings.
    pub max_rewritings: usize,
    /// Maximum number of view applications per rewriting.
    pub max_depth: usize,
    /// Apply the Section 3.3 HAVING move-around normalization before
    /// checking usability (on by default; off only for ablation studies).
    pub normalize_having: bool,
    /// Enable the footnote-3 "expand" extension: answer *conjunctive*
    /// queries from aggregation views by joining with the interpreted
    /// `Nat` table on `Nat.k <= count`. Rewritings produced this way set
    /// [`Rewriting::requires_nat`] and need the `Nat` relation at
    /// execution time (`aggview::run::ensure_nat`).
    pub enable_expand: bool,
    /// Consult the [`TableSignature`] index before enumerating mappings.
    /// On by default; turning it off is an ablation switch for tests and
    /// benchmarks — it never changes the produced rewritings.
    pub prefilter: bool,
}

impl Default for RewriteOptions {
    fn default() -> Self {
        RewriteOptions {
            strategy: Strategy::Weighted,
            enable_set_mode: true,
            multi_view: true,
            max_rewritings: 64,
            max_depth: 8,
            normalize_having: true,
            enable_expand: false,
            prefilter: true,
        }
    }
}

/// Counters and timings from one [`Rewriter::rewrite_with_stats`] call.
#[derive(Debug, Clone, Default)]
pub struct RewriteStats {
    /// States popped from the search queue and expanded.
    pub states_expanded: usize,
    /// `(state, view)` pairs rejected by the signature prefilter (or by
    /// mode routing) before mapping enumeration.
    pub candidates_prefiltered: usize,
    /// `(state, view)` pairs that reached mapping enumeration.
    pub candidates_attempted: usize,
    /// Total column mappings enumerated across all attempted pairs.
    pub mappings_enumerated: usize,
    /// Rewritings produced.
    pub rewritings: usize,
    /// Closure-cache hits during this call.
    pub closure_cache_hits: u64,
    /// Closure-cache misses during this call.
    pub closure_cache_misses: u64,
    /// Wall time spent canonicalizing the query and views.
    pub prepare_time: Duration,
    /// Wall time spent in the search itself.
    pub search_time: Duration,
    /// Serving-layer plan-cache hits (the search and planning above were
    /// skipped entirely). Filled in by the session, not the search.
    pub plan_cache_hits: u64,
    /// Serving-layer plan-cache misses (this search ran).
    pub plan_cache_misses: u64,
    /// Serving-layer plan-cache entries invalidated by catalog or data
    /// changes since the session started.
    pub plan_cache_invalidations: u64,
    /// Serving-layer plan-cache hits on a query-shape template: a
    /// constant variant of an earlier query whose cached choice was
    /// replayed (also counted in `plan_cache_hits`).
    pub plan_cache_template_hits: u64,
    /// Template replays that found no rewriting matching the cached
    /// choice, so the full search ran.
    pub plan_cache_replay_rejects: u64,
    /// Is this session a handle on a shared concurrent store? When
    /// false, the `store_*` counters below are meaningless. Filled in by
    /// the session, not the search.
    pub store_attached: bool,
    /// Publish sequence number of the snapshot this query was served
    /// from (shared store only).
    pub store_epoch: u64,
    /// Schema epoch of that snapshot (DDL statements applied so far).
    pub store_schema_epoch: u64,
    /// Store-cumulative snapshots published.
    pub store_publishes: u64,
    /// Store-cumulative write batches applied.
    pub store_batches: u64,
    /// Store-cumulative write statements applied across all batches.
    pub store_batched_ops: u64,
    /// Largest write batch the store has applied.
    pub store_max_batch: u64,
}

impl RewriteStats {
    /// Closure-cache hits as a fraction of lookups (0.0 when none).
    pub fn closure_hit_rate(&self) -> f64 {
        let total = self.closure_cache_hits + self.closure_cache_misses;
        if total == 0 {
            0.0
        } else {
            self.closure_cache_hits as f64 / total as f64
        }
    }

    /// Prefiltered pairs as a fraction of all candidate pairs (0.0 when
    /// none).
    pub fn prefilter_rate(&self) -> f64 {
        let total = self.candidates_prefiltered + self.candidates_attempted;
        if total == 0 {
            0.0
        } else {
            self.candidates_prefiltered as f64 / total as f64
        }
    }

    /// This search's counters as an observability section. The obs crate
    /// sits below core, so the conversion lives here.
    pub fn search_section(&self) -> aggview_obs::SearchSection {
        aggview_obs::SearchSection {
            states_expanded: self.states_expanded,
            candidates_prefiltered: self.candidates_prefiltered,
            candidates_attempted: self.candidates_attempted,
            mappings_enumerated: self.mappings_enumerated,
            rewritings: self.rewritings,
            closure_cache_hits: self.closure_cache_hits,
            closure_cache_misses: self.closure_cache_misses,
            prepare_ns: self.prepare_time.as_nanos().min(u64::MAX as u128) as u64,
            search_ns: self.search_time.as_nanos().min(u64::MAX as u128) as u64,
        }
    }

    /// The session plan-cache counters as an observability section.
    pub fn plan_cache_section(&self) -> aggview_obs::PlanCacheSection {
        aggview_obs::PlanCacheSection {
            hits: self.plan_cache_hits,
            misses: self.plan_cache_misses,
            invalidations: self.plan_cache_invalidations,
            template_hits: self.plan_cache_template_hits,
            replay_rejects: self.plan_cache_replay_rejects,
        }
    }

    /// The shared-store counters as an observability section.
    pub fn store_section(&self) -> aggview_obs::StoreSection {
        aggview_obs::StoreSection {
            attached: self.store_attached,
            epoch: self.store_epoch,
            schema_epoch: self.store_schema_epoch,
            publishes: self.store_publishes,
            batches: self.store_batches,
            batched_ops: self.store_batched_ops,
            max_batch: self.store_max_batch,
        }
    }

    /// Fold this search's counters and timings into a metrics registry:
    /// the per-search work counters become cumulative registry counters,
    /// and the prepare+search wall time is one observation in the
    /// `rewrite` stage histogram.
    pub fn record_into(&self, registry: &aggview_obs::MetricsRegistry) {
        use aggview_obs::CounterId as C;
        registry.add(C::RewriteStates, self.states_expanded as u64);
        registry.add(C::RewritePrefiltered, self.candidates_prefiltered as u64);
        registry.add(C::RewriteAttempted, self.candidates_attempted as u64);
        registry.add(C::RewriteMappings, self.mappings_enumerated as u64);
        registry.add(C::RewriteEmitted, self.rewritings as u64);
        registry.add(C::ClosureHits, self.closure_cache_hits);
        registry.add(C::ClosureMisses, self.closure_cache_misses);
        let total = self.prepare_time + self.search_time;
        registry.observe_ns(
            aggview_obs::Stage::Rewrite,
            total.as_nanos().min(u64::MAX as u128) as u64,
        );
    }

    /// A one-line human-readable summary (used by the CLI's `:stats`).
    /// Delegates to [`aggview_obs::SearchSection::summary`] — the single
    /// renderer shared with `ObsSnapshot`.
    pub fn summary(&self) -> String {
        self.search_section().summary()
    }

    /// One-line plan-cache summary (`hits/misses/invalidations` are
    /// session-cumulative, unlike the per-search counters above).
    pub fn plan_cache_summary(&self) -> String {
        self.plan_cache_section().summary()
    }

    /// Mean write statements per store batch (0.0 before the first).
    pub fn store_mean_batch(&self) -> f64 {
        self.store_section().mean_batch()
    }

    /// One-line shared-store summary: the snapshot this query read
    /// (publish epoch + schema epoch) and the store-cumulative publish /
    /// write-batch counters. Sessions that own their state report
    /// `store: none`.
    pub fn store_summary(&self) -> String {
        self.store_section().summary()
    }
}

/// A rewriting of the input query that uses one or more views.
#[derive(Debug, Clone)]
pub struct Rewriting {
    /// The rewritten query (references views by name in its `FROM`).
    pub query: Query,
    /// Canonical form of the rewritten query.
    pub canonical: Canonical,
    /// Auxiliary views (`V^a`) to materialize, in order, before `query`.
    pub aux_views: Vec<ViewDef>,
    /// Names of the views used, in application order.
    pub views_used: Vec<String>,
    /// Whether the paper's `V^a` construction was used anywhere.
    pub used_paper_va: bool,
    /// Whether the rewriting relies on Section 5 set semantics (its
    /// guarantee is then set-equivalence; both sides are provably sets).
    pub set_semantics: bool,
    /// Whether the rewriting joins the interpreted `Nat` table (the
    /// footnote-3 expansion) — the executing database must contain it.
    pub requires_nat: bool,
}

impl Rewriting {
    /// A one-line human-readable summary of how this rewriting answers the
    /// query (used by the CLI and the examples).
    pub fn description(&self) -> String {
        let mut parts = vec![format!("uses {:?}", self.views_used)];
        if self.used_paper_va {
            parts.push("via the paper's V^a auxiliary view".to_string());
        }
        if !self.aux_views.is_empty() {
            parts.push(format!(
                "materializes {} auxiliary view(s)",
                self.aux_views.len()
            ));
        }
        if self.set_semantics {
            parts.push("set semantics (Section 5)".to_string());
        }
        if self.requires_nat {
            parts.push("requires the Nat table (footnote 3)".to_string());
        }
        parts.join("; ")
    }

    /// Estimated evaluation cost (main query plus auxiliary views).
    pub fn cost(&self, stats: &TableStats) -> f64 {
        let aux: f64 = self
            .aux_views
            .iter()
            .map(|v| estimate_cost(&v.query, stats))
            .sum();
        aux + estimate_cost(&self.query, stats)
    }
}

/// Errors from [`Rewriter::rewrite`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RewriteError {
    /// The input query failed to canonicalize.
    Query(CanonError),
    /// A view definition failed to canonicalize.
    View {
        /// The offending view.
        view: String,
        /// The underlying error.
        error: CanonError,
    },
    /// Two views (or a view and a base table) share a name.
    DuplicateName(String),
}

impl fmt::Display for RewriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RewriteError::Query(e) => write!(f, "query: {e}"),
            RewriteError::View { view, error } => write!(f, "view `{view}`: {error}"),
            RewriteError::DuplicateName(n) => write!(f, "duplicate relation name `{n}`"),
        }
    }
}

impl std::error::Error for RewriteError {}

/// The rewriting engine.
pub struct Rewriter<'a> {
    catalog: &'a Catalog,
    options: RewriteOptions,
    /// Memoized predicate closures, shared across states, levels, and
    /// repeated `rewrite` calls on this rewriter.
    closure_cache: ClosureCache,
}

struct PreparedView {
    name: String,
    canonical: Canonical,
    out_names: Vec<String>,
    conjunctive: bool,
    /// Conjunctive up to DISTINCT (eligible for Section 5 set semantics).
    conjunctive_core: bool,
    /// Non-DISTINCT aggregation view (Section 4 / footnote-3 routing).
    aggregation_view: bool,
    /// The view's result is provably a set (keys/FDs or DISTINCT).
    result_set: bool,
    /// Prefilter signature of the view's `FROM` list.
    signature: TableSignature,
    /// Constant terms in the view's conditions. The closure universe of a
    /// `(state, view)` candidate is the state's columns and constants plus
    /// *this* view's constants — constants of unrelated views would only
    /// inflate every closure (quadratically, on pools where each view
    /// carries its own constants) without enabling any new derivation.
    consts: Vec<Term>,
}

/// Per-state values hoisted out of the `(state × view)` candidate loop.
struct StateCtx {
    signature: TableSignature,
    is_aggregation: bool,
    /// Set-semantics eligibility of the state (conjunctive core *and*
    /// provably-set result); false when set mode is disabled.
    set_eligible: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ApplyMode {
    /// Sections 3/4 multiset rewriting.
    Multiset,
    /// Section 5 set-semantics rewriting (many-to-1 mapping).
    SetSemantics,
    /// Footnote-3 expansion (conjunctive query, aggregation view).
    Expand,
}

struct State {
    canonical: Canonical,
    labels: Vec<String>,
    apps: BTreeSet<String>,
    aux: Vec<ViewDef>,
    used: Vec<String>,
    used_va: bool,
    set_semantics: bool,
    requires_nat: bool,
}

impl<'a> Rewriter<'a> {
    /// A rewriter with default options.
    pub fn new(catalog: &'a Catalog) -> Self {
        Self::with_options(catalog, RewriteOptions::default())
    }

    /// A rewriter with explicit options.
    pub fn with_options(catalog: &'a Catalog, options: RewriteOptions) -> Self {
        Rewriter {
            catalog,
            options,
            closure_cache: ClosureCache::default(),
        }
    }

    /// The active options.
    pub fn options(&self) -> &RewriteOptions {
        &self.options
    }

    fn prepare(
        &self,
        query: &Query,
        views: &[ViewDef],
    ) -> Result<(Canonical, Vec<PreparedView>), RewriteError> {
        // View schemas are visible to later views and to the query.
        let mut view_schemas: HashMap<String, Vec<String>> = HashMap::new();
        let mut prepared = Vec::with_capacity(views.len());
        for v in views {
            if self.catalog.table(&v.name).is_some() || view_schemas.contains_key(&v.name) {
                return Err(RewriteError::DuplicateName(v.name.clone()));
            }
            let schemas = Chain {
                first: &view_schemas,
                second: self.catalog,
            };
            let mut canonical =
                Canonical::from_query(&v.query, &schemas).map_err(|error| RewriteError::View {
                    view: v.name.clone(),
                    error,
                })?;
            if self.options.normalize_having {
                normalize_having(&mut canonical);
            }
            let out_names = v.output_names();
            view_schemas.insert(v.name.clone(), out_names.clone());
            let conjunctive = is_conjunctive(&canonical);
            let conjunctive_core = is_conjunctive_core(&canonical);
            // A DISTINCT view changes multiplicities and never enters the
            // multiset path; a non-DISTINCT, non-conjunctive view is an
            // aggregation view (Section 4 / footnote-3 routing).
            let aggregation_view = !conjunctive_core && !canonical.distinct;
            let result_set = self.options.enable_set_mode
                && conjunctive_core
                && result_is_set(&canonical, self.catalog);
            let signature = TableSignature::of(&canonical);
            let consts = const_terms_of(&canonical.conds);
            prepared.push(PreparedView {
                name: v.name.clone(),
                canonical,
                out_names,
                conjunctive,
                conjunctive_core,
                aggregation_view,
                result_set,
                signature,
                consts,
            });
        }
        let schemas = Chain {
            first: &view_schemas,
            second: self.catalog,
        };
        let mut q = Canonical::from_query(query, &schemas).map_err(RewriteError::Query)?;
        if self.options.normalize_having {
            normalize_having(&mut q);
        }
        Ok((q, prepared))
    }

    /// Find rewritings of `query` that use the given views. Returns every
    /// rewriting found (possibly none), up to the configured cap.
    pub fn rewrite(
        &self,
        query: &Query,
        views: &[ViewDef],
    ) -> Result<Vec<Rewriting>, RewriteError> {
        self.rewrite_with_stats(query, views).map(|(rws, _)| rws)
    }

    /// [`Rewriter::rewrite`], additionally reporting search counters and
    /// per-phase wall times.
    pub fn rewrite_with_stats(
        &self,
        query: &Query,
        views: &[ViewDef],
    ) -> Result<(Vec<Rewriting>, RewriteStats), RewriteError> {
        let mut stats = RewriteStats::default();
        let cache_before = self.closure_cache.stats();

        let t_prepare = Instant::now();
        let (root, prepared) = self.prepare(query, views)?;
        stats.prepare_time = t_prepare.elapsed();

        let t_search = Instant::now();
        let mut results: Vec<Rewriting> = Vec::new();
        let mut seen: HashSet<BTreeSet<String>> = HashSet::new();
        seen.insert(BTreeSet::new());
        let mut queue: VecDeque<State> = VecDeque::from([State {
            labels: (0..root.tables.len()).map(|i| format!("q{i}")).collect(),
            canonical: root,
            apps: BTreeSet::new(),
            aux: Vec::new(),
            used: Vec::new(),
            used_va: false,
            set_semantics: false,
            requires_nat: false,
        }]);
        // The closure universe, one buffer so it is not reallocated per
        // `(state, view)` pair.
        let mut universe: Vec<Term> = Vec::new();

        'search: while let Some(state) = queue.pop_front() {
            if results.len() >= self.options.max_rewritings {
                break;
            }
            if state.apps.len() >= self.options.max_depth
                || !state.canonical.is_plain() // terminal: derived aggregate forms
                || (!self.options.multi_view && !state.apps.is_empty())
            {
                continue;
            }
            stats.states_expanded += 1;
            let state_consts = const_terms_of(&state.canonical.conds);
            let ctx = StateCtx {
                signature: TableSignature::of(&state.canonical),
                is_aggregation: state.canonical.is_aggregation_query(),
                set_eligible: self.options.enable_set_mode
                    && is_conjunctive_core(&state.canonical)
                    && result_is_set(&state.canonical, self.catalog),
            };
            for view in &prepared {
                if !self.candidate_admissible(&ctx, view) {
                    stats.candidates_prefiltered += 1;
                    continue;
                }
                stats.candidates_attempted += 1;
                // The universe of a pair is the state's columns and
                // constants plus that view's constants, so closure cost is
                // independent of the candidate-pool size.
                universe.clear();
                universe.extend((0..state.canonical.n_cols()).map(Term::Col));
                universe.extend(state_consts.iter().cloned());
                for t in &view.consts {
                    if !universe.contains(t) {
                        universe.push(t.clone());
                    }
                }
                let closure = self
                    .closure_cache
                    .get_or_build(&state.canonical.conds, &universe);
                let mappings = self.candidate_mappings(&state, &ctx, view, &closure);
                stats.mappings_enumerated += mappings.len();
                for (m, mode) in mappings {
                    let Ok(next) = self.apply(&state, view, &m, &closure, mode) else {
                        continue;
                    };
                    if seen.insert(next.apps.clone()) {
                        results.push(Rewriting {
                            query: next.canonical.to_query(),
                            canonical: next.canonical.clone(),
                            aux_views: next.aux.clone(),
                            views_used: next.used.clone(),
                            used_paper_va: next.used_va,
                            set_semantics: next.set_semantics,
                            requires_nat: next.requires_nat,
                        });
                        if results.len() >= self.options.max_rewritings {
                            break 'search;
                        }
                        queue.push_back(next);
                    }
                }
            }
        }
        stats.search_time = t_search.elapsed();
        let cache_after = self.closure_cache.stats();
        stats.closure_cache_hits = cache_after.hits - cache_before.hits;
        stats.closure_cache_misses = cache_after.misses - cache_before.misses;
        stats.rewritings = results.len();
        Ok((results, stats))
    }

    /// The prefilter: could `(state, view)` produce any mapping on any
    /// eligible path? Signature checks are exact w.r.t. C1 (see
    /// [`TableSignature`]); with `prefilter` off, only mode eligibility is
    /// checked (which `candidate_mappings` would re-derive anyway).
    fn candidate_admissible(&self, ctx: &StateCtx, view: &PreparedView) -> bool {
        let one_to_one_path = view.conjunctive
            || (view.aggregation_view && (ctx.is_aggregation || self.options.enable_expand));
        let set_path = view.conjunctive_core && view.result_set && ctx.set_eligible;
        if !self.options.prefilter {
            return one_to_one_path || set_path;
        }
        (one_to_one_path && ctx.signature.admits_one_to_one(&view.signature))
            || (set_path && ctx.signature.admits_many_to_one(&view.signature))
    }

    /// All mappings to try for (state, view): 1-1 always; many-to-1 extras
    /// when Section 5 applies; expansion mappings when footnote 3 applies.
    fn candidate_mappings(
        &self,
        state: &State,
        ctx: &StateCtx,
        view: &PreparedView,
        closure: &PredClosure,
    ) -> Vec<(Mapping, ApplyMode)> {
        let mut out: Vec<(Mapping, ApplyMode)> = Vec::new();

        // Sections 3/4 multiset machinery: duplicate-preserving conjunctive
        // views work for any query; (non-DISTINCT) aggregation views for
        // aggregation queries. A DISTINCT view changes multiplicities and
        // never enters the multiset path. Section 4.5 leaves aggregation
        // view + conjunctive query to the footnote-3 expansion (opt-in).
        if view.conjunctive || (view.aggregation_view && ctx.is_aggregation) {
            // The entailment prune is the search-side copy of C3's first
            // half; the fault-injection flag must disable both copies or
            // the prune silently masks the injected bug.
            let prune = if crate::conjunctive::unsound_skip_c3() {
                None
            } else {
                Some(closure)
            };
            for m in enumerate_mappings(&view.canonical, &state.canonical, true, prune) {
                out.push((m, ApplyMode::Multiset));
            }
        } else if view.aggregation_view && !ctx.is_aggregation && self.options.enable_expand {
            for m in enumerate_mappings(&view.canonical, &state.canonical, true, Some(closure)) {
                out.push((m, ApplyMode::Expand));
            }
        }

        // Section 5 set semantics: conjunctive-core query and view, both
        // provably sets (keys/FDs, or DISTINCT by definition). Many-to-1
        // mappings always; 1-1 mappings too when the multiset path was
        // closed (DISTINCT views).
        if view.conjunctive_core && view.result_set && ctx.set_eligible {
            for m in enumerate_mappings(&view.canonical, &state.canonical, false, Some(closure)) {
                if !m.is_one_to_one() || !view.conjunctive {
                    out.push((m, ApplyMode::SetSemantics));
                }
            }
        }
        out
    }

    fn apply(
        &self,
        state: &State,
        view: &PreparedView,
        mapping: &Mapping,
        closure: &PredClosure,
        mode: ApplyMode,
    ) -> Result<State, WhyNot> {
        let app_label = {
            let mapped: Vec<&str> = mapping
                .occ_map
                .iter()
                .map(|&q| state.labels[q].as_str())
                .collect();
            format!("{}({})", view.name, mapped.join(","))
        };

        let mut aux = state.aux.clone();
        let mut used_va = state.used_va;
        let mut requires_nat = state.requires_nat;
        let canonical = if mode == ApplyMode::Expand {
            requires_nat = true;
            rewrite_expand(
                &state.canonical,
                &view.canonical,
                &view.name,
                &view.out_names,
                mapping,
                closure,
            )?
        } else if mode == ApplyMode::SetSemantics {
            rewrite_set_mode(
                &state.canonical,
                &view.canonical,
                &view.name,
                &view.out_names,
                mapping,
                closure,
                self.catalog,
            )?
        } else if view.conjunctive {
            rewrite_conjunctive(
                &state.canonical,
                &view.canonical,
                &view.name,
                &view.out_names,
                mapping,
                closure,
            )?
        } else {
            // Auxiliary-view names are a pure function of the state: the
            // application depth (apps strictly grows along a branch) makes
            // the name unique within a rewriting.
            let aux_name = format!("{}_va{}", view.name, state.apps.len() + 1);
            let mode = match self.options.strategy {
                Strategy::Weighted => VaMode::Weighted,
                Strategy::PaperFaithful => VaMode::PaperVa,
            };
            let out = rewrite_aggregate(
                &state.canonical,
                &view.canonical,
                &view.name,
                &view.out_names,
                mapping,
                closure,
                mode,
                &aux_name,
            )?;
            for (name, def, out_names) in &out.aux_views {
                let mut ast = def.to_query();
                for (item, n) in ast.select.iter_mut().zip(out_names) {
                    item.alias = Some(n.clone());
                }
                aux.push(ViewDef::new(name.clone(), ast));
            }
            used_va |= out.used_va;
            out.query
        };

        // Provenance labels for the new state: kept occurrences keep their
        // labels (in order); the view (or V^a) occurrence gets the
        // application label.
        let image = mapping.image_occs();
        let mut labels: Vec<String> = (0..state.canonical.tables.len())
            .filter(|i| !image.contains(i))
            .map(|i| state.labels[i].clone())
            .collect();
        labels.push(app_label.clone());
        if mode == ApplyMode::Expand {
            labels.push(format!("Nat:{app_label}"));
        }
        debug_assert_eq!(labels.len(), canonical.tables.len());

        let mut apps = state.apps.clone();
        apps.insert(app_label);
        let mut used = state.used.clone();
        used.push(view.name.clone());

        Ok(State {
            canonical,
            labels,
            apps,
            aux,
            used,
            used_va,
            set_semantics: state.set_semantics || mode == ApplyMode::SetSemantics,
            requires_nat,
        })
    }

    /// Explain, for each view, every candidate single-step mapping on the
    /// original query: the rewriting it yields or the condition it fails.
    pub fn explain(
        &self,
        query: &Query,
        views: &[ViewDef],
    ) -> Result<Vec<CandidateReport>, RewriteError> {
        let (root, prepared) = self.prepare(query, views)?;
        let const_universe = collect_const_terms(&root, &prepared);
        let mut universe: Vec<Term> = (0..root.tables.len())
            .flat_map(|i| root.tables[i].cols())
            .map(Term::Col)
            .collect();
        universe.extend(const_universe);
        let closure = self.closure_cache.get_or_build(&root.conds, &universe);
        let state = State {
            labels: (0..root.tables.len()).map(|i| format!("q{i}")).collect(),
            canonical: root,
            apps: BTreeSet::new(),
            aux: Vec::new(),
            used: Vec::new(),
            used_va: false,
            set_semantics: false,
            requires_nat: false,
        };

        let mut reports = Vec::new();
        for view in &prepared {
            let aggregation_view = view.aggregation_view;
            let conjunctive_query = !state.canonical.is_aggregation_query();
            if aggregation_view && conjunctive_query && !self.options.enable_expand {
                reports.push(CandidateReport {
                    view: view.name.clone(),
                    mapping: None,
                    mode: CandidateMode::Multiset,
                    outcome: Err(WhyNot::AggregationViewForConjunctiveQuery),
                });
                continue;
            }
            // Unpruned enumeration so failures are reported per mapping.
            let one_to_one = enumerate_mappings(&view.canonical, &state.canonical, true, None);
            let mode = if aggregation_view && conjunctive_query {
                ApplyMode::Expand
            } else {
                ApplyMode::Multiset
            };
            let mut any = false;
            if view.conjunctive || aggregation_view {
                for m in &one_to_one {
                    any = true;
                    let outcome = self
                        .apply(&state, view, m, &closure, mode)
                        .map(|s| s.canonical.to_query().to_string());
                    reports.push(CandidateReport {
                        view: view.name.clone(),
                        mapping: Some(m.occ_map.clone()),
                        mode: match mode {
                            ApplyMode::Expand => CandidateMode::Expand,
                            _ => CandidateMode::Multiset,
                        },
                        outcome,
                    });
                }
            }
            // Section 5 candidates (many-to-1; 1-1 too for DISTINCT views).
            if self.options.enable_set_mode
                && view.conjunctive_core
                && is_conjunctive_core(&state.canonical)
            {
                for m in enumerate_mappings(&view.canonical, &state.canonical, false, None) {
                    if m.is_one_to_one() && view.conjunctive {
                        continue; // already reported on the multiset path
                    }
                    any = true;
                    let outcome = self
                        .apply(&state, view, &m, &closure, ApplyMode::SetSemantics)
                        .map(|s| s.canonical.to_query().to_string());
                    reports.push(CandidateReport {
                        view: view.name.clone(),
                        mapping: Some(m.occ_map.clone()),
                        mode: CandidateMode::SetSemantics,
                        outcome,
                    });
                }
            }
            if !any {
                reports.push(CandidateReport {
                    view: view.name.clone(),
                    mapping: None,
                    mode: CandidateMode::Multiset,
                    outcome: Err(WhyNot::NoColumnMapping),
                });
            }
        }
        Ok(reports)
    }
}

fn collect_const_terms(root: &Canonical, views: &[PreparedView]) -> Vec<Term> {
    let mut consts = const_terms_of(&root.conds);
    for v in views {
        for t in &v.consts {
            if !consts.contains(t) {
                consts.push(t.clone());
            }
        }
    }
    consts
}

/// The distinct constant terms mentioned in `conds`, in first-appearance
/// order.
fn const_terms_of(conds: &[Atom]) -> Vec<Term> {
    let mut consts: Vec<Term> = Vec::new();
    let mut push = |t: &Term| {
        if matches!(t, Term::Const(_)) && !consts.contains(t) {
            consts.push(t.clone());
        }
    };
    for a in conds {
        push(&a.lhs);
        push(&a.rhs);
    }
    consts
}

/// Schema chaining: view outputs first, catalog second.
struct Chain<'a> {
    first: &'a HashMap<String, Vec<String>>,
    second: &'a Catalog,
}

impl SchemaSource for Chain<'_> {
    fn table_columns(&self, name: &str) -> Option<Vec<String>> {
        self.first
            .get(name)
            .cloned()
            .or_else(|| self.second.table_columns(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggview_catalog::TableSchema;
    use aggview_sql::parse_query;

    fn telephony_catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.add_table(
            TableSchema::new("Calling_Plans", ["Plan_Id", "Plan_Name"]).with_key(["Plan_Id"]),
        )
        .unwrap();
        cat.add_table(
            TableSchema::new(
                "Calls",
                [
                    "Call_Id", "Cust_Id", "Plan_Id", "Day", "Month", "Year", "Charge",
                ],
            )
            .with_key(["Call_Id"]),
        )
        .unwrap();
        cat
    }

    fn v1() -> ViewDef {
        ViewDef::new(
            "V1",
            parse_query(
                "SELECT Calls.Plan_Id, Plan_Name, Month, Year, \
                 SUM(Charge) AS Monthly_Earnings \
                 FROM Calls, Calling_Plans \
                 WHERE Calls.Plan_Id = Calling_Plans.Plan_Id \
                 GROUP BY Calls.Plan_Id, Plan_Name, Month, Year",
            )
            .unwrap(),
        )
    }

    #[test]
    fn example_1_1_motivating() {
        // The paper's motivating example, end to end.
        let cat = telephony_catalog();
        let q = parse_query(
            "SELECT Calling_Plans.Plan_Id, Plan_Name, SUM(Charge) \
             FROM Calls, Calling_Plans \
             WHERE Calls.Plan_Id = Calling_Plans.Plan_Id AND Year = 1995 \
             GROUP BY Calling_Plans.Plan_Id, Plan_Name \
             HAVING SUM(Charge) < 1000000",
        )
        .unwrap();
        let rewriter = Rewriter::new(&cat);
        let rws = rewriter.rewrite(&q, &[v1()]).unwrap();
        assert_eq!(rws.len(), 1);
        let rw = &rws[0];
        assert_eq!(rw.views_used, vec!["V1"]);
        assert!(rw.aux_views.is_empty());
        assert_eq!(
            rw.query.to_string(),
            "SELECT V1.Plan_Id, V1.Plan_Name, SUM(V1.Monthly_Earnings) FROM V1 \
             WHERE V1.Year = 1995 GROUP BY V1.Plan_Id, V1.Plan_Name \
             HAVING SUM(V1.Monthly_Earnings) < 1000000"
        );
    }

    #[test]
    fn view_must_not_cover_the_query_conditions_it_lacks() {
        // A view missing the join condition is unusable.
        let cat = telephony_catalog();
        let bad_view = ViewDef::new(
            "B",
            parse_query(
                "SELECT Calls.Plan_Id, Plan_Name, Year, SUM(Charge) AS S \
                 FROM Calls, Calling_Plans \
                 WHERE Calls.Plan_Id = Calling_Plans.Plan_Id AND Year = 1994 \
                 GROUP BY Calls.Plan_Id, Plan_Name, Year",
            )
            .unwrap(),
        );
        let q = parse_query(
            "SELECT Calling_Plans.Plan_Id, Plan_Name, SUM(Charge) \
             FROM Calls, Calling_Plans \
             WHERE Calls.Plan_Id = Calling_Plans.Plan_Id AND Year = 1995 \
             GROUP BY Calling_Plans.Plan_Id, Plan_Name",
        )
        .unwrap();
        let rewriter = Rewriter::new(&cat);
        assert!(rewriter.rewrite(&q, &[bad_view]).unwrap().is_empty());
    }

    #[test]
    fn multiple_views_iterate_in_any_order() {
        // Two conjunctive views covering disjoint parts of the query;
        // iteration must find the combined rewriting regardless of order.
        let mut cat = Catalog::new();
        cat.add_table(TableSchema::new("R1", ["A", "B"])).unwrap();
        cat.add_table(TableSchema::new("R2", ["C", "D"])).unwrap();
        let q = parse_query("SELECT A, C FROM R1, R2 WHERE B = 1 AND D = 2").unwrap();
        let va = ViewDef::new("VA", parse_query("SELECT A FROM R1 WHERE B = 1").unwrap());
        let vb = ViewDef::new("VB", parse_query("SELECT C FROM R2 WHERE D = 2").unwrap());
        let rewriter = Rewriter::new(&cat);
        let order1 = rewriter.rewrite(&q, &[va.clone(), vb.clone()]).unwrap();
        let order2 = rewriter.rewrite(&q, &[vb, va]).unwrap();
        // Three rewritings each: {VA}, {VB}, {VA,VB}.
        assert_eq!(order1.len(), 3);
        assert_eq!(order2.len(), 3);
        let sigs = |rws: &[Rewriting]| -> BTreeSet<BTreeSet<String>> {
            rws.iter()
                .map(|r| r.views_used.iter().cloned().collect())
                .collect()
        };
        assert_eq!(sigs(&order1), sigs(&order2));
        // The two-view rewriting mentions both views and no base tables.
        let combined = order1
            .iter()
            .find(|r| r.views_used.len() == 2)
            .expect("combined rewriting");
        assert!(combined
            .query
            .from
            .iter()
            .all(|t| t.table == "VA" || t.table == "VB"));
    }

    #[test]
    fn same_view_used_twice() {
        let mut cat = Catalog::new();
        cat.add_table(TableSchema::new("R1", ["A", "B"])).unwrap();
        let q = parse_query("SELECT x.A, y.A FROM R1 x, R1 y WHERE x.B = y.B").unwrap();
        let v = ViewDef::new("V", parse_query("SELECT A, B FROM R1").unwrap());
        let rewriter = Rewriter::new(&cat);
        let rws = rewriter.rewrite(&q, &[v]).unwrap();
        // V can replace x, y, or both (both assignments of a single
        // replacement are distinct apps; the double use collapses to one
        // canonical app set per pairing).
        let double = rws
            .iter()
            .filter(|r| r.views_used.len() == 2)
            .collect::<Vec<_>>();
        assert!(!double.is_empty());
        for r in &double {
            assert!(r.query.from.iter().all(|t| t.table == "V"));
        }
    }

    #[test]
    fn explain_reports_reasons() {
        let cat = telephony_catalog();
        let q = parse_query(
            "SELECT Plan_Id, SUM(Charge) FROM Calls WHERE Year = 1995 GROUP BY Plan_Id",
        )
        .unwrap();
        // This view groups by Month only and lacks Year — unusable; the
        // report should say why (C2: Plan_Id... actually Year residual).
        let v = ViewDef::new(
            "VM",
            parse_query("SELECT Month, SUM(Charge) AS S FROM Calls GROUP BY Month").unwrap(),
        );
        let rewriter = Rewriter::new(&cat);
        let reports = rewriter.explain(&q, &[v]).unwrap();
        assert_eq!(reports.len(), 1);
        assert!(reports[0].outcome.is_err());
    }

    #[test]
    fn duplicate_view_name_rejected() {
        let cat = telephony_catalog();
        let q = parse_query("SELECT Plan_Id FROM Calls").unwrap();
        let v = ViewDef::new("Calls", parse_query("SELECT Plan_Id FROM Calls").unwrap());
        let rewriter = Rewriter::new(&cat);
        assert_eq!(
            rewriter.rewrite(&q, &[v]).unwrap_err(),
            RewriteError::DuplicateName("Calls".into())
        );
    }

    #[test]
    fn single_view_mode_stops_at_depth_one() {
        let mut cat = Catalog::new();
        cat.add_table(TableSchema::new("R1", ["A", "B"])).unwrap();
        cat.add_table(TableSchema::new("R2", ["C", "D"])).unwrap();
        let q = parse_query("SELECT A, C FROM R1, R2").unwrap();
        let va = ViewDef::new("VA", parse_query("SELECT A FROM R1").unwrap());
        let vb = ViewDef::new("VB", parse_query("SELECT C FROM R2").unwrap());
        let opts = RewriteOptions {
            multi_view: false,
            ..RewriteOptions::default()
        };
        let rewriter = Rewriter::with_options(&cat, opts);
        let rws = rewriter.rewrite(&q, &[va, vb]).unwrap();
        assert_eq!(rws.len(), 2);
        assert!(rws.iter().all(|r| r.views_used.len() == 1));
    }

    #[test]
    fn view_over_view_chains() {
        // VB is defined over VA; rewriting can chain through both.
        let mut cat = Catalog::new();
        cat.add_table(TableSchema::new("R1", ["A", "B"])).unwrap();
        let q = parse_query("SELECT A FROM R1 WHERE B = 3").unwrap();
        let va = ViewDef::new("VA", parse_query("SELECT A, B FROM R1").unwrap());
        let vb = ViewDef::new("VB", parse_query("SELECT A FROM VA WHERE B = 3").unwrap());
        let rewriter = Rewriter::new(&cat);
        let rws = rewriter.rewrite(&q, &[va, vb]).unwrap();
        // {VA}, then {VA,VB} via mapping VB onto the VA occurrence.
        let sigs: BTreeSet<Vec<String>> = rws.iter().map(|r| r.views_used.clone()).collect();
        assert!(sigs.contains(&vec!["VA".to_string()]));
        assert!(sigs.contains(&vec!["VA".to_string(), "VB".to_string()]));
    }

    #[test]
    fn set_mode_rewriting_via_rewriter() {
        // Example 5.1 through the public API.
        let mut cat = Catalog::new();
        cat.add_table(TableSchema::new("R1", ["A", "B", "C"]).with_key(["A"]))
            .unwrap();
        let q = parse_query("SELECT A FROM R1 WHERE B = C").unwrap();
        let v = ViewDef::new(
            "V1",
            parse_query("SELECT u.A AS A1, w.A AS A2 FROM R1 u, R1 w WHERE u.B = w.C").unwrap(),
        );
        let rewriter = Rewriter::new(&cat);
        let rws = rewriter.rewrite(&q, std::slice::from_ref(&v)).unwrap();
        let set_rw = rws.iter().find(|r| r.set_semantics).expect("set rewriting");
        assert_eq!(
            set_rw.query.to_string(),
            "SELECT V1.A1 FROM V1 WHERE V1.A1 = V1.A2"
        );
        // Without keys, no rewriting exists at all.
        let mut cat2 = Catalog::new();
        cat2.add_table(TableSchema::new("R1", ["A", "B", "C"]))
            .unwrap();
        let rewriter2 = Rewriter::new(&cat2);
        assert!(rewriter2.rewrite(&q, &[v]).unwrap().is_empty());
    }

    #[test]
    fn paper_va_strategy_produces_aux_views() {
        let mut cat = Catalog::new();
        cat.add_table(TableSchema::new("R1", ["A", "B", "C", "D"]))
            .unwrap();
        cat.add_table(TableSchema::new("R2", ["E", "F"])).unwrap();
        let q = parse_query("SELECT A, SUM(E) FROM R1, R2 GROUP BY A").unwrap();
        let v = ViewDef::new(
            "V2",
            parse_query("SELECT A, B, SUM(C) AS S, COUNT(C) AS N FROM R1 GROUP BY A, B").unwrap(),
        );
        let opts = RewriteOptions {
            strategy: Strategy::PaperFaithful,
            ..RewriteOptions::default()
        };
        let rewriter = Rewriter::with_options(&cat, opts);
        let rws = rewriter.rewrite(&q, &[v]).unwrap();
        assert_eq!(rws.len(), 1);
        assert!(rws[0].used_paper_va);
        assert_eq!(rws[0].aux_views.len(), 1);
        // The aux view aliases its output columns.
        let aux = &rws[0].aux_views[0];
        assert_eq!(aux.query.output_names(), vec!["A", "cnt_va"]);
    }

    #[test]
    fn description_summarizes() {
        let mut cat = Catalog::new();
        cat.add_table(TableSchema::new("R1", ["A", "B"])).unwrap();
        let q = parse_query("SELECT A FROM R1 WHERE B = 1").unwrap();
        let v = ViewDef::new("V", parse_query("SELECT A, B FROM R1").unwrap());
        let rewriter = Rewriter::new(&cat);
        let rws = rewriter.rewrite(&q, &[v]).unwrap();
        let d = rws[0].description();
        assert!(d.contains("uses [\"V\"]"), "{d}");
    }

    #[test]
    fn no_views_no_rewritings() {
        let cat = telephony_catalog();
        let q = parse_query("SELECT Plan_Id FROM Calls").unwrap();
        let rewriter = Rewriter::new(&cat);
        assert!(rewriter.rewrite(&q, &[]).unwrap().is_empty());
    }

    #[test]
    fn aggregation_view_rejected_for_conjunctive_query() {
        // Section 4.5 via the public API.
        let cat = telephony_catalog();
        let q = parse_query("SELECT Plan_Id, Charge FROM Calls").unwrap();
        let v = ViewDef::new(
            "VC",
            parse_query(
                "SELECT Plan_Id, Charge, COUNT(Call_Id) AS N FROM Calls GROUP BY Plan_Id, Charge",
            )
            .unwrap(),
        );
        let rewriter = Rewriter::new(&cat);
        assert!(rewriter
            .rewrite(&q, std::slice::from_ref(&v))
            .unwrap()
            .is_empty());
        let reports = rewriter.explain(&q, &[v]).unwrap();
        assert_eq!(
            reports[0].outcome,
            Err(WhyNot::AggregationViewForConjunctiveQuery)
        );
    }

    #[test]
    fn max_rewritings_cap_respected() {
        let mut cat = Catalog::new();
        cat.add_table(TableSchema::new("R1", ["A", "B"])).unwrap();
        let q = parse_query("SELECT x.A, y.A, z.A FROM R1 x, R1 y, R1 z").unwrap();
        let v = ViewDef::new("V", parse_query("SELECT A, B FROM R1").unwrap());
        let opts = RewriteOptions {
            max_rewritings: 3,
            ..RewriteOptions::default()
        };
        let rewriter = Rewriter::with_options(&cat, opts);
        let rws = rewriter.rewrite(&q, &[v]).unwrap();
        assert_eq!(rws.len(), 3);
    }
}
