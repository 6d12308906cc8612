//! The serving-path rewrite-plan cache.
//!
//! Repeated dashboard-style queries pay the same costs on every arrival:
//! canonicalization, the multi-view rewrite search, cost ranking, and
//! physical planning. This module caches the outcome of all four behind a
//! *canonical* key, so textually different but canonically identical
//! queries (swapped conjuncts, flipped comparisons, renamed bindings)
//! share one entry.
//!
//! ## Keys and collisions
//!
//! The cache key is the **full normalized canonical form**
//! ([`Canonical::normalized`]) plus the query's output column names — not
//! a hash of it. Lookups go through a `HashMap`, whose equality check
//! compares the entire key, so a 64-bit fingerprint collision can never
//! alias two different queries to one entry; the
//! [`Canonical::fingerprint`] is carried for display only.
//!
//! ## Staleness
//!
//! Entries are compiled against the session's relation *schemas* and its
//! set of views. A schema event (`CREATE TABLE`, `CREATE VIEW`) bumps the
//! cache epoch: a later lookup of an older-epoch entry drops it, counts an
//! invalidation, and falls back to the full search (a new view may enable
//! a better rewriting). Data events (`INSERT`, `DELETE`, view maintenance)
//! do **not** invalidate: a [`PhysicalPlan`] binds relations by *name* at
//! run time, join order is chosen per run from live cardinalities, and
//! view maintenance keeps materialized contents fresh — so a cached plan
//! stays correct across writes and only its cost *ranking* can drift
//! (re-ranked on the next recompilation). `tests/session_fuzz.rs` checks
//! cached and uncached sessions agree across interleaved reads and writes.
//!
//! ## Auxiliary relations
//!
//! A decision whose rewriting builds relations before it runs (an
//! inline summary, the paper's `V^a`, `Nat`) keeps those builds in its
//! entry's `memo::AuxMemo`, keyed by the identity of every relation they
//! read, so a repeat reuses them until a write touches one of their
//! inputs. The memo lives and dies with its entry — schema epoch, LRU
//! eviction, and a zero cap (which turns both off) included — and all
//! memos together keep at most `memo::AUX_MEMO_CAP_BYTES`.
//!
//! ## Constants
//!
//! The literal key above holds a query's constants, so each constant
//! variant of a dashboard query (`Year = 1994`, `Year = 1995`, ...)
//! would pay the full search. But the paper's usability conditions
//! (C1–C4, C2'–C4') are decided by the closure of `=, ≠, <, ≤` over the
//! query's and the views' columns and constants (footnote 2), and
//! `aggview_core::closure` reasons about a dense order: its verdicts
//! depend on how the constants *compare* ([`const_cmp`], int/double
//! coercion included), never on their values. So the cache has a second
//! level, keyed by the query's *template* ([`Canonical::lift_constants`]:
//! the normalized form with every constant lifted into a typed slot)
//! plus the *order type* of its constants: each constant's
//! [`const_cmp`] outcome against every other constant of the query and
//! against every constant of the view pool (the views' `WHERE` and
//! `HAVING` constants, collected and sorted once per schema epoch, so a
//! constant's place among them is a binary search). Two queries with
//! one template and one order type get the same search, the same
//! candidates and the same choice. A `SELECT` tries the literal key,
//! then the template key, then runs the full search, which stores both.
//! Both levels share one cap, epoch and LRU; a zero cap turns both off.
//!
//! A template hit *replays* its choice; it does not substitute
//! constants into the cached rewriting. The rewriter emits structural
//! literals of its own (the FALSE residual `0 = 1`), which a
//! value-based substitution cannot tell from a parameter. The replay
//! runs the rewriter on the real query over the pool restricted to the
//! choice's views (in pool order, plus the views the query reads) and
//! takes the candidate with the cached views and flags; an inline
//! summary re-runs the eager planner; a base-table choice needs
//! nothing. The paper's conditions are therefore always checked against
//! the real constants: the order-type argument only has to be right for
//! the replay to *find* the choice a full search would make, and when it
//! finds none the session counts a replay reject, runs the full search
//! and overwrites the template. A replayed decision reports the
//! template's candidate count and zeroed search counters, as a hit does,
//! executes with its own constants, and is stored under its literal key
//! with its own empty memo: a summary built for one constant never
//! serves another (memo slots also match on the view definition).

use crate::memo::{AuxMemo, AUX_MEMO_CAP_BYTES};
use aggview_catalog::SchemaSource;
use aggview_core::closure::const_cmp;
use aggview_core::{Canonical, RewriteStats, Rewriting, ViewDef};
use aggview_engine::PhysicalPlan;
use aggview_sql::Literal;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::OnceLock;

/// Default number of cached plans per session.
pub const DEFAULT_PLAN_CACHE_CAP: usize = 64;

/// Cache key: the full normalized canonical form of the query plus its
/// output column names (aliases never reach the canonical form, but they
/// do name the result columns).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    canon: Canonical,
    output_names: Vec<String>,
}

impl CacheKey {
    /// Build a key from an already-canonicalized query. Callers pass the
    /// raw canonical form; normalization happens here.
    pub fn new(canon: &Canonical, output_names: Vec<String>) -> Self {
        CacheKey {
            canon: canon.normalized(),
            output_names,
        }
    }

    /// Display fingerprint of the canonical form.
    pub fn fingerprint(&self) -> u64 {
        // Already normalized, so this hashes the stored form directly.
        self.canon.fingerprint()
    }
}

/// The second level's key: a query's template (constants lifted out)
/// and the order type of its constants against each other and the view
/// pool's (see the module docs, "Constants").
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct ShapeKey {
    template: CacheKey,
    order: Vec<u32>,
}

/// What a template remembers of a decision: enough to find it again
/// among a constant variant's rewritings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Choice {
    /// Evaluate over the base tables.
    BaseTables,
    /// An inline summary over part of `FROM` (eager aggregation).
    Inline,
    /// A rewriting over stored views, identified by its views and flags.
    Views {
        views_used: Vec<String>,
        set_semantics: bool,
        used_paper_va: bool,
        requires_nat: bool,
    },
}

impl Choice {
    /// The choice a decision's rewriting (`None` = base tables) made.
    pub(crate) fn of(rewriting: Option<&Rewriting>) -> Choice {
        match rewriting {
            None => Choice::BaseTables,
            Some(rw) if rw.views_used.is_empty() => Choice::Inline,
            Some(rw) => Choice::Views {
                views_used: rw.views_used.clone(),
                set_semantics: rw.set_semantics,
                used_paper_va: rw.used_paper_va,
                requires_nat: rw.requires_nat,
            },
        }
    }
}

/// A template entry: the choice, the candidate count its search found,
/// and the display fingerprint of the query whose search made it.
#[derive(Debug, Clone)]
pub(crate) struct Shape {
    pub(crate) choice: Choice,
    pub(crate) candidates: usize,
    pub(crate) source: u64,
    epoch: u64,
    last_used: u64,
}

/// The view pool's constants, sorted within each comparable class
/// (numbers, strings, booleans), for one schema epoch.
#[derive(Debug, Default)]
struct PoolConstants {
    epoch: u64,
    /// Numeric constants other than NaN, as `f64`, ascending.
    numbers: Vec<f64>,
    /// Every numeric constant, NaN included, for the exact fallback.
    numeric: Vec<Literal>,
    /// No integer constant lies beyond ±2^53, so `f64` order is
    /// [`const_cmp`] order on `numbers`.
    exact: bool,
    strings: Vec<String>,
    bools: Vec<bool>,
}

/// The largest magnitude an `i64` keeps exactly as an `f64`.
const EXACT_F64: u64 = 1 << 53;

/// `l` as an `f64` that compares with every other numeric literal as
/// [`const_cmp`] does; `None` for NaN and for integers past ±2^53.
fn exact_f64(l: &Literal) -> Option<f64> {
    match l {
        Literal::Int(v) if v.unsigned_abs() <= EXACT_F64 => Some(*v as f64),
        Literal::Double(v) if !v.is_nan() => Some(*v),
        _ => None,
    }
}

/// One [`const_cmp`] outcome as a key symbol (`None`, incomparable
/// types, is an outcome of its own).
fn outcome(o: Option<Ordering>) -> u32 {
    match o {
        Some(Ordering::Less) => 0,
        Some(Ordering::Equal) => 1,
        Some(Ordering::Greater) => 2,
        None => 3,
    }
}

/// `2 * (elements below) + (an element equals)` in an ascending slice:
/// with a sorted pool this determines the outcome against every element.
fn rank<T>(sorted: &[T], below: impl Fn(&T) -> bool, equal: impl Fn(&T) -> bool) -> u32 {
    let k = sorted.partition_point(below);
    2 * k as u32 + sorted.get(k).is_some_and(equal) as u32
}

impl PoolConstants {
    /// The constants of every view's conditions, canonicalized against
    /// `schemas` (a view that does not canonicalize fails every search,
    /// so it contributes nothing).
    fn of(views: &[ViewDef], schemas: &dyn SchemaSource, epoch: u64) -> PoolConstants {
        let mut pool = PoolConstants {
            epoch,
            exact: true,
            ..PoolConstants::default()
        };
        for v in views {
            let Ok(c) = Canonical::from_query(&v.query, schemas) else {
                continue;
            };
            let (_, constants) = c.lift_constants();
            for l in constants {
                match l {
                    Literal::Str(s) => pool.strings.push(s),
                    Literal::Bool(b) => pool.bools.push(b),
                    number => {
                        match exact_f64(&number) {
                            Some(x) => pool.numbers.push(x),
                            None => pool.exact &= matches!(number, Literal::Double(_)),
                        }
                        pool.numeric.push(number);
                    }
                }
            }
        }
        pool.numbers.sort_by(f64::total_cmp);
        pool.strings.sort();
        pool.bools.sort();
        pool
    }

    /// Append `p`'s place among the pool's constants to `out`.
    fn place(&self, p: &Literal, out: &mut Vec<u32>) {
        match (p, exact_f64(p)) {
            (Literal::Str(s), _) => out.push(rank(&self.strings, |c| c < s, |c| c == s)),
            (Literal::Bool(b), _) => out.push(rank(&self.bools, |c| c < b, |c| c == b)),
            (_, Some(x)) if self.exact => out.push(rank(&self.numbers, |c| *c < x, |c| *c == x)),
            // NaN, or integers `f64` cannot order exactly: every outcome.
            _ => {
                out.push(u32::MAX);
                out.extend(self.numeric.iter().map(|c| outcome(const_cmp(p, c))));
            }
        }
    }
}

/// The order type of `params`: each one's place among the pool's
/// constants and its outcome against every later parameter.
fn order_type(params: &[Literal], pool: &PoolConstants) -> Vec<u32> {
    let mut out = Vec::with_capacity(params.len() * (params.len() + 3) / 2);
    let skip = usize::from(unsound_rank_key());
    for (i, p) in params.iter().enumerate().skip(skip) {
        pool.place(p, &mut out);
        out.extend(params[i + 1..].iter().map(|q| outcome(const_cmp(p, q))));
    }
    out
}

/// Test-only fault injection: leave the first parameter's comparisons
/// out of the order type, so constants on either side of a view's
/// constant share a template. The differential harness must catch the
/// resulting decision drift.
fn unsound_rank_key() -> bool {
    static ON: OnceLock<bool> = OnceLock::new();
    *ON.get_or_init(|| std::env::var_os("AGGVIEW_UNSOUND_RANK_KEY").is_some())
}

/// The answer metadata a session reports alongside a served relation.
#[derive(Debug, Clone, Default)]
pub struct AnswerMeta {
    /// The executed SQL text (for reporting).
    pub executed: String,
    /// Views used by the chosen rewriting.
    pub views_used: Vec<String>,
    /// Number of candidate rewritings the original search produced.
    pub candidates: usize,
    /// The chosen rewriting is equivalent under set semantics only (§5).
    pub set_semantics: bool,
}

/// A cached serving decision: the chosen rewriting (if any), the compiled
/// physical plan (when the executed query is a single block over stored
/// relations), the answer metadata the session reports, and the
/// auxiliary relations its executions built.
#[derive(Debug)]
pub struct CachedPlan {
    /// The rewriting the search chose; `None` = answer from base tables.
    pub rewriting: Option<Rewriting>,
    /// Compiled plan for the executed query. `None` when execution needs
    /// the auxiliary-view / `Nat` scaffolding path (the search is still
    /// skipped; execution falls back to the rewriting interpreter).
    pub plan: Option<PhysicalPlan>,
    /// The answer metadata the session reports on a hit.
    pub meta: AnswerMeta,
    /// Display fingerprint of the canonical key.
    pub fingerprint: u64,
    /// The search stats recorded when the entry was built.
    pub search: RewriteStats,
    /// The rewriting's auxiliary relations, kept across executions.
    pub(crate) memo: AuxMemo,
    epoch: u64,
    last_used: u64,
}

impl CachedPlan {
    /// A decision not yet cached, with no auxiliary relations built.
    pub(crate) fn new(
        rewriting: Option<Rewriting>,
        plan: Option<PhysicalPlan>,
        meta: AnswerMeta,
        fingerprint: u64,
        search: RewriteStats,
    ) -> Self {
        CachedPlan {
            rewriting,
            plan,
            meta,
            fingerprint,
            search,
            memo: AuxMemo::default(),
            epoch: 0,
            last_used: 0,
        }
    }
}

/// A bounded, epoch-validated map from canonical queries to serving
/// plans, with a second level from query templates to their choices.
#[derive(Debug, Default)]
pub struct PlanCache {
    entries: HashMap<CacheKey, CachedPlan>,
    shapes: HashMap<ShapeKey, Shape>,
    pool: Option<PoolConstants>,
    cap: usize,
    epoch: u64,
    external_epoch: u64,
    tick: u64,
    hits: u64,
    misses: u64,
    invalidations: u64,
    template_hits: u64,
    replay_rejects: u64,
}

impl PlanCache {
    /// A cache holding at most `cap` plans (`0` disables caching).
    pub fn with_cap(cap: usize) -> Self {
        PlanCache {
            cap,
            ..PlanCache::default()
        }
    }

    /// Record a schema event (`CREATE TABLE` / `CREATE VIEW`): existing
    /// entries were planned against an older universe of relations and
    /// views, and are invalidated lazily on their next lookup.
    pub fn note_schema_change(&mut self) {
        self.epoch += 1;
    }

    /// Align with an external schema epoch (the shared store's): when the
    /// store-published epoch has moved since the last sync, every cached
    /// plan was compiled against an older catalog universe and is
    /// invalidated lazily, exactly as [`PlanCache::note_schema_change`].
    /// Store-backed sessions call this before every lookup/store, so a
    /// DDL statement from *any* handle invalidates *every* handle's
    /// cached plans.
    pub fn sync_epoch(&mut self, external: u64) {
        if self.external_epoch != external {
            self.external_epoch = external;
            self.epoch += 1;
        }
    }

    /// Look up a serving plan. Counts a hit, a miss, or an invalidation
    /// (stale epoch: the entry is dropped and the miss is reported so the
    /// caller re-runs the search). Returns a reference — the hit path must
    /// not pay a plan clone.
    pub fn lookup(&mut self, key: &CacheKey) -> Option<&CachedPlan> {
        if !self.probe(key) {
            self.misses += 1;
            return None;
        }
        Some(self.hit(key))
    }

    /// Does `key` hold a valid entry? A stale one is dropped and counted
    /// as an invalidation; no hit or miss is counted.
    pub(crate) fn probe(&mut self, key: &CacheKey) -> bool {
        if self.cap == 0 {
            return false;
        }
        match self.entries.get(key) {
            Some(entry) if entry.epoch == self.epoch => true,
            Some(_) => {
                self.entries.remove(key);
                self.invalidations += 1;
                false
            }
            None => false,
        }
    }

    /// The valid entry under `key` (checked by [`PlanCache::probe`]),
    /// counted as a hit.
    pub(crate) fn hit(&mut self, key: &CacheKey) -> &mut CachedPlan {
        self.tick += 1;
        self.hits += 1;
        let tick = self.tick;
        let entry = self.entries.get_mut(key).expect("probed");
        entry.last_used = tick;
        entry
    }

    /// Count a miss: neither level held the query.
    pub(crate) fn note_miss(&mut self) {
        self.misses += 1;
    }

    /// Is a cache level on at all (a zero cap turns both off)?
    pub(crate) fn enabled(&self) -> bool {
        self.cap > 0
    }

    /// The second-level key of a query whose canonical form is `canon`,
    /// against the view pool `views` (whose constants are collected once
    /// per schema epoch, canonicalized against `schemas`).
    pub(crate) fn shape_key(
        &mut self,
        canon: &Canonical,
        output_names: Vec<String>,
        views: &[ViewDef],
        schemas: &dyn SchemaSource,
    ) -> ShapeKey {
        let epoch = self.epoch;
        let pool = match &mut self.pool {
            Some(pool) if pool.epoch == epoch => pool,
            slot => slot.insert(PoolConstants::of(views, schemas, epoch)),
        };
        let (template, params) = canon.lift_constants();
        ShapeKey {
            order: order_type(&params, pool),
            template: CacheKey {
                canon: template,
                output_names,
            },
        }
    }

    /// The template entry under `key`, if valid. A stale one is dropped
    /// uncounted: `invalidations` counts cached decisions, and the stale
    /// decision the template was made with counts on its literal key.
    /// Counts no hit either: the caller counts one once the replay
    /// succeeds.
    pub(crate) fn lookup_shape(&mut self, key: &ShapeKey) -> Option<Shape> {
        if self.cap == 0 {
            return None;
        }
        let shape = self.shapes.get_mut(key)?;
        if shape.epoch != self.epoch {
            self.shapes.remove(key);
            return None;
        }
        self.tick += 1;
        shape.last_used = self.tick;
        Some(shape.clone())
    }

    /// Count a template hit whose replay found the cached choice (also a
    /// plan-cache hit: the search was skipped).
    pub(crate) fn note_template_hit(&mut self) {
        self.hits += 1;
        self.template_hits += 1;
    }

    /// Count a template hit whose replay found no matching rewriting.
    pub(crate) fn note_replay_reject(&mut self) {
        self.replay_rejects += 1;
    }

    /// The fingerprint of the query whose search made the valid template
    /// entry a query with canonical form `canon` would hit, if any. (No
    /// counter side effects — `EXPLAIN`.)
    pub(crate) fn peek_template(
        &mut self,
        canon: &Canonical,
        output_names: Vec<String>,
        views: &[ViewDef],
        schemas: &dyn SchemaSource,
    ) -> Option<u64> {
        if self.cap == 0 {
            return None;
        }
        let key = self.shape_key(canon, output_names, views, schemas);
        self.shapes
            .get(&key)
            .filter(|s| s.epoch == self.epoch)
            .map(|s| s.source)
    }

    /// Store (or overwrite) a template entry.
    pub(crate) fn store_shape(
        &mut self,
        key: ShapeKey,
        choice: Choice,
        candidates: usize,
        source: u64,
    ) {
        if self.cap == 0 {
            return;
        }
        if !self.shapes.contains_key(&key) {
            self.make_room();
        }
        self.tick += 1;
        let shape = Shape {
            choice,
            candidates,
            source,
            epoch: self.epoch,
            last_used: self.tick,
        };
        self.shapes.insert(key, shape);
    }

    /// Is `key` currently cached and valid? (No counter side effects —
    /// used by `EXPLAIN`.)
    pub fn peek(&self, key: &CacheKey) -> bool {
        self.entries.get(key).is_some_and(|e| e.epoch == self.epoch)
    }

    /// Store a serving plan, evicting the least-recently-used entry when
    /// the cache is full.
    pub fn store(
        &mut self,
        key: CacheKey,
        rewriting: Option<Rewriting>,
        plan: Option<PhysicalPlan>,
        meta: AnswerMeta,
        search: RewriteStats,
    ) {
        let fingerprint = key.fingerprint();
        self.insert(
            key,
            CachedPlan::new(rewriting, plan, meta, fingerprint, search),
        );
    }

    /// [`PlanCache::store`] for a whole entry, auxiliary relations its
    /// first execution built included.
    pub(crate) fn insert(&mut self, key: CacheKey, mut entry: CachedPlan) {
        if self.cap == 0 {
            return;
        }
        if !self.entries.contains_key(&key) {
            self.make_room();
        }
        self.tick += 1;
        entry.epoch = self.epoch;
        entry.last_used = self.tick;
        self.entries.insert(key, entry);
    }

    /// Evict the least recently used entry of either level when both
    /// together hold `cap`.
    fn make_room(&mut self) {
        if self.len() < self.cap {
            return;
        }
        let plan = self.entries.iter().min_by_key(|(_, e)| e.last_used);
        let shape = self.shapes.iter().min_by_key(|(_, s)| s.last_used);
        match (plan, shape) {
            (Some((_, e)), Some((k, s))) if s.last_used < e.last_used => {
                let k = k.clone();
                self.shapes.remove(&k);
            }
            (Some((k, _)), _) => {
                let k = k.clone();
                self.entries.remove(&k);
            }
            (None, Some((k, _))) => {
                let k = k.clone();
                self.shapes.remove(&k);
            }
            (None, None) => {}
        }
    }

    /// Clear the memos of the least recently used entries until all of
    /// them together keep at most `memo::AUX_MEMO_CAP_BYTES`.
    pub(crate) fn trim_memos(&mut self) {
        self.trim_memos_to(AUX_MEMO_CAP_BYTES);
    }

    fn trim_memos_to(&mut self, cap: usize) {
        let mut held: usize = self.entries.values().map(|e| e.memo.bytes()).sum();
        let mut by_age: Vec<&mut CachedPlan> = self
            .entries
            .values_mut()
            .filter(|e| e.memo.bytes() > 0)
            .collect();
        by_age.sort_by_key(|e| e.last_used);
        for entry in by_age {
            if held <= cap {
                break;
            }
            held -= entry.memo.bytes();
            entry.memo.clear();
        }
    }

    /// Copy the session-cumulative counters into a stats record (shown by
    /// the REPL's `:stats` and by `EXPLAIN`).
    pub fn fill_stats(&self, stats: &mut RewriteStats) {
        stats.plan_cache_hits = self.hits;
        stats.plan_cache_misses = self.misses;
        stats.plan_cache_invalidations = self.invalidations;
        stats.plan_cache_template_hits = self.template_hits;
        stats.plan_cache_replay_rejects = self.replay_rejects;
    }

    /// Cached entries currently held, templates included.
    pub fn len(&self) -> usize {
        self.entries.len() + self.shapes.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Session-cumulative hits.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Session-cumulative misses.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Session-cumulative invalidations.
    pub fn invalidations(&self) -> u64 {
        self.invalidations
    }

    /// Session-cumulative template hits (also counted in
    /// [`PlanCache::hits`]).
    pub fn template_hits(&self) -> u64 {
        self.template_hits
    }

    /// Session-cumulative template replays that found no match.
    pub fn replay_rejects(&self) -> u64 {
        self.replay_rejects
    }

    /// Current schema epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggview_catalog::{Catalog, TableSchema};
    use aggview_sql::parse_query;

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.add_table(TableSchema::new("T", ["a", "b", "c"]))
            .unwrap();
        cat
    }

    fn key(sql: &str) -> CacheKey {
        let q = parse_query(sql).unwrap();
        let canon = Canonical::from_query(&q, &catalog()).unwrap();
        CacheKey::new(&canon, q.output_names())
    }

    #[test]
    fn canonically_identical_queries_share_a_key() {
        let a = key("SELECT a, SUM(b) FROM T WHERE c = 1 AND b > 2 GROUP BY a");
        let b = key("SELECT x.a, SUM(x.b) FROM T x WHERE 2 < x.b AND 1 = x.c GROUP BY x.a");
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn aliases_on_output_columns_split_keys() {
        // Same canonical body, different result column names: must not
        // share a plan (the cached relation headers would be wrong).
        let a = key("SELECT a, SUM(b) AS total FROM T GROUP BY a");
        let b = key("SELECT a, SUM(b) AS s FROM T GROUP BY a");
        assert_ne!(a, b);
    }

    #[test]
    fn epoch_invalidates_lazily() {
        let mut cache = PlanCache::with_cap(8);
        let k = key("SELECT a FROM T");
        cache.store(
            k.clone(),
            None,
            None,
            AnswerMeta::default(),
            RewriteStats::default(),
        );
        assert!(cache.lookup(&k).is_some());
        assert_eq!(cache.hits(), 1);

        cache.note_schema_change();
        assert!(!cache.peek(&k));
        assert!(cache.lookup(&k).is_none());
        assert_eq!(cache.invalidations(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 0, "stale entry dropped");
    }

    #[test]
    fn lru_eviction_at_cap() {
        let mut cache = PlanCache::with_cap(2);
        let k1 = key("SELECT a FROM T");
        let k2 = key("SELECT b FROM T");
        let k3 = key("SELECT c FROM T");
        for k in [&k1, &k2] {
            cache.store(
                k.clone(),
                None,
                None,
                AnswerMeta::default(),
                RewriteStats::default(),
            );
        }
        // Touch k1 so k2 is the LRU victim.
        assert!(cache.lookup(&k1).is_some());
        cache.store(
            k3.clone(),
            None,
            None,
            AnswerMeta::default(),
            RewriteStats::default(),
        );
        assert_eq!(cache.len(), 2);
        assert!(cache.peek(&k1));
        assert!(!cache.peek(&k2));
        assert!(cache.peek(&k3));
    }

    #[test]
    fn external_epoch_sync_invalidates_lazily() {
        let mut cache = PlanCache::with_cap(8);
        let k = key("SELECT a FROM T");
        cache.sync_epoch(0);
        cache.store(
            k.clone(),
            None,
            None,
            AnswerMeta::default(),
            RewriteStats::default(),
        );
        // Unchanged external epoch: still a hit.
        cache.sync_epoch(0);
        assert!(cache.lookup(&k).is_some());
        // The store published a DDL: the entry must drop on next lookup.
        cache.sync_epoch(1);
        assert!(cache.lookup(&k).is_none());
        assert_eq!(cache.invalidations(), 1);
        // Re-syncing the same external epoch does not churn the cache.
        cache.store(
            k.clone(),
            None,
            None,
            AnswerMeta::default(),
            RewriteStats::default(),
        );
        cache.sync_epoch(1);
        assert!(cache.lookup(&k).is_some());
    }

    /// Past the byte cap, the least recently used entry's memo goes
    /// first; the entry itself stays cached.
    #[test]
    fn memos_are_trimmed_least_recently_used_first() {
        use aggview_core::ViewDef;
        use aggview_engine::{relation::rel_of_ints, Database, ExecContext};
        let mut db = Database::new();
        db.insert("T", rel_of_ints(["a", "b"], &[&[1, 5], &[2, 7]]));
        let built = || {
            let view = ViewDef::new("Aux", parse_query("SELECT a FROM T").unwrap());
            let mut memo = AuxMemo::default();
            memo.materialize(&view, &mut db.clone(), &ExecContext::new())
                .unwrap();
            memo
        };
        let mut cache = PlanCache::with_cap(8);
        let (k1, k2) = (key("SELECT a FROM T"), key("SELECT b FROM T"));
        for k in [&k1, &k2] {
            let mut entry = CachedPlan::new(
                None,
                None,
                AnswerMeta::default(),
                0,
                RewriteStats::default(),
            );
            entry.memo = built();
            cache.insert(k.clone(), entry);
        }
        let one = cache.entries[&k1].memo.bytes();
        assert!(one > 0);
        assert!(cache.lookup(&k1).is_some(), "k2 becomes the LRU entry");
        cache.trim_memos_to(2 * one - 1);
        assert_eq!(cache.entries[&k1].memo.bytes(), one);
        assert_eq!(cache.entries[&k2].memo.bytes(), 0);
        assert_eq!(cache.len(), 2);
    }

    fn shape(cache: &mut PlanCache, sql: &str, views: &[ViewDef]) -> ShapeKey {
        let q = parse_query(sql).unwrap();
        let canon = Canonical::from_query(&q, &catalog()).unwrap();
        cache.shape_key(&canon, q.output_names(), views, &catalog())
    }

    fn view(sql: &str) -> ViewDef {
        ViewDef::new("V", parse_query(sql).unwrap())
    }

    /// Constants share a key exactly when they compare alike with each
    /// other and with the pool's constants, int/double coercion included.
    #[test]
    fn order_type_follows_const_cmp() {
        let views = [view("SELECT a, SUM(b) AS s FROM T WHERE c > 15 GROUP BY a")];
        let mut cache = PlanCache::with_cap(8);
        let mut key = |sql: &str| shape(&mut cache, sql, &views);
        let above = key("SELECT a FROM T WHERE c > 17 AND b < 20");
        assert_eq!(above, key("SELECT a FROM T WHERE c > 25 AND b < 30"));
        assert_eq!(above, key("SELECT a FROM T WHERE b < 30 AND c > 25"));
        assert_ne!(
            above,
            key("SELECT a FROM T WHERE c > 12 AND b < 20"),
            "below 15"
        );
        assert_ne!(
            above,
            key("SELECT a FROM T WHERE c > 15 AND b < 20"),
            "on 15"
        );
        assert_ne!(
            above,
            key("SELECT a FROM T WHERE c > 25 AND b < 20"),
            "c > b"
        );
        let on = key("SELECT a FROM T WHERE c > 15.0");
        assert_eq!(on, key("SELECT a FROM T WHERE c > 15.0"));
        assert_ne!(on, key("SELECT a FROM T WHERE c > 15.5"));
        let s = key("SELECT a FROM T WHERE c = 'x' AND b = 'y'");
        assert_eq!(s, key("SELECT a FROM T WHERE c = 'p' AND b = 'q'"));
        assert_ne!(s, key("SELECT a FROM T WHERE c = 'q' AND b = 'p'"));
    }

    /// Integers an `f64` cannot order exactly compare one by one.
    #[test]
    fn wide_integers_fall_back_to_exact_comparisons() {
        let views = [view("SELECT a FROM T WHERE c > 9007199254740992.0")];
        let mut cache = PlanCache::with_cap(8);
        let mut key = |sql: &str| shape(&mut cache, sql, &views);
        // 2^53 + 1 rounds to 2^53 as an `f64`: equal to the pool's
        // double, unlike 2^53 + 3, which rounds above it.
        assert_ne!(
            key("SELECT a FROM T WHERE c > 9007199254740993"),
            key("SELECT a FROM T WHERE c > 9007199254740995")
        );
    }

    /// Templates live under the same cap, epoch and LRU as plans.
    #[test]
    fn templates_share_cap_epoch_and_lru() {
        let views = [view("SELECT a FROM T WHERE c > 15")];
        let mut cache = PlanCache::with_cap(2);
        let t = shape(&mut cache, "SELECT a FROM T WHERE c > 17", &views);
        cache.store_shape(t.clone(), Choice::BaseTables, 0, 7);
        let (k1, k2) = (key("SELECT a FROM T"), key("SELECT b FROM T"));
        let plan = |cache: &mut PlanCache, k: &CacheKey| {
            let meta = AnswerMeta::default();
            cache.store(k.clone(), None, None, meta, RewriteStats::default());
        };
        plan(&mut cache, &k1);
        assert!(cache.lookup_shape(&t).is_some(), "k1 becomes the LRU entry");
        plan(&mut cache, &k2);
        assert_eq!(cache.len(), 2);
        assert!(!cache.peek(&k1));
        assert_eq!(cache.lookup_shape(&t).map(|s| s.source), Some(7));
        cache.note_schema_change();
        assert!(cache.lookup_shape(&t).is_none(), "stale");
        assert_eq!(cache.len(), 1);
        let mut off = PlanCache::with_cap(0);
        off.store_shape(t.clone(), Choice::BaseTables, 0, 7);
        assert!(off.is_empty());
    }

    #[test]
    fn zero_cap_disables_caching() {
        let mut cache = PlanCache::with_cap(0);
        let k = key("SELECT a FROM T");
        cache.store(
            k.clone(),
            None,
            None,
            AnswerMeta::default(),
            RewriteStats::default(),
        );
        assert!(cache.lookup(&k).is_none());
        assert!(cache.is_empty());
    }
}
