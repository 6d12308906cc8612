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

use crate::memo::{AuxMemo, AUX_MEMO_CAP_BYTES};
use aggview_core::{Canonical, RewriteStats, Rewriting};
use aggview_engine::PhysicalPlan;
use std::collections::HashMap;

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

/// A bounded, epoch-validated map from canonical queries to serving plans.
#[derive(Debug, Default)]
pub struct PlanCache {
    entries: HashMap<CacheKey, CachedPlan>,
    cap: usize,
    epoch: u64,
    external_epoch: u64,
    tick: u64,
    hits: u64,
    misses: u64,
    invalidations: u64,
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
        self.lookup_mut(key).map(|entry| &*entry)
    }

    /// [`PlanCache::lookup`], handing out the entry for its memo.
    pub(crate) fn lookup_mut(&mut self, key: &CacheKey) -> Option<&mut CachedPlan> {
        if self.cap == 0 {
            self.misses += 1;
            return None;
        }
        let fresh = match self.entries.get(key) {
            Some(entry) => entry.epoch == self.epoch,
            None => {
                self.misses += 1;
                return None;
            }
        };
        if !fresh {
            self.entries.remove(key);
            self.invalidations += 1;
            self.misses += 1;
            return None;
        }
        self.tick += 1;
        self.hits += 1;
        let tick = self.tick;
        let entry = self.entries.get_mut(key).expect("checked above");
        entry.last_used = tick;
        Some(entry)
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
        if self.entries.len() >= self.cap && !self.entries.contains_key(&key) {
            if let Some(lru) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                self.entries.remove(&lru);
            }
        }
        self.tick += 1;
        entry.epoch = self.epoch;
        entry.last_used = self.tick;
        self.entries.insert(key, entry);
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
    }

    /// Cached entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
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
