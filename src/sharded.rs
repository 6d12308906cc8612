//! `ShardedStore`: scatter-gather serving over N independent shard
//! stores, justified by the paper's §4 partial-aggregate algebra.
//!
//! Every base table is hash-partitioned by its *shard column* (the first
//! column of its first declared key, or column 0) across N
//! [`SharedStore`]s — each with its own writer thread and snapshot cell,
//! so writes to different shards publish in parallel. The partitioning
//! hash is [`aggview_engine::shard::stable_shard_hash`], the same
//! cross-type twin-key normalization `GroupIndex` uses, so `1` and `1.0`
//! land on the same shard and values past 2^53 go to a deterministic
//! fallback shard.
//!
//! Write routing:
//! * DDL (`CREATE TABLE` / `CREATE VIEW`) broadcasts to every shard, so
//!   all shards share one schema universe and one view list.
//! * `INSERT` rows are validated against the catalog up front (keeping
//!   the unsharded all-or-nothing behavior), then grouped by the shard
//!   of their partition-key value and submitted only to the shards that
//!   received rows.
//! * `DELETE` broadcasts; each shard deletes its own matching rows and
//!   the acks are summed.
//!
//! Reads are routed by the session layer
//! ([`crate::session::Session`]'s `Sharded` backend): plannable
//! aggregates scatter to all shards and gather with the §4 recombination
//! operators ([`aggview_engine::shard::plan_gather`]); everything else
//! is answered on [`UnionState`], the lazily rebuilt union of all shard
//! snapshots, which reproduces unsharded answers (and error messages)
//! exactly.

use crate::server::{SharedStore, StoreSnapshot, WriteOp};
use crate::session::{err, Session, SessionError, SessionOptions};
use crate::state::{Applied, EngineState, WritePolicy};
use aggview_engine::shard::{self, GatherPlan};
use aggview_engine::value::lit_value;
use aggview_obs::{MetricsRegistry, ObsOptions, StoreSection};
use aggview_sql::{Insert, Literal, Query};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// N independent shard stores behind one routing facade. Cloning is
/// cheap (the shard handles are `Arc`-backed); every sharded session
/// owns a clone.
#[derive(Clone)]
pub struct ShardedStore {
    shards: Arc<Vec<SharedStore>>,
    policy: WritePolicy,
    /// The front-door registry the driver session records into (each
    /// shard store additionally keeps its own, surfaced with per-shard
    /// labels). `None` when observability is disabled.
    metrics: Option<Arc<MetricsRegistry>>,
}

impl std::fmt::Debug for ShardedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedStore")
            .field("shards", &self.shards.len())
            .field("schema_epoch", &self.schema_epoch())
            .finish()
    }
}

impl ShardedStore {
    /// A store of `n` shards (clamped to at least 1) with observability
    /// on at the default [`ObsOptions`], mirroring [`SharedStore::new`].
    pub fn new(n: usize, policy: WritePolicy) -> Self {
        ShardedStore::with_obs(n, policy, ObsOptions::default())
    }

    /// A store of `n` shards with the given observability configuration;
    /// each shard store gets its own registry, plus one front-door
    /// registry for the driver session.
    pub fn with_obs(n: usize, policy: WritePolicy, obs: ObsOptions) -> Self {
        let n = n.max(1);
        let shards = (0..n)
            .map(|_| SharedStore::with_obs(policy, obs.clone()))
            .collect();
        let metrics = obs.enabled.then(|| Arc::new(MetricsRegistry::new(&obs)));
        ShardedStore {
            shards: Arc::new(shards),
            policy,
            metrics,
        }
    }

    /// A store of `n` shards with the default write policy.
    pub fn with_defaults(n: usize) -> Self {
        ShardedStore::new(n, WritePolicy::default())
    }

    /// A durable store of `n` shards over `dir`: each shard recovers
    /// and logs under its own `shard-NNN/` subdirectory (independent
    /// WALs and checkpoints, so shard writers never contend on one
    /// file). The shard count is recorded in `shards.meta` on first
    /// open and validated on reopen — rows are hash-routed, so reading
    /// a 2-shard directory as 3 shards would silently misplace data.
    pub fn open(
        dir: impl AsRef<std::path::Path>,
        n: usize,
        policy: WritePolicy,
        obs: ObsOptions,
    ) -> std::io::Result<Self> {
        let dir = dir.as_ref();
        let n = n.max(1);
        std::fs::create_dir_all(dir)?;
        let meta_path = dir.join("shards.meta");
        match std::fs::read_to_string(&meta_path) {
            Ok(meta) => {
                let recorded: usize = meta.trim().parse().map_err(|_| {
                    std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("{}: unreadable shard count", meta_path.display()),
                    )
                })?;
                if recorded != n {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!(
                            "{} was created with {recorded} shard(s); reopen with --shards {recorded}, not {n}",
                            dir.display()
                        ),
                    ));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                std::fs::write(&meta_path, format!("{n}\n"))?;
            }
            Err(e) => return Err(e),
        }
        let shards = (0..n)
            .map(|i| {
                SharedStore::open_with(
                    dir.join(format!("shard-{i:03}")),
                    policy,
                    obs.clone(),
                    crate::durability::DurabilityOptions::default(),
                )
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        let metrics = obs.enabled.then(|| Arc::new(MetricsRegistry::new(&obs)));
        Ok(ShardedStore {
            shards: Arc::new(shards),
            policy,
            metrics,
        })
    }

    /// How many shards this store has.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard stores, in shard order.
    pub fn shards(&self) -> &[SharedStore] {
        &self.shards
    }

    /// The write policy all shards share.
    pub fn policy(&self) -> WritePolicy {
        self.policy
    }

    /// The front-door registry, if observability is on.
    pub fn metrics(&self) -> Option<&Arc<MetricsRegistry>> {
        self.metrics.as_ref()
    }

    /// A driver session over this store.
    pub fn session(&self, options: SessionOptions) -> Session {
        Session::on_sharded_store(self.clone(), options)
    }

    /// Pin every shard's current snapshot, in shard order.
    pub fn load_all(&self) -> Vec<Arc<StoreSnapshot>> {
        self.shards.iter().map(|s| s.load()).collect()
    }

    /// Per-shard publish epochs (the union-staleness fingerprint).
    pub fn epochs(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.epoch()).collect()
    }

    /// The schema epoch all shards share. DDL broadcasts sequentially,
    /// so after any acked write the shards agree; between acks the max
    /// is the value plan caches must invalidate against.
    pub fn schema_epoch(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.schema_epoch())
            .max()
            .unwrap_or(0)
    }

    /// Per-shard store sections (for per-shard labels in metrics output).
    pub fn shard_sections(&self) -> Vec<StoreSection> {
        self.shards
            .iter()
            .map(|s| {
                let mut sec = s.store_section();
                sec.attached = true;
                sec
            })
            .collect()
    }

    /// Route one write: broadcast DDL and `DELETE`, partition `INSERT`
    /// rows by the shard column. Returns an [`Applied`] whose message is
    /// recomposed to match the unsharded ack exactly (a `CREATE VIEW`
    /// ack's global row count is fixed up by the session layer, which
    /// owns the union state).
    pub fn apply_write(&self, op: WriteOp) -> Result<Applied, SessionError> {
        match op {
            WriteOp::CreateTable(_) | WriteOp::CreateView(_) => {
                let mut first: Option<Applied> = None;
                for s in self.shards.iter() {
                    let a = s.submit(op.clone())?;
                    first.get_or_insert(a);
                }
                Ok(first.expect("at least one shard"))
            }
            WriteOp::Insert(ins) => self.route_insert(ins),
            WriteOp::Delete(del) => {
                let mut rows = 0usize;
                let mut incremental: Option<usize> = None;
                for s in self.shards.iter() {
                    let a = s.submit(WriteOp::Delete(del.clone()))?;
                    rows += a.rows_affected;
                    // MIN/MAX deletes may recompute on the shard holding
                    // the group extremum and stay incremental elsewhere;
                    // report the conservative (minimum) count.
                    incremental = Some(
                        incremental.map_or(a.views_incremental, |m| m.min(a.views_incremental)),
                    );
                }
                Ok(Applied::dml(
                    false,
                    rows,
                    &del.table,
                    incremental.unwrap_or(0),
                ))
            }
        }
    }

    /// Partition an `INSERT`'s rows by the shard of their partition-key
    /// value and submit each non-empty subset to its shard.
    fn route_insert(&self, ins: Insert) -> Result<Applied, SessionError> {
        let snap = self.shards[0].load();
        let Some(schema) = snap.state.catalog.table(&ins.table) else {
            // Unknown table or a view: shard 0 produces the exact
            // unsharded error text.
            return self.shards[0].submit(WriteOp::Insert(ins));
        };
        // Validate every row before touching any shard, preserving the
        // unsharded all-or-nothing semantics of a bad INSERT.
        let arity = schema.arity();
        for row in &ins.rows {
            if row.len() != arity {
                return Err(err(format!(
                    "row arity {} does not match table `{}` arity {}",
                    row.len(),
                    ins.table,
                    arity
                )));
            }
        }
        let col = shard::shard_column(schema);
        let n = self.shards.len();
        let mut per_shard: Vec<Vec<Vec<Literal>>> = vec![Vec::new(); n];
        for row in &ins.rows {
            let v = lit_value(&row[col]);
            per_shard[shard::shard_of_value(&v, n)].push(row.clone());
        }
        let mut rows = 0usize;
        let mut incremental: Option<usize> = None;
        for (i, subset) in per_shard.into_iter().enumerate() {
            if subset.is_empty() {
                continue;
            }
            let a = self.shards[i].submit(WriteOp::Insert(Insert {
                table: ins.table.clone(),
                rows: subset,
            }))?;
            rows += a.rows_affected;
            // Insert maintenance decisions depend only on the shared
            // schema/view shapes, so any shard that received rows
            // reports the same count.
            incremental.get_or_insert(a.views_incremental);
        }
        Ok(Applied::dml(
            true,
            rows,
            &ins.table,
            incremental.unwrap_or(0),
        ))
    }

    /// Aggregate writer counters across shards (the `-- store:` line of
    /// a sharded session: epochs are maxima, throughput counters sums).
    pub fn aggregate_section(&self) -> StoreSection {
        let mut agg = StoreSection {
            attached: true,
            ..StoreSection::default()
        };
        for s in self.shards.iter() {
            let stats = s.stats();
            agg.epoch = agg.epoch.max(s.epoch());
            agg.schema_epoch = agg.schema_epoch.max(s.schema_epoch());
            agg.publishes += stats.publishes.load(Ordering::Relaxed);
            agg.batches += stats.batches.load(Ordering::Relaxed);
            agg.batched_ops += stats.batched_ops.load(Ordering::Relaxed);
            agg.max_batch = agg.max_batch.max(stats.max_batch.load(Ordering::Relaxed));
        }
        agg
    }
}

/// The lazily maintained union of all shard snapshots: catalog and view
/// list from shard 0 (DDL broadcasts keep them identical), every base
/// table the concatenation of its shard partitions, every view
/// recomputed globally over that union. This is exactly the state an
/// unsharded store would hold, so metadata, plan caching, fallback
/// answers, and error messages all match the unsharded session byte for
/// byte.
#[derive(Debug, Default)]
pub struct UnionState {
    state: EngineState,
    /// The per-shard epoch vector the cached union was built from;
    /// `None` = dirty (never built, or invalidated by a write).
    built_from: Option<Vec<u64>>,
}

impl UnionState {
    /// An empty, dirty union.
    pub fn new() -> Self {
        UnionState::default()
    }

    /// The cached union (valid only after [`UnionState::ensure`]).
    pub fn state(&self) -> &EngineState {
        &self.state
    }

    /// Mark the union stale (after any routed write).
    pub fn invalidate(&mut self) {
        self.built_from = None;
    }

    /// Rebuild the union if any shard published since the last build.
    pub fn ensure(
        &mut self,
        store: &ShardedStore,
        metrics: Option<&Arc<MetricsRegistry>>,
    ) -> Result<&EngineState, SessionError> {
        let epochs = store.epochs();
        if self.built_from.as_ref() == Some(&epochs) {
            return Ok(&self.state);
        }
        let snaps = store.load_all();
        let policy = store.policy();
        let mut state = EngineState::new();
        if let Some(m) = metrics {
            state.db.set_metrics(Arc::clone(m));
        }
        state.catalog = snaps[0].state.catalog.clone();
        let names: Vec<String> = state.catalog.tables().map(|t| t.name.clone()).collect();
        for name in names {
            let mut rel = snaps[0]
                .state
                .db
                .get(&name)
                .map_err(|e| err(e.to_string()))?
                .clone();
            for snap in &snaps[1..] {
                let part = snap.state.db.get(&name).map_err(|e| err(e.to_string()))?;
                rel.rows.extend(part.rows.iter().cloned());
            }
            state.db.insert(name, rel);
        }
        // Views recompute globally, in definition order (views over
        // views see their dependencies already unioned).
        for view in snaps[0].state.views.iter() {
            state
                .materialize(view, policy)
                .map_err(|e| err(format!("view `{}`: {e}", view.name)))?;
            state.views.push(view.clone());
        }
        self.state = state;
        self.built_from = Some(epochs);
        Ok(&self.state)
    }
}

/// The column name under which `relation` exposes its base table's
/// shard column, if it does: the shard column itself for a base table;
/// for a view, recursively, the exposed grouping column over the inner
/// relation's shard column. A view that does not group by (and project)
/// its source's shard column returns `None` — its per-shard contents
/// are not a partition of its global contents, so neither concat nor
/// re-aggregation over it is sound and the planner falls back.
pub fn shard_exposed_column(state: &EngineState, relation: &str) -> Option<String> {
    if let Some(schema) = state.catalog.table(relation) {
        return Some(schema.columns[shard::shard_column(schema)].name.clone());
    }
    let view = state.views.iter().find(|v| v.name == relation)?;
    let q = &view.query;
    if q.from.len() != 1 {
        return None;
    }
    let inner = shard_exposed_column(state, &q.from[0].table)?;
    let grouped = q
        .group_by
        .iter()
        .any(|c| shard::refers_to(c, &q.from[0], &inner));
    if !grouped {
        return None;
    }
    let names = view.output_names();
    q.select.iter().enumerate().find_map(|(i, item)| {
        if let aggview_sql::ast::Expr::Column(c) = &item.expr {
            if shard::refers_to(c, &q.from[0], &inner) {
                return Some(names[i].clone());
            }
        }
        None
    })
}

/// Gather-plan a query against the union's catalog and views.
pub fn gather_plan(state: &EngineState, q: &Query) -> GatherPlan {
    shard::plan_gather(q, &|relation| shard_exposed_column(state, relation))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggview_sql::parse_statement;
    use aggview_sql::Statement;

    fn op(sql: &str) -> WriteOp {
        match parse_statement(sql).expect("parses") {
            Statement::CreateTable(ct) => WriteOp::CreateTable(ct),
            Statement::CreateView(cv) => WriteOp::CreateView(cv),
            Statement::Insert(ins) => WriteOp::Insert(ins),
            Statement::Delete(del) => WriteOp::Delete(del),
            _ => panic!("not a write"),
        }
    }

    #[test]
    fn ddl_broadcasts_and_inserts_partition() {
        let store = ShardedStore::with_defaults(2);
        store
            .apply_write(op("CREATE TABLE S (A, B, KEY (A))"))
            .expect("create");
        let a = store
            .apply_write(op(
                "INSERT INTO S VALUES (1, 10), (2, 20), (3, 30), (4, 40)",
            ))
            .expect("insert");
        assert_eq!(a.rows_affected, 4);
        assert!(a.message.starts_with("4 row(s) inserted into `S`"));
        let snaps = store.load_all();
        let total: usize = snaps
            .iter()
            .map(|s| s.state.db.get("S").expect("table").len())
            .sum();
        assert_eq!(total, 4, "every row lands on exactly one shard");
        // Both shards saw the DDL.
        for snap in &snaps {
            assert!(snap.state.catalog.table("S").is_some());
        }
        // Same-key rows colocate: rows with A=1 all on one shard.
        store
            .apply_write(op("INSERT INTO S VALUES (1, 11)"))
            .expect("insert");
        let snaps = store.load_all();
        let with_a1: Vec<usize> = snaps
            .iter()
            .map(|s| {
                s.state
                    .db
                    .get("S")
                    .expect("table")
                    .rows
                    .iter()
                    .filter(|r| r[0] == aggview_engine::Value::Int(1))
                    .count()
            })
            .collect();
        assert!(
            with_a1.contains(&2) && with_a1.iter().sum::<usize>() == 2,
            "twin keys colocate: {with_a1:?}"
        );
    }

    #[test]
    fn bad_insert_applies_nothing_anywhere() {
        let store = ShardedStore::with_defaults(2);
        store
            .apply_write(op("CREATE TABLE S (A, B)"))
            .expect("create");
        let e = store
            .apply_write(op("INSERT INTO S VALUES (1, 2), (3, 4, 5)"))
            .expect_err("arity mismatch");
        assert_eq!(e.0, "row arity 3 does not match table `S` arity 2");
        for snap in store.load_all() {
            assert_eq!(snap.state.db.get("S").expect("table").len(), 0);
        }
    }

    #[test]
    fn delete_broadcasts_and_sums_matches() {
        let store = ShardedStore::with_defaults(3);
        store
            .apply_write(op("CREATE TABLE S (A, B)"))
            .expect("create");
        store
            .apply_write(op(
                "INSERT INTO S VALUES (1, 1), (2, 1), (3, 2), (4, 1), (5, 1)",
            ))
            .expect("insert");
        let a = store
            .apply_write(op("DELETE FROM S WHERE B = 1"))
            .expect("delete");
        assert_eq!(a.rows_affected, 4);
        assert!(a.message.starts_with("4 row(s) deleted from `S`"));
    }

    #[test]
    fn union_concatenates_partitions_and_recomputes_views() {
        let store = ShardedStore::with_defaults(2);
        store
            .apply_write(op("CREATE TABLE S (A, B, KEY (A))"))
            .expect("create");
        store
            .apply_write(op("INSERT INTO S VALUES (1, 10), (2, 20), (3, 30)"))
            .expect("insert");
        store
            .apply_write(op(
                "CREATE VIEW V AS SELECT B, SUM(A) AS T FROM S GROUP BY B",
            ))
            .expect("view");
        let mut union = UnionState::new();
        let state = union.ensure(&store, None).expect("union builds");
        assert_eq!(state.db.get("S").expect("S").len(), 3);
        assert_eq!(state.db.get("V").expect("V").len(), 3);
        // Cached until a shard publishes.
        let epochs = store.epochs();
        union.ensure(&store, None).expect("cached");
        assert_eq!(store.epochs(), epochs);
    }

    #[test]
    fn views_grouped_on_the_shard_key_stay_aligned() {
        let store = ShardedStore::with_defaults(2);
        store
            .apply_write(op("CREATE TABLE S (A, B, KEY (A))"))
            .expect("create");
        store
            .apply_write(op(
                "CREATE VIEW ByA AS SELECT A, SUM(B) AS T FROM S GROUP BY A",
            ))
            .expect("aligned view");
        store
            .apply_write(op(
                "CREATE VIEW ByB AS SELECT B, SUM(A) AS T FROM S GROUP BY B",
            ))
            .expect("unaligned view");
        let mut union = UnionState::new();
        let state = union.ensure(&store, None).expect("union");
        assert_eq!(shard_exposed_column(state, "S").as_deref(), Some("A"));
        assert_eq!(shard_exposed_column(state, "ByA").as_deref(), Some("A"));
        assert_eq!(shard_exposed_column(state, "ByB"), None);
        assert_eq!(shard_exposed_column(state, "Nope"), None);
    }
}
