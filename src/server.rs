//! `aggview-server`: the shared-state concurrent serving layer.
//!
//! A [`SharedStore`] lets many in-process sessions share one catalog, one
//! set of materialized views, and one pool of group indexes, with
//! snapshot isolation between readers and writers:
//!
//! * **Readers are lock-free.** Every `SELECT` pins the current
//!   [`StoreSnapshot`] (one `Arc` clone through the engine's
//!   [`SnapshotCell`]) and runs canonicalization, the rewrite search,
//!   planning, and execution entirely against that immutable snapshot —
//!   a concurrent write never blocks it and can never tear it.
//! * **Writes serialize through one writer thread.** Session handles
//!   submit `CREATE TABLE` / `CREATE VIEW` / `INSERT` / `DELETE` to a
//!   queue; the writer drains *everything currently queued* into one
//!   batch, applies it to its private master [`EngineState`] through the
//!   same incremental-maintenance paths a local session uses, then
//!   publishes a single new snapshot for the whole batch. The snapshot
//!   shares every stored relation with the master (reference counts);
//!   rows are copied only when a later write touches a relation a
//!   snapshot still holds. A submitter is acked only after the snapshot
//!   containing its write is published, so every handle reads its own
//!   writes.
//! * **Schema epochs drive plan-cache invalidation.** The snapshot
//!   carries a schema epoch bumped by every DDL statement; each handle's
//!   private plan cache syncs to it before lookups, reusing the lazy
//!   epoch-invalidation scheme of the per-session cache (a plan compiled
//!   against an older catalog universe is dropped, never served).
//!
//! Create handles with [`SharedStore::session`]; each handle is a full
//! [`crate::session::Session`] (same statement semantics, same
//! `StatementOutcome`s) and owns its private plan cache and rewrite
//! options, so the differential harness's session-options lattice covers
//! store-backed sessions unchanged.

use crate::durability::{open_dir, DurabilityOptions, DurabilityState, LogOutcome, RecoveryReport};
use crate::session::{err, Session, SessionError, SessionOptions};
use crate::state::{Applied, EngineState, WritePolicy};
use aggview_engine::snapshot::{SnapshotCell, StoreStats};
use aggview_obs::{CounterId, MetricsRegistry, ObsOptions, ObsSnapshot, Stage, StoreSection};
use aggview_sql::{CreateTable, CreateView, Delete, Insert, Statement};
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

/// One immutable published state of the store.
#[derive(Debug)]
pub struct StoreSnapshot {
    /// Catalog, relations (with indexes), and view definitions.
    pub state: EngineState,
    /// Publish sequence number (strictly increasing; 0 = the empty
    /// initial snapshot).
    pub epoch: u64,
    /// Schema epoch: bumped once per applied DDL statement. Plan caches
    /// compiled under an older schema epoch must not serve.
    pub schema_epoch: u64,
}

/// A write statement submitted to the store's writer thread.
#[derive(Debug, Clone)]
pub enum WriteOp {
    /// `CREATE TABLE`.
    CreateTable(CreateTable),
    /// `CREATE VIEW` (registered and materialized by the writer).
    CreateView(CreateView),
    /// `INSERT`.
    Insert(Insert),
    /// `DELETE`.
    Delete(Delete),
}

struct WriteRequest {
    op: WriteOp,
    ack: Sender<Result<Applied, SessionError>>,
    /// When the submitter enqueued the request — lets the writer thread
    /// split queue wait from apply+publish cost in [`StoreStats`].
    submitted: std::time::Instant,
}

/// The state the writer thread and every handle share. The writer holds
/// only this (never `StoreInner`), so dropping the last handle is what
/// disconnects the queue and lets the thread exit.
struct Shared {
    cell: SnapshotCell<StoreSnapshot>,
    stats: StoreStats,
    policy: WritePolicy,
    /// The store-wide observability registry. One per store, shared by
    /// every handle and every published snapshot (their databases clone
    /// the `Arc`), so `serve --metrics` sees all sessions at once.
    /// `None` when the store was created with observability disabled.
    metrics: Option<Arc<MetricsRegistry>>,
    /// What recovery found when the store was opened from a data
    /// directory; `None` for in-memory stores.
    recovery: Option<RecoveryReport>,
}

struct StoreInner {
    shared: Arc<Shared>,
    // Held in Options (behind a mutex for `Sync`) so Drop can release
    // them in order: dropping the last sender disconnects the queue, the
    // writer drains and exits, the join reaps it.
    tx: std::sync::Mutex<Option<Sender<WriteRequest>>>,
    writer: std::sync::Mutex<Option<JoinHandle<()>>>,
}

impl Drop for StoreInner {
    fn drop(&mut self) {
        if let Ok(mut tx) = self.tx.lock() {
            *tx = None;
        }
        if let Some(h) = self.writer.lock().ok().and_then(|mut w| w.take()) {
            let _ = h.join();
        }
    }
}

/// A shared, snapshot-isolated store serving many concurrent sessions.
///
/// Cloning is cheap (an `Arc` bump plus a queue-sender clone); every
/// session handle owns a clone. The writer thread exits when the last
/// clone drops.
#[derive(Clone)]
pub struct SharedStore {
    // Field order is load-bearing: fields drop in declaration order, and
    // `tx` must drop before `inner` — `StoreInner::drop` joins the
    // writer thread, which only exits once every queue sender is gone.
    tx: Sender<WriteRequest>,
    inner: Arc<StoreInner>,
}

impl std::fmt::Debug for SharedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedStore")
            .field("epoch", &self.epoch())
            .field("schema_epoch", &self.schema_epoch())
            .finish()
    }
}

/// Cap glibc malloc at one arena per CPU the process may run on, once,
/// before a store spawns its first thread. glibc gives each new thread
/// its own arena (up to 8 per core) and keeps freed pages in the arena
/// that freed them; a later store's threads pick those arenas up in
/// whatever order they start, so its peak RSS depended on which thread
/// landed where: `benchmark/`'s `sharded_rw` peaked at 107 or 131 MB run
/// to run, and at 61–66 MB under one arena. More arenas than CPUs buy
/// no parallelism. Left alone when the user set `MALLOC_ARENA_MAX`.
fn cap_malloc_arenas() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_ARENA_MAX: i32 = -8;
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| {
            if std::env::var_os("MALLOC_ARENA_MAX").is_some() {
                return;
            }
            let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
            // SAFETY: `mallopt` only sets a malloc tuning parameter; it
            // takes glibc's own lock and is safe to call at any time.
            unsafe {
                mallopt(M_ARENA_MAX, cpus.min(i32::MAX as usize) as i32);
            }
        });
    }
}

impl SharedStore {
    /// An empty store. `policy` fixes the store-wide maintenance policy
    /// (group indexes on materialized views, delta vs. recompute) — the
    /// materialized state is shared, so these cannot vary per handle.
    /// Observability is on with the default [`ObsOptions`]; use
    /// [`SharedStore::with_obs`] to configure or disable it.
    pub fn new(policy: WritePolicy) -> Self {
        SharedStore::with_obs(policy, ObsOptions::default())
    }

    /// An empty store with an explicit observability configuration
    /// (`obs.enabled = false` attaches no registry at all).
    pub fn with_obs(policy: WritePolicy, obs: ObsOptions) -> Self {
        SharedStore::build(policy, obs, EngineState::new(), 0, 0, None, None)
    }

    /// A durable store over `dir`: recover the newest valid checkpoint,
    /// replay the WAL tail, and log every future batch before
    /// acknowledging it. Forces `policy.durability = true` (the policy
    /// flag without a directory is meaningless). Default [`ObsOptions`]
    /// and [`DurabilityOptions`]; see [`SharedStore::open_with`].
    pub fn open(dir: impl AsRef<Path>, policy: WritePolicy) -> std::io::Result<Self> {
        SharedStore::open_with(
            dir,
            policy,
            ObsOptions::default(),
            DurabilityOptions::default(),
        )
    }

    /// [`SharedStore::open`] with explicit observability and durability
    /// configuration (checkpoint cadence, crash-fault injection).
    pub fn open_with(
        dir: impl AsRef<Path>,
        mut policy: WritePolicy,
        obs: ObsOptions,
        dopts: DurabilityOptions,
    ) -> std::io::Result<Self> {
        policy.durability = true;
        let recovered = open_dir(dir.as_ref(), policy, dopts)?;
        Ok(SharedStore::build(
            policy,
            obs,
            recovered.state,
            recovered.epoch,
            recovered.schema_epoch,
            Some(recovered.durability),
            Some(recovered.report),
        ))
    }

    fn build(
        policy: WritePolicy,
        obs: ObsOptions,
        mut master: EngineState,
        epoch: u64,
        schema_epoch: u64,
        durability: Option<DurabilityState>,
        recovery: Option<RecoveryReport>,
    ) -> Self {
        let metrics = obs.enabled.then(|| Arc::new(MetricsRegistry::new(&obs)));
        if let (Some(m), Some(r)) = (&metrics, &recovery) {
            m.add(CounterId::RecoveryReplayedBatches, r.replayed_batches);
        }
        let (tx, rx) = mpsc::channel::<WriteRequest>();
        if let Some(m) = &metrics {
            // The master database records maintenance events; every
            // published clone inherits the same registry for
            // reader-side index probes.
            master.db.set_metrics(Arc::clone(m));
        }
        let initial = StoreSnapshot {
            state: master.clone(),
            epoch,
            schema_epoch,
        };
        let stats = StoreStats::default();
        stats.schema_epoch.store(schema_epoch, Ordering::Release);
        let shared = Arc::new(Shared {
            cell: SnapshotCell::new(initial),
            stats,
            policy,
            metrics,
            recovery,
        });
        cap_malloc_arenas();
        let writer = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("aggview-store-writer".into())
                .spawn(move || writer_loop(&shared, rx, master, epoch, schema_epoch, durability))
                .expect("spawn store writer")
        };
        let inner = Arc::new(StoreInner {
            shared,
            tx: std::sync::Mutex::new(Some(tx.clone())),
            writer: std::sync::Mutex::new(Some(writer)),
        });
        SharedStore { inner, tx }
    }

    /// A store with the default policy (indexes on, delta maintenance).
    pub fn with_defaults() -> Self {
        SharedStore::new(WritePolicy::default())
    }

    /// A new session handle over this store (private plan cache and
    /// rewrite options; shared snapshots and writer).
    pub fn session(&self, options: SessionOptions) -> Session {
        Session::on_store(self.clone(), options)
    }

    /// Pin the current snapshot.
    pub fn load(&self) -> Arc<StoreSnapshot> {
        self.inner.shared.cell.load()
    }

    /// Submit one write and block until the snapshot containing it is
    /// published (read-your-writes for the submitting handle).
    pub fn submit(&self, op: WriteOp) -> Result<Applied, SessionError> {
        let (ack_tx, ack_rx) = mpsc::channel();
        if let Some(m) = &self.inner.shared.metrics {
            // Queue-depth gauge: up on submit, down when the writer
            // drains the request (in `writer_loop`).
            let depth = m.get(CounterId::WriteQueueDepth) + 1;
            m.add(CounterId::WriteQueueDepth, 1);
            m.raise_max(CounterId::WriteQueueMax, depth);
        }
        self.tx
            .send(WriteRequest {
                op,
                ack: ack_tx,
                submitted: std::time::Instant::now(),
            })
            .map_err(|_| err("store writer thread is gone"))?;
        ack_rx
            .recv()
            .map_err(|_| err("store writer thread dropped the request"))?
    }

    /// Publish sequence number of the current snapshot. Monotonic
    /// across restarts for durable stores (the snapshot's own epoch,
    /// not the in-process publish count, which resets on reopen).
    pub fn epoch(&self) -> u64 {
        self.load().epoch
    }

    /// What recovery found when this store was opened from a data
    /// directory; `None` for in-memory stores.
    pub fn recovery(&self) -> Option<&RecoveryReport> {
        self.inner.shared.recovery.as_ref()
    }

    /// Schema epoch of the current snapshot.
    pub fn schema_epoch(&self) -> u64 {
        self.inner.shared.stats.schema_epoch.load(Ordering::Acquire)
    }

    /// The store-cumulative counters (publishes, batches, batch sizes).
    pub fn stats(&self) -> &StoreStats {
        &self.inner.shared.stats
    }

    /// The store-wide write policy.
    pub fn policy(&self) -> WritePolicy {
        self.inner.shared.policy
    }

    /// The store-wide observability registry, if observability is on.
    pub fn metrics(&self) -> Option<&Arc<MetricsRegistry>> {
        self.inner.shared.metrics.as_ref()
    }

    /// A store-wide observability snapshot: every registry counter, the
    /// stage latency histograms, the slow-query ring, plus a store
    /// section built from the live batching counters. This is what
    /// `aggview serve --metrics` scrapes. `None` when the store was
    /// created with observability disabled.
    pub fn obs_snapshot(&self) -> Option<ObsSnapshot> {
        let m = self.metrics()?;
        let mut snap = ObsSnapshot::from_registry(m);
        snap.store = Some(self.store_section());
        Some(snap)
    }

    /// The live batching counters as an observability section (available
    /// even when the registry is disabled — the store counters are not
    /// part of the registry).
    pub fn store_section(&self) -> StoreSection {
        let s = self.stats();
        StoreSection {
            attached: true,
            epoch: self.epoch(),
            schema_epoch: self.schema_epoch(),
            publishes: s.publishes.load(Ordering::Relaxed),
            batches: s.batches.load(Ordering::Relaxed),
            batched_ops: s.batched_ops.load(Ordering::Relaxed),
            max_batch: s.max_batch.load(Ordering::Relaxed),
        }
    }
}

/// The single writer: drain the queue into batches, apply each batch to
/// the master state, log it to the WAL (durable stores fsync here,
/// *before* the publish that acknowledges the batch), publish one
/// snapshot per batch that changed anything, ack every submitter, then
/// checkpoint on cadence. For in-memory stores `master`/`epoch`/
/// `schema_epoch` start empty; a recovered store resumes from its
/// replayed state.
fn writer_loop(
    inner: &Shared,
    rx: Receiver<WriteRequest>,
    mut master: EngineState,
    mut epoch: u64,
    mut schema_epoch: u64,
    mut durability: Option<DurabilityState>,
) {
    if let Some(m) = &inner.metrics {
        // The master database records maintenance events; every published
        // clone inherits the same registry for reader-side index probes.
        master.db.set_metrics(Arc::clone(m));
    }
    while let Ok(first) = rx.recv() {
        let mut batch = vec![first];
        while let Ok(req) = rx.try_recv() {
            batch.push(req);
        }
        if let Some(m) = &inner.metrics {
            m.sub(CounterId::WriteQueueDepth, batch.len() as u64);
        }
        if durability.as_ref().is_some_and(|d| d.crashed()) {
            // A (simulated or real) crash killed the store: nothing is
            // applied or published until it is reopened via recovery.
            for req in batch {
                let _ = req.ack.send(Err(err(
                    "store crashed; reopen the data directory to recover",
                )));
            }
            continue;
        }
        // Queue wait ends here (the request is in the writer's hands);
        // everything from this point to the publish is real write-path
        // cost, accounted separately so client wall-clock latency
        // (`queue wait + apply+publish`) decomposes cleanly.
        for req in &batch {
            inner
                .stats
                .note_queue_wait(req.submitted.elapsed().as_nanos() as u64);
        }
        let work_started = std::time::Instant::now();
        let apply_span = inner.metrics.as_ref().map(|m| m.span(Stage::Apply));
        let mut results: Vec<Result<Applied, SessionError>> = Vec::with_capacity(batch.len());
        let mut applied = 0u64;
        let mut applied_sql: Vec<String> = Vec::new();
        for req in &batch {
            let r = apply(&mut master, &req.op, inner.policy);
            if let Ok(a) = &r {
                applied += 1;
                if a.schema_change {
                    schema_epoch += 1;
                }
                if durability.is_some() {
                    applied_sql.push(sql_of(&req.op));
                }
            }
            results.push(r);
        }
        drop(apply_span);
        if applied > 0 {
            // Durable stores append + fsync the batch before the
            // publish below: once a submitter is acked, the write is on
            // disk. A fired crash fault (or an I/O failure) kills the
            // store instead of publishing.
            if let Some(d) = durability.as_mut() {
                let wal_span = inner.metrics.as_ref().map(|m| m.span(Stage::Wal));
                let logged = d.log_batch(epoch + 1, &applied_sql.join(";\n"));
                drop(wal_span);
                match logged {
                    Ok(LogOutcome::Logged(bytes)) => {
                        if let Some(m) = &inner.metrics {
                            m.incr(CounterId::WalAppends);
                            m.add(CounterId::WalBytes, bytes);
                        }
                    }
                    Ok(LogOutcome::Crashed) => {
                        for req in batch {
                            let _ = req.ack.send(Err(err(
                                "store crashed; reopen the data directory to recover",
                            )));
                        }
                        continue;
                    }
                    Err(e) => {
                        d.mark_crashed();
                        for req in batch {
                            let _ = req.ack.send(Err(err(format!("wal write failed: {e}"))));
                        }
                        continue;
                    }
                }
            }
            // One publish for the whole batch: submitters are acked
            // only after this, so their next read sees the write.
            let publish_span = inner.metrics.as_ref().map(|m| m.span(Stage::Publish));
            inner
                .stats
                .schema_epoch
                .store(schema_epoch, Ordering::Release);
            epoch += 1;
            inner.cell.publish(Arc::new(StoreSnapshot {
                state: master.clone(),
                epoch,
                schema_epoch,
            }));
            drop(publish_span);
            inner.stats.publishes.fetch_add(1, Ordering::Relaxed);
            inner.stats.note_batch(applied);
            if let Some(m) = &inner.metrics {
                m.incr(CounterId::StorePublishes);
                m.incr(CounterId::StoreBatches);
                m.add(CounterId::StoreBatchedOps, applied);
            }
        }
        inner
            .stats
            .note_apply_publish(work_started.elapsed().as_nanos() as u64);
        for (req, result) in batch.into_iter().zip(results) {
            let _ = req.ack.send(result);
        }
        if applied > 0 {
            if let Some(d) = durability.as_mut() {
                // Checkpoint *after* the acks: compaction cost never
                // sits on a submitter's latency path. A failed
                // checkpoint is non-fatal — the WAL still holds every
                // batch, so recovery just replays more.
                if let Ok(true) = d.maybe_checkpoint(&master, epoch, schema_epoch) {
                    if let Some(m) = &inner.metrics {
                        m.incr(CounterId::Checkpoints);
                    }
                }
            }
        }
    }
}

/// The SQL text of one write op, as logged to the WAL. The printer/
/// parser round-trip is pinned by the sql crate's tests and by the
/// differential harness's roundtrip oracle, so text is a faithful (and
/// schema-evolution-proof) encoding of the op.
fn sql_of(op: &WriteOp) -> String {
    match op {
        WriteOp::CreateTable(ct) => Statement::CreateTable(ct.clone()).to_string(),
        WriteOp::CreateView(cv) => Statement::CreateView(cv.clone()).to_string(),
        WriteOp::Insert(ins) => Statement::Insert(ins.clone()).to_string(),
        WriteOp::Delete(del) => Statement::Delete(del.clone()).to_string(),
    }
}

/// Apply one write op to the master state. Failed ops leave the state
/// unchanged (each statement is all-or-nothing).
fn apply(
    master: &mut EngineState,
    op: &WriteOp,
    policy: WritePolicy,
) -> Result<Applied, SessionError> {
    match op {
        WriteOp::CreateTable(ct) => master.create_table(ct),
        WriteOp::CreateView(cv) => master.create_view(cv, policy),
        WriteOp::Insert(ins) => master.insert(ins, policy),
        WriteOp::Delete(del) => master.delete(del, policy),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggview_sql::parse_script;

    fn run_on(session: &mut Session, sql: &str) -> Vec<crate::session::StatementOutcome> {
        let stmts = parse_script(sql).expect("parses");
        session.run_script(&stmts).expect("runs")
    }

    #[test]
    fn two_handles_share_schema_and_data() {
        let store = SharedStore::with_defaults();
        let mut a = store.session(SessionOptions::default());
        let mut b = store.session(SessionOptions::default());
        run_on(
            &mut a,
            "CREATE TABLE T (x, y); INSERT INTO T VALUES (1, 5), (2, 7);",
        );
        // Handle B sees A's table and rows without any local DDL.
        let outcomes = run_on(&mut b, "SELECT x, SUM(y) FROM T GROUP BY x;");
        let crate::session::StatementOutcome::Answer { relation, .. } = &outcomes[0] else {
            panic!("expected an answer");
        };
        assert_eq!(relation.len(), 2);
        assert_eq!(store.epoch(), 2, "two write batches published");
        assert_eq!(store.schema_epoch(), 1, "one DDL applied");
    }

    #[test]
    fn writes_are_read_back_by_the_writer_handle() {
        let store = SharedStore::with_defaults();
        let mut s = store.session(SessionOptions::default());
        run_on(&mut s, "CREATE TABLE T (a);");
        run_on(&mut s, "INSERT INTO T VALUES (1), (2), (3);");
        let outcomes = run_on(&mut s, "SELECT a FROM T;");
        let crate::session::StatementOutcome::Answer { relation, .. } = &outcomes[0] else {
            panic!("expected an answer");
        };
        assert_eq!(relation.len(), 3, "read-your-writes");
    }

    #[test]
    fn failed_writes_do_not_publish() {
        let store = SharedStore::with_defaults();
        let mut s = store.session(SessionOptions::default());
        run_on(&mut s, "CREATE TABLE T (a);");
        let before = store.epoch();
        let stmts = parse_script("INSERT INTO T VALUES (1, 2);").unwrap();
        assert!(s.run_script(&stmts).is_err(), "arity mismatch must fail");
        assert_eq!(store.epoch(), before, "failed batch published nothing");
    }

    #[test]
    fn store_indexes_materialized_views() {
        let store = SharedStore::with_defaults();
        let mut s = store.session(SessionOptions::default());
        run_on(
            &mut s,
            "CREATE TABLE T (a, b);
             INSERT INTO T VALUES (1, 5), (2, 7);
             CREATE VIEW V AS SELECT a, SUM(b) AS s, COUNT(b) AS n FROM T GROUP BY a;
             INSERT INTO T VALUES (1, 3);",
        );
        let snap = store.load();
        let idx = snap.state.db.index("V").expect("V is indexed");
        assert!(idx.is_consistent_with(snap.state.db.table("V").unwrap()));
    }
}
