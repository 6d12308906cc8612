//! Crash-recovery differential checking: `qcheck --crash` and the
//! `--reopen` write-path axis.
//!
//! The crash oracle runs a case's *write protocol* (the same statement
//! stream the lattice drivers use) against a durable [`SharedStore`]
//! with a scheduled [`FaultPlan`]: the store is killed at a chosen WAL
//! append, in one of the three phases a real `kill -9` can land in
//! (before the record, mid-record as a torn tail, after the fsync but
//! before the acknowledging publish). The directory is then reopened —
//! recovery loads the newest checkpoint and replays the WAL tail — and
//! the oracle demands:
//!
//! * **durability**: every *acknowledged* batch survived
//!   (`recovered epoch ≥ acked count`; the reverse is a data-loss bug);
//! * **bag equality**: after resuming the unacknowledged suffix of the
//!   stream, every base table, every materialized view, and the query
//!   answer are multiset-equal to an uninterrupted in-memory run.
//!
//! Because the driver blocks on each ack, batches have size 1 and the
//! crash point is exactly "after statement k" — deterministic per
//! (case, seed), so the standard shrinker applies unchanged: crash
//! parameters are re-derived from the seed *inside* the checker and
//! clamped to the (possibly shrunk) stream length.
//!
//! The `--reopen` axis reuses the session/shard lattice drivers but
//! backs them with a data directory and drops + reopens the store
//! mid-stream (after the halfway answer, and again after the delete),
//! checking that acked writes are visible across the restart and that
//! fresh handles rebuild their plan caches.

use crate::case::Case;
use crate::oracle::{answer, compare, insert, Discrepancy, LatticePoint, Served};
use aggview::durability::{CrashPhase, DurabilityOptions, FaultPlan};
use aggview::server::SharedStore;
use aggview::session::{Session, SessionOptions, StatementOutcome};
use aggview::sharded::ShardedStore;
use aggview::state::WritePolicy;
use aggview_engine::{execute_reference, multiset_eq, Relation};
use aggview_obs::ObsOptions;
use aggview_sql::ast::{BoolExpr, CmpOp, ColumnRef, Expr, Literal};
use aggview_sql::{CreateTable, CreateView, Delete, Insert, Statement};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A scratch data directory, removed on drop.
struct DirGuard(PathBuf);

impl Drop for DirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("aggview-{tag}-{}-{n}", std::process::id()))
}

/// Observability off: the crash sweep runs thousands of store
/// open/close cycles and should not pay for metrics it never reads.
fn obs_off() -> ObsOptions {
    ObsOptions {
        enabled: false,
        ..ObsOptions::default()
    }
}

/// The case's write protocol as a flat statement stream — exactly the
/// statements the lattice drivers issue, in the same order: create
/// tables, first-half inserts, create views, second-half inserts, then
/// the delete on table 0. Every statement forms its own store batch
/// (the driver blocks on each ack), so "crash at append k" means
/// "crash while logging statement k".
pub fn write_statements(case: &Case) -> Vec<Statement> {
    let mut stmts = Vec::new();
    for t in &case.tables {
        stmts.push(Statement::CreateTable(CreateTable {
            name: t.name.clone(),
            columns: t.columns.clone(),
            keys: Vec::new(),
        }));
    }
    for (i, t) in case.tables.iter().enumerate() {
        push_insert(&mut stmts, &t.name, &t.rows[..case.split_at(i)]);
    }
    for v in &case.views {
        stmts.push(Statement::CreateView(CreateView {
            name: v.name.clone(),
            query: v.query.clone(),
        }));
    }
    for (i, t) in case.tables.iter().enumerate() {
        push_insert(&mut stmts, &t.name, &t.rows[case.split_at(i)..]);
    }
    let t0 = &case.tables[0];
    stmts.push(Statement::Delete(Delete {
        table: t0.name.clone(),
        filter: Some(BoolExpr::cmp(
            Expr::Column(ColumnRef::bare(t0.columns[0].clone())),
            CmpOp::Eq,
            Expr::int(1),
        )),
    }));
    stmts
}

fn push_insert(stmts: &mut Vec<Statement>, table: &str, rows: &[Vec<i64>]) {
    if rows.is_empty() {
        return;
    }
    stmts.push(Statement::Insert(Insert {
        table: table.to_string(),
        rows: rows
            .iter()
            .map(|r| r.iter().map(|&v| Literal::Int(v)).collect())
            .collect(),
    }));
}

fn splitmix(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Crash-check one case with seed-derived parameters. The crash point,
/// phase, and checkpoint cadence are all mixed out of the seed and
/// clamped to the stream length *here*, so the shrinker can hand this
/// function smaller cases and the fault still fires somewhere valid.
pub fn check_case_crash(case: &Case, seed: u64) -> Result<(), Discrepancy> {
    let n = write_statements(case).len() as u64;
    let r1 = splitmix(seed);
    let r2 = splitmix(r1);
    let r3 = splitmix(r2);
    let r4 = splitmix(r3);
    let crash_at = 1 + r1 % n.max(1);
    let phase = match r2 % 3 {
        0 => CrashPhase::BeforeAppend,
        1 => CrashPhase::TornAppend {
            keep_bytes: 1 + r4 % 64,
        },
        _ => CrashPhase::AfterSync,
    };
    let checkpoint_every = 1 + r3 % 4;
    check_case_crash_at(case, crash_at, phase, checkpoint_every)
}

/// Crash-check one case at an explicit crash point. Used directly by
/// the tier-1 recovery tests (which sweep every crash point) and by
/// [`check_case_crash`].
pub fn check_case_crash_at(
    case: &Case,
    crash_at: u64,
    phase: CrashPhase,
    checkpoint_every: u64,
) -> Result<(), Discrepancy> {
    match catch_unwind(AssertUnwindSafe(|| {
        crash_inner(case, crash_at, phase, checkpoint_every)
    })) {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("opaque panic payload");
            Err(Discrepancy::new("panic", msg.to_string()))
        }
    }
}

fn crash_inner(
    case: &Case,
    crash_at: u64,
    phase: CrashPhase,
    checkpoint_every: u64,
) -> Result<(), Discrepancy> {
    let stmts = write_statements(case);
    let crash_at = crash_at.clamp(1, stmts.len() as u64);
    let fail = |kind: &str, detail: String| {
        Discrepancy::new(
            kind,
            format!("crash at append {crash_at} ({phase:?}), checkpoint_every {checkpoint_every}: {detail}"),
        )
    };

    // Uninterrupted in-memory reference run.
    let mut reference = Session::new(SessionOptions::default());
    for stmt in &stmts {
        reference
            .execute(stmt)
            .map_err(|e| fail("session-error", format!("reference run: {e}")))?;
    }
    let ref_answer = {
        let mut run = |stmt: Statement| {
            reference
                .execute(&stmt)
                .map_err(|e| fail("session-error", format!("reference run: {e}")))
        };
        answer(&mut run, case)?
    };
    let ref_db = reference.database().clone();

    let dir = scratch_dir("qcheck-crash");
    let _guard = DirGuard(dir.clone());
    let policy = WritePolicy::default();

    // Durable run that dies at the scheduled append.
    let store = SharedStore::open_with(
        &dir,
        policy,
        obs_off(),
        DurabilityOptions {
            checkpoint_every,
            fault: Some(FaultPlan {
                crash_at_append: crash_at,
                phase,
            }),
        },
    )
    .map_err(|e| fail("recovery-error", format!("initial open: {e}")))?;
    let mut session = store.session(SessionOptions::default());
    let mut acked = 0u64;
    let mut crashed = false;
    for stmt in &stmts {
        match session.execute(stmt) {
            Ok(_) => acked += 1,
            Err(e) => {
                if e.0.contains("crashed") {
                    crashed = true;
                    break;
                }
                return Err(fail("session-error", format!("crash run: {e}")));
            }
        }
    }
    drop(session);
    drop(store); // joins the writer thread, closes the WAL
    if !crashed {
        return Err(fail(
            "crash-not-triggered",
            format!("fault never fired over {} statement(s)", stmts.len()),
        ));
    }

    // Recover: newest checkpoint + WAL-tail replay, no fault this time.
    let store = SharedStore::open_with(
        &dir,
        policy,
        obs_off(),
        DurabilityOptions {
            checkpoint_every,
            fault: None,
        },
    )
    .map_err(|e| fail("recovery-error", e.to_string()))?;

    // Durability invariant: an acknowledged write may never be lost.
    // (The AfterSync phase makes the converse legal: a durable batch
    // whose ack never arrived.)
    let durable = store.epoch();
    if durable < acked {
        return Err(fail(
            "durability-violation",
            format!("store acked {acked} batch(es) but only {durable} survived recovery"),
        ));
    }
    if durable > stmts.len() as u64 {
        return Err(fail(
            "recovery-error",
            format!(
                "recovered epoch {durable} exceeds the {} statement(s) ever submitted",
                stmts.len()
            ),
        ));
    }

    // Resume the unacknowledged suffix, then demand bag equality with
    // the uninterrupted run: every base table, every view, the answer.
    let mut session = store.session(SessionOptions::default());
    for stmt in &stmts[durable as usize..] {
        session
            .execute(stmt)
            .map_err(|e| fail("session-error", format!("resume after recovery: {e}")))?;
    }
    let snap = store.load();
    for t in &case.tables {
        let want = ref_db
            .get(&t.name)
            .map_err(|e| fail("session-error", e.to_string()))?;
        let got = snap
            .state
            .db
            .get(&t.name)
            .map_err(|e| fail("recovery-mismatch", format!("table {} lost: {e}", t.name)))?;
        if !multiset_eq(got, want) {
            return Err(fail(
                "recovery-mismatch",
                format!(
                    "table {}: recovered {} row(s), uninterrupted run has {}",
                    t.name,
                    got.len(),
                    want.len()
                ),
            ));
        }
    }
    for v in &case.views {
        let want = ref_db
            .get(&v.name)
            .map_err(|e| fail("session-error", e.to_string()))?;
        let got = snap.state.db.get(&v.name).map_err(|e| {
            fail(
                "recovery-view-mismatch",
                format!("view {} lost: {e}", v.name),
            )
        })?;
        if !multiset_eq(got, want) {
            return Err(fail(
                "recovery-view-mismatch",
                format!(
                    "view {}: recovered {} row(s), uninterrupted run has {}",
                    v.name,
                    got.len(),
                    want.len()
                ),
            ));
        }
    }
    let got_answer = {
        let mut run = |stmt: Statement| {
            session
                .execute(&stmt)
                .map_err(|e| fail("session-error", format!("post-recovery query: {e}")))
        };
        answer(&mut run, case)?
    };
    if !multiset_eq(&got_answer.relation, &ref_answer.relation) {
        return Err(fail(
            "recovery-answer-mismatch",
            format!(
                "recovered store answers {} row(s), uninterrupted run {}",
                got_answer.relation.len(),
                ref_answer.relation.len()
            ),
        ));
    }
    Ok(())
}

/// The session-lattice oracle with a durable store that is dropped and
/// reopened mid-stream (after the halfway answer, and again after the
/// delete). All handles are torn down before each reopen — one data
/// directory never has two writers.
pub fn check_case_sessions_reopen(case: &Case, sessions: usize) -> Result<(), Discrepancy> {
    assert!(sessions >= 1, "at least one session handle");
    match catch_unwind(AssertUnwindSafe(|| sessions_reopen_inner(case, sessions))) {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("opaque panic payload");
            Err(Discrepancy::new("panic", msg.to_string()))
        }
    }
}

fn sessions_reopen_inner(case: &Case, sessions: usize) -> Result<(), Discrepancy> {
    let (expected_half, expected_final, expected_views) = expectations(case)?;
    for point in LatticePoint::all() {
        run_point_sessions_reopen(
            case,
            point,
            sessions,
            &expected_half,
            &expected_final,
            &expected_views,
        )?;
    }
    Ok(())
}

fn expectations(case: &Case) -> Result<(Relation, Relation, Vec<Relation>), Discrepancy> {
    let half_db = case.database(true);
    let final_db = case.database(false);
    let expected_half = execute_reference(&case.query, &half_db)
        .map_err(|e| Discrepancy::new("reference-error", e.to_string()))?;
    let expected_final = execute_reference(&case.query, &final_db)
        .map_err(|e| Discrepancy::new("reference-error", e.to_string()))?;
    let expected_views: Vec<Relation> = case
        .views
        .iter()
        .map(|v| {
            execute_reference(&v.query, &final_db)
                .map_err(|e| Discrepancy::new("reference-error", format!("view {}: {e}", v.name)))
        })
        .collect::<Result<_, _>>()?;
    Ok((expected_half, expected_final, expected_views))
}

fn point_policy(point: LatticePoint) -> WritePolicy {
    WritePolicy {
        recompute_views: point.recompute,
        columnar: point.columnar,
        durability: true,
    }
}

/// Round-robin one statement across the handles.
fn run_rr(
    handles: &mut [Session],
    next: &mut usize,
    stmt: Statement,
    fail: &impl Fn(&str, String) -> Discrepancy,
) -> Result<StatementOutcome, Discrepancy> {
    let h = *next % handles.len();
    *next += 1;
    handles[h]
        .execute(&stmt)
        .map_err(|e| fail("session-error", format!("handle {h}: {e}")))
}

fn run_point_sessions_reopen(
    case: &Case,
    point: LatticePoint,
    sessions: usize,
    expected_half: &Relation,
    expected_final: &Relation,
    expected_views: &[Relation],
) -> Result<(), Discrepancy> {
    let fail = |kind: &str, detail: String| {
        Discrepancy::new(
            kind,
            format!("at [{point}] with {sessions} session(s) + reopen: {detail}"),
        )
    };
    let dir = scratch_dir("qcheck-reopen-s");
    let _guard = DirGuard(dir.clone());
    let policy = point_policy(point);
    let open = || {
        SharedStore::open_with(&dir, policy, obs_off(), DurabilityOptions::default())
            .map_err(|e| fail("recovery-error", e.to_string()))
    };

    let mut store = Some(open()?);
    let mut handles: Vec<Session> = (0..sessions)
        .map(|_| store.as_ref().unwrap().session(point.options()))
        .collect();
    let mut next = 0usize;

    for t in &case.tables {
        run_rr(
            &mut handles,
            &mut next,
            Statement::CreateTable(CreateTable {
                name: t.name.clone(),
                columns: t.columns.clone(),
                keys: Vec::new(),
            }),
            &fail,
        )?;
    }
    for (i, t) in case.tables.iter().enumerate() {
        let mut run = |stmt| run_rr(&mut handles, &mut next, stmt, &fail);
        insert(&mut run, &t.name, &t.rows[..case.split_at(i)])?;
    }
    let a1 = {
        let mut run = |stmt| run_rr(&mut handles, &mut next, stmt, &fail);
        answer(&mut run, case)?
    };
    compare(&a1, expected_half, "halfway").map_err(|d| fail(&d.kind, d.detail))?;

    // Reopen #1: every acked write so far must be visible afterwards.
    // Tear down all handles, then the store, *before* reopening — one
    // data directory never has two writers.
    handles.clear();
    drop(store.take());
    store = Some(open()?);
    handles = (0..sessions)
        .map(|_| store.as_ref().unwrap().session(point.options()))
        .collect();
    let a1b = {
        let mut run = |stmt| run_rr(&mut handles, &mut next, stmt, &fail);
        answer(&mut run, case)?
    };
    compare(&a1b, expected_half, "halfway after reopen").map_err(|d| fail(&d.kind, d.detail))?;

    for v in &case.views {
        run_rr(
            &mut handles,
            &mut next,
            Statement::CreateView(CreateView {
                name: v.name.clone(),
                query: v.query.clone(),
            }),
            &fail,
        )?;
    }
    let a2 = {
        let mut run = |stmt| run_rr(&mut handles, &mut next, stmt, &fail);
        answer(&mut run, case)?
    };
    compare(&a2, expected_half, "post-view").map_err(|d| fail(&d.kind, d.detail))?;

    for (i, t) in case.tables.iter().enumerate() {
        let mut run = |stmt| run_rr(&mut handles, &mut next, stmt, &fail);
        insert(&mut run, &t.name, &t.rows[case.split_at(i)..])?;
    }
    let t0 = &case.tables[0];
    run_rr(
        &mut handles,
        &mut next,
        Statement::Delete(Delete {
            table: t0.name.clone(),
            filter: Some(BoolExpr::cmp(
                Expr::Column(ColumnRef::bare(t0.columns[0].clone())),
                CmpOp::Eq,
                Expr::int(1),
            )),
        }),
        &fail,
    )?;

    // Reopen #2: recovery must rebuild the views and (when enabled)
    // their group indexes from the checkpoint + WAL tail.
    handles.clear();
    drop(store.take());
    store = Some(open()?);
    handles = (0..sessions)
        .map(|_| store.as_ref().unwrap().session(point.options()))
        .collect();

    let a3 = {
        let mut run = |stmt| run_rr(&mut handles, &mut next, stmt, &fail);
        answer(&mut run, case)?
    };
    compare(&a3, expected_final, "final after reopen").map_err(|d| fail(&d.kind, d.detail))?;

    // Every (fresh) handle answers the final query correctly, warming
    // its private plan cache.
    for (h, handle) in handles.iter_mut().enumerate() {
        let outcome = handle
            .execute(&Statement::Select(case.query.clone()))
            .map_err(|e| fail("session-error", format!("handle {h}: {e}")))?;
        let StatementOutcome::Answer {
            relation,
            set_semantics,
            ..
        } = outcome
        else {
            return Err(fail(
                "session-error",
                format!("handle {h}: SELECT produced a non-answer outcome"),
            ));
        };
        compare(
            &Served {
                relation,
                set_semantics,
            },
            expected_final,
            &format!("per-handle final (handle {h})"),
        )
        .map_err(|d| fail(&d.kind, d.detail))?;
    }
    if point.cache {
        let before = handles[0].plan_cache().hits();
        handles[0]
            .execute(&Statement::Select(case.query.clone()))
            .map_err(|e| fail("session-error", e.to_string()))?;
        if handles[0].plan_cache().hits() == before {
            return Err(fail(
                "cache-miss",
                "repeated SELECT on a post-reopen handle did not hit its plan cache".into(),
            ));
        }
    }

    // Recovered materialized view contents match reference evaluation.
    let snap = store.as_ref().unwrap().load();
    for (v, want) in case.views.iter().zip(expected_views) {
        let got = snap.state.db.get(&v.name).map_err(|e| {
            fail(
                "recovery-view-mismatch",
                format!("view {} lost: {e}", v.name),
            )
        })?;
        let got = Relation::new(want.columns.clone(), got.rows.clone());
        if !multiset_eq(&got, want) {
            return Err(fail(
                "view-content-mismatch",
                format!(
                    "recovered view {} disagrees with reference evaluation",
                    v.name
                ),
            ));
        }
    }
    Ok(())
}

/// The shard-lattice oracle with durable per-shard stores dropped and
/// reopened mid-stream, plus the partition-completeness invariant on
/// the recovered shards.
pub fn check_case_shards_reopen(case: &Case, shards: usize) -> Result<(), Discrepancy> {
    assert!(shards >= 1, "at least one shard");
    match catch_unwind(AssertUnwindSafe(|| shards_reopen_inner(case, shards))) {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("opaque panic payload");
            Err(Discrepancy::new("panic", msg.to_string()))
        }
    }
}

fn shards_reopen_inner(case: &Case, shards: usize) -> Result<(), Discrepancy> {
    let (expected_half, expected_final, expected_views) = expectations(case)?;
    let final_db = case.database(false);
    for point in LatticePoint::all() {
        run_point_shards_reopen(
            case,
            point,
            shards,
            &expected_half,
            &expected_final,
            &expected_views,
            &final_db,
        )?;
    }
    Ok(())
}

fn run_point_shards_reopen(
    case: &Case,
    point: LatticePoint,
    shards: usize,
    expected_half: &Relation,
    expected_final: &Relation,
    expected_views: &[Relation],
    final_db: &aggview_engine::Database,
) -> Result<(), Discrepancy> {
    let fail = |kind: &str, detail: String| {
        Discrepancy::new(
            kind,
            format!("at [{point}] with {shards} shard(s) + reopen: {detail}"),
        )
    };
    let dir = scratch_dir("qcheck-reopen-p");
    let _guard = DirGuard(dir.clone());
    let policy = point_policy(point);
    let open = || {
        ShardedStore::open(&dir, shards, policy, obs_off())
            .map_err(|e| fail("recovery-error", e.to_string()))
    };
    let driver_options = || SessionOptions {
        verify: true,
        ..point.options()
    };

    let mut store = Some(open()?);
    let mut session = Some(store.as_ref().unwrap().session(driver_options()));
    let run_on = |session: &mut Session, stmt: Statement| {
        session
            .execute(&stmt)
            .map_err(|e| fail("session-error", e.to_string()))
    };

    {
        let s = session.as_mut().unwrap();
        for t in &case.tables {
            run_on(
                s,
                Statement::CreateTable(CreateTable {
                    name: t.name.clone(),
                    columns: t.columns.clone(),
                    keys: Vec::new(),
                }),
            )?;
        }
        for (i, t) in case.tables.iter().enumerate() {
            let mut run = |stmt| run_on(s, stmt);
            insert(&mut run, &t.name, &t.rows[..case.split_at(i)])?;
        }
        let a1 = {
            let mut run = |stmt| run_on(s, stmt);
            answer(&mut run, case)?
        };
        compare(&a1, expected_half, "halfway").map_err(|d| fail(&d.kind, d.detail))?;
    }

    // Reopen #1: acked writes visible across a full shard-set restart.
    drop(session.take());
    drop(store.take());
    store = Some(open()?);
    session = Some(store.as_ref().unwrap().session(driver_options()));
    {
        let s = session.as_mut().unwrap();
        let a1b = {
            let mut run = |stmt| run_on(s, stmt);
            answer(&mut run, case)?
        };
        compare(&a1b, expected_half, "halfway after reopen")
            .map_err(|d| fail(&d.kind, d.detail))?;

        for v in &case.views {
            run_on(
                s,
                Statement::CreateView(CreateView {
                    name: v.name.clone(),
                    query: v.query.clone(),
                }),
            )?;
        }
        let a2 = {
            let mut run = |stmt| run_on(s, stmt);
            answer(&mut run, case)?
        };
        compare(&a2, expected_half, "post-view").map_err(|d| fail(&d.kind, d.detail))?;

        for (i, t) in case.tables.iter().enumerate() {
            let mut run = |stmt| run_on(s, stmt);
            insert(&mut run, &t.name, &t.rows[case.split_at(i)..])?;
        }
        let t0 = &case.tables[0];
        run_on(
            s,
            Statement::Delete(Delete {
                table: t0.name.clone(),
                filter: Some(BoolExpr::cmp(
                    Expr::Column(ColumnRef::bare(t0.columns[0].clone())),
                    CmpOp::Eq,
                    Expr::int(1),
                )),
            }),
        )?;
    }

    // Reopen #2: the full final state recovers shard by shard.
    drop(session.take());
    drop(store.take());
    store = Some(open()?);
    session = Some(store.as_ref().unwrap().session(driver_options()));
    let s = session.as_mut().unwrap();

    let a3 = {
        let mut run = |stmt| run_on(s, stmt);
        answer(&mut run, case)?
    };
    compare(&a3, expected_final, "final after reopen").map_err(|d| fail(&d.kind, d.detail))?;

    // Repeat: bitwise-stable, and a cache hit on the fresh driver.
    let a4 = {
        let mut run = |stmt| run_on(s, stmt);
        answer(&mut run, case)?
    };
    if a3.relation.sorted_rows() != a4.relation.sorted_rows() {
        return Err(fail(
            "cache-hit-divergence",
            "repeated SELECT changed its answer with no intervening write".into(),
        ));
    }
    if point.cache && s.plan_cache().hits() == 0 {
        return Err(fail(
            "cache-miss",
            "repeated SELECT did not hit the post-reopen driver plan cache".into(),
        ));
    }

    // Partition completeness on the *recovered* shards.
    let snaps = store.as_ref().unwrap().load_all();
    for t in &case.tables {
        let want = final_db
            .get(&t.name)
            .map_err(|e| fail("session-error", e.to_string()))?;
        let mut got = Relation::empty(want.columns.iter().cloned());
        for snap in &snaps {
            let part = snap
                .state
                .db
                .get(&t.name)
                .map_err(|e| fail("partition-incomplete", format!("table {}: {e}", t.name)))?;
            got.rows.extend(part.rows.iter().cloned());
        }
        if !multiset_eq(&got, want) {
            return Err(fail(
                "partition-incomplete",
                format!(
                    "table {}: recovered shard partitions concatenate to {} row(s), global has {}",
                    t.name,
                    got.len(),
                    want.len()
                ),
            ));
        }
    }

    // Union-state views on the recovered shards match the reference.
    for (v, want) in case.views.iter().zip(expected_views) {
        let got = s.database().get(&v.name).map_err(|e| {
            fail(
                "recovery-view-mismatch",
                format!("view {} lost: {e}", v.name),
            )
        })?;
        let got = Relation::new(want.columns.clone(), got.rows.clone());
        if !multiset_eq(&got, want) {
            return Err(fail(
                "view-content-mismatch",
                format!(
                    "recovered union view {} disagrees with reference evaluation",
                    v.name
                ),
            ));
        }
    }
    Ok(())
}
