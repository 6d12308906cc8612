//! The differential oracle: one case, every execution path, one verdict.
//!
//! The reference answer comes from `engine::reference` — a naive
//! cross-product interpreter with no join planning, no indexes, no
//! rewriting, slow and obviously correct. Everything the production stack
//! can vary is then cross-checked against it:
//!
//! * a **session config lattice** (plan cache on/off × grouped-view
//!   indexes on/off × delta-maintained vs. recomputed views × columnar
//!   vs. row-at-a-time execution — 16 points)
//!   replaying the same statement stream, with the
//!   query answered at three points (half the data, after view creation,
//!   after more inserts and a delete) plus a repeated `SELECT` that must
//!   serve from the plan cache without drift;
//! * the final **materialized view contents** of every lattice point,
//!   which must agree with each other and with reference evaluation of
//!   the view definition;
//! * **every emitted rewriting** (not just the chosen one), executed and
//!   compared under the semantics it claims — multiset equality
//!   (Theorem 3.1) in general, set equality for §5 rewritings;
//! * the **parallel search** (`threads = 4`), which must emit the same
//!   rewriting set as the sequential one;
//! * a **display→parse round-trip** of the query and each view.
//!
//! Any disagreement (or a panic anywhere in the stack) is a
//! [`Discrepancy`], tagged with a stable `kind` the shrinker preserves.

use crate::case::Case;
use aggview::run::execute_rewriting;
use aggview::server::SharedStore;
use aggview::session::{Session, SessionOptions, StatementOutcome};
use aggview::sharded::ShardedStore;
use aggview::state::WritePolicy;
use aggview_core::{RewriteOptions, Rewriter};
use aggview_engine::{execute_reference, multiset_eq, set_eq, Database, Relation};
use aggview_sql::ast::{BoolExpr, CmpOp, ColumnRef, Expr, Literal};
use aggview_sql::{parse_query, CreateTable, CreateView, Delete, Insert, Statement};
use std::fmt;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A cross-check failure: a stable kind (preserved by shrinking) plus a
/// human-readable detail.
#[derive(Debug, Clone)]
pub struct Discrepancy {
    /// Which oracle check failed (`"answer-mismatch"`, `"roundtrip"`, ...).
    pub kind: String,
    /// What disagreed with what.
    pub detail: String,
}

impl Discrepancy {
    pub(crate) fn new(kind: &str, detail: impl Into<String>) -> Self {
        Discrepancy {
            kind: kind.to_string(),
            detail: detail.into(),
        }
    }
}

impl fmt::Display for Discrepancy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.kind, self.detail)
    }
}

/// One point of the session config lattice.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LatticePoint {
    pub(crate) cache: bool,
    pub(crate) index: bool,
    pub(crate) recompute: bool,
    pub(crate) columnar: bool,
}

impl LatticePoint {
    pub(crate) fn all() -> Vec<LatticePoint> {
        let mut out = Vec::with_capacity(16);
        for cache in [true, false] {
            for index in [true, false] {
                for recompute in [true, false] {
                    for columnar in [true, false] {
                        out.push(LatticePoint {
                            cache,
                            index,
                            recompute,
                            columnar,
                        });
                    }
                }
            }
        }
        out
    }

    pub(crate) fn options(&self) -> SessionOptions {
        SessionOptions {
            plan_cache_cap: if self.cache { 64 } else { 0 },
            index_views: self.index,
            recompute_views: self.recompute,
            columnar: self.columnar,
            ..SessionOptions::default()
        }
    }
}

impl fmt::Display for LatticePoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cache={} index={} recompute={} columnar={}",
            self.cache as u8, self.index as u8, self.recompute as u8, self.columnar as u8
        )
    }
}

/// Check one case against every oracle. `Ok(())` = all paths agree.
/// Panics anywhere in the stack are converted into a `"panic"`
/// discrepancy, so a soak run survives an engine crash and shrinks it.
pub fn check_case(case: &Case) -> Result<(), Discrepancy> {
    match catch_unwind(AssertUnwindSafe(|| check_case_inner(case))) {
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

fn check_case_inner(case: &Case) -> Result<(), Discrepancy> {
    roundtrip(case)?;

    // Reference answers on both database snapshots.
    let half_db = case.database(true);
    let final_db = case.database(false);
    let expected_half = execute_reference(&case.query, &half_db)
        .map_err(|e| Discrepancy::new("reference-error", e.to_string()))?;
    let expected_final = execute_reference(&case.query, &final_db)
        .map_err(|e| Discrepancy::new("reference-error", e.to_string()))?;

    // Reference contents of each view on the final snapshot (views range
    // over base tables only).
    let expected_views: Vec<Relation> = case
        .views
        .iter()
        .map(|v| {
            execute_reference(&v.query, &final_db)
                .map_err(|e| Discrepancy::new("reference-error", format!("view {}: {e}", v.name)))
        })
        .collect::<Result<_, _>>()?;

    // Replay the statement stream at every lattice point.
    let mut view_contents: Option<(LatticePoint, Vec<Vec<Vec<aggview_engine::Value>>>)> = None;
    for point in LatticePoint::all() {
        let finals = run_lattice_point(case, point, &expected_half, &expected_final)?;
        // Final materialized view contents: equal to the reference
        // evaluation, and identical across lattice points.
        for (i, (got, want)) in finals.iter().zip(&expected_views).enumerate() {
            let got_rel = Relation::new(want.columns.clone(), got.clone());
            if !multiset_eq(&got_rel, want) {
                return Err(Discrepancy::new(
                    "view-content-mismatch",
                    format!(
                        "view {} at [{point}] disagrees with reference evaluation",
                        case.views[i].name
                    ),
                ));
            }
        }
        match &view_contents {
            None => view_contents = Some((point, finals)),
            Some((first, baseline)) => {
                if *baseline != finals {
                    return Err(Discrepancy::new(
                        "config-divergence",
                        format!("materialized views differ between [{first}] and [{point}]"),
                    ));
                }
            }
        }
    }

    check_rewritings(case, &final_db, &expected_final)?;
    check_thread_determinism(case)
}

/// Check one case through K handles of one [`SharedStore`]: the same
/// statement stream, deterministically round-robined across the handles
/// (one driver thread, every write acked before the next statement, so
/// batches have size 1 and the interleaving is identical on every run).
/// The answers must match the same reference expectations the
/// single-session oracle enforces — a handle whose private plan cache
/// survives another handle's DDL, or whose pinned snapshot misses an
/// acked write, shows up as a mismatch. Runs the whole 16-point options
/// lattice; the lattice's write-side axes (index, recompute, columnar)
/// become the store-wide [`WritePolicy`].
pub fn check_case_sessions(case: &Case, sessions: usize) -> Result<(), Discrepancy> {
    assert!(sessions >= 1, "at least one session handle");
    match catch_unwind(AssertUnwindSafe(|| {
        check_case_sessions_inner(case, sessions)
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

fn check_case_sessions_inner(case: &Case, sessions: usize) -> Result<(), Discrepancy> {
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

    for point in LatticePoint::all() {
        run_lattice_point_sessions(
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

/// The statement stream round-robined across K store handles at one
/// lattice point.
fn run_lattice_point_sessions(
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
            format!("at [{point}] with {sessions} session(s): {detail}"),
        )
    };
    let store = SharedStore::new(WritePolicy {
        index_views: point.index,
        recompute_views: point.recompute,
        columnar: point.columnar,
        durability: false,
    });
    let mut handles: Vec<Session> = (0..sessions)
        .map(|_| store.session(point.options()))
        .collect();
    let mut next = 0usize;
    let mut run = |stmt: Statement| {
        let h = next % sessions;
        next += 1;
        handles[h]
            .execute(&stmt)
            .map_err(|e| fail("session-error", format!("handle {h}: {e}")))
    };

    for t in &case.tables {
        run(Statement::CreateTable(CreateTable {
            name: t.name.clone(),
            columns: t.columns.clone(),
            keys: Vec::new(),
        }))?;
    }
    for (i, t) in case.tables.iter().enumerate() {
        insert(&mut run, &t.name, &t.rows[..case.split_at(i)])?;
    }
    let a1 = answer(&mut run, case)?;
    compare(&a1, expected_half, "halfway").map_err(|d| fail(&d.kind, d.detail))?;

    for v in &case.views {
        run(Statement::CreateView(CreateView {
            name: v.name.clone(),
            query: v.query.clone(),
        }))?;
    }
    let a2 = answer(&mut run, case)?;
    compare(&a2, expected_half, "post-view").map_err(|d| fail(&d.kind, d.detail))?;

    for (i, t) in case.tables.iter().enumerate() {
        insert(&mut run, &t.name, &t.rows[case.split_at(i)..])?;
    }
    let t0 = &case.tables[0];
    run(Statement::Delete(Delete {
        table: t0.name.clone(),
        filter: Some(BoolExpr::cmp(
            Expr::Column(ColumnRef::bare(t0.columns[0].clone())),
            CmpOp::Eq,
            Expr::int(1),
        )),
    }))?;

    let a3 = answer(&mut run, case)?;
    compare(&a3, expected_final, "final").map_err(|d| fail(&d.kind, d.detail))?;

    // Every handle must now answer the final query correctly against the
    // same published state — whatever its private cache did earlier, and
    // regardless of which statements it happened to execute.
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

    // Cache axis: a repeated select on one handle must serve from its
    // cache (the per-handle final above warmed it).
    if point.cache {
        let before = handles[0].plan_cache().hits();
        handles[0]
            .execute(&Statement::Select(case.query.clone()))
            .map_err(|e| fail("session-error", e.to_string()))?;
        if handles[0].plan_cache().hits() == before {
            return Err(fail(
                "cache-miss",
                "repeated SELECT on handle 0 did not hit its plan cache".into(),
            ));
        }
    }

    // Final materialized view contents on the published snapshot must
    // match the reference evaluation.
    let snap = store.load();
    for (v, want) in case.views.iter().zip(expected_views) {
        let got = snap
            .state
            .db
            .get(&v.name)
            .map_err(|e| fail("session-error", e.to_string()))?;
        let got = Relation::new(want.columns.clone(), got.rows.clone());
        if !multiset_eq(&got, want) {
            return Err(fail(
                "view-content-mismatch",
                format!("view {} disagrees with reference evaluation", v.name),
            ));
        }
    }
    Ok(())
}

/// Check one case against a hash-partitioned store of `shards` shards,
/// driven through one scatter-gather session. The same statement stream
/// and reference expectations as the single-session oracle, plus a
/// **partition-completeness** invariant: after the full write protocol,
/// the per-shard base-table contents must be a disjoint cover of the
/// global contents (their concatenation is multiset-equal to the
/// unsharded final database), and the union-state views must match the
/// reference evaluation. Runs the whole 16-point options lattice; the
/// write-side axes become the per-shard [`WritePolicy`].
pub fn check_case_shards(case: &Case, shards: usize) -> Result<(), Discrepancy> {
    assert!(shards >= 1, "at least one shard");
    match catch_unwind(AssertUnwindSafe(|| check_case_shards_inner(case, shards))) {
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

fn check_case_shards_inner(case: &Case, shards: usize) -> Result<(), Discrepancy> {
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

    for point in LatticePoint::all() {
        run_lattice_point_shards(
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

/// The statement stream through one scatter-gather driver session over a
/// `shards`-way partitioned store, at one lattice point.
fn run_lattice_point_shards(
    case: &Case,
    point: LatticePoint,
    shards: usize,
    expected_half: &Relation,
    expected_final: &Relation,
    expected_views: &[Relation],
    final_db: &Database,
) -> Result<(), Discrepancy> {
    let fail = |kind: &str, detail: String| {
        Discrepancy::new(
            kind,
            format!("at [{point}] with {shards} shard(s): {detail}"),
        )
    };
    let store = ShardedStore::new(
        shards,
        WritePolicy {
            index_views: point.index,
            recompute_views: point.recompute,
            columnar: point.columnar,
            durability: false,
        },
    );
    let mut session = store.session(SessionOptions {
        // The scatter-gather path double-checks every merged answer
        // against the union evaluation.
        verify: true,
        ..point.options()
    });
    let mut run = |stmt: Statement| {
        session
            .execute(&stmt)
            .map_err(|e| fail("session-error", e.to_string()))
    };

    for t in &case.tables {
        run(Statement::CreateTable(CreateTable {
            name: t.name.clone(),
            columns: t.columns.clone(),
            keys: Vec::new(),
        }))?;
    }
    for (i, t) in case.tables.iter().enumerate() {
        insert(&mut run, &t.name, &t.rows[..case.split_at(i)])?;
    }
    let a1 = answer(&mut run, case)?;
    compare(&a1, expected_half, "halfway").map_err(|d| fail(&d.kind, d.detail))?;

    for v in &case.views {
        run(Statement::CreateView(CreateView {
            name: v.name.clone(),
            query: v.query.clone(),
        }))?;
    }
    let a2 = answer(&mut run, case)?;
    compare(&a2, expected_half, "post-view").map_err(|d| fail(&d.kind, d.detail))?;

    for (i, t) in case.tables.iter().enumerate() {
        insert(&mut run, &t.name, &t.rows[case.split_at(i)..])?;
    }
    let t0 = &case.tables[0];
    run(Statement::Delete(Delete {
        table: t0.name.clone(),
        filter: Some(BoolExpr::cmp(
            Expr::Column(ColumnRef::bare(t0.columns[0].clone())),
            CmpOp::Eq,
            Expr::int(1),
        )),
    }))?;

    let a3 = answer(&mut run, case)?;
    compare(&a3, expected_final, "final").map_err(|d| fail(&d.kind, d.detail))?;

    // Repeat: bitwise-stable answer; with the cache on, a cache hit.
    let a4 = answer(&mut run, case)?;
    if a3.relation.sorted_rows() != a4.relation.sorted_rows() {
        return Err(fail(
            "cache-hit-divergence",
            "repeated SELECT changed its answer with no intervening write".into(),
        ));
    }
    if point.cache && session.plan_cache().hits() == 0 {
        return Err(fail(
            "cache-miss",
            "repeated SELECT did not hit the driver plan cache".into(),
        ));
    }

    // Partition completeness: every base table's global contents must be
    // exactly the disjoint union of its per-shard partitions.
    let snaps = store.load_all();
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
                .map_err(|e| fail("session-error", e.to_string()))?;
            got.rows.extend(part.rows.iter().cloned());
        }
        if !multiset_eq(&got, want) {
            return Err(fail(
                "partition-incomplete",
                format!(
                    "table {}: shard partitions concatenate to {} row(s), global has {}",
                    t.name,
                    got.len(),
                    want.len()
                ),
            ));
        }
    }

    // Union-state views must match the reference evaluation.
    for (v, want) in case.views.iter().zip(expected_views) {
        let got = session
            .database()
            .get(&v.name)
            .map_err(|e| fail("session-error", e.to_string()))?;
        let got = Relation::new(want.columns.clone(), got.rows.clone());
        if !multiset_eq(&got, want) {
            return Err(fail(
                "view-content-mismatch",
                format!("union view {} disagrees with reference evaluation", v.name),
            ));
        }
    }
    Ok(())
}

/// Display→parse round-trip of the query and each view definition.
fn roundtrip(case: &Case) -> Result<(), Discrepancy> {
    let mut targets = vec![("query".to_string(), &case.query)];
    for v in &case.views {
        targets.push((format!("view {}", v.name), &v.query));
    }
    for (what, q) in targets {
        let text = q.to_string();
        match parse_query(&text) {
            Ok(back) if back == *q => {}
            Ok(_) => {
                return Err(Discrepancy::new(
                    "roundtrip",
                    format!("{what} reparses differently: {text}"),
                ))
            }
            Err(e) => {
                return Err(Discrepancy::new(
                    "roundtrip",
                    format!("{what} fails to reparse ({e}): {text}"),
                ))
            }
        }
    }
    Ok(())
}

/// The statement stream at one lattice point. Returns the final sorted
/// rows of each materialized view.
fn run_lattice_point(
    case: &Case,
    point: LatticePoint,
    expected_half: &Relation,
    expected_final: &Relation,
) -> Result<Vec<Vec<Vec<aggview_engine::Value>>>, Discrepancy> {
    let fail =
        |kind: &str, detail: String| Discrepancy::new(kind, format!("at [{point}]: {detail}"));
    let mut session = Session::new(point.options());
    let mut run = |stmt: Statement| {
        session
            .execute(&stmt)
            .map_err(|e| fail("session-error", e.to_string()))
    };

    for t in &case.tables {
        run(Statement::CreateTable(CreateTable {
            name: t.name.clone(),
            columns: t.columns.clone(),
            keys: Vec::new(),
        }))?;
    }
    for (i, t) in case.tables.iter().enumerate() {
        insert(&mut run, &t.name, &t.rows[..case.split_at(i)])?;
    }

    // Query at the halfway snapshot (no views yet: base-table serving).
    let a1 = answer(&mut run, case)?;
    compare(&a1, expected_half, "halfway").map_err(|d| fail(&d.kind, d.detail))?;

    for v in &case.views {
        run(Statement::CreateView(CreateView {
            name: v.name.clone(),
            query: v.query.clone(),
        }))?;
    }
    // Same data, now with views in play: the searches run, a rewriting may
    // be chosen, the answer must not move.
    let a2 = answer(&mut run, case)?;
    compare(&a2, expected_half, "post-view").map_err(|d| fail(&d.kind, d.detail))?;

    for (i, t) in case.tables.iter().enumerate() {
        insert(&mut run, &t.name, &t.rows[case.split_at(i)..])?;
    }
    let t0 = &case.tables[0];
    run(Statement::Delete(Delete {
        table: t0.name.clone(),
        filter: Some(BoolExpr::cmp(
            Expr::Column(ColumnRef::bare(t0.columns[0].clone())),
            CmpOp::Eq,
            Expr::int(1),
        )),
    }))?;

    let a3 = answer(&mut run, case)?;
    compare(&a3, expected_final, "final").map_err(|d| fail(&d.kind, d.detail))?;

    // Repeat: with the cache on this must serve the stored plan; either
    // way the answer must be bitwise-stable (sorted) against the previous.
    let a4 = answer(&mut run, case)?;
    if a3.relation.sorted_rows() != a4.relation.sorted_rows() {
        return Err(fail(
            "cache-hit-divergence",
            "repeated SELECT changed its answer with no intervening write".into(),
        ));
    }
    if point.cache && session.plan_cache().hits() == 0 {
        return Err(fail(
            "cache-miss",
            "repeated SELECT did not hit the plan cache".into(),
        ));
    }

    Ok(case
        .views
        .iter()
        .map(|v| {
            session
                .database()
                .get(&v.name)
                .expect("views stay materialized")
                .sorted_rows()
        })
        .collect())
}

/// A served answer plus the semantics it was produced under.
pub(crate) struct Served {
    pub(crate) relation: Relation,
    pub(crate) set_semantics: bool,
}

pub(crate) fn answer(
    run: &mut impl FnMut(Statement) -> Result<StatementOutcome, Discrepancy>,
    case: &Case,
) -> Result<Served, Discrepancy> {
    match run(Statement::Select(case.query.clone()))? {
        StatementOutcome::Answer {
            relation,
            set_semantics,
            ..
        } => Ok(Served {
            relation,
            set_semantics,
        }),
        other => Err(Discrepancy::new(
            "session-error",
            format!("SELECT produced a non-answer outcome: {other:?}"),
        )),
    }
}

pub(crate) fn insert(
    run: &mut impl FnMut(Statement) -> Result<StatementOutcome, Discrepancy>,
    table: &str,
    rows: &[Vec<i64>],
) -> Result<(), Discrepancy> {
    if rows.is_empty() {
        return Ok(());
    }
    run(Statement::Insert(Insert {
        table: table.to_string(),
        rows: rows
            .iter()
            .map(|r| r.iter().map(|&v| Literal::Int(v)).collect())
            .collect(),
    }))?;
    Ok(())
}

pub(crate) fn compare(served: &Served, expected: &Relation, step: &str) -> Result<(), Discrepancy> {
    let eq = if served.set_semantics {
        set_eq(&served.relation, expected)
    } else {
        multiset_eq(&served.relation, expected)
    };
    if eq {
        Ok(())
    } else {
        Err(Discrepancy::new(
            "answer-mismatch",
            format!(
                "{step} answer disagrees with the reference interpreter \
                 (got {} row(s), expected {})",
                served.relation.len(),
                expected.len()
            ),
        ))
    }
}

/// Execute *every* emitted rewriting on the final database and compare
/// with the reference answer under the semantics the rewriting claims.
fn check_rewritings(
    case: &Case,
    final_db: &Database,
    expected: &Relation,
) -> Result<(), Discrepancy> {
    let catalog = case.catalog();
    let rewriter = Rewriter::new(&catalog);
    let rewritings = rewriter
        .rewrite(&case.query, &case.views)
        .map_err(|e| Discrepancy::new("rewrite-error", e.to_string()))?;
    if rewritings.is_empty() {
        return Ok(());
    }
    let mut db = final_db.clone();
    aggview::run::materialize_views(&mut db, &case.views)
        .map_err(|e| Discrepancy::new("engine-error", e.to_string()))?;
    for rw in &rewritings {
        let got = execute_rewriting(rw, &db)
            .map_err(|e| Discrepancy::new("engine-error", format!("{e}: {}", rw.query)))?;
        let eq = if rw.set_semantics {
            set_eq(&got, expected)
        } else {
            multiset_eq(&got, expected)
        };
        if !eq {
            return Err(Discrepancy::new(
                "rewriting-inequivalent",
                format!(
                    "rewriting over {:?} disagrees with the reference interpreter \
                     (got {} row(s), expected {}): {}",
                    rw.views_used,
                    got.len(),
                    expected.len(),
                    rw.query
                ),
            ));
        }
    }
    Ok(())
}

/// The parallel search must emit exactly the sequential rewriting set.
fn check_thread_determinism(case: &Case) -> Result<(), Discrepancy> {
    let catalog = case.catalog();
    let emitted = |threads: usize| -> Result<Vec<String>, Discrepancy> {
        let options = RewriteOptions {
            threads: NonZeroUsize::new(threads),
            ..RewriteOptions::default()
        };
        let rws = Rewriter::with_options(&catalog, options)
            .rewrite(&case.query, &case.views)
            .map_err(|e| Discrepancy::new("rewrite-error", e.to_string()))?;
        let mut texts: Vec<String> = rws.iter().map(|r| r.query.to_string()).collect();
        texts.sort();
        Ok(texts)
    };
    let sequential = emitted(1)?;
    let parallel = emitted(4)?;
    if sequential != parallel {
        return Err(Discrepancy::new(
            "thread-divergence",
            format!(
                "threads=1 emitted {} rewriting(s), threads=4 emitted {}",
                sequential.len(),
                parallel.len()
            ),
        ));
    }
    Ok(())
}
