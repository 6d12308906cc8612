//! Stored relations are spines of shared row chunks (`engine::table`).
//! qcheck's tables never cross a chunk boundary, so these tests drive
//! tables from empty to three full chunks and past them:
//!
//! * a differential run over interleaved one-row and bulk inserts,
//!   deletes and fold-maintained views, where a `Double` and a NaN first
//!   appear in later chunks: every query answers the same rows in the
//!   same order on the row path, on the vector path, on a freshly
//!   chunked flat mirror of the table, and (as a bag) in the reference
//!   interpreter;
//! * a structural check that a one-row insert under a held snapshot
//!   copies the tail chunk and shares every sealed one;
//! * a checkpoint check that the same rows encode to the same bytes
//!   however they were inserted.

use aggview::durability::image_from_state;
use aggview::engine::maintenance::{maintain_view_ctx, Delta, DeltaKind, FoldPlan};
use aggview::engine::{
    execute_ctx, execute_reference, multiset_eq, Database, EngineResult, ExecContext, Relation,
    Value, CHUNK_ROWS,
};
use aggview::obs::{CounterId, MetricsRegistry};
use aggview::sql::{parse_query, parse_statement, Query, Statement};
use aggview::state::{EngineState, WritePolicy};
use std::sync::Arc;

const COLUMNS: [&str; 4] = ["id", "k", "v", "w"];

/// Row `id`: an `Int` key, an `Int` payload and a `Double` one.
fn row(id: i64) -> Vec<Value> {
    vec![
        Value::Int(id),
        Value::Int(id % 7),
        Value::Int(id % 13),
        Value::Double((id % 5) as f64 + 0.5),
    ]
}

fn rows(ids: std::ops::Range<i64>) -> Vec<Vec<Value>> {
    ids.map(row).collect()
}

/// The views the writes maintain: a grouped one with few groups, one
/// with a group per row (so it spans chunks itself), and a conjunctive
/// one.
const VIEWS: [(&str, &str); 3] = [
    (
        "ByK",
        "SELECT k, SUM(v) AS s, COUNT(v) AS n FROM T GROUP BY k",
    ),
    (
        "ById",
        "SELECT id, SUM(v) AS s, COUNT(*) AS n FROM T GROUP BY id",
    ),
    ("Low", "SELECT id, k, w FROM T WHERE v < 3"),
];

/// Scans, filters, groupings and aggregates the kernels take, and
/// shapes they decline (a NaN under comparison, a mixed column).
const QUERIES: [&str; 9] = [
    "SELECT id, k, v FROM T WHERE v < 6",
    "SELECT k, SUM(v), COUNT(*) FROM T GROUP BY k",
    "SELECT k, v, COUNT(*), MAX(id) FROM T WHERE k > 1 GROUP BY k, v",
    "SELECT k, MIN(w), MAX(w) FROM T GROUP BY k",
    "SELECT k, AVG(w), SUM(w) FROM T WHERE id >= 100 GROUP BY k",
    "SELECT id, v FROM T WHERE w > 2.0",
    "SELECT COUNT(*), MIN(id), MAX(id) FROM T",
    "SELECT id, w FROM T WHERE id = 1500",
    "SELECT s, n FROM ById WHERE id > 1000",
];

fn query(sql: &str) -> Query {
    parse_query(sql).unwrap_or_else(|e| panic!("{sql}: {e}"))
}

/// A database holding `T` and every view, each view with its fold plan.
fn setup(metrics: &Arc<MetricsRegistry>) -> (Database, Vec<(String, Query)>) {
    let mut db = Database::new();
    db.set_metrics(Arc::clone(metrics));
    db.insert("T", Relation::new(COLUMNS, Vec::new()));
    let cx = ExecContext::new();
    let views: Vec<(String, Query)> = VIEWS
        .iter()
        .map(|(name, sql)| (name.to_string(), query(sql)))
        .collect();
    for (name, q) in &views {
        let mut rel = execute_ctx(q, &db, &cx).expect("view materializes");
        rel.columns = q.output_names();
        db.insert(name.clone(), rel);
        let plan = FoldPlan::compile(q, &db, &cx).expect("every view folds");
        db.set_fold_plan(name, plan);
    }
    (db, views)
}

/// Apply `kind` to `T` and fold it into every view, while a snapshot
/// shares every entry (as a published one does).
fn write(db: &mut Database, views: &[(String, Query)], kind: DeltaKind<'_>) -> EngineResult<()> {
    let snapshot = db.clone();
    db.update("T", |t, _| match kind {
        DeltaKind::Insert(rows) => t.extend_from_slice(rows),
        DeltaKind::Delete(rows) => t.remove_rows(rows),
    })?;
    let delta = Delta::new("T", kind, db)?;
    for (name, q) in views {
        let folded = maintain_view_ctx(name, q, Some(&delta), db, &ExecContext::new())?;
        assert!(folded, "`{name}` folds");
    }
    drop(snapshot);
    Ok(())
}

/// The rows of `T` matching `filter`, in stored order.
fn matching(db: &Database, filter: &str) -> Vec<Vec<Value>> {
    let q = query(&format!("SELECT id, k, v, w FROM T WHERE {filter}"));
    execute_ctx(&q, db, &ExecContext::columnar(false))
        .expect("filter runs")
        .rows
}

/// Are two answers the same, NaN cells included?
fn same(a: &EngineResult<Relation>, b: &EngineResult<Relation>) -> bool {
    match (a, b) {
        (Ok(a), Ok(b)) => {
            a.columns == b.columns
                && a.rows.len() == b.rows.len()
                && a.rows.iter().zip(&b.rows).all(|(x, y)| {
                    x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.cmp_total(q).is_eq())
                })
        }
        (Err(a), Err(b)) => a == b,
        _ => false,
    }
}

/// Bag equality that also holds between NaN cells.
fn bag_eq(a: &Relation, b: &Relation) -> bool {
    let sorted = |r: &Relation| Ok(Relation::new(r.columns.clone(), r.sorted_rows()));
    multiset_eq(a, b) || same(&sorted(a), &sorted(b))
}

/// Every check, after one step.
fn check(db: &Database, mirror: &Relation, step: &str) {
    let table = db.table("T").expect("T");
    let lens: Vec<usize> = table.chunks().map(<[Vec<Value>]>::len).collect();
    assert_eq!(table.len(), mirror.len(), "{step}");
    assert_eq!(
        lens.len(),
        mirror.len().div_ceil(CHUNK_ROWS),
        "{step}: {lens:?}"
    );
    assert!(
        lens.iter().rev().skip(1).all(|&n| n == CHUNK_ROWS) && !lens.contains(&0),
        "{step}: only the tail chunk is short, none empty: {lens:?}"
    );
    assert_eq!(
        &table.to_relation(),
        mirror,
        "{step}: stored rows and order"
    );

    // The same rows, chunked afresh from the flat mirror.
    let mut flat = Database::new();
    flat.insert("T", mirror.clone());
    for (name, _) in VIEWS {
        flat.insert(name, db.table(name).expect("view").clone());
    }
    for sql in QUERIES {
        let q = query(sql);
        let row = execute_ctx(&q, db, &ExecContext::columnar(false));
        let vector = execute_ctx(&q, db, &ExecContext::columnar(true));
        let fresh = execute_ctx(&q, &flat, &ExecContext::columnar(true));
        assert!(
            same(&row, &vector),
            "{step}: `{sql}` row vs vector path:\n{row:?}\n{vector:?}"
        );
        assert!(
            same(&row, &fresh),
            "{step}: `{sql}` vs the flat mirror:\n{row:?}\n{fresh:?}"
        );
        match (&row, execute_reference(&q, db)) {
            (Ok(got), Ok(want)) => assert!(bag_eq(got, &want), "{step}: `{sql}`"),
            (Err(_), Err(_)) => {}
            (got, want) => panic!("{step}: `{sql}`: {got:?} vs reference {want:?}"),
        }
    }
    for (name, q) in VIEWS {
        let want = execute_reference(&query(q), &flat).expect("reference view");
        let got = db.table(name).expect("view").to_relation();
        assert!(bag_eq(&got, &want), "{step}: view `{name}`");
    }
}

/// A labelled insert: the ids from the next one up to `end(next)`.
type Step = (&'static str, fn(i64) -> i64);

#[test]
fn every_path_agrees_across_chunk_boundaries() {
    let metrics = Arc::new(MetricsRegistry::default());
    let (mut db, views) = setup(&metrics);
    let mut mirror = Relation::new(COLUMNS, Vec::new());
    check(&db, &mirror, "empty");
    let mut next = 0i64;
    let insert = |db: &mut Database, mirror: &mut Relation, batch: Vec<Vec<Value>>| {
        write(db, &views, DeltaKind::Insert(&batch)).expect("insert");
        mirror.rows.extend(batch);
    };
    const CR: i64 = CHUNK_ROWS as i64;
    let steps: [Step; 7] = [
        ("one row", |n| n + 1),
        ("bulk to just short of a chunk", |_| CR - 2),
        ("one row", |n| n + 1),
        ("one row fills the chunk", |n| n + 1),
        ("one row opens chunk 2", |n| n + 1),
        ("bulk across a boundary", |n| n + CR + 5),
        ("bulk to a boundary", |_| 3 * CR),
    ];
    for (what, end) in steps {
        let batch = rows(next..end(next));
        next = end(next);
        insert(&mut db, &mut mirror, batch);
        check(&db, &mirror, what);
    }

    // A `Double` in the `Int` column `v`, first seen as the first row of
    // the fourth chunk (so that chunk converts `v` as a clean `Double`
    // column), then in the middle of it.
    for at in ["a chunk's first row", "mid-chunk"] {
        let mut mixed = row(next);
        mixed[2] = Value::Double(2.5);
        next += 1;
        insert(&mut db, &mut mirror, vec![mixed]);
        check(&db, &mirror, &format!("a Double as {at}"));
    }

    // Deletes that reach every chunk re-pack the rows in order.
    for filter in ["k = 3 AND v = 5", "id = 3", "id > 2000 AND id < 2010"] {
        let gone = matching(&db, filter);
        assert!(!gone.is_empty(), "`{filter}` deletes something");
        write(&mut db, &views, DeltaKind::Delete(&gone)).expect("delete");
        mirror.remove_rows(&gone);
        check(&db, &mirror, filter);
    }

    // Grow to three full chunks and past them, one bulk insert then
    // one-row inserts, with a NaN first seen in the last chunk.
    let fill = 3 * CHUNK_ROWS - mirror.len();
    let batch = rows(next..next + fill as i64);
    next += fill as i64;
    insert(&mut db, &mut mirror, batch);
    check(&db, &mirror, "three full chunks");
    for i in 0..7 {
        let mut one = row(next);
        if i == 3 {
            one[3] = Value::Double(f64::NAN);
        }
        next += 1;
        insert(&mut db, &mut mirror, vec![one]);
        check(&db, &mirror, "one row past three chunks");
    }
    assert_eq!(mirror.len(), 3 * CHUNK_ROWS + 7);
    assert!(
        metrics.get(CounterId::ExecVectorized) > 0 && metrics.get(CounterId::ExecRowFallback) > 0,
        "both paths ran"
    );
}

fn run(state: &mut EngineState, sql: &str) {
    match parse_statement(sql).unwrap_or_else(|e| panic!("{sql}: {e}")) {
        Statement::CreateTable(ct) => drop(state.create_table(&ct).expect("table")),
        Statement::CreateView(cv) => drop(
            state
                .create_view(&cv, WritePolicy::default())
                .expect("view"),
        ),
        Statement::Insert(ins) => drop(state.insert(&ins, WritePolicy::default()).expect("insert")),
        other => panic!("unexpected statement {other}"),
    }
}

fn values(ids: std::ops::Range<i64>) -> String {
    let rows: Vec<String> = ids
        .map(|id| format!("({id}, {}, {})", id % 7, id % 13))
        .collect();
    rows.join(", ")
}

#[test]
fn a_one_row_insert_copies_the_tail_chunk_and_shares_the_sealed_ones() {
    let mut state = EngineState::new();
    run(&mut state, "CREATE TABLE T (id, k, v)");
    run(
        &mut state,
        "CREATE VIEW V AS SELECT k, SUM(v) AS s FROM T GROUP BY k",
    );
    let n = 2 * CHUNK_ROWS as i64 + 100;
    run(
        &mut state,
        &format!("INSERT INTO T VALUES {}", values(0..n)),
    );
    let snapshot = state.clone();
    run(
        &mut state,
        &format!("INSERT INTO T VALUES {}", values(n..n + 1)),
    );

    let (before, after) = (
        snapshot.db.table("T").expect("T").chunk_handles(),
        state.db.table("T").expect("T").chunk_handles(),
    );
    assert_eq!((before.len(), after.len()), (3, 3));
    for (i, (b, a)) in before.iter().zip(after).enumerate() {
        assert_eq!(Arc::ptr_eq(b, a), i < 2, "chunk {i}");
    }
    assert_eq!(before[2].rows().len(), 100, "the snapshot keeps its tail");
    assert_eq!(after[2].rows().len(), 101);
}

#[test]
fn the_same_rows_encode_to_the_same_checkpoint_however_inserted() {
    let setup = |state: &mut EngineState| {
        run(state, "CREATE TABLE T (id, k, v)");
        run(
            state,
            "CREATE VIEW V AS SELECT k, SUM(v) AS s, COUNT(v) AS n FROM T GROUP BY k",
        );
    };
    let n = CHUNK_ROWS as i64 + 30;
    let (mut one_by_one, mut at_once) = (EngineState::new(), EngineState::new());
    setup(&mut one_by_one);
    setup(&mut at_once);
    for id in 0..n {
        run(
            &mut one_by_one,
            &format!("INSERT INTO T VALUES {}", values(id..id + 1)),
        );
    }
    run(
        &mut at_once,
        &format!("INSERT INTO T VALUES {}", values(0..n)),
    );
    let bytes = |state: &EngineState| aggview_store::encode_image(&image_from_state(state, 9, 2));
    assert_eq!(bytes(&one_by_one), bytes(&at_once));
}
