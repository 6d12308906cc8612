//! The write path's two contracts with the stored relations: a publish
//! shares every relation the batch did not touch (rows, index and
//! columnar conversion), and a write statement that fails is applied
//! nowhere — not to the base table, not to any view or index, not to the
//! next published snapshot, and not to the WAL.

use aggview::engine::{Database, Value};
use aggview::server::SharedStore;
use aggview::session::{Session, SessionOptions};
use aggview::sql::parse_script;
use aggview::state::WritePolicy;
use std::sync::Arc;

fn run(session: &mut Session, sql: &str) -> Result<(), String> {
    let stmts = parse_script(sql).expect("script parses");
    session
        .run_script(&stmts)
        .map(drop)
        .map_err(|e| e.to_string())
}

#[test]
fn consecutive_snapshots_share_the_untouched_relation() {
    let store = SharedStore::with_defaults();
    let mut session = store.session(SessionOptions::default());
    run(
        &mut session,
        "CREATE TABLE A (x); CREATE TABLE B (y);
         INSERT INTO A VALUES (1); INSERT INTO B VALUES (2);",
    )
    .expect("setup");
    let before = store.load();
    let a_before = before.state.db.columnar("A").expect("A converts");
    let b_before = before.state.db.columnar("B").expect("B converts");

    run(&mut session, "INSERT INTO A VALUES (3);").expect("insert");
    let after = store.load();
    assert!(after.epoch > before.epoch);
    assert!(
        Arc::ptr_eq(&b_before, &after.state.db.columnar("B").expect("B")),
        "B was not written: both snapshots serve one conversion"
    );
    assert_eq!(after.state.db.columnar("A").expect("A").n_rows(), 2);
    // The pinned snapshot still sees A as it was.
    assert_eq!(before.state.db.get("A").expect("A").len(), 1);
    assert!(Arc::ptr_eq(
        &a_before,
        &before.state.db.columnar("A").expect("A")
    ));
}

/// `W` is maintained before `V`, so by the time `V`'s SUM rejects the
/// string, the base table and `W` have already taken the row.
const SETUP: &str = "CREATE TABLE T (a, b);
    CREATE VIEW W AS SELECT a, COUNT(*) AS c FROM T GROUP BY a;
    CREATE VIEW V AS SELECT a, SUM(b) AS s, COUNT(b) AS n FROM T GROUP BY a;
    INSERT INTO T VALUES (1, 5), (1, 6);";
const FAILING: &str = "INSERT INTO T VALUES (1, 'x');";

/// Every stored relation's rows in stored order, plus its index's key
/// columns and distinct-key count.
type Contents = Vec<(String, Vec<Vec<Value>>, Option<(Vec<usize>, usize)>)>;

fn contents(db: &Database) -> Contents {
    db.iter()
        .map(|(name, rel)| {
            let index = db.index(name).map(|idx| {
                assert!(idx.is_consistent_with(rel), "index on `{name}` is stale");
                (idx.key_cols().to_vec(), idx.len())
            });
            (name.clone(), rel.rows.clone(), index)
        })
        .collect()
}

/// Runs [`SETUP`], the failing insert, a read, and one more insert —
/// whose publish must not carry anything of the failed one.
fn assert_failing_insert_changes_nothing(session: &mut Session) {
    run(session, SETUP).expect("setup");
    let before = contents(session.database());
    assert!(before
        .iter()
        .any(|(name, _, index)| name == "V" && index.is_some()));
    let e = run(session, FAILING).expect_err("SUM over a string");
    assert_eq!(e, "maintaining `V`: type error: sum over non-numeric");
    assert_eq!(contents(session.database()), before);
    run(session, "SELECT a, b FROM T;").expect("select");
    assert_eq!(contents(session.database()), before);

    run(session, "INSERT INTO T VALUES (2, 1);").expect("insert");
    let ints = |rows: &[&[i64]]| -> Vec<Vec<Value>> {
        rows.iter()
            .map(|r| r.iter().copied().map(Value::Int).collect())
            .collect()
    };
    let index = Some((vec![0], 2));
    let expected: Contents = vec![
        ("T".into(), ints(&[&[1, 5], &[1, 6], &[2, 1]]), None),
        ("V".into(), ints(&[&[1, 11, 2], &[2, 1, 1]]), index.clone()),
        ("W".into(), ints(&[&[1, 2], &[2, 1]]), index),
    ];
    assert_eq!(contents(session.database()), expected);
}

#[test]
fn failed_insert_changes_nothing_on_a_local_session() {
    assert_failing_insert_changes_nothing(&mut Session::new(SessionOptions::default()));
}

#[test]
fn failed_insert_changes_nothing_on_a_shared_store() {
    let store = SharedStore::with_defaults();
    assert_failing_insert_changes_nothing(&mut store.session(SessionOptions::default()));
}

#[test]
fn failed_insert_changes_nothing_on_a_durable_store_or_its_reopen() {
    let dir = std::env::temp_dir().join(format!("aggview-test-write-path-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let live = {
        let store = SharedStore::open(&dir, WritePolicy::default()).expect("open");
        let mut session = store.session(SessionOptions::default());
        assert_failing_insert_changes_nothing(&mut session);
        contents(session.database())
    };
    let store = SharedStore::open(&dir, WritePolicy::default()).expect("reopen");
    let reopened = contents(&store.load().state.db);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(reopened, live);
}
