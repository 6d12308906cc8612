//! The write path's contracts with the stored relations: a publish
//! shares every relation the batch did not touch (rows, index and
//! columnar conversion); a write statement that fails is applied
//! nowhere — not to the base table, not to any view or index, not to the
//! next published snapshot, and not to the WAL; and a view the delta rule
//! maintains holds what recomputing it would, whichever side of its join
//! changed.

use aggview::engine::{ColumnarRelation, Database, Value};
use aggview::server::SharedStore;
use aggview::session::{Session, SessionOptions, StatementOutcome};
use aggview::sql::parse_script;
use aggview::state::WritePolicy;

fn run(session: &mut Session, sql: &str) -> Result<(), String> {
    let stmts = parse_script(sql).expect("script parses");
    session
        .run_script(&stmts)
        .map(drop)
        .map_err(|e| e.to_string())
}

/// The columnar conversion of `name`, which holds one chunk.
fn conversion<'a>(db: &'a Database, name: &str) -> &'a ColumnarRelation {
    let mut chunks = db.table(name).expect(name).columnar();
    assert_eq!(chunks.len(), 1, "`{name}` is one chunk");
    chunks.next().expect("one chunk")
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
    let a_before = conversion(&before.state.db, "A");
    let b_before = conversion(&before.state.db, "B");

    run(&mut session, "INSERT INTO A VALUES (3);").expect("insert");
    let after = store.load();
    assert!(after.epoch > before.epoch);
    assert!(
        std::ptr::eq(b_before, conversion(&after.state.db, "B")),
        "B was not written: both snapshots serve one conversion"
    );
    assert_eq!(conversion(&after.state.db, "A").n_rows(), 2);
    // The pinned snapshot still sees A as it was.
    assert_eq!(before.state.db.table("A").expect("A").len(), 1);
    assert!(std::ptr::eq(a_before, conversion(&before.state.db, "A")));
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
            (name.clone(), rel.rows().cloned().collect(), index)
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

/// Runs one write statement and returns its acknowledgement.
fn ack(session: &mut Session, sql: &str) -> String {
    let stmts = parse_script(sql).expect("statement parses");
    match session.run_script(&stmts).expect("statement runs").pop() {
        Some(StatementOutcome::Ok(message)) => message,
        other => panic!("`{sql}` was not acknowledged: {other:?}"),
    }
}

/// A default session and the `recompute_views` oracle beside it.
struct Pair {
    folding: Session,
    recomputing: Session,
}

impl Pair {
    fn new(setup: &str) -> Pair {
        let mut pair = Pair {
            folding: Session::new(SessionOptions::default()),
            recomputing: Session::new(SessionOptions {
                recompute_views: true,
                ..Default::default()
            }),
        };
        run(&mut pair.folding, setup).expect("setup");
        run(&mut pair.recomputing, setup).expect("setup");
        pair
    }

    /// Runs `sql` on both sessions: the folding one must report `folded`
    /// views maintained incrementally, the oracle none, and every stored
    /// relation must hold the same rows on both.
    fn step(&mut self, sql: &str, folded: usize) {
        let said = ack(&mut self.folding, sql);
        let oracle_said = ack(&mut self.recomputing, sql);
        let (got, want) = (self.folding.database(), self.recomputing.database());
        for ((name, got), (_, want)) in got.iter().zip(want.iter()) {
            assert_eq!(
                got.to_relation().sorted_rows(),
                want.to_relation().sorted_rows(),
                "`{name}` after `{sql}`"
            );
        }
        contents(got); // asserts every index is consistent
        let wanted = format!("; {folded} view(s) maintained incrementally");
        assert!(said.ends_with(&wanted), "`{sql}`: {said}");
        assert!(oracle_said.ends_with("; 0 view(s) maintained incrementally"));
    }
}

/// Example 1.1's schema and join view `V1` (with a `COUNT` column when
/// `counted`), `Slice`, a decoy pinned to a year no call has, and calls on
/// plans 1 and 3 — the latter with no `Calling_Plans` row yet.
fn example_1_1(counted: bool) -> String {
    let count = if counted { ", COUNT(Charge) AS N" } else { "" };
    format!(
        "CREATE TABLE Calling_Plans (Plan_Id, Plan_Name, KEY (Plan_Id));
         CREATE TABLE Calls (Call_Id, Plan_Id, Month, Year, Charge, KEY (Call_Id));
         INSERT INTO Calling_Plans VALUES (1, 'basic'), (2, 'gold');
         INSERT INTO Calls VALUES (1, 1, 1, 1995, 10), (2, 1, 1, 1995, 20), (3, 1, 2, 1995, 5),
                                  (4, 3, 1, 1995, 7), (5, 3, 1, 1996, 9);
         CREATE VIEW V1 AS
           SELECT Calls.Plan_Id, Plan_Name, Month, Year, SUM(Charge) AS Monthly_Earnings{count}
           FROM Calls, Calling_Plans WHERE Calls.Plan_Id = Calling_Plans.Plan_Id
           GROUP BY Calls.Plan_Id, Plan_Name, Month, Year;
         CREATE VIEW Slice AS
           SELECT Plan_Id, Month, SUM(Charge) AS Total, COUNT(Charge) AS N
           FROM Calls WHERE Year = 1960 GROUP BY Plan_Id, Month;"
    )
}

#[test]
fn example_1_1_join_view_folds_deltas_from_either_side() {
    for counted in [false, true] {
        let mut pair = Pair::new(&example_1_1(counted));
        // Fact side: an existing group, a fresh one, and a call whose plan
        // has no `Calling_Plans` row.
        pair.step(
            "INSERT INTO Calls VALUES (6, 1, 1, 1995, 1), (7, 2, 4, 1996, 2), (8, 4, 1, 1995, 3);",
            2,
        );
        // Dimension side: a plan nobody calls changes nothing ...
        pair.step("INSERT INTO Calling_Plans VALUES (9, 'idle');", 1);
        // ... and one that calls 4 and 5 already reference brings their
        // groups in.
        pair.step("INSERT INTO Calling_Plans VALUES (3, 'night');", 1);
        assert_eq!(
            pair.folding.database().get("V1").expect("V1").len(),
            5,
            "three plan-1/2 groups and the two plan-3 groups"
        );
        // Deletes fold only where a COUNT tells an emptied group from a
        // zero sum: `Slice` always, `V1` in its counted variant.
        let folded = 1 + usize::from(counted);
        pair.step("DELETE FROM Calls WHERE Month = 2;", folded);
        pair.step(
            "DELETE FROM Calling_Plans WHERE Plan_Id = 3;",
            usize::from(counted),
        );
    }
}

/// `W` reads `T` and `V`, and `V` reads `T`: `ΔT ⋈ V_new` would miss
/// `T_old ⋈ ΔV`, so `W` must not fold a change to `T`.
#[test]
fn a_view_over_its_own_base_table_and_a_view_of_it_recomputes() {
    let mut pair = Pair::new(
        "CREATE TABLE T (a, b);
         CREATE TABLE U (a, w);
         INSERT INTO T VALUES (1, 5), (1, 6), (2, 1);
         INSERT INTO U VALUES (1, 100);
         CREATE VIEW V AS SELECT a, SUM(b) AS s, COUNT(*) AS n FROM T GROUP BY a;
         CREATE VIEW W AS SELECT T.a, s, COUNT(*) AS c FROM T, V WHERE T.a = V.a GROUP BY T.a, s;
         CREATE VIEW X AS SELECT U.a, s, SUM(w) AS ws, COUNT(*) AS c FROM U, V WHERE U.a = V.a
           GROUP BY U.a, s;",
    );
    // `V` folds; `W` and `X` see a changed view and recompute.
    pair.step("INSERT INTO T VALUES (1, 7);", 1);
    pair.step("INSERT INTO T VALUES (3, 3), (2, 2);", 1);
    pair.step("DELETE FROM T WHERE b = 6;", 1);
    // `X` reads `U` and an unchanged `V`: the delta rule holds.
    pair.step("INSERT INTO U VALUES (2, 50), (1, 1);", 1);
    pair.step("DELETE FROM U WHERE w = 100;", 1);
}

/// `Volume` is maintained before `V1`, so by the time `V1`'s SUM rejects
/// the string that reached it through the join, the base table and
/// `Volume` have already taken the row.
fn assert_failing_join_insert_changes_nothing(session: &mut Session) {
    let setup = example_1_1(true).replace(
        "CREATE VIEW V1",
        "CREATE VIEW Volume AS SELECT Plan_Id, COUNT(*) AS Calls FROM Calls GROUP BY Plan_Id;
         CREATE VIEW V1",
    );
    run(session, &setup).expect("setup");
    let before = contents(session.database());
    assert!(before
        .iter()
        .any(|(name, _, index)| name == "V1" && index.is_some()));
    // Into an existing group, then into a fresh one.
    for failing in [
        "INSERT INTO Calls VALUES (6, 1, 1, 1995, 'x');",
        "INSERT INTO Calls VALUES (6, 2, 1, 1995, 'x');",
    ] {
        let e = run(session, failing).expect_err("SUM over a string");
        assert_eq!(e, "maintaining `V1`: type error: sum over non-numeric");
        assert_eq!(contents(session.database()), before);
    }
    // A plan-less call joins nothing: the string never reaches the SUM.
    run(session, "INSERT INTO Calls VALUES (6, 4, 1, 1995, 'x');").expect("no image");
    run(session, "INSERT INTO Calls VALUES (7, 1, 1, 1995, 1);").expect("insert");
    let v1 = session.database().get("V1").expect("V1");
    let group = |r: &&Vec<Value>| r[0] == Value::Int(1) && r[2] == Value::Int(1);
    let cells = v1.rows.iter().find(group).expect("plan 1, month 1");
    assert_eq!(cells[4..], [Value::Int(31), Value::Int(3)]);
    contents(session.database());
}

#[test]
fn failed_join_insert_changes_nothing_on_a_local_session() {
    assert_failing_join_insert_changes_nothing(&mut Session::new(SessionOptions::default()));
}

#[test]
fn failed_join_insert_changes_nothing_on_a_shared_store() {
    let store = SharedStore::with_defaults();
    assert_failing_join_insert_changes_nothing(&mut store.session(SessionOptions::default()));
}

#[test]
fn a_write_with_an_empty_image_leaves_the_view_shared_between_snapshots() {
    let store = SharedStore::with_defaults();
    let mut session = store.session(SessionOptions::default());
    run(&mut session, &example_1_1(false)).expect("setup");
    let before = store.load();
    let db = &before.state.db;
    // `Slice` is empty, so it has no chunk and no conversion: compare
    // whole entries (rows, chunks, conversions and index) by identity.
    let slice_before = db.identity("Slice").expect("Slice");
    let v1_before = conversion(db, "V1");

    // No call of 1995 is in `Slice`'s year; it is one more row of `V1`.
    let said = ack(&mut session, "INSERT INTO Calls VALUES (6, 1, 1, 1995, 1);");
    assert!(
        said.ends_with("; 2 view(s) maintained incrementally"),
        "{said}"
    );
    let after = store.load();
    let db = &after.state.db;
    assert!(
        db.identity("Slice").expect("Slice") == slice_before,
        "Slice was not written: both snapshots serve one entry"
    );
    assert!(std::ptr::eq(
        before.state.db.index("Slice").expect("indexed"),
        db.index("Slice").expect("indexed")
    ));
    assert!(!std::ptr::eq(v1_before, conversion(db, "V1")));
}
