//! The sharded driver serves every shard-decomposable query from the
//! shard snapshots alone, and builds the union of all shards only for
//! what the shards cannot answer. Each test runs the same statements
//! through a local session and a driver, and compares every outcome:
//! acks, errors, rows, `views_used` and `candidates`.

use aggview::engine::shard::shard_of_value;
use aggview::engine::{multiset_eq, Value};
use aggview::obs::CounterId;
use aggview::session::{Session, SessionOptions, StatementOutcome};
use aggview::sharded::ShardedStore;
use aggview::sql::{parse_script, parse_statement, Statement};

fn statement(sql: &str) -> Statement {
    parse_statement(sql).unwrap_or_else(|e| panic!("{sql}: {e}"))
}

fn verifying() -> SessionOptions {
    SessionOptions {
        verify: true,
        ..SessionOptions::default()
    }
}

/// Run `stmt` on both sessions and require the same outcome: the same
/// ack or error text, or multiset-equal rows with the same views and
/// candidate count (and, when the driver verifies, a passed check).
fn same_outcome(local: &mut Session, driver: &mut Session, stmt: &Statement) {
    let (want, got) = (local.execute(stmt), driver.execute(stmt));
    match (&want, &got) {
        (Ok(StatementOutcome::Ok(w)), Ok(StatementOutcome::Ok(g))) => {
            assert_eq!(g, w, "ack of `{stmt}`")
        }
        (Err(w), Err(g)) => assert_eq!(g.0, w.0, "error of `{stmt}`"),
        (
            Ok(StatementOutcome::Answer {
                relation: wr,
                views_used: wv,
                candidates: wc,
                ..
            }),
            Ok(StatementOutcome::Answer {
                relation: gr,
                views_used: gv,
                candidates: gc,
                verified,
                ..
            }),
        ) => {
            assert!(multiset_eq(gr, wr), "rows of `{stmt}`:\n{gr}\nvs\n{wr}");
            assert_eq!(gr.columns, wr.columns, "columns of `{stmt}`");
            assert_eq!(gv, wv, "views of `{stmt}`");
            assert_eq!(gc, wc, "candidates of `{stmt}`");
            assert_ne!(verified, &Some(false), "cross-check of `{stmt}`");
        }
        _ => panic!("`{stmt}` diverged:\n{got:?}\nvs\n{want:?}"),
    }
}

fn union_builds(driver: &Session) -> u64 {
    driver
        .metrics()
        .expect("obs on by default")
        .get(CounterId::ShardUnionBuilds)
}

/// A `CREATE VIEW` that one shard refuses is refused whole: no shard
/// keeps the view, later reads do not trip over it, and once the bad
/// row is gone the view is still unknown — as in an unsharded session.
#[test]
fn refused_view_leaves_no_shard_holding_it() {
    let script = "CREATE TABLE T (a, b, KEY (a));
         INSERT INTO T VALUES (1, 5), (2, 7), (3, 9), (4, 11), (5, 13), (6, 15), (7, 17), (8, 19);
         INSERT INTO T VALUES (100, 'x');
         CREATE VIEW V AS SELECT SUM(b) AS s FROM T;
         SELECT a, SUM(b) FROM T GROUP BY a;
         SELECT a FROM T WHERE b = 5;
         DELETE FROM T WHERE a = 100;
         SELECT s FROM V;
         CREATE VIEW V AS SELECT SUM(b) AS s FROM T;
         SELECT s FROM V;
         CREATE VIEW V AS SELECT a FROM T;";
    let stmts = parse_script(script).expect("parses");
    for shards in [1, 2, 3] {
        let store = ShardedStore::with_defaults(shards);
        let mut driver = store.session(SessionOptions::default());
        let mut local = Session::new(SessionOptions::default());
        for stmt in &stmts {
            same_outcome(&mut local, &mut driver, stmt);
        }
        for snap in store.load_all() {
            assert_eq!(
                snap.state.views.len(),
                1,
                "{shards} shard(s): one view, created once"
            );
        }
    }
}

/// The benchmark's write stream in miniature: `Calls`-shaped data on 4
/// shards, the 11-view write pool, then cycles of one-row insert, the
/// base-table probe and the 8 view reads. No read builds the union; a
/// join does, once; and under `verify` every read after a write does.
#[test]
fn steady_state_reads_never_build_the_union() {
    let store = ShardedStore::with_defaults(4);
    let mut driver = store.session(SessionOptions::default());
    let mut local = Session::new(SessionOptions::default());
    let mut run = |driver: &mut Session, sql: &str| {
        same_outcome(&mut local, driver, &statement(sql));
    };
    run(
        &mut driver,
        "CREATE TABLE Calling_Plans (Plan_Id, Plan_Name, KEY (Plan_Id))",
    );
    run(
        &mut driver,
        "CREATE TABLE Calls (Call_Id, Cust_Id, Plan_Id, Day, Month, Year, Charge, KEY (Call_Id))",
    );
    let plans: Vec<String> = (1..=20).map(|p| format!("({p}, 'plan{p:02}')")).collect();
    run(
        &mut driver,
        &format!("INSERT INTO Calling_Plans VALUES {}", plans.join(", ")),
    );
    let call = |id: u64| {
        let h = id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 16;
        format!(
            "({id}, {}, {}, {}, {}, {}, {})",
            h % 50,
            1 + h % 20,
            1 + (h >> 8) % 28,
            1 + (h >> 16) % 12,
            1994 + (h >> 24) % 4,
            (h >> 32) % 500
        )
    };
    let rows: Vec<String> = (1..=400).map(call).collect();
    run(
        &mut driver,
        &format!("INSERT INTO Calls VALUES {}", rows.join(", ")),
    );
    run(&mut driver, "CREATE VIEW YearTotals AS SELECT Year, SUM(Charge) AS Total, COUNT(Charge) AS N FROM Calls GROUP BY Year");
    run(&mut driver, "CREATE VIEW PlanYear AS SELECT Plan_Id, Year, COUNT(Charge) AS N, MIN(Charge) AS Low, MAX(Charge) AS Peak FROM Calls GROUP BY Plan_Id, Year");
    run(&mut driver, "CREATE VIEW PlanMonth AS SELECT Plan_Id, Month, Year, SUM(Charge) AS Total, COUNT(Charge) AS N FROM Calls GROUP BY Plan_Id, Month, Year");
    let decoys = [
        ("Plan_Id", "Month"),
        ("Plan_Id", "Day"),
        ("Cust_Id", "Month"),
        ("Day", "Month"),
        ("Cust_Id", "Plan_Id"),
        ("Cust_Id", "Day"),
    ];
    for i in 0..8 {
        let (a, b) = decoys[i % decoys.len()];
        run(
            &mut driver,
            &format!(
            "CREATE VIEW Slice{i:02} AS SELECT {a}, {b}, SUM(Charge) AS Total, COUNT(Charge) AS N \
             FROM Calls WHERE Year = {} GROUP BY {a}, {b}",
            1960 + i
        ),
        );
    }
    let probe = "SELECT Day, SUM(Charge) FROM Calls GROUP BY Day";
    let reads = [
        "SELECT Year, SUM(Charge) FROM Calls GROUP BY Year",
        "SELECT Plan_Id, MAX(Charge) FROM Calls WHERE Year = 1995 GROUP BY Plan_Id",
        "SELECT Plan_Id, Month, COUNT(Charge) FROM Calls WHERE Year = 1996 GROUP BY Plan_Id, Month",
        "SELECT Month, SUM(Charge) FROM Calls GROUP BY Month",
        "SELECT Year, COUNT(Charge) FROM Calls GROUP BY Year",
        "SELECT Plan_Id, Year, MIN(Charge) FROM Calls GROUP BY Plan_Id, Year",
        "SELECT Plan_Id, SUM(Charge) FROM Calls GROUP BY Plan_Id",
        "SELECT Month, Year, SUM(Charge) FROM Calls WHERE Year = 1994 GROUP BY Month, Year",
    ];
    let mut after_first_cycle = None;
    for cycle in 0..20u64 {
        run(
            &mut driver,
            &format!("INSERT INTO Calls VALUES {}", call(1000 + cycle)),
        );
        run(&mut driver, probe);
        for read in reads {
            run(&mut driver, read);
        }
        after_first_cycle.get_or_insert(union_builds(&driver));
    }
    assert_eq!(union_builds(&driver), after_first_cycle.unwrap());
    assert_eq!(union_builds(&driver), 0, "not even the load built it");

    let join = "SELECT Plan_Name, SUM(Charge) FROM Calls, Calling_Plans \
                WHERE Calls.Plan_Id = Calling_Plans.Plan_Id GROUP BY Plan_Name";
    run(&mut driver, join);
    assert_eq!(union_builds(&driver), 1, "a join falls back to the union");
    run(&mut driver, join);
    assert_eq!(union_builds(&driver), 1, "and reuses it until a write");

    // EXPLAIN ANALYZE says whether this query built the union, and why.
    let shards_line = |driver: &mut Session, sql: &str| {
        let Ok(StatementOutcome::Explanation(lines)) =
            driver.execute(&statement(&format!("EXPLAIN ANALYZE {sql}")))
        else {
            panic!("expected an explanation of `{sql}`")
        };
        lines
            .into_iter()
            .find(|l| l.starts_with("-- shards:"))
            .expect("a shards line")
    };
    let line = shards_line(&mut driver, probe);
    assert!(line.contains("gather: re-aggregate"), "{line}");
    assert!(line.ends_with("union: not built"), "{line}");
    driver
        .execute(&statement(&format!(
            "INSERT INTO Calls VALUES {}",
            call(5000)
        )))
        .expect("insert");
    let line = shards_line(&mut driver, join);
    assert!(line.ends_with("union: built for fallback"), "{line}");

    // Under verify, the first read after each write rebuilds the union
    // to cross-check against; the reads after it reuse it.
    let mut checked = store.session(verifying());
    let before = union_builds(&checked);
    for cycle in 0..3 {
        checked
            .execute(&statement(&format!(
                "INSERT INTO Calls VALUES {}",
                call(6000 + cycle)
            )))
            .expect("insert");
        for read in [probe, reads[0], reads[6]] {
            let Ok(StatementOutcome::Answer { verified, .. }) = checked.execute(&statement(read))
            else {
                panic!("expected an answer to `{read}`")
            };
            assert_eq!(verified, Some(true), "{read}");
        }
        assert_eq!(union_builds(&checked), before + cycle + 1);
    }
}

/// Cost ranking uses global cardinalities. `ByC` (a, c) has 3 groups
/// and `ByG` (g, a) has 4, but `ByC`'s groups straddle all 4 shards
/// (12 partial rows) while each of `ByG`'s lives on one shard (4). An
/// unsharded session answers from `ByC`; ranking by per-shard row
/// counts would pick `ByG`.
#[test]
fn ranking_uses_global_view_cardinalities() {
    let shards = 4;
    // One `g` per shard, so every (g, a) group is shard-local.
    let mut gs: Vec<i64> = Vec::new();
    for g in 0.. {
        let shard = shard_of_value(&Value::Int(g), shards);
        if gs
            .iter()
            .all(|&h| shard_of_value(&Value::Int(h), shards) != shard)
        {
            gs.push(g);
        }
        if gs.len() == shards {
            break;
        }
    }
    let rows: Vec<String> = gs
        .iter()
        .flat_map(|g| (0..3).map(move |c| format!("({g}, 0, {c}, {})", 10 * g + c)))
        .collect();
    let script = format!(
        "CREATE TABLE T (g, a, c, b);
         INSERT INTO T VALUES {};
         CREATE VIEW ByC AS SELECT a, c, SUM(b) AS s FROM T GROUP BY a, c;
         CREATE VIEW ByG AS SELECT g, a, SUM(b) AS s FROM T GROUP BY g, a;",
        rows.join(", ")
    );
    let store = ShardedStore::with_defaults(shards);
    let mut local = Session::new(SessionOptions::default());
    for options in [SessionOptions::default(), verifying()] {
        let mut driver = store.session(options);
        if driver.views().is_empty() {
            for stmt in parse_script(&script).expect("parses") {
                same_outcome(&mut local, &mut driver, &stmt);
            }
        }
        let partial_rows = |view: &str| -> usize {
            store
                .load_all()
                .iter()
                .map(|s| s.state.db.get(view).expect("view").len())
                .sum()
        };
        assert_eq!((partial_rows("ByC"), partial_rows("ByG")), (12, 4));
        let q = statement("SELECT a, SUM(b) FROM T GROUP BY a");
        same_outcome(&mut local, &mut driver, &q);
        let Ok(StatementOutcome::Answer {
            views_used,
            candidates,
            ..
        }) = driver.execute(&q)
        else {
            panic!("expected an answer")
        };
        assert_eq!((views_used, candidates), (vec!["ByC".to_string()], 2));
    }
}
