//! An inline summary is built once and reused while nothing it reads has
//! changed. Each test reads the join-then-group probe (no stored view
//! answers it, so it is served through a summary of `Calls`), writes,
//! and reads again; every answer must match `execute_reference` on the
//! state the read ran on, and the memo counters must say whether the
//! summary was reused or rebuilt.

use aggview::engine::{execute_reference, multiset_eq, Value};
use aggview::obs::CounterId;
use aggview::server::SharedStore;
use aggview::session::{Session, SessionOptions, StatementOutcome};
use aggview::sql::{parse_query, parse_script, parse_statement, Query, Statement};
use aggview::state::WritePolicy;

const SETUP: &str = "CREATE TABLE Calling_Plans (Plan_Id, Plan_Name, KEY (Plan_Id));
     CREATE TABLE Calls (Call_Id, Plan_Id, Day, Charge, KEY (Call_Id));
     INSERT INTO Calling_Plans VALUES (1, 'basic'), (2, 'gold');
     INSERT INTO Calls VALUES (1, 1, 1, 10), (2, 2, 1, 5), (3, 1, 2, 7), (4, 1, 2, 1);";
const PROBE: &str = "SELECT Plan_Name, Day, SUM(Charge) FROM Calls, Calling_Plans
     WHERE Calls.Plan_Id = Calling_Plans.Plan_Id GROUP BY Plan_Name, Day";

fn probe() -> Query {
    parse_query(PROBE).unwrap()
}

fn write(session: &mut Session, sql: &str) {
    session
        .execute(&parse_statement(sql).unwrap())
        .unwrap_or_else(|e| panic!("{sql}: {e}"));
}

/// Read the probe on `session`; require the inline summary to serve it
/// and the answer to match the reference interpreter on the state the
/// read ran on. Returns the answer's rows.
fn read(session: &mut Session) -> Vec<Vec<Value>> {
    let q = probe();
    let outcome = session.execute(&Statement::Select(q.clone())).unwrap();
    let StatementOutcome::Answer {
        relation, executed, ..
    } = outcome
    else {
        panic!("expected an answer")
    };
    assert!(executed.starts_with("WITH Eager1 AS"), "{executed}");
    let want = execute_reference(&q, session.database()).unwrap();
    assert!(multiset_eq(&relation, &want), "{relation}\nvs\n{want}");
    relation.sorted_rows()
}

/// (hits, builds) on the registry `session` records into.
fn memo(session: &Session) -> (u64, u64) {
    let m = session.metrics().expect("obs on by default");
    (
        m.get(CounterId::AuxMemoHits),
        m.get(CounterId::AuxMemoBuilds),
    )
}

fn gold(day: i64, total: i64) -> Vec<Value> {
    vec![
        Value::Str("gold".into()),
        Value::Int(day),
        Value::Int(total),
    ]
}

/// A local session owns `Calls` outright: nothing but the statement's own
/// rollback copy refers to its entry, so the entry a write leaves behind
/// is freed, and the next write's copy may be allocated at its address.
/// The memo's key must see every write anyway, two in a row included.
#[test]
fn a_local_insert_into_the_summarized_table_rebuilds_the_summary() {
    let mut session = Session::new(SessionOptions::default());
    session.run_script(&parse_script(SETUP).unwrap()).unwrap();
    read(&mut session);
    assert_eq!(memo(&session), (0, 1));
    assert!(read(&mut session).contains(&gold(1, 5)));
    assert_eq!(memo(&session), (1, 1), "the repeat reuses the summary");

    write(&mut session, "INSERT INTO Calls VALUES (5, 2, 1, 100)");
    assert!(read(&mut session).contains(&gold(1, 105)));
    assert_eq!(memo(&session), (1, 2), "the insert forces a rebuild");
    read(&mut session);
    assert_eq!(memo(&session), (2, 2));

    write(&mut session, "INSERT INTO Calls VALUES (6, 2, 1, 1)");
    write(&mut session, "INSERT INTO Calls VALUES (7, 2, 1, 1)");
    assert!(read(&mut session).contains(&gold(1, 107)));
    assert_eq!(memo(&session), (2, 3), "two inserts, one rebuild");
    let held = session.metrics().unwrap().get(CounterId::AuxMemoBytes);
    assert!(held > 0, "the kept summary is on the bytes gauge");
}

/// The summary reads `Calls` only: a write to `Calling_Plans` leaves the
/// memo entry in use, and the rest of the query still sees the write.
#[test]
fn a_write_to_an_unsummarized_table_keeps_the_summary() {
    let mut session = Session::new(SessionOptions::default());
    session.run_script(&parse_script(SETUP).unwrap()).unwrap();
    assert!(read(&mut session).contains(&gold(1, 5)));
    write(&mut session, "DELETE FROM Calling_Plans WHERE Plan_Id = 2");
    let rows = read(&mut session);
    assert!(!rows.contains(&gold(1, 5)), "the join sees the delete");
    assert_eq!(memo(&session), (1, 1), "the summary was reused");
    write(&mut session, "INSERT INTO Calling_Plans VALUES (2, 'gold')");
    assert!(read(&mut session).contains(&gold(1, 5)));
    assert_eq!(memo(&session), (2, 1));
}

/// Two handles on one store each keep their own memo (one per plan-cache
/// entry). A write through either handle publishes a snapshot whose
/// `Calls` the other handle's memo has never seen.
#[test]
fn two_store_handles_each_rebuild_after_a_publish() {
    let store = SharedStore::new(WritePolicy::default());
    let mut a = store.session(SessionOptions::default());
    let mut b = store.session(SessionOptions::default());
    a.run_script(&parse_script(SETUP).unwrap()).unwrap();
    read(&mut a);
    read(&mut b);
    assert_eq!(memo(&a), (0, 2), "one build per handle");
    read(&mut a);
    read(&mut b);
    assert_eq!(memo(&a), (2, 2));

    write(&mut b, "INSERT INTO Calls VALUES (5, 2, 1, 100)");
    assert!(read(&mut a).contains(&gold(1, 105)));
    assert!(read(&mut b).contains(&gold(1, 105)));
    assert_eq!(memo(&a), (2, 4), "both handles rebuild");

    write(&mut a, "DELETE FROM Calling_Plans WHERE Plan_Id = 1");
    read(&mut b);
    read(&mut a);
    assert_eq!(memo(&b), (4, 4), "neither handle rebuilds");
}
