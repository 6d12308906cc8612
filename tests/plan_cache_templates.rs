//! The plan cache's second level (query templates keyed by the order
//! type of their constants) must make exactly the decisions the full
//! search makes. Every backend runs the same stream twice, cache on and
//! cache off, with no write in between: Example 1.1's `Q` in all of its
//! 528 constant variants against a 32-view pool, then variants whose
//! constants land on, below and between the pool's own constants.

use aggview::rewrite::closure::const_cmp;
use aggview::rewrite::Canonical;
use aggview::server::SharedStore;
use aggview::session::{Session, SessionOptions, StatementOutcome};
use aggview::sharded::ShardedStore;
use aggview::sql::{parse_query, parse_statement, Literal, Query, Statement};
use aggview::state::WritePolicy;
use std::cmp::Ordering;
use std::collections::HashSet;

/// The telephony schema, 20 plans, a few hundred deterministic calls,
/// and the 32-view pool of the serving benchmark: the paper's `V1`,
/// three single-table views and 28 decoys pinned to the years
/// 1960..=1987, which no row has.
fn load_script() -> Vec<String> {
    let mut script = vec![
        "CREATE TABLE Calling_Plans (Plan_Id, Plan_Name, KEY (Plan_Id))".to_string(),
        "CREATE TABLE Calls (Call_Id, Cust_Id, Plan_Id, Day, Month, Year, Charge, \
         KEY (Call_Id))"
            .to_string(),
    ];
    let plans: Vec<String> = (1..=20).map(|p| format!("({p}, 'plan{p:02}')")).collect();
    script.push(format!(
        "INSERT INTO Calling_Plans VALUES {}",
        plans.join(", ")
    ));
    let calls: Vec<String> = (1..=400i64)
        .map(|id| {
            let h = id.wrapping_mul(2_654_435_761) & 0xFFFF;
            format!(
                "({id}, {}, {}, {}, {}, {}, {})",
                h % 50,
                1 + h % 20,
                1 + h % 28,
                1 + (h / 7) % 12,
                1994 + (h / 3) % 4,
                (h * 31) % 500
            )
        })
        .collect();
    script.push(format!("INSERT INTO Calls VALUES {}", calls.join(", ")));
    script.push(
        "CREATE VIEW V1 AS SELECT Calls.Plan_Id, Plan_Name, Month, Year, \
         SUM(Charge) AS Monthly_Earnings FROM Calls, Calling_Plans \
         WHERE Calls.Plan_Id = Calling_Plans.Plan_Id \
         GROUP BY Calls.Plan_Id, Plan_Name, Month, Year"
            .to_string(),
    );
    script.push(
        "CREATE VIEW YearTotals AS SELECT Year, SUM(Charge) AS Total, COUNT(Charge) AS N \
         FROM Calls GROUP BY Year"
            .to_string(),
    );
    script.push(
        "CREATE VIEW PlanYear AS SELECT Plan_Id, Year, COUNT(Charge) AS N, \
         MIN(Charge) AS Low, MAX(Charge) AS Peak FROM Calls GROUP BY Plan_Id, Year"
            .to_string(),
    );
    script.push(
        "CREATE VIEW PlanMonth AS SELECT Plan_Id, Month, Year, SUM(Charge) AS Total, \
         COUNT(Charge) AS N FROM Calls GROUP BY Plan_Id, Month, Year"
            .to_string(),
    );
    let groups = [
        ("Plan_Id", "Month"),
        ("Plan_Id", "Day"),
        ("Cust_Id", "Month"),
        ("Day", "Month"),
        ("Cust_Id", "Plan_Id"),
        ("Cust_Id", "Day"),
    ];
    for i in 0..28 {
        let (a, b) = groups[i % groups.len()];
        script.push(format!(
            "CREATE VIEW Slice{i:02} AS SELECT {a}, {b}, SUM(Charge) AS Total, \
             COUNT(Charge) AS N FROM Calls WHERE Year = {} GROUP BY {a}, {b}",
            1960 + i
        ));
    }
    script
}

/// Example 1.1's `Q` with its three constants (and an extra conjunct).
fn q(year: &str, month: &str, having: &str, extra: &str) -> String {
    format!(
        "SELECT Calling_Plans.Plan_Id, Plan_Name, SUM(Charge) FROM Calls, Calling_Plans \
         WHERE Calls.Plan_Id = Calling_Plans.Plan_Id AND Year = {year} AND Month <= {month}{extra} \
         GROUP BY Calling_Plans.Plan_Id, Plan_Name HAVING SUM(Charge) < {having}"
    )
}

/// The 528 variants (4 years × 12 months × 11 bounds), then pairs of
/// variants that cross the pool's constants, each pair one order type.
fn variants() -> Vec<String> {
    let mut out = Vec::new();
    for year in 1994..=1997 {
        for month in 1..=12 {
            for h in 0..11 {
                out.push(q(
                    &year.to_string(),
                    &month.to_string(),
                    &(40_000 + 35_000 * h).to_string(),
                    "",
                ));
            }
        }
    }
    let crossing = [
        // Equal to a decoy's constant: that decoy becomes usable.
        ("1960", "3", "40000", ""),
        ("1960", "5", "75000", ""),
        // Below every decoy's constant.
        ("1959", "3", "40000", ""),
        ("1959", "7", "110000", ""),
        // Bounds below the data.
        ("1995", "0", "40000", ""),
        ("1995", "0", "75000", ""),
        ("1995", "4", "0", ""),
        ("1995", "6", "0", ""),
        // A double bound: another template.
        ("1995", "4", "40000.5", ""),
        ("1996", "9", "75000.5", ""),
        // A string constant, with no string in the pool.
        ("1995", "4", "40000", " AND Plan_Name = 'plan03'"),
        ("1995", "4", "40000", " AND Plan_Name = 'plan10'"),
    ];
    for (year, month, having, extra) in crossing {
        out.push(q(year, month, having, extra));
    }
    out
}

/// The number of distinct (template, order type) pairs among `queries`,
/// each order type computed by brute force: every constant's
/// `const_cmp` outcome against every other constant and every constant
/// of the view pool.
fn distinct_order_types(session: &Session, queries: &[Query]) -> usize {
    let db = session.database();
    let pool: Vec<Literal> = session
        .views()
        .iter()
        .flat_map(|v| {
            let canon = Canonical::from_query(&v.query, db).expect("view canonicalizes");
            canon.lift_constants().1
        })
        .collect();
    let mut seen = HashSet::new();
    for query in queries {
        let canon = Canonical::from_query(query, db).expect("query canonicalizes");
        let (template, params) = canon.lift_constants();
        let order: Vec<Vec<Option<Ordering>>> = params
            .iter()
            .map(|p| {
                params
                    .iter()
                    .chain(&pool)
                    .map(|c| const_cmp(p, c))
                    .collect()
            })
            .collect();
        seen.insert((template, query.output_names(), format!("{order:?}")));
    }
    seen.len()
}

/// What a decision reports, besides its timings.
#[derive(Debug, PartialEq)]
struct Decided {
    rows: Vec<Vec<aggview::engine::Value>>,
    columns: Vec<String>,
    executed: String,
    views_used: Vec<String>,
    candidates: usize,
    set_semantics: bool,
}

fn decided(outcome: StatementOutcome) -> Decided {
    let StatementOutcome::Answer {
        relation,
        executed,
        views_used,
        candidates,
        set_semantics,
        ..
    } = outcome
    else {
        panic!("a SELECT answers: {outcome:?}");
    };
    Decided {
        rows: relation.sorted_rows(),
        columns: relation.columns.clone(),
        executed,
        views_used,
        candidates,
        set_semantics,
    }
}

fn options(cap: usize) -> SessionOptions {
    SessionOptions {
        plan_cache_cap: cap,
        ..SessionOptions::default()
    }
}

/// Load `session`, ask every variant, and return the decisions.
fn ask_all(session: &mut Session, queries: &[Query]) -> Vec<Decided> {
    for sql in load_script() {
        session
            .execute(&parse_statement(&sql).expect("load statement parses"))
            .unwrap_or_else(|e| panic!("{sql}: {e}"));
    }
    queries
        .iter()
        .map(|query| {
            let outcome = session
                .execute(&Statement::Select(query.clone()))
                .unwrap_or_else(|e| panic!("{query}: {e}"));
            decided(outcome)
        })
        .collect()
}

fn check_parity(open: impl Fn(usize) -> Session, backend: &str) {
    let queries: Vec<Query> = variants()
        .iter()
        .map(|sql| parse_query(sql).expect("variant parses"))
        .collect();
    let (mut cached, mut uncached) = (open(64), open(0));
    let with = ask_all(&mut cached, &queries);
    let without = ask_all(&mut uncached, &queries);
    for ((query, w), wo) in queries.iter().zip(&with).zip(&without) {
        assert_eq!(
            w, wo,
            "{backend}: `{query}` decided differently with the cache on"
        );
    }
    let cache = cached.plan_cache();
    let distinct = distinct_order_types(&cached, &queries);
    assert_eq!(
        cache.template_hits(),
        (queries.len() - distinct) as u64,
        "{backend}: one search per order type"
    );
    assert_eq!(cache.replay_rejects(), 0, "{backend}: every replay matched");
    assert_eq!(uncached.plan_cache().template_hits(), 0);
    // The crossings are real: `Year = 1960` makes a decoy usable.
    let by_year = |year: &str| {
        let at = variants()
            .iter()
            .position(|sql| sql.contains(year))
            .unwrap();
        with[at].candidates
    };
    assert!(by_year("Year = 1960") > by_year("Year = 1959"), "{backend}");
}

#[test]
fn local_templates_decide_as_the_full_search() {
    check_parity(|cap| Session::new(options(cap)), "local");
}

#[test]
fn shared_templates_decide_as_the_full_search() {
    check_parity(
        |cap| SharedStore::new(WritePolicy::default()).session(options(cap)),
        "shared",
    );
}

#[test]
fn sharded_templates_decide_as_the_full_search() {
    check_parity(
        |cap| ShardedStore::new(2, WritePolicy::default()).session(options(cap)),
        "2-shard",
    );
}

/// `EXPLAIN` names the cache level that would serve a query: its own
/// entry, a template of another query's, or neither.
#[test]
fn explain_names_the_cache_level() {
    let mut session = Session::new(SessionOptions::default());
    let script = "CREATE TABLE T (a, b, c);
        INSERT INTO T VALUES (1, 5, 10), (1, 6, 20), (2, 7, 30);
        CREATE VIEW V AS SELECT a, c, SUM(b) AS s FROM T WHERE c > 15 GROUP BY a, c;
        SELECT a, SUM(b) FROM T WHERE c > 17 GROUP BY a;";
    for stmt in aggview::sql::parse_script(script).expect("script parses") {
        session.execute(&stmt).expect("statement runs");
    }
    let status = |session: &mut Session, sql: &str| {
        let explain = parse_statement(&format!("EXPLAIN {sql}")).expect("EXPLAIN parses");
        let StatementOutcome::Explanation(lines) = session.execute(&explain).expect("explains")
        else {
            panic!("EXPLAIN explains");
        };
        let line = lines
            .iter()
            .find(|l| l.contains("this query:"))
            .expect("a status line");
        line.split_once("this query: ").unwrap().1.to_string()
    };
    let asked = "SELECT a, SUM(b) FROM T WHERE c > 17 GROUP BY a";
    let variant = "SELECT a, SUM(b) FROM T WHERE c > 25 GROUP BY a";
    let crossing = "SELECT a, SUM(b) FROM T WHERE c > 12 GROUP BY a";
    let fingerprint = |sql: &str| {
        let q = parse_query(sql).unwrap();
        let canon = Canonical::from_query(&q, session.database()).unwrap();
        format!("{:016x}", canon.fingerprint())
    };
    let (fa, fv, fc) = (
        fingerprint(asked),
        fingerprint(variant),
        fingerprint(crossing),
    );
    assert_eq!(
        status(&mut session, asked),
        format!("cached (fingerprint {fa})")
    );
    assert_eq!(
        status(&mut session, variant),
        format!("cached by order type (fingerprint {fv}, template of fingerprint {fa})")
    );
    assert_eq!(
        status(&mut session, crossing),
        format!("not cached (fingerprint {fc})")
    );
    // EXPLAIN counts nothing; asking the variant replays the template.
    assert_eq!(session.plan_cache().template_hits(), 0);
    session
        .execute(&Statement::Select(parse_query(variant).unwrap()))
        .expect("variant answers");
    assert_eq!(session.plan_cache().template_hits(), 1);
    assert_eq!(
        status(&mut session, variant),
        format!("cached (fingerprint {fv})")
    );
}
