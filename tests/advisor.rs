//! Deterministic end-to-end tests for the adaptive view advisor.
//!
//! Everything here is scripted — no randomness, no timing thresholds —
//! so the assertions pin exact behavior: which view gets created, when,
//! under which budget, and that `auto` never changes an answer.

use aggview::advisor::{AdvisorMode, AdvisorPolicy};
use aggview::obs::CounterId;
use aggview::session::{Session, SessionOptions, StatementOutcome};
use aggview::sql::parse_script;

/// A workload big enough that materializing the hot grouping is a clear
/// cost win: one fact table, `ROWS` rows, three distinct regions.
const ROWS: usize = 60;

fn setup_script() -> String {
    let mut script = String::from("CREATE TABLE Sales (Region, Product, Amount);\n");
    script.push_str("INSERT INTO Sales VALUES ");
    for i in 0..ROWS {
        if i > 0 {
            script.push_str(", ");
        }
        script.push_str(&format!("({}, {}, {})", i % 3 + 1, i % 7, i % 11));
    }
    script.push_str(";\n");
    script
}

const HOT_QUERY: &str = "SELECT Region, SUM(Amount) FROM Sales GROUP BY Region;";

fn session_with(policy: AdvisorPolicy) -> Session {
    Session::new(SessionOptions::builder().advisor(policy).build())
}

fn run_script(session: &mut Session, script: &str) -> Vec<StatementOutcome> {
    let stmts = parse_script(script).expect("script parses");
    session.run_script(&stmts).expect("script runs")
}

fn answer_rows(outcome: &StatementOutcome) -> (Vec<Vec<aggview::engine::Value>>, Vec<String>) {
    let StatementOutcome::Answer {
        relation,
        views_used,
        ..
    } = outcome
    else {
        panic!("expected an answer, got {outcome:?}")
    };
    (relation.sorted_rows(), views_used.clone())
}

/// The tentpole loop, end to end: a hot fingerprint crosses
/// `auto_after`, the advisor materializes `AdvView1` through the write
/// path, later servings come from it, counters record the work — and
/// every answer is identical to an advisor-off session's.
#[test]
fn auto_materializes_hot_query_and_preserves_answers() {
    let mut off = session_with(AdvisorPolicy::off());
    let mut auto = session_with(AdvisorPolicy::auto());
    run_script(&mut off, &setup_script());
    run_script(&mut auto, &setup_script());

    let mut auto_used_views = Vec::new();
    for serving in 1..=6 {
        let off_out = run_script(&mut off, HOT_QUERY);
        let auto_out = run_script(&mut auto, HOT_QUERY);
        let (off_rows, off_views) = answer_rows(&off_out[0]);
        let (auto_rows, auto_views) = answer_rows(&auto_out[0]);
        assert!(off_views.is_empty(), "advisor-off has no views to use");
        assert_eq!(
            off_rows, auto_rows,
            "serving {serving}: auto changed the answer"
        );
        auto_used_views.push(auto_views);
    }

    let state = auto.advisor_state().expect("auto keeps advisor state");
    assert_eq!(state.created(), vec!["AdvView1".to_string()]);
    // Default `auto_after` is 3: the first 3 servings come from base
    // tables (the trigger runs *after* a serving), later ones from the
    // advisor's view.
    assert!(
        auto_used_views[..3].iter().all(|v| v.is_empty()),
        "view used before the hot threshold: {auto_used_views:?}"
    );
    assert!(
        auto_used_views[3..]
            .iter()
            .all(|v| v == &["AdvView1".to_string()]),
        "post-creation servings not answered from AdvView1: {auto_used_views:?}"
    );

    let m = auto.metrics().expect("obs on by default").clone();
    assert_eq!(m.get(CounterId::AdvisorCreated), 1);
    assert!(m.get(CounterId::AdvisorProposals) >= 1);
    // Backfill = the materialized view's row count: one per region.
    assert_eq!(m.get(CounterId::AdvisorBackfillRows), 3);
}

/// Writes after the advisor acted: the auto-created view is maintained
/// like any user view, so answers keep matching advisor-off.
#[test]
fn auto_created_views_are_maintained_through_writes() {
    let mut off = session_with(AdvisorPolicy::off());
    let mut auto = session_with(AdvisorPolicy::auto());
    let warmup = format!("{}{}", setup_script(), HOT_QUERY.repeat(4));
    run_script(&mut off, &warmup);
    run_script(&mut auto, &warmup);
    assert_eq!(
        auto.advisor_state().unwrap().created_count(),
        1,
        "warmup should have created the view"
    );

    let mutation = "INSERT INTO Sales VALUES (1, 99, 100), (4, 1, 7);
                    DELETE FROM Sales WHERE Product = 3;";
    run_script(&mut off, mutation);
    run_script(&mut auto, mutation);

    let (off_rows, _) = answer_rows(&run_script(&mut off, HOT_QUERY)[0]);
    let (auto_rows, auto_views) = answer_rows(&run_script(&mut auto, HOT_QUERY)[0]);
    assert_eq!(auto_views, vec!["AdvView1".to_string()]);
    assert_eq!(off_rows, auto_rows, "stale advisor view after writes");
}

/// `EXPLAIN ANALYZE` names the advisor's view in its dedicated tail
/// line once the answer is served from it.
#[test]
fn explain_analyze_reports_advisor_served_answers() {
    let mut auto = session_with(AdvisorPolicy::auto());
    run_script(
        &mut auto,
        &format!("{}{}", setup_script(), HOT_QUERY.repeat(4)),
    );
    let out = run_script(&mut auto, &format!("EXPLAIN ANALYZE {HOT_QUERY}"));
    let StatementOutcome::Explanation(lines) = &out[0] else {
        panic!("expected an explanation, got {:?}", out[0])
    };
    assert!(
        lines.iter().any(
            |l| l.contains("advisor: answer served from advisor-created view(s)")
                && l.contains("AdvView1")
        ),
        "missing advisor tail line in {lines:#?}"
    );
}

/// The `max_views` budget is a hard cap: a workload with many distinct
/// hot fingerprints only ever materializes `max_views` views, and the
/// extra fingerprints keep being answered (from base tables) correctly.
#[test]
fn auto_respects_the_max_views_budget() {
    let policy = AdvisorPolicy {
        mode: AdvisorMode::Auto,
        max_views: 2,
        ..AdvisorPolicy::default()
    };
    let mut auto = session_with(policy);
    run_script(&mut auto, &setup_script());

    // Six distinct fingerprints, each served past `auto_after`.
    let queries = [
        "SELECT Region, SUM(Amount) FROM Sales GROUP BY Region;",
        "SELECT Product, SUM(Amount) FROM Sales GROUP BY Product;",
        "SELECT Region, COUNT(Amount) FROM Sales GROUP BY Region;",
        "SELECT Product, MAX(Amount) FROM Sales GROUP BY Product;",
        "SELECT Region, MIN(Amount) FROM Sales GROUP BY Region;",
        "SELECT Product, COUNT(Amount) FROM Sales GROUP BY Product;",
    ];
    for q in queries {
        for _ in 0..4 {
            let out = run_script(&mut auto, q);
            let StatementOutcome::Answer { .. } = out[0] else {
                panic!("expected an answer")
            };
        }
    }

    let state = auto.advisor_state().unwrap();
    assert_eq!(
        state.created_count(),
        2,
        "budget of 2 views violated: {:?}",
        state.created()
    );
    assert_eq!(auto.metrics().unwrap().get(CounterId::AdvisorCreated), 2);
}

/// A `max_backfill_rows` budget of 0 rejects every proposal (any
/// materialization has at least one row), so `auto` never acts.
#[test]
fn auto_respects_the_backfill_budget() {
    let policy = AdvisorPolicy {
        mode: AdvisorMode::Auto,
        max_backfill_rows: 0,
        ..AdvisorPolicy::default()
    };
    let mut auto = session_with(policy);
    run_script(&mut auto, &setup_script());
    for _ in 0..6 {
        run_script(&mut auto, HOT_QUERY);
    }
    assert_eq!(auto.advisor_state().unwrap().created_count(), 0);
    assert_eq!(auto.metrics().unwrap().get(CounterId::AdvisorCreated), 0);
}

/// `suggest` mode ranks proposals for the observed workload,
/// deterministically — two calls print byte-identical lines, the hot
/// fingerprint's proposal ranks first — and never creates views.
#[test]
fn suggest_mode_proposals_are_ranked_and_deterministic() {
    let mut s = session_with(AdvisorPolicy::suggest());
    run_script(&mut s, &setup_script());
    // Hot: 5 servings of the Region rollup; lukewarm: 1 serving of a
    // Product rollup. Frequency weighting must rank Region first.
    for _ in 0..5 {
        run_script(&mut s, HOT_QUERY);
    }
    run_script(
        &mut s,
        "SELECT Product, SUM(Amount) FROM Sales GROUP BY Product;",
    );

    let first = match s.advise().expect("advise works with obs on") {
        StatementOutcome::Explanation(lines) => lines,
        other => panic!("expected an explanation, got {other:?}"),
    };
    let second = match s.advise().expect("advise is repeatable") {
        StatementOutcome::Explanation(lines) => lines,
        other => panic!("expected an explanation, got {other:?}"),
    };
    assert_eq!(first, second, "advise output is not deterministic");
    assert!(
        first.len() >= 2,
        "expected proposals for both shapes: {first:#?}"
    );
    assert!(first[0].starts_with("proposal 1:"), "{first:#?}");
    assert!(
        first[0].contains("GROUP BY Sales.Region") && first[0].contains("freq 5"),
        "hot Region rollup should rank first: {first:#?}"
    );
    // Suggest-only: proposals were computed, nothing was created.
    assert_eq!(s.advisor_state().unwrap().created_count(), 0);
    assert!(s.metrics().unwrap().get(CounterId::AdvisorProposals) >= 2);
    assert_eq!(s.metrics().unwrap().get(CounterId::AdvisorCreated), 0);
}

/// Advisor mode `off` keeps no state and `advise()` still answers (it
/// only needs the workload profile, not advisor bookkeeping).
#[test]
fn off_mode_keeps_no_state_but_advise_still_ranks() {
    let mut s = session_with(AdvisorPolicy::off());
    run_script(&mut s, &setup_script());
    for _ in 0..4 {
        run_script(&mut s, HOT_QUERY);
    }
    assert!(s.advisor_state().is_none(), "off mode must carry no state");
    let StatementOutcome::Explanation(lines) = s.advise().expect("advise works") else {
        panic!("expected an explanation")
    };
    assert!(lines[0].starts_with("proposal 1:"), "{lines:#?}");
}

/// A join view the advisor creates costs a later write a fold, not a
/// recompute: the acknowledgement counts it as maintained incrementally,
/// from either side of the join, and the answers still match advisor-off.
#[test]
fn auto_created_join_view_is_maintained_incrementally() {
    let setup = format!(
        "{}CREATE TABLE Regions (Region, Name, Zone);
         INSERT INTO Regions VALUES (1, 'north', 'cold'), (2, 'south', 'warm'), (3, 'east', 'warm');\n",
        setup_script()
    );
    // Grouping by two dimension columns makes the join view the smallest
    // estimate, so it — not a `Sales`-only pre-aggregate — is created.
    let hot = "SELECT Name, Zone, SUM(Amount) FROM Sales, Regions \
               WHERE Sales.Region = Regions.Region GROUP BY Name, Zone;";
    let mut off = session_with(AdvisorPolicy::off());
    let mut auto = session_with(AdvisorPolicy::auto());
    let warmup = format!("{setup}{}", hot.repeat(4));
    run_script(&mut off, &warmup);
    run_script(&mut auto, &warmup);
    let created = auto.advisor_state().unwrap().created();
    assert_eq!(created, vec!["AdvView1".to_string()]);
    let def = auto.views().iter().find(|v| v.name == "AdvView1").unwrap();
    assert_eq!(def.query.from.len(), 2, "a join view: {}", def.query);

    for write in [
        "INSERT INTO Sales VALUES (1, 99, 100), (4, 1, 7);",
        "INSERT INTO Regions VALUES (4, 'west', 'cold');",
        "DELETE FROM Sales WHERE Product = 3;",
    ] {
        run_script(&mut off, write);
        let out = run_script(&mut auto, write);
        let StatementOutcome::Ok(ack) = &out[0] else {
            panic!("expected an acknowledgement, got {:?}", out[0])
        };
        assert!(
            ack.ends_with("; 1 view(s) maintained incrementally"),
            "`{write}`: {ack}"
        );
        let (off_rows, _) = answer_rows(&run_script(&mut off, hot)[0]);
        let (auto_rows, auto_views) = answer_rows(&run_script(&mut auto, hot)[0]);
        assert_eq!(auto_views, vec!["AdvView1".to_string()]);
        assert_eq!(off_rows, auto_rows, "stale advisor view after `{write}`");
    }
}
