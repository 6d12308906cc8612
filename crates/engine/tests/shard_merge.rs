//! Directed tests of the scatter-gather merge algebra (`shard` module):
//! the §4.4 AVG identity against the avg-of-averages trap, empty shards,
//! COUNT recombination after deletions, and error propagation when a
//! partial answer carries a non-comparable value.

use aggview_engine::shard::{plan_gather, shard_of_value, GatherPlan};
use aggview_engine::{execute, multiset_eq, Database, Relation, Value};
use aggview_sql::parse_query;

/// Hash-partition `rows` on column 0 into `n` shard databases holding
/// table `S`, plus the unioned database holding all rows.
fn partition(cols: &[&str], rows: Vec<Vec<Value>>, n: usize) -> (Vec<Database>, Database) {
    let mut parts: Vec<Vec<Vec<Value>>> = vec![Vec::new(); n];
    for row in &rows {
        parts[shard_of_value(&row[0], n)].push(row.clone());
    }
    let shards = parts
        .into_iter()
        .map(|p| {
            let mut db = Database::new();
            db.insert("S", Relation::new(cols.iter().map(|c| c.to_string()), p));
            db
        })
        .collect();
    let mut union = Database::new();
    union.insert("S", Relation::new(cols.iter().map(|c| c.to_string()), rows));
    (shards, union)
}

fn ints(rows: &[&[i64]]) -> Vec<Vec<Value>> {
    rows.iter()
        .map(|r| r.iter().map(|&v| Value::Int(v)).collect())
        .collect()
}

/// Plan the gather for `sql` over `S` partitioned on column `A`, scatter to
/// the shard databases, merge, and return (merged, unsharded answer).
fn scatter_merge(sql: &str, shards: &[Database], union: &Database) -> (Relation, Relation) {
    let q = parse_query(sql).unwrap();
    let GatherPlan::Reaggregate(plan) =
        plan_gather(&q, &|name| (name == "S").then(|| "A".to_string()))
    else {
        panic!("{sql}: expected a re-aggregation plan");
    };
    let parts: Vec<Relation> = shards
        .iter()
        .map(|db| execute(&plan.scatter, db).unwrap())
        .collect();
    let merged = plan.merge(&q, &parts).unwrap();
    let global = execute(&q, union).unwrap();
    (merged, global)
}

/// §4.4: AVG must be recovered as SUM-of-SUMs / SUM-of-COUNTs. Averaging
/// the per-shard averages is unsound whenever shard sizes differ — this is
/// the counterexample, with the wrong answer computed explicitly.
#[test]
fn avg_merges_by_sum_count_identity_not_avg_of_averages() {
    // One group (B=1) straddling shards: find a key layout where the group's
    // rows split unevenly (1 vs 2) across 2 shards.
    let (k1, k2) = {
        let a = (0..64)
            .find(|&a| shard_of_value(&Value::Int(a), 2) == 0)
            .unwrap();
        let b = (0..64)
            .find(|&b| shard_of_value(&Value::Int(b), 2) == 1)
            .unwrap();
        (a, b)
    };
    // A, B, C: shard 0 holds C=10; shard 1 holds C=20 and C=60.
    let rows = ints(&[&[k1, 1, 10], &[k2, 1, 20], &[k2, 1, 60]]);
    let (shards, union) = partition(&["A", "B", "C"], rows, 2);
    let (merged, global) = scatter_merge("SELECT B, AVG(C) FROM S GROUP BY B", &shards, &union);

    // True AVG = (10 + 20 + 60) / 3 = 30.
    assert!(multiset_eq(&merged, &global), "{merged}\nvs\n{global}");
    assert_eq!(merged.rows[0][1], Value::Double(30.0));

    // Avg-of-averages would give (10/1 + 80/2) / 2 = 25 — wrong.
    let per_shard_avg: Vec<f64> = shards
        .iter()
        .map(|db| {
            let r = execute(
                &parse_query("SELECT B, AVG(C) FROM S GROUP BY B").unwrap(),
                db,
            )
            .unwrap();
            r.rows[0][1].as_f64().unwrap()
        })
        .collect();
    let avg_of_avgs = per_shard_avg.iter().sum::<f64>() / per_shard_avg.len() as f64;
    assert_eq!(avg_of_avgs, 25.0);
    assert_ne!(Value::Double(avg_of_avgs), merged.rows[0][1]);
}

/// Shards that hold no rows of a group (or no rows at all) contribute
/// nothing: empty partial relations must not create empty groups or skew
/// any merged aggregate.
#[test]
fn empty_shards_contribute_nothing() {
    // 4 shards, but all rows share few keys — some shards end up empty.
    let rows = ints(&[&[1, 1, 10], &[1, 2, 20], &[1, 2, 30]]);
    let (shards, union) = partition(&["A", "B", "C"], rows, 4);
    assert!(
        shards.iter().any(|db| db.get("S").unwrap().is_empty()),
        "expected at least one empty shard"
    );
    let (merged, global) = scatter_merge(
        "SELECT B, SUM(C), COUNT(C), MIN(C), MAX(C), AVG(C) FROM S GROUP BY B",
        &shards,
        &union,
    );
    assert!(multiset_eq(&merged, &global), "{merged}\nvs\n{global}");
    assert_eq!(merged.len(), 2);
}

/// COUNT partials are Int counts merged by SUM, so the merged COUNT tracks
/// deletions exactly: removing rows from one shard's partition and
/// re-scattering yields the post-delete global counts (and stays Int).
#[test]
fn count_of_counts_tracks_deleted_rows() {
    let rows = ints(&[&[0, 1, 5], &[1, 1, 6], &[2, 1, 7], &[3, 2, 8], &[4, 2, 9]]);
    let (mut shards, _) = partition(&["A", "B", "C"], rows.clone(), 3);

    // Delete every row with C < 7 from the shard partitions it lives on.
    let keep = |row: &[Value]| row[2].as_f64().unwrap() >= 7.0;
    for db in &mut shards {
        let mut rel = db.remove("S").unwrap();
        rel.retain(keep);
        db.insert("S", rel);
    }
    let mut union = Database::new();
    union.insert(
        "S",
        Relation::new(
            ["A", "B", "C"].map(String::from),
            rows.into_iter().filter(|r| keep(r)).collect(),
        ),
    );

    let (merged, global) = scatter_merge("SELECT B, COUNT(C) FROM S GROUP BY B", &shards, &union);
    assert!(multiset_eq(&merged, &global), "{merged}\nvs\n{global}");
    for row in &merged.rows {
        assert!(
            matches!(row[1], Value::Int(_)),
            "merged COUNT must stay Int"
        );
    }
    let total: i64 = merged
        .rows
        .iter()
        .map(|r| match r[1] {
            Value::Int(n) => n,
            _ => unreachable!(),
        })
        .sum();
    assert_eq!(total, 3, "two of five rows were deleted");
}

/// A NaN in a partial MIN/MAX column is not comparable under SQL semantics;
/// the merge must surface the engine's type error rather than silently
/// picking a winner.
#[test]
fn min_max_merge_propagates_nan_errors() {
    let q = parse_query("SELECT B, MIN(C) FROM S GROUP BY B").unwrap();
    let GatherPlan::Reaggregate(plan) = plan_gather(&q, &|_| Some("A".to_string())) else {
        panic!("expected a re-aggregation plan");
    };
    let cols = ["g0", "p0"].map(String::from);
    let shard0 = Relation::new(cols.clone(), vec![vec![Value::Int(1), Value::Double(2.5)]]);
    let shard1 = Relation::new(
        cols.clone(),
        vec![vec![Value::Int(1), Value::Double(f64::NAN)]],
    );
    let err = plan.merge(&q, &[shard0, shard1]).unwrap_err();
    assert!(
        err.to_string().contains("MIN"),
        "expected a MIN merge error, got: {err}"
    );

    // Same partials under MAX: also an error, not a silent NaN winner.
    let q = parse_query("SELECT B, MAX(C) FROM S GROUP BY B").unwrap();
    let GatherPlan::Reaggregate(plan) = plan_gather(&q, &|_| Some("A".to_string())) else {
        panic!("expected a re-aggregation plan");
    };
    let shard0 = Relation::new(cols.clone(), vec![vec![Value::Int(1), Value::Double(2.5)]]);
    let shard1 = Relation::new(cols, vec![vec![Value::Int(1), Value::Double(f64::NAN)]]);
    assert!(plan.merge(&q, &[shard0, shard1]).is_err());
}

/// A partial relation whose arity does not match the plan is rejected up
/// front (guards against a shard answering a stale scatter query).
#[test]
fn arity_mismatch_is_rejected() {
    let q = parse_query("SELECT B, SUM(C) FROM S GROUP BY B").unwrap();
    let GatherPlan::Reaggregate(plan) = plan_gather(&q, &|_| Some("A".to_string())) else {
        panic!("expected a re-aggregation plan");
    };
    let bad = Relation::new(["g0"].map(String::from), vec![vec![Value::Int(1)]]);
    let err = plan.merge(&q, &[bad]).unwrap_err();
    assert!(err.to_string().contains("arity"), "{err}");
}
