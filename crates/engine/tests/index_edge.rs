//! `GroupIndex` probe behaviour at the f64 exactness edge (2^53).
//!
//! Index probes cover the numeric cross-type equality of `cmp_sql`
//! (`Int(1) = Double(1.0)`) by also probing a converted "twin" key. The
//! conversion is only exact for magnitudes strictly below 2^53; past the
//! edge the probe must *decline* and fall back to the scan — a naive twin
//! probe there would silently drop rows (e.g. `Int(2^53 + 1)` equals
//! `Double(2^53.0)` under SQL's f64 comparison but has no representable
//! Double twin). Every query here is run twice, unindexed (pure scan) and
//! indexed, and the two result relations must be byte-identical, rows and
//! order included.

use aggview_engine::{execute, Database, GroupIndex, Relation, Value};
use aggview_sql::parse_query;

const EDGE: i64 = 1 << 53; // 9007199254740992

/// One key column `a`, one payload `s` tagging each row, with Int and
/// Double keys packed around ±2^53.
fn edge_db() -> Database {
    let rows = vec![
        vec![Value::Int(EDGE - 1), Value::Int(1)],
        vec![Value::Int(EDGE), Value::Int(2)],
        vec![Value::Int(EDGE + 1), Value::Int(3)],
        vec![Value::Double(EDGE as f64), Value::Int(4)],
        vec![Value::Double((EDGE - 1) as f64), Value::Int(5)],
        vec![Value::Int(-(EDGE - 1)), Value::Int(6)],
        vec![Value::Int(-EDGE), Value::Int(7)],
        vec![Value::Int(-(EDGE + 1)), Value::Int(8)],
        vec![Value::Double(-(EDGE as f64)), Value::Int(9)],
    ];
    let mut db = Database::new();
    db.insert("V", Relation::new(["a", "s"], rows));
    db
}

/// Run `sql` with and without the index; assert byte-identical results and
/// return the payload tags of the answer.
fn probe_vs_scan(sql: &str) -> Vec<i64> {
    let q = parse_query(sql).unwrap();
    let mut db = edge_db();
    let scanned = execute(&q, &db).unwrap();
    db.set_index("V", GroupIndex::build(db.table("V").unwrap(), vec![0]));
    let probed = execute(&q, &db).unwrap();
    assert_eq!(
        scanned.rows, probed.rows,
        "probe and scan disagree on {sql}"
    );
    assert_eq!(scanned.columns, probed.columns);
    probed
        .rows
        .iter()
        .map(|r| match &r[0] {
            Value::Int(s) => *s,
            other => panic!("payload must be Int, got {other:?}"),
        })
        .collect()
}

#[test]
fn int_below_edge_probes_with_twin() {
    // 2^53 - 1 is exactly representable: the probe generates the Double
    // twin and must find both the Int and the Double key.
    let tags = probe_vs_scan(&format!("SELECT s FROM V WHERE a = {}", EDGE - 1));
    assert_eq!(tags, vec![1, 5]);
    let tags = probe_vs_scan(&format!("SELECT s FROM V WHERE a = {}", -(EDGE - 1)));
    assert_eq!(tags, vec![6]);
}

#[test]
fn int_at_edge_declines_to_scan() {
    // ±2^53: the twin conversion stops being exact; the probe declines.
    // Int(2^53) equals Double(2^53.0) under cmp_sql's f64 comparison.
    let tags = probe_vs_scan(&format!("SELECT s FROM V WHERE a = {EDGE}"));
    assert_eq!(tags, vec![2, 4]);
    let tags = probe_vs_scan(&format!("SELECT s FROM V WHERE a = {}", -EDGE));
    assert_eq!(tags, vec![7, 9]);
}

#[test]
fn int_past_edge_declines_to_scan() {
    // ±(2^53 + 1): rounds to 2^53.0 as f64, so it equals the Double key
    // (and the mirrored Int via exact Int comparison stays distinct).
    let tags = probe_vs_scan(&format!("SELECT s FROM V WHERE a = {}", EDGE + 1));
    assert_eq!(tags, vec![3, 4]);
    let tags = probe_vs_scan(&format!("SELECT s FROM V WHERE a = {}", -(EDGE + 1)));
    assert_eq!(tags, vec![8, 9]);
}

#[test]
fn double_literal_at_edge_declines_to_scan() {
    // The case that makes the decline load-bearing: Double(2^53.0) equals
    // BOTH Int(2^53) and Int(2^53 + 1) under f64 comparison. A naive twin
    // probe (`Int(2^53)`) would return tags {2, 4} and silently miss 3.
    let tags = probe_vs_scan(&format!("SELECT s FROM V WHERE a = {EDGE}.0"));
    assert_eq!(tags, vec![2, 3, 4]);
    let tags = probe_vs_scan(&format!("SELECT s FROM V WHERE a = -{EDGE}.0"));
    assert_eq!(tags, vec![7, 8, 9]);
}

#[test]
fn double_below_edge_probes_with_twin() {
    let tags = probe_vs_scan(&format!("SELECT s FROM V WHERE a = {}.0", EDGE - 1));
    assert_eq!(tags, vec![1, 5]);
}
