//! Columnar conversion and vectorized execution at the awkward edges:
//! validity-bitmap round-trips, empty relations, and mixed Int/Double
//! columns packed around the f64 exactness edge (2^53) — the same edge
//! `index_edge.rs` pins for `GroupIndex` probes. The conversion contract
//! is lossless both ways (`to_rows(from_rows(r)) == r` cell for cell and
//! `from_rows(to_rows(c)) == c`), and every query must answer identically
//! under `ExecContext::columnar(true)` and `ExecContext::columnar(false)`.

use aggview_engine::{execute_ctx, ColumnarRelation, Database, ExecContext, Relation, Value};
use aggview_sql::parse_query;

const EDGE: i64 = 1 << 53; // 9007199254740992

/// The `index_edge.rs` relation: one key column `a` mixing Int and Double
/// values around ±2^53, one Int payload `s` tagging each row.
fn edge_rel() -> Relation {
    Relation::new(
        ["a", "s"],
        vec![
            vec![Value::Int(EDGE - 1), Value::Int(1)],
            vec![Value::Int(EDGE), Value::Int(2)],
            vec![Value::Int(EDGE + 1), Value::Int(3)],
            vec![Value::Double(EDGE as f64), Value::Int(4)],
            vec![Value::Double((EDGE - 1) as f64), Value::Int(5)],
            vec![Value::Int(-(EDGE - 1)), Value::Int(6)],
            vec![Value::Int(-EDGE), Value::Int(7)],
            vec![Value::Int(-(EDGE + 1)), Value::Int(8)],
            vec![Value::Double(-(EDGE as f64)), Value::Int(9)],
        ],
    )
}

/// Run `sql` over `rel` (as table `V`) under both execution modes; assert
/// byte-identical answers and return them.
fn columnar_vs_row(sql: &str, rel: &Relation) -> Relation {
    let q = parse_query(sql).unwrap();
    let mut db = Database::new();
    db.insert("V", rel.clone());
    let row = execute_ctx(&q, &db, &ExecContext::columnar(false)).unwrap();
    let col = execute_ctx(&q, &db, &ExecContext::columnar(true)).unwrap();
    assert_eq!(row.rows, col.rows, "row and columnar disagree on {sql}");
    assert_eq!(row.columns, col.columns);
    col
}

#[test]
fn mixed_edge_column_round_trips_losslessly() {
    let rel = edge_rel();
    let c = ColumnarRelation::from_rows(&rel);
    // The first row is Int, so `a` is an Int column with the two Double
    // rows as validity exceptions.
    assert!(!c.col(0).is_clean());
    assert_eq!(
        c.col(0).validity(),
        Some(&[true, true, true, false, false, true, true, true, false][..])
    );
    assert!(c.col(1).is_clean());
    // Exact values survive both directions, 2^53 neighbours included.
    assert_eq!(c.to_rows(), rel);
    assert_eq!(c.value(3, 0), Value::Double(EDGE as f64));
    assert_eq!(c.value(2, 0), Value::Int(EDGE + 1));
    assert_eq!(ColumnarRelation::from_rows(&c.to_rows()), c);
}

#[test]
fn empty_relation_round_trips_and_executes() {
    let rel = Relation::empty(["a", "s"]);
    let c = ColumnarRelation::from_rows(&rel);
    assert_eq!(c.n_rows(), 0);
    assert_eq!(c.arity(), 2);
    assert_eq!(c.to_rows(), rel);
    assert_eq!(ColumnarRelation::from_rows(&c.to_rows()), c);
    for sql in [
        "SELECT s FROM V",
        "SELECT a, SUM(s) FROM V GROUP BY a",
        "SELECT COUNT(s) FROM V",
    ] {
        let out = columnar_vs_row(sql, &rel);
        assert!(out.rows.is_empty(), "{sql} over empty input yields no rows");
    }
}

#[test]
fn validity_bitmap_round_trips_under_interleaving() {
    // Alternating types in one column: every second slot is an exception.
    let rel = Relation::new(
        ["x"],
        (0..10)
            .map(|i| {
                if i % 2 == 0 {
                    vec![Value::Int(i)]
                } else {
                    vec![Value::Str(format!("s{i}"))]
                }
            })
            .collect(),
    );
    let c = ColumnarRelation::from_rows(&rel);
    assert_eq!(
        c.col(0).validity().map(|v| v.to_vec()),
        Some((0..10).map(|i| i % 2 == 0).collect::<Vec<_>>())
    );
    assert_eq!(c.to_rows(), rel);
    assert_eq!(ColumnarRelation::from_rows(&c.to_rows()), c);
}

#[test]
fn edge_filters_match_row_path() {
    let rel = edge_rel();
    // Int literal below, at, and past the edge; Double literal at the
    // edge (which equals BOTH Int(2^53) and Int(2^53 + 1) under f64
    // comparison). The mixed column forces the vectorized path to
    // decline, so this pins the decline-and-match behaviour.
    for sql in [
        format!("SELECT s FROM V WHERE a = {}", EDGE - 1),
        format!("SELECT s FROM V WHERE a = {EDGE}"),
        format!("SELECT s FROM V WHERE a = {}", EDGE + 1),
        format!("SELECT s FROM V WHERE a = {EDGE}.0"),
        format!("SELECT s FROM V WHERE a < {}", -(EDGE - 1)),
        "SELECT a, COUNT(s) FROM V WHERE a > 0 GROUP BY a".to_string(),
    ] {
        columnar_vs_row(&sql, &rel);
    }
}

#[test]
fn clean_int_payload_vectorizes_at_the_edge() {
    // Aggregating the *payload* groups on a clean Int column holding
    // 2^53-adjacent magnitudes: the vectorized SUM must promote on
    // overflow exactly like the row accumulator, and MIN/MAX must keep
    // exact Int comparisons (no f64 round-trip).
    let rel = Relation::new(
        ["g", "v"],
        vec![
            vec![Value::Int(1), Value::Int(EDGE)],
            vec![Value::Int(1), Value::Int(EDGE + 1)],
            vec![Value::Int(2), Value::Int(-EDGE)],
            vec![Value::Int(2), Value::Int(-(EDGE + 1))],
        ],
    );
    let out = columnar_vs_row(
        "SELECT g, SUM(v), MIN(v), MAX(v), COUNT(v) FROM V GROUP BY g",
        &rel,
    );
    assert_eq!(out.rows.len(), 2);
    // MIN/MAX distinguish 2^53 from 2^53 + 1 — exact Int ordering.
    assert_eq!(out.rows[0][2], Value::Int(EDGE));
    assert_eq!(out.rows[0][3], Value::Int(EDGE + 1));
    assert_eq!(out.rows[1][2], Value::Int(-(EDGE + 1)));
    assert_eq!(out.rows[1][3], Value::Int(-EDGE));
}
