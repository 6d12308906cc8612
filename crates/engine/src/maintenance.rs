//! Incremental view maintenance: one delta rule for every single-block
//! view.
//!
//! The paper's Section 1 motivates materialized summary tables over
//! high-volume transaction streams ("very large transaction recording
//! systems … answered more efficiently by materializing and maintaining
//! appropriately defined aggregate views"), citing the incremental
//! maintenance literature ([BLT86, GMS93]) as the orthogonal machinery
//! that keeps those views fresh. This module is that machinery.
//!
//! A change `ΔT` to base table `T` reaches a view through the view's own
//! `FROM … WHERE`, evaluated with `ΔT` bound in place of `T`'s one
//! occurrence. The join is multilinear in each occurrence under multiset
//! semantics — `(T ⊎ ΔT) ⋈ R = (T ⋈ R) ⊎ (ΔT ⋈ R)` — so those *image*
//! rows are exactly the core-table rows the change added (or removed),
//! whichever side of the join `T` sits on. A [`FoldPlan`] holds that image
//! query, compiled once when the view is stored, and says how an image row
//! lands in the stored relation:
//!
//! * **Grouped views** whose select list is the grouping columns plus
//!   plain `SUM`/`COUNT`/`MIN`/`MAX` fold each image row into its group.
//!   Deletes need every aggregate to have an inverse (`MIN`/`MAX` can
//!   loosen) and a `COUNT` output (to detect emptied groups).
//! * **Conjunctive views** append or remove the image rows themselves.
//! * **Everything else** recomputes, decided by the definition's shape
//!   alone: `AVG`, `HAVING`, `DISTINCT`, a hidden grouping column or a
//!   table occurring twice in `FROM` need per-group state the stored
//!   relation does not expose. So does a change that reaches the view
//!   through another view: its rows are not tracked.

use crate::ctx::ExecContext;
use crate::database::Database;
use crate::error::{EngineError, EngineResult};
use crate::exec::{execute_ctx, Compiler, PhysicalPlan};
use crate::index::GroupIndex;
use crate::relation::Relation;
use crate::value::{self, Value};
use aggview_catalog::SchemaSource;
use aggview_sql::ast::{AggFunc, Expr, Query, SelectItem};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

/// Fault injection: `AGGVIEW_UNSOUND_DROP_DIM_DELTA=1` silently skips the
/// fold when the changed table is not the view's first `FROM` occurrence
/// — the dropped `T ⋈ ΔR` term the qcheck oracle must catch. Read once
/// per process.
fn unsound_drop_dim_delta() -> bool {
    static DROP: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *DROP.get_or_init(|| std::env::var_os("AGGVIEW_UNSOUND_DROP_DIM_DELTA").is_some())
}

/// How an aggregate output absorbs one image row; the payload is the image
/// column holding the aggregate's argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fold {
    Sum(usize),
    Count,
    Min(usize),
    Max(usize),
}

/// One select output of a grouped view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Output {
    /// Grouping column, at this image column.
    Group(usize),
    Agg(Fold),
}

/// How image rows land in the stored relation.
#[derive(Debug, Clone)]
enum Shape {
    /// Conjunctive view: the image rows are the view's rows.
    Rows,
    /// Grouped view: image rows are `GROUP BY columns ++ aggregate
    /// arguments` and fold into one stored row per group.
    Groups {
        /// Per view output column: where its value comes from.
        outputs: Vec<Output>,
        /// View positions of the grouping columns, in `GROUP BY` order
        /// (image columns `0..n` hold them in the same order).
        key_outputs: Vec<usize>,
    },
}

/// The compiled delta rule of one view.
#[derive(Debug, Clone)]
pub struct FoldPlan {
    /// The view's `FROM … WHERE` projected for `shape`; run with the delta
    /// bound in place of the changed table.
    image: PhysicalPlan,
    shape: Shape,
}

impl FoldPlan {
    /// Analyze a view definition. `None` means every change recomputes.
    pub fn compile(q: &Query, schemas: &dyn SchemaSource, cx: &ExecContext) -> Option<FoldPlan> {
        if q.distinct || q.having.is_some() {
            return None;
        }
        // `ΔT` replaces one occurrence; a second one needs the two-term
        // expansion.
        let tables: Vec<&str> = q.from.iter().map(|t| t.table.as_str()).collect();
        if (1..tables.len()).any(|i| tables[..i].contains(&tables[i])) {
            return None;
        }
        let scope = Compiler::bind(&q.from, schemas).ok()?;
        let grouped =
            !q.group_by.is_empty() || q.select.iter().any(|s| s.expr.contains_aggregate());
        let (image_select, shape) = if grouped {
            // Columns are compared by resolved position: `T.a` in GROUP BY
            // and `a` in SELECT are the same column.
            let resolved = q.group_by.iter().map(|c| scope.resolve(c).ok());
            let group_positions: Vec<usize> = resolved.collect::<Option<_>>()?;
            let mut image_select: Vec<Expr> =
                q.group_by.iter().cloned().map(Expr::Column).collect();
            let mut outputs = Vec::with_capacity(q.select.len());
            let mut key_outputs: Vec<Option<usize>> = vec![None; group_positions.len()];
            for (oi, item) in q.select.iter().enumerate() {
                outputs.push(match &item.expr {
                    Expr::Column(c) => {
                        let pos = scope.resolve(c).ok()?;
                        let gi = group_positions.iter().position(|&g| g == pos)?;
                        key_outputs[gi].get_or_insert(oi);
                        Output::Group(gi)
                    }
                    Expr::Agg(call) => {
                        let arg = call.arg.as_deref().map(|e| {
                            image_select.push(e.clone());
                            image_select.len() - 1
                        });
                        Output::Agg(match (call.func, arg) {
                            (AggFunc::Count, _) => Fold::Count,
                            (AggFunc::Sum, Some(c)) => Fold::Sum(c),
                            (AggFunc::Min, Some(c)) => Fold::Min(c),
                            (AggFunc::Max, Some(c)) => Fold::Max(c),
                            // AVG is not a function of (AVG, delta); only
                            // COUNT takes `*`.
                            _ => return None,
                        })
                    }
                    _ => return None,
                });
            }
            // Every grouping column must be exposed, or an image row
            // cannot be routed to its group.
            let key_outputs = key_outputs.into_iter().collect::<Option<_>>()?;
            let shape = Shape::Groups {
                outputs,
                key_outputs,
            };
            (image_select, shape)
        } else {
            let select = q.select.iter().map(|s| s.expr.clone()).collect();
            (select, Shape::Rows)
        };
        let image_query = Query {
            distinct: false,
            select: image_select.into_iter().map(SelectItem::expr).collect(),
            from: q.from.clone(),
            where_clause: q.where_clause.clone(),
            group_by: Vec::new(),
            having: None,
        };
        let mut image = PhysicalPlan::compile(&image_query, schemas).ok()?;
        image.set_columnar(cx.columnar);
        Some(FoldPlan { image, shape })
    }

    /// The [`GroupIndex`] key columns that serve this plan's group
    /// lookups: the view positions of the grouping columns. `None` when
    /// the view has no grouping column to key on.
    pub fn index_key_cols(&self) -> Option<&[usize]> {
        match &self.shape {
            Shape::Groups { key_outputs, .. } if !key_outputs.is_empty() => Some(key_outputs),
            _ => None,
        }
    }

    /// Can deletes be folded? Every aggregate needs an inverse, and an
    /// emptied group is only detectable via a `COUNT` output.
    fn supports_delete(&self) -> bool {
        match &self.shape {
            Shape::Rows => true,
            Shape::Groups { outputs, .. } => {
                let invertible =
                    |o: &Output| !matches!(o, Output::Agg(Fold::Min(_) | Fold::Max(_)));
                outputs.iter().all(invertible) && outputs.contains(&Output::Agg(Fold::Count))
            }
        }
    }

    /// Fold the image of inserted (or, with `insert` false, deleted) rows
    /// into the stored view. An attached [`GroupIndex`] on the grouping
    /// columns is probed for group lookups and kept in sync; without one a
    /// scratch map is built for the batch.
    fn fold(
        &self,
        view: &mut Relation,
        image: Vec<Vec<Value>>,
        insert: bool,
        mut index: Option<&mut GroupIndex>,
    ) -> EngineResult<()> {
        let Shape::Groups {
            outputs,
            key_outputs,
        } = &self.shape
        else {
            if insert {
                view.rows.extend(image);
            } else {
                view.remove_rows(&image);
            }
            if let Some(idx) = index {
                idx.rebuild(view);
            }
            return Ok(());
        };
        let usable = index
            .as_ref()
            .is_some_and(|idx| idx.key_cols() == key_outputs);
        let mut scratch: Option<HashMap<Vec<Value>, usize>> = (!usable).then(|| {
            let key_of = |row: &Vec<Value>| key_outputs.iter().map(|&o| row[o].clone()).collect();
            let rows = view.rows.iter().enumerate();
            rows.map(|(ri, row)| (key_of(row), ri)).collect()
        });

        for row in &image {
            let key = &row[..key_outputs.len()];
            let ri = match &scratch {
                Some(map) => map.get(key).copied(),
                None => index
                    .as_ref()
                    .and_then(|idx| idx.probe(key).last().copied()),
            };
            match ri {
                // Only aggregate cells change: group keys stay put, so an
                // attached index stays valid throughout the loop.
                Some(ri) => {
                    for (cell, out) in view.rows[ri].iter_mut().zip(outputs) {
                        if let Output::Agg(fold) = out {
                            *cell = fold.merge(cell, row, insert)?;
                        }
                    }
                }
                None if insert => {
                    let fresh = outputs
                        .iter()
                        .map(|out| match out {
                            Output::Group(c) => Ok(row[*c].clone()),
                            Output::Agg(fold) => fold.init(row),
                        })
                        .collect::<EngineResult<Vec<Value>>>()?;
                    match (&mut scratch, &mut index) {
                        (Some(map), _) => {
                            map.insert(key.to_vec(), view.rows.len());
                        }
                        (None, Some(idx)) => idx.note_push(&fresh, view.rows.len()),
                        (None, None) => {}
                    }
                    view.push(fresh);
                }
                None => {
                    return Err(EngineError::TypeError(
                        "delete delta references a group absent from the view".into(),
                    ))
                }
            }
        }

        let mut moved = false;
        if !insert {
            // Drop emptied groups (COUNT hit zero); positions shift.
            let before = view.len();
            let count_pos = outputs.iter().position(|o| *o == Output::Agg(Fold::Count));
            if let Some(count_pos) = count_pos {
                view.rows.retain(|r| r[count_pos] != Value::Int(0));
            }
            moved = view.len() != before;
        }
        // A supplied-but-mismatched index was bypassed; re-sync it too.
        if let (Some(idx), true) = (index, moved || !usable) {
            idx.rebuild(view);
        }
        Ok(())
    }
}

impl Fold {
    /// The aggregate's value over a group holding only `row`.
    fn init(self, row: &[Value]) -> EngineResult<Value> {
        match self {
            Fold::Count => Ok(Value::Int(1)),
            Fold::Sum(c) if row[c].as_f64().is_none() => {
                Err(EngineError::TypeError("sum over non-numeric".into()))
            }
            Fold::Sum(c) | Fold::Min(c) | Fold::Max(c) => Ok(row[c].clone()),
        }
    }

    /// `cell` with `row`'s contribution added (`insert`) or taken back.
    fn merge(self, cell: &Value, row: &[Value], insert: bool) -> EngineResult<Value> {
        let type_err = |what: &str| EngineError::TypeError(what.to_string());
        let step = if insert { value::add } else { value::sub };
        let extremum = |c: usize, wanted: Ordering, name: &str| match row[c].cmp_sql(cell) {
            Some(ord) if ord == wanted => Ok(row[c].clone()),
            Some(_) => Ok(cell.clone()),
            None => Err(type_err(&format!("{name} over mixed types"))),
        };
        match self {
            Fold::Count => step(cell, &Value::Int(1)).ok_or_else(|| type_err("count")),
            Fold::Sum(c) => step(cell, &row[c]).ok_or_else(|| type_err("sum over non-numeric")),
            Fold::Min(_) | Fold::Max(_) if !insert => {
                Err(type_err("an extremum has no inverse under delete"))
            }
            Fold::Min(c) => extremum(c, Ordering::Less, "MIN"),
            Fold::Max(c) => extremum(c, Ordering::Greater, "MAX"),
        }
    }
}

/// A batch of base-table changes.
#[derive(Debug, Clone, Copy)]
pub enum DeltaKind<'a> {
    /// Rows appended to the base table.
    Insert(&'a [Vec<Value>]),
    /// Rows removed from the base table.
    Delete(&'a [Vec<Value>]),
}

/// One statement's change to one base table, as every dependent view's
/// image query sees it. Built once per statement.
#[derive(Debug)]
pub struct Delta<'a> {
    table: &'a str,
    insert: bool,
    /// The database with `table` rebound to the changed rows alone.
    /// Detached from the registry: image runs are maintenance, not
    /// queries.
    image_db: Database,
}

impl<'a> Delta<'a> {
    /// The change `kind` to `table`, which `db` already reflects.
    pub fn new(table: &'a str, kind: DeltaKind<'_>, db: &Database) -> EngineResult<Self> {
        let (insert, rows) = match kind {
            DeltaKind::Insert(rows) => (true, rows),
            DeltaKind::Delete(rows) => (false, rows),
        };
        let columns = db.get(table)?.columns.clone();
        let mut image_db = db.clone();
        image_db.clear_metrics();
        image_db.insert(table, Relation::new(columns, rows.to_vec()));
        Ok(Delta {
            table,
            insert,
            image_db,
        })
    }
}

/// Bring the stored view `name` up to date with `db`, which must already
/// reflect the change. With `delta`, the view's [`FoldPlan`] (attached by
/// [`Database::set_fold_plan`]) folds the change's image in when it can;
/// the caller passes one only if every other `FROM` occurrence of the view
/// is unchanged. Without one (the change reached the view through another
/// view, or the caller wants a refresh) or when the shape declines, the
/// view is recomputed under `cx`. An attached [`GroupIndex`] is probed and
/// kept consistent on every path. Returns whether the view was folded —
/// a function of the definition and the kind of change, never of the rows.
pub fn maintain_view_ctx(
    name: &str,
    view_query: &Query,
    delta: Option<&Delta<'_>>,
    db: &mut Database,
    cx: &ExecContext,
) -> EngineResult<bool> {
    let folding = delta.and_then(|d| {
        let plan = db.fold_plan(name)?;
        let reads_table = view_query.from.iter().any(|t| t.table == d.table);
        (reads_table && (d.insert || plan.supports_delete())).then(|| (Arc::clone(plan), d))
    });
    if let Some((plan, delta)) = folding {
        if unsound_drop_dim_delta() && view_query.from[0].table != delta.table {
            return Ok(true);
        }
        let image = plan.image.run(&delta.image_db)?.rows;
        // An empty image leaves the stored entry shared with the last
        // snapshot, index and columnar conversion included.
        if !image.is_empty() {
            db.update(name, |rel, idx| plan.fold(rel, image, delta.insert, idx))??;
        }
        return Ok(true);
    }
    let mut fresh = execute_ctx(view_query, db, cx)?;
    db.update(name, |rel, idx| {
        fresh.columns = std::mem::take(&mut rel.columns);
        *rel = fresh;
        if let Some(idx) = idx {
            idx.rebuild(rel);
        }
    })?;
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute;
    use crate::relation::{multiset_eq, rel_of_ints};
    use aggview_sql::parse_query;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// `T(a, b, c)` with `rows`, and a small dimension table `D(a, name)`.
    fn base_db(rows: &[&[i64]]) -> Database {
        let mut db = Database::new();
        db.insert("T", rel_of_ints(["a", "b", "c"], rows));
        db.insert(
            "D",
            rel_of_ints(["a", "name"], &[&[0, 100], &[1, 101], &[2, 102]]),
        );
        db
    }

    fn ints(rows: &[&[i64]]) -> Vec<Vec<Value>> {
        rows.iter()
            .map(|r| r.iter().copied().map(Value::Int).collect())
            .collect()
    }

    fn compile(sql: &str, db: &Database) -> Option<FoldPlan> {
        FoldPlan::compile(&parse_query(sql).unwrap(), db, &ExecContext::new())
    }

    fn materialize(q: &Query, db: &Database) -> Relation {
        let mut rel = execute(q, db).unwrap();
        rel.columns = q.output_names();
        rel
    }

    /// Store `sql` as view `V` with its fold plan and, when `indexed`, the
    /// index the plan keys on.
    fn store_view(db: &mut Database, sql: &str, indexed: bool) -> Query {
        let q = parse_query(sql).unwrap();
        db.insert("V", materialize(&q, db));
        if let Some(plan) = compile(sql, db) {
            db.set_fold_plan("V", plan, indexed);
        }
        q
    }

    /// Apply `kind` to base table `table`, then maintain `V` with the
    /// delta. Returns whether `V` was folded.
    fn change(
        db: &mut Database,
        q: &Query,
        table: &str,
        kind: DeltaKind<'_>,
    ) -> EngineResult<bool> {
        db.update(table, |rel, _| match kind {
            DeltaKind::Insert(rows) => rel.rows.extend_from_slice(rows),
            DeltaKind::Delete(rows) => rel.remove_rows(rows),
        })?;
        let delta = Delta::new(table, kind, db)?;
        maintain_view_ctx("V", q, Some(&delta), db, &ExecContext::new())
    }

    fn assert_fresh(db: &Database, q: &Query, step: &str) {
        let (view, want) = (db.get("V").unwrap(), materialize(q, db));
        assert!(
            multiset_eq(view, &want),
            "view diverged {step}:\n got: {view}\n want: {want}"
        );
        if let Some(idx) = db.index("V") {
            assert!(idx.is_consistent_with(view), "index stale {step}");
        }
    }

    fn random_rows(rng: &mut StdRng, n: usize) -> Vec<Vec<Value>> {
        (0..n)
            .map(|_| {
                vec![
                    Value::Int(rng.random_range(0..4)),
                    Value::Int(rng.random_range(-3..10)),
                    Value::Int(rng.random_range(-1..3)),
                ]
            })
            .collect()
    }

    #[test]
    fn shapes_that_fold() {
        let db = base_db(&[&[1, 2, 3]]);
        for sql in [
            "SELECT a, SUM(b) AS s, COUNT(b) AS n, MIN(c) AS mn, MAX(c) AS mx \
             FROM T WHERE c > 0 GROUP BY a",
            "SELECT a, b FROM T WHERE c > 0", // conjunctive
            "SELECT SUM(b), COUNT(*) FROM T", // one global group
            "SELECT T.a, name, SUM(b * c) FROM T, D WHERE T.a = D.a GROUP BY T.a, name", // join
        ] {
            assert!(compile(sql, &db).is_some(), "`{sql}` should fold");
        }
    }

    #[test]
    fn shapes_that_recompute() {
        let db = base_db(&[&[1, 2, 3]]);
        for sql in [
            "SELECT a, AVG(b) FROM T GROUP BY a",                   // AVG
            "SELECT a, SUM(b) FROM T GROUP BY a HAVING SUM(b) > 1", // HAVING
            "SELECT DISTINCT a, b FROM T",                          // DISTINCT
            "SELECT DISTINCT a, SUM(b) FROM T GROUP BY a",
            "SELECT SUM(b) FROM T GROUP BY a", // group col hidden
            "SELECT a, SUM(b) + 1 FROM T GROUP BY a", // not a plain aggregate
            "SELECT x.a, SUM(y.b) FROM T x, T y WHERE x.a = y.a GROUP BY x.a", // T twice
        ] {
            assert!(compile(sql, &db).is_none(), "`{sql}` should recompute");
        }
    }

    #[test]
    fn columns_resolve_by_position_not_syntax() {
        // Qualified, bare and aliased references to one column are one
        // column, in GROUP BY and SELECT alike.
        let db = base_db(&[]);
        for sql in [
            "SELECT a, SUM(b) AS s FROM T GROUP BY T.a",
            "SELECT T.a, SUM(T.b) AS s FROM T GROUP BY a",
            "SELECT x.a AS k, SUM(b) AS s FROM T x GROUP BY a",
            "SELECT a AS k, SUM(x.b) AS s FROM T AS x GROUP BY x.a",
            "SELECT T.a, SUM(b) AS s FROM T, D WHERE T.a = D.a GROUP BY T.a",
            "SELECT D.a, name, SUM(b) AS s FROM T, D WHERE T.a = D.a GROUP BY name, D.a",
        ] {
            let plan = compile(sql, &db).unwrap_or_else(|| panic!("`{sql}` should fold"));
            let want: &[usize] = if sql.contains("name") { &[1, 0] } else { &[0] };
            assert_eq!(plan.index_key_cols(), Some(want), "`{sql}`");
        }
        // `T.a` and `D.a` are equal in every row but not the same column.
        assert!(compile(
            "SELECT D.a, SUM(b) FROM T, D WHERE T.a = D.a GROUP BY T.a",
            &db
        )
        .is_none());
    }

    #[test]
    fn folded_inserts_match_recompute() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut db = base_db(&[]);
        let q = store_view(
            &mut db,
            "SELECT a, SUM(b) AS s, COUNT(*) AS n, MIN(c) AS mn, MAX(c) AS mx \
             FROM T WHERE c <> 0 GROUP BY a",
            false,
        );
        for step in 0..25 {
            let n = rng.random_range(1..5);
            let batch = random_rows(&mut rng, n);
            assert!(change(&mut db, &q, "T", DeltaKind::Insert(&batch)).unwrap());
            assert_fresh(&db, &q, &format!("after insert {step}"));
        }
    }

    #[test]
    fn join_view_folds_from_either_side() {
        // Fact-side and dimension-side deltas are one rule with the roles
        // swapped; COUNT makes deletes foldable too.
        let mut rng = StdRng::seed_from_u64(5);
        let mut db = base_db(&[&[0, 4, 1], &[1, 2, 1], &[3, 9, 1]]);
        let q = store_view(
            &mut db,
            "SELECT T.a, name, SUM(b) AS s, COUNT(*) AS n FROM T, D WHERE T.a = D.a \
             GROUP BY T.a, name",
            true,
        );
        for step in 0..12 {
            let batch = random_rows(&mut rng, 2);
            assert!(change(&mut db, &q, "T", DeltaKind::Insert(&batch)).unwrap());
            assert_fresh(&db, &q, &format!("after fact insert {step}"));
        }
        // A dimension row nobody references, one existing facts already
        // reference (a = 3 had no partner so far), and a second name for
        // a = 1, which doubles that group's core rows.
        for (step, row) in [[7, 107], [3, 103], [1, 111]].iter().enumerate() {
            let batch = ints(&[&row[..]]);
            assert!(change(&mut db, &q, "D", DeltaKind::Insert(&batch)).unwrap());
            assert_fresh(&db, &q, &format!("after dimension insert {step}"));
        }
        let gone = ints(&[&[3, 103]]);
        assert!(change(&mut db, &q, "D", DeltaKind::Delete(&gone)).unwrap());
        assert_fresh(&db, &q, "after dimension delete");
        assert!(!db
            .get("V")
            .unwrap()
            .rows
            .iter()
            .any(|r| r[0] == Value::Int(3)));
        let gone = vec![db.get("T").unwrap().rows[0].clone()];
        assert!(change(&mut db, &q, "T", DeltaKind::Delete(&gone)).unwrap());
        assert_fresh(&db, &q, "after fact delete");
    }

    #[test]
    fn conjunctive_view_appends_and_removes_its_image() {
        let mut db = base_db(&[&[1, 5, 1], &[1, 5, 1], &[2, 6, 0]]);
        let q = store_view(
            &mut db,
            "SELECT b, name FROM T, D WHERE T.a = D.a AND c > 0",
            false,
        );
        let batch = ints(&[&[2, 7, 1], &[2, 8, 0], &[9, 9, 9]]);
        assert!(change(&mut db, &q, "T", DeltaKind::Insert(&batch)).unwrap());
        assert_fresh(&db, &q, "after insert");
        assert_eq!(db.get("V").unwrap().len(), 3);
        // One of two duplicate rows goes; the other stays.
        let gone = ints(&[&[1, 5, 1]]);
        assert!(change(&mut db, &q, "T", DeltaKind::Delete(&gone)).unwrap());
        assert_fresh(&db, &q, "after delete");
        assert_eq!(db.get("V").unwrap().len(), 2);
    }

    #[test]
    fn maintain_view_routes_correctly() {
        let mut db = base_db(&[&[1, 5, 2]]);
        let q = store_view(&mut db, "SELECT a, SUM(b) AS s FROM T GROUP BY a", true);
        let cx = ExecContext::new();
        let batch = ints(&[&[1, 7, 0], &[2, 1, 0]]);

        // Insert into T: folded, index maintained alongside.
        assert!(change(&mut db, &q, "T", DeltaKind::Insert(&batch)).unwrap());
        assert_fresh(&db, &q, "after insert");
        assert_eq!(db.index("V").unwrap().probe(&[Value::Int(2)]), &[1]);

        // No delta to apply, or one for a table the view does not read:
        // recompute path.
        assert!(!maintain_view_ctx("V", &q, None, &mut db, &cx).unwrap());
        let other = Delta::new("D", DeltaKind::Insert(&[]), &db).unwrap();
        assert!(!maintain_view_ctx("V", &q, Some(&other), &mut db, &cx).unwrap());
        assert_fresh(&db, &q, "after recompute");
        assert_eq!(db.get("V").unwrap().columns, ["a", "s"]);

        // No COUNT to detect an emptied group with: a delete recomputes.
        assert!(!change(&mut db, &q, "T", DeltaKind::Delete(&batch)).unwrap());
        assert_fresh(&db, &q, "after delete");

        // AVG has no fold plan at all.
        let q_avg = store_view(&mut db, "SELECT a, AVG(b) AS m FROM T GROUP BY a", false);
        assert!(!change(&mut db, &q_avg, "T", DeltaKind::Insert(&batch)).unwrap());
        assert_fresh(&db, &q_avg, "after AVG insert");
    }

    #[test]
    fn delete_support_detection() {
        let db = base_db(&[&[1, 2, 3]]);
        let folds_deletes = |sql| compile(sql, &db).unwrap().supports_delete();
        assert!(!folds_deletes(
            "SELECT a, MIN(b) AS mn, COUNT(b) AS n FROM T GROUP BY a"
        ));
        assert!(!folds_deletes("SELECT a, SUM(b) AS s FROM T GROUP BY a"));
        assert!(folds_deletes(
            "SELECT a, SUM(b) AS s, COUNT(b) AS n FROM T GROUP BY a"
        ));
        assert!(folds_deletes("SELECT a, b FROM T"));
    }

    #[test]
    fn indexed_maintenance_matches_unindexed() {
        // The serving write path: a persistent GroupIndex rides along with
        // the view through inserts and deletes, and stays consistent.
        let sql = "SELECT a, SUM(b) AS s, COUNT(*) AS n FROM T WHERE c <> 0 GROUP BY a";
        let mut rng = StdRng::seed_from_u64(41);
        let (mut plain, mut indexed) = (base_db(&[]), base_db(&[]));
        let q = store_view(&mut plain, sql, false);
        store_view(&mut indexed, sql, true);

        for step in 0..30 {
            let live = &plain.get("T").unwrap().rows;
            let batch = if step % 3 == 2 && !live.is_empty() {
                let i = rng.random_range(0..live.len());
                vec![live[i].clone()]
            } else {
                let n = rng.random_range(1..4);
                random_rows(&mut rng, n)
            };
            let kind = if step % 3 == 2 {
                DeltaKind::Delete(&batch)
            } else {
                DeltaKind::Insert(&batch)
            };
            assert!(change(&mut plain, &q, "T", kind).unwrap());
            assert!(change(&mut indexed, &q, "T", kind).unwrap());
            assert_fresh(&indexed, &q, &format!("at step {step}"));
            assert_eq!(
                plain.get("V").unwrap().rows,
                indexed.get("V").unwrap().rows,
                "paths diverged at step {step}"
            );
        }
    }

    #[test]
    fn mismatched_index_is_resynced() {
        let mut db = base_db(&[]);
        let q = store_view(&mut db, "SELECT a, COUNT(*) AS n FROM T GROUP BY a", false);
        // Index keyed on the COUNT column — unusable for group routing,
        // but must still be valid after maintenance.
        db.set_index("V", GroupIndex::build(db.get("V").unwrap(), vec![1]));
        let batch = ints(&[&[1, 5, 0]]);
        assert!(change(&mut db, &q, "T", DeltaKind::Insert(&batch)).unwrap());
        assert_fresh(&db, &q, "after insert");
    }

    #[test]
    fn filter_excludes_delta_rows() {
        let mut db = base_db(&[]);
        let q = store_view(
            &mut db,
            "SELECT a, COUNT(*) AS n FROM T WHERE b > 0 GROUP BY a",
            false,
        );
        let batch = ints(&[&[1, 5, 0], &[1, -5, 0]]);
        assert!(change(&mut db, &q, "T", DeltaKind::Insert(&batch)).unwrap());
        assert_eq!(db.get("V").unwrap().rows, ints(&[&[1, 1]]));
    }

    #[test]
    fn sum_rejects_a_string_in_a_fresh_group_like_recompute_does() {
        let mut db = base_db(&[&[1, 5, 0]]);
        let q = store_view(&mut db, "SELECT a, SUM(b) AS s FROM T GROUP BY a", false);
        for a in [1, 2] {
            let batch = vec![vec![Value::Int(a), Value::Str("x".into()), Value::Int(0)]];
            let e = change(&mut db, &q, "T", DeltaKind::Insert(&batch)).unwrap_err();
            assert_eq!(e, EngineError::TypeError("sum over non-numeric".into()));
        }
    }
}
