//! Incremental view maintenance for inserts.
//!
//! The paper's Section 1 motivates materialized summary tables over
//! high-volume transaction streams ("very large transaction recording
//! systems … answered more efficiently by materializing and maintaining
//! appropriately defined aggregate views"), citing the incremental
//! maintenance literature ([BLT86, GMS93]) as the orthogonal machinery
//! that keeps those views fresh. This module provides the insert-only
//! slice of that machinery for the view shapes the rewriter cares about:
//!
//! * **Incrementally maintainable**: a single-block view over *one* base
//!   table, no `HAVING`, no `DISTINCT`, whose select list is grouping
//!   columns plus plain `SUM`/`COUNT`/`MIN`/`MAX` aggregates (under
//!   inserts, `MIN`/`MAX` only ever tighten). `WHERE` conditions are
//!   applied to the delta rows.
//! * **Deletes** are additionally maintainable when the view has no
//!   `MIN`/`MAX` output (those can loosen under deletion) and exposes a
//!   `COUNT` column (to detect emptied groups).
//! * **Everything else** (joins, `AVG`, `HAVING`, views over views, ...)
//!   falls back to recomputation.

use crate::ctx::ExecContext;
use crate::database::Database;
use crate::error::{EngineError, EngineResult};
use crate::exec::execute_ctx;
use crate::index::GroupIndex;
use crate::relation::Relation;
use crate::value::{self, Value};
use aggview_sql::ast::{AggFunc, BoolExpr, CmpOp, ColumnRef, Expr, Literal, Query};
use std::collections::HashMap;

/// How a view can be maintained under inserts to `base_table`.
#[derive(Debug, Clone, PartialEq)]
pub enum MaintenancePlan {
    /// Apply delta rows directly to the materialized relation.
    Incremental(IncrementalPlan),
    /// Re-run the defining query.
    Recompute,
}

/// One select output of an incrementally maintainable view.
#[derive(Debug, Clone, PartialEq, Eq)]
enum OutputKind {
    /// Grouping column at this base-table position.
    Group(usize),
    /// `AGG(base column)`; `None` argument = `COUNT(*)`.
    Agg(AggFunc, Option<usize>),
}

/// A compiled incremental-maintenance plan.
#[derive(Debug, Clone, PartialEq)]
pub struct IncrementalPlan {
    base_table: String,
    /// Per view output column: where its value comes from.
    outputs: Vec<OutputKind>,
    /// View output positions of the grouping columns, in GROUP BY order.
    group_outputs: Vec<usize>,
    /// WHERE atoms as (base position | constant) comparisons.
    filter: Vec<(Operand, CmpOp, Operand)>,
}

#[derive(Debug, Clone, PartialEq)]
enum Operand {
    Col(usize),
    Const(Value),
}

/// Analyze a view definition: can inserts to its base table be applied
/// incrementally?
pub fn plan_for_view(view_query: &Query, db: &Database) -> MaintenancePlan {
    match try_plan(view_query, db) {
        Some(p) => MaintenancePlan::Incremental(p),
        None => MaintenancePlan::Recompute,
    }
}

fn try_plan(q: &Query, db: &Database) -> Option<IncrementalPlan> {
    if q.distinct || q.having.is_some() || q.from.len() != 1 {
        return None;
    }
    // A conjunctive view is not group-structured; only grouped views are
    // maintained here (a conjunctive single-table view could be, but the
    // rewriter's summary tables are all grouped).
    if q.group_by.is_empty() {
        return None;
    }
    let tref = &q.from[0];
    let base = db.get(&tref.table).ok()?;
    let binding = tref.binding_name();

    let resolve = |c: &ColumnRef| -> Option<usize> {
        if let Some(t) = &c.table {
            if t != binding {
                return None;
            }
        }
        base.column_index(&c.column)
    };

    // Grouping columns.
    let group_positions: Vec<usize> = q.group_by.iter().map(resolve).collect::<Option<Vec<_>>>()?;

    // Select outputs.
    let mut outputs = Vec::with_capacity(q.select.len());
    let mut group_outputs: Vec<Option<usize>> = vec![None; group_positions.len()];
    for (oi, item) in q.select.iter().enumerate() {
        match &item.expr {
            Expr::Column(c) => {
                let pos = resolve(c)?;
                let gi = group_positions.iter().position(|&g| g == pos)?;
                group_outputs[gi].get_or_insert(oi);
                outputs.push(OutputKind::Group(pos));
            }
            Expr::Agg(call) => {
                if call.func == AggFunc::Avg {
                    return None; // AVG is not self-maintainable
                }
                let arg = match &call.arg {
                    None => None,
                    Some(e) => match e.as_ref() {
                        Expr::Column(c) => Some(resolve(c)?),
                        _ => return None,
                    },
                };
                outputs.push(OutputKind::Agg(call.func, arg));
            }
            _ => return None,
        }
    }
    // Every grouping column must be exposed, or delta rows cannot be
    // routed to their group.
    let group_outputs: Vec<usize> = group_outputs.into_iter().collect::<Option<Vec<_>>>()?;

    // WHERE: conjunction of simple comparisons over base columns/constants.
    let mut filter = Vec::new();
    if let Some(w) = &q.where_clause {
        for atom in w.conjuncts() {
            let BoolExpr::Cmp { lhs, op, rhs } = atom else {
                return None;
            };
            let operand = |e: &Expr| -> Option<Operand> {
                match e {
                    Expr::Column(c) => Some(Operand::Col(resolve(c)?)),
                    Expr::Literal(l) => Some(Operand::Const(value::lit_value(l))),
                    Expr::Neg(inner) => match inner.as_ref() {
                        Expr::Literal(Literal::Int(v)) => Some(Operand::Const(Value::Int(-v))),
                        Expr::Literal(Literal::Double(v)) => {
                            Some(Operand::Const(Value::Double(-v)))
                        }
                        _ => None,
                    },
                    _ => None,
                }
            };
            filter.push((operand(lhs)?, *op, operand(rhs)?));
        }
    }

    Some(IncrementalPlan {
        base_table: tref.table.clone(),
        outputs,
        group_outputs,
        filter,
    })
}

/// A batch of base-table changes.
#[derive(Debug, Clone, Copy)]
pub enum DeltaKind<'a> {
    /// Rows appended to the base table.
    Insert(&'a [Vec<Value>]),
    /// Rows removed from the base table.
    Delete(&'a [Vec<Value>]),
}

impl IncrementalPlan {
    /// The base table this plan maintains against.
    pub fn base_table(&self) -> &str {
        &self.base_table
    }

    /// Can deletes be applied incrementally? `MIN`/`MAX` can loosen under
    /// deletion, and an emptied group is only detectable via a `COUNT`
    /// output.
    pub fn supports_delete(&self) -> bool {
        let mut has_count = false;
        for out in &self.outputs {
            match out {
                OutputKind::Agg(AggFunc::Min, _) | OutputKind::Agg(AggFunc::Max, _) => {
                    return false
                }
                OutputKind::Agg(AggFunc::Count, _) => has_count = true,
                _ => {}
            }
        }
        has_count
    }

    /// The [`GroupIndex`] key columns an index must have to serve this
    /// plan's group lookups: the view positions of the grouping columns.
    pub fn index_key_cols(&self) -> &[usize] {
        &self.group_outputs
    }

    /// Does the delta row pass the view's WHERE filter?
    fn passes_filter(&self, row: &[Value]) -> EngineResult<bool> {
        for (l, op, r) in &self.filter {
            let a = operand_value(l, row);
            let b = operand_value(r, row);
            if !compare(a, *op, b)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// The view-relation group key of a base-table delta row.
    fn delta_key(&self, row: &[Value]) -> Vec<Value> {
        self.group_outputs
            .iter()
            .map(|&o| match &self.outputs[o] {
                OutputKind::Group(pos) => row[*pos].clone(),
                OutputKind::Agg(..) => unreachable!("group output"),
            })
            .collect()
    }

    /// Apply deleted base rows to the materialized view relation. When a
    /// [`GroupIndex`] on the grouping columns is supplied, group lookups
    /// probe it instead of building a scratch map; the index is rebuilt at
    /// the end (dropping emptied groups shifts row positions).
    ///
    /// Precondition: [`IncrementalPlan::supports_delete`]; the deleted rows
    /// must actually have been in the base table (the view is otherwise
    /// declared inconsistent with an error).
    pub fn apply_delete(
        &self,
        view: &mut Relation,
        deleted_rows: &[Vec<Value>],
        index: Option<&mut GroupIndex>,
    ) -> EngineResult<()> {
        debug_assert!(self.supports_delete());
        let usable = index
            .as_ref()
            .is_some_and(|idx| idx.key_cols() == self.index_key_cols());
        let scratch: Option<HashMap<Vec<Value>, usize>> =
            (!usable).then(|| self.scratch_index(view));

        'delta: for row in deleted_rows {
            if !self.passes_filter(row)? {
                continue 'delta;
            }
            let key = self.delta_key(row);
            let ri = match &scratch {
                Some(map) => map.get(&key).copied(),
                None => index
                    .as_ref()
                    .and_then(|idx| idx.probe(&key).last().copied()),
            };
            let Some(ri) = ri else {
                return Err(EngineError::TypeError(
                    "delete delta references a group absent from the view".into(),
                ));
            };
            // Only aggregate cells change: group keys stay put, so an
            // attached index stays valid throughout the loop.
            for (oi, out) in self.outputs.iter().enumerate() {
                if let OutputKind::Agg(func, arg) = out {
                    let cell = &view.rows[ri][oi];
                    view.rows[ri][oi] = unmerge(*func, cell, *arg, row)?;
                }
            }
        }

        // Drop emptied groups (COUNT hit zero).
        let count_pos = self
            .outputs
            .iter()
            .position(|o| matches!(o, OutputKind::Agg(AggFunc::Count, _)))
            .expect("supports_delete checked");
        view.rows.retain(|r| r[count_pos] != Value::Int(0));
        if let Some(idx) = index {
            idx.rebuild(view);
        }
        Ok(())
    }

    /// Apply inserted base rows to the materialized view relation. When a
    /// [`GroupIndex`] on the grouping columns is supplied, group lookups
    /// probe it and the index is kept in sync as fresh groups are appended
    /// — the per-batch scratch map disappears from the serving write path.
    pub fn apply_insert(
        &self,
        view: &mut Relation,
        delta_rows: &[Vec<Value>],
        mut index: Option<&mut GroupIndex>,
    ) -> EngineResult<()> {
        let usable = index
            .as_ref()
            .is_some_and(|idx| idx.key_cols() == self.index_key_cols());
        let mut scratch: Option<HashMap<Vec<Value>, usize>> =
            (!usable).then(|| self.scratch_index(view));

        'delta: for row in delta_rows {
            if !self.passes_filter(row)? {
                continue 'delta;
            }
            let key = self.delta_key(row);
            let ri = match &scratch {
                Some(map) => map.get(&key).copied(),
                None => index
                    .as_ref()
                    .and_then(|idx| idx.probe(&key).last().copied()),
            };
            match ri {
                Some(ri) => {
                    for (oi, out) in self.outputs.iter().enumerate() {
                        if let OutputKind::Agg(func, arg) = out {
                            let cell = &view.rows[ri][oi];
                            view.rows[ri][oi] = merge(*func, cell, *arg, row)?;
                        }
                    }
                }
                None => {
                    let mut fresh = Vec::with_capacity(self.outputs.len());
                    for out in &self.outputs {
                        fresh.push(match out {
                            OutputKind::Group(pos) => row[*pos].clone(),
                            OutputKind::Agg(func, arg) => init(*func, *arg, row)?,
                        });
                    }
                    match (&mut scratch, &mut index) {
                        (Some(map), _) => {
                            map.insert(key, view.rows.len());
                        }
                        (None, Some(idx)) => idx.note_push(&fresh, view.rows.len()),
                        (None, None) => unreachable!("scratch built when no usable index"),
                    }
                    view.push(fresh);
                }
            }
        }
        // A supplied-but-mismatched index was bypassed; re-sync it.
        if let (Some(idx), false) = (index, usable) {
            idx.rebuild(view);
        }
        Ok(())
    }

    /// One-shot group → row map for the unindexed maintenance path.
    fn scratch_index(&self, view: &Relation) -> HashMap<Vec<Value>, usize> {
        let mut map = HashMap::with_capacity(view.len());
        for (ri, row) in view.rows.iter().enumerate() {
            let key: Vec<Value> = self.group_outputs.iter().map(|&o| row[o].clone()).collect();
            map.insert(key, ri);
        }
        map
    }
}

fn operand_value<'a>(op: &'a Operand, row: &'a [Value]) -> &'a Value {
    match op {
        Operand::Col(i) => &row[*i],
        Operand::Const(v) => v,
    }
}

fn compare(a: &Value, op: CmpOp, b: &Value) -> EngineResult<bool> {
    value::compare(a, op, b).ok_or_else(|| {
        EngineError::TypeError(format!(
            "comparison of {} and {}",
            a.type_name(),
            b.type_name()
        ))
    })
}

fn init(func: AggFunc, arg: Option<usize>, row: &[Value]) -> EngineResult<Value> {
    Ok(match (func, arg) {
        (AggFunc::Count, _) => Value::Int(1),
        (_, Some(pos)) => row[pos].clone(),
        (_, None) => unreachable!("only COUNT takes *"),
    })
}

fn merge(func: AggFunc, cell: &Value, arg: Option<usize>, row: &[Value]) -> EngineResult<Value> {
    let type_err = |what: &str| EngineError::TypeError(what.to_string());
    Ok(match func {
        AggFunc::Count => value::add(cell, &Value::Int(1)).ok_or_else(|| type_err("count"))?,
        AggFunc::Sum => {
            let v = &row[arg.expect("SUM argument")];
            value::add(cell, v).ok_or_else(|| type_err("sum over non-numeric"))?
        }
        AggFunc::Min => {
            let v = &row[arg.expect("MIN argument")];
            match v.cmp_sql(cell) {
                Some(std::cmp::Ordering::Less) => v.clone(),
                Some(_) => cell.clone(),
                None => return Err(type_err("MIN over mixed types")),
            }
        }
        AggFunc::Max => {
            let v = &row[arg.expect("MAX argument")];
            match v.cmp_sql(cell) {
                Some(std::cmp::Ordering::Greater) => v.clone(),
                Some(_) => cell.clone(),
                None => return Err(type_err("MAX over mixed types")),
            }
        }
        AggFunc::Avg => unreachable!("AVG views recompute"),
    })
}

/// Inverse of [`merge`] for the delete path (SUM/COUNT only).
fn unmerge(func: AggFunc, cell: &Value, arg: Option<usize>, row: &[Value]) -> EngineResult<Value> {
    let type_err = |what: &str| EngineError::TypeError(what.to_string());
    Ok(match func {
        AggFunc::Count => value::sub(cell, &Value::Int(1)).ok_or_else(|| type_err("count"))?,
        AggFunc::Sum => {
            let v = &row[arg.expect("SUM argument")];
            value::sub(cell, v).ok_or_else(|| type_err("sum over non-numeric"))?
        }
        AggFunc::Min | AggFunc::Max | AggFunc::Avg => {
            unreachable!("supports_delete excludes these")
        }
    })
}

/// Bring the stored view `name` up to date with `db`, which must already
/// reflect the change. With `delta` — the changed base table and its rows —
/// the view is maintained in place when its plan allows; without one (the
/// change reached the view through another view, or the caller wants a
/// refresh) or when the plan declines, it is recomputed under `cx`. An
/// attached [`GroupIndex`] is probed and kept consistent on every path.
/// Returns whether the incremental path was taken.
pub fn maintain_view_ctx(
    name: &str,
    view_query: &Query,
    delta: Option<(&str, DeltaKind<'_>)>,
    db: &mut Database,
    cx: &ExecContext,
) -> EngineResult<bool> {
    let incremental = delta.and_then(|(table, kind)| match plan_for_view(view_query, db) {
        MaintenancePlan::Incremental(plan) if plan.base_table() == table => Some((plan, kind)),
        _ => None,
    });
    match incremental {
        Some((plan, DeltaKind::Insert(rows))) => {
            db.update(name, |rel, idx| plan.apply_insert(rel, rows, idx))??;
            return Ok(true);
        }
        Some((plan, DeltaKind::Delete(rows))) if plan.supports_delete() => {
            db.update(name, |rel, idx| plan.apply_delete(rel, rows, idx))??;
            return Ok(true);
        }
        _ => {}
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

    fn base_db(rows: &[&[i64]]) -> Database {
        let mut db = Database::new();
        db.insert("T", rel_of_ints(["a", "b", "c"], rows));
        db
    }

    fn materialize(q: &Query, db: &Database) -> Relation {
        let mut rel = execute(q, db).unwrap();
        rel.columns = q.output_names();
        rel
    }

    #[test]
    fn plans_summary_views_incrementally() {
        let db = base_db(&[&[1, 2, 3]]);
        let q = parse_query(
            "SELECT a, SUM(b) AS s, COUNT(b) AS n, MIN(c) AS mn, MAX(c) AS mx \
             FROM T WHERE c > 0 GROUP BY a",
        )
        .unwrap();
        assert!(matches!(
            plan_for_view(&q, &db),
            MaintenancePlan::Incremental(_)
        ));
    }

    #[test]
    fn rejects_non_maintainable_shapes() {
        let mut db = base_db(&[&[1, 2, 3]]);
        db.insert("U", rel_of_ints(["x"], &[&[1]]));
        for sql in [
            "SELECT a, AVG(b) FROM T GROUP BY a",                   // AVG
            "SELECT a, SUM(b) FROM T GROUP BY a HAVING SUM(b) > 1", // HAVING
            "SELECT a, b FROM T",                                   // conjunctive
            "SELECT DISTINCT a, SUM(b) FROM T GROUP BY a",          // DISTINCT
            "SELECT a, SUM(x) FROM T, U GROUP BY a",                // join
            "SELECT SUM(b) FROM T GROUP BY a",                      // group col hidden
        ] {
            let q = parse_query(sql).unwrap();
            assert_eq!(
                plan_for_view(&q, &db),
                MaintenancePlan::Recompute,
                "`{sql}` should recompute"
            );
        }
    }

    #[test]
    fn incremental_matches_recompute() {
        let q = parse_query(
            "SELECT a, SUM(b) AS s, COUNT(*) AS n, MIN(c) AS mn, MAX(c) AS mx \
             FROM T WHERE c <> 0 GROUP BY a",
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(12);
        let mut rows: Vec<Vec<i64>> = Vec::new();
        let mut db = base_db(&[]);
        let mut view = materialize(&q, &db);
        let MaintenancePlan::Incremental(plan) = plan_for_view(&q, &db) else {
            panic!("expected incremental plan")
        };

        for _ in 0..25 {
            // Insert a random batch.
            let batch: Vec<Vec<Value>> = (0..rng.random_range(1..5))
                .map(|_| {
                    let r = vec![
                        rng.random_range(0..4),
                        rng.random_range(-3..10),
                        rng.random_range(-1..3),
                    ];
                    rows.push(r.clone());
                    r.into_iter().map(Value::Int).collect()
                })
                .collect();
            let all: Vec<&[i64]> = rows.iter().map(|r| r.as_slice()).collect();
            db = base_db(&all);
            plan.apply_insert(&mut view, &batch, None).unwrap();
            let recomputed = materialize(&q, &db);
            assert!(
                multiset_eq(&view, &recomputed),
                "incremental view diverged after insert:\n got: {view}\n want: {recomputed}"
            );
        }
    }

    #[test]
    fn maintain_view_routes_correctly() {
        let mut db = base_db(&[&[1, 5, 2]]);
        let q = parse_query("SELECT a, SUM(b) AS s FROM T GROUP BY a").unwrap();
        let q_avg = parse_query("SELECT a, AVG(b) AS m FROM T GROUP BY a").unwrap();
        db.insert("V", materialize(&q, &db));
        db.set_index("V", GroupIndex::build(db.get("V").unwrap(), vec![0]));
        db.insert("Avg", materialize(&q_avg, &db));
        let cx = ExecContext::new();

        let delta = vec![
            vec![Value::Int(1), Value::Int(7), Value::Int(0)],
            vec![Value::Int(2), Value::Int(1), Value::Int(0)],
        ];
        db.update("T", |t, _| t.rows.extend(delta.iter().cloned()))
            .unwrap();
        let insert = Some(("T", DeltaKind::Insert(&delta)));

        // Insert into T: incremental, index maintained alongside.
        assert!(maintain_view_ctx("V", &q, insert, &mut db, &cx).unwrap());
        assert!(multiset_eq(db.get("V").unwrap(), &materialize(&q, &db)));
        assert_eq!(db.index("V").unwrap().probe(&[Value::Int(2)]), &[1]);

        // No delta to apply (or one for another table): recompute path.
        assert!(!maintain_view_ctx("V", &q, None, &mut db, &cx).unwrap());
        let other = Some(("Other", DeltaKind::Insert(&delta)));
        assert!(!maintain_view_ctx("V", &q, other, &mut db, &cx).unwrap());
        assert!(multiset_eq(db.get("V").unwrap(), &materialize(&q, &db)));
        assert_eq!(db.get("V").unwrap().columns, ["a", "s"]);

        // AVG view over T: recompute path.
        assert!(!maintain_view_ctx("Avg", &q_avg, insert, &mut db, &cx).unwrap());
        assert!(multiset_eq(
            db.get("Avg").unwrap(),
            &materialize(&q_avg, &db)
        ));
    }

    #[test]
    fn delete_support_detection() {
        let db = base_db(&[&[1, 2, 3]]);
        let with_minmax =
            parse_query("SELECT a, MIN(b) AS mn, COUNT(b) AS n FROM T GROUP BY a").unwrap();
        let MaintenancePlan::Incremental(p) = plan_for_view(&with_minmax, &db) else {
            panic!()
        };
        assert!(!p.supports_delete());
        let no_count = parse_query("SELECT a, SUM(b) AS s FROM T GROUP BY a").unwrap();
        let MaintenancePlan::Incremental(p) = plan_for_view(&no_count, &db) else {
            panic!()
        };
        assert!(!p.supports_delete());
        let good = parse_query("SELECT a, SUM(b) AS s, COUNT(b) AS n FROM T GROUP BY a").unwrap();
        let MaintenancePlan::Incremental(p) = plan_for_view(&good, &db) else {
            panic!()
        };
        assert!(p.supports_delete());
    }

    #[test]
    fn incremental_delete_matches_recompute() {
        let q = parse_query("SELECT a, SUM(b) AS s, COUNT(*) AS n FROM T WHERE c <> 0 GROUP BY a")
            .unwrap();
        let mut rng = StdRng::seed_from_u64(77);
        // Base data.
        let mut rows: Vec<Vec<i64>> = (0..40)
            .map(|_| {
                vec![
                    rng.random_range(0..4),
                    rng.random_range(-3..10),
                    rng.random_range(-1..3),
                ]
            })
            .collect();
        let all: Vec<&[i64]> = rows.iter().map(|r| r.as_slice()).collect();
        let mut db = base_db(&all);
        let mut view = materialize(&q, &db);
        let MaintenancePlan::Incremental(plan) = plan_for_view(&q, &db) else {
            panic!("expected incremental plan")
        };
        assert!(plan.supports_delete());

        for _ in 0..10 {
            // Delete a random batch of existing rows.
            let k = rng.random_range(1..4).min(rows.len());
            let mut batch: Vec<Vec<Value>> = Vec::new();
            for _ in 0..k {
                let i = rng.random_range(0..rows.len());
                let r = rows.remove(i);
                batch.push(r.into_iter().map(Value::Int).collect());
            }
            let all: Vec<&[i64]> = rows.iter().map(|r| r.as_slice()).collect();
            db = base_db(&all);
            plan.apply_delete(&mut view, &batch, None).unwrap();
            let recomputed = materialize(&q, &db);
            assert!(
                multiset_eq(&view, &recomputed),
                "incremental delete diverged:
 got: {view}
 want: {recomputed}"
            );
            if rows.is_empty() {
                break;
            }
        }
    }

    #[test]
    fn indexed_maintenance_matches_unindexed() {
        // The serving write path: a persistent GroupIndex rides along with
        // the view through inserts and deletes, and stays consistent.
        let q = parse_query("SELECT a, SUM(b) AS s, COUNT(*) AS n FROM T WHERE c <> 0 GROUP BY a")
            .unwrap();
        let mut rng = StdRng::seed_from_u64(41);
        let mut rows: Vec<Vec<i64>> = Vec::new();
        let db = base_db(&[]);
        let mut plain = materialize(&q, &db);
        let mut indexed = plain.clone();
        let MaintenancePlan::Incremental(plan) = plan_for_view(&q, &db) else {
            panic!("expected incremental plan")
        };
        let mut idx = GroupIndex::build(&indexed, plan.index_key_cols().to_vec());

        for step in 0..30 {
            let delete = step % 3 == 2 && !rows.is_empty();
            if delete {
                let k = rng.random_range(1..3).min(rows.len());
                let mut batch: Vec<Vec<Value>> = Vec::new();
                for _ in 0..k {
                    let i = rng.random_range(0..rows.len());
                    batch.push(rows.remove(i).into_iter().map(Value::Int).collect());
                }
                plan.apply_delete(&mut plain, &batch, None).unwrap();
                plan.apply_delete(&mut indexed, &batch, Some(&mut idx))
                    .unwrap();
            } else {
                let batch: Vec<Vec<Value>> = (0..rng.random_range(1..4))
                    .map(|_| {
                        let r = vec![
                            rng.random_range(0..4),
                            rng.random_range(-3..10),
                            rng.random_range(-1..3),
                        ];
                        rows.push(r.clone());
                        r.into_iter().map(Value::Int).collect()
                    })
                    .collect();
                plan.apply_insert(&mut plain, &batch, None).unwrap();
                plan.apply_insert(&mut indexed, &batch, Some(&mut idx))
                    .unwrap();
            }
            assert_eq!(plain.rows, indexed.rows, "paths diverged at step {step}");
            assert!(
                idx.is_consistent_with(&indexed),
                "index stale at step {step}"
            );
        }
    }

    #[test]
    fn mismatched_index_is_resynced() {
        let q = parse_query("SELECT a, COUNT(*) AS n FROM T GROUP BY a").unwrap();
        let db = base_db(&[]);
        let MaintenancePlan::Incremental(plan) = plan_for_view(&q, &db) else {
            panic!()
        };
        let mut view = materialize(&q, &db);
        // Index keyed on the COUNT column — unusable for group routing,
        // but must still be valid after maintenance.
        let mut idx = GroupIndex::build(&view, vec![1]);
        plan.apply_insert(
            &mut view,
            &[vec![Value::Int(1), Value::Int(5), Value::Int(0)]],
            Some(&mut idx),
        )
        .unwrap();
        assert!(idx.is_consistent_with(&view));
    }

    #[test]
    fn filter_excludes_delta_rows() {
        let q = parse_query("SELECT a, COUNT(*) AS n FROM T WHERE b > 0 GROUP BY a").unwrap();
        let db = base_db(&[]);
        let MaintenancePlan::Incremental(plan) = plan_for_view(&q, &db) else {
            panic!("expected incremental plan")
        };
        let mut view = materialize(&q, &db);
        plan.apply_insert(
            &mut view,
            &[
                vec![Value::Int(1), Value::Int(5), Value::Int(0)],
                vec![Value::Int(1), Value::Int(-5), Value::Int(0)],
            ],
            None,
        )
        .unwrap();
        assert_eq!(view.rows, vec![vec![Value::Int(1), Value::Int(1)]]);
    }
}
