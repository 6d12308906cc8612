//! A deliberately naive reference executor used to validate the optimized
//! engine: full cross product of the `FROM` relations, then a row-at-a-time
//! filter — no join planning, no hash tables, no predicate classification.
//! Slow and obviously correct; the property tests check that
//! [`crate::exec::execute`] agrees with it on random queries and databases.

use crate::database::Database;
use crate::error::{EngineError, EngineResult};
use crate::relation::Relation;
use crate::table::Table;
use crate::value::{self, Value};
use aggview_sql::ast::{
    AggCall, AggFunc, ArithOp, BoolExpr, CmpOp, ColumnRef, Expr, Literal, Query,
};
use std::collections::HashMap;

/// Execute `query` against `db` the slow, obvious way.
pub fn execute_reference(query: &Query, db: &Database) -> EngineResult<Relation> {
    // Bind occurrences.
    let mut bindings: Vec<(String, &Table)> = Vec::new();
    for t in &query.from {
        let name = t.binding_name().to_string();
        if bindings.iter().any(|(b, _)| *b == name) {
            return Err(EngineError::DuplicateBinding(name));
        }
        bindings.push((name, db.table(&t.table)?));
    }

    // Full cross product (row index per occurrence), filtered by WHERE.
    let mut rows: Vec<Vec<&Value>> = Vec::new();
    let mut idx = vec![0usize; bindings.len()];
    'outer: loop {
        if bindings.iter().zip(&idx).all(|((_, r), &i)| i < r.len()) {
            let row: Vec<&Value> = bindings
                .iter()
                .zip(&idx)
                .flat_map(|((_, r), &i)| r.row(i).iter())
                .collect();
            let keep = match &query.where_clause {
                None => true,
                Some(w) => eval_bool(w, &bindings, &row, None)?,
            };
            if keep {
                rows.push(row);
            }
        }
        // Odometer increment; empty relations end immediately.
        for k in (0..bindings.len()).rev() {
            idx[k] += 1;
            if idx[k] < bindings[k].1.len() {
                continue 'outer;
            }
            idx[k] = 0;
            if k == 0 {
                break 'outer;
            }
        }
        if bindings.is_empty() || bindings.iter().any(|(_, r)| r.is_empty()) {
            break;
        }
    }

    let names = query.output_names();
    let grouped = !query.group_by.is_empty()
        || query.having.is_some()
        || query.select.iter().any(|s| s.expr.contains_aggregate());

    let mut out = Relation::empty(names);
    if grouped {
        // Group rows by the GROUP BY values.
        let mut groups: Vec<(Vec<Value>, Vec<usize>)> = Vec::new();
        let mut index: HashMap<Vec<Value>, usize> = HashMap::new();
        for (ri, row) in rows.iter().enumerate() {
            let key: Vec<Value> = query
                .group_by
                .iter()
                .map(|c| resolve(c, &bindings, row).cloned())
                .collect::<EngineResult<_>>()?;
            match index.get(&key) {
                Some(&g) => groups[g].1.push(ri),
                None => {
                    index.insert(key.clone(), groups.len());
                    groups.push((key, vec![ri]));
                }
            }
        }
        for (_, members) in &groups {
            let member_rows: Vec<&Vec<&Value>> = members.iter().map(|&i| &rows[i]).collect();
            if let Some(h) = &query.having {
                if !eval_bool(h, &bindings, member_rows[0], Some(&member_rows))? {
                    continue;
                }
            }
            let mut cells = Vec::with_capacity(query.select.len());
            for item in &query.select {
                cells.push(eval_expr(
                    &item.expr,
                    &bindings,
                    member_rows[0],
                    Some(&member_rows),
                )?);
            }
            out.push(cells);
        }
    } else {
        for row in &rows {
            let mut cells = Vec::with_capacity(query.select.len());
            for item in &query.select {
                cells.push(eval_expr(&item.expr, &bindings, row, None)?);
            }
            out.push(cells);
        }
    }
    if query.distinct {
        let mut seen = std::collections::HashSet::new();
        out.rows.retain(|r| seen.insert(r.clone()));
    }
    Ok(out)
}

fn resolve<'a>(
    c: &ColumnRef,
    bindings: &[(String, &Table)],
    row: &'a [&'a Value],
) -> EngineResult<&'a Value> {
    let mut offset = 0;
    let mut found: Option<usize> = None;
    for (binding, rel) in bindings {
        match &c.table {
            Some(t) if t == binding => {
                let pos = rel
                    .column_index(&c.column)
                    .ok_or_else(|| EngineError::UnknownColumn(c.to_string()))?;
                return Ok(row[offset + pos]);
            }
            Some(_) => {}
            None => {
                if let Some(pos) = rel.column_index(&c.column) {
                    if found.is_some() {
                        return Err(EngineError::AmbiguousColumn(c.column.clone()));
                    }
                    found = Some(offset + pos);
                }
            }
        }
        offset += rel.arity();
    }
    found
        .map(|i| row[i])
        .ok_or_else(|| EngineError::UnknownColumn(c.to_string()))
}

fn eval_expr(
    e: &Expr,
    bindings: &[(String, &Table)],
    row: &[&Value],
    group: Option<&[&Vec<&Value>]>,
) -> EngineResult<Value> {
    match e {
        Expr::Column(c) => resolve(c, bindings, row).cloned(),
        Expr::Literal(l) => Ok(lit(l)),
        Expr::Neg(inner) => {
            let v = eval_expr(inner, bindings, row, group)?;
            value::neg(&v).ok_or_else(|| EngineError::TypeError("negation".into()))
        }
        Expr::Binary { lhs, op, rhs } => {
            let a = eval_expr(lhs, bindings, row, group)?;
            let b = eval_expr(rhs, bindings, row, group)?;
            let r = match op {
                ArithOp::Add => value::add(&a, &b),
                ArithOp::Sub => value::sub(&a, &b),
                ArithOp::Mul => value::mul(&a, &b),
                ArithOp::Div => {
                    if matches!(b.as_f64(), Some(d) if d == 0.0) {
                        return Err(EngineError::DivisionByZero);
                    }
                    value::div(&a, &b)
                }
            };
            r.ok_or_else(|| EngineError::TypeError("arithmetic".into()))
        }
        Expr::Agg(call) => {
            let members = group.ok_or(EngineError::MisplacedAggregate)?;
            eval_agg(call, bindings, members)
        }
    }
}

fn eval_agg(
    call: &AggCall,
    bindings: &[(String, &Table)],
    members: &[&Vec<&Value>],
) -> EngineResult<Value> {
    let values: Vec<Value> = match &call.arg {
        None => vec![Value::Int(0); members.len()],
        Some(arg) => members
            .iter()
            .map(|row| eval_expr(arg, bindings, row, None))
            .collect::<EngineResult<_>>()?,
    };
    let mut acc = crate::agg::Accumulator::new(call.func);
    for v in &values {
        acc.update(v)?;
    }
    // Groups are non-empty by construction.
    debug_assert!(!values.is_empty() || call.func == AggFunc::Count);
    Ok(acc.finish())
}

fn eval_bool(
    b: &BoolExpr,
    bindings: &[(String, &Table)],
    row: &[&Value],
    group: Option<&[&Vec<&Value>]>,
) -> EngineResult<bool> {
    match b {
        BoolExpr::And(x, y) => {
            Ok(eval_bool(x, bindings, row, group)? && eval_bool(y, bindings, row, group)?)
        }
        BoolExpr::Cmp { lhs, op, rhs } => {
            let a = eval_expr(lhs, bindings, row, group)?;
            let c = eval_expr(rhs, bindings, row, group)?;
            let ord = a.cmp_sql(&c).ok_or_else(|| {
                EngineError::TypeError(format!(
                    "comparison of {} and {}",
                    a.type_name(),
                    c.type_name()
                ))
            })?;
            use std::cmp::Ordering;
            Ok(match op {
                CmpOp::Eq => ord == Ordering::Equal,
                CmpOp::Ne => ord != Ordering::Equal,
                CmpOp::Lt => ord == Ordering::Less,
                CmpOp::Le => ord != Ordering::Greater,
                CmpOp::Gt => ord == Ordering::Greater,
                CmpOp::Ge => ord != Ordering::Less,
            })
        }
    }
}

fn lit(l: &Literal) -> Value {
    match l {
        Literal::Int(v) => Value::Int(*v),
        Literal::Double(v) => Value::Double(*v),
        Literal::Str(s) => Value::Str(s.clone()),
        Literal::Bool(b) => Value::Bool(*b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute;
    use crate::relation::{multiset_eq, rel_of_ints};
    use aggview_sql::parse_query;

    fn db() -> Database {
        let mut db = Database::new();
        db.insert(
            "R1",
            rel_of_ints(["A", "B"], &[&[1, 10], &[1, 20], &[2, 30], &[2, 30]]),
        );
        db.insert(
            "R2",
            rel_of_ints(["C", "D"], &[&[1, 100], &[2, 200], &[3, 300]]),
        );
        db
    }

    #[test]
    fn agrees_with_engine_on_fixed_queries() {
        let db = db();
        for sql in [
            "SELECT A FROM R1",
            "SELECT A, D FROM R1, R2 WHERE A = C",
            "SELECT A, C FROM R1, R2 WHERE A < C",
            "SELECT A, SUM(B), COUNT(B), MIN(B), MAX(B), AVG(B) FROM R1 GROUP BY A",
            "SELECT A, SUM(B) FROM R1 GROUP BY A HAVING SUM(B) > 40",
            "SELECT DISTINCT A FROM R1",
            "SELECT SUM(B) FROM R1",
            "SELECT A FROM R1 WHERE 1 = 2",
        ] {
            let q = parse_query(sql).unwrap();
            let fast = execute(&q, &db).unwrap();
            let slow = execute_reference(&q, &db).unwrap();
            assert!(multiset_eq(&fast, &slow), "disagreement on `{sql}`");
        }
    }

    #[test]
    fn empty_relation_cross_product() {
        let mut db = db();
        db.insert("E", rel_of_ints(["X"], &[]));
        let q = parse_query("SELECT A, X FROM R1, E").unwrap();
        assert!(execute_reference(&q, &db).unwrap().is_empty());
        assert!(execute(&q, &db).unwrap().is_empty());
    }
}
