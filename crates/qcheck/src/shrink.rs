//! Greedy shrinking of a failing case.
//!
//! Starting from a failure, repeatedly try single structural edits — drop
//! a view, a `WHERE` conjunct (query or view side), the `HAVING` clause,
//! an aggregate output, a grouping column, the `DISTINCT` flag, or a data
//! row — and keep any edit after which the checker still fails with the
//! *same kind*. The checker is the one that found the failure (the
//! multi-session oracle shrinks under its own interleaved replay, so the
//! minimized case still fails *under interleaving*). Terminates at a
//! local minimum: no single edit preserves the failure. Deterministic
//! (edits are tried in a fixed order) and bounded (every accepted edit
//! strictly shrinks the case).

use crate::case::Case;
use crate::oracle::Discrepancy;
use aggview_sql::ast::{BoolExpr, Expr, Query, SelectItem};

/// Shrink `case` under `check`, preserving failure `kind`. Returns the
/// minimized case and the discrepancy it still produces.
pub fn shrink(
    case: &Case,
    kind: &str,
    check: impl Fn(&Case) -> Result<(), Discrepancy>,
) -> (Case, Discrepancy) {
    let mut current = case.clone();
    let mut last = check(&current).expect_err("shrink starts from a failing case");
    assert_eq!(last.kind, kind, "shrink starts from the reported failure");
    loop {
        let mut improved = false;
        for candidate in edits(&current) {
            if let Err(d) = check(&candidate) {
                if d.kind == kind {
                    current = candidate;
                    last = d;
                    improved = true;
                    break;
                }
            }
        }
        if !improved {
            return (current, last);
        }
    }
}

/// Every single-step simplification of `case`, most aggressive first
/// (whole views, then query structure, then individual rows).
fn edits(case: &Case) -> Vec<Case> {
    let mut out = Vec::new();

    for i in 0..case.views.len() {
        let mut c = case.clone();
        c.views.remove(i);
        out.push(c);
    }

    if case.query.having.is_some() {
        let mut c = case.clone();
        c.query.having = None;
        out.push(c);
    }
    if case.query.distinct {
        let mut c = case.clone();
        c.query.distinct = false;
        out.push(c);
    }
    for q in drop_conjuncts(&case.query) {
        let mut c = case.clone();
        c.query = q;
        out.push(c);
    }
    for (vi, v) in case.views.iter().enumerate() {
        for q in drop_conjuncts(&v.query) {
            let mut c = case.clone();
            c.views[vi].query = q;
            out.push(c);
        }
        if v.query.having.is_some() {
            let mut c = case.clone();
            c.views[vi].query.having = None;
            out.push(c);
        }
    }

    // Drop one aggregate output (keep at least one select item).
    for (i, item) in case.query.select.iter().enumerate() {
        if case.query.select.len() > 1 && matches!(item.expr, Expr::Agg(_)) {
            let mut c = case.clone();
            c.query.select.remove(i);
            out.push(c);
        }
    }
    // Drop one grouping column together with its select occurrence.
    for (gi, g) in case.query.group_by.iter().enumerate() {
        let select: Vec<SelectItem> = case
            .query
            .select
            .iter()
            .filter(|item| !matches!(&item.expr, Expr::Column(c) if c == g))
            .cloned()
            .collect();
        if select.is_empty() {
            continue;
        }
        let mut c = case.clone();
        c.query.group_by.remove(gi);
        c.query.select = select;
        out.push(c);
    }

    for (ti, t) in case.tables.iter().enumerate() {
        for ri in 0..t.rows.len() {
            let mut c = case.clone();
            c.tables[ti].rows.remove(ri);
            out.push(c);
        }
    }

    out
}

/// The query with one `WHERE` conjunct removed, for each conjunct.
fn drop_conjuncts(query: &Query) -> Vec<Query> {
    let Some(w) = &query.where_clause else {
        return Vec::new();
    };
    let atoms = w.conjuncts();
    (0..atoms.len())
        .map(|skip| {
            let rest: Vec<BoolExpr> = atoms
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != skip)
                .map(|(_, a)| (*a).clone())
                .collect();
            let mut q = query.clone();
            q.where_clause = BoolExpr::conjoin(rest);
            q
        })
        .collect()
}
