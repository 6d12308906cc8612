//! Gluing the rewriter to the execution engine: materializing views,
//! executing rewritings (auxiliary views first, reused through a
//! `memo::AuxMemo` on the serving path), and validating multiset-equivalence
//! — the paper's correctness criterion.

use crate::memo::AuxMemo;
use aggview_core::expand::NAT_TABLE;
use aggview_core::{Rewriter, Rewriting, ViewDef};
use aggview_engine::datagen::nat_table;
use aggview_engine::{
    execute, execute_ctx, multiset_eq, set_eq, Database, EngineResult, ExecContext, Relation, Value,
};
use aggview_sql::Query;

/// Materialize each view into `db` under its name, in definition order
/// (later views may reference earlier ones).
pub fn materialize_views(db: &mut Database, views: &[ViewDef]) -> EngineResult<()> {
    materialize_views_ctx(db, views, &ExecContext::new())
}

fn materialize_views_ctx(
    db: &mut Database,
    views: &[ViewDef],
    cx: &ExecContext,
) -> EngineResult<()> {
    for v in views {
        let rel = materialize_view(db, v, cx)?;
        db.insert(v.name.clone(), rel);
    }
    Ok(())
}

/// Evaluate one view definition against `db` under `cx` and name its
/// output columns per [`Query::output_names`].
pub(crate) fn materialize_view(
    db: &Database,
    view: &ViewDef,
    cx: &ExecContext,
) -> EngineResult<Relation> {
    let mut rel = execute_ctx(&view.query, db, cx)?;
    rel.columns = view.output_names();
    Ok(rel)
}

/// Execute a rewriting: materialize its auxiliary views (`V^a`) into a
/// scratch copy of `db`, provide the `Nat` table when the rewriting needs
/// it (footnote 3), then run the rewritten query.
///
/// `db` must already contain the materialized views the rewriting uses.
pub fn execute_rewriting(rw: &Rewriting, db: &Database) -> EngineResult<Relation> {
    execute_rewriting_ctx(rw, db, &ExecContext::new())
}

/// [`execute_rewriting`] under an explicit [`ExecContext`], which the
/// auxiliary views are materialized under too. Everything is built for
/// this execution alone; the serving path keeps its builds in the plan
/// cache's `memo::AuxMemo` instead (`execute_with_aux`).
pub fn execute_rewriting_ctx(
    rw: &Rewriting,
    db: &Database,
    cx: &ExecContext,
) -> EngineResult<Relation> {
    let mut memo = AuxMemo::default();
    execute_with_aux(&rw.query, &rw.aux_views, rw.requires_nat, db, cx, &mut memo)
}

/// Run `query` over `db` plus the relations it needs built first: the
/// `aux` views, in order, and `Nat` when `requires_nat`. Each is taken
/// from `memo` while every relation it reads is unchanged, and built
/// into it otherwise.
pub(crate) fn execute_with_aux(
    query: &Query,
    aux: &[ViewDef],
    requires_nat: bool,
    db: &Database,
    cx: &ExecContext,
    memo: &mut AuxMemo,
) -> EngineResult<Relation> {
    if aux.is_empty() && !requires_nat {
        return execute_ctx(query, db, cx);
    }
    let mut scratch = db.clone();
    for v in aux {
        memo.materialize(v, &mut scratch, cx)?;
    }
    if requires_nat && !scratch.contains(NAT_TABLE) {
        memo.provide_nat(&mut scratch);
    }
    execute_ctx(query, &scratch, cx)
}

/// Insert the interpreted `Nat` table (footnote 3), sized to the largest
/// integer appearing anywhere in the database (so every `Nat.k <= count`
/// join is fully covered). Call before executing a rewriting with
/// [`Rewriting::requires_nat`] set — [`execute_rewriting`] does it
/// automatically when the table is absent.
pub fn ensure_nat(db: &mut Database) {
    let nat = nat_for(db);
    db.insert(NAT_TABLE, nat);
}

/// The `Nat` table [`ensure_nat`] inserts: a scan of every row of every
/// relation but `Nat` itself.
pub(crate) fn nat_for(db: &Database) -> Relation {
    let mut max = 1i64;
    for (name, rel) in db.iter() {
        if name == NAT_TABLE {
            continue;
        }
        for row in rel.rows() {
            for v in row {
                if let Value::Int(x) = v {
                    max = max.max(*x);
                }
            }
        }
    }
    nat_table(max)
}

/// Is the rewriting equivalent to the original query on this database?
///
/// Multiset equality in general; set equality for Section 5 rewritings
/// (whose guarantee is set-equivalence of provably-set results).
pub fn rewriting_equivalent(query: &Query, rw: &Rewriting, db: &Database) -> EngineResult<bool> {
    let original = execute(query, db)?;
    let rewritten = execute_rewriting(rw, db)?;
    Ok(if rw.set_semantics {
        set_eq(&original, &rewritten)
    } else {
        multiset_eq(&original, &rewritten)
    })
}

/// Convenience: rewrite `query` with `rewriter` and `views`, and verify
/// every produced rewriting against `db` (which must hold the base
/// tables; the views are materialized into a scratch copy here). Returns
/// the verified rewritings; panics on an inequivalent one — this is the
/// harness the property tests and the `repro` experiments build on.
pub fn rewrite_and_verify(
    rewriter: &Rewriter<'_>,
    query: &Query,
    views: &[ViewDef],
    db: &Database,
) -> Vec<Rewriting> {
    let rewritings = rewriter
        .rewrite(query, views)
        .expect("query and views must canonicalize");
    let mut scratch = db.clone();
    materialize_views(&mut scratch, views).expect("views must evaluate");
    for rw in &rewritings {
        let ok = rewriting_equivalent(query, rw, &scratch)
            .unwrap_or_else(|e| panic!("rewriting failed to execute: {e}\n  {}", rw.query));
        assert!(
            ok,
            "rewriting is NOT equivalent to the query\n  query: {query}\n  rewriting: {}\n  \
             views used: {:?}",
            rw.query, rw.views_used
        );
    }
    rewritings
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggview_core::Canonical;
    use aggview_engine::relation::rel_of_ints;
    use aggview_obs::{CounterId, MetricsRegistry};
    use aggview_sql::parse_query;
    use std::sync::Arc;

    /// `--no-columnar` reaches the auxiliary views: with the context's
    /// columnar path off, the aux run and the main query both take the
    /// row interpreter.
    #[test]
    fn aux_views_run_under_the_callers_context() {
        let mut db = Database::new();
        db.insert("T", rel_of_ints(["a", "b"], &[&[1, 5], &[1, 6], &[2, 7]]));
        let m = Arc::new(MetricsRegistry::default());
        db.set_metrics(Arc::clone(&m));
        let rw = Rewriting {
            query: parse_query("SELECT a, s FROM Aux").unwrap(),
            canonical: Canonical::empty(),
            aux_views: vec![ViewDef::new(
                "Aux",
                parse_query("SELECT a, SUM(b) AS s FROM T GROUP BY a").unwrap(),
            )],
            views_used: Vec::new(),
            used_paper_va: false,
            set_semantics: false,
            requires_nat: false,
        };
        let rows = execute_rewriting_ctx(&rw, &db, &ExecContext::columnar(false))
            .unwrap()
            .sorted_rows();
        assert_eq!(rows, rel_of_ints(["a", "s"], &[&[1, 11], &[2, 7]]).rows);
        assert_eq!(m.get(CounterId::ExecRowFallback), 2, "aux run + main query");
        assert_eq!(m.get(CounterId::ExecVectorized), 0);
    }
}
