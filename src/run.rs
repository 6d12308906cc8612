//! Gluing the rewriter to the execution engine: materializing views,
//! executing rewritings (auxiliary views first), and validating
//! multiset-equivalence — the paper's correctness criterion.

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
    for v in views {
        let rel = materialize_view(db, v)?;
        db.insert(v.name.clone(), rel);
    }
    Ok(())
}

/// Evaluate one view definition against `db` and name its output columns
/// per [`Query::output_names`].
fn materialize_view(db: &Database, view: &ViewDef) -> EngineResult<Relation> {
    let mut rel = execute(&view.query, db)?;
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

/// [`execute_rewriting`] under an explicit [`ExecContext`] (the auxiliary
/// views are still materialized through the default path — their contents
/// are path-independent by construction).
pub fn execute_rewriting_ctx(
    rw: &Rewriting,
    db: &Database,
    cx: &ExecContext,
) -> EngineResult<Relation> {
    if rw.aux_views.is_empty() && !rw.requires_nat {
        return execute_ctx(&rw.query, db, cx);
    }
    let mut scratch = db.clone();
    materialize_views(&mut scratch, &rw.aux_views)?;
    if rw.requires_nat && !scratch.contains(NAT_TABLE) {
        ensure_nat(&mut scratch);
    }
    execute_ctx(&rw.query, &scratch, cx)
}

/// Insert the interpreted `Nat` table (footnote 3), sized to the largest
/// integer appearing anywhere in the database (so every `Nat.k <= count`
/// join is fully covered). Call before executing a rewriting with
/// [`Rewriting::requires_nat`] set — [`execute_rewriting`] does it
/// automatically when the table is absent.
pub fn ensure_nat(db: &mut Database) {
    let mut max = 1i64;
    for (name, rel) in db.iter() {
        if name == NAT_TABLE {
            continue;
        }
        for row in &rel.rows {
            for v in row {
                if let Value::Int(x) = v {
                    max = max.max(*x);
                }
            }
        }
    }
    db.insert(NAT_TABLE, nat_table(max));
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
