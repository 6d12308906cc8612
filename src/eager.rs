//! Eager aggregation: answer a join-then-group query through a summary of
//! part of its `FROM`, computed inline, when no stored view answers it.
//!
//! The paper calls group-by pushdown (\[CS94\]/\[YL94\]) a special case of
//! its usability conditions (§6): a pushdown is a rewriting over a view
//! that groups some of the query's tables on the columns the rest of the
//! query touches and carries the `SUM`/`COUNT` pair C4' needs. The
//! advisor ([`aggview_core::advisor`]) synthesizes exactly those views and
//! validates each one through the rewriter; here the serving path uses
//! the best as a plan rather than a proposal. The Theorem 4.1 rewriting
//! over the candidate carries the candidate in `Rewriting::aux_views`,
//! the slot the paper's `V^a` uses, so the summary is built from the
//! pinned snapshot, never from anything older. The serving decision's
//! [`AuxMemo`] keeps the build with the identity of every relation it
//! read, and later executions reuse it until one of them is written.
//! Its `views_used` stays empty: no stored view served the answer, which
//! is also what lets the advisor promote the candidate to a stored view.
//!
//! The plan pays off only when the summary has far fewer groups than its
//! input has rows. The advisor's estimate does not look at the data, so
//! [`answer`] checks each summary it builds (a reused one was checked
//! when it was built): one that kept more than half of its input's rows
//! reports [`Served::Unshrunk`], and the session then caches the
//! base-table plan instead.

use crate::memo::{AuxMemo, Reuse};
use crate::run::execute_with_aux;
use crate::state::EngineState;
use aggview_core::advisor::pushdown_candidates;
use aggview_core::{Rewriting, TableStats, ViewDef};
use aggview_engine::{execute_ctx, Database, EngineResult, ExecContext, Relation, Table};
use aggview_sql::Query;

/// Inline summaries are named `Eager1`, `Eager2`, ... in the advisor's
/// validation order.
const PREFIX: &str = "Eager";

/// Below this many input rows a summary counts as shrunk whatever its
/// size: either plan then runs in well under a millisecond.
const JUDGED_FROM_ROWS: usize = 1024;

/// The inline-summary rewriting of `q`: the validated pushdown candidate
/// over a proper subset of `q`'s `FROM` with the largest positive
/// estimated benefit, prepended to the rewriting's auxiliary views.
/// `None` when `q` reads fewer than two relations, is outside the
/// advisor's fragment, or no candidate pays off. A candidate over the
/// whole `FROM` would do the query's own work plus a copy; candidates
/// whose rewriting needs §5 set semantics or the `Nat` table, or whose
/// name a stored relation already has, are passed over too.
pub(crate) fn inline_rewriting(
    q: &Query,
    state: &EngineState,
    stats: &TableStats,
) -> Option<Rewriting> {
    if q.from.len() < 2 {
        return None;
    }
    let candidates = pushdown_candidates(q, &state.catalog, stats, PREFIX).ok()?;
    let best = candidates.into_iter().find(|s| {
        s.view.query.from.len() < q.from.len()
            && s.benefit() > 0.0
            && !s.rewriting.set_semantics
            && !s.rewriting.requires_nat
            && !state.db.contains(&s.view.name)
    })?;
    let mut rw = best.rewriting;
    rw.aux_views.insert(0, best.view);
    rw.views_used.clear();
    Some(rw)
}

/// Is `rw` an inline-summary rewriting? A stored-view rewriting always
/// names the views it uses. The serving path decides with this; an
/// answer records the decision in its executed text ([`executed_text`]).
pub(crate) fn is_inline(rw: &Rewriting) -> bool {
    rw.views_used.is_empty()
}

/// What an inline answer reports as executed: `WITH <summary> AS
/// (<definition>) <rewritten query>`. An answer carries the inline
/// decision only here — `executed` is the one field that says how an
/// answer was produced and also crosses the wire — and [`summary_name`]
/// is its only reader.
pub(crate) fn executed_text(rw: &Rewriting) -> String {
    let summary = &rw.aux_views[0];
    format!("WITH {} AS ({}) {}", summary.name, summary.query, rw.query)
}

/// The inline summary an answer's executed text names; `None` for any
/// other answer (those execute a plain `SELECT`).
pub(crate) fn summary_name(executed: &str) -> Option<&str> {
    let (name, _) = executed.strip_prefix("WITH ")?.split_once(" AS (")?;
    Some(name)
}

/// How [`answer`] served a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Served {
    /// Through the summary, reused or built.
    Summary(Reuse),
    /// Through a summary, built now with this many rows, that kept more
    /// than half of its input's rows: the answer is right, but the plan
    /// does not pay for itself.
    Unshrunk(usize),
    /// From the base tables: the summary or the rewriting over it failed.
    BaseTables,
}

/// Answer `q` through its inline rewriting `rw`, under `q`'s own output
/// column names, taking the summary from `memo` while its inputs are
/// unchanged. When the summary cannot be built or the rewriting fails
/// (a `SUM` over a string in a row the join would have dropped, say), `q`
/// runs over the base tables instead.
pub(crate) fn answer(
    q: &Query,
    rw: &Rewriting,
    db: &Database,
    cx: &ExecContext,
    memo: &mut AuxMemo,
) -> EngineResult<(Relation, Served)> {
    match run(rw, db, cx, memo) {
        Ok((mut rel, reuse)) => {
            rel.columns = q.output_names();
            let served = match reuse {
                Reuse::Built(rows) if !shrank(rows, &rw.aux_views[0], db) => Served::Unshrunk(rows),
                reuse => Served::Summary(reuse),
            };
            Ok((rel, served))
        }
        Err(_) => execute_ctx(q, db, cx).map(|rel| (rel, Served::BaseTables)),
    }
}

/// Did `summary` keep at most half the rows of the largest relation it
/// reads? Its input is a join when it reads several; over a foreign key
/// that join is no larger than its largest relation.
fn shrank(summary_rows: usize, summary: &ViewDef, db: &Database) -> bool {
    let input = summary
        .query
        .from
        .iter()
        .filter_map(|t| db.table(&t.table).ok().map(Table::len))
        .max()
        .unwrap_or(0);
    input < JUDGED_FROM_ROWS || 2 * summary_rows <= input
}

/// Put the summary into a scratch copy of `db`, then run the rest of the
/// rewriting over it; how the summary got there rides along.
fn run(
    rw: &Rewriting,
    db: &Database,
    cx: &ExecContext,
    memo: &mut AuxMemo,
) -> EngineResult<(Relation, Reuse)> {
    let (summary, rest) = rw
        .aux_views
        .split_first()
        .expect("an inline rewriting carries its summary");
    let mut scratch = db.clone();
    let reuse = memo.materialize(summary, &mut scratch, cx)?;
    let rel = execute_with_aux(&rw.query, rest, rw.requires_nat, &scratch, cx, memo)?;
    Ok((rel, reuse))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggview_core::advisor::suggest_views;
    use aggview_sql::{parse_query, parse_script, Statement};

    fn state(script: &str) -> EngineState {
        let mut state = EngineState::new();
        for stmt in parse_script(script).unwrap() {
            let Statement::CreateTable(ct) = stmt else {
                panic!("schema only")
            };
            state.create_table(&ct).unwrap();
        }
        state
    }

    /// The advisor also proposes a summary over the whole `FROM`; the
    /// inline rewriting summarizes a proper subset, and an answer's
    /// executed text names it.
    #[test]
    fn inline_rewriting_summarizes_a_proper_subset() {
        let state = state("CREATE TABLE Facts (K, Dim, M); CREATE TABLE Dims (D, Name);");
        let mut stats = TableStats::new();
        stats.set("Facts", 1_000_000).set("Dims", 100);
        let q = parse_query("SELECT Name, SUM(M) FROM Facts, Dims WHERE Dim = D GROUP BY Name")
            .unwrap();
        let all = suggest_views(&q, &state.catalog, &stats).unwrap();
        assert!(all.iter().any(|s| s.view.query.from.len() == 2));

        let rw = inline_rewriting(&q, &state, &stats).expect("a pushdown pays off");
        assert!(is_inline(&rw));
        let summary = &rw.aux_views[0];
        assert_eq!(summary.query.from.len(), 1, "{}", summary.query);
        assert_eq!(
            summary_name(&executed_text(&rw)),
            Some(summary.name.as_str())
        );
        assert_eq!(summary_name(&q.to_string()), None);

        let single = parse_query("SELECT Dim, SUM(M) FROM Facts GROUP BY Dim").unwrap();
        assert!(inline_rewriting(&single, &state, &stats).is_none());
    }
}
