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
//! pinned snapshot on every execution and is never stale. Its
//! `views_used` stays empty: no stored view served the answer, which is
//! also what lets the advisor promote the candidate to a stored view.
//!
//! The plan pays off only when the summary has far fewer groups than its
//! input has rows. The advisor's estimate does not look at the data, so
//! [`answer`] checks the summary it built: one that kept more than half
//! of its input's rows reports [`Served::Unshrunk`], and the session then
//! caches the base-table plan instead.

use crate::run::{execute_rewriting_ctx, materialize_view};
use crate::state::EngineState;
use aggview_core::advisor::pushdown_candidates;
use aggview_core::{Rewriting, TableStats, ViewDef};
use aggview_engine::{execute_ctx, Database, EngineResult, ExecContext, Relation};
use aggview_sql::Query;
use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

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
    /// Through the summary.
    Summary,
    /// Through a summary that kept more than half of its input's rows:
    /// the answer is right, but the plan does not pay for itself.
    Unshrunk,
    /// From the base tables: the summary or the rewriting over it failed.
    BaseTables,
}

/// Answer `q` through its inline rewriting `rw`, under `q`'s own output
/// column names. When the summary cannot be built or the rewriting fails
/// (a `SUM` over a string in a row the join would have dropped, say), `q`
/// runs over the base tables instead.
pub(crate) fn answer(
    q: &Query,
    rw: &Rewriting,
    db: &Database,
    cx: &ExecContext,
) -> EngineResult<(Relation, Served)> {
    match run(rw, db, cx) {
        Ok((mut rel, summary_rows)) => {
            rel.columns = q.output_names();
            let served = if shrank(summary_rows, &rw.aux_views[0], db) {
                Served::Summary
            } else {
                Served::Unshrunk
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
        .filter_map(|t| db.get(&t.table).ok().map(Relation::len))
        .max()
        .unwrap_or(0);
    input < JUDGED_FROM_ROWS || 2 * summary_rows <= input
}

/// Build the summary into a scratch copy of `db`, then run the rest of
/// the rewriting over it; the summary's row count rides along.
fn run(rw: &Rewriting, db: &Database, cx: &ExecContext) -> EngineResult<(Relation, usize)> {
    let (summary, rest) = rw
        .aux_views
        .split_first()
        .expect("an inline rewriting carries its summary");
    let rel = if unsound_eager_stale() {
        // Injected bug: the summary's first materialization is reused.
        let mut stale = stale_summaries();
        match stale.get(&summary.query.to_string()) {
            Some(rel) => rel.clone(),
            None => {
                let rel = materialize_view(db, summary, cx)?;
                stale.insert(summary.query.to_string(), rel.clone());
                rel
            }
        }
    } else {
        materialize_view(db, summary, cx)?
    };
    let summary_rows = rel.len();
    let mut scratch = db.clone();
    scratch.insert(summary.name.clone(), rel);
    let rest = Rewriting {
        aux_views: rest.to_vec(),
        ..rw.clone()
    };
    Ok((execute_rewriting_ctx(&rest, &scratch, cx)?, summary_rows))
}

/// Fault injection: `AGGVIEW_UNSOUND_EAGER_STALE=1` keeps the first
/// materialization of each inline summary (keyed by its definition) and
/// reuses it on every later execution until the next `CREATE TABLE`, so
/// an answer after a write reads a stale summary — the soundness bug the
/// qcheck oracle must catch. Read once per process.
fn unsound_eager_stale() -> bool {
    static STALE: OnceLock<bool> = OnceLock::new();
    *STALE.get_or_init(|| std::env::var_os("AGGVIEW_UNSOUND_EAGER_STALE").is_some())
}

fn stale_summaries() -> std::sync::MutexGuard<'static, BTreeMap<String, Relation>> {
    static SUMMARIES: Mutex<BTreeMap<String, Relation>> = Mutex::new(BTreeMap::new());
    SUMMARIES.lock().unwrap_or_else(|e| e.into_inner())
}

/// Drop the injection's kept summaries (a `CREATE TABLE` starts a new
/// schema universe). A no-op unless the injection is armed.
pub(crate) fn forget_stale_summaries() {
    if unsound_eager_stale() {
        stale_summaries().clear();
    }
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
