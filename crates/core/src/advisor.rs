//! View selection — the paper's stated future work ("developing
//! strategies for determining which views to cache", Section 7).
//!
//! Given a query, the advisor synthesizes candidate *summary views* over
//! subsets of the query's `FROM` occurrences: each candidate groups by the
//! columns the rest of the query needs (grouping columns, join columns,
//! selected columns), carries the query's aggregates over its own columns,
//! and always includes a `COUNT` column so multiplicities stay
//! recoverable. Every candidate is validated by running the rewriter
//! itself — a suggestion is only emitted if the query provably rewrites to
//! use it — and ranked by estimated benefit under the cost model.
//!
//! This is exactly the \[CS94\]/\[YL94\] group-by pushdown space seen through
//! the paper's lens (Section 6: "their transformations … are special cases
//! of our conditions of view usability"). [`pushdown_candidates`] is that
//! space for one query: [`suggest_views`] proposes its candidates as views
//! to store, and the serving path computes one inline when no stored view
//! answers (eager aggregation).

use crate::canon::{AggExpr, AggSpec, Canonical, ColId, SelItem, Term};
use crate::cost::{estimate_cost, TableStats};
use crate::rewrite::{RewriteOptions, Rewriter, Rewriting, ViewDef};
use aggview_catalog::Catalog;
use aggview_sql::ast::Query;
use std::collections::BTreeSet;

/// A validated view suggestion.
#[derive(Debug, Clone)]
pub struct ViewSuggestion {
    /// The suggested view definition.
    pub view: ViewDef,
    /// The rewriting of the input query that uses it.
    pub rewriting: Rewriting,
    /// Estimated cost of the original query.
    pub original_cost: f64,
    /// Estimated cost of the rewriting (with the view's estimated size).
    pub rewritten_cost: f64,
    /// Estimated row count of the materialized view (the cost model's
    /// group-shrink estimate; budget caps compare against this).
    pub estimated_rows: usize,
}

impl ViewSuggestion {
    /// Estimated benefit (positive = the view pays off).
    pub fn benefit(&self) -> f64 {
        self.original_cost - self.rewritten_cost
    }
}

/// One query of an observed workload: a parsed representative of a
/// canonical fingerprint plus how often it was served.
#[derive(Debug, Clone)]
pub struct WorkloadQuery {
    /// The parsed query (one representative of the fingerprint).
    pub query: Query,
    /// How many times this fingerprint was served.
    pub frequency: u64,
    /// The sample SQL text (reporting only).
    pub sql: String,
}

/// A workload-ranked view proposal: one candidate view, scored by the
/// measured benefit summed over every workload query it rewrites,
/// weighted by observed frequency.
#[derive(Debug, Clone)]
pub struct WorkloadSuggestion {
    /// The proposed view definition (named `Adv1`, `Adv2`, ... in rank
    /// order).
    pub view: ViewDef,
    /// Σ per-query benefit × observed frequency over the queries this
    /// view rewrites.
    pub weighted_benefit: f64,
    /// Total observed servings of the queries this view rewrites.
    pub frequency: u64,
    /// How many distinct workload queries the view rewrites.
    pub queries: usize,
    /// Estimated row count of the materialized view.
    pub estimated_rows: usize,
}

/// Rank candidate views for an observed workload: run [`suggest_views`]
/// per workload query, merge candidates that define the same view (by
/// definition text), and score each by estimated scan cost saved ×
/// observed frequency. Queries the advisor cannot handle (errors, no
/// plain canonical form) contribute nothing. Only candidates with
/// positive weighted benefit survive; the result is sorted by descending
/// weighted benefit (definition text breaks ties — the ranking is fully
/// deterministic for a deterministic workload) and renamed `Adv1..N` in
/// rank order.
pub fn suggest_for_workload(
    workload: &[WorkloadQuery],
    catalog: &Catalog,
    stats: &TableStats,
) -> Vec<WorkloadSuggestion> {
    // Definition text → (accumulated score, view query).
    let mut merged: std::collections::BTreeMap<String, WorkloadSuggestion> =
        std::collections::BTreeMap::new();
    for wq in workload {
        let Ok(suggestions) = suggest_views(&wq.query, catalog, stats) else {
            continue;
        };
        for s in suggestions {
            if s.benefit() <= 0.0 {
                continue;
            }
            let key = s.view.query.to_string();
            let entry = merged.entry(key).or_insert_with(|| WorkloadSuggestion {
                view: s.view.clone(),
                weighted_benefit: 0.0,
                frequency: 0,
                queries: 0,
                estimated_rows: s.estimated_rows,
            });
            entry.weighted_benefit += s.benefit() * wq.frequency as f64;
            entry.frequency += wq.frequency;
            entry.queries += 1;
        }
    }
    let mut ranked: Vec<WorkloadSuggestion> = merged.into_values().collect();
    ranked.sort_by(|a, b| {
        b.weighted_benefit
            .partial_cmp(&a.weighted_benefit)
            .expect("finite benefits")
            .then_with(|| a.view.query.to_string().cmp(&b.view.query.to_string()))
    });
    for (i, s) in ranked.iter_mut().enumerate() {
        s.view = ViewDef::new(format!("Adv{}", i + 1), s.view.query.clone());
    }
    ranked
}

/// Grouping-output shrink factor assumed when estimating a summary view's
/// cardinality (each grouping column reduces the base cardinality by this
/// factor, floored at 1 row).
const GROUP_SHRINK: f64 = 0.1;

/// Suggest materialized views for `query`. Suggestions are validated
/// through [`Rewriter::rewrite`] and sorted by descending benefit.
///
/// ```
/// use aggview_catalog::{Catalog, TableSchema};
/// use aggview_core::{advisor::suggest_views, TableStats};
/// use aggview_sql::parse_query;
///
/// let mut catalog = Catalog::new();
/// catalog.add_table(TableSchema::new("Facts", ["Dim", "M"])).unwrap();
/// let mut stats = TableStats::new();
/// stats.set("Facts", 1_000_000);
///
/// let q = parse_query("SELECT Dim, SUM(M) FROM Facts GROUP BY Dim").unwrap();
/// let suggestions = suggest_views(&q, &catalog, &stats).unwrap();
/// assert!(suggestions[0].benefit() > 0.0);
/// assert!(suggestions[0].view.query.to_string().contains("GROUP BY"));
/// ```
pub fn suggest_views(
    query: &Query,
    catalog: &Catalog,
    stats: &TableStats,
) -> Result<Vec<ViewSuggestion>, crate::rewrite::RewriteError> {
    pushdown_candidates(query, catalog, stats, "Suggested")
}

/// Synthesize the group-by pushdown candidate over each non-empty subset
/// of `query`'s `FROM` occurrences, validate it through the rewriter, and
/// price it — [`suggest_views`] for stored views, the serving path for a
/// summary computed inline. Candidates are named `{prefix}1`,
/// `{prefix}2`, ... in validation order; the result is sorted by
/// descending benefit.
pub fn pushdown_candidates(
    query: &Query,
    catalog: &Catalog,
    stats: &TableStats,
    prefix: &str,
) -> Result<Vec<ViewSuggestion>, crate::rewrite::RewriteError> {
    let canonical =
        Canonical::from_query(query, catalog).map_err(crate::rewrite::RewriteError::Query)?;
    if !canonical.is_plain() {
        return Ok(Vec::new());
    }

    let n = canonical.tables.len();
    // Bounded subset enumeration (the FROM lists of single-block queries
    // are small; 2^8 = 256 candidates at most).
    if n > 8 {
        return Ok(Vec::new());
    }
    let mut suggestions: Vec<ViewSuggestion> = Vec::new();
    let mut seen_defs: BTreeSet<String> = BTreeSet::new();
    // Validate through the rewriter (single-view, single-step).
    let rewriter = Rewriter::with_options(
        catalog,
        RewriteOptions {
            multi_view: false,
            max_rewritings: 4,
            ..RewriteOptions::default()
        },
    );

    for mask in 1u32..(1 << n) {
        let subset: Vec<usize> = (0..n).filter(|i| mask & (1 << i) != 0).collect();
        let Some(candidate) = synthesize(&canonical, &subset) else {
            continue;
        };
        let view_sql = candidate.to_query();
        let key = view_sql.to_string();
        if !seen_defs.insert(key) {
            continue;
        }
        let name = format!("{prefix}{}", suggestions.len() + 1);
        let view = ViewDef::new(name.clone(), view_sql);

        let rewritings = rewriter.rewrite(query, std::slice::from_ref(&view))?;
        let Some(rewriting) = rewritings.into_iter().next() else {
            continue;
        };

        // Benefit estimate: size the view by its base tables shrunk per
        // grouping column.
        let mut with_view = stats.clone();
        let base_product: f64 = subset
            .iter()
            .map(|&occ| stats.get(&canonical.tables[occ].base) as f64)
            .product();
        let est_view_rows =
            (base_product * GROUP_SHRINK.powi(candidate.groups.len().min(6) as i32)).max(1.0);
        with_view.set(name, est_view_rows as usize);
        let original_cost = estimate_cost(query, stats);
        let rewritten_cost = rewriting.cost(&with_view);
        suggestions.push(ViewSuggestion {
            view,
            rewriting,
            original_cost,
            rewritten_cost,
            estimated_rows: est_view_rows as usize,
        });
    }

    suggestions.sort_by(|a, b| b.benefit().partial_cmp(&a.benefit()).expect("finite costs"));
    Ok(suggestions)
}

/// Build the candidate summary view over the chosen occurrences, in
/// canonical form; `None` when the subset cannot support a useful summary.
fn synthesize(query: &Canonical, subset: &[usize]) -> Option<Canonical> {
    let in_subset = |c: ColId| subset.contains(&query.columns[c].occ);

    // Columns of the subset that the rest of the query interacts with.
    let mut exposed: Vec<ColId> = Vec::new();
    let push = |c: ColId, exposed: &mut Vec<ColId>| {
        if in_subset(c) && !exposed.contains(&c) {
            exposed.push(c);
        }
    };
    for &g in &query.groups {
        push(g, &mut exposed);
    }
    for c in query.col_sel() {
        push(c, &mut exposed);
    }
    // Conditions crossing the subset boundary (or whose other side is a
    // constant the view should *not* absorb — absorbing filters narrows
    // reusability; here we absorb subset-local conditions and expose the
    // columns of crossing ones).
    let mut local_atoms = Vec::new();
    for atom in &query.conds {
        let cols: Vec<ColId> = [&atom.lhs, &atom.rhs]
            .iter()
            .filter_map(|t| match t {
                Term::Col(c) => Some(*c),
                Term::Const(_) => None,
            })
            .collect();
        let all_in = cols.iter().all(|&c| in_subset(c));
        let any_in = cols.iter().any(|&c| in_subset(c));
        if all_in && !cols.is_empty() {
            local_atoms.push(atom.clone());
        } else if any_in {
            for &c in &cols {
                push(c, &mut exposed);
            }
        }
    }

    // Aggregates: those over subset columns move into the view; any other
    // SUM/COUNT/AVG in the query needs the COUNT column (always added).
    let mut view_aggs: Vec<AggSpec> = Vec::new();
    for agg in query.agg_exprs() {
        let AggExpr::Plain(spec) = agg else {
            return None;
        };
        match spec.arg {
            Some(a) if in_subset(a) => {
                // AVG decomposes into SUM + COUNT; COUNT is added anyway.
                let func = match spec.func {
                    aggview_sql::AggFunc::Avg => aggview_sql::AggFunc::Sum,
                    aggview_sql::AggFunc::Count => continue,
                    f => f,
                };
                let candidate = AggSpec { func, arg: Some(a) };
                if !view_aggs.contains(&candidate) {
                    view_aggs.push(candidate);
                }
            }
            _ => {}
        }
    }

    // A summary needs something to group by; and grouping by *every*
    // column of the subset would make the view as large as the data.
    if exposed.is_empty() {
        return None;
    }
    let subset_cols: usize = subset.iter().map(|&o| query.tables[o].arity).sum();
    if exposed.len() >= subset_cols {
        return None;
    }

    let mut view = Canonical::empty();
    // Rebuild the subset occurrences with fresh ids.
    let mut col_map: Vec<Option<ColId>> = vec![None; query.n_cols()];
    for &occ in subset {
        let t = &query.tables[occ];
        let names: Vec<String> = t.cols().map(|c| query.columns[c].name.clone()).collect();
        let new_occ = view.add_table(t.base.clone(), names);
        for (pos, c) in t.cols().enumerate() {
            col_map[c] = Some(view.col_of(new_occ, pos));
        }
    }
    let m = |c: ColId| col_map[c].expect("subset column");

    view.select = exposed.iter().map(|&c| SelItem::Col(m(c))).collect();
    view.groups = exposed.iter().map(|&c| m(c)).collect();
    for spec in &view_aggs {
        view.select.push(SelItem::Agg(AggExpr::Plain(AggSpec {
            func: spec.func,
            arg: spec.arg.map(m),
        })));
    }
    // The multiplicity column.
    view.select.push(SelItem::Agg(AggExpr::Plain(AggSpec {
        func: aggview_sql::AggFunc::Count,
        arg: Some(view.col_of(0, 0)),
    })));
    view.conds = local_atoms
        .iter()
        .map(|a| {
            let mt = |t: &Term| match t {
                Term::Col(c) => Term::Col(m(*c)),
                Term::Const(l) => Term::Const(l.clone()),
            };
            crate::canon::Atom::new(mt(&a.lhs), a.op, mt(&a.rhs))
        })
        .collect();
    Some(view)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggview_catalog::TableSchema;
    use aggview_sql::parse_query;

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.add_table(TableSchema::new("Facts", ["K", "Dim", "M"]))
            .unwrap();
        cat.add_table(TableSchema::new("Dims", ["D", "Name"]))
            .unwrap();
        cat
    }

    fn stats() -> TableStats {
        let mut s = TableStats::new();
        s.set("Facts", 1_000_000).set("Dims", 100);
        s
    }

    #[test]
    fn suggests_pushdown_summary_for_join_aggregate() {
        let q = parse_query("SELECT Name, SUM(M) FROM Facts, Dims WHERE Dim = D GROUP BY Name")
            .unwrap();
        let suggestions = suggest_views(&q, &catalog(), &stats()).unwrap();
        assert!(!suggestions.is_empty());
        let best = &suggestions[0];
        assert!(
            best.benefit() > 0.0,
            "summary must pay off on a huge fact table"
        );
        // The winning suggestion summarizes Facts by the join column.
        let sql = best.view.query.to_string();
        assert!(sql.contains("FROM Facts"), "got {sql}");
        assert!(sql.contains("GROUP BY"), "got {sql}");
        assert!(sql.contains("SUM"), "got {sql}");
        // And the rewriting actually uses it.
        assert_eq!(best.rewriting.views_used, vec![best.view.name.clone()]);
    }

    #[test]
    fn pushdown_candidates_are_named_by_prefix() {
        let q = parse_query("SELECT Name, SUM(M) FROM Facts, Dims WHERE Dim = D GROUP BY Name")
            .unwrap();
        let candidates = pushdown_candidates(&q, &catalog(), &stats(), "Eager").unwrap();
        let suggestions = suggest_views(&q, &catalog(), &stats()).unwrap();
        assert_eq!(candidates.len(), suggestions.len());
        for (c, s) in candidates.iter().zip(&suggestions) {
            assert_eq!(c.view.query, s.view.query);
            assert!(c.view.name.starts_with("Eager"), "{}", c.view.name);
            assert_eq!(c.rewriting.views_used, vec![c.view.name.clone()]);
        }
    }

    #[test]
    fn no_suggestion_for_plain_scan() {
        // SELECT * style query: grouping by everything would not shrink.
        let q = parse_query("SELECT K, Dim, M FROM Facts").unwrap();
        let suggestions = suggest_views(&q, &catalog(), &stats()).unwrap();
        assert!(suggestions.is_empty());
    }

    #[test]
    fn single_table_rollup_suggested() {
        let q = parse_query("SELECT Dim, SUM(M), COUNT(M) FROM Facts GROUP BY Dim").unwrap();
        let suggestions = suggest_views(&q, &catalog(), &stats()).unwrap();
        assert!(!suggestions.is_empty());
        let best = &suggestions[0];
        assert!(best.view.query.to_string().contains("GROUP BY Facts.Dim"));
    }

    #[test]
    fn local_filters_are_absorbed() {
        let q = parse_query("SELECT Dim, SUM(M) FROM Facts WHERE K > 100 GROUP BY Dim").unwrap();
        let suggestions = suggest_views(&q, &catalog(), &stats()).unwrap();
        // Some suggestion must absorb the filter... or expose K. Either
        // way, the rewriter validated it — just check one exists.
        assert!(!suggestions.is_empty());
    }

    #[test]
    fn workload_ranking_weights_by_frequency() {
        let hot =
            parse_query("SELECT Dim, SUM(M) FROM Facts GROUP BY Dim").expect("hot query parses");
        let cold = parse_query("SELECT Name, SUM(M) FROM Facts, Dims WHERE Dim = D GROUP BY Name")
            .expect("cold query parses");
        let workload = vec![
            WorkloadQuery {
                query: cold.clone(),
                frequency: 1,
                sql: cold.to_string(),
            },
            WorkloadQuery {
                query: hot.clone(),
                frequency: 100,
                sql: hot.to_string(),
            },
        ];
        let ranked = suggest_for_workload(&workload, &catalog(), &stats());
        assert!(!ranked.is_empty());
        // Rank names are assigned in order.
        for (i, s) in ranked.iter().enumerate() {
            assert_eq!(s.view.name, format!("Adv{}", i + 1));
            assert!(s.weighted_benefit > 0.0);
            assert!(s.estimated_rows >= 1);
        }
        // The top proposal serves the hot fingerprint: its accumulated
        // frequency must include the 100 hot servings.
        assert!(
            ranked[0].frequency >= 100,
            "hot query must dominate the ranking, got frequency {}",
            ranked[0].frequency
        );
        // Determinism: same workload, same ranking.
        let again = suggest_for_workload(&workload, &catalog(), &stats());
        assert_eq!(ranked.len(), again.len());
        for (a, b) in ranked.iter().zip(&again) {
            assert_eq!(a.view.name, b.view.name);
            assert_eq!(a.view.query.to_string(), b.view.query.to_string());
            assert_eq!(a.weighted_benefit.to_bits(), b.weighted_benefit.to_bits());
        }
    }

    #[test]
    fn suggestions_are_validated_rewritings() {
        let q = parse_query(
            "SELECT Name, SUM(M), COUNT(M) FROM Facts, Dims WHERE Dim = D GROUP BY Name",
        )
        .unwrap();
        for s in suggest_views(&q, &catalog(), &stats()).unwrap() {
            assert!(!s.rewriting.views_used.is_empty());
            assert!(s.original_cost.is_finite() && s.rewritten_cost.is_finite());
        }
    }
}
