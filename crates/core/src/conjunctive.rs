//! Aggregation queries and conjunctive views — Section 3 of the paper.
//!
//! Given a query `Q` (with or without grouping/aggregation), a *conjunctive*
//! view `V` (no grouping, aggregation, or HAVING), and a 1-1 column mapping
//! φ (condition C1), this module checks conditions **C2–C4** and applies the
//! rewriting steps **S1–S4**:
//!
//! * **C2** — every column of `ColSel(Q) ∪ Groups(Q)` in φ's image has an
//!   equal column (`B_A`) in `Sel(V)` (equality entailed by `Conds(Q)`).
//! * **C3** — `Conds(Q) ≡ φ(Conds(V)) ∧ Conds'`, where `Conds'` mentions
//!   only columns outside φ's image and columns of `φ(Sel(V))`.
//! * **C4** — every `AGG(A)` with `A` in the image has an equal `B_A` in
//!   `Sel(V)` (for MIN/MAX/SUM), or — for COUNT — any view column (the view
//!   preserves multiplicities, so any column counts rows).
//!
//! Section 3.3 extensions (HAVING) are handled upstream by
//! [`crate::having::normalize_having`] plus the C4 treatment of aggregation
//! columns that occur only in `GConds(Q)` (this module processes them
//! uniformly with `Sel(Q)` aggregates).
//!
//! Theorem 3.1: the conditions are sufficient, and — for equality-only
//! predicates — necessary.

use crate::canon::{AggExpr, AggSpec, Atom, Canonical, ColId, GAtom, GTerm, SelItem, Term};
use crate::closure::PredClosure;
use crate::explain::WhyNot;
use crate::frame::Frame;
use crate::mapping::Mapping;
use aggview_sql::ast::AggFunc;
use std::collections::HashMap;

/// Is `view` a conjunctive query (no grouping/aggregation/HAVING/DISTINCT)?
pub fn is_conjunctive(view: &Canonical) -> bool {
    !view.distinct && !view.is_aggregation_query()
}

/// Conjunctive up to duplicate elimination: no grouping/aggregation/HAVING,
/// but `SELECT DISTINCT` allowed. The Section 5 set-semantics machinery
/// accepts this shape (a DISTINCT result is a set by definition).
pub fn is_conjunctive_core(q: &Canonical) -> bool {
    !q.is_aggregation_query()
}

/// Check C2–C4 for the given mapping and, if they hold, apply S1–S4.
///
/// `q_closure` must be the closure of `Conds(Q)` over a universe containing
/// every query column and every constant of `Conds(Q)` and `Conds(V)`.
/// Returns the rewritten query in canonical form (its view occurrence uses
/// `view_name` with output columns `view_out_names`).
pub fn rewrite_conjunctive(
    query: &Canonical,
    view: &Canonical,
    view_name: &str,
    view_out_names: &[String],
    mapping: &Mapping,
    q_closure: &PredClosure,
) -> Result<Canonical, WhyNot> {
    debug_assert!(is_conjunctive_core(view));
    debug_assert_eq!(view_out_names.len(), view.select.len());

    let image = mapping.image_cols(query);

    // φ(Sel(V)): which query columns are *syntactically* exposed, and by
    // which SELECT position. (C3 restricts Conds' to these; the looser
    // equality-based exposure is only valid for the S2/S4 substitutions.)
    let mut syntactic_expose: HashMap<ColId, usize> = HashMap::new();
    for (i, item) in view.select.iter().enumerate() {
        let SelItem::Col(b) = item else {
            unreachable!("conjunctive views select only columns");
        };
        let qcol = mapping.map_col(view, query, *b);
        syntactic_expose.entry(qcol).or_insert(i);
    }

    // Equality-based exposure for steps S2/S4: the first SELECT position
    // whose mapped column is entailed equal to `qcol` by Conds(Q).
    let expose = |qcol: ColId| -> Option<usize> {
        if let Some(&i) = syntactic_expose.get(&qcol) {
            return Some(i);
        }
        view.select.iter().enumerate().find_map(|(i, item)| {
            let SelItem::Col(b) = item else { return None };
            let mapped = mapping.map_col(view, query, *b);
            q_closure.cols_equal(qcol, mapped).then_some(i)
        })
    };

    // --- Condition C2 ---------------------------------------------------
    let mut needed_cols: Vec<ColId> = query.col_sel();
    needed_cols.extend(query.groups.iter().copied());
    for &a in &needed_cols {
        if image[a] && expose(a).is_none() {
            return Err(WhyNot::SelectColumnNotExposed {
                column: query.columns[a].name.clone(),
            });
        }
    }

    // --- Condition C3 ---------------------------------------------------
    let mapped_vconds: Vec<Atom> = view
        .conds
        .iter()
        .map(|a| mapping.map_atom(view, query, a))
        .collect();
    // Fault-injection hook for the differential harness (`crates/qcheck`):
    // skipping the first half of C3 silently accepts views whose own
    // conditions discard tuples the query needs — a classic soundness bug
    // the harness must catch. Never set outside harness self-tests.
    if !unsound_skip_c3() {
        for atom in &mapped_vconds {
            if !q_closure.implies_atom(atom) {
                return Err(WhyNot::ViewCondsNotImplied {
                    atom: format!("{atom:?}"),
                });
            }
        }
    }
    let allowed = |t: &Term| match t {
        Term::Col(c) => !image[*c] || syntactic_expose.contains_key(c),
        Term::Const(_) => true,
    };
    let residual = derive_residual(q_closure, &query.conds, &mapped_vconds, allowed)
        .ok_or(WhyNot::NoResidual)?;

    // --- Condition C4 ---------------------------------------------------
    // Aggregates from Sel(Q) and GConds(Q) (Section 3.3) alike. Determine,
    // per aggregate, how each image column it references translates.
    for agg in query.agg_exprs() {
        check_c4(agg, &image, &expose, query, view)?;
    }

    // --- Steps S1–S4 ----------------------------------------------------
    let mut frame = Frame::build(query, &mapping.image_occs(), view_name, view_out_names);

    // Column translation for SELECT/GROUP BY/aggregates (S2) — image
    // columns go to their equality-exposed view output.
    let trans = |c: ColId, frame: &Frame| -> Option<ColId> {
        if image[c] {
            expose(c).map(|i| frame.view_col(i))
        } else {
            frame.trans_keep[c]
        }
    };
    // Residual translation (S3) — image columns go to their *syntactic*
    // exposure.
    let trans_residual = |c: ColId, frame: &Frame| -> Option<ColId> {
        if image[c] {
            syntactic_expose.get(&c).map(|&i| frame.view_col(i))
        } else {
            frame.trans_keep[c]
        }
    };

    let trans_agg = |agg: &AggExpr, frame: &Frame| -> AggExpr {
        translate_agg(agg, &image, &expose, frame, &trans)
    };

    frame.new_q.select = query
        .select
        .iter()
        .map(|item| match item {
            SelItem::Col(c) => SelItem::Col(trans(*c, &frame).expect("C2 checked")),
            SelItem::Agg(a) => SelItem::Agg(trans_agg(a, &frame)),
        })
        .collect();
    frame.new_q.groups = query
        .groups
        .iter()
        .map(|&c| trans(c, &frame).expect("C2 checked"))
        .collect();
    frame.new_q.conds = residual
        .iter()
        .map(|a| {
            translate_atom(a, &frame, &trans_residual).expect("residual uses allowed terms only")
        })
        .collect();
    frame.new_q.gconds = query
        .gconds
        .iter()
        .map(|g| GAtom {
            lhs: translate_gterm(&g.lhs, &frame, &trans, &trans_agg),
            op: g.op,
            rhs: translate_gterm(&g.rhs, &frame, &trans, &trans_agg),
        })
        .collect();

    Ok(frame.new_q)
}

/// Is the hidden `AGGVIEW_UNSOUND_SKIP_C3` fault-injection flag set? Read
/// once per process (the search consults this per mapping). Both
/// implementations of the first half of C3 consult it: the check here and
/// the entailment prune inside the search's mapping enumeration (which
/// would otherwise cut the same unsound candidates for efficiency).
pub(crate) fn unsound_skip_c3() -> bool {
    static FLAG: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *FLAG.get_or_init(|| std::env::var_os("AGGVIEW_UNSOUND_SKIP_C3").is_some())
}

/// C4 feasibility for one aggregate expression.
fn check_c4(
    agg: &AggExpr,
    image: &[bool],
    expose: &dyn Fn(ColId) -> Option<usize>,
    query: &Canonical,
    _view: &Canonical,
) -> Result<(), WhyNot> {
    let fail = |col: ColId| WhyNot::AggregateNotComputable {
        agg: format!("{agg:?}"),
        missing: format!(
            "column `{}` is aggregated in the query but projected out of the view",
            query.columns[col].name
        ),
    };
    match agg {
        AggExpr::Plain(AggSpec { func, arg }) => match (func, arg) {
            // COUNT's argument only determines multiplicity, which a
            // conjunctive view preserves; S4 substitutes any view column.
            (AggFunc::Count, _) => Ok(()),
            (_, None) => Ok(()),
            (_, Some(a)) => {
                if image[*a] && expose(*a).is_none() {
                    Err(fail(*a))
                } else {
                    Ok(())
                }
            }
        },
        // Extended forms (produced by an earlier aggregation-view step):
        // every referenced column must be translatable.
        other => {
            for c in other.columns() {
                if image[c] && expose(c).is_none() {
                    return Err(fail(c));
                }
            }
            Ok(())
        }
    }
}

/// Translate an aggregate expression under S2/S4.
fn translate_agg(
    agg: &AggExpr,
    image: &[bool],
    expose: &dyn Fn(ColId) -> Option<usize>,
    frame: &Frame,
    trans: &dyn Fn(ColId, &Frame) -> Option<ColId>,
) -> AggExpr {
    let t = |c: ColId| trans(c, frame).expect("C4 checked");
    match agg {
        AggExpr::Plain(AggSpec { func, arg }) => {
            let new_arg = match arg {
                None => None,
                Some(a) => {
                    if image[*a] && expose(*a).is_none() {
                        // S4: COUNT of a projected-out column — count any
                        // view column instead (multiplicity is what counts).
                        debug_assert_eq!(*func, AggFunc::Count);
                        Some(frame.view_col(0))
                    } else {
                        Some(t(*a))
                    }
                }
            };
            AggExpr::Plain(AggSpec {
                func: *func,
                arg: new_arg,
            })
        }
        AggExpr::Scaled { factor, spec } => AggExpr::Scaled {
            factor: t(*factor),
            spec: AggSpec {
                func: spec.func,
                arg: spec.arg.map(t),
            },
        },
        AggExpr::WeightedSum { weight, arg } => AggExpr::WeightedSum {
            weight: t(*weight),
            arg: t(*arg),
        },
        AggExpr::RatioOfSums { num, den } => AggExpr::RatioOfSums {
            num: t(*num),
            den: t(*den),
        },
        AggExpr::WeightedAvg { weight, arg } => AggExpr::WeightedAvg {
            weight: t(*weight),
            arg: t(*arg),
        },
    }
}

fn translate_atom(
    a: &Atom,
    frame: &Frame,
    trans: &dyn Fn(ColId, &Frame) -> Option<ColId>,
) -> Option<Atom> {
    let tt = |t: &Term| -> Option<Term> {
        match t {
            Term::Col(c) => Some(Term::Col(trans(*c, frame)?)),
            Term::Const(l) => Some(Term::Const(l.clone())),
        }
    };
    Some(Atom::new(tt(&a.lhs)?, a.op, tt(&a.rhs)?))
}

fn translate_gterm(
    t: &GTerm,
    frame: &Frame,
    trans: &dyn Fn(ColId, &Frame) -> Option<ColId>,
    trans_agg: &dyn Fn(&AggExpr, &Frame) -> AggExpr,
) -> GTerm {
    match t {
        GTerm::Col(c) => GTerm::Col(trans(*c, frame).expect("grouping column translated")),
        GTerm::Const(l) => GTerm::Const(l.clone()),
        GTerm::Agg(a) => GTerm::Agg(trans_agg(a, frame)),
    }
}

/// Derive and minimize a residual `Conds'` (the second half of C3): a set
/// of entailed atoms over allowed terms such that
/// `mapped_vconds ∧ residual ≡ Conds(Q)`. `None` if no such residual exists.
pub(crate) fn derive_residual(
    q_closure: &PredClosure,
    q_conds: &[Atom],
    mapped_vconds: &[Atom],
    allowed: impl Fn(&Term) -> bool,
) -> Option<Vec<Atom>> {
    // An unsatisfiable Conds(Q) means the query is empty on every
    // database; `FALSE ∧ anything` is a correct residual (constants are
    // always allowed terms), making any structurally-mapped view usable.
    if !q_closure.satisfiable() {
        use aggview_sql::ast::{CmpOp, Literal};
        return Some(vec![Atom::new(
            Term::Const(Literal::Int(0)),
            CmpOp::Eq,
            Term::Const(Literal::Int(1)),
        )]);
    }
    let candidate = q_closure.residual_atoms(allowed);
    // Universe: everything in sight.
    let mut universe: Vec<Term> = q_closure.terms().to_vec();
    for a in mapped_vconds.iter().chain(candidate.iter()) {
        universe.push(a.lhs.clone());
        universe.push(a.rhs.clone());
    }

    let entails = |residual: &[Atom]| -> bool {
        let mut combined: Vec<Atom> = mapped_vconds.to_vec();
        combined.extend_from_slice(residual);
        let c = PredClosure::build(&combined, &universe);
        c.implies_all(q_conds.iter())
    };

    if !entails(&candidate) {
        return None;
    }
    // Greedy minimization: drop atoms that are not needed.
    let mut residual = candidate;
    let mut i = 0;
    while i < residual.len() {
        let removed = residual.remove(i);
        if !entails(&residual) {
            residual.insert(i, removed);
            i += 1;
        }
    }
    Some(residual)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::enumerate_mappings;
    use aggview_catalog::{Catalog, TableSchema};
    use aggview_sql::parse_query;

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.add_table(TableSchema::new("R1", ["A", "B"])).unwrap();
        cat.add_table(TableSchema::new("R2", ["C", "D"])).unwrap();
        cat
    }

    fn canon(sql: &str) -> Canonical {
        Canonical::from_query(&parse_query(sql).unwrap(), &catalog()).unwrap()
    }

    fn closure_of(q: &Canonical, v: &Canonical) -> PredClosure {
        // Universe: the query's columns plus every constant either side
        // mentions (the Rewriter does the same via collect_const_terms).
        let mut universe: Vec<Term> = (0..q.n_cols()).map(Term::Col).collect();
        for a in q.conds.iter().chain(v.conds.iter()) {
            for t in [&a.lhs, &a.rhs] {
                if matches!(t, Term::Const(_)) {
                    universe.push(t.clone());
                }
            }
        }
        PredClosure::build(&q.conds, &universe)
    }

    /// Try every 1-1 mapping; return the successful rewritings.
    fn rewrite_all(q: &Canonical, v: &Canonical, name: &str, outs: &[&str]) -> Vec<Canonical> {
        let out_names: Vec<String> = outs.iter().map(|s| s.to_string()).collect();
        let cl = closure_of(q, v);
        enumerate_mappings(v, q, true, Some(&cl))
            .into_iter()
            .filter_map(|m| rewrite_conjunctive(q, v, name, &out_names, &m, &cl).ok())
            .collect()
    }

    #[test]
    fn example_3_1_rewrites() {
        // Paper Example 3.1.
        let q = canon("SELECT A, SUM(B) FROM R1, R2 WHERE A = C AND B = 6 AND D = 6 GROUP BY A");
        let v = canon("SELECT C, D FROM R1, R2 WHERE A = C AND B = D");
        let rewritings = rewrite_all(&q, &v, "V1", &["C", "D"]);
        assert_eq!(rewritings.len(), 1);
        let rw = &rewritings[0];
        // Q': SELECT C, SUM(D) FROM V1 WHERE D = 6 GROUP BY C.
        assert_eq!(rw.tables.len(), 1);
        assert_eq!(rw.tables[0].base, "V1");
        let sql = rw.to_query().to_string();
        assert_eq!(
            sql,
            "SELECT V1.C, SUM(V1.D) FROM V1 WHERE V1.D = 6 GROUP BY V1.C"
        );
    }

    #[test]
    fn rejects_view_that_discards_needed_tuples() {
        // View enforces B = 5; query does not — C3 first half fails.
        let q = canon("SELECT A, SUM(B) FROM R1 GROUP BY A");
        let v = canon("SELECT A, B FROM R1 WHERE B = 5");
        assert!(rewrite_all(&q, &v, "V", &["A", "B"]).is_empty());
    }

    #[test]
    fn rejects_view_that_projects_out_needed_column() {
        // Query needs SUM(B); view projects B out.
        let q = canon("SELECT A, SUM(B) FROM R1 GROUP BY A");
        let v = canon("SELECT A FROM R1");
        assert!(rewrite_all(&q, &v, "V", &["A"]).is_empty());
    }

    #[test]
    fn count_tolerates_projected_out_column() {
        // COUNT(B) only needs multiplicities — usable even though B is
        // projected out (condition C4 case 2, step S4).
        let q = canon("SELECT A, COUNT(B) FROM R1 GROUP BY A");
        let v = canon("SELECT A FROM R1");
        let rewritings = rewrite_all(&q, &v, "V", &["A"]);
        assert_eq!(rewritings.len(), 1);
        assert_eq!(
            rewritings[0].to_query().to_string(),
            "SELECT V.A, COUNT(V.A) FROM V GROUP BY V.A"
        );
    }

    #[test]
    fn residual_condition_not_expressible_fails() {
        // Conds(Q) constrains B (via A = B) but the view exposes neither
        // the equality nor B — no residual can reconstruct it.
        let q = canon("SELECT A FROM R1 WHERE A = B");
        let v = canon("SELECT A FROM R1");
        assert!(rewrite_all(&q, &v, "V", &["A"]).is_empty());
    }

    #[test]
    fn view_exposing_both_columns_carries_equality() {
        let q = canon("SELECT A FROM R1 WHERE A = B");
        let v = canon("SELECT A, B FROM R1");
        let rewritings = rewrite_all(&q, &v, "V", &["A", "B"]);
        assert_eq!(rewritings.len(), 1);
        assert_eq!(
            rewritings[0].to_query().to_string(),
            "SELECT V.A FROM V WHERE V.A = V.B"
        );
    }

    #[test]
    fn partial_replacement_keeps_other_tables() {
        let q = canon("SELECT A, D FROM R1, R2 WHERE A = C AND B = 1");
        let v = canon("SELECT A FROM R1 WHERE B = 1");
        let rewritings = rewrite_all(&q, &v, "V", &["A"]);
        assert_eq!(rewritings.len(), 1);
        let sql = rewritings[0].to_query().to_string();
        assert_eq!(sql, "SELECT V.A, R2.D FROM R2, V WHERE V.A = R2.C");
    }

    #[test]
    fn equality_exposure_substitutes_select_column() {
        // Query selects A; view exposes only C, but Conds(Q) forces A = C
        // — condition C2's B_A via implied equality (the Example 1.1
        // pattern that [GHQ95]-style syntactic matching misses).
        let q = canon("SELECT A FROM R1, R2 WHERE A = C AND D = 2");
        let v = canon("SELECT C, D FROM R1, R2 WHERE A = C");
        let rewritings = rewrite_all(&q, &v, "V", &["C", "D"]);
        assert_eq!(rewritings.len(), 1);
        assert_eq!(
            rewritings[0].to_query().to_string(),
            "SELECT V.C FROM V WHERE V.D = 2"
        );
    }

    #[test]
    fn having_aggregate_uses_c4() {
        let q = canon("SELECT A FROM R1 GROUP BY A HAVING SUM(B) > 3");
        let v_bad = canon("SELECT A FROM R1");
        assert!(rewrite_all(&q, &v_bad, "V", &["A"]).is_empty());
        let v_ok = canon("SELECT A, B FROM R1");
        let rewritings = rewrite_all(&q, &v_ok, "V", &["A", "B"]);
        assert_eq!(rewritings.len(), 1);
        assert_eq!(
            rewritings[0].to_query().to_string(),
            "SELECT V.A FROM V GROUP BY V.A HAVING SUM(V.B) > 3"
        );
    }

    #[test]
    fn self_join_view_both_mappings_usable() {
        let q = canon("SELECT x.A, y.B FROM R1 x, R1 y");
        let v = canon("SELECT u.A, u.B, w.A, w.B FROM R1 u, R1 w");
        let rewritings = rewrite_all(&q, &v, "V", &["A1", "B1", "A2", "B2"]);
        // Both assignments of (u,w) to (x,y) work and give distinct
        // (but equivalent) rewritings.
        assert_eq!(rewritings.len(), 2);
        for rw in &rewritings {
            assert_eq!(rw.tables.len(), 1);
            assert_eq!(rw.tables[0].base, "V");
        }
    }

    #[test]
    fn inequality_conditions_supported() {
        let q = canon("SELECT A FROM R1 WHERE A < B AND B <= 10");
        let v = canon("SELECT A, B FROM R1 WHERE A < B");
        let rewritings = rewrite_all(&q, &v, "V", &["A", "B"]);
        assert_eq!(rewritings.len(), 1);
        assert_eq!(
            rewritings[0].to_query().to_string(),
            "SELECT V.A FROM V WHERE V.B <= 10"
        );
    }

    #[test]
    fn distinct_view_is_not_conjunctive() {
        let v = canon("SELECT DISTINCT A FROM R1");
        assert!(!is_conjunctive(&v));
        let v2 = canon("SELECT A, COUNT(B) FROM R1 GROUP BY A");
        assert!(!is_conjunctive(&v2));
        let v3 = canon("SELECT A FROM R1");
        assert!(is_conjunctive(&v3));
    }

    #[test]
    fn view_with_stronger_inequality_rejected() {
        // View keeps B < 5; query wants B < 10 — the view discards tuples
        // with 5 <= B < 10 that the query needs.
        let q = canon("SELECT A, B FROM R1 WHERE B < 10");
        let v = canon("SELECT A, B FROM R1 WHERE B < 5");
        assert!(rewrite_all(&q, &v, "V", &["A", "B"]).is_empty());
    }

    #[test]
    fn query_with_stronger_inequality_accepted() {
        // View keeps B < 10; query wants B < 5 — residual B < 5 works.
        let q = canon("SELECT A, B FROM R1 WHERE B < 5");
        let v = canon("SELECT A, B FROM R1 WHERE B < 10");
        let rewritings = rewrite_all(&q, &v, "V", &["A", "B"]);
        assert_eq!(rewritings.len(), 1);
        assert_eq!(
            rewritings[0].to_query().to_string(),
            "SELECT V.A, V.B FROM V WHERE V.B < 5"
        );
    }
}
