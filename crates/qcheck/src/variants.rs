//! Constant-only variants of a case's query.
//!
//! The plan cache serves a query from a template of another one when
//! their constants compare alike with each other and with the views'
//! constants (the order type). Each variant keeps the query's shape and
//! redraws every integer constant of its `WHERE` and `HAVING` from the
//! constants of the case (the views' and the query's), their
//! neighbours, and one value beyond each end, so variants land on,
//! between and past the views' constants, where usability flips. The
//! draws are a pure function of the case, so a shrunk case keeps
//! drawing from its own constants.

use crate::case::Case;
use aggview_sql::ast::{BoolExpr, Expr, Literal};
use aggview_sql::Query;
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::SeedableRng;
use std::collections::BTreeSet;
use std::hash::{DefaultHasher, Hash, Hasher};

/// Variants asked per case and lattice point.
pub(crate) const VARIANTS: usize = 4;

/// The constant-only variants of `case.query` (none when it has no
/// integer constant).
pub(crate) fn variants(case: &Case) -> Vec<Query> {
    let mut constants = BTreeSet::new();
    let queries = case.views.iter().map(|v| &v.query).chain([&case.query]);
    for q in queries {
        for b in q.where_clause.iter().chain(&q.having) {
            for_each_cmp(b, &mut |e| {
                if let Some(v) = int_of(e) {
                    constants.insert(v);
                }
            });
        }
    }
    let (Some(&lo), Some(&hi)) = (constants.first(), constants.last()) else {
        return Vec::new();
    };
    let mut draws: BTreeSet<i64> = constants
        .iter()
        .flat_map(|&c| [c.saturating_sub(1), c, c.saturating_add(1)])
        .collect();
    draws.extend([lo.saturating_sub(2), hi.saturating_add(2)]);
    let draws: Vec<i64> = draws.into_iter().collect();
    let mut hasher = DefaultHasher::new();
    case.to_string().hash(&mut hasher);
    let mut rng = StdRng::seed_from_u64(hasher.finish());
    (0..VARIANTS)
        .map(|_| {
            let mut q = case.query.clone();
            for b in q.where_clause.iter_mut().chain(&mut q.having) {
                for_each_cmp_mut(b, &mut |e| {
                    if int_of(e).is_some() {
                        *e = int_expr(*draws.choose(&mut rng).expect("non-empty"));
                    }
                });
            }
            q
        })
        .collect()
}

/// The integer an operand denotes, when it is an integer constant.
fn int_of(e: &Expr) -> Option<i64> {
    match e {
        Expr::Literal(Literal::Int(v)) => Some(*v),
        Expr::Neg(inner) => int_of(inner).map(i64::wrapping_neg),
        _ => None,
    }
}

/// `v` as the parser would print it back.
fn int_expr(v: i64) -> Expr {
    if v < 0 {
        Expr::Neg(Box::new(Expr::int(v.wrapping_neg())))
    } else {
        Expr::int(v)
    }
}

fn for_each_cmp(b: &BoolExpr, f: &mut impl FnMut(&Expr)) {
    match b {
        BoolExpr::Cmp { lhs, rhs, .. } => {
            f(lhs);
            f(rhs);
        }
        BoolExpr::And(x, y) => {
            for_each_cmp(x, f);
            for_each_cmp(y, f);
        }
    }
}

fn for_each_cmp_mut(b: &mut BoolExpr, f: &mut impl FnMut(&mut Expr)) {
    match b {
        BoolExpr::Cmp { lhs, rhs, .. } => {
            f(lhs);
            f(rhs);
        }
        BoolExpr::And(x, y) => {
            for_each_cmp_mut(x, f);
            for_each_cmp_mut(y, f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate, CaseConfig};

    #[test]
    fn variants_are_deterministic_and_keep_the_shape() {
        let mut with_constants = 0;
        for seed in 0..40 {
            let case = generate(seed, &CaseConfig::default());
            let vs = variants(&case);
            assert_eq!(vs, variants(&case));
            for v in &vs {
                assert_eq!(v.select, case.query.select);
                assert_eq!(v.from, case.query.from);
                assert_eq!(v.group_by, case.query.group_by);
            }
            with_constants += usize::from(!vs.is_empty());
        }
        assert!(with_constants > 10, "{with_constants} cases had constants");
    }
}
