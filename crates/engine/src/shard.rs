//! Sharded scatter-gather aggregation: the stable hash partitioner and the
//! paper's partial-aggregate recombination algebra (§4).
//!
//! A [`crate::snapshot::SnapshotCell`]-backed store can be split into N
//! independent shards by hash-partitioning every base table on a designated
//! grouping column. Section 4's multiplicity-recovery identities make the
//! cross-shard merge a *re-aggregation*:
//!
//! | original aggregate | scatter (per shard) | gather (recombination)   |
//! |--------------------|---------------------|--------------------------|
//! | `SUM(e)`           | `SUM(e)`            | SUM of partial SUMs      |
//! | `COUNT(e)`/`COUNT(*)` | `COUNT(...)`     | SUM of partial COUNTs    |
//! | `MIN(e)`           | `MIN(e)`            | MIN of partial MINs      |
//! | `MAX(e)`           | `MAX(e)`            | MAX of partial MAXs      |
//! | `AVG(e)`           | `SUM(e)`, `COUNT(e)` | SUM-of-SUMs / SUM-of-COUNTs (§4.4) |
//!
//! AVG is *not* merged as an average of averages — that is unsound under
//! uneven shard sizes (the counterexample in `tests/paper_examples.rs`); it
//! is recovered through the SUM/COUNT identity instead.
//!
//! When the query groups **by the shard column itself**, hash partitioning
//! guarantees each group lives on exactly one shard, so the gather
//! degenerates to a disjoint union of the per-shard answers ([`GatherPlan::Concat`]).
//! Everything this module cannot prove decomposable (joins, relations with
//! no resolvable shard column, non-grouped column shapes) is reported as
//! [`GatherPlan::Fallback`] and must be evaluated by the caller against the
//! unioned database.

use std::collections::HashMap;

use aggview_catalog::TableSchema;
use aggview_sql::ast::{AggCall, AggFunc, BoolExpr, ColumnRef, Expr, Query, SelectItem, TableRef};

use crate::agg::Accumulator;
use crate::error::{EngineError, EngineResult};
use crate::relation::Relation;
use crate::value::{self, Value};

/// Values that decline stable hashing (past the 2^53 exactness edge, or
/// non-finite doubles) are routed to this fixed shard, so routing stays
/// deterministic even where Int/Double twin-key equality breaks down.
pub const FALLBACK_SHARD: usize = 0;

/// 2^53: beyond this an f64 no longer represents every integer exactly, so
/// Int/Double twin keys stop being reliable (same edge `GroupIndex` uses).
const F64_EXACT: f64 = 9007199254740992.0;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn fnv_tagged(tag: u8, bytes: &[u8]) -> u64 {
    fnv1a(fnv1a(FNV_OFFSET, &[tag]), bytes)
}

/// Stable 64-bit hash of a shard-key value, or `None` when the value
/// declines (see [`FALLBACK_SHARD`]).
///
/// Mirrors the `GroupIndex` cross-type twin-key normalization: `Int(x)` and
/// `Double(x.0)` below 2^53 collapse to the same integer key (so `1` and
/// `1.0` land on the same shard, matching SQL `=`), while values at or past
/// 2^53 and non-finite doubles decline.
pub fn stable_shard_hash(v: &Value) -> Option<u64> {
    match v {
        Value::Int(x) => {
            if (x.unsigned_abs() as f64) < F64_EXACT {
                Some(fnv_tagged(1, &x.to_le_bytes()))
            } else {
                None
            }
        }
        Value::Double(d) => {
            if !d.is_finite() || d.abs() >= F64_EXACT {
                None
            } else if d.fract() == 0.0 {
                // Same bytes as the twin Int key.
                Some(fnv_tagged(1, &(*d as i64).to_le_bytes()))
            } else {
                Some(fnv_tagged(2, &d.to_bits().to_le_bytes()))
            }
        }
        Value::Str(s) => Some(fnv_tagged(3, s.as_bytes())),
        Value::Bool(b) => Some(fnv_tagged(4, &[*b as u8])),
    }
}

/// Which of `shards` shards owns a row whose shard-column value is `v`.
pub fn shard_of_value(v: &Value, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    match stable_shard_hash(v) {
        Some(h) => (h % shards as u64) as usize,
        None => FALLBACK_SHARD,
    }
}

/// The designated partitioning column of a base table: the first column of
/// the first declared key, or column 0 for keyless tables (the qcheck and
/// corpus shapes — their grouping column `A` is column 0).
pub fn shard_column(schema: &TableSchema) -> usize {
    schema
        .keys
        .first()
        .and_then(|k| k.first())
        .copied()
        .unwrap_or(0)
}

/// How to recombine one scatter output column at the gather step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeOp {
    /// SUM of partial SUMs (§4: `SUM` distributes over a partition).
    Sum,
    /// SUM of partial COUNTs — partials are `Int` counts, so the merged
    /// value stays `Int`, matching an unsharded `COUNT`.
    SumOfCounts,
    /// MIN of partial MINs.
    Min,
    /// MAX of partial MAXs.
    Max,
}

impl MergeOp {
    fn accumulator(self) -> Accumulator {
        match self {
            MergeOp::Sum | MergeOp::SumOfCounts => Accumulator::new(AggFunc::Sum),
            MergeOp::Min => Accumulator::new(AggFunc::Min),
            MergeOp::Max => Accumulator::new(AggFunc::Max),
        }
    }
}

/// How one original aggregate call reads its merged value out of the slots.
#[derive(Debug, Clone, PartialEq, Eq)]
enum CallMerge {
    /// The finished value of slot `i`.
    Slot(usize),
    /// `AVG` recovered via §4.4: finished SUM slot / finished COUNT slot.
    AvgOf { sum: usize, count: usize },
}

/// A fully planned re-aggregation: the partial query to scatter and the
/// recombination recipe for the gather step.
#[derive(Debug, Clone)]
pub struct ReaggPlan {
    /// The partial-aggregate query sent to every shard. Its output is the
    /// group-by columns (aliased `g0..`) followed by one partial aggregate
    /// per slot (aliased `p0..`); HAVING is stripped (re-applied at the
    /// gather, where the merged aggregates are known) and DISTINCT cleared.
    pub scatter: Query,
    /// The original GROUP BY columns (first `group_cols().len()` scatter
    /// output columns).
    group_cols: Vec<ColumnRef>,
    /// Recombination operator per partial slot.
    slots: Vec<MergeOp>,
    /// Original aggregate call → merged-value recipe.
    calls: Vec<(AggCall, CallMerge)>,
}

impl ReaggPlan {
    /// How many partial-aggregate slots the scatter query carries (shared
    /// sub-aggregates — e.g. the SUM under an AVG — are deduplicated).
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }
}

/// The gather strategy for one query against a sharded store.
#[derive(Debug, Clone)]
pub enum GatherPlan {
    /// Each group (or row) lives on exactly one shard: the answer is the
    /// disjoint union of the per-shard answers of the *original* query.
    Concat,
    /// Scatter a partial-aggregate query and re-aggregate at the gather.
    Reaggregate(Box<ReaggPlan>),
    /// Not shard-decomposable; evaluate against the unioned database.
    Fallback(&'static str),
}

/// Does `cref` name `col` of the FROM relation `rel` (respecting an alias)?
/// Public because the serving layer's view-alignment resolver applies
/// the same matching rule when it walks view definitions.
pub fn refers_to(cref: &ColumnRef, rel: &TableRef, col: &str) -> bool {
    cref.column == col
        && match &cref.table {
            None => true,
            Some(q) => q == rel.binding_name() || *q == rel.table,
        }
}

/// Is `cref` one of the GROUP BY columns (matched by name + qualifier)?
fn group_position(cref: &ColumnRef, group_by: &[ColumnRef]) -> Option<usize> {
    group_by.iter().position(|g| {
        g.column == cref.column
            && match (&g.table, &cref.table) {
                (Some(a), Some(b)) => a == b,
                _ => true,
            }
    })
}

fn collect_calls<'a>(e: &'a Expr, out: &mut Vec<&'a AggCall>) {
    match e {
        Expr::Agg(c) => out.push(c),
        Expr::Binary { lhs, rhs, .. } => {
            collect_calls(lhs, out);
            collect_calls(rhs, out);
        }
        Expr::Neg(inner) => collect_calls(inner, out),
        Expr::Column(_) | Expr::Literal(_) => {}
    }
}

/// Every column referenced *outside* aggregate arguments must be a GROUP BY
/// column for the re-aggregation plan to be evaluable at the gather.
fn non_grouped_column(e: &Expr, group_by: &[ColumnRef]) -> bool {
    match e {
        Expr::Column(c) => group_position(c, group_by).is_none(),
        Expr::Literal(_) | Expr::Agg(_) => false,
        Expr::Binary { lhs, rhs, .. } => {
            non_grouped_column(lhs, group_by) || non_grouped_column(rhs, group_by)
        }
        Expr::Neg(inner) => non_grouped_column(inner, group_by),
    }
}

fn bool_exprs(b: &BoolExpr) -> Vec<(&Expr, &Expr)> {
    b.conjuncts()
        .iter()
        .filter_map(|c| match c {
            BoolExpr::Cmp { lhs, rhs, .. } => Some((lhs, rhs)),
            BoolExpr::And(..) => None,
        })
        .collect()
}

/// Plan the gather for `q` against a store of partitioned relations.
///
/// `shard_col` resolves a FROM relation name to the *name* of the column it
/// is partitioned on, or `None` when the relation is not partition-aligned
/// (e.g. a view whose groups straddle shards). Base tables always resolve;
/// views resolve recursively at the caller.
pub fn plan_gather(q: &Query, shard_col: &dyn Fn(&str) -> Option<String>) -> GatherPlan {
    if q.from.len() != 1 {
        return GatherPlan::Fallback("multi-relation FROM");
    }
    let rel = &q.from[0];
    let Some(col) = shard_col(&rel.table) else {
        return GatherPlan::Fallback("FROM relation has no shard-aligned column");
    };

    let mut calls: Vec<&AggCall> = Vec::new();
    for item in &q.select {
        collect_calls(&item.expr, &mut calls);
    }
    if let Some(h) = &q.having {
        for (l, r) in bool_exprs(h) {
            collect_calls(l, &mut calls);
            collect_calls(r, &mut calls);
        }
    }
    let has_agg = !calls.is_empty();

    // Grouped on the shard column: every group is wholly on one shard, so
    // per-shard evaluation (including HAVING) is exact and the gather is a
    // disjoint union.
    if q.group_by.iter().any(|c| refers_to(c, rel, &col)) {
        return GatherPlan::Concat;
    }
    // Plain selection/projection: rows partition across shards.
    if q.group_by.is_empty() && !has_agg {
        return GatherPlan::Concat;
    }

    // Re-aggregation. Reject shapes the engine itself would reject (the
    // caller's fallback reproduces the exact error text).
    for item in &q.select {
        if non_grouped_column(&item.expr, &q.group_by) {
            return GatherPlan::Fallback("non-grouped column in SELECT");
        }
    }
    if let Some(h) = &q.having {
        for (l, r) in bool_exprs(h) {
            if non_grouped_column(l, &q.group_by) || non_grouped_column(r, &q.group_by) {
                return GatherPlan::Fallback("non-grouped column in HAVING");
            }
        }
    }

    // One slot per distinct partial aggregate; AVG contributes a SUM and a
    // COUNT slot (shared with any standalone SUM/COUNT over the same arg).
    let mut slots: Vec<(AggCall, MergeOp)> = Vec::new();
    let mut slot_of = |scatter: AggCall, op: MergeOp| -> usize {
        match slots.iter().position(|(c, o)| *c == scatter && *o == op) {
            Some(i) => i,
            None => {
                slots.push((scatter, op));
                slots.len() - 1
            }
        }
    };
    let mut merged_calls: Vec<(AggCall, CallMerge)> = Vec::new();
    for call in calls {
        if merged_calls.iter().any(|(c, _)| c == call) {
            continue;
        }
        let merge = match call.func {
            AggFunc::Sum => CallMerge::Slot(slot_of(call.clone(), MergeOp::Sum)),
            AggFunc::Count => CallMerge::Slot(slot_of(call.clone(), MergeOp::SumOfCounts)),
            AggFunc::Min => CallMerge::Slot(slot_of(call.clone(), MergeOp::Min)),
            AggFunc::Max => CallMerge::Slot(slot_of(call.clone(), MergeOp::Max)),
            AggFunc::Avg => {
                let Some(arg) = call.arg.clone() else {
                    return GatherPlan::Fallback("AVG(*)");
                };
                let sum = slot_of(
                    AggCall {
                        func: AggFunc::Sum,
                        arg: Some(arg.clone()),
                    },
                    MergeOp::Sum,
                );
                let count = slot_of(
                    AggCall {
                        func: AggFunc::Count,
                        arg: Some(arg),
                    },
                    MergeOp::SumOfCounts,
                );
                CallMerge::AvgOf { sum, count }
            }
        };
        merged_calls.push((call.clone(), merge));
    }

    let mut select: Vec<SelectItem> = Vec::with_capacity(q.group_by.len() + slots.len());
    for (i, g) in q.group_by.iter().enumerate() {
        select.push(SelectItem::aliased(
            Expr::Column(g.clone()),
            format!("g{i}"),
        ));
    }
    for (i, (call, _)) in slots.iter().enumerate() {
        select.push(SelectItem::aliased(
            Expr::Agg(call.clone()),
            format!("p{i}"),
        ));
    }
    let scatter = Query {
        distinct: false,
        select,
        from: q.from.clone(),
        where_clause: q.where_clause.clone(),
        group_by: q.group_by.clone(),
        having: None,
    };
    GatherPlan::Reaggregate(Box::new(ReaggPlan {
        scatter,
        group_cols: q.group_by.clone(),
        slots: slots.into_iter().map(|(_, op)| op).collect(),
        calls: merged_calls,
    }))
}

/// Disjoint-union gather: concatenate per-shard answers in shard order,
/// deduplicating globally under `SELECT DISTINCT` (two shards may each hold
/// a row that projects to the same tuple).
pub fn merge_concat(q: &Query, parts: Vec<Relation>) -> Relation {
    let mut out = Relation::empty(q.output_names());
    for part in parts {
        for row in part.rows {
            out.push(row);
        }
    }
    if q.distinct {
        dedup(&mut out);
    }
    out
}

fn dedup(rel: &mut Relation) {
    let mut seen: std::collections::HashSet<Vec<Value>> = std::collections::HashSet::new();
    rel.rows.retain(|r| seen.insert(r.clone()));
}

impl ReaggPlan {
    /// Re-aggregate the per-shard partial answers into the final answer of
    /// the original query `q` (group merge → HAVING → SELECT → DISTINCT).
    ///
    /// Groups come out in first-seen order scanning shard 0, 1, ... — a
    /// permutation of the unsharded first-seen order (multiset-equal, not
    /// byte-equal; callers that need byte equality sort or mask).
    pub fn merge(&self, q: &Query, parts: &[Relation]) -> EngineResult<Relation> {
        let k = self.group_cols.len();
        let width = k + self.slots.len();
        let mut order: Vec<Vec<Value>> = Vec::new();
        let mut groups: HashMap<Vec<Value>, usize> = HashMap::new();
        let mut accs: Vec<Vec<Accumulator>> = Vec::new();
        for part in parts {
            if part.arity() != width {
                return Err(EngineError::TypeError(format!(
                    "partial answer arity {} does not match merge plan width {width}",
                    part.arity()
                )));
            }
            for row in &part.rows {
                let key = row[..k].to_vec();
                let gid = match groups.get(&key) {
                    Some(&g) => g,
                    None => {
                        let g = order.len();
                        groups.insert(key.clone(), g);
                        order.push(key);
                        accs.push(self.slots.iter().map(|op| op.accumulator()).collect());
                        g
                    }
                };
                for (j, acc) in accs[gid].iter_mut().enumerate() {
                    acc.update(&row[k + j])?;
                }
            }
        }

        let mut out = Relation::empty(q.output_names());
        'group: for (gid, key) in order.iter().enumerate() {
            let merged: Vec<Value> = accs[gid].iter().map(|a| a.finish()).collect();
            if let Some(h) = &q.having {
                if !self.eval_bool(h, key, &merged)? {
                    continue 'group;
                }
            }
            let mut cells = Vec::with_capacity(q.select.len());
            for item in &q.select {
                cells.push(self.eval_expr(&item.expr, key, &merged)?);
            }
            out.push(cells);
        }
        if q.distinct {
            dedup(&mut out);
        }
        Ok(out)
    }

    fn merged_call(&self, call: &AggCall, merged: &[Value]) -> EngineResult<Value> {
        let Some((_, recipe)) = self.calls.iter().find(|(c, _)| c == call) else {
            return Err(EngineError::TypeError(format!(
                "aggregate {}(...) missing from merge plan",
                call.func
            )));
        };
        match recipe {
            CallMerge::Slot(i) => Ok(merged[*i].clone()),
            CallMerge::AvgOf { sum, count } => {
                let (s, c) = (&merged[*sum], &merged[*count]);
                let (Some(s), Some(c)) = (s.as_f64(), c.as_f64()) else {
                    return Err(EngineError::TypeError(format!(
                        "AVG over non-numeric partials {} / {}",
                        s.type_name(),
                        c.type_name()
                    )));
                };
                // §4.4: AVG = SUM / COUNT; a group exists only if some
                // shard contributed at least one row, so COUNT >= 1.
                Ok(Value::Double(s / c))
            }
        }
    }

    fn eval_expr(&self, e: &Expr, key: &[Value], merged: &[Value]) -> EngineResult<Value> {
        match e {
            Expr::Column(c) => match group_position(c, &self.group_cols) {
                Some(i) => Ok(key[i].clone()),
                None => Err(EngineError::NonGroupedColumn(c.column.clone())),
            },
            Expr::Literal(l) => Ok(value::lit_value(l)),
            Expr::Agg(call) => self.merged_call(call, merged),
            Expr::Binary { lhs, op, rhs } => {
                let l = self.eval_expr(lhs, key, merged)?;
                let r = self.eval_expr(rhs, key, merged)?;
                let res = match op {
                    aggview_sql::ast::ArithOp::Add => value::add(&l, &r),
                    aggview_sql::ast::ArithOp::Sub => value::sub(&l, &r),
                    aggview_sql::ast::ArithOp::Mul => value::mul(&l, &r),
                    aggview_sql::ast::ArithOp::Div => {
                        if r.as_f64() == Some(0.0) {
                            return Err(EngineError::DivisionByZero);
                        }
                        value::div(&l, &r)
                    }
                };
                res.ok_or_else(|| {
                    EngineError::TypeError(format!(
                        "arithmetic on {} and {}",
                        l.type_name(),
                        r.type_name()
                    ))
                })
            }
            Expr::Neg(inner) => {
                let v = self.eval_expr(inner, key, merged)?;
                value::neg(&v)
                    .ok_or_else(|| EngineError::TypeError(format!("negation of {}", v.type_name())))
            }
        }
    }

    fn eval_bool(&self, b: &BoolExpr, key: &[Value], merged: &[Value]) -> EngineResult<bool> {
        match b {
            BoolExpr::And(l, r) => {
                Ok(self.eval_bool(l, key, merged)? && self.eval_bool(r, key, merged)?)
            }
            BoolExpr::Cmp { lhs, op, rhs } => {
                let l = self.eval_expr(lhs, key, merged)?;
                let r = self.eval_expr(rhs, key, merged)?;
                value::compare(&l, *op, &r).ok_or_else(|| {
                    EngineError::TypeError(format!(
                        "comparison of {} and {}",
                        l.type_name(),
                        r.type_name()
                    ))
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggview_sql::parse_query;

    fn rel(cols: &[&str], rows: &[&[i64]]) -> Relation {
        Relation::new(
            cols.iter().map(|c| c.to_string()),
            rows.iter()
                .map(|r| r.iter().map(|&v| Value::Int(v)).collect())
                .collect(),
        )
    }

    fn plan(sql: &str) -> GatherPlan {
        let q = parse_query(sql).unwrap();
        plan_gather(&q, &|name| (name == "S0").then(|| "A".to_string()))
    }

    // ---- satellite: the Int/Double 2^53 twin-key edge ----

    #[test]
    fn int_and_double_twins_land_on_the_same_shard() {
        for n in [2usize, 3, 4, 7] {
            for x in [0i64, 1, -1, 42, 1 << 40, (1 << 53) - 1] {
                assert_eq!(
                    shard_of_value(&Value::Int(x), n),
                    shard_of_value(&Value::Double(x as f64), n),
                    "Int({x}) and Double({x}.0) must route identically at {n} shards"
                );
            }
        }
    }

    #[test]
    fn twins_are_not_all_on_one_shard() {
        let hits: std::collections::HashSet<usize> =
            (0..64).map(|x| shard_of_value(&Value::Int(x), 4)).collect();
        assert!(hits.len() > 1, "64 keys all hashed to one of 4 shards");
    }

    #[test]
    fn uniform_keys_spread_evenly_across_shards() {
        // BENCH_6's bar: with uniform keys the fullest shard holds at most
        // 1.2x the mean.
        for n in [2usize, 4] {
            let mut counts = vec![0usize; n];
            for x in 0..4096 {
                counts[shard_of_value(&Value::Int(x), n)] += 1;
            }
            let mean = 4096.0 / n as f64;
            let max = *counts.iter().max().unwrap() as f64;
            assert!(max / mean <= 1.2, "{n} shards: {counts:?}");
        }
    }

    #[test]
    fn past_2_53_declines_to_the_fallback_shard() {
        let edge = 1i64 << 53;
        for v in [
            Value::Int(edge),
            Value::Int(-edge),
            Value::Int(i64::MAX),
            Value::Double(edge as f64),
            Value::Double(f64::NAN),
            Value::Double(f64::INFINITY),
        ] {
            assert_eq!(shard_of_value(&v, 4), FALLBACK_SHARD, "{v:?}");
            assert!(stable_shard_hash(&v).is_none(), "{v:?} must decline");
        }
        // Just inside the edge both twins still hash (and agree).
        let inside = (1i64 << 53) - 1;
        assert!(stable_shard_hash(&Value::Int(inside)).is_some());
        assert_eq!(
            shard_of_value(&Value::Int(inside), 4),
            shard_of_value(&Value::Double(inside as f64), 4)
        );
    }

    #[test]
    fn hash_is_stable_across_calls_and_types() {
        assert_eq!(
            stable_shard_hash(&Value::Int(7)),
            stable_shard_hash(&Value::Double(7.0))
        );
        assert_ne!(
            stable_shard_hash(&Value::Str("7".into())),
            stable_shard_hash(&Value::Int(7)),
            "strings must not collide with the integer twin-key space by type"
        );
        assert_eq!(shard_of_value(&Value::Int(7), 1), 0);
    }

    // ---- gather planning ----

    #[test]
    fn group_by_shard_column_concats() {
        assert!(matches!(
            plan("SELECT A, SUM(B) FROM S0 GROUP BY A"),
            GatherPlan::Concat
        ));
    }

    #[test]
    fn plain_projection_concats() {
        assert!(matches!(
            plan("SELECT B FROM S0 WHERE B < 3"),
            GatherPlan::Concat
        ));
    }

    #[test]
    fn group_by_other_column_reaggregates() {
        let GatherPlan::Reaggregate(p) = plan("SELECT B, AVG(C) FROM S0 GROUP BY B") else {
            panic!("expected re-aggregation");
        };
        // AVG scatters as SUM + COUNT, never as AVG.
        assert_eq!(p.slots, vec![MergeOp::Sum, MergeOp::SumOfCounts]);
        assert_eq!(p.scatter.group_by.len(), 1);
        assert!(p.scatter.having.is_none());
        let printed = p.scatter.to_string();
        assert!(printed.contains("SUM(C)"), "{printed}");
        assert!(printed.contains("COUNT(C)"), "{printed}");
        assert!(!printed.contains("AVG"), "{printed}");
    }

    #[test]
    fn join_falls_back() {
        let q = parse_query("SELECT S0.A FROM S0, S1 WHERE S0.A = S1.A").unwrap();
        assert!(matches!(
            plan_gather(&q, &|_| Some("A".to_string())),
            GatherPlan::Fallback(_)
        ));
    }

    #[test]
    fn unresolvable_relation_falls_back() {
        assert!(matches!(
            {
                let q = parse_query("SELECT B, SUM(C) FROM V GROUP BY B").unwrap();
                plan_gather(&q, &|_| None)
            },
            GatherPlan::Fallback(_)
        ));
    }

    #[test]
    fn scalar_aggregate_reaggregates_with_no_group_columns() {
        let GatherPlan::Reaggregate(p) = plan("SELECT SUM(B), COUNT(B) FROM S0") else {
            panic!("expected re-aggregation");
        };
        assert!(p.group_cols.is_empty());
        assert_eq!(p.slots, vec![MergeOp::Sum, MergeOp::SumOfCounts]);
    }

    // ---- merge execution ----

    #[test]
    fn reaggregation_matches_global_answer() {
        let q = parse_query("SELECT B, SUM(C), COUNT(C) FROM S0 GROUP BY B").unwrap();
        let GatherPlan::Reaggregate(p) = plan_gather(&q, &|_| Some("A".to_string())) else {
            panic!();
        };
        // Group B=1 straddles both shards: SUM 10+5, COUNT 2+1.
        let shard0 = rel(&["g0", "p0", "p1"], &[&[1, 10, 2], &[2, 7, 1]]);
        let shard1 = rel(&["g0", "p0", "p1"], &[&[1, 5, 1]]);
        let merged = p.merge(&q, &[shard0, shard1]).unwrap();
        assert_eq!(
            merged.rows,
            vec![
                vec![Value::Int(1), Value::Int(15), Value::Int(3)],
                vec![Value::Int(2), Value::Int(7), Value::Int(1)],
            ]
        );
    }

    #[test]
    fn having_applies_to_merged_aggregates_not_partials() {
        let q = parse_query("SELECT B, SUM(C) FROM S0 GROUP BY B HAVING SUM(C) > 12").unwrap();
        let GatherPlan::Reaggregate(p) = plan_gather(&q, &|_| Some("A".to_string())) else {
            panic!();
        };
        // Each partial SUM is <= 12; only the merged SUM (15) passes.
        let shard0 = rel(&["g0", "p0"], &[&[1, 10], &[2, 7]]);
        let shard1 = rel(&["g0", "p0"], &[&[1, 5]]);
        let merged = p.merge(&q, &[shard0, shard1]).unwrap();
        assert_eq!(merged.rows, vec![vec![Value::Int(1), Value::Int(15)]]);
    }
}
