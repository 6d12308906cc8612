//! Query evaluation under multiset semantics.
//!
//! Evaluation follows the paper's two-phase conceptual model (Section 5.1):
//! the `FROM` and `WHERE` clauses produce the *core table*, then `SELECT`,
//! `GROUP BY` and `HAVING` apply to it. The core table is built with a
//! greedy hash-join plan over the equality predicates so that the benchmark
//! sweeps (millions of `Calls` rows) run in sensible time; all other
//! predicates are applied as soon as their columns are bound.
//!
//! Evaluation is split into two phases so the serving path can cache work:
//!
//! * [`PhysicalPlan::compile`] resolves columns against a schema source,
//!   compiles scalar expressions and aggregate slots, and classifies the
//!   `WHERE` conjuncts (constant / single-occurrence / equi-join /
//!   residual). It never touches row data, so a compiled plan stays valid
//!   across `INSERT`/`DELETE` as long as the schemas it was compiled
//!   against are unchanged.
//! * [`PhysicalPlan::run`] binds the named relations in a database and
//!   evaluates. Join *order* is chosen here (greedily, by live filtered
//!   cardinalities — it is data-dependent and cheap); column resolution,
//!   expression compilation and predicate classification are not redone.
//!
//! When a scanned relation carries a [`GroupIndex`](crate::index::GroupIndex)
//! and the plan's local predicates bind every key column to a constant, the
//! scan becomes an index probe.

use crate::agg::Accumulator;
use crate::columnar::{Column, ColumnarRelation};
use crate::ctx::ExecContext;
use crate::database::Database;
use crate::error::{EngineError, EngineResult};
use crate::relation::Relation;
use crate::value::{self, Value};
use aggview_catalog::SchemaSource;
use aggview_sql::ast::{AggFunc, ArithOp, BoolExpr, CmpOp, ColumnRef, Expr, Query, TableRef};
use std::collections::HashMap;

/// Execute `query` against `db`, returning the result relation.
///
/// ```
/// use aggview_engine::{execute, Database, Relation, Value};
/// use aggview_sql::parse_query;
///
/// let mut db = Database::new();
/// db.insert("T", Relation::new(
///     ["a", "b"],
///     vec![
///         vec![Value::Int(1), Value::Int(10)],
///         vec![Value::Int(1), Value::Int(20)],
///         vec![Value::Int(2), Value::Int(30)],
///     ],
/// ));
/// let q = parse_query("SELECT a, SUM(b) FROM T GROUP BY a").unwrap();
/// let out = execute(&q, &db).unwrap();
/// assert_eq!(out.sorted_rows(), vec![
///     vec![Value::Int(1), Value::Int(30)],
///     vec![Value::Int(2), Value::Int(30)],
/// ]);
/// ```
pub fn execute(query: &Query, db: &Database) -> EngineResult<Relation> {
    execute_ctx(query, db, &ExecContext::new())
}

/// [`execute`] under an explicit [`ExecContext`] — the primary entry
/// point. The context selects the execution strategy (columnar vs.
/// row-at-a-time; both produce byte-identical results): `columnar: false`
/// is the oracle side of the row-vs-columnar differential axis.
pub fn execute_ctx(query: &Query, db: &Database, cx: &ExecContext) -> EngineResult<Relation> {
    let mut plan = PhysicalPlan::compile(query, db)?;
    plan.set_columnar(cx.columnar);
    plan.run(db)
}

/// Compiled scalar expression with resolved column slots (core-table
/// indexes) and aggregate references.
#[derive(Debug, Clone)]
enum CExpr {
    /// Core-table column.
    Col(usize),
    /// Constant.
    Lit(Value),
    /// Binary arithmetic.
    Bin(Box<CExpr>, ArithOp, Box<CExpr>),
    /// Negation.
    Neg(Box<CExpr>),
    /// Reference to aggregate slot `i` (grouped evaluation only).
    AggRef(usize),
}

/// A compiled comparison predicate.
#[derive(Debug, Clone)]
struct CPred {
    lhs: CExpr,
    op: CmpOp,
    rhs: CExpr,
}

/// One aggregate to compute: the function and its compiled argument
/// (`None` = `COUNT(*)`).
#[derive(Debug, Clone)]
struct AggSlot {
    func: AggFunc,
    arg: Option<CExpr>,
}

/// One `FROM` occurrence of a compiled plan: the relation is bound by
/// *name* at run time.
#[derive(Debug, Clone)]
struct PlanOcc {
    table: String,
    offset: usize,
    arity: usize,
}

/// Classification of a multi-occurrence `WHERE` conjunct.
#[derive(Debug, Clone, Copy)]
enum PredKind {
    /// Pure column-column equality between two occurrences: a hash-join
    /// key candidate (core column ids).
    Equi(usize, usize),
    /// Anything else: applied as soon as all its columns are bound.
    Residual,
}

/// A multi-occurrence `WHERE` conjunct with its referenced core columns.
#[derive(Debug, Clone)]
struct PlanPred {
    pred: CPred,
    cols: Vec<usize>,
    kind: PredKind,
}

/// A compiled physical plan: resolved columns, compiled expressions and
/// classified predicates, detached from any concrete row data. Compile
/// once with [`PhysicalPlan::compile`], re-execute with
/// [`PhysicalPlan::run`] as the data changes.
#[derive(Debug, Clone)]
pub struct PhysicalPlan {
    distinct: bool,
    output_names: Vec<String>,
    occs: Vec<PlanOcc>,
    n_core_cols: usize,
    grouped: bool,
    group_exprs: Vec<usize>, // core indexes of GROUP BY columns
    agg_slots: Vec<AggSlot>,
    select: Vec<CExpr>,
    having: Vec<CPred>,
    /// Multi-occurrence `WHERE` conjuncts (join keys and residuals).
    preds: Vec<PlanPred>,
    /// Single-occurrence conjuncts, pre-shifted into each occurrence's
    /// local column space (applied during the scan, or the index probe).
    local_preds: Vec<Vec<CPred>>,
    /// A constant `WHERE` conjunct evaluated to false at compile time.
    const_false: bool,
    /// Try the vectorized columnar path before the row interpreter (on by
    /// default; see [`PhysicalPlan::set_columnar`]).
    columnar: bool,
}

/// Compile-time state: per-occurrence schemas for column resolution.
pub(crate) struct Compiler {
    occs: Vec<PlanOcc>,
    occ_cols: Vec<Vec<String>>,
    grouped: bool,
    group_exprs: Vec<usize>,
    agg_slots: Vec<AggSlot>,
    bindings: Vec<String>,
}

impl PhysicalPlan {
    /// Compile `query` against a schema source (a [`Database`] works: it
    /// reports the schemas of its relations). Row data is not consulted.
    pub fn compile(query: &Query, schemas: &dyn SchemaSource) -> EngineResult<Self> {
        let mut c = Compiler::bind(&query.from, schemas)?;
        let n_core_cols = c.occs.iter().map(|o| o.arity).sum();

        // Grouping columns.
        for col in &query.group_by {
            let idx = c.resolve(col)?;
            c.group_exprs.push(idx);
        }

        let any_select_agg = query.select.iter().any(|s| s.expr.contains_aggregate());
        c.grouped = !query.group_by.is_empty() || any_select_agg || query.having.is_some();

        // Compile and classify WHERE (no aggregates allowed).
        let n_occ = c.occs.len();
        let mut preds: Vec<PlanPred> = Vec::new();
        let mut local_preds: Vec<Vec<CPred>> = vec![Vec::new(); n_occ];
        let mut const_false = false;
        if let Some(w) = &query.where_clause {
            for atom in w.conjuncts() {
                let BoolExpr::Cmp { lhs, op, rhs } = atom else {
                    unreachable!("conjuncts() yields comparisons");
                };
                if lhs.contains_aggregate() || rhs.contains_aggregate() {
                    return Err(EngineError::MisplacedAggregate);
                }
                let p = CPred {
                    lhs: c.compile_scalar(lhs)?,
                    op: *op,
                    rhs: c.compile_scalar(rhs)?,
                };
                let mut cols = Vec::new();
                collect_cols(&p.lhs, &mut cols);
                collect_cols(&p.rhs, &mut cols);
                let mut pred_occs: Vec<usize> =
                    cols.iter().map(|&col| occ_of(&c.occs, col)).collect();
                pred_occs.sort_unstable();
                pred_occs.dedup();
                match pred_occs.as_slice() {
                    [] => {
                        // Constant predicate: decided here, once. A false
                        // one empties the result.
                        if !eval_pred(&p, &[], &[])? {
                            const_false = true;
                        }
                    }
                    [oi] => {
                        let off = c.occs[*oi].offset;
                        local_preds[*oi].push(shift_pred(&p, off));
                    }
                    _ => {
                        let kind = match (&p.lhs, &p.rhs) {
                            (CExpr::Col(a), CExpr::Col(b)) if p.op == CmpOp::Eq => {
                                PredKind::Equi(*a, *b)
                            }
                            _ => PredKind::Residual,
                        };
                        cols.sort_unstable();
                        cols.dedup();
                        preds.push(PlanPred {
                            pred: p,
                            cols,
                            kind,
                        });
                    }
                }
            }
        }

        // Compile SELECT.
        let mut select = Vec::with_capacity(query.select.len());
        for item in &query.select {
            let compiled = if c.grouped {
                c.compile_grouped(&item.expr)?
            } else {
                c.compile_scalar(&item.expr)?
            };
            select.push(compiled);
        }

        // Compile HAVING.
        let mut having = Vec::new();
        if let Some(h) = &query.having {
            for atom in h.conjuncts() {
                let BoolExpr::Cmp { lhs, op, rhs } = atom else {
                    unreachable!("conjuncts() yields comparisons");
                };
                having.push(CPred {
                    lhs: c.compile_grouped(lhs)?,
                    op: *op,
                    rhs: c.compile_grouped(rhs)?,
                });
            }
        }

        Ok(PhysicalPlan {
            distinct: query.distinct,
            output_names: query.output_names(),
            occs: c.occs,
            n_core_cols,
            grouped: c.grouped,
            group_exprs: c.group_exprs,
            agg_slots: c.agg_slots,
            select,
            having,
            preds,
            local_preds,
            const_false,
            columnar: true,
        })
    }

    /// Enable or disable the vectorized columnar path for this plan
    /// (enabled by default). Disabled plans always take the row-at-a-time
    /// interpreter — the oracle side of the row-vs-columnar differential.
    pub fn set_columnar(&mut self, on: bool) {
        self.columnar = on;
    }

    /// Execute the compiled plan against `db`. The relations named by the
    /// plan's `FROM` occurrences must exist with the arity they were
    /// compiled against (callers caching plans across DDL guard this with
    /// an epoch; the arity check catches misuse).
    pub fn run(&self, db: &Database) -> EngineResult<Relation> {
        let mut rels: Vec<&Relation> = Vec::with_capacity(self.occs.len());
        for o in &self.occs {
            let r = db.get(&o.table)?;
            if r.arity() != o.arity {
                return Err(EngineError::TypeError(format!(
                    "stale plan: `{}` has arity {} but the plan was compiled with {}",
                    o.table,
                    r.arity(),
                    o.arity
                )));
            }
            rels.push(r);
        }

        if let Some(out) = self.run_vectorized(db)? {
            db.record(aggview_obs::CounterId::ExecVectorized, 1);
            return Ok(out);
        }
        db.record(aggview_obs::CounterId::ExecRowFallback, 1);

        let core = self.build_core(&rels, db)?;

        if !self.grouped {
            let mut out = Relation::empty(self.output_names.clone());
            for row in &core {
                let mut cells = Vec::with_capacity(self.select.len());
                for e in &self.select {
                    cells.push(eval(e, row, &[])?);
                }
                out.push(cells);
            }
            if self.distinct {
                dedup(&mut out);
            }
            return Ok(out);
        }

        // Grouped evaluation. Key = values of GROUP BY columns (the whole
        // input is one group when GROUP BY is empty and there is at least
        // one row).
        let mut groups: HashMap<Vec<Value>, (Vec<Value>, Vec<Accumulator>)> = HashMap::new();
        let mut group_order: Vec<Vec<Value>> = Vec::new();
        for row in &core {
            let key: Vec<Value> = self.group_exprs.iter().map(|&i| row[i].clone()).collect();
            let entry = groups.entry(key.clone()).or_insert_with(|| {
                group_order.push(key);
                (
                    row.clone(),
                    self.agg_slots
                        .iter()
                        .map(|s| Accumulator::new(s.func))
                        .collect(),
                )
            });
            for (slot, acc) in self.agg_slots.iter().zip(entry.1.iter_mut()) {
                match &slot.arg {
                    None => acc.update(&Value::Int(0))?, // COUNT(*): value ignored
                    Some(arg) => {
                        let v = eval(arg, row, &[])?;
                        acc.update(&v)?;
                    }
                }
            }
        }

        let mut out = Relation::empty(self.output_names.clone());
        'group: for key in &group_order {
            let (rep, accs) = &groups[key];
            let agg_values: Vec<Value> = accs.iter().map(|a| a.finish()).collect();
            for pred in &self.having {
                if !eval_pred(pred, rep, &agg_values)? {
                    continue 'group;
                }
            }
            let mut cells = Vec::with_capacity(self.select.len());
            for e in &self.select {
                cells.push(eval(e, rep, &agg_values)?);
            }
            out.push(cells);
        }
        if self.distinct {
            dedup(&mut out);
        }
        Ok(out)
    }

    /// Build the core table (FROM × WHERE) with a greedy hash-join plan.
    /// Returns rows in the *core column space* (concatenation of FROM
    /// occurrences in declaration order).
    fn build_core(&self, rels: &[&Relation], db: &Database) -> EngineResult<Vec<Vec<Value>>> {
        let n_occ = self.occs.len();
        if self.const_false || n_occ == 0 {
            return Ok(Vec::new());
        }

        // Scan (or index-probe) and locally filter each occurrence.
        let mut scans: Vec<Vec<Vec<Value>>> = Vec::with_capacity(n_occ);
        for (oi, rel) in rels.iter().enumerate() {
            scans.push(self.scan(oi, rel, db)?);
        }

        // Greedy join order: start with the smallest scan, then repeatedly
        // join the smallest occurrence connected by an equi predicate
        // (falling back to the smallest unconnected — a cross product).
        let mut applied = vec![false; self.preds.len()];
        let mut remaining: Vec<usize> = (0..n_occ).collect();
        remaining.sort_by_key(|&oi| scans[oi].len());
        let first = remaining.remove(0);

        // `layout[oi] = Some(offset in intermediate row)` once joined.
        let mut layout: Vec<Option<usize>> = vec![None; n_occ];
        layout[first] = Some(0);
        let mut width = self.occs[first].arity;
        let mut inter: Vec<Vec<Value>> = scans[first].clone();

        while !remaining.is_empty() {
            // Choose the next occurrence: connected and smallest.
            let connected_pos = remaining
                .iter()
                .position(|&oi| {
                    self.preds.iter().enumerate().any(|(pi, p)| {
                        !applied[pi]
                            && match p.kind {
                                PredKind::Equi(a, b) => {
                                    let (oa, ob) = (self.occ_of(a), self.occ_of(b));
                                    (oa == oi && layout[ob].is_some())
                                        || (ob == oi && layout[oa].is_some())
                                }
                                PredKind::Residual => false,
                            }
                    })
                })
                .unwrap_or(0);
            let next = remaining.remove(connected_pos);

            // Keys: every unapplied equi predicate between `next` and the
            // current layout.
            let mut build_cols = Vec::new(); // local to `next`
            let mut probe_cols = Vec::new(); // positions in intermediate
            for (pi, p) in self.preds.iter().enumerate() {
                let PredKind::Equi(a, b) = p.kind else {
                    continue;
                };
                if applied[pi] {
                    continue;
                }
                let (oa, ob) = (self.occ_of(a), self.occ_of(b));
                let (nc, ic) = if oa == next && layout[ob].is_some() {
                    (a, b)
                } else if ob == next && layout[oa].is_some() {
                    (b, a)
                } else {
                    continue;
                };
                build_cols.push(nc - self.occs[next].offset);
                probe_cols.push(
                    layout[self.occ_of(ic)].unwrap() + (ic - self.occs[self.occ_of(ic)].offset),
                );
                applied[pi] = true;
            }

            let next_rows = &scans[next];
            let mut joined: Vec<Vec<Value>> = Vec::new();
            if build_cols.is_empty() {
                // Cross product.
                joined.reserve(inter.len().saturating_mul(next_rows.len()));
                for l in &inter {
                    for r in next_rows {
                        let mut row = l.clone();
                        row.extend(r.iter().cloned());
                        joined.push(row);
                    }
                }
            } else {
                let mut table: HashMap<Vec<Value>, Vec<usize>> =
                    HashMap::with_capacity(next_rows.len());
                for (ri, r) in next_rows.iter().enumerate() {
                    let key: Vec<Value> = build_cols.iter().map(|&c| r[c].clone()).collect();
                    table.entry(key).or_default().push(ri);
                }
                for l in &inter {
                    let key: Vec<Value> = probe_cols.iter().map(|&c| l[c].clone()).collect();
                    if let Some(matches) = table.get(&key) {
                        for &ri in matches {
                            let mut row = l.clone();
                            row.extend(next_rows[ri].iter().cloned());
                            joined.push(row);
                        }
                    }
                }
            }
            layout[next] = Some(width);
            width += self.occs[next].arity;
            inter = joined;

            // Apply any not-yet-applied predicates whose columns are all
            // bound now (non-equi joins, redundant equalities, ...). The
            // predicate is remapped into the intermediate layout once, not
            // per row.
            let bound_preds: Vec<usize> = (0..self.preds.len())
                .filter(|&pi| {
                    !applied[pi]
                        && self.preds[pi]
                            .cols
                            .iter()
                            .all(|&col| layout[self.occ_of(col)].is_some())
                })
                .collect();
            if !bound_preds.is_empty() {
                let remap = self.remap_for(&layout);
                let remapped: Vec<CPred> = bound_preds
                    .iter()
                    .map(|&pi| remap_pred(&self.preds[pi].pred, &remap))
                    .collect();
                let mut filtered = Vec::with_capacity(inter.len());
                'jrow: for row in inter {
                    for p in &remapped {
                        if !eval_pred(p, &row, &[])? {
                            continue 'jrow;
                        }
                    }
                    filtered.push(row);
                }
                for pi in bound_preds {
                    applied[pi] = true;
                }
                inter = filtered;
            }
        }

        // Permute intermediate rows into core-column order.
        let remap = self.remap_for(&layout);
        let identity = remap.iter().enumerate().all(|(i, &p)| i == p);
        if identity {
            return Ok(inter);
        }
        Ok(inter
            .into_iter()
            .map(|row| remap.iter().map(|&p| row[p].clone()).collect())
            .collect())
    }

    /// Produce the locally filtered rows of occurrence `oi`: an index probe
    /// when the relation carries a [`GroupIndex`](crate::index::GroupIndex)
    /// whose key columns are all bound to constants, a scan otherwise.
    /// Both paths yield identical rows in identical order.
    fn scan(&self, oi: usize, rel: &Relation, db: &Database) -> EngineResult<Vec<Vec<Value>>> {
        let locals = &self.local_preds[oi];
        if let Some(rows) = self.index_probe(oi, rel, db)? {
            db.record(aggview_obs::CounterId::IndexProbes, 1);
            db.record(aggview_obs::CounterId::IndexProbeRows, rows.len() as u64);
            return Ok(rows);
        }
        let mut rows = Vec::new();
        'row: for r in &rel.rows {
            for p in locals {
                if !eval_pred(p, r, &[])? {
                    continue 'row;
                }
            }
            rows.push(r.clone());
        }
        Ok(rows)
    }

    /// Try to answer the scan of occurrence `oi` from an attached index:
    /// applicable when the local predicates bind every key column to a
    /// constant. Probes cover the numeric cross-type equalities of
    /// [`Value::cmp_sql`] (`1 = 1.0`); near the f64 precision edge the
    /// probe declines and the caller falls back to the scan.
    fn index_probe(
        &self,
        oi: usize,
        rel: &Relation,
        db: &Database,
    ) -> EngineResult<Option<Vec<Vec<Value>>>> {
        let Some(idx) = db.index(&self.occs[oi].table) else {
            return Ok(None);
        };
        let locals = &self.local_preds[oi];
        if locals.is_empty() {
            return Ok(None);
        }
        // Constant-equality bindings in the occurrence's local column space.
        let mut bound: HashMap<usize, &Value> = HashMap::new();
        for p in locals {
            if p.op != CmpOp::Eq {
                continue;
            }
            if let (CExpr::Col(c), CExpr::Lit(v)) | (CExpr::Lit(v), CExpr::Col(c)) =
                (&p.lhs, &p.rhs)
            {
                bound.entry(*c).or_insert(v);
            }
        }
        let mut per_col: Vec<Vec<Value>> = Vec::with_capacity(idx.key_cols().len());
        for &k in idx.key_cols() {
            let Some(v) = bound.get(&k) else {
                return Ok(None);
            };
            let Some(variants) = probe_variants(v) else {
                return Ok(None);
            };
            per_col.push(variants);
        }

        // Union the probe results over the cartesian product of the
        // per-column variants; ascending positions keep row order identical
        // to the scan path.
        let mut positions: Vec<usize> = Vec::new();
        let mut choice = vec![0usize; per_col.len()];
        loop {
            let key: Vec<Value> = per_col
                .iter()
                .zip(&choice)
                .map(|(vs, &i)| vs[i].clone())
                .collect();
            positions.extend_from_slice(idx.probe(&key));
            // Odometer over the variant choices.
            let mut digit = 0;
            loop {
                if digit == choice.len() {
                    positions.sort_unstable();
                    positions.dedup();
                    let mut rows = Vec::with_capacity(positions.len());
                    'row: for &ri in &positions {
                        let r = &rel.rows[ri];
                        for p in locals {
                            if !eval_pred(p, r, &[])? {
                                continue 'row;
                            }
                        }
                        rows.push(r.clone());
                    }
                    return Ok(Some(rows));
                }
                choice[digit] += 1;
                if choice[digit] < per_col[digit].len() {
                    break;
                }
                choice[digit] = 0;
                digit += 1;
            }
        }
    }

    /// Map core index → occurrence index.
    fn occ_of(&self, core: usize) -> usize {
        occ_of(&self.occs, core)
    }

    /// Map core index → position in the intermediate layout. Columns of
    /// occurrences not yet joined map to `usize::MAX` — callers only
    /// evaluate predicates whose columns are all bound.
    fn remap_for(&self, layout: &[Option<usize>]) -> Vec<usize> {
        let mut remap = vec![usize::MAX; self.n_core_cols];
        for (oi, occ) in self.occs.iter().enumerate() {
            let Some(base) = layout[oi] else { continue };
            for k in 0..occ.arity {
                remap[occ.offset + k] = base + k;
            }
        }
        remap
    }
}

// ---------------------------------------------------------------------------
// Vectorized (columnar) execution
// ---------------------------------------------------------------------------
//
// The vectorized path replaces the tuple-at-a-time interpreter with tight
// typed loops over whole columns: predicate evaluation produces a selection
// vector, projection gathers from columns, and grouped aggregation runs
// per-column accumulators driven by a group-id assignment. It only engages
// when every operator it would use is *total* — provably unable to error —
// so result bytes, output order, and error behavior are identical to the
// row path at every point of the qcheck lattice. Everything outside that
// subset (joins, mixed-type columns, NaN under comparison, arithmetic in
// predicates or aggregate arguments, scans an attached index might serve)
// declines, and the plan falls back to the row interpreter wholesale.

impl PhysicalPlan {
    /// Attempt vectorized execution. `Ok(None)` means the plan declined and
    /// the caller must run the row path; `Err` is a genuine execution error,
    /// identical to the one the row path would produce.
    fn run_vectorized(&self, db: &Database) -> EngineResult<Option<Relation>> {
        if !self.columnar || self.const_false || self.occs.len() != 1 || !self.preds.is_empty() {
            return Ok(None);
        }
        let occ = &self.occs[0];
        let locals = &self.local_preds[0];
        // An attached index may answer this scan as a probe (with its own
        // counters and cost profile) — let the row path decide.
        if !locals.is_empty() && db.index(&occ.table).is_some() {
            return Ok(None);
        }
        let Some(crel) = db.columnar(&occ.table) else {
            return Ok(None);
        };

        // Every local predicate must compile to a total typed kernel.
        let mut kernels = Vec::with_capacity(locals.len());
        for p in locals {
            match filter_kernel(&crel, p) {
                Some(k) => kernels.push(k),
                None => return Ok(None),
            }
        }

        if self.grouped {
            self.run_vectorized_grouped(&crel, &kernels)
        } else {
            self.run_vectorized_flat(&crel, &kernels)
        }
    }

    /// Ungrouped vectorized evaluation: selection vector, then projection.
    /// `Col`/`Lit`-only projections gather straight from the columns; any
    /// arithmetic materializes each selected row and reuses the scalar
    /// evaluator, so errors surface in the row path's order.
    fn run_vectorized_flat(
        &self,
        crel: &ColumnarRelation,
        kernels: &[FilterKernel<'_>],
    ) -> EngineResult<Option<Relation>> {
        let sel = select_rows(crel.n_rows(), kernels);
        let mut out = Relation::empty(self.output_names.clone());
        let simple = self
            .select
            .iter()
            .all(|e| matches!(e, CExpr::Col(_) | CExpr::Lit(_)));
        if simple {
            for i in sel.indices() {
                let cells = self
                    .select
                    .iter()
                    .map(|e| match e {
                        CExpr::Col(c) => crel.value(i, *c),
                        CExpr::Lit(v) => v.clone(),
                        _ => unreachable!("projection checked simple"),
                    })
                    .collect();
                out.push(cells);
            }
        } else {
            for i in sel.indices() {
                let row = crel.row(i);
                let mut cells = Vec::with_capacity(self.select.len());
                for e in &self.select {
                    cells.push(eval(e, &row, &[])?);
                }
                out.push(cells);
            }
        }
        if self.distinct {
            dedup(&mut out);
        }
        Ok(Some(out))
    }

    /// Grouped vectorized evaluation: assign group ids in first-seen order
    /// (the row path's `group_order`), accumulate per column, then emit one
    /// row per group through the existing HAVING/SELECT evaluator over the
    /// group's representative (first) row.
    fn run_vectorized_grouped(
        &self,
        crel: &ColumnarRelation,
        kernels: &[FilterKernel<'_>],
    ) -> EngineResult<Option<Relation>> {
        // Every aggregate slot must be computable by a total typed loop.
        let mut vaccs = Vec::with_capacity(self.agg_slots.len());
        for slot in &self.agg_slots {
            match vacc_for(crel, slot) {
                Some(a) => vaccs.push(a),
                None => return Ok(None),
            }
        }
        let sel = select_rows(crel.n_rows(), kernels);

        let mut grouper = Grouper::new(crel, &self.group_exprs);
        let mut reps: Vec<usize> = Vec::new();
        for i in sel.indices() {
            let gid = grouper.gid(i);
            if gid == reps.len() {
                reps.push(i);
            }
            for a in &mut vaccs {
                a.update(gid, i);
            }
        }

        let mut out = Relation::empty(self.output_names.clone());
        'group: for (gid, &rep_row) in reps.iter().enumerate() {
            let rep = crel.row(rep_row);
            let agg_values: Vec<Value> = vaccs.iter().map(|a| a.finish(gid)).collect();
            for pred in &self.having {
                if !eval_pred(pred, &rep, &agg_values)? {
                    continue 'group;
                }
            }
            let mut cells = Vec::with_capacity(self.select.len());
            for e in &self.select {
                cells.push(eval(e, &rep, &agg_values)?);
            }
            out.push(cells);
        }
        if self.distinct {
            dedup(&mut out);
        }
        Ok(Some(out))
    }
}

/// A clean numeric column viewed as f64 — the representation [`value`]'s
/// cross-type comparison and `AVG` use (`as_f64`).
#[derive(Clone, Copy)]
enum NumSlice<'a> {
    I(&'a [i64]),
    F(&'a [f64]),
}

impl NumSlice<'_> {
    fn get(&self, i: usize) -> f64 {
        match self {
            NumSlice::I(v) => v[i] as f64,
            NumSlice::F(v) => v[i],
        }
    }
}

/// Numeric view of a clean column (NaN permitted — callers that compare
/// must use [`num_slice_for_cmp`]).
fn num_slice(col: &Column) -> Option<NumSlice<'_>> {
    if let Some(v) = col.ints() {
        Some(NumSlice::I(v))
    } else {
        col.doubles().map(NumSlice::F)
    }
}

/// Numeric view for comparison kernels: declines Double columns holding
/// NaN (incomparable under [`Value::cmp_sql`] — the row path raises a
/// TypeError, so the vectorized path must not run at all).
fn num_slice_for_cmp(col: &Column) -> Option<NumSlice<'_>> {
    if col.has_nan() {
        None
    } else {
        num_slice(col)
    }
}

/// A total typed predicate loop: one local conjunct whose row-at-a-time
/// evaluation can never error, applied column-wise. Literal-on-the-left
/// comparisons are stored with the mirrored operator.
enum FilterKernel<'a> {
    IntLit(&'a [i64], CmpOp, i64),
    NumLit(NumSlice<'a>, CmpOp, f64),
    StrLit(&'a [String], CmpOp, String),
    BoolLit(&'a [bool], CmpOp, bool),
    IntCol(&'a [i64], CmpOp, &'a [i64]),
    NumCol(NumSlice<'a>, CmpOp, NumSlice<'a>),
    StrCol(&'a [String], CmpOp, &'a [String]),
    BoolCol(&'a [bool], CmpOp, &'a [bool]),
}

impl FilterKernel<'_> {
    fn keep(&self, i: usize) -> bool {
        match self {
            FilterKernel::IntLit(c, op, k) => ord_keep(c[i].cmp(k), *op),
            FilterKernel::NumLit(c, op, k) => num_keep(c.get(i), *op, *k),
            FilterKernel::StrLit(c, op, k) => ord_keep(c[i].as_str().cmp(k.as_str()), *op),
            FilterKernel::BoolLit(c, op, k) => ord_keep(c[i].cmp(k), *op),
            FilterKernel::IntCol(a, op, b) => ord_keep(a[i].cmp(&b[i]), *op),
            FilterKernel::NumCol(a, op, b) => num_keep(a.get(i), *op, b.get(i)),
            FilterKernel::StrCol(a, op, b) => ord_keep(a[i].cmp(&b[i]), *op),
            FilterKernel::BoolCol(a, op, b) => ord_keep(a[i].cmp(&b[i]), *op),
        }
    }
}

/// Compile one local predicate into a kernel, or `None` when its shape or
/// column data falls outside the total typed subset. Type pairs that
/// [`Value::cmp_sql`] rejects (string vs. number, ...) also land here — the
/// row path then surfaces the TypeError exactly as before.
fn filter_kernel<'a>(crel: &'a ColumnarRelation, p: &CPred) -> Option<FilterKernel<'a>> {
    // Orient as `column op rhs`, mirroring the operator when the column is
    // on the right.
    let (ci, op, rhs) = match (&p.lhs, &p.rhs) {
        (CExpr::Col(c), rhs) => (*c, p.op, rhs),
        (lhs, CExpr::Col(c)) => (*c, flip(p.op), lhs),
        _ => return None,
    };
    let col = crel.col(ci);
    match rhs {
        CExpr::Lit(v) => match v {
            Value::Int(k) => {
                if let Some(c) = col.ints() {
                    return Some(FilterKernel::IntLit(c, op, *k));
                }
                match num_slice_for_cmp(col)? {
                    c @ NumSlice::F(_) => Some(FilterKernel::NumLit(c, op, *k as f64)),
                    NumSlice::I(_) => None,
                }
            }
            Value::Double(d) if !d.is_nan() => {
                num_slice_for_cmp(col).map(|c| FilterKernel::NumLit(c, op, *d))
            }
            Value::Str(s) => col.strs().map(|c| FilterKernel::StrLit(c, op, s.clone())),
            Value::Bool(b) => col.bools().map(|c| FilterKernel::BoolLit(c, op, *b)),
            _ => None,
        },
        CExpr::Col(c2) => {
            let other = crel.col(*c2);
            if let (Some(a), Some(b)) = (col.ints(), other.ints()) {
                return Some(FilterKernel::IntCol(a, op, b));
            }
            if let (Some(a), Some(b)) = (num_slice_for_cmp(col), num_slice_for_cmp(other)) {
                return Some(FilterKernel::NumCol(a, op, b));
            }
            if let (Some(a), Some(b)) = (col.strs(), other.strs()) {
                return Some(FilterKernel::StrCol(a, op, b));
            }
            if let (Some(a), Some(b)) = (col.bools(), other.bools()) {
                return Some(FilterKernel::BoolCol(a, op, b));
            }
            None
        }
        _ => None,
    }
}

/// Mirror a comparison so `lit op col` becomes `col (flip op) lit`.
fn flip(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Eq | CmpOp::Ne => op,
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
    }
}

/// The op-to-ordering mapping of [`value::compare`].
fn ord_keep(ord: std::cmp::Ordering, op: CmpOp) -> bool {
    use std::cmp::Ordering::{Equal, Greater, Less};
    match op {
        CmpOp::Eq => ord == Equal,
        CmpOp::Ne => ord != Equal,
        CmpOp::Lt => ord == Less,
        CmpOp::Le => ord != Greater,
        CmpOp::Gt => ord == Greater,
        CmpOp::Ge => ord != Less,
    }
}

fn num_keep(a: f64, op: CmpOp, b: f64) -> bool {
    match a.partial_cmp(&b) {
        Some(ord) => ord_keep(ord, op),
        None => unreachable!("NaN excluded at kernel build"),
    }
}

/// The rows surviving the filter kernels. `All` avoids materializing an
/// identity index vector for unfiltered scans.
enum Sel {
    All(usize),
    Rows(Vec<usize>),
}

impl Sel {
    fn indices(&self) -> SelIter<'_> {
        match self {
            Sel::All(n) => SelIter::All(0..*n),
            Sel::Rows(v) => SelIter::Rows(v.iter()),
        }
    }
}

enum SelIter<'a> {
    All(std::ops::Range<usize>),
    Rows(std::slice::Iter<'a, usize>),
}

impl Iterator for SelIter<'_> {
    type Item = usize;
    fn next(&mut self) -> Option<usize> {
        match self {
            SelIter::All(r) => r.next(),
            SelIter::Rows(it) => it.next().copied(),
        }
    }
}

/// Run every kernel over the columns, producing the selection (ascending
/// row order, same as the scan path).
fn select_rows(n: usize, kernels: &[FilterKernel<'_>]) -> Sel {
    let Some((first, rest)) = kernels.split_first() else {
        return Sel::All(n);
    };
    let mut rows: Vec<usize> = (0..n).filter(|&i| first.keep(i)).collect();
    for k in rest {
        rows.retain(|&i| k.keep(i));
    }
    Sel::Rows(rows)
}

/// Group-id assignment in first-seen order (ids are allocated densely, so
/// the output loop over ascending ids reproduces the row path's
/// `group_order` exactly).
enum Grouper<'a> {
    /// Single clean Int grouping column: i64 hash keys, no `Value` clones.
    Int {
        col: &'a [i64],
        map: HashMap<i64, usize>,
    },
    /// General case: exact `Value` keys — the same `cmp_total` equality the
    /// row path's `HashMap<Vec<Value>, _>` uses.
    Generic {
        crel: &'a ColumnarRelation,
        cols: &'a [usize],
        map: HashMap<Vec<Value>, usize>,
    },
}

impl<'a> Grouper<'a> {
    fn new(crel: &'a ColumnarRelation, group_exprs: &'a [usize]) -> Self {
        if let [c] = group_exprs {
            if let Some(col) = crel.col(*c).ints() {
                return Grouper::Int {
                    col,
                    map: HashMap::new(),
                };
            }
        }
        Grouper::Generic {
            crel,
            cols: group_exprs,
            map: HashMap::new(),
        }
    }

    /// The group id of row `i`, allocating the next id on first sight.
    fn gid(&mut self, i: usize) -> usize {
        match self {
            Grouper::Int { col, map } => {
                let next = map.len();
                *map.entry(col[i]).or_insert(next)
            }
            Grouper::Generic { crel, cols, map } => {
                let key: Vec<Value> = cols.iter().map(|&c| crel.value(i, c)).collect();
                let next = map.len();
                *map.entry(key).or_insert(next)
            }
        }
    }
}

/// SUM over a clean Int column: the Int-with-overflow-promotion state
/// machine of [`Accumulator`] / [`value::add`].
#[derive(Clone, Copy)]
enum IntSum {
    I(i64),
    F(f64),
}

/// A vectorized accumulator: per-group state driven by group ids, reading
/// its argument straight from a typed column. Each variant replicates the
/// corresponding [`Accumulator`] arm bit for bit; shapes that could error
/// mid-accumulation (mixed columns, NaN under MIN/MAX, arithmetic
/// arguments) are never constructed — see [`vacc_for`].
enum VAcc<'a> {
    /// COUNT / COUNT(*): the value is never inspected, never errors.
    Count(Vec<i64>),
    SumInt(&'a [i64], Vec<IntSum>),
    /// SUM over Double, seeded with the group's first value (the row path
    /// seeds with `v.clone()`; seeding `0.0` would turn a first `-0.0`
    /// into `+0.0` and diverge bytewise).
    SumDouble(&'a [f64], Vec<f64>),
    /// AVG: f64 sum from 0.0 plus a count ([`Accumulator`]'s Avg). NaN is
    /// permitted — addition is total and poisons the sum identically.
    Avg(NumSlice<'a>, Vec<(f64, i64)>),
    MinInt(&'a [i64], Vec<i64>),
    MaxInt(&'a [i64], Vec<i64>),
    /// MIN/MAX over Double require a NaN-free column: strict `<`/`>` folds
    /// match `cmp_sql`'s replace-iff-strictly-ordered rule (first value
    /// seeds; `-0.0`/`0.0` ties keep the incumbent on both paths).
    MinDouble(&'a [f64], Vec<f64>),
    MaxDouble(&'a [f64], Vec<f64>),
    /// MIN/MAX over strings fold an argmin/argmax row index — no clones
    /// until finish.
    MinStr(&'a [String], Vec<usize>),
    MaxStr(&'a [String], Vec<usize>),
}

/// Build the vectorized accumulator for one aggregate slot, or `None` when
/// the slot's argument or column data requires the row path.
fn vacc_for<'a>(crel: &'a ColumnarRelation, slot: &AggSlot) -> Option<VAcc<'a>> {
    let col = match &slot.arg {
        None => None,
        Some(CExpr::Col(c)) => Some(crel.col(*c)),
        // Arithmetic arguments can error mid-accumulation; decline.
        Some(_) => return None,
    };
    match slot.func {
        AggFunc::Count => Some(VAcc::Count(Vec::new())),
        AggFunc::Sum => {
            let col = col?;
            if let Some(v) = col.ints() {
                Some(VAcc::SumInt(v, Vec::new()))
            } else {
                col.doubles().map(|v| VAcc::SumDouble(v, Vec::new()))
            }
        }
        AggFunc::Avg => num_slice(col?).map(|v| VAcc::Avg(v, Vec::new())),
        AggFunc::Min | AggFunc::Max => {
            let min = slot.func == AggFunc::Min;
            let col = col?;
            if let Some(v) = col.ints() {
                Some(if min {
                    VAcc::MinInt(v, Vec::new())
                } else {
                    VAcc::MaxInt(v, Vec::new())
                })
            } else if let Some(v) = col.doubles() {
                if col.has_nan() {
                    None
                } else if min {
                    Some(VAcc::MinDouble(v, Vec::new()))
                } else {
                    Some(VAcc::MaxDouble(v, Vec::new()))
                }
            } else {
                col.strs().map(|v| {
                    if min {
                        VAcc::MinStr(v, Vec::new())
                    } else {
                        VAcc::MaxStr(v, Vec::new())
                    }
                })
            }
        }
    }
}

impl VAcc<'_> {
    /// Fold row `row` into group `gid`. Group ids arrive in first-seen
    /// order, so `gid == states.len()` marks a new group and seeds it.
    fn update(&mut self, gid: usize, row: usize) {
        match self {
            VAcc::Count(s) => {
                if gid == s.len() {
                    s.push(0);
                }
                s[gid] += 1;
            }
            VAcc::SumInt(col, s) => {
                let v = col[row];
                if gid == s.len() {
                    s.push(IntSum::I(v));
                } else {
                    s[gid] = match s[gid] {
                        IntSum::I(a) => match a.checked_add(v) {
                            Some(x) => IntSum::I(x),
                            None => IntSum::F(a as f64 + v as f64),
                        },
                        IntSum::F(a) => IntSum::F(a + v as f64),
                    };
                }
            }
            VAcc::SumDouble(col, s) => {
                let v = col[row];
                if gid == s.len() {
                    s.push(v);
                } else {
                    s[gid] += v;
                }
            }
            VAcc::Avg(col, s) => {
                if gid == s.len() {
                    s.push((0.0, 0));
                }
                let (sum, count) = &mut s[gid];
                *sum += col.get(row);
                *count += 1;
            }
            VAcc::MinInt(col, s) => {
                let v = col[row];
                if gid == s.len() {
                    s.push(v);
                } else if v < s[gid] {
                    s[gid] = v;
                }
            }
            VAcc::MaxInt(col, s) => {
                let v = col[row];
                if gid == s.len() {
                    s.push(v);
                } else if v > s[gid] {
                    s[gid] = v;
                }
            }
            VAcc::MinDouble(col, s) => {
                let v = col[row];
                if gid == s.len() {
                    s.push(v);
                } else if v < s[gid] {
                    s[gid] = v;
                }
            }
            VAcc::MaxDouble(col, s) => {
                let v = col[row];
                if gid == s.len() {
                    s.push(v);
                } else if v > s[gid] {
                    s[gid] = v;
                }
            }
            VAcc::MinStr(col, s) => {
                if gid == s.len() {
                    s.push(row);
                } else if col[row] < col[s[gid]] {
                    s[gid] = row;
                }
            }
            VAcc::MaxStr(col, s) => {
                if gid == s.len() {
                    s.push(row);
                } else if col[row] > col[s[gid]] {
                    s[gid] = row;
                }
            }
        }
    }

    /// The finished aggregate value for group `gid` (groups always hold at
    /// least one row — same contract as [`Accumulator::finish`]).
    fn finish(&self, gid: usize) -> Value {
        match self {
            VAcc::Count(s) => Value::Int(s[gid]),
            VAcc::SumInt(_, s) => match s[gid] {
                IntSum::I(x) => Value::Int(x),
                IntSum::F(x) => Value::Double(x),
            },
            VAcc::SumDouble(_, s) => Value::Double(s[gid]),
            VAcc::Avg(_, s) => {
                let (sum, count) = s[gid];
                Value::Double(sum / count as f64)
            }
            VAcc::MinInt(_, s) | VAcc::MaxInt(_, s) => Value::Int(s[gid]),
            VAcc::MinDouble(_, s) | VAcc::MaxDouble(_, s) => Value::Double(s[gid]),
            VAcc::MinStr(col, s) | VAcc::MaxStr(col, s) => Value::Str(col[s[gid]].clone()),
        }
    }
}

impl Compiler {
    /// Bind the `FROM` occurrences against the schemas: the scope every
    /// column reference of the block resolves in.
    pub(crate) fn bind(from: &[TableRef], schemas: &dyn SchemaSource) -> EngineResult<Self> {
        let mut occs: Vec<PlanOcc> = Vec::with_capacity(from.len());
        let mut occ_cols: Vec<Vec<String>> = Vec::with_capacity(from.len());
        let mut bindings: Vec<String> = Vec::with_capacity(from.len());
        let mut offset = 0usize;
        for tref in from {
            let binding = tref.binding_name().to_string();
            if bindings.contains(&binding) {
                return Err(EngineError::DuplicateBinding(binding));
            }
            let cols = schemas
                .table_columns(&tref.table)
                .ok_or_else(|| EngineError::UnknownTable(tref.table.clone()))?;
            occs.push(PlanOcc {
                table: tref.table.clone(),
                offset,
                arity: cols.len(),
            });
            offset += cols.len();
            occ_cols.push(cols);
            bindings.push(binding);
        }
        Ok(Compiler {
            occs,
            occ_cols,
            grouped: false,
            group_exprs: Vec::new(),
            agg_slots: Vec::new(),
            bindings,
        })
    }

    /// Resolve a column reference to a core-table index.
    pub(crate) fn resolve(&self, c: &ColumnRef) -> EngineResult<usize> {
        match &c.table {
            Some(binding) => {
                let oi = self
                    .bindings
                    .iter()
                    .position(|b| b == binding)
                    .ok_or_else(|| EngineError::UnknownColumn(c.to_string()))?;
                let pos = self.occ_cols[oi]
                    .iter()
                    .position(|col| col == &c.column)
                    .ok_or_else(|| EngineError::UnknownColumn(c.to_string()))?;
                Ok(self.occs[oi].offset + pos)
            }
            None => {
                let mut found = None;
                for (oi, cols) in self.occ_cols.iter().enumerate() {
                    if let Some(pos) = cols.iter().position(|col| col == &c.column) {
                        if found.is_some() {
                            return Err(EngineError::AmbiguousColumn(c.column.clone()));
                        }
                        found = Some(self.occs[oi].offset + pos);
                    }
                }
                found.ok_or_else(|| EngineError::UnknownColumn(c.column.clone()))
            }
        }
    }

    /// Compile a scalar (aggregate-free) expression.
    fn compile_scalar(&self, e: &Expr) -> EngineResult<CExpr> {
        match e {
            Expr::Column(c) => Ok(CExpr::Col(self.resolve(c)?)),
            Expr::Literal(l) => Ok(CExpr::Lit(value::lit_value(l))),
            Expr::Binary { lhs, op, rhs } => Ok(CExpr::Bin(
                Box::new(self.compile_scalar(lhs)?),
                *op,
                Box::new(self.compile_scalar(rhs)?),
            )),
            Expr::Neg(inner) => Ok(CExpr::Neg(Box::new(self.compile_scalar(inner)?))),
            Expr::Agg(_) => Err(EngineError::MisplacedAggregate),
        }
    }

    /// Compile an expression appearing in a grouped context (`SELECT` or
    /// `HAVING` of a grouped query): aggregate calls become slot
    /// references, and bare columns must be grouping columns.
    fn compile_grouped(&mut self, e: &Expr) -> EngineResult<CExpr> {
        match e {
            Expr::Column(c) => {
                let idx = self.resolve(c)?;
                if !self.grouped || self.group_exprs.contains(&idx) {
                    Ok(CExpr::Col(idx))
                } else {
                    Err(EngineError::NonGroupedColumn(c.to_string()))
                }
            }
            Expr::Literal(l) => Ok(CExpr::Lit(value::lit_value(l))),
            Expr::Binary { lhs, op, rhs } => Ok(CExpr::Bin(
                Box::new(self.compile_grouped(lhs)?),
                *op,
                Box::new(self.compile_grouped(rhs)?),
            )),
            Expr::Neg(inner) => Ok(CExpr::Neg(Box::new(self.compile_grouped(inner)?))),
            Expr::Agg(agg) => {
                let arg = match &agg.arg {
                    None => None,
                    Some(a) => {
                        if a.contains_aggregate() {
                            return Err(EngineError::MisplacedAggregate);
                        }
                        Some(self.compile_scalar(a)?)
                    }
                };
                let slot = self.agg_slots.len();
                self.agg_slots.push(AggSlot {
                    func: agg.func,
                    arg,
                });
                Ok(CExpr::AggRef(slot))
            }
        }
    }
}

/// Map core index → occurrence index (occurrences are few; a linear scan
/// beats a binary search here).
fn occ_of(occs: &[PlanOcc], core: usize) -> usize {
    occs.iter()
        .rposition(|o| o.offset <= core)
        .expect("core index within range")
}

/// Exact-integer range of f64: cross-type probe variants are only generated
/// below this magnitude, where `Int(x) == Double(y)` under SQL comparison
/// iff the twin conversion is exact.
const F64_EXACT: f64 = 9007199254740992.0; // 2^53

/// The index keys a constant can equal under [`Value::cmp_sql`]: the value
/// itself plus its numeric cross-type twin. `None` = semantics not
/// representable by hash probes (precision edge, non-finite) — scan.
fn probe_variants(v: &Value) -> Option<Vec<Value>> {
    Some(match v {
        Value::Int(x) => {
            if (x.unsigned_abs() as f64) < F64_EXACT {
                vec![Value::Int(*x), Value::Double(*x as f64)]
            } else {
                return None;
            }
        }
        Value::Double(d) => {
            if !d.is_finite() || d.abs() >= F64_EXACT {
                return None;
            }
            if d.fract() == 0.0 {
                vec![Value::Double(*d), Value::Int(*d as i64)]
            } else {
                vec![Value::Double(*d)]
            }
        }
        other => vec![other.clone()],
    })
}

/// Shift a predicate from core column space into a single occurrence's
/// local column space (compile-time; the scan then evaluates rows as-is).
fn shift_pred(p: &CPred, offset: usize) -> CPred {
    fn shift(e: &CExpr, offset: usize) -> CExpr {
        match e {
            CExpr::Col(i) => CExpr::Col(i - offset),
            CExpr::Lit(v) => CExpr::Lit(v.clone()),
            CExpr::Bin(a, op, b) => {
                CExpr::Bin(Box::new(shift(a, offset)), *op, Box::new(shift(b, offset)))
            }
            CExpr::Neg(a) => CExpr::Neg(Box::new(shift(a, offset))),
            CExpr::AggRef(i) => CExpr::AggRef(*i),
        }
    }
    CPred {
        lhs: shift(&p.lhs, offset),
        op: p.op,
        rhs: shift(&p.rhs, offset),
    }
}

/// Remap a predicate's core columns into an intermediate layout (once per
/// join step, not per row).
fn remap_pred(p: &CPred, remap: &[usize]) -> CPred {
    fn rm(e: &CExpr, remap: &[usize]) -> CExpr {
        match e {
            CExpr::Col(i) => CExpr::Col(remap[*i]),
            CExpr::Lit(v) => CExpr::Lit(v.clone()),
            CExpr::Bin(a, op, b) => CExpr::Bin(Box::new(rm(a, remap)), *op, Box::new(rm(b, remap))),
            CExpr::Neg(a) => CExpr::Neg(Box::new(rm(a, remap))),
            CExpr::AggRef(i) => CExpr::AggRef(*i),
        }
    }
    CPred {
        lhs: rm(&p.lhs, remap),
        op: p.op,
        rhs: rm(&p.rhs, remap),
    }
}

fn collect_cols(e: &CExpr, out: &mut Vec<usize>) {
    match e {
        CExpr::Col(i) => out.push(*i),
        CExpr::Lit(_) | CExpr::AggRef(_) => {}
        CExpr::Bin(a, _, b) => {
            collect_cols(a, out);
            collect_cols(b, out);
        }
        CExpr::Neg(a) => collect_cols(a, out),
    }
}

/// Evaluate a compiled expression against a core row and aggregate values.
fn eval(e: &CExpr, row: &[Value], aggs: &[Value]) -> EngineResult<Value> {
    match e {
        CExpr::Col(i) => Ok(row[*i].clone()),
        CExpr::Lit(v) => Ok(v.clone()),
        CExpr::Bin(a, op, b) => {
            let x = eval(a, row, aggs)?;
            let y = eval(b, row, aggs)?;
            let r = match op {
                ArithOp::Add => value::add(&x, &y),
                ArithOp::Sub => value::sub(&x, &y),
                ArithOp::Mul => value::mul(&x, &y),
                ArithOp::Div => {
                    if matches!(y.as_f64(), Some(d) if d == 0.0) {
                        return Err(EngineError::DivisionByZero);
                    }
                    value::div(&x, &y)
                }
            };
            r.ok_or_else(|| {
                EngineError::TypeError(format!(
                    "arithmetic on {} and {}",
                    x.type_name(),
                    y.type_name()
                ))
            })
        }
        CExpr::Neg(a) => {
            let x = eval(a, row, aggs)?;
            value::neg(&x)
                .ok_or_else(|| EngineError::TypeError(format!("negation of {}", x.type_name())))
        }
        CExpr::AggRef(i) => Ok(aggs[*i].clone()),
    }
}

fn eval_pred(p: &CPred, row: &[Value], aggs: &[Value]) -> EngineResult<bool> {
    let l = eval(&p.lhs, row, aggs)?;
    let r = eval(&p.rhs, row, aggs)?;
    value::compare(&l, p.op, &r).ok_or_else(|| {
        EngineError::TypeError(format!(
            "comparison of {} and {}",
            l.type_name(),
            r.type_name()
        ))
    })
}

fn dedup(rel: &mut Relation) {
    let mut seen: std::collections::HashSet<Vec<Value>> = std::collections::HashSet::new();
    rel.rows.retain(|r| seen.insert(r.clone()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::GroupIndex;
    use crate::relation::{multiset_eq, rel_of_ints};
    use aggview_sql::parse_query;

    fn db2() -> Database {
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

    fn run(sql: &str, db: &Database) -> Relation {
        execute(&parse_query(sql).unwrap(), db).unwrap()
    }

    #[test]
    fn projection_keeps_duplicates() {
        let out = run("SELECT A FROM R1", &db2());
        assert_eq!(out.sorted_rows().len(), 4);
        assert!(out.has_duplicates());
    }

    #[test]
    fn distinct_removes_duplicates() {
        let out = run("SELECT DISTINCT A, B FROM R1", &db2());
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn where_filters() {
        let out = run("SELECT A, B FROM R1 WHERE B > 15", &db2());
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn equi_join() {
        let out = run("SELECT A, D FROM R1, R2 WHERE A = C", &db2());
        // (1,100)x2, (2,200)x2 — multiset semantics keeps all four.
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn cross_product_multiplicity() {
        let out = run("SELECT A, C FROM R1, R2", &db2());
        assert_eq!(out.len(), 12);
    }

    #[test]
    fn non_equi_join() {
        let out = run("SELECT A, C FROM R1, R2 WHERE A < C", &db2());
        // A=1 matches C∈{2,3} (2 rows ×2 dups... A=1 appears twice) etc.
        // rows with A=1: 2 rows × 2 matches = 4; A=2: 2 rows × 1 match = 2.
        assert_eq!(out.len(), 6);
    }

    #[test]
    fn group_by_with_aggregates() {
        let out = run(
            "SELECT A, SUM(B), COUNT(B), MIN(B), MAX(B) FROM R1 GROUP BY A",
            &db2(),
        );
        let rows = out.sorted_rows();
        assert_eq!(
            rows,
            vec![
                vec![
                    Value::Int(1),
                    Value::Int(30),
                    Value::Int(2),
                    Value::Int(10),
                    Value::Int(20)
                ],
                vec![
                    Value::Int(2),
                    Value::Int(60),
                    Value::Int(2),
                    Value::Int(30),
                    Value::Int(30)
                ],
            ]
        );
    }

    #[test]
    fn avg_is_double() {
        let out = run("SELECT A, AVG(B) FROM R1 GROUP BY A", &db2());
        let rows = out.sorted_rows();
        assert_eq!(rows[0], vec![Value::Int(1), Value::Double(15.0)]);
        assert_eq!(rows[1], vec![Value::Int(2), Value::Double(30.0)]);
    }

    #[test]
    fn having_filters_groups() {
        let out = run(
            "SELECT A, SUM(B) FROM R1 GROUP BY A HAVING SUM(B) > 40",
            &db2(),
        );
        assert_eq!(out.sorted_rows(), vec![vec![Value::Int(2), Value::Int(60)]]);
    }

    #[test]
    fn having_on_grouping_column() {
        let out = run("SELECT A, SUM(B) FROM R1 GROUP BY A HAVING A = 1", &db2());
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn count_star() {
        let out = run("SELECT A, COUNT(*) FROM R1 GROUP BY A", &db2());
        let rows = out.sorted_rows();
        assert_eq!(rows[0], vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(rows[1], vec![Value::Int(2), Value::Int(2)]);
    }

    #[test]
    fn aggregate_without_group_by() {
        let out = run("SELECT SUM(B), COUNT(B) FROM R1", &db2());
        assert_eq!(out.rows, vec![vec![Value::Int(90), Value::Int(4)]]);
    }

    #[test]
    fn aggregate_over_empty_input_is_empty() {
        let mut db = Database::new();
        db.insert("T", rel_of_ints(["x"], &[]));
        let out = run("SELECT SUM(x) FROM T", &db);
        assert!(out.is_empty());
    }

    #[test]
    fn empty_group_produces_no_row() {
        let out = run("SELECT A, SUM(B) FROM R1 WHERE B > 1000 GROUP BY A", &db2());
        assert!(out.is_empty());
    }

    #[test]
    fn weighted_aggregate_expression() {
        // SUM(A * B): the form emitted by the rewriter's Strategy B.
        let out = run("SELECT SUM(A * B) FROM R1", &db2());
        assert_eq!(out.rows, vec![vec![Value::Int(10 + 20 + 60 + 60)]]);
    }

    #[test]
    fn scaled_aggregate_in_select() {
        // Cnt * SUM(B): the paper's S5' output form (arithmetic over an
        // aggregate and a grouping column).
        let out = run("SELECT A, A * SUM(B) FROM R1 GROUP BY A", &db2());
        let rows = out.sorted_rows();
        assert_eq!(rows[0], vec![Value::Int(1), Value::Int(30)]);
        assert_eq!(rows[1], vec![Value::Int(2), Value::Int(120)]);
    }

    #[test]
    fn division_in_select_is_double() {
        let out = run("SELECT SUM(B) / COUNT(B) FROM R1", &db2());
        assert_eq!(out.rows, vec![vec![Value::Double(22.5)]]);
    }

    #[test]
    fn self_join_with_aliases() {
        let out = run("SELECT x.A, y.A FROM R1 x, R1 y WHERE x.B = y.B", &db2());
        // B=10:1 pair; B=20:1; B=30: 2x2=4 pairs. Total 6.
        assert_eq!(out.len(), 6);
    }

    #[test]
    fn duplicate_binding_rejected() {
        let db = db2();
        let q = parse_query("SELECT A FROM R1, R1").unwrap();
        assert_eq!(
            execute(&q, &db).unwrap_err(),
            EngineError::DuplicateBinding("R1".into())
        );
    }

    #[test]
    fn unknown_column_rejected() {
        let db = db2();
        let q = parse_query("SELECT Zz FROM R1").unwrap();
        assert!(matches!(
            execute(&q, &db).unwrap_err(),
            EngineError::UnknownColumn(_)
        ));
    }

    #[test]
    fn ambiguous_column_rejected() {
        let mut db = Database::new();
        db.insert("S", rel_of_ints(["A"], &[&[1]]));
        db.insert("T", rel_of_ints(["A"], &[&[1]]));
        let q = parse_query("SELECT A FROM S, T").unwrap();
        assert_eq!(
            execute(&q, &db).unwrap_err(),
            EngineError::AmbiguousColumn("A".into())
        );
    }

    #[test]
    fn non_grouped_column_rejected() {
        let db = db2();
        let q = parse_query("SELECT B, SUM(A) FROM R1 GROUP BY A").unwrap();
        assert!(matches!(
            execute(&q, &db).unwrap_err(),
            EngineError::NonGroupedColumn(_)
        ));
    }

    #[test]
    fn aggregate_in_where_rejected() {
        let db = db2();
        let q = parse_query("SELECT A FROM R1 WHERE SUM(B) > 3").unwrap();
        assert_eq!(
            execute(&q, &db).unwrap_err(),
            EngineError::MisplacedAggregate
        );
    }

    #[test]
    fn constant_false_predicate_empties_result() {
        let out = run("SELECT A FROM R1 WHERE 1 = 2", &db2());
        assert!(out.is_empty());
    }

    #[test]
    fn constant_true_predicate_is_noop() {
        let out = run("SELECT A FROM R1 WHERE 1 = 1", &db2());
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn three_way_join_ordering() {
        let mut db = db2();
        db.insert("R3", rel_of_ints(["E", "F"], &[&[100, 7], &[300, 9]]));
        let out = run("SELECT A, F FROM R1, R2, R3 WHERE A = C AND D = E", &db);
        // A=C gives (1,100)x2,(2,200)x2; D=E keeps D=100 → 2 rows with F=7.
        assert_eq!(
            out.sorted_rows(),
            vec![
                vec![Value::Int(1), Value::Int(7)],
                vec![Value::Int(1), Value::Int(7)],
            ]
        );
    }

    #[test]
    fn non_equi_predicate_bound_before_all_tables_join() {
        // Regression: a cross-table non-equi predicate becomes evaluable
        // after the second join step while a third table is still pending;
        // the mid-join remap must tolerate unjoined occurrences.
        let mut db = db2();
        db.insert("R3", rel_of_ints(["G"], &[&[1], &[2], &[3], &[4]]));
        let out = run("SELECT A, G FROM R1, R2, R3 WHERE A < C", &db);
        // A<C pairs: 6 (see non_equi_join) × 4 R3 rows.
        assert_eq!(out.len(), 24);
    }

    #[test]
    fn string_predicates() {
        let mut db = Database::new();
        db.insert(
            "P",
            Relation::new(
                ["name", "v"],
                vec![
                    vec![Value::Str("basic".into()), Value::Int(1)],
                    vec![Value::Str("gold".into()), Value::Int(2)],
                ],
            ),
        );
        let out = run("SELECT v FROM P WHERE name = 'gold'", &db);
        assert_eq!(out.rows, vec![vec![Value::Int(2)]]);
    }

    #[test]
    fn division_by_zero_is_error() {
        let db = db2();
        let q = parse_query("SELECT A / 0 FROM R1").unwrap();
        assert_eq!(execute(&q, &db).unwrap_err(), EngineError::DivisionByZero);
    }

    #[test]
    fn group_by_qualified_column() {
        let out = run("SELECT R1.A, COUNT(*) FROM R1 GROUP BY R1.A", &db2());
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn string_group_keys() {
        let mut db = Database::new();
        db.insert(
            "P",
            Relation::new(
                ["name", "v"],
                vec![
                    vec![Value::Str("basic".into()), Value::Int(1)],
                    vec![Value::Str("basic".into()), Value::Int(2)],
                    vec![Value::Str("gold".into()), Value::Int(5)],
                ],
            ),
        );
        let out = run("SELECT name, SUM(v), MIN(name) FROM P GROUP BY name", &db);
        let rows = out.sorted_rows();
        assert_eq!(
            rows[0],
            vec![
                Value::Str("basic".into()),
                Value::Int(3),
                Value::Str("basic".into())
            ]
        );
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn boolean_predicates() {
        let mut db = Database::new();
        db.insert(
            "F",
            Relation::new(
                ["flag", "v"],
                vec![
                    vec![Value::Bool(true), Value::Int(1)],
                    vec![Value::Bool(false), Value::Int(2)],
                ],
            ),
        );
        let out = run("SELECT v FROM F WHERE flag = TRUE", &db);
        assert_eq!(out.rows, vec![vec![Value::Int(1)]]);
    }

    #[test]
    fn comparison_type_error_surfaces() {
        let mut db = Database::new();
        db.insert(
            "M",
            Relation::new(
                ["s", "n"],
                vec![vec![Value::Str("x".into()), Value::Int(1)]],
            ),
        );
        let q = parse_query("SELECT n FROM M WHERE s < 5").unwrap();
        assert!(matches!(
            execute(&q, &db).unwrap_err(),
            EngineError::TypeError(_)
        ));
    }

    #[test]
    fn having_without_group_by() {
        let out = run("SELECT SUM(B) FROM R1 HAVING SUM(B) > 1000", &db2());
        assert!(out.is_empty());
        let out = run("SELECT SUM(B) FROM R1 HAVING SUM(B) > 10", &db2());
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn compiled_plan_survives_data_changes() {
        // The tentpole contract: compile once, re-run as rows change.
        let mut db = db2();
        let q = parse_query("SELECT A, SUM(B) FROM R1 GROUP BY A").unwrap();
        let plan = PhysicalPlan::compile(&q, &db).unwrap();
        let before = plan.run(&db).unwrap();
        assert_eq!(before.sorted_rows(), run(&q.to_string(), &db).sorted_rows());

        let mut r1 = db.get("R1").unwrap().clone();
        r1.push(vec![Value::Int(3), Value::Int(40)]);
        db.insert("R1", r1);
        let after = plan.run(&db).unwrap();
        assert_eq!(after.sorted_rows(), run(&q.to_string(), &db).sorted_rows());
        assert_eq!(after.len(), 3);
    }

    #[test]
    fn stale_plan_arity_is_rejected() {
        let mut db = db2();
        let q = parse_query("SELECT A FROM R1").unwrap();
        let plan = PhysicalPlan::compile(&q, &db).unwrap();
        db.insert("R1", rel_of_ints(["A", "B", "C"], &[&[1, 2, 3]]));
        assert!(matches!(
            plan.run(&db).unwrap_err(),
            EngineError::TypeError(_)
        ));
    }

    #[test]
    fn index_probe_matches_scan() {
        let mut db = Database::new();
        let rel = rel_of_ints(
            ["a", "b", "s"],
            &[&[1, 1, 5], &[1, 2, 7], &[2, 1, 9], &[2, 2, 11]],
        );
        db.insert("V", rel);
        let sql = "SELECT s FROM V WHERE a = 2 AND b = 1";
        let scanned = run(sql, &db);
        db.set_index("V", GroupIndex::build(db.get("V").unwrap(), vec![0, 1]));
        let probed = run(sql, &db);
        assert_eq!(scanned.rows, probed.rows);
        assert_eq!(probed.rows, vec![vec![Value::Int(9)]]);
    }

    #[test]
    fn index_probe_covers_cross_type_equality() {
        // `a = 2` must find a Double(2.0) key — cmp_sql equates them.
        let mut db = Database::new();
        db.insert(
            "V",
            Relation::new(
                ["a", "s"],
                vec![
                    vec![Value::Double(2.0), Value::Int(9)],
                    vec![Value::Int(3), Value::Int(11)],
                ],
            ),
        );
        let sql = "SELECT s FROM V WHERE a = 2";
        let scanned = run(sql, &db);
        db.set_index("V", GroupIndex::build(db.get("V").unwrap(), vec![0]));
        let probed = run(sql, &db);
        assert_eq!(scanned.rows, probed.rows);
        assert_eq!(probed.rows, vec![vec![Value::Int(9)]]);
    }

    #[test]
    fn index_probe_respects_extra_predicates() {
        // Bindings cover the key, but a further local predicate must still
        // filter the probed rows.
        let mut db = Database::new();
        db.insert("V", rel_of_ints(["a", "s"], &[&[1, 5], &[2, 9]]));
        db.set_index("V", GroupIndex::build(db.get("V").unwrap(), vec![0]));
        let out = run("SELECT s FROM V WHERE a = 2 AND s > 100", &db);
        assert!(out.is_empty());
    }

    #[test]
    fn partial_key_binding_falls_back_to_scan() {
        let mut db = Database::new();
        db.insert("V", rel_of_ints(["a", "b", "s"], &[&[1, 1, 5], &[1, 2, 7]]));
        db.set_index("V", GroupIndex::build(db.get("V").unwrap(), vec![0, 1]));
        // Only `a` is bound — the composite key cannot be probed.
        let out = run("SELECT s FROM V WHERE a = 1", &db);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn indexed_join_equals_unindexed_join() {
        let mut db = db2();
        let sql = "SELECT A, D FROM R1, R2 WHERE A = C AND C = 2";
        let plain = run(sql, &db);
        db.set_index("R2", GroupIndex::build(db.get("R2").unwrap(), vec![0]));
        let indexed = run(sql, &db);
        assert!(multiset_eq(&plain, &indexed));
        assert_eq!(indexed.len(), 2);
    }

    fn run_with(sql: &str, db: &Database, columnar: bool) -> Relation {
        execute_ctx(
            &parse_query(sql).unwrap(),
            db,
            &ExecContext::columnar(columnar),
        )
        .unwrap()
    }

    #[test]
    fn vectorized_matches_row_path_exactly() {
        let db = db2();
        for sql in [
            "SELECT A, B FROM R1",
            "SELECT A FROM R1 WHERE B > 15",
            "SELECT A FROM R1 WHERE 15 < B",
            "SELECT A FROM R1 WHERE A = B",
            "SELECT B FROM R1 WHERE A <> 1 AND B >= 30",
            "SELECT A, SUM(B), COUNT(*), MIN(B), MAX(B), AVG(B) FROM R1 GROUP BY A",
            "SELECT A, SUM(B) FROM R1 WHERE B >= 20 GROUP BY A HAVING SUM(B) > 40",
            "SELECT DISTINCT A FROM R1",
            "SELECT SUM(B), COUNT(B) FROM R1",
            "SELECT A + B FROM R1 WHERE B < 25",
            "SELECT A, 2 * SUM(B) FROM R1 GROUP BY A",
        ] {
            let v = run_with(sql, &db, true);
            let r = run_with(sql, &db, false);
            assert_eq!(v.columns, r.columns, "query `{sql}` diverged on names");
            assert_eq!(v.rows, r.rows, "query `{sql}` diverged");
        }
    }

    #[test]
    fn vectorized_and_fallback_paths_are_counted() {
        use aggview_obs::{CounterId, MetricsRegistry};
        use std::sync::Arc;
        let mut db = db2();
        let m = Arc::new(MetricsRegistry::default());
        db.set_metrics(Arc::clone(&m));
        run("SELECT A, SUM(B) FROM R1 GROUP BY A", &db);
        assert_eq!(m.get(CounterId::ExecVectorized), 1);
        assert_eq!(m.get(CounterId::ExecRowFallback), 0);
        run("SELECT A, D FROM R1, R2 WHERE A = C", &db); // join → row path
        assert_eq!(m.get(CounterId::ExecVectorized), 1);
        assert_eq!(m.get(CounterId::ExecRowFallback), 1);
    }

    #[test]
    fn disabled_columnar_takes_the_row_path() {
        use aggview_obs::{CounterId, MetricsRegistry};
        use std::sync::Arc;
        let mut db = db2();
        let m = Arc::new(MetricsRegistry::default());
        db.set_metrics(Arc::clone(&m));
        let q = parse_query("SELECT A FROM R1").unwrap();
        let mut plan = PhysicalPlan::compile(&q, &db).unwrap();
        plan.set_columnar(false);
        plan.run(&db).unwrap();
        assert_eq!(m.get(CounterId::ExecVectorized), 0);
        assert_eq!(m.get(CounterId::ExecRowFallback), 1);
    }

    #[test]
    fn mixed_typed_column_falls_back_and_matches() {
        let mut db = Database::new();
        db.insert(
            "M",
            Relation::new(
                ["x"],
                vec![
                    vec![Value::Int(1)],
                    vec![Value::Double(2.5)],
                    vec![Value::Int(3)],
                ],
            ),
        );
        for sql in ["SELECT SUM(x) FROM M", "SELECT x FROM M WHERE x > 1"] {
            assert_eq!(
                run_with(sql, &db, true).rows,
                run_with(sql, &db, false).rows,
                "query `{sql}` diverged"
            );
        }
    }

    #[test]
    fn vectorized_sum_overflow_promotes_like_row_path() {
        let mut db = Database::new();
        db.insert("T", rel_of_ints(["x"], &[&[i64::MAX], &[1], &[5]]));
        let sql = "SELECT SUM(x) FROM T";
        let v = run_with(sql, &db, true);
        assert_eq!(v.rows, run_with(sql, &db, false).rows);
        assert!(matches!(v.rows[0][0], Value::Double(_)));
    }

    #[test]
    fn vectorized_projection_errors_match_row_path() {
        let db = db2();
        let q = parse_query("SELECT A / 0 FROM R1").unwrap();
        let v = execute_ctx(&q, &db, &ExecContext::columnar(true)).unwrap_err();
        let r = execute_ctx(&q, &db, &ExecContext::columnar(false)).unwrap_err();
        assert_eq!(v, r);
        assert_eq!(v, EngineError::DivisionByZero);
    }

    #[test]
    fn indexed_scan_declines_vectorization() {
        use aggview_obs::{CounterId, MetricsRegistry};
        use std::sync::Arc;
        let mut db = Database::new();
        db.insert("V", rel_of_ints(["a", "s"], &[&[1, 5], &[2, 9]]));
        db.set_index("V", GroupIndex::build(db.get("V").unwrap(), vec![0]));
        let m = Arc::new(MetricsRegistry::default());
        db.set_metrics(Arc::clone(&m));
        let out = run("SELECT s FROM V WHERE a = 2", &db);
        assert_eq!(out.rows, vec![vec![Value::Int(9)]]);
        assert_eq!(m.get(CounterId::IndexProbes), 1);
        assert_eq!(m.get(CounterId::ExecVectorized), 0);
    }

    #[test]
    fn vectorized_string_grouping_matches_row_path() {
        let mut db = Database::new();
        db.insert(
            "P",
            Relation::new(
                ["name", "v"],
                vec![
                    vec![Value::Str("gold".into()), Value::Int(5)],
                    vec![Value::Str("basic".into()), Value::Int(1)],
                    vec![Value::Str("basic".into()), Value::Int(2)],
                ],
            ),
        );
        let sql = "SELECT name, SUM(v), MIN(name), MAX(name) FROM P GROUP BY name";
        let v = run_with(sql, &db, true);
        assert_eq!(v.rows, run_with(sql, &db, false).rows);
        // First-seen group order is part of the contract.
        assert_eq!(v.rows[0][0], Value::Str("gold".into()));
    }

    #[test]
    fn nan_under_min_falls_back_to_matching_error() {
        let mut db = Database::new();
        db.insert(
            "D",
            Relation::new(
                ["x"],
                vec![vec![Value::Double(1.0)], vec![Value::Double(f64::NAN)]],
            ),
        );
        let q = parse_query("SELECT MIN(x) FROM D").unwrap();
        let v = execute_ctx(&q, &db, &ExecContext::columnar(true)).unwrap_err();
        let r = execute_ctx(&q, &db, &ExecContext::columnar(false)).unwrap_err();
        assert_eq!(v, r);
    }
}
