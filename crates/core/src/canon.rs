//! Canonical query form — Section 2 of the paper.
//!
//! The paper renames columns so that every column of every `FROM`
//! occurrence has a globally unique name (`R(A1, B1), R(A2, B2)` for two
//! range variables over `R`). We implement the same idea with dense integer
//! column identities ([`ColId`]): occurrence `i` of arity `k` owns the
//! contiguous range `first_col .. first_col + k`.
//!
//! A [`Canonical`] carries exactly the paper's components: `Tables(Q)`,
//! `Sel(Q)` (split into `ColSel(Q)` and aggregation columns), `Conds(Q)`,
//! `Groups(Q)` and `GConds(Q)`. Conditions are *conjunctions of comparison
//! atoms* whose sides are columns or constants — precisely the fragment the
//! paper's theorems cover; anything else is rejected with a precise
//! [`CanonError`].
//!
//! The rewriter's *outputs* extend `Sel`/`GConds` with scaled and weighted
//! aggregate forms ([`AggExpr`]); the canonicalizer never produces those
//! from input SQL, and [`Canonical::is_plain`] distinguishes the two.

use aggview_catalog::SchemaSource;
use aggview_sql::ast::{
    AggCall, AggFunc, ArithOp, BoolExpr, CmpOp, ColumnRef, Expr, Literal, Query, SelectItem,
    TableRef,
};
use std::fmt;
use std::hash::{DefaultHasher, Hash, Hasher};

/// Identity of a column in a canonical query (dense index).
pub type ColId = usize;

/// Process-stable 64-bit hash (`DefaultHasher` with its fixed default
/// keys). Used for conjunct ordering and query fingerprints; never for
/// equality decisions.
fn stable_hash<T: Hash>(t: &T) -> u64 {
    let mut h = DefaultHasher::new();
    t.hash(&mut h);
    h.finish()
}

/// One `FROM` occurrence (range variable).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TableOcc {
    /// Base table or view name.
    pub base: String,
    /// First column id owned by this occurrence.
    pub first_col: ColId,
    /// Number of columns.
    pub arity: usize,
}

impl TableOcc {
    /// The column ids owned by this occurrence.
    pub fn cols(&self) -> std::ops::Range<ColId> {
        self.first_col..self.first_col + self.arity
    }
}

/// Metadata of one canonical column.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ColInfo {
    /// Owning occurrence index.
    pub occ: usize,
    /// Position within the occurrence.
    pub pos: usize,
    /// Column name within the base table.
    pub name: String,
}

/// A side of a comparison atom: a column or a constant.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Term {
    /// Column.
    Col(ColId),
    /// Constant.
    Const(Literal),
}

/// A comparison atom `lhs op rhs` in a `WHERE` conjunction.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Atom {
    /// Left term.
    pub lhs: Term,
    /// Operator.
    pub op: CmpOp,
    /// Right term.
    pub rhs: Term,
}

impl Atom {
    /// Build an atom.
    pub fn new(lhs: Term, op: CmpOp, rhs: Term) -> Self {
        Atom { lhs, op, rhs }
    }

    /// Column-column equality shorthand.
    pub fn col_eq(a: ColId, b: ColId) -> Self {
        Atom::new(Term::Col(a), CmpOp::Eq, Term::Col(b))
    }

    /// Canonical orientation: constants on the right; symmetric operators
    /// (`=`, `<>`) order columns by id. Used for deduplication.
    pub fn normalized(&self) -> Atom {
        let flip = |a: &Atom| Atom::new(a.rhs.clone(), a.op.flip(), a.lhs.clone());
        match (&self.lhs, &self.rhs) {
            (Term::Const(_), Term::Col(_)) => flip(self),
            (Term::Col(a), Term::Col(b)) if matches!(self.op, CmpOp::Eq | CmpOp::Ne) && a > b => {
                flip(self)
            }
            (Term::Col(a), Term::Col(b)) if matches!(self.op, CmpOp::Gt | CmpOp::Ge) && a != b => {
                flip(self)
            }
            _ => self.clone(),
        }
    }
}

/// An aggregate specification: the function and its column argument
/// (`None` = `COUNT(*)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AggSpec {
    /// The aggregate function.
    pub func: AggFunc,
    /// The aggregated column, or `None` for `COUNT(*)`.
    pub arg: Option<ColId>,
}

impl AggSpec {
    /// `AGG(col)`.
    pub fn on(func: AggFunc, col: ColId) -> Self {
        AggSpec {
            func,
            arg: Some(col),
        }
    }

    /// `COUNT(*)`.
    pub fn count_star() -> Self {
        AggSpec {
            func: AggFunc::Count,
            arg: None,
        }
    }
}

/// An aggregate expression in `Sel(Q)` or `GConds(Q)`.
///
/// `Plain` is the only form the canonicalizer produces from input SQL; the
/// other forms are rewriter outputs (Section 4 steps S4'/S5' and the
/// weighted-aggregate Strategy B documented in `DESIGN.md`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AggExpr {
    /// `AGG(col)` / `COUNT(*)`.
    Plain(AggSpec),
    /// `factor * AGG(arg)` — the paper's S5' output (`Cnt_V^a * AGG(A)`);
    /// `factor` must be a grouping column.
    Scaled {
        /// Scaling column (grouping column).
        factor: ColId,
        /// The scaled aggregate.
        spec: AggSpec,
    },
    /// `SUM(weight * arg)` — weighted sum (Strategy B; recovers lost
    /// multiplicities through the view's COUNT column).
    WeightedSum {
        /// The multiplicity column.
        weight: ColId,
        /// The summed column.
        arg: ColId,
    },
    /// `SUM(num) / SUM(den)` — AVG from a view's SUM and COUNT columns.
    RatioOfSums {
        /// Numerator column (per-group SUM from the view).
        num: ColId,
        /// Denominator column (per-group COUNT from the view).
        den: ColId,
    },
    /// `SUM(weight * arg) / SUM(weight)` — AVG from a raw (or AVG) column
    /// plus a COUNT column.
    WeightedAvg {
        /// The multiplicity column.
        weight: ColId,
        /// The averaged column.
        arg: ColId,
    },
}

impl AggExpr {
    /// Is this the plain input form?
    pub fn is_plain(&self) -> bool {
        matches!(self, AggExpr::Plain(_))
    }

    /// All columns referenced by the aggregate expression.
    pub fn columns(&self) -> Vec<ColId> {
        match self {
            AggExpr::Plain(s) => s.arg.into_iter().collect(),
            AggExpr::Scaled { factor, spec } => {
                let mut v = vec![*factor];
                v.extend(spec.arg);
                v
            }
            AggExpr::WeightedSum { weight, arg } | AggExpr::WeightedAvg { weight, arg } => {
                vec![*weight, *arg]
            }
            AggExpr::RatioOfSums { num, den } => vec![*num, *den],
        }
    }
}

/// One item of `Sel(Q)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SelItem {
    /// A non-aggregation column (member of `ColSel(Q)`).
    Col(ColId),
    /// An aggregation column.
    Agg(AggExpr),
}

/// A side of a `HAVING` atom.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum GTerm {
    /// A grouping column.
    Col(ColId),
    /// A constant.
    Const(Literal),
    /// An aggregate expression.
    Agg(AggExpr),
}

/// A comparison atom in the `HAVING` conjunction.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GAtom {
    /// Left term.
    pub lhs: GTerm,
    /// Operator.
    pub op: CmpOp,
    /// Right term.
    pub rhs: GTerm,
}

/// Errors raised while canonicalizing a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CanonError {
    /// A `FROM` table whose schema is unknown.
    UnknownTable(String),
    /// An unresolvable column reference.
    UnknownColumn(String),
    /// An ambiguous unqualified column reference.
    AmbiguousColumn(String),
    /// Two `FROM` occurrences share a binding name.
    DuplicateBinding(String),
    /// An expression outside the paper's fragment (arithmetic in input,
    /// aggregate of an expression, ...).
    Unsupported(String),
    /// A selected / `HAVING` column that is not a grouping column.
    NonGroupedColumn(String),
    /// An aggregate call in the `WHERE` clause.
    AggregateInWhere,
}

impl fmt::Display for CanonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CanonError::UnknownTable(t) => write!(f, "unknown table `{t}`"),
            CanonError::UnknownColumn(c) => write!(f, "unknown column `{c}`"),
            CanonError::AmbiguousColumn(c) => write!(f, "ambiguous column `{c}`"),
            CanonError::DuplicateBinding(b) => {
                write!(f, "duplicate FROM binding `{b}` (add an alias)")
            }
            CanonError::Unsupported(m) => write!(f, "outside the supported fragment: {m}"),
            CanonError::NonGroupedColumn(c) => {
                write!(
                    f,
                    "column `{c}` must appear in GROUP BY or inside an aggregate"
                )
            }
            CanonError::AggregateInWhere => write!(f, "aggregate call in WHERE clause"),
        }
    }
}

impl std::error::Error for CanonError {}

/// A query in canonical form.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Canonical {
    /// `SELECT DISTINCT`?
    pub distinct: bool,
    /// `Tables(Q)`.
    pub tables: Vec<TableOcc>,
    /// Per-column metadata, indexed by [`ColId`].
    pub columns: Vec<ColInfo>,
    /// `Sel(Q)`.
    pub select: Vec<SelItem>,
    /// `Conds(Q)` — a conjunction of atoms.
    pub conds: Vec<Atom>,
    /// `Groups(Q)`.
    pub groups: Vec<ColId>,
    /// `GConds(Q)` — a conjunction of `HAVING` atoms.
    pub gconds: Vec<GAtom>,
}

impl Canonical {
    /// An empty canonical query (builder entry point for the rewriter).
    pub fn empty() -> Self {
        Canonical {
            distinct: false,
            tables: Vec::new(),
            columns: Vec::new(),
            select: Vec::new(),
            conds: Vec::new(),
            groups: Vec::new(),
            gconds: Vec::new(),
        }
    }

    /// Append a `FROM` occurrence; returns its index.
    pub fn add_table<I, S>(&mut self, base: impl Into<String>, col_names: I) -> usize
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let first_col = self.columns.len();
        let occ = self.tables.len();
        let mut arity = 0;
        for (pos, name) in col_names.into_iter().enumerate() {
            self.columns.push(ColInfo {
                occ,
                pos,
                name: name.into(),
            });
            arity += 1;
        }
        self.tables.push(TableOcc {
            base: base.into(),
            first_col,
            arity,
        });
        occ
    }

    /// The column id at `(occurrence, position)`.
    pub fn col_of(&self, occ: usize, pos: usize) -> ColId {
        debug_assert!(pos < self.tables[occ].arity);
        self.tables[occ].first_col + pos
    }

    /// `Cols(Q)` — total number of columns.
    pub fn n_cols(&self) -> usize {
        self.columns.len()
    }

    /// `ColSel(Q)` — the non-aggregation columns of the `SELECT` list.
    pub fn col_sel(&self) -> Vec<ColId> {
        self.select
            .iter()
            .filter_map(|s| match s {
                SelItem::Col(c) => Some(*c),
                SelItem::Agg(_) => None,
            })
            .collect()
    }

    /// Every aggregate expression in `Sel(Q)` and `GConds(Q)`.
    pub fn agg_exprs(&self) -> Vec<&AggExpr> {
        let mut out = Vec::new();
        for s in &self.select {
            if let SelItem::Agg(a) = s {
                out.push(a);
            }
        }
        for g in &self.gconds {
            for t in [&g.lhs, &g.rhs] {
                if let GTerm::Agg(a) = t {
                    out.push(a);
                }
            }
        }
        out
    }

    /// Is this an aggregation query (per the paper: non-empty `Groups`,
    /// aggregation columns, or `GConds`)?
    pub fn is_aggregation_query(&self) -> bool {
        !self.groups.is_empty() || !self.gconds.is_empty() || !self.agg_exprs().is_empty()
    }

    /// Does the query use only the plain forms the canonicalizer can
    /// produce (i.e., can it be fed back through the rewriter)?
    pub fn is_plain(&self) -> bool {
        self.agg_exprs().iter().all(|a| a.is_plain())
    }

    /// Cache-normalized copy: every `WHERE` conjunct in canonical
    /// orientation ([`Atom::normalized`]) and the commutative conjunctions
    /// (`WHERE`, `HAVING`) sorted into a stable order. Queries that differ
    /// only in conjunct order, comparison orientation, or binding aliases
    /// (aliases never reach the canonical form) normalize identically —
    /// the serving layer keys its plan cache on this form.
    pub fn normalized(&self) -> Canonical {
        let mut c = self.clone();
        for a in &mut c.conds {
            *a = a.normalized();
        }
        // No `Ord` on literals: sort by stable hash. Equal hashes keep
        // their relative order (stable sort), so the result is
        // deterministic; a cross-query hash collision costs at worst a
        // cache miss, never a wrong hit (keys compare the full form).
        c.conds.sort_by_key(stable_hash);
        c.gconds.sort_by_key(stable_hash);
        c
    }

    /// The query's *template*: the [`Canonical::normalized`] form with
    /// every constant lifted out, plus the lifted constants. Each
    /// `Term::Const` and `GTerm::Const` becomes a slot — a literal of the
    /// same type with a fixed value — and the vector holds the constants
    /// in slot order (conjuncts in the template's order, left side first).
    /// Conjuncts are sorted *after* lifting, so queries that differ only
    /// in their constants share a template; conjuncts that lift to the
    /// same atom keep their relative order.
    pub fn lift_constants(&self) -> (Canonical, Vec<Literal>) {
        fn slot(l: &mut Literal, params: &mut Vec<Literal>) {
            let fixed = match l {
                Literal::Int(_) => Literal::Int(0),
                Literal::Double(_) => Literal::Double(0.0),
                Literal::Str(_) => Literal::Str(String::new()),
                Literal::Bool(_) => Literal::Bool(false),
            };
            params.push(std::mem::replace(l, fixed));
        }
        let mut conds: Vec<(Atom, Vec<Literal>)> = self
            .conds
            .iter()
            .map(|a| {
                let mut a = a.normalized();
                let mut params = Vec::new();
                for t in [&mut a.lhs, &mut a.rhs] {
                    if let Term::Const(l) = t {
                        slot(l, &mut params);
                    }
                }
                (a, params)
            })
            .collect();
        let mut gconds: Vec<(GAtom, Vec<Literal>)> = self
            .gconds
            .iter()
            .map(|g| {
                let mut g = g.clone();
                let mut params = Vec::new();
                for t in [&mut g.lhs, &mut g.rhs] {
                    if let GTerm::Const(l) = t {
                        slot(l, &mut params);
                    }
                }
                (g, params)
            })
            .collect();
        conds.sort_by_cached_key(|(a, _)| stable_hash(a));
        gconds.sort_by_cached_key(|(g, _)| stable_hash(g));
        let mut params = Vec::new();
        let conds = conds
            .into_iter()
            .map(|(a, p)| {
                params.extend(p);
                a
            })
            .collect();
        let gconds = gconds
            .into_iter()
            .map(|(g, p)| {
                params.extend(p);
                g
            })
            .collect();
        let template = Canonical {
            distinct: self.distinct,
            tables: self.tables.clone(),
            columns: self.columns.clone(),
            select: self.select.clone(),
            conds,
            groups: self.groups.clone(),
            gconds,
        };
        (template, params)
    }

    /// Stable 64-bit fingerprint of the [`Canonical::normalized`] form.
    /// Canonically identical queries share a fingerprint; it is used for
    /// display and statistics only — cache lookups compare the full
    /// normalized form, so a fingerprint collision cannot alias entries.
    pub fn fingerprint(&self) -> u64 {
        stable_hash(&self.normalized())
    }

    /// Canonicalize an AST query against a schema source.
    pub fn from_query(q: &Query, schemas: &dyn SchemaSource) -> Result<Self, CanonError> {
        Canonicalizer::new(q, schemas)?.run()
    }

    /// Render back to an AST query. Occurrence `i` binds as its base name
    /// when that is unambiguous, else as `{base}_o{i}`.
    pub fn to_query(&self) -> Query {
        let bindings = self.bindings();
        let col_ref = |c: ColId| -> ColumnRef {
            let info = &self.columns[c];
            ColumnRef::qualified(bindings[info.occ].clone(), info.name.clone())
        };
        let col_expr = |c: ColId| Expr::Column(col_ref(c));
        let agg_expr = |a: &AggExpr| -> Expr {
            let plain = |spec: &AggSpec| {
                Expr::Agg(AggCall {
                    func: spec.func,
                    arg: spec.arg.map(|c| Box::new(col_expr(c))),
                })
            };
            match a {
                AggExpr::Plain(spec) => plain(spec),
                AggExpr::Scaled { factor, spec } => Expr::Binary {
                    lhs: Box::new(col_expr(*factor)),
                    op: ArithOp::Mul,
                    rhs: Box::new(plain(spec)),
                },
                AggExpr::WeightedSum { weight, arg } => Expr::Agg(AggCall {
                    func: AggFunc::Sum,
                    arg: Some(Box::new(Expr::Binary {
                        lhs: Box::new(col_expr(*weight)),
                        op: ArithOp::Mul,
                        rhs: Box::new(col_expr(*arg)),
                    })),
                }),
                AggExpr::RatioOfSums { num, den } => Expr::Binary {
                    lhs: Box::new(Expr::Agg(AggCall {
                        func: AggFunc::Sum,
                        arg: Some(Box::new(col_expr(*num))),
                    })),
                    op: ArithOp::Div,
                    rhs: Box::new(Expr::Agg(AggCall {
                        func: AggFunc::Sum,
                        arg: Some(Box::new(col_expr(*den))),
                    })),
                },
                AggExpr::WeightedAvg { weight, arg } => Expr::Binary {
                    lhs: Box::new(Expr::Agg(AggCall {
                        func: AggFunc::Sum,
                        arg: Some(Box::new(Expr::Binary {
                            lhs: Box::new(col_expr(*weight)),
                            op: ArithOp::Mul,
                            rhs: Box::new(col_expr(*arg)),
                        })),
                    })),
                    op: ArithOp::Div,
                    rhs: Box::new(Expr::Agg(AggCall {
                        func: AggFunc::Sum,
                        arg: Some(Box::new(col_expr(*weight))),
                    })),
                },
            }
        };
        let term_expr = |t: &Term| match t {
            Term::Col(c) => col_expr(*c),
            Term::Const(l) => Expr::Literal(l.clone()),
        };
        let gterm_expr = |t: &GTerm| match t {
            GTerm::Col(c) => col_expr(*c),
            GTerm::Const(l) => Expr::Literal(l.clone()),
            GTerm::Agg(a) => agg_expr(a),
        };

        let select = self
            .select
            .iter()
            .map(|s| match s {
                SelItem::Col(c) => SelectItem::expr(col_expr(*c)),
                SelItem::Agg(a) => SelectItem::expr(agg_expr(a)),
            })
            .collect();
        let from = self
            .tables
            .iter()
            .enumerate()
            .map(|(i, t)| {
                if bindings[i] == t.base {
                    TableRef::new(t.base.clone())
                } else {
                    TableRef::aliased(t.base.clone(), bindings[i].clone())
                }
            })
            .collect();
        let where_clause = BoolExpr::conjoin(
            self.conds
                .iter()
                .map(|a| BoolExpr::cmp(term_expr(&a.lhs), a.op, term_expr(&a.rhs)))
                .collect(),
        );
        let group_by = self.groups.iter().map(|&c| col_ref(c)).collect();
        let having = BoolExpr::conjoin(
            self.gconds
                .iter()
                .map(|a| BoolExpr::cmp(gterm_expr(&a.lhs), a.op, gterm_expr(&a.rhs)))
                .collect(),
        );
        Query {
            distinct: self.distinct,
            select,
            from,
            where_clause,
            group_by,
            having,
        }
    }

    /// Binding names per occurrence for rendering: the base name when it
    /// occurs exactly once, `{base}_o{i}` otherwise.
    fn bindings(&self) -> Vec<String> {
        (0..self.tables.len())
            .map(|i| {
                let base = &self.tables[i].base;
                let dup = self
                    .tables
                    .iter()
                    .enumerate()
                    .any(|(j, t)| j != i && &t.base == base);
                if dup {
                    format!("{base}_o{i}")
                } else {
                    base.clone()
                }
            })
            .collect()
    }
}

struct Canonicalizer<'a> {
    query: &'a Query,
    canonical: Canonical,
    binding_names: Vec<String>,
}

impl<'a> Canonicalizer<'a> {
    fn new(query: &'a Query, schemas: &dyn SchemaSource) -> Result<Self, CanonError> {
        let mut canonical = Canonical::empty();
        canonical.distinct = query.distinct;
        let mut binding_names = Vec::with_capacity(query.from.len());
        for tref in &query.from {
            let binding = tref.binding_name().to_string();
            if binding_names.contains(&binding) {
                return Err(CanonError::DuplicateBinding(binding));
            }
            let cols = schemas
                .table_columns(&tref.table)
                .ok_or_else(|| CanonError::UnknownTable(tref.table.clone()))?;
            canonical.add_table(tref.table.clone(), cols);
            binding_names.push(binding);
        }
        Ok(Canonicalizer {
            query,
            canonical,
            binding_names,
        })
    }

    fn resolve(&self, c: &ColumnRef) -> Result<ColId, CanonError> {
        match &c.table {
            Some(binding) => {
                let occ = self
                    .binding_names
                    .iter()
                    .position(|b| b == binding)
                    .ok_or_else(|| CanonError::UnknownColumn(c.to_string()))?;
                let t = &self.canonical.tables[occ];
                let pos = (0..t.arity)
                    .find(|&p| self.canonical.columns[t.first_col + p].name == c.column)
                    .ok_or_else(|| CanonError::UnknownColumn(c.to_string()))?;
                Ok(t.first_col + pos)
            }
            None => {
                let mut found = None;
                for (id, info) in self.canonical.columns.iter().enumerate() {
                    if info.name == c.column {
                        if found.is_some() {
                            return Err(CanonError::AmbiguousColumn(c.column.clone()));
                        }
                        found = Some(id);
                    }
                }
                found.ok_or_else(|| CanonError::UnknownColumn(c.column.clone()))
            }
        }
    }

    /// Fold `-literal` into a literal; otherwise return the expression.
    fn fold_neg(e: &Expr) -> Expr {
        if let Expr::Neg(inner) = e {
            match inner.as_ref() {
                Expr::Literal(Literal::Int(v)) => return Expr::Literal(Literal::Int(-v)),
                Expr::Literal(Literal::Double(v)) => {
                    return Expr::Literal(Literal::Double(-v));
                }
                _ => {}
            }
        }
        e.clone()
    }

    fn term(&self, e: &Expr) -> Result<Term, CanonError> {
        match Self::fold_neg(e) {
            Expr::Column(c) => Ok(Term::Col(self.resolve(&c)?)),
            Expr::Literal(l) => Ok(Term::Const(l)),
            Expr::Agg(_) => Err(CanonError::AggregateInWhere),
            other => Err(CanonError::Unsupported(format!(
                "WHERE operand `{other}` (only columns and constants are supported)"
            ))),
        }
    }

    fn agg_spec(&self, call: &AggCall) -> Result<AggSpec, CanonError> {
        let arg = match &call.arg {
            None => None,
            Some(e) => match e.as_ref() {
                Expr::Column(c) => Some(self.resolve(c)?),
                other => {
                    return Err(CanonError::Unsupported(format!(
                        "aggregate argument `{other}` (only plain columns are supported)"
                    )))
                }
            },
        };
        Ok(AggSpec {
            func: call.func,
            arg,
        })
    }

    fn gterm(&self, e: &Expr, groups: &[ColId]) -> Result<GTerm, CanonError> {
        match Self::fold_neg(e) {
            Expr::Column(c) => {
                let id = self.resolve(&c)?;
                if !groups.contains(&id) {
                    return Err(CanonError::NonGroupedColumn(c.to_string()));
                }
                Ok(GTerm::Col(id))
            }
            Expr::Literal(l) => Ok(GTerm::Const(l)),
            Expr::Agg(call) => Ok(GTerm::Agg(AggExpr::Plain(self.agg_spec(&call)?))),
            other => Err(CanonError::Unsupported(format!(
                "HAVING operand `{other}` (only grouping columns, constants and aggregates)"
            ))),
        }
    }

    fn run(mut self) -> Result<Canonical, CanonError> {
        // GROUP BY first: SELECT validation needs it.
        let mut groups = Vec::new();
        for c in &self.query.group_by {
            groups.push(self.resolve(c)?);
        }

        // SELECT.
        let mut select = Vec::new();
        let mut any_agg = false;
        for item in &self.query.select {
            match Self::fold_neg(&item.expr) {
                Expr::Column(c) => {
                    let id = self.resolve(&c)?;
                    select.push(SelItem::Col(id));
                }
                Expr::Agg(call) => {
                    any_agg = true;
                    select.push(SelItem::Agg(AggExpr::Plain(self.agg_spec(&call)?)));
                }
                other => {
                    return Err(CanonError::Unsupported(format!(
                        "SELECT item `{other}` (only columns and AGG(column))"
                    )))
                }
            }
        }

        // SQL rule: with grouping (explicit or induced by aggregation), the
        // non-aggregation SELECT columns must be grouping columns.
        let grouped = !groups.is_empty() || any_agg || self.query.having.is_some();
        if grouped {
            for item in &select {
                if let SelItem::Col(c) = item {
                    if !groups.contains(c) {
                        return Err(CanonError::NonGroupedColumn(
                            self.canonical.columns[*c].name.clone(),
                        ));
                    }
                }
            }
        }

        // WHERE.
        let mut conds = Vec::new();
        if let Some(w) = &self.query.where_clause {
            for atom in w.conjuncts() {
                let BoolExpr::Cmp { lhs, op, rhs } = atom else {
                    unreachable!("conjuncts() yields comparisons");
                };
                conds.push(Atom::new(self.term(lhs)?, *op, self.term(rhs)?));
            }
        }

        // HAVING.
        let mut gconds = Vec::new();
        if let Some(h) = &self.query.having {
            for atom in h.conjuncts() {
                let BoolExpr::Cmp { lhs, op, rhs } = atom else {
                    unreachable!("conjuncts() yields comparisons");
                };
                gconds.push(GAtom {
                    lhs: self.gterm(lhs, &groups)?,
                    op: *op,
                    rhs: self.gterm(rhs, &groups)?,
                });
            }
        }

        self.canonical.select = select;
        self.canonical.conds = conds;
        self.canonical.groups = groups;
        self.canonical.gconds = gconds;
        Ok(self.canonical)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggview_catalog::{Catalog, TableSchema};
    use aggview_sql::parse_query;

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.add_table(TableSchema::new("R1", ["A", "B", "C", "D"]))
            .unwrap();
        cat.add_table(TableSchema::new("R2", ["E", "F"])).unwrap();
        cat
    }

    fn canon(sql: &str) -> Canonical {
        Canonical::from_query(&parse_query(sql).unwrap(), &catalog()).unwrap()
    }

    #[test]
    fn normalized_form_ignores_surface_variation() {
        // Same query under alias renaming, conjunct reordering, and
        // comparison flipping: one normalized form, one fingerprint.
        let a = canon("SELECT A, SUM(B) FROM R1, R2 WHERE C = F AND 3 < D GROUP BY A");
        let b =
            canon("SELECT x.A, SUM(x.B) FROM R1 x, R2 y WHERE x.D > 3 AND y.F = x.C GROUP BY x.A");
        assert_ne!(a, b, "surface forms differ before normalization");
        assert_eq!(a.normalized(), b.normalized());
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn constant_variants_share_a_template() {
        let (a, pa) =
            canon("SELECT A, SUM(B) FROM R1 WHERE D > 3 AND C = 1 GROUP BY A HAVING SUM(B) < 7")
                .lift_constants();
        let (b, pb) = canon(
            "SELECT x.A, SUM(x.B) FROM R1 x WHERE 5 = x.C AND x.D > 2 GROUP BY x.A \
             HAVING SUM(x.B) < 9",
        )
        .lift_constants();
        assert_eq!(a, b);
        // Parameters follow the template's slot order, whatever the
        // textual order of the conjuncts.
        let pos = |p: &[Literal], want: i64| p.iter().position(|l| *l == Literal::Int(want));
        assert_eq!(pos(&pa, 3), pos(&pb, 2));
        assert_eq!(pos(&pa, 1), pos(&pb, 5));
        assert_eq!(pa.last(), Some(&Literal::Int(7)));
        assert_eq!(pb.last(), Some(&Literal::Int(9)));
        // A constant of another type is another template.
        let (c, _) =
            canon("SELECT A, SUM(B) FROM R1 WHERE D > 3.5 AND C = 1 GROUP BY A HAVING SUM(B) < 7")
                .lift_constants();
        assert_ne!(a, c);
    }

    #[test]
    fn fingerprint_separates_different_queries() {
        let fps: Vec<u64> = [
            "SELECT A, SUM(B) FROM R1 GROUP BY A",
            "SELECT A, SUM(C) FROM R1 GROUP BY A",
            "SELECT A, SUM(B) FROM R1 WHERE D > 3 GROUP BY A",
            "SELECT A, COUNT(B) FROM R1 GROUP BY A",
            "SELECT DISTINCT A FROM R1",
        ]
        .iter()
        .map(|sql| canon(sql).fingerprint())
        .collect();
        let mut uniq = fps.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), fps.len(), "fingerprints collide: {fps:?}");
    }

    #[test]
    fn fingerprint_is_deterministic() {
        let sql = "SELECT A, E, COUNT(B) FROM R1, R2 WHERE C = F GROUP BY A, E";
        assert_eq!(canon(sql).fingerprint(), canon(sql).fingerprint());
    }

    #[test]
    fn canonicalizes_example_4_1_query() {
        let c = canon("SELECT A, E, COUNT(B) FROM R1, R2 WHERE C = F AND B = D GROUP BY A, E");
        assert_eq!(c.tables.len(), 2);
        assert_eq!(c.n_cols(), 6);
        // A=0,B=1,C=2,D=3 in R1; E=4,F=5 in R2.
        assert_eq!(c.groups, vec![0, 4]);
        assert_eq!(c.col_sel(), vec![0, 4]);
        assert_eq!(
            c.conds,
            vec![
                Atom::new(Term::Col(2), CmpOp::Eq, Term::Col(5)),
                Atom::new(Term::Col(1), CmpOp::Eq, Term::Col(3)),
            ]
        );
        assert_eq!(
            c.select[2],
            SelItem::Agg(AggExpr::Plain(AggSpec::on(AggFunc::Count, 1)))
        );
        assert!(c.is_aggregation_query());
        assert!(c.is_plain());
    }

    #[test]
    fn self_join_gets_distinct_col_ids() {
        let c = canon("SELECT x.A FROM R1 x, R1 y WHERE x.B = y.B");
        assert_eq!(c.n_cols(), 8);
        assert_eq!(
            c.conds,
            vec![Atom::new(Term::Col(1), CmpOp::Eq, Term::Col(5))]
        );
    }

    #[test]
    fn negative_literal_is_folded() {
        let c = canon("SELECT A FROM R1 WHERE B > -5");
        assert_eq!(
            c.conds,
            vec![Atom::new(
                Term::Col(1),
                CmpOp::Gt,
                Term::Const(Literal::Int(-5))
            )]
        );
    }

    #[test]
    fn having_terms_resolve() {
        let c = canon("SELECT A, SUM(B) FROM R1 GROUP BY A HAVING SUM(B) < 100 AND A > 2");
        assert_eq!(c.gconds.len(), 2);
        assert_eq!(
            c.gconds[0].lhs,
            GTerm::Agg(AggExpr::Plain(AggSpec::on(AggFunc::Sum, 1)))
        );
        assert_eq!(c.gconds[1].lhs, GTerm::Col(0));
    }

    #[test]
    fn rejects_non_grouped_select_column() {
        let err = Canonical::from_query(
            &parse_query("SELECT B, SUM(A) FROM R1 GROUP BY A").unwrap(),
            &catalog(),
        )
        .unwrap_err();
        assert_eq!(err, CanonError::NonGroupedColumn("B".into()));
    }

    #[test]
    fn rejects_non_grouped_having_column() {
        let err = Canonical::from_query(
            &parse_query("SELECT A FROM R1 GROUP BY A HAVING B > 2").unwrap(),
            &catalog(),
        )
        .unwrap_err();
        assert!(matches!(err, CanonError::NonGroupedColumn(_)));
    }

    #[test]
    fn rejects_arithmetic_in_where() {
        let err = Canonical::from_query(
            &parse_query("SELECT A FROM R1 WHERE A + B = 3").unwrap(),
            &catalog(),
        )
        .unwrap_err();
        assert!(matches!(err, CanonError::Unsupported(_)));
    }

    #[test]
    fn rejects_aggregate_in_where() {
        let err = Canonical::from_query(
            &parse_query("SELECT A FROM R1 WHERE SUM(B) = 3").unwrap(),
            &catalog(),
        )
        .unwrap_err();
        assert_eq!(err, CanonError::AggregateInWhere);
    }

    #[test]
    fn rejects_unknown_table_and_column() {
        assert_eq!(
            Canonical::from_query(&parse_query("SELECT A FROM Zz").unwrap(), &catalog())
                .unwrap_err(),
            CanonError::UnknownTable("Zz".into())
        );
        assert_eq!(
            Canonical::from_query(&parse_query("SELECT Zz FROM R1").unwrap(), &catalog())
                .unwrap_err(),
            CanonError::UnknownColumn("Zz".into())
        );
    }

    #[test]
    fn rejects_ambiguity_and_duplicate_bindings() {
        // A exists only in R1, but add two R1 occurrences without aliases.
        assert_eq!(
            Canonical::from_query(
                &parse_query("SELECT x.A FROM R1 x, R1 x").unwrap(),
                &catalog()
            )
            .unwrap_err(),
            CanonError::DuplicateBinding("x".into())
        );
        assert_eq!(
            Canonical::from_query(
                &parse_query("SELECT A FROM R1 x, R1 y").unwrap(),
                &catalog()
            )
            .unwrap_err(),
            CanonError::AmbiguousColumn("A".into())
        );
    }

    #[test]
    fn round_trips_through_ast() {
        let c = canon(
            "SELECT A, E, SUM(B) FROM R1, R2 WHERE C = F AND B = 6 GROUP BY A, E \
             HAVING SUM(B) < 100",
        );
        let q2 = c.to_query();
        let c2 = Canonical::from_query(&q2, &catalog()).unwrap();
        assert_eq!(c, c2);
    }

    #[test]
    fn round_trips_self_join() {
        let c = canon("SELECT x.A FROM R1 x, R1 y WHERE x.B = y.C");
        let q2 = c.to_query();
        // Bindings become R1_o0 / R1_o1.
        assert_eq!(q2.from.len(), 2);
        assert_ne!(q2.from[0].binding_name(), q2.from[1].binding_name());
        let c2 = Canonical::from_query(&q2, &catalog()).unwrap();
        assert_eq!(c.conds, c2.conds);
    }

    #[test]
    fn renders_extended_agg_forms() {
        let mut c = canon("SELECT A, COUNT(B) FROM R1 GROUP BY A");
        // Replace COUNT(B) with SUM(C * B) (WeightedSum) and render.
        c.select[1] = SelItem::Agg(AggExpr::WeightedSum { weight: 2, arg: 1 });
        let q = c.to_query();
        assert_eq!(q.select[1].expr.to_string(), "SUM(R1.C * R1.B)");
        c.select[1] = SelItem::Agg(AggExpr::RatioOfSums { num: 1, den: 2 });
        assert_eq!(
            c.to_query().select[1].expr.to_string(),
            "SUM(R1.B) / SUM(R1.C)"
        );
        c.select[1] = SelItem::Agg(AggExpr::Scaled {
            factor: 0,
            spec: AggSpec::on(AggFunc::Max, 1),
        });
        assert_eq!(c.to_query().select[1].expr.to_string(), "R1.A * MAX(R1.B)");
        c.select[1] = SelItem::Agg(AggExpr::WeightedAvg { weight: 2, arg: 1 });
        assert_eq!(
            c.to_query().select[1].expr.to_string(),
            "SUM(R1.C * R1.B) / SUM(R1.C)"
        );
        assert!(!c.is_plain());
    }

    #[test]
    fn atom_normalization() {
        let a = Atom::new(Term::Const(Literal::Int(5)), CmpOp::Lt, Term::Col(2));
        assert_eq!(
            a.normalized(),
            Atom::new(Term::Col(2), CmpOp::Gt, Term::Const(Literal::Int(5)))
        );
        let b = Atom::new(Term::Col(7), CmpOp::Eq, Term::Col(3));
        assert_eq!(b.normalized(), Atom::col_eq(3, 7));
        let c = Atom::new(Term::Col(7), CmpOp::Ge, Term::Col(3));
        assert_eq!(
            c.normalized(),
            Atom::new(Term::Col(3), CmpOp::Le, Term::Col(7))
        );
    }

    #[test]
    fn count_star_canonicalizes() {
        let c = canon("SELECT A, COUNT(*) FROM R1 GROUP BY A");
        assert_eq!(
            c.select[1],
            SelItem::Agg(AggExpr::Plain(AggSpec::count_star()))
        );
        let q2 = c.to_query();
        let c2 = Canonical::from_query(&q2, &catalog()).unwrap();
        assert_eq!(c, c2);
    }

    #[test]
    fn distinct_is_preserved() {
        let c = canon("SELECT DISTINCT A FROM R1");
        assert!(c.distinct);
        assert!(c.to_query().distinct);
    }
}
