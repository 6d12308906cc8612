//! The differential oracle: one case, every execution path, one verdict.
//!
//! The reference answer comes from `engine::reference` — a naive
//! cross-product interpreter with no join planning, no indexes, no
//! rewriting, slow and obviously correct. A case's write `protocol` is
//! derived once: create the tables, insert the first half of each, create
//! the views, insert the rest, delete from table 0 — with the query
//! answered at four checkpoints (half the data, after view creation, with
//! every row inserted, at the end). The last two are one write to one
//! table apart, so a kept build that reads table 0 besides other tables
//! must notice that table 0 alone changed. Every lattice mode replays it on a fresh `Target` at
//! each point of the **session config lattice** (plan cache on/off ×
//! delta-maintained vs. recomputed views × columnar vs. row-at-a-time
//! execution — 8 points), and one walk checks, whatever the target:
//!
//! * each checkpoint answer against the reference interpreter, under the
//!   semantics it claims — multiset equality (Theorem 3.1) in general,
//!   set equality for §5 rewritings;
//! * every handle's answer repeated at the end: correct, bitwise-stable
//!   against the last answer, and with the cache on a plan-cache hit;
//! * a sharded target's per-shard partitions, a disjoint cover of each
//!   table's global contents;
//! * the final **materialized view contents**, equal to reference
//!   evaluation of the view definitions and identical across lattice
//!   points;
//! * a few **constant-only variants** of the query (see
//!   [`crate::variants`]), asked after a schema event so every point
//!   decides them from the final data: each answer against the reference
//!   interpreter, and each decision's metadata (executed text, views,
//!   candidate count, semantics, column names) identical with the plan
//!   cache on and off — a `decision-drift` otherwise, which is what a
//!   template served to a variant it does not fit looks like — and no
//!   template replay rejected (`replay-reject`).
//!
//! The local mode adds a **display→parse round-trip** of the query and
//! each view, and executes **every emitted rewriting** (not just the
//! chosen one) against the reference.
//!
//! Any disagreement (or a panic anywhere in the stack) is a
//! [`Discrepancy`], tagged with a stable `kind` the shrinker preserves.

use crate::case::Case;
use crate::target::{self, Target};
use crate::variants::variants;
use crate::Mode;
use aggview::run::execute_rewriting;
use aggview::session::{SessionOptions, StatementOutcome};
use aggview::state::WritePolicy;
use aggview_core::Rewriter;
use aggview_engine::{execute_reference, multiset_eq, set_eq, Database, Relation, Value};
use aggview_sql::ast::{BoolExpr, CmpOp, ColumnRef, Expr, Literal};
use aggview_sql::{parse_query, CreateTable, CreateView, Delete, Insert, Statement};
use std::fmt;

/// A cross-check failure: a stable kind (preserved by shrinking) plus a
/// human-readable detail.
#[derive(Debug, Clone)]
pub struct Discrepancy {
    /// Which oracle check failed (`"answer-mismatch"`, `"roundtrip"`, ...).
    pub kind: String,
    /// What disagreed with what.
    pub detail: String,
}

impl Discrepancy {
    pub(crate) fn new(kind: &str, detail: impl Into<String>) -> Self {
        Discrepancy {
            kind: kind.to_string(),
            detail: detail.into(),
        }
    }

    /// The same failure, its detail prefixed with where it happened.
    pub(crate) fn within(self, context: &str) -> Self {
        Discrepancy {
            detail: format!("{context}: {}", self.detail),
            ..self
        }
    }
}

impl fmt::Display for Discrepancy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.kind, self.detail)
    }
}

/// One point of the session config lattice.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LatticePoint {
    pub(crate) cache: bool,
    pub(crate) recompute: bool,
    pub(crate) columnar: bool,
}

impl LatticePoint {
    pub(crate) fn all() -> Vec<LatticePoint> {
        let mut out = Vec::with_capacity(8);
        for cache in [true, false] {
            for recompute in [true, false] {
                for columnar in [true, false] {
                    out.push(LatticePoint {
                        cache,
                        recompute,
                        columnar,
                    });
                }
            }
        }
        out
    }

    pub(crate) fn options(&self) -> SessionOptions {
        SessionOptions {
            plan_cache_cap: if self.cache { 64 } else { 0 },
            recompute_views: self.recompute,
            columnar: self.columnar,
            ..SessionOptions::default()
        }
    }

    /// The write-side axes as a store-wide policy (a store's materialized
    /// state is shared, so these cannot vary per handle).
    pub(crate) fn policy(&self) -> WritePolicy {
        WritePolicy {
            recompute_views: self.recompute,
            columnar: self.columnar,
            durability: false,
        }
    }
}

impl fmt::Display for LatticePoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cache={} recompute={} columnar={}",
            self.cache as u8, self.recompute as u8, self.columnar as u8
        )
    }
}

/// Where in the write protocol the query is answered.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Checkpoint {
    /// Half of every table inserted, no views yet (base-table serving).
    Halfway,
    /// Same data, views created: the searches run, a rewriting may be
    /// chosen, the answer must not move.
    PostView,
    /// All rows inserted, the delete not yet applied.
    Inserted,
    /// All rows inserted and the delete applied.
    Final,
}

impl fmt::Display for Checkpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Checkpoint::Halfway => "halfway",
            Checkpoint::PostView => "post-view",
            Checkpoint::Inserted => "inserted",
            Checkpoint::Final => "final",
        })
    }
}

/// A case's write protocol: the statement stream every mode replays,
/// and where in it the query is answered.
pub(crate) struct Protocol {
    /// Create tables, first-half inserts, create views, second-half
    /// inserts, then the delete on table 0 (empty inserts are skipped).
    pub(crate) statements: Vec<Statement>,
    /// Each answer checkpoint with the number of statements before it.
    checkpoints: [(Checkpoint, usize); 4],
}

impl Protocol {
    /// The stream cut at its checkpoints: the statements to run before
    /// each answer.
    pub(crate) fn segments(&self) -> impl Iterator<Item = (&[Statement], Checkpoint)> + '_ {
        let mut done = 0;
        self.checkpoints.iter().map(move |&(cp, at)| {
            let segment = &self.statements[done..at];
            done = at;
            (segment, cp)
        })
    }
}

/// Derive `case`'s write protocol.
pub(crate) fn protocol(case: &Case) -> Protocol {
    let mut statements: Vec<Statement> = case
        .tables
        .iter()
        .map(|t| {
            Statement::CreateTable(CreateTable {
                name: t.name.clone(),
                columns: t.columns.clone(),
                keys: Vec::new(),
            })
        })
        .collect();
    let inserts = |first_half: bool| {
        case.tables.iter().enumerate().filter_map(move |(i, t)| {
            let (head, tail) = t.rows.split_at(case.split_at(i));
            let rows = if first_half { head } else { tail };
            (!rows.is_empty()).then(|| {
                Statement::Insert(Insert {
                    table: t.name.clone(),
                    rows: rows
                        .iter()
                        .map(|r| r.iter().map(|&v| Literal::Int(v)).collect())
                        .collect(),
                })
            })
        })
    };
    statements.extend(inserts(true));
    let halfway = statements.len();
    statements.extend(case.views.iter().map(|v| {
        Statement::CreateView(CreateView {
            name: v.name.clone(),
            query: v.query.clone(),
        })
    }));
    let post_view = statements.len();
    statements.extend(inserts(false));
    let inserted = statements.len();
    let t0 = &case.tables[0];
    statements.push(Statement::Delete(Delete {
        table: t0.name.clone(),
        filter: Some(BoolExpr::cmp(
            Expr::Column(ColumnRef::bare(t0.columns[0].clone())),
            CmpOp::Eq,
            Expr::int(1),
        )),
    }));
    let end = statements.len();
    Protocol {
        statements,
        checkpoints: [
            (Checkpoint::Halfway, halfway),
            (Checkpoint::PostView, post_view),
            (Checkpoint::Inserted, inserted),
            (Checkpoint::Final, end),
        ],
    }
}

type Rows = Vec<Vec<Value>>;

/// The reference interpreter's verdicts on a case: the query on each
/// distinct state it is answered on, and each view's contents on the
/// final one (views range over base tables only).
struct Expected {
    half: Relation,
    inserted: Relation,
    last: Relation,
    views: Vec<Relation>,
    final_db: Database,
}

impl Expected {
    fn of(case: &Case) -> Result<Expected, Discrepancy> {
        let final_db = case.database(false);
        let reference = |q, db, what: &str| {
            execute_reference(q, db)
                .map_err(|e| Discrepancy::new("reference-error", format!("{what}{e}")))
        };
        Ok(Expected {
            half: reference(&case.query, &case.database(true), "")?,
            inserted: reference(&case.query, &case.inserted_database(), "")?,
            last: reference(&case.query, &final_db, "")?,
            views: case
                .views
                .iter()
                .map(|v| reference(&v.query, &final_db, &format!("view {}: ", v.name)))
                .collect::<Result<_, _>>()?,
            final_db,
        })
    }

    fn answer(&self, cp: Checkpoint) -> &Relation {
        match cp {
            Checkpoint::Halfway | Checkpoint::PostView => &self.half,
            Checkpoint::Inserted => &self.inserted,
            Checkpoint::Final => &self.last,
        }
    }
}

/// Replay the protocol at every lattice point on a fresh target of
/// `mode`, then run the mode's point-independent checks.
pub(crate) fn check_lattice(case: &Case, mode: &Mode) -> Result<(), Discrepancy> {
    if *mode == Mode::Local {
        roundtrip(case)?;
    }
    let expected = Expected::of(case)?;
    let protocol = protocol(case);
    let mut first: Option<(LatticePoint, Vec<Rows>)> = None;
    let mut cached: Vec<(LatticePoint, Vec<Decided>)> = Vec::new();
    for point in LatticePoint::all() {
        let at = target::label(mode, point);
        let (views, decided) = target::open(mode, point)
            .and_then(|mut t| walk(case, &protocol, &expected, t.as_mut(), point.cache))
            .map_err(|d| d.within(&at))?;
        if point.cache {
            cached.push((point, decided));
        } else if let Some((on, want)) = cached
            .iter()
            .find(|(p, _)| (p.recompute, p.columnar) == (point.recompute, point.columnar))
        {
            if let Some((i, (w, g))) = want
                .iter()
                .zip(&decided)
                .enumerate()
                .find(|(_, (w, g))| w != g)
            {
                return Err(Discrepancy::new(
                    "decision-drift",
                    format!("{at}: variant {i} decided differently from [{on}]: {g:?} vs {w:?}"),
                ));
            }
        }
        match &first {
            None => first = Some((point, views)),
            Some((baseline, rows)) if *rows != views => {
                return Err(Discrepancy::new(
                    "config-divergence",
                    format!("{at}: materialized views differ from [{baseline}]"),
                ))
            }
            Some(_) => {}
        }
    }
    match mode {
        Mode::Local => check_rewritings(case, &expected.final_db, &expected.last),
        Mode::Net => crate::net::fuzz_frames(case),
        _ => Ok(()),
    }
}

/// One lattice point: the protocol on `target`, round-robined across its
/// handles (one driver thread, every write acked before the next
/// statement, so the interleaving is identical on every run). Returns
/// each view's final sorted rows and the decisions on the query's
/// constant variants.
fn walk(
    case: &Case,
    protocol: &Protocol,
    expected: &Expected,
    target: &mut dyn Target,
    cache: bool,
) -> Result<(Vec<Rows>, Vec<Decided>), Discrepancy> {
    let select = Statement::Select(case.query.clone());
    let handles = target.handles();
    let mut next = 0;
    let mut step = |target: &mut dyn Target, stmt: &Statement| {
        next += 1;
        target.run((next - 1) % handles, stmt)
    };
    let mut last = Vec::new();
    for (statements, cp) in protocol.segments() {
        for stmt in statements {
            step(target, stmt)?;
        }
        // A durable target reopens before the final answer and after the
        // halfway one: acked writes must be visible across the restart.
        let mut label = cp.to_string();
        if cp == Checkpoint::Final && target.reopen()? {
            label.push_str(" after reopen");
        }
        let answer = served(step(target, &select)?)?;
        compare(&answer, expected.answer(cp), &label)?;
        if cp == Checkpoint::Halfway && target.reopen()? {
            let again = served(step(target, &select)?)?;
            compare(&again, &expected.half, "halfway after reopen")?;
        }
        last = answer.relation.sorted_rows();
    }

    // Every handle answers once more against the same published state:
    // correctly, whatever its private plan cache did earlier; unchanged,
    // with no intervening write; and with the cache on, from a hit.
    let hits = target.cache_hits();
    for h in 0..handles {
        let answer = served(target.run(h, &select)?)?;
        compare(
            &answer,
            &expected.last,
            &format!("per-handle final (handle {h})"),
        )?;
        if answer.relation.sorted_rows() != last {
            return Err(Discrepancy::new(
                "cache-hit-divergence",
                format!(
                    "repeated SELECT on handle {h} changed its answer with no intervening write"
                ),
            ));
        }
    }
    if cache && hits.is_some() && target.cache_hits() == hits {
        return Err(Discrepancy::new(
            "cache-miss",
            "repeated SELECT did not hit the plan cache",
        ));
    }

    let decided = ask_variants(case, &expected.final_db, target)?;

    // Partition completeness: every base table's global contents must be
    // exactly the disjoint union of its per-shard partitions.
    let shards = target.partitions();
    if !shards.is_empty() {
        for t in &case.tables {
            let want = expected.final_db.get(&t.name).expect("a case table");
            let mut got = Relation::empty(want.columns.iter().cloned());
            for snap in &shards {
                let part = snap.state.db.get(&t.name).map_err(|e| {
                    Discrepancy::new("partition-incomplete", format!("table {}: {e}", t.name))
                })?;
                got.rows.extend(part.rows.iter().cloned());
            }
            if !multiset_eq(&got, want) {
                return Err(Discrepancy::new(
                    "partition-incomplete",
                    format!(
                        "table {}: shard partitions concatenate to {} row(s), global has {}",
                        t.name,
                        got.len(),
                        want.len()
                    ),
                ));
            }
        }
    }

    let views = case
        .views
        .iter()
        .zip(&expected.views)
        .map(|(v, want)| {
            let mismatch = |what: String| {
                Discrepancy::new("view-content-mismatch", format!("view {} {what}", v.name))
            };
            let rows = target
                .view(&v.name)
                .map_err(|e| mismatch(format!("lost: {e}")))?;
            let got = Relation::new(want.columns.clone(), rows);
            if !multiset_eq(&got, want) {
                return Err(mismatch("disagrees with reference evaluation".into()));
            }
            Ok(got.sorted_rows())
        })
        .collect::<Result<_, _>>()?;
    Ok((views, decided))
}

/// Where a schema event marks the start of the variant phase: no case
/// table or view has this name.
const VARIANT_MARK: &str = "Variants_mark";

/// What a `SELECT` reported about the decision that served it.
#[derive(Debug, PartialEq)]
pub(crate) struct Decided {
    executed: String,
    views_used: Vec<String>,
    candidates: usize,
    set_semantics: bool,
    columns: Vec<String>,
}

/// Ask the query's constant-only variants after a schema event, checking
/// each answer against the reference on the final data. The event drops
/// every cached decision: a cached decision deliberately stands across
/// data writes, so one made at an earlier checkpoint may rank candidates
/// by older cardinalities, which is not what the comparison of cache-on
/// and cache-off decisions is about.
fn ask_variants(
    case: &Case,
    final_db: &Database,
    target: &mut dyn Target,
) -> Result<Vec<Decided>, Discrepancy> {
    let variants = variants(case);
    if variants.is_empty() {
        return Ok(Vec::new());
    }
    let mark = Statement::CreateTable(CreateTable {
        name: VARIANT_MARK.to_string(),
        columns: vec!["a".to_string()],
        keys: Vec::new(),
    });
    target.run(0, &mark)?;
    let handles = target.handles();
    let decided = variants
        .iter()
        .enumerate()
        .map(|(i, q)| {
            let outcome = target.run(i % handles, &Statement::Select(q.clone()))?;
            let decided = match &outcome {
                StatementOutcome::Answer {
                    relation,
                    executed,
                    views_used,
                    candidates,
                    set_semantics,
                    ..
                } => Decided {
                    executed: executed.clone(),
                    views_used: views_used.clone(),
                    candidates: *candidates,
                    set_semantics: *set_semantics,
                    columns: relation.columns.clone(),
                },
                _ => {
                    return Err(Discrepancy::new(
                        "session-error",
                        "a variant did not answer",
                    ))
                }
            };
            let want = execute_reference(q, final_db)
                .map_err(|e| Discrepancy::new("reference-error", format!("variant {i}: {e}")))?;
            compare(&served(outcome)?, &want, &format!("variant {i} ({q})"))?;
            Ok(decided)
        })
        .collect::<Result<_, _>>()?;
    // With no write between them, variants of one order type get one
    // search: a replay that finds no match means the order type missed a
    // comparison the search depends on.
    match target.replay_rejects() {
        0 => Ok(decided),
        n => Err(Discrepancy::new(
            "replay-reject",
            format!("{n} template replay(s) found no rewriting matching the cached choice"),
        )),
    }
}

/// A served answer plus the semantics (and views) it was produced under.
pub(crate) struct Served {
    pub(crate) relation: Relation,
    pub(crate) set_semantics: bool,
    pub(crate) views_used: Vec<String>,
}

/// The answer a `SELECT` produced. A session running with `verify` (the
/// shard driver) cross-checks its own answer, and a failed check is a
/// discrepancy.
pub(crate) fn served(outcome: StatementOutcome) -> Result<Served, Discrepancy> {
    match outcome {
        StatementOutcome::Answer {
            verified: Some(false),
            executed,
            ..
        } => Err(Discrepancy::new(
            "verify-mismatch",
            format!("the session's own cross-check failed; executed: {executed}"),
        )),
        StatementOutcome::Answer {
            relation,
            set_semantics,
            views_used,
            ..
        } => Ok(Served {
            relation,
            set_semantics,
            views_used,
        }),
        other => Err(Discrepancy::new(
            "session-error",
            format!("SELECT produced a non-answer outcome: {other:?}"),
        )),
    }
}

fn compare(served: &Served, expected: &Relation, step: &str) -> Result<(), Discrepancy> {
    let eq = if served.set_semantics {
        set_eq(&served.relation, expected)
    } else {
        multiset_eq(&served.relation, expected)
    };
    if eq {
        Ok(())
    } else {
        Err(Discrepancy::new(
            "answer-mismatch",
            format!(
                "{step} answer disagrees with the reference interpreter \
                 (got {} row(s), expected {})",
                served.relation.len(),
                expected.len()
            ),
        ))
    }
}

/// Display→parse round-trip of the query and each view definition.
fn roundtrip(case: &Case) -> Result<(), Discrepancy> {
    let mut targets = vec![("query".to_string(), &case.query)];
    for v in &case.views {
        targets.push((format!("view {}", v.name), &v.query));
    }
    for (what, q) in targets {
        let text = q.to_string();
        match parse_query(&text) {
            Ok(back) if back == *q => {}
            Ok(_) => {
                return Err(Discrepancy::new(
                    "roundtrip",
                    format!("{what} reparses differently: {text}"),
                ))
            }
            Err(e) => {
                return Err(Discrepancy::new(
                    "roundtrip",
                    format!("{what} fails to reparse ({e}): {text}"),
                ))
            }
        }
    }
    Ok(())
}

/// Execute *every* emitted rewriting on the final database and compare
/// with the reference answer under the semantics the rewriting claims.
fn check_rewritings(
    case: &Case,
    final_db: &Database,
    expected: &Relation,
) -> Result<(), Discrepancy> {
    let catalog = case.catalog();
    let rewriter = Rewriter::new(&catalog);
    let rewritings = rewriter
        .rewrite(&case.query, &case.views)
        .map_err(|e| Discrepancy::new("rewrite-error", e.to_string()))?;
    if rewritings.is_empty() {
        return Ok(());
    }
    let mut db = final_db.clone();
    aggview::run::materialize_views(&mut db, &case.views)
        .map_err(|e| Discrepancy::new("engine-error", e.to_string()))?;
    for rw in &rewritings {
        let got = execute_rewriting(rw, &db)
            .map_err(|e| Discrepancy::new("engine-error", format!("{e}: {}", rw.query)))?;
        let eq = if rw.set_semantics {
            set_eq(&got, expected)
        } else {
            multiset_eq(&got, expected)
        };
        if !eq {
            return Err(Discrepancy::new(
                "rewriting-inequivalent",
                format!(
                    "rewriting over {:?} disagrees with the reference interpreter \
                     (got {} row(s), expected {}): {}",
                    rw.views_used,
                    got.len(),
                    expected.len(),
                    rw.query
                ),
            ));
        }
    }
    Ok(())
}
