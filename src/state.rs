//! The executable engine state behind a session or a shared store: the
//! catalog, the database instance (base tables, materialized views, and
//! their group indexes), and the view definitions.
//!
//! [`EngineState`] owns the *write* paths — `CREATE TABLE`, `CREATE
//! VIEW`, `INSERT`, `DELETE`, and the view-maintenance fan-out — exactly
//! as the single-owner `Session` always ran them. A local session mutates
//! its private state directly; the shared store's single writer thread
//! mutates one master copy and publishes immutable clones, so both
//! serving modes share one implementation of every statement's
//! semantics.

use crate::session::{err, SessionError};
use aggview_catalog::{Catalog, TableSchema};
use aggview_core::{Canonical, TableStats, ViewDef};
use aggview_engine::maintenance::{maintain_view_ctx, Delta, DeltaKind, FoldPlan};
use aggview_engine::{
    execute_ctx, Database, EngineResult, ExecContext, GroupIndex, Relation, Value,
};
use aggview_sql::{CreateTable, CreateView, Delete, Insert, Query};

/// Fault injection: `AGGVIEW_UNSOUND_ADVISOR_STALE=1` skips all view
/// maintenance for advisor-created views (`AdvView*`), leaving them stale
/// after writes — the soundness bug the qcheck advisor axis must catch.
/// Read once per process.
fn unsound_advisor_stale() -> bool {
    static STALE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *STALE.get_or_init(|| std::env::var_os("AGGVIEW_UNSOUND_ADVISOR_STALE").is_some())
}

/// Is `name` an advisor-created view? The advisor names every view it
/// creates `AdvView{N}`; nothing else in the system uses the prefix.
pub fn is_advisor_view_name(name: &str) -> bool {
    name.starts_with("AdvView")
}

/// Catalog + database + view definitions: everything a statement needs.
///
/// `Clone` is the snapshot operation: the shared store's writer clones
/// the master state into each published
/// [`crate::server::StoreSnapshot`]. The catalog and view list are
/// copied; stored relations are shared (see [`Database`]).
#[derive(Debug, Clone, Default)]
pub struct EngineState {
    /// Base-table schemas (keys included).
    pub catalog: Catalog,
    /// Stored relations: base tables and materialized views, with any
    /// group indexes attached.
    pub db: Database,
    /// Materialized view definitions, in creation order.
    pub views: Vec<ViewDef>,
}

/// Which maintenance policies the write paths follow — the write-side
/// slice of `SessionOptions`. A store fixes one policy for all handles
/// (the materialized state is shared); a local session derives it from
/// its own options.
#[derive(Debug, Clone, Copy)]
pub struct WritePolicy {
    /// Attach a [`GroupIndex`] on the exposed grouping columns of every
    /// materialized `GROUP BY` view.
    pub index_views: bool,
    /// Refresh dependent views by full recomputation instead of the
    /// incremental delta path.
    pub recompute_views: bool,
    /// Let write-path query execution (view materialization, DELETE row
    /// matching, recomputation fallbacks) use the vectorized columnar
    /// operators. Off forces the row-at-a-time interpreter everywhere.
    pub columnar: bool,
    /// WAL + checkpoint persistence for the store's writer thread. Off
    /// by default (benches measure the in-memory path); forced on by
    /// `SharedStore::open`, which is the only way to get a data
    /// directory to log into.
    pub durability: bool,
}

impl Default for WritePolicy {
    fn default() -> Self {
        WritePolicy {
            index_views: true,
            recompute_views: false,
            columnar: true,
            durability: false,
        }
    }
}

/// The effect of one applied write statement.
#[derive(Debug, Clone)]
pub struct Applied {
    /// Human-readable acknowledgement (what `StatementOutcome::Ok` shows).
    pub message: String,
    /// Did the statement change the schema universe (`CREATE TABLE` /
    /// `CREATE VIEW`)? Schema changes bump the plan-cache epoch.
    pub schema_change: bool,
    /// Rows affected: inserted rows, deleted rows, or the materialized
    /// row count of a new view (0 for `CREATE TABLE`). The sharded
    /// router sums these across shards to recompose the global ack.
    pub rows_affected: usize,
    /// How many dependent views took the incremental maintenance path
    /// (0 for DDL).
    pub views_incremental: usize,
}

impl Applied {
    /// The effect of an `INSERT` (`inserted`) or `DELETE` that changed
    /// `rows` rows of `table`. The sharded router recomposes its global
    /// ack here too, so it matches the unsharded one byte for byte.
    pub(crate) fn dml(inserted: bool, rows: usize, table: &str, incremental: usize) -> Applied {
        let change = if inserted {
            "inserted into"
        } else {
            "deleted from"
        };
        Applied {
            message: format!(
                "{rows} row(s) {change} `{table}`; {incremental} view(s) maintained incrementally"
            ),
            schema_change: false,
            rows_affected: rows,
            views_incremental: incremental,
        }
    }
}

impl EngineState {
    /// An empty state.
    pub fn new() -> Self {
        EngineState::default()
    }

    /// Live cardinalities of every stored relation (cost ranking input).
    pub fn table_stats(&self) -> TableStats {
        let mut stats = TableStats::new();
        for (name, rel) in self.db.iter() {
            stats.set(name.clone(), rel.len());
        }
        stats
    }

    /// Apply `CREATE TABLE`.
    pub fn create_table(&mut self, ct: &CreateTable) -> Result<Applied, SessionError> {
        let mut schema = TableSchema::new(ct.name.clone(), ct.columns.clone());
        for key in &ct.keys {
            schema = schema.with_key(key.iter().map(|s| s.as_str()));
        }
        self.catalog
            .add_table(schema)
            .map_err(|e| err(e.to_string()))?;
        self.db
            .insert(ct.name.clone(), Relation::empty(ct.columns.clone()));
        Ok(Applied {
            message: format!(
                "table `{}` created ({} columns, {} key(s))",
                ct.name,
                ct.columns.len(),
                ct.keys.len()
            ),
            schema_change: true,
            rows_affected: 0,
            views_incremental: 0,
        })
    }

    /// Run one write statement all-or-nothing: on `Err` the state is what
    /// it was before the statement (base table, every view, every index).
    fn atomically<T>(
        &mut self,
        statement: impl FnOnce(&mut Self) -> Result<T, SessionError>,
    ) -> Result<T, SessionError> {
        let before = self.clone();
        let result = statement(self);
        if result.is_err() {
            *self = before;
        }
        result
    }

    /// Apply `CREATE VIEW`: register and materialize.
    pub fn create_view(
        &mut self,
        cv: &CreateView,
        policy: WritePolicy,
    ) -> Result<Applied, SessionError> {
        if self.catalog.table(&cv.name).is_some() || self.views.iter().any(|v| v.name == cv.name) {
            return Err(err(format!("relation `{}` already exists", cv.name)));
        }
        let view = ViewDef::new(cv.name.clone(), cv.query.clone());
        self.atomically(|state| {
            let n = state
                .materialize(&view, policy)
                .map_err(|e| err(format!("view `{}`: {e}", cv.name)))?;
            state.views.push(view);
            Ok(Applied {
                message: format!("view `{}` materialized ({n} rows)", cv.name),
                schema_change: true,
                rows_affected: n,
                views_incremental: 0,
            })
        })
    }

    /// Evaluate `view` against the stored relations and store the result
    /// under its name, with what [`EngineState::attach_view`] keeps beside
    /// it. Returns the row count.
    pub fn materialize(&mut self, view: &ViewDef, policy: WritePolicy) -> EngineResult<usize> {
        let cx = ExecContext::columnar(policy.columnar);
        let mut rel = execute_ctx(&view.query, &self.db, &cx)?;
        rel.columns = view.output_names();
        let n = rel.len();
        self.db.insert(view.name.clone(), rel);
        self.attach_view(view, policy);
        Ok(n)
    }

    /// Attach to the stored materialization of `view` what the write path
    /// keeps beside the rows: its compiled delta rule, when its shape has
    /// one, and — when the policy asks — a [`GroupIndex`], keyed like the
    /// delta rule's group lookups so the one index serves both, else on
    /// the exposed grouping columns of any other `GROUP BY` view.
    pub fn attach_view(&mut self, view: &ViewDef, policy: WritePolicy) {
        let cx = ExecContext::columnar(policy.columnar);
        match FoldPlan::compile(&view.query, &self.db, &cx) {
            Some(plan) => {
                self.db.set_fold_plan(&view.name, plan, policy.index_views);
            }
            None if policy.index_views => {
                if let (Some(key_cols), Ok(rel)) =
                    (self.exposed_group_cols(view), self.db.get(&view.name))
                {
                    let idx = GroupIndex::build(rel, key_cols);
                    self.db.set_index(view.name.clone(), idx);
                }
            }
            None => {}
        }
    }

    /// View positions of the grouping columns `view` exposes; `None` for
    /// an ungrouped view or one that exposes none.
    fn exposed_group_cols(&self, view: &ViewDef) -> Option<Vec<usize>> {
        if view.query.group_by.is_empty() {
            return None;
        }
        let canon = Canonical::from_query(&view.query, &self.db).ok()?;
        let key: Vec<usize> = canon
            .select
            .iter()
            .enumerate()
            .filter_map(|(i, item)| match item {
                aggview_core::SelItem::Col(c) if canon.groups.contains(c) => Some(i),
                _ => None,
            })
            .collect();
        (!key.is_empty()).then_some(key)
    }

    /// Apply `INSERT`, maintaining dependent views.
    pub fn insert(&mut self, ins: &Insert, policy: WritePolicy) -> Result<Applied, SessionError> {
        let arity = self
            .db
            .get(&ins.table)
            .map_err(|e| err(e.to_string()))?
            .arity();
        if self.catalog.table(&ins.table).is_none() {
            return Err(err(format!(
                "`{}` is a view; INSERT into base tables only",
                ins.table
            )));
        }
        if let Some(row) = ins.rows.iter().find(|row| row.len() != arity) {
            return Err(err(format!(
                "row arity {} does not match table `{}` arity {arity}",
                row.len(),
                ins.table,
            )));
        }
        let delta: Vec<Vec<Value>> = ins
            .rows
            .iter()
            .map(|row| row.iter().map(aggview_engine::value::lit_value).collect())
            .collect();
        self.atomically(|state| state.apply_delta(&ins.table, DeltaKind::Insert(&delta), policy))
    }

    /// Apply `DELETE`, maintaining dependent views.
    pub fn delete(&mut self, del: &Delete, policy: WritePolicy) -> Result<Applied, SessionError> {
        if self.catalog.table(&del.table).is_none() {
            return Err(err(format!(
                "`{}` is not a base table; DELETE applies to base tables only",
                del.table
            )));
        }
        // Partition the rows by the filter, using the engine's own
        // predicate semantics (SELECT * ... WHERE filter).
        let all_cols = &self
            .db
            .get(&del.table)
            .map_err(|e| err(e.to_string()))?
            .columns;
        let q = Query {
            distinct: false,
            select: all_cols
                .iter()
                .map(|c| aggview_sql::ast::SelectItem::expr(aggview_sql::ast::Expr::col(c.clone())))
                .collect(),
            from: vec![aggview_sql::ast::TableRef::new(del.table.clone())],
            where_clause: del.filter.clone(),
            group_by: Vec::new(),
            having: None,
        };
        let matching = execute_ctx(&q, &self.db, &ExecContext::columnar(policy.columnar))
            .map_err(|e| err(e.to_string()))?;
        self.atomically(|state| {
            state.apply_delta(&del.table, DeltaKind::Delete(&matching.rows), policy)
        })
    }

    /// Apply `delta` to base table `table` in place, then maintain every
    /// dependent view.
    fn apply_delta(
        &mut self,
        table: &str,
        delta: DeltaKind<'_>,
        policy: WritePolicy,
    ) -> Result<Applied, SessionError> {
        let applied = match delta {
            DeltaKind::Insert(rows) => self
                .db
                .update(table, |rel, _| rel.rows.extend_from_slice(rows)),
            DeltaKind::Delete(rows) => self.db.update(table, |rel, _| rel.remove_rows(rows)),
        };
        applied.map_err(|e| err(e.to_string()))?;
        let incremental = self.maintain_views(table, delta, policy)?;
        let (DeltaKind::Insert(rows) | DeltaKind::Delete(rows)) = delta;
        let inserted = matches!(delta, DeltaKind::Insert(_));
        Ok(Applied::dml(inserted, rows.len(), table, incremental))
    }

    /// Maintain every view after the change `kind` was applied to
    /// `changed_table`: by folding the change's image in where the view's
    /// shape allows, by recomputation otherwise. Views over views are
    /// handled by propagating the set of changed relations through the
    /// (topologically ordered) definition list; their deltas are not
    /// tracked, so they recompute. Returns how many views were folded.
    fn maintain_views(
        &mut self,
        changed_table: &str,
        kind: DeltaKind<'_>,
        policy: WritePolicy,
    ) -> Result<usize, SessionError> {
        let cx = ExecContext::columnar(policy.columnar);
        let reads = |v: &ViewDef, name: &str| v.query.from.iter().any(|t| t.table == name);
        let mut changed: Vec<String> = vec![changed_table.to_string()];
        let mut incremental = 0usize;
        let mut touched = 0usize;
        let maintain_clock = self.db.metrics().cloned().map(|m| {
            let start = m.now_ns();
            (m, start)
        });
        // One delta per statement, shared by every view that folds; none
        // under the `recompute_views` policy.
        let delta = (!policy.recompute_views && self.views.iter().any(|v| reads(v, changed_table)))
            .then(|| Delta::new(changed_table, kind, &self.db))
            .transpose()
            .map_err(|e| err(e.to_string()))?;
        for v in &self.views {
            if !changed.iter().any(|name| reads(v, name)) {
                continue;
            }
            if unsound_advisor_stale() && is_advisor_view_name(&v.name) {
                // Injected bug: advisor views silently go stale.
                changed.push(v.name.clone());
                continue;
            }
            touched += 1;
            // `ΔT ⋈ V_new` misses `T_old ⋈ ΔV`: the delta rule holds only
            // while every other relation the view reads is as it was, so a
            // view that also reads a changed view recomputes.
            let sole = changed[1..].iter().all(|name| !reads(v, name));
            let folded = delta.as_ref().filter(|_| sole);
            let took_incremental = maintain_view_ctx(&v.name, &v.query, folded, &mut self.db, &cx)
                .map_err(|e| err(format!("maintaining `{}`: {e}", v.name)))?;
            incremental += took_incremental as usize;
            self.db.record(
                if took_incremental {
                    aggview_obs::CounterId::MaintainIncremental
                } else {
                    aggview_obs::CounterId::MaintainRecompute
                },
                1,
            );
            changed.push(v.name.clone());
        }
        if touched > 0 {
            if let Some((m, start)) = maintain_clock {
                m.observe_ns(
                    aggview_obs::Stage::Maintain,
                    m.now_ns().saturating_sub(start),
                );
            }
        }
        Ok(incremental)
    }
}
