//! A named collection of relations: base tables plus materialized views.

use crate::columnar::ColumnarRelation;
use crate::error::{EngineError, EngineResult};
use crate::index::GroupIndex;
use crate::maintenance::FoldPlan;
use crate::relation::Relation;
use aggview_catalog::SchemaSource;
use aggview_obs::{CounterId, MetricsRegistry};
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// Everything stored under one relation name. The rows, the index over
/// them and their columnar conversion live and die together: whoever
/// holds the `Arc` sees all three as they were when it was taken.
#[derive(Debug, Clone)]
struct Stored {
    relation: Relation,
    index: Option<GroupIndex>,
    /// A materialized view's compiled delta rule (see
    /// [`crate::maintenance`]); depends on the definition only, so it
    /// survives every change to the rows.
    fold_plan: Option<Arc<FoldPlan>>,
    /// Built on first use; reset by every mutation, so a conversion is
    /// reachable only from the exact rows it was built from.
    columnar: OnceLock<Arc<ColumnarRelation>>,
}

/// A database instance. Materialized views are stored exactly like base
/// tables — the paper's rewritten queries reference them by name in their
/// `FROM` clause.
///
/// A relation may carry a [`GroupIndex`] (grouped views do, when the
/// session enables them). Replacing a relation with [`Database::insert`]
/// drops its index; [`Database::update`] maintains rows and index together.
///
/// `Clone` is the snapshot operation and costs one reference-count bump
/// per relation. A later write copies only the entry it touches (and only
/// while a snapshot still holds it), so a snapshot never observes it and
/// untouched relations keep their index and conversion across snapshots.
#[derive(Debug, Clone, Default)]
pub struct Database {
    relations: BTreeMap<String, Arc<Stored>>,
    /// The observability registry of the owning session or shared store;
    /// every snapshot of a shared store reports into the one store registry.
    metrics: Option<Arc<MetricsRegistry>>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Insert (or replace) a relation under `name`. Any index on the old
    /// relation is dropped (its row positions are stale), and so is its
    /// fold plan (the name may now mean something else).
    pub fn insert(&mut self, name: impl Into<String>, relation: Relation) -> &mut Self {
        let stored = Stored {
            relation,
            index: None,
            fold_plan: None,
            columnar: OnceLock::new(),
        };
        self.relations.insert(name.into(), Arc::new(stored));
        self
    }

    /// Look up a relation.
    pub fn get(&self, name: &str) -> EngineResult<&Relation> {
        self.relations
            .get(name)
            .map(|s| &s.relation)
            .ok_or_else(|| EngineError::UnknownTable(name.to_string()))
    }

    /// Does the database contain `name`?
    pub fn contains(&self, name: &str) -> bool {
        self.relations.contains_key(name)
    }

    /// Remove a relation (e.g. a temporary auxiliary view) and its index.
    pub fn remove(&mut self, name: &str) -> Option<Relation> {
        let stored = self.relations.remove(name)?;
        Some(Arc::try_unwrap(stored).map_or_else(|shared| shared.relation.clone(), |s| s.relation))
    }

    /// The columnar conversion of relation `name`, built on first use and
    /// kept until the relation changes. `None` for unknown relations.
    pub fn columnar(&self, name: &str) -> Option<Arc<ColumnarRelation>> {
        let stored = self.relations.get(name)?;
        let built = stored
            .columnar
            .get_or_init(|| Arc::new(ColumnarRelation::from_rows(&stored.relation)));
        Some(Arc::clone(built))
    }

    /// The one way stored rows change: copy the entry if a snapshot still
    /// shares it, forget its conversion, and hand it out for mutation.
    fn stored_mut(&mut self, name: &str) -> EngineResult<&mut Stored> {
        let entry = self
            .relations
            .get_mut(name)
            .ok_or_else(|| EngineError::UnknownTable(name.to_string()))?;
        let stored = Arc::make_mut(entry);
        stored.columnar = OnceLock::new();
        Ok(stored)
    }

    /// Mutate relation `name` and its index (when one is attached) in
    /// place. `f` must leave the index consistent with the rows; debug
    /// builds assert it.
    pub fn update<R>(
        &mut self,
        name: &str,
        f: impl FnOnce(&mut Relation, Option<&mut GroupIndex>) -> R,
    ) -> EngineResult<R> {
        let stored = self.stored_mut(name)?;
        let out = f(&mut stored.relation, stored.index.as_mut());
        if let Some(index) = &stored.index {
            debug_assert!(
                index.is_consistent_with(&stored.relation),
                "index inconsistent with relation `{name}`"
            );
        }
        Ok(out)
    }

    /// Attach (or replace) a [`GroupIndex`] for `name`. Debug builds assert
    /// the index is consistent with the stored relation.
    pub fn set_index(&mut self, name: impl Into<String>, index: GroupIndex) -> &mut Self {
        let name = name.into();
        match self.stored_mut(&name) {
            Ok(stored) => {
                debug_assert!(
                    index.is_consistent_with(&stored.relation),
                    "index inconsistent with relation `{name}`"
                );
                stored.index = Some(index);
            }
            Err(_) => debug_assert!(false, "index for unknown relation `{name}`"),
        }
        self
    }

    /// The index on `name`, when one is attached.
    pub fn index(&self, name: &str) -> Option<&GroupIndex> {
        self.relations.get(name)?.index.as_ref()
    }

    /// Attach the compiled delta rule of materialized view `name` and,
    /// when `indexed`, a [`GroupIndex`] on the key its group lookups probe.
    pub fn set_fold_plan(&mut self, name: &str, plan: FoldPlan, indexed: bool) -> &mut Self {
        match self.stored_mut(name) {
            Ok(stored) => {
                if let (true, Some(key)) = (indexed, plan.index_key_cols()) {
                    stored.index = Some(GroupIndex::build(&stored.relation, key.to_vec()));
                }
                stored.fold_plan = Some(Arc::new(plan));
            }
            Err(_) => debug_assert!(false, "fold plan for unknown relation `{name}`"),
        }
        self
    }

    /// The delta rule of view `name`, when its shape has one.
    pub fn fold_plan(&self, name: &str) -> Option<&Arc<FoldPlan>> {
        self.relations.get(name)?.fold_plan.as_ref()
    }

    /// Iterate over `(name, relation)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Relation)> {
        self.relations.iter().map(|(name, s)| (name, &s.relation))
    }

    /// Attach the observability registry events in this database (index
    /// probes, maintenance) should be recorded into.
    pub fn set_metrics(&mut self, metrics: Arc<MetricsRegistry>) {
        self.metrics = Some(metrics);
    }

    /// Detach the registry (used when a session turns observability off).
    pub fn clear_metrics(&mut self) {
        self.metrics = None;
    }

    /// The attached registry, if any.
    pub fn metrics(&self) -> Option<&Arc<MetricsRegistry>> {
        self.metrics.as_ref()
    }

    /// Record `n` events on the attached registry (no-op when detached).
    pub fn record(&self, id: CounterId, n: u64) {
        if let Some(m) = &self.metrics {
            m.add(id, n);
        }
    }

    /// Number of relations.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// Is the database empty?
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }
}

impl SchemaSource for Database {
    fn table_columns(&self, name: &str) -> Option<Vec<String>> {
        self.relations.get(name).map(|s| s.relation.columns.clone())
    }
}

/// A [`SchemaSource`] that looks in two sources in order — used to resolve
/// queries that mix base tables (in the catalog) with materialized views
/// (known only by their definitions).
pub struct ChainedSchemas<'a> {
    sources: Vec<&'a dyn SchemaSource>,
}

impl<'a> ChainedSchemas<'a> {
    /// Chain the given sources; earlier sources win.
    pub fn new(sources: Vec<&'a dyn SchemaSource>) -> Self {
        ChainedSchemas { sources }
    }
}

impl SchemaSource for ChainedSchemas<'_> {
    fn table_columns(&self, name: &str) -> Option<Vec<String>> {
        self.sources.iter().find_map(|s| s.table_columns(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::rel_of_ints;
    use crate::value::Value;

    #[test]
    fn insert_and_get() {
        let mut db = Database::new();
        db.insert("T", rel_of_ints(["a"], &[&[1]]));
        assert_eq!(db.get("T").unwrap().len(), 1);
        assert_eq!(
            db.get("U").unwrap_err(),
            EngineError::UnknownTable("U".into())
        );
    }

    #[test]
    fn insert_drops_stale_index() {
        let mut db = Database::new();
        db.insert("T", rel_of_ints(["a", "s"], &[&[1, 5]]));
        let idx = GroupIndex::build(db.get("T").unwrap(), vec![0]);
        db.set_index("T", idx);
        assert!(db.index("T").is_some());
        db.insert("T", rel_of_ints(["a", "s"], &[&[2, 7]]));
        assert!(db.index("T").is_none());
    }

    #[test]
    fn columnar_cache_builds_once_and_invalidates_on_write() {
        let mut db = Database::new();
        db.insert("T", rel_of_ints(["a"], &[&[1]]));
        let c1 = db.columnar("T").unwrap();
        assert_eq!(c1.n_rows(), 1);
        assert!(
            Arc::ptr_eq(&c1, &db.columnar("T").unwrap()),
            "second lookup reuses the cached conversion"
        );
        db.insert("T", rel_of_ints(["a"], &[&[1], &[2]]));
        assert_eq!(db.columnar("T").unwrap().n_rows(), 2);
        db.remove("T");
        assert!(db.columnar("T").is_none());
    }

    /// `T` (indexed on `a`) and `U`, both converted once.
    fn indexed_and_converted() -> Database {
        let mut db = Database::new();
        db.insert("T", rel_of_ints(["a", "s"], &[&[1, 5]]));
        db.set_index("T", GroupIndex::build(db.get("T").unwrap(), vec![0]));
        db.insert("U", rel_of_ints(["x"], &[&[7]]));
        db.columnar("T").unwrap();
        db.columnar("U").unwrap();
        db
    }

    #[test]
    fn clone_shares_untouched_conversion_and_index() {
        let db = indexed_and_converted();
        let snap = db.clone();
        assert!(Arc::ptr_eq(
            &db.columnar("T").unwrap(),
            &snap.columnar("T").unwrap()
        ));
        assert!(std::ptr::eq(
            db.index("T").unwrap(),
            snap.index("T").unwrap()
        ));
    }

    #[test]
    fn write_through_master_leaves_the_clone_as_it_was() {
        let mut db = indexed_and_converted();
        let snap = db.clone();
        let (t_before, u_before) = (snap.columnar("T").unwrap(), snap.columnar("U").unwrap());
        db.update("T", |rel, idx| {
            let row = vec![Value::Int(2), Value::Int(9)];
            idx.expect("T is indexed").note_push(&row, rel.len());
            rel.push(row);
        })
        .unwrap();

        assert_eq!(snap.get("T").unwrap().len(), 1);
        assert!(snap
            .index("T")
            .unwrap()
            .is_consistent_with(snap.get("T").unwrap()));
        assert!(Arc::ptr_eq(&t_before, &snap.columnar("T").unwrap()));

        assert_eq!(db.get("T").unwrap().len(), 2);
        assert!(db
            .index("T")
            .unwrap()
            .is_consistent_with(db.get("T").unwrap()));
        assert_eq!(db.index("T").unwrap().probe(&[Value::Int(2)]), &[1]);
        assert_eq!(db.columnar("T").unwrap().n_rows(), 2);
        assert!(
            Arc::ptr_eq(&u_before, &db.columnar("U").unwrap()),
            "the write did not touch U"
        );
    }

    #[test]
    fn update_of_an_unknown_relation_is_an_error() {
        let mut db = Database::new();
        assert_eq!(
            db.update("T", |_, _| ()).unwrap_err(),
            EngineError::UnknownTable("T".into())
        );
    }

    #[test]
    fn schema_source_impl() {
        let mut db = Database::new();
        db.insert("T", rel_of_ints(["a", "b"], &[]));
        assert_eq!(db.table_columns("T").unwrap(), vec!["a", "b"]);
        assert!(db.table_columns("U").is_none());
    }

    #[test]
    fn chained_schemas_prefer_earlier() {
        let mut db1 = Database::new();
        db1.insert("T", rel_of_ints(["x"], &[]));
        let mut db2 = Database::new();
        db2.insert("T", rel_of_ints(["y"], &[]));
        db2.insert("U", rel_of_ints(["z"], &[]));
        let chained = ChainedSchemas::new(vec![&db1, &db2]);
        assert_eq!(chained.table_columns("T").unwrap(), vec!["x"]);
        assert_eq!(chained.table_columns("U").unwrap(), vec!["z"]);
        assert!(chained.table_columns("V").is_none());
    }
}
