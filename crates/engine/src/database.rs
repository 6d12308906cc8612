//! A named collection of relations: base tables plus materialized views.

use crate::error::{EngineError, EngineResult};
use crate::index::GroupIndex;
use crate::maintenance::FoldPlan;
use crate::relation::Relation;
use crate::table::Table;
use aggview_catalog::SchemaSource;
use aggview_obs::{CounterId, MetricsRegistry};
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock, Weak};

/// Everything stored under one relation name. The rows, the index over
/// them and each chunk's columnar conversion live and die together:
/// whoever holds the `Arc` sees all of them as they were when it was
/// taken.
#[derive(Debug)]
struct Stored {
    table: Table,
    index: Option<GroupIndex>,
    /// A materialized view's compiled delta rule (see
    /// [`crate::maintenance`]); depends on the definition only, so it
    /// survives every change to the rows.
    fold_plan: Option<Arc<FoldPlan>>,
    /// The flat copy [`Database::get`] hands out, built only when a cold
    /// caller asks for one; never by a serving path.
    flat: OnceLock<Relation>,
}

/// A copy is about to be written, so it starts without a flat copy. Its
/// table shares every chunk with the original.
impl Clone for Stored {
    fn clone(&self) -> Self {
        Stored {
            table: self.table.clone(),
            index: self.index.clone(),
            fold_plan: self.fold_plan.clone(),
            flat: OnceLock::new(),
        }
    }
}

/// One stored relation as a shareable handle: its rows together with
/// whatever was built beside them (index, columnar conversions). Taken
/// with [`Database::entry`] and put back, under any name and into any
/// database, with [`Database::insert_entry`]: a refcount bump, no row
/// copy, and a conversion built through either copy is seen by both.
#[derive(Debug, Clone)]
pub struct Entry(Arc<Stored>);

/// The identity of the contents stored under one name at one moment,
/// from [`Database::identity`]. Two identities are equal exactly when
/// they name the same stored entry, which no write can have changed in
/// between: the token holds a [`Weak`] to the entry, so an allocation
/// it names is never freed and reused for another, and a write to an
/// entry a token names always lands in a fresh allocation
/// (`Arc::make_mut` moves out of an allocation with outstanding weak
/// references instead of mutating it). Holding one keeps no rows alive.
#[derive(Debug, Clone)]
pub struct Identity(Weak<Stored>);

impl PartialEq for Identity {
    fn eq(&self, other: &Identity) -> bool {
        self.0.ptr_eq(&other.0)
    }
}

impl Eq for Identity {}

/// A database instance. Materialized views are stored exactly like base
/// tables — the paper's rewritten queries reference them by name in their
/// `FROM` clause.
///
/// Every relation is stored as a chunked [`Table`]. A relation may carry
/// a [`GroupIndex`] (grouped views do). Replacing a relation with
/// [`Database::insert`] drops its index; [`Database::update`] maintains
/// rows and index together.
///
/// `Clone` is the snapshot operation and costs one reference-count bump
/// per relation. A later write copies only the entry it touches (and only
/// while a snapshot still holds it): the entry's spine of chunk pointers,
/// its index, and the chunks the write changes. So a snapshot never
/// observes the write, and every chunk the write did not change keeps its
/// rows and its conversion across snapshots.
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
    pub fn insert(&mut self, name: impl Into<String>, relation: impl Into<Table>) -> &mut Self {
        let stored = Stored {
            table: relation.into(),
            index: None,
            fold_plan: None,
            flat: OnceLock::new(),
        };
        self.relations.insert(name.into(), Arc::new(stored));
        self
    }

    /// Store `entry` under `name`, sharing it with wherever it came from.
    pub fn insert_entry(&mut self, name: impl Into<String>, entry: Entry) -> &mut Self {
        self.relations.insert(name.into(), entry.0);
        self
    }

    /// The entry stored under `name`, as a shareable handle.
    pub fn entry(&self, name: &str) -> Option<Entry> {
        self.relations.get(name).map(|s| Entry(Arc::clone(s)))
    }

    /// The identity of what is stored under `name` now.
    pub fn identity(&self, name: &str) -> Option<Identity> {
        self.relations
            .get(name)
            .map(|s| Identity(Arc::downgrade(s)))
    }

    /// Look up a relation in its stored, chunked form.
    pub fn table(&self, name: &str) -> EngineResult<&Table> {
        self.relations
            .get(name)
            .map(|s| &s.table)
            .ok_or_else(|| EngineError::UnknownTable(name.to_string()))
    }

    /// Look up a relation as one flat [`Relation`], for cold callers that
    /// want the interchange type (tests, harnesses, checks). The copy is
    /// made on first use and kept until the relation changes; serving
    /// paths read [`Database::table`] and never make it.
    pub fn get(&self, name: &str) -> EngineResult<&Relation> {
        let stored = self
            .relations
            .get(name)
            .ok_or_else(|| EngineError::UnknownTable(name.to_string()))?;
        Ok(stored.flat.get_or_init(|| stored.table.to_relation()))
    }

    /// Does the database contain `name`?
    pub fn contains(&self, name: &str) -> bool {
        self.relations.contains_key(name)
    }

    /// Remove a relation (e.g. a temporary auxiliary view) and its index.
    pub fn remove(&mut self, name: &str) -> Option<Table> {
        let stored = self.relations.remove(name)?;
        Some(Arc::try_unwrap(stored).map_or_else(|shared| shared.table.clone(), |s| s.table))
    }

    /// The one way stored rows change: copy the entry if a snapshot still
    /// shares it (its spine, not its chunks), move it to a fresh
    /// allocation if an [`Identity`] names it, and hand it out for
    /// mutation.
    fn stored_mut(&mut self, name: &str) -> EngineResult<&mut Stored> {
        let entry = self
            .relations
            .get_mut(name)
            .ok_or_else(|| EngineError::UnknownTable(name.to_string()))?;
        let stored = Arc::make_mut(entry);
        stored.flat = OnceLock::new();
        Ok(stored)
    }

    /// Mutate relation `name` and its index (when one is attached) in
    /// place. `f` must leave the index consistent with the rows; debug
    /// builds assert it.
    pub fn update<R>(
        &mut self,
        name: &str,
        f: impl FnOnce(&mut Table, Option<&mut GroupIndex>) -> R,
    ) -> EngineResult<R> {
        let stored = self.stored_mut(name)?;
        let out = f(&mut stored.table, stored.index.as_mut());
        if let Some(index) = &stored.index {
            debug_assert!(
                index.is_consistent_with(&stored.table),
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
                    index.is_consistent_with(&stored.table),
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
    /// for a keyed view, a [`GroupIndex`] on the key its group lookups
    /// probe.
    pub fn set_fold_plan(&mut self, name: &str, plan: FoldPlan) -> &mut Self {
        match self.stored_mut(name) {
            Ok(stored) => {
                if let Some(key) = plan.index_key_cols() {
                    stored.index = Some(GroupIndex::build(&stored.table, key.to_vec()));
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

    /// Iterate over `(name, table)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Table)> {
        self.relations.iter().map(|(name, s)| (name, &s.table))
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
        self.relations.get(name).map(|s| s.table.columns().to_vec())
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
    use crate::columnar::ColumnarRelation;
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

    /// The conversion of the only chunk of `name`.
    fn conv<'a>(db: &'a Database, name: &str) -> &'a ColumnarRelation {
        let mut convs = db.table(name).unwrap().columnar();
        assert_eq!(convs.len(), 1, "`{name}` is one chunk");
        convs.next().unwrap()
    }

    #[test]
    fn insert_drops_stale_index() {
        let mut db = Database::new();
        db.insert("T", rel_of_ints(["a", "s"], &[&[1, 5]]));
        let idx = GroupIndex::build(db.table("T").unwrap(), vec![0]);
        db.set_index("T", idx);
        assert!(db.index("T").is_some());
        db.insert("T", rel_of_ints(["a", "s"], &[&[2, 7]]));
        assert!(db.index("T").is_none());
    }

    #[test]
    fn columnar_cache_builds_once_and_invalidates_on_write() {
        let mut db = Database::new();
        db.insert("T", rel_of_ints(["a"], &[&[1]]));
        let c1 = conv(&db, "T");
        assert_eq!(c1.n_rows(), 1);
        assert!(
            std::ptr::eq(c1, conv(&db, "T")),
            "second lookup reuses the cached conversion"
        );
        db.update("T", |rel, _| rel.push(vec![Value::Int(2)]))
            .unwrap();
        assert_eq!(conv(&db, "T").n_rows(), 2);
        db.remove("T");
        assert!(db.table("T").is_err());
    }

    #[test]
    fn get_flattens_for_cold_callers_until_the_next_write() {
        let mut db = Database::new();
        db.insert("T", rel_of_ints(["a"], &[&[1]]));
        assert!(std::ptr::eq(db.get("T").unwrap(), db.get("T").unwrap()));
        db.update("T", |rel, _| rel.push(vec![Value::Int(2)]))
            .unwrap();
        assert_eq!(db.get("T").unwrap(), &rel_of_ints(["a"], &[&[1], &[2]]));
    }

    /// `T` (indexed on `a`) and `U`, both converted once.
    fn indexed_and_converted() -> Database {
        let mut db = Database::new();
        db.insert("T", rel_of_ints(["a", "s"], &[&[1, 5]]));
        db.set_index("T", GroupIndex::build(db.table("T").unwrap(), vec![0]));
        db.insert("U", rel_of_ints(["x"], &[&[7]]));
        conv(&db, "T");
        conv(&db, "U");
        db
    }

    #[test]
    fn clone_shares_untouched_conversion_and_index() {
        let db = indexed_and_converted();
        let snap = db.clone();
        assert!(std::ptr::eq(conv(&db, "T"), conv(&snap, "T")));
        assert!(std::ptr::eq(
            db.index("T").unwrap(),
            snap.index("T").unwrap()
        ));
    }

    #[test]
    fn write_through_master_leaves_the_clone_as_it_was() {
        let mut db = indexed_and_converted();
        let snap = db.clone();
        let (t_before, u_before) = (conv(&snap, "T"), conv(&snap, "U"));
        db.update("T", |rel, idx| {
            let row = vec![Value::Int(2), Value::Int(9)];
            idx.expect("T is indexed").note_push(&row, rel.len());
            rel.push(row);
        })
        .unwrap();

        assert_eq!(snap.table("T").unwrap().len(), 1);
        assert!(snap
            .index("T")
            .unwrap()
            .is_consistent_with(snap.table("T").unwrap()));
        assert!(std::ptr::eq(t_before, conv(&snap, "T")));

        assert_eq!(db.table("T").unwrap().len(), 2);
        assert!(db
            .index("T")
            .unwrap()
            .is_consistent_with(db.table("T").unwrap()));
        assert_eq!(db.index("T").unwrap().probe(&[Value::Int(2)]), &[1]);
        assert_eq!(conv(&db, "T").n_rows(), 2);
        assert!(
            std::ptr::eq(u_before, conv(&db, "U")),
            "the write did not touch U"
        );
    }

    /// An identity outlives in-place mutation: with no snapshot sharing
    /// the entry, the write still lands in a fresh allocation, and a write
    /// to another relation leaves the identity standing.
    #[test]
    fn identity_changes_exactly_when_the_entry_does() {
        let mut db = indexed_and_converted();
        let (t, u) = (db.identity("T").unwrap(), db.identity("U").unwrap());
        assert!(db.identity("T").unwrap() == t);
        assert!(
            db.clone().identity("T").unwrap() == t,
            "a snapshot shares it"
        );
        db.update("U", |rel, _| rel.push(vec![Value::Int(8)]))
            .unwrap();
        assert!(db.identity("T").unwrap() == t, "U's write leaves T alone");
        assert!(db.identity("U").unwrap() != u);
        db.update("T", |_, _| ()).unwrap();
        assert!(
            db.identity("T").unwrap() != t,
            "even an empty write moves T"
        );
        let t = db.identity("T").unwrap();
        db.insert("T", rel_of_ints(["a", "s"], &[&[1, 5]]));
        assert!(db.identity("T").unwrap() != t, "a replaced relation is new");
        assert!(db.identity("V").is_none());
    }

    #[test]
    fn an_inserted_entry_shares_rows_and_conversion() {
        let db = indexed_and_converted();
        let mut other = Database::new();
        other.insert_entry("Copy", db.entry("U").unwrap());
        assert!(other.identity("Copy").unwrap() == db.identity("U").unwrap());
        assert!(std::ptr::eq(conv(&db, "U"), conv(&other, "Copy")));
        assert_eq!(other.get("Copy").unwrap().len(), 1);
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
