//! Grouped hash indexes on materialized relations.
//!
//! A [`GroupIndex`] maps the values of a fixed set of key columns —
//! typically the exposed `GROUP BY` columns of a materialized view — to
//! the positions of the rows carrying them. The serving path uses it in
//! two places:
//!
//! * **Probing**: a rewritten query whose `WHERE` clause binds every key
//!   column to a constant (the common "point lookup on the summary table"
//!   shape) fetches the matching rows directly instead of scanning the
//!   view (`exec`).
//! * **Maintenance**: the incremental insert path keeps the index in sync
//!   instead of rebuilding a fresh group → row map on every delta batch
//!   (`maintenance`).
//!
//! Grouped views hold one row per key, but the structure stays correct for
//! arbitrary relations: each key maps to *all* rows carrying it.

use crate::table::Table;
use crate::value::Value;
use std::collections::HashMap;

/// A hash index from key-column values to row positions.
#[derive(Debug, Clone, Default)]
pub struct GroupIndex {
    /// Positions (within the relation's schema) of the key columns.
    key_cols: Vec<usize>,
    /// Key values → positions of the rows carrying them.
    map: HashMap<Vec<Value>, Vec<usize>>,
}

impl GroupIndex {
    /// Build an index on `key_cols` over the relation's current rows.
    ///
    /// # Panics
    /// Panics if a key column is out of the relation's arity.
    pub fn build(rel: &Table, key_cols: Vec<usize>) -> Self {
        assert!(
            key_cols.iter().all(|&c| c < rel.arity()),
            "index key column out of range"
        );
        let mut idx = GroupIndex {
            key_cols,
            map: HashMap::with_capacity(rel.len()),
        };
        idx.rebuild(rel);
        idx
    }

    /// The indexed key columns.
    pub fn key_cols(&self) -> &[usize] {
        &self.key_cols
    }

    /// Number of distinct keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Is the index empty?
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The key of a row under this index.
    pub fn key_of(&self, row: &[Value]) -> Vec<Value> {
        self.key_cols.iter().map(|&c| row[c].clone()).collect()
    }

    /// Row positions carrying `key` (empty when absent).
    pub fn probe(&self, key: &[Value]) -> &[usize] {
        self.map.get(key).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// The unique row position for `key`, when exactly one row carries it
    /// (always the case for a grouped view's key).
    pub fn probe_unique(&self, key: &[Value]) -> Option<usize> {
        match self.probe(key) {
            [ri] => Some(*ri),
            _ => None,
        }
    }

    /// Record a row appended at position `ri`.
    pub fn note_push(&mut self, row: &[Value], ri: usize) {
        self.map.entry(self.key_of(row)).or_default().push(ri);
    }

    /// Rebuild the map from the relation (after deletions shift row
    /// positions). Key columns are unchanged.
    pub fn rebuild(&mut self, rel: &Table) {
        self.map.clear();
        for (ri, row) in rel.rows().enumerate() {
            self.map.entry(self.key_of(row)).or_default().push(ri);
        }
    }

    /// Is the index consistent with the relation? (Debug/test helper:
    /// every row reachable under its own key, no stale positions.)
    pub fn is_consistent_with(&self, rel: &Table) -> bool {
        let total: usize = self.map.values().map(|v| v.len()).sum();
        total == rel.len()
            && rel
                .rows()
                .enumerate()
                .all(|(ri, row)| self.probe(&self.key_of(row)).contains(&ri))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::rel_of_ints;

    fn table(cols: &[&str], rows: &[&[i64]]) -> Table {
        Table::from(rel_of_ints(cols.iter().copied(), rows))
    }

    #[test]
    fn build_and_probe() {
        let rel = table(&["a", "b", "s"], &[&[1, 10, 5], &[2, 20, 7], &[1, 30, 9]]);
        let idx = GroupIndex::build(&rel, vec![0]);
        assert_eq!(idx.probe(&[Value::Int(1)]), &[0, 2]);
        assert_eq!(idx.probe(&[Value::Int(2)]), &[1]);
        assert!(idx.probe(&[Value::Int(3)]).is_empty());
        assert_eq!(idx.probe_unique(&[Value::Int(2)]), Some(1));
        assert_eq!(idx.probe_unique(&[Value::Int(1)]), None);
        assert!(idx.is_consistent_with(&rel));
    }

    #[test]
    fn composite_keys() {
        let rel = table(&["a", "b", "s"], &[&[1, 10, 5], &[1, 20, 7]]);
        let idx = GroupIndex::build(&rel, vec![0, 1]);
        assert_eq!(idx.probe_unique(&[Value::Int(1), Value::Int(20)]), Some(1));
        assert!(idx.probe(&[Value::Int(1), Value::Int(30)]).is_empty());
    }

    #[test]
    fn push_and_rebuild_track_mutations() {
        let mut rel = table(&["a", "s"], &[&[1, 5]]);
        let mut idx = GroupIndex::build(&rel, vec![0]);
        let row = vec![Value::Int(2), Value::Int(9)];
        rel.push(row.clone());
        idx.note_push(&row, 1);
        assert!(idx.is_consistent_with(&rel));
        rel.retain(|r| r[0] != Value::Int(1));
        idx.rebuild(&rel);
        assert!(idx.is_consistent_with(&rel));
        assert_eq!(idx.probe_unique(&[Value::Int(2)]), Some(0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn build_validates_key_columns() {
        let _ = GroupIndex::build(&table(&["a"], &[&[1]]), vec![1]);
    }
}
