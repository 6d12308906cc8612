//! A self-contained differential test case: schemas, base data, views,
//! and one query, all reconstructible from (and serializable to) a plain
//! SQL script.

use aggview_catalog::{Catalog, TableSchema};
use aggview_core::ViewDef;
use aggview_engine::{Database, Relation, Value};
use aggview_sql::Query;
use std::fmt;

/// One base table: its name, column names, and integer rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSpec {
    /// Table name (`S0`, `S1`, ...).
    pub name: String,
    /// Column names, in order.
    pub columns: Vec<String>,
    /// Rows; the generator only emits integers so aggregate comparisons
    /// stay exact.
    pub rows: Vec<Vec<i64>>,
}

/// A differential test case. The write protocol the oracle drives (insert
/// the first half of each table, create the views, insert the rest, delete
/// from the first table, with the query answered between the steps) is
/// *derived* from this
/// structure, so a case round-trips through its SQL script form.
#[derive(Debug, Clone, PartialEq)]
pub struct Case {
    /// Base tables with their data.
    pub tables: Vec<TableSpec>,
    /// Materialized view definitions (over base tables only).
    pub views: Vec<ViewDef>,
    /// The query under test.
    pub query: Query,
}

impl Case {
    /// The catalog of the base tables (no keys: pure bag semantics).
    pub fn catalog(&self) -> Catalog {
        let mut cat = Catalog::new();
        for t in &self.tables {
            cat.add_table(TableSchema::new(t.name.clone(), t.columns.iter().cloned()))
                .expect("case tables have unique names");
        }
        cat
    }

    /// A database holding, for each table, its first `split_at(i)` rows
    /// (`halfway = true`) or its final contents after the case's delete
    /// step (`halfway = false`).
    pub fn database(&self, halfway: bool) -> Database {
        self.database_where(|i, at, row| {
            if halfway {
                at < self.split_at(i)
            } else {
                !(i == 0 && self.deletes_row(row))
            }
        })
    }

    /// Every table with all of its rows: the state after both insert
    /// batches, before the delete step.
    pub fn inserted_database(&self) -> Database {
        self.database_where(|_, _, _| true)
    }

    /// A database holding the rows `keep(table index, row index, row)`
    /// accepts.
    fn database_where(&self, keep: impl Fn(usize, usize, &[i64]) -> bool) -> Database {
        let mut db = Database::new();
        for (i, t) in self.tables.iter().enumerate() {
            let rows: Vec<Vec<Value>> = t
                .rows
                .iter()
                .enumerate()
                .filter(|(at, r)| keep(i, *at, r))
                .map(|(_, r)| r.iter().map(|&v| Value::Int(v)).collect())
                .collect();
            db.insert(t.name.clone(), Relation::new(t.columns.clone(), rows));
        }
        db
    }

    /// Where table `i`'s rows split into the two insert batches.
    pub fn split_at(&self, i: usize) -> usize {
        self.tables[i].rows.len() / 2
    }

    /// Does the case's delete step (`DELETE FROM <table 0> WHERE
    /// <first column> = 1`) remove this row of table 0?
    pub fn deletes_row(&self, row: &[i64]) -> bool {
        row.first() == Some(&1)
    }

    /// Total number of data rows across all tables.
    pub fn total_rows(&self) -> usize {
        self.tables.iter().map(|t| t.rows.len()).sum()
    }

    /// Number of `WHERE` conjuncts of the query under test.
    pub fn query_conjuncts(&self) -> usize {
        self.query
            .where_clause
            .as_ref()
            .map_or(0, |w| w.conjuncts().len())
    }
}

impl fmt::Display for Case {
    /// The SQL script form (parseable back into a `Case` by
    /// [`crate::corpus::parse_case`]).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for t in &self.tables {
            writeln!(f, "CREATE TABLE {} ({});", t.name, t.columns.join(", "))?;
            if !t.rows.is_empty() {
                let rows: Vec<String> = t
                    .rows
                    .iter()
                    .map(|r| {
                        let vals: Vec<String> = r.iter().map(|v| v.to_string()).collect();
                        format!("({})", vals.join(", "))
                    })
                    .collect();
                writeln!(f, "INSERT INTO {} VALUES {};", t.name, rows.join(", "))?;
            }
        }
        for v in &self.views {
            writeln!(f, "CREATE VIEW {} AS {};", v.name, v.query)?;
        }
        writeln!(f, "{};", self.query)
    }
}
