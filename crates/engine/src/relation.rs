//! Multiset relations and multiset/set equality.

use crate::value::Value;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// A relation: a named schema plus a *multiset* of rows (duplicates are
/// significant; row order is not).
#[derive(Debug, Clone, PartialEq)]
pub struct Relation {
    /// Output column names, in order.
    pub columns: Vec<String>,
    /// The rows. Each row has exactly `columns.len()` values.
    pub rows: Vec<Vec<Value>>,
}

impl Relation {
    /// An empty relation with the given schema.
    pub fn empty<I, S>(columns: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Relation {
            columns: columns.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Build a relation from a schema and rows, validating arity.
    ///
    /// # Panics
    /// Panics if a row's arity does not match the schema.
    pub fn new<I, S>(columns: I, rows: Vec<Vec<Value>>) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let columns: Vec<String> = columns.into_iter().map(Into::into).collect();
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(
                r.len(),
                columns.len(),
                "row {i} has arity {} but schema has {}",
                r.len(),
                columns.len()
            );
        }
        Relation { columns, rows }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Is the relation empty?
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Index of the named column.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }

    /// Append a row.
    ///
    /// # Panics
    /// Panics on arity mismatch.
    pub fn push(&mut self, row: Vec<Value>) {
        assert_eq!(row.len(), self.columns.len(), "row arity mismatch");
        self.rows.push(row);
    }

    /// Remove exactly the multiset `rows` (each listed row takes out one
    /// stored copy; rows not present are ignored).
    pub fn remove_rows(&mut self, rows: &[Vec<Value>]) {
        let mut budget: HashMap<&Vec<Value>, usize> = HashMap::new();
        for r in rows {
            *budget.entry(r).or_insert(0) += 1;
        }
        self.rows.retain(|r| match budget.get_mut(r) {
            Some(n) if *n > 0 => {
                *n -= 1;
                false
            }
            _ => true,
        });
    }

    /// Rows sorted by the total value order — a canonical form for
    /// multiset comparison and display.
    pub fn sorted_rows(&self) -> Vec<Vec<Value>> {
        let mut rows = self.rows.clone();
        rows.sort_by(|a, b| cmp_rows(a, b));
        rows
    }

    /// Does the relation contain duplicate rows?
    pub fn has_duplicates(&self) -> bool {
        let mut seen: HashSet<&[Value]> = HashSet::with_capacity(self.rows.len());
        self.rows.iter().any(|r| !seen.insert(r.as_slice()))
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.columns.join(" | "))?;
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
            writeln!(f, "{}", cells.join(" | "))?;
        }
        Ok(())
    }
}

fn cmp_rows(a: &[Value], b: &[Value]) -> std::cmp::Ordering {
    for (x, y) in a.iter().zip(b.iter()) {
        let o = x.cmp_total(y);
        if o != std::cmp::Ordering::Equal {
            return o;
        }
    }
    a.len().cmp(&b.len())
}

/// Multiset equality of two relations (schemas must have equal arity; column
/// *names* are not compared — the paper's equivalence is positional).
///
/// Doubles are compared with a small tolerance: floating-point aggregates of
/// the original and rewritten query may be summed in different orders. To
/// keep the comparison sound in the presence of that tolerance, rows are
/// first sorted by the exact total order and then matched pairwise with
/// approximate equality; if that fails, an exact comparison verdict is
/// returned (so only genuinely-close multisets pass).
pub fn multiset_eq(a: &Relation, b: &Relation) -> bool {
    if a.arity() != b.arity() || a.len() != b.len() {
        return false;
    }
    let ra = a.sorted_rows();
    let rb = b.sorted_rows();
    ra.iter()
        .zip(rb.iter())
        .all(|(x, y)| x.iter().zip(y.iter()).all(|(vx, vy)| vx.approx_eq(vy)))
}

/// Set equality: both relations, viewed as sets of rows, are equal.
/// Used for Section 5 (set semantics) checks.
pub fn set_eq(a: &Relation, b: &Relation) -> bool {
    if a.arity() != b.arity() {
        return false;
    }
    let sa: HashSet<&[Value]> = a.rows.iter().map(|r| r.as_slice()).collect();
    let sb: HashSet<&[Value]> = b.rows.iter().map(|r| r.as_slice()).collect();
    sa == sb
}

/// Convenience constructor for integer-valued test relations.
pub fn rel_of_ints<I, S>(columns: I, rows: &[&[i64]]) -> Relation
where
    I: IntoIterator<Item = S>,
    S: Into<String>,
{
    Relation::new(
        columns,
        rows.iter()
            .map(|r| r.iter().map(|&v| Value::Int(v)).collect())
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiset_eq_respects_multiplicity() {
        let a = rel_of_ints(["x"], &[&[1], &[1], &[2]]);
        let b = rel_of_ints(["x"], &[&[1], &[2], &[1]]);
        let c = rel_of_ints(["x"], &[&[1], &[2], &[2]]);
        let d = rel_of_ints(["x"], &[&[1], &[2]]);
        assert!(multiset_eq(&a, &b));
        assert!(!multiset_eq(&a, &c));
        assert!(!multiset_eq(&a, &d));
    }

    #[test]
    fn multiset_eq_ignores_column_names() {
        let a = rel_of_ints(["x"], &[&[1]]);
        let b = rel_of_ints(["y"], &[&[1]]);
        assert!(multiset_eq(&a, &b));
    }

    #[test]
    fn multiset_eq_tolerates_double_noise() {
        let a = Relation::new(["v"], vec![vec![Value::Double(0.1 + 0.2)]]);
        let b = Relation::new(["v"], vec![vec![Value::Double(0.3)]]);
        assert!(multiset_eq(&a, &b));
    }

    #[test]
    fn set_eq_ignores_multiplicity() {
        let a = rel_of_ints(["x"], &[&[1], &[1], &[2]]);
        let b = rel_of_ints(["x"], &[&[2], &[1]]);
        assert!(set_eq(&a, &b));
        assert!(!multiset_eq(&a, &b));
        let c = rel_of_ints(["x"], &[&[2], &[3]]);
        assert!(!set_eq(&a, &c));
    }

    #[test]
    fn has_duplicates() {
        assert!(rel_of_ints(["x"], &[&[1], &[1]]).has_duplicates());
        assert!(!rel_of_ints(["x"], &[&[1], &[2]]).has_duplicates());
        assert!(!Relation::empty(["x"]).has_duplicates());
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn new_validates_arity() {
        let _ = Relation::new(["a", "b"], vec![vec![Value::Int(1)]]);
    }

    #[test]
    fn sorted_rows_is_canonical() {
        let a = rel_of_ints(["x", "y"], &[&[2, 1], &[1, 2], &[1, 1]]);
        assert_eq!(
            a.sorted_rows(),
            vec![
                vec![Value::Int(1), Value::Int(1)],
                vec![Value::Int(1), Value::Int(2)],
                vec![Value::Int(2), Value::Int(1)],
            ]
        );
    }

    #[test]
    fn display_renders_rows() {
        let a = rel_of_ints(["x", "y"], &[&[1, 2]]);
        let s = a.to_string();
        assert!(s.contains("x | y"));
        assert!(s.contains("1 | 2"));
    }
}
