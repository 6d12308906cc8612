//! Columnar relation storage: typed column vectors behind the row-based
//! [`Relation`] wire format.
//!
//! A [`ColumnarRelation`] stores each column as one typed vector
//! (`Vec<i64>`, `Vec<f64>`, `Vec<String>`, or `Vec<bool>`) plus a validity
//! bitmap and a row count. The engine's value model is NULL-free, so a
//! cleared validity bit does not mean SQL NULL — it marks a slot whose
//! runtime value is *not* of the column's native type (columns are typed
//! by their first row; bag semantics permits later rows to disagree). The
//! actual values of invalid slots live in a row-sorted exception side
//! table, so conversion is lossless in both directions:
//! `to_rows(from_rows(r)) == r` cell for cell, and
//! `from_rows(to_rows(c)) == c`.
//!
//! The vectorized operators in [`crate::exec`] only run their tight typed
//! loops over *clean* columns (all bits set, no exceptions); anything else
//! falls back to the row-at-a-time interpreter, which reads the same
//! values through [`ColumnarRelation::value`] semantics. `Relation`
//! remains the wire, display, and oracle format — columnar storage is an
//! execution-side cache, built on demand by
//! [`Database::columnar`](crate::Database::columnar).

use crate::relation::Relation;
use crate::value::Value;

/// The typed vector behind one column. The variant is the column's
/// *native* type: the type of its first row (`Int` for empty columns).
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// 64-bit signed integers.
    Int(Vec<i64>),
    /// Double-precision floats.
    Double(Vec<f64>),
    /// Strings.
    Str(Vec<String>),
    /// Booleans.
    Bool(Vec<bool>),
}

impl ColumnData {
    fn len(&self) -> usize {
        match self {
            ColumnData::Int(v) => v.len(),
            ColumnData::Double(v) => v.len(),
            ColumnData::Str(v) => v.len(),
            ColumnData::Bool(v) => v.len(),
        }
    }

    /// Push `v` if it matches the native type; `false` means the caller
    /// must record an exception (a placeholder default is pushed instead,
    /// keeping the typed vector densely indexable by row).
    fn push(&mut self, v: &Value) -> bool {
        match (self, v) {
            (ColumnData::Int(col), Value::Int(x)) => col.push(*x),
            (ColumnData::Double(col), Value::Double(x)) => col.push(*x),
            (ColumnData::Str(col), Value::Str(x)) => col.push(x.clone()),
            (ColumnData::Bool(col), Value::Bool(x)) => col.push(*x),
            (ColumnData::Int(col), _) => {
                col.push(0);
                return false;
            }
            (ColumnData::Double(col), _) => {
                col.push(0.0);
                return false;
            }
            (ColumnData::Str(col), _) => {
                col.push(String::new());
                return false;
            }
            (ColumnData::Bool(col), _) => {
                col.push(false);
                return false;
            }
        }
        true
    }
}

/// One column: the typed vector, the validity bitmap (`None` = every bit
/// set, the common case), and the exception side table holding the exact
/// values of invalid slots, sorted by row.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    data: ColumnData,
    validity: Option<Vec<bool>>,
    exceptions: Vec<(usize, Value)>,
    /// Does a valid `Double` slot hold NaN? NaN is incomparable under
    /// [`Value::cmp_sql`], so typed comparison loops must decline.
    has_nan: bool,
}

impl Column {
    fn with_type_of(v: Option<&Value>, rows: usize) -> Self {
        let data = match v {
            Some(Value::Double(_)) => ColumnData::Double(Vec::with_capacity(rows)),
            Some(Value::Str(_)) => ColumnData::Str(Vec::with_capacity(rows)),
            Some(Value::Bool(_)) => ColumnData::Bool(Vec::with_capacity(rows)),
            _ => ColumnData::Int(Vec::with_capacity(rows)),
        };
        Column {
            data,
            validity: None,
            exceptions: Vec::new(),
            has_nan: false,
        }
    }

    fn push(&mut self, v: &Value) {
        let row = self.data.len();
        if self.data.push(v) {
            if let Some(bits) = &mut self.validity {
                bits.push(true);
            }
            if matches!(v, Value::Double(d) if d.is_nan()) {
                self.has_nan = true;
            }
        } else {
            let bits = self
                .validity
                .get_or_insert_with(|| vec![true; self.data.len() - 1]);
            bits.push(false);
            self.exceptions.push((row, v.clone()));
        }
    }

    /// Every slot holds a value of the column's native type.
    pub fn is_clean(&self) -> bool {
        self.validity.is_none()
    }

    /// Does any valid `Double` slot hold NaN?
    pub fn has_nan(&self) -> bool {
        self.has_nan
    }

    /// The validity bitmap (`None` = all valid).
    pub fn validity(&self) -> Option<&[bool]> {
        self.validity.as_deref()
    }

    /// Typed view for vectorized kernels: `Some` only when the column is
    /// clean and of the requested type.
    pub fn ints(&self) -> Option<&[i64]> {
        match (&self.data, self.is_clean()) {
            (ColumnData::Int(v), true) => Some(v),
            _ => None,
        }
    }

    /// Clean `Double` slice, or `None`.
    pub fn doubles(&self) -> Option<&[f64]> {
        match (&self.data, self.is_clean()) {
            (ColumnData::Double(v), true) => Some(v),
            _ => None,
        }
    }

    /// Clean `Str` slice, or `None`.
    pub fn strs(&self) -> Option<&[String]> {
        match (&self.data, self.is_clean()) {
            (ColumnData::Str(v), true) => Some(v),
            _ => None,
        }
    }

    /// Clean `Bool` slice, or `None`.
    pub fn bools(&self) -> Option<&[bool]> {
        match (&self.data, self.is_clean()) {
            (ColumnData::Bool(v), true) => Some(v),
            _ => None,
        }
    }

    /// The exact [`Value`] at `row` (exception slots included).
    pub fn value(&self, row: usize) -> Value {
        if let Some(bits) = &self.validity {
            if !bits[row] {
                let i = self
                    .exceptions
                    .binary_search_by_key(&row, |&(r, _)| r)
                    .expect("invalid slot has an exception entry");
                return self.exceptions[i].1.clone();
            }
        }
        match &self.data {
            ColumnData::Int(v) => Value::Int(v[row]),
            ColumnData::Double(v) => Value::Double(v[row]),
            ColumnData::Str(v) => Value::Str(v[row].clone()),
            ColumnData::Bool(v) => Value::Bool(v[row]),
        }
    }
}

/// A relation stored column-wise. See the module docs for the layout and
/// the lossless conversion contract.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnarRelation {
    /// Column names, in order (same as [`Relation::columns`]).
    pub columns: Vec<String>,
    cols: Vec<Column>,
    n_rows: usize,
}

impl ColumnarRelation {
    /// Convert a row-major relation. Each column's native type is the type
    /// of its first row (`Int` when the relation is empty); rows of a
    /// different type land in the exception side table.
    pub fn from_rows(rel: &Relation) -> Self {
        let mut cols: Vec<Column> = (0..rel.arity())
            .map(|c| Column::with_type_of(rel.rows.first().map(|r| &r[c]), rel.rows.len()))
            .collect();
        for row in &rel.rows {
            for (c, v) in row.iter().enumerate() {
                cols[c].push(v);
            }
        }
        ColumnarRelation {
            columns: rel.columns.clone(),
            cols,
            n_rows: rel.rows.len(),
        }
    }

    /// Convert back to the row-major wire format (lossless).
    pub fn to_rows(&self) -> Relation {
        let rows = (0..self.n_rows)
            .map(|r| self.cols.iter().map(|c| c.value(r)).collect())
            .collect();
        Relation {
            columns: self.columns.clone(),
            rows,
        }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.cols.len()
    }

    /// The `i`-th column.
    pub fn col(&self, i: usize) -> &Column {
        &self.cols[i]
    }

    /// The exact [`Value`] at `(row, col)`.
    pub fn value(&self, row: usize, col: usize) -> Value {
        self.cols[col].value(row)
    }

    /// Materialize one full row (the representative-row path of grouped
    /// vectorized execution).
    pub fn row(&self, row: usize) -> Vec<Value> {
        self.cols.iter().map(|c| c.value(row)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::rel_of_ints;

    #[test]
    fn round_trip_int_relation() {
        let rel = rel_of_ints(["a", "b"], &[&[1, 10], &[2, 20], &[3, 30]]);
        let c = ColumnarRelation::from_rows(&rel);
        assert_eq!(c.n_rows(), 3);
        assert_eq!(c.arity(), 2);
        assert!(c.col(0).is_clean());
        assert_eq!(c.col(1).ints(), Some(&[10i64, 20, 30][..]));
        assert_eq!(c.to_rows(), rel);
        assert_eq!(ColumnarRelation::from_rows(&c.to_rows()), c);
    }

    #[test]
    fn mixed_column_uses_validity_and_exceptions() {
        let rel = Relation::new(
            ["x"],
            vec![
                vec![Value::Int(1)],
                vec![Value::Double(2.5)],
                vec![Value::Int(3)],
                vec![Value::Str("s".into())],
            ],
        );
        let c = ColumnarRelation::from_rows(&rel);
        let col = c.col(0);
        assert!(!col.is_clean());
        assert_eq!(col.validity(), Some(&[true, false, true, false][..]));
        assert!(col.ints().is_none(), "mixed columns expose no typed slice");
        assert_eq!(col.value(1), Value::Double(2.5));
        assert_eq!(col.value(3), Value::Str("s".into()));
        assert_eq!(c.to_rows(), rel);
    }

    #[test]
    fn empty_relation_round_trips() {
        let rel = Relation::empty(["a", "b", "c"]);
        let c = ColumnarRelation::from_rows(&rel);
        assert_eq!(c.n_rows(), 0);
        assert_eq!(c.arity(), 3);
        assert!(c.col(0).is_clean());
        assert_eq!(c.to_rows(), rel);
    }

    #[test]
    fn nan_is_flagged() {
        let rel = Relation::new(
            ["d"],
            vec![vec![Value::Double(1.0)], vec![Value::Double(f64::NAN)]],
        );
        let c = ColumnarRelation::from_rows(&rel);
        assert!(c.col(0).has_nan());
        assert!(c.col(0).is_clean());
    }

    #[test]
    fn typed_slices_require_matching_type() {
        let rel = Relation::new(
            ["s", "b"],
            vec![vec![Value::Str("x".into()), Value::Bool(true)]],
        );
        let c = ColumnarRelation::from_rows(&rel);
        assert_eq!(c.col(0).strs(), Some(&["x".to_string()][..]));
        assert_eq!(c.col(1).bools(), Some(&[true][..]));
        assert!(c.col(0).ints().is_none());
        assert!(c.col(1).doubles().is_none());
    }

    #[test]
    fn row_materializes_exact_values() {
        let rel = Relation::new(["a", "b"], vec![vec![Value::Int(1), Value::Double(0.5)]]);
        let c = ColumnarRelation::from_rows(&rel);
        assert_eq!(c.row(0), vec![Value::Int(1), Value::Double(0.5)]);
    }
}
