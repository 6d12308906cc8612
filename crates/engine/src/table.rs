//! Chunked row storage: the one stored form of every relation.
//!
//! A [`Table`] keeps its rows as a spine of [`Arc`]-shared [`Chunk`]s.
//! Every chunk but the last holds exactly [`CHUNK_ROWS`] rows, and no
//! chunk is empty, so row `i` lives in chunk `i / CHUNK_ROWS`. Each chunk
//! builds its own [`ColumnarRelation`] on first use and keeps it for as
//! long as its rows are unchanged.
//!
//! Cloning a table copies the spine (one refcount per chunk), never a
//! row. A write copies only the chunks it changes, and only while a clone
//! still shares them: an append copies at most the last chunk, then
//! pushes and seals full chunks; [`Table::row_mut`] copies the one chunk
//! holding the row. A copied or changed chunk forgets its conversion;
//! every other chunk keeps its rows and its conversion across any number
//! of snapshots. [`Table::retain`] re-packs the rows after the first
//! removed one into full chunks, preserving order.

use crate::columnar::ColumnarRelation;
use crate::relation::Relation;
use crate::value::Value;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Rows per sealed chunk. Small enough that the copy an append pays
/// while a snapshot shares the tail is tens of microseconds, large
/// enough that a scan's per-chunk work (one conversion lookup, one
/// kernel binding) vanishes beside its per-row work.
pub const CHUNK_ROWS: usize = 1024;

/// Fault injection: `AGGVIEW_UNSOUND_STALE_CHUNK_COLUMNS=1` makes an
/// append keep the tail chunk's columnar conversion, so vectorized reads
/// miss the appended rows — the bug the qcheck oracle's `columnar=1`
/// lattice points must catch. Read once per process.
fn unsound_stale_chunk_columns() -> bool {
    static STALE: OnceLock<bool> = OnceLock::new();
    *STALE.get_or_init(|| std::env::var_os("AGGVIEW_UNSOUND_STALE_CHUNK_COLUMNS").is_some())
}

/// One run of at most [`CHUNK_ROWS`] rows and, once built, their
/// columnar conversion.
#[derive(Debug, Default)]
pub struct Chunk {
    rows: Vec<Vec<Value>>,
    columnar: OnceLock<ColumnarRelation>,
}

/// A copy is about to be written, so it starts without a conversion.
impl Clone for Chunk {
    fn clone(&self) -> Self {
        Chunk {
            rows: self.rows.clone(),
            columnar: OnceLock::new(),
        }
    }
}

impl Chunk {
    fn of(rows: Vec<Vec<Value>>) -> Arc<Chunk> {
        Arc::new(Chunk {
            rows,
            columnar: OnceLock::new(),
        })
    }

    /// The chunk's rows, in stored order.
    pub fn rows(&self) -> &[Vec<Value>] {
        &self.rows
    }

    /// The chunk's conversion, built on first use.
    fn columnar(&self, columns: &[String]) -> &ColumnarRelation {
        self.columnar
            .get_or_init(|| ColumnarRelation::from_slice(columns, &self.rows))
    }

    /// `slot`'s chunk for writing: copied if another spine shares it,
    /// and without its conversion — except under the stale-columns
    /// injection, which keeps an appended chunk's conversion.
    fn make_mut(slot: &mut Arc<Chunk>, append: bool) -> &mut Chunk {
        let kept = if append && unsound_stale_chunk_columns() {
            slot.columnar.get().cloned()
        } else {
            None
        };
        let chunk = Arc::make_mut(slot);
        chunk.columnar = kept.map_or_else(OnceLock::new, OnceLock::from);
        chunk
    }
}

/// A relation stored as a spine of shared chunks. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct Table {
    columns: Vec<String>,
    chunks: Vec<Arc<Chunk>>,
    len: usize,
}

/// Same schema and the same rows in the same order, however chunked.
impl PartialEq for Table {
    fn eq(&self, other: &Table) -> bool {
        self.columns == other.columns && self.len == other.len && self.rows().eq(other.rows())
    }
}

impl From<Relation> for Table {
    fn from(rel: Relation) -> Table {
        let mut table = Table::empty(rel.columns);
        table.len = rel.rows.len();
        let mut rows = rel.rows.into_iter();
        while rows.len() > 0 {
            table
                .chunks
                .push(Chunk::of(rows.by_ref().take(CHUNK_ROWS).collect()));
        }
        table
    }
}

impl Table {
    /// The rows of every table in `parts` (all of one schema) as one
    /// table that copies no full chunk: every part's full chunks, shared,
    /// in part order, then the rows of every part's short tail, copied,
    /// in part order. The order is the parts' concatenation whenever no
    /// part after the first with a short tail has a full chunk, and a
    /// fixed permutation of it otherwise.
    ///
    /// # Panics
    /// Panics if `parts` is empty.
    pub fn union_of(parts: &[&Table]) -> Table {
        let mut union = Table::empty(parts[0].columns.clone());
        let full = |c: &&Arc<Chunk>| c.rows.len() == CHUNK_ROWS;
        for part in parts {
            union
                .chunks
                .extend(part.chunks.iter().filter(full).cloned());
        }
        union.len = union.chunks.len() * CHUNK_ROWS;
        for part in parts {
            let tail = part.chunks.last().filter(|c| !full(c));
            union.extend(tail.iter().flat_map(|c| c.rows.iter().cloned()));
        }
        union
    }

    /// An empty table with the given schema.
    pub fn empty(columns: Vec<String>) -> Table {
        Table {
            columns,
            chunks: Vec::new(),
            len: 0,
        }
    }

    /// Output column names, in order.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Index of the named column.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The rows chunk by chunk, in stored order: the way the scans read
    /// them, one slice per chunk.
    pub fn chunks(&self) -> impl ExactSizeIterator<Item = &[Vec<Value>]> + '_ {
        self.chunks.iter().map(|c| c.rows())
    }

    /// Every row, in stored order.
    pub fn rows(&self) -> impl Iterator<Item = &Vec<Value>> + '_ {
        self.chunks().flatten()
    }

    /// Row `i` (stored order).
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn row(&self, i: usize) -> &[Value] {
        &self.chunks[i / CHUNK_ROWS].rows[i % CHUNK_ROWS]
    }

    /// The columnar conversion of each chunk, in chunk order; each is
    /// built on first use and kept until its chunk changes.
    pub fn columnar(&self) -> impl ExactSizeIterator<Item = &ColumnarRelation> + '_ {
        self.chunks.iter().map(|c| c.columnar(&self.columns))
    }

    /// The chunk handles themselves, for checks of what two spines share.
    pub fn chunk_handles(&self) -> &[Arc<Chunk>] {
        &self.chunks
    }

    /// A flat copy of the rows. For cold callers only (tests, display,
    /// interchange): the serving paths read the chunks in place.
    pub fn to_relation(&self) -> Relation {
        Relation {
            columns: self.columns.clone(),
            rows: self.rows().cloned().collect(),
        }
    }

    /// Append a row.
    ///
    /// # Panics
    /// Panics on arity mismatch.
    pub fn push(&mut self, row: Vec<Value>) {
        assert_eq!(row.len(), self.columns.len(), "row arity mismatch");
        self.tail().push(row);
        self.len += 1;
    }

    /// Append `rows`, in order, copying each.
    pub fn extend_from_slice(&mut self, rows: &[Vec<Value>]) {
        self.extend(rows.iter().cloned());
    }

    /// Append `rows`, in order: fill the tail, then seal full chunks.
    pub fn extend(&mut self, rows: impl IntoIterator<Item = Vec<Value>>) {
        let mut rows = rows.into_iter().peekable();
        while rows.peek().is_some() {
            let tail = self.tail();
            let room = CHUNK_ROWS - tail.len();
            let before = tail.len();
            tail.extend(rows.by_ref().take(room));
            self.len += tail.len() - before;
        }
    }

    /// The last chunk's rows for appending, with room for at least one
    /// more row: a fresh chunk once the last one is full.
    fn tail(&mut self) -> &mut Vec<Vec<Value>> {
        if self
            .chunks
            .last()
            .is_none_or(|c| c.rows.len() == CHUNK_ROWS)
        {
            self.chunks.push(Arc::default());
        }
        let slot = self.chunks.last_mut().expect("a tail chunk");
        &mut Chunk::make_mut(slot, true).rows
    }

    /// Row `i` for writing in place; copies its chunk if a clone shares
    /// it.
    pub fn row_mut(&mut self, i: usize) -> &mut Vec<Value> {
        let chunk = Chunk::make_mut(&mut self.chunks[i / CHUNK_ROWS], false);
        &mut chunk.rows[i % CHUNK_ROWS]
    }

    /// Keep the rows `keep` accepts, in order. Chunks before the first
    /// dropped row stay shared; the rest are re-packed into full chunks.
    pub fn retain(&mut self, mut keep: impl FnMut(&[Value]) -> bool) {
        let mut first_drop = None;
        let mut kept: Vec<Vec<Value>> = Vec::new();
        for (ci, chunk) in self.chunks.iter().enumerate() {
            match first_drop {
                None => {
                    let Some(ri) = chunk.rows.iter().position(|r| !keep(r)) else {
                        continue;
                    };
                    first_drop = Some(ci);
                    kept.extend(chunk.rows[..ri].iter().cloned());
                    let rest = chunk.rows[ri + 1..].iter();
                    kept.extend(rest.filter(|r| keep(r)).cloned());
                }
                Some(_) => kept.extend(chunk.rows.iter().filter(|r| keep(r)).cloned()),
            }
        }
        let Some(ci) = first_drop else {
            return;
        };
        self.chunks.truncate(ci);
        self.len = ci * CHUNK_ROWS;
        self.extend(kept);
    }

    /// Remove exactly the multiset `rows` (each listed row takes out one
    /// stored copy, the earliest; rows not present are ignored).
    pub fn remove_rows(&mut self, rows: &[Vec<Value>]) {
        let mut budget: HashMap<&[Value], usize> = HashMap::new();
        for r in rows {
            *budget.entry(r.as_slice()).or_insert(0) += 1;
        }
        self.retain(|r| match budget.get_mut(r) {
            Some(n) if *n > 0 => {
                *n -= 1;
                false
            }
            _ => true,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ints(n: usize) -> Vec<Vec<Value>> {
        (0..n as i64).map(|i| vec![Value::Int(i)]).collect()
    }

    fn table(n: usize) -> Table {
        Table::from(Relation::new(["a"], ints(n)))
    }

    fn chunk_lens(t: &Table) -> Vec<usize> {
        t.chunks().map(<[_]>::len).collect()
    }

    #[test]
    fn rows_split_into_full_chunks_and_a_tail() {
        assert_eq!(chunk_lens(&table(0)), Vec::<usize>::new());
        assert_eq!(chunk_lens(&table(CHUNK_ROWS)), vec![CHUNK_ROWS]);
        assert_eq!(
            chunk_lens(&table(2 * CHUNK_ROWS + 3)),
            vec![CHUNK_ROWS, CHUNK_ROWS, 3]
        );
        let t = table(CHUNK_ROWS + 5);
        assert_eq!(t.row(CHUNK_ROWS + 4), &[Value::Int(CHUNK_ROWS as i64 + 4)]);
        assert_eq!(t.to_relation().rows, ints(CHUNK_ROWS + 5));
    }

    #[test]
    fn appends_seal_full_chunks_in_order() {
        let mut t = table(CHUNK_ROWS - 2);
        t.extend(ints(CHUNK_ROWS + 4));
        assert_eq!(chunk_lens(&t), vec![CHUNK_ROWS, CHUNK_ROWS, 2]);
        t.push(vec![Value::Int(-1)]);
        assert_eq!(t.len(), 2 * CHUNK_ROWS + 3);
        let mut want = ints(CHUNK_ROWS - 2);
        want.extend(ints(CHUNK_ROWS + 4));
        want.push(vec![Value::Int(-1)]);
        assert_eq!(t.to_relation().rows, want);
    }

    #[test]
    fn an_append_copies_only_the_shared_tail() {
        let mut t = table(2 * CHUNK_ROWS + 7);
        t.columnar().for_each(drop);
        let snapshot = t.clone();
        t.push(vec![Value::Int(9)]);
        let (now, then) = (t.chunk_handles(), snapshot.chunk_handles());
        assert!(Arc::ptr_eq(&now[0], &then[0]) && Arc::ptr_eq(&now[1], &then[1]));
        assert!(!Arc::ptr_eq(&now[2], &then[2]));
        assert_eq!(snapshot.len(), 2 * CHUNK_ROWS + 7);
        assert_eq!(then[2].rows().len(), 7);
        let convs: Vec<usize> = t.columnar().map(ColumnarRelation::n_rows).collect();
        assert_eq!(convs, vec![CHUNK_ROWS, CHUNK_ROWS, 8]);
    }

    #[test]
    fn retain_keeps_the_untouched_prefix_and_repacks_the_rest() {
        let mut t = table(3 * CHUNK_ROWS);
        let snapshot = t.clone();
        let gone = CHUNK_ROWS as i64 + 10;
        t.retain(|r| r[0] != Value::Int(gone));
        assert!(Arc::ptr_eq(
            &t.chunk_handles()[0],
            &snapshot.chunk_handles()[0]
        ));
        assert_eq!(chunk_lens(&t), vec![CHUNK_ROWS, CHUNK_ROWS, CHUNK_ROWS - 1]);
        let want: Vec<_> = ints(3 * CHUNK_ROWS)
            .into_iter()
            .filter(|r| r[0] != Value::Int(gone))
            .collect();
        assert_eq!(t.to_relation().rows, want);
        t.retain(|_| false);
        assert!(t.is_empty() && t.chunks().len() == 0);
    }

    #[test]
    fn a_union_shares_every_full_chunk_and_copies_only_tails() {
        let (a, b, c) = (table(CHUNK_ROWS + 2), table(5), table(2 * CHUNK_ROWS));
        let union = Table::union_of(&[&a, &b, &c]);
        let shared = |t: &Table, i: usize, u: usize| {
            Arc::ptr_eq(&t.chunk_handles()[i], &union.chunk_handles()[u])
        };
        assert!(shared(&a, 0, 0) && shared(&c, 0, 1) && shared(&c, 1, 2));
        assert_eq!(
            chunk_lens(&union),
            vec![CHUNK_ROWS, CHUNK_ROWS, CHUNK_ROWS, 7]
        );
        let mut want = ints(CHUNK_ROWS);
        want.extend(ints(2 * CHUNK_ROWS));
        want.extend(ints(CHUNK_ROWS + 2).split_off(CHUNK_ROWS));
        want.extend(ints(5));
        assert_eq!(union.to_relation().rows, want);
        let small = Table::union_of(&[&b, &table(3)]);
        let mut want = ints(5);
        want.extend(ints(3));
        assert_eq!(small.to_relation().rows, want, "tails keep part order");
    }

    #[test]
    fn remove_rows_takes_the_earliest_copies() {
        let mut t = Table::from(Relation::new(
            ["a"],
            vec![
                vec![Value::Int(1)],
                vec![Value::Int(2)],
                vec![Value::Int(1)],
            ],
        ));
        t.remove_rows(&[vec![Value::Int(1)], vec![Value::Int(7)]]);
        assert_eq!(
            t.to_relation().rows,
            vec![vec![Value::Int(2)], vec![Value::Int(1)]]
        );
    }

    #[test]
    fn row_mut_copies_one_chunk_and_forgets_its_conversion() {
        let mut t = table(CHUNK_ROWS + 1);
        t.columnar().for_each(drop);
        let snapshot = t.clone();
        t.row_mut(3)[0] = Value::Int(-3);
        assert!(!Arc::ptr_eq(
            &t.chunk_handles()[0],
            &snapshot.chunk_handles()[0]
        ));
        assert!(Arc::ptr_eq(
            &t.chunk_handles()[1],
            &snapshot.chunk_handles()[1]
        ));
        assert_eq!(snapshot.row(3), &[Value::Int(3)]);
        let first = t.columnar().next().expect("a chunk");
        assert_eq!(first.value(3, 0), Value::Int(-3));
    }
}
