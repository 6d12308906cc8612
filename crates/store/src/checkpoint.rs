//! Compacted checkpoints: a version-tagged binary image of the whole
//! store state (catalog + relations + view definitions).
//!
//! File layout:
//!
//! ```text
//! magic "AGCK" (4 bytes) ++ version u32-le ++ crc32(body) u32-le ++ body
//! body = epoch u64 ++ schema_epoch u64
//!      ++ catalog:   n_tables u32, then per table (name order):
//!           name, columns (n u32, then name + type tag u8),
//!           keys (n u32, then each: n u32 + index u32s),
//!           extra_fds (n u32, then each: lhs + rhs index lists),
//!           declared_set u8
//!      ++ relations: n u32, then per relation (name order):
//!           name, columns (n u32 + strings), rows (n u32, then per row
//!           n u32 values; value = tag u8 ++ payload:
//!           0 Int i64 | 1 Double f64-bits u64 | 2 Str | 3 Bool u8)
//!      ++ views:     n u32, then per view (creation order): name ++ SQL text
//! ```
//!
//! The version tag is the evolution point (the `revisioned` idiom):
//! a future layout bumps the number and keeps this decoder for old
//! files. Views are stored as SQL text — the parser/printer round-trip
//! is already pinned by the sql crate's tests, and text survives AST
//! refactors where a struct encoding would not. Derived state
//! (GroupIndexes, columnar caches) is deliberately **not** serialized;
//! recovery rebuilds it from the relations, and the round-trip property
//! test pins that the rebuild answers queries identically.

use crate::crc32::crc32;
use crate::encode::{DecodeError, Reader, Writer};
use aggview_catalog::{Catalog, ColumnDef, ColumnType, Fd, TableSchema};
use aggview_core::ViewDef;
use aggview_engine::{Relation, Table, Value};
use aggview_sql::parse_query;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

pub const CKPT_MAGIC: [u8; 4] = *b"AGCK";
pub const CKPT_VERSION: u32 = 1;

/// A decoded checkpoint: everything needed to rebuild an `EngineState`.
#[derive(Debug, Clone, PartialEq)]
pub struct StateImage {
    /// Store epoch at checkpoint time; WAL records with `epoch` less
    /// than or equal to this are already folded in.
    pub epoch: u64,
    /// Schema epoch at checkpoint time (plan-cache invalidation line).
    pub schema_epoch: u64,
    pub catalog: Catalog,
    /// Base tables **and** materialized view relations, sorted by name.
    /// An image taken from a live state shares the state's row chunks.
    pub relations: Vec<(String, Table)>,
    /// View definitions in creation order (maintenance order matters).
    pub views: Vec<ViewDef>,
}

fn encode_value(w: &mut Writer, v: &Value) {
    match v {
        Value::Int(i) => {
            w.u8(0);
            w.i64(*i);
        }
        Value::Double(d) => {
            w.u8(1);
            w.u64(d.to_bits());
        }
        Value::Str(s) => {
            w.u8(2);
            w.str(s);
        }
        Value::Bool(b) => {
            w.u8(3);
            w.u8(u8::from(*b));
        }
    }
}

fn decode_value(r: &mut Reader<'_>) -> Result<Value, DecodeError> {
    let tag = r.u8()?;
    Ok(match tag {
        0 => Value::Int(r.i64()?),
        1 => Value::Double(f64::from_bits(r.u64()?)),
        2 => Value::Str(r.str()?),
        3 => Value::Bool(r.u8()? != 0),
        _ => {
            return Err(DecodeError {
                offset: r.pos(),
                what: "unknown value tag",
            });
        }
    })
}

fn encode_index_list(w: &mut Writer, idx: &[usize]) {
    w.u32(idx.len() as u32);
    for &i in idx {
        w.u32(i as u32);
    }
}

fn decode_index_list(r: &mut Reader<'_>) -> Result<Vec<usize>, DecodeError> {
    let n = r.u32()? as usize;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.u32()? as usize);
    }
    Ok(out)
}

/// Serialize the checkpoint body (no magic/version/crc framing).
pub fn encode_image(img: &StateImage) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(img.epoch);
    w.u64(img.schema_epoch);

    let tables: Vec<&TableSchema> = img.catalog.tables().collect();
    w.u32(tables.len() as u32);
    for t in tables {
        w.str(&t.name);
        w.u32(t.columns.len() as u32);
        for c in &t.columns {
            w.str(&c.name);
            w.u8(match c.ty {
                ColumnType::Int => 0,
                ColumnType::Double => 1,
                ColumnType::Str => 2,
                ColumnType::Bool => 3,
            });
        }
        w.u32(t.keys.len() as u32);
        for k in &t.keys {
            encode_index_list(&mut w, k);
        }
        w.u32(t.extra_fds.len() as u32);
        for fd in &t.extra_fds {
            encode_index_list(&mut w, &fd.lhs);
            encode_index_list(&mut w, &fd.rhs);
        }
        w.u8(u8::from(t.declared_set));
    }

    w.u32(img.relations.len() as u32);
    for (name, rel) in &img.relations {
        w.str(name);
        w.u32(rel.arity() as u32);
        for c in rel.columns() {
            w.str(c);
        }
        w.u32(rel.len() as u32);
        for row in rel.rows() {
            w.u32(row.len() as u32);
            for v in row {
                encode_value(&mut w, v);
            }
        }
    }

    w.u32(img.views.len() as u32);
    for v in &img.views {
        w.str(&v.name);
        w.str(&v.query.to_string());
    }
    w.into_vec()
}

/// Decode a checkpoint body produced by [`encode_image`].
pub fn decode_image(bytes: &[u8]) -> Result<StateImage, DecodeError> {
    let mut r = Reader::new(bytes);
    let epoch = r.u64()?;
    let schema_epoch = r.u64()?;

    let mut catalog = Catalog::new();
    let n_tables = r.u32()? as usize;
    for _ in 0..n_tables {
        let name = r.str()?;
        let n_cols = r.u32()? as usize;
        let mut columns = Vec::with_capacity(n_cols);
        for _ in 0..n_cols {
            let cname = r.str()?;
            let ty = match r.u8()? {
                0 => ColumnType::Int,
                1 => ColumnType::Double,
                2 => ColumnType::Str,
                3 => ColumnType::Bool,
                _ => {
                    return Err(DecodeError {
                        offset: r.pos(),
                        what: "unknown column type tag",
                    })
                }
            };
            columns.push(ColumnDef { name: cname, ty });
        }
        let n_keys = r.u32()? as usize;
        let mut keys = Vec::with_capacity(n_keys);
        for _ in 0..n_keys {
            keys.push(decode_index_list(&mut r)?);
        }
        let n_fds = r.u32()? as usize;
        let mut extra_fds = Vec::with_capacity(n_fds);
        for _ in 0..n_fds {
            let lhs = decode_index_list(&mut r)?;
            let rhs = decode_index_list(&mut r)?;
            extra_fds.push(Fd { lhs, rhs });
        }
        let declared_set = r.u8()? != 0;
        catalog
            .add_table(TableSchema {
                name,
                columns,
                keys,
                extra_fds,
                declared_set,
            })
            .map_err(|_| DecodeError {
                offset: r.pos(),
                what: "catalog rejected decoded table schema",
            })?;
    }

    let n_rels = r.u32()? as usize;
    let mut relations = Vec::with_capacity(n_rels);
    for _ in 0..n_rels {
        let name = r.str()?;
        let n_cols = r.u32()? as usize;
        let mut columns = Vec::with_capacity(n_cols);
        for _ in 0..n_cols {
            columns.push(r.str()?);
        }
        let n_rows = r.u32()? as usize;
        let mut rows = Vec::with_capacity(n_rows);
        for _ in 0..n_rows {
            let n_vals = r.u32()? as usize;
            let mut row = Vec::with_capacity(n_vals);
            for _ in 0..n_vals {
                row.push(decode_value(&mut r)?);
            }
            rows.push(row);
        }
        relations.push((name, Table::from(Relation { columns, rows })));
    }

    let n_views = r.u32()? as usize;
    let mut views = Vec::with_capacity(n_views);
    for _ in 0..n_views {
        let name = r.str()?;
        let sql = r.str()?;
        let query = parse_query(&sql).map_err(|_| DecodeError {
            offset: r.pos(),
            what: "view SQL failed to re-parse",
        })?;
        views.push(ViewDef::new(name, query));
    }
    r.finish()?;
    Ok(StateImage {
        epoch,
        schema_epoch,
        catalog,
        relations,
        views,
    })
}

fn checkpoint_file_name(epoch: u64) -> String {
    // Zero-padded so lexicographic file-name order is epoch order.
    format!("checkpoint-{epoch:020}.ckpt")
}

fn fsync_dir(dir: &Path) -> io::Result<()> {
    // Directory fsync makes the rename itself durable (Linux requires
    // this; on platforms where directories can't be opened it is a
    // best-effort no-op).
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// Durably write `img` as `dir/checkpoint-<epoch>.ckpt` (tmp file +
/// fsync + rename + dir fsync), then prune all but the newest two
/// checkpoints. Returns the final path.
pub fn write_checkpoint(dir: &Path, img: &StateImage) -> io::Result<PathBuf> {
    let body = encode_image(img);
    let mut framed = Vec::with_capacity(12 + body.len());
    framed.extend_from_slice(&CKPT_MAGIC);
    framed.extend_from_slice(&CKPT_VERSION.to_le_bytes());
    framed.extend_from_slice(&crc32(&body).to_le_bytes());
    framed.extend_from_slice(&body);

    let final_path = dir.join(checkpoint_file_name(img.epoch));
    let tmp_path = dir.join(format!("{}.tmp", checkpoint_file_name(img.epoch)));
    {
        let mut f = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp_path)?;
        f.write_all(&framed)?;
        f.sync_all()?;
    }
    fs::rename(&tmp_path, &final_path)?;
    fsync_dir(dir)?;
    prune_checkpoints(dir, 2)?;
    Ok(final_path)
}

/// List checkpoint files in `dir`, newest (highest epoch) first.
fn list_checkpoints(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut found = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with("checkpoint-") && name.ends_with(".ckpt") {
            found.push(entry.path());
        }
    }
    found.sort();
    found.reverse();
    Ok(found)
}

/// Remove all but the newest `keep` checkpoints, plus any stray `.tmp`
/// files from interrupted writes.
fn prune_checkpoints(dir: &Path, keep: usize) -> io::Result<()> {
    for old in list_checkpoints(dir)?.into_iter().skip(keep) {
        let _ = fs::remove_file(old);
    }
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if entry.file_name().to_string_lossy().ends_with(".ckpt.tmp") {
            let _ = fs::remove_file(entry.path());
        }
    }
    Ok(())
}

/// Try to decode one checkpoint file; `None` when the framing or body
/// fails validation (a partially written or corrupted file).
fn load_one(path: &Path) -> Option<StateImage> {
    let bytes = fs::read(path).ok()?;
    if bytes.len() < 12 || bytes[..4] != CKPT_MAGIC {
        return None;
    }
    if u32::from_le_bytes(bytes[4..8].try_into().unwrap()) != CKPT_VERSION {
        return None;
    }
    let crc = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    let body = &bytes[12..];
    if crc32(body) != crc {
        return None;
    }
    decode_image(body).ok()
}

/// Load the newest checkpoint in `dir` that validates (magic, version,
/// CRC, clean decode); older files are tried in turn, so a corrupt or
/// torn newest checkpoint falls back instead of failing recovery.
pub fn load_latest(dir: &Path) -> io::Result<Option<StateImage>> {
    if !dir.exists() {
        return Ok(None);
    }
    for path in list_checkpoints(dir)? {
        if let Some(img) = load_one(&path) {
            return Ok(Some(img));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "aggview-ckpt-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    struct DirGuard(PathBuf);
    impl Drop for DirGuard {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn sample_image(epoch: u64) -> StateImage {
        let mut catalog = Catalog::new();
        catalog
            .add_table(TableSchema {
                name: "Sales".into(),
                columns: vec![
                    ColumnDef {
                        name: "Region".into(),
                        ty: ColumnType::Int,
                    },
                    ColumnDef {
                        name: "Label".into(),
                        ty: ColumnType::Str,
                    },
                    ColumnDef {
                        name: "Amount".into(),
                        ty: ColumnType::Double,
                    },
                    ColumnDef {
                        name: "Flag".into(),
                        ty: ColumnType::Bool,
                    },
                ],
                keys: vec![vec![0, 1]],
                extra_fds: vec![Fd {
                    lhs: vec![0],
                    rhs: vec![3],
                }],
                declared_set: true,
            })
            .unwrap();
        let rel = Relation {
            columns: vec![
                "Region".into(),
                "Label".into(),
                "Amount".into(),
                "Flag".into(),
            ],
            rows: vec![
                vec![
                    Value::Int(1),
                    Value::Str("a".into()),
                    Value::Double(1.5),
                    Value::Bool(true),
                ],
                vec![
                    Value::Int(-7),
                    Value::Str("".into()),
                    Value::Double(-0.0),
                    Value::Bool(false),
                ],
            ],
        };
        let query =
            parse_query("SELECT Region, SUM(Amount) AS T FROM Sales GROUP BY Region").unwrap();
        StateImage {
            epoch,
            schema_epoch: 1,
            catalog,
            relations: vec![("Sales".into(), Table::from(rel))],
            views: vec![ViewDef::new("Totals", query)],
        }
    }

    #[test]
    fn image_round_trips_bit_equal() {
        let img = sample_image(5);
        let bytes = encode_image(&img);
        let back = decode_image(&bytes).unwrap();
        // Bit-equality of content: re-encoding the decoded image must
        // reproduce the original bytes exactly.
        assert_eq!(encode_image(&back), bytes);
        assert_eq!(back.epoch, 5);
        assert_eq!(back.schema_epoch, 1);
        assert_eq!(back.relations, img.relations);
        assert_eq!(back.views.len(), 1);
        assert_eq!(back.views[0].name, "Totals");
    }

    #[test]
    fn double_bit_patterns_survive() {
        // -0.0 and NaN-free but tricky doubles must round-trip by bits,
        // not by value comparison.
        let mut img = sample_image(1);
        img.relations[0].1.row_mut(0)[2] = Value::Double(f64::MIN_POSITIVE);
        let back = decode_image(&encode_image(&img)).unwrap();
        match &back.relations[0].1.row(0)[2] {
            Value::Double(d) => assert_eq!(d.to_bits(), f64::MIN_POSITIVE.to_bits()),
            other => panic!("wrong value: {other:?}"),
        }
        match &back.relations[0].1.row(1)[2] {
            Value::Double(d) => assert_eq!(d.to_bits(), (-0.0f64).to_bits()),
            other => panic!("wrong value: {other:?}"),
        }
    }

    #[test]
    fn newest_valid_checkpoint_wins_and_prune_keeps_two() {
        let dir = scratch("latest");
        let _g = DirGuard(dir.clone());
        for epoch in [3u64, 7, 12] {
            write_checkpoint(&dir, &sample_image(epoch)).unwrap();
        }
        let latest = load_latest(&dir).unwrap().unwrap();
        assert_eq!(latest.epoch, 12);
        let names = list_checkpoints(&dir).unwrap();
        assert_eq!(names.len(), 2, "prune keeps the newest two: {names:?}");
    }

    #[test]
    fn corrupt_newest_falls_back_to_previous() {
        let dir = scratch("fallback");
        let _g = DirGuard(dir.clone());
        write_checkpoint(&dir, &sample_image(4)).unwrap();
        let newest = write_checkpoint(&dir, &sample_image(9)).unwrap();
        // Corrupt one byte of the newest file's body.
        let mut bytes = fs::read(&newest).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0x40;
        fs::write(&newest, &bytes).unwrap();
        let latest = load_latest(&dir).unwrap().unwrap();
        assert_eq!(latest.epoch, 4, "fell back past the corrupt newest");
    }

    #[test]
    fn missing_dir_and_foreign_files_yield_none() {
        let dir = scratch("none");
        let _g = DirGuard(dir.clone());
        assert!(load_latest(&dir.join("nope")).unwrap().is_none());
        fs::write(dir.join("checkpoint-00000000000000000001.ckpt"), b"garbage").unwrap();
        assert!(load_latest(&dir).unwrap().is_none());
    }
}
