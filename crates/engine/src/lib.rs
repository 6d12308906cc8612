//! In-memory multiset (bag) semantics execution engine for `aggview`.
//!
//! The paper's equivalence notion is *multiset equivalence*: two queries are
//! equivalent iff they compute the same multiset of answers on every
//! database. This crate implements exactly that semantics so the rewriting
//! engine's outputs can be validated empirically and benchmarked:
//!
//! * [`value`] — dynamically typed values with SQL comparison semantics,
//! * [`relation`] — multiset relations and multiset equality,
//! * [`database`] — a named collection of base tables and materialized
//!   views,
//! * [`exec`] — evaluation of single-block queries (greedy hash-join
//!   planning over the equality predicates, grouping, aggregation, HAVING,
//!   DISTINCT),
//! * [`agg`] — aggregate accumulators,
//! * [`columnar`] — typed column vectors behind the row-based wire format,
//!   with lossless conversion both ways (the vectorized operators in
//!   [`exec`] run over these),
//! * [`datagen`] — synthetic workloads: the telephony warehouse of the
//!   paper's Example 1.1 and random databases for property testing,
//! * [`snapshot`] — atomically-swappable immutable snapshots and store
//!   counters, the primitive under the shared concurrent serving store.
//!
//! Semantics decisions (documented in `DESIGN.md`):
//! * **No NULLs.** Columns are total; `COUNT(A)` equals the group size.
//! * An aggregation query over an empty input produces **zero rows**, with
//!   or without `GROUP BY` (the paper's queries always group; this keeps
//!   the model NULL-free and is applied uniformly to original and rewritten
//!   queries, so equivalence checking is unaffected).
//! * `/` always produces a double; `AVG` is a double.

pub mod agg;
pub mod columnar;
pub mod ctx;
pub mod database;
pub mod datagen;
pub mod error;
pub mod exec;
pub mod index;
pub mod maintenance;
pub mod reference;
pub mod relation;
pub mod shard;
pub mod snapshot;
pub mod value;

pub use columnar::ColumnarRelation;
pub use ctx::ExecContext;
pub use database::Database;
pub use error::{EngineError, EngineResult};
pub use exec::{execute, execute_ctx, PhysicalPlan};
pub use index::GroupIndex;
pub use maintenance::maintain_view_ctx;
pub use reference::execute_reference;
pub use relation::{multiset_eq, set_eq, Relation};
pub use snapshot::{SnapshotCell, StoreStats};
pub use value::Value;
