//! # aggview — Answering SQL Aggregation Queries Using Materialized Views
//!
//! A production-quality Rust implementation of *"Reasoning with Aggregation
//! Constraints in Views"* (Shaul Dar, H. V. Jagadish, Alon Y. Levy, Divesh
//! Srivastava; AT&T Bell Laboratories, 1996 — published as *"Answering
//! Queries with Aggregation Using Views"*, VLDB 1996).
//!
//! This facade crate re-exports the public API of the workspace:
//!
//! * [`sql`] — the SQL dialect: lexer, parser, AST, pretty-printer.
//! * [`catalog`] — schemas, keys, functional dependencies, set-ness
//!   inference (Section 5 of the paper).
//! * [`engine`] — an in-memory multiset (bag) semantics execution engine
//!   used to materialize views, run queries, and decide multiset equality.
//! * [`obs`] — the unified observability layer: metrics registry, log₂
//!   latency histograms per pipeline stage, slow-query ring buffer, and
//!   human/Prometheus rendering of one `ObsSnapshot`.
//! * [`rewrite`] — the paper's contribution: usability conditions C1–C4 /
//!   C2'–C4' and the rewriting algorithms S1–S4 / S1'–S5', multi-view
//!   iteration, HAVING normalization, and set-semantics mode.
//!
//! ## Quickstart
//!
//! ```
//! use aggview::sql::parse_query;
//! use aggview::catalog::{Catalog, TableSchema};
//! use aggview::rewrite::{Rewriter, ViewDef};
//!
//! // Schema: a tiny warehouse.
//! let mut catalog = Catalog::new();
//! catalog
//!     .add_table(TableSchema::new("Sales", ["Region", "Product", "Amount"]))
//!     .unwrap();
//!
//! // A materialized view with grouping and aggregation.
//! let view = ViewDef::new(
//!     "RegionTotals",
//!     parse_query(
//!         "SELECT Region, Product, SUM(Amount), COUNT(Amount) \
//!          FROM Sales GROUP BY Region, Product",
//!     )
//!     .unwrap(),
//! );
//!
//! // A query that can be answered from the view alone.
//! let query = parse_query(
//!     "SELECT Region, SUM(Amount) FROM Sales GROUP BY Region",
//! )
//! .unwrap();
//!
//! let rewriter = Rewriter::new(&catalog);
//! let rewritings = rewriter.rewrite(&query, std::slice::from_ref(&view)).unwrap();
//! assert!(!rewritings.is_empty());
//! // The rewriting reads only the (much smaller) view:
//! assert_eq!(rewritings[0].query.from.len(), 1);
//! assert_eq!(rewritings[0].query.from[0].table, "RegionTotals");
//! ```

pub mod advisor;
pub mod backend;
pub mod durability;
mod eager;
pub mod gen;
mod memo;
pub mod net;
pub mod plan_cache;
pub mod run;
pub mod server;
pub mod session;
pub mod sharded;
pub mod state;

pub use aggview_catalog as catalog;
pub use aggview_core as rewrite;
pub use aggview_engine as engine;
pub use aggview_obs as obs;
pub use aggview_sql as sql;
