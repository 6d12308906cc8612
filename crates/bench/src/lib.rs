//! Experiment implementations for the `aggview` reproduction.
//!
//! Every table (T*) and figure (F*) of `EXPERIMENTS.md` is regenerated by a
//! function in [`experiments`]; the `repro` binary prints them and the
//! Criterion benches in `benches/` measure the performance figures with
//! statistical rigor. [`baseline`] holds the \[GHQ95\]-style purely syntactic
//! matcher used by the T5 ablation.

pub mod baseline;
pub mod experiments;
pub mod report;
pub mod workloads;
