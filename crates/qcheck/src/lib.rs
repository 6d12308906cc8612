//! # aggview-qcheck — the differential & metamorphic correctness harness
//!
//! Random workloads (schemas, bag-semantics data, conjunctive views,
//! single-block aggregation queries over MIN/MAX/SUM/COUNT/AVG with
//! GROUP BY, HAVING, and equality/order predicates), cross-checked
//! against the naive reference interpreter across every engine
//! configuration the serving stack exposes:
//!
//! * plan cache on/off,
//! * incremental view maintenance vs. full recomputation,
//! * columnar vs. row-at-a-time execution,
//! * and every emitted rewriting, executed individually.
//!
//! One write protocol per case (see [`oracle`]) is replayed on
//! whichever serving surface the [`Mode`] names — a local session, the
//! handles of a shared or sharded store (optionally durable and reopened
//! mid-stream), wire clients, the advisor's off/auto pair, or a store
//! killed and recovered mid-stream.
//!
//! All checks are deterministic in a single `u64` seed — no wall clock,
//! no global RNG. A failing seed greedily shrinks to a local minimum and
//! can be persisted to (and replayed from) a plain-SQL corpus file; see
//! `tests/corpus/` at the workspace root and the `qcheck` binary for the
//! soak/replay CLI.

mod advisor;
pub mod case;
pub mod corpus;
pub mod crash;
pub mod generate;
mod net;
pub mod oracle;
pub mod shrink;
mod target;
mod variants;

pub use case::{Case, TableSpec};
pub use crash::check_case_crash_at;
pub use generate::{generate, CaseConfig};
pub use oracle::Discrepancy;
pub use shrink::shrink;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// What a check replays a case on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// One local session per lattice point, plus the display→parse
    /// round-trip and every emitted rewriting.
    Local,
    /// `k` round-robin handles of one shared store; with `reopen`, a
    /// durable store dropped and reopened mid-stream.
    Sessions { k: usize, reopen: bool },
    /// One scatter-gather driver session over a `k`-way hash-partitioned
    /// store; `reopen` as for sessions, shard set by shard set.
    Shards { k: usize, reopen: bool },
    /// Wire clients of a loopback server, then the frame fuzzer.
    Net,
    /// Advisor off vs. advisor `auto`, compared with each other.
    Advisor,
    /// A durable store killed at a WAL append derived from `seed`,
    /// recovered, and compared with an uninterrupted run.
    Crash { seed: u64 },
}

impl Mode {
    /// The mode as it checks the case generated from `seed` (or replayed
    /// from that corpus position): only the crash mode reads the seed.
    pub fn seeded(self, seed: u64) -> Mode {
        match self {
            Mode::Crash { .. } => Mode::Crash { seed },
            other => other,
        }
    }
}

/// Check one case in `mode`. `Ok(())` = every path agreed. A panic
/// anywhere in the stack becomes a `"panic"` discrepancy, so a soak run
/// survives an engine crash and shrinks it.
pub fn check(case: &Case, mode: &Mode) -> Result<(), Discrepancy> {
    guarded(|| match *mode {
        Mode::Advisor => advisor::check(case),
        Mode::Crash { seed } => crash::check(case, seed),
        _ => oracle::check_lattice(case, mode),
    })
}

/// Run `check`, turning a panic into a `"panic"` discrepancy.
pub(crate) fn guarded(check: impl FnOnce() -> Result<(), Discrepancy>) -> Result<(), Discrepancy> {
    catch_unwind(AssertUnwindSafe(check)).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("opaque panic payload");
        Err(Discrepancy::new("panic", msg))
    })
}

/// A failing seed: the generated case, its shrunk form, and the verdict.
#[derive(Debug)]
pub struct Failure {
    /// The seed that produced the case.
    pub seed: u64,
    /// The discrepancy of the original case.
    pub discrepancy: Discrepancy,
    /// The greedily minimized case (same failure kind).
    pub shrunk: Case,
    /// The discrepancy the shrunk case produces.
    pub shrunk_discrepancy: Discrepancy,
}

/// Check one seed in `mode`; on failure, shrink under the same mode and
/// report.
pub fn run_seed(seed: u64, cfg: &CaseConfig, mode: &Mode) -> Option<Failure> {
    let mode = mode.seeded(seed);
    let case = generate(seed, cfg);
    let discrepancy = check(&case, &mode).err()?;
    let (shrunk, shrunk_discrepancy) = shrink(&case, &discrepancy.kind, |c| check(c, &mode));
    Some(Failure {
        seed,
        discrepancy,
        shrunk,
        shrunk_discrepancy,
    })
}

/// Check a seed range in `mode`, stopping at the first failure.
pub fn run_range(
    seeds: std::ops::Range<u64>,
    cfg: &CaseConfig,
    mode: &Mode,
) -> Result<u64, Box<Failure>> {
    let mut checked = 0;
    for seed in seeds {
        if let Some(f) = run_seed(seed, cfg, mode) {
            return Err(Box::new(f));
        }
        checked += 1;
    }
    Ok(checked)
}
