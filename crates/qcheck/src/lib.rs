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
//! All checks are deterministic in a single `u64` seed — no wall clock,
//! no global RNG. A failing seed greedily shrinks to a local minimum and
//! can be persisted to (and replayed from) a plain-SQL corpus file; see
//! `tests/corpus/` at the workspace root and the `qcheck` binary for the
//! soak/replay CLI.

pub mod advisor;
pub mod case;
pub mod corpus;
pub mod crash;
pub mod generate;
pub mod net;
pub mod oracle;
pub mod shrink;

pub use advisor::check_case_advisor;
pub use case::{Case, TableSpec};
pub use crash::{
    check_case_crash, check_case_crash_at, check_case_sessions_reopen, check_case_shards_reopen,
};
pub use generate::{generate, CaseConfig};
pub use net::check_case_net;
pub use oracle::{check_case, check_case_sessions, check_case_shards, Discrepancy};
pub use shrink::{shrink, shrink_with};

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

/// Check one seed; on failure, shrink and report.
pub fn run_seed(seed: u64, cfg: &CaseConfig) -> Option<Failure> {
    let case = generate(seed, cfg);
    let discrepancy = check_case(&case).err()?;
    let (shrunk, shrunk_discrepancy) = shrink(&case, &discrepancy.kind);
    Some(Failure {
        seed,
        discrepancy,
        shrunk,
        shrunk_discrepancy,
    })
}

/// Check a seed range, stopping at the first failure.
pub fn run_range(seeds: std::ops::Range<u64>, cfg: &CaseConfig) -> Result<u64, Box<Failure>> {
    let mut checked = 0;
    for seed in seeds {
        if let Some(f) = run_seed(seed, cfg) {
            return Err(Box::new(f));
        }
        checked += 1;
    }
    Ok(checked)
}

/// Check one seed through `sessions` handles of a shared store
/// (deterministic round-robin interleaving); on failure, shrink under the
/// same interleaved replay and report.
pub fn run_seed_sessions(seed: u64, cfg: &CaseConfig, sessions: usize) -> Option<Failure> {
    let case = generate(seed, cfg);
    let discrepancy = check_case_sessions(&case, sessions).err()?;
    let (shrunk, shrunk_discrepancy) = shrink_with(&case, &discrepancy.kind, |c| {
        check_case_sessions(c, sessions)
    });
    Some(Failure {
        seed,
        discrepancy,
        shrunk,
        shrunk_discrepancy,
    })
}

/// Check a seed range in multi-session mode, stopping at the first
/// failure.
pub fn run_range_sessions(
    seeds: std::ops::Range<u64>,
    cfg: &CaseConfig,
    sessions: usize,
) -> Result<u64, Box<Failure>> {
    let mut checked = 0;
    for seed in seeds {
        if let Some(f) = run_seed_sessions(seed, cfg, sessions) {
            return Err(Box::new(f));
        }
        checked += 1;
    }
    Ok(checked)
}

/// Check one seed through a `shards`-way hash-partitioned store behind a
/// scatter-gather driver session; on failure, shrink under the same
/// sharded replay and report.
pub fn run_seed_shards(seed: u64, cfg: &CaseConfig, shards: usize) -> Option<Failure> {
    let case = generate(seed, cfg);
    let discrepancy = check_case_shards(&case, shards).err()?;
    let (shrunk, shrunk_discrepancy) =
        shrink_with(&case, &discrepancy.kind, |c| check_case_shards(c, shards));
    Some(Failure {
        seed,
        discrepancy,
        shrunk,
        shrunk_discrepancy,
    })
}

/// Check a seed range in sharded mode, stopping at the first failure.
pub fn run_range_shards(
    seeds: std::ops::Range<u64>,
    cfg: &CaseConfig,
    shards: usize,
) -> Result<u64, Box<Failure>> {
    let mut checked = 0;
    for seed in seeds {
        if let Some(f) = run_seed_shards(seed, cfg, shards) {
            return Err(Box::new(f));
        }
        checked += 1;
    }
    Ok(checked)
}

/// Check one seed over real loopback TCP: the full lattice driven
/// through a [`net`]-served store by wire clients, then the seeded frame
/// fuzzer. On failure, shrink under the same wire replay and report.
pub fn run_seed_net(seed: u64, cfg: &CaseConfig) -> Option<Failure> {
    let case = generate(seed, cfg);
    let discrepancy = check_case_net(&case).err()?;
    let (shrunk, shrunk_discrepancy) = shrink_with(&case, &discrepancy.kind, check_case_net);
    Some(Failure {
        seed,
        discrepancy,
        shrunk,
        shrunk_discrepancy,
    })
}

/// Check a seed range in wire mode, stopping at the first failure.
pub fn run_range_net(seeds: std::ops::Range<u64>, cfg: &CaseConfig) -> Result<u64, Box<Failure>> {
    let mut checked = 0;
    for seed in seeds {
        if let Some(f) = run_seed_net(seed, cfg) {
            return Err(Box::new(f));
        }
        checked += 1;
    }
    Ok(checked)
}

/// Check one seed under the advisor axis: the statement stream replayed
/// advisor-off vs advisor-`auto` (aggressive policy, so views really
/// get created mid-stream), demanding every served answer agree. On
/// failure, shrink under the same dual replay and report.
pub fn run_seed_advisor(seed: u64, cfg: &CaseConfig) -> Option<Failure> {
    let case = generate(seed, cfg);
    let discrepancy = check_case_advisor(&case).err()?;
    let (shrunk, shrunk_discrepancy) = shrink_with(&case, &discrepancy.kind, check_case_advisor);
    Some(Failure {
        seed,
        discrepancy,
        shrunk,
        shrunk_discrepancy,
    })
}

/// Check a seed range in advisor mode, stopping at the first failure.
pub fn run_range_advisor(
    seeds: std::ops::Range<u64>,
    cfg: &CaseConfig,
) -> Result<u64, Box<Failure>> {
    let mut checked = 0;
    for seed in seeds {
        if let Some(f) = run_seed_advisor(seed, cfg) {
            return Err(Box::new(f));
        }
        checked += 1;
    }
    Ok(checked)
}

/// Check one seed under crash-recovery: kill a durable store at a
/// seed-derived WAL append/phase, recover, and demand acked-write
/// durability plus bag equality with an uninterrupted run. On failure,
/// shrink under the same seed (crash parameters re-derive and re-clamp
/// to the shrunk stream inside the checker).
pub fn run_seed_crash(seed: u64, cfg: &CaseConfig) -> Option<Failure> {
    let case = generate(seed, cfg);
    let discrepancy = check_case_crash(&case, seed).err()?;
    let (shrunk, shrunk_discrepancy) =
        shrink_with(&case, &discrepancy.kind, |c| check_case_crash(c, seed));
    Some(Failure {
        seed,
        discrepancy,
        shrunk,
        shrunk_discrepancy,
    })
}

/// Check a seed range in crash-recovery mode, stopping at the first
/// failure.
pub fn run_range_crash(seeds: std::ops::Range<u64>, cfg: &CaseConfig) -> Result<u64, Box<Failure>> {
    let mut checked = 0;
    for seed in seeds {
        if let Some(f) = run_seed_crash(seed, cfg) {
            return Err(Box::new(f));
        }
        checked += 1;
    }
    Ok(checked)
}

/// Check one seed through the reopen-variant lattice drivers (durable
/// store dropped and reopened mid-stream); on failure, shrink under the
/// same replay and report.
pub fn run_seed_reopen(
    seed: u64,
    cfg: &CaseConfig,
    sessions: Option<usize>,
    shards: Option<usize>,
) -> Option<Failure> {
    let case = generate(seed, cfg);
    let check = |c: &Case| match (sessions, shards) {
        (Some(k), _) => check_case_sessions_reopen(c, k),
        (_, Some(k)) => check_case_shards_reopen(c, k),
        _ => unreachable!("reopen requires a session or shard count"),
    };
    let discrepancy = check(&case).err()?;
    let (shrunk, shrunk_discrepancy) = shrink_with(&case, &discrepancy.kind, check);
    Some(Failure {
        seed,
        discrepancy,
        shrunk,
        shrunk_discrepancy,
    })
}

/// Check a seed range in reopen mode, stopping at the first failure.
pub fn run_range_reopen(
    seeds: std::ops::Range<u64>,
    cfg: &CaseConfig,
    sessions: Option<usize>,
    shards: Option<usize>,
) -> Result<u64, Box<Failure>> {
    let mut checked = 0;
    for seed in seeds {
        if let Some(f) = run_seed_reopen(seed, cfg, sessions, shards) {
            return Err(Box::new(f));
        }
        checked += 1;
    }
    Ok(checked)
}
