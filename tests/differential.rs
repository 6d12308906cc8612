//! Tier-1 differential smoke: a small slice of the qcheck harness runs on
//! every `cargo test`. The full soak lives in `scripts/soak.sh` (and the
//! `qcheck` binary); this file keeps the fast path honest — a short seed
//! range across the whole engine-configuration lattice, plus a replay of
//! the persisted corpus so previously interesting cases stay green.

use aggview::obs::CounterId;
use aggview::session::{Session, SessionOptions};
use aggview::sql::parse_script;
use aggview_qcheck::{check, corpus, generate, run_range, Case, CaseConfig, Mode};
use std::ops::Range;
use std::path::Path;

/// Every mode the harness drives: the whole lattice (plan cache,
/// recompute-vs-delta maintenance, columnar-vs-row execution) on a local
/// session, on round-robin handles of one shared store and through a
/// scatter-gather shard driver (both again durable and reopened
/// mid-stream), over loopback TCP; advisor off vs. auto; and a store
/// killed and recovered.
const MODES: [Mode; 8] = [
    Mode::Local,
    Mode::Sessions {
        k: 2,
        reopen: false,
    },
    Mode::Shards {
        k: 2,
        reopen: false,
    },
    Mode::Sessions { k: 2, reopen: true },
    Mode::Shards { k: 2, reopen: true },
    Mode::Net,
    Mode::Advisor,
    Mode::Crash { seed: 0 },
];

/// The seeds each mode replays here: the in-memory lattice modes many,
/// the store modes also with 3 handles and 3 shards, and every other mode
/// (durable stores, sockets, or no lattice at all) a few.
fn slices() -> Vec<(Mode, Range<u64>)> {
    let sessions = |k| Mode::Sessions { k, reopen: false };
    let shards = |k| Mode::Shards { k, reopen: false };
    let mut slices = vec![
        (Mode::Local, 0..40),
        (sessions(2), 0..12),
        (sessions(3), 0..12),
        (shards(2), 0..12),
        (shards(3), 0..12),
    ];
    for mode in MODES {
        if !slices.iter().any(|(m, _)| *m == mode) {
            slices.push((mode, 0..4));
        }
    }
    slices
}

/// The in-memory interleaved replay: round-robin handles of one shared store.
fn in_memory_sessions(mode: &Mode) -> bool {
    matches!(mode, Mode::Sessions { reopen: false, .. })
}

/// The in-memory scatter-gather replay: one driver session over K shards.
fn in_memory_shards(mode: &Mode) -> bool {
    matches!(mode, Mode::Shards { reopen: false, .. })
}

/// Every seed slice whose mode `pick` selects must be discrepancy-free.
fn sweep(pick: impl Fn(&Mode) -> bool) {
    let cfg = CaseConfig::default();
    for (mode, seeds) in slices().into_iter().filter(|(m, _)| pick(m)) {
        let n = seeds.end - seeds.start;
        match run_range(seeds, &cfg, &mode) {
            Ok(checked) => assert_eq!(checked, n),
            Err(f) => panic!(
                "seed {} failed in {mode:?}: {}\nshrunk to:\n{}",
                f.seed, f.discrepancy, f.shrunk
            ),
        }
    }
}

/// Every seed slice must be discrepancy-free in its mode: the local
/// lattice, the durable reopened stores, loopback TCP, the advisor and
/// the crash oracle here; the in-memory multi-handle modes below.
#[test]
fn short_seed_range_is_discrepancy_free() {
    sweep(|m| !in_memory_sessions(m) && !in_memory_shards(m));
}

/// The same seeds through 2 (then 3) handles of one shared store must
/// reach exactly the same verdicts as the single-session oracle. This is
/// the deterministic cross-handle coverage — per-handle plan caches
/// invalidating off another handle's DDL, snapshots tracking acked
/// writes, store-wide write policy.
#[test]
fn short_seed_range_is_discrepancy_free_across_sessions() {
    sweep(in_memory_sessions);
}

/// The same seeds through one driver session over 2 (then 3) shard
/// stores, with the per-shard base tables forming a disjoint cover of the
/// global contents and gathered answers `verify`-checked against the
/// union evaluation inside the session.
#[test]
fn short_seed_range_is_discrepancy_free_across_shards() {
    sweep(in_memory_shards);
}

/// The sweep above reaches the eager-aggregation path: its first `SELECT`
/// runs before any view exists, so every join-then-group query there is
/// answered through an inline summary when one pays off. Replaying the
/// same seeds' tables and query counts those answers; a gate that
/// silently turned the path off would leave the oracle green and this
/// count at zero.
#[test]
fn short_seed_range_exercises_inline_summaries() {
    let cfg = CaseConfig::default();
    let mut inline = 0;
    for seed in 0..50 {
        let case = Case {
            views: Vec::new(),
            ..generate(seed, &cfg)
        };
        let stmts = parse_script(&case.to_string()).expect("case scripts parse");
        let mut session = Session::new(SessionOptions::default());
        session.run_script(&stmts).expect("case scripts run");
        inline += session
            .metrics()
            .expect("obs on by default")
            .get(CounterId::EagerInline);
    }
    assert!(inline > 0, "no inline-summary answer in seeds 0..50");
}

/// Replay the persisted corpus in every mode `pick` selects. Each file is
/// a plain SQL script that once exposed (or characterizes) a tricky
/// interaction; a discrepancy here is a regression.
fn replay(pick: impl Fn(&Mode) -> bool) {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let cases = corpus::load_dir(&dir).expect("corpus files parse");
    assert!(
        !cases.is_empty(),
        "tests/corpus must contain at least one case"
    );
    for mode in MODES.into_iter().filter(|m| pick(m)) {
        for (i, (name, case)) in cases.iter().enumerate() {
            if let Err(d) = check(case, &mode.seeded(i as u64)) {
                panic!("corpus case {name} regressed in {mode:?}: {d}\n{case}");
            }
        }
    }
}

/// The corpus in every mode but the in-memory multi-handle ones below.
#[test]
fn corpus_replays_without_regressions() {
    replay(|m| !in_memory_sessions(m) && !in_memory_shards(m));
}

/// The corpus again, through the 2-handle interleaved replay.
#[test]
fn corpus_replays_without_regressions_across_sessions() {
    replay(in_memory_sessions);
}

/// The corpus again, through the 2-shard scatter-gather replay.
#[test]
fn corpus_replays_without_regressions_across_shards() {
    replay(in_memory_shards);
}

/// The row-vs-columnar axis, pinned directly: every corpus case's query
/// and view definitions must produce *byte-identical* relations (rows and
/// row order, not just bag equality) under `columnar: true` and `false`.
/// The lattice oracle above already cross-checks both modes against the
/// reference interpreter; this is the stricter determinism claim behind
/// the `--no-columnar` escape hatch.
#[test]
fn corpus_answers_are_byte_identical_row_vs_columnar() {
    use aggview::engine::{execute_ctx, ExecContext};
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let cases = corpus::load_dir(&dir).expect("corpus files parse");
    for (name, case) in cases {
        let mut db = case.database(false);
        aggview::run::materialize_views(&mut db, &case.views)
            .unwrap_or_else(|e| panic!("corpus case {name}: views fail to materialize: {e}"));
        let mut targets = vec![("query".to_string(), case.query.clone())];
        for v in &case.views {
            targets.push((format!("view {}", v.name), v.query.clone()));
        }
        for (what, q) in targets {
            let row = execute_ctx(&q, &db, &ExecContext::columnar(false));
            let col = execute_ctx(&q, &db, &ExecContext::columnar(true));
            match (row, col) {
                (Ok(r), Ok(c)) => {
                    assert_eq!(
                        r.rows, c.rows,
                        "corpus case {name}: {what} answers diverge between row and columnar"
                    );
                    assert_eq!(r.columns, c.columns);
                }
                (r, c) => assert_eq!(
                    format!("{r:?}"),
                    format!("{c:?}"),
                    "corpus case {name}: {what} outcomes diverge between row and columnar"
                ),
            }
        }
    }
}
