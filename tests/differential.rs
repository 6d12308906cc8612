//! Tier-1 differential smoke: a small slice of the qcheck harness runs on
//! every `cargo test`. The full soak lives in `scripts/soak.sh` (and the
//! `qcheck` binary); this file keeps the fast path honest — a short seed
//! range across the whole engine-configuration lattice, plus a replay of
//! the persisted corpus so previously interesting cases stay green.

use aggview_qcheck::{
    check_case, check_case_sessions, check_case_shards, corpus, run_range, run_range_sessions,
    run_range_shards, CaseConfig,
};
use std::path::Path;

/// Every seed in a short range must be discrepancy-free across the full
/// lattice (plan cache, grouped indexes, compiled plans, recompute-vs-delta
/// maintenance), every emitted rewriting, and both rewrite thread counts.
#[test]
fn short_seed_range_is_discrepancy_free() {
    let cfg = CaseConfig::default();
    match run_range(0..40, &cfg) {
        Ok(checked) => assert_eq!(checked, 40),
        Err(f) => panic!(
            "seed {} failed: {}\nshrunk to:\n{}",
            f.seed, f.discrepancy, f.shrunk
        ),
    }
}

/// The same seeds through the multi-session interleaved replay: the
/// statement stream round-robined across 2 (then 3) handles of one shared
/// store must reach exactly the same verdicts as the single-session
/// oracle. This is the deterministic cross-handle coverage — per-handle
/// plan caches invalidating off another handle's DDL, snapshots tracking
/// acked writes, store-wide write policy.
#[test]
fn short_seed_range_is_discrepancy_free_across_sessions() {
    let cfg = CaseConfig::default();
    for sessions in [2usize, 3] {
        match run_range_sessions(0..12, &cfg, sessions) {
            Ok(checked) => assert_eq!(checked, 12),
            Err(f) => panic!(
                "seed {} failed with {sessions} sessions: {}\nshrunk to:\n{}",
                f.seed, f.discrepancy, f.shrunk
            ),
        }
    }
}

/// The same seeds through the hash-partitioned scatter-gather replay:
/// every statement stream driven through one driver session over 2 (then
/// 3) shard stores must reach the same verdicts, with the per-shard base
/// tables forming a disjoint cover of the global contents. Gathered
/// answers are additionally `verify`-checked against the union evaluation
/// inside the session.
#[test]
fn short_seed_range_is_discrepancy_free_across_shards() {
    let cfg = CaseConfig::default();
    for shards in [2usize, 3] {
        match run_range_shards(0..12, &cfg, shards) {
            Ok(checked) => assert_eq!(checked, 12),
            Err(f) => panic!(
                "seed {} failed with {shards} shards: {}\nshrunk to:\n{}",
                f.seed, f.discrepancy, f.shrunk
            ),
        }
    }
}

/// Replay the persisted corpus. Each file is a plain SQL script that once
/// exposed (or characterizes) a tricky interaction; a discrepancy here is a
/// regression.
#[test]
fn corpus_replays_without_regressions() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let cases = corpus::load_dir(&dir).expect("corpus files parse");
    assert!(
        !cases.is_empty(),
        "tests/corpus must contain at least one case"
    );
    for (name, case) in cases {
        if let Err(d) = check_case(&case) {
            panic!("corpus case {name} regressed: {d}\n{case}");
        }
    }
}

/// The corpus again, through the 2-handle interleaved replay.
#[test]
fn corpus_replays_without_regressions_across_sessions() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let cases = corpus::load_dir(&dir).expect("corpus files parse");
    for (name, case) in cases {
        if let Err(d) = check_case_sessions(&case, 2) {
            panic!("corpus case {name} regressed under 2 sessions: {d}\n{case}");
        }
    }
}

/// The corpus again, through the 2-shard scatter-gather replay.
#[test]
fn corpus_replays_without_regressions_across_shards() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let cases = corpus::load_dir(&dir).expect("corpus files parse");
    for (name, case) in cases {
        if let Err(d) = check_case_shards(&case, 2) {
            panic!("corpus case {name} regressed under 2 shards: {d}\n{case}");
        }
    }
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
