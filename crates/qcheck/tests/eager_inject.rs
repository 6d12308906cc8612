//! Fault-injection self-test: the harness must catch a stale inline
//! summary. `AGGVIEW_UNSOUND_EAGER_STALE` makes the eager-aggregation path
//! reuse the first materialization of each inline summary instead of
//! building it from the pinned snapshot on every execution. The oracle's
//! stream writes between its `SELECT`s, so a join answered through an
//! inline summary before the writes answers stale after them, which the
//! reference comparison must flag in a short scan, and the shrinker must
//! reduce the witness to a tiny case of the same kind.
//!
//! The flag is read once per process through a `OnceLock`, so this file
//! holds a single `#[test]`: cargo gives each integration-test binary its
//! own process, and setting the variable here cannot leak into any other
//! suite.

use aggview_qcheck::{run_seed, CaseConfig, Mode};

#[test]
fn injected_stale_inline_summary_is_caught_and_shrunk() {
    // Must happen before the first inline answer caches the flag.
    std::env::set_var("AGGVIEW_UNSOUND_EAGER_STALE", "1");

    let cfg = CaseConfig::default();
    let failure = (0..100)
        .filter_map(|seed| run_seed(seed, &cfg, &Mode::Local))
        .find(|failure| failure.discrepancy.kind == "answer-mismatch")
        .expect("a 100-seed scan must expose the stale inline summary");

    assert!(
        failure.shrunk.total_rows() <= 5,
        "shrunk case keeps {} rows:\n{}",
        failure.shrunk.total_rows(),
        failure.shrunk
    );
    assert_eq!(
        failure.shrunk_discrepancy.kind, failure.discrepancy.kind,
        "shrinking must preserve the failure kind"
    );
}
