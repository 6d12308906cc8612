//! Fault-injection self-test: the harness must catch an aux memo that
//! checks only part of its key. `AGGVIEW_UNSOUND_AUX_MEMO_ONE_INPUT`
//! makes the memo compare the identity of a kept build's first input
//! alone, so a summary over two tables is reused after a write to the
//! second. The oracle's stream answers the query just before and just
//! after its delete on table 0, so a summary that reads table 0 after
//! another table answers stale, which the reference comparison must flag
//! in a short scan, and the shrinker must reduce the witness to a tiny
//! case of the same kind.
//!
//! The flag is read once per process through a `OnceLock`, so this file
//! holds a single `#[test]`: cargo gives each integration-test binary its
//! own process, and setting the variable here cannot leak into any other
//! suite.

use aggview_qcheck::{run_seed, CaseConfig, Mode};

#[test]
fn injected_one_input_memo_key_is_caught_and_shrunk() {
    // Must happen before the first memo lookup caches the flag.
    std::env::set_var("AGGVIEW_UNSOUND_AUX_MEMO_ONE_INPUT", "1");

    let cfg = CaseConfig::default();
    let failure = (0..100)
        .filter_map(|seed| run_seed(seed, &cfg, &Mode::Local))
        .find(|failure| failure.discrepancy.kind == "answer-mismatch")
        .expect("a 100-seed scan must expose the one-input memo key");

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
