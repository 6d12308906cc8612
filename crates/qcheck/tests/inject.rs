//! Fault-injection self-test: the harness must catch a deliberately
//! broken usability check. `AGGVIEW_UNSOUND_SKIP_C3` disables both copies
//! of the first half of condition C3 (the view-condition entailment check
//! in `rewrite_conjunctive` and the matching prune inside the mapping
//! search), admitting rewritings over views that filter rows the query
//! needs. The differential oracle must flag a seed in a short scan, and
//! the shrinker must reduce the witness to a tiny case.
//!
//! The flag is read once per process through a `OnceLock`, so this file
//! holds a single `#[test]`: cargo gives each integration-test binary its
//! own process, and setting the variable here cannot leak into any other
//! suite.

use aggview_qcheck::{run_seed, CaseConfig, Mode};

#[test]
fn injected_c3_bug_is_caught_and_shrunk() {
    // Must happen before the first rewrite call caches the flag.
    std::env::set_var("AGGVIEW_UNSOUND_SKIP_C3", "1");

    let cfg = CaseConfig::default();
    let failure = (0..50)
        .find_map(|seed| run_seed(seed, &cfg, &Mode::Local))
        .expect("a 50-seed scan must expose the injected C3 bug");

    assert!(
        matches!(
            failure.discrepancy.kind.as_str(),
            "answer-mismatch" | "rewriting-inequivalent" | "view-content-mismatch"
        ),
        "unexpected discrepancy kind: {}",
        failure.discrepancy
    );
    // The shrinker must drive the witness down to a human-debuggable size.
    assert!(
        failure.shrunk.query_conjuncts() <= 3,
        "shrunk case keeps {} query conjuncts:\n{}",
        failure.shrunk.query_conjuncts(),
        failure.shrunk
    );
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
