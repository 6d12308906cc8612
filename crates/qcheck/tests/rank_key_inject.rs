//! Fault-injection self-test: the harness must catch a plan-cache
//! template served to a constant variant it does not fit.
//! `AGGVIEW_UNSOUND_RANK_KEY` leaves the first constant's comparisons
//! out of the template key's order type, so variants on either side of
//! a view's constant share a template and the later one replays the
//! earlier one's choice. The replay stays sound (the paper's conditions
//! are checked on the real constants, or the choice is the base tables),
//! so the answers agree with the reference; the decision does not agree
//! with the full search's, which the cache-on vs cache-off comparison of
//! the variants' metadata must flag in a short scan, and the shrinker
//! must keep the kind.
//!
//! The flag is read once per process through a `OnceLock`, so this file
//! holds a single `#[test]`: cargo gives each integration-test binary its
//! own process, and setting the variable here cannot leak into any other
//! suite.

use aggview_qcheck::{generate, run_seed, CaseConfig, Mode};

#[test]
fn injected_rank_key_drift_is_caught_and_shrunk() {
    // Must happen before the first template key caches the flag.
    std::env::set_var("AGGVIEW_UNSOUND_RANK_KEY", "1");

    let cfg = CaseConfig::default();
    let failure = (0..100)
        .filter_map(|seed| run_seed(seed, &cfg, &Mode::Local))
        .find(|failure| failure.discrepancy.kind == "decision-drift")
        .expect("a 100-seed scan must expose the decision drift");

    let original = generate(failure.seed, &cfg).total_rows();
    assert!(
        failure.shrunk.total_rows() <= original.min(8),
        "shrunk case keeps {} of {original} rows:\n{}",
        failure.shrunk.total_rows(),
        failure.shrunk
    );
    assert_eq!(
        failure.shrunk_discrepancy.kind, failure.discrepancy.kind,
        "shrinking must preserve the failure kind"
    );
}
