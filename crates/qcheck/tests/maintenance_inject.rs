//! Fault-injection self-test: the harness must catch a dropped delta
//! term. `AGGVIEW_UNSOUND_DROP_DIM_DELTA` makes view maintenance skip the
//! fold — while still reporting the view as maintained — whenever the
//! changed table is not the view's first `FROM` occurrence: the `T ⋈ ΔR`
//! half of the join's delta rule. Every lattice point that folds then
//! holds a stale join view, which the final view-content check against
//! reference evaluation must flag in a short scan, and the shrinker must
//! reduce the witness to a tiny case of the same kind.
//!
//! The flag is read once per process through a `OnceLock`, so this file
//! holds a single `#[test]`: cargo gives each integration-test binary its
//! own process, and setting the variable here cannot leak into any other
//! suite.

use aggview_qcheck::{run_seed, CaseConfig};

#[test]
fn injected_dropped_delta_term_is_caught_and_shrunk() {
    // Must happen before the first maintained write caches the flag.
    std::env::set_var("AGGVIEW_UNSOUND_DROP_DIM_DELTA", "1");

    let cfg = CaseConfig::default();
    let failure = (0..100)
        .filter_map(|seed| run_seed(seed, &cfg))
        .find(|failure| failure.discrepancy.kind == "view-content-mismatch")
        .expect("a 100-seed scan must expose the stale join view");

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
