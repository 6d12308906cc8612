//! Fault-injection self-test: the harness must catch a stored chunk
//! whose columnar conversion outlives an append.
//! `AGGVIEW_UNSOUND_STALE_CHUNK_COLUMNS` makes an append keep the tail
//! chunk's conversion, so a vectorized read misses the appended rows
//! while the row path, which reads the rows themselves, does not. The
//! oracle must flag it within a short scan, at a `columnar=1` point of
//! the options lattice, and the shrinker must keep that failure while
//! reducing the witness.
//!
//! The flag is read once per process through a `OnceLock`, so this file
//! holds a single `#[test]`: cargo gives each integration-test binary its
//! own process, and setting the variable here cannot leak into any other
//! suite.

use aggview_qcheck::{generate, run_seed, CaseConfig, Mode};

#[test]
fn injected_stale_chunk_conversion_is_caught_and_shrunk() {
    // Must happen before the first append caches the flag.
    std::env::set_var("AGGVIEW_UNSOUND_STALE_CHUNK_COLUMNS", "1");

    let cfg = CaseConfig::default();
    let failure = (0..100)
        .find_map(|seed| run_seed(seed, &cfg, &Mode::Local))
        .expect("a 100-seed scan must expose the stale chunk conversion");

    for d in [&failure.discrepancy, &failure.shrunk_discrepancy] {
        assert!(
            d.detail.contains("columnar=1]"),
            "only a vectorized read sees the stale conversion: {d}"
        );
    }
    assert_eq!(
        failure.shrunk_discrepancy.kind, failure.discrepancy.kind,
        "shrinking must preserve the failure kind"
    );
    assert!(
        failure.shrunk.total_rows() < generate(failure.seed, &cfg).total_rows(),
        "the witness must shrink, keeps {} rows:\n{}",
        failure.shrunk.total_rows(),
        failure.shrunk
    );
}
