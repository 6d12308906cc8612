//! Fault-injection self-test for the wire axis: the harness must catch a
//! deliberately broken framing layer. `AGGVIEW_UNSOUND_NET_TRUNCATE`
//! makes `read_frame` silently cut every line to its first 64 bytes and
//! pretend the frame was complete — the classic short-read bug. Any
//! statement (or response) whose encoded line runs past the mark then
//! decodes as garbage or truncated SQL, and the wire replay of the
//! differential lattice must flag it within a short seed scan, with the
//! shrinker reducing the witness while preserving the failure kind.
//!
//! The flag is read once per process through a `OnceLock`, so this file
//! holds a single `#[test]`: cargo gives each integration-test binary
//! its own process, and setting the variable here cannot leak into any
//! other suite.

use aggview_qcheck::{run_seed, CaseConfig, Mode};

#[test]
fn injected_truncation_bug_is_caught_and_shrunk() {
    // Must happen before the first read_frame call caches the flag.
    std::env::set_var("AGGVIEW_UNSOUND_NET_TRUNCATE", "1");

    let cfg = CaseConfig::default();
    let failure = (0..10)
        .find_map(|seed| run_seed(seed, &cfg, &Mode::Net))
        .expect("a 10-seed scan must expose the injected truncation bug");

    assert!(
        failure.discrepancy.kind.starts_with("net-")
            || failure.discrepancy.kind == "answer-mismatch",
        "unexpected discrepancy kind: {}",
        failure.discrepancy
    );
    assert_eq!(
        failure.shrunk_discrepancy.kind, failure.discrepancy.kind,
        "shrinking must preserve the failure kind"
    );
    assert!(
        failure.shrunk.total_rows() <= 5,
        "shrunk case keeps {} rows:\n{}",
        failure.shrunk.total_rows(),
        failure.shrunk
    );
}
