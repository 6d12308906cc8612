//! Fault-injection self-test for the crash oracle: the harness must catch
//! a deliberately unsound write-ahead log. `AGGVIEW_UNSOUND_SKIP_FSYNC`
//! makes `Wal::sync` a no-op and `AGGVIEW_UNSOUND_DROP_WAL=n` silently
//! discards every n-th append; either way an acknowledged batch is gone
//! after recovery, which the crash sweep must flag as a
//! `durability-violation` within a short seed scan, with the shrinker
//! reducing the witness while preserving the failure kind.
//!
//! Both flags are read at every `Wal::open`, so one test can arm them in
//! turn; it is the only test in this file, so the variables cannot leak
//! into another test running in the same process.

use aggview_qcheck::{generate, run_seed, CaseConfig, Mode};

#[test]
fn injected_wal_faults_are_caught_and_shrunk() {
    let cfg = CaseConfig::default();
    for (flag, value) in [
        ("AGGVIEW_UNSOUND_SKIP_FSYNC", "1"),
        ("AGGVIEW_UNSOUND_DROP_WAL", "3"),
    ] {
        std::env::set_var(flag, value);
        let failure = (0..50)
            .find_map(|seed| run_seed(seed, &cfg, &Mode::Crash { seed }))
            .unwrap_or_else(|| panic!("a 50-seed crash scan must expose {flag}={value}"));
        std::env::remove_var(flag);

        assert_eq!(
            failure.discrepancy.kind, "durability-violation",
            "{flag}: {}",
            failure.discrepancy
        );
        assert_eq!(
            failure.shrunk_discrepancy.kind, failure.discrepancy.kind,
            "{flag}: shrinking must preserve the failure kind"
        );
        assert!(
            failure.shrunk.total_rows() < generate(failure.seed, &cfg).total_rows(),
            "{flag}: the witness must shrink, keeps {} rows:\n{}",
            failure.shrunk.total_rows(),
            failure.shrunk
        );
    }
}
