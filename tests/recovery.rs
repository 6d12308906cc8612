//! Tier-1 crash-recovery smoke: a fast slice of `qcheck --crash` that
//! runs on every `cargo test`.
//!
//! The corpus cases are replayed with a forced crash after *every*
//! batch (all three crash phases cycled) against a single durable
//! store, and through the 2-shard reopen driver; recovery must always
//! produce a store whose tables, views, and answers are bag-equal to an
//! uninterrupted run. A directed test pins the schema-epoch contract
//! across restarts: a recovered store resumes the pre-crash epochs, and
//! per-handle plan caches on the recovered store still invalidate on
//! another handle's DDL.

use aggview::durability::CrashPhase;
use aggview::server::SharedStore;
use aggview::session::{SessionOptions, StatementOutcome};
use aggview::state::WritePolicy;
use aggview_qcheck::crash::write_statements;
use aggview_qcheck::{check, check_case_crash_at, corpus, Mode};
use aggview_sql::parse_script;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

struct DirGuard(PathBuf);

impl Drop for DirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("aggview-test-{tag}-{}-{n}", std::process::id()))
}

fn corpus_cases() -> Vec<(String, aggview_qcheck::Case)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let cases = corpus::load_dir(&dir).expect("corpus files parse");
    assert!(
        !cases.is_empty(),
        "tests/corpus must contain at least one case"
    );
    cases
}

/// Every corpus case, crashed after every single batch of its write
/// protocol, in all three phases (cycled by crash point), against one
/// durable store with an aggressive checkpoint cadence. Recovery +
/// resume must be bag-equal to the uninterrupted run everywhere.
#[test]
fn corpus_survives_a_crash_at_every_batch() {
    for (name, case) in corpus_cases() {
        let n = write_statements(&case).len() as u64;
        for crash_at in 1..=n {
            let phase = match crash_at % 3 {
                0 => CrashPhase::BeforeAppend,
                1 => CrashPhase::TornAppend {
                    keep_bytes: 1 + crash_at * 7,
                },
                _ => CrashPhase::AfterSync,
            };
            if let Err(d) = check_case_crash_at(&case, crash_at, phase, 2) {
                panic!("corpus case {name}, crash at batch {crash_at}/{n}: {d}\n{case}");
            }
        }
    }
}

/// Every corpus case through the 2-shard scatter-gather driver with the
/// whole shard set dropped and reopened mid-stream (after the halfway
/// answer and after the delete), across the full options lattice.
#[test]
fn corpus_replays_without_regressions_across_shard_reopens() {
    for (name, case) in corpus_cases() {
        if let Err(d) = check(&case, &Mode::Shards { k: 2, reopen: true }) {
            panic!("corpus case {name} regressed under 2 shards + reopen: {d}\n{case}");
        }
    }
}

/// Schema-epoch contract across restarts: recovery resumes the
/// pre-crash data and schema epochs instead of restarting from zero,
/// and on the recovered store a handle's warmed plan cache still
/// yields correct answers after another handle's DDL (the stale-plan
/// invalidation path keyed on `schema_epoch`).
#[test]
fn recovered_store_resumes_epochs_and_invalidates_stale_plans() {
    let dir = scratch_dir("recovery-epochs");
    let _guard = DirGuard(dir.clone());
    let script = parse_script(
        "CREATE TABLE Sales (Region, Amount);\
         INSERT INTO Sales VALUES (1, 10), (1, 20), (2, 5);\
         CREATE VIEW Totals AS SELECT Region, SUM(Amount) AS Total \
         FROM Sales GROUP BY Region;",
    )
    .expect("script parses");

    let (epoch_before, schema_before) = {
        let store = SharedStore::open(&dir, WritePolicy::default()).expect("open");
        let mut session = store.session(SessionOptions::default());
        for stmt in &script {
            session.execute(stmt).expect("setup statement applies");
        }
        (store.epoch(), store.schema_epoch())
    };
    assert_eq!(epoch_before, 3, "three write batches acked");
    assert!(
        schema_before >= 2,
        "CREATE TABLE + CREATE VIEW bump the schema epoch"
    );

    // Reopen: recovery must resume both epochs, not restart from zero —
    // otherwise a plan cached before the restart could collide with a
    // different schema at the same (reset) epoch.
    let store = SharedStore::open(&dir, WritePolicy::default()).expect("reopen");
    assert_eq!(
        store.epoch(),
        epoch_before,
        "data epoch resumes across restart"
    );
    assert_eq!(
        store.schema_epoch(),
        schema_before,
        "schema epoch resumes across restart"
    );
    let report = store
        .recovery()
        .expect("reopen goes through recovery")
        .clone();
    assert_eq!(report.epoch, epoch_before);

    let select = &parse_script("SELECT Region, SUM(Amount) FROM Sales GROUP BY Region;")
        .expect("select parses")[0];
    let rows_of = |outcome: StatementOutcome| -> usize {
        match outcome {
            StatementOutcome::Answer { relation, .. } => relation.len(),
            other => panic!("SELECT produced a non-answer outcome: {other:?}"),
        }
    };

    let mut a = store.session(SessionOptions::default());
    let mut b = store.session(SessionOptions::default());

    // Warm A's plan cache on the recovered store.
    assert_eq!(rows_of(a.execute(select).expect("first select")), 2);
    let before = a.plan_cache().hits();
    assert_eq!(rows_of(a.execute(select).expect("repeat select")), 2);
    assert!(
        a.plan_cache().hits() > before,
        "repeat SELECT hits A's plan cache"
    );

    // B changes the schema; A's cached plan is now stale and must not
    // be served against the new schema epoch.
    b.execute(&parse_script("CREATE TABLE Returns (Region, Amount);").unwrap()[0])
        .expect("DDL on handle B");
    assert_eq!(store.schema_epoch(), schema_before + 1);
    assert_eq!(
        rows_of(a.execute(select).expect("post-DDL select")),
        2,
        "handle A answers correctly after handle B's DDL"
    );
}

/// The recovery report is truthful about a torn tail: a store killed
/// mid-append reports the dropped bytes and replays only whole records.
#[test]
fn torn_tail_is_reported_and_dropped() {
    use aggview::durability::{DurabilityOptions, FaultPlan};
    let dir = scratch_dir("recovery-torn");
    let _guard = DirGuard(dir.clone());
    let script = parse_script(
        "CREATE TABLE T (A, B);\
         INSERT INTO T VALUES (1, 2);\
         INSERT INTO T VALUES (3, 4);",
    )
    .expect("script parses");

    {
        let store = SharedStore::open_with(
            &dir,
            WritePolicy::default(),
            aggview::obs::ObsOptions::default(),
            DurabilityOptions {
                checkpoint_every: 64,
                fault: Some(FaultPlan {
                    crash_at_append: 3,
                    phase: CrashPhase::TornAppend { keep_bytes: 5 },
                }),
            },
        )
        .expect("open");
        let mut session = store.session(SessionOptions::default());
        assert!(session.execute(&script[0]).is_ok());
        assert!(session.execute(&script[1]).is_ok());
        let e = session
            .execute(&script[2])
            .expect_err("third batch crashes");
        assert!(
            e.0.contains("crashed"),
            "crash error names the condition: {e}"
        );
    }

    let store = SharedStore::open(&dir, WritePolicy::default()).expect("recover");
    let report = store.recovery().expect("recovery ran").clone();
    assert_eq!(report.replayed_batches, 2, "both whole records replay");
    assert!(report.dropped_bytes > 0, "the torn tail is accounted for");
    assert!(!report.corrupt_crc, "a torn write is not CRC corruption");
    assert_eq!(store.epoch(), 2);
    let snap = store.load();
    assert_eq!(snap.state.db.get("T").expect("table recovered").len(), 1);
}
