//! Crash-recovery differential checking: `qcheck --crash`.
//!
//! The crash oracle runs a case's write `protocol` (the statement
//! stream every mode replays) against a durable [`SharedStore`] with a
//! scheduled [`FaultPlan`]: the store is killed at a chosen WAL append,
//! in one of the three phases a real `kill -9` can land in (before the
//! record, mid-record as a torn tail, after the fsync but before the
//! acknowledging publish). The directory is then reopened — recovery
//! loads the newest checkpoint and replays the WAL tail — and the oracle
//! demands:
//!
//! * **durability**: every *acknowledged* batch survived
//!   (`recovered epoch ≥ acked count`; the reverse is a data-loss bug);
//! * **bag equality**: after resuming the unacknowledged suffix of the
//!   stream, every base table, every materialized view, and the query
//!   answer are multiset-equal to an uninterrupted in-memory run.
//!
//! Because the driver blocks on each ack, batches have size 1 and the
//! crash point is exactly "after statement k" — deterministic per
//! (case, seed), so the standard shrinker applies unchanged: crash
//! parameters are re-derived from the seed *inside* the checker and
//! clamped to the (possibly shrunk) stream length.

use crate::case::Case;
use crate::oracle::{protocol, served, Discrepancy};
use crate::target::{obs_off, DirGuard};
use aggview::durability::{CrashPhase, DurabilityOptions, FaultPlan};
use aggview::server::SharedStore;
use aggview::session::{Session, SessionOptions};
use aggview::state::WritePolicy;
use aggview_engine::multiset_eq;
use aggview_sql::Statement;

/// The case's write protocol as a flat statement stream, without its
/// answer checkpoints. Every statement forms its own store batch (the
/// driver blocks on each ack), so "crash at append k" means "crash while
/// logging statement k".
pub fn write_statements(case: &Case) -> Vec<Statement> {
    protocol(case).statements
}

fn splitmix(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Crash-check one case with seed-derived parameters. The crash point,
/// phase, and checkpoint cadence are all mixed out of the seed and
/// clamped to the stream length *here*, so the shrinker can hand this
/// function smaller cases and the fault still fires somewhere valid.
pub(crate) fn check(case: &Case, seed: u64) -> Result<(), Discrepancy> {
    let n = write_statements(case).len() as u64;
    let r1 = splitmix(seed);
    let r2 = splitmix(r1);
    let r3 = splitmix(r2);
    let r4 = splitmix(r3);
    let crash_at = 1 + r1 % n.max(1);
    let phase = match r2 % 3 {
        0 => CrashPhase::BeforeAppend,
        1 => CrashPhase::TornAppend {
            keep_bytes: 1 + r4 % 64,
        },
        _ => CrashPhase::AfterSync,
    };
    let checkpoint_every = 1 + r3 % 4;
    crash(case, crash_at, phase, checkpoint_every)
}

/// Crash-check one case at an explicit crash point (the tier-1 recovery
/// tests sweep every one). A panic becomes a `"panic"` discrepancy.
pub fn check_case_crash_at(
    case: &Case,
    crash_at: u64,
    phase: CrashPhase,
    checkpoint_every: u64,
) -> Result<(), Discrepancy> {
    crate::guarded(|| crash(case, crash_at, phase, checkpoint_every))
}

fn crash(
    case: &Case,
    crash_at: u64,
    phase: CrashPhase,
    checkpoint_every: u64,
) -> Result<(), Discrepancy> {
    let stmts = write_statements(case);
    let select = Statement::Select(case.query.clone());
    let crash_at = crash_at.clamp(1, stmts.len() as u64);
    let fail = |kind: &str, detail: String| {
        Discrepancy::new(
            kind,
            format!("crash at append {crash_at} ({phase:?}), checkpoint_every {checkpoint_every}: {detail}"),
        )
    };

    // Uninterrupted in-memory reference run.
    let mut reference = Session::new(SessionOptions::default());
    for stmt in &stmts {
        reference
            .execute(stmt)
            .map_err(|e| fail("session-error", format!("reference run: {e}")))?;
    }
    let ref_answer = served(
        reference
            .execute(&select)
            .map_err(|e| fail("session-error", format!("reference run: {e}")))?,
    )?;
    let ref_db = reference.database().clone();

    let dir = DirGuard::new("qcheck-crash");
    let policy = WritePolicy::default();

    // Durable run that dies at the scheduled append.
    let store = SharedStore::open_with(
        &dir.0,
        policy,
        obs_off(),
        DurabilityOptions {
            checkpoint_every,
            fault: Some(FaultPlan {
                crash_at_append: crash_at,
                phase,
            }),
        },
    )
    .map_err(|e| fail("recovery-error", format!("initial open: {e}")))?;
    let mut session = store.session(SessionOptions::default());
    let mut acked = 0u64;
    let mut crashed = false;
    for stmt in &stmts {
        match session.execute(stmt) {
            Ok(_) => acked += 1,
            Err(e) => {
                if e.0.contains("crashed") {
                    crashed = true;
                    break;
                }
                return Err(fail("session-error", format!("crash run: {e}")));
            }
        }
    }
    drop(session);
    drop(store); // joins the writer thread, closes the WAL
    if !crashed {
        return Err(fail(
            "crash-not-triggered",
            format!("fault never fired over {} statement(s)", stmts.len()),
        ));
    }

    // Recover: newest checkpoint + WAL-tail replay, no fault this time.
    let store = SharedStore::open_with(
        &dir.0,
        policy,
        obs_off(),
        DurabilityOptions {
            checkpoint_every,
            fault: None,
        },
    )
    .map_err(|e| fail("recovery-error", e.to_string()))?;

    // Durability invariant: an acknowledged write may never be lost.
    // (The AfterSync phase makes the converse legal: a durable batch
    // whose ack never arrived.)
    let durable = store.epoch();
    if durable < acked {
        return Err(fail(
            "durability-violation",
            format!("store acked {acked} batch(es) but only {durable} survived recovery"),
        ));
    }
    if durable > stmts.len() as u64 {
        return Err(fail(
            "recovery-error",
            format!(
                "recovered epoch {durable} exceeds the {} statement(s) ever submitted",
                stmts.len()
            ),
        ));
    }

    // Resume the unacknowledged suffix, then demand bag equality with
    // the uninterrupted run: every base table, every view, the answer.
    let mut session = store.session(SessionOptions::default());
    for stmt in &stmts[durable as usize..] {
        session
            .execute(stmt)
            .map_err(|e| fail("session-error", format!("resume after recovery: {e}")))?;
    }
    let snap = store.load();
    let names = case
        .tables
        .iter()
        .map(|t| (&t.name, "table", "recovery-mismatch"));
    let views = case
        .views
        .iter()
        .map(|v| (&v.name, "view", "recovery-view-mismatch"));
    for (name, what, kind) in names.chain(views) {
        let want = ref_db
            .get(name)
            .map_err(|e| fail("session-error", e.to_string()))?;
        let got = snap
            .state
            .db
            .get(name)
            .map_err(|e| fail(kind, format!("{what} {name} lost: {e}")))?;
        if !multiset_eq(got, want) {
            return Err(fail(
                kind,
                format!(
                    "{what} {name}: recovered {} row(s), uninterrupted run has {}",
                    got.len(),
                    want.len()
                ),
            ));
        }
    }
    let got_answer = served(
        session
            .execute(&select)
            .map_err(|e| fail("session-error", format!("post-recovery query: {e}")))?,
    )?;
    if !multiset_eq(&got_answer.relation, &ref_answer.relation) {
        return Err(fail(
            "recovery-answer-mismatch",
            format!(
                "recovered store answers {} row(s), uninterrupted run {}",
                got_answer.relation.len(),
                ref_answer.relation.len()
            ),
        ));
    }
    Ok(())
}
