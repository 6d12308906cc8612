//! Durability plumbing between the shared store's writer thread and the
//! on-disk formats in `aggview-store`.
//!
//! The writer thread holds one [`DurabilityState`] per data directory:
//! every applied batch is appended to the WAL and fsynced **before**
//! the snapshot publish that acknowledges it, and every
//! `checkpoint_every`-th durable batch is compacted into a checkpoint
//! image (which truncates the WAL). Recovery ([`open_dir`]) loads the
//! newest valid checkpoint and replays the WAL tail through the exact
//! same [`EngineState`] statement paths the writer uses live — so
//! recovered views, group indexes, and columnar caches are rebuilt by
//! the maintenance code that is already differentially tested, not by a
//! parallel deserializer.
//!
//! [`FaultPlan`] is the crash-point injection hook for `qcheck --crash`:
//! it kills the WAL at a chosen append, either before the record is
//! written, mid-record (a torn tail), or after the fsync (durable but
//! unacknowledged) — the three places a real `kill -9` can land
//! relative to a batch.

use crate::session::{err, SessionError};
use crate::state::{EngineState, WritePolicy};
use aggview_sql::{parse_script, Statement};
use aggview_store::{encode_record, load_latest, write_checkpoint, StateImage, Wal, WalReadReport};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// File name of the write-ahead log inside a data directory.
pub const WAL_FILE: &str = "wal.log";

/// Where, relative to one WAL append, a simulated crash strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPhase {
    /// Crash before any byte of the record reaches the file: the batch
    /// was applied in memory but is wholly lost.
    BeforeAppend,
    /// Crash mid-`write(2)`: the first `keep_bytes` bytes of the record
    /// land on disk as a torn tail the recovery reader must discard.
    TornAppend {
        /// Bytes of the record that survive (clamped to `1..len-1`).
        keep_bytes: u64,
    },
    /// Crash after the fsync but before the publish: the record is
    /// durable, the submitter was never acknowledged. Recovery must
    /// surface the write (durable ≥ acked, never the reverse).
    AfterSync,
}

/// A scheduled fault: crash at the `crash_at_append`-th WAL append
/// (1-indexed) in the given phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    pub crash_at_append: u64,
    pub phase: CrashPhase,
}

/// Tuning knobs for a durable store.
#[derive(Debug, Clone, Copy)]
pub struct DurabilityOptions {
    /// Write a compacted checkpoint (and truncate the WAL) after this
    /// many durable batches.
    pub checkpoint_every: u64,
    /// Crash-point injection for the differential fuzzer; `None` in
    /// production use.
    pub fault: Option<FaultPlan>,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        DurabilityOptions {
            checkpoint_every: 64,
            fault: None,
        }
    }
}

/// What recovery found on disk.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Epoch of the checkpoint the state was rebuilt from (0 = none).
    pub checkpoint_epoch: u64,
    /// WAL batches replayed on top of the checkpoint.
    pub replayed_batches: u64,
    /// Bytes of torn/corrupt WAL tail that were discarded.
    pub dropped_bytes: u64,
    /// Lower bound on batches lost in the discarded tail.
    pub dropped_batches: usize,
    /// True when the tail failed its checksum (corruption, not a torn
    /// write).
    pub corrupt_crc: bool,
    /// Store epoch after replay.
    pub epoch: u64,
    /// Schema epoch after replay.
    pub schema_epoch: u64,
}

/// Result of logging one batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogOutcome {
    /// Record appended and fsynced; `0` bytes means the record was
    /// swallowed by the unsound drop-injection env flag.
    Logged(u64),
    /// The scheduled fault fired: the store is dead and must be
    /// reopened via recovery.
    Crashed,
}

/// The writer thread's handle on the data directory: the open WAL plus
/// checkpoint pacing and the optional fault plan.
pub struct DurabilityState {
    dir: PathBuf,
    wal: Wal,
    checkpoint_every: u64,
    batches_since_checkpoint: u64,
    /// `log_batch` calls so far (the fault plan indexes these).
    calls: u64,
    fault: Option<FaultPlan>,
    crashed: bool,
}

impl DurabilityState {
    /// True once a fault fired (or an I/O error was marked): the store
    /// rejects all further writes until reopened.
    pub fn crashed(&self) -> bool {
        self.crashed
    }

    /// Mark the store dead after an unrecoverable I/O error.
    pub fn mark_crashed(&mut self) {
        self.crashed = true;
    }

    /// Append the batch's SQL under `epoch` and fsync. Fires the fault
    /// plan when its append index comes up.
    pub fn log_batch(&mut self, epoch: u64, sql: &str) -> io::Result<LogOutcome> {
        self.calls += 1;
        if let Some(fault) = self.fault {
            if self.calls == fault.crash_at_append {
                self.crashed = true;
                match fault.phase {
                    CrashPhase::BeforeAppend => {
                        self.wal.simulate_crash(&[])?;
                    }
                    CrashPhase::TornAppend { keep_bytes } => {
                        let rec = encode_record(epoch, sql.as_bytes());
                        let keep = (keep_bytes as usize).clamp(1, rec.len() - 1);
                        self.wal.simulate_crash(&rec[..keep])?;
                    }
                    CrashPhase::AfterSync => {
                        self.wal.append(epoch, sql.as_bytes())?;
                        self.wal.sync()?;
                        self.wal.simulate_crash(&[])?;
                    }
                }
                return Ok(LogOutcome::Crashed);
            }
        }
        let bytes = self.wal.append(epoch, sql.as_bytes())?;
        self.wal.sync()?;
        Ok(LogOutcome::Logged(bytes))
    }

    /// After a durable batch: write a compacted checkpoint every
    /// `checkpoint_every` batches and truncate the WAL. Returns whether
    /// a checkpoint was written.
    pub fn maybe_checkpoint(
        &mut self,
        state: &EngineState,
        epoch: u64,
        schema_epoch: u64,
    ) -> io::Result<bool> {
        if self.crashed {
            return Ok(false);
        }
        self.batches_since_checkpoint += 1;
        if self.batches_since_checkpoint < self.checkpoint_every {
            return Ok(false);
        }
        let img = image_from_state(state, epoch, schema_epoch);
        write_checkpoint(&self.dir, &img)?;
        self.wal.reset()?;
        self.batches_since_checkpoint = 0;
        Ok(true)
    }
}

/// Snapshot the live state into a checkpoint image. Derived state
/// (group indexes, columnar caches) is excluded by design — recovery
/// rebuilds it.
pub fn image_from_state(state: &EngineState, epoch: u64, schema_epoch: u64) -> StateImage {
    let mut relations: Vec<_> = state
        .db
        .iter()
        .map(|(name, rel)| (name.clone(), rel.clone()))
        .collect();
    relations.sort_by(|a, b| a.0.cmp(&b.0));
    StateImage {
        epoch,
        schema_epoch,
        catalog: state.catalog.clone(),
        relations,
        views: state.views.clone(),
    }
}

/// Rebuild an [`EngineState`] from a checkpoint image, re-deriving each
/// view's delta rule and the group indexes the policy asks for.
pub fn state_from_image(img: &StateImage, policy: WritePolicy) -> EngineState {
    let mut state = EngineState::new();
    state.catalog = img.catalog.clone();
    for (name, rel) in &img.relations {
        state.db.insert(name.clone(), rel.clone());
    }
    state.views = img.views.clone();
    for view in &img.views {
        state.attach_view(view, policy);
    }
    state
}

/// Replay one logged statement through the live write paths. WAL
/// records only ever hold statements that applied successfully, so a
/// replay failure means the log does not match the code (or the data
/// directory was tampered with) — surfaced as an error, never ignored.
fn replay_statement(
    state: &mut EngineState,
    stmt: &Statement,
    policy: WritePolicy,
) -> Result<bool, SessionError> {
    let applied = match stmt {
        Statement::CreateTable(ct) => state.create_table(ct)?,
        Statement::CreateView(cv) => state.create_view(cv, policy)?,
        Statement::Insert(ins) => state.insert(ins, policy)?,
        Statement::Delete(del) => state.delete(del, policy)?,
        other => return Err(err(format!("non-write statement in WAL: {other}"))),
    };
    Ok(applied.schema_change)
}

/// Everything [`open_dir`] hands the store constructor.
pub struct Recovered {
    pub state: EngineState,
    pub epoch: u64,
    pub schema_epoch: u64,
    pub report: RecoveryReport,
    pub durability: DurabilityState,
}

fn replay_error(context: &str, e: impl std::fmt::Display) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("wal replay: {context}: {e}"),
    )
}

/// Open (or create) a data directory: load the newest valid checkpoint,
/// replay the WAL tail through the live maintenance paths (tolerating a
/// torn or corrupt final record), and return the rebuilt state plus the
/// open WAL positioned for new appends.
pub fn open_dir(dir: &Path, policy: WritePolicy, opts: DurabilityOptions) -> io::Result<Recovered> {
    fs::create_dir_all(dir)?;
    let checkpoint = load_latest(dir)?;
    let (mut state, checkpoint_epoch, mut schema_epoch) = match &checkpoint {
        Some(img) => (state_from_image(img, policy), img.epoch, img.schema_epoch),
        None => (EngineState::new(), 0, 0),
    };
    let mut epoch = checkpoint_epoch;

    let (wal, records, wal_report): (Wal, _, WalReadReport) = Wal::open(&dir.join(WAL_FILE))?;
    let mut replayed = 0u64;
    for rec in &records {
        if rec.epoch <= checkpoint_epoch {
            // Already folded into the checkpoint: a crash between the
            // checkpoint rename and the WAL truncation leaves these.
            continue;
        }
        let sql = std::str::from_utf8(&rec.payload)
            .map_err(|e| replay_error("payload is not UTF-8", e))?;
        let stmts = parse_script(sql).map_err(|e| replay_error("payload failed to parse", e))?;
        for stmt in &stmts {
            let schema_change = replay_statement(&mut state, stmt, policy)
                .map_err(|e| replay_error("statement failed to re-apply", e.0))?;
            if schema_change {
                schema_epoch += 1;
            }
        }
        epoch = rec.epoch;
        replayed += 1;
    }

    let report = RecoveryReport {
        checkpoint_epoch,
        replayed_batches: replayed,
        dropped_bytes: wal_report.dropped_bytes,
        dropped_batches: wal_report.dropped_batches,
        corrupt_crc: wal_report.corrupt_crc,
        epoch,
        schema_epoch,
    };
    let durability = DurabilityState {
        dir: dir.to_path_buf(),
        wal,
        checkpoint_every: opts.checkpoint_every.max(1),
        batches_since_checkpoint: 0,
        calls: 0,
        fault: opts.fault,
        crashed: false,
    };
    Ok(Recovered {
        state,
        epoch,
        schema_epoch,
        report,
        durability,
    })
}
