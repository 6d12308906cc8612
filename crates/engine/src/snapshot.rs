//! Atomically-swappable immutable snapshots — the engine-level primitive
//! under the shared concurrent store.
//!
//! A [`SnapshotCell`] holds an `Arc` to an immutable value (the serving
//! layer stores a whole database + catalog + view set in one). Readers
//! *pin* the current snapshot with [`SnapshotCell::load`] — a single
//! `Arc` clone under a read lock held for nanoseconds — and then run
//! arbitrarily long rewrites and plans against the pinned value with no
//! lock held at all: a concurrent publish swaps the cell to a new `Arc`
//! without disturbing pinned readers. Writers build the next value
//! off-line and [`SnapshotCell::publish`] it; versions are assigned by
//! the cell and strictly increase, so readers can assert monotonicity.
//!
//! [`StoreStats`] is the matching set of lock-free counters the serving
//! layer exposes through `:stats` / `EXPLAIN`: publish count, schema
//! epoch, and write-batch shape (batches, batched ops, largest batch).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// An atomically-swappable `Arc<T>` with a monotonic version counter.
///
/// The lock guards only the pointer swap/clone; no user code ever runs
/// under it. `load` never blocks on a writer building a snapshot (that
/// happens before `publish` is called), only on the pointer store itself.
#[derive(Debug)]
pub struct SnapshotCell<T> {
    current: RwLock<Arc<T>>,
    version: AtomicU64,
}

impl<T> SnapshotCell<T> {
    /// A cell initially holding `value` at version 0.
    pub fn new(value: T) -> Self {
        SnapshotCell {
            current: RwLock::new(Arc::new(value)),
            version: AtomicU64::new(0),
        }
    }

    /// Pin the current snapshot: one `Arc` clone, after which the caller
    /// holds the snapshot lock-free for as long as it likes.
    pub fn load(&self) -> Arc<T> {
        self.current.read().expect("snapshot cell poisoned").clone()
    }

    /// Publish a new snapshot, returning its version (strictly greater
    /// than every previously returned version).
    pub fn publish(&self, value: Arc<T>) -> u64 {
        let mut slot = self.current.write().expect("snapshot cell poisoned");
        *slot = value;
        // Bumped under the write lock, so versions order exactly like
        // publishes and a reader never sees version N with snapshot N-1.
        self.version.fetch_add(1, Ordering::Release) + 1
    }

    /// The version of the most recently published snapshot (0 = the
    /// initial value, never published over).
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }
}

/// Cumulative counters of one shared store, updated by its writer thread
/// and read lock-free by any session handle.
#[derive(Debug, Default)]
pub struct StoreStats {
    /// Snapshots published (write batches that changed the store).
    pub publishes: AtomicU64,
    /// Schema epoch: bumped by every `CREATE TABLE` / `CREATE VIEW`
    /// applied, mirrored into each handle's plan-cache invalidation.
    pub schema_epoch: AtomicU64,
    /// Write batches applied (each batch drains the whole submit queue).
    pub batches: AtomicU64,
    /// Total write statements applied across all batches.
    pub batched_ops: AtomicU64,
    /// Largest single batch observed.
    pub max_batch: AtomicU64,
    /// Total nanoseconds write requests spent queued before the writer
    /// thread picked them up (submit → drain), summed over all requests.
    pub queue_wait_ns: AtomicU64,
    /// Total nanoseconds the writer thread spent applying batches and
    /// publishing snapshots (the store's real write-path cost; a client's
    /// wall-clock write latency is `queue wait + this`).
    pub apply_publish_ns: AtomicU64,
}

impl StoreStats {
    /// Record one applied batch of `ops` write statements.
    pub fn note_batch(&self, ops: u64) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_ops.fetch_add(ops, Ordering::Relaxed);
        self.max_batch.fetch_max(ops, Ordering::Relaxed);
    }

    /// Record one request's time on the submit queue.
    pub fn note_queue_wait(&self, ns: u64) {
        self.queue_wait_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Record writer-thread time spent applying + publishing one batch.
    pub fn note_apply_publish(&self, ns: u64) {
        self.apply_publish_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Mean queue wait per batched op, in microseconds.
    pub fn mean_queue_wait_us(&self) -> f64 {
        let ops = self.batched_ops.load(Ordering::Relaxed);
        if ops == 0 {
            0.0
        } else {
            self.queue_wait_ns.load(Ordering::Relaxed) as f64 / ops as f64 / 1_000.0
        }
    }

    /// Mean apply+publish cost per batched op, in microseconds.
    pub fn mean_apply_publish_us(&self) -> f64 {
        let ops = self.batched_ops.load(Ordering::Relaxed);
        if ops == 0 {
            0.0
        } else {
            self.apply_publish_ns.load(Ordering::Relaxed) as f64 / ops as f64 / 1_000.0
        }
    }

    /// Mean ops per batch (0.0 before the first batch).
    pub fn mean_batch(&self) -> f64 {
        let batches = self.batches.load(Ordering::Relaxed);
        if batches == 0 {
            0.0
        } else {
            self.batched_ops.load(Ordering::Relaxed) as f64 / batches as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn load_pins_across_publish() {
        let cell = SnapshotCell::new(1u32);
        let pinned = cell.load();
        assert_eq!(cell.publish(Arc::new(2)), 1);
        assert_eq!(*pinned, 1, "pinned snapshot survives the swap");
        assert_eq!(*cell.load(), 2);
        assert_eq!(cell.version(), 1);
    }

    #[test]
    fn versions_strictly_increase_under_contention() {
        let cell = Arc::new(SnapshotCell::new(0u64));
        let stop = Arc::new(AtomicBool::new(false));
        let publisher = {
            let cell = Arc::clone(&cell);
            std::thread::spawn(move || {
                for i in 1..=500u64 {
                    cell.publish(Arc::new(i));
                }
            })
        };
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let cell = Arc::clone(&cell);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut last = 0;
                    while !stop.load(Ordering::Relaxed) {
                        let v = cell.version();
                        assert!(v >= last, "version went backwards: {last} -> {v}");
                        last = v;
                        let snap = cell.load();
                        assert!(*snap <= cell.version());
                    }
                })
            })
            .collect();
        publisher.join().expect("publisher");
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().expect("reader");
        }
        assert_eq!(cell.version(), 500);
    }

    #[test]
    fn stats_batches() {
        let stats = StoreStats::default();
        stats.note_batch(1);
        stats.note_batch(3);
        assert_eq!(stats.batches.load(Ordering::Relaxed), 2);
        assert_eq!(stats.batched_ops.load(Ordering::Relaxed), 4);
        assert_eq!(stats.max_batch.load(Ordering::Relaxed), 3);
        assert!((stats.mean_batch() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn stats_split_queue_wait_from_apply_publish() {
        let stats = StoreStats::default();
        stats.note_batch(2);
        stats.note_queue_wait(1_000);
        stats.note_queue_wait(3_000);
        stats.note_apply_publish(10_000);
        assert!((stats.mean_queue_wait_us() - 2.0).abs() < 1e-9);
        assert!((stats.mean_apply_publish_us() - 5.0).abs() < 1e-9);
    }
}
