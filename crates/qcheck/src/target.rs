//! Where a lattice point runs: the serving surface a [`Mode`] drives.
//!
//! A [`Target`] is whatever the oracle's walk replays the protocol on.
//! It runs a statement on one of its handles, reads back a view, reports
//! plan-cache hits, and — when durable — drops and reopens its store.
//! Three serving surfaces are `Session` handles and share one impl: a
//! local session, K round-robin handles of a [`SharedStore`], and the
//! scatter-gather driver session of a K-shard [`ShardedStore`] (whose
//! per-shard snapshots are its partitions). The fourth is K wire clients
//! of a loopback [`NetServer`].

use crate::oracle::{Discrepancy, LatticePoint};
use crate::Mode;
use aggview::durability::DurabilityOptions;
use aggview::net::{NetClient, NetConfig, NetServer, ServeBackend};
use aggview::server::{SharedStore, StoreSnapshot};
use aggview::session::{Session, SessionOptions, StatementOutcome};
use aggview::sharded::ShardedStore;
use aggview_engine::Value;
use aggview_obs::ObsOptions;
use aggview_sql::Statement;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Wire client connections per lattice point (enough for
/// cross-connection effects).
const CONNECTIONS: usize = 2;

/// A serving surface the protocol is replayed on.
pub(crate) trait Target {
    /// How many handles statements are round-robined across.
    fn handles(&self) -> usize;
    /// Execute one statement on handle `h`.
    fn run(&mut self, h: usize, stmt: &Statement) -> Result<StatementOutcome, Discrepancy>;
    /// A materialized view's rows as the target now serves them.
    fn view(&self, name: &str) -> Result<Vec<Vec<Value>>, String>;
    /// Plan-cache hits over every handle (`None`: not observable).
    fn cache_hits(&self) -> Option<u64>;
    /// Plan-cache template replays over every handle that found no
    /// rewriting matching the template's choice (0 when not observable).
    fn replay_rejects(&self) -> u64 {
        0
    }
    /// Every shard's current snapshot (empty when unsharded).
    fn partitions(&self) -> Vec<Arc<StoreSnapshot>> {
        Vec::new()
    }
    /// Drop and reopen a durable target's store; `false` if not durable.
    fn reopen(&mut self) -> Result<bool, Discrepancy> {
        Ok(false)
    }
}

impl Target for Session {
    fn handles(&self) -> usize {
        1
    }

    fn run(&mut self, _: usize, stmt: &Statement) -> Result<StatementOutcome, Discrepancy> {
        self.execute(stmt)
            .map_err(|e| Discrepancy::new("session-error", e.to_string()))
    }

    fn view(&self, name: &str) -> Result<Vec<Vec<Value>>, String> {
        let rel = self.database().get(name).map_err(|e| e.to_string())?;
        Ok(rel.rows.clone())
    }

    fn cache_hits(&self) -> Option<u64> {
        Some(self.plan_cache().hits())
    }

    fn replay_rejects(&self) -> u64 {
        self.plan_cache().replay_rejects()
    }

    fn partitions(&self) -> Vec<Arc<StoreSnapshot>> {
        self.sharded_store()
            .map_or_else(Vec::new, ShardedStore::load_all)
    }
}

/// Opens a store (over the data directory when durable, in memory
/// otherwise) and returns its handles.
type Open = Box<dyn Fn(Option<&Path>) -> std::io::Result<Vec<Session>>>;

/// The handles of a shared or sharded store, optionally durable.
struct StoreHandles {
    // Field order is load-bearing: the handles, and with the last of them
    // the store, drop before the guard removes the data directory.
    handles: Vec<Session>,
    durable: Option<(Open, DirGuard)>,
}

impl StoreHandles {
    fn open(
        durable: bool,
        open: impl Fn(Option<&Path>) -> std::io::Result<Vec<Session>> + 'static,
    ) -> Result<StoreHandles, Discrepancy> {
        let dir = durable.then(|| DirGuard::new("qcheck-reopen"));
        let handles = open(dir.as_ref().map(|d| d.0.as_path())).map_err(recovery_error)?;
        let durable = dir.map(|d| (Box::new(open) as Open, d));
        Ok(StoreHandles { handles, durable })
    }
}

fn recovery_error(e: std::io::Error) -> Discrepancy {
    Discrepancy::new("recovery-error", e.to_string())
}

impl Target for StoreHandles {
    fn handles(&self) -> usize {
        self.handles.len()
    }

    fn run(&mut self, h: usize, stmt: &Statement) -> Result<StatementOutcome, Discrepancy> {
        let many = self.handles.len() > 1;
        self.handles[h].run(0, stmt).map_err(|d| {
            if many {
                d.within(&format!("handle {h}"))
            } else {
                d
            }
        })
    }

    // Every statement pins the store's newest snapshot, so after the
    // walk's final answers handle 0 reads the published state.
    fn view(&self, name: &str) -> Result<Vec<Vec<Value>>, String> {
        self.handles[0].view(name)
    }

    fn cache_hits(&self) -> Option<u64> {
        Some(self.handles.iter().map(|s| s.plan_cache().hits()).sum())
    }

    fn replay_rejects(&self) -> u64 {
        self.handles.iter().map(Target::replay_rejects).sum()
    }

    fn partitions(&self) -> Vec<Arc<StoreSnapshot>> {
        self.handles[0].partitions()
    }

    fn reopen(&mut self) -> Result<bool, Discrepancy> {
        let Some((open, dir)) = &self.durable else {
            return Ok(false);
        };
        // Tear every handle down before reopening: one data directory
        // never has two writers.
        self.handles.clear();
        self.handles = open(Some(&dir.0)).map_err(recovery_error)?;
        Ok(true)
    }
}

/// K wire clients of a loopback server fronting one shared store, so
/// framing, the JSON codec, per-connection sessions, cross-connection
/// epoch sync and admission all sit between the workload and the store.
struct Wire {
    // Field order is load-bearing: the client sockets close before the
    // server drains on drop, so connection threads see EOF at once
    // instead of waiting out a read-poll tick.
    clients: Vec<NetClient>,
    _server: NetServer,
    store: SharedStore,
}

impl Wire {
    fn start(point: LatticePoint) -> Result<Wire, Discrepancy> {
        let net_error = |e: String| Discrepancy::new("net-error", e);
        let store = SharedStore::new(point.policy());
        let server = NetServer::start(
            ServeBackend::Shared(store.clone()),
            "127.0.0.1:0",
            NetConfig {
                options: point.options(),
                ..NetConfig::default()
            },
        )
        .map_err(|e| net_error(format!("cannot start server: {e}")))?;
        let clients = (0..CONNECTIONS)
            .map(|c| {
                NetClient::connect(server.addr())
                    .map_err(|e| net_error(format!("connection {c}: connect: {e}")))
            })
            .collect::<Result<_, _>>()?;
        Ok(Wire {
            clients,
            _server: server,
            store,
        })
    }
}

impl Target for Wire {
    fn handles(&self) -> usize {
        CONNECTIONS
    }

    fn run(&mut self, c: usize, stmt: &Statement) -> Result<StatementOutcome, Discrepancy> {
        match self.clients[c].request(&stmt.to_string()) {
            Ok(Ok(outcome)) => Ok(outcome),
            Ok(Err(e)) => Err(Discrepancy::new(
                "net-error",
                format!("connection {c}: {e}"),
            )),
            Err(e) => Err(Discrepancy::new(
                "net-error",
                format!("connection {c}: transport: {e}"),
            )),
        }
    }

    fn view(&self, name: &str) -> Result<Vec<Vec<Value>>, String> {
        let snap = self.store.load();
        let rel = snap.state.db.get(name).map_err(|e| e.to_string())?;
        Ok(rel.rows.clone())
    }

    /// The server-side sessions' plan caches are not visible over the wire.
    fn cache_hits(&self) -> Option<u64> {
        None
    }
}

/// A fresh target of `mode` at one lattice point.
pub(crate) fn open(mode: &Mode, point: LatticePoint) -> Result<Box<dyn Target>, Discrepancy> {
    let (options, policy) = (point.options(), point.policy());
    Ok(match *mode {
        Mode::Local => Box::new(Session::new(options)),
        Mode::Sessions { k, reopen } => Box::new(StoreHandles::open(reopen, move |dir| {
            let store = match dir {
                Some(dir) => {
                    SharedStore::open_with(dir, policy, obs_off(), DurabilityOptions::default())?
                }
                None => SharedStore::new(policy),
            };
            Ok((0..k).map(|_| store.session(options.clone())).collect())
        })?),
        Mode::Shards { k, reopen } => {
            // The scatter-gather path double-checks every merged answer
            // and its metadata against the union evaluation; `served`
            // fails the walk on a failed check.
            let options = SessionOptions {
                verify: true,
                ..options
            };
            Box::new(StoreHandles::open(reopen, move |dir| {
                let store = match dir {
                    Some(dir) => ShardedStore::open(dir, k, policy, obs_off())?,
                    None => ShardedStore::new(k, policy),
                };
                Ok(vec![store.session(options.clone())])
            })?)
        }
        Mode::Net => Box::new(Wire::start(point)?),
        Mode::Advisor | Mode::Crash { .. } => unreachable!("{mode:?} walks no lattice"),
    })
}

/// Where a discrepancy at `point` of `mode` happened.
pub(crate) fn label(mode: &Mode, point: LatticePoint) -> String {
    let reopen = |r: bool| if r { " + reopen" } else { "" };
    match *mode {
        Mode::Sessions { k, reopen: r } => format!("at [{point}] with {k} session(s){}", reopen(r)),
        Mode::Shards { k, reopen: r } => format!("at [{point}] with {k} shard(s){}", reopen(r)),
        Mode::Net => format!("at [{point}] over {CONNECTIONS} connection(s)"),
        _ => format!("at [{point}]"),
    }
}

/// A scratch data directory, removed on drop.
pub(crate) struct DirGuard(pub(crate) PathBuf);

impl DirGuard {
    pub(crate) fn new(tag: &str) -> DirGuard {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let name = format!("aggview-{tag}-{}-{n}", std::process::id());
        DirGuard(std::env::temp_dir().join(name))
    }
}

impl Drop for DirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Observability off: durable stores are opened and closed thousands of
/// times per sweep and should not pay for metrics nobody reads.
pub(crate) fn obs_off() -> ObsOptions {
    ObsOptions {
        enabled: false,
        ..ObsOptions::default()
    }
}
