//! The network front door: a std-only TCP serving layer.
//!
//! `aggview serve --listen <addr>` binds a [`NetServer`] over a
//! [`SharedStore`] or [`ShardedStore`]. Each accepted connection gets a
//! dedicated thread and its own [`Session`] handle, so the plan cache,
//! schema-epoch sync, and read-your-writes semantics of the in-process
//! serving layers apply unchanged over the wire. The protocol is
//! newline-delimited JSON ([`protocol`]), framed with a hard per-line
//! byte cap ([`frame`]); requests on one connection pipeline freely and
//! are answered strictly in order.
//!
//! Admission control and backpressure, in layers:
//!
//! * an **accept gate**: past `max_connections`, new connections get one
//!   error frame and are closed (counted as `net_rejects`);
//! * a **global in-flight limit**: at most `max_inflight` statements
//!   execute concurrently across all connections; a connection that
//!   cannot take a permit simply stops reading its socket, which
//!   backpressures the client through TCP flow control;
//! * the store's own **bounded write queue**: writes are acked only
//!   after the batch is published (and fsynced when durable), so a
//!   connection never outruns the writer thread;
//! * a **per-connection pipeline cap**: at most `max_pipeline` responses
//!   are buffered before the connection forces a flush to the socket.
//!
//! Graceful drain: [`NetServer::shutdown`] (wired to SIGTERM/SIGINT by
//! the CLI) stops accepting, lets every connection finish the requests
//! already received, flushes their responses, and joins all threads.
//! Durable state needs no extra step — acked writes are fsynced before
//! the response is ever encoded.

pub mod client;
pub mod frame;
pub mod json;
pub mod protocol;
mod server;

pub use client::NetClient;
pub use server::{DrainSummary, NetConfig, NetServer};

use crate::server::SharedStore;
use crate::session::{Session, SessionOptions};
use crate::sharded::ShardedStore;
use aggview_obs::{MetricsRegistry, ObsSnapshot};
use std::sync::Arc;

/// The store a [`NetServer`] fronts.
#[derive(Clone)]
pub enum ServeBackend {
    /// One shared store; every connection is a handle on it.
    Shared(SharedStore),
    /// A hash-partitioned store; every connection gets a scatter-gather
    /// driver session.
    Sharded(ShardedStore),
}

impl ServeBackend {
    /// A new session handle for one connection.
    pub fn session(&self, options: SessionOptions) -> Session {
        match self {
            ServeBackend::Shared(store) => store.session(options),
            ServeBackend::Sharded(store) => store.session(options),
        }
    }

    /// The store-wide metrics registry, if observability is on.
    pub fn metrics(&self) -> Option<Arc<MetricsRegistry>> {
        match self {
            ServeBackend::Shared(store) => store.metrics().cloned(),
            ServeBackend::Sharded(store) => store.metrics().cloned(),
        }
    }

    /// A store-wide observability snapshot (counters, stage histograms,
    /// tenant sections, store/shard sections).
    pub fn obs_snapshot(&self) -> Option<ObsSnapshot> {
        match self {
            ServeBackend::Shared(store) => store.obs_snapshot(),
            ServeBackend::Sharded(store) => {
                let mut snap = ObsSnapshot::from_registry(store.metrics()?);
                snap.shards = store.shard_sections();
                Some(snap)
            }
        }
    }
}
