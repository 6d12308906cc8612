//! [`BackendSpec`]: one shared recipe for building a serving backend.
//!
//! Every entry point that fronts a store — the `aggview` CLI (`serve`,
//! `--shards`) and the `benchmark/` crate — would otherwise hand-roll the
//! same `(shards, data-dir)` match: shared in-memory, shared durable,
//! sharded in-memory, sharded durable, and copies drift on validation
//! and error wording. This module owns
//! the decision once: describe the backend with a [`BackendSpec`], call
//! [`BackendSpec::build`], get a [`crate::net::ServeBackend`] plus the
//! recovery banner (when a durable directory was replayed).

use crate::durability::DurabilityOptions;
use crate::net::ServeBackend;
use crate::server::SharedStore;
use crate::session::SessionOptions;
use crate::sharded::ShardedStore;
use crate::state::WritePolicy;
use aggview_obs::ObsOptions;

/// A declarative description of the serving backend to build.
#[derive(Debug, Clone)]
pub struct BackendSpec {
    /// `Some(n)` hash-partitions base tables across `n` shard stores
    /// (scatter-gather serving); `None` keeps one shared store.
    pub shards: Option<usize>,
    /// `Some(dir)` backs the store(s) with WAL + checkpoints under
    /// `dir`, recovering existing state first.
    pub data_dir: Option<String>,
    /// The write-side maintenance policy all writer threads follow.
    pub policy: WritePolicy,
    /// Observability configuration for the store-wide registries.
    pub obs: ObsOptions,
    /// Durability tuning (checkpoint cadence, crash-fault injection) for
    /// durable builds; ignored without a `data_dir`.
    pub durability: DurabilityOptions,
}

/// The built backend plus what recovery found (a pre-formatted banner
/// line when a durable directory replayed state, `None` otherwise).
pub struct BuiltBackend {
    /// The store to serve from.
    pub backend: ServeBackend,
    /// e.g. `-- recovered dir: checkpoint epoch 3, 12 wal batch(es)
    /// replayed` — callers print it to stderr like the durable entry
    /// points always have.
    pub recovery: Option<String>,
}

impl BackendSpec {
    /// An in-memory, unsharded spec under `policy` and default obs.
    pub fn new(policy: WritePolicy) -> Self {
        BackendSpec {
            shards: None,
            data_dir: None,
            policy,
            obs: ObsOptions::default(),
            durability: DurabilityOptions::default(),
        }
    }

    /// The spec a set of session options implies: the write policy
    /// mirrors the session flags (store-side maintenance must match what
    /// the sessions expect to find), the obs configuration is shared.
    pub fn from_options(options: &SessionOptions) -> Self {
        BackendSpec {
            shards: None,
            data_dir: None,
            policy: WritePolicy {
                recompute_views: options.recompute_views,
                columnar: options.columnar,
                durability: false,
            },
            obs: options.obs.clone(),
            durability: DurabilityOptions::default(),
        }
    }

    /// Set the shard count (`None` or `Some(0)` = unsharded).
    pub fn shards(mut self, shards: Option<usize>) -> Self {
        self.shards = match shards {
            Some(0) => None,
            other => other,
        };
        self
    }

    /// Set the durable data directory.
    pub fn data_dir(mut self, dir: Option<String>) -> Self {
        self.data_dir = dir;
        self
    }

    /// Set the durability tuning.
    pub fn durability(mut self, durability: DurabilityOptions) -> Self {
        self.durability = durability;
        self
    }

    /// Build the backend this spec describes. The error strings are the
    /// ones every CLI entry point reports (after an `error: ` prefix).
    pub fn build(&self) -> Result<BuiltBackend, String> {
        match (self.shards, &self.data_dir) {
            (None, None) => Ok(BuiltBackend {
                backend: ServeBackend::Shared(SharedStore::with_obs(self.policy, self.obs.clone())),
                recovery: None,
            }),
            (None, Some(dir)) => {
                let store =
                    SharedStore::open_with(dir, self.policy, self.obs.clone(), self.durability)
                        .map_err(|e| format!("cannot open data dir `{dir}`: {e}"))?;
                let recovery = store.recovery().and_then(|r| {
                    (r.checkpoint_epoch > 0 || r.replayed_batches > 0 || r.dropped_bytes > 0).then(
                        || {
                            format!(
                                "-- recovered {dir}: checkpoint epoch {}, {} wal batch(es) \
                                 replayed{}",
                                r.checkpoint_epoch,
                                r.replayed_batches,
                                if r.dropped_bytes > 0 {
                                    format!(
                                        ", {} torn/corrupt byte(s) dropped (>= {} batch(es))",
                                        r.dropped_bytes, r.dropped_batches
                                    )
                                } else {
                                    String::new()
                                }
                            )
                        },
                    )
                });
                Ok(BuiltBackend {
                    backend: ServeBackend::Shared(store),
                    recovery,
                })
            }
            (Some(n), None) => Ok(BuiltBackend {
                backend: ServeBackend::Sharded(ShardedStore::with_obs(
                    n,
                    self.policy,
                    self.obs.clone(),
                )),
                recovery: None,
            }),
            (Some(n), Some(dir)) => {
                let store = ShardedStore::open(dir, n, self.policy, self.obs.clone())
                    .map_err(|e| format!("cannot open data dir `{dir}`: {e}"))?;
                Ok(BuiltBackend {
                    backend: ServeBackend::Sharded(store),
                    recovery: None,
                })
            }
        }
    }

    /// Build, requiring the unsharded [`SharedStore`] (script-mode
    /// `serve` drives the store API directly).
    pub fn build_shared(&self) -> Result<(SharedStore, Option<String>), String> {
        if self.shards.is_some() {
            return Err("this entry point serves a shared store; --shards needs --listen".into());
        }
        let built = self.build()?;
        match built.backend {
            ServeBackend::Shared(store) => Ok((store, built.recovery)),
            ServeBackend::Sharded(_) => unreachable!("unsharded spec built a sharded backend"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_shards_means_unsharded() {
        let spec = BackendSpec::new(WritePolicy::default()).shards(Some(0));
        assert_eq!(spec.shards, None);
        let built = spec.build().expect("builds");
        assert!(matches!(built.backend, ServeBackend::Shared(_)));
        assert!(built.recovery.is_none());
    }

    #[test]
    fn sharded_spec_builds_sharded_backend() {
        let spec = BackendSpec::new(WritePolicy::default()).shards(Some(2));
        let built = spec.build().expect("builds");
        assert!(matches!(built.backend, ServeBackend::Sharded(_)));
        assert!(spec.build_shared().is_err());
    }

    #[test]
    fn durable_spec_reports_bad_directory() {
        let spec = BackendSpec::new(WritePolicy::default())
            .data_dir(Some("/dev/null/not-a-dir".to_string()));
        let Err(e) = spec.build() else {
            panic!("cannot create under /dev/null")
        };
        assert!(
            e.starts_with("cannot open data dir `/dev/null/not-a-dir`:"),
            "{e}"
        );
    }

    #[test]
    fn from_options_mirrors_session_flags() {
        let options = SessionOptions {
            columnar: false,
            recompute_views: true,
            ..SessionOptions::default()
        };
        let spec = BackendSpec::from_options(&options);
        assert!(!spec.policy.columnar);
        assert!(spec.policy.recompute_views);
        assert!(!spec.policy.durability);
    }
}
