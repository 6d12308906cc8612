//! The adaptive view advisor: closing the obs → planning loop.
//!
//! The paper's Section 7 sketches view *selection* as future work; the
//! static [`aggview_core::advisor`] synthesizes candidate summary views
//! for one query. This module makes that loop *adaptive*: the
//! observability layer's workload profile (per-fingerprint frequency and
//! latency, [`aggview_obs::MetricsRegistry::workload`]) feeds
//! [`aggview_core::suggest_for_workload`], which scores candidates by
//! *measured* benefit — estimated scan cost saved × observed frequency —
//! instead of static heuristics.
//!
//! Three policy modes ([`AdvisorMode`]):
//!
//! * **off** — no advisor state at all (the default; zero overhead).
//! * **suggest** — proposals are computed on demand (`:advise`, `aggview
//!   advise`, the net `advise` request) but never acted on.
//! * **auto** — when a hot fingerprint (seen ≥ `auto_after` times) is
//!   still answered from base tables, the best positive-benefit
//!   suggestion within the backfill budget is materialized as
//!   `AdvView{N}` through the session's ordinary write path
//!   ([`crate::server::WriteOp::CreateView`] → the writer thread), so
//!   snapshots, WAL durability, sharding, and plan-cache epoch
//!   invalidation apply unchanged. Budget caps ([`AdvisorPolicy`])
//!   bound both the number of auto-created views and the backfill size.
//!
//! Every view the advisor creates is named `AdvView{N}` — the prefix is
//! the identification contract
//! ([`crate::state::is_advisor_view_name`]), surfaced in `EXPLAIN
//! ANALYZE` and targeted by the `AGGVIEW_UNSOUND_ADVISOR_STALE` fault
//! injection the qcheck advisor axis must catch.

use aggview_catalog::Catalog;
use aggview_core::{suggest_for_workload, TableStats, WorkloadQuery, WorkloadSuggestion};
use aggview_obs::MetricsRegistry;
use aggview_sql::parse_query;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Mutex;

/// What the advisor is allowed to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdvisorMode {
    /// No advisor state, no proposals, no overhead.
    #[default]
    Off,
    /// Compute ranked proposals on demand; never create views.
    Suggest,
    /// Additionally materialize the best in-budget proposal for hot
    /// fingerprints still answered from base tables.
    Auto,
}

impl AdvisorMode {
    /// Parse a CLI mode string (`off` / `suggest` / `auto`).
    pub fn parse(s: &str) -> Result<AdvisorMode, String> {
        match s {
            "off" => Ok(AdvisorMode::Off),
            "suggest" => Ok(AdvisorMode::Suggest),
            "auto" => Ok(AdvisorMode::Auto),
            other => Err(format!(
                "unknown advisor mode `{other}` (expected off, suggest, or auto)"
            )),
        }
    }
}

impl fmt::Display for AdvisorMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AdvisorMode::Off => "off",
            AdvisorMode::Suggest => "suggest",
            AdvisorMode::Auto => "auto",
        })
    }
}

/// The advisor policy carried by `SessionOptions`: the mode plus the
/// budgets bounding what `auto` may spend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdvisorPolicy {
    /// What the advisor may do.
    pub mode: AdvisorMode,
    /// `auto` only acts on a fingerprint observed at least this many
    /// times (a cold query is not worth a materialized view).
    pub auto_after: u64,
    /// Budget cap: at most this many advisor-created views per session /
    /// store lifetime.
    pub max_views: usize,
    /// Budget cap: skip proposals whose estimated materialized size
    /// exceeds this many rows (the backfill is paid on the writer
    /// thread).
    pub max_backfill_rows: usize,
}

impl Default for AdvisorPolicy {
    fn default() -> Self {
        AdvisorPolicy {
            mode: AdvisorMode::Off,
            auto_after: 3,
            max_views: 4,
            max_backfill_rows: 1_000_000,
        }
    }
}

impl AdvisorPolicy {
    /// The default (off) policy.
    pub fn off() -> Self {
        AdvisorPolicy::default()
    }

    /// Suggest-only under the default budgets.
    pub fn suggest() -> Self {
        AdvisorPolicy {
            mode: AdvisorMode::Suggest,
            ..AdvisorPolicy::default()
        }
    }

    /// Auto mode under the default budgets.
    pub fn auto() -> Self {
        AdvisorPolicy {
            mode: AdvisorMode::Auto,
            ..AdvisorPolicy::default()
        }
    }

    /// A policy from a CLI mode string, default budgets.
    pub fn from_mode_str(s: &str) -> Result<Self, String> {
        Ok(AdvisorPolicy {
            mode: AdvisorMode::parse(s)?,
            ..AdvisorPolicy::default()
        })
    }
}

/// Mutable advisor bookkeeping: which fingerprints were already acted
/// on, and which views were created.
#[derive(Debug, Default)]
pub struct AdvisorState {
    policy: AdvisorPolicy,
    /// Names of auto-created views, in creation order.
    created: Mutex<Vec<String>>,
    /// Fingerprints already advised (created a view, or tried and
    /// failed) — never act twice on one query shape.
    advised: Mutex<BTreeSet<u64>>,
}

impl AdvisorState {
    /// Fresh state under `policy`.
    pub fn new(policy: AdvisorPolicy) -> Self {
        AdvisorState {
            policy,
            created: Mutex::new(Vec::new()),
            advised: Mutex::new(BTreeSet::new()),
        }
    }

    /// The policy this state enforces.
    pub fn policy(&self) -> &AdvisorPolicy {
        &self.policy
    }

    /// Names of the views created so far, in creation order.
    pub fn created(&self) -> Vec<String> {
        self.created.lock().unwrap().clone()
    }

    /// How many views were created so far (checked against
    /// [`AdvisorPolicy::max_views`]).
    pub fn created_count(&self) -> usize {
        self.created.lock().unwrap().len()
    }

    /// The name the next auto-created view will get.
    pub fn next_name(&self) -> String {
        format!("AdvView{}", self.created.lock().unwrap().len() + 1)
    }

    /// Claim `fingerprint` for advising. Returns `false` if it was
    /// already claimed — each query shape is acted on at most once.
    pub fn claim(&self, fingerprint: u64) -> bool {
        self.advised.lock().unwrap().insert(fingerprint)
    }

    /// Record a successfully created view.
    pub fn note_created(&self, name: String) {
        self.created.lock().unwrap().push(name);
    }
}

/// Ranked view proposals for the registry's observed workload: parse
/// every profiled fingerprint's sample SQL and hand the (query,
/// frequency) pairs to the core's benefit-weighted ranking. Fully
/// deterministic for a given workload profile — frequencies and
/// cardinality estimates only, no wall-clock.
pub fn workload_proposals(
    metrics: &MetricsRegistry,
    catalog: &Catalog,
    stats: &TableStats,
) -> Vec<WorkloadSuggestion> {
    let workload: Vec<WorkloadQuery> = metrics
        .workload()
        .into_iter()
        .filter_map(|e| {
            let query = parse_query(&e.sql).ok()?;
            Some(WorkloadQuery {
                query,
                frequency: e.count,
                sql: e.sql,
            })
        })
        .collect();
    suggest_for_workload(&workload, catalog, stats)
}

/// Render proposals as the stable, human-readable lines every surface
/// (REPL `:advise`, `aggview advise`, the net `advise` request) prints.
pub fn proposal_lines(proposals: &[WorkloadSuggestion]) -> Vec<String> {
    if proposals.is_empty() {
        return vec!["advisor: no proposals (workload empty or no beneficial views)".to_string()];
    }
    proposals
        .iter()
        .enumerate()
        .map(|(i, s)| {
            format!(
                "proposal {}: CREATE VIEW {} AS {}; -- weighted benefit {:.0}, freq {}, \
                 {} query shape(s), est. {} backfill row(s)",
                i + 1,
                s.view.name,
                s.view.query,
                s.weighted_benefit,
                s.frequency,
                s.queries,
                s.estimated_rows
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_parses_and_displays() {
        assert_eq!(AdvisorMode::parse("off").unwrap(), AdvisorMode::Off);
        assert_eq!(AdvisorMode::parse("suggest").unwrap(), AdvisorMode::Suggest);
        assert_eq!(AdvisorMode::parse("auto").unwrap(), AdvisorMode::Auto);
        assert!(AdvisorMode::parse("always").is_err());
        assert_eq!(AdvisorMode::Auto.to_string(), "auto");
    }

    #[test]
    fn claims_are_once_per_fingerprint() {
        let state = AdvisorState::new(AdvisorPolicy::auto());
        assert!(state.claim(42));
        assert!(!state.claim(42));
        assert!(state.claim(43));
    }

    #[test]
    fn names_are_sequential() {
        let state = AdvisorState::new(AdvisorPolicy::auto());
        assert_eq!(state.next_name(), "AdvView1");
        state.note_created("AdvView1".to_string());
        assert_eq!(state.next_name(), "AdvView2");
        assert_eq!(state.created_count(), 1);
        assert_eq!(state.created(), vec!["AdvView1".to_string()]);
    }
}
