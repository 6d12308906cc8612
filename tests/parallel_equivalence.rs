//! Search-option equivalence: the signature prefilter must never reject
//! a view the unfiltered search would have used, so `rewrite` produces the
//! **identical rewriting sequence** — same queries, same auxiliary views,
//! same order — with the prefilter on or off. The search's stats counters
//! must agree with the search actually running.

use aggview::gen::{embedded_view, experiment_catalog, random_query, GenConfig};
use aggview::rewrite::{RewriteOptions, Rewriter, Rewriting, Strategy, ViewDef};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Everything observable about a rewriting, as a comparable value: the
/// query text, the (name, query) pairs of its auxiliary views, the views
/// used, and the `used_paper_va` / `set_semantics` / `requires_nat` flags.
type Fingerprint = (String, Vec<(String, String)>, Vec<String>, bool, bool, bool);

fn fingerprint(r: &Rewriting) -> Fingerprint {
    (
        r.query.to_string(),
        r.aux_views
            .iter()
            .map(|v| (v.name.clone(), v.query.to_string()))
            .collect(),
        r.views_used.clone(),
        r.used_paper_va,
        r.set_semantics,
        r.requires_nat,
    )
}

/// Generate a query plus a mixed view pool (embedded + random) from `seed`.
fn workload(seed: u64) -> (aggview::sql::ast::Query, Vec<ViewDef>) {
    let catalog = experiment_catalog();
    let cfg = GenConfig::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let query = random_query(&mut rng, &catalog, &cfg);
    let mut views: Vec<ViewDef> = Vec::new();
    for (i, aggregated) in [(0usize, false), (1usize, true)] {
        if let Some(v) = embedded_view(&mut rng, &query, &catalog, &format!("EV{i}"), aggregated) {
            views.push(v);
        }
    }
    for i in 0..2 {
        let body = random_query(&mut rng, &catalog, &cfg);
        views.push(ViewDef::new(format!("RV{i}"), body));
    }
    (query, views)
}

fn rewrite_with(
    prefilter: bool,
    query: &aggview::sql::ast::Query,
    views: &[ViewDef],
) -> Vec<Rewriting> {
    let catalog = experiment_catalog();
    let rewriter = Rewriter::with_options(
        &catalog,
        RewriteOptions {
            strategy: Strategy::Weighted,
            prefilter,
            enable_expand: true,
            ..RewriteOptions::default()
        },
    );
    rewriter.rewrite(query, views).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The signature prefilter never changes the produced rewritings.
    #[test]
    fn prefilter_is_lossless(seed in any::<u64>()) {
        let (query, views) = workload(seed);
        let with = rewrite_with(true, &query, &views);
        let without = rewrite_with(false, &query, &views);
        prop_assert_eq!(with.len(), without.len());
        for (a, b) in with.iter().zip(&without) {
            prop_assert_eq!(fingerprint(a), fingerprint(b));
        }
    }
}

/// Deterministic spot check: the stats counters are consistent with the
/// search actually running, and prefiltering actually rejects candidates
/// on a pool with decoy views.
#[test]
fn stats_counters_are_consistent() {
    let catalog = experiment_catalog();
    let cfg = GenConfig::default();
    let mut rng = StdRng::seed_from_u64(7);
    let query = random_query(&mut rng, &catalog, &cfg);
    let mut views = Vec::new();
    if let Some(v) = embedded_view(&mut rng, &query, &catalog, "EV", false) {
        views.push(v);
    }
    let rewriter = Rewriter::new(&catalog);
    let (rws, stats) = rewriter.rewrite_with_stats(&query, &views).unwrap();
    assert_eq!(stats.rewritings, rws.len());
    assert!(stats.states_expanded >= 1);
    assert!(
        stats.closure_cache_hits + stats.closure_cache_misses > 0,
        "closure lookups must be counted"
    );
    // Summary renders without panicking and mentions the key counters.
    let s = stats.summary();
    assert!(s.contains("states=") && s.contains("prefiltered"), "{s}");
}
