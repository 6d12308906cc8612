//! The generator is a pure function of the seed, the workloads do what
//! their names say, and `/BENCHMARK.json` repeats the catalogue.

use crate::gen::{self, Stream, ViewSet, Workload, COLD_VARIANTS, WRITE_PROBE};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::trial::ROWS;
use aggview::net::json::{self, Json};
use aggview::plan_cache::CacheKey;
use aggview::rewrite::{Canonical, RewriteOptions, Rewriter};
use aggview::sql::{parse_query, parse_statement, Statement};
use aggview::state::{EngineState, WritePolicy};
use std::collections::HashSet;

/// FNV-1a over the first `n` requests of a stream: the pinned identity
/// of "the stream for this seed".
fn stream_hash(workload: Workload, seed: u64, rows: u64, n: usize) -> u64 {
    let mut s = Stream::new(workload, seed, rows);
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for _ in 0..n {
        let (_, sql) = s.next_request();
        for b in sql.bytes().chain([b'\n']) {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// The schema and view pool of a workload, without the call rows.
fn empty_state(set: ViewSet) -> EngineState {
    let mut state = EngineState::new();
    for sql in gen::load_script(1, 0, set) {
        match parse_statement(&sql).expect("generated SQL parses") {
            Statement::CreateTable(ct) => drop(state.create_table(&ct).expect("table")),
            Statement::Insert(ins) => {
                drop(state.insert(&ins, WritePolicy::default()).expect("insert"))
            }
            Statement::CreateView(cv) => drop(
                state
                    .create_view(&cv, WritePolicy::default())
                    .expect("view"),
            ),
            other => panic!("unexpected statement in the load script: {other:?}"),
        }
    }
    state
}

fn rewritings(state: &EngineState, sql: &str) -> usize {
    let q = parse_query(sql).expect("query parses");
    Rewriter::with_options(&state.catalog, RewriteOptions::default())
        .rewrite(&q, &state.views)
        .expect("rewrite runs")
        .len()
}

#[test]
fn stream_is_a_pure_function_of_the_seed() {
    let pinned: [(Workload, u64); 5] = [
        (Workload::WarmRead, 0x330b7d5588154c95),
        (Workload::ColdSearch, 0x493185a5af3e0850),
        (Workload::ScanJoin, 0x16b51047671e4890),
        (Workload::MixedRw, 0x68f7dc5630ea1aaf),
        (Workload::ShardedRw, 0x68f7dc5630ea1aaf),
    ];
    for (workload, expected) in pinned {
        let h1 = stream_hash(workload, 1, ROWS, 2_000);
        assert_eq!(h1, stream_hash(workload, 1, ROWS, 2_000));
        assert_eq!(
            h1,
            expected,
            "{}: the stream for seed 1 changed (got {h1:#018x})",
            workload.name()
        );
        assert_ne!(
            h1,
            stream_hash(workload, 2, ROWS, 2_000),
            "{}: seed 2 must give another stream",
            workload.name()
        );
    }
    assert_eq!(gen::call_row(1, 7), gen::call_row(1, 7));
    assert_ne!(gen::call_row(1, 7), gen::call_row(2, 7));
}

#[test]
fn pools_have_the_advertised_sizes() {
    assert_eq!(gen::views(ViewSet::Read).len(), 32);
    assert_eq!(gen::views(ViewSet::Write).len(), 11);
    assert!(gen::views(ViewSet::Write)
        .iter()
        .all(|(_, sql)| !sql.contains("Calling_Plans")));
}

#[test]
fn cold_search_has_512_distinct_fingerprints() {
    let state = empty_state(ViewSet::Read);
    for seed in [1, 2] {
        let variants = Stream::new(Workload::ColdSearch, seed, ROWS).distinct_reads();
        assert_eq!(variants.len(), COLD_VARIANTS);
        let fingerprints: HashSet<u64> = variants
            .iter()
            .map(|sql| {
                let q = parse_query(sql).expect("variant parses");
                let canon = Canonical::from_query(&q, &state.db).expect("canonical fragment");
                CacheKey::new(&canon, q.output_names()).fingerprint()
            })
            .collect();
        assert_eq!(fingerprints.len(), COLD_VARIANTS, "seed {seed}");
    }
}

#[test]
fn workloads_do_what_their_names_say() {
    let read_pool = empty_state(ViewSet::Read);
    for seed in [1, 2] {
        for sql in Stream::new(Workload::ScanJoin, seed, ROWS).distinct_reads() {
            assert_eq!(
                rewritings(&read_pool, &sql),
                0,
                "scan_join must not be view-answered: {sql}"
            );
        }
        for sql in Stream::new(Workload::WarmRead, seed, ROWS).distinct_reads() {
            assert!(
                rewritings(&read_pool, &sql) > 0,
                "warm_read must be view-answered: {sql}"
            );
        }
        let cold = Stream::new(Workload::ColdSearch, seed, ROWS);
        assert!(rewritings(&read_pool, cold.probe()) > 0);
    }
    let write_pool = empty_state(ViewSet::Write);
    assert_eq!(rewritings(&write_pool, WRITE_PROBE), 0);
    for sql in Stream::new(Workload::MixedRw, 1, ROWS).distinct_reads() {
        if sql != WRITE_PROBE {
            assert!(
                rewritings(&write_pool, &sql) > 0,
                "view read must be view-answered: {sql}"
            );
        }
    }
    // mixed_rw and sharded_rw differ by the backend only.
    assert_eq!(
        stream_hash(Workload::MixedRw, 1, ROWS, 500),
        stream_hash(Workload::ShardedRw, 1, ROWS, 500)
    );
}

#[test]
fn benchmark_json_repeats_the_catalogue() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repo root");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    let strs = |v: &Json, key: &str| -> String {
        v.get(key)
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string()
    };
    let list = |key: &str| doc.get(key).and_then(Json::as_arr).expect(key).to_vec();

    let workloads = list("workloads");
    assert_eq!(workloads.len(), Workload::ALL.len());
    for (entry, w) in workloads.iter().zip(Workload::ALL) {
        assert_eq!(strs(entry, "name"), w.name());
        assert_eq!(strs(entry, "why"), w.why());
        assert!(w.why().len() <= 200);
    }
    let e2e = list("end_to_end");
    assert_eq!(e2e.len(), END_TO_END.len());
    for (entry, m) in e2e.iter().zip(END_TO_END.iter()) {
        assert_eq!(strs(entry, "name"), m.name);
        assert_eq!(strs(entry, "unit"), m.unit);
        assert_eq!(strs(entry, "better"), m.better.as_str());
        let bound = match entry.get("bound") {
            Some(Json::Float(x)) => *x,
            other => panic!("bound of {}: {other:?}", m.name),
        };
        assert!((bound - m.bound).abs() < 1e-12, "{}", m.name);
    }
    let layers = list("per_layer");
    assert_eq!(layers.len(), PER_LAYER.len());
    for (entry, m) in layers.iter().zip(PER_LAYER.iter()) {
        assert_eq!(strs(entry, "name"), m.name);
        assert_eq!(strs(entry, "unit"), m.unit);
        assert_eq!(strs(entry, "better"), m.better.as_str());
    }
    assert_eq!(
        doc.get("run_seconds").and_then(Json::as_int),
        Some(crate::RUN_SECONDS as i64)
    );
    let paths: Vec<String> = list("paths")
        .iter()
        .filter_map(|p| p.as_str().map(str::to_string))
        .collect();
    assert_eq!(paths, ["benchmark"]);
}
