//! The experiment functions — one per table/figure of `EXPERIMENTS.md`.
//!
//! Each returns a [`Table`] so the `repro` binary can print it; the
//! Criterion benches in `benches/` re-measure the timing figures with
//! proper statistics (the timings here are single-shot wall-clock, good
//! enough to see the orders of magnitude the paper talks about).

use crate::baseline::syntactic_usable;
use crate::report::Table;
use crate::workloads::{
    chain_catalog, chain_query, chain_view, t5_workload, telephony_query, telephony_v1,
    telephony_view_pool,
};
use aggview::engine::datagen::{random_database, telephony, telephony_catalog, TelephonyConfig};
use aggview::engine::{execute, multiset_eq, Database, ExecContext, Relation, Value};
use aggview::gen::{embedded_view, experiment_catalog, random_query, GenConfig};
use aggview::run::{execute_rewriting, materialize_views, rewriting_equivalent};
use aggview_catalog::{Catalog, TableSchema};
use aggview_core::{Canonical, RewriteOptions, Rewriter, Strategy, ViewDef};
use aggview_sql::{parse_query, Query};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::time::Instant;

/// One T1 case: a worked example from the paper.
struct T1Case {
    id: &'static str,
    description: &'static str,
    catalog: Catalog,
    db: Database,
    query: &'static str,
    views: Vec<ViewDef>,
    strategy: Strategy,
    expect_usable: bool,
}

fn r1r2_catalog() -> Catalog {
    let mut cat = Catalog::new();
    cat.add_table(TableSchema::new("R1", ["A", "B", "C", "D"]))
        .expect("fresh");
    cat.add_table(TableSchema::new("R2", ["E", "F"]))
        .expect("fresh");
    cat
}

fn r1r2_db(seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new();
    let mut r1 = Relation::empty(["A", "B", "C", "D"]);
    let mut r2 = Relation::empty(["E", "F"]);
    for _ in 0..60 {
        r1.push((0..4).map(|_| Value::Int(rng.random_range(0..5))).collect());
        r2.push((0..2).map(|_| Value::Int(rng.random_range(0..5))).collect());
    }
    db.insert("R1", r1);
    db.insert("R2", r2);
    db
}

fn t1_cases() -> Vec<T1Case> {
    let view = |name: &str, sql: &str| ViewDef::new(name, parse_query(sql).expect("valid SQL"));
    let mut cases = Vec::new();

    // Example 1.1 — the motivating telephony example.
    cases.push(T1Case {
        id: "Ex 1.1",
        description: "monthly-earnings view answers annual revenue query",
        catalog: telephony_catalog(),
        db: telephony(
            &TelephonyConfig {
                n_calls: 4000,
                ..TelephonyConfig::default()
            },
            1,
        ),
        query: "SELECT Calling_Plans.Plan_Id, Plan_Name, SUM(Charge) \
                FROM Calls, Calling_Plans \
                WHERE Calls.Plan_Id = Calling_Plans.Plan_Id AND Year = 1995 \
                GROUP BY Calling_Plans.Plan_Id, Plan_Name HAVING SUM(Charge) < 100000000",
        views: vec![view(
            "V1",
            "SELECT Calls.Plan_Id, Plan_Name, Month, Year, SUM(Charge) AS Monthly_Earnings \
             FROM Calls, Calling_Plans WHERE Calls.Plan_Id = Calling_Plans.Plan_Id \
             GROUP BY Calls.Plan_Id, Plan_Name, Month, Year",
        )],
        strategy: Strategy::Weighted,
        expect_usable: true,
    });

    // Example 3.1 — conjunctive view with residual D = 6.
    let cat31 = {
        let mut cat = Catalog::new();
        cat.add_table(TableSchema::new("R1", ["A", "B"]))
            .expect("fresh");
        cat.add_table(TableSchema::new("R2", ["C", "D"]))
            .expect("fresh");
        cat
    };
    let db31 = {
        let mut rng = StdRng::seed_from_u64(31);
        let mut db = Database::new();
        let mut r1 = Relation::empty(["A", "B"]);
        let mut r2 = Relation::empty(["C", "D"]);
        for _ in 0..60 {
            r1.push(vec![
                Value::Int(rng.random_range(0..5)),
                Value::Int(rng.random_range(4..9)),
            ]);
            r2.push(vec![
                Value::Int(rng.random_range(0..5)),
                Value::Int(rng.random_range(4..9)),
            ]);
        }
        db.insert("R1", r1);
        db.insert("R2", r2);
        db
    };
    cases.push(T1Case {
        id: "Ex 3.1",
        description: "conjunctive view replaces both tables, residual D=6",
        catalog: cat31,
        db: db31,
        query: "SELECT A, SUM(B) FROM R1, R2 WHERE A = C AND B = 6 AND D = 6 GROUP BY A",
        views: vec![view("V1", "SELECT C, D FROM R1, R2 WHERE A = C AND B = D")],
        strategy: Strategy::Weighted,
        expect_usable: true,
    });

    // Example 4.1 — coalescing subgroups.
    cases.push(T1Case {
        id: "Ex 4.1",
        description: "COUNT of coarse groups = SUM of fine COUNTs",
        catalog: r1r2_catalog(),
        db: r1r2_db(41),
        query: "SELECT A, E, COUNT(B) FROM R1, R2 WHERE C = F AND B = D GROUP BY A, E",
        views: vec![view(
            "V1",
            "SELECT A, C, COUNT(D) AS N FROM R1 WHERE B = D GROUP BY A, C",
        )],
        strategy: Strategy::Weighted,
        expect_usable: true,
    });

    // Example 4.2/V1 — lost multiplicities, no COUNT: unusable.
    cases.push(T1Case {
        id: "Ex 4.2/V1",
        description: "SUM-only view cannot recover multiplicities",
        catalog: r1r2_catalog(),
        db: r1r2_db(42),
        query: "SELECT A, SUM(E) FROM R1, R2 GROUP BY A",
        views: vec![view("V1", "SELECT A, B, SUM(C) AS S FROM R1 GROUP BY A, B")],
        strategy: Strategy::Weighted,
        expect_usable: false,
    });

    // Example 4.2/V2 — COUNT column recovers multiplicities (both
    // strategies).
    for (id, strategy) in [
        ("Ex 4.2/V2 (weighted)", Strategy::Weighted),
        ("Ex 4.2/V2 (paper V^a)", Strategy::PaperFaithful),
    ] {
        cases.push(T1Case {
            id: if strategy == Strategy::Weighted {
                "Ex 4.2/V2-W"
            } else {
                "Ex 4.2/V2-Va"
            },
            description: if strategy == Strategy::Weighted {
                "multiplicity recovery via SUM(N*E)"
            } else {
                "multiplicity recovery via the paper's V^a"
            },
            catalog: r1r2_catalog(),
            db: r1r2_db(43),
            query: "SELECT A, SUM(E) FROM R1, R2 GROUP BY A",
            views: vec![view(
                "V2",
                "SELECT A, B, SUM(C) AS S, COUNT(C) AS N FROM R1 GROUP BY A, B",
            )],
            strategy,
            expect_usable: true,
        });
        let _ = id;
    }

    // Example 4.4 — constraint on an aggregated-away column: unusable.
    cases.push(T1Case {
        id: "Ex 4.4",
        description: "WHERE constrains a column the view aggregates away",
        catalog: r1r2_catalog(),
        db: r1r2_db(44),
        query: "SELECT A, E, SUM(B) FROM R1, R2 WHERE B = F GROUP BY A, E",
        views: vec![view(
            "V",
            "SELECT A, E, F, SUM(B) AS S FROM R1, R2 GROUP BY A, E, F",
        )],
        strategy: Strategy::Weighted,
        expect_usable: false,
    });

    // Example 4.5 — aggregation view, conjunctive query: unusable.
    let cat45 = {
        let mut cat = Catalog::new();
        cat.add_table(TableSchema::new("R1", ["A", "B", "C"]))
            .expect("fresh");
        cat
    };
    let db45 = {
        let mut rng = StdRng::seed_from_u64(45);
        let mut db = Database::new();
        let mut r1 = Relation::empty(["A", "B", "C"]);
        for _ in 0..40 {
            r1.push((0..3).map(|_| Value::Int(rng.random_range(0..4))).collect());
        }
        db.insert("R1", r1);
        db
    };
    cases.push(T1Case {
        id: "Ex 4.5",
        description: "aggregation view cannot answer a conjunctive query",
        catalog: cat45,
        db: db45,
        query: "SELECT A, B FROM R1",
        views: vec![view(
            "V1",
            "SELECT A, B, COUNT(C) AS N FROM R1 GROUP BY A, B",
        )],
        strategy: Strategy::Weighted,
        expect_usable: false,
    });

    // Example 5.1 — keys enable the many-to-1 mapping.
    let cat51 = {
        let mut cat = Catalog::new();
        cat.add_table(TableSchema::new("R1", ["A", "B", "C"]).with_key(["A"]))
            .expect("fresh");
        cat
    };
    let db51 = {
        let mut rng = StdRng::seed_from_u64(51);
        let mut db = Database::new();
        let mut r1 = Relation::empty(["A", "B", "C"]);
        for a in 0..40 {
            r1.push(vec![
                Value::Int(a),
                Value::Int(rng.random_range(0..4)),
                Value::Int(rng.random_range(0..4)),
            ]);
        }
        db.insert("R1", r1);
        db
    };
    cases.push(T1Case {
        id: "Ex 5.1",
        description: "many-to-1 mapping justified by key A",
        catalog: cat51,
        db: db51,
        query: "SELECT A FROM R1 WHERE B = C",
        views: vec![view(
            "V1",
            "SELECT u.A AS A1, w.A AS A2 FROM R1 u, R1 w WHERE u.B = w.C",
        )],
        strategy: Strategy::Weighted,
        expect_usable: true,
    });

    cases
}

/// T1 — every worked example: expected vs. observed usability, and engine
/// verification of each produced rewriting.
pub fn t1_paper_examples() -> Table {
    let mut table = Table::new(
        "T1 — paper examples: usability decisions and verified rewritings",
        &["example", "expected", "found", "verified", "description"],
    );
    for case in t1_cases() {
        let rewriter = Rewriter::with_options(
            &case.catalog,
            RewriteOptions {
                strategy: case.strategy,
                ..RewriteOptions::default()
            },
        );
        let query = parse_query(case.query).expect("valid SQL");
        let rewritings = rewriter.rewrite(&query, &case.views).expect("rewrite runs");
        let found = !rewritings.is_empty();
        let mut verified = true;
        if found {
            let mut db = case.db.clone();
            materialize_views(&mut db, &case.views).expect("views materialize");
            for rw in &rewritings {
                verified &= rewriting_equivalent(&query, rw, &db).expect("rewriting executes");
            }
        }
        table.push(vec![
            case.id.to_string(),
            if case.expect_usable {
                "usable"
            } else {
                "not usable"
            }
            .to_string(),
            if found { "usable" } else { "not usable" }.to_string(),
            if !found {
                "n/a".to_string()
            } else if verified {
                "equivalent".to_string()
            } else {
                "MISMATCH".to_string()
            },
            case.description.to_string(),
        ]);
        assert_eq!(found, case.expect_usable, "{}: decision mismatch", case.id);
        assert!(verified, "{}: rewriting not equivalent", case.id);
    }
    table
}

/// T2 — randomized soundness (Theorems 3.1/4.1): every rewriting found on
/// random (query, views, database) triples is multiset-equivalent.
pub fn t2_soundness(trials: u64) -> Table {
    let catalog = experiment_catalog();
    let cfg = GenConfig::default();
    let mut checked = 0u64;
    let mut violations = 0u64;
    let mut with_rewritings = 0u64;
    for strategy in [Strategy::Weighted, Strategy::PaperFaithful] {
        let rewriter = Rewriter::with_options(
            &catalog,
            RewriteOptions {
                strategy,
                max_rewritings: 16,
                ..RewriteOptions::default()
            },
        );
        for seed in 0..trials {
            let mut rng = StdRng::seed_from_u64(seed);
            let query = random_query(&mut rng, &catalog, &cfg);
            let mut views = Vec::new();
            if let Some(v) = embedded_view(&mut rng, &query, &catalog, "EV0", false) {
                views.push(v);
            }
            if let Some(v) = embedded_view(&mut rng, &query, &catalog, "EV1", true) {
                views.push(v);
            }
            let rewritings = rewriter.rewrite(&query, &views).expect("rewrite runs");
            if rewritings.is_empty() {
                continue;
            }
            with_rewritings += 1;
            let mut db = random_database(&catalog, 25, 4, seed.wrapping_mul(97));
            materialize_views(&mut db, &views).expect("views materialize");
            for rw in &rewritings {
                checked += 1;
                if !rewriting_equivalent(&query, rw, &db).expect("rewriting executes") {
                    violations += 1;
                }
            }
        }
    }
    let mut table = Table::new(
        "T2 — randomized soundness (both strategies)",
        &[
            "trials",
            "instances with rewritings",
            "rewritings checked",
            "violations",
        ],
    );
    table.push(vec![
        (trials * 2).to_string(),
        with_rewritings.to_string(),
        checked.to_string(),
        violations.to_string(),
    ]);
    assert_eq!(violations, 0, "soundness violation detected");
    table
}

/// T3 — Church-Rosser (Theorem 3.2.2): the set of rewritings is invariant
/// under view ordering.
pub fn t3_church_rosser(instances: u64) -> Table {
    let catalog = experiment_catalog();
    let cfg = GenConfig {
        inequalities: false,
        ..GenConfig::default()
    };
    let rewriter = Rewriter::new(&catalog);
    let mut compared = 0u64;
    let mut mismatches = 0u64;
    let mut multi = 0u64;
    for seed in 0..instances {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(1000));
        let query = random_query(&mut rng, &catalog, &cfg);
        let mut views = Vec::new();
        for i in 0..3 {
            if let Some(v) = embedded_view(&mut rng, &query, &catalog, &format!("V{i}"), i == 2) {
                views.push(v);
            }
        }
        if views.len() < 2 {
            continue;
        }
        let sig = |rws: &[aggview_core::Rewriting]| -> BTreeSet<Vec<String>> {
            rws.iter()
                .map(|r| {
                    let mut v = r.views_used.clone();
                    v.sort();
                    v
                })
                .collect()
        };
        let fwd = rewriter.rewrite(&query, &views).expect("rewrite runs");
        let mut rev_views = views.clone();
        rev_views.reverse();
        let rev = rewriter.rewrite(&query, &rev_views).expect("rewrite runs");
        compared += 1;
        if fwd.len() > 1 {
            multi += 1;
        }
        if sig(&fwd) != sig(&rev) {
            mismatches += 1;
        }
    }
    let mut table = Table::new(
        "T3 — Church-Rosser: view order does not change the rewriting set",
        &[
            "instances compared",
            "multi-rewriting instances",
            "order mismatches",
        ],
    );
    table.push(vec![
        compared.to_string(),
        multi.to_string(),
        mismatches.to_string(),
    ]);
    assert_eq!(mismatches, 0, "Church-Rosser violation detected");
    table
}

/// T4 — completeness on constructed instances: embedded conjunctive views
/// are usable by construction, so a rewriting must always be found; with
/// two disjoint embedded views over a two-table query, the combined
/// rewriting must be found too.
pub fn t4_completeness(instances: u64) -> Table {
    let catalog = experiment_catalog();
    let cfg = GenConfig {
        inequalities: false,
        ..GenConfig::default()
    };
    let rewriter = Rewriter::new(&catalog);
    let mut cases = 0u64;
    let mut found = 0u64;
    let mut combined_cases = 0u64;
    let mut combined_found = 0u64;
    for seed in 0..instances {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(5000));
        let query = random_query(&mut rng, &catalog, &cfg);
        let Some(v) = embedded_view(&mut rng, &query, &catalog, "EV", false) else {
            continue;
        };
        cases += 1;
        let rws = rewriter
            .rewrite(&query, std::slice::from_ref(&v))
            .expect("rewrite runs");
        if !rws.is_empty() {
            found += 1;
        }
        // Combined: a second embedded view over the complement is usable
        // together with the first when they cover disjoint occurrences.
        if query.from.len() >= 2 {
            if let Some(v2) = embedded_view(&mut rng, &query, &catalog, "EV2", false) {
                combined_cases += 1;
                let rws = rewriter
                    .rewrite(&query, &[v.clone(), v2])
                    .expect("rewrite runs");
                if rws.iter().any(|r| !r.views_used.is_empty()) {
                    combined_found += 1;
                }
            }
        }
    }
    let mut table = Table::new(
        "T4 — completeness on constructed (usable-by-construction) instances",
        &[
            "cases",
            "rewriting found",
            "multi-view cases",
            "multi-view found",
        ],
    );
    table.push(vec![
        cases.to_string(),
        found.to_string(),
        combined_cases.to_string(),
        combined_found.to_string(),
    ]);
    assert_eq!(cases, found, "completeness failure on an embedded view");
    table
}

/// T5 — ablation: closure-based conditions vs. purely syntactic matching
/// (the Section 6 comparison with \[GHQ95\]).
pub fn t5_closure_vs_syntactic() -> Table {
    let catalog = experiment_catalog();
    let rewriter = Rewriter::new(&catalog);
    let mut table = Table::new(
        "T5 — closure-based usability vs. syntactic matching",
        &[
            "case",
            "needs closure reasoning",
            "full rewriter",
            "syntactic matcher",
        ],
    );
    let mut full_count = 0;
    let mut syn_count = 0;
    for (name, query, view, needs_reasoning) in t5_workload() {
        let full = !rewriter
            .rewrite(&query, std::slice::from_ref(&view))
            .expect("rewrite runs")
            .is_empty();
        let qc = Canonical::from_query(&query, &catalog).expect("canonicalizes");
        let vc = Canonical::from_query(&view.query, &catalog).expect("canonicalizes");
        let syn = syntactic_usable(&qc, &vc);
        full_count += full as u32;
        syn_count += syn as u32;
        table.push(vec![
            name.to_string(),
            if needs_reasoning { "yes" } else { "no" }.to_string(),
            if full { "usable" } else { "-" }.to_string(),
            if syn { "usable" } else { "-" }.to_string(),
        ]);
        assert!(full, "{name}: the full rewriter must accept every T5 case");
        assert_eq!(
            syn, !needs_reasoning,
            "{name}: syntactic matcher expectation"
        );
    }
    table.push(vec![
        "TOTAL".to_string(),
        String::new(),
        format!("{full_count}/8"),
        format!("{syn_count}/8"),
    ]);
    table
}

/// T6 — ablation: Section 5 key reasoning on Example 5.1-style instances.
pub fn t6_keys_ablation() -> Table {
    let with_keys = {
        let mut cat = Catalog::new();
        cat.add_table(TableSchema::new("R1", ["A", "B", "C"]).with_key(["A"]))
            .expect("fresh");
        cat
    };
    let without_keys = {
        let mut cat = Catalog::new();
        cat.add_table(TableSchema::new("R1", ["A", "B", "C"]))
            .expect("fresh");
        cat
    };
    let cases = [
        (
            "Ex 5.1",
            "SELECT A FROM R1 WHERE B = C",
            "SELECT u.A AS A1, w.A AS A2 FROM R1 u, R1 w WHERE u.B = w.C",
        ),
        (
            "diagonal join",
            "SELECT A, B FROM R1 WHERE B = C",
            "SELECT u.A AS A1, u.B AS B1, w.A AS A2 FROM R1 u, R1 w WHERE u.B = w.C",
        ),
    ];
    let mut table = Table::new(
        "T6 — key information enables many-to-1 rewritings",
        &["case", "with keys", "without keys"],
    );
    for (name, q_sql, v_sql) in cases {
        let q = parse_query(q_sql).expect("valid SQL");
        let v = ViewDef::new("V1", parse_query(v_sql).expect("valid SQL"));
        let found_with = !Rewriter::new(&with_keys)
            .rewrite(&q, std::slice::from_ref(&v))
            .expect("rewrite runs")
            .is_empty();
        let found_without = !Rewriter::new(&without_keys)
            .rewrite(&q, std::slice::from_ref(&v))
            .expect("rewrite runs")
            .is_empty();
        table.push(vec![
            name.to_string(),
            if found_with { "usable" } else { "-" }.to_string(),
            if found_without { "usable" } else { "-" }.to_string(),
        ]);
        assert!(
            found_with && !found_without,
            "{name}: key ablation expectation"
        );
    }
    // Section 5.2: DISTINCT substitutes for keys (both results are sets by
    // definition), so this case is usable even on the keyless catalog.
    {
        let q = parse_query("SELECT DISTINCT A FROM R1 WHERE B = 1").expect("valid SQL");
        let v = ViewDef::new(
            "V1",
            parse_query("SELECT DISTINCT A, B FROM R1").expect("valid SQL"),
        );
        let found = !Rewriter::new(&without_keys)
            .rewrite(&q, std::slice::from_ref(&v))
            .expect("rewrite runs")
            .is_empty();
        table.push(vec![
            "DISTINCT (5.2), no keys".to_string(),
            "n/a".to_string(),
            if found { "usable" } else { "-" }.to_string(),
        ]);
        assert!(
            found,
            "Section 5.2 DISTINCT case must be usable without keys"
        );
    }
    table
}

/// T7 — ablation: HAVING move-around (Section 3.3) unlocks usability.
pub fn t7_having_ablation() -> Table {
    let mut cat = Catalog::new();
    cat.add_table(TableSchema::new("R", ["A", "B"]))
        .expect("fresh");
    let cases = [
        (
            "grouping-column predicate",
            "SELECT A, SUM(B) FROM R GROUP BY A HAVING A > 5 AND SUM(B) < 100",
            "SELECT A, B FROM R WHERE A > 5",
        ),
        (
            "MAX(B) > c, sole aggregate",
            "SELECT A, MAX(B) FROM R GROUP BY A HAVING MAX(B) > 4",
            "SELECT A, B FROM R WHERE B > 4",
        ),
    ];
    let mut table = Table::new(
        "T7 — HAVING move-around normalization unlocks view usability",
        &["case", "with normalization", "without normalization"],
    );
    for (name, q_sql, v_sql) in cases {
        let q = parse_query(q_sql).expect("valid SQL");
        let v = ViewDef::new("V", parse_query(v_sql).expect("valid SQL"));
        let on = Rewriter::new(&cat);
        let off = Rewriter::with_options(
            &cat,
            RewriteOptions {
                normalize_having: false,
                ..RewriteOptions::default()
            },
        );
        let found_on = !on
            .rewrite(&q, std::slice::from_ref(&v))
            .expect("rewrite runs")
            .is_empty();
        let found_off = !off
            .rewrite(&q, std::slice::from_ref(&v))
            .expect("rewrite runs")
            .is_empty();
        table.push(vec![
            name.to_string(),
            if found_on { "usable" } else { "-" }.to_string(),
            if found_off { "usable" } else { "-" }.to_string(),
        ]);
        assert!(
            found_on && !found_off,
            "{name}: HAVING ablation expectation"
        );
    }
    table
}

/// T8 — the footnote-3 "expand" extension: aggregation views answering
/// conjunctive queries through the interpreted `Nat` table.
pub fn t8_expand() -> Table {
    let mut cat = Catalog::new();
    cat.add_table(TableSchema::new("R1", ["A", "B", "C"]))
        .expect("fresh");
    let db = {
        let mut rng = StdRng::seed_from_u64(80);
        let mut db = Database::new();
        let mut r1 = Relation::empty(["A", "B", "C"]);
        for _ in 0..60 {
            r1.push((0..3).map(|_| Value::Int(rng.random_range(0..4))).collect());
        }
        db.insert("R1", r1);
        db
    };
    let cases = [
        (
            "Ex 4.5 pair",
            "SELECT A, B FROM R1",
            "SELECT A, B, COUNT(C) AS N FROM R1 GROUP BY A, B",
            true,
        ),
        (
            "with residual filter",
            "SELECT A FROM R1 WHERE B = 2",
            "SELECT A, B, COUNT(C) AS N FROM R1 GROUP BY A, B",
            true,
        ),
        (
            "no COUNT column",
            "SELECT A, B FROM R1",
            "SELECT A, B, SUM(C) AS S FROM R1 GROUP BY A, B",
            false,
        ),
    ];
    let mut table = Table::new(
        "T8 — footnote-3 expansion (aggregation view, conjunctive query)",
        &["case", "default (4.5)", "with expand", "verified"],
    );
    for (name, q_sql, v_sql, expect) in cases {
        let q = parse_query(q_sql).expect("valid SQL");
        let v = ViewDef::new("V1", parse_query(v_sql).expect("valid SQL"));
        let plain = Rewriter::new(&cat)
            .rewrite(&q, std::slice::from_ref(&v))
            .expect("rewrite runs");
        let expander = Rewriter::with_options(
            &cat,
            RewriteOptions {
                enable_expand: true,
                ..RewriteOptions::default()
            },
        );
        let expanded = expander
            .rewrite(&q, std::slice::from_ref(&v))
            .expect("rewrite runs");
        let mut verified = "n/a".to_string();
        if let Some(rw) = expanded.first() {
            let mut scratch = db.clone();
            materialize_views(&mut scratch, std::slice::from_ref(&v)).expect("materializes");
            let ok = rewriting_equivalent(&q, rw, &scratch).expect("executes");
            verified = if ok {
                "equivalent".into()
            } else {
                "MISMATCH".into()
            };
            assert!(ok, "{name}: expansion rewriting not equivalent");
        }
        assert!(plain.is_empty(), "{name}: section 4.5 must hold by default");
        assert_eq!(!expanded.is_empty(), expect, "{name}: expand expectation");
        table.push(vec![
            name.to_string(),
            "not usable".to_string(),
            if expanded.is_empty() { "-" } else { "usable" }.to_string(),
            verified,
        ]);
    }
    table
}

/// T9 — the view advisor (paper Section 7 future work): on the telephony
/// workload, the top suggestion must be adopted-and-correct, and must
/// answer the whole related workload.
pub fn t9_advisor() -> Table {
    use aggview_core::advisor::suggest_views;

    let catalog = telephony_catalog();
    let mut db = telephony(
        &TelephonyConfig {
            n_customers: 200,
            n_plans: 10,
            n_calls: 20_000,
            years: vec![1994, 1995],
            months: 12,
        },
        19,
    );
    let mut stats = aggview_core::TableStats::new();
    for (name, rel) in db.iter() {
        stats.set(name.clone(), rel.len());
    }
    let workload = [
        "SELECT Plan_Id, Year, SUM(Charge) FROM Calls GROUP BY Plan_Id, Year",
        "SELECT Plan_Id, SUM(Charge) FROM Calls WHERE Year = 1995 GROUP BY Plan_Id",
        "SELECT Plan_Id, Year, COUNT(Call_Id) FROM Calls GROUP BY Plan_Id, Year",
        "SELECT Plan_Id, AVG(Charge) FROM Calls WHERE Year = 1994 GROUP BY Plan_Id",
    ];
    let anchor = parse_query(workload[0]).expect("valid SQL");
    let suggestions = suggest_views(&anchor, &catalog, &stats).expect("advisor runs");
    assert!(!suggestions.is_empty(), "advisor must find a summary view");
    let adopted = suggestions[0].view.clone();
    materialize_views(&mut db, std::slice::from_ref(&adopted)).expect("view builds");

    let rewriter = Rewriter::new(&catalog);
    let mut table = Table::new(
        "T9 — advisor-selected view answering the workload",
        &["query", "answered from view", "verified"],
    );
    for sql in workload {
        let q = parse_query(sql).expect("valid SQL");
        let rws = rewriter
            .rewrite(&q, std::slice::from_ref(&adopted))
            .expect("rewrite runs");
        let (hit, verified) = match rws.first() {
            Some(rw) => {
                let truth = execute(&q, &db).expect("base evaluation");
                let via = execute_rewriting(rw, &db).expect("view evaluation");
                (true, multiset_eq(&truth, &via))
            }
            None => (false, false),
        };
        assert!(hit && verified, "advisor view must answer `{sql}` exactly");
        table.push(vec![
            sql.chars().take(60).collect(),
            "yes".to_string(),
            "equivalent".to_string(),
        ]);
    }
    table
}

/// F1 — the Example 1.1 performance claim: speedup of `Q'` over `Q` as the
/// `Calls` fact table grows.
pub fn f1_speedup(full: bool) -> Table {
    let scales: &[usize] = if full {
        &[1_000, 10_000, 100_000, 1_000_000]
    } else {
        &[1_000, 10_000, 100_000]
    };
    let catalog = telephony_catalog();
    let rewriter = Rewriter::new(&catalog);
    let q = telephony_query();
    let v1 = telephony_v1();
    let mut table = Table::new(
        "F1 — Example 1.1 speedup vs. Calls cardinality",
        &[
            "calls",
            "view rows",
            "t(Q) ms",
            "t(Q') ms",
            "speedup",
            "equivalent",
        ],
    );
    for &n in scales {
        let mut db = telephony(
            &TelephonyConfig {
                n_customers: 1000,
                n_plans: 10,
                n_calls: n,
                years: vec![1994, 1995],
                months: 12,
            },
            42,
        );
        materialize_views(&mut db, std::slice::from_ref(&v1)).expect("view materializes");
        let rws = rewriter
            .rewrite(&q, std::slice::from_ref(&v1))
            .expect("rewrite runs");
        let rw = rws.first().expect("Example 1.1 rewriting");
        let t = Instant::now();
        let original = execute(&q, &db).expect("query runs");
        let t_q = t.elapsed();
        let t = Instant::now();
        let via = execute_rewriting(rw, &db).expect("rewriting runs");
        let t_qp = t.elapsed();
        let eq = multiset_eq(&original, &via);
        table.push(vec![
            n.to_string(),
            db.get("V1").expect("present").len().to_string(),
            format!("{:.2}", t_q.as_secs_f64() * 1e3),
            format!("{:.2}", t_qp.as_secs_f64() * 1e3),
            format!("{:.1}x", t_q.as_secs_f64() / t_qp.as_secs_f64().max(1e-9)),
            eq.to_string(),
        ]);
        assert!(eq, "F1: answers must agree at scale {n}");
    }
    table
}

/// F2 — speedup vs. view compression ratio (varying the number of groups
/// in the view while the fact table stays fixed).
pub fn f2_compression(full: bool) -> Table {
    let n_calls = if full { 400_000 } else { 100_000 };
    let catalog = telephony_catalog();
    let rewriter = Rewriter::new(&catalog);
    let q = telephony_query();
    let v1 = telephony_v1();
    let mut table = Table::new(
        "F2 — speedup vs. view compression (groups = plans x months x years)",
        &[
            "plans",
            "view rows",
            "compression",
            "t(Q) ms",
            "t(Q') ms",
            "speedup",
        ],
    );
    for n_plans in [2usize, 10, 50, 250, 1000] {
        let mut db = telephony(
            &TelephonyConfig {
                n_customers: 1000,
                n_plans,
                n_calls,
                years: vec![1994, 1995],
                months: 12,
            },
            7,
        );
        materialize_views(&mut db, std::slice::from_ref(&v1)).expect("view materializes");
        let rws = rewriter
            .rewrite(&q, std::slice::from_ref(&v1))
            .expect("rewrite runs");
        let rw = rws.first().expect("Example 1.1 rewriting");
        let t = Instant::now();
        let original = execute(&q, &db).expect("query runs");
        let t_q = t.elapsed();
        let t = Instant::now();
        let via = execute_rewriting(rw, &db).expect("rewriting runs");
        let t_qp = t.elapsed();
        assert!(multiset_eq(&original, &via));
        let view_rows = db.get("V1").expect("present").len();
        table.push(vec![
            n_plans.to_string(),
            view_rows.to_string(),
            format!("{:.0}x", n_calls as f64 / view_rows as f64),
            format!("{:.2}", t_q.as_secs_f64() * 1e3),
            format!("{:.2}", t_qp.as_secs_f64() * 1e3),
            format!("{:.1}x", t_q.as_secs_f64() / t_qp.as_secs_f64().max(1e-9)),
        ]);
    }
    table
}

/// One measured point of the F3/F4 search-scaling sweeps: sequential vs.
/// parallel timing plus the [`aggview_core::RewriteStats`] counters of the
/// indexed search.
#[derive(Debug, Clone)]
pub struct SearchPoint {
    /// The swept axis value (candidate views for F3, chain length for F4).
    pub x: usize,
    /// Rewritings produced (identical on both paths by construction).
    pub rewritings: usize,
    /// Best-of-k wall time, sequential (`threads = 1`), microseconds.
    pub seq_us: f64,
    /// Best-of-k wall time, parallel (default thread count), microseconds.
    pub par_us: f64,
    /// Candidate `(state, view)` pairs rejected by the signature prefilter.
    pub prefiltered: usize,
    /// Candidate pairs that reached mapping enumeration.
    pub attempted: usize,
    /// Column mappings enumerated.
    pub mappings: usize,
    /// Closure-cache hit rate over the measured (warm) run.
    pub closure_hit_rate: f64,
    /// Worker threads the parallel path used.
    pub threads: usize,
}

impl SearchPoint {
    /// Parallel speedup over sequential.
    pub fn speedup(&self) -> f64 {
        self.seq_us / self.par_us.max(1e-9)
    }
}

/// Measure one (query, view pool) search point: best-of-`runs` wall times
/// for the sequential baseline (the seed configuration: one thread, no
/// signature prefilter, no closure cache) and the optimized path
/// (parallel + indexed + cached), plus the stats of a final instrumented
/// run. Note the container the repro runs in may expose a single core, in
/// which case the parallel path degenerates to sequential and the whole
/// speedup comes from the prefilter and the closure cache.
fn measure_search_point(
    catalog: &Catalog,
    base: &RewriteOptions,
    q: &aggview_sql::ast::Query,
    pool: &[ViewDef],
    x: usize,
    runs: usize,
) -> SearchPoint {
    use std::num::NonZeroUsize;
    let seq_rewriter = Rewriter::with_options(
        catalog,
        RewriteOptions {
            threads: Some(NonZeroUsize::new(1).expect("nonzero")),
            prefilter: false,
            closure_cache: false,
            ..base.clone()
        },
    );
    let par_rewriter = Rewriter::with_options(catalog, base.clone());
    let mut seq_us = f64::INFINITY;
    let mut par_us = f64::INFINITY;
    let mut n_rws = 0;
    for _ in 0..runs {
        let t = Instant::now();
        let rws = seq_rewriter.rewrite(q, pool).expect("rewrite runs");
        seq_us = seq_us.min(t.elapsed().as_secs_f64() * 1e6);
        n_rws = rws.len();
        let t = Instant::now();
        par_rewriter.rewrite(q, pool).expect("rewrite runs");
        par_us = par_us.min(t.elapsed().as_secs_f64() * 1e6);
    }
    let (rws, stats) = par_rewriter
        .rewrite_with_stats(q, pool)
        .expect("rewrite runs");
    assert_eq!(
        rws.len(),
        n_rws,
        "sequential and parallel counts must agree"
    );
    SearchPoint {
        x,
        rewritings: n_rws,
        seq_us,
        par_us,
        prefiltered: stats.candidates_prefiltered,
        attempted: stats.candidates_attempted,
        mappings: stats.mappings_enumerated,
        closure_hit_rate: stats.closure_hit_rate(),
        threads: stats.threads,
    }
}

fn search_table(title: &str, axis: &str, points: &[SearchPoint]) -> Table {
    let mut table = Table::new(
        title,
        &[
            axis,
            "rewritings",
            "seq us",
            "par us",
            "speedup",
            "prefiltered",
            "attempted",
            "cache hit %",
        ],
    );
    for p in points {
        table.push(vec![
            p.x.to_string(),
            p.rewritings.to_string(),
            format!("{:.0}", p.seq_us),
            format!("{:.0}", p.par_us),
            format!("{:.2}x", p.speedup()),
            p.prefiltered.to_string(),
            p.attempted.to_string(),
            format!("{:.0}", p.closure_hit_rate * 100.0),
        ]);
    }
    table
}

/// F3 data — rewrite-search scaling on the view-pool-size axis.
pub fn f3_points() -> Vec<SearchPoint> {
    let catalog = telephony_catalog();
    let q = telephony_query();
    let base = RewriteOptions::default();
    [1usize, 2, 4, 8, 16, 32, 64]
        .iter()
        .map(|&n| measure_search_point(&catalog, &base, &q, &telephony_view_pool(n), n, 5))
        .collect()
}

/// F3 — rewrite-search time vs. number of candidate views, sequential vs.
/// parallel, with prefilter / closure-cache counters.
pub fn f3_many_views() -> Table {
    search_table(
        "F3 — rewrite-search time vs. candidate view count",
        "views",
        &f3_points(),
    )
}

/// F4 data — rewrite-search scaling on the query-size axis.
pub fn f4_points() -> Vec<SearchPoint> {
    let catalog = chain_catalog();
    let base = RewriteOptions {
        max_rewritings: 256,
        ..RewriteOptions::default()
    };
    let view = chain_view();
    [2usize, 3, 4, 5, 6, 7, 8]
        .iter()
        .map(|&n| {
            measure_search_point(
                &catalog,
                &base,
                &chain_query(n),
                std::slice::from_ref(&view),
                n,
                3,
            )
        })
        .collect()
}

/// F4 — rewrite-search time vs. query size (self-join chain; the C1
/// mapping space grows combinatorially), sequential vs. parallel.
pub fn f4_query_size() -> Table {
    search_table(
        "F4 — rewrite-search time vs. query size (n self-joined tables)",
        "tables",
        &f4_points(),
    )
}

/// The two F6 view shapes: the single-table monthly summary and Example
/// 1.1's join view `V1` (with a `COUNT`, as a summary that must survive
/// deletes would carry).
pub const F6_VIEWS: [(&str, &str); 2] = [
    (
        "single-table",
        "SELECT Plan_Id, Month, Year, SUM(Charge) AS Rev, COUNT(Call_Id) AS N \
         FROM Calls GROUP BY Plan_Id, Month, Year",
    ),
    (
        "join (V1)",
        "SELECT Calls.Plan_Id, Plan_Name, Month, Year, SUM(Charge) AS Rev, COUNT(Call_Id) AS N \
         FROM Calls, Calling_Plans WHERE Calls.Plan_Id = Calling_Plans.Plan_Id \
         GROUP BY Calls.Plan_Id, Plan_Name, Month, Year",
    ),
];

/// The F6 warehouse with `view_q` stored as `V` the way the write path
/// stores a view: rows, delta rule, and a group index on the rule's key.
pub fn f6_database(view_q: &Query, n_calls: usize) -> Database {
    use aggview::engine::maintenance::FoldPlan;

    let mut db = telephony(
        &TelephonyConfig {
            n_customers: 1000,
            n_plans: 10,
            n_calls,
            years: vec![1994, 1995],
            months: 12,
        },
        21,
    );
    let mut view = execute(view_q, &db).expect("view evaluates");
    view.columns = view_q.output_names();
    let plan = FoldPlan::compile(view_q, &db, &ExecContext::new()).expect("both F6 shapes fold");
    db.insert("V", view);
    db.set_fold_plan("V", plan, true);
    db
}

/// `n` fresh `Calls` rows starting at `first_id`.
pub fn f6_batch(rng: &mut StdRng, first_id: usize, n: usize) -> Vec<Vec<Value>> {
    (0..n)
        .map(|i| {
            vec![
                Value::Int((first_id + i) as i64),
                Value::Int(rng.random_range(0..1000)),
                Value::Int(rng.random_range(0..10)),
                Value::Int(rng.random_range(1..=28)),
                Value::Int(rng.random_range(1..=12)),
                Value::Int(if rng.random_bool(0.5) { 1994 } else { 1995 }),
                Value::Int(rng.random_range(1..=2000)),
            ]
        })
        .collect()
}

/// F6 — incremental view maintenance vs. recomputation (the Section 1
/// "transaction recording systems" motivation): time to keep the Example
/// 1.1 summaries fresh while call batches stream in, through the one
/// maintenance entry point — with the batch's delta, and without.
pub fn f6_maintenance(full: bool) -> Table {
    use aggview::engine::maintenance::{maintain_view_ctx, Delta, DeltaKind};

    let base_calls = if full { 200_000 } else { 50_000 };
    let batch = 1000usize;
    let n_batches = 20usize;
    let cx = ExecContext::new();

    let mut table = Table::new(
        "F6 — incremental maintenance vs. recomputation (per 1000-row batch)",
        &[
            "view",
            "base rows",
            "batches",
            "incremental ms",
            "recompute ms",
            "speedup",
        ],
    );
    for (shape, sql) in F6_VIEWS {
        let view_q = parse_query(sql).expect("valid SQL");
        let mut db = f6_database(&view_q, base_calls);

        // Stream batches, measuring both maintenance paths.
        let mut rng = StdRng::seed_from_u64(99);
        let mut t_incr = 0.0f64;
        let mut t_recompute = 0.0f64;
        for b in 0..n_batches {
            let rows = f6_batch(&mut rng, base_calls + b * batch, batch);
            db.update("Calls", |calls, _| calls.rows.extend_from_slice(&rows))
                .expect("present");

            let t = Instant::now();
            let delta = Delta::new("Calls", DeltaKind::Insert(&rows), &db).expect("present");
            let folded = maintain_view_ctx("V", &view_q, Some(&delta), &mut db, &cx);
            t_incr += t.elapsed().as_secs_f64();
            assert!(folded.expect("incremental maintenance"));
            let maintained = db.get("V").expect("stored").clone();

            let t = Instant::now();
            let recomputed = maintain_view_ctx("V", &view_q, None, &mut db, &cx);
            t_recompute += t.elapsed().as_secs_f64();
            assert!(!recomputed.expect("recomputation"));

            assert!(
                multiset_eq(&maintained, db.get("V").expect("stored")),
                "incremental {shape} view diverged at batch {b}"
            );
        }
        table.push(vec![
            shape.to_string(),
            base_calls.to_string(),
            n_batches.to_string(),
            format!("{:.3}", t_incr / n_batches as f64 * 1e3),
            format!("{:.3}", t_recompute / n_batches as f64 * 1e3),
            format!("{:.0}x", t_recompute / t_incr.max(1e-12)),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    // The experiment functions assert their own invariants; running them
    // here keeps the whole experiment suite green under `cargo test`.

    #[test]
    fn t1_runs() {
        let t = t1_paper_examples();
        assert_eq!(t.rows.len(), 9);
    }

    #[test]
    fn t2_runs_small() {
        t2_soundness(10);
    }

    #[test]
    fn t3_runs_small() {
        t3_church_rosser(10);
    }

    #[test]
    fn t4_runs_small() {
        t4_completeness(10);
    }

    #[test]
    fn t5_runs() {
        let t = t5_closure_vs_syntactic();
        assert_eq!(t.rows.len(), 9);
    }

    #[test]
    fn t6_runs() {
        t6_keys_ablation();
    }

    #[test]
    fn t7_runs() {
        t7_having_ablation();
    }

    #[test]
    fn t8_runs() {
        let t = t8_expand();
        assert_eq!(t.rows.len(), 3);
    }

    #[test]
    fn f3_f4_run() {
        assert_eq!(f3_many_views().rows.len(), 7);
        assert_eq!(f4_query_size().rows.len(), 7);
    }

    #[test]
    fn t9_runs() {
        assert_eq!(t9_advisor().rows.len(), 4);
    }

    #[test]
    fn f6_runs_small() {
        assert_eq!(f6_maintenance(false).rows.len(), F6_VIEWS.len());
    }
}
