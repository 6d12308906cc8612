//! Synthetic workload generators.
//!
//! * [`telephony`] — the data-warehouse schema of the paper's Example 1.1
//!   (`Customer`, `Calling_Plans`, `Calls`), with configurable
//!   cardinalities. Charges are integer cents so aggregate comparisons stay
//!   exact.
//! * [`random_database`] — small random instances over given schemas, used
//!   by the property tests: every rewriting the engine produces must be
//!   multiset-equivalent to the original query on such instances. Small
//!   value domains force duplicate tuples (exercising multiset semantics)
//!   and join collisions.

use crate::database::Database;
use crate::relation::Relation;
use crate::value::Value;
use aggview_catalog::{Catalog, TableSchema};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for the telephony warehouse of Example 1.1.
#[derive(Debug, Clone)]
pub struct TelephonyConfig {
    /// Number of customers.
    pub n_customers: usize,
    /// Number of calling plans.
    pub n_plans: usize,
    /// Number of call records (the fact table the paper calls "huge").
    pub n_calls: usize,
    /// Years covered by the call records.
    pub years: Vec<i64>,
    /// Months per year covered (1..=months).
    pub months: i64,
}

impl Default for TelephonyConfig {
    fn default() -> Self {
        TelephonyConfig {
            n_customers: 100,
            n_plans: 10,
            n_calls: 10_000,
            years: vec![1994, 1995],
            months: 12,
        }
    }
}

/// The catalog for the telephony schema, with the keys the paper declares
/// (underlined columns): `Customer.Cust_Id`, `Calling_Plans.Plan_Id`,
/// `Calls.Call_Id`.
pub fn telephony_catalog() -> Catalog {
    let mut cat = Catalog::new();
    cat.add_table(
        TableSchema::new(
            "Customer",
            ["Cust_Id", "Cust_Name", "Area_Code", "Phone_Number"],
        )
        .with_key(["Cust_Id"]),
    )
    .expect("fresh catalog");
    cat.add_table(
        TableSchema::new("Calling_Plans", ["Plan_Id", "Plan_Name"]).with_key(["Plan_Id"]),
    )
    .expect("fresh catalog");
    cat.add_table(
        TableSchema::new(
            "Calls",
            [
                "Call_Id", "Cust_Id", "Plan_Id", "Day", "Month", "Year", "Charge",
            ],
        )
        .with_key(["Call_Id"]),
    )
    .expect("fresh catalog");
    cat
}

/// Generate a telephony warehouse instance. Deterministic in `seed`.
pub fn telephony(cfg: &TelephonyConfig, seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new();

    let mut customers = Relation::empty(["Cust_Id", "Cust_Name", "Area_Code", "Phone_Number"]);
    for i in 0..cfg.n_customers {
        customers.push(vec![
            Value::Int(i as i64),
            Value::Str(format!("customer_{i}")),
            Value::Int(200 + (i % 800) as i64),
            Value::Int(1_000_000 + i as i64),
        ]);
    }
    db.insert("Customer", customers);

    let mut plans = Relation::empty(["Plan_Id", "Plan_Name"]);
    for p in 0..cfg.n_plans {
        plans.push(vec![Value::Int(p as i64), Value::Str(format!("plan_{p}"))]);
    }
    db.insert("Calling_Plans", plans);

    let mut calls = Relation::empty([
        "Call_Id", "Cust_Id", "Plan_Id", "Day", "Month", "Year", "Charge",
    ]);
    for c in 0..cfg.n_calls {
        let year = cfg.years[rng.random_range(0..cfg.years.len())];
        calls.push(vec![
            Value::Int(c as i64),
            Value::Int(rng.random_range(0..cfg.n_customers.max(1)) as i64),
            Value::Int(rng.random_range(0..cfg.n_plans.max(1)) as i64),
            Value::Int(rng.random_range(1..=28)),
            Value::Int(rng.random_range(1..=cfg.months.max(1))),
            Value::Int(year),
            // Integer cents, 1c..$20, so SUMs are exact.
            Value::Int(rng.random_range(1..=2000)),
        ]);
    }
    db.insert("Calls", calls);
    db
}

/// The interpreted natural-numbers table of the paper's footnote 3:
/// one column `k` holding `1..=max` (used by the "expand" rewriting that
/// replicates view rows by their COUNT column).
pub fn nat_table(max: i64) -> Relation {
    let mut rel = Relation::empty(["k"]);
    for k in 1..=max {
        rel.push(vec![Value::Int(k)]);
    }
    rel
}

/// Generate a random instance for each schema in `catalog`: `n_rows` rows
/// per table with integer values drawn from `0..domain`. A small `domain`
/// yields duplicate rows and join hits. Deterministic in `seed`.
///
/// Declared keys are respected by rejecting key-duplicate rows. When the
/// requested `domain` cannot supply `n_rows` distinct key tuples, the draw
/// domain of the *key columns only* widens (doubling on every stall) until
/// the table fills — every table always comes back with exactly `n_rows`
/// rows. Non-key columns keep the narrow domain: duplicates and join
/// collisions there are the point.
pub fn random_database(catalog: &Catalog, n_rows: usize, domain: i64, seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new();
    for table in catalog.tables() {
        let mut rel = Relation::empty(table.column_names());
        let keys = table.keys.clone();
        let key_cols: std::collections::HashSet<usize> = keys.iter().flatten().copied().collect();
        let mut seen: std::collections::HashSet<Vec<Value>> = std::collections::HashSet::new();
        let mut key_domain = domain.max(1);
        let mut stall = 0usize;
        while rel.len() < n_rows {
            let row: Vec<Value> = (0..table.arity())
                .map(|c| {
                    let d = if key_cols.contains(&c) {
                        key_domain
                    } else {
                        domain.max(1)
                    };
                    Value::Int(rng.random_range(0..d))
                })
                .collect();
            if !keys.is_empty() {
                let mut dup = false;
                for key in &keys {
                    let kv: Vec<Value> = key.iter().map(|&i| row[i].clone()).collect();
                    if !seen.insert(kv) {
                        dup = true;
                        break;
                    }
                }
                if dup {
                    stall += 1;
                    if stall >= 20 {
                        key_domain = key_domain.saturating_mul(2);
                        stall = 0;
                    }
                    continue;
                }
            }
            stall = 0;
            rel.push(row);
        }
        db.insert(table.name.clone(), rel);
    }
    db
}

/// Generate a random catalog: 1..=`max_tables` tables `S0`, `S1`, ... with
/// 2..=`max_arity` columns each drawn from a fixed letter pool, no keys
/// (pure bag semantics). Pair with [`random_database`] for instances.
/// Deterministic in `seed`.
pub fn random_catalog(seed: u64, max_tables: usize, max_arity: usize) -> Catalog {
    const POOL: [&str; 8] = ["A", "B", "C", "D", "E", "F", "G", "H"];
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cat = Catalog::new();
    let n_tables = rng.random_range(1..=max_tables.max(1));
    for t in 0..n_tables {
        let arity = rng.random_range(2..=max_arity.clamp(2, POOL.len()));
        let cols = &POOL[..arity];
        cat.add_table(TableSchema::new(format!("S{t}"), cols.iter().copied()))
            .expect("fresh names");
    }
    cat
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute;
    use aggview_sql::parse_query;

    #[test]
    fn telephony_respects_config() {
        let cfg = TelephonyConfig {
            n_customers: 5,
            n_plans: 3,
            n_calls: 50,
            years: vec![1995],
            months: 6,
        };
        let db = telephony(&cfg, 7);
        assert_eq!(db.get("Customer").unwrap().len(), 5);
        assert_eq!(db.get("Calling_Plans").unwrap().len(), 3);
        let calls = db.get("Calls").unwrap();
        assert_eq!(calls.len(), 50);
        let month_idx = calls.column_index("Month").unwrap();
        for row in &calls.rows {
            match &row[month_idx] {
                Value::Int(m) => assert!((1..=6).contains(m)),
                other => panic!("month should be int, got {other}"),
            }
        }
    }

    #[test]
    fn telephony_is_deterministic() {
        let cfg = TelephonyConfig::default();
        let a = telephony(&cfg, 42);
        let b = telephony(&cfg, 42);
        assert_eq!(a.get("Calls").unwrap().rows, b.get("Calls").unwrap().rows);
        let c = telephony(&cfg, 43);
        assert_ne!(a.get("Calls").unwrap().rows, c.get("Calls").unwrap().rows);
    }

    #[test]
    fn example_1_1_queries_run() {
        let db = telephony(
            &TelephonyConfig {
                n_calls: 2000,
                ..TelephonyConfig::default()
            },
            1,
        );
        let q = parse_query(
            "SELECT Calling_Plans.Plan_Id, Plan_Name, SUM(Charge) \
             FROM Calls, Calling_Plans \
             WHERE Calls.Plan_Id = Calling_Plans.Plan_Id AND Year = 1995 \
             GROUP BY Calling_Plans.Plan_Id, Plan_Name",
        )
        .unwrap();
        let out = execute(&q, &db).unwrap();
        assert!(!out.is_empty());
        assert!(out.len() <= 10);
    }

    #[test]
    fn nat_table_contents() {
        let nat = nat_table(5);
        assert_eq!(nat.len(), 5);
        assert_eq!(nat.rows[0], vec![Value::Int(1)]);
        assert_eq!(nat.rows[4], vec![Value::Int(5)]);
        assert!(nat_table(0).is_empty());
    }

    #[test]
    fn random_database_respects_keys() {
        let cat = telephony_catalog();
        let db = random_database(&cat, 30, 10, 3);
        // Calls is keyed on Call_Id with domain 10: the key-column domain
        // widens until all 30 requested rows exist, each with a distinct id.
        let calls = db.get("Calls").unwrap();
        assert_eq!(calls.len(), 30);
        let id_idx = calls.column_index("Call_Id").unwrap();
        let mut ids: Vec<&Value> = calls.rows.iter().map(|r| &r[id_idx]).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), calls.len());
    }

    #[test]
    fn random_database_fills_keyed_tables_past_a_tiny_domain() {
        let mut cat = Catalog::new();
        cat.add_table(TableSchema::new("K", ["id", "v"]).with_key(["id"]))
            .unwrap();
        // domain=2 can never supply 500 distinct keys without widening.
        let db = random_database(&cat, 500, 2, 11);
        let k = db.get("K").unwrap();
        assert_eq!(k.len(), 500);
        let mut ids: Vec<&Value> = k.rows.iter().map(|r| &r[0]).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 500, "key column stays duplicate-free");
        // The non-key column keeps the narrow domain.
        assert!(k
            .rows
            .iter()
            .all(|r| matches!(&r[1], Value::Int(x) if (0..2).contains(x))));
    }

    #[test]
    fn random_catalog_is_deterministic_and_bounded() {
        let a = random_catalog(9, 3, 4);
        let b = random_catalog(9, 3, 4);
        assert_eq!(
            a.tables().map(|t| &t.name).collect::<Vec<_>>(),
            b.tables().map(|t| &t.name).collect::<Vec<_>>()
        );
        for t in a.tables() {
            assert!((2..=4).contains(&t.arity()), "{}: {}", t.name, t.arity());
            assert!(t.keys.is_empty());
        }
        assert!(a.tables().count() >= 1 && a.tables().count() <= 3);
    }

    #[test]
    fn random_database_without_keys_allows_duplicates() {
        let mut cat = Catalog::new();
        cat.add_table(TableSchema::new("Bag", ["x"])).unwrap();
        let db = random_database(&cat, 100, 2, 5);
        assert_eq!(db.get("Bag").unwrap().len(), 100);
        assert!(db.get("Bag").unwrap().has_duplicates());
    }
}
