//! The seeded `telephony` dataset and the five request streams.
//!
//! Everything here is a pure function of the seed: the program under
//! test only ever sees the SQL text this module prints. Seeds change
//! the *values* (charges, which customer called on which day, which
//! constants a query asks about, the order inside a cycle) but never
//! the *shape* — row counts, group counts, the query mix and the view
//! pool are fixed — so two seeds cost the same and a run-to-run
//! difference is noise, not input.

use std::fmt::Write as _;

/// `Calling_Plans` rows.
pub const PLANS: i64 = 20;
/// Distinct `Cust_Id` values.
pub const CUSTOMERS: i64 = 5_000;
/// Distinct `Day` values.
pub const DAYS: i64 = 28;
/// Distinct `Month` values.
pub const MONTHS: i64 = 12;
/// The `Year` values present in the data.
pub const YEARS: [i64; 4] = [1994, 1995, 1996, 1997];
/// `Charge` is drawn from `0..CHARGE_MAX`.
pub const CHARGE_MAX: i64 = 500;
/// Rows per `INSERT` statement while loading.
pub const LOAD_BATCH: u64 = 500;
/// Distinct fingerprints `cold_search` cycles through (far above the
/// plan cache's 64 entries, so an LRU never holds the next one).
pub const COLD_VARIANTS: usize = 512;
/// Warm view reads after the probe in one write-workload cycle.
pub const READS_PER_CYCLE: usize = 8;

/// SplitMix64: one multiply-xorshift round per draw, and usable as a
/// stateless hash of `(seed, index)`.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A sequential generator over [`mix`].
pub struct Rng(u64);

impl Rng {
    /// A generator for one named purpose of one seed, so that streams
    /// drawn for different purposes never share draws.
    pub fn new(seed: u64, purpose: u64) -> Self {
        Rng(mix(seed ^ mix(purpose)))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// One `Calls` row: `[Call_Id, Cust_Id, Plan_Id, Day, Month, Year, Charge]`.
pub type CallRow = [i64; 7];

/// The row with key `call_id` — stateless, so the final-state check can
/// regenerate any row without keeping a second copy of the table.
pub fn call_row(seed: u64, call_id: u64) -> CallRow {
    let mut r = Rng::new(seed, call_id.wrapping_mul(0xA24B_AED4_963E_E407));
    [
        call_id as i64,
        r.below(CUSTOMERS as u64) as i64,
        1 + r.below(PLANS as u64) as i64,
        1 + r.below(DAYS as u64) as i64,
        1 + r.below(MONTHS as u64) as i64,
        YEARS[r.below(YEARS.len() as u64) as usize],
        r.below(CHARGE_MAX as u64) as i64,
    ]
}

pub fn plan_name(plan_id: i64) -> String {
    format!("plan{plan_id:02}")
}

fn insert_calls(seed: u64, first_id: u64, n: u64) -> String {
    let mut s = String::with_capacity(48 * n as usize + 32);
    s.push_str("INSERT INTO Calls VALUES ");
    for id in first_id..first_id + n {
        let r = call_row(seed, id);
        if id > first_id {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "({}, {}, {}, {}, {}, {}, {})",
            r[0], r[1], r[2], r[3], r[4], r[5], r[6]
        );
    }
    s
}

/// Which view pool a workload carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViewSet {
    /// `V1` (the paper's join view), the three single-table views and
    /// 28 decoys: 32 views.
    Read,
    /// The three single-table views and 8 decoys: join views take the
    /// recompute path on every insert and the sharded backend does not
    /// push joins down (see README.md, "The join-view gap").
    Write,
}

/// `(name, CREATE VIEW statement)` for every view of the pool.
pub fn views(set: ViewSet) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut push = |name: &str, body: &str| {
        out.push((name.to_string(), format!("CREATE VIEW {name} AS {body}")));
    };
    if set == ViewSet::Read {
        push(
            "V1",
            "SELECT Calls.Plan_Id, Plan_Name, Month, Year, SUM(Charge) AS Monthly_Earnings \
             FROM Calls, Calling_Plans WHERE Calls.Plan_Id = Calling_Plans.Plan_Id \
             GROUP BY Calls.Plan_Id, Plan_Name, Month, Year",
        );
    }
    push(
        "YearTotals",
        "SELECT Year, SUM(Charge) AS Total, COUNT(Charge) AS N FROM Calls GROUP BY Year",
    );
    // No SUM here on purpose: with one, the cost ranking would answer
    // Example 1.1's Q from `PlanYear JOIN Calling_Plans` (80 rows)
    // and the paper's V1 would never be read.
    push(
        "PlanYear",
        "SELECT Plan_Id, Year, COUNT(Charge) AS N, MIN(Charge) AS Low, MAX(Charge) AS Peak \
         FROM Calls GROUP BY Plan_Id, Year",
    );
    push(
        "PlanMonth",
        "SELECT Plan_Id, Month, Year, SUM(Charge) AS Total, COUNT(Charge) AS N \
         FROM Calls GROUP BY Plan_Id, Month, Year",
    );
    // Decoys: usable-looking aggregation views over `Calls`, each
    // pinned to a year no row has and no query asks for. The rewriter
    // must enumerate mappings for every one of them and reject it on
    // its predicate; the writer must run every one's delta filter.
    const DECOY_GROUPS: [(&str, &str); 6] = [
        ("Plan_Id", "Month"),
        ("Plan_Id", "Day"),
        ("Cust_Id", "Month"),
        ("Day", "Month"),
        ("Cust_Id", "Plan_Id"),
        ("Cust_Id", "Day"),
    ];
    let decoys = match set {
        ViewSet::Read => 28,
        ViewSet::Write => 8,
    };
    for i in 0..decoys {
        let (a, b) = DECOY_GROUPS[i % DECOY_GROUPS.len()];
        push(
            &format!("Slice{i:02}"),
            &format!(
                "SELECT {a}, {b}, SUM(Charge) AS Total, COUNT(Charge) AS N \
                 FROM Calls WHERE Year = {} GROUP BY {a}, {b}",
                1960 + i
            ),
        );
    }
    out
}

/// The statements that build a trial's state, in order: schema, plans,
/// `rows` calls in [`LOAD_BATCH`]-row inserts, then the views (so each
/// `CREATE VIEW` is a backfill over the full table).
pub fn load_script(seed: u64, rows: u64, set: ViewSet) -> Vec<String> {
    let mut script = vec![
        "CREATE TABLE Calling_Plans (Plan_Id, Plan_Name, KEY (Plan_Id))".to_string(),
        "CREATE TABLE Calls (Call_Id, Cust_Id, Plan_Id, Day, Month, Year, Charge, KEY (Call_Id))"
            .to_string(),
    ];
    let plans: Vec<String> = (1..=PLANS)
        .map(|p| format!("({p}, '{}')", plan_name(p)))
        .collect();
    script.push(format!(
        "INSERT INTO Calling_Plans VALUES {}",
        plans.join(", ")
    ));
    let mut first = 1;
    while first <= rows {
        let n = LOAD_BATCH.min(rows - first + 1);
        script.push(insert_calls(seed, first, n));
        first += n;
    }
    script.extend(views(set).into_iter().map(|(_, sql)| sql));
    script
}

/// What a request is, for the metrics: each workload has exactly one
/// probe query class, and latency medians are taken inside one class
/// only — never across queries of different cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// The workload's designated probe read (`read_p50_us`).
    Probe,
    /// Any other read.
    Read,
    /// An acked one-row `INSERT` (`write_p50_us`).
    Write,
}

/// The paper's Example 1.1 query `Q`, answered from `V1`.
pub fn example_q(year: i64, month_max: Option<i64>, having: i64) -> String {
    let month = month_max.map_or(String::new(), |m| format!(" AND Month <= {m}"));
    format!(
        "SELECT Calling_Plans.Plan_Id, Plan_Name, SUM(Charge) FROM Calls, Calling_Plans \
         WHERE Calls.Plan_Id = Calling_Plans.Plan_Id AND Year = {year}{month} \
         GROUP BY Calling_Plans.Plan_Id, Plan_Name HAVING SUM(Charge) < {having}"
    )
}

/// The base-table scan that follows every write in the write workloads.
/// No view exposes `Day` for the data's years, so it always runs on
/// `Calls` — and the first read after a publish pays for whatever the
/// publish threw away (the columnar cache; on shards, the union).
pub const WRITE_PROBE: &str = "SELECT Day, SUM(Charge) FROM Calls GROUP BY Day";

/// The Example-1.1-shaped join no view can answer (`Day` is in no join
/// view): `scan_join`'s probe.
pub const JOIN_PROBE: &str = "SELECT Plan_Name, Day, SUM(Charge) FROM Calls, Calling_Plans \
     WHERE Calls.Plan_Id = Calling_Plans.Plan_Id GROUP BY Plan_Name, Day";

/// Single-table reads answered from `YearTotals` / `PlanYear` /
/// `PlanMonth` — present in both view pools.
fn view_reads(seed: u64) -> Vec<String> {
    let mut r = Rng::new(seed, 1);
    let mut year = || YEARS[r.below(YEARS.len() as u64) as usize];
    vec![
        "SELECT Year, SUM(Charge) FROM Calls GROUP BY Year".to_string(),
        format!(
            "SELECT Plan_Id, MAX(Charge) FROM Calls WHERE Year = {} GROUP BY Plan_Id",
            year()
        ),
        format!(
            "SELECT Plan_Id, Month, COUNT(Charge) FROM Calls WHERE Year = {} \
             GROUP BY Plan_Id, Month",
            year()
        ),
        "SELECT Month, SUM(Charge) FROM Calls GROUP BY Month".to_string(),
        "SELECT Year, COUNT(Charge) FROM Calls GROUP BY Year".to_string(),
        "SELECT Plan_Id, Year, MIN(Charge) FROM Calls GROUP BY Plan_Id, Year".to_string(),
        "SELECT Plan_Id, SUM(Charge) FROM Calls GROUP BY Plan_Id".to_string(),
        format!(
            "SELECT Month, Year, SUM(Charge) FROM Calls WHERE Year = {} GROUP BY Month, Year",
            year()
        ),
    ]
}

/// One workload: its backend, its view pool and its request stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WarmRead,
    ColdSearch,
    ScanJoin,
    MixedRw,
    ShardedRw,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::WarmRead,
        Workload::ColdSearch,
        Workload::ScanJoin,
        Workload::MixedRw,
        Workload::ShardedRw,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmRead => "warm_read",
            Workload::ColdSearch => "cold_search",
            Workload::ScanJoin => "scan_join",
            Workload::MixedRw => "mixed_rw",
            Workload::ShardedRw => "sharded_rw",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line for `BENCHMARK.json` and `benchmark list`.
    pub fn why(self) -> &'static str {
        match self {
            Workload::WarmRead => {
                "6 view-answered fingerprints, plan cache hot: net, session, plan cache and \
                 parser do the work, the engine almost none"
            }
            Workload::ColdSearch => {
                "512 distinct fingerprints of Example 1.1's Q against 32 views: every request \
                 misses the plan cache and pays search, ranking and compile"
            }
            Workload::ScanJoin => {
                "3 queries no view can answer, plan cache hot: engine execution dominates and \
                 a net or core change must not move it"
            }
            Workload::MixedRw => {
                "durable store, fsync per ack: 1 insert, 1 base-table scan, 8 view reads per \
                 cycle; publish, maintenance and WAL sit beside reads"
            }
            Workload::ShardedRw => {
                "the mixed_rw stream on 4 durable shards: differs by exactly the sharded layer \
                 (routing, scatter-gather, union rebuild)"
            }
        }
    }

    pub fn view_set(self) -> ViewSet {
        match self {
            Workload::WarmRead | Workload::ColdSearch | Workload::ScanJoin => ViewSet::Read,
            Workload::MixedRw | Workload::ShardedRw => ViewSet::Write,
        }
    }

    pub fn shards(self) -> Option<usize> {
        (self == Workload::ShardedRw).then_some(4)
    }

    pub fn durable(self) -> bool {
        matches!(self, Workload::MixedRw | Workload::ShardedRw)
    }

    /// Does the measured stream itself write?
    pub fn writes(self) -> bool {
        self.durable()
    }
}

/// The request stream of one workload for one seed.
pub struct Stream {
    workload: Workload,
    seed: u64,
    /// Next `Call_Id` to insert.
    next_call_id: u64,
    /// The probe query.
    probe: String,
    /// Read workloads: the whole cycle, probe included, in stream
    /// order. Write workloads: the reads of one cycle (reshuffled
    /// every cycle).
    reads: Vec<String>,
    /// Position inside the current cycle.
    pos: usize,
    order: Rng,
    write_sql: String,
}

impl Stream {
    pub fn new(workload: Workload, seed: u64, rows: u64) -> Stream {
        let mut order = Rng::new(seed, 2);
        let (probe, reads) = match workload {
            Workload::WarmRead => {
                let probe = example_q(1995, None, 1_000_000);
                let mut singles = view_reads(seed);
                singles.truncate(4);
                let mut cycle = vec![
                    probe.clone(),
                    "SELECT Plan_Name, Year, SUM(Charge) FROM Calls, Calling_Plans \
                     WHERE Calls.Plan_Id = Calling_Plans.Plan_Id GROUP BY Plan_Name, Year"
                        .to_string(),
                ];
                cycle.extend(singles);
                order.shuffle(&mut cycle);
                (probe, cycle)
            }
            Workload::ColdSearch => {
                // Year x Month bound x HAVING threshold: 4 * 12 * 11 =
                // 528 variants of Q, of which the seed keeps 512.
                let mut variants = Vec::new();
                for year in YEARS {
                    for month in 1..=MONTHS {
                        for h in 0..11 {
                            variants.push(example_q(year, Some(month), 40_000 + 35_000 * h));
                        }
                    }
                }
                order.shuffle(&mut variants);
                variants.truncate(COLD_VARIANTS);
                (variants[0].clone(), variants)
            }
            Workload::ScanJoin => {
                let year = YEARS[order.below(YEARS.len() as u64) as usize];
                let mut cycle = vec![
                    JOIN_PROBE.to_string(),
                    "SELECT Cust_Id, SUM(Charge), COUNT(Call_Id) FROM Calls WHERE Cust_Id < 500 \
                     GROUP BY Cust_Id"
                        .to_string(),
                    format!("SELECT Day, MAX(Charge) FROM Calls WHERE Year = {year} GROUP BY Day"),
                ];
                order.shuffle(&mut cycle);
                (JOIN_PROBE.to_string(), cycle)
            }
            Workload::MixedRw | Workload::ShardedRw => (WRITE_PROBE.to_string(), view_reads(seed)),
        };
        Stream {
            workload,
            seed,
            next_call_id: rows + 1,
            probe,
            reads,
            pos: 0,
            order,
            write_sql: String::new(),
        }
    }

    pub fn probe(&self) -> &str {
        &self.probe
    }

    /// Every distinct read of the stream (the oracle's query set).
    pub fn distinct_reads(&self) -> Vec<String> {
        let mut all = self.reads.clone();
        if !all.contains(&self.probe) {
            all.insert(0, self.probe.clone());
        }
        all
    }

    /// A one-row insert of the next unused `Call_Id`.
    pub fn next_write(&mut self) -> &str {
        self.write_sql = insert_calls(self.seed, self.next_call_id, 1);
        self.next_call_id += 1;
        &self.write_sql
    }

    /// `Call_Id`s handed out by [`Stream::next_write`] so far are
    /// `first_written..next_call_id`.
    pub fn next_call_id(&self) -> u64 {
        self.next_call_id
    }

    /// The next request of the stream.
    pub fn next_request(&mut self) -> (Class, &str) {
        if self.workload.writes() {
            // Cycle: write, probe, then the view reads in a fresh order.
            let pos = self.pos;
            self.pos = (pos + 1) % (2 + READS_PER_CYCLE);
            return match pos {
                0 => {
                    self.order.shuffle(&mut self.reads);
                    (Class::Write, self.next_write())
                }
                1 => (Class::Probe, &self.probe),
                _ => (Class::Read, &self.reads[pos - 2]),
            };
        }
        let sql = &self.reads[self.pos];
        self.pos = (self.pos + 1) % self.reads.len();
        let class = if self.workload == Workload::ColdSearch || *sql == self.probe {
            // cold_search is one homogeneous family: every request is
            // a probe.
            Class::Probe
        } else {
            Class::Read
        };
        (class, sql)
    }
}
