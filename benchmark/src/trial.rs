//! One trial: fresh backend → load → listen → first answer → oracle →
//! warm-up → measured window → final-state check → drain → drop →
//! (durable) reopen and verify.
//!
//! The program under test is driven in its shipped configuration:
//! `SessionOptions::default()`, `NetConfig::default()`, the backend
//! `BackendSpec::build()` hands out, one `NetClient` on loopback, one
//! request in flight.

use crate::gen::{self, Class, Stream, Workload};
use aggview::backend::BackendSpec;
use aggview::engine::{execute_reference, multiset_eq, set_eq, Database, Relation, Value};
use aggview::net::{NetClient, NetConfig, NetServer, ServeBackend};
use aggview::obs::CounterId;
use aggview::session::{Session, SessionOptions, StatementOutcome};
use aggview::sql::{parse_query, parse_script};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

/// `Calls` rows loaded before every trial. Tuned so a three-trial run
/// of the slowest workload stays under 30 s and `scan_join`'s 32 ms
/// probe still collects 150 samples in one window.
pub const ROWS: u64 = 50_000;
/// Unmeasured requests before the window opens.
pub const WARMUP: Duration = Duration::from_millis(500);
/// Acked one-row inserts timed after the window on workloads whose
/// stream does not write, so `write_p50_us` exists on every workload.
pub const TAIL_WRITES: usize = 9;
/// `cold_search` has 512 distinct queries and the reference executor
/// takes a full cross product per query; it checks this many of them.
pub const COLD_ORACLE_SAMPLE: usize = 4;
/// A read that refreshes a session's view of the store without
/// touching `Calls`.
const REFRESH: &str = "SELECT Plan_Id FROM Calling_Plans WHERE Plan_Id = 1";

/// What one trial measured.
#[derive(Debug, Clone, Default)]
pub struct Trial {
    pub setup_s: f64,
    pub read_qps: f64,
    pub read_p50_us: f64,
    pub read_p99_us: f64,
    pub probe_samples: usize,
    pub write_p50_us: f64,
    pub write_p99_us: f64,
    pub write_samples: usize,
    /// Plan-cache hits and misses during the window (the workload's
    /// own check that it does what its name says).
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Reopen time of the durable directory, when there is one.
    pub recovery_ms: f64,
}

/// What one stretch of a request stream did.
#[derive(Debug, Default)]
pub struct Driven {
    /// Reads completed.
    pub reads: u64,
    pub elapsed_s: f64,
    /// `(class, round trip in microseconds)` of every request, in order.
    pub samples: Vec<(Class, f64)>,
    /// `Call_Id`s of the acked inserts.
    pub acked: Vec<u64>,
}

impl Driven {
    /// Reads per second.
    pub fn read_qps(&self) -> f64 {
        self.reads as f64 / self.elapsed_s
    }

    /// The sorted round trips of one class.
    pub fn latencies(&self, class: Class) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| s.0 == class)
            .map(|s| s.1)
            .collect();
        v.sort_by(|a, b| a.total_cmp(b));
        v
    }
}

/// An order-independent identity of a bag of rows.
pub type Digest = (usize, u64);

pub fn digest(rel: &Relation) -> Digest {
    let sum = rel.rows.iter().fold(0u64, |acc, row| {
        let mut h = DefaultHasher::new();
        row.hash(&mut h);
        acc.wrapping_add(h.finish())
    });
    (rel.len(), sum)
}

/// A loaded backend with its front door open and one client connected.
pub struct Live {
    pub backend: ServeBackend,
    pub server: NetServer,
    pub client: NetClient,
    /// The session the data was loaded through; still pinned to the
    /// loaded state. Drop it before writing: it keeps that state alive.
    pub loader: Session,
    /// Build + load + views + listener + first answer.
    pub setup_s: f64,
}

/// Everything a run of one workload shares between its trials.
pub struct Harness {
    pub workload: Workload,
    pub seed: u64,
    pub rows: u64,
    script: Vec<String>,
    data_dir: Option<String>,
    /// Reference answers, computed once per run: every trial loads the
    /// same generated data, so a later trial whose data differed would
    /// disagree with them and fail.
    reference: HashMap<String, Relation>,
    /// `(view, digest of Calls)` → digest of the view once it has been
    /// compared with the reference executor on that table.
    verified_views: HashMap<(String, Digest), Digest>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Harness {
    pub fn new(workload: Workload, seed: u64, rows: u64) -> Harness {
        let data_dir = workload.durable().then(|| {
            format!(
                "benchmark/out/data-{}-{}",
                workload.name(),
                std::process::id()
            )
        });
        Harness {
            workload,
            seed,
            rows,
            script: gen::load_script(seed, rows, workload.view_set()),
            data_dir,
            reference: HashMap::new(),
            verified_views: HashMap::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    pub fn data_dir(&self) -> Option<&str> {
        self.data_dir.as_deref()
    }

    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(what);
        }
    }

    /// The backend recipe of this workload, in the shipped defaults.
    pub fn spec(&self) -> BackendSpec {
        BackendSpec::from_options(&SessionOptions::default())
            .shards(self.workload.shards())
            .data_dir(self.data_dir.clone())
    }

    fn clear_data_dir(&self) {
        if let Some(dir) = &self.data_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    /// Run the load script (schema, rows, views) through `session`.
    pub fn load_into(&self, session: &mut Session) -> Result<(), String> {
        for sql in &self.script {
            for stmt in parse_script(sql).map_err(|e| format!("load: {e}"))? {
                session.execute(&stmt).map_err(|e| format!("load: {e}"))?;
            }
        }
        Ok(())
    }

    /// Build a fresh backend, load it through a session, open the
    /// front door and get the first answer. Timed: this is `setup_s`.
    pub fn boot(&mut self) -> Result<Live, String> {
        self.clear_data_dir();
        let probe = Stream::new(self.workload, self.seed, self.rows)
            .probe()
            .to_string();
        let t0 = Instant::now();
        let built = self.spec().build()?;
        let mut loader = built.backend.session(SessionOptions::default());
        self.load_into(&mut loader)?;
        let server = NetServer::start(built.backend.clone(), "127.0.0.1:0", NetConfig::default())
            .map_err(|e| format!("listen: {e}"))?;
        let mut client = NetClient::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
        let first = client
            .request(&probe)
            .map_err(|e| format!("first request: {e}"))?;
        let setup_s = t0.elapsed().as_secs_f64();
        self.attempted += 1;
        if let Err(e) = first {
            self.fail(format!("first request answered with an error: {e}"));
        }
        Ok(Live {
            backend: built.backend,
            server,
            client,
            loader,
            setup_s,
        })
    }

    /// The queries the oracle checks before the window.
    pub fn oracle_queries(&self) -> Vec<String> {
        let mut all = Stream::new(self.workload, self.seed, self.rows).distinct_reads();
        if self.workload == Workload::ColdSearch {
            all.truncate(COLD_ORACLE_SAMPLE);
        }
        all
    }

    /// Bag-compare (set-compare where the outcome says so) every
    /// oracle query's answer over TCP with the reference executor on
    /// the same data. Returns how many requests it sent.
    pub fn oracle(&mut self, live: &mut Live) -> Result<u64, String> {
        refresh(&mut live.loader)?;
        let queries = self.oracle_queries();
        for sql in &queries {
            let sql = sql.clone();
            self.attempted += 1;
            let outcome = live
                .client
                .request(&sql)
                .map_err(|e| format!("oracle: {e}"))?;
            let (relation, set_semantics) = match outcome {
                Ok(StatementOutcome::Answer {
                    relation,
                    set_semantics,
                    ..
                }) => (relation, set_semantics),
                Ok(_) => {
                    self.fail(format!("oracle: `{sql}` returned no answer"));
                    continue;
                }
                Err(e) => {
                    self.fail(format!("oracle: `{sql}` failed: {e}"));
                    continue;
                }
            };
            if !self.reference.contains_key(&sql) {
                let q = parse_query(&sql).map_err(|e| format!("oracle: {e}"))?;
                let expected = execute_reference(&q, live.loader.database())
                    .map_err(|e| format!("oracle reference: {e}"))?;
                self.reference.insert(sql.clone(), expected);
            }
            let expected = &self.reference[&sql];
            let agree = if set_semantics {
                set_eq(&relation, expected)
            } else {
                multiset_eq(&relation, expected)
            };
            if !agree {
                self.fail(format!(
                    "oracle mismatch on `{sql}`: {} row(s), reference has {}",
                    relation.len(),
                    expected.len()
                ));
            }
        }
        Ok(queries.len() as u64)
    }

    /// Send one request and count it; returns when it left, when its
    /// answer was back, and whether the answer was not an error frame.
    fn timed(
        &mut self,
        client: &mut NetClient,
        sql: &str,
    ) -> Result<(Instant, Instant, bool), String> {
        self.attempted += 1;
        let start = Instant::now();
        let result = client.request(sql).map_err(|e| format!("transport: {e}"))?;
        let end = Instant::now();
        if let Err(e) = &result {
            self.fail(format!("error frame for `{sql}`: {e}"));
        }
        Ok((start, end, result.is_ok()))
    }

    /// Drive `stream` through `client`, one request in flight, for
    /// `span`. `observe` sees every request's class and its two
    /// instants (the traced run turns them into spans).
    pub fn drive(
        &mut self,
        client: &mut NetClient,
        stream: &mut Stream,
        span: Duration,
        mut observe: impl FnMut(Class, Instant, Instant),
    ) -> Result<Driven, String> {
        let mut driven = Driven::default();
        let begin = Instant::now();
        while begin.elapsed() < span {
            let id = stream.next_call_id();
            let (class, sql) = stream.next_request();
            let (start, end, ok) = self.timed(client, sql)?;
            observe(class, start, end);
            match class {
                Class::Write if ok => driven.acked.push(id),
                Class::Write => {}
                _ => driven.reads += 1,
            }
            driven
                .samples
                .push((class, (end - start).as_secs_f64() * 1e6));
        }
        driven.elapsed_s = begin.elapsed().as_secs_f64();
        Ok(driven)
    }

    /// One full trial.
    pub fn trial(&mut self, warmup: Duration, window: Duration) -> Result<Trial, String> {
        let mut live = self.boot()?;
        let mut trial = Trial {
            setup_s: live.setup_s,
            ..Trial::default()
        };
        let mut sent = 1 + self.oracle(&mut live)?;
        let Live {
            backend,
            server,
            mut client,
            loader,
            ..
        } = live;
        // The loader pins the loaded state; a writer would have to
        // keep both alive.
        drop(loader);

        let mut stream = Stream::new(self.workload, self.seed, self.rows);
        let warm = self.drive(&mut client, &mut stream, warmup, |_, _, _| {})?;
        let before = cache_counters(&backend);
        let mut measured = self.drive(&mut client, &mut stream, window, |_, _, _| {})?;
        let after = cache_counters(&backend);
        trial.read_qps = measured.read_qps();
        trial.cache_hits = after.0 - before.0;
        trial.cache_misses = after.1 - before.1;
        sent += (warm.samples.len() + measured.samples.len()) as u64;
        let mut acked = warm.acked;
        acked.append(&mut measured.acked);

        if !self.workload.writes() {
            for _ in 0..TAIL_WRITES {
                let id = stream.next_call_id();
                let sql = stream.next_write().to_string();
                let (start, end, ok) = self.timed(&mut client, &sql)?;
                sent += 1;
                if ok {
                    acked.push(id);
                }
                measured
                    .samples
                    .push((Class::Write, (end - start).as_secs_f64() * 1e6));
            }
        }
        let probes = measured.latencies(Class::Probe);
        let writes = measured.latencies(Class::Write);
        trial.probe_samples = probes.len();
        trial.read_p50_us = quantile(&probes, 0.50);
        trial.read_p99_us = quantile(&probes, 0.99);
        trial.write_samples = writes.len();
        trial.write_p50_us = quantile(&writes, 0.50);
        trial.write_p99_us = quantile(&writes, 0.99);

        // Final state, before anything is torn down.
        let mut checker = backend.session(SessionOptions::default());
        refresh(&mut checker)?;
        let view_digests = self.check_state(&checker, &acked, None);
        drop(checker);

        // Graceful drain: every request this client sent was answered.
        drop(client);
        let drained = server.shutdown();
        if drained.requests != sent || drained.connections != 1 || drained.rejects != 0 {
            self.fail(format!(
                "drain: server counted {drained:?}, client sent {sent} on one connection"
            ));
        }
        drop(backend);

        if self.workload.durable() {
            // Every acked row must survive the store being dropped and
            // reopened from its directory alone.
            let t = Instant::now();
            let reopened = self.spec().build()?;
            let mut session = reopened.backend.session(SessionOptions::default());
            refresh(&mut session)?;
            trial.recovery_ms = t.elapsed().as_secs_f64() * 1e3;
            self.check_state(&session, &acked, Some(&view_digests));
        }
        self.clear_data_dir();
        Ok(trial)
    }

    /// Compare the tables with a replay of the acked writes and every
    /// view with the reference executor (or, after a reopen, with the
    /// digests taken before the store was dropped). Returns the view
    /// digests.
    fn check_state(
        &mut self,
        session: &Session,
        acked: &[u64],
        expect_views: Option<&HashMap<String, Digest>>,
    ) -> HashMap<String, Digest> {
        let db = session.database();
        let what = if expect_views.is_some() {
            "after reopen"
        } else {
            "final state"
        };
        if let Err(e) = check_tables(db, self.seed, self.rows, acked) {
            self.fail(format!("{what}: {e}"));
        }
        let calls = db.get("Calls").map(digest).unwrap_or_default();
        let mut digests = HashMap::new();
        for view in session.views() {
            let Ok(stored) = db.get(&view.name) else {
                self.fail(format!("{what}: view `{}` has no relation", view.name));
                continue;
            };
            let have = digest(stored);
            digests.insert(view.name.clone(), have);
            let expected = match expect_views {
                Some(before) => before.get(&view.name).copied(),
                None => self
                    .verified_views
                    .get(&(view.name.clone(), calls))
                    .copied(),
            };
            let agree = match expected {
                Some(d) => d == have,
                None => match execute_reference(&view.query, db) {
                    Ok(reference) => {
                        let ok = multiset_eq(stored, &reference);
                        if ok {
                            self.verified_views.insert((view.name.clone(), calls), have);
                        }
                        ok
                    }
                    Err(_) => false,
                },
            };
            if !agree {
                self.fail(format!(
                    "{what}: view `{}` disagrees with the reference",
                    view.name
                ));
            }
        }
        let expected_views = gen::views(self.workload.view_set()).len();
        if digests.len() != expected_views {
            self.fail(format!(
                "{what}: {} view(s) present, {expected_views} created",
                digests.len()
            ));
        }
        digests
    }
}

/// Make `session` see the store's current state.
pub fn refresh(session: &mut Session) -> Result<(), String> {
    for stmt in parse_script(REFRESH).map_err(|e| e.to_string())? {
        session
            .execute(&stmt)
            .map_err(|e| format!("refresh: {e}"))?;
    }
    Ok(())
}

fn cache_counters(backend: &ServeBackend) -> (u64, u64) {
    backend.obs_snapshot().map_or((0, 0), |s| {
        (
            s.counter(CounterId::PlanCacheHits),
            s.counter(CounterId::PlanCacheMisses),
        )
    })
}

/// `Calling_Plans` holds the 20 plans; `Calls` holds exactly the
/// loaded rows plus every acked insert, each once, each with the
/// values the generator gave it.
fn check_tables(db: &Database, seed: u64, rows: u64, acked: &[u64]) -> Result<(), String> {
    let plans = db.get("Calling_Plans").map_err(|e| e.to_string())?;
    let mut expected: Vec<Vec<Value>> = (1..=gen::PLANS)
        .map(|p| vec![Value::Int(p), Value::Str(gen::plan_name(p))])
        .collect();
    expected.sort_by(|a, b| a[0].cmp_total(&b[0]));
    if plans.sorted_rows() != expected {
        return Err("Calling_Plans differs from what was loaded".to_string());
    }
    let calls = db.get("Calls").map_err(|e| e.to_string())?;
    let max_id = acked.iter().copied().max().unwrap_or(0).max(rows) as usize;
    // 0 = not expected, 1 = expected, 2 = seen.
    let mut state = vec![0u8; max_id + 1];
    state[1..=rows as usize].fill(1);
    for &id in acked {
        state[id as usize] = 1;
    }
    for row in &calls.rows {
        let id = match row.first() {
            Some(Value::Int(id)) if *id >= 1 && (*id as usize) <= max_id => *id as usize,
            other => return Err(format!("Calls holds a row keyed {other:?}")),
        };
        match state[id] {
            1 => state[id] = 2,
            0 => return Err(format!("Calls holds row {id}, which was never acked")),
            _ => return Err(format!("Calls holds row {id} twice")),
        }
        let want = gen::call_row(seed, id as u64);
        let same =
            row.len() == want.len() && row.iter().zip(want).all(|(have, w)| *have == Value::Int(w));
        if !same {
            return Err(format!("Calls row {id} has the wrong values: {row:?}"));
        }
    }
    match state.iter().position(|s| *s == 1) {
        Some(id) => Err(format!("acked Calls row {id} is missing")),
        None => Ok(()),
    }
}

/// The median as Python's `statistics.median` gives it (the mean of
/// the two middle values of an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The `q`-quantile of sorted samples (nearest rank); 0 when empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}
