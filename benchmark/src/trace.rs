//! The traced run: where the time of one request goes.
//!
//! The program has no tracing of its own yet (ROADMAP item 4), so the
//! benchmark records spans around *its own calls* into each layer's
//! public functions:
//!
//! * a **traced window** over TCP — one span per request — cut into
//!   slices that alternate with untraced slices of the same length
//!   (their difference is the tracing overhead), with the program's
//!   own counters read before and after;
//! * a **stepwise replay** of the probe: encode request → decode
//!   request → parse → canonicalize → plan-cache lookup → rewrite
//!   search → cost ranking → compile → run → encode outcome → decode
//!   response, each a child span of the replayed request;
//! * a **ladder** of the same probe at each boundary — compiled plan,
//!   local `Session`, `SharedStore` handle or sharded driver,
//!   `NetClient` — so adjacent rungs differ by one layer;
//! * one-off timings of the write path's building blocks.
//!
//! Nothing measured here is an end-to-end number, and end-to-end runs
//! never trace.

use crate::gen::{self, Class, Stream, ViewSet, Workload};
use crate::host;
use crate::metrics::PER_LAYER;
use crate::trial::{median, quantile, refresh, Driven, Harness, Live, ROWS, WARMUP};
use crate::RunReport;
use aggview::durability::image_from_state;
use aggview::engine::{execute_reference, multiset_eq, set_eq, ColumnarRelation, PhysicalPlan};
use aggview::net::protocol;
use aggview::net::{NetClient, NetServer, ServeBackend};
use aggview::obs::{CounterId, ObsSnapshot};
use aggview::plan_cache::{AnswerMeta, CacheKey, PlanCache, DEFAULT_PLAN_CACHE_CAP};
use aggview::rewrite::{Canonical, RewriteOptions, Rewriter};
use aggview::server::{StoreSnapshot, WriteOp};
use aggview::session::{Session, SessionOptions, StatementOutcome};
use aggview::sharded::UnionState;
use aggview::sql::{parse_query, parse_script, parse_statement, Statement};
use aggview::state::{EngineState, WritePolicy};
use aggview_store::{encode_image, Wal};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One recorded interval. `parent` indexes into the span list.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request_id: u64,
}

struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span that will enclose children; close it with `close`.
    fn open(&mut self, name: &'static str, request_id: u64) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: None,
            request_id,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.now_ns();
    }

    /// Record an interval that was timed elsewhere.
    fn record(&mut self, name: &'static str, start: Instant, end: Instant, request_id: u64) {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent: None,
            request_id,
        });
    }

    /// Time `f` as one span; returns its result and microseconds.
    fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request_id: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request_id,
        });
        (out, (end_ns - start_ns) as f64 / 1e3)
    }

    /// Time `n` repetitions of `f`, one span each; the median in
    /// microseconds, or the first error.
    fn reps<T, E: ToString>(
        &mut self,
        name: &'static str,
        n: u64,
        mut f: impl FnMut() -> Result<T, E>,
    ) -> Result<f64, String> {
        let mut samples = Vec::new();
        for i in 0..n {
            let (result, us) = self.time(name, None, i, &mut f);
            result.map_err(|e| e.to_string())?;
            samples.push(us);
        }
        Ok(median(&samples))
    }

    fn write(&self, path: &str) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        out.push_str("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"request_id\": {}}}",
                s.name, s.start_ns, s.end_ns, s.request_id
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]\n");
        std::fs::write(path, out)
    }
}

/// The state the backend currently serves, as the stepwise replay
/// needs it (catalog, relations, view definitions).
enum Served {
    Shared(Arc<StoreSnapshot>),
    Union(Box<UnionState>),
}

impl Served {
    fn of(backend: &ServeBackend) -> Result<Served, String> {
        match backend {
            ServeBackend::Shared(store) => Ok(Served::Shared(store.load())),
            ServeBackend::Sharded(store) => {
                let mut union = UnionState::new();
                union.ensure(store, None).map_err(|e| e.to_string())?;
                Ok(Served::Union(Box::new(union)))
            }
        }
    }

    fn state(&self) -> &EngineState {
        match self {
            Served::Shared(snapshot) => &snapshot.state,
            Served::Union(union) => union.state(),
        }
    }
}

fn insert_of(sql: &str) -> Result<aggview::sql::Insert, String> {
    match parse_statement(sql).map_err(|e| e.to_string())? {
        Statement::Insert(ins) => Ok(ins),
        _ => Err(format!("`{sql}` is not an INSERT")),
    }
}

/// Values collected under their metric names; anything never set is
/// reported as 0 (the layer does not run on this workload).
#[derive(Default)]
struct Collected(HashMap<&'static str, f64>);

impl Collected {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
        self.0.insert(name, value);
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

fn counter_delta(before: &Option<ObsSnapshot>, after: &Option<ObsSnapshot>, id: CounterId) -> f64 {
    match (before, after) {
        (Some(b), Some(a)) => a.counter(id).saturating_sub(b.counter(id)) as f64,
        _ => 0.0,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One boundary of the ladder: a name and how to push the `i`-th probe
/// through it.
type Rung<'a> = (&'static str, &'a mut dyn FnMut(usize) -> Result<(), String>);

/// Climb the ladder round-robin — one probe through every rung, then
/// the next probe — until `budget` is spent (at least 5 rounds, at most
/// `cap`), one span per call. Interleaving means a slow second on the
/// host slows every rung alike, so their differences stay meaningful.
/// Returns each rung's median in microseconds.
fn ladder(
    tracer: &mut Tracer,
    budget: Duration,
    cap: usize,
    rungs: &mut [Rung],
) -> Result<Vec<f64>, String> {
    let start = Instant::now();
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); rungs.len()];
    let mut round = 0;
    while round < cap && (round < 5 || start.elapsed() < budget) {
        for (k, (name, f)) in rungs.iter_mut().enumerate() {
            let (result, us) = tracer.time(name, None, round as u64, || f(round));
            result?;
            samples[k].push(us);
        }
        round += 1;
    }
    Ok(samples.iter().map(|s| median(s)).collect())
}

/// One traced run in progress.
struct Traced {
    workload: Workload,
    got: Collected,
    tracer: Tracer,
    harness: Harness,
    stream: Stream,
}

pub fn run(workload: Workload, seed: u64, window: Duration) -> Result<RunReport, String> {
    let calib_start = host::calib_us();
    let mut t = Traced {
        workload,
        got: Collected::default(),
        tracer: Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        },
        harness: Harness::new(workload, seed, ROWS),
        stream: Stream::new(workload, seed, ROWS),
    };
    let mut live = t.harness.boot()?;
    t.harness.oracle(&mut live)?;
    let Live {
        backend,
        server,
        client,
        loader,
        ..
    } = live;
    drop(loader);

    t.window(&backend, client, window)?;
    {
        let served = Served::of(&backend)?;
        let probe_plan = t.replay(served.state())?;
        t.ladder(served.state(), &probe_plan, &backend, &server)?;
        t.write_path_blocks(served.state())?;
    }
    t.live_writes(&backend)?;

    // Tear down; time the reopen of a durable directory.
    server.shutdown();
    drop(backend);
    if workload.durable() {
        let start = Instant::now();
        let reopened = t.harness.spec().build()?;
        let mut session = reopened.backend.session(SessionOptions::default());
        refresh(&mut session)?;
        t.got
            .set("store.recovery_ms", start.elapsed().as_secs_f64() * 1e3);
    }
    if let Some(dir) = t.harness.data_dir() {
        let _ = std::fs::remove_dir_all(dir);
    }

    t.got
        .set("host.hardware_threads", host::hardware_threads() as f64);
    t.got.set("host.loadavg_1m", host::loadavg_1m());
    t.got
        .set("host.calib_us", calib_start.min(host::calib_us()));

    let path = format!("benchmark/out/trace-{}.json", workload.name());
    std::fs::create_dir_all("benchmark/out").map_err(|e| e.to_string())?;
    t.tracer.write(&path).map_err(|e| format!("{path}: {e}"))?;
    eprintln!("# {} span(s) written to {path}", t.tracer.spans.len());
    for f in &t.harness.failures {
        eprintln!("FAILED: {f}");
    }
    Ok(RunReport {
        metrics: PER_LAYER
            .iter()
            .map(|m| (m.name, t.got.get(m.name), m.unit))
            .collect(),
        attempted: t.harness.attempted,
        failed: t.harness.failed,
    })
}

impl Traced {
    /// The traced window over TCP, in slices that alternate with
    /// untraced ones so that a slow second on the host does not read as
    /// tracing overhead; the program's counters before and after.
    fn window(
        &mut self,
        backend: &ServeBackend,
        mut client: NetClient,
        window: Duration,
    ) -> Result<(), String> {
        const SLICES: u32 = 4;
        let (harness, stream, tracer) = (&mut self.harness, &mut self.stream, &mut self.tracer);
        harness.drive(&mut client, stream, WARMUP, |_, _, _| {})?;
        let before = backend.obs_snapshot();
        let (mut plain_qps, mut traced_qps) = (0.0, 0.0);
        let mut traced = Driven::default();
        let mut seq = 0;
        for _ in 0..SLICES {
            let slice = window / SLICES;
            plain_qps += harness
                .drive(&mut client, stream, slice, |_, _, _| {})?
                .read_qps();
            let mut driven = harness.drive(&mut client, stream, slice, |class, start, end| {
                let name = match class {
                    Class::Probe => "request.probe",
                    Class::Read => "request.read",
                    Class::Write => "request.write",
                };
                seq += 1;
                tracer.record(name, start, end, seq);
            })?;
            traced_qps += driven.read_qps();
            traced.samples.append(&mut driven.samples);
        }
        let after = backend.obs_snapshot();
        let delta = |id| counter_delta(&before, &after, id);
        let got = &mut self.got;
        got.set(
            "trace.overhead_pct",
            100.0 * (plain_qps - traced_qps) / plain_qps,
        );
        let (hits, misses) = (
            delta(CounterId::PlanCacheHits),
            delta(CounterId::PlanCacheMisses),
        );
        got.set("plan_cache.hit_ratio", ratio(hits, hits + misses));
        let (vectorized, row) = (
            delta(CounterId::ExecVectorized),
            delta(CounterId::ExecRowFallback),
        );
        got.set(
            "engine.vectorized_ratio",
            ratio(vectorized, vectorized + row),
        );
        got.set(
            "sharded.fallback_ratio",
            ratio(
                delta(CounterId::ShardGatherFallbacks),
                delta(CounterId::ShardFanouts),
            ),
        );
        let requests = delta(CounterId::NetRequests);
        got.set(
            "net.bytes_in_per_req",
            ratio(delta(CounterId::NetBytesIn), requests),
        );
        got.set(
            "net.bytes_out_per_req",
            ratio(delta(CounterId::NetBytesOut), requests),
        );
        let class_p99 = |class| quantile(&traced.latencies(class), 0.99);
        got.set("tail.read_p99_us", class_p99(Class::Probe));
        got.set("tail.write_p99_us", class_p99(Class::Write));
        Ok(())
    }

    /// Push the probe through every layer's public function by hand,
    /// 30 times; each stage is a child span of its replay. Returns the
    /// probe's compiled plan (the ladder's bottom rung).
    fn replay(&mut self, state: &EngineState) -> Result<PhysicalPlan, String> {
        const REPLAYS: u64 = 30;
        let tracer = &mut self.tracer;
        let probe_sql = self.stream.probe().to_string();
        // The traced window may have written, so the reference answer
        // is taken on the state the replay runs on.
        let expected = execute_reference(
            &parse_query(&probe_sql).map_err(|e| e.to_string())?,
            &state.db,
        )
        .map_err(|e| format!("replay reference: {e}"))?;
        let mut cache = PlanCache::with_cap(DEFAULT_PLAN_CACHE_CAP);
        let mut stage: HashMap<&'static str, Vec<f64>> = HashMap::new();
        let mut probe_plan = None;
        for i in 0..REPLAYS {
            let id = 1_000_000 + i;
            let root = tracer.open("replay", id);
            // Adopt the span just recorded as a stage of this replay.
            let mut step = |tracer: &mut Tracer, metric: &'static str, us: f64| {
                let last = tracer.spans.len() - 1;
                tracer.spans[last].parent = Some(root);
                stage.entry(metric).or_default().push(us);
            };
            let (line, us) = tracer.time("net.encode_request", None, id, || {
                protocol::encode_request(id, &probe_sql, None)
            });
            step(tracer, "net.encode_request_us", us);
            let (request, us) = tracer.time("net.decode_request", None, id, || {
                protocol::decode_request(line.as_bytes())
            });
            step(tracer, "net.decode_request_us", us);
            request?;
            let (parsed, us) = tracer.time("sql.parse", None, id, || parse_script(&probe_sql));
            step(tracer, "sql.parse_us", us);
            let Some(Statement::Select(q)) = parsed.map_err(|e| e.to_string())?.into_iter().next()
            else {
                return Err("the probe is not a SELECT".to_string());
            };
            let (key, us) = tracer.time("core.canon", None, id, || {
                Canonical::from_query(&q, &state.db).map(|c| CacheKey::new(&c, q.output_names()))
            });
            step(tracer, "core.canon_us", us);
            let key = key.map_err(|e| format!("canon: {e:?}"))?;
            let (hit, us) = tracer.time("plan_cache.lookup", None, id, || {
                cache.lookup(&key).is_some()
            });
            if hit {
                step(tracer, "plan_cache.lookup_us", us);
            }
            let (searched, us) = tracer.time("core.rewrite", None, id, || {
                Rewriter::with_options(&state.catalog, RewriteOptions::default())
                    .rewrite_with_stats(&q, &state.views)
            });
            step(tracer, "core.rewrite_us", us);
            let (mut rewritings, search) = searched.map_err(|e| e.to_string())?;
            self.got
                .set("core.rewrite_attempted", search.candidates_attempted as f64);
            self.got
                .set("core.closure_hit_ratio", search.closure_hit_rate());
            let (_, us) = tracer.time("core.cost_rank", None, id, || {
                let stats = state.table_stats();
                rewritings.sort_by(|a, b| a.cost(&stats).total_cmp(&b.cost(&stats)));
            });
            step(tracer, "core.cost_rank_us", us);
            let best = rewritings.first();
            let executed = best.map_or(&q, |rw| &rw.query);
            let (plan, us) = tracer.time("engine.compile", None, id, || {
                PhysicalPlan::compile(executed, &state.db)
            });
            step(tracer, "engine.compile_us", us);
            let mut plan = plan.map_err(|e| e.to_string())?;
            plan.set_columnar(SessionOptions::default().columnar);
            let (relation, us) = tracer.time("engine.run", None, id, || plan.run(&state.db));
            // A span only: the metric comes from the ladder's bottom
            // rung, measured in the same rounds as the rungs above it.
            step(tracer, "replay.run_us", us);
            let relation = relation.map_err(|e| e.to_string())?;
            let set_semantics = best.is_some_and(|rw| rw.set_semantics);
            let agree = if set_semantics {
                set_eq(&relation, &expected)
            } else {
                multiset_eq(&relation, &expected)
            };
            self.harness.attempted += 1;
            if !agree {
                self.harness
                    .fail("replay: the stepwise answer disagrees with the reference".into());
            }
            let meta = AnswerMeta {
                executed: executed.to_string(),
                views_used: best.map_or(Vec::new(), |rw| rw.views_used.clone()),
                candidates: rewritings.len(),
                set_semantics,
            };
            let outcome = StatementOutcome::Answer {
                relation,
                executed: meta.executed.clone(),
                views_used: meta.views_used.clone(),
                candidates: meta.candidates,
                set_semantics,
                verified: None,
                elapsed_ms: 0.0,
                search: Box::new(search.clone()),
                obs: None,
            };
            if !hit {
                cache.store(key, best.cloned(), Some(plan.clone()), meta, search);
            }
            probe_plan = Some(plan);
            let (frame, us) = tracer.time("net.encode_outcome", None, id, || {
                protocol::encode_outcome(id, &outcome)
            });
            step(tracer, "net.encode_outcome_us", us);
            let (response, us) = tracer.time("net.decode_response", None, id, || {
                protocol::decode_response(frame.as_bytes())
            });
            step(tracer, "net.decode_response_us", us);
            response?;
            tracer.close(root);
        }
        for (metric, samples) in &stage {
            if *metric != "replay.run_us" {
                self.got.set(metric, median(samples));
            }
        }
        probe_plan.ok_or("the replay compiled no plan".to_string())
    }

    /// The probe class at each boundary, and what the differences
    /// between adjacent rungs say.
    fn ladder(
        &mut self,
        state: &EngineState,
        probe_plan: &PhysicalPlan,
        backend: &ServeBackend,
        server: &NetServer,
    ) -> Result<(), String> {
        // cold_search's probe class is "a fingerprint the cache has
        // not got": cycle through more variants than the cache holds.
        let cold = self.workload == Workload::ColdSearch;
        let cycle: Vec<String> = if cold {
            let mut all = self.stream.distinct_reads();
            all.truncate(2 * DEFAULT_PLAN_CACHE_CAP);
            all
        } else {
            vec![self.stream.probe().to_string()]
        };
        let statements: Vec<Statement> = cycle
            .iter()
            .map(|sql| parse_query(sql).map(Statement::Select))
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        let mut local = Session::new(SessionOptions::default());
        self.harness.load_into(&mut local)?;
        let mut handle = backend.session(SessionOptions::default());
        let mut client = NetClient::connect(server.addr()).map_err(|e| e.to_string())?;
        let in_process = |session: &mut Session, i: usize| {
            session
                .execute(&statements[i % statements.len()])
                .map(drop)
                .map_err(|e| e.to_string())
        };
        let backend_rung = match backend {
            ServeBackend::Shared(_) => "rung.shared_handle",
            ServeBackend::Sharded(_) => "rung.sharded_driver",
        };
        let attempted = &mut self.harness.attempted;
        let medians = ladder(
            &mut self.tracer,
            Duration::from_millis(2000),
            400,
            &mut [
                ("rung.plan_run", &mut |_| {
                    probe_plan
                        .run(&state.db)
                        .map(drop)
                        .map_err(|e| e.to_string())
                }),
                ("rung.local_session", &mut |i| in_process(&mut local, i)),
                (backend_rung, &mut |i| in_process(&mut handle, i)),
                ("rung.net_client", &mut |i| {
                    *attempted += 1;
                    match client.request(&cycle[i % cycle.len()]) {
                        Ok(Ok(_)) => Ok(()),
                        Ok(Err(e)) => Err(format!("error frame: {e}")),
                        Err(e) => Err(format!("transport: {e}")),
                    }
                }),
            ],
        )?;
        let (run_us, local_us, backend_us, rtt_us) =
            (medians[0], medians[1], medians[2], medians[3]);
        let got = &mut self.got;
        got.set("engine.run_us", run_us);
        got.set("session.local_execute_us", local_us);
        match backend {
            ServeBackend::Shared(_) => {
                got.set("server.shared_execute_us", backend_us);
                got.set("server.refresh_us", backend_us - local_us);
            }
            ServeBackend::Sharded(_) => got.set("sharded.execute_us", backend_us),
        }
        got.set("net.rtt_us", rtt_us);
        let wire = got.get("net.encode_request_us")
            + got.get("net.decode_request_us")
            + got.get("net.encode_outcome_us")
            + got.get("net.decode_response_us")
            + got.get("sql.parse_us");
        let mut executed = got.get("core.canon_us") + got.get("plan_cache.lookup_us") + run_us;
        if cold {
            executed += got.get("core.rewrite_us")
                + got.get("core.cost_rank_us")
                + got.get("engine.compile_us");
        }
        got.set("session.overhead_us", local_us - executed);
        got.set("net.socket_us", rtt_us - backend_us - wire);
        got.set(
            "trace.unattributed_pct",
            100.0 * (rtt_us - wire - executed) / rtt_us,
        );
        Ok(())
    }

    /// Building blocks of the write path, timed on the served state.
    fn write_path_blocks(&mut self, state: &EngineState) -> Result<(), String> {
        let policy = WritePolicy::default();
        let (tracer, got, stream) = (&mut self.tracer, &mut self.got, &mut self.stream);
        let calls = state.db.get("Calls").map_err(|e| e.to_string())?;
        let us = tracer.reps("engine.columnar_convert", 5, || {
            Ok::<_, String>(ColumnarRelation::from_rows(calls))
        })?;
        got.set("engine.columnar_convert_us", us);
        let us = tracer.reps("server.state_clone", 5, || Ok::<_, String>(state.clone()))?;
        got.set("server.state_clone_us", us);

        let mut scratch = state.clone();
        let us = tracer.reps("engine.maintain_incremental", 7, || {
            let ins = insert_of(stream.next_write())?;
            scratch.insert(&ins, policy).map_err(|e| e.to_string())
        })?;
        got.set("engine.maintain_incremental_us", us);
        let widest = match self.workload.view_set() {
            ViewSet::Read => "V1",
            ViewSet::Write => "PlanMonth",
        };
        let widest_sql = gen::views(self.workload.view_set())
            .into_iter()
            .find(|(name, _)| name == widest)
            .map(|(_, sql)| sql)
            .ok_or("the widest view is not in the pool")?;
        let mut copy = 0;
        let us = tracer.reps("engine.backfill", 3, || {
            copy += 1;
            let renamed = widest_sql.replacen(widest, &format!("Backfill{copy}"), 1);
            match parse_statement(&renamed).map_err(|e| e.to_string())? {
                Statement::CreateView(cv) => {
                    scratch.create_view(&cv, policy).map_err(|e| e.to_string())
                }
                _ => Err("the widest view is not a CREATE VIEW".to_string()),
            }
        })?;
        got.set("engine.backfill_us", us);
        drop(scratch);

        if !self.workload.durable() {
            return Ok(());
        }
        let mut bytes = 0;
        let us = tracer.reps("store.checkpoint_encode", 3, || {
            bytes = encode_image(&image_from_state(state, 1, 1)).len();
            Ok::<_, String>(())
        })?;
        got.set("store.checkpoint_encode_us", us);
        got.set("store.checkpoint_bytes", bytes as f64);
        let wal_path = format!("benchmark/out/trace-wal-{}", std::process::id());
        let _ = std::fs::remove_file(&wal_path);
        let (mut wal, _, _) =
            Wal::open(std::path::Path::new(&wal_path)).map_err(|e| format!("wal: {e}"))?;
        let (mut appends, mut syncs) = (Vec::new(), Vec::new());
        let mut record_bytes = 0;
        for epoch in 1..=20 {
            let payload = stream.next_write().to_string();
            let (n, us) = tracer.time("store.wal_append", None, epoch, || {
                wal.append(epoch, payload.as_bytes())
            });
            record_bytes = n.map_err(|e| format!("wal append: {e}"))?;
            appends.push(us);
            let (synced, us) = tracer.time("store.wal_sync", None, epoch, || wal.sync());
            synced.map_err(|e| format!("wal sync: {e}"))?;
            syncs.push(us);
        }
        drop(wal);
        let _ = std::fs::remove_file(&wal_path);
        got.set("store.wal_append_us", median(&appends));
        got.set("store.wal_sync_us", median(&syncs));
        got.set("store.wal_bytes_per_write", record_bytes as f64);
        Ok(())
    }

    /// The live write path: submit, queue, apply, publish — or, on
    /// shards, route and rebuild the union.
    fn live_writes(&mut self, backend: &ServeBackend) -> Result<(), String> {
        let (tracer, got, stream) = (&mut self.tracer, &mut self.got, &mut self.stream);
        match backend {
            ServeBackend::Shared(store) => {
                let stats = store.stats();
                let load = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed) as f64;
                let (wait0, work0, ops0, batches0) = (
                    load(&stats.queue_wait_ns),
                    load(&stats.apply_publish_ns),
                    load(&stats.batched_ops),
                    load(&stats.batches),
                );
                let us = tracer.reps("server.submit", 10, || {
                    let ins = insert_of(stream.next_write())?;
                    store
                        .submit(WriteOp::Insert(ins))
                        .map_err(|e| e.to_string())
                })?;
                got.set("server.submit_us", us);
                let ops = load(&stats.batched_ops) - ops0;
                got.set(
                    "server.queue_wait_us",
                    ratio(load(&stats.queue_wait_ns) - wait0, ops) / 1e3,
                );
                got.set(
                    "server.apply_publish_us",
                    ratio(load(&stats.apply_publish_ns) - work0, ops) / 1e3,
                );
                got.set(
                    "server.batch_mean",
                    ratio(ops, load(&stats.batches) - batches0),
                );
            }
            ServeBackend::Sharded(store) => {
                let mut union = UnionState::new();
                union.ensure(store, None).map_err(|e| e.to_string())?;
                let (mut submits, mut rebuilds) = (Vec::new(), Vec::new());
                for _ in 0..6 {
                    let ins = insert_of(stream.next_write())?;
                    let (applied, us) = tracer.time("sharded.submit", None, 0, || {
                        store.apply_write(WriteOp::Insert(ins))
                    });
                    applied.map_err(|e| e.to_string())?;
                    submits.push(us);
                    union.invalidate();
                    let (rebuilt, us) = tracer.time("sharded.union_rebuild", None, 0, || {
                        union.ensure(store, None).map(drop)
                    });
                    rebuilt.map_err(|e| e.to_string())?;
                    rebuilds.push(us);
                }
                got.set("sharded.submit_us", median(&submits));
                got.set("sharded.union_rebuild_us", median(&rebuilds));
            }
        }
        Ok(())
    }
}
