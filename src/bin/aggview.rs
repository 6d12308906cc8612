//! The `aggview` CLI: run SQL scripts whose `SELECT` statements are
//! answered from materialized views whenever the rewriter proves one
//! usable.
//!
//! ```text
//! aggview [FLAGS] [script.sql ...]      # no files: read stdin
//! aggview serve [--sessions K] [--metrics] [--data-dir DIR] [FLAGS] [script.sql ...]
//!                                       # shared store, K session handles,
//!                                       # statements round-robin across them;
//!                                       # --data-dir makes the store durable
//!                                       # (WAL + checkpoints, recovered on
//!                                       # the next serve over the same DIR)
//! aggview serve --listen ADDR [--max-conns N] [--max-inflight N] [--shards N]
//!               [--data-dir DIR] [--metrics] [FLAGS] [preload.sql ...]
//!                                       # TCP front door: newline-delimited
//!                                       # JSON requests, one session per
//!                                       # connection; prints the bound
//!                                       # address, serves until
//!                                       # SIGTERM/SIGINT, then drains
//! aggview net-client --connect ADDR [--tenant T] [script.sql ...]
//!                                       # run a script against a remote
//!                                       # server, output identical to the
//!                                       # in-process runner
//! aggview metrics [--human] [FLAGS] [script.sql ...]
//!                                       # run a script silently, dump the
//!                                       # observability snapshot (Prometheus
//!                                       # text format unless --human)
//! aggview advise [FLAGS] [script.sql ...]
//!                                       # run a script silently, then print
//!                                       # the advisor's ranked view proposals
//!                                       # for the observed workload
//!
//!   --verify         cross-check every rewritten answer against base tables
//!   --expand         enable the footnote-3 Nat-table expansion
//!   --paper-va       use the paper's V^a strategy instead of weighted sums
//!   --no-multi       single-view rewritings only
//!   --no-plan-cache  disable the serving-plan cache (full search per SELECT)
//!   --no-columnar    force the row-at-a-time interpreter (disable the
//!                    vectorized columnar execution path)
//!   --no-obs         disable the observability layer entirely (no registry,
//!                    no spans; EXPLAIN ANALYZE becomes an error)
//!   --slow-ms N      slow-query ring threshold in milliseconds (default 100)
//!   --advisor MODE   adaptive view advisor: `off` (default), `suggest`
//!                    (proposals on demand only), or `auto` (materialize the
//!                    best in-budget proposal for hot query shapes)
//!   --shards N       hash-partition base tables across N shard stores and
//!                    answer SELECTs by scatter-gather (partial-aggregate
//!                    re-aggregation); N=0/absent keeps the local backend
//!   --interactive    REPL: read statements from stdin, execute per `;`
//!                    (`:stats` toggles per-query pipeline observability,
//!                    `:metrics` dumps the session-cumulative snapshot,
//!                    `:advise` prints ranked view proposals)
//! ```
//!
//! Script statements: `CREATE TABLE t (col, ..., KEY (col, ...))`,
//! `CREATE VIEW v AS SELECT ...`, `INSERT INTO t VALUES (...), ...`,
//! `SELECT ...`, `EXPLAIN SELECT ...`, `EXPLAIN ANALYZE SELECT ...` —
//! semicolon-separated, `--` comments.

use aggview::advisor::AdvisorPolicy;
use aggview::backend::BackendSpec;
use aggview::net::{NetClient, NetConfig, NetServer};
use aggview::obs::{Format, MetricsRegistry, Stage};
use aggview::rewrite::Strategy;
use aggview::session::{Session, SessionOptions, StatementOutcome};
use aggview::sql::{parse_script, Statement};
use std::io::{BufRead, Read, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("serve") => return serve(&argv[1..]),
        Some("metrics") => return metrics(&argv[1..]),
        Some("advise") => return advise(&argv[1..]),
        Some("net-client") => return net_client(&argv[1..]),
        _ => {}
    }
    let mut options = SessionOptions::default();
    let mut files: Vec<String> = Vec::new();
    let mut interactive = false;
    let mut shards: Option<usize> = None;
    let mut iter = argv.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            flag if session_flag(flag, &mut options) => {}
            "--slow-ms" => match parse_slow_ms(iter.next()) {
                Some(ms) => options.obs.slow_query_ms = ms,
                None => return ExitCode::FAILURE,
            },
            "--advisor" => match parse_advisor(iter.next()) {
                Some(policy) => options.advisor = policy,
                None => return ExitCode::FAILURE,
            },
            "--shards" => match iter.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(0) => shards = None,
                Some(n) => shards = Some(n),
                None => {
                    eprintln!("error: --shards needs a non-negative integer");
                    return ExitCode::FAILURE;
                }
            },
            "--interactive" | "-i" => interactive = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: aggview [--verify] [--expand] [--paper-va] [--no-multi] \
                            [--no-plan-cache] [--no-columnar] [--no-obs] [--slow-ms N] \
                            [--advisor MODE] [--shards N] [--interactive] [script.sql ...]\n       \
                            aggview serve [--sessions K] [--metrics] [--data-dir DIR] [FLAGS] [script.sql ...]\n       \
                            aggview serve --listen ADDR [--max-conns N] [--max-inflight N] \
                            [--shards N] [--data-dir DIR] [--metrics] [FLAGS] [preload.sql ...]\n       \
                            aggview net-client --connect ADDR [--tenant T] [script.sql ...]\n       \
                            aggview metrics [--human] [FLAGS] [script.sql ...]\n       \
                            aggview advise [FLAGS] [script.sql ...]"
                );
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag `{flag}` (try --help)");
                return ExitCode::FAILURE;
            }
            file => files.push(file.to_string()),
        }
    }

    if interactive {
        return repl(options, shards);
    }

    let source = match read_source(&files) {
        Ok(s) => s,
        Err(code) => return code,
    };
    // The session exists before parsing so the parse span lands in its
    // registry — the Parse stage is part of the pipeline, not overhead.
    let mut session = make_session(options, shards);
    let statements = match parse_timed(&source, session.metrics().map(|m| &**m)) {
        Ok(s) => s,
        Err(code) => return code,
    };
    for stmt in &statements {
        println!("aggview> {stmt}");
        match session.execute(stmt) {
            Ok(outcome) => print!("{outcome}"),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
        println!();
    }
    ExitCode::SUCCESS
}

/// Apply one of the session flags every subcommand shares (`--verify`,
/// `--no-columnar`, `--no-plan-cache`, ...). Returns false when `arg` is
/// not one of them, so callers fall through to their own flags.
fn session_flag(arg: &str, options: &mut SessionOptions) -> bool {
    match arg {
        "--verify" => options.verify = true,
        "--expand" => options.rewrite.enable_expand = true,
        "--paper-va" => options.rewrite.strategy = Strategy::PaperFaithful,
        "--no-multi" => options.rewrite.multi_view = false,
        "--no-plan-cache" => options.plan_cache_cap = 0,
        "--no-columnar" => options.columnar = false,
        "--no-obs" => options.obs.enabled = false,
        _ => return false,
    }
    true
}

/// A local session, or (under `--shards N`) the driver session of a fresh
/// sharded store whose write policy mirrors the session options. The
/// session holds a clone of the store, which keeps the shard writer
/// threads alive for its lifetime.
fn make_session(options: SessionOptions, shards: Option<usize>) -> Session {
    match shards {
        Some(_) => BackendSpec::from_options(&options)
            .shards(shards)
            .build()
            .expect("in-memory backend builds")
            .backend
            .session(options),
        None => Session::new(options),
    }
}

/// Parse the `--slow-ms` operand (reports its own error).
fn parse_slow_ms(value: Option<&String>) -> Option<u64> {
    let parsed = value.and_then(|v| v.parse::<u64>().ok());
    if parsed.is_none() {
        eprintln!("error: --slow-ms needs a non-negative integer");
    }
    parsed
}

/// Parse the `--advisor` operand into a policy (reports its own error).
fn parse_advisor(value: Option<&String>) -> Option<AdvisorPolicy> {
    let Some(mode) = value else {
        eprintln!("error: --advisor needs a mode (off, suggest, or auto)");
        return None;
    };
    match AdvisorPolicy::from_mode_str(mode) {
        Ok(policy) => Some(policy),
        Err(e) => {
            eprintln!("error: {e}");
            None
        }
    }
}

/// Concatenate the named script files, or read stdin when none given.
fn read_source(files: &[String]) -> Result<String, ExitCode> {
    let mut source = String::new();
    if files.is_empty() {
        if std::io::stdin().read_to_string(&mut source).is_err() {
            eprintln!("error: failed to read stdin");
            return Err(ExitCode::FAILURE);
        }
    } else {
        for f in files {
            match std::fs::read_to_string(f) {
                Ok(text) => {
                    source.push_str(&text);
                    source.push('\n');
                }
                Err(e) => {
                    eprintln!("error: cannot read `{f}`: {e}");
                    return Err(ExitCode::FAILURE);
                }
            }
        }
    }
    Ok(source)
}

/// Parse a script under a `Parse` stage span (when a registry is
/// attached), reporting parse errors to stderr.
fn parse_timed(
    source: &str,
    metrics: Option<&MetricsRegistry>,
) -> Result<Vec<Statement>, ExitCode> {
    let _span = metrics.map(|m| m.span(Stage::Parse));
    match parse_script(source) {
        Ok(s) => Ok(s),
        Err(e) => {
            eprintln!("parse error: {e}");
            Err(ExitCode::FAILURE)
        }
    }
}

/// `aggview serve`: execute a script against a [`SharedStore`] through K
/// session handles, round-robin one statement per handle. Every handle
/// shares the catalog, the materialized views, and the group indexes;
/// each keeps a private plan cache. The tail line reports the store
/// counters (epoch, publishes, batch sizes); `--metrics` appends the
/// store-wide observability snapshot in Prometheus text format.
/// `--data-dir DIR` backs the store with a WAL + checkpoints in DIR:
/// writes are fsynced before they are acknowledged, and a later
/// `serve --data-dir DIR` recovers the tables and views first.
fn serve(args: &[String]) -> ExitCode {
    let mut options = SessionOptions::default();
    let mut files: Vec<String> = Vec::new();
    let mut sessions = 2usize;
    let mut show_metrics = false;
    let mut data_dir: Option<String> = None;
    let mut listen: Option<String> = None;
    let mut shards: Option<usize> = None;
    let mut net = NetConfig::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            flag if session_flag(flag, &mut options) => {}
            "--metrics" => show_metrics = true,
            "--slow-ms" => match parse_slow_ms(iter.next()) {
                Some(ms) => options.obs.slow_query_ms = ms,
                None => return ExitCode::FAILURE,
            },
            "--advisor" => match parse_advisor(iter.next()) {
                Some(policy) => options.advisor = policy,
                None => return ExitCode::FAILURE,
            },
            "--sessions" => match iter.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(k) if k >= 1 => sessions = k,
                _ => {
                    eprintln!("error: --sessions needs a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            "--data-dir" => match iter.next() {
                Some(dir) => data_dir = Some(dir.clone()),
                None => {
                    eprintln!("error: --data-dir needs a directory path");
                    return ExitCode::FAILURE;
                }
            },
            "--listen" => match iter.next() {
                Some(addr) => listen = Some(addr.clone()),
                None => {
                    eprintln!("error: --listen needs an address (e.g. 127.0.0.1:0)");
                    return ExitCode::FAILURE;
                }
            },
            "--shards" => match iter.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(0) => shards = None,
                Some(n) => shards = Some(n),
                None => {
                    eprintln!("error: --shards needs a non-negative integer");
                    return ExitCode::FAILURE;
                }
            },
            "--max-conns" => match iter.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => net.max_connections = n,
                _ => {
                    eprintln!("error: --max-conns needs a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            "--max-inflight" => match iter.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => net.max_inflight = n,
                _ => {
                    eprintln!("error: --max-inflight needs a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag `{flag}` (try --help)");
                return ExitCode::FAILURE;
            }
            file => files.push(file.to_string()),
        }
    }
    if show_metrics && !options.obs.enabled {
        eprintln!("error: --metrics needs observability enabled (drop --no-obs)");
        return ExitCode::FAILURE;
    }
    if let Some(addr) = listen {
        return serve_net(&addr, options, net, shards, data_dir, files, show_metrics);
    }
    if shards.is_some() {
        eprintln!("error: serve --shards needs --listen (script mode serves a shared store)");
        return ExitCode::FAILURE;
    }

    let source = match read_source(&files) {
        Ok(s) => s,
        Err(code) => return code,
    };

    let (store, recovery) = match BackendSpec::from_options(&options)
        .data_dir(data_dir)
        .build_shared()
    {
        Ok(built) => built,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(banner) = recovery {
        eprintln!("{banner}");
    }
    let statements = match parse_timed(&source, store.metrics().map(|m| &**m)) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let mut handles: Vec<Session> = (0..sessions)
        .map(|_| store.session(options.clone()))
        .collect();
    for (i, stmt) in statements.iter().enumerate() {
        let h = i % handles.len();
        println!("s{h}> {stmt}");
        match handles[h].execute(stmt) {
            Ok(outcome) => print!("{outcome}"),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
        println!();
    }
    let summary = store.store_section().summary();
    let tail = summary.strip_prefix("store: ").unwrap_or(&summary);
    println!("-- store: sessions={sessions} {tail}");
    if show_metrics {
        if let Some(snap) = store.obs_snapshot() {
            print!("{}", snap.render(Format::Prometheus));
        }
    }
    ExitCode::SUCCESS
}

/// SIGINT/SIGTERM latch for `serve --listen`, installed through the libc
/// `signal` symbol directly (no signal-handling crate in this offline
/// tree). The handler only stores an atomic flag — async-signal-safe —
/// which the serve supervisor polls between sleeps.
mod shutdown_signal {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static REQUESTED: AtomicBool = AtomicBool::new(false);

    #[cfg(unix)]
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    #[cfg(unix)]
    extern "C" fn latch(_signum: i32) {
        REQUESTED.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        #[cfg(unix)]
        unsafe {
            const SIGINT: i32 = 2;
            const SIGTERM: i32 = 15;
            signal(SIGINT, latch as extern "C" fn(i32) as usize);
            signal(SIGTERM, latch as extern "C" fn(i32) as usize);
        }
    }

    pub fn requested() -> bool {
        REQUESTED.load(Ordering::SeqCst)
    }
}

/// `aggview serve --listen`: bind the TCP front door over a shared (or
/// sharded, or durable) store and serve until SIGTERM/SIGINT, then drain
/// gracefully. Script files given on the command line are preloaded into
/// the store before the listener starts accepting.
fn serve_net(
    addr: &str,
    options: SessionOptions,
    mut net: NetConfig,
    shards: Option<usize>,
    data_dir: Option<String>,
    files: Vec<String>,
    show_metrics: bool,
) -> ExitCode {
    let backend = match BackendSpec::from_options(&options)
        .shards(shards)
        .data_dir(data_dir)
        .build()
    {
        Ok(built) => {
            if let Some(banner) = &built.recovery {
                eprintln!("{banner}");
            }
            built.backend
        }
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    if !files.is_empty() {
        let source = match read_source(&files) {
            Ok(s) => s,
            Err(code) => return code,
        };
        let mut preload = backend.session(options.clone());
        let statements = match parse_timed(&source, preload.metrics().map(|m| &**m)) {
            Ok(s) => s,
            Err(code) => return code,
        };
        if let Err(e) = preload.run_script(&statements) {
            eprintln!("error: preload failed: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("-- preloaded {} statement(s)", statements.len());
    }

    net.options = options;
    let server = match NetServer::start(backend.clone(), addr, net) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: cannot listen on `{addr}`: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The port line goes to stdout (scripts parse it to find an
    // ephemeral port) and must not sit in a buffer.
    println!("-- listening on {}", server.addr());
    let _ = std::io::stdout().flush();

    shutdown_signal::install();
    while !shutdown_signal::requested() {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    eprintln!("-- draining");
    let summary = server.shutdown();
    println!(
        "-- drained: connections={} requests={} rejects={}",
        summary.connections, summary.requests, summary.rejects
    );
    if show_metrics {
        if let Some(snap) = backend.obs_snapshot() {
            print!("{}", snap.render(Format::Prometheus));
        }
    }
    ExitCode::SUCCESS
}

/// `aggview net-client --connect ADDR`: run a script against a remote
/// `serve --listen` server, printing each statement and its outcome in
/// exactly the in-process runner's format (so a transcript diff proves
/// the wire path byte-identical, timing tokens aside).
fn net_client(args: &[String]) -> ExitCode {
    let mut connect: Option<String> = None;
    let mut tenant: Option<String> = None;
    let mut files: Vec<String> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--connect" => match iter.next() {
                Some(addr) => connect = Some(addr.clone()),
                None => {
                    eprintln!("error: --connect needs an address");
                    return ExitCode::FAILURE;
                }
            },
            "--tenant" => match iter.next() {
                Some(name) => tenant = Some(name.clone()),
                None => {
                    eprintln!("error: --tenant needs a name");
                    return ExitCode::FAILURE;
                }
            },
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag `{flag}` (try --help)");
                return ExitCode::FAILURE;
            }
            file => files.push(file.to_string()),
        }
    }
    let Some(addr) = connect else {
        eprintln!("error: net-client needs --connect ADDR");
        return ExitCode::FAILURE;
    };
    let source = match read_source(&files) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let statements = match parse_timed(&source, None) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let mut client = match NetClient::connect(&addr) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("error: cannot connect to `{addr}`: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(name) = tenant {
        client = client.with_tenant(name);
    }
    for stmt in &statements {
        println!("aggview> {stmt}");
        match client.request(&stmt.to_string()) {
            Ok(Ok(outcome)) => print!("{outcome}"),
            Ok(Err(e)) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("error: transport failure: {e}");
                return ExitCode::FAILURE;
            }
        }
        println!();
    }
    ExitCode::SUCCESS
}

/// `aggview metrics`: execute a script with per-statement output
/// suppressed, then dump the session's observability snapshot. The dump
/// is the whole of stdout, so it pipes straight into a scraper or
/// `promtool check metrics`. `--human` renders the human form (stage
/// latency table, slow queries) instead of Prometheus text exposition.
fn metrics(args: &[String]) -> ExitCode {
    let mut options = SessionOptions::default();
    let mut files: Vec<String> = Vec::new();
    let mut format = Format::Prometheus;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            flag if session_flag(flag, &mut options) => {}
            "--human" => format = Format::Human,
            "--slow-ms" => match parse_slow_ms(iter.next()) {
                Some(ms) => options.obs.slow_query_ms = ms,
                None => return ExitCode::FAILURE,
            },
            "--advisor" => match parse_advisor(iter.next()) {
                Some(policy) => options.advisor = policy,
                None => return ExitCode::FAILURE,
            },
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag `{flag}` (try --help)");
                return ExitCode::FAILURE;
            }
            file => files.push(file.to_string()),
        }
    }
    let source = match read_source(&files) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let mut session = Session::new(options);
    let statements = match parse_timed(&source, session.metrics().map(|m| &**m)) {
        Ok(s) => s,
        Err(code) => return code,
    };
    for stmt in &statements {
        if let Err(e) = session.execute(stmt) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    let Some(snap) = session.obs_snapshot() else {
        eprintln!("error: no observability registry attached");
        return ExitCode::FAILURE;
    };
    print!("{}", snap.render(format));
    ExitCode::SUCCESS
}

/// `aggview advise`: run a script with per-statement output suppressed to
/// build a workload profile, then print the advisor's ranked view
/// proposals — the same lines the REPL's `:advise` and the net `advise`
/// request produce. `--advisor auto` additionally lets the replay
/// materialize views as it goes, so the remaining proposals reflect what
/// auto mode would still leave on the table.
fn advise(args: &[String]) -> ExitCode {
    let mut options = SessionOptions::default();
    let mut files: Vec<String> = Vec::new();
    let mut shards: Option<usize> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            flag if session_flag(flag, &mut options) => {}
            "--slow-ms" => match parse_slow_ms(iter.next()) {
                Some(ms) => options.obs.slow_query_ms = ms,
                None => return ExitCode::FAILURE,
            },
            "--advisor" => match parse_advisor(iter.next()) {
                Some(policy) => options.advisor = policy,
                None => return ExitCode::FAILURE,
            },
            "--shards" => match iter.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(0) => shards = None,
                Some(n) => shards = Some(n),
                None => {
                    eprintln!("error: --shards needs a non-negative integer");
                    return ExitCode::FAILURE;
                }
            },
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag `{flag}` (try --help)");
                return ExitCode::FAILURE;
            }
            file => files.push(file.to_string()),
        }
    }
    if !options.obs.enabled {
        eprintln!("error: advise needs observability enabled (drop --no-obs)");
        return ExitCode::FAILURE;
    }
    let source = match read_source(&files) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let mut session = make_session(options, shards);
    let statements = match parse_timed(&source, session.metrics().map(|m| &**m)) {
        Ok(s) => s,
        Err(code) => return code,
    };
    for stmt in &statements {
        if let Err(e) = session.execute(stmt) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    match session.advise() {
        Ok(outcome) => print!("{outcome}"),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// Line-based REPL: statements accumulate until a terminating `;`; errors
/// are reported without ending the session. `quit` / `exit` / EOF leave;
/// `:stats` toggles a per-query observability block (rewrite-search
/// counters, plan-cache and store sections, per-stage timings);
/// `:metrics` dumps the session-cumulative snapshot on demand; `:advise`
/// prints the advisor's ranked view proposals for the statements run so
/// far.
fn repl(mut options: SessionOptions, shards: Option<usize>) -> ExitCode {
    // Per-query snapshots power the `:stats` toggle; attaching them is
    // cheap (a handful of section structs per answer).
    if options.obs.enabled {
        options.obs.attach_answers = true;
    }
    let mut session = make_session(options, shards);
    let stdin = std::io::stdin();
    let mut buffer = String::new();
    let mut show_stats = false;
    eprintln!(
        "aggview interactive session — end statements with `;`, `:stats` to toggle \
         per-query observability, `:metrics` to dump the session snapshot, `:advise` \
         for ranked view proposals, `quit` to leave"
    );
    loop {
        let prompt = if buffer.trim().is_empty() {
            "aggview> "
        } else {
            "    ...> "
        };
        eprint!("{prompt}");
        let _ = std::io::stderr().flush();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
        let trimmed = line.trim();
        if buffer.trim().is_empty() && matches!(trimmed, "quit" | "exit" | r"\q") {
            break;
        }
        if buffer.trim().is_empty() && trimmed == ":stats" {
            show_stats = !show_stats;
            eprintln!("search stats {}", if show_stats { "on" } else { "off" });
            continue;
        }
        if buffer.trim().is_empty() && trimmed == ":metrics" {
            match session.obs_snapshot() {
                Some(snap) => print!("{}", snap.render(Format::Human)),
                None => eprintln!("observability is off (session started with --no-obs)"),
            }
            continue;
        }
        if buffer.trim().is_empty() && trimmed == ":advise" {
            match session.advise() {
                Ok(outcome) => print!("{outcome}"),
                Err(e) => eprintln!("error: {e}"),
            }
            continue;
        }
        buffer.push_str(&line);
        if !buffer.trim_end().ends_with(';') {
            continue;
        }
        let parsed = {
            let registry = session.metrics().cloned();
            let _span = registry.as_deref().map(|m| m.span(Stage::Parse));
            parse_script(&buffer)
        };
        match parsed {
            Ok(stmts) => {
                for stmt in &stmts {
                    match session.execute(stmt) {
                        Ok(outcome) => {
                            print!("{outcome}");
                            if show_stats {
                                if let StatementOutcome::Answer { search, obs, .. } = &outcome {
                                    if let Some(snap) = obs {
                                        for line in snap.render(Format::Human).lines() {
                                            println!("-- {line}");
                                        }
                                    } else {
                                        // Observability off: the legacy
                                        // search-counter lines.
                                        println!("-- search: {}", search.summary());
                                        println!("-- {}", search.plan_cache_summary());
                                        println!("-- {}", search.store_summary());
                                    }
                                }
                            }
                        }
                        Err(e) => eprintln!("error: {e}"),
                    }
                }
            }
            Err(e) => eprintln!("parse error: {e}"),
        }
        buffer.clear();
    }
    ExitCode::SUCCESS
}
