//! The `qcheck` soak CLI.
//!
//! ```text
//! qcheck --seeds 0..500              # differential soak over a seed range
//! qcheck --seeds 0..500 --sessions 2 # same stream, round-robined across
//!                                    # 2 handles of one shared store
//! qcheck --seeds 0..500 --shards 2   # same stream through a 2-way
//!                                    # hash-partitioned scatter-gather store
//! qcheck --seeds 0..500 --crash      # kill a durable store at a seed-derived
//!                                    # WAL append, recover, demand bag equality
//! qcheck --seeds 0..500 --sessions 2 --reopen   # drop + reopen the durable
//!                                    # store mid-stream (also with --shards)
//! qcheck --seeds 0..200 --net        # same lattice over real loopback TCP
//!                                    # (wire clients + frame fuzzer)
//! qcheck --seeds 0..300 --advisor    # replay advisor-off vs advisor-auto
//!                                    # (views created mid-stream); answers
//!                                    # must never diverge
//! qcheck --seeds 0..500 --write-failures DIR   # persist shrunk failures
//! qcheck --replay tests/corpus       # re-check every corpus case
//! ```
//!
//! Exit code 0 = every checked case agreed on every execution path;
//! 1 = a discrepancy (printed, shrunk, and optionally persisted);
//! 2 = usage error.

use aggview_qcheck::{check, corpus, run_seed, CaseConfig, Mode};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    seeds: Option<std::ops::Range<u64>>,
    replay: Option<PathBuf>,
    write_failures: Option<PathBuf>,
    mode: Mode,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: qcheck --seeds A..B [--sessions K | --shards K] [--reopen] [--crash] [--net] \
         [--advisor] [--write-failures DIR]\n       \
         qcheck --replay DIR [--sessions K | --shards K] [--reopen] [--crash] [--net] [--advisor]"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, String> {
    let (mut seeds, mut replay, mut write_failures) = (None, None, None);
    let (mut sessions, mut shards) = (None, None);
    let (mut reopen, mut crash, mut net, mut advisor) = (false, false, false, false);
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        let count = |flag: &str, v: String| match v.parse::<usize>() {
            Ok(k) if k >= 1 => Ok(Some(k)),
            _ => Err(format!("{flag} wants K >= 1, got `{v}`")),
        };
        match arg.as_str() {
            "--seeds" => {
                let v = value("--seeds")?;
                let (a, b) = v
                    .split_once("..")
                    .ok_or(format!("--seeds wants A..B, got `{v}`"))?;
                let a: u64 = a.parse().map_err(|_| format!("bad seed `{a}`"))?;
                let b: u64 = b.parse().map_err(|_| format!("bad seed `{b}`"))?;
                seeds = Some(a..b);
            }
            "--replay" => replay = Some(PathBuf::from(value("--replay")?)),
            "--write-failures" => write_failures = Some(PathBuf::from(value("--write-failures")?)),
            "--sessions" => sessions = count("--sessions", value("--sessions")?)?,
            "--shards" => shards = count("--shards", value("--shards")?)?,
            "--reopen" => reopen = true,
            "--crash" => crash = true,
            "--net" => net = true,
            "--advisor" => advisor = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if seeds.is_none() && replay.is_none() {
        return Err("one of --seeds or --replay is required".into());
    }
    let axes = [sessions.is_some(), shards.is_some(), crash, net, advisor];
    if axes.iter().filter(|&&on| on).count() > 1 {
        return Err("pick one of --sessions, --shards, --crash, --net, --advisor".into());
    }
    let mode = match (sessions, shards) {
        (Some(k), _) => Mode::Sessions { k, reopen },
        (_, Some(k)) => Mode::Shards { k, reopen },
        _ if reopen => return Err("--reopen needs --sessions K or --shards K".into()),
        _ if crash => Mode::Crash { seed: 0 },
        _ if net => Mode::Net,
        _ if advisor => Mode::Advisor,
        _ => Mode::Local,
    };
    Ok(Args {
        seeds,
        replay,
        write_failures,
        mode,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("qcheck: {e}");
            return usage();
        }
    };
    let cfg = CaseConfig::default();
    let mut failed = false;

    if let Some(dir) = &args.replay {
        match corpus::load_dir(dir) {
            Ok(cases) => {
                for (i, (name, case)) in cases.iter().enumerate() {
                    // Corpus cases carry no seed: their position stands in
                    // for it (the crash mode derives its crash point from it).
                    match check(case, &args.mode.seeded(i as u64)) {
                        Ok(()) => println!("corpus {name}: ok"),
                        Err(d) => {
                            failed = true;
                            println!("corpus {name}: REGRESSED {d}\n{case}");
                        }
                    }
                }
                println!("replayed {} corpus case(s)", cases.len());
            }
            Err(e) => {
                eprintln!("qcheck: corpus {}: {e}", dir.display());
                return ExitCode::from(2);
            }
        }
    }

    if let Some(seeds) = args.seeds.clone() {
        let total = seeds.end.saturating_sub(seeds.start);
        let mut checked = 0u64;
        for seed in seeds {
            match run_seed(seed, &cfg, &args.mode) {
                None => checked += 1,
                Some(f) => {
                    failed = true;
                    println!(
                        "seed {seed}: {}\nshrunk ({} row(s), {} conjunct(s)): {}\n{}",
                        f.discrepancy,
                        f.shrunk.total_rows(),
                        f.shrunk.query_conjuncts(),
                        f.shrunk_discrepancy,
                        f.shrunk
                    );
                    if let Some(dir) = &args.write_failures {
                        let header = format!(
                            "qcheck failure\nseed: {seed}\nkind: {}",
                            f.shrunk_discrepancy.kind
                        );
                        if let Err(e) =
                            corpus::save(dir, &format!("seed{seed}"), &f.shrunk, &header)
                        {
                            eprintln!("qcheck: writing failure: {e}");
                        }
                    }
                }
            }
        }
        println!(
            "checked {checked}/{total} seed(s), {} discrepancy-free",
            checked
        );
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
