//! The repo's serving benchmark. See `README.md` next to this crate.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one run, one JSON line
//! benchmark run [--quick] [--seed N]                        every workload, every metric
//! benchmark aa [--runs N] [--workload W]                    A/A self-check
//! benchmark list                                            the metric catalogue
//! ```

mod aa;
mod gen;
mod host;
mod metrics;
mod trace;
mod trial;

use gen::Workload;
use metrics::{Better, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;
use trial::{Harness, Trial, ROWS, WARMUP};

/// Trials per run; each end-to-end metric reports its best trial.
const TRIALS: usize = 3;
/// `--seconds` of the pipeline's runs (`run_seconds` in BENCHMARK.json):
/// 3 trials x (0.5 s warm-up + 6.5 s window).
const RUN_SECONDS: f64 = 21.0;

/// One finished run, ready to print.
pub struct RunReport {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
}

impl RunReport {
    /// The one line the pipeline reads.
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

struct Args {
    flags: BTreeMap<String, String>,
    command: Option<String>,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut flags = BTreeMap::new();
        let mut command = None;
        let mut it = std::env::args().skip(1);
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some("quick") => {
                    flags.insert("quick".to_string(), "1".to_string());
                }
                Some(name) => {
                    let value = it.next().ok_or(format!("--{name} needs a value"))?;
                    flags.insert(name.to_string(), value);
                }
                None if command.is_none() => command = Some(arg),
                None => return Err(format!("unexpected argument `{arg}`")),
            }
        }
        Ok(Args { flags, command })
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name}: bad value `{v}`")),
        }
    }

    fn workload(&self) -> Result<Option<Workload>, String> {
        match self.flags.get("workload") {
            None => Ok(None),
            Some(name) => Workload::from_name(name)
                .map(Some)
                .ok_or(format!("unknown workload `{name}`")),
        }
    }
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    let result = match args.command.as_deref() {
        None => single_run(&args),
        Some("run") => run_all(&args),
        Some("aa") => run_aa(&args),
        Some("list") => {
            list();
            Ok(true)
        }
        Some(other) => return usage(&format!("unknown command `{other}`")),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn usage(error: &str) -> ExitCode {
    eprintln!("benchmark: {error}");
    eprintln!(
        "usage: benchmark --workload W --seed N --seconds S --trace 0|1\n\
         \x20      benchmark run [--quick] [--seed N] [--workload W]\n\
         \x20      benchmark aa [--runs N] [--workload W]\n\
         \x20      benchmark list\n\
         workloads: {}",
        Workload::ALL.map(Workload::name).join(", ")
    );
    ExitCode::from(2)
}

/// The header every run prints next to its numbers.
fn print_context(workload: Workload, seed: u64, pinned: Option<u32>) {
    let durability = aggview::durability::DurabilityOptions::default();
    eprintln!(
        "# workload={} seed={seed} rows={ROWS} hardware_threads={} pinned_cpu={} commit={}",
        workload.name(),
        host::hardware_threads(),
        pinned.map_or("none".to_string(), |c| c.to_string()),
        host::commit(),
    );
    eprintln!(
        "# config: SessionOptions::default(), NetConfig::default(), BackendSpec::build(); \
         one NetClient, closed loop, 127.0.0.1"
    );
    if workload.durable() {
        eprintln!(
            "# flush policy: WAL append + fsync before every ack; checkpoint every {} batches \
             (DurabilityOptions::default()); data_dir under benchmark/out/",
            durability.checkpoint_every
        );
    } else {
        eprintln!("# flush policy: none (in-memory store)");
    }
}

/// The pipeline's form: one workload, one seed, one JSON line.
fn single_run(args: &Args) -> Result<bool, String> {
    let workload = args.workload()?.ok_or("--workload is required")?;
    let seed: u64 = args.get("seed", 1)?;
    let seconds: f64 = args.get("seconds", RUN_SECONDS)?;
    let trials: usize = args.get("trials", TRIALS)?;
    let traced = args.get("trace", 0u8)? != 0;
    if seconds.is_nan() || seconds <= 0.0 || trials == 0 {
        return Err("--seconds and --trials must be positive".to_string());
    }
    let pinned = host::pin_to_one_cpu();
    print_context(workload, seed, pinned);
    let window = Duration::from_secs_f64((seconds / trials as f64 - WARMUP.as_secs_f64()).max(0.2));
    let report = if traced {
        trace::run(workload, seed, window / 3)?
    } else {
        measure(workload, seed, trials, window)?
    };
    for (name, value, unit) in &report.metrics {
        eprintln!("{name:<32} {value:>14.3} {unit}");
    }
    eprintln!(
        "ops_attempted {}  ops_failed {}",
        report.attempted, report.failed
    );
    println!("{}", report.json());
    Ok(report.failed == 0)
}

/// An untraced run: `trials` trials, best trial per metric.
fn measure(
    workload: Workload,
    seed: u64,
    trials: usize,
    window: Duration,
) -> Result<RunReport, String> {
    let mut harness = Harness::new(workload, seed, ROWS);
    let mut done: Vec<Trial> = Vec::new();
    for i in 0..trials {
        let t = harness.trial(WARMUP, window)?;
        eprintln!(
            "trial {}: setup {:.3} s | read {:.1}/s | probe p50 {:.1} us p99 {:.1} us (n={}) | \
             write p50 {:.1} us p99 {:.1} us (n={}) | plan cache {} hit(s) {} miss(es){}",
            i + 1,
            t.setup_s,
            t.read_qps,
            t.read_p50_us,
            t.read_p99_us,
            t.probe_samples,
            t.write_p50_us,
            t.write_p99_us,
            t.write_samples,
            t.cache_hits,
            t.cache_misses,
            if workload.durable() {
                format!(" | reopen {:.1} ms", t.recovery_ms)
            } else {
                String::new()
            }
        );
        done.push(t);
    }
    for f in &harness.failures {
        eprintln!("FAILED: {f}");
    }
    let best = |better: Better, f: fn(&Trial) -> f64| better.best(done.iter().map(f));
    let values = [
        best(Better::Lower, |t| t.setup_s),
        best(Better::Higher, |t| t.read_qps),
        best(Better::Lower, |t| t.read_p50_us),
        best(Better::Lower, |t| t.write_p50_us),
        host::peak_rss_mb(),
    ];
    Ok(RunReport {
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(m, v)| (m.name, v, m.unit))
            .collect(),
        attempted: harness.attempted,
        failed: harness.failed,
    })
}

fn run_aa(args: &Args) -> Result<bool, String> {
    aa::run(&aa::Config {
        runs: args.get("runs", 5)?,
        workload: args.workload()?,
        seconds: args.get("seconds", RUN_SECONDS)?,
    })
}

/// `benchmark run`: every workload in a process of its own, end to end
/// and then traced, every metric printed by name. `--quick` is the
/// smoke test: one trial, a 1 s window, oracle on, no traced runs. The
/// exit status says whether every answer was right.
fn run_all(args: &Args) -> Result<bool, String> {
    let quick = args.flags.contains_key("quick");
    let seed: u64 = args.get("seed", 1)?;
    let (seconds, trials, modes): (f64, usize, &[bool]) = if quick {
        (1.0 + WARMUP.as_secs_f64(), 1, &[false])
    } else {
        (args.get("seconds", RUN_SECONDS)?, TRIALS, &[false, true])
    };
    let workloads: Vec<Workload> = match args.workload()? {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    let mut all_correct = true;
    for workload in workloads {
        for &traced in modes {
            eprintln!(
                "\n== {} ({})",
                workload.name(),
                if traced { "traced" } else { "end to end" }
            );
            // The child prints its context, its trials and every metric
            // by name; only the verdict is needed here.
            all_correct &= aa::child(workload, seed, seconds, trials, traced, true)?.correct;
        }
    }
    println!(
        "{}",
        if all_correct {
            "all answers correct"
        } else {
            "FAILURES: see the FAILED lines above"
        }
    );
    Ok(all_correct)
}

fn list() {
    println!("workloads:");
    for w in Workload::ALL {
        println!("  {:<12} {}", w.name(), w.why());
    }
    println!("\nend-to-end metrics (best of {TRIALS} trials; bound = allowed worsening):");
    for m in END_TO_END {
        println!(
            "  {:<14} {:<5} {:<7} bound {:>3.0} %  {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0,
            m.what
        );
    }
    println!("\nper-layer metrics (traced run only; no bound):");
    for m in PER_LAYER {
        println!(
            "  {:<32} {:<6} {:<7} {}  ->  {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.what,
            m.moves
        );
    }
}

#[cfg(test)]
mod tests;
