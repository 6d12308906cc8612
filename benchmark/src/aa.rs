//! Runs in child processes, and the A/A self-check built on them.
//!
//! A run is its own process so that `peak_rss_mb` is that run's and
//! nothing warmed by an earlier run carries over.

use crate::gen::Workload;
use crate::metrics::END_TO_END;
use crate::trial::median;
use aggview::net::json::{self, Json};
use std::process::{Command, Stdio};

/// The parsed result line of one child run.
pub struct ChildOut {
    pub correct: bool,
    pub failed: i64,
    pub metrics: Vec<(String, f64, String)>,
}

/// Run one workload in a child process and parse its result line.
/// The child's own report (context header, trials, metrics by name)
/// goes to stderr: shown when `verbose`, dropped otherwise.
pub fn child(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trials: usize,
    traced: bool,
    verbose: bool,
) -> Result<ChildOut, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trials", &trials.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(if verbose {
            Stdio::inherit()
        } else {
            Stdio::null()
        })
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or(format!("{}: the run printed no result", workload.name()))?;
    let parsed = json::parse(line).map_err(|e| format!("result line: {e}"))?;
    let field = |k: &str| parsed.get(k).ok_or(format!("result line lacks `{k}`"));
    let Json::Obj(entries) = field("metrics")? else {
        return Err("`metrics` is not an object".to_string());
    };
    let metrics = entries
        .iter()
        .map(|(name, m)| {
            let value = match m.get("value") {
                Some(Json::Float(x)) => *x,
                Some(Json::Int(n)) => *n as f64,
                _ => f64::NAN,
            };
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            (name.clone(), value, unit.to_string())
        })
        .collect();
    Ok(ChildOut {
        correct: field("correct")?.as_bool().unwrap_or(false),
        failed: field("failed")?.as_int().unwrap_or(0),
        metrics,
    })
}

pub struct Config {
    pub runs: usize,
    pub workload: Option<Workload>,
    pub seconds: f64,
}

/// Q3 - Q1 as a share of the median, with the quartiles Python's
/// `statistics.quantiles(values, n=4)` gives (the pipeline's rule).
fn quartile_spread(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let at = |p: f64| {
        let pos = p * (n as f64 + 1.0);
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = (pos - j as f64).clamp(0.0, 1.0);
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    (at(0.75) - at(0.25)) / median(&v)
}

/// Two sets of full runs of the same binary, alternating which set
/// goes first. Prints, per workload and end-to-end metric, both
/// medians, their relative difference, the bound, and a verdict.
pub fn run(config: &Config) -> Result<bool, String> {
    let workloads: Vec<Workload> = match config.workload {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    println!(
        "| workload | metric | median A | median B | B vs A | spread A | spread B | bound | verdict |"
    );
    println!("|---|---|---:|---:|---:|---:|---:|---:|---|");
    let mut all_pass = true;
    for workload in workloads {
        // sets[set][metric] = values
        let mut sets = [
            vec![Vec::new(); END_TO_END.len()],
            vec![Vec::new(); END_TO_END.len()],
        ];
        for pair in 0..config.runs {
            let order = if pair % 2 == 0 { [0, 1] } else { [1, 0] };
            for set in order {
                let out = child(
                    workload,
                    pair as u64 + 1,
                    config.seconds,
                    crate::TRIALS,
                    false,
                    false,
                )?;
                if !out.correct {
                    return Err(format!(
                        "{}: a run failed {} operation(s)",
                        workload.name(),
                        out.failed
                    ));
                }
                for (i, m) in END_TO_END.iter().enumerate() {
                    let value = out
                        .metrics
                        .iter()
                        .find(|(name, _, _)| name == m.name)
                        .map_or(f64::NAN, |(_, v, _)| *v);
                    sets[set][i].push(value);
                }
            }
        }
        for (i, m) in END_TO_END.iter().enumerate() {
            let (a, b) = (median(&sets[0][i]), median(&sets[1][i]));
            let diff = m.better.worsening(a, b);
            let verdict = if diff.abs() > m.bound {
                all_pass = false;
                "FAIL"
            } else if diff.abs() > m.bound / 2.0 {
                "pass (over half the bound)"
            } else {
                "pass"
            };
            println!(
                "| {} | {} | {:.4} | {:.4} | {:+.2} % | {:.2} % | {:.2} % | {:.0} % | {} |",
                workload.name(),
                m.name,
                a,
                b,
                diff * 100.0,
                quartile_spread(&sets[0][i]) * 100.0,
                quartile_spread(&sets[1][i]) * 100.0,
                m.bound * 100.0,
                verdict
            );
        }
    }
    Ok(all_pass)
}
