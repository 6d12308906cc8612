//! Regenerate the experiment tables of `EXPERIMENTS.md`: the paper
//! reproduction T1–T9 and the performance figures F1–F4 and F6.
//!
//! Usage:
//!   repro                 # all experiments, quick settings
//!   repro --full          # all experiments, full scale (use --release!)
//!   repro t1 f1 ...       # selected experiments only
//!
//! An unknown experiment name or flag exits 2 and lists the valid names.

use aggview_bench::experiments as exp;
use aggview_bench::report::Table;
use std::process::ExitCode;

/// Randomized trials per T2–T4 table.
fn trials(full: bool) -> u64 {
    if full {
        400
    } else {
        100
    }
}

/// One experiment: regenerate its table, given the `--full` switch.
type Experiment = fn(bool) -> Table;

/// Every experiment, in print order.
const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("t1", |_| exp::t1_paper_examples()),
    ("t2", |full| exp::t2_soundness(trials(full))),
    ("t3", |full| exp::t3_church_rosser(trials(full))),
    ("t4", |full| exp::t4_completeness(trials(full))),
    ("t5", |_| exp::t5_closure_vs_syntactic()),
    ("t6", |_| exp::t6_keys_ablation()),
    ("t7", |_| exp::t7_having_ablation()),
    ("t8", |_| exp::t8_expand()),
    ("t9", |_| exp::t9_advisor()),
    ("f1", exp::f1_speedup),
    ("f2", exp::f2_compression),
    ("f3", |_| exp::f3_many_views()),
    ("f4", |_| exp::f4_query_size()),
    ("f6", exp::f6_maintenance),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut full = false;
    let mut selected: Vec<&str> = Vec::new();
    for arg in &args {
        match arg.as_str() {
            "--full" => full = true,
            name if EXPERIMENTS.iter().any(|(n, _)| *n == name) => selected.push(name),
            other => {
                let names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
                eprintln!(
                    "repro: unknown argument `{other}`; valid: --full {}",
                    names.join(" ")
                );
                return ExitCode::from(2);
            }
        }
    }

    let mut regenerated = 0;
    for (name, run) in EXPERIMENTS {
        if selected.is_empty() || selected.contains(name) {
            println!("{}", run(full).render());
            regenerated += 1;
        }
    }
    println!(
        "{regenerated} experiment table(s) regenerated{}.",
        if full {
            " (full scale)"
        } else {
            " (quick scale; pass --full for the paper-scale sweep)"
        }
    );
    ExitCode::SUCCESS
}
