//! F7 — differential-harness throughput: full seconds-per-seed cost of one
//! qcheck case (generate, reference-execute, drive the 8-point engine
//! lattice, cross-check every rewriting). Tracks how expensive a soak
//! iteration is so `scripts/soak.sh` seed budgets stay calibrated.

use aggview_qcheck::{check, generate, CaseConfig, Mode};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("f7_qcheck");
    let cfg = CaseConfig::default();
    for seed in [3u64, 11, 29] {
        let case = generate(seed, &cfg);
        group.bench_with_input(BenchmarkId::from_parameter(seed), &case, |b, case| {
            b.iter(|| black_box(check(case, &Mode::Local).is_ok()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
