//! F6 — incremental view maintenance vs. recomputation per insert batch,
//! for the single-table summary and the join view `V1`.

use aggview::engine::maintenance::{maintain_view_ctx, Delta, DeltaKind};
use aggview::engine::ExecContext;
use aggview_bench::experiments::{f6_batch, f6_database, F6_VIEWS};
use aggview_sql::parse_query;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let cx = ExecContext::new();
    let mut group = c.benchmark_group("f6_maintenance");
    for (shape, sql) in F6_VIEWS {
        let view_q = parse_query(sql).expect("valid SQL");
        let mut db = f6_database(&view_q, 50_000);
        let rows = f6_batch(&mut StdRng::seed_from_u64(5), 50_000, 1000);
        db.update("Calls", |calls, _| calls.rows.extend_from_slice(&rows))
            .expect("present");

        for (path, with_delta) in [("incremental", true), ("recompute", false)] {
            group.bench_function(BenchmarkId::new(format!("{path}/{shape}"), 1000), |b| {
                b.iter(|| {
                    let mut db = db.clone();
                    let delta = with_delta.then(|| {
                        Delta::new("Calls", DeltaKind::Insert(&rows), &db).expect("present")
                    });
                    let folded = maintain_view_ctx("V", &view_q, delta.as_ref(), &mut db, &cx);
                    assert_eq!(folded.expect("maintenance"), with_delta);
                    black_box(db)
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
