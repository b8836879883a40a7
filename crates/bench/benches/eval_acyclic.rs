//! Benchmark: acyclic Boolean evaluation — Yannakakis vs naive joins on
//! path queries over blow-up databases (E10a).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use eval::naive::JoinOrder;
use std::time::Duration;
use workloads::{families, random};

fn bench_eval_acyclic(c: &mut Criterion) {
    let q = families::path(5);
    let plan = eval::Strategy::plan(&q);

    let mut group = c.benchmark_group("acyclic_path5");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    for degree in [2usize, 4] {
        let mut rng = random::rng(100 + degree as u64);
        let db = random::blowup_database(&mut rng, 5, 150, degree);
        group.bench_with_input(BenchmarkId::new("yannakakis", degree), &db, |b, db| {
            b.iter(|| plan.boolean(&q, db, &eval::Unlimited).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("naive", degree), &db, |b, db| {
            b.iter(|| {
                // The naive engine may abort on the budget: that outcome is
                // part of the measured behaviour.
                let _ = eval::naive::evaluate_boolean(&q, db, JoinOrder::AsWritten, 1 << 21);
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_eval_acyclic);
criterion_main!(benches);
