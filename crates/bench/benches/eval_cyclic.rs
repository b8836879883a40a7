//! Benchmark: cyclic Boolean evaluation (hw = 2) — the Lemma 4.6
//! hypertree pipeline vs naive joins on cycle queries (E10b).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use eval::naive::JoinOrder;
use std::time::Duration;
use workloads::{families, random};

fn bench_eval_cyclic(c: &mut Criterion) {
    let q = families::cycle(5);
    let plan = eval::Strategy::plan_with_width(&q, 2).expect("cycles have hw 2");

    let mut group = c.benchmark_group("cyclic_c5");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for degree in [2usize, 4] {
        let mut rng = random::rng(200 + degree as u64);
        let db = random::blowup_database(&mut rng, 5, 100, degree);
        group.bench_with_input(BenchmarkId::new("hypertree", degree), &db, |b, db| {
            b.iter(|| plan.boolean(&q, db, &eval::Unlimited).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("naive", degree), &db, |b, db| {
            b.iter(|| {
                let _ = eval::naive::evaluate_boolean(&q, db, JoinOrder::AsWritten, 1 << 21);
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_eval_cyclic);
criterion_main!(benches);
