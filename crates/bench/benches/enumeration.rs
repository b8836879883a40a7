//! Benchmark: output-polynomial enumeration (Theorem 4.8 /
//! Corollary 5.20) — time vs output size on path-endpoint queries (E13).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use workloads::{families, random};

fn bench_enumeration(c: &mut Criterion) {
    let q = families::path_endpoints(4);
    let mut group = c.benchmark_group("enumerate_path4");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    for domain in [200u64, 800] {
        let db = random::successor_database(4, domain);
        group.bench_with_input(BenchmarkId::from_parameter(domain), &db, |b, db| {
            b.iter(|| eval::evaluate(&q, db).unwrap())
        });
    }
    group.finish();

    // Boolean cycle evaluation on a planted instance, in isolation.
    let qc = families::cycle(6);
    let plan = eval::Strategy::plan_with_width(&qc, 2).unwrap();
    let mut rng = random::rng(33);
    let db = random::planted_database(&mut rng, &qc, 80, 300);
    let mut group = c.benchmark_group("cycle6_boolean");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    group.bench_function("hypertree_plan", |b| {
        b.iter(|| plan.boolean(&qc, &db, &eval::Unlimited).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_enumeration);
criterion_main!(benches);
