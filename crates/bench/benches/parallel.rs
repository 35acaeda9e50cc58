//! Criterion: replication-executor scaling and parallel-protocol round
//! costs.
//!
//! On a single-core host the executor should show no regression versus
//! inline execution (its self-scheduling overhead is one atomic per
//! task); on multicore hosts the same bench shows the speedup.

use bib_core::prelude::*;
use bib_parallel::protocols::{BoundedLoad, Collision};
use bib_parallel::{par_map, replicate_outcomes, ReplicateSpec};
use bib_rng::SeedSequence;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::time::Duration;

fn bench_executor(c: &mut Criterion) {
    let cfg = RunConfig::new(512, 512 * 8).with_engine(Engine::Faithful);
    let reps = 16u64;
    let mut group = c.benchmark_group("parallel/replicate");
    group.throughput(Throughput::Elements(reps * cfg.m));
    for threads in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    replicate_outcomes(
                        &Adaptive::paper(),
                        &cfg,
                        &ReplicateSpec::new(reps, 7).with_threads(threads),
                    )
                })
            },
        );
    }
    group.finish();

    let mut group = c.benchmark_group("parallel/par_map_overhead");
    group.throughput(Throughput::Elements(1024));
    for threads in [1usize, 4] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| b.iter(|| par_map(1024, threads, |i| i as u64 * 3)),
        );
    }
    group.finish();
}

fn bench_parallel_protocols(c: &mut Criterion) {
    let n = 1usize << 14;
    let mut group = c.benchmark_group("parallel/protocols");
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("bounded-load(2)", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let mut rng = SeedSequence::new(seed).rng();
            BoundedLoad::new(2).run(n, n as u64, &mut rng)
        })
    });
    group.bench_function("collision(1)", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let mut rng = SeedSequence::new(seed).rng();
            Collision::new(1).run(n, n as u64, &mut rng)
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).warm_up_time(Duration::from_millis(500)).measurement_time(Duration::from_secs(2));
    targets = bench_executor, bench_parallel_protocols
}
criterion_main!(benches);
