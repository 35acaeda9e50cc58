//! Criterion: wall-clock throughput of every sequential protocol at a
//! fixed configuration (n = 4096, ϕ = 16).
//!
//! This is the engineering complement to the paper's *sample-count*
//! accounting: sample-optimal protocols should also be wall-clock fast
//! here, since the simulator does O(1) work per sample.

use bib_core::prelude::*;
use bib_core::protocols::table1_suite;
use bib_rng::SeedSequence;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::time::Duration;

fn bench_protocols(c: &mut Criterion) {
    let n = 4096usize;
    let m = 16 * n as u64;
    let cfg = RunConfig::new(n, m).with_engine(Engine::Faithful);
    let mut group = c.benchmark_group("protocols");
    group.throughput(Throughput::Elements(m));
    for proto in table1_suite() {
        group.bench_with_input(BenchmarkId::from_parameter(proto.name()), &cfg, |b, cfg| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let mut rng = SeedSequence::new(seed).rng();
                proto.allocate(cfg, &mut rng, &mut NullObserver)
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).warm_up_time(Duration::from_millis(500)).measurement_time(Duration::from_secs(2));
    targets = bench_protocols
}
criterion_main!(benches);
