//! Criterion: **E11 engine ablation** — the faithful retry loop, the
//! level-batched engine and the occupancy-histogram engine, across load
//! levels.
//!
//! The engines agree in distribution on final load vectors (see
//! `bib-core::sampler`, `bib-core::level_batched` and
//! `bib-core::histogram`); this bench quantifies the wall-clock
//! separation that justifies each fast path. The `engines/heavy` group
//! is the acceptance benchmark for the batched engines at
//! `n = 10⁴, m = n²` (Lemma 4.2's regime): `threshold` under
//! level-batching must beat the faithful loop by ≥ 5×, and the histogram
//! engine gates the heavy `adaptive` speedup (≥ 20× over the faithful
//! loop's ~1.9 s on the reference machine) plus the first-ever feasible
//! `greedy[2]` run at this size. The `engines/parallel-heavy` group
//! gates the round-occupancy engine at `n = m = 10⁷` for the three
//! parallel round protocols.

use bib_core::prelude::*;
use bib_rng::SeedSequence;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::time::Duration;

/// Benches one concrete protocol so the whole allocation stack
/// monomorphizes — the configuration every experiment binary now runs.
fn bench_proto<P: Protocol>(
    group: &mut criterion::BenchmarkGroup<'_>,
    proto: P,
    label: &str,
    cfg: &RunConfig,
) {
    group.bench_with_input(BenchmarkId::new(proto.name(), label), cfg, |b, cfg| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let mut rng = SeedSequence::new(seed).rng();
            proto.allocate(cfg, &mut rng, &mut NullObserver)
        });
    });
}

fn bench_engines(c: &mut Criterion) {
    let n = 2048usize;
    for phi in [1u64, 16, 256] {
        let m = phi * n as u64;
        let mut group = c.benchmark_group(format!("engines/phi={phi}"));
        group.throughput(Throughput::Elements(m));
        for engine in Engine::ALL {
            let cfg = RunConfig::new(n, m).with_engine(engine);
            bench_proto(&mut group, Adaptive::paper(), engine.name(), &cfg);
            bench_proto(&mut group, Threshold, engine.name(), &cfg);
        }
        group.finish();
    }
}

fn bench_heavy(c: &mut Criterion) {
    // Acceptance regime: m = n². Debug builds (the `--test` smoke mode)
    // shrink n so the single smoke iteration stays fast; release
    // measurement uses the full size.
    #[cfg(debug_assertions)]
    let n = 512usize;
    #[cfg(not(debug_assertions))]
    let n = 10_000usize;
    let m = (n as u64) * (n as u64);
    let mut group = c.benchmark_group(format!("engines/heavy n={n} m=n^2"));
    group.throughput(Throughput::Elements(m));
    for engine in Engine::ALL {
        let cfg = RunConfig::new(n, m).with_engine(engine);
        group.bench_with_input(
            BenchmarkId::new("threshold", engine.name()),
            &cfg,
            |b, cfg| {
                let mut seed = 0u64;
                b.iter(|| {
                    seed += 1;
                    let mut rng = SeedSequence::new(seed).rng();
                    Threshold.allocate(cfg, &mut rng, &mut NullObserver)
                });
            },
        );
    }
    // The acceptance gate for the histogram engine: adaptive's heavy
    // run must stay ≥ 20× under the faithful loop's wall time (the
    // faithful baseline itself lives in BENCH_engines.json — at ~2 s a
    // criterion iteration it is too slow to re-bench on every run).
    let cfg = RunConfig::new(n, m).with_engine(Engine::Histogram);
    group.bench_with_input(BenchmarkId::new("adaptive", "histogram"), &cfg, |b, cfg| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let mut rng = SeedSequence::new(seed).rng();
            Adaptive::paper().allocate(cfg, &mut rng, &mut NullObserver)
        });
    });
    // First-ever feasible greedy[2] at m = n²: d-choice landing classes
    // straight off the histogram CDF.
    group.bench_with_input(
        BenchmarkId::new("greedy[2]", "histogram"),
        &cfg,
        |b, cfg| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let mut rng = SeedSequence::new(seed).rng();
                GreedyD::new(2).allocate(cfg, &mut rng, &mut NullObserver)
            });
        },
    );
    group.finish();
}

fn bench_weighted_heavy(c: &mut Criterion) {
    // The weight-class histogram engine's acceptance regime:
    // n = 10⁴, m = 10⁸ (the weighted analogue of the heavy gate; the
    // faithful per-ball baseline at ~2.5 s/run lives in
    // BENCH_engines.json). Debug smoke shrinks the size.
    #[cfg(debug_assertions)]
    let (n, m) = (512usize, (512 * 128) as u64);
    #[cfg(not(debug_assertions))]
    let (n, m) = (10_000usize, 100_000_000u64);
    let mut group = c.benchmark_group(format!("engines/weighted-heavy n={n}"));
    group.throughput(Throughput::Elements(m));
    let shapes: [(&str, Vec<f64>); 2] = [
        ("near-degenerate", {
            let mut w = vec![1.0f64; n];
            w[0] = 1e-6;
            w
        }),
        (
            "two-class",
            (0..n).map(|j| if j % 4 == 0 { 8.0 } else { 1.0 }).collect(),
        ),
    ];
    for (label, weights) in shapes {
        let proto = WeightedAdaptive::new(weights);
        let cfg = RunConfig::new(n, m).with_engine(Engine::Histogram);
        group.bench_with_input(
            BenchmarkId::new("weighted-adaptive", label),
            &cfg,
            |b, cfg| {
                let mut seed = 0u64;
                b.iter(|| {
                    seed += 1;
                    let mut rng = SeedSequence::new(seed).rng();
                    proto.allocate(cfg, &mut rng, &mut NullObserver)
                });
            },
        );
    }
    group.finish();
}

fn bench_parallel_heavy(c: &mut Criterion) {
    // The round-occupancy engine's acceptance regime: n = m = 10⁷
    // (the faithful per-contact baselines at 0.5–10 s/run live in
    // BENCH_engines.json). Debug smoke shrinks the size.
    #[cfg(debug_assertions)]
    let n = 1 << 14;
    #[cfg(not(debug_assertions))]
    let n = 10_000_000usize;
    let m = n as u64;
    let mut group = c.benchmark_group(format!("engines/parallel-heavy n=m={n}"));
    group.throughput(Throughput::Elements(m));
    let cfg = RunConfig::new(n, m).with_engine(Engine::Histogram);
    group.bench_with_input(
        BenchmarkId::new("collision(c=1)", "histogram"),
        &cfg,
        |b, cfg| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let mut rng = SeedSequence::new(seed).rng();
                bib_parallel::protocols::Collision::new(1).allocate(
                    cfg,
                    &mut rng,
                    &mut NullObserver,
                )
            });
        },
    );
    group.bench_with_input(
        BenchmarkId::new("bounded-load(cap=2)", "histogram"),
        &cfg,
        |b, cfg| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let mut rng = SeedSequence::new(seed).rng();
                bib_parallel::protocols::BoundedLoad::new(2).allocate(
                    cfg,
                    &mut rng,
                    &mut NullObserver,
                )
            });
        },
    );
    group.bench_with_input(
        BenchmarkId::new("parallel-greedy[2]", "histogram"),
        &cfg,
        |b, cfg| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let mut rng = SeedSequence::new(seed).rng();
                bib_parallel::protocols::ParallelGreedy::new(2, 4, 1).allocate(
                    cfg,
                    &mut rng,
                    &mut NullObserver,
                )
            });
        },
    );
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).warm_up_time(Duration::from_millis(500)).measurement_time(Duration::from_secs(2));
    targets = bench_engines, bench_heavy, bench_weighted_heavy, bench_parallel_heavy
}
criterion_main!(benches);
