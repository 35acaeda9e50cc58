//! The `level-batched` engine name, held to the claims its engine made.
//!
//! The level-batched engine is gone: `"level-batched"` now parses to
//! `Engine::Faithful`, which keeps the law it promised (final loads
//! exact in distribution). The cases its equivalence suite ran on paths
//! that survive stay here under their names:
//!
//! * the degenerate `t = 1` stages of `adaptive-tight`, exact under
//!   every engine in `Engine::ALL`;
//! * sure invariants (mass, the `⌈m/n⌉+1` bound) of `threshold`,
//!   `adaptive`, `ThresholdSlack` and `BatchedAdaptive` runs under the
//!   alias, for `n ∈ {1, 2, 8, 64}`;
//! * a two-sample chi-square test of the max−min gap in the `m ≫ n`
//!   regime between the alias and the histogram engine, which now serves
//!   that regime.

use bib_analysis::chisq::chi_square_two_sample;
use bib_core::batched::BatchedAdaptive;
use bib_core::prelude::*;
use bib_core::protocols::ThresholdSlack;
use bib_core::run::run_protocol;

/// The engine `--engine level-batched` selects.
fn level_batched() -> Engine {
    let engine: Engine = "level-batched".parse().unwrap();
    assert_eq!(
        engine,
        Engine::Faithful,
        "level-batched is an alias of faithful"
    );
    engine
}

/// Histograms a per-outcome statistic over replicate ensembles of the
/// `level-batched` alias and the histogram engine.
fn engine_histograms<P, F>(
    proto: &P,
    n: usize,
    m: u64,
    reps: u64,
    cells: usize,
    stat: F,
) -> (Vec<u64>, Vec<u64>)
where
    P: Protocol,
    F: Fn(&Outcome) -> usize,
{
    let mut hists = Vec::new();
    for (engine, seed_space) in [(level_batched(), 0u64), (Engine::Histogram, 3_000_000)] {
        let cfg = RunConfig::new(n, m).with_engine(engine);
        let mut h = vec![0u64; cells];
        for rep in 0..reps {
            // Distinct seed spaces per engine: the comparison is
            // distributional, not stream-coupled.
            let seed = rep + seed_space;
            let out = run_protocol(proto, &cfg, seed);
            out.validate();
            let idx = stat(&out).min(cells - 1);
            h[idx] += 1;
        }
        hists.push(h);
    }
    let b = hists.pop().unwrap();
    let a = hists.pop().unwrap();
    (a, b)
}

#[test]
fn degenerate_t1_stages_are_exact() {
    // adaptive-tight's stage τ accepts only load < τ: every stage fills
    // every bin exactly once, deterministically — including the t = 1
    // first stage. Exact under every engine.
    for n in [2usize, 8, 64] {
        for phi in [1u64, 3] {
            let m = phi * n as u64;
            for engine in Engine::ALL {
                let cfg = RunConfig::new(n, m).with_engine(engine);
                let out = run_protocol(&Adaptive::tight(), &cfg, 7);
                out.validate();
                assert_eq!(out.loads, vec![phi as u32; n], "n={n} phi={phi} {engine:?}");
            }
        }
    }
}

#[test]
fn invariants_hold_across_sizes_and_protocols() {
    // Sure properties on every run: mass conservation (via validate),
    // the ⌈m/n⌉+1 max-load bound, and samples ≥ m.
    for n in [1usize, 2, 8, 64] {
        for m in [0u64, 1, 7, 64, 512 * 64] {
            let cfg = RunConfig::new(n, m).with_engine(level_batched());
            for seed in 0..3u64 {
                let thr = run_protocol(&Threshold, &cfg, seed);
                thr.validate();
                assert!(thr.max_load() as u64 <= cfg.max_load_bound(), "n={n} m={m}");
                assert!(thr.total_samples >= m, "n={n} m={m}");
                let ada = run_protocol(&Adaptive::paper(), &cfg, seed);
                ada.validate();
                assert!(ada.max_load() as u64 <= cfg.max_load_bound(), "n={n} m={m}");
                let slk = run_protocol(&ThresholdSlack::new(3), &cfg, seed);
                slk.validate();
                if n > 1 {
                    let bat = run_protocol(&BatchedAdaptive::new(n as u64 / 2 + 1), &cfg, seed);
                    bat.validate();
                    assert!(bat.max_load() as u64 <= cfg.max_load_bound());
                }
            }
        }
    }
}

#[test]
fn chi_square_heavy_load_regime_matches_faithful() {
    // m ≫ n, the regime the level-batched engine was built for: n = 64,
    // m = 256·64, where the histogram engine's rounds take
    // normal-approximated splits. (The n = 8, m = 1024·8 case runs in
    // `histogram_equivalence.rs::chi_square_heavy_load_regime`.)
    let (a, b) = engine_histograms(&Threshold, 64, 64 * 256, 800, 10, |o| o.gap() as usize);
    let p = chi_square_two_sample(&a, &b);
    assert!(p > 1e-4, "threshold n=64 heavy gap: p={p}\n{a:?}\n{b:?}");
}
