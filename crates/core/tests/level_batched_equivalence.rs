//! Distributional equivalence of the level-batched engine.
//!
//! The claim (see `bib-core::level_batched`): under `threshold`-style
//! protocols, `Engine::LevelBatched` induces *exactly* the same
//! distribution on the final load vector as `Engine::Faithful`. These
//! tests check it three ways:
//!
//! * exact small cases — `n = 1` (deterministic), the degenerate `t = 1`
//!   stages of `adaptive-tight` (deterministic), and invariants that
//!   must hold surely (mass, max-load bound) for `n ∈ {1, 2, 8, 64}`;
//! * two-sample chi-square tests on final-load functionals (the load of
//!   a fixed bin, the max−min gap) between faithful and level-batched
//!   replicate ensembles, including the `m ≫ n` regime;
//! * a mean-level check that the (CLT-sampled) allocation time under
//!   `LevelBatched` tracks the faithful engine's exact accounting.

use bib_analysis::chisq::chi_square_sf;
use bib_core::batched::BatchedAdaptive;
use bib_core::prelude::*;
use bib_core::protocols::ThresholdSlack;
use bib_core::run::run_protocol;

/// Two-sample Pearson chi-square on a pair of histograms with pooling of
/// sparse cells; returns the p-value of "same distribution".
fn two_sample_p(a: &[u64], b: &[u64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let na: u64 = a.iter().sum();
    let nb: u64 = b.iter().sum();
    assert!(na > 0 && nb > 0);
    let (na, nb) = (na as f64, nb as f64);
    // Pool cells until each has a combined count of ≥ 10.
    let mut cells: Vec<(f64, f64)> = Vec::new();
    let mut acc = (0.0, 0.0);
    for (&x, &y) in a.iter().zip(b) {
        acc.0 += x as f64;
        acc.1 += y as f64;
        if acc.0 + acc.1 >= 10.0 {
            cells.push(acc);
            acc = (0.0, 0.0);
        }
    }
    if acc.0 + acc.1 > 0.0 {
        if let Some(last) = cells.last_mut() {
            last.0 += acc.0;
            last.1 += acc.1;
        } else {
            cells.push(acc);
        }
    }
    if cells.len() < 2 {
        return 1.0; // both ensembles fully concentrated on one cell
    }
    let mut stat = 0.0;
    for &(x, y) in &cells {
        let tot = x + y;
        let ex = tot * na / (na + nb);
        let ey = tot * nb / (na + nb);
        stat += (x - ex) * (x - ex) / ex + (y - ey) * (y - ey) / ey;
    }
    chi_square_sf((cells.len() - 1) as u64, stat)
}

/// Histograms a per-outcome statistic over replicate ensembles of the
/// two engines.
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
    for (engine, seed_space) in [(Engine::Faithful, 0u64), (Engine::LevelBatched, 2_000_000)] {
        let cfg = RunConfig::new(n, m).with_engine(engine);
        let mut h = vec![0u64; cells];
        for rep in 0..reps {
            // Distinct seed spaces per engine (fixed, not tied to the
            // enum's layout): the comparison is distributional, not
            // stream-coupled.
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
fn single_bin_is_deterministic_and_exact() {
    for m in [0u64, 1, 37, 1000] {
        let cfg = RunConfig::new(1, m).with_engine(Engine::LevelBatched);
        let out = run_protocol(&Threshold, &cfg, 5);
        out.validate();
        assert_eq!(out.loads, vec![m as u32]);
        assert_eq!(out.total_samples, m, "single bin wastes no samples");
        let out = run_protocol(&Adaptive::paper(), &cfg, 5);
        assert_eq!(out.loads, vec![m as u32]);
    }
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
            let cfg = RunConfig::new(n, m).with_engine(Engine::LevelBatched);
            for seed in 0..3u64 {
                let thr = run_protocol(&Threshold, &cfg, seed);
                thr.validate();
                assert!(thr.max_load() as u64 <= cfg.max_load_bound(), "n={n} m={m}");
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
fn chi_square_bin0_load_matches_faithful_small_n() {
    // n = 2, m = 4: the load of bin 0 takes values 0..=3 (bound ⌈4/2⌉+1).
    let (a, b) = engine_histograms(&Threshold, 2, 4, 4000, 4, |o| o.loads[0] as usize);
    let p = two_sample_p(&a, &b);
    assert!(
        p > 1e-4,
        "threshold n=2 m=4 bin-0 load: p={p}\n{a:?}\n{b:?}"
    );

    let (a, b) = engine_histograms(&Adaptive::paper(), 2, 5, 4000, 4, |o| o.loads[0] as usize);
    let p = two_sample_p(&a, &b);
    assert!(p > 1e-4, "adaptive n=2 m=5 bin-0 load: p={p}\n{a:?}\n{b:?}");
}

#[test]
fn chi_square_gap_matches_faithful_n8() {
    let (a, b) = engine_histograms(&Threshold, 8, 64, 3000, 8, |o| o.gap() as usize);
    let p = two_sample_p(&a, &b);
    assert!(p > 1e-4, "threshold n=8 gap: p={p}\n{a:?}\n{b:?}");

    let (a, b) = engine_histograms(&Adaptive::paper(), 8, 60, 3000, 8, |o| o.gap() as usize);
    let p = two_sample_p(&a, &b);
    assert!(p > 1e-4, "adaptive n=8 m=60 gap: p={p}\n{a:?}\n{b:?}");
}

#[test]
fn chi_square_heavy_load_regime_matches_faithful() {
    // m ≫ n: n = 8, m = 1024·8 — the regime the engine exists for, kept
    // small enough that the faithful ensemble stays cheap.
    let (a, b) = engine_histograms(&Threshold, 8, 8 * 1024, 1500, 8, |o| o.gap() as usize);
    let p = two_sample_p(&a, &b);
    assert!(p > 1e-4, "threshold heavy gap: p={p}\n{a:?}\n{b:?}");

    let (a, b) = engine_histograms(&Threshold, 64, 64 * 256, 800, 10, |o| o.gap() as usize);
    let p = two_sample_p(&a, &b);
    assert!(p > 1e-4, "threshold n=64 heavy gap: p={p}\n{a:?}\n{b:?}");
}

#[test]
fn level_batched_is_deterministic_per_seed() {
    let cfg = RunConfig::new(64, 64 * 100).with_engine(Engine::LevelBatched);
    for proto in ["threshold", "adaptive", "adaptive-tight"] {
        let p = bib_core::protocols::by_name(proto).unwrap();
        let x = run_protocol(p.as_ref(), &cfg, 11);
        let y = run_protocol(p.as_ref(), &cfg, 11);
        assert_eq!(x, y, "{proto}");
    }
}

#[test]
fn allocation_time_tracks_jump_engine() {
    // total_samples under LevelBatched is a CLT draw of the same
    // negative-binomial total the faithful engine (`jump` is its alias)
    // counts exactly; the ensemble means must agree to a couple of
    // percent.
    let n = 64usize;
    let m = 64u64 * 64;
    let reps = 200u64;
    let mean_ratio = |engine: Engine| -> f64 {
        let cfg = RunConfig::new(n, m).with_engine(engine);
        (0..reps)
            .map(|s| run_protocol(&Threshold, &cfg, s).time_ratio())
            .sum::<f64>()
            / reps as f64
    };
    let faithful = mean_ratio(Engine::Faithful);
    let batched = mean_ratio(Engine::LevelBatched);
    assert!(
        (faithful - batched).abs() < 0.03 * faithful,
        "mean T/m: faithful {faithful} vs level-batched {batched}"
    );
    assert!(batched >= 1.0);
}
