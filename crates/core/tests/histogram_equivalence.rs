//! Distributional equivalence of the occupancy-histogram engine.
//!
//! The claim (see `bib-core::histogram`): `Engine::Histogram` induces
//! the same distribution on final load vectors as `Engine::Faithful`
//! for every protocol it accepts — `threshold` (and slack variants),
//! `adaptive` (and its batched/tight variants), `one-choice` and
//! `greedy[d]` — with the large-class occupancy splits being
//! moment-exact approximations whose error these tests bound. Checked
//! four ways:
//!
//! * exact small cases — `n = 1` (deterministic), the degenerate
//!   stages of `adaptive-tight` (deterministic), and sure invariants
//!   (mass, the `⌈m/n⌉+1` bound) across sizes including ones that
//!   engage every scatter path;
//! * two-sample chi-square tests on final-load functionals between
//!   faithful and histogram replicate ensembles, at small sizes (where
//!   the engine is exact) *and* at sizes that exercise the
//!   normal-approximated splits and the occupancy-cell walk;
//! * allocation-time tracking against the faithful engine's exact
//!   accounting;
//! * `Engine::Auto` resolution: deterministic, valid, and identical to
//!   the concrete engine it resolves to.

use bib_analysis::chisq::chi_square_sf;
use bib_core::prelude::*;
use bib_core::run::run_protocol;

/// Two-sample Pearson chi-square on a pair of histograms with pooling
/// of sparse cells; returns the p-value of "same distribution".
fn two_sample_p(a: &[u64], b: &[u64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let na: u64 = a.iter().sum();
    let nb: u64 = b.iter().sum();
    assert!(na > 0 && nb > 0);
    let (na, nb) = (na as f64, nb as f64);
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
        return 1.0;
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
/// faithful and histogram engines.
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
    for (engine, seed_space) in [(Engine::Faithful, 0u64), (Engine::Histogram, 3_000_000)] {
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
        let cfg = RunConfig::new(1, m).with_engine(Engine::Histogram);
        let out = run_protocol(&Threshold, &cfg, 5);
        out.validate();
        assert_eq!(out.loads, vec![m as u32]);
        assert_eq!(out.total_samples, m, "single bin wastes no samples");
        let out = run_protocol(&Adaptive::paper(), &cfg, 5);
        assert_eq!(out.loads, vec![m as u32]);
        let out = run_protocol(&OneChoice, &cfg, 5);
        assert_eq!(out.loads, vec![m as u32]);
        assert_eq!(out.total_samples, m);
        let out = run_protocol(&GreedyD::new(2), &cfg, 5);
        assert_eq!(out.loads, vec![m as u32]);
        assert_eq!(out.total_samples, 2 * m, "greedy[d] costs exactly d·m");
    }
}

#[test]
fn degenerate_tight_stages_are_exact() {
    // adaptive-tight's stage τ accepts only load < τ: every stage fills
    // every bin exactly once, deterministically.
    for n in [2usize, 8, 64, 256] {
        for phi in [1u64, 3] {
            let m = phi * n as u64;
            let cfg = RunConfig::new(n, m).with_engine(Engine::Histogram);
            let out = run_protocol(&Adaptive::tight(), &cfg, 7);
            out.validate();
            assert_eq!(out.loads, vec![phi as u32; n], "n={n} phi={phi}");
            assert_eq!(out.gap(), 0);
        }
    }
}

#[test]
fn invariants_hold_across_sizes_and_protocols() {
    // Sure properties on every run, at sizes spanning the exact per-bin
    // chain (n ≤ 64), the per-hit walk, and the occupancy-cell walk
    // with normal-approximated splits (n = 512, m ≫ n).
    use bib_core::batched::BatchedAdaptive;
    use bib_core::protocols::ThresholdSlack;
    for n in [1usize, 2, 8, 64, 512] {
        for m in [0u64, 1, 7, 64, 4096, 64 * 512] {
            let cfg = RunConfig::new(n, m).with_engine(Engine::Histogram);
            for seed in 0..3u64 {
                let thr = run_protocol(&Threshold, &cfg, seed);
                thr.validate();
                assert!(thr.max_load() as u64 <= cfg.max_load_bound(), "n={n} m={m}");
                let ada = run_protocol(&Adaptive::paper(), &cfg, seed);
                ada.validate();
                assert!(ada.max_load() as u64 <= cfg.max_load_bound(), "n={n} m={m}");
                let slk = run_protocol(&ThresholdSlack::new(3), &cfg, seed);
                slk.validate();
                let one = run_protocol(&OneChoice, &cfg, seed);
                one.validate();
                assert_eq!(one.total_samples, m);
                let grd = run_protocol(&GreedyD::new(2), &cfg, seed);
                grd.validate();
                assert_eq!(grd.total_samples, 2 * m);
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
fn chi_square_bin0_load_small_cases() {
    // Tiny runs: every scatter path is exact here, so these pin the
    // collapsed chain itself (class selection, tail, reconstruction).
    let (a, b) = engine_histograms(&Threshold, 2, 4, 4000, 4, |o| o.loads[0] as usize);
    let p = two_sample_p(&a, &b);
    assert!(
        p > 1e-4,
        "threshold n=2 m=4 bin-0 load: p={p}\n{a:?}\n{b:?}"
    );

    let (a, b) = engine_histograms(&Adaptive::paper(), 2, 5, 4000, 4, |o| o.loads[0] as usize);
    let p = two_sample_p(&a, &b);
    assert!(p > 1e-4, "adaptive n=2 m=5 bin-0 load: p={p}\n{a:?}\n{b:?}");

    let (a, b) = engine_histograms(&OneChoice, 4, 12, 4000, 8, |o| o.loads[0] as usize);
    let p = two_sample_p(&a, &b);
    assert!(
        p > 1e-4,
        "one-choice n=4 m=12 bin-0 load: p={p}\n{a:?}\n{b:?}"
    );

    let (a, b) = engine_histograms(&GreedyD::new(2), 4, 12, 4000, 8, |o| o.loads[0] as usize);
    let p = two_sample_p(&a, &b);
    assert!(
        p > 1e-4,
        "greedy[2] n=4 m=12 bin-0 load: p={p}\n{a:?}\n{b:?}"
    );
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
fn chi_square_heavy_load_regime() {
    // m ≫ n engages the rounds with normal-approximated splits.
    let (a, b) = engine_histograms(&Threshold, 8, 8 * 1024, 1500, 8, |o| o.gap() as usize);
    let p = two_sample_p(&a, &b);
    assert!(p > 1e-4, "threshold n=8 heavy gap: p={p}\n{a:?}\n{b:?}");

    let (a, b) = engine_histograms(&Adaptive::paper(), 8, 8 * 1024, 1500, 8, |o| {
        o.gap() as usize
    });
    let p = two_sample_p(&a, &b);
    assert!(p > 1e-4, "adaptive n=8 heavy gap: p={p}\n{a:?}\n{b:?}");
}

#[test]
fn chi_square_occupancy_walk_regime() {
    // n = 256: classes are large enough that the occupancy-cell walk
    // and the rounded-normal split draws carry the run — the paths
    // whose approximation error these ensembles bound.
    let (a, b) = engine_histograms(&Threshold, 256, 256 * 64, 600, 10, |o| o.gap() as usize);
    let p = two_sample_p(&a, &b);
    assert!(p > 1e-4, "threshold n=256 heavy gap: p={p}\n{a:?}\n{b:?}");

    let (a, b) = engine_histograms(&Adaptive::paper(), 256, 256 * 64, 600, 10, |o| {
        o.gap() as usize
    });
    let p = two_sample_p(&a, &b);
    assert!(p > 1e-4, "adaptive n=256 heavy gap: p={p}\n{a:?}\n{b:?}");

    let (a, b) = engine_histograms(&OneChoice, 256, 256 * 16, 600, 24, |o| o.gap() as usize);
    let p = two_sample_p(&a, &b);
    assert!(p > 1e-4, "one-choice n=256 gap: p={p}\n{a:?}\n{b:?}");

    // greedy's histogram chain is exact at every size; this pins the
    // rank-to-class mapping at a size where classes shift quickly.
    let (a, b) = engine_histograms(&GreedyD::new(2), 256, 256 * 16, 600, 8, |o| {
        o.gap() as usize
    });
    let p = two_sample_p(&a, &b);
    assert!(p > 1e-4, "greedy[2] n=256 gap: p={p}\n{a:?}\n{b:?}");
}

#[test]
fn chi_square_max_load_one_choice() {
    // Max load reads the histogram's upper tail — the statistic most
    // sensitive to occupancy-split errors.
    let (a, b) = engine_histograms(&OneChoice, 128, 128 * 8, 1200, 12, |o| {
        (o.max_load() as usize).saturating_sub(8)
    });
    let p = two_sample_p(&a, &b);
    assert!(p > 1e-4, "one-choice n=128 max load: p={p}\n{a:?}\n{b:?}");
}

#[test]
fn histogram_is_deterministic_per_seed() {
    for proto in [
        "threshold",
        "adaptive",
        "adaptive-tight",
        "one-choice",
        "greedy[2]",
    ] {
        let cfg = RunConfig::new(64, 64 * 100).with_engine(Engine::Histogram);
        let p = bib_core::protocols::by_name(proto).unwrap();
        let x = run_protocol(p.as_ref(), &cfg, 11);
        let y = run_protocol(p.as_ref(), &cfg, 11);
        assert_eq!(x, y, "{proto}");
    }
}

#[test]
fn allocation_time_tracks_jump_engine() {
    // total_samples under Histogram mixes CLT round draws with exact
    // tail geometrics; the ensemble mean must track the faithful
    // engine's exact accounting (`jump` is its alias) to a couple of
    // percent.
    let n = 64usize;
    let m = 64u64 * 64;
    let reps = 200u64;
    for proto in [&Threshold as &dyn DynProtocol, &Adaptive::paper()] {
        let mean_ratio = |engine: Engine| -> f64 {
            let cfg = RunConfig::new(n, m).with_engine(engine);
            (0..reps)
                .map(|s| run_protocol(proto, &cfg, s).time_ratio())
                .sum::<f64>()
                / reps as f64
        };
        let faithful = mean_ratio(Engine::Faithful);
        let hist = mean_ratio(Engine::Histogram);
        assert!(
            (faithful - hist).abs() < 0.03 * faithful,
            "{}: mean T/m faithful {faithful} vs histogram {hist}",
            proto.dyn_name()
        );
        assert!(hist >= 1.0);
    }
}

#[test]
fn greedy_heavy_case_is_feasible_and_sane() {
    // The acceptance regime in miniature: greedy[2] at n = 2048,
    // m = 512·n (the full n = 10⁴, m = n² run lives in bench_json and
    // the criterion heavy gate). Power of two choices: the gap stays
    // within a few levels of m/n even at heavy load.
    let n = 2048usize;
    let cfg = RunConfig::new(n, 512 * n as u64).with_engine(Engine::Histogram);
    let out = run_protocol(&GreedyD::new(2), &cfg, 3);
    out.validate();
    assert_eq!(out.total_samples, 2 * cfg.m);
    assert!(out.gap() <= 12, "greedy[2] heavy gap {}", out.gap());
}

#[test]
fn auto_resolves_to_a_concrete_engine_stream() {
    // Auto must behave exactly like the concrete engine it resolves to
    // (same rng stream, same outcome) and stay valid across regimes.
    for (n, m) in [(16usize, 64u64), (64, 64 * 600), (512, 512 * 40)] {
        let auto_cfg = RunConfig::new(n, m).with_engine(Engine::Auto);
        for proto in ["threshold", "adaptive", "one-choice", "greedy[2]"] {
            let p = bib_core::protocols::by_name(proto).unwrap();
            let out = run_protocol(p.as_ref(), &auto_cfg, 9);
            out.validate();
            let matched = Engine::ALL.iter().any(|&engine| {
                let cfg = RunConfig::new(n, m).with_engine(engine);
                run_protocol(p.as_ref(), &cfg, 9) == out
            });
            assert!(
                matched,
                "{proto} n={n} m={m}: Auto matches no concrete engine"
            );
        }
    }
}

#[test]
fn stage_traces_fire_like_sequential_engines() {
    use bib_core::protocol::StageTrace;
    use bib_core::run::run_with_observer;
    let cfg = RunConfig::new(32, 32 * 7 + 5).with_engine(Engine::Histogram);
    let mut trace = StageTrace::new();
    let out = run_with_observer(&Adaptive::paper(), &cfg, 3, &mut trace);
    out.validate();
    // 7 full stages plus the remainder stage.
    assert_eq!(trace.stages, vec![1, 2, 3, 4, 5, 6, 7, 8]);
    assert!(trace.psi.iter().all(|&p| p.is_finite() && p >= 0.0));
    // The trace's final gap must match the outcome's (same assignment
    // permutation throughout).
    assert_eq!(*trace.gaps.last().unwrap(), out.gap());
}
