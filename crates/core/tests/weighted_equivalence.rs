//! Distributional correctness of the weighted family: the Walker–Vose
//! alias table and the weight-class histogram engine.
//!
//! Two layers of claims are pinned here:
//!
//! * **Sampling layer** — `bib_rng::dist::AliasTable` draws bins with
//!   probabilities exactly proportional to the weights, for skewed,
//!   near-degenerate and power-law weight vectors (chi-square
//!   goodness-of-fit against the exact pmf, fixed seeds).
//! * **Engine layer** — the weight-class histogram engine
//!   (`Engine::Histogram` for `WeightedAdaptive`/`WeightedOneChoice`)
//!   induces the same distribution on final load vectors as the
//!   faithful per-ball driver (`Engine::Faithful`): two-sample
//!   chi-square tests on per-bin and aggregate functionals over
//!   replicate ensembles, plus sure invariants (mass conservation, the
//!   per-bin `⌈m·w_j/W⌉ + 1` bound, zero-weight bins staying empty) and
//!   exact small cases.
//!
//! The weight shapes mirror the scenario matrix: *skewed* (two-class
//! 1 : 8), *near-degenerate* (one bin at ~0 weight plus a zero-weight
//! bin), and *power-law* over 16 distinct values (exact class grouping;
//! the >`MAX_WEIGHT_CLASSES` quantized regime is covered separately by
//! an invariant test since its bounds are intentionally approximate).

use bib_analysis::chisq::{chi_square_gof, chi_square_sf};
use bib_core::prelude::*;
use bib_core::run::run_protocol;
use bib_rng::dist::{AliasTable, Distribution};
use bib_rng::SplitMix64;

/// The three weight shapes of the suite at size `n`.
fn shapes(n: usize) -> Vec<(&'static str, Vec<f64>)> {
    vec![
        (
            "skewed",
            (0..n).map(|j| if j % 4 == 0 { 8.0 } else { 1.0 }).collect(),
        ),
        ("near-degenerate", {
            let mut w = vec![1.0f64; n];
            w[0] = 1e-9;
            w[1] = 0.0;
            w
        }),
        (
            "power-law",
            (0..n).map(|j| 1.5f64.powi((j % 16) as i32)).collect(),
        ),
    ]
}

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

// --------------------------------------------------------------------
// Sampling layer: the alias table against the exact pmf.
// --------------------------------------------------------------------

#[test]
fn alias_table_matches_pmf_on_all_shapes() {
    let n = 64usize;
    let draws = 200_000u64;
    for (tag, weights) in shapes(n) {
        let w_total: f64 = weights.iter().sum();
        let alias = AliasTable::new(&weights);
        let mut rng = SplitMix64::new(0xA11A5);
        let mut observed = vec![0u64; n];
        for _ in 0..draws {
            observed[alias.sample(&mut rng)] += 1;
        }
        let probs: Vec<f64> = weights.iter().map(|&w| w / w_total).collect();
        let gof = chi_square_gof(&observed, &probs, 0, 5.0);
        assert!(
            gof.p_value > 1e-4,
            "{tag}: alias table failed GOF, p = {:.2e} (stat {:.1}, dof {})",
            gof.p_value,
            gof.statistic,
            gof.dof
        );
        // Never-sampled cells must truly have zero weight.
        for (j, &o) in observed.iter().enumerate() {
            if weights[j] == 0.0 {
                assert_eq!(o, 0, "{tag}: zero-weight bin {j} sampled");
            }
        }
    }
}

#[test]
fn alias_table_pmf_accessor_is_normalised() {
    for (_, weights) in shapes(40) {
        let alias = AliasTable::new(&weights);
        let total: f64 = (0..alias.len()).map(|i| alias.pmf(i)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }
}

// --------------------------------------------------------------------
// Engine layer: weight-class histogram engine vs the faithful driver.
// --------------------------------------------------------------------

/// Histograms a per-outcome statistic over replicate ensembles of the
/// faithful and histogram engines (distinct seed spaces per engine:
/// the comparison is distributional, not stream-coupled).
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
            // enum's layout).
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
fn engines_agree_on_single_bin_loads_across_shapes() {
    // Per-bin marginal of a tracked heavy bin and a tracked light bin,
    // at sizes that engage the batched rounds.
    let n = 96usize;
    let m = 4_800u64;
    for (tag, weights) in shapes(n) {
        let w_total: f64 = weights.iter().sum();
        let proto = WeightedAdaptive::new(weights.clone());
        for &bin in &[0usize, n - 1] {
            if weights[bin] == 0.0 {
                continue;
            }
            let fair = m as f64 * weights[bin] / w_total;
            let lo = (fair - 4.0).max(0.0) as usize;
            let (a, b) = engine_histograms(&proto, n, m, 220, 10, |o| {
                (o.loads[bin] as usize).saturating_sub(lo)
            });
            let p = two_sample_p(&a, &b);
            assert!(
                p > 1e-3,
                "{tag}: bin {bin} load distribution diverged, p = {p:.2e} ({a:?} vs {b:?})"
            );
        }
    }
}

#[test]
fn engines_agree_on_aggregate_functionals() {
    // Max overload (discretised) and allocation time (per-ball excess)
    // across the suite's shapes.
    let n = 128usize;
    let m = 6_400u64;
    for (tag, weights) in shapes(n) {
        let proto = WeightedAdaptive::new(weights.clone());
        let (a, b) = engine_histograms(&proto, n, m, 200, 8, |o| {
            // max overload in [0, 2]: bucket at 0.25 resolution
            (o.max_overload().max(0.0) * 4.0) as usize
        });
        let p = two_sample_p(&a, &b);
        assert!(p > 1e-3, "{tag}: max-overload law diverged, p = {p:.2e}");

        let (a, b) = engine_histograms(&proto, n, m, 200, 12, |o| {
            ((o.time_ratio() - 1.0) * 20.0).max(0.0) as usize
        });
        let p = two_sample_p(&a, &b);
        assert!(p > 1e-3, "{tag}: allocation-time law diverged, p = {p:.2e}");
    }
}

#[test]
fn histogram_allocation_time_is_unbiased_on_the_near_degenerate_shape() {
    // Two-sample z-test on the mean of T/m, faithful against the
    // weight-class histogram engine, 1 000 runs each in fixed, distinct
    // seed spaces. A round that keeps too few balls re-throws them and
    // inflates T: a bias of 0.005 in the mean is ≈ 7.5 standard errors
    // at this run count, which the 200-run chi-square in
    // `engines_agree_on_aggregate_functionals` only sometimes sees.
    let n = 128usize;
    let m = 6_400u64;
    let (_, weights) = shapes(n)
        .into_iter()
        .find(|(tag, _)| *tag == "near-degenerate")
        .expect("the suite has a near-degenerate shape");
    let proto = WeightedAdaptive::new(weights);
    let runs = 1_000u64;
    let moments = |engine: Engine, seed_space: u64| {
        let cfg = RunConfig::new(n, m).with_engine(engine);
        let xs: Vec<f64> = (0..runs)
            .map(|rep| {
                let out = run_protocol(&proto, &cfg, seed_space + rep);
                out.validate();
                out.time_ratio()
            })
            .collect();
        let mean = xs.iter().sum::<f64>() / runs as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (runs - 1) as f64;
        (mean, var / runs as f64)
    };
    let (faithful, se2_f) = moments(Engine::Faithful, 10_000_000);
    let (histogram, se2_h) = moments(Engine::Histogram, 20_000_000);
    let z = (histogram - faithful) / (se2_f + se2_h).sqrt();
    assert!(
        z.abs() < 4.0,
        "mean T/m: histogram {histogram:.5} vs faithful {faithful:.5} (z = {z:.2})"
    );
}

#[test]
fn engines_agree_for_weighted_one_choice() {
    // One-choice: no retry feedback, so the engine's class split is the
    // whole story. Track a heavy bin's load.
    let n = 80usize;
    let m = 4_000u64;
    let weights: Vec<f64> = (0..n).map(|j| if j % 4 == 0 { 8.0 } else { 1.0 }).collect();
    let w_total: f64 = weights.iter().sum();
    let proto = WeightedOneChoice::new(weights.clone());
    let fair = m as f64 * weights[0] / w_total;
    let lo = (fair - 3.0 * fair.sqrt()).max(0.0) as usize;
    let (a, b) = engine_histograms(&proto, n, m, 250, 14, |o| {
        ((o.loads[0] as usize).saturating_sub(lo)) / 4
    });
    let p = two_sample_p(&a, &b);
    assert!(p > 1e-3, "one-choice heavy-bin law diverged, p = {p:.2e}");
}

#[test]
fn per_bin_bound_holds_under_histogram_engine_across_shapes() {
    let n = 256usize;
    let m = 32_768u64;
    for (tag, weights) in shapes(n) {
        let w_total: f64 = weights.iter().sum();
        let cfg = RunConfig::new(n, m).with_engine(Engine::Histogram);
        for seed in 0..3u64 {
            let out = run_protocol(&WeightedAdaptive::new(weights.clone()), &cfg, seed);
            out.validate();
            for (j, &l) in out.loads.iter().enumerate() {
                let fair = m as f64 * weights[j] / w_total;
                assert!(
                    (l as f64) <= fair.ceil() + 1.0 + 1e-9,
                    "{tag} seed {seed} bin {j}: load {l} above fair {fair}"
                );
            }
        }
    }
}

#[test]
fn exact_small_cases_are_identical_in_law() {
    // n = 1: deterministic under both engines.
    for m in [0u64, 1, 17, 500] {
        for engine in [Engine::Faithful, Engine::Histogram] {
            let cfg = RunConfig::new(1, m).with_engine(engine);
            let out = run_protocol(&WeightedAdaptive::new(vec![3.0]), &cfg, 9);
            assert_eq!(out.loads, vec![m as u32], "{engine:?}");
            assert_eq!(out.total_samples, m, "{engine:?}: single bin never retries");
        }
    }
    // Two bins with equal weights and m = 2·k: slack-1 adaptive pins
    // both bins to k ± 1; mass and bound are sure under both engines.
    for engine in [Engine::Faithful, Engine::Histogram] {
        let cfg = RunConfig::new(2, 100).with_engine(engine);
        let out = run_protocol(&WeightedAdaptive::new(vec![1.0, 1.0]), &cfg, 4);
        out.validate();
        assert!(out.loads.iter().all(|&l| (49..=51).contains(&l)));
    }
}

#[test]
fn quantized_many_distinct_weights_keep_invariants() {
    // More distinct weights than MAX_WEIGHT_CLASSES: the classes
    // quantize, bounds become approximate — mass conservation and a
    // slackened per-bin bound must still hold surely.
    let n = 512usize;
    let weights: Vec<f64> = (0..n).map(|j| 1.0 + j as f64 / 37.0).collect();
    let w_total: f64 = weights.iter().sum();
    let m = 65_536u64;
    let cfg = RunConfig::new(n, m).with_engine(Engine::Histogram);
    let out = run_protocol(&WeightedAdaptive::new(weights.clone()), &cfg, 11);
    out.validate();
    // Quantized classes perturb each weight by at most the geometric
    // bucket width; the bound can shift by the same relative amount.
    let width = (weights[n - 1] / weights[0]).powf(1.0 / 64.0);
    for (j, &l) in out.loads.iter().enumerate() {
        let fair = m as f64 * weights[j] / w_total;
        assert!(
            (l as f64) <= (fair * width).ceil() + 2.0,
            "bin {j}: load {l} far above quantized fair share {fair}"
        );
    }
}

#[test]
fn auto_matches_its_resolved_engine_stream_for_stream_identity() {
    // Engine::Auto must resolve deterministically and reproduce the
    // exact stream of the engine it picks.
    let n = 64usize;
    let weights: Vec<f64> = (0..n).map(|j| 1.0 + (j % 3) as f64).collect();
    let proto = WeightedAdaptive::new(weights);
    for (m, resolved) in [(500u64, Engine::Faithful), (1 << 20, Engine::Histogram)] {
        let auto = run_protocol(&proto, &RunConfig::new(n, m).with_engine(Engine::Auto), 77);
        let conc = run_protocol(&proto, &RunConfig::new(n, m).with_engine(resolved), 77);
        assert_eq!(auto, conc, "Auto at m = {m} must match {resolved:?}");
    }
}
