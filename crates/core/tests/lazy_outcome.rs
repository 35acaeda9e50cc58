//! The lazy-outcome contract (see `bib_core::loads`): a no-observer
//! `Engine::Histogram` run returns a *virtual* load vector — the
//! occupancy histogram plus a reconstruction seed — and every
//! histogram-expressible statistic on `Outcome` must be computable
//! without ever materializing the dense per-bin vector. When the
//! vector *is* materialized, the histogram-computed statistics must
//! agree with their dense recomputations, and materialization must be
//! a pure deterministic function of the histogram and the seed.

use bib_core::histogram::OccupancyHistogram;
use bib_core::potential::{
    gap as dense_gap, ln_exponential_potential, quadratic_potential, EPSILON,
};
use bib_core::prelude::*;
use bib_core::run::run_protocol;
use bib_core::weighted::{WeightedAdaptive, WeightedOneChoice};

/// The uniform sequential protocols the histogram engine accepts.
fn protocols() -> Vec<Box<dyn DynProtocol + Send + Sync>> {
    ["threshold", "adaptive", "one-choice", "greedy[2]"]
        .iter()
        .map(|name| bib_core::protocols::by_name(name).unwrap())
        .collect()
}

/// Checks every histogram-computed statistic of `out` against a dense
/// recomputation from `loads` (which must be `out`'s materialization).
fn assert_stats_match_dense(out: &Outcome, loads: &[u32], tag: &str) {
    assert_eq!(out.n, loads.len(), "{tag}: n");
    let total: u64 = loads.iter().map(|&l| l as u64).sum();
    assert_eq!(out.total_balls(), total, "{tag}: total balls");
    assert_eq!(
        out.max_load(),
        loads.iter().copied().max().unwrap(),
        "{tag}: max load"
    );
    assert_eq!(
        out.min_load(),
        loads.iter().copied().min().unwrap(),
        "{tag}: min load"
    );
    assert_eq!(out.gap(), dense_gap(loads), "{tag}: gap");
    let psi = quadratic_potential(loads, out.m);
    assert!(
        (out.psi() - psi).abs() <= 1e-9 * psi.max(1.0),
        "{tag}: psi {} vs dense {psi}",
        out.psi()
    );
    let ln_phi = ln_exponential_potential(loads, out.m, EPSILON);
    assert!(
        (out.ln_phi() - ln_phi).abs() <= 1e-9 * ln_phi.abs().max(1.0),
        "{tag}: ln phi {} vs dense {ln_phi}",
        out.ln_phi()
    );
    let dense_overload = loads
        .iter()
        .enumerate()
        .map(|(j, &l)| l as f64 - out.fair_share(j))
        .fold(f64::NEG_INFINITY, f64::max);
    assert!(
        (out.max_overload() - dense_overload).abs() <= 1e-9 * dense_overload.abs().max(1.0),
        "{tag}: max overload {} vs dense {dense_overload}",
        out.max_overload()
    );
}

#[test]
fn histogram_runs_stay_virtual_through_every_statistic() {
    // The tentpole claim: the no-observer histogram path never pays
    // the O(n) reconstruction — not at run end, not in validate(), not
    // in any histogram-expressible statistic.
    for (n, m) in [(64usize, 64u64 * 100), (512, 512 * 12), (2048, 100)] {
        let cfg = RunConfig::new(n, m).with_engine(Engine::Histogram);
        for proto in protocols() {
            let out = run_protocol(proto.as_ref(), &cfg, 17);
            let tag = format!("{} n={n} m={m}", proto.dyn_name());
            assert!(!out.loads.is_materialized(), "{tag}: born materialized");
            out.validate();
            let _ = (
                out.total_balls(),
                out.max_load(),
                out.min_load(),
                out.gap(),
                out.psi(),
                out.ln_phi(),
                out.max_overload(),
                out.weighted_psi(),
                out.time_ratio(),
            );
            assert_eq!(out.loads.len(), n, "{tag}: len");
            assert!(
                !out.loads.is_materialized(),
                "{tag}: a histogram statistic materialized the loads"
            );
        }
    }
}

#[test]
fn histogram_statistics_match_dense_recomputation() {
    for (n, m) in [(32usize, 32u64 * 9 + 5), (256, 256 * 40)] {
        let cfg = RunConfig::new(n, m).with_engine(Engine::Histogram);
        for proto in protocols() {
            let out = run_protocol(proto.as_ref(), &cfg, 23);
            let tag = format!("{} n={n} m={m}", proto.dyn_name());
            // Materializing must not change any histogram statistic.
            let psi_before = out.psi();
            let dense = out.loads.to_vec();
            assert!(out.loads.is_materialized(), "{tag}: to_vec materializes");
            assert_stats_match_dense(&out, &dense, &tag);
            assert_eq!(out.psi(), psi_before, "{tag}: psi moved");
        }
    }
}

#[test]
fn sequential_engines_agree_between_histogram_and_dense_stats() {
    // Dense-born outcomes (Faithful / LevelBatched) go the other
    // way: the histogram view is derived from the vector, and the class
    // statistics must match the dense ones there too.
    for engine in [Engine::Faithful, Engine::LevelBatched] {
        let cfg = RunConfig::new(48, 48 * 20).with_engine(engine);
        for proto in protocols() {
            let out = run_protocol(proto.as_ref(), &cfg, 31);
            let tag = format!("{} {engine:?}", proto.dyn_name());
            assert!(out.loads.is_materialized(), "{tag}: dense-born");
            let dense = out.loads.to_vec();
            assert_stats_match_dense(&out, &dense, &tag);
        }
    }
}

#[test]
fn weighted_outcomes_are_dense_born_and_consistent() {
    // Per-bin weights pin bin identities, so weighted outcomes are
    // dense-born under every engine; the histogram view is derived.
    let n = 96usize;
    let m = 96u64 * 25;
    let weights: Vec<f64> = (0..n).map(|j| 1.0 + (j % 7) as f64).collect();
    for engine in [Engine::Faithful, Engine::Histogram] {
        let cfg = RunConfig::new(n, m).with_engine(engine);
        let out = run_protocol(&WeightedAdaptive::new(weights.clone()), &cfg, 41);
        let tag = format!("weighted-adaptive {engine:?}");
        assert!(out.loads.is_materialized(), "{tag}: dense-born");
        out.validate();
        let dense = out.loads.to_vec();
        assert_stats_match_dense(&out, &dense, &tag);
        // The weighted forms agree with one-pass dense recomputation.
        let wpsi: f64 = dense
            .iter()
            .enumerate()
            .map(|(j, &l)| {
                let d = l as f64 - out.fair_share(j);
                d * d
            })
            .sum();
        assert!(
            (out.weighted_psi() - wpsi).abs() <= 1e-9 * wpsi.max(1.0),
            "{tag}: weighted psi"
        );
        let out1 = run_protocol(&WeightedOneChoice::new(weights.clone()), &cfg, 41);
        assert!(out1.loads.is_materialized());
        out1.validate();
    }
}

#[test]
fn materialization_is_deterministic_and_independent_of_timing() {
    // One seed, three observation schedules: never materialized,
    // materialized immediately, materialized after stats ran. The
    // dense vectors must be bit-identical — materialization is a pure
    // function of (histogram, reconstruction seed).
    let cfg = RunConfig::new(512, 512 * 30).with_engine(Engine::Histogram);
    for proto in protocols() {
        let a = run_protocol(proto.as_ref(), &cfg, 57);
        let b = run_protocol(proto.as_ref(), &cfg, 57);
        let c = run_protocol(proto.as_ref(), &cfg, 57);
        let tag = proto.dyn_name();
        let eager = b.loads.to_vec();
        let _ = (c.gap(), c.psi(), c.ln_phi(), c.max_overload());
        let late = c.loads.to_vec();
        assert_eq!(eager, late, "{tag}: stat timing changed materialization");
        assert_eq!(a.loads.as_slice(), &eager[..], "{tag}: replicate differs");
        // Materializing twice is the identity.
        assert_eq!(a.loads.as_slice(), a.loads.as_slice(), "{tag}");
        // And the materialized multiset is exactly the histogram
        // (compared by occupancy classes: the engine's histogram may
        // carry zero-count padding at a different base).
        assert_eq!(
            OccupancyHistogram::from_loads(&eager)
                .levels()
                .collect::<Vec<_>>(),
            a.loads.histogram().levels().collect::<Vec<_>>(),
            "{tag}: materialization changed the multiset"
        );
    }
}

#[test]
fn virtual_and_dense_outcomes_compare_equal_on_equal_multisets() {
    // Loads equality is multiset-blind only across identical seeds:
    // a virtual outcome equals its own materialized clone.
    let cfg = RunConfig::new(128, 128 * 10).with_engine(Engine::Histogram);
    let lazy = run_protocol(&Threshold, &cfg, 99);
    let mut eager = run_protocol(&Threshold, &cfg, 99);
    assert!(!lazy.loads.is_materialized());
    let _ = eager.loads.as_slice();
    assert!(eager.loads.is_materialized());
    assert_eq!(lazy, eager, "virtual vs materialized replicate");
    assert!(
        !lazy.loads.is_materialized(),
        "equality comparison materialized the virtual side"
    );
    // (It is allowed to materialize when representations differ — the
    // fast path only fires on matching virtual reconstructions.)
    eager.loads = Loads::from_vec(vec![0; 128]);
    assert_ne!(lazy, eager);
}
