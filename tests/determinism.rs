//! Deterministic-seed regression tests.
//!
//! The whole experiment harness is seeded: the same
//! `(protocol, RunConfig, seed)` triple must reproduce the same
//! [`Outcome`] bit for bit, on any machine and any run. This is what
//! makes the paper's tables reproducible and the engine-equivalence
//! claims (faithful retry loop ≡ histogram engine, in distribution)
//! testable at all.

use balls_into_bins::core::prelude::*;
use balls_into_bins::core::protocols::by_name;

const PROTOCOLS: &[&str] = &[
    "one-choice",
    "greedy[2]",
    "left[2]",
    "memory(1,1)",
    "threshold",
    "adaptive",
    "adaptive-tight",
];

/// Two runs of the same `(protocol, RunConfig, seed)` triple produce
/// identical outcomes — total samples, per-ball maximum, and the entire
/// load vector — under every engine.
#[test]
fn same_triple_same_outcome() {
    for name in PROTOCOLS {
        for engine in Engine::ALL {
            let proto = by_name(name).expect("known protocol");
            let cfg = RunConfig::new(128, 1280).with_engine(engine);
            for seed in [0u64, 7, 2013] {
                let a = run_protocol(proto.as_ref(), &cfg, seed);
                let b = run_protocol(proto.as_ref(), &cfg, seed);
                assert_eq!(a.protocol, b.protocol);
                assert_eq!(a.n, b.n);
                assert_eq!(a.m, b.m);
                assert_eq!(
                    a.total_samples, b.total_samples,
                    "{name}/{engine:?}/seed {seed}: sample count not reproducible"
                );
                assert_eq!(
                    a.max_samples_per_ball, b.max_samples_per_ball,
                    "{name}/{engine:?}/seed {seed}: per-ball max not reproducible"
                );
                assert_eq!(
                    a.loads, b.loads,
                    "{name}/{engine:?}/seed {seed}: load vector not reproducible"
                );
            }
        }
    }
}

/// Replicate seeds are a pure function of `(master, protocol, rep)`, so
/// replicate batches are reproducible too, and distinct replicates are
/// actually distinct runs.
#[test]
fn replicate_batches_reproduce() {
    let proto = by_name("adaptive").expect("known protocol");
    let cfg = RunConfig::new(64, 640).with_engine(Engine::Faithful);
    let a = run_replicates(proto.as_ref(), &cfg, 99, 8);
    let b = run_replicates(proto.as_ref(), &cfg, 99, 8);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.loads, y.loads);
        assert_eq!(x.total_samples, y.total_samples);
    }
    // Different replicates see different randomness (all-equal batches
    // would mean the replicate-seed derivation collapsed).
    assert!(
        a.windows(2).any(|w| w[0].loads != w[1].loads),
        "all 8 replicates identical — replicate seeding is broken"
    );
}

/// Engine equivalence: every concrete engine simulates the *same*
/// stochastic process as the faithful retry loop.
///
/// The batched engines consume randomness differently (they replace
/// per-ball retry runs by binomial splits), so outcomes cannot be
/// compared ball-for-ball at a fixed seed; the claim is equality in
/// distribution. With all seeds fixed this test is still fully
/// deterministic: every engine runs the same replicate batch and must
/// agree on the distribution summaries, and each replicate must respect
/// the `⌈m/n⌉ + 1` bound of Theorem 3.1 under every engine.
#[test]
fn engines_agree_in_distribution() {
    let (n, phi, reps) = (256usize, 10u64, 32u64);
    let m = phi * n as u64;
    for name in ["adaptive", "threshold"] {
        let proto = by_name(name).expect("known protocol");
        let mut mean_max = [0.0f64; Engine::ALL.len()];
        let mut mean_ratio = [0.0f64; Engine::ALL.len()];
        for (e, engine) in Engine::ALL.into_iter().enumerate() {
            let cfg = RunConfig::new(n, m).with_engine(engine);
            let outs = run_replicates(proto.as_ref(), &cfg, 424242, reps);
            for out in &outs {
                assert!(
                    out.max_load() as u64 <= cfg.max_load_bound(),
                    "{name}/{engine:?}: max load {} over bound {}",
                    out.max_load(),
                    cfg.max_load_bound()
                );
            }
            mean_max[e] = outs.iter().map(|o| o.max_load() as f64).sum::<f64>() / reps as f64;
            mean_ratio[e] = outs.iter().map(|o| o.time_ratio()).sum::<f64>() / reps as f64;
        }
        // Replicate means over 32 runs: engine disagreement beyond these
        // windows would be a distributional (i.e. implementation) gap,
        // not noise. Every fast engine is held against the faithful one.
        for e in 1..Engine::ALL.len() {
            assert!(
                (mean_max[0] - mean_max[e]).abs() <= 0.5,
                "{name}: mean max load differs, faithful {} vs {:?} {}",
                mean_max[0],
                Engine::ALL[e],
                mean_max[e]
            );
            assert!(
                (mean_ratio[0] - mean_ratio[e]).abs() <= 0.1 * mean_ratio[0].max(mean_ratio[e]),
                "{name}: mean T/m differs, faithful {} vs {:?} {}",
                mean_ratio[0],
                Engine::ALL[e],
                mean_ratio[e]
            );
        }
    }
}
