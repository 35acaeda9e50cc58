//! Property-based tests for the parallel substrate and protocols.

use bib_core::prelude::*;
use bib_parallel::protocols::{BoundedLoad, Collision};
use bib_parallel::{par_map, replicate_outcomes, ReplicateSpec};
use bib_rng::SeedSequence;
use proptest::prelude::*;

proptest! {
    /// par_map equals sequential map for any pure function, any thread
    /// count, any size.
    #[test]
    fn par_map_equals_sequential(
        count in 0usize..300,
        threads in 1usize..9,
        mult in 1u64..1000,
    ) {
        let f = |i: usize| (i as u64).wrapping_mul(mult).wrapping_add(7);
        let seq: Vec<u64> = (0..count).map(f).collect();
        let par = par_map(count, threads, f);
        prop_assert_eq!(seq, par);
    }

    /// Replication is schedule-independent: any two thread counts give
    /// identical outcome vectors.
    #[test]
    fn replication_thread_invariance(
        n in 1usize..32,
        m in 0u64..200,
        reps in 0u64..8,
        seed in 0u64..100,
        t1 in 1usize..5,
        t2 in 1usize..5,
    ) {
        let cfg = RunConfig::new(n, m).with_engine(Engine::Faithful);
        let a = replicate_outcomes(
            &Adaptive::paper(),
            &cfg,
            &ReplicateSpec::new(reps, seed).with_threads(t1),
        );
        let b = replicate_outcomes(
            &Adaptive::paper(),
            &cfg,
            &ReplicateSpec::new(reps, seed).with_threads(t2),
        );
        prop_assert_eq!(a, b);
    }

    /// Bounded-load never exceeds its cap and conserves mass, for any
    /// feasible (n, m, cap).
    #[test]
    fn bounded_load_cap_invariant(
        n in 1usize..256,
        cap in 1u32..5,
        fill in 0.0f64..=1.0,
        seed in 0u64..200,
    ) {
        let m = ((cap as u64 * n as u64) as f64 * fill) as u64;
        let mut rng = SeedSequence::new(seed).rng();
        let out = BoundedLoad::new(cap).run(n, m, &mut rng);
        out.validate();
        prop_assert!(out.loads.iter().all(|&l| l <= cap));
        if m > 0 {
            prop_assert!(out.rounds() >= 1);
            prop_assert!(out.messages() >= m);
        }
    }

    /// Collision conserves mass and terminates for any config.
    #[test]
    fn collision_invariants(
        n in 1usize..256,
        m in 0u64..512,
        c in 1u32..5,
        seed in 0u64..200,
    ) {
        let mut rng = SeedSequence::new(seed).rng();
        let out = Collision::new(c).run(n, m, &mut rng);
        out.validate();
        if m > 0 {
            // Accept + request messages at least 2 per ball.
            prop_assert!(out.messages() >= 2 * m);
            // Without the stall fallback each round adds ≤ c per bin; the
            // fallback can dump the remainder, so the sound bound is:
            prop_assert!(out.max_load() as u64 <= (c as u64) * (out.rounds() as u64) + m);
        }
        let _ = c;
    }
}
