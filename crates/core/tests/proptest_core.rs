//! Property-based tests for the core data structures and invariants.

use bib_core::bins::LoadVector;
use bib_core::partitioned::PartitionedBins;
use bib_core::potential::{
    exponential_potential, gap, holes, ln_exponential_potential, quadratic_potential, EPSILON,
};
use bib_core::prelude::*;
use bib_core::protocols::Threshold as ThresholdProto;
use proptest::prelude::*;

proptest! {
    /// The partitioned structure agrees with the naive load vector under
    /// arbitrary placement sequences, for every threshold query.
    #[test]
    fn partitioned_equals_naive(
        n in 1usize..40,
        ops in prop::collection::vec(0usize..40, 0..200),
    ) {
        let mut pb = PartitionedBins::new(n);
        let mut lv = LoadVector::new(n);
        for &op in &ops {
            let b = op % n;
            pb.place(b);
            lv.place(b);
        }
        pb.check_invariants();
        prop_assert_eq!(pb.as_slice(), lv.as_slice());
        prop_assert_eq!(pb.total(), lv.total());
        prop_assert_eq!(pb.max_load(), lv.max_load());
        for t in 0..(lv.max_load() + 3) {
            prop_assert_eq!(pb.count_below(t), lv.count_below(t));
        }
    }

    /// Rebuilding the partitioned index from the final loads gives the
    /// same queryable state as building it incrementally.
    #[test]
    fn from_loads_equals_incremental(
        n in 1usize..30,
        ops in prop::collection::vec(0usize..30, 0..150),
    ) {
        let mut pb = PartitionedBins::new(n);
        for &op in &ops {
            pb.place(op % n);
        }
        let rebuilt = PartitionedBins::from_loads(pb.as_slice().to_vec());
        rebuilt.check_invariants();
        for t in 0..(pb.max_load() + 3) {
            prop_assert_eq!(pb.count_below(t), rebuilt.count_below(t));
        }
    }

    /// Ψ is translation-detecting: it is zero iff the vector is exactly
    /// balanced at t/n, and always non-negative and finite.
    #[test]
    fn quadratic_potential_properties(
        loads in prop::collection::vec(0u32..100, 1..50),
    ) {
        let t: u64 = loads.iter().map(|&l| l as u64).sum();
        let psi = quadratic_potential(&loads, t);
        prop_assert!(psi >= 0.0);
        prop_assert!(psi.is_finite());
        let n = loads.len() as u64;
        let balanced = loads.iter().all(|&l| l as u64 * n == t);
        if balanced {
            prop_assert!(psi < 1e-9);
        } else {
            prop_assert!(psi > 0.0);
        }
    }

    /// ln Φ agrees with direct Φ when the direct value is representable.
    #[test]
    fn exponential_potential_ln_consistency(
        loads in prop::collection::vec(0u32..60, 1..40),
    ) {
        let t: u64 = loads.iter().map(|&l| l as u64).sum();
        let phi = exponential_potential(&loads, t, EPSILON);
        let ln_phi = ln_exponential_potential(&loads, t, EPSILON);
        prop_assert!(phi > 0.0);
        prop_assert!((ln_phi.exp() - phi).abs() <= 1e-9 * phi);
    }

    /// Adding a ball to a *minimum-loaded* bin never increases Φ
    /// by more than the trivial (1+ε) stage factor would allow, and
    /// filling a hole strictly decreases the hole count.
    #[test]
    fn placing_in_min_bin_decreases_holes(
        loads in prop::collection::vec(0u32..20, 2..30),
    ) {
        let max = *loads.iter().max().unwrap();
        let argmin = loads
            .iter()
            .enumerate()
            .min_by_key(|(_, &l)| l)
            .map(|(i, _)| i)
            .unwrap();
        if loads[argmin] < max {
            let before = holes(&loads, max);
            let mut after = loads.clone();
            after[argmin] += 1;
            prop_assert_eq!(holes(&after, max), before - 1);
        }
    }

    /// gap() matches the definitional max − min.
    #[test]
    fn gap_matches_definition(loads in prop::collection::vec(0u32..1000, 1..64)) {
        let mx = *loads.iter().max().unwrap();
        let mn = *loads.iter().min().unwrap();
        prop_assert_eq!(gap(&loads), mx - mn);
    }

    /// End-to-end protocol invariants under arbitrary small configs:
    /// mass conservation, sample accounting, and the max-load guarantee
    /// for the paper's protocols, on every engine.
    #[test]
    fn protocol_invariants_random_configs(
        n in 1usize..64,
        m in 0u64..500,
        seed in 0u64..1000,
        engine_idx in 0usize..Engine::ALL.len(),
    ) {
        let cfg = RunConfig::new(n, m).with_engine(Engine::ALL[engine_idx]);
        for proto in [
            Box::new(Adaptive::paper()) as Box<dyn DynProtocol>,
            Box::new(ThresholdProto),
        ] {
            let out = run_protocol(proto.as_ref(), &cfg, seed);
            out.validate();
            prop_assert!(out.max_load() as u64 <= cfg.max_load_bound());
        }
    }

    /// The adaptive acceptance bound is monotone in the ball index and
    /// increases by exactly 1 every n balls.
    #[test]
    fn adaptive_bound_schedule(n in 1usize..100, stage in 1u64..50) {
        let a = Adaptive::paper();
        let first = (stage - 1) * n as u64 + 1;
        let last = stage * n as u64;
        let b = a.acceptance_bound(n, first);
        prop_assert_eq!(a.acceptance_bound(n, last), b);
        prop_assert_eq!(a.acceptance_bound(n, last + 1), b + 1);
    }

    /// Batched adaptive with batch = 1 is exactly adaptive, for any
    /// config (distribution-level identity via equal streams).
    #[test]
    fn batched_one_is_adaptive(n in 1usize..32, m in 0u64..200, seed in 0u64..100) {
        let cfg = RunConfig::new(n, m).with_engine(Engine::Faithful);
        let a = run_protocol(&Adaptive::paper(), &cfg, seed);
        // Same underlying stream: run_protocol derives by name, so re-run
        // batched with the adaptive-derived seed directly.
        use bib_core::batched::BatchedAdaptive;
        use bib_core::protocol::NullObserver;
        use bib_rng::SeedSequence;
        let mut rng = SeedSequence::new(seed).child_str("adaptive").rng();
        let b = BatchedAdaptive::new(1).allocate(&cfg, &mut rng, &mut NullObserver);
        prop_assert_eq!(a.loads, b.loads);
        prop_assert_eq!(a.total_samples, b.total_samples);
    }

    /// Weighted adaptive with uniform weights obeys the uniform bound.
    #[test]
    fn weighted_uniform_bound(n in 1usize..32, m in 0u64..300, seed in 0u64..50) {
        use bib_rng::SeedSequence;
        let p = WeightedAdaptive::new(vec![1.0; n]);
        let mut rng = SeedSequence::new(seed).rng();
        let out = p.run(m, &mut rng);
        out.validate();
        let bound = m.div_ceil(n as u64) + 1;
        prop_assert!(out.loads.iter().all(|&l| (l as u64) <= bound));
    }
}
