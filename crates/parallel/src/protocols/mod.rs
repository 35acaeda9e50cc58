//! Round-based *parallel* allocation protocols.
//!
//! These are the synchronous processes from the related-work section of
//! the paper: all currently unplaced balls act simultaneously in a round,
//! bins answer, and the process repeats. The performance currency is
//! *rounds* and *messages* rather than sequential samples.
//!
//! Since the scenario-layer refactor the round protocols are ordinary
//! [`Protocol`](bib_core::protocol::Protocol) implementations: they run
//! through `run_protocol`, boxed [`DynProtocol`] suites and
//! [`replicate_outcomes`](crate::replicate_outcomes) like any sequential
//! scheme, and return the unified
//! [`Outcome`](bib_core::protocol::Outcome) with
//! [`Scenario::rounds`](bib_core::scenario::Scenario) annotations
//! (`rounds`, `messages`).
//!
//! Each protocol has **two execution paths**, selected through the
//! engine in `RunConfig` (the family's resolution rule lives in
//! [`round_occupancy`](self): `Faithful`/`Jump` → per-contact rounds,
//! `Histogram`/`LevelBatched` → round-occupancy, `Auto` →
//! `Engine::auto_parallel`): the *faithful* per-contact rounds of the
//! published processes, and the *round-occupancy engine*, which draws
//! each round's request-multiplicity profile in one shot and resolves
//! acceptance per multiplicity class — `O(max multiplicity · #occupancy
//! classes)` per round, independent of the contact count. Both run on
//! one thread.
//!
//! The mapping onto the sequential record:
//!
//! * `total_samples` = total messages (the family's allocation-time
//!   currency: every ball→bin contact and every bin→ball accept);
//! * `max_samples_per_ball` = the largest number of *contacts* any
//!   single ball sent (exact per protocol; accept messages excluded);
//! * [`Observer::on_stage_end`] fires once per synchronous *round* with
//!   the loads and the number of balls placed so far — a stage here is
//!   a round, not `n` balls; `Observer::on_ball` never fires (balls act
//!   simultaneously, there is no per-ball order).
//!
//! The families:
//!
//! * [`BoundedLoad`] — a Lenzen–Wattenhofer-style protocol \[12\]: bins
//!   accept at most `cap` balls ever (max load ≤ `cap` by construction),
//!   unplaced balls double their contact count each round; ~`log* n`
//!   rounds and O(n) messages at `m = n`, `cap = 2`.
//! * [`Collision`] — an Adler et al.-flavoured collision protocol \[1\]:
//!   each unplaced ball contacts one bin; a bin accepts its requesters
//!   only if at most `c` of them collided there.
//! * [`ParallelGreedy`] — round-restricted parallel `greedy[d]` \[1\]:
//!   balls commit to `d` candidates, negotiate for `r` rounds, and are
//!   force-placed at the end; balance improves with the round budget.
//!
//! [`DynProtocol`]: bib_core::protocol::DynProtocol
//! [`Observer::on_stage_end`]: bib_core::protocol::Observer::on_stage_end

mod bounded_load;
mod collision;
mod parallel_greedy;
mod round_occupancy;

pub use bounded_load::BoundedLoad;
pub use collision::Collision;
pub use parallel_greedy::ParallelGreedy;

/// Iterated logarithm `log₂* n` — the paper \[12\]'s round complexity
/// yardstick, used by the `parallel_rounds` experiment.
pub fn log_star(n: f64) -> u32 {
    assert!(n.is_finite(), "log_star of non-finite value");
    let mut x = n;
    let mut iters = 0u32;
    while x > 1.0 {
        x = x.log2();
        iters += 1;
        assert!(iters < 64, "log_star diverged");
    }
    iters
}

#[cfg(test)]
mod tests {
    use super::*;
    use bib_core::protocol::{Outcome, Protocol, RunConfig};
    use bib_core::scenario::Scenario;
    use bib_rng::SplitMix64;

    #[test]
    fn log_star_known_values() {
        assert_eq!(log_star(1.0), 0);
        assert_eq!(log_star(2.0), 1);
        assert_eq!(log_star(4.0), 2);
        assert_eq!(log_star(16.0), 3);
        assert_eq!(log_star(65536.0), 4);
        // 2^65536 territory: anything practical is ≤ 5.
        assert_eq!(log_star(1e30), 5);
    }

    #[test]
    fn outcomes_carry_the_parallel_scenario() {
        let o = Outcome {
            protocol: "x".into(),
            n: 2,
            m: 3,
            total_samples: 9,
            max_samples_per_ball: 3,
            loads: vec![2, 1].into(),
            scenario: Scenario::rounds(2, 9),
        };
        o.validate();
        assert_eq!(o.scenario.label(), "parallel");
        assert_eq!(o.rounds(), 2);
        assert_eq!(o.messages(), 9);
        assert!((o.messages_per_ball() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn round_protocols_flow_through_the_generic_protocol_api() {
        // The point of the refactor: one entry point for every family.
        let cfg = RunConfig::new(64, 64);
        let mut rng = SplitMix64::new(3);
        let out = bib_core::run::run_protocol(&BoundedLoad::new(2), &cfg, 5);
        out.validate();
        assert!(out.rounds() >= 1);
        let out = Collision::new(1).allocate(&cfg, &mut rng, &mut bib_core::protocol::NullObserver);
        out.validate();
        assert_eq!(out.total_samples, out.messages());
    }

    #[test]
    #[should_panic]
    fn validate_catches_bad_mass() {
        Outcome {
            protocol: "x".into(),
            n: 2,
            m: 5,
            total_samples: 5,
            max_samples_per_ball: 1,
            loads: vec![1, 1].into(),
            scenario: Scenario::rounds(1, 5),
        }
        .validate();
    }
}
