//! Stale-information extension: `adaptive` with batched count updates.
//!
//! The paper notes that `adaptive` requires each ball to know how many
//! balls have been placed — "comparable to the (d,k)-memory model, where
//! every ball communicates with the ball that comes right after it". In
//! a distributed dispatcher that knowledge is often *stale*: the running
//! count is synchronised only every `b` balls. This module models that:
//! ball `i` uses the acceptance bound of ball `i' = ⌊(i−1)/b⌋·b + 1`
//! (the first ball of its batch), i.e. the count frozen at the last
//! batch boundary.
//!
//! Properties (proved by the same arguments as the paper's, provided
//! `b ≤ n`):
//!
//! * feasibility: within a batch the bound is that of a ball ≤ `i`, and
//!   at most `i − 1` balls are placed, so an accepting bin always exists
//!   (if all bins had `load ≥ ⌈i'/n⌉ + 1` then `i − 1 ≥ n⌈i'/n⌉ + n ≥
//!   i' + n ≥ i`, a contradiction for `b ≤ n`);
//! * max-load: the bound never exceeds the fresh-count bound, so the
//!   `⌈m/n⌉ + 1` guarantee is preserved *exactly*;
//! * cost: staleness only shrinks the accepting set, so allocation time
//!   weakly increases with `b` — the `batched_adaptive` experiment
//!   quantifies by how much.

use crate::protocol::{Observer, Outcome, Protocol, RunConfig};
use crate::protocols::Adaptive;
use crate::sampler::{allocate_scheduled, ThresholdSchedule};
use bib_rng::Rng64;

/// `adaptive` with the ball count synchronised every `b` balls.
#[derive(Debug, Clone, Copy)]
pub struct BatchedAdaptive {
    batch: u64,
}

impl BatchedAdaptive {
    /// Batch size `b ≥ 1`. `b = 1` is exactly the paper's `adaptive`.
    pub fn new(batch: u64) -> Self {
        assert!(batch >= 1, "batch size must be ≥ 1");
        Self { batch }
    }

    /// The batch size.
    pub fn batch(&self) -> u64 {
        self.batch
    }

    /// The stale ball index whose bound ball `i` uses.
    pub fn stale_index(&self, i: u64) -> u64 {
        debug_assert!(i >= 1);
        (i - 1) / self.batch * self.batch + 1
    }
}

impl ThresholdSchedule for BatchedAdaptive {
    fn bound(&self, cfg: &RunConfig, ball: u64) -> u32 {
        Adaptive::paper().acceptance_bound(cfg.n, self.stale_index(ball))
    }

    fn segment_end(&self, _cfg: &RunConfig, ball: u64) -> u64 {
        // The stale index — hence the bound — is frozen for the batch.
        self.stale_index(ball) + self.batch - 1
    }
}

impl Protocol for BatchedAdaptive {
    fn name(&self) -> String {
        format!("adaptive/batch={}", self.batch)
    }

    fn allocate<R, O>(&self, cfg: &RunConfig, rng: &mut R, obs: &mut O) -> Outcome
    where
        R: Rng64 + ?Sized,
        O: Observer + ?Sized,
    {
        assert!(
            self.batch <= cfg.n as u64,
            "feasibility requires batch size ({}) ≤ n ({})",
            self.batch,
            cfg.n
        );
        let mut out = allocate_scheduled(self, cfg, rng, obs);
        out.scenario = crate::scenario::Scenario::batched(self.batch);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Engine, NullObserver};
    use crate::run::run_protocol;
    use bib_rng::SplitMix64;

    #[test]
    fn stale_index_structure() {
        let b = BatchedAdaptive::new(4);
        assert_eq!(b.stale_index(1), 1);
        assert_eq!(b.stale_index(4), 1);
        assert_eq!(b.stale_index(5), 5);
        assert_eq!(b.stale_index(9), 9);
        assert_eq!(b.stale_index(12), 9);
    }

    #[test]
    fn batch_one_equals_adaptive_exactly() {
        let cfg = RunConfig::new(32, 321).with_engine(Engine::Faithful);
        let b1 = BatchedAdaptive::new(1);
        let mut r1 = SplitMix64::new(5);
        let mut r2 = SplitMix64::new(5);
        let a = b1.allocate(&cfg, &mut r1, &mut NullObserver);
        let b = Adaptive::paper().allocate(&cfg, &mut r2, &mut NullObserver);
        assert_eq!(a.loads, b.loads);
        assert_eq!(a.total_samples, b.total_samples);
    }

    #[test]
    fn max_load_guarantee_survives_staleness() {
        for batch in [1u64, 7, 16, 64] {
            let cfg = RunConfig::new(64, 1000).with_engine(Engine::Faithful);
            for seed in 0..5u64 {
                let out = run_protocol(&BatchedAdaptive::new(batch), &cfg, seed);
                out.validate();
                assert!(
                    out.max_load() as u64 <= cfg.max_load_bound(),
                    "batch={batch} seed={seed}"
                );
            }
        }
    }

    #[test]
    fn staleness_weakly_increases_cost() {
        // Mean over replicates: T(b=n) ≥ T(b=1) − noise.
        let n = 256usize;
        let cfg = RunConfig::new(n, 16 * n as u64).with_engine(Engine::Faithful);
        let mean_t = |batch: u64| -> f64 {
            (0..10u64)
                .map(|s| run_protocol(&BatchedAdaptive::new(batch), &cfg, s).total_samples as f64)
                .sum::<f64>()
                / 10.0
        };
        let fresh = mean_t(1);
        let stale = mean_t(n as u64);
        assert!(
            stale > fresh * 0.98,
            "stale {stale} unexpectedly below fresh {fresh}"
        );
    }

    #[test]
    #[should_panic]
    fn batch_larger_than_n_rejected() {
        let cfg = RunConfig::new(8, 100);
        let mut rng = SplitMix64::new(1);
        BatchedAdaptive::new(9).allocate(&cfg, &mut rng, &mut NullObserver);
    }
}
