//! The `adaptive` protocol — the paper's main contribution (Figure 1).
//!
//! Ball `i` re-samples uniform bins until it finds one with load strictly
//! less than `i/n + 1`. Unlike `threshold`, the total number of balls `m`
//! need not be known in advance: the acceptance bound adapts to how many
//! balls have been placed. Maximum load is `⌈m/n⌉ + 1` by construction;
//! Theorem 3.1 proves expected allocation time `O(m)`, and Corollary 3.5
//! proves the load stays *smooth*: `E[Φ] = O(n)`, `E[Ψ] = O(n)`, gap
//! `O(log n)` w.h.p.
//!
//! The `slack = 0` variant (acceptance `load < i/n`) is the ablation
//! discussed in Section 2: each stage degenerates into a coupon-collector
//! process and the allocation time becomes `Θ(m log n)`.

use crate::protocol::{Observer, Outcome, Protocol, RunConfig};
use crate::sampler::{allocate_scheduled, ThresholdSchedule};
use bib_rng::Rng64;

/// The adaptive-threshold protocol, parameterised by the additive slack
/// in the acceptance bound (`load < i/n + slack`).
///
/// # Examples
///
/// ```
/// use bib_core::prelude::*;
///
/// let cfg = RunConfig::new(100, 5_000).with_engine(Engine::Faithful);
/// let out = run_protocol(&Adaptive::paper(), &cfg, 7);
/// assert!(out.max_load() as u64 <= cfg.max_load_bound()); // ⌈m/n⌉ + 1
/// assert!(out.time_ratio() < 3.0);                        // Theorem 3.1
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Adaptive {
    slack: u32,
}

impl Adaptive {
    /// The paper's protocol: acceptance `load < i/n + 1`.
    pub fn paper() -> Self {
        Self { slack: 1 }
    }

    /// The Section 2 ablation: acceptance `load < i/n` — a coupon
    /// collector per stage, `Θ(m log n)` total.
    pub fn tight() -> Self {
        Self { slack: 0 }
    }

    /// Generalised slack (`load < i/n + slack`); larger slack trades
    /// smoothness for speed.
    pub fn with_slack(slack: u32) -> Self {
        Self { slack }
    }

    /// The configured slack.
    pub fn slack(&self) -> u32 {
        self.slack
    }

    /// Integer acceptance bound for ball `i` (1-based): a bin accepts iff
    /// `load < t_i` where `t_i = ⌈(i + slack·n)/n⌉` — the smallest
    /// integer bound equivalent to `load < i/n + slack` for integer
    /// loads.
    ///
    /// Within stage `τ` (balls `(τ−1)n+1 … τn`) this is constant at
    /// `τ + slack`, matching the paper's observation that the threshold
    /// "only changes after n balls are allocated".
    pub fn acceptance_bound(&self, n: usize, ball: u64) -> u32 {
        debug_assert!(ball >= 1);
        u32::try_from((ball + self.slack as u64 * n as u64).div_ceil(n as u64))
            .expect("stage index ⌈ball/n⌉ + slack exceeds u32 — loads are u32 workspace-wide")
    }
}

impl ThresholdSchedule for Adaptive {
    fn bound(&self, cfg: &RunConfig, ball: u64) -> u32 {
        self.acceptance_bound(cfg.n, ball)
    }

    fn segment_end(&self, cfg: &RunConfig, ball: u64) -> u64 {
        // The bound is constant within a stage of n balls.
        ((ball - 1) / cfg.n as u64 + 1) * cfg.n as u64
    }
}

impl Protocol for Adaptive {
    fn name(&self) -> String {
        match self.slack {
            1 => "adaptive".into(),
            0 => "adaptive-tight".into(),
            s => format!("adaptive(+{s})"),
        }
    }

    fn allocate<R, O>(&self, cfg: &RunConfig, rng: &mut R, obs: &mut O) -> Outcome
    where
        R: Rng64 + ?Sized,
        O: Observer + ?Sized,
    {
        allocate_scheduled(self, cfg, rng, obs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Engine, NullObserver};
    use bib_rng::SplitMix64;

    #[test]
    fn acceptance_bound_is_stagewise_constant() {
        let a = Adaptive::paper();
        let n = 10usize;
        // Stage 1: balls 1..=10 ⇒ bound 2 (load < i/10 + 1 ⇒ load ≤ 1).
        for i in 1..=10u64 {
            assert_eq!(a.acceptance_bound(n, i), 2, "ball {i}");
        }
        // Stage 2: balls 11..=20 ⇒ bound 3.
        for i in 11..=20u64 {
            assert_eq!(a.acceptance_bound(n, i), 3, "ball {i}");
        }
    }

    #[test]
    fn tight_variant_bound() {
        let a = Adaptive::tight();
        let n = 10usize;
        // Ball 1..=10: load < i/10 ⇒ only empty bins (bound 1).
        for i in 1..=10u64 {
            assert_eq!(a.acceptance_bound(n, i), 1, "ball {i}");
        }
        assert_eq!(a.acceptance_bound(n, 11), 2);
    }

    #[test]
    fn max_load_bound_holds_always() {
        for seed in 0..5u64 {
            for engine in Engine::ALL {
                let cfg = RunConfig::new(16, 103).with_engine(engine);
                let mut rng = SplitMix64::new(seed);
                let out = Adaptive::paper().allocate(&cfg, &mut rng, &mut NullObserver);
                out.validate();
                assert!(
                    out.max_load() as u64 <= cfg.max_load_bound(),
                    "seed={seed} {engine:?}"
                );
            }
        }
    }

    #[test]
    fn tight_variant_is_perfectly_balanced() {
        // slack = 0 forces load < ⌈i/n⌉, so after m = ϕn balls every bin
        // has exactly ϕ.
        let cfg = RunConfig::new(8, 8 * 5).with_engine(Engine::Faithful);
        let mut rng = SplitMix64::new(3);
        let out = Adaptive::tight().allocate(&cfg, &mut rng, &mut NullObserver);
        out.validate();
        assert_eq!(out.loads, vec![5u32; 8]);
        assert_eq!(out.gap(), 0);
    }

    #[test]
    fn tight_variant_costs_coupon_collector() {
        // Θ(m log n): at n = 64, ϕ = 4 the ratio T/m should be around
        // H_n ≈ 4.7, far above adaptive's small constant.
        let n = 64usize;
        let cfg = RunConfig::new(n, (n * 4) as u64).with_engine(Engine::Faithful);
        let mut rng = SplitMix64::new(4);
        let tight = Adaptive::tight().allocate(&cfg, &mut rng, &mut NullObserver);
        let mut rng = SplitMix64::new(4);
        let paper = Adaptive::paper().allocate(&cfg, &mut rng, &mut NullObserver);
        assert!(
            tight.time_ratio() > 2.0 * paper.time_ratio(),
            "tight {} vs paper {}",
            tight.time_ratio(),
            paper.time_ratio()
        );
    }

    #[test]
    fn smoothness_beats_threshold_at_heavy_load() {
        // Corollary 3.5 vs Lemma 4.2 in miniature: m = n² with n = 64.
        let n = 64usize;
        let cfg = RunConfig::new(n, (n as u64) * (n as u64)).with_engine(Engine::Faithful);
        let mut rng = SplitMix64::new(5);
        let ada = Adaptive::paper().allocate(&cfg, &mut rng, &mut NullObserver);
        let mut rng = SplitMix64::new(5);
        let thr = crate::protocols::Threshold.allocate(&cfg, &mut rng, &mut NullObserver);
        assert!(
            ada.psi() < thr.psi(),
            "adaptive Ψ {} should be below threshold Ψ {}",
            ada.psi(),
            thr.psi()
        );
        assert!(ada.gap() <= thr.gap());
    }

    #[test]
    fn name_reflects_variant() {
        assert_eq!(Adaptive::paper().name(), "adaptive");
        assert_eq!(Adaptive::tight().name(), "adaptive-tight");
        assert_eq!(Adaptive::with_slack(3).name(), "adaptive(+3)");
        assert_eq!(Adaptive::with_slack(3).slack(), 3);
    }

    #[test]
    fn works_when_m_not_multiple_of_n() {
        let cfg = RunConfig::new(7, 23).with_engine(Engine::Faithful);
        let mut rng = SplitMix64::new(6);
        let out = Adaptive::paper().allocate(&cfg, &mut rng, &mut NullObserver);
        out.validate();
        assert!(out.max_load() as u64 <= cfg.max_load_bound());
    }
}
