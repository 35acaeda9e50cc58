//! The `threshold` protocol (Czumaj–Stemann [7]; Figure 2 of the paper).
//!
//! Every ball re-samples uniform bins until it finds one with load
//! strictly less than `m/n + 1`, so `m` must be known in advance. Maximum
//! load is `⌈m/n⌉ + 1` by construction; Theorem 4.1 shows the allocation
//! time is `m + O(m^{3/4} n^{1/4})` w.h.p. for all `m ≥ n`, and Lemma 4.2
//! shows the final distribution is *rough*: at `m = n²` the quadratic
//! potential is `Ω(n^{9/8})` and the gap `Ω(n^{1/8})`.

use crate::level_batched::{allocate_scheduled, ThresholdSchedule};
use crate::protocol::{Observer, Outcome, Protocol, RunConfig};
use bib_rng::Rng64;

/// The static-threshold protocol. Stateless: the acceptance threshold is
/// derived from the run configuration.
///
/// # Examples
///
/// ```
/// use bib_core::prelude::*;
///
/// let cfg = RunConfig::new(100, 10_000).with_engine(Engine::Faithful);
/// let out = run_protocol(&Threshold, &cfg, 7);
/// assert!(out.max_load() as u64 <= cfg.max_load_bound());
/// // Theorem 4.1: the excess over m is sublinear.
/// assert!((out.excess_samples() as f64) < 0.5 * cfg.m as f64);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Threshold;

impl Threshold {
    /// The integer acceptance bound: a bin accepts iff `load < t`, where
    /// `t` is the smallest integer with `load < t ⟺ load < m/n + 1` for
    /// integer loads, i.e. `t = ⌈(m + n)/n⌉`.
    pub fn acceptance_bound(n: usize, m: u64) -> u32 {
        debug_assert!(n > 0);
        u32::try_from((m + n as u64).div_ceil(n as u64))
            .expect("acceptance bound ⌈(m+n)/n⌉ exceeds u32 — loads are u32 workspace-wide")
    }
}

impl ThresholdSchedule for Threshold {
    fn bound(&self, cfg: &RunConfig, _ball: u64) -> u32 {
        Self::acceptance_bound(cfg.n, cfg.m)
    }

    fn segment_end(&self, cfg: &RunConfig, _ball: u64) -> u64 {
        // The bound is global: the whole run is one segment.
        cfg.m
    }
}

impl Protocol for Threshold {
    fn name(&self) -> String {
        "threshold".into()
    }

    fn allocate<R, O>(&self, cfg: &RunConfig, rng: &mut R, obs: &mut O) -> Outcome
    where
        R: Rng64 + ?Sized,
        O: Observer + ?Sized,
    {
        allocate_scheduled(self, cfg, rng, obs)
    }
}

/// `threshold` with a generalised additive slack: accept
/// `load < m/n + s`. The paper's protocol is `s = 1`; larger slack
/// trades maximum load (`⌈m/n⌉ + s`) for fewer retries — the
/// `extensions` experiment quantifies the trade.
#[derive(Debug, Clone, Copy)]
pub struct ThresholdSlack {
    slack: u32,
}

impl ThresholdSlack {
    /// Slack `s ≥ 1` (`s = 0` would deadlock: the last ball of a full
    /// layer finds no accepting bin once all bins reach `m/n`).
    pub fn new(slack: u32) -> Self {
        assert!(slack >= 1, "threshold slack must be ≥ 1");
        Self { slack }
    }

    /// The configured slack.
    pub fn slack(&self) -> u32 {
        self.slack
    }

    /// Integer acceptance bound: smallest `t` with
    /// `load < t ⟺ load < m/n + s`, i.e. `t = ⌈(m + s·n)/n⌉`.
    pub fn acceptance_bound(&self, n: usize, m: u64) -> u32 {
        u32::try_from((m + self.slack as u64 * n as u64).div_ceil(n as u64))
            .expect("acceptance bound ⌈m/n⌉ + slack exceeds u32 — loads are u32 workspace-wide")
    }
}

impl ThresholdSchedule for ThresholdSlack {
    fn bound(&self, cfg: &RunConfig, _ball: u64) -> u32 {
        self.acceptance_bound(cfg.n, cfg.m)
    }

    fn segment_end(&self, cfg: &RunConfig, _ball: u64) -> u64 {
        cfg.m
    }
}

impl Protocol for ThresholdSlack {
    fn name(&self) -> String {
        format!("threshold(+{})", self.slack)
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
    fn acceptance_bound_values() {
        // m = ϕn: load < ϕ + 1, i.e. t = ϕ + 1.
        assert_eq!(Threshold::acceptance_bound(10, 100), 11);
        // m = 0: load < 1.
        assert_eq!(Threshold::acceptance_bound(10, 0), 1);
        // Non-divisible: m = 5, n = 3 ⇒ load < 5/3 + 1 = 8/3 ⇒ t = 3.
        assert_eq!(Threshold::acceptance_bound(3, 5), 3);
        // m = 6, n = 3 ⇒ load < 3 ⇒ t = 3.
        assert_eq!(Threshold::acceptance_bound(3, 6), 3);
    }

    #[test]
    fn max_load_bound_holds_always() {
        for seed in 0..5u64 {
            for engine in [Engine::Faithful, Engine::LevelBatched] {
                let cfg = RunConfig::new(16, 100).with_engine(engine);
                let mut rng = SplitMix64::new(seed);
                let out = Threshold.allocate(&cfg, &mut rng, &mut NullObserver);
                out.validate();
                assert!(
                    out.max_load() as u64 <= cfg.max_load_bound(),
                    "seed={seed} {engine:?}: max {} > bound {}",
                    out.max_load(),
                    cfg.max_load_bound()
                );
            }
        }
    }

    #[test]
    fn m_less_than_n_works() {
        let cfg = RunConfig::new(50, 10);
        let mut rng = SplitMix64::new(7);
        let out = Threshold.allocate(&cfg, &mut rng, &mut NullObserver);
        out.validate();
        // m < n ⇒ threshold is load < 10/50 + 1, i.e. only empty bins
        // accept… bound says t = ⌈60/50⌉ = 2, so max load ≤ 2.
        assert!(out.max_load() <= 2);
    }

    #[test]
    fn single_bin_takes_everything() {
        let cfg = RunConfig::new(1, 25);
        let mut rng = SplitMix64::new(8);
        let out = Threshold.allocate(&cfg, &mut rng, &mut NullObserver);
        out.validate();
        assert_eq!(out.loads, vec![25]);
        assert_eq!(out.total_samples, 25);
    }

    #[test]
    fn allocation_time_close_to_m_at_moderate_size() {
        // Theorem 4.1 shape: T/m → 1. At n = 256, m = 64n the excess is
        // O(m^{3/4} n^{1/4}) ≈ small; just check the ratio is < 1.5.
        let cfg = RunConfig::new(256, 64 * 256).with_engine(Engine::Faithful);
        let mut rng = SplitMix64::new(9);
        let out = Threshold.allocate(&cfg, &mut rng, &mut NullObserver);
        assert!(out.time_ratio() < 1.5, "ratio {}", out.time_ratio());
        assert!(out.time_ratio() >= 1.0);
    }

    #[test]
    fn slack_one_equals_paper_threshold() {
        let cfg = RunConfig::new(32, 321).with_engine(Engine::Faithful);
        let mut r1 = SplitMix64::new(3);
        let mut r2 = SplitMix64::new(3);
        let a = ThresholdSlack::new(1).allocate(&cfg, &mut r1, &mut NullObserver);
        let b = Threshold.allocate(&cfg, &mut r2, &mut NullObserver);
        assert_eq!(a.loads, b.loads);
        assert_eq!(a.total_samples, b.total_samples);
    }

    #[test]
    fn larger_slack_trades_load_for_time() {
        let n = 512usize;
        let cfg = RunConfig::new(n, 32 * n as u64).with_engine(Engine::Faithful);
        let mean = |s: u32| -> (f64, f64) {
            let mut t = 0.0;
            let mut ml = 0.0;
            for seed in 0..10u64 {
                let out = crate::run::run_protocol(&ThresholdSlack::new(s), &cfg, seed);
                out.validate();
                assert!(out.max_load() as u64 <= 32 + s as u64, "slack {s}");
                t += out.time_ratio() / 10.0;
                ml += out.max_load() as f64 / 10.0;
            }
            (t, ml)
        };
        let (t1, m1) = mean(1);
        let (t4, m4) = mean(4);
        assert!(t4 < t1, "slack 4 time {t4} should beat slack 1 time {t1}");
        assert!(m4 >= m1, "slack 4 max load {m4} below slack 1 {m1}?");
    }

    #[test]
    #[should_panic]
    fn zero_slack_rejected() {
        ThresholdSlack::new(0);
    }

    #[test]
    fn engines_give_same_max_load_guarantee_and_similar_time() {
        let cfg_naive = RunConfig::new(128, 128 * 16);
        let cfg_batched = cfg_naive.with_engine(Engine::LevelBatched);
        let mut r1 = SplitMix64::new(10);
        let mut r2 = SplitMix64::new(11);
        let a = Threshold.allocate(&cfg_naive, &mut r1, &mut NullObserver);
        let b = Threshold.allocate(&cfg_batched, &mut r2, &mut NullObserver);
        a.validate();
        b.validate();
        assert!(b.max_load() as u64 <= cfg_batched.max_load_bound());
        let (ra, rb) = (a.time_ratio(), b.time_ratio());
        assert!((ra - rb).abs() < 0.2, "naive {ra} vs level-batched {rb}");
    }
}
