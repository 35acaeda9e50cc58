//! `greedy[d]` — Azar, Broder, Karlin & Upfal's d-choice process.
//!
//! Every ball samples `d` uniform bins (with replacement) and joins the
//! least loaded, so allocation time is exactly `d·m` samples. For
//! `m = n` the maximum load is `ln ln n / ln d + O(1)` w.h.p. [4]; in the
//! heavily loaded case `m/n + ln ln n / ln d + O(1)` [5] — the "power of
//! two choices". Compared to the paper's protocols it spends `d×` the
//! samples yet cannot reach the `⌈m/n⌉ + 1` guarantee.

use crate::histogram::{drive_histogram, HistogramSchedule, HistogramSegment, LandingRule};
use crate::protocol::{drive_sequential, Engine, Observer, Outcome, Protocol, RunConfig};
use bib_rng::{Rng64, RngExt};

/// Tie-breaking rule when several sampled bins share the minimum load.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TieBreak {
    /// Choose uniformly among the tied bins (the standard symmetric
    /// rule).
    #[default]
    Random,
    /// Choose the first sampled among the tied bins (cheap, slightly
    /// asymmetric; exposed for the ablation flag in the Table 1 binary).
    FirstSampled,
}

/// The `greedy[d]` protocol.
#[derive(Debug, Clone, Copy)]
pub struct GreedyD {
    d: u32,
    tie: TieBreak,
}

impl GreedyD {
    /// `d` choices with random tie-breaking; panics if `d == 0`.
    pub fn new(d: u32) -> Self {
        assert!(d >= 1, "greedy[d] needs d ≥ 1");
        Self {
            d,
            tie: TieBreak::Random,
        }
    }

    /// Overrides the tie-breaking rule.
    pub fn with_tie_break(mut self, tie: TieBreak) -> Self {
        self.tie = tie;
        self
    }

    /// The number of choices `d`.
    pub fn d(&self) -> u32 {
        self.d
    }
}

impl HistogramSchedule for GreedyD {
    fn histogram_segment(&self, cfg: &RunConfig, _ball: u64) -> HistogramSegment {
        // The least loaded of d uniform samples is a pure function of
        // the occupancy CDF, and both tie-break rules land in the same
        // load class — so the histogram engine covers every variant.
        HistogramSegment {
            rule: LandingRule::LeastOfD(self.d),
            end: cfg.m,
        }
    }
}

impl Protocol for GreedyD {
    fn name(&self) -> String {
        match self.tie {
            TieBreak::Random => format!("greedy[{}]", self.d),
            TieBreak::FirstSampled => format!("greedy[{}]/first", self.d),
        }
    }

    fn allocate<R, O>(&self, cfg: &RunConfig, rng: &mut R, obs: &mut O) -> Outcome
    where
        R: Rng64 + ?Sized,
        O: Observer + ?Sized,
    {
        let engine = match cfg.engine {
            Engine::Auto => Engine::auto_fixed(cfg.n, cfg.m),
            engine => engine,
        };
        if engine == Engine::Histogram {
            // The d-choice landing class is computable from the
            // histogram CDF, which makes greedy feasible at m = n²
            // scales for the first time (see `crate::histogram`).
            return drive_histogram(self.name(), cfg, rng, obs, self);
        }
        let d = self.d;
        let tie = self.tie;
        drive_sequential(self.name(), cfg, rng, obs, move |bins, _ball, rng| {
            let n = bins.n();
            let mut best = rng.range_usize(n);
            let mut best_load = bins.load(best);
            let mut ties = 1u32;
            for _ in 1..d {
                let c = rng.range_usize(n);
                let l = bins.load(c);
                if l < best_load {
                    best = c;
                    best_load = l;
                    ties = 1;
                } else if l == best_load && tie == TieBreak::Random {
                    // Reservoir-style uniform choice among tied minima.
                    ties += 1;
                    if rng.range_u64(ties as u64) == 0 {
                        best = c;
                    }
                }
            }
            bins.place(best);
            (best, d as u64)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::NullObserver;
    use crate::protocols::OneChoice;
    use bib_rng::SplitMix64;

    #[test]
    fn allocation_time_is_exactly_dm() {
        for d in [1u32, 2, 3, 5] {
            let cfg = RunConfig::new(16, 200);
            let mut rng = SplitMix64::new(d as u64);
            let out = GreedyD::new(d).allocate(&cfg, &mut rng, &mut NullObserver);
            out.validate();
            assert_eq!(out.total_samples, 200 * d as u64, "d={d}");
            assert_eq!(out.max_samples_per_ball, d as u64);
        }
    }

    #[test]
    fn greedy1_is_one_choice_in_disguise() {
        // d = 1 must behave exactly like the single-choice process given
        // the same random stream.
        let cfg = RunConfig::new(32, 300);
        let mut r1 = SplitMix64::new(42);
        let mut r2 = SplitMix64::new(42);
        let a = GreedyD::new(1).allocate(&cfg, &mut r1, &mut NullObserver);
        let b = OneChoice.allocate(&cfg, &mut r2, &mut NullObserver);
        assert_eq!(a.loads, b.loads);
    }

    #[test]
    fn two_choices_beat_one_on_max_load() {
        // Power of two choices: at m = n the max load should (with high
        // probability at this size) be strictly below one-choice's.
        let n = 4096usize;
        let cfg = RunConfig::new(n, n as u64);
        let mut rng = SplitMix64::new(7);
        let one = OneChoice.allocate(&cfg, &mut rng, &mut NullObserver);
        let two = GreedyD::new(2).allocate(&cfg, &mut rng, &mut NullObserver);
        assert!(
            two.max_load() < one.max_load(),
            "greedy[2] max {} !< one-choice max {}",
            two.max_load(),
            one.max_load()
        );
        assert!(two.max_load() <= 4, "greedy[2] max load {}", two.max_load());
    }

    #[test]
    fn tie_break_variants_run_and_name_correctly() {
        let g = GreedyD::new(2).with_tie_break(TieBreak::FirstSampled);
        assert_eq!(g.name(), "greedy[2]/first");
        let cfg = RunConfig::new(8, 64);
        let mut rng = SplitMix64::new(9);
        let out = g.allocate(&cfg, &mut rng, &mut NullObserver);
        out.validate();
    }

    #[test]
    #[should_panic]
    fn zero_choices_rejected() {
        GreedyD::new(0);
    }
}
