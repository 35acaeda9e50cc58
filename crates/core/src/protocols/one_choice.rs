//! The classical single-choice process: every ball goes into one
//! uniformly random bin.
//!
//! With `m = n` the maximum load is `Θ(log n / log log n)` w.h.p.
//! (Raab–Steger [15]); in the heavily loaded case the gap grows like
//! `Θ(√((m/n) log n))`. The cheapest possible allocation time (`m`
//! samples) with the worst balance — the anchor row for every
//! comparison.

use crate::histogram::{drive_histogram, HistogramSchedule, HistogramSegment, LandingRule};
use crate::protocol::{drive_sequential, Engine, Observer, Outcome, Protocol, RunConfig};
use bib_rng::{Rng64, RngExt};

/// The single-choice baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct OneChoice;

impl HistogramSchedule for OneChoice {
    fn histogram_segment(&self, cfg: &RunConfig, _ball: u64) -> HistogramSegment {
        // Every bin accepts every ball: the unbounded uniform rule, one
        // segment for the whole run.
        HistogramSegment {
            rule: LandingRule::UniformBelow(None),
            end: cfg.m,
        }
    }
}

impl Protocol for OneChoice {
    fn name(&self) -> String {
        "one-choice".into()
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
            return drive_histogram(self.name(), cfg, rng, obs, self);
        }
        drive_sequential(self.name(), cfg, rng, obs, |bins, _ball, rng| {
            let b = rng.range_usize(bins.n());
            bins.place(b);
            (b, 1)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::NullObserver;
    use bib_rng::SplitMix64;

    #[test]
    fn uses_exactly_m_samples() {
        let cfg = RunConfig::new(32, 500);
        let mut rng = SplitMix64::new(1);
        let out = OneChoice.allocate(&cfg, &mut rng, &mut NullObserver);
        out.validate();
        assert_eq!(out.total_samples, 500);
        assert_eq!(out.max_samples_per_ball, 1);
    }

    #[test]
    fn loads_are_roughly_binomial() {
        // Mean load m/n = 16; variance ≈ 16. The empirical spread across
        // bins should be in that ballpark (loose sanity check).
        let cfg = RunConfig::new(256, 256 * 16);
        let mut rng = SplitMix64::new(2);
        let out = OneChoice.allocate(&cfg, &mut rng, &mut NullObserver);
        let mean = 16.0f64;
        let var = out
            .loads
            .iter()
            .map(|&l| (l as f64 - mean) * (l as f64 - mean))
            .sum::<f64>()
            / 256.0;
        assert!(var > 8.0 && var < 32.0, "var={var}");
    }

    #[test]
    fn gap_grows_with_load_unlike_threshold_protocols() {
        let n = 128usize;
        let light = RunConfig::new(n, n as u64);
        let heavy = RunConfig::new(n, (n as u64) * 256);
        let mut rng = SplitMix64::new(3);
        let g_light = OneChoice
            .allocate(&light, &mut rng, &mut NullObserver)
            .gap();
        let g_heavy = OneChoice
            .allocate(&heavy, &mut rng, &mut NullObserver)
            .gap();
        assert!(
            g_heavy > g_light,
            "heavy gap {g_heavy} should exceed light gap {g_light}"
        );
    }
}
