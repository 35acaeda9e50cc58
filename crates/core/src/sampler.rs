//! The two retry engines for threshold-style protocols.
//!
//! A ball under `threshold`/`adaptive` repeatedly samples uniform bins
//! until it hits one whose load is below an integer threshold `t`.
//! While the ball is retrying, the load vector does not change, so with
//! `k` accepting bins out of `n`:
//!
//! * the number of samples consumed is `Geometric(k/n)` (counting the
//!   successful one), and
//! * the receiving bin is uniform among the `k` accepting bins,
//!   independent of the sample count.
//!
//! The **naive** engine plays this out sample by sample — exactly the
//! paper's pseudocode. The **jump** engine draws the geometric count and
//! the accepting bin directly. The two induce identical distributions on
//! `(receiving bin, samples)`; unit tests check degenerate cases exactly
//! and the statistical suite compares full runs.

use crate::partitioned::PartitionedBins;
use crate::protocol::Engine;
use bib_rng::dist::{Distribution, GeometricSampler};
use bib_rng::{Rng64, RngExt};

/// Places one ball into a uniformly random bin with load `< t`, returning
/// `(bin, samples_used)`.
///
/// Panics (via [`PartitionedBins::choose_below`] or an explicit check) if
/// no bin accepts — neither paper protocol can reach that state, and
/// reaching it indicates a threshold bug.
///
/// The batched engines ([`Engine::LevelBatched`], [`Engine::Histogram`])
/// have no *per-ball* placement of their own (their whole point is to
/// avoid one); a single ball under those engines — and under an
/// unresolved [`Engine::Auto`] — is placed by the distributionally
/// identical jump rule.
pub fn place_below<R: Rng64 + ?Sized>(
    bins: &mut PartitionedBins,
    t: u32,
    engine: Engine,
    rng: &mut R,
) -> (usize, u64) {
    match engine {
        Engine::Faithful => place_below_naive(bins, t, rng),
        Engine::Jump | Engine::LevelBatched | Engine::Histogram | Engine::Auto => {
            place_below_jump(bins, t, rng)
        }
    }
}

/// Faithful retry loop (Figures 1 and 2 of the paper).
pub fn place_below_naive<R: Rng64 + ?Sized>(
    bins: &mut PartitionedBins,
    t: u32,
    rng: &mut R,
) -> (usize, u64) {
    assert!(
        bins.count_below(t) > 0,
        "place_below: no bin has load < {t}; the protocol threshold is wrong"
    );
    let n = bins.n();
    let mut samples = 0u64;
    loop {
        samples += 1;
        let j = rng.range_usize(n);
        if bins.load(j) < t {
            bins.place(j);
            return (j, samples);
        }
    }
}

/// Geometric-jump equivalent: one `Geometric(k/n)` draw for the sample
/// count, one uniform pick among accepting bins.
pub fn place_below_jump<R: Rng64 + ?Sized>(
    bins: &mut PartitionedBins,
    t: u32,
    rng: &mut R,
) -> (usize, u64) {
    let k = bins.count_below(t);
    assert!(
        k > 0,
        "place_below: no bin has load < {t}; the protocol threshold is wrong"
    );
    let n = bins.n();
    let samples = if k == n {
        1
    } else {
        GeometricSampler::new(k as f64 / n as f64).sample(rng)
    };
    let j = bins.choose_below(t, rng);
    bins.place(j);
    (j, samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bib_rng::SplitMix64;

    #[test]
    fn all_bins_open_costs_one_sample() {
        for engine in [Engine::Faithful, Engine::Jump] {
            let mut bins = PartitionedBins::new(10);
            let mut rng = SplitMix64::new(1);
            let (bin, samples) = place_below(&mut bins, 1, engine, &mut rng);
            assert_eq!(samples, 1, "{engine:?}");
            assert!(bin < 10);
            assert_eq!(bins.total(), 1);
        }
    }

    #[test]
    fn single_open_bin_is_always_found() {
        for engine in [Engine::Faithful, Engine::Jump] {
            // Bins 0..9 at load 1, bin 9 empty; threshold 1 ⇒ only bin 9.
            let mut loads = vec![1u32; 10];
            loads[9] = 0;
            let mut bins = PartitionedBins::from_loads(loads);
            let mut rng = SplitMix64::new(2);
            let (bin, samples) = place_below(&mut bins, 1, engine, &mut rng);
            assert_eq!(bin, 9, "{engine:?}");
            assert!(samples >= 1);
        }
    }

    #[test]
    #[should_panic]
    fn naive_engine_rejects_impossible_threshold() {
        let mut bins = PartitionedBins::from_loads(vec![2, 2]);
        let mut rng = SplitMix64::new(3);
        place_below_naive(&mut bins, 1, &mut rng);
    }

    #[test]
    #[should_panic]
    fn jump_engine_rejects_impossible_threshold() {
        let mut bins = PartitionedBins::from_loads(vec![2, 2]);
        let mut rng = SplitMix64::new(4);
        place_below_jump(&mut bins, 1, &mut rng);
    }

    /// With k of n bins open, the sample count must average ≈ n/k for
    /// both engines and the chosen bin must be uniform among the open
    /// ones.
    #[test]
    #[allow(clippy::needless_range_loop)]
    fn engines_agree_statistically() {
        let n = 8usize;
        let open = 2usize; // bins 6, 7 open at threshold 1
        let template: Vec<u32> = (0..n).map(|i| if i < n - open { 1 } else { 0 }).collect();
        let reps = 40_000;
        for engine in [Engine::Faithful, Engine::Jump] {
            let mut rng = SplitMix64::new(50 + engine as u64);
            let mut total_samples = 0u64;
            let mut bin_counts = vec![0u64; n];
            for _ in 0..reps {
                let mut bins = PartitionedBins::from_loads(template.clone());
                let (bin, samples) = place_below(&mut bins, 1, engine, &mut rng);
                total_samples += samples;
                bin_counts[bin] += 1;
            }
            let mean = total_samples as f64 / reps as f64;
            let expect = n as f64 / open as f64; // 4.0
            assert!(
                (mean - expect).abs() < 0.1,
                "{engine:?}: mean samples {mean} vs {expect}"
            );
            for b in 0..n - open {
                assert_eq!(bin_counts[b], 0, "{engine:?}: closed bin {b} chosen");
            }
            let half = reps as u64 / 2;
            for b in n - open..n {
                let c = bin_counts[b];
                assert!(
                    c > half - 1500 && c < half + 1500,
                    "{engine:?}: bin {b} count {c}"
                );
            }
        }
    }

    /// Robustness difference between the engines under *degenerate*
    /// randomness: with an adversarially constant bit source, the jump
    /// engine still terminates (its geometric draw and open-bin pick are
    /// single bounded operations), whereas the naive loop's liveness
    /// genuinely depends on the uniformity assumption of the paper's
    /// model. We pin down the jump engine's robustness here.
    #[test]
    fn jump_engine_terminates_on_constant_rng() {
        struct ConstRng(u64);
        impl bib_rng::Rng64 for ConstRng {
            fn next_u64(&mut self) -> u64 {
                self.0
            }
        }
        let mut rng = ConstRng(0x1234_5678_9ABC_DEF0);
        let mut bins = PartitionedBins::from_loads(vec![1, 1, 0, 1]);
        let (bin, samples) = place_below_jump(&mut bins, 1, &mut rng);
        assert_eq!(bin, 2, "only open bin must be chosen");
        assert!(samples >= 1);
        assert_eq!(bins.total(), 4);
    }

    /// Sample-count distribution match: compare engine histograms cell by
    /// cell (both must be Geometric(k/n)).
    #[test]
    fn sample_count_distributions_match() {
        let template = vec![1u32, 1, 1, 0]; // n = 4, k = 1 open
        let reps = 30_000;
        let mut hists = Vec::new();
        for engine in [Engine::Faithful, Engine::Jump] {
            let mut rng = SplitMix64::new(60 + engine as u64);
            let mut hist = vec![0u64; 12];
            for _ in 0..reps {
                let mut bins = PartitionedBins::from_loads(template.clone());
                let (_, samples) = place_below(&mut bins, 1, engine, &mut rng);
                let idx = ((samples - 1) as usize).min(hist.len() - 1);
                hist[idx] += 1;
            }
            hists.push(hist);
        }
        // Chi-square-ish comparison of the two histograms.
        for (cell, (&a, &b)) in hists[0].iter().zip(&hists[1]).enumerate() {
            let (a, b) = (a as f64, b as f64);
            if a + b < 50.0 {
                continue;
            }
            let diff = (a - b).abs();
            let sigma = (a + b).sqrt();
            assert!(diff < 6.0 * sigma, "cell {cell}: {a} vs {b}");
        }
    }
}
