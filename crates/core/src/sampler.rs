//! The per-ball retry loop of threshold-style protocols.
//!
//! A ball under `threshold`/`adaptive` repeatedly samples uniform bins
//! until it hits one whose load is below an integer threshold `t`
//! (Figures 1 and 2 of the paper). While the ball is retrying, the load
//! vector does not change, so with `k` accepting bins out of `n`:
//!
//! * the number of samples consumed is `Geometric(k/n)` (counting the
//!   successful one), and
//! * the receiving bin is uniform among the `k` accepting bins,
//!   independent of the sample count.
//!
//! [`place_below`] plays this out sample by sample — exactly the paper's
//! pseudocode — so its per-ball events are exact, not merely exact in
//! distribution. The unit tests check the sample count against the
//! exact geometric law.

use crate::partitioned::PartitionedBins;
use bib_rng::{Rng64, RngExt};

/// Places one ball into a uniformly random bin with load `< t` by the
/// faithful retry loop, returning `(bin, samples_used)`.
///
/// Panics if no bin accepts — neither paper protocol can reach that
/// state, and reaching it indicates a threshold bug.
pub fn place_below<R: Rng64 + ?Sized>(
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

#[cfg(test)]
mod tests {
    use super::*;
    use bib_rng::SplitMix64;

    #[test]
    fn all_bins_open_costs_one_sample() {
        let mut bins = PartitionedBins::new(10);
        let mut rng = SplitMix64::new(1);
        let (bin, samples) = place_below(&mut bins, 1, &mut rng);
        assert_eq!(samples, 1);
        assert!(bin < 10);
        assert_eq!(bins.total(), 1);
    }

    #[test]
    fn single_open_bin_is_always_found() {
        // Bins 0..9 at load 1, bin 9 empty; threshold 1 ⇒ only bin 9.
        let mut loads = vec![1u32; 10];
        loads[9] = 0;
        let mut bins = PartitionedBins::from_loads(loads);
        let mut rng = SplitMix64::new(2);
        let (bin, samples) = place_below(&mut bins, 1, &mut rng);
        assert_eq!(bin, 9);
        assert!(samples >= 1);
    }

    #[test]
    #[should_panic]
    fn naive_engine_rejects_impossible_threshold() {
        let mut bins = PartitionedBins::from_loads(vec![2, 2]);
        let mut rng = SplitMix64::new(3);
        place_below(&mut bins, 1, &mut rng);
    }

    /// With k of n bins open, the sample count must average ≈ n/k and
    /// the chosen bin must be uniform among the open ones.
    #[test]
    #[allow(clippy::needless_range_loop)]
    fn engines_agree_statistically() {
        let n = 8usize;
        let open = 2usize; // bins 6, 7 open at threshold 1
        let template: Vec<u32> = (0..n).map(|i| if i < n - open { 1 } else { 0 }).collect();
        let reps = 40_000;
        let mut rng = SplitMix64::new(50);
        let mut total_samples = 0u64;
        let mut bin_counts = vec![0u64; n];
        for _ in 0..reps {
            let mut bins = PartitionedBins::from_loads(template.clone());
            let (bin, samples) = place_below(&mut bins, 1, &mut rng);
            total_samples += samples;
            bin_counts[bin] += 1;
        }
        let mean = total_samples as f64 / reps as f64;
        let expect = n as f64 / open as f64; // 4.0
        assert!(
            (mean - expect).abs() < 0.1,
            "mean samples {mean} vs {expect}"
        );
        for b in 0..n - open {
            assert_eq!(bin_counts[b], 0, "closed bin {b} chosen");
        }
        let half = reps as u64 / 2;
        for b in n - open..n {
            let c = bin_counts[b];
            assert!(c > half - 1500 && c < half + 1500, "bin {b} count {c}");
        }
    }

    /// One-sample goodness of fit of the sample count: with n = 4 and a
    /// single open bin it is exactly `Geometric(1/4)`, so a chi-square
    /// test against the pmf `(3/4)^(s−1)·(1/4)` (tail pooled into the
    /// overflow cell) must not reject.
    #[test]
    fn sample_count_distributions_match() {
        let template = vec![1u32, 1, 1, 0]; // n = 4, k = 1 open
        let reps = 30_000;
        let cells = 24usize;
        let mut rng = SplitMix64::new(60);
        let mut hist = vec![0u64; cells];
        let mut overflow = 0u64;
        for _ in 0..reps {
            let mut bins = PartitionedBins::from_loads(template.clone());
            let (_, samples) = place_below(&mut bins, 1, &mut rng);
            match hist.get_mut((samples - 1) as usize) {
                Some(cell) => *cell += 1,
                None => overflow += 1,
            }
        }
        let probs: Vec<f64> = (0..cells).map(|s| 0.75f64.powi(s as i32) * 0.25).collect();
        let gof = bib_analysis::chisq::chi_square_gof(&hist, &probs, overflow, 5.0);
        assert!(
            gof.p_value > 1e-4,
            "sample count is not Geometric(1/4): {gof:?}"
        );
    }
}
