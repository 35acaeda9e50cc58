//! The Poissonised model of Lemma A.7 and the hole-counting machinery of
//! Theorem 4.1's proof.
//!
//! The proof of Theorem 4.1 replaces the *access distribution*
//! `X^t_1, …, X^t_n` (how often each bin index appears among the first
//! `t` entries of the choice vector `C`) by independent Poisson
//! variables `Y_i ~ Poi(t/n)` (Lemma A.7), sets
//! `L_i = min(X_i, ϕ + 1)` and tracks the total *holes*
//! `W_t = Σ max(ϕ + 1 − L_i, 0)`. The protocol has placed all `m = ϕn`
//! balls as soon as `W_t ≤ n`, and the proof shows `W_T ≤ n` w.h.p. at
//! `T = αn` with `α = ϕ + ϕ^{3/4} + 1`.
//!
//! This module implements both sides so tests and experiments can check
//! the coupling quantitatively:
//!
//! * [`access_distribution`] — the exact process: throw `t` uniform
//!   samples, count per-bin accesses;
//! * [`poisson_access_model`] — the independent-Poisson surrogate;
//! * [`holes_at`] — `W_t` under either model;
//! * [`theorem41_alpha`] — the proof's stopping time constant.

use bib_rng::dist::{Distribution, PoissonSampler};
use bib_rng::{Rng64, RngExt};

/// Exact access distribution: how many of `t` uniform throws hit each of
/// the `n` bins. (This is the law of `X^t` in the proof.)
pub fn access_distribution<R: Rng64 + ?Sized>(n: usize, t: u64, rng: &mut R) -> Vec<u32> {
    assert!(n > 0);
    let mut x = vec![0u32; n];
    for _ in 0..t {
        x[rng.range_usize(n)] += 1;
    }
    x
}

/// Poissonised surrogate: `n` independent `Poi(t/n)` access counts
/// (the law of `Y` in Lemma A.7's process `P2`).
pub fn poisson_access_model<R: Rng64 + ?Sized>(n: usize, t: u64, rng: &mut R) -> Vec<u32> {
    assert!(n > 0);
    if t == 0 {
        return vec![0; n];
    }
    let sampler = PoissonSampler::new(t as f64 / n as f64);
    (0..n)
        .map(|_| {
            u32::try_from(sampler.sample(rng))
                .expect("Poisson(t/n) access count exceeds u32 — loads are u32 workspace-wide")
        })
        .collect()
}

/// The holes functional of Theorem 4.1's proof: with target height
/// `h = ϕ + 1`, `W = Σ_i max(h − min(access_i, h), 0)`
/// `= Σ_i max(h − access_i, 0)`.
pub fn holes_at(access: &[u32], phi: u64) -> u64 {
    let h = phi + 1;
    access.iter().map(|&x| h.saturating_sub(x as u64)).sum()
}

/// The proof's stopping time: `T = α·n` with `α = ϕ + ϕ^{3/4} + 1`.
pub fn theorem41_alpha(phi: u64) -> f64 {
    let p = phi as f64;
    p + p.powf(0.75) + 1.0
}

/// Convenience: the number of access-vector entries needed until the
/// threshold protocol with `m = ϕn` has certainly finished under the
/// holes condition, estimated by simulation of the *exact* process.
/// Returns `(t, W_t)` at the first multiple of `n/4` where `W_t ≤ n`.
pub fn simulate_until_filled<R: Rng64 + ?Sized>(n: usize, phi: u64, rng: &mut R) -> (u64, u64) {
    let mut access = vec![0u32; n];
    let mut t = 0u64;
    let step = (n as u64 / 4).max(1);
    loop {
        for _ in 0..step {
            access[rng.range_usize(n)] += 1;
        }
        t += step;
        let w = holes_at(&access, phi);
        if w <= n as u64 {
            return (t, w);
        }
        assert!(
            t < 100 * (phi + 1) * n as u64,
            "holes failed to drain — model bug"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bib_rng::SplitMix64;

    #[test]
    fn access_distribution_conserves_mass() {
        let mut rng = SplitMix64::new(1);
        let x = access_distribution(64, 1000, &mut rng);
        assert_eq!(x.iter().map(|&v| v as u64).sum::<u64>(), 1000);
        assert_eq!(x.len(), 64);
    }

    #[test]
    fn poisson_model_mass_close_to_t() {
        // Σ Yᵢ ~ Poi(t): within 5 sigma of t.
        let mut rng = SplitMix64::new(2);
        let t = 100_000u64;
        let y = poisson_access_model(512, t, &mut rng);
        let total: u64 = y.iter().map(|&v| v as u64).sum();
        let sd = (t as f64).sqrt();
        assert!(
            (total as f64 - t as f64).abs() < 5.0 * sd,
            "total {total} vs t {t}"
        );
    }

    #[test]
    fn holes_identities() {
        // No accesses: W = n(ϕ+1).
        assert_eq!(holes_at(&[0, 0, 0], 4), 15);
        // Everyone at or above ϕ+1: W = 0.
        assert_eq!(holes_at(&[5, 6, 9], 4), 0);
        // Mixed.
        assert_eq!(holes_at(&[2, 7, 0], 4), 3 + 5);
    }

    #[test]
    fn theorem41_alpha_values() {
        assert!((theorem41_alpha(16) - (16.0 + 8.0 + 1.0)).abs() < 1e-12);
        assert!(theorem41_alpha(1) > 2.0);
    }

    /// The proof's core quantitative step, checked empirically: at
    /// `T = αn` the exact process has `W_T ≤ n` (w.h.p.; we check on a
    /// handful of seeds).
    #[test]
    fn holes_drain_by_alpha_n_exact_process() {
        let n = 2048usize;
        let phi = 64u64;
        let t = (theorem41_alpha(phi) * n as f64).ceil() as u64;
        for seed in 0..5u64 {
            let mut rng = SplitMix64::new(seed);
            let x = access_distribution(n, t, &mut rng);
            let w = holes_at(&x, phi);
            assert!(w <= n as u64, "seed {seed}: W_T = {w} > n = {n}");
        }
    }

    /// Lemma A.7 in action: the Poisson surrogate drains on the same
    /// schedule as the exact process.
    #[test]
    fn holes_drain_by_alpha_n_poisson_model() {
        let n = 2048usize;
        let phi = 64u64;
        let t = (theorem41_alpha(phi) * n as f64).ceil() as u64;
        for seed in 0..5u64 {
            let mut rng = SplitMix64::new(100 + seed);
            let y = poisson_access_model(n, t, &mut rng);
            let w = holes_at(&y, phi);
            assert!(w <= n as u64, "seed {seed}: W_T = {w} > n = {n}");
        }
    }

    /// The drained time from simulation matches the α envelope: the
    /// measured fill time sits between m and αn.
    #[test]
    fn simulated_fill_time_within_envelope() {
        let n = 1024usize;
        let phi = 16u64;
        let mut rng = SplitMix64::new(3);
        let (t, w) = simulate_until_filled(n, phi, &mut rng);
        assert!(w <= n as u64);
        assert!(t >= phi * n as u64, "cannot finish before m");
        let alpha_n = (theorem41_alpha(phi) * n as f64) as u64;
        assert!(
            t <= alpha_n + n as u64,
            "fill time {t} beyond envelope {alpha_n}"
        );
    }

    /// Coupling strength: exact and Poisson hole counts at the same t are
    /// close (their difference is within a few √n·ϕ^{1/4}).
    #[test]
    fn exact_and_poisson_holes_are_close() {
        let n = 4096usize;
        let phi = 16u64;
        let t = phi * n as u64; // mid-drain: holes still ~ m^{3/4}n^{1/4} scale
        let reps = 10;
        let mut diff_sum = 0.0f64;
        for seed in 0..reps {
            let mut r1 = SplitMix64::new(seed);
            let mut r2 = SplitMix64::new(1000 + seed);
            let wx = holes_at(&access_distribution(n, t, &mut r1), phi) as f64;
            let wy = holes_at(&poisson_access_model(n, t, &mut r2), phi) as f64;
            diff_sum += (wx - wy).abs() / wx.max(wy).max(1.0);
        }
        let mean_rel_diff = diff_sum / reps as f64;
        assert!(
            mean_rel_diff < 0.25,
            "exact vs Poisson holes diverge: {mean_rel_diff}"
        );
    }
}
