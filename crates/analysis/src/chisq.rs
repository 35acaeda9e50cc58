//! Chi-square goodness-of-fit testing.
//!
//! Used by `bib-rng`'s statistical test suite to validate every sampler
//! against the exact distributions in [`crate::dist`], with fixed seeds
//! so the tests are deterministic.

use crate::special::gamma_q;

/// Result of a chi-square goodness-of-fit test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChiSquare {
    /// The χ² statistic `Σ (observed − expected)² / expected`.
    pub statistic: f64,
    /// Degrees of freedom (number of cells − 1, after pooling).
    pub dof: u64,
    /// Upper-tail p-value `Pr[χ²_dof ≥ statistic]`.
    pub p_value: f64,
}

/// Survival function of the chi-square distribution with `dof` degrees of
/// freedom: `Pr[X ≥ x] = Q(dof/2, x/2)`.
pub fn chi_square_sf(dof: u64, x: f64) -> f64 {
    assert!(dof > 0, "chi_square_sf: dof must be positive");
    assert!(x >= 0.0, "chi_square_sf: x must be non-negative");
    gamma_q(dof as f64 / 2.0, x / 2.0)
}

/// Pearson chi-square goodness-of-fit test of observed counts against
/// expected probabilities.
///
/// Cells with expected count below `min_expected` (use 5.0 for textbook
/// validity) are pooled into their right neighbour; any residual
/// probability mass not covered by `probs` is pooled into a final
/// overflow cell together with `overflow_count` observations.
///
/// Panics if fewer than two effective cells remain.
pub fn chi_square_gof(
    observed: &[u64],
    probs: &[f64],
    overflow_count: u64,
    min_expected: f64,
) -> ChiSquare {
    assert_eq!(
        observed.len(),
        probs.len(),
        "chi_square_gof: length mismatch"
    );
    let n: u64 = observed.iter().sum::<u64>() + overflow_count;
    assert!(n > 0, "chi_square_gof: no observations");
    let covered: f64 = probs.iter().sum();
    assert!(
        covered <= 1.0 + 1e-9,
        "chi_square_gof: probabilities sum to {covered} > 1"
    );

    // Build (observed, expected) cells, then pool small expectations.
    let mut cells: Vec<(f64, f64)> = observed
        .iter()
        .zip(probs)
        .map(|(&o, &p)| (o as f64, p * n as f64))
        .collect();
    let leftover = (1.0 - covered).max(0.0);
    cells.push((overflow_count as f64, leftover * n as f64));

    let mut pooled: Vec<(f64, f64)> = Vec::with_capacity(cells.len());
    let mut acc = (0.0, 0.0);
    for (o, e) in cells {
        acc.0 += o;
        acc.1 += e;
        if acc.1 >= min_expected {
            pooled.push(acc);
            acc = (0.0, 0.0);
        }
    }
    if acc.1 > 0.0 || acc.0 > 0.0 {
        // Merge the trailing remainder into the last pooled cell.
        if let Some(last) = pooled.last_mut() {
            last.0 += acc.0;
            last.1 += acc.1;
        } else {
            pooled.push(acc);
        }
    }
    assert!(
        pooled.len() >= 2,
        "chi_square_gof: need at least two cells after pooling, got {}",
        pooled.len()
    );

    let statistic: f64 = pooled
        .iter()
        .map(|&(o, e)| {
            debug_assert!(e > 0.0, "pooled expected must be positive");
            (o - e) * (o - e) / e
        })
        .sum();
    let dof = (pooled.len() - 1) as u64;
    ChiSquare {
        statistic,
        dof,
        p_value: chi_square_sf(dof, statistic),
    }
}

/// Convenience: chi-square uniformity test over `k` equiprobable cells.
pub fn chi_square_uniform(observed: &[u64]) -> ChiSquare {
    let k = observed.len();
    assert!(k >= 2, "chi_square_uniform: need at least two cells");
    let probs = vec![1.0 / k as f64; k];
    chi_square_gof(observed, &probs, 0, 1.0)
}

/// Two-sample Pearson chi-square of "same distribution" on two count
/// vectors over the same cells (two ensembles' histograms); returns the
/// p-value.
///
/// Adjacent cells are pooled until each holds a combined count of at
/// least 10, and a short remainder joins the last pooled cell. Two
/// ensembles concentrated on one pooled cell give `1.0`.
pub fn chi_square_two_sample(a: &[u64], b: &[u64]) -> f64 {
    assert_eq!(
        a.len(),
        b.len(),
        "chi_square_two_sample: cell counts differ"
    );
    let na: u64 = a.iter().sum();
    let nb: u64 = b.iter().sum();
    assert!(na > 0 && nb > 0, "chi_square_two_sample: an empty sample");
    let (na, nb) = (na as f64, nb as f64);
    let mut cells: Vec<(f64, f64)> = Vec::new();
    let mut acc = (0.0, 0.0);
    for (&x, &y) in a.iter().zip(b) {
        acc.0 += x as f64;
        acc.1 += y as f64;
        if acc.0 + acc.1 >= 10.0 {
            cells.push(acc);
            acc = (0.0, 0.0);
        }
    }
    if acc.0 + acc.1 > 0.0 {
        if let Some(last) = cells.last_mut() {
            last.0 += acc.0;
            last.1 += acc.1;
        } else {
            cells.push(acc);
        }
    }
    if cells.len() < 2 {
        return 1.0;
    }
    let statistic: f64 = cells
        .iter()
        .map(|&(x, y)| {
            let ex = (x + y) * na / (na + nb);
            let ey = (x + y) * nb / (na + nb);
            (x - ex) * (x - ex) / ex + (y - ey) * (y - ey) / ey
        })
        .sum();
    chi_square_sf((cells.len() - 1) as u64, statistic)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sf_known_values() {
        // Pr[χ²₁ ≥ 3.841] ≈ 0.05; Pr[χ²₂ ≥ x] = e^{−x/2}.
        assert!((chi_square_sf(1, 3.841_458_820_694_124) - 0.05).abs() < 1e-6);
        for &x in &[0.5, 1.0, 5.0] {
            assert!((chi_square_sf(2, x) - (-x / 2.0f64).exp()).abs() < 1e-12);
        }
    }

    #[test]
    fn uniform_perfect_fit_has_zero_statistic() {
        let r = chi_square_uniform(&[100, 100, 100, 100]);
        assert_eq!(r.statistic, 0.0);
        assert_eq!(r.dof, 3);
        assert!((r.p_value - 1.0).abs() < 1e-12);
    }

    #[test]
    fn two_sample_tells_equal_from_shifted_histograms() {
        let a = [100, 200, 300, 200, 100];
        assert!((chi_square_two_sample(&a, &a) - 1.0).abs() < 1e-12);
        assert_eq!(chi_square_two_sample(&[0, 50, 0], &[0, 70, 0]), 1.0);
        let shifted = [200, 300, 200, 100, 100];
        assert!(chi_square_two_sample(&a, &shifted) < 1e-10);
    }

    #[test]
    fn uniform_gross_misfit_is_rejected() {
        let r = chi_square_uniform(&[1000, 10, 10, 10]);
        assert!(r.p_value < 1e-10, "p={}", r.p_value);
    }

    #[test]
    fn gof_with_overflow_cell() {
        // Geometric(1/2) on {1,2,3}, overflow beyond.
        let probs = [0.5, 0.25, 0.125];
        let observed = [512u64, 256, 128];
        let overflow = 128u64; // ≈ remaining mass 0.125 · 1024
        let r = chi_square_gof(&observed, &probs, overflow, 5.0);
        assert!(r.p_value > 0.9, "p={}", r.p_value);
    }

    #[test]
    fn gof_pools_small_cells() {
        // Tiny expected counts must be pooled, not divided by ~0.
        let probs = [0.97, 0.01, 0.01, 0.005, 0.005];
        let observed = [970u64, 10, 10, 5, 5];
        let r = chi_square_gof(&observed, &probs, 0, 5.0);
        assert!(r.statistic.is_finite());
        assert!(r.dof >= 1);
    }

    #[test]
    #[should_panic]
    fn gof_rejects_mismatched_lengths() {
        chi_square_gof(&[1, 2], &[0.5], 0, 5.0);
    }
}
