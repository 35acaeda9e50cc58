//! Distribution samplers built on top of [`Rng64`].
//!
//! Everything here is *exact* (no approximate large-parameter regimes):
//! the cross-validation suite checks each sampler against closed-form
//! pmfs with chi-square / Kolmogorov–Smirnov tests, so approximation
//! error would show up as a failed goodness-of-fit. Where a naive exact
//! method would be slow (binomial), the sampler switches between exact
//! methods by parameter regime instead of switching to an approximation.

use crate::{Rng64, RngExt};

/// A distribution that can draw samples from any [`Rng64`].
///
/// The method is generic (rather than taking `&mut dyn Rng64`) so that
/// monomorphised hot loops pay no virtual dispatch, while trait-object
/// call sites still work because `dyn Rng64` itself implements `Rng64`.
pub trait Distribution {
    /// The sample type.
    type Value;

    /// Draws one sample.
    fn sample<R: Rng64 + ?Sized>(&self, rng: &mut R) -> Self::Value;
}

/// Bernoulli distribution: `true` with probability `p`.
#[derive(Debug, Clone, Copy)]
pub struct Bernoulli {
    p: f64,
}

impl Bernoulli {
    /// Creates the distribution; `p` is clamped to `[0, 1]`.
    pub fn new(p: f64) -> Self {
        Bernoulli {
            p: p.clamp(0.0, 1.0),
        }
    }

    /// The success probability.
    pub fn p(&self) -> f64 {
        self.p
    }
}

impl Distribution for Bernoulli {
    type Value = bool;

    fn sample<R: Rng64 + ?Sized>(&self, rng: &mut R) -> bool {
        rng.bernoulli(self.p)
    }
}

/// Geometric distribution on `{1, 2, 3, …}`: the number of Bernoulli(`p`)
/// trials up to and including the first success.
///
/// This is the "jump" primitive of the paper's accelerated engines: when
/// a fraction `p = k/n` of bins accept, the number of uniform samples
/// consumed until the first acceptance is exactly `Geometric(p)`.
#[derive(Debug, Clone, Copy)]
pub struct GeometricSampler {
    p: f64,
    /// `ln(1 − p)`, cached; `None` for the degenerate `p = 1` case.
    ln_q: Option<f64>,
}

impl GeometricSampler {
    /// Creates the sampler. Panics unless `0 < p ≤ 1`.
    pub fn new(p: f64) -> Self {
        assert!(p > 0.0 && p <= 1.0, "geometric: p={p} outside (0, 1]");
        let ln_q = if p < 1.0 { Some((-p).ln_1p()) } else { None };
        GeometricSampler { p, ln_q }
    }

    /// The success probability.
    pub fn p(&self) -> f64 {
        self.p
    }
}

impl Distribution for GeometricSampler {
    type Value = u64;

    fn sample<R: Rng64 + ?Sized>(&self, rng: &mut R) -> u64 {
        match self.ln_q {
            None => 1,
            Some(ln_q) => {
                // Inversion: K = ⌈ln(1−U)/ln(1−p)⌉ with U ∈ [0, 1).
                // `ln_1p(-u)` keeps precision for small u.
                let u = rng.next_f64();
                let k = ((-u).ln_1p() / ln_q).ceil();
                // u = 0 gives k = 0 (⌈0⌉); the support starts at 1.
                (k as u64).max(1)
            }
        }
    }
}

/// Exponential distribution with rate `λ` (mean `1/λ`).
#[derive(Debug, Clone, Copy)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Creates the distribution. Panics unless `rate > 0`.
    pub fn new(rate: f64) -> Self {
        assert!(
            rate > 0.0 && rate.is_finite(),
            "exponential: bad rate {rate}"
        );
        Exponential { rate }
    }

    /// The rate parameter `λ`.
    pub fn rate(&self) -> f64 {
        self.rate
    }
}

impl Distribution for Exponential {
    type Value = f64;

    fn sample<R: Rng64 + ?Sized>(&self, rng: &mut R) -> f64 {
        // Inversion of the survival function; ln_1p(-u) is exact at 0.
        -(-rng.next_f64()).ln_1p() / self.rate
    }
}

/// Normal distribution `N(mean, sd²)`.
#[derive(Debug, Clone, Copy)]
pub struct Normal {
    mean: f64,
    sd: f64,
}

impl Normal {
    /// Creates the distribution. Panics unless `sd > 0`.
    pub fn new(mean: f64, sd: f64) -> Self {
        assert!(sd > 0.0 && sd.is_finite(), "normal: bad sd {sd}");
        Normal { mean, sd }
    }
}

impl Distribution for Normal {
    type Value = f64;

    fn sample<R: Rng64 + ?Sized>(&self, rng: &mut R) -> f64 {
        // Box–Muller. The sampler is stateless (&self), so the second
        // variate of the pair is discarded.
        let u1 = loop {
            let u = rng.next_f64();
            if u > 0.0 {
                break u;
            }
        };
        let u2 = rng.next_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        self.mean + self.sd * r * (std::f64::consts::TAU * u2).cos()
    }
}

/// Poisson distribution with rate `λ`.
///
/// Uses Knuth's product-of-uniforms method, which is exact for every
/// `λ` where `e^{−λ}` is representable (λ ≲ 700 — far beyond the
/// `t/n ≤ O(polylog n)` rates the poissonised analyses need).
#[derive(Debug, Clone, Copy)]
pub struct PoissonSampler {
    lambda: f64,
    exp_neg_lambda: f64,
}

impl PoissonSampler {
    /// Creates the sampler. Panics unless `0 < λ` and `e^{−λ} > 0`.
    pub fn new(lambda: f64) -> Self {
        assert!(
            lambda > 0.0 && lambda.is_finite(),
            "poisson: bad λ {lambda}"
        );
        let exp_neg_lambda = (-lambda).exp();
        assert!(
            exp_neg_lambda > 0.0,
            "poisson: λ={lambda} too large for the exact sampler"
        );
        PoissonSampler {
            lambda,
            exp_neg_lambda,
        }
    }

    /// The rate parameter `λ`.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }
}

impl Distribution for PoissonSampler {
    type Value = u64;

    fn sample<R: Rng64 + ?Sized>(&self, rng: &mut R) -> u64 {
        let mut k = 0u64;
        let mut prod = rng.next_f64();
        while prod > self.exp_neg_lambda {
            k += 1;
            prod *= rng.next_f64();
        }
        k
    }
}

/// Binomial distribution `Bin(n, p)`.
///
/// Exact in all regimes: inversion (CDF walk from 0) when the flipped
/// mean `n·min(p, 1−p)` is small, and inversion *centred at the mode*
/// otherwise. Both walk the exact pmf recurrence, so only speed differs:
/// the from-zero walk costs `O(np)` steps, the mode-centred walk
/// `O(√(npq))` expected.
#[derive(Debug, Clone, Copy)]
pub struct BinomialSampler {
    n: u64,
    p: f64,
}

/// Mean threshold below which the CDF walk is used.
const BINOMIAL_INVERSION_MEAN: f64 = 32.0;

/// `ln(k!)`: direct log-sum below 10 (a cold path — the mode-centred
/// sampler only fires with mean > 32, where every argument is ≥ 32),
/// Stirling series (three correction terms, relative error < 1e-13 for
/// k ≥ 10) above. Public for samplers elsewhere that seed a pmf at a
/// large count.
pub fn ln_factorial(k: u64) -> f64 {
    if k < 10 {
        return (2..=k).map(|i| (i as f64).ln()).sum();
    }
    const HALF_LN_TAU: f64 = 0.918_938_533_204_672_7; // ln(2π)/2
    let x = k as f64;
    let inv = 1.0 / x;
    let inv2 = inv * inv;
    (x + 0.5) * x.ln() - x + HALF_LN_TAU + inv * (1.0 / 12.0 - inv2 * (1.0 / 360.0 - inv2 / 1260.0))
}

impl BinomialSampler {
    /// Creates the sampler. Panics unless `p ∈ [0, 1]`.
    pub fn new(n: u64, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "binomial: p={p} outside [0, 1]");
        BinomialSampler { n, p }
    }

    /// Number of trials.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Per-trial success probability.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// CDF inversion for `q ≤ 1/2` with small mean: walk the pmf from
    /// `k = 0` using the recurrence
    /// `pmf(k+1) = pmf(k) · (n−k)/(k+1) · q/(1−q)`.
    ///
    /// Only valid while `(1−q)^n` stays clear of subnormal underflow —
    /// comfortably true in the `n·q ≤ 32` regime [`BinomialSampler::sample`]
    /// routes here, and *not* beyond it (the property suite pins the
    /// boundary). Public so that suite can cross-validate the two
    /// inversion paths on the same parameters; use `sample` (which
    /// picks the regime) otherwise.
    pub fn sample_inversion<R: Rng64 + ?Sized>(n: u64, q: f64, rng: &mut R) -> u64 {
        let ratio = q / (1.0 - q);
        let mut k = 0u64;
        let mut pmf = (1.0 - q).powi(n as i32).max(f64::MIN_POSITIVE);
        let mut cdf = pmf;
        let u = rng.next_f64();
        while u > cdf && k < n {
            pmf *= (n - k) as f64 * ratio / (k + 1) as f64;
            k += 1;
            cdf += pmf;
        }
        k
    }

    /// CDF inversion centred at the mode, for large means: lay the pmf
    /// intervals out in the order `mode, mode−1, mode+1, mode−2, …` and
    /// walk outward until the uniform draw is covered. Exactly
    /// `Bin(n, q)` (each value owns an interval of width `pmf(k)`), with
    /// `O(√(n·q·(1−q)))` expected steps since the mass concentrates
    /// around the mode.
    ///
    /// Public so the property suite can cross-validate the two
    /// inversion paths against each other on the same parameters; use
    /// [`BinomialSampler::sample`] (which picks the regime) otherwise.
    pub fn sample_mode_inversion<R: Rng64 + ?Sized>(n: u64, q: f64, rng: &mut R) -> u64 {
        let mode = (((n + 1) as f64) * q).floor().min(n as f64) as u64;
        let ln_pmf = ln_factorial(n) - ln_factorial(mode) - ln_factorial(n - mode)
            + mode as f64 * q.ln()
            + (n - mode) as f64 * (-q).ln_1p();
        let pmf_mode = ln_pmf.exp();
        let u = rng.next_f64();
        let mut cdf = pmf_mode;
        if u < cdf {
            return mode;
        }
        let ratio = q / (1.0 - q);
        let (mut lo, mut pmf_lo) = (mode, pmf_mode);
        let (mut hi, mut pmf_hi) = (mode, pmf_mode);
        loop {
            let mut advanced = false;
            if lo > 0 {
                // pmf(lo−1) = pmf(lo) · lo / ((n − lo + 1) · ratio).
                pmf_lo *= lo as f64 / ((n - lo + 1) as f64 * ratio);
                lo -= 1;
                cdf += pmf_lo;
                if u < cdf {
                    return lo;
                }
                advanced = true;
            }
            if hi < n {
                // pmf(hi+1) = pmf(hi) · (n − hi) · ratio / (hi + 1).
                pmf_hi *= (n - hi) as f64 * ratio / (hi + 1) as f64;
                hi += 1;
                cdf += pmf_hi;
                if u < cdf {
                    return hi;
                }
                advanced = true;
            }
            if !advanced {
                // The full support is covered; u survived only through
                // floating-point residue. The mode is the safe answer.
                return mode;
            }
        }
    }
}

impl Distribution for BinomialSampler {
    type Value = u64;

    fn sample<R: Rng64 + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.n == 0 || self.p <= 0.0 {
            return 0;
        }
        if self.p >= 1.0 {
            return self.n;
        }
        // Work with q = min(p, 1−p) and mirror back if flipped.
        let flipped = self.p > 0.5;
        let q = if flipped { 1.0 - self.p } else { self.p };
        let k = if self.n as f64 * q <= BINOMIAL_INVERSION_MEAN && self.n <= i32::MAX as u64 {
            Self::sample_inversion(self.n, q, rng)
        } else {
            Self::sample_mode_inversion(self.n, q, rng)
        };
        if flipped {
            self.n - k
        } else {
            k
        }
    }
}

/// Walker/Vose alias table: O(n) construction, O(1) sampling from an
/// arbitrary finite discrete distribution given by non-negative weights.
#[derive(Debug, Clone)]
pub struct AliasTable {
    /// Normalised weights (the pmf).
    pmf: Vec<f64>,
    /// Acceptance probability per cell.
    prob: Vec<f64>,
    /// Fallback cell when the coin rejects.
    alias: Vec<usize>,
}

impl AliasTable {
    /// Builds the table from non-negative weights.
    ///
    /// Panics if `weights` is empty, contains a negative or non-finite
    /// value, or sums to zero.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "alias table: empty weight vector");
        let total: f64 = weights.iter().sum();
        for &w in weights {
            assert!(w >= 0.0 && w.is_finite(), "alias table: bad weight {w}");
        }
        assert!(total > 0.0, "alias table: weights sum to zero");

        let n = weights.len();
        let pmf: Vec<f64> = weights.iter().map(|&w| w / total).collect();
        // Scaled weights; cells < 1 are "small", ≥ 1 are "large".
        let mut scaled: Vec<f64> = pmf.iter().map(|&p| p * n as f64).collect();
        let mut small: Vec<usize> = Vec::with_capacity(n);
        let mut large: Vec<usize> = Vec::with_capacity(n);
        for (i, &s) in scaled.iter().enumerate() {
            if s < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }

        let mut prob = vec![1.0f64; n];
        let mut alias: Vec<usize> = (0..n).collect();
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            prob[s] = scaled[s];
            alias[s] = l;
            scaled[l] -= 1.0 - scaled[s];
            if scaled[l] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        // Leftovers (numerical residue) keep prob = 1, alias = self.
        for &i in small.iter().chain(large.iter()) {
            prob[i] = 1.0;
            alias[i] = i;
        }

        AliasTable { pmf, prob, alias }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.pmf.len()
    }

    /// Whether the table is empty (never true: construction requires a
    /// non-empty weight vector).
    pub fn is_empty(&self) -> bool {
        self.pmf.is_empty()
    }

    /// The normalised probability of cell `i`.
    pub fn pmf(&self, i: usize) -> f64 {
        self.pmf[i]
    }
}

impl Distribution for AliasTable {
    type Value = usize;

    fn sample<R: Rng64 + ?Sized>(&self, rng: &mut R) -> usize {
        let i = rng.range_usize(self.pmf.len());
        // Strict `<` guarantees zero-weight cells (prob 0) never win the
        // coin and therefore are never returned directly; they also never
        // appear as an alias because zero scaled weight puts them in the
        // small worklist.
        if rng.next_f64() < self.prob[i] {
            i
        } else {
            self.alias[i]
        }
    }
}

/// Zipf distribution on `{1, …, n}` with exponent `s ≥ 0`:
/// `pmf(k) ∝ k^{−s}` (uniform when `s = 0`).
#[derive(Debug, Clone)]
pub struct Zipf {
    /// cdf[k−1] = Pr[X ≤ k].
    cdf: Vec<f64>,
    /// pmf[k−1] = Pr[X = k].
    pmf: Vec<f64>,
}

impl Zipf {
    /// Creates the distribution. Panics unless `n ≥ 1` and `s ≥ 0` and
    /// finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n >= 1, "zipf: empty support");
        assert!(s >= 0.0 && s.is_finite(), "zipf: bad exponent {s}");
        let raw: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-s)).collect();
        let total: f64 = raw.iter().sum();
        let pmf: Vec<f64> = raw.iter().map(|&w| w / total).collect();
        let mut cdf = pmf.clone();
        for k in 1..n {
            cdf[k] += cdf[k - 1];
        }
        cdf[n - 1] = 1.0;
        Zipf { cdf, pmf }
    }

    /// Support size `n`.
    pub fn n(&self) -> usize {
        self.pmf.len()
    }

    /// `Pr[X = k]` for 1-based `k`; 0 outside the support.
    pub fn pmf(&self, k: usize) -> f64 {
        if k == 0 || k > self.pmf.len() {
            0.0
        } else {
            self.pmf[k - 1]
        }
    }
}

impl Distribution for Zipf {
    type Value = usize;

    fn sample<R: Rng64 + ?Sized>(&self, rng: &mut R) -> usize {
        let u = rng.next_f64();
        // First k with cdf[k−1] ≥ u; partition_point counts the strictly
        // smaller prefix.
        let idx = self.cdf.partition_point(|&c| c < u);
        idx.min(self.cdf.len() - 1) + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitMix64;

    #[test]
    fn geometric_mean_close_to_inverse_p() {
        let mut rng = SplitMix64::new(1);
        let d = GeometricSampler::new(0.25);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| d.sample(&mut rng) as f64).sum::<f64>() / n as f64;
        assert!((mean - 4.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn geometric_p_one_is_constant_one() {
        let mut rng = SplitMix64::new(2);
        let d = GeometricSampler::new(1.0);
        for _ in 0..100 {
            assert_eq!(d.sample(&mut rng), 1);
        }
    }

    #[test]
    fn poisson_mean_and_variance() {
        let mut rng = SplitMix64::new(3);
        let d = PoissonSampler::new(4.0);
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| d.sample(&mut rng) as f64).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 4.0).abs() < 0.08, "mean {mean}");
        assert!((var - 4.0).abs() < 0.25, "var {var}");
    }

    #[test]
    fn binomial_regimes_agree_on_moments() {
        let mut rng = SplitMix64::new(4);
        // From-zero inversion regime.
        let small = BinomialSampler::new(10_000, 1e-3);
        // Mode-centred regime (flipped to q = 0.3, mean 2100 > threshold).
        let large = BinomialSampler::new(3000, 0.7);
        let n = 20_000;
        let m1: f64 = (0..n).map(|_| small.sample(&mut rng) as f64).sum::<f64>() / n as f64;
        let m2: f64 = (0..n).map(|_| large.sample(&mut rng) as f64).sum::<f64>() / n as f64;
        assert!((m1 - 10.0).abs() < 0.15, "inversion mean {m1}");
        assert!((m2 - 2100.0).abs() < 1.0, "count mean {m2}");
    }

    #[test]
    fn ln_factorial_matches_iterative_sum() {
        let mut acc = 0.0f64;
        for k in 1..=300u64 {
            acc += (k as f64).ln();
            let lf = ln_factorial(k);
            assert!(
                (lf - acc).abs() <= 1e-10 * acc.max(1.0),
                "k={k}: {lf} vs {acc}"
            );
        }
    }

    #[test]
    fn binomial_mode_inversion_moments() {
        // Deep in the mode-centred regime: mean 10⁴, sd ≈ 99.5.
        let mut rng = SplitMix64::new(41);
        let d = BinomialSampler::new(1_000_000, 0.01);
        let reps = 4_000;
        let xs: Vec<f64> = (0..reps).map(|_| d.sample(&mut rng) as f64).collect();
        let mean = xs.iter().sum::<f64>() / reps as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / reps as f64;
        assert!((mean - 10_000.0).abs() < 10.0, "mean {mean}");
        assert!((var - 9_900.0).abs() < 900.0, "var {var}");
        // Support respected.
        assert!(xs.iter().all(|&x| (0.0..=1_000_000.0).contains(&x)));
    }

    #[test]
    fn binomial_regimes_agree_across_threshold() {
        // Same distribution sampled just below and just above the
        // regime switch must have statistically identical histograms.
        let n_trials = 1000u64;
        let below = BinomialSampler::new(n_trials, 31.0 / n_trials as f64);
        let above = BinomialSampler::new(n_trials, 33.0 / n_trials as f64);
        let reps = 30_000;
        for (d, expect_mean) in [(below, 31.0), (above, 33.0)] {
            let mut rng = SplitMix64::new(42);
            let mean = (0..reps).map(|_| d.sample(&mut rng) as f64).sum::<f64>() / reps as f64;
            assert!(
                (mean - expect_mean).abs() < 0.2,
                "mean {mean} vs {expect_mean}"
            );
        }
    }

    #[test]
    fn binomial_edge_parameters() {
        let mut rng = SplitMix64::new(5);
        assert_eq!(BinomialSampler::new(0, 0.5).sample(&mut rng), 0);
        assert_eq!(BinomialSampler::new(17, 0.0).sample(&mut rng), 0);
        assert_eq!(BinomialSampler::new(17, 1.0).sample(&mut rng), 17);
    }

    #[test]
    fn alias_table_respects_weights() {
        let mut rng = SplitMix64::new(6);
        let t = AliasTable::new(&[1.0, 0.0, 3.0]);
        let n = 40_000;
        let mut counts = [0u64; 3];
        for _ in 0..n {
            counts[t.sample(&mut rng)] += 1;
        }
        assert_eq!(counts[1], 0, "zero-weight cell sampled");
        let f0 = counts[0] as f64 / n as f64;
        assert!((f0 - 0.25).abs() < 0.02, "f0 {f0}");
        assert!((t.pmf(0) - 0.25).abs() < 1e-12);
        assert!((t.pmf(1) - 0.0).abs() < 1e-12);
        assert!((t.pmf(2) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn zipf_uniform_when_s_zero() {
        let z = Zipf::new(4, 0.0);
        for k in 1..=4 {
            assert!((z.pmf(k) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn exponential_mean() {
        let mut rng = SplitMix64::new(7);
        let d = Exponential::new(2.0);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn normal_moments() {
        let mut rng = SplitMix64::new(8);
        let d = Normal::new(-1.0, 2.0);
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean + 1.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn bernoulli_distribution_rate() {
        let mut rng = SplitMix64::new(9);
        let d = Bernoulli::new(0.3);
        let hits = (0..50_000).filter(|_| d.sample(&mut rng)).count();
        assert!((hits as f64 / 50_000.0 - 0.3).abs() < 0.02);
    }
}
