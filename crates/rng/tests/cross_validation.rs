//! Cross-validation of our samplers against exact pmfs from
//! `bib-analysis` and against each other.
//!
//! All tests use fixed seeds and generous tolerances: they detect
//! implementation mistakes (off-by-one supports, biased ranges), not
//! random flukes.

use bib_analysis::chisq::{chi_square_gof, chi_square_uniform};
use bib_analysis::{Binomial as ExactBinomial, Poisson as ExactPoisson};
use bib_rng::dist::{BinomialSampler, Distribution, PoissonSampler};
use bib_rng::{RngExt, SplitMix64, Xoshiro256PlusPlus};

/// Our uniform-range sampler passes a chi-square uniformity test on an
/// awkward non-power-of-two range.
#[test]
fn range_sampler_agrees_with_rand() {
    const N: u64 = 37;
    const SAMPLES: usize = 200_000;
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(99);
    let mut h = vec![0u64; N as usize];
    for _ in 0..SAMPLES {
        h[rng.range_u64(N) as usize] += 1;
    }
    assert!(
        chi_square_uniform(&h).p_value > 1e-4,
        "range sampler biased"
    );
}

/// Bernoulli frequencies sit within 5σ of `n·p` at several
/// probabilities.
#[test]
fn bernoulli_agrees_with_rand() {
    const SAMPLES: usize = 100_000;
    for (i, &p) in [0.1f64, 0.5, 0.9].iter().enumerate() {
        let mut rng = SplitMix64::new(7 + i as u64);
        let a = (0..SAMPLES).filter(|_| rng.bernoulli(p)).count() as f64;
        let sigma = (SAMPLES as f64 * p * (1.0 - p)).sqrt();
        assert!(
            (a - SAMPLES as f64 * p).abs() < 5.0 * sigma,
            "Bernoulli off at p={p}"
        );
    }
}

/// f64 conversion meets the uniform distributional contract ([0,1),
/// mean 1/2, variance 1/12).
#[test]
fn f64_moments() {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(11);
    let n = 200_000;
    let xs: Vec<f64> = (0..n).map(|_| rng.next_f64()).collect();
    let mean = xs.iter().sum::<f64>() / n as f64;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
    assert!((mean - 0.5).abs() < 0.005, "mean {mean}");
    assert!((var - 1.0 / 12.0).abs() < 0.002, "var {var}");
    assert!(xs.iter().all(|&x| (0.0..1.0).contains(&x)));
}

/// The Poisson sampler passes GOF against the exact pmf at the exact
/// rates the paper uses (1/2, 100/198, 199/198) plus a large rate.
#[test]
fn poisson_gof_at_paper_rates() {
    for (i, &lam) in [0.5f64, 100.0 / 198.0, 199.0 / 198.0, 64.0]
        .iter()
        .enumerate()
    {
        let d = PoissonSampler::new(lam);
        let exact = ExactPoisson::new(lam);
        let hi = exact.quantile(1.0 - 1e-7) + 3;
        let mut obs = vec![0u64; hi as usize + 1];
        let mut overflow = 0u64;
        let mut rng = SplitMix64::new(1000 + i as u64);
        let n = 120_000;
        for _ in 0..n {
            let k = d.sample(&mut rng);
            if k <= hi {
                obs[k as usize] += 1;
            } else {
                overflow += 1;
            }
        }
        let probs: Vec<f64> = (0..=hi).map(|k| exact.pmf(k)).collect();
        let r = chi_square_gof(&obs, &probs, overflow, 5.0);
        assert!(
            r.p_value > 1e-4,
            "λ={lam}: χ²={} p={}",
            r.statistic,
            r.p_value
        );
    }
}

/// The binomial sampler passes GOF at the Lemma 3.2 shape Bin(n/2, 1/n).
#[test]
fn binomial_gof_at_lemma32_shape() {
    let n_bins = 1u64 << 12;
    let d = BinomialSampler::new(n_bins / 2, 1.0 / n_bins as f64);
    let exact = ExactBinomial::new(n_bins / 2, 1.0 / n_bins as f64);
    let hi = 12u64;
    let mut obs = vec![0u64; hi as usize + 1];
    let mut overflow = 0u64;
    let mut rng = SplitMix64::new(2024);
    for _ in 0..120_000 {
        let k = d.sample(&mut rng);
        if k <= hi {
            obs[k as usize] += 1;
        } else {
            overflow += 1;
        }
    }
    let probs: Vec<f64> = (0..=hi).map(|k| exact.pmf(k)).collect();
    let r = chi_square_gof(&obs, &probs, overflow, 5.0);
    assert!(r.p_value > 1e-4, "p={}", r.p_value);
    // And the tail that Lemma 3.2 bounds: empirical Pr[X ≥ 2] vs 1/20.
    let ge2: u64 = obs[2..].iter().sum::<u64>() + overflow;
    assert!(ge2 as f64 / 120_000.0 > 1.0 / 20.0);
}

/// `sample_distinct` (Floyd's algorithm) is uniform over k-subsets:
/// the overlap with a fixed set is hypergeometric; chi-square GOF.
#[test]
fn sample_distinct_is_hypergeometric() {
    use bib_analysis::dist::Hypergeometric;
    let (n, s, k) = (20usize, 8u64, 6usize);
    let d = Hypergeometric::new(n as u64, s, k as u64);
    let mut rng = SplitMix64::new(777);
    let reps = 60_000;
    let mut obs = vec![0u64; k + 1];
    for _ in 0..reps {
        let sample = rng.sample_distinct(n, k);
        let hits = sample.iter().filter(|&&x| (x as u64) < s).count();
        obs[hits] += 1;
    }
    let probs: Vec<f64> = (0..=k as u64).map(|x| d.pmf(x)).collect();
    let r = chi_square_gof(&obs, &probs, 0, 5.0);
    assert!(r.p_value > 1e-4, "χ²={} p={}", r.statistic, r.p_value);
}

/// Kolmogorov–Smirnov tests for the continuous samplers against their
/// exact cdfs.
#[test]
fn ks_tests_for_continuous_samplers() {
    use bib_analysis::ks::ks_test;
    use bib_analysis::special::normal_cdf;
    use bib_rng::dist::{Exponential, Normal};
    const N: usize = 20_000;

    // Uniform f64 conversion.
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(31);
    let u: Vec<f64> = (0..N).map(|_| rng.next_f64()).collect();
    let r = ks_test(&u, |x| x.clamp(0.0, 1.0));
    assert!(
        r.p_value > 1e-4,
        "uniform: D={} p={}",
        r.statistic,
        r.p_value
    );

    // Exponential(1.7).
    let d = Exponential::new(1.7);
    let e: Vec<f64> = (0..N).map(|_| d.sample(&mut rng)).collect();
    let r = ks_test(&e, |x| (1.0 - (-1.7 * x).exp()).clamp(0.0, 1.0));
    assert!(
        r.p_value > 1e-4,
        "exponential: D={} p={}",
        r.statistic,
        r.p_value
    );

    // Normal(−2, 3).
    let d = Normal::new(-2.0, 3.0);
    let g: Vec<f64> = (0..N).map(|_| d.sample(&mut rng)).collect();
    let r = ks_test(&g, |x| normal_cdf((x + 2.0) / 3.0));
    assert!(
        r.p_value > 1e-4,
        "normal: D={} p={}",
        r.statistic,
        r.p_value
    );
}

/// All three generator families pass KS uniformity on next_f64 — the
/// simulation layer is generator-independent in distribution.
#[test]
fn ks_uniformity_across_generator_families() {
    use bib_analysis::ks::ks_test;
    const N: usize = 20_000;
    let collect = |mut f: Box<dyn FnMut() -> f64>| -> Vec<f64> { (0..N).map(|_| f()).collect() };
    let mut a = SplitMix64::new(41);
    let mut b = bib_rng::Xoshiro256StarStar::seed_from_u64(42);
    let mut c = bib_rng::Pcg32::new(43, 9);
    for (name, data) in [
        ("splitmix", collect(Box::new(move || a.next_f64()))),
        ("xoshiro**", collect(Box::new(move || b.next_f64()))),
        ("pcg32", collect(Box::new(move || c.next_f64()))),
    ] {
        let r = ks_test(&data, |x| x.clamp(0.0, 1.0));
        assert!(
            r.p_value > 1e-4,
            "{name}: D={} p={}",
            r.statistic,
            r.p_value
        );
    }
}

/// Different generator families agree on derived-distribution moments
/// (generator independence of the simulation layer).
#[test]
fn generator_families_agree_on_moments() {
    let n = 100_000;
    let mean_of =
        |mut f: Box<dyn FnMut() -> f64>| -> f64 { (0..n).map(|_| f()).sum::<f64>() / n as f64 };
    let mut a = Xoshiro256PlusPlus::seed_from_u64(5);
    let mut b = bib_rng::Xoshiro256StarStar::seed_from_u64(6);
    let mut c = bib_rng::Pcg32::new(7, 3);
    let ma = mean_of(Box::new(move || a.range_u64(1000) as f64));
    let mb = mean_of(Box::new(move || b.range_u64(1000) as f64));
    let mc = mean_of(Box::new(move || c.range_u64(1000) as f64));
    for (name, m) in [("xo++", ma), ("xo**", mb), ("pcg", mc)] {
        assert!((m - 499.5).abs() < 3.0, "{name}: mean {m}");
    }
}
