//! Deterministic PRNG and sampling substrate for the balls-into-bins
//! reproduction.
//!
//! Every allocation protocol in the paper consumes a stream of uniform
//! random bin choices; the experiments average over 100 independent
//! simulations. This crate provides:
//!
//! * fast, well-studied generators ([`SplitMix64`], [`Xoshiro256PlusPlus`],
//!   [`Xoshiro256StarStar`], [`Pcg32`]) implemented from their reference
//!   algorithms,
//! * a [`seed::SeedSequence`] for deriving arbitrarily many decorrelated
//!   per-replicate / per-stream seeds from one master seed, so parallel
//!   replication is reproducible regardless of thread count,
//! * unbiased integer-range sampling (Lemire's method) and a toolbox of
//!   distributions ([`dist`]): Bernoulli, geometric, exponential, Poisson,
//!   binomial, Zipf and Walker/Vose alias tables.
//!
//! The design goal is *determinism first*: all generators are plain
//! `Clone + Eq` state machines, seeds are explicit, and nothing here reads
//! the OS entropy pool.
//!
//! # Quick example
//!
//! ```
//! use bib_rng::{RngExt, Xoshiro256PlusPlus};
//!
//! let mut rng = Xoshiro256PlusPlus::seed_from_u64(42);
//! let bin = rng.range_u64(1000);     // uniform in [0, 1000)
//! assert!(bin < 1000);
//! let p = rng.next_f64();            // uniform in [0, 1)
//! assert!((0.0..1.0).contains(&p));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dist;
pub mod pcg;
pub mod seed;
pub mod splitmix;
pub mod xoshiro;

pub use pcg::Pcg32;
pub use seed::SeedSequence;
pub use splitmix::SplitMix64;
pub use xoshiro::{Xoshiro256PlusPlus, Xoshiro256StarStar};

/// A source of 64 random bits per call.
///
/// Object-safe on purpose: the protocol harness in `bib-core` passes
/// `&mut dyn Rng64` so that protocols, observers and engines do not need
/// to be generic over the generator. All derived sampling functionality
/// lives in the [`RngExt`] extension trait, which is implemented for
/// every `Rng64` including trait objects.
pub trait Rng64 {
    /// Returns the next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;
}

impl<R: Rng64 + ?Sized> Rng64 for &mut R {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Derived sampling methods available on every [`Rng64`].
pub trait RngExt: Rng64 {
    /// Next 32 uniformly distributed bits (upper half of a 64-bit draw,
    /// which is the higher-quality half for xoshiro-family generators).
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    fn next_f64(&mut self) -> f64 {
        // 53 high bits scaled by 2^-53; the standard conversion.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)` using Lemire's multiply-shift method
    /// with rejection — exactly uniform, no modulo bias.
    ///
    /// Panics if `n == 0`.
    #[inline]
    fn range_u64(&mut self, n: u64) -> u64 {
        assert!(n > 0, "range_u64: empty range");
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut low = m as u64;
        if low < n {
            // Rejection threshold: 2^64 mod n.
            let t = n.wrapping_neg() % n;
            while low < t {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                low = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform `usize` in `[0, n)`; see [`RngExt::range_u64`].
    #[inline]
    fn range_usize(&mut self, n: usize) -> usize {
        self.range_u64(n as u64) as usize
    }

    /// Bernoulli trial returning `true` with probability `p`.
    ///
    /// `p` outside `[0, 1]` is clamped (so `bernoulli(1.5)` is always
    /// true), matching the forgiving behaviour protocols want when
    /// probabilities come from floating-point arithmetic.
    #[inline]
    fn bernoulli(&mut self, p: f64) -> bool {
        if p >= 1.0 {
            return true;
        }
        if p <= 0.0 {
            return false;
        }
        self.next_f64() < p
    }

    /// Uniformly chooses one element of a non-empty slice.
    #[inline]
    fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "choose: empty slice");
        &items[self.range_usize(items.len())]
    }

    /// Fisher–Yates shuffle in place.
    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.range_usize(i + 1);
            items.swap(i, j);
        }
    }

    /// Samples `k` distinct indices from `[0, n)` by Floyd's algorithm,
    /// returned in the (random) order generated.
    ///
    /// Panics if `k > n`.
    fn sample_distinct(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "sample_distinct: k={k} > n={n}");
        let mut out: Vec<usize> = Vec::with_capacity(k);
        for j in (n - k)..n {
            let t = self.range_usize(j + 1);
            if out.contains(&t) {
                out.push(j);
            } else {
                out.push(t);
            }
        }
        out
    }
}

impl<R: Rng64 + ?Sized> RngExt for R {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_u64_bounds_and_coverage() {
        let mut rng = SplitMix64::new(7);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let v = rng.range_u64(7);
            assert!(v < 7);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn range_u64_n_one_is_constant_zero() {
        let mut rng = SplitMix64::new(1);
        for _ in 0..10 {
            assert_eq!(rng.range_u64(1), 0);
        }
    }

    #[test]
    #[should_panic]
    fn range_u64_zero_panics() {
        SplitMix64::new(0).range_u64(0);
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(3);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn bernoulli_extremes() {
        let mut rng = SplitMix64::new(5);
        assert!(rng.bernoulli(1.0));
        assert!(rng.bernoulli(2.0));
        assert!(!rng.bernoulli(0.0));
        assert!(!rng.bernoulli(-1.0));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = SplitMix64::new(11);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn sample_distinct_properties() {
        let mut rng = SplitMix64::new(13);
        for _ in 0..50 {
            let s = rng.sample_distinct(20, 8);
            assert_eq!(s.len(), 8);
            let mut t = s.clone();
            t.sort_unstable();
            t.dedup();
            assert_eq!(t.len(), 8, "duplicates in {s:?}");
            assert!(s.iter().all(|&x| x < 20));
        }
    }

    #[test]
    fn sample_distinct_full_range() {
        let mut rng = SplitMix64::new(17);
        let mut s = rng.sample_distinct(5, 5);
        s.sort_unstable();
        assert_eq!(s, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn dyn_rng_works_through_trait_object() {
        let mut rng = SplitMix64::new(23);
        let dyn_rng: &mut dyn Rng64 = &mut rng;
        let v = dyn_rng.range_u64(10);
        assert!(v < 10);
    }
}
