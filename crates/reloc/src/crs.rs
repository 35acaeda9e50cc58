//! Czumaj–Riley–Scheideler self-balancing allocation \[6\].
//!
//! Reproduction note: the published algorithm's phase
//! structure is proof-oriented; we implement the operational core it
//! analyses. Every ball draws **two** uniform bin choices which stay
//! fixed forever. The initial placement is `greedy[2]`. Then
//! *self-balancing steps* run: a ball sitting in the fuller of its two
//! choices (by a margin ≥ 2) switches to the other. Passes repeat, in a
//! freshly shuffled ball order, until no ball can improve. The final
//! state is a local optimum of the two-choice orientation — empirically
//! `⌈m/n⌉` or `⌈m/n⌉ + 1` max load, matching the \[6\] rows of Table 1 —
//! and the cost is reported as `2m` samples plus the number of
//! reallocations.

use bib_core::bins::LoadVector;
use bib_rng::{Rng64, RngExt};

/// The self-balancing scheme (two choices per ball).
///
/// # Examples
///
/// ```
/// use bib_reloc::Crs;
/// use bib_rng::SeedSequence;
///
/// let mut rng = SeedSequence::new(7).rng();
/// let out = Crs::new().run(128, 1280, &mut rng); // n = 128, m = 1280
/// out.validate();
/// assert!(out.max_load() <= out.target() + 1);   // ≈ perfectly balanced
/// assert_eq!(out.samples, 2 * 1280);             // two choices per ball
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Crs {
    /// Safety cap on full balancing passes.
    max_passes: u32,
}

impl Default for Crs {
    fn default() -> Self {
        Self::new()
    }
}

/// Result of a CRS run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrsOutcome {
    /// Bins.
    pub n: usize,
    /// Balls.
    pub m: u64,
    /// Bin samples drawn (always `2m`: two choices per ball).
    pub samples: u64,
    /// Number of ball moves performed during self-balancing.
    pub reallocations: u64,
    /// Full passes over the balls (including the final no-op pass).
    pub passes: u32,
    /// Final loads.
    pub loads: Vec<u32>,
    /// Max load straight after the greedy\[2\] initial placement.
    pub initial_max_load: u32,
}

impl CrsOutcome {
    /// Final maximum load.
    pub fn max_load(&self) -> u32 {
        self.loads.iter().copied().max().unwrap_or(0)
    }

    /// The perfect-balance target `⌈m/n⌉`.
    pub fn target(&self) -> u32 {
        self.m.div_ceil(self.n as u64) as u32
    }

    /// Asserts mass conservation.
    pub fn validate(&self) {
        assert_eq!(self.loads.len(), self.n);
        assert_eq!(self.loads.iter().map(|&l| l as u64).sum::<u64>(), self.m);
    }
}

impl Crs {
    /// Creates the scheme with the default safety limits.
    pub fn new() -> Self {
        Self { max_passes: 10_000 }
    }

    /// Runs initial placement plus self-balancing to a local optimum.
    pub fn run<R: Rng64 + ?Sized>(&self, n: usize, m: u64, rng: &mut R) -> CrsOutcome {
        assert!(n > 0, "need at least one bin");
        assert!(m <= u32::MAX as u64, "ball ids are u32");
        let mut loads = LoadVector::new(n);
        // Per ball: its two choices and which one it currently occupies.
        let mut choice_a: Vec<u32> = Vec::with_capacity(m as usize);
        let mut choice_b: Vec<u32> = Vec::with_capacity(m as usize);
        let mut in_a: Vec<bool> = Vec::with_capacity(m as usize);

        // greedy[2] initial placement.
        for _ in 0..m {
            let a = rng.range_usize(n) as u32;
            let b = rng.range_usize(n) as u32;
            let take_a = match loads.load(a as usize).cmp(&loads.load(b as usize)) {
                std::cmp::Ordering::Less => true,
                std::cmp::Ordering::Greater => false,
                std::cmp::Ordering::Equal => rng.bernoulli(0.5),
            };
            loads.place(if take_a { a } else { b } as usize);
            choice_a.push(a);
            choice_b.push(b);
            in_a.push(take_a);
        }
        let initial_max_load = loads.max_load();

        // Self-balancing passes.
        let mut order: Vec<u32> = (0..m as u32).collect();
        let mut reallocations = 0u64;
        let mut passes = 0u32;
        loop {
            passes += 1;
            assert!(
                passes <= self.max_passes,
                "self-balancing failed to converge in {} passes",
                self.max_passes
            );
            rng.shuffle(&mut order);
            let mut moved = false;
            for &ball in &order {
                let ball = ball as usize;
                let (cur, other) = if in_a[ball] {
                    (choice_a[ball], choice_b[ball])
                } else {
                    (choice_b[ball], choice_a[ball])
                };
                // An improving switch strictly reduces the maximum of the
                // two loads: requires a gap of at least 2.
                if loads.load(cur as usize) > loads.load(other as usize) + 1 {
                    loads.remove(cur as usize);
                    loads.place(other as usize);
                    in_a[ball] = !in_a[ball];
                    reallocations += 1;
                    moved = true;
                }
            }
            if !moved {
                break;
            }
        }

        CrsOutcome {
            n,
            m,
            samples: 2 * m,
            reallocations,
            passes,
            loads: loads.into_loads(),
            initial_max_load,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bib_rng::SplitMix64;

    #[test]
    fn conserves_mass_and_counts_samples() {
        let mut rng = SplitMix64::new(1);
        let out = Crs::new().run(64, 640, &mut rng);
        out.validate();
        assert_eq!(out.samples, 1280);
        assert!(out.passes >= 1);
    }

    #[test]
    fn final_state_is_a_local_optimum() {
        // No ball may sit ≥ 2 above its alternative — re-running from the
        // final loads must find no improving move. We verify via the
        // outcome's own invariant: the last pass made no move, so the max
        // load can exceed the target only through 2-choice orientation
        // limits; check it is within +1 of the initial greedy[2] result
        // and never worse.
        let mut rng = SplitMix64::new(2);
        let out = Crs::new().run(128, 128 * 8, &mut rng);
        assert!(out.max_load() <= out.initial_max_load);
    }

    #[test]
    fn balances_to_near_target_at_moderate_scale() {
        // The [6] headline: max load ⌈m/n⌉ (we allow +1 for the local
        // optimum at finite n).
        let mut rng = SplitMix64::new(3);
        let out = Crs::new().run(1024, 1024 * 16, &mut rng);
        out.validate();
        assert!(
            out.max_load() <= out.target() + 1,
            "max {} target {}",
            out.max_load(),
            out.target()
        );
    }

    #[test]
    fn reallocations_are_linear_ish() {
        // O(m) + n^{O(1)} reallocation steps per [6]; empirically well
        // below m at this scale.
        let mut rng = SplitMix64::new(4);
        let m = 8192u64;
        let out = Crs::new().run(512, m, &mut rng);
        assert!(
            out.reallocations < 2 * m,
            "reallocations {} for m {m}",
            out.reallocations
        );
    }

    #[test]
    fn zero_balls() {
        let mut rng = SplitMix64::new(5);
        let out = Crs::new().run(8, 0, &mut rng);
        out.validate();
        assert_eq!(out.max_load(), 0);
        assert_eq!(out.reallocations, 0);
    }

    #[test]
    fn improves_on_raw_greedy2_at_heavy_load() {
        let mut rng = SplitMix64::new(6);
        let out = Crs::new().run(256, 256 * 64, &mut rng);
        // Self-balancing must help (greedy[2] has ln ln n-ish excess).
        assert!(out.max_load() < out.initial_max_load || out.max_load() <= out.target() + 1);
    }
}
