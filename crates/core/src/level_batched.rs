//! The level-batched sampling engine ([`Engine::LevelBatched`]).
//!
//! Threshold-style protocols place every ball into a uniformly random
//! bin whose load is below an integer bound. When that bound never
//! changes over the whole run — `threshold`, `threshold(+s)`, and
//! `adaptive` with `m ≤ n` — the faithful process is equivalent to
//! scanning an i.i.d. uniform bin stream and accepting samples that land
//! in a non-full bin (full = load has reached the bound `t`). This
//! module simulates the whole run at once ([`place_batch_below`]):
//!
//! 1. Let `A` be the bins with load `< t` at the start (`k₀ = |A|`).
//!    Samples outside `A` are pure retries; samples inside `A` — the
//!    *A-hits* — drive the state.
//! 2. While many balls remain, process the next `left` A-hits as one
//!    *round*: they scatter uniformly over `A`, so the hits wasted on
//!    bins of `A` that have filled since the start split off with one
//!    binomial draw, and the live hits split over the still-open bins
//!    as a multinomial (a chain of conditional binomial draws — the
//!    level-batched walk). Each open bin keeps `min(hits, capacity)`
//!    balls; overflow re-enters the next round, exactly as the
//!    corresponding stream samples would.
//! 3. Once fewer than ~`k₀` balls remain, batching stops paying for
//!    itself and the tail is placed ball-by-ball (uniform open bin +
//!    geometric sample count) — still exact.
//!
//! Step 2's rounds consume the *first* `Σ leftᵣ` A-hits of the stream
//! and are therefore distributionally exact on the final load vector:
//! conditioned on acceptance, a uniform-over-`A` sample is uniform over
//! the open bins, which is the faithful law. The integration tests
//! validate this with chi-square comparisons against [`Engine::Faithful`]
//! and exact checks on degenerate cases.
//!
//! **What is and is not preserved.** Final loads: exact. Total samples:
//! every A-hit costs `Geometric(k₀/n)` stream samples, so the run's
//! allocation time is a negative-binomial total — drawn exactly for
//! small counts and via its CLT limit for large ones (indistinguishable
//! at the scales where batching matters). Per-ball events: gone by
//! construction — `Observer::on_ball` never fires and
//! `max_samples_per_ball` only reflects the per-ball tail.
//!
//! **When it batches.** [`allocate_scheduled`] batches a
//! `LevelBatched` run only if its first segment covers all `m` balls
//! and the observer does not want stage ends. Every other run under
//! that name — a bound that changes, or a stage trace — is the faithful
//! per-ball loop, which is exact in every respect.

use crate::protocol::{drive_sequential, Engine, Observer, Outcome, Protocol, RunConfig};
use crate::sampler::place_below;
use crate::scenario::Scenario;
use bib_rng::dist::{BinomialSampler, Distribution, GeometricSampler, Normal};
use bib_rng::{Rng64, RngExt};

/// A protocol whose acceptance bound is a function of the ball index
/// alone, constant over contiguous segments — the contract
/// [`allocate_scheduled`] needs.
pub trait ThresholdSchedule {
    /// Acceptance bound for ball `ball` (1-based): a bin accepts iff
    /// `load < bound`.
    fn bound(&self, cfg: &RunConfig, ball: u64) -> u32;

    /// Inclusive index of the last ball sharing `ball`'s bound
    /// (`ball ≤ segment_end ≤ cfg.m`).
    fn segment_end(&self, cfg: &RunConfig, ball: u64) -> u64;
}

/// Sample accounting for one batched placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchStats {
    /// Total bin samples consumed (allocation time of the batch).
    pub samples: u64,
    /// Largest per-ball sample count *observed* — exact for tail balls,
    /// a lower bound (1) for batched balls.
    pub max_samples_per_ball: u64,
}

/// Below this many remaining balls (relative to the batch-start
/// accepting count) a batched round costs more than per-ball placement:
/// a round pays one binomial draw per open bin, so it needs a few balls
/// per bin to amortise. At `left ≈ k₀` the per-ball tail wins.
fn batch_cutoff(k0: usize) -> u64 {
    (4 * k0 as u64).max(64)
}

/// Draws the total number of uniform bin samples needed to obtain
/// `hits` hits in an accepting set of probability `p` — a sum of `hits`
/// geometrics, i.e. `hits + NegativeBinomial(hits, p)` failures. Exact
/// summation up to `exact_cutoff` hits; rounded CLT draw (mean
/// `hits/p`, variance `hits·(1−p)/p²`) beyond, clamped to the support
/// `≥ hits`. Shared by this engine (cutoff 4096) and the histogram
/// engine (cutoff 32 — it prices one round per adaptive stage, where
/// long geometric sums would dominate the collapsed hot path).
pub(crate) fn stream_samples_for_hits_bounded<R: Rng64 + ?Sized>(
    hits: u64,
    p: f64,
    exact_cutoff: u64,
    rng: &mut R,
) -> u64 {
    if hits == 0 {
        return 0;
    }
    if p >= 1.0 {
        return hits;
    }
    if hits <= exact_cutoff {
        let g = GeometricSampler::new(p);
        return (0..hits).map(|_| g.sample(rng)).sum();
    }
    let mean = hits as f64 / p;
    let sd = (hits as f64 * (1.0 - p)).sqrt() / p;
    let draw = Normal::new(mean, sd).sample(rng).round();
    // f64 → u64 casts saturate, so a deep-left-tail draw clamps to 0
    // and then to the support minimum.
    (draw as u64).max(hits)
}

/// [`stream_samples_for_hits_bounded`] at this engine's exact-sum
/// ceiling.
fn stream_samples_for_hits<R: Rng64 + ?Sized>(hits: u64, p: f64, rng: &mut R) -> u64 {
    stream_samples_for_hits_bounded(hits, p, 4096, rng)
}

/// Places `count` balls into uniformly random bins with load `< t`,
/// batched by load level. Mutates `loads` in place; exact on the final
/// load vector (see the module docs for the sample-count semantics).
///
/// Panics if no bin has load `< t`, or if `count` exceeds the total
/// remaining capacity below `t` (either indicates a threshold bug).
pub fn place_batch_below<R: Rng64 + ?Sized>(
    loads: &mut [u32],
    t: u32,
    count: u64,
    rng: &mut R,
) -> BatchStats {
    let n = loads.len();
    // Open bins with their remaining capacity below t.
    let mut open: Vec<(u32, u32)> = loads
        .iter()
        .enumerate()
        .filter(|&(_, &l)| l < t)
        .map(|(b, &l)| (b as u32, t - l))
        .collect();
    let k0 = open.len();
    assert!(k0 > 0, "place_batch_below: no bin has load < {t}");
    let capacity: u64 = open.iter().map(|&(_, c)| c as u64).sum();
    assert!(
        count <= capacity,
        "place_batch_below: {count} balls exceed the remaining capacity {capacity} below {t}"
    );

    let mut left = count;
    let mut a_hits = 0u64; // stream samples landing in the segment-start accepting set
    let mut stale_rounds = 0u32;
    while left >= batch_cutoff(k0) {
        a_hits += left;
        // Hits on bins of A that filled earlier in this segment are
        // wasted; one binomial draw splits them off.
        let live = if open.len() == k0 {
            left
        } else {
            BinomialSampler::new(left, open.len() as f64 / k0 as f64).sample(rng)
        };
        // Multinomial split of the live hits over the open bins, as a
        // chain of conditional binomials over the round-start open list.
        let round_bins = open.len();
        let mut rem_hits = live;
        let mut placed = 0u64;
        for (i, (b, cap)) in open.iter_mut().enumerate() {
            if rem_hits == 0 {
                break;
            }
            let rem_bins = (round_bins - i) as u64;
            let h = if rem_bins == 1 {
                rem_hits
            } else {
                BinomialSampler::new(rem_hits, 1.0 / rem_bins as f64).sample(rng)
            };
            rem_hits -= h;
            let take = h.min(*cap as u64) as u32;
            loads[*b as usize] += take;
            *cap -= take;
            placed += take as u64;
        }
        open.retain(|&(_, cap)| cap > 0);
        left -= placed;
        // A round can place nothing only through extreme binomial luck;
        // bail to the (always-correct) per-ball tail if it keeps up.
        if placed == 0 {
            stale_rounds += 1;
            if stale_rounds > 32 {
                break;
            }
        } else {
            stale_rounds = 0;
        }
    }

    let mut samples = stream_samples_for_hits(a_hits, k0 as f64 / n as f64, rng);
    let mut max_samples = u64::from(count > left);
    // Per-ball tail: uniform open bin + geometric sample count against
    // the compact open list.
    while left > 0 {
        let k = open.len();
        debug_assert!(k > 0, "capacity check above guarantees an open bin");
        let s = if k == n {
            1
        } else {
            GeometricSampler::new(k as f64 / n as f64).sample(rng)
        };
        samples += s;
        max_samples = max_samples.max(s);
        let idx = rng.range_usize(k);
        let (b, cap) = &mut open[idx];
        loads[*b as usize] += 1;
        *cap -= 1;
        if *cap == 0 {
            open.swap_remove(idx);
        }
        left -= 1;
    }

    BatchStats {
        samples,
        max_samples_per_ball: max_samples,
    }
}

/// The shared `allocate` body of every threshold-scheduled protocol:
/// resolves [`Engine::Auto`] against the measured matrix, then
/// dispatches to the histogram driver, one [`place_batch_below`] over
/// the whole run (level-batched, constant bound, no stage observer) or
/// the faithful per-ball loop.
pub fn allocate_scheduled<P, R, O>(
    protocol: &P,
    cfg: &RunConfig,
    rng: &mut R,
    obs: &mut O,
) -> Outcome
where
    P: Protocol + ThresholdSchedule,
    R: Rng64 + ?Sized,
    O: Observer + ?Sized,
{
    let engine = match cfg.engine {
        Engine::Auto => Engine::auto_scheduled(cfg.n, cfg.m),
        engine => engine,
    };
    match engine {
        Engine::Histogram => {
            crate::histogram::drive_histogram(protocol.name(), cfg, rng, obs, protocol)
        }
        Engine::LevelBatched
            if protocol.segment_end(cfg, 1) >= cfg.m && !obs.wants_stage_ends() =>
        {
            let mut loads = vec![0u32; cfg.n];
            let stats = place_batch_below(&mut loads, protocol.bound(cfg, 1), cfg.m, rng);
            Outcome {
                protocol: protocol.name(),
                n: cfg.n,
                m: cfg.m,
                total_samples: stats.samples,
                max_samples_per_ball: stats.max_samples_per_ball,
                loads: loads.into(),
                scenario: Scenario::default(),
            }
        }
        _ => {
            // Memoize the bound per constant-threshold segment: the
            // division inside `bound` is measurable per-ball cost on
            // the retry hot loop.
            let mut seg_end = 0u64;
            let mut t = 0u32;
            drive_sequential(protocol.name(), cfg, rng, obs, move |bins, ball, rng| {
                if ball > seg_end {
                    t = protocol.bound(cfg, ball);
                    seg_end = protocol.segment_end(cfg, ball);
                }
                place_below(bins, t, rng)
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bib_rng::SplitMix64;

    #[test]
    fn batch_fills_exact_capacity() {
        // count == capacity ⇒ every bin ends exactly at t.
        let mut loads = vec![0u32; 16];
        let mut rng = SplitMix64::new(1);
        let stats = place_batch_below(&mut loads, 3, 48, &mut rng);
        assert_eq!(loads, vec![3u32; 16]);
        assert!(stats.samples >= 48);
        assert!(stats.max_samples_per_ball >= 1);
    }

    #[test]
    fn batch_respects_initial_loads() {
        let mut loads = vec![5, 0, 5, 1];
        let mut rng = SplitMix64::new(2);
        place_batch_below(&mut loads, 5, 9, &mut rng);
        // Bins 0 and 2 were full at t = 5 and must not move.
        assert_eq!(loads[0], 5);
        assert_eq!(loads[2], 5);
        assert_eq!(loads[1] + loads[3], 10);
        assert!(loads[1] <= 5 && loads[3] <= 5);
    }

    #[test]
    fn batch_zero_count_is_noop() {
        let mut loads = vec![1, 2];
        let mut rng = SplitMix64::new(3);
        let stats = place_batch_below(&mut loads, 9, 0, &mut rng);
        assert_eq!(loads, vec![1, 2]);
        assert_eq!(stats.samples, 0);
        assert_eq!(stats.max_samples_per_ball, 0);
    }

    #[test]
    fn single_bin_takes_all_samples_exactly() {
        // k₀ = n = 1 ⇒ every sample hits, so the allocation time is m.
        let mut loads = vec![0u32];
        let mut rng = SplitMix64::new(4);
        let stats = place_batch_below(&mut loads, 1000, 1000, &mut rng);
        assert_eq!(loads, vec![1000]);
        assert_eq!(stats.samples, 1000);
    }

    #[test]
    #[should_panic]
    fn batch_rejects_impossible_threshold() {
        let mut loads = vec![2, 2];
        let mut rng = SplitMix64::new(5);
        place_batch_below(&mut loads, 1, 1, &mut rng);
    }

    #[test]
    #[should_panic]
    fn batch_rejects_over_capacity() {
        let mut loads = vec![0, 0];
        let mut rng = SplitMix64::new(6);
        place_batch_below(&mut loads, 2, 5, &mut rng);
    }

    #[test]
    fn mass_conserved_across_scales() {
        for (n, count, t) in [(8usize, 700u64, 100u32), (64, 10_000, 200), (1, 17, 17)] {
            let mut loads = vec![0u32; n];
            let mut rng = SplitMix64::new(count);
            let stats = place_batch_below(&mut loads, t, count, &mut rng);
            assert_eq!(loads.iter().map(|&l| l as u64).sum::<u64>(), count);
            assert!(loads.iter().all(|&l| l <= t));
            assert!(
                stats.samples >= count,
                "samples {} < {count}",
                stats.samples
            );
        }
    }

    #[test]
    fn stream_samples_small_and_large_regimes_agree_on_mean() {
        // p = 1/4 ⇒ mean samples per hit is 4.
        let mut rng = SplitMix64::new(7);
        let small: f64 = (0..200)
            .map(|_| stream_samples_for_hits(100, 0.25, &mut rng) as f64)
            .sum::<f64>()
            / 200.0;
        let large: f64 = (0..200)
            .map(|_| stream_samples_for_hits(100_000, 0.25, &mut rng) as f64)
            .sum::<f64>()
            / 200.0;
        assert!(
            (small / 100.0 - 4.0).abs() < 0.2,
            "small-regime mean {small}"
        );
        assert!(
            (large / 100_000.0 - 4.0).abs() < 0.02,
            "large-regime mean {large}"
        );
        assert_eq!(stream_samples_for_hits(0, 0.5, &mut rng), 0);
        assert_eq!(stream_samples_for_hits(9, 1.0, &mut rng), 9);
    }
}
