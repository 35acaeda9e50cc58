//! The occupancy-histogram engine
//! ([`Engine::Histogram`](crate::protocol::Engine::Histogram)).
//!
//! Every protocol this engine accepts is *symmetric*: bins with equal
//! load are exchangeable, so the load vector carries no information
//! beyond its histogram. The engine therefore collapses the bin
//! dimension entirely — state is `counts[ℓ] = #bins with load ℓ` — and
//! the per-round work drops from `O(n)` (the level-batched engine's
//! open-bin list) to `O(#distinct loads)`, which the paper's smoothness
//! results keep at `O(log n)`. On the heavy regimes of Lemma 4.2 and
//! Corollary 3.5 (`m = n²` and beyond) the hot path becomes independent
//! of `n`.
//!
//! # How a round works
//!
//! For threshold-style rules (uniform over bins with load `< t`) a
//! *round* throws the `left` remaining balls at the open bins frozen at
//! round start — exactly the level-batched argument: in the faithful
//! sample stream these are the next hits on the round-start open set,
//! hits beyond a bin's remaining capacity are rejections, and the
//! rejected overflow re-enters the next round. The difference is that
//! the round never looks at a single bin (`poissonized_round`):
//!
//! 1. every open bin gets an independent `Poisson(λ)` hit count, drawn
//!    as one conditional-binomial chain over the Poisson pmf
//!    (`split_poisson_counts`) — the *profile*, `cells[j]` = open
//!    bins with exactly `j` hits, in `O(√λ)` draws whatever `n`;
//! 2. given their total `N`, the Poisson counts are exactly the counts
//!    of `N` uniform hits. A small round (`left ≤ 2¹⁴`) draws at
//!    `λ·k = left` and repairs `N` to exactly `left`, one uniform hit
//!    added or removed at a time; a large round draws at
//!    `left − √left`, redraws while `N > left`, and processes the next
//!    `N` hits;
//! 3. each multiplicity group `cells[j]` spreads over the occupancy
//!    classes with a conditional hypergeometric chain
//!    ([`block_composition`]), and each share is promoted by
//!    `min(j, t − load)` — the caps apply exactly.
//!
//! The weight-class engine ([`crate::weighted`]) runs the same round
//! with one bin group per weight class.
//!
//! Once fewer than a small cutoff of balls remain, the tail runs the
//! *exact* collapsed Markov chain, one ball at a time: pick a class with
//! probability proportional to its open-bin count, move one bin up a
//! level.
//!
//! `greedy[d]` needs no rounds at all: order the bins by load and the
//! least loaded of `d` uniform samples is the class containing the
//! minimum of `d` uniform *ranks* — an exact per-ball chain that finally
//! makes `greedy` runnable at `m = n²` scale. It runs on a [`RankIndex`]
//! (cumulative class counts), so mapping the least rank to its class is
//! an `O(log #levels)` search, not a walk over the levels. `one-choice`
//! is the `t = ∞` threshold rule (no bin ever closes, so a round keeps
//! every hit it processes).
//!
//! # What is and is not preserved
//!
//! *Final loads*: exact in distribution for `greedy[d]`, for every
//! per-ball tail and for one open bin. A round has two moment-matched
//! draws, each stated once: the chain's [`split_binomial`] is a rounded
//! normal above variance `SPLIT_NORMAL_VAR` = 4, and
//! [`hypergeometric`] above `PER_HIT_SPLIT` = 8 draws, each with the
//! exact draw's mean and variance. Mass conservation and the `⌈m/n⌉+1`
//! capacity bound hold surely. The round oracle tests check a round's
//! kept count one-sample against its exact law, and the chi-square
//! suite in `tests/histogram_equivalence.rs` bounds whole runs against
//! the faithful engine.
//! *Bin identities*: synthetic — and **lazy**: a no-observer run
//! returns the histogram itself plus a reconstruction seed
//! ([`crate::loads::Loads`]), and a concrete vector is only built if a
//! caller demands per-bin loads (uniform seeded assignment; the
//! faithful law is exchangeable, so the reconstructed vector has the
//! correct joint distribution to the extent the histogram does). Runs
//! with a stage-trace observer materialize eagerly through one seeded
//! permutation so bin identities stay consistent across the trace.
//! *Total samples*: a
//! negative-binomial draw per round, priced on the hits the round
//! processed — a sum of geometrics up to 32 hits, its CLT normal above —
//! exact geometrics on the tail, exactly `d·m` / `m` for `greedy[d]` /
//! `one-choice`.
//! *Per-ball events*: `Observer::on_ball` never fires; stage traces fire
//! exactly when the observer wants them (segments cap at stage
//! boundaries, like the level-batched driver).

use crate::level_batched::{
    stream_samples_for_hits_bounded, BatchStats, ThresholdSchedule, HISTOGRAM_SAMPLES_CUTOFF,
};
use crate::protocol::{Observer, Outcome, RunConfig};
use crate::scenario::Scenario;
use bib_rng::dist::{ln_factorial, BinomialSampler, Distribution, GeometricSampler};
use bib_rng::{Rng64, RngExt, SeedSequence, SplitMix64};
use std::collections::VecDeque;

/// Below this many remaining balls a batched round stops paying for its
/// fixed `O(#levels)` cost and the exact per-ball tail takes over.
const ROUND_CUTOFF: u64 = 32;

/// [`hypergeometric`] draws of at most this many items run the exact
/// sequential pick (one uniform per draw); larger ones are
/// moment-matched, which amortises their cost over the draws.
const PER_HIT_SPLIT: u64 = 8;

/// [`occupancy_profile`] and [`distinct_hit_count`] run their exact
/// per-hit walk up to this many hits; above it the profile is a Poisson
/// draw with an exact top-up and the distinct count a rounded normal.
const EXACT_HITS: u64 = 64;

/// Conditional-split binomials with variance `n·p·(1−p)` at or above
/// this switch to a rounded-normal draw (mean exact, distributional
/// error `O(1/√var)`, bias-free — validated by the chi-square suite),
/// capping the `O(√var)` cost of the mode-centred inversion on the
/// per-stage hot path.
const SPLIT_NORMAL_VAR: f64 = 4.0;

/// The occupancy histogram: `count(ℓ)` bins currently hold exactly `ℓ`
/// balls. Loads only grow, so the live span `[min_load, max_load]` only
/// moves up; storage is a dense vector over the span with a sliding
/// base. Equality compares the classes, not the storage: two histograms
/// with the same `(load, count)` pairs are equal whatever empty levels
/// their vectors still carry.
#[derive(Debug, Clone)]
pub struct OccupancyHistogram {
    /// `counts[i]` = number of bins with load `base + i`.
    counts: Vec<u64>,
    base: u32,
    n: u64,
}

impl OccupancyHistogram {
    /// `n` empty bins; panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "OccupancyHistogram: need at least one bin");
        Self {
            counts: vec![n as u64],
            base: 0,
            n: n as u64,
        }
    }

    /// A histogram holding zero bins — the birth state of the
    /// streaming driver's drained/dead shelves, which bins enter and
    /// leave through [`OccupancyHistogram::add_bins`] /
    /// [`OccupancyHistogram::remove_bins`]. Span queries
    /// (`min_load`/`max_load`) require at least one bin; callers guard
    /// on [`OccupancyHistogram::n`].
    pub fn empty() -> Self {
        Self {
            counts: Vec::new(),
            base: 0,
            n: 0,
        }
    }

    /// Number of bins.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Adds `count` bins holding exactly `load` balls each — the
    /// re-entry half of moving bins between health classes (fault
    /// recovery). Grows the span in either direction as needed.
    pub fn add_bins(&mut self, load: u32, count: u64) {
        if count == 0 {
            return;
        }
        if self.counts.is_empty() {
            self.base = load;
            self.counts.push(0);
        } else if load < self.base {
            let grow = (self.base - load) as usize;
            self.counts.splice(0..0, std::iter::repeat_n(0, grow));
            self.base = load;
        } else if (load - self.base) as usize >= self.counts.len() {
            self.counts.resize((load - self.base) as usize + 1, 0);
        }
        self.counts[(load - self.base) as usize] += count;
        self.n += count;
    }

    /// Removes `count` bins holding exactly `load` balls each — the
    /// extraction half of moving bins between health classes (crash,
    /// drain). Panics if fewer than `count` bins hold `load`.
    pub fn remove_bins(&mut self, load: u32, count: u64) {
        if count == 0 {
            return;
        }
        assert!(
            self.count(load) >= count,
            "remove_bins: class {load} underflow"
        );
        self.counts[(load - self.base) as usize] -= count;
        self.n -= count;
    }

    /// Number of bins with load exactly `l`.
    pub fn count(&self, l: u32) -> u64 {
        if l < self.base {
            return 0;
        }
        self.counts
            .get((l - self.base) as usize)
            .copied()
            .unwrap_or(0)
    }

    /// Smallest load with a non-zero count.
    pub fn min_load(&self) -> u32 {
        let lead = self.counts.iter().take_while(|&&c| c == 0).count();
        self.base + lead as u32
    }

    /// Largest load with a non-zero count.
    pub fn max_load(&self) -> u32 {
        let trail = self.counts.iter().rev().take_while(|&&c| c == 0).count();
        self.base + (self.counts.len() - trail) as u32 - 1
    }

    /// Number of bins with load strictly below `t` (`None` = all bins
    /// are always open).
    pub fn open_bins(&self, t: Option<u32>) -> u64 {
        match t {
            None => self.n,
            Some(t) => {
                if t <= self.base {
                    return 0;
                }
                let hi = ((t - self.base) as usize).min(self.counts.len());
                self.counts[..hi].iter().sum()
            }
        }
    }

    /// Total remaining capacity below `t`: `Σ_{ℓ<t} (t−ℓ)·count(ℓ)`.
    pub fn capacity_below(&self, t: u32) -> u64 {
        if t <= self.base {
            return 0;
        }
        let hi = ((t - self.base) as usize).min(self.counts.len());
        self.counts[..hi]
            .iter()
            .enumerate()
            .map(|(i, &c)| (t - self.base - i as u32) as u64 * c)
            .sum()
    }

    /// Moves `bins` bins from load `l` up `levels` levels. A no-op when
    /// either is zero.
    pub fn promote(&mut self, l: u32, bins: u64, levels: u32) {
        if bins == 0 || levels == 0 {
            return;
        }
        let i = (l - self.base) as usize;
        debug_assert!(self.counts[i] >= bins, "promote: class {l} underflow");
        self.counts[i] -= bins;
        let target_load = l + levels;
        if (target_load - self.base) as usize >= self.counts.len() {
            // Slide the base past the (now possibly empty) low end
            // before growing, so the vector tracks the live span.
            let lead = self.counts.iter().take_while(|&&c| c == 0).count();
            self.counts.drain(..lead);
            self.base += lead as u32;
            if self.counts.is_empty() {
                // Everything was in class `l`: restart the span at the
                // target (the single-bin long-jump case).
                self.base = target_load;
            }
            self.counts
                .resize((target_load - self.base) as usize + 1, 0);
        }
        self.counts[(target_load - self.base) as usize] += bins;
    }

    /// Moves `bins` bins from load `l` *down* `levels` levels — the
    /// departure primitive of the streaming driver, the exact inverse
    /// of [`OccupancyHistogram::promote`]. A no-op when either count is
    /// zero; panics (in debug) on class underflow and always when the
    /// target load would go below zero.
    ///
    /// Unlike the batch engines, a churning system's span moves in both
    /// directions, so the base can slide *down*: when the target load
    /// falls below the current base the vector grows at the front (and
    /// the trailing dead span is trimmed opportunistically, keeping
    /// storage proportional to the live span).
    pub fn demote(&mut self, l: u32, bins: u64, levels: u32) {
        if bins == 0 || levels == 0 {
            return;
        }
        assert!(l >= levels, "demote: load {l} below {levels} levels");
        let i = (l - self.base) as usize;
        debug_assert!(self.counts[i] >= bins, "demote: class {l} underflow");
        self.counts[i] -= bins;
        let target_load = l - levels;
        if target_load < self.base {
            // Trim the (now possibly empty) high end before growing at
            // the front, so the vector tracks the live span.
            let trail = self.counts.iter().rev().take_while(|&&c| c == 0).count();
            self.counts.truncate(self.counts.len() - trail);
            let grow = (self.base - target_load) as usize;
            self.counts.splice(0..0, std::iter::repeat_n(0, grow));
            self.base = target_load;
        }
        self.counts[(target_load - self.base) as usize] += bins;
    }

    /// The live occupancy classes in ascending load order: `(load,
    /// count)` pairs with `count > 0`. The span is `O(#distinct loads)`,
    /// so callers snapshotting the classes (the round engines, the
    /// weighted engine) pay nothing for the collapsed state.
    pub fn levels(&self) -> impl Iterator<Item = (u32, u64)> + Clone + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(move |(i, &c)| (self.base + i as u32, c))
    }

    /// Assigns the histogram's loads to bin indices uniformly at random
    /// — the same law as [`random_permutation`] + [`materialize`] but
    /// cache-friendly (no `O(n)` random-access scatter). The parallel
    /// round engines use this for their final reconstruction, where the
    /// `O(n)` output pass is the whole residual cost at `m = n`.
    ///
    /// Small outputs (`n ≤ 4096`) run an *exact* sequential
    /// without-replacement class pick per bin. Large outputs are built
    /// in blocks of 1024: each block draws its class composition with
    /// the [`hypergeometric`] chain (exact below the moment-matched
    /// switch — the same approximation family as the engines' level
    /// splits) and arranges it with an in-block Fisher–Yates whose index
    /// draws come from exact 16-bit Lemire lanes, four per `u64` —
    /// class totals and mass conservation hold surely, and the per-bin
    /// cost is a fraction of a full-width draw.
    pub fn shuffled_loads<R: Rng64 + ?Sized>(&self, rng: &mut R) -> Vec<u32> {
        const BLOCK: u64 = 1024;
        let mut classes: Vec<(u32, u64)> = self.levels().collect();
        if classes.len() == 1 {
            return vec![classes[0].0; self.n as usize];
        }
        let n = self.n;
        if n <= 4 * BLOCK {
            // Exact sequential conditional picks, classes descending by
            // count so the CDF walk terminates early.
            let mut loads: Vec<u32> = Vec::with_capacity(n as usize);
            classes.sort_unstable_by_key(|&(_, c)| std::cmp::Reverse(c));
            let mut rem = n;
            for _ in 0..n {
                let mut r = rng.range_u64(rem);
                for &mut (l, ref mut c) in classes.iter_mut() {
                    if r < *c {
                        loads.push(l);
                        *c -= 1;
                        break;
                    }
                    r -= *c;
                }
                rem -= 1;
            }
            debug_assert_eq!(loads.len() as u64, n);
            return loads;
        }

        let shuffler = BlockShuffler::new(BLOCK as usize);
        let mut loads = vec![0u32; n as usize];
        let mut remaining = n;
        let mut offset = 0usize;
        let mut runs: Vec<(u32, u64)> = Vec::with_capacity(classes.len());
        while remaining > 0 {
            let b = BLOCK.min(remaining);
            runs.clear();
            block_composition(&mut classes, remaining, b, rng, |_, l, t| runs.push((l, t)));
            // Arrange the composition's runs in one fused pass.
            let mut stream = runs
                .iter()
                .flat_map(|&(l, t)| std::iter::repeat_n(l, t as usize));
            shuffler.arrange(
                &mut loads[offset..offset + b as usize],
                || stream.next().expect("run stream exhausted early"),
                rng,
            );
            offset += b as usize;
            remaining -= b;
        }
        debug_assert_eq!(offset as u64, n);
        loads
    }

    /// Builds the histogram of an existing load vector (one counting
    /// pass; storage is the live span, not the max load). Panics on an
    /// empty slice — a histogram needs at least one bin.
    pub fn from_loads(loads: &[u32]) -> Self {
        assert!(!loads.is_empty(), "OccupancyHistogram: need ≥ 1 bin");
        let mut lo = u32::MAX;
        let mut hi = 0u32;
        for &l in loads {
            lo = lo.min(l);
            hi = hi.max(l);
        }
        let mut counts = vec![0u64; (hi - lo) as usize + 1];
        for &l in loads {
            counts[(l - lo) as usize] += 1;
        }
        Self {
            counts,
            base: lo,
            n: loads.len() as u64,
        }
    }

    /// Total balls held: `Σ ℓ·count(ℓ)` over the live span.
    pub fn total_balls(&self) -> u64 {
        self.counts
            .iter()
            .enumerate()
            // lint:allow(N1): i indexes the live span, bounded by the u32 load range
            .map(|(i, &c)| (self.base + i as u32) as u64 * c)
            .sum()
    }

    /// All loads in ascending order (length `n`).
    pub fn to_sorted_loads(&self) -> Vec<u32> {
        let mut loads = Vec::with_capacity(self.n as usize);
        for (i, &c) in self.counts.iter().enumerate() {
            let l = self.base + i as u32;
            loads.extend(std::iter::repeat_n(l, c as usize));
        }
        debug_assert_eq!(loads.len() as u64, self.n);
        loads
    }

    /// Drops the empty levels at both ends of the storage, and its spare
    /// capacity, so a histogram kept past its run (a lazy
    /// [`crate::loads::Loads`]) holds only its live span. Runs leave a
    /// dead low prefix behind, because a promote slides the base only
    /// when it grows the top.
    pub(crate) fn trim(&mut self) {
        let lead = self.counts.iter().take_while(|&&c| c == 0).count();
        self.counts.drain(..lead);
        self.base += u32::try_from(lead).expect("the span fits the u32 load range");
        let trail = self.counts.iter().rev().take_while(|&&c| c == 0).count();
        self.counts.truncate(self.counts.len() - trail);
        self.counts.shrink_to_fit();
    }

    /// Internal consistency check (tests): bin count conserved.
    pub fn check_invariants(&self) {
        assert_eq!(
            self.counts.iter().sum::<u64>(),
            self.n,
            "bins not conserved"
        );
    }
}

impl PartialEq for OccupancyHistogram {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.levels().eq(other.levels())
    }
}

impl Eq for OccupancyHistogram {}

/// A cumulative-count index over an [`OccupancyHistogram`] for the
/// per-ball class chains (the serve driver's placements and
/// [`place_least_of_d`]). `cum[i]` is the number of bins with load
/// `≤ base + i` over the live span, so the last entry is `n`.
///
/// Those chains draw a uniform *rank* in ascending-load order and move
/// the bin holding it up one level. On the index, the rank → load map
/// is a binary search over `cum` (O(log span)) instead of a walk over
/// the classes, `open_below(t)` is one lookup, and a one-level promote
/// is one decrement: the moved bin crosses exactly one class boundary. Build the index from a
/// histogram ([`RankIndex::build`]), run the chain on it, and write it
/// back ([`RankIndex::write_back`]) before anything else touches the
/// histogram; both ends are O(span).
#[derive(Debug, Clone)]
pub struct RankIndex {
    /// `cum[i]` = number of bins with load `≤ base + i`; `cum[0] > 0`
    /// and the last entry is `n` whenever `n > 0`.
    cum: VecDeque<u64>,
    base: u32,
    n: u64,
}

impl RankIndex {
    /// Indexes `hist` over its live span `[min_load, max_load]`. A
    /// histogram with no bins gives an empty index.
    pub fn build(hist: &OccupancyHistogram) -> Self {
        let lead = hist.counts.iter().take_while(|&&c| c == 0).count();
        let trail = hist.counts[lead..]
            .iter()
            .rev()
            .take_while(|&&c| c == 0)
            .count();
        let live = &hist.counts[lead..hist.counts.len() - trail];
        let mut acc = 0u64;
        let cum = live
            .iter()
            .map(|&c| {
                acc += c;
                acc
            })
            .collect();
        let lead = u32::try_from(lead).expect("the span fits the u32 load range");
        Self {
            cum,
            base: hist.base + lead,
            n: hist.n,
        }
    }

    /// Writes the indexed classes back into `hist`, the histogram the
    /// index was built from (its bin count is unchanged by promotes).
    pub fn write_back(&self, hist: &mut OccupancyHistogram) {
        debug_assert_eq!(hist.n, self.n, "write_back: another histogram");
        let mut below = 0u64;
        hist.counts.clear();
        hist.counts.extend(self.cum.iter().map(|&c| {
            let count = c - below;
            below = c;
            count
        }));
        hist.base = self.base;
    }

    /// Number of bins indexed.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// The load of the bin at 0-based rank `r` in ascending-load order,
    /// i.e. `to_sorted_loads()[r]`: `base` plus the number of levels
    /// whose cumulative count is `≤ r`. Panics unless `r < n`.
    pub fn load_at_rank(&self, r: u64) -> u32 {
        assert!(r < self.n, "load_at_rank: rank {r} of {} bins", self.n);
        self.base
            + u32::try_from(self.cum.partition_point(|&c| c <= r))
                .expect("the span fits the u32 load range")
    }

    /// Number of bins with load strictly below `t`, in one lookup.
    pub fn open_below(&self, t: u32) -> u64 {
        if t <= self.base {
            return 0;
        }
        self.cum
            .get((t - 1 - self.base) as usize)
            .copied()
            .unwrap_or(self.n)
    }

    /// Moves one bin from load `l` up one level: only the count of bins
    /// with load `≤ l` changes. Grows the span by one level at the top
    /// and trims an emptied bottom level.
    pub fn promote_one(&mut self, l: u32) {
        let i = (l - self.base) as usize;
        if cfg!(debug_assertions) {
            let below = if i == 0 { 0 } else { self.cum[i - 1] };
            assert!(self.cum[i] > below, "promote_one: class {l} is empty");
        }
        if i + 1 == self.cum.len() {
            self.cum.push_back(self.n);
        }
        self.cum[i] -= 1;
        if self.cum[0] == 0 {
            self.cum.pop_front();
            self.base += 1;
        }
    }
}

/// How the balls of one segment choose their landing class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LandingRule {
    /// Uniform among bins with load strictly below the bound (`None`
    /// means every bin always accepts — the `one-choice` law). Sample
    /// cost per ball is `Geometric(open/n)`.
    UniformBelow(Option<u32>),
    /// The least loaded of `d` uniform samples (`greedy[d]`; both
    /// tie-break rules land in the same class). Sample cost per ball is
    /// exactly `d`.
    LeastOfD(u32),
}

/// One constant-rule segment of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSegment {
    /// Landing law for every ball of the segment.
    pub rule: LandingRule,
    /// Inclusive index of the last ball sharing the rule.
    pub end: u64,
}

/// A protocol the histogram engine can drive: its landing law is a
/// function of the ball index alone, constant over contiguous segments.
///
/// Every [`ThresholdSchedule`] gets this for free (blanket impl below);
/// `one-choice` and `greedy[d]` implement it directly with their fixed
/// whole-run rules.
pub trait HistogramSchedule {
    /// The segment containing ball `ball` (1-based).
    fn histogram_segment(&self, cfg: &RunConfig, ball: u64) -> HistogramSegment;
}

impl<S: ThresholdSchedule + ?Sized> HistogramSchedule for S {
    fn histogram_segment(&self, cfg: &RunConfig, ball: u64) -> HistogramSegment {
        HistogramSegment {
            rule: LandingRule::UniformBelow(Some(self.bound(cfg, ball))),
            end: self.segment_end(cfg, ball),
        }
    }
}

/// A standard-normal draw by inverting the CDF on one uniform
/// (Acklam's rational approximation: relative error < 1.2e-9, full
/// tails). One `next_f64` plus a handful of flops — an order of
/// magnitude cheaper than Box–Muller on the per-stage hot path, where
/// the split draws dominate the engine's runtime.
#[allow(clippy::excessive_precision)] // coefficients verbatim from Acklam
fn cheap_std_normal<R: Rng64 + ?Sized>(rng: &mut R) -> f64 {
    const A: [f64; 6] = [
        -3.969683028665376e1,
        2.209460984245205e2,
        -2.759285104469687e2,
        1.383577518672690e2,
        -3.066479806614716e1,
        2.506628277459239e0,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e1,
        1.615858368580409e2,
        -1.556989798598866e2,
        6.680131188771972e1,
        -1.328068155288572e1,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-3,
        -3.223964580411365e-1,
        -2.400758277161838e0,
        -2.549732539343734e0,
        4.374664141464968e0,
        2.938163982698783e0,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-3,
        3.224671290700398e-1,
        2.445134137142996e0,
        3.754408661907416e0,
    ];
    const P_LOW: f64 = 0.02425;
    let p = rng.next_f64().clamp(f64::MIN_POSITIVE, 1.0 - 1e-16);
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -((((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0))
    }
}

/// `Binomial(n, p)` for the wide conditional splits: exact while the
/// variance is moderate, rounded-normal (clamped to the support) above
/// `SPLIT_NORMAL_VAR` = 4. The step of every count chain
/// (`split_counts`), and shared with the serve driver's health-class
/// moves and the parallel round-occupancy engine's open-set request
/// splits.
pub fn split_binomial<R: Rng64 + ?Sized>(n: u64, p: f64, rng: &mut R) -> u64 {
    if n == 0 || p <= 0.0 {
        return 0;
    }
    if p >= 1.0 {
        return n;
    }
    let var = n as f64 * p * (1.0 - p);
    if var < SPLIT_NORMAL_VAR {
        return BinomialSampler::new(n, p).sample(rng);
    }
    let draw = (n as f64 * p + var.sqrt() * cheap_std_normal(rng)).round();
    // f64 → u64 saturates at 0 below; clamp the high side to n.
    (draw as u64).min(n)
}

/// Splits `bins` exchangeable bins over independent per-bin
/// `Binomial(trials, p)` counts: calls `f(k, count)` once for every
/// count `k` that receives bins, in ascending `k`, with the counts
/// summing to `bins`. The conditional chain of `split_counts` over
/// the binomial pmf (exact multinomial over the marginal), seeded at
/// `P[K = 0] = (1 − p)^trials`.
pub fn split_binomial_counts<R, F>(bins: u64, trials: u32, p: f64, rng: &mut R, mut f: F)
where
    R: Rng64 + ?Sized,
    F: FnMut(u32, u64),
{
    if bins == 0 {
        return;
    }
    if trials == 0 || p <= 0.0 {
        f(0, bins);
        return;
    }
    if p >= 1.0 {
        f(trials, bins);
        return;
    }
    let odds = p / (1.0 - p);
    let last = u64::from(trials);
    let ln_pmf = trials as f64 * (-p).ln_1p();
    let ratio = |k: u64| (last - k) as f64 / (k + 1) as f64 * odds;
    split_counts(bins, 0, ln_pmf, last, ratio, rng, |k, x| {
        f(u32::try_from(k).expect("k ≤ trials"), x)
    });
}

/// Splits `bins` exchangeable bins over independent per-bin
/// `Poisson(lambda)` counts: calls `f(j, count)` once for every count
/// `j` that receives bins, in ascending `j`, with the counts summing to
/// `bins` — the hit profile of a [`poissonized_round`]. The conditional
/// chain of [`split_counts`] over the Poisson pmf. It starts at
/// `λ − reach` and parks the stragglers at `λ + reach`
/// ([`tail_reach`]): a bin lands outside that window with probability
/// below `e⁻³⁰⁰`, so a round costs `O(√λ)` levels whatever its mean,
/// and its profile holds at most `bins` entries.
fn split_poisson_counts<R, F>(bins: u64, lambda: f64, rng: &mut R, mut f: F)
where
    R: Rng64 + ?Sized,
    F: FnMut(u64, u64),
{
    if bins == 0 {
        return;
    }
    if lambda <= 0.0 {
        f(0, bins);
        return;
    }
    let reach = tail_reach(lambda);
    let first = (lambda - reach).max(0.0) as u64;
    let last = (lambda + reach) as u64;
    let ln_pmf = first as f64 * lambda.ln() - lambda - ln_factorial(first);
    split_counts(
        bins,
        first,
        ln_pmf,
        last,
        |k| lambda / (k + 1) as f64,
        rng,
        f,
    );
}

/// The conditional chain behind both count splits. It walks the counts
/// `k = first..=last` of a pmf seeded at `ln_pmf = ln P[K = first]` and
/// advanced by `P[K = k+1] = P[K = k] · ratio(k)`. Each `k` takes
/// `split_binomial(rest, P[K = k] / P[K ≥ k])` of the remaining bins,
/// and `last` takes whatever is left. `P[K < first]` is taken as zero.
///
/// The pmf is carried in log space until it surfaces above `1e-290`, so
/// heavy counts do not underflow the seed to zero and dump every bin at
/// `last`. While the pmf is still submerged no bin can land (the true
/// mass there is below `1e-290` per bin), so those levels cost no draw.
/// The `tail ≤ pmf` guard hands the rest to the current level once the
/// float tail is spent.
fn split_counts<R, F, G>(
    bins: u64,
    first: u64,
    mut ln_pmf: f64,
    last: u64,
    ratio: G,
    rng: &mut R,
    mut f: F,
) where
    R: Rng64 + ?Sized,
    F: FnMut(u64, u64),
    G: Fn(u64) -> f64,
{
    let mut pmf = ln_pmf.exp();
    let mut log_mode = pmf < 1e-290;
    let mut tail = 1.0f64; // P[K ≥ k]
    let mut rem = bins;
    for k in first..=last {
        if rem == 0 {
            break;
        }
        let x = if k == last || tail <= pmf {
            rem
        } else if log_mode {
            0
        } else {
            split_binomial(rem, (pmf / tail).clamp(0.0, 1.0), rng)
        };
        if x > 0 {
            f(k, x);
            rem -= x;
        }
        tail = (tail - pmf).max(0.0);
        let ratio = ratio(k);
        if log_mode {
            ln_pmf += ratio.ln();
            pmf = ln_pmf.exp();
            log_mode = pmf < 1e-290;
        } else {
            pmf *= ratio;
        }
    }
}

/// Distance from the mean `λ` beyond which a `Poisson(λ)` count
/// lands with probability below `e⁻³⁰⁰`: `40√λ + 64`.
fn tail_reach(lambda: f64) -> f64 {
    40.0 * lambda.max(1.0).sqrt() + 64.0
}

/// Rounds with at most this many balls left are *small*: they draw
/// their Poisson profile at mean `left` and repair it to exactly `left`
/// hits, ≈ `0.8·√left` single moves (≈ 100 at the cutoff). Larger rounds
/// take the slack rule instead ([`SLACK_SD`]), whose cost does not grow
/// with `left`. Running the slack rule at every `left` raised
/// `batch-sweep`'s `probe_p99` by 12–23 %: a slack round leaves about
/// `√left` balls behind, so near the end of a segment more balls fall
/// to the per-ball tail, whose geometric sample counts set the p99.
const SMALL_ROUND: u64 = 1 << 14;

/// A large round draws its profile at mean `left − SLACK_SD·√left`
/// and redraws it while the total `N` exceeds `left` (probability
/// ≈ 16 % at one standard deviation). The round then processes exactly
/// the next `N` hits, no repair needed; the `left − N` balls it did not
/// throw re-enter the next round with the overflow.
const SLACK_SD: f64 = 1.0;

/// One bin group of a [`poissonized_round`]: the bins of one histogram
/// that are open under its bound, each hit at the group's rate.
#[derive(Debug, Default)]
struct RoundGroup {
    /// Open classes `(load, bins)`, descending by load.
    classes: Vec<(u32, u64)>,
    /// Open bins.
    open: u64,
    /// Per-bin hit weight (0: the group is never hit).
    weight: f64,
    /// Sparse hit profile: `(j, open bins receiving exactly j hits)`,
    /// ascending in `j`.
    cells: Vec<(u64, u64)>,
}

impl RoundGroup {
    /// The group's share of the round's hit rate: `open · weight`.
    fn mass(&self) -> f64 {
        self.open as f64 * self.weight
    }

    /// Moves one bin of profile cell `i` up one hit.
    fn shift_up(&mut self, i: usize) {
        let j = self.cells[i].0 + 1;
        self.cells[i].1 -= 1;
        match self.cells.get_mut(i + 1) {
            Some(next) if next.0 == j => next.1 += 1,
            _ => self.cells.insert(i + 1, (j, 1)),
        }
    }

    /// Moves one bin of profile cell `i` down one hit.
    fn shift_down(&mut self, i: usize) {
        let j = self.cells[i].0 - 1;
        self.cells[i].1 -= 1;
        match i.checked_sub(1).map(|p| &mut self.cells[p]) {
            Some(prev) if prev.0 == j => prev.1 += 1,
            _ => self.cells.insert(i, (j, 1)),
        }
    }
}

/// Reusable buffers of [`poissonized_round`], one group per histogram,
/// so a driver reuses the same allocations for its whole run.
#[derive(Debug, Default)]
pub(crate) struct RoundScratch {
    groups: Vec<RoundGroup>,
}

/// Draws every open group's Poisson hit profile, each bin of group `g`
/// at rate `rate · weight_g`; returns the total hits `N`.
fn draw_profiles<R: Rng64 + ?Sized>(groups: &mut [RoundGroup], rate: f64, rng: &mut R) -> u64 {
    let mut hits = 0u64;
    for g in groups.iter_mut() {
        g.cells.clear();
        let cells = &mut g.cells;
        split_poisson_counts(g.open, rate * g.weight, rng, |j, bins| {
            cells.push((j, bins));
            hits += j * bins;
        });
    }
    hits
}

/// Moves a small round's profile from `hits` to exactly `left` hits.
/// A missing hit goes to a uniform open bin (group ∝ open mass, then
/// cell ∝ bins); an extra hit is a uniform ball taken away (cell ∝
/// `j · bins`). Given its total, the Poisson profile is the profile of
/// uniform hits, and adding or removing one uniform hit keeps that law,
/// so the repaired profile is the profile of exactly `left` hits.
fn repair_profiles<R: Rng64 + ?Sized>(
    groups: &mut [RoundGroup],
    mut hits: u64,
    left: u64,
    rng: &mut R,
) {
    let mass: f64 = groups.iter().map(RoundGroup::mass).sum();
    while hits < left {
        let mut gi = 0;
        if groups.len() > 1 {
            let mut x = rng.next_f64() * mass;
            for (i, g) in groups.iter().enumerate().filter(|(_, g)| g.mass() > 0.0) {
                gi = i;
                if x < g.mass() {
                    break;
                }
                x -= g.mass();
            }
        }
        let g = &mut groups[gi];
        let mut r = rng.range_u64(g.open);
        let mut i = 0;
        while r >= g.cells[i].1 {
            r -= g.cells[i].1;
            i += 1;
        }
        g.shift_up(i);
        hits += 1;
    }
    while hits > left {
        let mut r = rng.range_u64(hits);
        'pick: for g in groups.iter_mut() {
            for i in 0..g.cells.len() {
                let (j, bins) = g.cells[i];
                if r < j * bins {
                    g.shift_down(i);
                    break 'pick;
                }
                r -= j * bins;
            }
        }
        hits -= 1;
    }
}

/// One batched round of the histogram engines, by Poissonization. The
/// round throws `left` balls at the bins open at round start: bin group
/// `g` is `hists[g]`'s bins with load below `bounds[g]` (`None`: every
/// bin), and each of its bins is hit with weight `weights[g]`. The
/// uniform engine runs one group of weight 1, the weight-class engine
/// one group per weight class. Returns `(hits, kept)`: the hits the
/// round processed and the balls it kept. The rest, `left − kept`,
/// re-enters the caller's next round: the overflow of bins that reached
/// their bound, plus the balls a large round did not throw.
///
/// Every open bin draws an independent `Poisson(λ_g)` hit count, one
/// conditional chain per group ([`split_poisson_counts`]), with
/// `Σ λ_g · open_g` the round's mean. Given their total `N`, independent
/// Poisson counts are exactly the counts of `N` independent hits, each
/// landing on a bin with probability ∝ its weight — the product-measure
/// ↔ fixed-size identity. A small round (`left ≤` [`SMALL_ROUND`])
/// draws at mean `left` and repairs `N` to exactly `left`
/// ([`repair_profiles`]); a large one draws at a slack mean
/// ([`SLACK_SD`]) and redraws while `N > left`, then processes the
/// next `N` hits. Each group then places its multiplicity groups on its
/// occupancy classes with [`block_composition`] and promotes every share
/// by `min(j, bound − load)`, which is exact under the caps.
///
/// The profile is exact except where [`split_binomial`] is
/// moment-matched (variance above [`SPLIT_NORMAL_VAR`]); the placement
/// is exact except where [`hypergeometric`] is (above [`PER_HIT_SPLIT`]
/// draws). One open bin in all takes `min(left, cap)` at once, with no
/// profile.
pub(crate) fn poissonized_round<R: Rng64 + ?Sized>(
    hists: &mut [OccupancyHistogram],
    bounds: &[Option<u32>],
    weights: &[f64],
    left: u64,
    scratch: &mut RoundScratch,
    rng: &mut R,
) -> (u64, u64) {
    let groups = &mut scratch.groups;
    groups.resize_with(hists.len(), RoundGroup::default);
    for (g, (hist, (&t, &w))) in groups
        .iter_mut()
        .zip(hists.iter().zip(bounds.iter().zip(weights)))
    {
        g.classes.clear();
        if w > 0.0 {
            g.classes
                .extend(hist.levels().take_while(|&(l, _)| t.is_none_or(|t| l < t)));
            // Descending: under a bound the mass piles up just below
            // it, and promotes only move bins upward, so a class still
            // holds its snapshot count when its turn comes.
            g.classes.reverse();
        }
        g.open = g.classes.iter().map(|&(_, c)| c).sum();
        g.weight = w;
    }
    let open: u64 = groups.iter().map(|g| g.open).sum();
    assert!(open > 0, "poissonized_round: no open bin");
    if open == 1 {
        let gi = groups
            .iter()
            .position(|g| g.open == 1)
            .expect("one open bin");
        let (l, _) = groups[gi].classes[0];
        let keep = bounds[gi].map_or(left, |t| left.min(u64::from(t - l)));
        hists[gi].promote(l, 1, u32::try_from(keep).expect("loads fit u32"));
        return (left, keep);
    }

    let mass: f64 = groups.iter().map(RoundGroup::mass).sum();
    let hits = if left <= SMALL_ROUND {
        let hits = draw_profiles(groups, left as f64 / mass, rng);
        repair_profiles(groups, hits, left, rng);
        left
    } else {
        let mean = left as f64 - SLACK_SD * (left as f64).sqrt();
        loop {
            let hits = draw_profiles(groups, mean / mass, rng);
            if hits <= left {
                break hits;
            }
        }
    };

    let mut kept = 0u64;
    for (g, (hist, &t)) in groups.iter_mut().zip(hists.iter_mut().zip(bounds)) {
        let mut remaining = g.open;
        for &(j, bins) in g.cells.iter().rev() {
            if j == 0 || bins == 0 {
                continue;
            }
            block_composition(&mut g.classes, remaining, bins, rng, |_, l, c| {
                let keep = t.map_or(j, |t| j.min(u64::from(t - l)));
                hist.promote(l, c, u32::try_from(keep).expect("loads fit u32"));
                kept += keep * c;
            });
            remaining -= bins;
        }
    }
    (hits, kept)
}

/// The occupancy profile of a batch of uniform contacts, drawn by
/// [`occupancy_profile`]: `cells()` lists `(j, bins receiving exactly j
/// contacts)`, ascending in `j`, with no empty entry. It also holds the
/// buffers of the draw's top-up, so a caller that keeps one profile for
/// a whole run allocates only while the buffers grow.
#[derive(Debug, Clone, Default)]
pub struct OccupancyProfile {
    cells: Vec<(u32, u64)>,
    /// Profile of the contacts drawn to top `cells` up, followed by the
    /// `(new multiplicity, bins)` moves of their overlay.
    top_up: Vec<(u32, u64)>,
}

impl OccupancyProfile {
    /// `(j, bins receiving exactly j contacts)`, ascending in `j`.
    pub fn cells(&self) -> &[(u32, u64)] {
        &self.cells
    }
}

/// Draws the *occupancy profile* of `hits` uniform contacts over `bins`
/// exchangeable bins into `profile` (`Σ bins = bins`, `Σ j·bins = hits`,
/// surely).
///
/// This is the multiplicity-profile primitive of the parallel
/// round-occupancy engines (collision / bounded-load / parallel-greedy),
/// which resolve acceptance per multiplicity class instead of per
/// contact. They need the profile of exactly `hits` contacts, so unlike
/// `poissonized_round`, which processes a random number of hits and
/// leaves the rest to its next round, the profile tops its Poisson draw
/// up.
///
/// Up to 64 contacts run the exact per-contact walk (a contact lands on
/// an already-hit bin with probability `#hit/bins`). Above that, every
/// bin draws an independent Poisson count at mean
/// `(hits − SLACK_SD·√hits)/bins` (`split_poisson_counts`), redrawn
/// while their total `N` exceeds `hits`; given `N`, that is exactly the
/// profile of `N` uniform contacts. The missing `hits − N` contacts are
/// drawn the same way (by the walk once at most 64 remain) and
/// overlaid: the bins taking `i` extra contacts are a uniform subset,
/// disjoint across `i`, so each group spreads over the current cells
/// without replacement ([`block_composition`]) and each share moves
/// from `j` to `j + i`. Each top-up owes about the square root of the
/// contacts before it, so a draw reaches the walk within a few top-ups.
///
/// The profile is exact except where [`split_binomial`] is a rounded
/// normal (variance above 4) and [`hypergeometric`] moment-matched
/// (above 8 draws). Cost is `O(√λ + #cells)` draws per top-up at
/// `λ = hits/bins`, independent of `bins` and `hits`.
pub fn occupancy_profile<R: Rng64 + ?Sized>(
    bins: u64,
    hits: u64,
    profile: &mut OccupancyProfile,
    rng: &mut R,
) {
    assert!(bins > 0, "occupancy_profile: need at least one bin");
    let OccupancyProfile { cells, top_up } = profile;
    if bins == 1 {
        cells.clear();
        cells.push((multiplicity(hits), 1));
        return;
    }
    let mut drawn = draw_profile(bins, hits, cells, rng);
    while drawn < hits {
        drawn += draw_profile(bins, hits - drawn, top_up, rng);
        let groups = top_up.len();
        let mut remaining = bins;
        for g in 0..groups {
            let (i, group) = top_up[g];
            if i > 0 {
                block_composition(cells, remaining, group, rng, |_, j, c| {
                    top_up.push((j + i, c))
                });
                remaining -= group;
            }
        }
        cells.retain(|&(_, c)| c > 0);
        cells.extend_from_slice(&top_up[groups..]);
        cells.sort_unstable_by_key(|&(j, _)| j);
        cells.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 += later.1;
            }
            same
        });
    }
}

/// A contact multiplicity as a load increment.
fn multiplicity(j: u64) -> u32 {
    u32::try_from(j).expect("contact multiplicities fit the u32 load range")
}

/// Draws the profile of at most `hits` uniform contacts over `bins ≥ 2`
/// bins into `cells` and returns how many it drew: exactly `hits` by the
/// per-contact walk up to [`EXACT_HITS`], else the Poisson draw of
/// [`occupancy_profile`].
fn draw_profile<R: Rng64 + ?Sized>(
    bins: u64,
    hits: u64,
    cells: &mut Vec<(u32, u64)>,
    rng: &mut R,
) -> u64 {
    if hits <= EXACT_HITS {
        // Index the hit bins 0..; a contact lands on hit bin `r` iff
        // `r < #hit` (each specific bin w.p. 1/bins).
        let mut counts = [0u8; EXACT_HITS as usize];
        let mut touched = 0usize;
        for _ in 0..hits {
            let r = rng.range_u64(bins);
            if (r as usize) < touched {
                counts[r as usize] += 1;
            } else {
                counts[touched] = 1;
                touched += 1;
            }
        }
        let counts = &mut counts[..touched];
        counts.sort_unstable();
        cells.clear();
        let untouched = bins - touched as u64;
        if untouched > 0 {
            cells.push((0, untouched));
        }
        for &c in counts.iter() {
            match cells.last_mut() {
                Some(last) if last.0 == u32::from(c) => last.1 += 1,
                _ => cells.push((u32::from(c), 1)),
            }
        }
        return hits;
    }
    let lambda = (hits as f64 - SLACK_SD * (hits as f64).sqrt()) / bins as f64;
    loop {
        cells.clear();
        let mut drawn = 0u64;
        split_poisson_counts(bins, lambda, rng, |j, c| {
            cells.push((multiplicity(j), c));
            drawn += j * c;
        });
        if drawn <= hits {
            return drawn;
        }
    }
}

/// Number of *distinct* bins hit by `hits` uniform throws over `bins`
/// exchangeable bins. Exact per-hit walk for `hits ≤ 64`; above that a
/// rounded-normal draw on the closed-form moments
/// (`q1 = (1−1/bins)^hits`, `q2 = (1−2/bins)^hits`):
///
/// ```text
/// E[D]   = bins·(1−q1)
/// Var[D] = bins·(q1−q2) + bins²·(q2−q1²)
/// ```
///
/// clamped to the sure support `[1, min(bins, hits)]`. The bounded-load
/// round engine's accepting-bin count is this draw.
pub fn distinct_hit_count<R: Rng64 + ?Sized>(bins: u64, hits: u64, rng: &mut R) -> u64 {
    if hits == 0 || bins == 0 {
        return 0;
    }
    if bins == 1 {
        return 1;
    }
    if hits <= EXACT_HITS {
        // The per-hit walk of `occupancy_profile`, keeping only the
        // distinct count.
        let mut distinct = 0u64;
        for _ in 0..hits {
            if rng.range_u64(bins) >= distinct {
                distinct += 1;
            }
        }
        return distinct;
    }
    let lam = 1.0 / bins as f64;
    let q1 = (hits as f64 * (-lam).ln_1p()).exp();
    let q2 = (hits as f64 * (-2.0 * lam).ln_1p()).exp();
    let mean = bins as f64 * (1.0 - q1);
    let var = (bins as f64 * (q1 - q2) + (bins as f64) * (bins as f64) * (q2 - q1 * q1)).max(0.0);
    let draw = (mean + var.sqrt() * cheap_std_normal(rng)).round();
    (draw.max(1.0) as u64).min(bins).min(hits)
}

/// `Hypergeometric(total, marked, draws)` — the number of marked items
/// among `draws` drawn without replacement from `total` items of which
/// `marked` are marked.
///
/// Exact sequential draw for `draws ≤ 8` (one uniform pick per draw);
/// above that an exact binomial clamped to the support while the
/// finite-population variance stays below the normal switch, and a
/// rounded normal with the exact mean and variance beyond. The rounds
/// use this, through [`block_composition`], to spread a multiplicity
/// group over the occupancy classes.
pub fn hypergeometric<R: Rng64 + ?Sized>(total: u64, marked: u64, draws: u64, rng: &mut R) -> u64 {
    assert!(
        marked <= total && draws <= total,
        "hypergeometric: marked ({marked}) and draws ({draws}) must be ≤ total ({total})"
    );
    let lo = draws.saturating_sub(total - marked);
    let hi = draws.min(marked);
    if lo == hi {
        return lo;
    }
    if draws <= PER_HIT_SPLIT {
        let mut got = 0u64;
        let mut rem_marked = marked;
        let mut rem = total;
        for _ in 0..draws {
            if rng.range_u64(rem) < rem_marked {
                got += 1;
                rem_marked -= 1;
            }
            rem -= 1;
        }
        return got;
    }
    let f = marked as f64 / total as f64;
    let mean = draws as f64 * f;
    let fpc = (total - draws) as f64 / (total - 1).max(1) as f64;
    let var = mean * (1.0 - f) * fpc;
    if var < SPLIT_NORMAL_VAR {
        // Narrow split: the exact binomial is within the clamp and
        // keeps randomness a rounded mean would destroy.
        split_binomial(draws, f, rng).clamp(lo, hi)
    } else {
        let draw = (mean + var.sqrt() * cheap_std_normal(rng)).round();
        ((draw.max(0.0)) as u64).clamp(lo, hi)
    }
}

/// Draws one block's class composition for the blocked uniform load
/// assignment: one conditional [`hypergeometric`] per class over the
/// remaining counts (the `pool == count` guard hands the last
/// contributing class the exact remainder, so the chain surely
/// completes), decrementing `classes` in place and calling
/// `take(class_index, load, count)` for every class that contributes.
/// `remaining` must equal the sum of the remaining class counts and
/// `block ≤ remaining`. Shared by [`OccupancyHistogram::shuffled_loads`],
/// the rounds of both histogram engines, the top-up of
/// [`occupancy_profile`] and the parallel round engines, so the
/// exactness-critical chain exists once.
pub fn block_composition<R, F>(
    classes: &mut [(u32, u64)],
    remaining: u64,
    block: u64,
    rng: &mut R,
    mut take: F,
) where
    R: Rng64 + ?Sized,
    F: FnMut(usize, u32, u64),
{
    let mut pool = remaining;
    let mut left = block;
    for (i, &mut (l, ref mut c)) in classes.iter_mut().enumerate() {
        if left == 0 {
            break;
        }
        let cv = *c;
        if cv == 0 {
            continue;
        }
        let t = if pool == cv {
            left
        } else {
            hypergeometric(pool, cv, left, rng)
        };
        if t > 0 {
            take(i, l, t);
            *c -= t;
            left -= t;
        }
        pool -= cv;
    }
    debug_assert_eq!(left, 0, "block composition incomplete");
}

/// A rounded-normal count with the given mean and variance, clamped to
/// `[lo, hi]` — the moment-matched draw the approximate engine paths
/// share for quantities whose exact law has no cheap sampler (e.g. the
/// bounded-load engine's per-round placed-ball count). Degenerate
/// supports (`lo ≥ hi`) return `lo` without consuming randomness.
pub fn rounded_normal_count<R: Rng64 + ?Sized>(
    mean: f64,
    var: f64,
    lo: u64,
    hi: u64,
    rng: &mut R,
) -> u64 {
    if lo >= hi {
        return lo;
    }
    let draw = (mean + var.max(0.0).sqrt() * cheap_std_normal(rng)).round();
    ((draw.max(0.0)) as u64).clamp(lo, hi)
}

/// Places `count` balls under the uniform-below-`t` rule (`None` = the
/// `one-choice` law), batched by occupancy class. Panics if no bin is
/// open or `count` exceeds the remaining capacity below `t` (either
/// indicates a threshold bug, mirroring the other engines).
pub fn place_histogram_below<R: Rng64 + ?Sized>(
    hist: &mut OccupancyHistogram,
    t: Option<u32>,
    count: u64,
    rng: &mut R,
) -> BatchStats {
    place_histogram_below_with(hist, t, count, &mut RoundScratch::default(), rng)
}

/// [`place_histogram_below`] with caller-owned scratch buffers, so a
/// driver placing one segment per stage reuses the same allocations for
/// the whole run.
fn place_histogram_below_with<R: Rng64 + ?Sized>(
    hist: &mut OccupancyHistogram,
    t: Option<u32>,
    count: u64,
    round: &mut RoundScratch,
    rng: &mut R,
) -> BatchStats {
    if count == 0 {
        return BatchStats {
            samples: 0,
            max_samples_per_ball: 0,
        };
    }
    let n = hist.n;
    if let Some(t) = t {
        assert!(
            hist.open_bins(Some(t)) > 0,
            "place_histogram_below: no bin has load < {t}"
        );
        let capacity = hist.capacity_below(t);
        assert!(
            count <= capacity,
            "place_histogram_below: {count} balls exceed the remaining capacity {capacity} \
             below {t}"
        );
    }

    let mut left = count;
    let mut samples = 0u64;
    while left >= ROUND_CUTOFF {
        let k = hist.open_bins(t);
        let (hits, kept) =
            poissonized_round(std::slice::from_mut(hist), &[t], &[1.0], left, round, rng);
        samples += stream_samples_for_hits_bounded(
            hits,
            k as f64 / n as f64,
            HISTOGRAM_SAMPLES_CUTOFF,
            rng,
        );
        debug_assert!(kept > 0, "a round with open capacity must place something");
        if kept == 0 {
            break; // defensive: the exact tail below is always correct
        }
        left -= kept;
    }

    let mut max_samples = u64::from(count > left);
    // Exact per-ball tail on the collapsed chain: class ∝ open count.
    let mut k = hist.open_bins(t);
    let mut geo: Option<(u64, GeometricSampler)> = None;
    while left > 0 {
        debug_assert!(k > 0);
        let s = if k == n {
            1
        } else {
            // The sampler caches ln(1−p); rebuild only when k changes
            // (a bin closed), not per ball.
            let g = match &geo {
                Some((gk, g)) if *gk == k => *g,
                _ => {
                    let g = GeometricSampler::new(k as f64 / n as f64);
                    geo = Some((k, g));
                    g
                }
            };
            g.sample(rng)
        };
        samples += s;
        max_samples = max_samples.max(s);
        // CDF walk from the top open class downward: under a threshold
        // rule the mass piles up just below the bound, so the reversed
        // walk terminates after a couple of classes.
        let mut r = rng.range_u64(k);
        let top = match t {
            Some(t) => ((t - hist.base) as usize).min(hist.counts.len()),
            None => hist.counts.len(),
        };
        let mut chosen = hist.base;
        for i in (0..top).rev() {
            let c = hist.counts[i];
            if r < c {
                chosen = hist.base + i as u32;
                break;
            }
            r -= c;
        }
        hist.promote(chosen, 1, 1);
        if t == Some(chosen + 1) {
            k -= 1;
        }
        left -= 1;
    }

    BatchStats {
        samples,
        max_samples_per_ball: max_samples,
    }
}

/// Places `count` balls under the `greedy[d]` law, exactly: order the
/// bins ascending by load and the least loaded of `d` uniform samples
/// (with replacement) is the class containing the minimum of `d`
/// uniform ranks; within the class the receiving bin is exchangeable,
/// and both tie-break rules collapse to the same class choice. The
/// chain runs on a [`RankIndex`], so a ball costs its `d` rank draws
/// plus one O(log span) rank → load search and one decrement.
pub fn place_least_of_d<R: Rng64 + ?Sized>(
    hist: &mut OccupancyHistogram,
    d: u32,
    count: u64,
    rng: &mut R,
) -> BatchStats {
    debug_assert!(d >= 1);
    let mut index = RankIndex::build(hist);
    let n = index.n();
    for _ in 0..count {
        let mut r = rng.range_u64(n);
        for _ in 1..d {
            r = r.min(rng.range_u64(n));
        }
        index.promote_one(index.load_at_rank(r));
    }
    index.write_back(hist);
    BatchStats {
        samples: count * d as u64,
        max_samples_per_ball: if count > 0 { d as u64 } else { 0 },
    }
}

/// An exact in-place Fisher–Yates for cache-resident blocks, drawing
/// its index picks from 16-bit Lemire lanes — four exactly-uniform
/// small-range draws per `u64`, with the rejection thresholds
/// (`2^16 mod r`) precomputed so the hot loop never divides. This is
/// the arrangement half of the blocked load materialization
/// ([`OccupancyHistogram::shuffled_loads`] and the parallel round
/// engines' sharded reconstruction); at `n = 10⁷` it is ~4× cheaper
/// than a full-width Fisher–Yates.
pub struct BlockShuffler {
    /// `thresh[r] = 2^16 mod r` — a 16-bit lane `x` is accepted for
    /// range `r` iff `(x·r) & 0xFFFF ≥ thresh[r]`.
    thresh: Vec<u32>,
}

impl BlockShuffler {
    /// Builds the rejection table for blocks of at most `max_block`
    /// elements (`max_block ≤ 2^16` so a 16-bit lane covers every
    /// range).
    pub fn new(max_block: usize) -> Self {
        assert!(max_block <= 1 << 16, "BlockShuffler: block too large");
        let mut thresh = vec![0u32; max_block + 1];
        for (r, t) in thresh.iter_mut().enumerate().skip(1) {
            *t = ((1u64 << 16) % r as u64) as u32;
        }
        Self { thresh }
    }

    /// Writes a uniformly random arrangement of the element stream
    /// `next` into `block` by the *inside-out* Fisher–Yates — one fused
    /// pass instead of fill-then-shuffle, which is what the `O(n)`
    /// reconstruction at `m = n` scale wants. `next` is called exactly
    /// `block.len()` times; the result is an exact uniform shuffle of
    /// that sequence (`block`'s prior contents are overwritten).
    pub fn arrange<R, F>(&self, block: &mut [u32], mut next: F, rng: &mut R)
    where
        R: Rng64 + ?Sized,
        F: FnMut() -> u32,
    {
        debug_assert!(block.len() < self.thresh.len());
        let mut bits = 0u64;
        let mut lanes = 0u32;
        for i in 0..block.len() {
            let range = (i + 1) as u32;
            let j = loop {
                if lanes == 0 {
                    bits = rng.next_u64();
                    lanes = 4;
                }
                let x = (bits & 0xFFFF) as u32;
                bits >>= 16;
                lanes -= 1;
                let m = x * range;
                if (m & 0xFFFF) >= self.thresh[range as usize] {
                    break (m >> 16) as usize;
                }
            };
            block[i] = block[j];
            block[j] = next();
        }
    }
}

/// A uniform random permutation of `0..n` (Fisher–Yates).
pub fn random_permutation<R: Rng64 + ?Sized>(n: usize, rng: &mut R) -> Vec<u32> {
    let mut perm: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        perm.swap(i, rng.range_usize(i + 1));
    }
    perm
}

/// Assigns the histogram's sorted loads to bin indices through `perm` —
/// the identity-reconstruction step shared by every histogram-state
/// engine: drivers that emit stage traces draw one permutation up front
/// and materialize through it at every stage so the synthetic bin
/// identities stay consistent across the run.
pub fn materialize(hist: &OccupancyHistogram, perm: &[u32]) -> Vec<u32> {
    let sorted = hist.to_sorted_loads();
    let mut loads = vec![0u32; perm.len()];
    for (i, &l) in sorted.iter().enumerate() {
        loads[perm[i] as usize] = l;
    }
    loads
}

/// Block size of the sharded reconstruction: compositions are drawn per
/// block of this many bins, shuffled independently.
const SHARD_BLOCK: u64 = 1024;

/// Below this many bins the sharded reconstruction's thread-scope setup
/// costs more than it saves; [`crate::loads::Loads`] materializes
/// inline with [`OccupancyHistogram::shuffled_loads`] below it.
pub const SHARD_MIN_BINS: u64 = 1 << 21;

/// The blocked uniform load assignment of
/// [`OccupancyHistogram::shuffled_loads`], with the per-block
/// fill-and-shuffle work sharded over scoped OS threads. Fully
/// deterministic in the caller's seed and **independent of the thread
/// count**: the block compositions are drawn sequentially from the
/// caller's stream (one conditional [`hypergeometric`] per class per
/// block), the caller's stream then contributes one base seed, and
/// every block shuffles with its own child rng
/// (`SeedSequence(base).child(block)`) — the same seed discipline that
/// makes replicated runs scheduling-independent.
pub fn sharded_shuffled_loads<R: Rng64 + ?Sized>(
    hist: &OccupancyHistogram,
    rng: &mut R,
) -> Vec<u32> {
    let n = hist.n();
    let mut classes: Vec<(u32, u64)> = hist.levels().collect();
    if classes.len() == 1 {
        return vec![classes[0].0; n as usize];
    }
    let k = classes.len();
    let num_blocks = n.div_ceil(SHARD_BLOCK) as usize;
    // Block compositions, block-major (`comps[b·k + i]` = bins of class
    // `i` in block `b`), drawn sequentially through the shared
    // [`block_composition`] chain — ~`k` draws per block, a fraction of
    // a percent of the fill-and-shuffle work.
    let mut comps: Vec<u32> = vec![0; num_blocks * k];
    let mut remaining = n;
    for b in 0..num_blocks {
        let block = SHARD_BLOCK.min(remaining);
        block_composition(&mut classes, remaining, block, rng, |i, _, t| {
            // lint:allow(N1): t ≤ SHARD_BLOCK = 2¹⁰ fits u32 by construction
            comps[b * k + i] = t as u32
        });
        remaining -= block;
    }
    let base = rng.next_u64();
    let levels: Vec<u32> = hist.levels().map(|(l, _)| l).collect();

    let mut loads = vec![0u32; n as usize];
    let threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(num_blocks)
        .max(1);
    let blocks_per_thread = num_blocks.div_ceil(threads);
    let chunk_len = blocks_per_thread * SHARD_BLOCK as usize;
    let fill_chunk = |t: usize, chunk: &mut [u32]| {
        let shuffler = BlockShuffler::new(SHARD_BLOCK as usize);
        let first_block = t * blocks_per_thread;
        for (bi, block) in chunk.chunks_mut(SHARD_BLOCK as usize).enumerate() {
            let b = first_block + bi;
            // Stream the block's composition runs through the fused
            // inside-out arrangement, on the block's own child stream.
            let mut stream = comps[b * k..(b + 1) * k]
                .iter()
                .zip(levels.iter())
                .flat_map(|(&t, &l)| std::iter::repeat_n(l, t as usize));
            let mut brng = SeedSequence::new(base).child(b as u64).rng();
            shuffler.arrange(
                block,
                || stream.next().expect("run stream exhausted early"),
                &mut brng,
            );
        }
    };
    if threads == 1 {
        // Single worker: run inline, no scope overhead. Identical
        // output — block streams never depend on the thread layout.
        fill_chunk(0, &mut loads);
    } else {
        std::thread::scope(|scope| {
            for (t, chunk) in loads.chunks_mut(chunk_len).enumerate() {
                let fill_chunk = &fill_chunk;
                scope.spawn(move || fill_chunk(t, chunk));
            }
        });
    }
    loads
}

/// Runs a whole allocation under [`Engine::Histogram`]: walks the
/// schedule's constant-rule segments and places each with the batched
/// class machinery. Bin identities are synthetic — and stay *virtual*
/// on the no-observer path: the outcome carries the histogram plus one
/// reconstruction seed ([`crate::loads::Loads::from_histogram`]), so no
/// `O(n)` pass runs unless a caller later asks for per-bin loads.
/// Drivers with a stage-trace observer instead draw one uniform seeded
/// permutation up front (derived from the same seed) and materialize
/// through it at every stage end and for the final outcome, keeping the
/// synthetic bin identities consistent across the trace. The per-bin
/// marginal law is exact either way because the faithful process is
/// exchangeable.
///
/// [`Engine::Histogram`]: crate::protocol::Engine::Histogram
pub fn drive_histogram<S, R, O>(
    name: String,
    cfg: &RunConfig,
    rng: &mut R,
    obs: &mut O,
    schedule: &S,
) -> Outcome
where
    S: HistogramSchedule + ?Sized,
    R: Rng64 + ?Sized,
    O: Observer + ?Sized,
{
    let n64 = cfg.n as u64;
    let mut hist = OccupancyHistogram::new(cfg.n);
    // One seed draw where the eager engine drew its whole permutation:
    // the placement stream below is identical whether or not a trace
    // consumer is attached, and reconstruction is a pure function of
    // this seed no matter when (or whether) it happens.
    let recon_seed = rng.next_u64();
    let want_stages = obs.wants_stage_ends();
    let perm = want_stages.then(|| random_permutation(cfg.n, &mut SplitMix64::new(recon_seed)));
    let mut total_samples = 0u64;
    let mut max_samples = 0u64;
    let mut round = RoundScratch::default();
    let mut ball = 1u64;
    while ball <= cfg.m {
        let seg = schedule.histogram_segment(cfg, ball);
        let mut end = seg.end.min(cfg.m);
        debug_assert!(end >= ball, "segment end must not precede its ball");
        if want_stages {
            end = end.min(((ball - 1) / n64 + 1) * n64);
        }
        let count = end - ball + 1;
        let stats = match seg.rule {
            LandingRule::UniformBelow(t) => {
                place_histogram_below_with(&mut hist, t, count, &mut round, rng)
            }
            LandingRule::LeastOfD(d) => place_least_of_d(&mut hist, d, count, rng),
        };
        total_samples += stats.samples;
        max_samples = max_samples.max(stats.max_samples_per_ball);
        if let Some(perm) = perm.as_deref() {
            if end.is_multiple_of(n64) {
                obs.on_stage_end(end / n64, &materialize(&hist, perm), end);
            }
        }
        ball = end + 1;
    }
    if cfg.m > 0 && !cfg.m.is_multiple_of(n64) {
        if let Some(perm) = perm.as_deref() {
            obs.on_stage_end(cfg.m / n64 + 1, &materialize(&hist, perm), cfg.m);
        }
    }
    let loads = match perm.as_deref() {
        // Trace runs materialize through the permutation so the final
        // loads agree with the last trace frame.
        Some(perm) => crate::loads::Loads::from_vec(materialize(&hist, perm)),
        None => crate::loads::Loads::from_histogram(hist, recon_seed),
    };
    Outcome {
        protocol: name,
        n: cfg.n,
        m: cfg.m,
        total_samples,
        max_samples_per_ball: max_samples,
        loads,
        scenario: Scenario::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::NullObserver;
    use crate::protocols::{OneChoice, Threshold};
    use bib_rng::SplitMix64;

    fn total_balls(h: &OccupancyHistogram) -> u64 {
        h.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (h.base + i as u32) as u64 * c)
            .sum()
    }

    #[test]
    fn histogram_promote_and_queries() {
        let mut h = OccupancyHistogram::new(10);
        assert_eq!(h.count(0), 10);
        assert_eq!(h.open_bins(Some(1)), 10);
        assert_eq!(h.open_bins(None), 10);
        assert_eq!(h.capacity_below(3), 30);
        h.promote(0, 4, 1);
        h.promote(0, 1, 5);
        h.check_invariants();
        assert_eq!(h.count(0), 5);
        assert_eq!(h.count(1), 4);
        assert_eq!(h.count(5), 1);
        assert_eq!(h.min_load(), 0);
        assert_eq!(h.max_load(), 5);
        assert_eq!(h.open_bins(Some(1)), 5);
        assert_eq!(h.open_bins(Some(2)), 9);
        assert_eq!(h.capacity_below(2), 2 * 5 + 4);
        assert_eq!(total_balls(&h), 9);
    }

    #[test]
    fn histogram_base_slides_on_long_jumps() {
        // A single bin jumping far ahead must not blow up the dense span.
        let mut h = OccupancyHistogram::new(1);
        h.promote(0, 1, 1_000_000);
        h.check_invariants();
        assert_eq!(h.min_load(), 1_000_000);
        assert_eq!(h.max_load(), 1_000_000);
        assert!(h.counts.len() < 8, "span not compacted: {}", h.counts.len());
        h.promote(1_000_000, 1, 3);
        assert_eq!(h.count(1_000_003), 1);
    }

    #[test]
    fn sorted_loads_round_trip() {
        let mut h = OccupancyHistogram::new(5);
        h.promote(0, 2, 2);
        h.promote(0, 1, 1);
        assert_eq!(h.to_sorted_loads(), vec![0, 0, 1, 2, 2]);
    }

    #[test]
    fn rank_index_answers_like_the_histogram() {
        // Random histograms reshaped by every span-moving primitive:
        // promotes past the end, demotes below the base, shelved bins
        // leaving (empty interior levels) and re-entering anywhere. Load
        // range 600 gives spans of several hundred levels.
        for range in [12u64, 600] {
            for seed in 0..40u64 {
                let mut rng = SplitMix64::new(seed);
                let n = 1 + rng.range_u64(40) as usize;
                let loads: Vec<u32> = (0..n).map(|_| rng.range_u64(range) as u32).collect();
                let mut h = OccupancyHistogram::from_loads(&loads);
                for step in 0..=30 {
                    if step > 0 {
                        let classes: Vec<(u32, u64)> = h.levels().collect();
                        let (l, c) = classes[rng.range_u64(classes.len() as u64) as usize];
                        let bins = 1 + rng.range_u64(c);
                        match rng.range_u64(4) {
                            0 => h.promote(l, bins, 1 + rng.range_u64(5) as u32),
                            1 if l > 0 => h.demote(l, bins, 1 + rng.range_u64(l as u64) as u32),
                            2 if bins < h.n() => h.remove_bins(l, bins),
                            _ => h.add_bins(rng.range_u64(range + range / 2) as u32, bins),
                        }
                        h.check_invariants();
                    }
                    let index = RankIndex::build(&h);
                    assert_eq!(index.n(), h.n());
                    let (lo, hi) = (h.min_load(), h.max_load());
                    for (r, &load) in h.to_sorted_loads().iter().enumerate() {
                        assert_eq!(index.load_at_rank(r as u64), load, "seed {seed}, rank {r}");
                    }
                    for t in lo.saturating_sub(2)..=hi + 2 {
                        assert_eq!(
                            index.open_below(t),
                            h.open_bins(Some(t)),
                            "seed {seed}, t {t}"
                        );
                    }
                }
            }
        }
        // No bins: nothing is open and nothing has a rank.
        let mut h = OccupancyHistogram::from_loads(&[4, 6]);
        h.remove_bins(4, 1);
        h.remove_bins(6, 1);
        for empty in [OccupancyHistogram::empty(), h] {
            let index = RankIndex::build(&empty);
            assert_eq!(index.n(), 0);
            assert_eq!(index.open_below(0), 0);
            assert_eq!(index.open_below(u32::MAX), 0);
        }
    }

    /// Runs `k` one-level promotes of rank-drawn bins on an index of
    /// `h` and on a clone through [`OccupancyHistogram::promote`],
    /// checking every rank after every step and the written-back
    /// histogram at the end.
    fn assert_promotes_agree(h: &OccupancyHistogram, k: usize, mut rank: impl FnMut(u64) -> u64) {
        let mut index = RankIndex::build(h);
        let mut reference = h.clone();
        for step in 0..k {
            let l = index.load_at_rank(rank(h.n()));
            index.promote_one(l);
            reference.promote(l, 1, 1);
            for (r, &load) in reference.to_sorted_loads().iter().enumerate() {
                assert_eq!(index.load_at_rank(r as u64), load, "step {step}, rank {r}");
            }
        }
        let mut back = h.clone();
        index.write_back(&mut back);
        back.check_invariants();
        assert_eq!(back, reference);
        assert_eq!(back.to_sorted_loads(), reference.to_sorted_loads());
        assert_eq!(
            (back.min_load(), back.max_load()),
            (reference.min_load(), reference.max_load())
        );
        // The written-back storage keeps working under every primitive.
        for h in [&mut back, &mut reference] {
            let hi = h.max_load();
            h.promote(hi, 1, 3);
            h.demote(hi + 3, 1, hi + 3);
            h.add_bins(hi + 1, 2);
            h.promote(h.min_load(), 1, 1);
        }
        assert_eq!(back, reference);
    }

    #[test]
    fn rank_index_promote_one_matches_promote() {
        for seed in 0..60u64 {
            let mut rng = SplitMix64::new(seed ^ 0x9e37);
            let range = [12u64, 30, 600][seed as usize % 3];
            let loads: Vec<u32> = (0..1 + rng.range_u64(40))
                .map(|_| rng.range_u64(range) as u32)
                .collect();
            let h = OccupancyHistogram::from_loads(&loads);
            let k = rng.range_u64(80) as usize;
            assert_promotes_agree(&h, k, |n| rng.range_u64(n));
        }
        // The top class grows the span; the lowest rank empties the
        // bottom class.
        let h = OccupancyHistogram::from_loads(&[2, 2, 3, 7]);
        assert_promotes_agree(&h, 12, |n| n - 1);
        assert_promotes_agree(&h, 12, |_| 0);
        // A one-bin class at each end, and n = 1 (every promote both
        // grows the top and empties the bottom).
        let h = OccupancyHistogram::from_loads(&[0, 5, 5, 5, 9]);
        assert_promotes_agree(&h, 6, |_| 0);
        assert_promotes_agree(&h, 6, |n| n - 1);
        assert_promotes_agree(&OccupancyHistogram::new(1), 50, |_| 0);
        assert_promotes_agree(&OccupancyHistogram::from_loads(&[1_000]), 5, |_| 0);
    }

    /// Bin groups of a test round: `(classes as (load, bins), bound,
    /// weight)`.
    type Groups<'a> = [(&'a [(u32, u64)], Option<u32>, f64)];

    /// One round of `left` balls on fresh histograms of `groups`,
    /// checking the sure invariants: bins and mass conserved, no open
    /// bin pushed past its bound, `kept ≤ hits ≤ left`, and exactly
    /// `left` hits in a small round. Returns `(hits, kept)`.
    fn checked_round(groups: &Groups, left: u64, rng: &mut SplitMix64) -> (u64, u64) {
        let mut hists: Vec<_> = groups
            .iter()
            .map(|g| {
                OccupancyHistogram::from_loads(
                    &g.0.iter()
                        .flat_map(|&(l, c)| vec![l; c as usize])
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        let bounds: Vec<_> = groups.iter().map(|g| g.1).collect();
        let weights: Vec<_> = groups.iter().map(|g| g.2).collect();
        let mass =
            |hists: &[OccupancyHistogram]| hists.iter().map(|h| h.total_balls()).sum::<u64>();
        let before = mass(&hists);
        let (hits, kept) = poissonized_round(
            &mut hists,
            &bounds,
            &weights,
            left,
            &mut RoundScratch::default(),
            rng,
        );
        assert!(
            kept <= hits && hits <= left,
            "kept {kept}, hits {hits}, left {left}"
        );
        assert!(
            left > SMALL_ROUND || hits == left,
            "a small round throws every ball"
        );
        assert_eq!(mass(&hists), before + kept);
        for (h, &(classes, t, _)) in hists.iter().zip(groups) {
            h.check_invariants();
            let top = classes.iter().map(|c| c.0).max().unwrap_or(0);
            assert!(
                t.is_none_or(|t| h.max_load() <= t.max(top)),
                "bound exceeded"
            );
        }
        (hits, kept)
    }

    /// The kept counts of `rounds` calls of [`checked_round`], and their
    /// mean.
    fn kept_moments(groups: &Groups, left: u64, rounds: usize, seed: u64) -> (f64, Vec<f64>) {
        let mut rng = SplitMix64::new(seed);
        let kept: Vec<f64> = (0..rounds)
            .map(|_| checked_round(groups, left, &mut rng).1 as f64)
            .collect();
        (kept.iter().sum::<f64>() / rounds as f64, kept)
    }

    #[test]
    fn round_mean_kept_matches_exact_law() {
        // One-sample test, 20 000 small rounds per case, of the mean
        // kept count against Σ_bins E[min(Bin(h, w/W), t − load)].
        let cases: [(&Groups, u64); 7] = [
            (&[(&[(0, 106), (1, 100), (2, 50)], Some(3), 1.0)], 200),
            (&[(&[(0, 500), (1, 500)], Some(2), 1.0)], 400),
            (&[(&[(0, 56), (1, 200)], Some(3), 1.0)], 300),
            (&[(&[(0, 256)], Some(2), 1.0)], 256),
            // ≤ 64 open bins, an unreached class and a closed one.
            (&[(&[(0, 20), (1, 30), (3, 10), (5, 4)], Some(5), 1.0)], 150),
            // One open bin among closed ones keeps min(h, cap).
            (&[(&[(0, 1), (3, 50)], Some(3), 1.0)], 40),
            // Two weight classes, one unbounded.
            (
                &[
                    (&[(0, 40), (1, 20)], Some(2), 1.0),
                    (&[(2, 10), (4, 5)], None, 3.0),
                ],
                120,
            ),
        ];
        for (case, &(groups, h)) in cases.iter().enumerate() {
            let open: Vec<Vec<(u32, u64)>> = groups
                .iter()
                .map(|&(cls, t, _)| {
                    cls.iter()
                        .copied()
                        .filter(|c| t.is_none_or(|t| c.0 < t))
                        .collect()
                })
                .collect();
            let mass: f64 = groups
                .iter()
                .zip(&open)
                .map(|(g, o)| o.iter().map(|c| c.1).sum::<u64>() as f64 * g.2)
                .sum();
            let mut exact = 0.0;
            for (&(_, t, w), o) in groups.iter().zip(&open) {
                for &(l, c) in o {
                    let cap = t.map_or(h, |t| u64::from(t - l));
                    // E[min(Bin(h, p), cap)] by the pmf recurrence.
                    let p = w / mass;
                    if p == 1.0 {
                        exact += h.min(cap) as f64; // the one open bin
                        continue;
                    }
                    let mut pmf = (1.0 - p).powf(h as f64);
                    let mut e = cap as f64;
                    for x in 0..cap.min(h + 1) {
                        e -= (cap - x) as f64 * pmf;
                        pmf *= (h - x) as f64 / (x + 1) as f64 * p / (1.0 - p);
                    }
                    exact += c as f64 * e;
                }
            }
            let rounds = 20_000;
            let (mean, kept) = kept_moments(groups, h, rounds, 0x5eed ^ case as u64);
            let var = kept.iter().map(|k| (k - mean).powi(2)).sum::<f64>() / (rounds - 1) as f64;
            let se = (var / rounds as f64).sqrt();
            assert!(
                (mean - exact).abs() <= 4.0 * se + 1e-9,
                "case {case}: mean kept {mean:.3} vs exact {exact:.3} (se {se:.4})"
            );
        }
    }

    #[test]
    fn round_spread_matches_exact_law() {
        // {0: 256}, t = 2, h = 256: kept = Σ_i g(X_i) with g(x) =
        // min(x, 2) over the multinomial occupancy, so Var kept =
        // k·Var g(X₁) + k(k−1)·Cov(g(X₁), g(X₂)), the pair law summed in
        // closed form.
        let (k, h) = (256u64, 256usize);
        let lf: Vec<f64> = (0..=h)
            .scan(0.0, |acc, i| {
                *acc += (i.max(1) as f64).ln();
                Some(*acc)
            })
            .collect();
        let p = 1.0 / k as f64;
        let pair = |a: usize, b: usize| {
            let rest = h - a - b;
            (lf[h] - lf[a] - lf[b] - lf[rest]
                + (a + b) as f64 * p.ln()
                + rest as f64 * (1.0 - 2.0 * p).ln())
            .exp()
        };
        let g = |x: usize| x.min(2) as f64;
        let (mut e1, mut e11, mut e12) = (0.0, 0.0, 0.0);
        for a in 1..=h {
            let pa: f64 = (0..=h - a).map(|b| pair(a, b)).sum();
            e1 += g(a) * pa;
            e11 += g(a) * g(a) * pa;
            e12 += (1..=h - a).map(|b| g(a) * g(b) * pair(a, b)).sum::<f64>();
        }
        let kf = k as f64;
        let exact = kf * (e11 - e1 * e1) + kf * (kf - 1.0) * (e12 - e1 * e1);
        let rounds = 20_000;
        let (mean, kept) = kept_moments(&[(&[(0, k)], Some(2), 1.0)], k, rounds, 0x5b7ead);
        let moment = |q: i32| kept.iter().map(|x| (x - mean).powi(q)).sum::<f64>() / rounds as f64;
        let var = moment(2);
        let se = ((moment(4) - var * var) / rounds as f64).sqrt();
        assert!(
            (var - exact).abs() <= 4.0 * se,
            "variance of kept {var:.3} vs exact {exact:.3} (se {se:.3})"
        );
    }

    #[test]
    fn round_conserves_mass_and_caps_in_both_regimes() {
        let mut rng = SplitMix64::new(0x1a57);
        let multi: &[(u32, u64)] = &[(0, 900), (1, 700), (2, 400), (4, 10)];
        let two: &[(u32, u64)] = &[(0, 300), (1, 50)];
        for left in [ROUND_CUTOFF, 5_000, SMALL_ROUND, SMALL_ROUND + 1, 3_000_000] {
            checked_round(&[(multi, Some(3), 1.0)], left.min(5_000), &mut rng);
            checked_round(
                &[(two, Some(2), 1.0), (&[(0, 40)], Some(9), 4.0)],
                left.min(1_000),
                &mut rng,
            );
            // Unbounded: every processed hit is kept.
            let (hits, kept) = checked_round(&[(multi, None, 1.0)], left, &mut rng);
            assert_eq!(hits, kept);
            let (hits, kept) =
                checked_round(&[(two, None, 1.0), (&[(0, 40)], None, 4.0)], left, &mut rng);
            assert_eq!(hits, kept);
        }
        // Just above the cutoff a round draws at left − √left and
        // redraws while N > left (P ≈ 16 % per draw): over 64 rounds
        // `checked_round` sees redraws, and some slack left behind.
        let left = SMALL_ROUND + 1;
        let slack: u64 = (0..64)
            .map(|_| left - checked_round(&[(multi, None, 1.0)], left, &mut rng).0)
            .sum();
        assert!(slack > 0, "a large round leaves slack behind");
        // Kept never exceeds the room below the bound.
        assert!(checked_round(&[(&[(0, 2_000)], Some(3), 1.0)], 10_000, &mut rng).1 <= 6_000);
        // n = 1 and one open bin among closed ones take min(left, cap)
        // with no profile, even for an intake near the u32 range; two
        // bins walk O(√λ) profile levels, not `left`.
        let huge = 3_000_000_000u64;
        for (groups, left, want) in [
            (&[(&[(0, 1)][..], Some(1_000), 1.0)], 5_000, (5_000, 1_000)),
            (&[(&[(0, 1)][..], None, 1.0)], huge, (huge, huge)),
            (&[(&[(0, 1), (3, 50)][..], Some(3), 1.0)], 40, (40, 3)),
        ] {
            assert_eq!(checked_round(groups, left, &mut rng), want);
        }
        let (hits, kept) = checked_round(&[(&[(0, 2)], None, 1.0)], 100_000_000, &mut rng);
        assert_eq!(hits, kept);
    }

    #[test]
    fn returned_histogram_has_no_empty_edge_levels() {
        // Heavy runs slide the live span far from load 0; the lazy
        // outcome keeps only the live span, with no spare capacity.
        let cfg = RunConfig::new(500, 200_000);
        for out in [
            drive_histogram(
                "t".into(),
                &cfg,
                &mut SplitMix64::new(2),
                &mut NullObserver,
                &Threshold,
            ),
            drive_histogram(
                "o".into(),
                &cfg,
                &mut SplitMix64::new(2),
                &mut NullObserver,
                &OneChoice,
            ),
        ] {
            let counts = &out.loads.histogram().counts;
            assert_ne!(counts.first(), Some(&0), "empty low edge");
            assert_ne!(counts.last(), Some(&0), "empty high edge");
            assert_eq!(counts.capacity(), counts.len(), "spare capacity kept");
            assert_eq!(out.loads.histogram().total_balls(), cfg.m);
        }
    }

    #[test]
    fn place_below_fills_exact_capacity() {
        let mut hist = OccupancyHistogram::new(16);
        let mut rng = SplitMix64::new(1);
        let stats = place_histogram_below(&mut hist, Some(3), 48, &mut rng);
        assert_eq!(hist.count(3), 16);
        assert!(stats.samples >= 48);
    }

    #[test]
    fn place_below_unbounded_is_one_sample_per_ball() {
        let mut hist = OccupancyHistogram::new(32);
        let mut rng = SplitMix64::new(2);
        let stats = place_histogram_below(&mut hist, None, 10_000, &mut rng);
        hist.check_invariants();
        assert_eq!(stats.samples, 10_000, "one-choice wastes no samples");
        assert_eq!(total_balls(&hist), 10_000);
    }

    #[test]
    fn place_below_single_bin_exact() {
        let mut hist = OccupancyHistogram::new(1);
        let mut rng = SplitMix64::new(3);
        let stats = place_histogram_below(&mut hist, Some(1000), 1000, &mut rng);
        assert_eq!(hist.count(1000), 1);
        assert_eq!(stats.samples, 1000);
    }

    #[test]
    #[should_panic]
    fn place_below_rejects_over_capacity() {
        let mut hist = OccupancyHistogram::new(2);
        let mut rng = SplitMix64::new(4);
        place_histogram_below(&mut hist, Some(2), 5, &mut rng);
    }

    #[test]
    #[should_panic]
    fn place_below_rejects_impossible_threshold() {
        let mut hist = OccupancyHistogram::new(2);
        hist.promote(0, 2, 2);
        let mut rng = SplitMix64::new(5);
        place_histogram_below(&mut hist, Some(1), 1, &mut rng);
    }

    #[test]
    fn place_below_mass_and_bound_across_scales() {
        for (n, count, t) in [
            (8u64, 700u64, 100u32),
            (64, 10_000, 200),
            (500, 40_000, 100),
        ] {
            let mut hist = OccupancyHistogram::new(n as usize);
            let mut rng = SplitMix64::new(count);
            let stats = place_histogram_below(&mut hist, Some(t), count, &mut rng);
            hist.check_invariants();
            assert_eq!(total_balls(&hist), count, "n={n}");
            assert!(hist.max_load() <= t);
            assert!(stats.samples >= count);
        }
    }

    #[test]
    fn least_of_d_prefers_low_classes() {
        // With loads split 0/1, greedy[2] hits the empty class with
        // probability 1 − (1/2)² = 3/4.
        let n = 1000u64;
        let mut hist = OccupancyHistogram::new(n as usize);
        hist.promote(0, n / 2, 1);
        let mut rng = SplitMix64::new(6);
        let balls = 10_000u64;
        let stats = place_least_of_d(&mut hist, 2, balls, &mut rng);
        assert_eq!(stats.samples, 2 * balls);
        hist.check_invariants();
        assert_eq!(total_balls(&hist), balls + n / 2);
        // Two choices keep the spread tight: with 10.5 balls/bin on
        // average the max−min gap sits around 7 (measured against the
        // sequential greedy[2] at this size) — far below one-choice's.
        assert!(hist.min_load() >= 1, "greedy should fill the empty class");
        assert!(
            hist.max_load() - hist.min_load() <= 12,
            "greedy[2] gap blew up"
        );
    }

    #[test]
    fn random_permutation_is_a_permutation() {
        let mut rng = SplitMix64::new(7);
        let p = random_permutation(257, &mut rng);
        let mut seen = vec![false; 257];
        for &i in &p {
            assert!(!seen[i as usize]);
            seen[i as usize] = true;
        }
        // Not the identity (probability 1/257! of a false failure).
        assert!(p.iter().enumerate().any(|(i, &v)| i as u32 != v));
    }

    #[test]
    fn split_binomial_moments_across_regimes() {
        let mut rng = SplitMix64::new(8);
        for (n, p) in [(100u64, 0.3f64), (1_000_000, 0.25)] {
            let reps = 3000;
            let xs: Vec<f64> = (0..reps)
                .map(|_| split_binomial(n, p, &mut rng) as f64)
                .collect();
            let mean = xs.iter().sum::<f64>() / reps as f64;
            let expect = n as f64 * p;
            let sd = (n as f64 * p * (1.0 - p)).sqrt();
            assert!(
                (mean - expect).abs() < 4.0 * sd / (reps as f64).sqrt(),
                "n={n}: mean {mean} vs {expect}"
            );
            assert!(xs.iter().all(|&x| x >= 0.0 && x <= n as f64));
        }
        assert_eq!(split_binomial(10, 0.0, &mut rng), 0);
        assert_eq!(split_binomial(10, 1.0, &mut rng), 10);
    }

    #[test]
    fn occupancy_profile_matches_exact_law() {
        // One-sample z-tests of the untouched and the singly-hit bin
        // counts against their closed forms, at collision's first
        // `batch-sweep` round (k = h = 10⁷) and a smaller later one.
        // With q_r = (1 − r/k)^h:
        //   E[c0] = k·q_1,            Var c0 = k(k−1)·q_2 + E[c0] − E[c0]²,
        //   E[c1] = h·q_1/(1 − 1/k),
        //   Var c1 = h(h−1)(k−1)/k · q_2/(1 − 2/k)² + E[c1] − E[c1]².
        let reps = 20_000u32;
        let mut profile = OccupancyProfile::default();
        for (k, h) in [(10_000_000u64, 10_000_000u64), (10_000_000, 2_960_000)] {
            let mut rng = SplitMix64::new(k ^ h);
            let mut sums = [0.0f64; 2];
            for _ in 0..reps {
                occupancy_profile(k, h, &mut profile, &mut rng);
                let cells = profile.cells();
                assert_eq!(cells.iter().map(|&(_, c)| c).sum::<u64>(), k);
                assert_eq!(cells.iter().map(|&(j, c)| u64::from(j) * c).sum::<u64>(), h);
                for &(j, c) in cells.iter().take_while(|&&(j, _)| j < 2) {
                    sums[j as usize] += c as f64;
                }
            }
            let (kf, hf) = (k as f64, h as f64);
            let q = |r: f64| (hf * (-r / kf).ln_1p()).exp();
            let e0 = kf * q(1.0);
            let v0 = kf * (kf - 1.0) * q(2.0) + e0 - e0 * e0;
            let e1 = hf * q(1.0) / (1.0 - 1.0 / kf);
            let v1 = hf * (hf - 1.0) * (kf - 1.0) / kf * q(2.0) / (1.0 - 2.0 / kf).powi(2) + e1
                - e1 * e1;
            for (j, (e, v)) in [(e0, v0), (e1, v1)].into_iter().enumerate() {
                let mean = sums[j] / f64::from(reps);
                let z = (mean - e) / (v / f64::from(reps)).sqrt();
                assert!(
                    z.abs() < 5.0,
                    "k={k} h={h}: E[c{j}] {mean:.1} vs exact {e:.1} (z = {z:.2})"
                );
            }
        }
    }

    #[test]
    fn hazard_walks_stay_bounded_at_giant_scale() {
        // At k = h = 2²⁷ every profile stays within the Poisson chain's
        // reach, `λ + tail_reach(λ)` multiplicities: a straggler cell
        // near h would cost every caller an O(h) walk per round.
        let mut profile = OccupancyProfile::default();
        for seed in 0..20u64 {
            let mut rng = SplitMix64::new(seed);
            occupancy_profile(1 << 27, 1 << 27, &mut profile, &mut rng);
            let cells = profile.cells();
            let top = cells.last().expect("a profile has cells").0;
            assert!(
                f64::from(top) <= 1.0 + tail_reach(1.0),
                "seed {seed}: profile reaches multiplicity {top}"
            );
            assert_eq!(cells.iter().map(|&(_, c)| c).sum::<u64>(), 1 << 27);
            let consumed: u64 = cells.iter().map(|&(j, c)| u64::from(j) * c).sum();
            assert_eq!(consumed, 1 << 27);
        }
        // A whole capped placement at the same scale: one class, n
        // balls under bound 2 — the shape that stalled the old scatter.
        let mut hist = OccupancyHistogram::new(1 << 27);
        let mut rng = SplitMix64::new(7);
        let n = 1u64 << 27;
        let stats = place_histogram_below(&mut hist, Some(2), n, &mut rng);
        hist.check_invariants();
        assert_eq!(total_balls(&hist), n);
        assert!(stats.samples >= n);
    }
}
