//! The occupancy-histogram engine ([`Engine::Histogram`]).
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
//! *round* throws all `left` remaining balls at the open bins frozen at
//! round start — exactly the level-batched argument: in the faithful
//! sample stream these are the next `left` hits on the round-start open
//! set, hits beyond a bin's remaining capacity are rejections, and the
//! rejected overflow re-enters the next round. The difference is where
//! the hits land:
//!
//! 1. the round's hits split over the occupancy *classes* with a chain
//!    of conditional binomials (one draw per distinct load, not per
//!    bin);
//! 2. within a class of `c` exchangeable bins receiving `h` hits, the
//!    per-bin hit multiplicities are resolved by `scatter_class`:
//!    exactly for small classes (`c ≤ 64`: per-bin binomial chain) and
//!    small intakes (`h ≤ 64`: per-hit collision walk), and for large
//!    classes by *occupancy-cell sampling* — the number of bins with
//!    exactly `j` hits is drawn as `Binomial(c_rem, pmf_j/tail_j)` of
//!    the exact `Bin(h, 1/c)` marginal (an exact multinomial over that
//!    marginal), followed by a proportional single-level repair of the
//!    sum drift so mass conservation and the capacity bound hold
//!    surely.
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
//! is the `t = ∞` threshold rule (no bin ever closes, a single round
//! places everything).
//!
//! # What is and is not preserved
//!
//! *Final loads*: exact in distribution for `greedy[d]` at every size,
//! for every per-ball tail, and for every scatter below the exact-path
//! thresholds; the large-class cell sampling and the wide conditional
//! splits (rounded-normal above a variance floor) are moment-exact
//! approximations — expected cell counts sit at their exact marginals,
//! mass conservation and the `⌈m/n⌉+1` capacity bound hold surely —
//! whose residual error the chi-square suite in
//! `tests/histogram_equivalence.rs` bounds against the faithful engine.
//! *Bin identities*: synthetic — and **lazy**: a no-observer run
//! returns the histogram itself plus a reconstruction seed
//! ([`crate::loads::Loads`]), and a concrete vector is only built if a
//! caller demands per-bin loads (uniform seeded assignment; the
//! faithful law is exchangeable, so the reconstructed vector has the
//! correct joint distribution to the extent the histogram does). Runs
//! with a stage-trace observer materialize eagerly through one seeded
//! permutation so bin identities stay consistent across the trace.
//! *Total samples*: a
//! CLT-faithful negative-binomial draw per round, exact geometrics on
//! the tail, exactly `d·m` / `m` for `greedy[d]` / `one-choice`.
//! *Per-ball events*: `Observer::on_ball` never fires; stage traces fire
//! exactly when the observer wants them (segments cap at stage
//! boundaries, like the level-batched driver).

use crate::level_batched::{BatchStats, ThresholdSchedule};
use crate::protocol::{Observer, Outcome, RunConfig};
use crate::scenario::Scenario;
use bib_rng::dist::{BinomialSampler, Distribution, GeometricSampler};
use bib_rng::{Rng64, RngExt, SeedSequence, SplitMix64};
use std::collections::VecDeque;

/// Below this many remaining balls a batched round stops paying for its
/// fixed `O(#levels)` cost and the exact per-ball tail takes over.
const ROUND_CUTOFF: u64 = 32;

/// Multiplicity groups of at most this many bins are assigned to their
/// levels one bin at a time (exact sequential hypergeometric); larger
/// groups run the level chain, whose draws amortise over the group.
const PER_HIT_SPLIT: u64 = 8;

/// Classes with at most this many bins scatter their hits with an exact
/// per-bin binomial chain, so small runs never touch the approximate
/// cell sampling (the small-case equivalence tests rely on this).
const EXACT_BINS: u64 = 64;

/// Intakes of at most this many hits scatter with an exact per-hit
/// collision walk when the class is small; for large classes the
/// occupancy-cell walk is cheaper once the intake passes a few hits, so
/// the per-hit path only covers intakes short enough to beat it.
const EXACT_HITS: u64 = 64;

/// Conditional-split binomials with variance `n·p·(1−p)` at or above
/// this switch to a rounded-normal draw (mean exact, distributional
/// error `O(1/√var)`, bias-free — validated by the chi-square suite),
/// capping the `O(√var)` cost of the mode-centred inversion on the
/// per-stage hot path.
const SPLIT_NORMAL_VAR: f64 = 4.0;

/// Exact-summation ceiling for the negative-binomial allocation-time
/// draw of a round; larger rounds use the CLT limit. Lower than the
/// level-batched engine's ceiling because this engine runs several
/// small rounds per adaptive stage and their geometric sums would
/// dominate the collapsed hot path.
const SAMPLES_EXACT_CUTOFF: u64 = 32;

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
/// [`SPLIT_NORMAL_VAR`]. Shared with the weight-class engine's
/// cross-class intake splits and the parallel round-occupancy engine's
/// open-set request splits.
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
/// summing to `bins`. A conditional binomial chain over the pmf (exact
/// multinomial over the marginal): the bins at `k` are
/// `split_binomial(rest, P[K = k] / P[K ≥ k])`.
///
/// The pmf is seeded as `trials · ln(1 − p)` and carried in log space
/// until it surfaces above `1e-290` — the same seeding as the hazard
/// walks — so heavy `trials` do not underflow `P[K = 0]` to zero and
/// dump the whole class into `k = trials`. While the pmf is still
/// submerged no bin can land (the true mass there is below `1e-290`
/// per bin), so those levels cost no draw.
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
    let mut ln_pmf = trials as f64 * (-p).ln_1p();
    let mut pmf = ln_pmf.exp();
    let mut log_mode = pmf < 1e-290;
    let mut tail = 1.0f64; // P[K ≥ k]
    let mut rem = bins;
    for k in 0..=trials {
        if rem == 0 {
            break;
        }
        let x = if k == trials || tail <= pmf {
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
        let ratio = (trials - k) as f64 / (k + 1) as f64 * odds;
        if log_mode {
            ln_pmf += ratio.ln();
            pmf = ln_pmf.exp();
            log_mode = pmf < 1e-290;
        } else {
            pmf *= ratio;
        }
    }
}

/// Total uniform-stream samples consumed to obtain `hits` hits on an
/// accepting set of probability `p`: the level-batched engine's
/// negative-binomial construction at this engine's exact-sum ceiling.
fn round_samples<R: Rng64 + ?Sized>(hits: u64, p: f64, rng: &mut R) -> u64 {
    crate::level_batched::stream_samples_for_hits_bounded(hits, p, SAMPLES_EXACT_CUTOFF, rng)
}

/// Guaranteed stopping level for the hazard walks over a `Bin(h, 1/c)`
/// marginal: the true mass beyond `λ + 40√λ + 64` is below `e⁻³⁰⁰`, so
/// parking the stragglers there is the same approximation the
/// `tail < 1e-12` exhaustion break makes — but it triggers *surely*.
/// The exhaustion break alone is fragile: float error in the seeded
/// pmf floors the walked tail at the seed's relative error, and when
/// that floor sits above the cutoff the stragglers ride `j` all the
/// way to `h` — an O(h) walk plus an O(h) cells vector for the drift
/// repair to crawl, which at `n = 2²⁷` turned sub-millisecond rounds
/// into minutes.
fn park_level(c: u64, h: u64) -> u64 {
    let lambda = h as f64 / c as f64;
    ((lambda + 40.0 * lambda.max(1.0).sqrt() + 64.0) as u64).min(h)
}

/// Scatters `h` uniform hits over one occupancy class of `c`
/// exchangeable bins at load `l`, each with remaining capacity `cap`
/// (`None` = unbounded), updating the histogram and returning the
/// number of balls kept (the rest is overflow for the next round).
fn scatter_class<R: Rng64 + ?Sized>(
    hist: &mut OccupancyHistogram,
    l: u32,
    c: u64,
    h: u64,
    cap: Option<u32>,
    hit_scratch: &mut Vec<u64>,
    rng: &mut R,
) -> u64 {
    debug_assert!(c > 0);
    if h == 0 {
        return 0;
    }
    let keep_of = |hits: u64| -> u64 { cap.map_or(hits, |q| hits.min(q as u64)) };
    if c == 1 {
        let keep = keep_of(h);
        hist.promote(l, 1, keep as u32);
        return keep;
    }
    if h <= EXACT_HITS {
        // Exact per-hit collision walk: each hit lands on a specific
        // already-hit bin w.p. 1/c, so indexing the hit bins 0.. and
        // drawing a uniform in 0..c reproduces the multinomial exactly.
        let hit_counts = hit_scratch;
        hit_counts.clear();
        for _ in 0..h {
            let r = rng.range_u64(c);
            if (r as usize) < hit_counts.len() {
                hit_counts[r as usize] += 1;
            } else {
                hit_counts.push(1);
            }
        }
        // Group the promotes by jump size: most hit bins share a small
        // keep count, and one grouped promote per distinct jump beats a
        // per-bin promote on the hot path.
        let mut kept = 0u64;
        let mut jumps = [0u64; 8];
        for &x in hit_counts.iter() {
            let keep = keep_of(x);
            kept += keep;
            if keep > 0 && (keep as usize) < jumps.len() {
                jumps[keep as usize] += 1;
            } else if keep > 0 {
                hist.promote(l, 1, keep as u32);
            }
        }
        for (jump, &bins) in jumps.iter().enumerate().skip(1) {
            hist.promote(l, bins, jump as u32);
        }
        return kept;
    }
    if c <= EXACT_BINS {
        // Exact multinomial as a chain of per-bin conditional binomials.
        let mut rem_h = h;
        let mut kept = 0u64;
        let mut jumps = [0u64; 8];
        for i in 0..c {
            if rem_h == 0 {
                break;
            }
            let rem_bins = c - i;
            let x = if rem_bins == 1 {
                rem_h
            } else {
                BinomialSampler::new(rem_h, 1.0 / rem_bins as f64).sample(rng)
            };
            rem_h -= x;
            let keep = keep_of(x);
            kept += keep;
            if keep > 0 && (keep as usize) < jumps.len() {
                jumps[keep as usize] += 1;
            } else if keep > 0 {
                hist.promote(l, 1, keep as u32);
            }
        }
        for (jump, &bins) in jumps.iter().enumerate().skip(1) {
            hist.promote(l, bins, jump as u32);
        }
        return kept;
    }

    if cap == Some(1) {
        // Saturated top level: every hit bin keeps exactly one ball, so
        // the scatter collapses to the *distinct-bin count* `D` —
        // promote `D` bins one level, return `D` (this path only fires
        // above the exact-path thresholds, where the distinct-count
        // draw takes its moment-matched closed form; it is an order of
        // magnitude cheaper than the cell walk on the hot top level
        // where most hits land).
        let d = distinct_hit_count(c, h, rng);
        hist.promote(l, d, 1);
        return d;
    }
    // Occupancy-cell sampling. Each bin's hit count is marginally
    // `Bin(h, 1/c)`; drawing cell `j` as `Binomial(c_rem, pmf_j/tail_j)`
    // makes `(N_0, N_1, …)` an exact multinomial over that marginal —
    // the occupancy of `c` *independent* `Bin(h, 1/c)` counts. The
    // neglected negative correlation (the true counts sum to `h`
    // exactly) appears as a small drift of `Σ j·N_j` around `h`; the
    // repair below moves bins between *adjacent* cells at the
    // distribution's mode, where a one-level shift is deep inside the
    // bulk — truncating or padding the tail instead would visibly
    // distort max-load statistics. Residual error is `O(1/c)` on second
    // moments, and only this path (`c > 64`, `h > 64`) carries it.
    let cells = hit_scratch;
    cells.clear();
    let mut c_rem = c;
    let mut lump = 0u64; // capped classes: bins with ≥ q hits, keep q each
                         // pmf of Bin(h, 1/c) at j, advanced by the recurrence
                         // pmf(j+1) = pmf(j) · (h−j) / ((j+1)·(c−1)). The heavy regimes
                         // start with pmf(0) = (1−1/c)^h in deep underflow, so the walk
                         // carries the pmf in log space until it surfaces, then switches to
                         // the two-flop linear recurrence for the bulk of the levels.
                         // (1−1/c)^h is seeded through the log: powi's relative error grows
                         // like h·ε, which past h ≈ 10⁸ can leave the walked tail floored
                         // *above* the exhaustion cutoff so the break never fires.
    let mut ln_pmf = h as f64 * (-1.0 / c as f64).ln_1p();
    let mut pmf = ln_pmf.exp();
    let mut log_mode = pmf < 1e-290;
    let mut tail = 1.0f64; // P(X ≥ j)
    let j_park = park_level(c, h);
    while c_rem > 0 {
        let j = cells.len() as u64;
        if cap.is_some_and(|q| q as u64 == j) {
            lump = c_rem;
            break;
        }
        if j >= j_park || tail < 1e-12 {
            // The walked tail mass is numerically exhausted; park the
            // stragglers at the current level (the repair below keeps
            // total mass exact).
            cells.push(c_rem);
            break;
        }
        let hazard = if tail <= pmf {
            1.0
        } else {
            (pmf / tail).clamp(0.0, 1.0)
        };
        let nj = if hazard == 0.0 {
            0
        } else {
            split_binomial(c_rem, hazard, rng)
        };
        cells.push(nj);
        c_rem -= nj;
        tail = (tail - pmf).max(0.0);
        let num = (h - j) as f64;
        let den = (j + 1) as f64 * (c - 1) as f64;
        if log_mode {
            ln_pmf += num.ln() - den.ln();
            pmf = ln_pmf.exp();
            log_mode = pmf < 1e-290;
        } else {
            pmf *= num / den;
        }
    }

    let consumed = |cells: &[u64], lump: u64| -> u64 {
        let q = cap.map_or(0, |q| q as u64);
        cells
            .iter()
            .enumerate()
            .map(|(j, &nj)| j as u64 * nj)
            .sum::<u64>()
            + q * lump
    };
    // Repair target. Unbounded classes keep every ball, so the cells
    // must consume exactly `h`. Capped classes keep
    // `h − Σ_bins (X−q)⁺`; the cells only resolve hit counts up to the
    // lump, so the overflow is estimated as `lump · E[(X−q)⁺ | X ≥ q]`
    // from the same pmf recurrence (conditioning on the *drawn* lump
    // keeps the estimate consistent: no capped bin ⇒ no overflow,
    // surely). Repairing toward the target in *both* directions is what
    // keeps the re-throw mass unbiased — clipping only the impossible
    // `consumed > h` side would systematically inflate the overflow by
    // the positive part of the drift, which showed up as a ~1% excess
    // in allocation time before this estimate existed.
    let target = match cap {
        None => h,
        Some(q) => {
            if lump == 0 {
                h // no bin reached the cap: every ball was kept, surely
            } else {
                // E[(X−q)⁺ | X ≥ q]: extend the recurrence past the cap
                // (pure float work, no draws). `pmf`/`tail` sit at j = q
                // when the lump branch exits the cell loop.
                let lambda = h as f64 / c as f64;
                let mut e_tail = 0.0f64;
                let mut p = pmf;
                let mut jj = q as u64;
                while jj < h {
                    let num = (h - jj) as f64;
                    let den = (jj + 1) as f64 * (c - 1) as f64;
                    p *= num / den;
                    jj += 1;
                    let term = (jj - q as u64) as f64 * p;
                    e_tail += term;
                    if jj as f64 > lambda && term < 1e-5 * (1.0 + e_tail) {
                        break;
                    }
                }
                let e_cond = if tail > 1e-12 { e_tail / tail } else { 0.0 };
                let overflow_est = (lump as f64 * e_cond).round() as u64;
                h - overflow_est.min(h)
            }
        }
    };
    // A capped class can physically hold at most c·q (rescues the
    // λ ≫ q corner where the pmf extension underflows).
    let target = target.min(cap.map_or(u64::MAX, |q| c.saturating_mul(q as u64)));
    // Repair the drift with single-level moves apportioned
    // *proportionally* over the donor cells (a conditional-binomial
    // chain, like the intake splits): every bin is equally likely to be
    // the one nudged, so no cell — in particular not the N₀ cell, which
    // the untouched-bin statistics read — absorbs the correction
    // preferentially, and the expected cell counts stay at their exact
    // marginals.
    let mut d = consumed(cells, lump) as i128 - target as i128;
    while d > 0 {
        let lump_size = if cap.is_some() { lump } else { 0 };
        let mut pool: u64 = cells[1..].iter().sum::<u64>() + lump_size;
        debug_assert!(pool > 0, "occupancy repair: no donors above the target");
        if pool == 0 {
            break;
        }
        let mut want = (d as u128).min(pool as u128) as u64;
        d -= want as i128;
        if want <= 8 {
            // The typical drift is a handful of balls: single moves with
            // one uniform donor pick each (still ∝ cell sizes) beat the
            // binomial-chain pass by an order of magnitude.
            while want > 0 {
                let mut r = rng.range_u64(pool);
                let mut placed = false;
                for i in 1..cells.len() {
                    if r < cells[i] {
                        cells[i] -= 1;
                        cells[i - 1] += 1;
                        placed = true;
                        break;
                    }
                    r -= cells[i];
                }
                if !placed {
                    debug_assert!(lump > 0);
                    lump -= 1;
                    let q = cap.expect("the lump donor exists only under a capped rule") as usize;
                    if cells.len() < q {
                        cells.resize(q, 0);
                    }
                    cells[q - 1] += 1;
                }
                pool -= 1;
                want -= 1;
            }
            continue;
        }
        // Ascending apply is safe: cell i−1 has already donated before
        // it receives from cell i.
        for i in 1..cells.len() {
            if want == 0 {
                break;
            }
            let mi = if pool == cells[i] {
                want
            } else {
                split_binomial(want, cells[i] as f64 / pool as f64, rng)
            }
            .min(cells[i]);
            pool -= cells[i];
            cells[i] -= mi;
            cells[i - 1] += mi;
            want -= mi;
        }
        if want > 0 && lump_size > 0 {
            // The remainder was apportioned to the ≥q lump.
            let q = cap.expect("a non-empty lump implies a capped rule") as usize;
            let mi = want.min(lump);
            lump -= mi;
            if cells.len() < q {
                cells.resize(q, 0);
            }
            cells[q - 1] += mi;
            want -= mi;
        }
        if want > 0 {
            // A pass can stall on clamped draws; finish the remainder
            // from the fullest donor so the loop surely terminates.
            if let Some(i) = (1..cells.len())
                .filter(|&i| cells[i] > 0)
                .max_by_key(|&i| cells[i])
            {
                let mi = want.min(cells[i]);
                cells[i] -= mi;
                cells[i - 1] += mi;
                want -= mi;
            }
        }
        d += want as i128; // anything unplaceable goes back into the deficit
    }
    while d < 0 {
        let mut pool: u64 = cells.iter().sum();
        if pool == 0 {
            break; // everything already sits at the cap lump
        }
        let mut want = ((-d) as u128).min(pool as u128) as u64;
        d += want as i128;
        if want <= 8 {
            // Single-move fast path, mirroring the down-move repair.
            while want > 0 {
                let mut r = rng.range_u64(pool);
                for i in 0..cells.len() {
                    if r < cells[i] {
                        cells[i] -= 1;
                        if cap.is_some_and(|q| i as u32 + 1 == q) {
                            lump += 1;
                        } else {
                            if i + 1 == cells.len() {
                                cells.push(0);
                            }
                            cells[i + 1] += 1;
                        }
                        break;
                    }
                    r -= cells[i];
                }
                pool -= 1;
                want -= 1;
            }
            continue;
        }
        // Descending apply: cell i+1 has already donated before it
        // receives from cell i. For capped classes the move out of cell
        // q−1 lands in the ≥q lump (one more kept ball each, same as
        // any other single-level move).
        for i in (0..cells.len()).rev() {
            if want == 0 {
                break;
            }
            pool -= cells[i];
            let mi = if pool == 0 {
                want
            } else {
                split_binomial(want, cells[i] as f64 / (pool + cells[i]) as f64, rng)
            }
            .min(cells[i]);
            if mi > 0 {
                cells[i] -= mi;
                if cap.is_some_and(|q| i as u32 + 1 == q) {
                    lump += mi;
                } else {
                    if i + 1 == cells.len() {
                        cells.push(0);
                    }
                    cells[i + 1] += mi;
                }
                want -= mi;
            }
        }
        if want > 0 {
            // Stalled-pass fallback, mirroring the down-move repair.
            if let Some(i) = (0..cells.len())
                .filter(|&i| cells[i] > 0)
                .max_by_key(|&i| cells[i])
            {
                let mi = want.min(cells[i]);
                cells[i] -= mi;
                if cap.is_some_and(|q| i as u32 + 1 == q) {
                    lump += mi;
                } else {
                    if i + 1 == cells.len() {
                        cells.push(0);
                    }
                    cells[i + 1] += mi;
                }
                want -= mi;
            }
        }
        d -= want as i128;
    }

    let mut kept = 0u64;
    for (j, &nj) in cells.iter().enumerate() {
        kept += j as u64 * nj;
        hist.promote(l, nj, j as u32);
    }
    if lump > 0 {
        let q = cap.expect("promoted lump bins exist only under a capped rule");
        kept += q as u64 * lump;
        hist.promote(l, lump, q);
    }
    debug_assert!(kept <= h);
    kept
}

/// One batched round: throws `thrown` balls uniformly over the bins
/// open under `t` at round start, splitting the intake across occupancy
/// classes with conditional binomials. Returns the number of balls kept
/// (the overflow re-enters the caller's loop). Shared with the
/// weight-class engine in [`crate::weighted`], which runs one such
/// round per weight class.
pub(crate) fn round_uniform<R: Rng64 + ?Sized>(
    hist: &mut OccupancyHistogram,
    t: Option<u32>,
    thrown: u64,
    scratch: &mut Vec<(u32, u64)>,
    hit_scratch: &mut Vec<u64>,
    rng: &mut R,
) -> u64 {
    // Snapshot the open classes *descending* by load: the mass piles up
    // just below the bound. (Descending is promote-safe: scatters only
    // move bins upward, so a class's count still equals its snapshot
    // when its turn comes.)
    scratch.clear();
    let mut k = 0u64;
    let top = match t {
        Some(t) => {
            if t <= hist.base {
                0
            } else {
                ((t - hist.base) as usize).min(hist.counts.len())
            }
        }
        None => hist.counts.len(),
    };
    for i in (0..top).rev() {
        let c = hist.counts[i];
        if c > 0 {
            scratch.push((hist.base + i as u32, c));
            k += c;
        }
    }
    debug_assert!(k > 0, "round_uniform: no open bin");

    if thrown == 0 {
        return 0;
    }
    // Small cases take the exact per-level route (chain of conditional
    // binomials + scatter_class, which is fully exact below its own
    // thresholds) — the global-occupancy fast path below only fires in
    // the approximate regime it shares with the cell walk.
    if k <= EXACT_BINS || thrown <= EXACT_HITS || scratch.len() == 1 {
        let mut rem_hits = thrown;
        let mut rem_bins = k;
        let mut kept = 0u64;
        for &(l, c) in scratch.iter() {
            if rem_hits == 0 {
                break;
            }
            let h = if rem_bins == c {
                rem_hits
            } else {
                split_binomial(rem_hits, c as f64 / rem_bins as f64, rng)
            };
            rem_hits -= h;
            rem_bins -= c;
            let cap = t.map(|t| t - l);
            kept += scatter_class(hist, l, c, h, cap, hit_scratch, rng);
        }
        return kept;
    }

    // Global-occupancy route: resolve the hit multiplicities once over
    // the *whole* open set (`cells[j]` = bins receiving exactly `j`
    // hits, drawn by the same hazard walk the per-level scatter uses),
    // then place each multiplicity group across the levels with a
    // without-replacement (hypergeometric) chain. Equivalent
    // decomposition of the same multinomial, but the per-round cost
    // drops from O(levels · cells) draws to O(levels + cells): with the
    // adaptive lag distribution spanning ~log n levels this is the
    // difference between the engine being level-bound and hit-bound.
    let cells = hit_scratch;
    draw_occupancy_cells(k, thrown, cells, rng);
    let mut kept = 0u64;
    // Remaining unassigned bins per level (parallel to `scratch`).
    let mut rem_total = k;
    // j descending so the small multiplicity groups (per-hit exact
    // assignment) run first only if... order is irrelevant for the
    // sequential conditioning; descending keeps the big j==1 group last
    // so its chain sees the true remaining counts.
    for j in (1..cells.len()).rev() {
        let nj = cells[j];
        if nj == 0 {
            continue;
        }
        let keep_at = |cap: Option<u32>| -> u64 {
            match cap {
                None => j as u64,
                Some(q) => (j as u64).min(q as u64),
            }
        };
        if nj <= PER_HIT_SPLIT {
            // Assign each multi-hit bin its level directly, without
            // replacement (exact).
            for _ in 0..nj {
                let mut r = rng.range_u64(rem_total);
                for &mut (l, ref mut c) in scratch.iter_mut() {
                    if r < *c {
                        let cap = t.map(|t| t - l);
                        let keep = keep_at(cap) as u32;
                        hist.promote(l, 1, keep);
                        kept += keep as u64;
                        *c -= 1;
                        rem_total -= 1;
                        break;
                    }
                    r -= *c;
                }
            }
            continue;
        }
        // Hypergeometric chain over the levels: level i receives
        // H_i ~ Hypergeom(rem_total, c_i, nj_rem), drawn as a
        // rounded-normal with the exact mean and finite-population
        // variance, clamped to the support (the same moment-exact
        // approximation family as the cell walk; nj > PER_HIT_SPLIT
        // keeps the normal regime honest).
        let mut nj_rem = nj;
        let mut pool = rem_total;
        #[allow(clippy::needless_range_loop)] // scratch[idx] is mutated below
        for idx in 0..scratch.len() {
            if nj_rem == 0 {
                break;
            }
            let (l, c) = scratch[idx];
            if c == 0 {
                continue;
            }
            let h_i = if pool == c {
                nj_rem.min(c)
            } else {
                let f = c as f64 / pool as f64;
                let mean = nj_rem as f64 * f;
                let fpc = (pool - nj_rem) as f64 / (pool - 1).max(1) as f64;
                let var = mean * (1.0 - f) * fpc;
                let lo = nj_rem.saturating_sub(pool - c);
                let hi = nj_rem.min(c);
                if var < SPLIT_NORMAL_VAR {
                    // Narrow split: an exact binomial draw (the
                    // without-replacement correction is within the
                    // clamp) keeps the randomness a rounded mean would
                    // destroy — deterministic rounding here starves
                    // low-count levels of promotions forever.
                    split_binomial(nj_rem, f, rng).clamp(lo, hi)
                } else {
                    let draw = (mean + var.sqrt() * cheap_std_normal(rng)).round();
                    ((draw.max(0.0)) as u64).clamp(lo, hi)
                }
            };
            if h_i > 0 {
                let cap = t.map(|t| t - l);
                let keep = keep_at(cap) as u32;
                hist.promote(l, h_i, keep);
                kept += keep as u64 * h_i;
                scratch[idx].1 -= h_i;
                rem_total -= h_i;
                nj_rem -= h_i;
            }
            pool -= c;
        }
        debug_assert!(nj_rem == 0, "hypergeometric chain left bins unassigned");
    }
    kept
}

/// Draws the occupancy pattern of `h` uniform hits over `k`
/// exchangeable bins: `cells[j]` = number of bins receiving exactly `j`
/// hits. The same hazard walk over the `Bin(h, 1/k)` marginal as the
/// capped per-level scatter, with the drift of `Σ j·cells[j]` repaired
/// toward exactly `h` by proportional single-level moves (no caps here:
/// capping happens level-wise in the caller).
fn draw_occupancy_cells<R: Rng64 + ?Sized>(k: u64, h: u64, cells: &mut Vec<u64>, rng: &mut R) {
    cells.clear();
    let mut c_rem = k;
    // Seeded through the log for the same h·ε-error reason as
    // [`scatter_class`]; [`park_level`] bounds the walk even when the
    // tail floor sits above the exhaustion cutoff.
    let mut ln_pmf = h as f64 * (-1.0 / k as f64).ln_1p();
    let mut pmf = ln_pmf.exp();
    let mut log_mode = pmf < 1e-290;
    let mut tail = 1.0f64;
    let j_park = park_level(k, h);
    while c_rem > 0 {
        let j = cells.len() as u64;
        if j >= j_park || tail < 1e-12 {
            cells.push(c_rem);
            break;
        }
        let hazard = if tail <= pmf {
            1.0
        } else {
            (pmf / tail).clamp(0.0, 1.0)
        };
        let nj = if hazard == 0.0 {
            0
        } else {
            split_binomial(c_rem, hazard, rng)
        };
        cells.push(nj);
        c_rem -= nj;
        tail = (tail - pmf).max(0.0);
        let num = (h - j) as f64;
        let den = (j + 1) as f64 * (k - 1) as f64;
        if log_mode {
            ln_pmf += num.ln() - den.ln();
            pmf = ln_pmf.exp();
            log_mode = pmf < 1e-290;
        } else {
            pmf *= num / den;
        }
    }
    // Repair Σ j·cells[j] toward exactly h with single-level moves
    // apportioned proportionally over the donor cells.
    let consumed = |cells: &[u64]| -> u64 {
        cells
            .iter()
            .enumerate()
            .map(|(j, &nj)| j as u64 * nj)
            .sum::<u64>()
    };
    let mut d = consumed(cells) as i128 - h as i128;
    while d > 0 {
        let mut pool: u64 = cells[1..].iter().sum();
        if pool == 0 {
            break;
        }
        let mut want = (d as u128).min(pool as u128) as u64;
        d -= want as i128;
        if want > 16 {
            // Proportional chain pass: one conditional binomial per
            // donor cell moves the bulk of the drift in O(cells) draws
            // (the typical drift is Θ(√h) — per-move repair would put a
            // √h · cells term on every round).
            for i in 1..cells.len() {
                if want == 0 {
                    break;
                }
                let mi = if pool == cells[i] {
                    want
                } else {
                    split_binomial(want, cells[i] as f64 / pool as f64, rng)
                }
                .min(cells[i]);
                pool -= cells[i];
                cells[i] -= mi;
                cells[i - 1] += mi;
                want -= mi;
            }
            pool = cells[1..].iter().sum();
        }
        while want > 0 && pool > 0 {
            let mut r = rng.range_u64(pool);
            for i in 1..cells.len() {
                if r < cells[i] {
                    cells[i] -= 1;
                    cells[i - 1] += 1;
                    break;
                }
                r -= cells[i];
            }
            pool -= 1;
            want -= 1;
        }
        d += want as i128;
    }
    while d < 0 {
        let mut pool: u64 = cells.iter().sum();
        if pool == 0 {
            break;
        }
        let mut want = ((-d) as u128).min(pool as u128) as u64;
        d += want as i128;
        if want > 16 {
            // Descending apply: cell i+1 has already donated before it
            // receives from cell i.
            for i in (0..cells.len()).rev() {
                if want == 0 {
                    break;
                }
                pool -= cells[i];
                let mi = if pool == 0 {
                    want
                } else {
                    split_binomial(want, cells[i] as f64 / (pool + cells[i]) as f64, rng)
                }
                .min(cells[i]);
                if mi > 0 {
                    cells[i] -= mi;
                    if i + 1 == cells.len() {
                        cells.push(0);
                    }
                    cells[i + 1] += mi;
                    want -= mi;
                }
            }
            pool = cells.iter().sum();
        }
        while want > 0 && pool > 0 {
            let mut r = rng.range_u64(pool);
            for i in 0..cells.len() {
                if r < cells[i] {
                    cells[i] -= 1;
                    if i + 1 == cells.len() {
                        cells.push(0);
                    }
                    cells[i + 1] += 1;
                    break;
                }
                r -= cells[i];
            }
            pool -= 1;
            want -= 1;
        }
        d -= want as i128;
    }
}

/// Draws the *occupancy profile* of `hits` uniform throws over `bins`
/// exchangeable bins: on return `cells[j]` = number of bins receiving
/// exactly `j` throws (`Σ cells[j] = bins`, `Σ j·cells[j] = hits`,
/// surely).
///
/// This is the multiplicity-profile primitive of the engines that batch
/// a whole round of uniform contacts at once — the sequential histogram
/// engine's global-occupancy route and the parallel round-occupancy
/// engine (collision / bounded-load / parallel-greedy), which resolves
/// acceptance per multiplicity class instead of per contact.
///
/// Exactness regimes: `hits ≤ 64` runs the exact per-hit collision walk
/// (each throw lands on an already-hit bin with probability
/// `#hit/bins`), so small cases are *exactly* multinomial; larger
/// intakes run the hazard walk over the `Bin(hits, 1/bins)` marginal
/// with proportional drift repair — a moment-exact approximation whose
/// residual error the equivalence suites bound. Cost is
/// `O(max multiplicity)` draws, independent of `bins` and `hits`.
pub fn occupancy_profile<R: Rng64 + ?Sized>(
    bins: u64,
    hits: u64,
    cells: &mut Vec<u64>,
    rng: &mut R,
) {
    assert!(bins > 0, "occupancy_profile: need at least one bin");
    if hits == 0 {
        cells.clear();
        cells.push(bins);
        return;
    }
    if bins == 1 {
        // Degenerate: the single bin takes everything. (Callers with a
        // single bin and a huge intake should special-case before the
        // dense profile, as the sequential engines do.)
        cells.clear();
        cells.resize(hits as usize + 1, 0);
        cells[hits as usize] = 1;
        cells[0] = 0;
        return;
    }
    if hits <= EXACT_HITS {
        // Exact per-hit walk: index the hit bins 0..; a throw lands on
        // hit bin `r` iff `r < #hit` (each specific bin w.p. 1/bins).
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
        let max_mult = counts[..touched].iter().copied().max().unwrap_or(0) as usize;
        cells.clear();
        cells.resize(max_mult + 1, 0);
        cells[0] = bins - touched as u64;
        for &c in &counts[..touched] {
            cells[c as usize] += 1;
        }
        return;
    }
    draw_occupancy_cells(bins, hits, cells, rng);
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
/// clamped to the sure support `[1, min(bins, hits)]`. The saturated
/// top level of [`scatter_class`] and the bounded-load round engine's
/// accepting-bin count both reduce to this draw.
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
/// rounded normal with the exact mean and variance beyond — the same
/// moment-matched family as the engines' level chains, which use this
/// to spread a multiplicity group over occupancy classes.
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
/// `block ≤ remaining`. Shared by [`OccupancyHistogram::shuffled_loads`]
/// and the parallel round engines' sharded reconstruction, so the
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
    place_histogram_below_with(hist, t, count, &mut Vec::new(), &mut Vec::new(), rng)
}

/// [`place_histogram_below`] with caller-owned scratch buffers, so a
/// driver placing one segment per stage reuses the same allocations for
/// the whole run.
fn place_histogram_below_with<R: Rng64 + ?Sized>(
    hist: &mut OccupancyHistogram,
    t: Option<u32>,
    count: u64,
    scratch: &mut Vec<(u32, u64)>,
    hit_scratch: &mut Vec<u64>,
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
        samples += round_samples(left, k as f64 / n as f64, rng);
        let kept = round_uniform(hist, t, left, scratch, hit_scratch, rng);
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
    let mut scratch: Vec<(u32, u64)> = Vec::new();
    let mut hit_scratch: Vec<u64> = Vec::new();
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
                place_histogram_below_with(&mut hist, t, count, &mut scratch, &mut hit_scratch, rng)
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

    #[test]
    fn scatter_conserves_mass_in_every_path() {
        // (c, h) pairs chosen to hit: single bin, per-hit, per-bin
        // chain, and the hazard walk.
        for (c, h, cap) in [
            (1u64, 1000u64, Some(7u32)),
            (100, 50, Some(3)),
            (50, 5000, Some(4)),
            (1000, 5000, Some(2)),
            (1000, 5000, None),
            (300, 100_000, Some(400)),
        ] {
            let mut hist = OccupancyHistogram::new(c as usize);
            let mut rng = SplitMix64::new(c ^ h);
            let kept = scatter_class(&mut hist, 0, c, h, cap, &mut Vec::new(), &mut rng);
            hist.check_invariants();
            assert!(kept <= h, "c={c} h={h}: kept {kept} > thrown {h}");
            assert!(kept >= 1);
            assert_eq!(total_balls(&hist), kept, "c={c} h={h}");
            if let Some(q) = cap {
                assert!(hist.max_load() <= q, "c={c} h={h}: cap violated");
                assert!(kept <= c * q as u64);
            } else {
                assert_eq!(kept, h, "unbounded scatter must keep everything");
            }
        }
    }

    #[test]
    fn scatter_hazard_mean_matches_exact_path() {
        // Number of untouched bins after h hits on c bins: the hazard
        // walk's level-0 count must agree in mean with the exact
        // per-bin chain, c·(1−1/c)^h.
        let (c, h) = (500u64, 800u64);
        let reps = 600;
        let expect = c as f64 * (1.0 - 1.0 / c as f64).powi(h as i32);
        let mut rng = SplitMix64::new(9);
        let mut mean = 0.0;
        for _ in 0..reps {
            let mut hist = OccupancyHistogram::new(c as usize);
            scatter_class(&mut hist, 0, c, h, None, &mut Vec::new(), &mut rng);
            mean += hist.count(0) as f64 / reps as f64;
        }
        // sd of the estimator ≈ √(c·p(1−p)/reps) ≈ 0.4
        assert!(
            (mean - expect).abs() < 2.5,
            "untouched-bin mean {mean} vs {expect}"
        );
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
    fn hazard_walks_stay_bounded_at_giant_scale() {
        // Regression: at k = h = 2²⁷ the powi-seeded pmf left the walked
        // tail floored above the 1e-12 exhaustion cutoff, and straggler
        // bins rode the walk to j = h — 2²⁷ + 1 cells and a ~3h drift
        // for the repair loop to crawl (minutes per round). The log
        // seed plus the `park_level` bound keep every walk O(λ + √λ).
        let mut cells = Vec::new();
        for seed in 0..20u64 {
            let mut rng = SplitMix64::new(seed);
            occupancy_profile(1 << 27, 1 << 27, &mut cells, &mut rng);
            assert!(
                cells.len() as u64 <= park_level(1 << 27, 1 << 27) + 1,
                "seed {seed}: walk produced {} cells",
                cells.len()
            );
            assert_eq!(cells.iter().sum::<u64>(), 1 << 27);
            let consumed: u64 = cells.iter().enumerate().map(|(j, &c)| j as u64 * c).sum();
            assert_eq!(consumed, 1 << 27);
        }
        // The capped scatter path at the same scale: one class, all of
        // stage 3's intake, threshold 4 — the exact shape that stalled.
        let mut hist = OccupancyHistogram::new(1 << 27);
        let mut rng = SplitMix64::new(7);
        let n = 1u64 << 27;
        let stats = place_histogram_below(&mut hist, Some(2), n, &mut rng);
        hist.check_invariants();
        assert_eq!(total_balls(&hist), n);
        assert!(stats.samples >= n);
    }
}
