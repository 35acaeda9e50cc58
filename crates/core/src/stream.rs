//! The streaming allocator: churn, faults, retry/backoff, graceful
//! degradation.
//!
//! Every other engine in this crate runs one-shot batch allocation.
//! This module is the long-running counterpart the ROADMAP's "online
//! allocation service" item asks for: balls *arrive and depart* over
//! virtual time (ticks), bins fail and recover mid-run, and the system
//! is judged at steady state — sustained operations per tick, the
//! gap/max-load time series, and per-placement latency tails.
//!
//! # The collapsed state
//!
//! The driver is histogram-first, like the batch histogram engine: bins
//! never exist individually, only as occupancy classes. Health
//! partitions the fleet into three [`OccupancyHistogram`]s — accepting
//! (alive + slow), draining, dead — plus a scalar count of slow bins
//! (slow bins answer correctly but late, so they stay inside the
//! accepting histogram and only change the *sample cost* of a contact,
//! never the placement law; slowness and load are independent by
//! exchangeability). An **arrival** is one placement attempt under the
//! family's law; a **departure** is a *downward split* on the occupancy
//! histogram ([`OccupancyHistogram::demote`]): each resident ball
//! departs independently with probability `depart_prob` per tick, so a
//! class of `c` bins at load `ℓ` splits multinomially over the
//! `Binomial(ℓ, p)` per-bin departure law — exact, and `O(ℓ)` per
//! class instead of `O(n)` per tick.
//!
//! # Pricing attempts: one attempt law for every tick
//!
//! Within a tick the fleet's health and size hold still. A uniform
//! contact is refused (dead or draining bin) with probability
//! `refusing / n`; otherwise it reaches a uniform accepting bin and
//! costs one sample, or two if that bin is slow (probability `slow /
//! accepting`, independent of its load by exchangeability). The bin is
//! *open* if the family takes it. An attempt places once it has found
//! `d` open contacts. The driver prices attempts with one law,
//! `AttemptLaw` (at most `budget + 3` cells: placed after `d ..=
//! budget + 1` samples, failed after `budget` or `budget + 1`). It
//! splits a group of balls over the law with an exact conditional
//! binomial chain, walking the cells by a DP over samples and open
//! contacts found only as far as the group's attempts reach. A law with
//! one cell (no refusals and no slow bins, or nothing open and no slow
//! bins) draws nothing.
//!
//! One-choice, `greedy[d]` and every fallback tick are *load-blind*:
//! every accepting bin is open (`d = 1` for one-choice and the
//! fallback), so whether an attempt places and how many samples it
//! spends do not depend on the loads. The tick's law is fixed once, and
//! the arrivals and each retry group take one split each. The `d`
//! accepting contacts of a placed ball are `d` uniform accepting bins
//! whatever the refusals before them, so for `d ≥ 2` the tick's
//! placements are then the batch engine's exact least-of-`d` rank
//! chain, [`place_least_of_d`], run on the accepting histogram: `d`
//! rank draws per ball, no draw per refused or failed contact. At
//! `d = 1` (one-choice, every fallback tick) the `K` placements are `K`
//! uniform balls over the accepting bins, which `place_uniform_rounds`
//! places in per-class Poisson rounds: every class draws its bins' hit
//! counts at one mean, redrawn while their total exceeds the balls
//! left, and the few balls a round leaves finish on the rank chain. A
//! round runs only where its walk over the Poisson levels costs less
//! than the chain, a comparison of the class count, the mean and the
//! balls left. Its one approximation is [`split_binomial`]'s rounded
//! normal above variance 4, the sampler the departures and fault moves
//! already use; it has no hypergeometric draw.
//!
//! Adaptive and threshold outside a fallback run `Below(t)` ticks: a
//! contact is open iff its load is below the bound, which depends on
//! the loads. Those ticks run on one [`RankIndex`] of the accepting
//! histogram, built after the tick's faults and written back before its
//! departures. A contact is a uniform rank over the accepting bins in
//! ascending-load order, and load is monotone in rank, so it is open iff
//! its rank is below [`RankIndex::open_below`]. A placement only raises
//! loads, so within one bound the open count never rises. The driver
//! prices a `Below(t)` tick in batches (`below_tick`). Before any ball
//! of a batch of at most `W` balls, at most `W − 1` bins have closed,
//! so the open count stays within a *strip* of `W − 1` ranks below its
//! value at the batch's start. A contact ranked below the strip is open
//! for the whole batch; one at or above the start's open count is
//! closed for it. One split over the law with the start's open count
//! prices the batch. Each placed ball is *ambiguous*
//! independently of its samples, with probability strip / open. A
//! `Geometric` draw counts the sure placements before the next ambiguous
//! one. Each sure placement lands on a uniform open bin: one rank draw,
//! its load by one guide lookup and a short walk (expected O(1)), and a
//! promote of one decrement, which keeps heavy per-bin loads (spans of
//! hundreds of levels) cheap. An ambiguous ball is settled on the live
//! index, and `place_below` finishes its attempt if its strip contact
//! turns out closed. The bound is recomputed only when the resident count
//! crosses a multiple of the accepting bins, and no batch straddles
//! that. A retry group's attempts are booked once per sample count.
//!
//! Balls waiting for a retry are kept as groups of equal history
//! (failed attempts, samples spent) with a count, so a retry group is
//! priced like the fresh arrivals. With no faults a `greedy[d]` tick
//! has a one-cell law and draws only its ranks, in the order the
//! per-contact chain would.
//!
//! # Faults, retries, shedding
//!
//! A [`FaultPlan`] is consulted at every tick boundary; the tick's
//! attempts run against the resulting class partition. A probe that
//! lands on a dead or draining bin costs the sample and forces a
//! re-draw. One placement *attempt* may spend up to
//! `probe_budget` samples; a failed attempt backs off
//! `min(2^(attempts−1), backoff_cap)` ticks (capped exponential
//! backoff in rounds) and retries, up to `retry_budget` attempts, after
//! which the ball is **shed** — counted on the
//! [`Outcome`], never silent. When the alive
//! fraction drops below `fallback_alive_frac`, multi-probe families
//! (`greedy[d]`, adaptive, threshold) **fall back** to one-choice — the
//! first accepting contact wins — trading balance for guaranteed
//! progress; every fallback placement is counted too. Degraded, never
//! wedged.
//!
//! # Determinism and observability
//!
//! The whole trajectory is a pure function of `(seed, spec, cfg)`:
//! arrivals, departures, fault splits and placements all draw from
//! seed-derived streams. Observers: the stream driver does not emit
//! per-ball [`Observer`] events (a collapsed
//! driver has no bin identities and a steady-state run has no single
//! "stage"); its observability surface is [`StreamReport`] — the
//! per-tick [`TickStats`] series and the [`LatencyTail`] histogram —
//! plus the stream counters on the final `Outcome`. The driver runs on
//! one thread and ignores `RunConfig::engine` by the documented
//! aliasing rule that the collapsed serial path *is* the stream engine.

use crate::faults::{FaultKind, FaultPlan};
use crate::histogram::{
    place_least_of_d, place_uniform_rounds, rounded_normal_count, split_binomial,
    split_binomial_counts, OccupancyHistogram, RankIndex,
};
use crate::loads::Loads;
use crate::protocol::{Observer, Outcome, Protocol, RunConfig};
use crate::scenario::{Family, Scenario};
use bib_rng::dist::{BinomialSampler, Distribution, GeometricSampler, PoissonSampler};
use bib_rng::{Rng64, RngExt, SeedSequence};

/// Retry, backoff and degradation policy of the streaming driver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Samples one placement attempt may spend before failing.
    pub probe_budget: u32,
    /// Placement attempts per ball (including the first) before the
    /// ball is shed.
    pub retry_budget: u32,
    /// Cap on the exponential backoff delay, in ticks: attempt `k`
    /// (1-based) retries after `min(2^(k−1), backoff_cap)` ticks.
    pub backoff_cap: u32,
    /// When the accepting fraction of the fleet drops below this,
    /// multi-probe families degrade to one-choice.
    pub fallback_alive_frac: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            probe_budget: 16,
            retry_budget: 4,
            backoff_cap: 8,
            fallback_alive_frac: 0.5,
        }
    }
}

/// A streaming workload: how long the run is, how balls churn, which
/// faults strike, and how placements retry.
///
/// The total *expected* arrivals come from `RunConfig::m`: arrivals per
/// tick are `Poisson(m / ticks)` (or exactly `m / ticks` with
/// deterministic arrivals), so the same `(n, m)` pair the batch engines
/// take describes the stream's scale.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSpec {
    /// Virtual time steps.
    pub ticks: u64,
    /// Per-ball per-tick departure probability.
    pub depart_prob: f64,
    /// Poisson arrivals (`true`, default) or an exact deterministic
    /// `m / ticks` split (`false`).
    pub poisson: bool,
    /// Scheduled bin faults.
    pub faults: FaultPlan,
    /// Retry/backoff/degradation policy.
    pub retry: RetryPolicy,
}

impl StreamSpec {
    /// A fault-free Poisson stream with the default retry policy.
    pub fn new(ticks: u64, depart_prob: f64) -> Self {
        assert!(ticks > 0, "a stream needs at least one tick");
        assert!(
            (0.0..=1.0).contains(&depart_prob),
            "depart_prob {depart_prob} outside [0, 1]"
        );
        Self {
            ticks,
            depart_prob,
            poisson: true,
            faults: FaultPlan::none(),
            retry: RetryPolicy::default(),
        }
    }

    /// Switches to deterministic (exactly `m / ticks` per tick)
    /// arrivals.
    pub fn deterministic(mut self) -> Self {
        self.poisson = false;
        self
    }

    /// Attaches a fault plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Overrides the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }
}

/// Cumulative per-tick stream statistics (one record per tick).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TickStats {
    /// Tick index (0-based).
    pub tick: u64,
    /// Balls resident across the whole fleet (frozen ones included).
    pub in_system: u64,
    /// Max−min load over the *accepting* bins (0 when none accept).
    pub gap: u32,
    /// Max load over the accepting bins.
    pub max_load: u32,
    /// Accepting fraction of the fleet, in parts per million (an
    /// integer so the record stays `Eq` for bit-identity tests).
    pub alive_ppm: u32,
    /// Balls placed so far (cumulative).
    pub placed: u64,
    /// Balls departed so far (cumulative).
    pub departed: u64,
    /// Balls shed so far (cumulative).
    pub shed: u64,
    /// Fallback placements so far (cumulative).
    pub fallbacks: u64,
    /// Samples drawn so far (cumulative).
    pub samples: u64,
}

/// Per-placement latency (samples per placed ball) as a saturating
/// histogram: cell `k` counts balls that needed `k+1` samples, the last
/// cell "that many or more".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyTail {
    buckets: Vec<u64>,
    count: u64,
}

impl LatencyTail {
    const CELLS: usize = 64;

    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: vec![0; Self::CELLS],
            count: 0,
        }
    }

    /// Records one placed ball that needed `samples` (≥ 1) samples.
    pub fn record(&mut self, samples: u64) {
        self.record_n(samples, 1);
    }

    /// Records `balls` placed balls that each needed `samples` (≥ 1)
    /// samples, as `balls` calls of [`LatencyTail::record`] would.
    pub fn record_n(&mut self, samples: u64, balls: u64) {
        let idx = ((samples.max(1) - 1) as usize).min(Self::CELLS - 1);
        self.buckets[idx] += balls;
        self.count += balls;
    }

    /// Merges another tail into this one.
    pub fn merge(&mut self, other: &LatencyTail) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
    }

    /// Placed balls recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest sample count `s` such that at least `q·count` balls
    /// needed ≤ `s` samples; the last cell reports as `CELLS` ("≥ 64").
    /// Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= target {
                return i as u64 + 1;
            }
        }
        Self::CELLS as u64
    }
}

impl Default for LatencyTail {
    fn default() -> Self {
        Self::new()
    }
}

/// Everything a `serve` run reports: the final [`Outcome`] (with the
/// stream counters on its scenario), the per-tick series, the latency
/// tail, and the wall-clock time for sustained-throughput numbers.
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// Final outcome; `m` is the balls resident at the end and the
    /// scenario carries `arrivals`/`departed`/`shed`/`fallbacks`.
    pub outcome: Outcome,
    /// One record per tick.
    pub series: Vec<TickStats>,
    /// Samples-per-placement histogram.
    pub latency: LatencyTail,
    /// Wall-clock duration of the run.
    pub wall: std::time::Duration,
}

impl StreamReport {
    /// Completed operations: placements plus departures (shed balls
    /// are not operations the system completed).
    pub fn ops(&self) -> u64 {
        let s = &self.outcome.scenario;
        (s.arrivals - s.shed) + s.departed
    }

    /// Sustained completed operations per wall-clock second.
    pub fn ops_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.ops() as f64 / secs
    }
}

/// The streaming protocol: a [`Family`] placement law driven by a
/// [`StreamSpec`] workload. Implements [`Protocol`], so it flows
/// through `run_protocol`/`replicate_outcomes` like every batch
/// protocol; `RunConfig::m` is the expected total arrivals.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamProtocol {
    spec: StreamSpec,
    family: Family,
}

impl StreamProtocol {
    /// Builds the cell.
    pub fn new(spec: StreamSpec, family: Family) -> Self {
        Self { spec, family }
    }

    /// The workload spec.
    pub fn spec(&self) -> &StreamSpec {
        &self.spec
    }

    /// The placement family.
    pub fn family(&self) -> Family {
        self.family
    }
}

impl Protocol for StreamProtocol {
    fn name(&self) -> String {
        stream_name(self.family)
    }

    fn allocate<R, O>(&self, cfg: &RunConfig, rng: &mut R, _obs: &mut O) -> Outcome
    where
        R: Rng64 + ?Sized,
        O: Observer + ?Sized,
    {
        drive(&self.spec, self.family, cfg, rng, None, None)
    }
}

/// Canonical stream protocol name for a family: `stream-adaptive`,
/// `stream-greedy[2]`, ….
pub fn stream_name(family: Family) -> String {
    match family {
        Family::Greedy(d) => format!("stream-greedy[{d}]"),
        f => format!("stream-{}", f.label()),
    }
}

/// Runs a stream to completion with full observability: per-tick
/// series, latency tail, wall-clock throughput. Seeding follows the
/// harness discipline (`SeedSequence(seed).child_str(name)`), so a
/// `serve` run and a `run_protocol` run with the same seed produce the
/// same trajectory.
pub fn serve(spec: &StreamSpec, family: Family, cfg: &RunConfig, seed: u64) -> StreamReport {
    let mut rng = SeedSequence::new(seed)
        .child_str(&stream_name(family))
        .rng();
    let mut series = Vec::new();
    let mut latency = LatencyTail::new();
    // lint:allow(D1): the wall clock is serve mode's observable (sustained ops/sec), never an input to the deterministic outcome
    let start = std::time::Instant::now();
    let outcome = drive(
        spec,
        family,
        cfg,
        &mut rng,
        Some(&mut series),
        Some(&mut latency),
    );
    let wall = start.elapsed();
    outcome.validate();
    StreamReport {
        outcome,
        series,
        latency,
        wall,
    }
}

/// Fresh arrivals at `tick` of a stream expecting `m` balls over
/// `ticks` ticks: `Poisson(m/ticks)` (exact Knuth sampler at small
/// rates, the moment-matched rounded-normal count above λ = 256,
/// clamped to ±6σ) or the deterministic even split.
pub fn arrival_count<R: Rng64 + ?Sized>(
    m: u64,
    ticks: u64,
    tick: u64,
    poisson: bool,
    rng: &mut R,
) -> u64 {
    if !poisson {
        return m / ticks + u64::from(tick < m % ticks);
    }
    let lambda = m as f64 / ticks as f64;
    if lambda <= 0.0 {
        0
    } else if lambda < 256.0 {
        PoissonSampler::new(lambda).sample(rng)
    } else {
        let sd = lambda.sqrt();
        let lo = (lambda - 6.0 * sd).max(0.0) as u64;
        // lint:allow(N1): λ + 6√λ is far below u64::MAX for any m
        let hi = (lambda + 6.0 * sd).ceil() as u64;
        rounded_normal_count(lambda, lambda, lo, hi, rng)
    }
}

/// The fleet, partitioned by health. Slow bins live inside `accept`
/// (same placement law, doubled contact cost) and are only counted.
struct Classes {
    accept: OccupancyHistogram,
    drain: OccupancyHistogram,
    dead: OccupancyHistogram,
    slow: u64,
}

impl Classes {
    fn fresh(n: usize) -> Self {
        Self {
            accept: OccupancyHistogram::new(n),
            drain: OccupancyHistogram::empty(),
            dead: OccupancyHistogram::empty(),
            slow: 0,
        }
    }
}

/// Moves a `frac`-Binomial split of every class of `from` into `to`.
fn move_fraction<R: Rng64 + ?Sized>(
    from: &mut OccupancyHistogram,
    to: &mut OccupancyHistogram,
    frac: f64,
    rng: &mut R,
) {
    if from.n() == 0 {
        return;
    }
    let levels: Vec<(u32, u64)> = from.levels().collect();
    for (l, c) in levels {
        let x = if frac >= 1.0 {
            c
        } else {
            split_binomial(c, frac, rng)
        };
        from.remove_bins(l, x);
        to.add_bins(l, x);
    }
}

/// Applies every fault event due at `tick` to the collapsed state.
/// Event draws come from per-event seed-derived streams
/// ([`FaultPlan::event_rng`]), so the fault trajectory is independent
/// of the placement stream.
fn apply_faults(classes: &mut Classes, plan: &FaultPlan, tick: u64) {
    for idx in plan.due_at(tick) {
        let kind = plan.events()[idx].kind;
        let frac = plan.events()[idx].frac;
        let mut rng = plan.event_rng(idx);
        match kind {
            FaultKind::Crash => {
                classes.slow -= split_binomial(classes.slow, frac, &mut rng);
                move_fraction(&mut classes.accept, &mut classes.dead, frac, &mut rng);
                move_fraction(&mut classes.drain, &mut classes.dead, frac, &mut rng);
            }
            FaultKind::Drain => {
                classes.slow -= split_binomial(classes.slow, frac, &mut rng);
                move_fraction(&mut classes.accept, &mut classes.drain, frac, &mut rng);
            }
            FaultKind::Slow => {
                let plain = classes.accept.n() - classes.slow;
                classes.slow += split_binomial(plain, frac, &mut rng);
            }
            FaultKind::Recover => {
                classes.slow -= split_binomial(classes.slow, frac, &mut rng);
                move_fraction(&mut classes.drain, &mut classes.accept, frac, &mut rng);
                move_fraction(&mut classes.dead, &mut classes.accept, frac, &mut rng);
            }
        }
    }
}

/// One tick of churn on `hist`: every resident ball departs
/// independently with probability `p` — the downward split. A class of
/// `c` bins at load `ℓ` splits multinomially over the per-bin
/// `Binomial(ℓ, p)` departure counts ([`split_binomial_counts`], exact
/// at any load). Returns the number of departed balls.
pub fn departure_split<R: Rng64 + ?Sized>(
    hist: &mut OccupancyHistogram,
    p: f64,
    rng: &mut R,
) -> u64 {
    if hist.n() == 0 || p <= 0.0 || hist.total_balls() == 0 {
        return 0;
    }
    let levels: Vec<(u32, u64)> = hist.levels().collect();
    let mut departed = 0u64;
    // Ascending class order: demoted bins land in classes already
    // processed, so no bin departs twice in one tick.
    for (l, c) in levels {
        if l == 0 {
            continue;
        }
        split_binomial_counts(c, l, p, rng, |k, x| {
            if k > 0 {
                hist.demote(l, x, k);
                departed += x * u64::from(k);
            }
        });
    }
    departed
}

/// The integer fair-share bound `⌈balls/bins⌉ + 1`, saturating at
/// `u32::MAX`: a load `ℓ` is below it iff `ℓ < balls/bins + 1`. Equal to
/// `strict_int_bound(balls as f64 / bins as f64 + 1.0)` wherever that
/// float form is exact (operands below 2⁵³), without the float
/// division and fixup loop on the per-ball path.
fn fair_share_bound(balls: u64, bins: u64) -> u32 {
    u32::try_from(balls.div_ceil(bins).saturating_add(1)).unwrap_or(u32::MAX)
}

/// How one placement attempt ended: placed or not, and the samples it
/// spent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Attempt {
    placed: bool,
    samples: u64,
}

/// The exact law of one attempt that places once it has found `d`
/// *open* contacts. A contact is refused with probability `refusing /
/// n`; otherwise it reaches a uniform accepting bin, costs `1 +
/// Bernoulli(slow / accepting)` samples and is open with probability
/// `open / accepting`, independent of its cost. The load-blind ticks
/// (one-choice and the fallback at `d = 1`, `greedy[d]`) count every
/// accepting bin as open; a `Below(t)` batch counts the bins below the
/// bound at its start with `d = 1`. The attempt runs while fewer than
/// `budget` samples are spent, so a slow last contact ends it at
/// `budget + 1`: the law has at most `budget + 3` cells (placed after
/// `d ..= budget + 1` samples, failed after `budget` or `budget + 1`).
struct AttemptLaw {
    /// `(samples, open contacts found, probability)` of a contact:
    /// plain or refused and not open, slow and not open, plain and
    /// open, slow and open.
    steps: [(usize, usize, f64); 4],
    d: usize,
    budget: usize,
}

impl AttemptLaw {
    fn new(refusing: u64, accepting: u64, open: u64, slow: u64, d: u32, budget: u64) -> Self {
        debug_assert!(open <= accepting && slow <= accepting);
        let refuse = refusing as f64 / (refusing + accepting) as f64;
        let (slow_p, open_p) = if accepting == 0 {
            (0.0, 1.0)
        } else {
            (
                slow as f64 / accepting as f64,
                open as f64 / accepting as f64,
            )
        };
        let (plain, late) = ((1.0 - refuse) * (1.0 - slow_p), (1.0 - refuse) * slow_p);
        Self {
            steps: [
                (1, 0, refuse + plain * (1.0 - open_p)),
                (2, 0, late * (1.0 - open_p)),
                (1, 1, plain * open_p),
                (2, 1, late * open_p),
            ],
            d: d as usize,
            budget: usize::try_from(budget).expect("the probe budget is a u32"),
        }
    }

    /// Splits `balls` independent attempts over the law: a chain of
    /// exact conditional binomials over the cells in ascending samples
    /// (placed before failed), calling `f(cell, count)` once per cell
    /// that receives balls. A one-cell law draws nothing.
    ///
    /// The cells come from a DP over (samples, open contacts found)
    /// walked in ascending samples. A contact costs at most two
    /// samples, so three rows of `d` states are live at a time, and the
    /// walk stops once every ball has its cell: a large probe budget
    /// costs memory and time only as far as the attempts reach.
    fn split<R, F>(&self, balls: u64, rng: &mut R, mut f: F)
    where
        R: Rng64 + ?Sized,
        F: FnMut(Attempt, u64),
    {
        let (d, budget) = (self.d, self.budget);
        if self.steps[1..].iter().all(|&(_, _, p)| p == 0.0) {
            // Nothing is open and no contact costs two samples: every
            // attempt spends exactly the whole budget.
            if balls > 0 {
                f(
                    Attempt {
                        placed: false,
                        samples: budget as u64,
                    },
                    balls,
                );
            }
            return;
        }
        // `open[(s % 3)·d + found]`: still searching after `s` samples;
        // `ended[s % 3]`: (placed, failed) mass ending after `s`.
        let mut open = vec![0.0; 3 * d];
        let mut ended = [(0.0, 0.0); 3];
        open[0] = 1.0;
        let mut left = balls;
        for s in 0..=budget + 1 {
            let row = s % 3;
            let (placed, failed) = std::mem::take(&mut ended[row]);
            let later: f64 =
                open.iter().sum::<f64>() + ended.iter().map(|&(p, q)| p + q).sum::<f64>();
            for (is_placed, mass, rest) in [
                (true, placed, placed + failed + later),
                (false, failed, failed + later),
            ] {
                if left == 0 {
                    return;
                }
                if mass == 0.0 {
                    continue;
                }
                let p = mass / rest;
                let k = if p >= 1.0 {
                    left
                } else {
                    BinomialSampler::new(left, p).sample(rng)
                };
                if k > 0 {
                    let samples = s as u64;
                    f(
                        Attempt {
                            placed: is_placed,
                            samples,
                        },
                        k,
                    );
                    left -= k;
                }
            }
            for found in 0..d {
                let mass = std::mem::take(&mut open[row * d + found]);
                for (cost, step, p) in self.steps {
                    let q = mass * p;
                    if q == 0.0 {
                        continue;
                    }
                    let (s, found) = (s + cost, found + step);
                    if found == d {
                        ended[s % 3].0 += q;
                    } else if s >= budget {
                        ended[s % 3].1 += q;
                    } else {
                        open[(s % 3) * d + found] += q;
                    }
                }
            }
        }
        debug_assert_eq!(left, 0, "the law's cells hold every attempt");
    }
}

/// Finishes the attempt of an ambiguous ball (see [`below_tick`])
/// whose strip contact turned out closed: a contact is accepted iff its
/// load is below `bound`, with `budget` the samples the attempt has
/// left. `refusing` counts the dead and draining bins and `slow_p` is
/// the slow share of the accepting ones. `Ok(samples)` placed the ball
/// (already promoted in `accept`); `Err(samples)` exhausted the budget.
///
/// Each contact is one exact draw `r` uniform on `[0, refusing +
/// accepting)`. `r < refusing` is a dead or draining bin: the contact
/// costs a sample and is refused. Otherwise `rank = r − refusing` is a
/// uniform accepting bin in ascending-load order — the same law as
/// drawing a uniform fleet bin and then its class — and, load being
/// monotone in rank, it is below the bound iff `rank` falls among the
/// [`RankIndex::open_below`]`(bound)` lowest. Only the placed ball maps
/// its rank to a load ([`RankIndex::load_at_rank`], expected O(1)) and
/// promotes it ([`RankIndex::promote_one`], one decrement).
fn place_below<R: Rng64 + ?Sized>(
    accept: &mut RankIndex,
    refusing: u64,
    bound: u32,
    slow_p: f64,
    budget: u64,
    rng: &mut R,
) -> Result<u64, u64> {
    let fleet = refusing + accept.n();
    let open = accept.open_below(bound);
    let mut samples = 0u64;
    while samples < budget {
        let r = rng.range_u64(fleet);
        if r < refusing {
            samples += 1;
            continue;
        }
        // Slowness is independent of load: one extra sample.
        samples += if slow_p > 0.0 && rng.bernoulli(slow_p) {
            2
        } else {
            1
        };
        let rank = r - refusing;
        if rank < open {
            accept.promote_one(accept.load_at_rank(rank));
            return Ok(samples);
        }
    }
    Err(samples)
}

/// Lands one placement on a uniform bin among the `open` lowest, all
/// below `bound` (one rank draw, its load and a promote), and keeps
/// `open` the count below the bound.
fn land<R: Rng64 + ?Sized>(accept: &mut RankIndex, open: &mut u64, bound: u32, rng: &mut R) {
    let load = accept.load_at_rank(rng.range_u64(*open));
    accept.promote_one(load);
    if load + 1 == bound {
        *open -= 1;
    }
}

/// Removes one ball, uniform among the `total` balls of `cells`
/// (`(samples, balls)` pairs), and returns its samples.
fn take_uniform<R: Rng64 + ?Sized>(cells: &mut [(u64, u64)], total: u64, rng: &mut R) -> u64 {
    let mut r = rng.range_u64(total);
    for (samples, balls) in cells.iter_mut() {
        if r < *balls {
            *balls -= 1;
            return *samples;
        }
        r -= *balls;
    }
    unreachable!("the cells hold {total} balls")
}

/// Adds `balls` to the tally of attempts that spent `samples`.
fn tally(by_samples: &mut Vec<u64>, samples: u64, balls: u64) {
    let i = usize::try_from(samples).expect("at most the probe budget + 1");
    if i >= by_samples.len() {
        by_samples.resize(i + 1, 0);
    }
    by_samples[i] += balls;
}

/// Balls per `Below(t)` batch when `open` bins are below the bound and
/// the fullest of them needs `depth` placements to reach it. A batch of
/// `depth·w + 1` balls has a strip of `w` ranks and meets about `W·w/o`
/// ambiguous placements; `w ≈ √(16·open/depth)` makes that about 16,
/// which balances one split's few binomial draws against the ambiguous
/// balls' draws. With nothing open no ball can place and one batch
/// takes the whole group.
fn batch_width(open: u64, depth: u64) -> u64 {
    if open == 0 {
        return u64::MAX;
    }
    let strip = (open.saturating_mul(16) / depth).isqrt().max(1);
    depth.saturating_mul(strip).saturating_add(1)
}

/// The history balls awaiting a retry share: failed attempts so far
/// and samples already spent.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
struct History {
    attempts: u32,
    samples: u64,
}

/// The run's counters and its backoff ring. Attempts are booked here,
/// one ball at a time or a whole group of equal history at once.
struct Ledger<'a> {
    arrivals: u64,
    placed: u64,
    departed: u64,
    shed: u64,
    fallbacks: u64,
    in_system: u64,
    total_samples: u64,
    max_samples: u64,
    /// Slot `tick % len` holds the `(history, balls)` groups due at
    /// that tick, in the order they failed.
    ring: Vec<Vec<(History, u64)>>,
    retry: RetryPolicy,
    latency: Option<&'a mut LatencyTail>,
}

impl<'a> Ledger<'a> {
    /// Zero counters and an empty backoff ring for `retry`.
    fn new(retry: RetryPolicy, latency: Option<&'a mut LatencyTail>) -> Self {
        Self {
            arrivals: 0,
            placed: 0,
            departed: 0,
            shed: 0,
            fallbacks: 0,
            in_system: 0,
            total_samples: 0,
            max_samples: 0,
            ring: vec![Vec::new(); retry.backoff_cap.max(1) as usize + 1],
            retry,
            latency,
        }
    }

    /// Books `balls` balls of history `h` that each placed after
    /// `spent` more samples.
    fn book_placed(&mut self, h: History, spent: u64, balls: u64, fallback: bool) {
        let samples = h.samples + spent;
        self.total_samples += spent * balls;
        self.max_samples = self.max_samples.max(samples);
        self.placed += balls;
        self.in_system += balls;
        if fallback {
            self.fallbacks += balls;
        }
        if let Some(lat) = self.latency.as_deref_mut() {
            lat.record_n(samples, balls);
        }
    }

    /// Books `balls` balls of history `h` that each failed an attempt
    /// at `tick` after `spent` more samples: shed once out of attempts,
    /// otherwise due again after `min(2^(attempts−1), backoff_cap)`
    /// ticks. A group joins the slot's last one when their histories
    /// match, so the slot keeps the failure order of single balls.
    fn book_failed(&mut self, h: History, spent: u64, balls: u64, tick: u64) {
        let h = History {
            attempts: h.attempts + 1,
            samples: h.samples + spent,
        };
        self.total_samples += spent * balls;
        self.max_samples = self.max_samples.max(h.samples);
        if h.attempts >= self.retry.retry_budget {
            self.shed += balls;
            return;
        }
        let delay = (1u64 << (h.attempts - 1).min(31)).min(self.retry.backoff_cap.max(1) as u64);
        let len = self.ring.len() as u64;
        let slot = &mut self.ring[((tick + delay) % len) as usize];
        match slot.last_mut() {
            Some((last, count)) if *last == h => *count += balls,
            _ => slot.push((h, balls)),
        }
    }
}

/// Places a `Below(t)` tick (adaptive, and threshold outside a
/// fallback): the retry groups in order, on the rank index of the
/// accepting bins. A contact is accepted iff its load is below the
/// bound `⌈share/accepting⌉ + 1`, where `share` is `fixed_share`
/// (threshold's `m`) or, for adaptive (`None`), the resident count plus
/// the ball itself. `width` forces the batch size (the law tests run it
/// at fixed widths); `None` takes [`batch_width`].
///
/// A group is priced in batches of at most `W` balls, each inside one
/// bound (adaptive's batch ends before the resident count can cross a
/// multiple of the accepting bins). Let `o` be the open count at the
/// batch's start and `depth` the placements the fullest open bin needs
/// to reach the bound. Each ball places at most once, so before any
/// ball of the batch at most `⌊(W − 1)/depth⌋` bins have closed: the
/// open count stays in `[sure, o]` with `sure = o − ⌊(W − 1)/depth⌋`.
/// A contact is a uniform fleet draw; rank its accepting bins against
/// `o`. A rank at or above `o` is closed for the whole batch, and a
/// rank below `sure` is open for the whole batch. So one [`AttemptLaw`]
/// split with `o` open bins prices the batch exactly: a ball it fails
/// fails, and a ball it places met its first contact below `o`, whose
/// rank is uniform on `[0, o)` whatever the samples spent. That rank is
/// below `sure` with probability `sure/o`, independently per ball; the
/// rest are *ambiguous*. In ball order, a `Geometric(strip/o)` draw
/// counts the sure placements before the next ambiguous one, with
/// `strip = o − sure`. Each sure placement lands on a uniform open bin:
/// given that a contact is open, its bin is uniform among the open
/// bins. An ambiguous ball takes its samples uniformly from the priced
/// placements not yet taken. Its contact, uniform on the strip, is open
/// iff it falls below the live open count. If it is closed,
/// [`place_below`] finishes the attempt on the live index with the
/// budget it has left. `W = 1` leaves no strip and prices ball by ball.
#[allow(clippy::too_many_arguments)]
fn below_tick<R, G>(
    accept: &mut RankIndex,
    refusing: u64,
    slow: u64,
    budget: u64,
    fixed_share: Option<u64>,
    width: Option<u64>,
    groups: G,
    c: &mut Ledger<'_>,
    tick: u64,
    rng: &mut R,
) where
    R: Rng64 + ?Sized,
    G: IntoIterator<Item = (History, u64)>,
{
    let accept_n = accept.n();
    let slow_p = slow as f64 / accept_n as f64;
    // The bound `⌈share/accept_n⌉ + 1` holds while `share` stays at
    // most `until`, the next multiple of `accept_n`.
    let (mut bound, mut until) = (0, 0);
    let mut resident = c.in_system;
    // A group's attempts by the samples they spent, booked once per
    // group and sample count; a batch's priced placements.
    let (mut placed_by_spent, mut failed_by_spent) = (Vec::new(), Vec::new());
    let mut priced: Vec<(u64, u64)> = Vec::new();
    for (h, balls) in groups {
        let mut left = balls;
        while left > 0 {
            let share = fixed_share.unwrap_or(resident + 1);
            if share > until {
                bound = fair_share_bound(share, accept_n);
                until = share.div_ceil(accept_n).saturating_mul(accept_n);
            }
            let open = accept.open_below(bound);
            let depth = if open == 0 {
                1
            } else {
                u64::from(bound - accept.load_at_rank(open - 1))
            };
            let mut batch = width.unwrap_or_else(|| batch_width(open, depth)).min(left);
            if fixed_share.is_none() {
                batch = batch.min(until - resident);
            }
            left -= batch;
            let strip = open.min((batch - 1) / depth);
            let sure = open - strip;
            let mut placed = 0;
            AttemptLaw::new(refusing, accept_n, open, slow, 1, budget).split(
                batch,
                rng,
                |cell, k| {
                    if cell.placed {
                        priced.push((cell.samples, k));
                        placed += k;
                    } else {
                        tally(&mut failed_by_spent, cell.samples, k);
                    }
                },
            );
            let gaps = (strip > 0).then(|| GeometricSampler::new(strip as f64 / open as f64));
            let (mut live, mut untaken) = (open, placed);
            while placed > 0 {
                let run = gaps.map_or(placed, |g| (g.sample(rng) - 1).min(placed));
                for _ in 0..run {
                    land(accept, &mut live, bound, rng);
                }
                resident += run;
                placed -= run;
                if placed == 0 {
                    break;
                }
                placed -= 1;
                let spent = take_uniform(&mut priced, untaken, rng);
                untaken -= 1;
                if rng.range_u64(strip) < live - sure {
                    land(accept, &mut live, bound, rng);
                    resident += 1;
                    tally(&mut placed_by_spent, spent, 1);
                    continue;
                }
                let rest = budget.saturating_sub(spent);
                match place_below(accept, refusing, bound, slow_p, rest, rng) {
                    Ok(more) => {
                        live = accept.open_below(bound);
                        resident += 1;
                        tally(&mut placed_by_spent, spent + more, 1);
                    }
                    Err(more) => tally(&mut failed_by_spent, spent + more, 1),
                }
            }
            for (spent, k) in priced.drain(..) {
                tally(&mut placed_by_spent, spent, k);
            }
        }
        for (spent, balls) in placed_by_spent.iter_mut().enumerate() {
            if *balls > 0 {
                c.book_placed(h, spent as u64, std::mem::take(balls), false);
            }
        }
        for (spent, balls) in failed_by_spent.iter_mut().enumerate() {
            if *balls > 0 {
                c.book_failed(h, spent as u64, std::mem::take(balls), tick);
            }
        }
    }
}

/// The collapsed serial stream driver. `series`/`latency` are optional
/// so the `Protocol::allocate` path pays nothing for observability.
fn drive<R: Rng64 + ?Sized>(
    spec: &StreamSpec,
    family: Family,
    cfg: &RunConfig,
    rng: &mut R,
    mut series: Option<&mut Vec<TickStats>>,
    latency: Option<&mut LatencyTail>,
) -> Outcome {
    assert!(cfg.n > 0, "stream: need at least one bin");
    assert!(spec.ticks > 0, "stream: need at least one tick");
    let retry = spec.retry;
    assert!(retry.probe_budget >= 1, "probe budget must be ≥ 1");
    assert!(retry.retry_budget >= 1, "retry budget must be ≥ 1");
    if let Family::Greedy(d) = family {
        // Each accepting contact costs at least one sample.
        assert!(
            d <= retry.probe_budget,
            "greedy[{d}] needs {d} accepting contacts, more than probe budget {}",
            retry.probe_budget
        );
    }
    assert!(
        (0.0..=1.0).contains(&retry.fallback_alive_frac),
        "fallback threshold outside [0, 1]"
    );
    let n_total = cfg.n as u64;
    let budget = retry.probe_budget as u64;
    let mut classes = Classes::fresh(cfg.n);
    let mut c = Ledger::new(retry, latency);
    let ring_len = c.ring.len() as u64;

    for tick in 0..spec.ticks {
        apply_faults(&mut classes, &spec.faults, tick);
        // Health and bin counts hold still until the departures.
        let accept_n = classes.accept.n();
        let refusing = classes.dead.n() + classes.drain.n();
        let fallback = !matches!(family, Family::OneChoice)
            && (accept_n as f64) < retry.fallback_alive_frac * n_total as f64;

        // Due retries first (they have been waiting), then arrivals.
        let due = std::mem::take(&mut c.ring[(tick % ring_len) as usize]);
        let arrivals = arrival_count(cfg.m, spec.ticks, tick, spec.poisson, rng);
        c.arrivals += arrivals;
        let groups = due
            .into_iter()
            .chain((arrivals > 0).then_some((History::default(), arrivals)));

        let least_of = match family {
            _ if accept_n == 0 || fallback => Some(1),
            Family::OneChoice => Some(1),
            Family::Greedy(d) => Some(d.max(1)),
            Family::Adaptive | Family::Threshold => None,
        };
        if let Some(d) = least_of {
            // Load-blind: price every group on the tick's attempt law,
            // then place the tick's successes.
            let law = AttemptLaw::new(refusing, accept_n, accept_n, classes.slow, d, budget);
            let before = c.placed;
            for (h, balls) in groups {
                law.split(balls, rng, |cell, k| {
                    if cell.placed {
                        c.book_placed(h, cell.samples, k, fallback);
                    } else {
                        c.book_failed(h, cell.samples, k, tick);
                    }
                });
            }
            let mut placed = c.placed - before;
            if d == 1 {
                placed = place_uniform_rounds(&mut classes.accept, placed, rng);
            }
            if placed > 0 {
                place_least_of_d(&mut classes.accept, d, placed, rng);
            }
        } else {
            let mut accept = RankIndex::build(&classes.accept);
            let fixed_share = matches!(family, Family::Threshold).then_some(cfg.m);
            below_tick(
                &mut accept,
                refusing,
                classes.slow,
                budget,
                fixed_share,
                None,
                groups,
                &mut c,
                tick,
                rng,
            );
            accept.write_back(&mut classes.accept);
        }

        // Churn: the downward split. Draining bins keep departing;
        // dead bins are frozen.
        c.departed += departure_split(&mut classes.accept, spec.depart_prob, rng);
        c.departed += departure_split(&mut classes.drain, spec.depart_prob, rng);
        c.in_system = c.placed - c.departed;

        if let Some(s) = series.as_deref_mut() {
            let (gap, max_load) = if classes.accept.n() > 0 {
                (
                    classes.accept.max_load() - classes.accept.min_load(),
                    classes.accept.max_load(),
                )
            } else {
                (0, 0)
            };
            s.push(TickStats {
                tick,
                in_system: c.in_system,
                gap,
                max_load,
                alive_ppm: u32::try_from(
                    u128::from(classes.accept.n()) * 1_000_000 / u128::from(n_total),
                )
                .expect("alive fraction in parts-per-million fits u32"),
                placed: c.placed,
                departed: c.departed,
                shed: c.shed,
                fallbacks: c.fallbacks,
                samples: c.total_samples,
            });
        }
    }

    // Balls still waiting for a retry slot when the run ends are shed
    // (their samples are already accounted).
    c.shed += c
        .ring
        .iter()
        .flatten()
        .map(|&(_, balls)| balls)
        .sum::<u64>();

    // Merge the health classes back into one fleet histogram.
    let mut merged = classes.accept.clone();
    for (l, cnt) in classes.drain.levels() {
        merged.add_bins(l, cnt);
    }
    for (l, cnt) in classes.dead.levels() {
        merged.add_bins(l, cnt);
    }
    debug_assert_eq!(merged.n(), n_total, "fleet not conserved");
    debug_assert_eq!(merged.total_balls(), c.in_system, "stream mass drift");

    let alive_frac = classes.accept.n() as f64 / n_total as f64;
    let recon_seed = rng.next_u64();
    Outcome {
        protocol: stream_name(family),
        n: cfg.n,
        m: c.in_system,
        total_samples: c.total_samples,
        max_samples_per_ball: c.max_samples,
        loads: Loads::from_histogram(merged, recon_seed),
        scenario: Scenario::stream(
            spec.ticks,
            c.arrivals,
            c.departed,
            c.shed,
            c.fallbacks,
            alive_frac,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Engine;
    use crate::run::run_protocol;
    use crate::scenario::strict_int_bound;
    use std::collections::BTreeMap;

    #[test]
    fn demote_is_promotes_inverse() {
        let mut h = OccupancyHistogram::from_loads(&[3, 3, 5, 7]);
        h.demote(5, 1, 2);
        assert_eq!(h.count(3), 3);
        h.demote(3, 3, 3);
        assert_eq!(h.count(0), 3);
        assert_eq!(h.min_load(), 0);
        assert_eq!(h.max_load(), 7);
        assert_eq!(h.total_balls(), (3 + 3 + 5 + 7) - 2 - 9);
        h.check_invariants();
        // Back up again: promote is still exact after base slid down.
        h.promote(0, 3, 3);
        assert_eq!(h.count(3), 3);
        h.check_invariants();
    }

    #[test]
    fn departure_split_conserves_mass() {
        let mut rng = SeedSequence::new(9).rng();
        let mut h = OccupancyHistogram::from_loads(&vec![8u32; 500]);
        let before = h.total_balls();
        let gone = departure_split(&mut h, 0.25, &mut rng);
        assert_eq!(h.total_balls(), before - gone);
        h.check_invariants();
        // Binomial(4000, 0.25): comfortably inside ±5σ.
        assert!((800..1200).contains(&gone), "gone = {gone}");
        // p = 1 empties the histogram.
        let rest = h.total_balls();
        assert_eq!(departure_split(&mut h, 1.0, &mut rng), rest);
        assert_eq!(h.total_balls(), 0);
    }

    #[test]
    fn departure_split_survives_heavy_loads() {
        // (1 − p)^ℓ underflows to 0 at both cells (ℓ·ln(1/(1−p)) ≈ 762
        // and 1026, past the ≈745 floor of f64); the departures must
        // still be Binomial(100·ℓ, p), not every ball.
        for (load, p, seed) in [(1_100u32, 0.5, 3u64), (20_000, 0.05, 4)] {
            let mut rng = SeedSequence::new(seed).rng();
            let mut h = OccupancyHistogram::from_loads(&vec![load; 100]);
            let balls = h.total_balls() as f64;
            let gone = departure_split(&mut h, p, &mut rng);
            assert_eq!(h.total_balls() as f64, balls - gone as f64);
            h.check_invariants();
            let mean = balls * p;
            let sd = (balls * p * (1.0 - p)).sqrt();
            assert!(
                (gone as f64 - mean).abs() < 6.0 * sd,
                "load {load}, p {p}: {gone} departed, expected ≈ {mean}"
            );
            // Per-bin counts spread like Binomial(ℓ, p) too: every bin
            // keeps within 8σ₁ of ℓ·(1 − p).
            let sd1 = (load as f64 * p * (1.0 - p)).sqrt();
            let keep = load as f64 * (1.0 - p);
            assert!((h.max_load() as f64) < keep + 8.0 * sd1);
            assert!((h.min_load() as f64) > keep - 8.0 * sd1);
        }
    }

    #[test]
    fn zero_churn_stream_places_every_ball() {
        let spec = StreamSpec::new(64, 0.0).deterministic();
        let p = StreamProtocol::new(spec, Family::Adaptive);
        let cfg = RunConfig::new(256, 2_560).with_engine(Engine::Auto);
        let out = run_protocol(&p, &cfg, 5);
        assert_eq!(out.m, 2_560);
        assert_eq!(out.scenario.arrivals, 2_560);
        assert_eq!(out.scenario.shed, 0);
        assert_eq!(out.scenario.label(), "stream");
        // The adaptive guarantee carries over at zero churn.
        assert!(out.max_load() <= 11, "max = {}", out.max_load());
    }

    #[test]
    fn fault_free_stream_conserves_and_balances() {
        let spec = StreamSpec::new(40, 0.0).deterministic();
        let report = serve(&spec, Family::OneChoice, &RunConfig::new(128, 40 * 32), 8);
        assert_eq!(report.outcome.m, 40 * 32);
        assert_eq!(report.outcome.scenario.shed, 0);
        assert_eq!(report.outcome.scenario.label(), "stream");
        assert!(report.ops() >= 40 * 32);
    }

    #[test]
    fn churn_reaches_a_drifting_steady_state() {
        // λ = 512/tick against μ = 0.05/ball/tick → ~10240 resident.
        let spec = StreamSpec::new(400, 0.05);
        let cfg = RunConfig::new(1_024, 400 * 512);
        let report = serve(&spec, Family::Adaptive, &cfg, 17);
        let resident = report.outcome.m as f64;
        assert!(
            (7_000.0..14_000.0).contains(&resident),
            "resident = {resident}"
        );
        assert_eq!(report.outcome.scenario.shed, 0);
        assert_eq!(report.series.len(), 400);
        // Steady state: the last-quarter gap stays small (adaptive
        // keeps the load vector smooth).
        let tail_gap = report.series[300..].iter().map(|s| s.gap).max().unwrap();
        assert!(tail_gap <= 16, "tail gap = {tail_gap}");
        assert!(report.latency.count() > 0);
        assert!(report.latency.quantile(0.5) >= 1);
    }

    #[test]
    fn mass_failure_sheds_and_recovers() {
        let faults = FaultPlan::mass_failure(120, 0.5, 200, 77);
        let retry = RetryPolicy {
            probe_budget: 4,
            retry_budget: 2,
            backoff_cap: 4,
            fallback_alive_frac: 0.6,
        };
        let spec = StreamSpec::new(400, 0.05)
            .with_faults(faults)
            .with_retry(retry);
        let cfg = RunConfig::new(1_024, 400 * 512);
        let report = serve(&spec, Family::Greedy(2), &cfg, 23);
        let s = &report.outcome.scenario;
        // The crash window wastes probes: some balls shed or fell back.
        assert!(s.shed + s.fallbacks > 0, "faults left no trace");
        // Everyone is back by the end.
        assert_eq!(s.alive_frac, 1.0);
        report.outcome.validate();
    }

    #[test]
    #[should_panic(expected = "greedy[5] needs 5 accepting contacts")]
    fn greedy_above_the_probe_budget_is_refused() {
        // Four samples can never find five accepting contacts: every
        // ball would be shed in a healthy fleet.
        let retry = RetryPolicy {
            probe_budget: 4,
            ..RetryPolicy::default()
        };
        let spec = StreamSpec::new(10, 0.05).with_retry(retry);
        serve(&spec, Family::Greedy(5), &RunConfig::new(64, 640), 1);
    }

    #[test]
    fn alive_ppm_is_exact_for_giant_fleets() {
        // accept·10⁶ overflows u64 above n ≈ 1.8·10¹³, and the collapsed
        // driver is O(1) in n, so such fleets are reachable.
        let spec = StreamSpec::new(2, 0.0).deterministic();
        let cfg = RunConfig::new(20_000_000_000_000, 1_000);
        let report = serve(&spec, Family::Adaptive, &cfg, 4);
        assert_eq!(report.series.len(), 2);
        for s in &report.series {
            assert_eq!(s.alive_ppm, 1_000_000, "tick {}", s.tick);
        }
    }

    #[test]
    fn fair_share_bound_matches_float_form() {
        let mut balls: Vec<u64> = (0..300).collect();
        for k in 9..=40 {
            let x = 1u64 << k;
            balls.extend([x - 1, x, x + 1, x + 12_345]);
        }
        for a in [1u64, 2, 3, 7, 10, 64, 1_000, 99_991, 1 << 20, 1 << 40] {
            // Exact multiples and their neighbours.
            let multiples = (0..50u64).flat_map(|k| [a * k, a * k + 1, (a * k).saturating_sub(1)]);
            for x in balls.iter().copied().chain(multiples) {
                assert_eq!(
                    fair_share_bound(x, a),
                    strict_int_bound(x as f64 / a as f64 + 1.0),
                    "balls {x}, bins {a}"
                );
            }
        }
        // The u32 saturation edge: ⌈x/a⌉ + 1 crossing u32::MAX.
        let edge = u64::from(u32::MAX);
        for a in [1u64, 2, 3] {
            for q in edge - 3..=edge + 2 {
                for x in [a * q - 1, a * q, a * q + 1] {
                    assert_eq!(
                        fair_share_bound(x, a),
                        strict_int_bound(x as f64 / a as f64 + 1.0),
                        "balls {x}, bins {a}"
                    );
                }
            }
        }
        assert_eq!(fair_share_bound(u64::MAX, 1), u32::MAX);
    }

    /// Accepting classes of the one-attempt oracle fixture.
    const ORACLE_ACCEPT: [(u32, u64); 3] = [(0, 30), (1, 50), (3, 20)];
    const ORACLE_DEAD: u64 = 150;
    const ORACLE_DRAIN: u64 = 50;
    const ORACLE_SLOW: u64 = 10;
    const ORACLE_BUDGET: u64 = 6;

    fn oracle_classes() -> Classes {
        let mut accept = OccupancyHistogram::empty();
        for (l, c) in ORACLE_ACCEPT {
            accept.add_bins(l, c);
        }
        let mut drain = OccupancyHistogram::empty();
        drain.add_bins(2, ORACLE_DRAIN);
        let mut dead = OccupancyHistogram::empty();
        dead.add_bins(5, ORACLE_DEAD);
        Classes {
            accept,
            drain,
            dead,
            slow: ORACLE_SLOW,
        }
    }

    /// The acceptance rule of the one-attempt oracle.
    #[derive(Clone, Copy, Debug)]
    enum Rule {
        /// First accepting contact wins.
        Uniform,
        /// Accept a contact iff its load is below the bound.
        Below(u32),
        /// Least loaded of `d` accepting contacts.
        LeastOf(u32),
    }

    /// Exact law of one attempt on the oracle fixture, by a DP over
    /// (samples, accepting contacts found, least class so far) that
    /// draws a bin's health, slowness and class the way the process
    /// defines them. Cells are `(landing class, samples)`, `None` for
    /// an exhausted budget.
    fn oracle_law(rule: Rule) -> BTreeMap<(Option<u32>, u64), f64> {
        let accept: u64 = ORACLE_ACCEPT.iter().map(|&(_, c)| c).sum();
        let total = (accept + ORACLE_DEAD + ORACLE_DRAIN) as f64;
        let slow = ORACLE_SLOW as f64 / accept as f64;
        let mut law = BTreeMap::new();
        let mut states = BTreeMap::from([((0u64, 0u32, None::<u32>), 1.0f64)]);
        // Every transition adds samples, so popping in samples order
        // sees each state's whole mass.
        while let Some(((s, found, best), p)) = states.pop_first() {
            if s >= ORACLE_BUDGET {
                *law.entry((None, s)).or_insert(0.0) += p;
                continue;
            }
            let refused = (ORACLE_DEAD + ORACLE_DRAIN) as f64 / total;
            *states.entry((s + 1, found, best)).or_insert(0.0) += p * refused;
            for (cost, pc) in [(1u64, 1.0 - slow), (2, slow)] {
                for (l, c) in ORACLE_ACCEPT {
                    let q = p * pc * c as f64 / total;
                    let s = s + cost;
                    let (found, best) = (found + 1, best.map_or(l, |b| b.min(l)));
                    let landed = match rule {
                        Rule::Uniform => Some(l),
                        Rule::Below(t) => (l < t).then_some(l),
                        Rule::LeastOf(d) => (found >= d).then_some(best),
                    };
                    match landed {
                        Some(l) => *law.entry((Some(l), s)).or_insert(0.0) += q,
                        None => *states.entry((s, found, Some(best))).or_insert(0.0) += q,
                    }
                }
            }
        }
        law
    }

    /// The driver's attempt law on the oracle fixture for a load-blind
    /// rule that places after `d` accepting contacts.
    fn fixture_law(d: u32) -> AttemptLaw {
        let c = oracle_classes();
        AttemptLaw::new(
            c.dead.n() + c.drain.n(),
            c.accept.n(),
            c.accept.n(),
            c.slow,
            d,
            ORACLE_BUDGET,
        )
    }

    /// The single cell one attempt lands in under `law`.
    fn one_attempt<R: Rng64 + ?Sized>(law: &AttemptLaw, rng: &mut R) -> Attempt {
        let mut got = None;
        law.split(1, rng, |cell, k| {
            assert_eq!(k, 1);
            got = Some(cell);
        });
        got.expect("one attempt lands in one cell")
    }

    #[test]
    fn one_attempt_matches_exact_law() {
        use bib_analysis::chisq::chi_square_gof;
        const ATTEMPTS: u64 = 100_000;
        for (i, rule) in [Rule::Uniform, Rule::Below(2), Rule::LeastOf(2)]
            .into_iter()
            .enumerate()
        {
            let law = oracle_law(rule);
            assert!((law.values().sum::<f64>() - 1.0).abs() < 1e-12);
            let blind = match rule {
                Rule::Uniform => Some(1),
                Rule::LeastOf(d) => Some(d),
                Rule::Below(_) => None,
            }
            .map(|d| (d, fixture_law(d)));
            let mut rng = SeedSequence::new(31).child(i as u64).rng();
            let mut tally: BTreeMap<(Option<u32>, u64), u64> = BTreeMap::new();
            for _ in 0..ATTEMPTS {
                let mut classes = oracle_classes();
                let refusing = classes.dead.n() + classes.drain.n();
                // Load-blind rules: the attempt's law, then the
                // least-of-d rank chain; `Below` runs its contact chain.
                let placed = match rule {
                    Rule::Below(t) => {
                        let mut accept = RankIndex::build(&classes.accept);
                        let slow_p = classes.slow as f64 / accept.n() as f64;
                        let placed =
                            place_below(&mut accept, refusing, t, slow_p, ORACLE_BUDGET, &mut rng);
                        accept.write_back(&mut classes.accept);
                        placed
                    }
                    Rule::Uniform | Rule::LeastOf(_) => {
                        let (d, attempt_law) =
                            blind.as_ref().expect("a load-blind rule has its law");
                        let attempt = one_attempt(attempt_law, &mut rng);
                        if attempt.placed {
                            place_least_of_d(&mut classes.accept, *d, 1, &mut rng);
                            Ok(attempt.samples)
                        } else {
                            Err(attempt.samples)
                        }
                    }
                };
                let cell = match placed {
                    Ok(samples) => {
                        // The landing class is the one that lost a bin.
                        let (landed, _) = ORACLE_ACCEPT
                            .into_iter()
                            .find(|&(l, c)| classes.accept.count(l) < c)
                            .expect("a placement promotes one bin");
                        (Some(landed), samples)
                    }
                    Err(samples) => (None, samples),
                };
                *tally.entry(cell).or_insert(0) += 1;
            }
            for cell in tally.keys() {
                assert!(law.contains_key(cell), "{rule:?}: impossible cell {cell:?}");
            }
            let observed: Vec<u64> = law
                .keys()
                .map(|k| tally.get(k).copied().unwrap_or(0))
                .collect();
            let probs: Vec<f64> = law.values().copied().collect();
            let gof = chi_square_gof(&observed, &probs, 0, 5.0);
            assert!(gof.p_value > 1e-4, "{rule:?}: {gof:?}");
        }
    }

    #[test]
    fn group_split_matches_exact_law_marginals() {
        // One retry group of 10⁵ balls split over the attempt law is one
        // multinomial draw: its cell counts against the oracle's
        // (placed, samples) marginals.
        use bib_analysis::chisq::chi_square_gof;
        const BALLS: u64 = 100_000;
        for (i, (rule, d)) in [
            (Rule::Uniform, 1),
            (Rule::LeastOf(2), 2),
            (Rule::LeastOf(3), 3),
        ]
        .into_iter()
        .enumerate()
        {
            let mut marginal: BTreeMap<Attempt, f64> = BTreeMap::new();
            for ((landed, samples), p) in oracle_law(rule) {
                let cell = Attempt {
                    placed: landed.is_some(),
                    samples,
                };
                *marginal.entry(cell).or_insert(0.0) += p;
            }
            let mut rng = SeedSequence::new(37).child(i as u64).rng();
            let mut tally: BTreeMap<Attempt, u64> = BTreeMap::new();
            fixture_law(d).split(BALLS, &mut rng, |cell, k| {
                assert!(tally.insert(cell, k).is_none(), "{rule:?}: {cell:?} twice");
            });
            assert_eq!(tally.values().sum::<u64>(), BALLS);
            for cell in tally.keys() {
                assert!(
                    marginal.contains_key(cell),
                    "{rule:?}: impossible cell {cell:?}"
                );
            }
            let observed: Vec<u64> = marginal
                .keys()
                .map(|k| tally.get(k).copied().unwrap_or(0))
                .collect();
            let probs: Vec<f64> = marginal.values().copied().collect();
            let gof = chi_square_gof(&observed, &probs, 0, 5.0);
            assert!(gof.p_value > 1e-4, "{rule:?}: {gof:?}");
        }
    }

    #[test]
    fn attempt_law_without_refusals_or_slow_bins_is_one_cell() {
        // No refusals and no slow bins: every attempt places after `d`
        // samples. Nothing accepting: every attempt fails after the
        // budget. Either way the whole group lands in one cell without
        // a draw, however large the budget.
        let cases = [
            (AttemptLaw::new(0, 1_000, 1_000, 0, 1, 8), true, 1),
            (AttemptLaw::new(0, 1_000, 1_000, 0, 5, 8), true, 5),
            (
                AttemptLaw::new(0, 1_000, 1_000, 0, 2, u64::from(u32::MAX)),
                true,
                2,
            ),
            (AttemptLaw::new(500, 0, 0, 0, 1, 8), false, 8),
            (
                AttemptLaw::new(500, 0, 0, 0, 2, u64::from(u32::MAX)),
                false,
                u64::from(u32::MAX),
            ),
        ];
        for (law, placed, samples) in cases {
            let mut rng = SeedSequence::new(1).rng();
            let mut probe = rng;
            let mut cells = Vec::new();
            law.split(12_345, &mut rng, |cell, k| cells.push((cell, k)));
            assert_eq!(cells, vec![(Attempt { placed, samples }, 12_345)]);
            assert_eq!(rng.next_u64(), probe.next_u64(), "the split drew");
        }
    }

    #[test]
    fn attempt_law_with_every_accepting_bin_open_is_the_load_blind_law() {
        // Counting every accepting bin open leaves no closed contact:
        // the cells, and so the split's draws, are the load-blind law's
        // three contact kinds (refused; plain accepting; slow accepting)
        // bit for bit.
        for (refusing, accepting, slow, d, budget) in [
            (0u64, 1_000u64, 0u64, 1u32, 8u64),
            (300, 700, 100, 1, 8),
            (1_234, 567, 89, 2, 16),
            (9, 1, 1, 3, 5),
            (500, 0, 0, 1, 8),
        ] {
            let law = AttemptLaw::new(refusing, accepting, accepting, slow, d, budget);
            let refuse = refusing as f64 / (refusing + accepting) as f64;
            let slow_p = if accepting == 0 {
                0.0
            } else {
                slow as f64 / accepting as f64
            };
            let load_blind = [
                (1, 0, refuse),
                (2, 0, 0.0),
                (1, 1, (1.0 - refuse) * (1.0 - slow_p)),
                (2, 1, (1.0 - refuse) * slow_p),
            ];
            for (got, want) in law.steps.iter().zip(load_blind) {
                assert_eq!((got.0, got.1), (want.0, want.1));
                assert_eq!(got.2.to_bits(), want.2.to_bits(), "{got:?} vs {want:?}");
            }
        }
    }

    /// The whole-tick oracle fixture: four accepting bins (one slow),
    /// one refusing bin, probe budget 3, and two retry groups whose
    /// histories keep their sample totals apart.
    const TICK_LOADS: [u32; 4] = [0, 1, 1, 2];
    const TICK_REFUSING: u64 = 1;
    const TICK_SLOW: u64 = 1;
    const TICK_BUDGET: u64 = 3;
    const TICK_GROUPS: [(History, u64); 2] = [
        (
            History {
                attempts: 1,
                samples: 10,
            },
            2,
        ),
        (
            History {
                attempts: 0,
                samples: 0,
            },
            3,
        ),
    ];

    /// What a tick leaves: the sorted accepting loads, and the attempts
    /// it booked, keyed `(placed, attempts, samples)` with the history
    /// included (placed balls by their total samples alone, failed ones
    /// by the history they retry with).
    type TickCell = (Vec<u32>, BTreeMap<(bool, u32, u64), u64>);

    /// Exact law of one below-the-bound attempt on `loads` (the
    /// accepting bins) beside `refusing` bins, `slow` of the accepting
    /// ones slow: cells `(landing load, samples)`, `None` for a spent
    /// budget. Every contact is a uniform fleet bin.
    fn below_ball_law(
        loads: &[u32],
        bound: u32,
        refusing: u64,
        slow: u64,
        budget: u64,
    ) -> BTreeMap<(Option<u32>, u64), f64> {
        let fleet = (loads.len() as u64 + refusing) as f64;
        let slow_p = slow as f64 / loads.len() as f64;
        let mut law = BTreeMap::new();
        let mut states = BTreeMap::from([(0u64, 1.0f64)]);
        while let Some((s, p)) = states.pop_first() {
            if s >= budget {
                *law.entry((None, s)).or_insert(0.0) += p;
                continue;
            }
            *states.entry(s + 1).or_insert(0.0) += p * refusing as f64 / fleet;
            for (cost, pc) in [(1u64, 1.0 - slow_p), (2, slow_p)] {
                for &l in loads {
                    let q = p * pc / fleet;
                    if l < bound {
                        *law.entry((Some(l), s + cost)).or_insert(0.0) += q;
                    } else {
                        *states.entry(s + cost).or_insert(0.0) += q;
                    }
                }
            }
        }
        law
    }

    /// Exact law of a whole `Below(t)` tick on the fixture, ball by ball
    /// in group order, each under the bound its share gives it.
    fn tick_oracle(fixed_share: Option<u64>) -> BTreeMap<TickCell, f64> {
        let mut states = BTreeMap::from([((TICK_LOADS.to_vec(), BTreeMap::new()), 1.0)]);
        for (h, balls) in TICK_GROUPS {
            for _ in 0..balls {
                let mut next: BTreeMap<TickCell, f64> = BTreeMap::new();
                for ((loads, booked), p) in states {
                    let resident: u64 = loads.iter().map(|&l| u64::from(l)).sum();
                    let share = fixed_share.unwrap_or(resident + 1);
                    let bound = fair_share_bound(share, loads.len() as u64);
                    let law = below_ball_law(&loads, bound, TICK_REFUSING, TICK_SLOW, TICK_BUDGET);
                    for ((landed, spent), q) in law {
                        let (mut loads, mut booked) = (loads.clone(), booked.clone());
                        let key = match landed {
                            Some(l) => {
                                let i = loads.iter().rposition(|&x| x == l).expect("a bin there");
                                loads[i] += 1;
                                (true, 0, h.samples + spent)
                            }
                            None => (false, h.attempts + 1, h.samples + spent),
                        };
                        *booked.entry(key).or_insert(0) += 1;
                        *next.entry((loads, booked)).or_insert(0.0) += p * q;
                    }
                }
                states = next;
            }
        }
        states
    }

    /// One `Below(t)` tick of `groups` from `loads` through the driver's
    /// batches at width `width`, read back as a [`TickCell`].
    #[allow(clippy::too_many_arguments)]
    fn run_below_tick<R: Rng64 + ?Sized>(
        loads: &[u32],
        refusing: u64,
        slow: u64,
        budget: u64,
        fixed_share: Option<u64>,
        width: Option<u64>,
        groups: &[(History, u64)],
        rng: &mut R,
    ) -> TickCell {
        let mut hist = OccupancyHistogram::from_loads(loads);
        let mut accept = RankIndex::build(&hist);
        let mut tail = LatencyTail::new();
        let mut c = Ledger::new(RetryPolicy::default(), Some(&mut tail));
        c.in_system = hist.total_balls();
        below_tick(
            &mut accept,
            refusing,
            slow,
            budget,
            fixed_share,
            width,
            groups.iter().copied(),
            &mut c,
            0,
            rng,
        );
        accept.write_back(&mut hist);
        let mut booked = BTreeMap::new();
        for &(h, balls) in c.ring.iter().flatten() {
            *booked.entry((false, h.attempts, h.samples)).or_insert(0) += balls;
        }
        drop(c);
        for (i, &balls) in tail.buckets.iter().enumerate() {
            if balls > 0 {
                booked.insert((true, 0, i as u64 + 1), balls);
            }
        }
        (hist.to_sorted_loads(), booked)
    }

    #[test]
    fn below_tick_matches_exact_law_at_every_width() {
        // Threshold's bound 2 closes the open bins within the tick;
        // adaptive's bound starts at 3 and moves to 4 once the resident
        // count passes 8. Widths 1 (ball by ball) to 5 (the whole tick
        // in one batch) must all run the per-contact law.
        use bib_analysis::chisq::chi_square_gof;
        const TICKS: u64 = 100_000;
        for (i, fixed_share) in [Some(4u64), None].into_iter().enumerate() {
            let law = tick_oracle(fixed_share);
            assert!((law.values().sum::<f64>() - 1.0).abs() < 1e-12);
            for width in [1u64, 2, 3, 5] {
                let mut rng = SeedSequence::new(41).child(i as u64).child(width).rng();
                let mut tally: BTreeMap<TickCell, u64> = BTreeMap::new();
                for _ in 0..TICKS {
                    let cell = run_below_tick(
                        &TICK_LOADS,
                        TICK_REFUSING,
                        TICK_SLOW,
                        TICK_BUDGET,
                        fixed_share,
                        Some(width),
                        &TICK_GROUPS,
                        &mut rng,
                    );
                    *tally.entry(cell).or_insert(0) += 1;
                }
                for cell in tally.keys() {
                    assert!(
                        law.contains_key(cell),
                        "share {fixed_share:?}, W = {width}: impossible cell {cell:?}"
                    );
                }
                let observed: Vec<u64> = law
                    .keys()
                    .map(|k| tally.get(k).copied().unwrap_or(0))
                    .collect();
                let probs: Vec<f64> = law.values().copied().collect();
                let gof = chi_square_gof(&observed, &probs, 0, 5.0);
                assert!(
                    gof.p_value > 1e-4,
                    "share {fixed_share:?}, W = {width}: {gof:?}"
                );
            }
        }
    }

    #[test]
    fn below_tick_with_nothing_open_fails_every_ball_without_landing() {
        // Threshold's bound 2 sits at the minimum load: nothing is
        // open, one batch takes the whole group, and every ball fails
        // on its budget. Without slow bins each spends exactly the
        // budget and the tick draws nothing; with them it draws only
        // the law's split, so no draw goes to a landing.
        let loads = [2u32, 2, 3, 5];
        let group = [(History::default(), 1_000)];
        for slow in [0u64, 2] {
            let mut rng = SeedSequence::new(43).child(slow).rng();
            let mut probe = rng;
            let (after, booked) =
                run_below_tick(&loads, 3, slow, 4, Some(4), None, &group, &mut rng);
            assert_eq!(after, loads);
            assert_eq!(booked.values().sum::<u64>(), 1_000);
            for &(placed, attempts, samples) in booked.keys() {
                assert!(!placed && attempts == 1 && (4..=5).contains(&samples));
            }
            if slow == 0 {
                assert_eq!(booked.get(&(false, 1, 4)), Some(&1_000));
            }
            AttemptLaw::new(3, 4, 0, slow, 1, 4).split(1_000, &mut probe, |_, _| {});
            assert_eq!(rng.next_u64(), probe.next_u64(), "a landing drew");
        }
    }

    #[test]
    fn batched_adaptive_tick_matches_ball_by_ball_across_bound_moves() {
        // n = 1000 accepting bins at loads 0, 1, 2 (1000 resident); a
        // tick of 3000 fresh balls plus a retry group moves adaptive's
        // bound three times. Refused contacts and slow bins under a
        // budget of 2 make the failures common. The automatic widths
        // against W = 1, on the pooled class counts, the placements by
        // samples and the failures by samples.
        const REPS: u64 = 300;
        let loads: Vec<u32> = (0..1_000u32).map(|i| i % 3).collect();
        let groups = [
            (
                History {
                    attempts: 1,
                    samples: 2,
                },
                200,
            ),
            (History::default(), 3_000),
        ];
        let mut sides = Vec::new();
        for (i, width) in [None, Some(1u64)].into_iter().enumerate() {
            let mut rng = SeedSequence::new(47).child(i as u64).rng();
            let (mut classes, mut placed, mut failed) =
                (vec![0u64; 16], vec![0u64; 8], vec![0u64; 8]);
            for _ in 0..REPS {
                let (after, booked) =
                    run_below_tick(&loads, 600, 150, 2, None, width, &groups, &mut rng);
                for l in after {
                    classes[l as usize] += 1;
                }
                for ((is_placed, _, samples), balls) in booked {
                    let by = if is_placed { &mut placed } else { &mut failed };
                    by[samples as usize] += balls;
                }
            }
            sides.push([classes, placed, failed]);
        }
        for (what, (a, b)) in ["class counts", "placed by samples", "failed by samples"]
            .into_iter()
            .zip(sides[0].iter().zip(&sides[1]))
        {
            let p = bib_analysis::chisq::chi_square_two_sample(a, b);
            assert!(p > 1e-4, "{what}: p = {p}, batched {a:?} vs W = 1 {b:?}");
        }
    }

    #[test]
    fn latency_tail_quantiles() {
        let mut t = LatencyTail::new();
        for s in [1u64, 1, 1, 2, 2, 3, 100] {
            t.record(s);
        }
        assert_eq!(t.count(), 7);
        assert_eq!(t.quantile(0.5), 2);
        assert_eq!(t.quantile(0.99), 64); // saturating cell
        assert_eq!(LatencyTail::new().quantile(0.5), 0);
        // `record_n(s, k)` is `k` calls of `record(s)`.
        let mut one_by_one = LatencyTail::new();
        let mut grouped = LatencyTail::new();
        for (s, k) in [(1u64, 5u64), (3, 2), (70, 4), (2, 0), (8, 9)] {
            for _ in 0..k {
                one_by_one.record(s);
            }
            grouped.record_n(s, k);
        }
        assert_eq!(grouped, one_by_one);
        assert_eq!(grouped.count(), 20);
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            assert_eq!(grouped.quantile(q), one_by_one.quantile(q), "q = {q}");
        }
    }
}
