//! Heterogeneous-capacity extension: bins with weights, unified with
//! the scenario layer and accelerated by a weight-class histogram
//! engine.
//!
//! The paper's model gives every bin the same capacity share. A natural
//! extension (think servers of different sizes) assigns bin `j` a weight
//! `w_j ≥ 0`; bin `j`'s *fair share* of `t` balls is `t·w_j/W` where
//! `W = Σ w`. The weighted analogue of `adaptive` samples bins
//! **proportionally to weight** (via an alias table) and accepts bin `j`
//! for ball `i` iff
//!
//! ```text
//! load_j < i·w_j/W + 1
//! ```
//!
//! which degenerates to the paper's protocol for uniform weights and
//! yields the per-bin guarantee `load_j ≤ ⌈m·w_j/W⌉ + 1` by the same
//! one-line argument as in the uniform case. Feasibility also carries
//! over: if every bin had `load_j ≥ i·w_j/W + 1` then summing gives
//! `i − 1 ≥ Σ load_j ≥ i + n`, a contradiction.
//!
//! # Architecture
//!
//! Since the scenario-layer refactor the weighted family is no longer a
//! silo: [`WeightedAdaptive`] and [`WeightedOneChoice`] are thin
//! implementations of [`WeightedSchedule`] (the family's scheduling
//! contract) plus [`Protocol`], so they flow through `run_protocol`,
//! observers, `DynProtocol` suites and `bib-parallel`'s
//! `replicate_outcomes` exactly like the uniform protocols, and their
//! outcomes are ordinary [`Outcome`]s annotated with
//! [`Scenario::weighted`]. Two drivers consume the schedule:
//!
//! * [`drive_weighted_sequential`] — the faithful per-ball alias loop
//!   (every engine but `Histogram`), built on the shared
//!   [`drive_sequential`] harness so per-ball observers fire;
//! * [`drive_weighted_histogram`] — the weight-class histogram engine
//!   (engine `Histogram`): bins are grouped into
//!   [`WeightClasses`]; each class keeps its own
//!   [`OccupancyHistogram`]; a segment's intake lands in the uniform
//!   engine's Poissonized rounds (`histogram::poissonized_round`) with one bin
//!   group per class, each open bin of class `c` hit `∝ w_c`, and the
//!   last few balls run an exact per-class collapsed tail. Per-class integer
//!   bounds are derived from the same float acceptance limit the
//!   faithful driver compares against ([`strict_int_bound`]), so the two
//!   drivers make identical accept/reject decisions on every (bin, ball,
//!   load) triple; the round's two moment-matched draws are the only
//!   approximation, which the chi-square suite and the mean-`T` z-test
//!   in `tests/weighted_equivalence.rs` bound.
//!
//! `Engine::Auto` resolves weighted cells through
//! [`Engine::auto_weighted`]. When the number of *distinct* weights
//! exceeds [`MAX_WEIGHT_CLASSES`], the classes geometrically quantize
//! the weight range — a documented approximation (class members then
//! use their class's mean weight, perturbing acceptance bounds by the
//! bucket width); with at most that many distinct weights the grouping
//! is exact.
//!
//! [`Scenario::weighted`]: crate::scenario::Scenario::weighted

use crate::histogram::{poissonized_round, random_permutation, OccupancyHistogram, RoundScratch};
use crate::level_batched::{stream_samples_for_hits_bounded, HISTOGRAM_SAMPLES_CUTOFF};
use crate::protocol::{drive_sequential, Engine, Observer, Outcome, Protocol, RunConfig};
use crate::scenario::{strict_int_bound, Scenario, WeightedSchedule};
use bib_rng::dist::{AliasTable, Distribution, GeometricSampler};
use bib_rng::{Rng64, RngExt};

/// Above this many distinct weights the classes geometrically quantize
/// the positive weight range instead of grouping exactly. The engine's
/// per-segment cost grows with the class count, so the cap is also a
/// performance guard.
pub const MAX_WEIGHT_CLASSES: usize = 64;

/// Below this many remaining balls a weighted batched round stops
/// paying for its per-class fixed cost and the exact per-ball tail
/// takes over (mirrors the uniform histogram engine's cutoff).
const ROUND_CUTOFF: u64 = 16;

/// Validates a weight vector: non-empty, every entry finite and
/// non-negative, at least one entry positive. Returns the total weight.
fn validate_weights(weights: &[f64]) -> f64 {
    assert!(!weights.is_empty(), "need at least one bin");
    let mut total = 0.0f64;
    for &w in weights {
        assert!(
            w >= 0.0 && w.is_finite(),
            "weights must be non-negative and finite, got {w}"
        );
        total += w;
    }
    assert!(total > 0.0, "need at least one positive weight");
    total
}

/// Bins grouped by weight for the weight-class histogram engine.
///
/// With at most [`MAX_WEIGHT_CLASSES`] distinct weights the grouping is
/// *exact*: every member keeps its own weight and the engine's
/// acceptance bounds coincide with the faithful driver's. Beyond that
/// the positive range quantizes into geometric buckets and each class
/// uses its members' mean weight (`exact()` reports which case holds).
/// Zero-weight bins form their own class that is never sampled.
#[derive(Debug, Clone)]
pub struct WeightClasses {
    /// Member bin indices per class (ascending weight order).
    members: Vec<Vec<u32>>,
    /// Representative weight per class.
    weight: Vec<f64>,
    /// Whether every member's weight equals its class weight exactly.
    exact: bool,
    /// Total weight of the *original* vector (`Σ w_j`).
    w_total: f64,
}

impl WeightClasses {
    /// Groups `weights` into at most [`MAX_WEIGHT_CLASSES`] positive
    /// classes (plus a zero class if zero weights are present).
    pub fn build(weights: &[f64]) -> Self {
        let w_total = validate_weights(weights);
        // Exact grouping by weight value, ascending.
        let n = u32::try_from(weights.len()).expect("bin count exceeds u32 — bin ids are u32");
        let mut order: Vec<u32> = (0..n).collect();
        order.sort_by(|&a, &b| {
            weights[a as usize]
                .partial_cmp(&weights[b as usize])
                .expect("validate_weights rejected NaN, so weights are totally ordered")
        });
        let mut distinct = 0usize;
        let mut prev = f64::NAN;
        for &j in &order {
            let w = weights[j as usize];
            if w != prev {
                distinct += 1;
                prev = w;
            }
        }
        let mut members: Vec<Vec<u32>> = Vec::new();
        let mut weight: Vec<f64> = Vec::new();
        let exact = distinct <= MAX_WEIGHT_CLASSES + usize::from(weights[order[0] as usize] == 0.0);
        if exact {
            let mut prev = f64::NAN;
            for &j in &order {
                let w = weights[j as usize];
                if w != prev {
                    members.push(Vec::new());
                    weight.push(w);
                    prev = w;
                }
                members
                    .last_mut()
                    .expect("a class is pushed before its first member (prev starts at NaN)")
                    .push(j);
            }
        } else {
            // Geometric buckets over the positive range; the class
            // weight is the members' mean so the total sampling mass is
            // preserved exactly.
            let mut w_min = f64::INFINITY;
            let mut w_max = 0.0f64;
            for &w in weights {
                if w > 0.0 {
                    w_min = w_min.min(w);
                    w_max = w_max.max(w);
                }
            }
            let span = (w_max / w_min).ln().max(1e-12);
            let buckets = MAX_WEIGHT_CLASSES;
            let mut bucket_members: Vec<Vec<u32>> = vec![Vec::new(); buckets + 1];
            for &j in &order {
                let w = weights[j as usize];
                if w == 0.0 {
                    bucket_members[buckets].push(j);
                } else {
                    let b = (((w / w_min).ln() / span) * buckets as f64) as usize;
                    bucket_members[b.min(buckets - 1)].push(j);
                }
            }
            if !bucket_members[buckets].is_empty() {
                members.push(std::mem::take(&mut bucket_members[buckets]));
                weight.push(0.0);
            }
            for bucket in bucket_members[..buckets].iter_mut() {
                let ms = std::mem::take(bucket);
                if ms.is_empty() {
                    continue;
                }
                let mean = ms.iter().map(|&j| weights[j as usize]).sum::<f64>() / ms.len() as f64;
                members.push(ms);
                weight.push(mean);
            }
        }
        Self {
            members,
            weight,
            exact,
            w_total,
        }
    }

    /// Number of classes (including a zero class, if any).
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether there are no classes (never: construction requires a
    /// non-empty weight vector).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Whether the grouping preserved every weight exactly.
    pub fn exact(&self) -> bool {
        self.exact
    }

    /// Class `c`'s representative weight.
    pub fn weight(&self, c: usize) -> f64 {
        self.weight[c]
    }

    /// Class `c`'s member bin indices.
    pub fn members(&self, c: usize) -> &[u32] {
        &self.members[c]
    }

    /// Per-bin share `w_c/W` of class `c`'s members.
    pub fn share(&self, c: usize) -> f64 {
        self.weight[c] / self.w_total
    }
}

/// How a weighted protocol bounds acceptance: the retry rule half of
/// the family, shared by both the faithful and the histogram drivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WeightedRule {
    /// `load < i·w/W + 1` — the count-free adaptive analogue.
    Adaptive,
    /// `load < m·w/W + 1` — the static-threshold analogue (`m` known).
    Threshold,
}

/// The weighted adaptive protocol (and its static-threshold variant).
///
/// # Examples
///
/// ```
/// use bib_core::weighted::WeightedAdaptive;
/// use bib_rng::SeedSequence;
///
/// // One big server (weight 3) and three small ones.
/// let proto = WeightedAdaptive::new(vec![3.0, 1.0, 1.0, 1.0]);
/// let mut rng = SeedSequence::new(5).rng();
/// let out = proto.run(6_000, &mut rng);
/// out.validate();
/// // Every bin within +2 of its fair share m·w/W.
/// assert!(out.max_overload() <= 2.0);
/// ```
#[derive(Debug, Clone)]
pub struct WeightedAdaptive {
    weights: Vec<f64>,
    rule: WeightedRule,
}

impl WeightedAdaptive {
    /// Creates the adaptive-rule protocol; panics if `weights` is
    /// empty, contains a negative or non-finite entry, or has no
    /// positive entry. Zero weights are legal: such a bin is never
    /// sampled and finishes with load 0.
    pub fn new(weights: Vec<f64>) -> Self {
        validate_weights(&weights);
        Self {
            weights,
            rule: WeightedRule::Adaptive,
        }
    }

    /// The static-threshold variant: accept `load < m·w/W + 1` (the
    /// weighted Czumaj–Stemann rule; `m` must be known in advance).
    pub fn threshold(weights: Vec<f64>) -> Self {
        validate_weights(&weights);
        Self {
            weights,
            rule: WeightedRule::Threshold,
        }
    }

    /// The weight vector.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Runs the full allocation of `m` balls with the faithful per-ball
    /// engine (back-compatible convenience; go through
    /// [`run_protocol`](crate::run::run_protocol) with a
    /// [`RunConfig`] to pick an engine).
    pub fn run<R: Rng64 + ?Sized>(&self, m: u64, rng: &mut R) -> Outcome {
        let cfg = RunConfig::new(self.weights.len(), m);
        self.allocate(&cfg, rng, &mut crate::protocol::NullObserver)
    }
}

impl WeightedSchedule for WeightedAdaptive {
    fn accept_limit(&self, share: f64, ball: u64, m: u64) -> Option<f64> {
        match self.rule {
            WeightedRule::Adaptive => Some(ball as f64 * share + 1.0),
            WeightedRule::Threshold => Some(m as f64 * share + 1.0),
        }
    }

    fn segment_end(&self, share: f64, ball: u64, m: u64) -> u64 {
        match self.rule {
            WeightedRule::Threshold => m,
            WeightedRule::Adaptive => {
                // Closed-form candidate: the bound steps from t to t+1
                // just past i = (t−1)/share; fix up with the exact
                // comparison (float error is a few ulps at most).
                let bnd = |i: u64| strict_int_bound(i as f64 * share + 1.0);
                let t = bnd(ball);
                let mut i = ((t as f64 - 1.0) / share).floor().min(m as f64) as u64;
                i = i.max(ball).min(m);
                while i > ball && bnd(i) > t {
                    i -= 1;
                }
                while i < m && bnd(i + 1) <= t {
                    i += 1;
                }
                debug_assert_eq!(bnd(i), t);
                i
            }
        }
    }
}

impl Protocol for WeightedAdaptive {
    fn name(&self) -> String {
        match self.rule {
            WeightedRule::Adaptive => "weighted-adaptive".into(),
            WeightedRule::Threshold => "weighted-threshold".into(),
        }
    }

    fn allocate<R, O>(&self, cfg: &RunConfig, rng: &mut R, obs: &mut O) -> Outcome
    where
        R: Rng64 + ?Sized,
        O: Observer + ?Sized,
    {
        allocate_weighted(self, &self.weights, cfg, rng, obs)
    }
}

/// Weighted one-choice baseline: each ball joins one weight-proportional
/// sample, no retry.
#[derive(Debug, Clone)]
pub struct WeightedOneChoice {
    weights: Vec<f64>,
}

impl WeightedOneChoice {
    /// Creates the baseline; same validation as [`WeightedAdaptive`]
    /// (negative/NaN rejected, zero weights legal).
    pub fn new(weights: Vec<f64>) -> Self {
        validate_weights(&weights);
        Self { weights }
    }

    /// The weight vector.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Runs the full allocation of `m` balls with the faithful per-ball
    /// engine (back-compatible convenience).
    pub fn run<R: Rng64 + ?Sized>(&self, m: u64, rng: &mut R) -> Outcome {
        let cfg = RunConfig::new(self.weights.len(), m);
        self.allocate(&cfg, rng, &mut crate::protocol::NullObserver)
    }
}

impl WeightedSchedule for WeightedOneChoice {
    fn accept_limit(&self, _share: f64, _ball: u64, _m: u64) -> Option<f64> {
        None
    }
}

impl Protocol for WeightedOneChoice {
    fn name(&self) -> String {
        "weighted-one-choice".into()
    }

    fn allocate<R, O>(&self, cfg: &RunConfig, rng: &mut R, obs: &mut O) -> Outcome
    where
        R: Rng64 + ?Sized,
        O: Observer + ?Sized,
    {
        allocate_weighted(self, &self.weights, cfg, rng, obs)
    }
}

/// The shared `allocate` body of the weighted family: resolves
/// [`Engine::Auto`] through [`Engine::auto_weighted`], then dispatches
/// to the weight-class histogram engine (`Histogram`) or the faithful
/// per-ball driver (anything else: the family has no batched exact
/// path, so `LevelBatched` keeps its exact-final-loads guarantee by
/// running the faithful loop).
fn allocate_weighted<S, R, O>(
    schedule: &S,
    weights: &[f64],
    cfg: &RunConfig,
    rng: &mut R,
    obs: &mut O,
) -> Outcome
where
    S: WeightedSchedule + Protocol,
    R: Rng64 + ?Sized,
    O: Observer + ?Sized,
{
    assert_eq!(
        cfg.n,
        weights.len(),
        "RunConfig.n must equal the weight count"
    );
    // Build the classes once: `Auto` needs the class count to resolve,
    // and the histogram engine then reuses the same grouping.
    let (engine, classes) = match cfg.engine {
        Engine::Auto => {
            let classes = WeightClasses::build(weights);
            let engine = Engine::auto_weighted(cfg.n, cfg.m, classes.len());
            (engine, Some(classes))
        }
        e => (e, None),
    };
    match engine {
        Engine::Histogram => {
            let classes = classes.unwrap_or_else(|| WeightClasses::build(weights));
            drive_weighted_histogram(schedule, weights, &classes, cfg, rng, obs)
        }
        _ => drive_weighted_sequential(schedule, weights, cfg, rng, obs),
    }
}

/// The faithful per-ball weighted driver: one alias-table sample per
/// retry, acceptance by the schedule's float limit, full per-ball
/// observer traffic — built on the shared [`drive_sequential`] harness.
pub fn drive_weighted_sequential<S, R, O>(
    schedule: &S,
    weights: &[f64],
    cfg: &RunConfig,
    rng: &mut R,
    obs: &mut O,
) -> Outcome
where
    S: WeightedSchedule + Protocol,
    R: Rng64 + ?Sized,
    O: Observer + ?Sized,
{
    let w_total: f64 = weights.iter().sum();
    let shares: Vec<f64> = weights.iter().map(|&w| w / w_total).collect();
    let alias = AliasTable::new(weights);
    let m = cfg.m;
    let mut out = drive_sequential(schedule.name(), cfg, rng, obs, |bins, ball, rng| {
        let mut samples = 0u64;
        loop {
            samples += 1;
            let j = alias.sample(rng);
            let accepts = match schedule.accept_limit(shares[j], ball, m) {
                None => true,
                Some(limit) => (bins.load(j) as f64) < limit,
            };
            if accepts {
                bins.place(j);
                return (j, samples);
            }
        }
    });
    out.scenario = Scenario::weighted(weights.to_vec());
    out
}

/// Runs a whole weighted allocation under the weight-class histogram
/// engine: every class keeps its own [`OccupancyHistogram`]; segment
/// intakes land in Poissonized rounds over all classes' open bins, each
/// hit ∝ its class weight (`histogram::poissonized_round`); the last
/// `ROUND_CUTOFF` = 16 balls of each segment run the exact collapsed
/// per-class chain. Bin identities are synthetic within a class (one
/// seeded permutation per class), exactly as in the uniform histogram
/// engine. `Observer::on_ball` never fires;
/// stage traces fire when wanted.
pub fn drive_weighted_histogram<S, R, O>(
    schedule: &S,
    weights: &[f64],
    classes: &WeightClasses,
    cfg: &RunConfig,
    rng: &mut R,
    obs: &mut O,
) -> Outcome
where
    S: WeightedSchedule + Protocol,
    R: Rng64 + ?Sized,
    O: Observer + ?Sized,
{
    let n64 = cfg.n as u64;
    let m = cfg.m;
    let k = classes.len();
    // Per-class state. Zero-weight classes keep no histogram (they can
    // never be sampled); `hists[c]` is indexed in class order.
    let mut hists: Vec<OccupancyHistogram> = (0..k)
        .map(|c| OccupancyHistogram::new(classes.members(c).len().max(1)))
        .collect();
    let shares: Vec<f64> = (0..k).map(|c| classes.share(c)).collect();
    // Per-class permutations for materialization, drawn up front so the
    // stream prefix is independent of how many stages are observed.
    let perms: Vec<Vec<u32>> = (0..k)
        .map(|c| random_permutation(classes.members(c).len(), rng))
        .collect();
    let materialize_all = |hists: &[OccupancyHistogram]| -> Vec<u32> {
        let mut loads = vec![0u32; cfg.n];
        for c in 0..k {
            if shares[c] == 0.0 {
                continue; // zero-weight members stay at load 0
            }
            let sorted = hists[c].to_sorted_loads();
            let members = classes.members(c);
            for (i, &l) in sorted.iter().enumerate() {
                loads[members[perms[c][i] as usize] as usize] = l;
            }
        }
        loads
    };

    let want_stages = obs.wants_stage_ends();
    let mut total_samples = 0u64;
    let mut max_samples = 0u64;
    let mut round = RoundScratch::default();
    let mut bounds: Vec<Option<u32>> = vec![None; k];
    let mut ball = 1u64;
    while ball <= m {
        // Per-class integer bounds, constant over the segment; the
        // segment ends at the earliest bound change over all classes.
        let mut end = m;
        for c in 0..k {
            if shares[c] == 0.0 {
                bounds[c] = Some(0); // never sampled, never open
                continue;
            }
            bounds[c] = schedule
                .accept_limit(shares[c], ball, m)
                .map(strict_int_bound);
            if bounds[c].is_some() {
                end = end.min(schedule.segment_end(shares[c], ball, m));
            }
        }
        debug_assert!(end >= ball);
        if want_stages {
            end = end.min(((ball - 1) / n64 + 1) * n64);
        }
        let count = end - ball + 1;
        let stats = place_weighted_segment(&mut hists, &shares, &bounds, count, &mut round, rng);
        total_samples += stats.0;
        max_samples = max_samples.max(stats.1);
        if want_stages && end.is_multiple_of(n64) {
            obs.on_stage_end(end / n64, &materialize_all(&hists), end);
        }
        ball = end + 1;
    }
    if want_stages && m > 0 && !m.is_multiple_of(n64) {
        obs.on_stage_end(m / n64 + 1, &materialize_all(&hists), m);
    }

    Outcome {
        protocol: schedule.name(),
        n: cfg.n,
        m,
        total_samples,
        max_samples_per_ball: max_samples,
        // Weighted outcomes are dense-born: per-bin weights pin bin
        // identities (only *within* a weight class are bins
        // exchangeable), so the global lazy-histogram reconstruction
        // does not apply — see the lazy-outcome contract on
        // [`crate::loads::Loads`]. Histogram-view statistics still run
        // in O(#distinct loads) off the cached derived histogram.
        loads: materialize_all(&hists).into(),
        scenario: Scenario::weighted(weights.to_vec()),
    }
}

/// Places `count` balls of one constant-bound segment across the weight
/// classes. Returns `(samples, max_samples_per_ball)`.
fn place_weighted_segment<R: Rng64 + ?Sized>(
    hists: &mut [OccupancyHistogram],
    shares: &[f64],
    bounds: &[Option<u32>],
    count: u64,
    round: &mut RoundScratch,
    rng: &mut R,
) -> (u64, u64) {
    if count == 0 {
        return (0, 0);
    }
    let k = hists.len();
    // Open-mass per class: k_c·w_c/W; `None` bound = always open. A
    // class with share 0 is never open (bound forced to Some(0)).
    let open_mass = |hists: &[OccupancyHistogram], c: usize| -> f64 {
        if shares[c] == 0.0 {
            0.0
        } else {
            hists[c].open_bins(bounds[c]) as f64 * shares[c]
        }
    };
    // Feasibility: the segment's balls must fit below the bounds
    // (`None` = an unbounded class has infinite capacity).
    let capacity: Option<u64> = bounds.iter().enumerate().try_fold(0u64, |acc, (c, &b)| {
        b.map(|t| {
            acc + if shares[c] == 0.0 {
                0
            } else {
                hists[c].capacity_below(t)
            }
        })
    });
    if let Some(cap) = capacity {
        assert!(
            count <= cap,
            "weighted segment: {count} balls exceed the remaining capacity {cap}"
        );
    }
    // When no class is bounded every sample lands: the segment costs
    // exactly `count` samples (the one-choice law).
    let unbounded_only = bounds
        .iter()
        .zip(shares)
        .all(|(b, &s)| s == 0.0 || b.is_none());

    let mut left = count;
    let mut samples = 0u64;
    while left >= ROUND_CUTOFF {
        let p: f64 = (0..k).map(|c| open_mass(hists, c)).sum();
        debug_assert!(p > 0.0, "weighted round: no open mass");
        // One Poissonized round over every class's open bins, each hit
        // ∝ its class weight.
        let (hits, kept) = poissonized_round(hists, bounds, shares, left, round, rng);
        samples += if unbounded_only {
            hits
        } else {
            stream_samples_for_hits_bounded(hits, p.min(1.0), HISTOGRAM_SAMPLES_CUTOFF, rng)
        };
        debug_assert!(kept > 0, "a weighted round with open capacity must place");
        if kept == 0 {
            break; // defensive: the exact tail below is always correct
        }
        left -= kept;
    }

    // Exact per-ball tail on the collapsed per-class chains. At most
    // ROUND_CUTOFF balls run here per segment, so per-ball mass
    // recomputation after a bin closes costs nothing.
    let mut max_samples = u64::from(count > left);
    let mut masses: Vec<f64> = (0..k).map(|c| open_mass(hists, c)).collect();
    let mut p: f64 = masses.iter().sum();
    let mut geo: Option<(u64, GeometricSampler)> = None;
    while left > 0 {
        debug_assert!(p > 0.0);
        let s = if unbounded_only {
            1
        } else {
            // Cache the sampler on the bit pattern of p (a bin closing
            // changes it; balls between closings reuse the ln).
            let bits = p.to_bits();
            let g = match &geo {
                Some((gb, g)) if *gb == bits => *g,
                _ => {
                    let g = GeometricSampler::new(p.min(1.0));
                    geo = Some((bits, g));
                    g
                }
            };
            g.sample(rng)
        };
        samples += s;
        max_samples = max_samples.max(s);
        // Class ∝ open mass, then level within the class ∝ open count
        // (walked from the top open level down, where threshold rules
        // pile the mass).
        let mut r = rng.next_f64() * p;
        let mut c = usize::MAX;
        for (i, &mc) in masses.iter().enumerate() {
            if mc <= 0.0 {
                continue;
            }
            c = i;
            if r < mc {
                break;
            }
            r -= mc;
        }
        debug_assert!(c != usize::MAX, "tail ball with no open class");
        let hist = &mut hists[c];
        let kc = hist.open_bins(bounds[c]);
        debug_assert!(kc > 0);
        let mut rr = rng.range_u64(kc);
        let base = hist.min_load();
        let top = match bounds[c] {
            Some(t) => t.min(hist.max_load() + 1),
            None => hist.max_load() + 1,
        };
        let mut chosen = base;
        for l in (base..top).rev() {
            let cnt = hist.count(l);
            if rr < cnt {
                chosen = l;
                break;
            }
            rr -= cnt;
        }
        hist.promote(chosen, 1, 1);
        if bounds[c] == Some(chosen + 1) {
            // The promoted bin closed; refresh this class's mass and
            // the total from scratch to keep float drift out.
            masses[c] = open_mass(hists, c);
            p = masses.iter().sum();
        }
        left -= 1;
    }

    (samples, max_samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::NullObserver;
    use bib_rng::SplitMix64;

    #[test]
    fn uniform_weights_match_guarantee() {
        let n = 64usize;
        let m = 64 * 16u64;
        let p = WeightedAdaptive::new(vec![1.0; n]);
        let mut rng = SplitMix64::new(1);
        let out = p.run(m, &mut rng);
        out.validate();
        // Uniform fair share: the paper's ⌈m/n⌉ + 1 bound.
        let bound = m.div_ceil(n as u64) + 1;
        assert!(out.loads.iter().all(|&l| (l as u64) <= bound));
        assert!(out.max_overload() <= 2.0 + 1e-9);
        assert_eq!(out.scenario.label(), "weighted");
    }

    #[test]
    fn per_bin_guarantee_holds_for_skewed_weights() {
        // Weights 1..=n: bin j's share is proportional to j.
        let n = 32usize;
        let weights: Vec<f64> = (1..=n).map(|j| j as f64).collect();
        let w_total: f64 = weights.iter().sum();
        let m = 4_000u64;
        let p = WeightedAdaptive::new(weights.clone());
        for seed in 0..5u64 {
            let mut rng = SplitMix64::new(seed);
            let out = p.run(m, &mut rng);
            out.validate();
            for (j, &l) in out.loads.iter().enumerate() {
                let fair = m as f64 * weights[j] / w_total;
                assert!(
                    (l as f64) <= fair.ceil() + 1.0 + 1e-9,
                    "seed {seed} bin {j}: load {l} fair {fair}"
                );
            }
        }
    }

    #[test]
    fn allocation_time_stays_linear_with_skew() {
        let n = 256usize;
        // Two classes: heavy bins (weight 8) and light bins (weight 1).
        let weights: Vec<f64> = (0..n).map(|j| if j % 4 == 0 { 8.0 } else { 1.0 }).collect();
        let m = 16_000u64;
        let mut rng = SplitMix64::new(7);
        let out = WeightedAdaptive::new(weights).run(m, &mut rng);
        out.validate();
        assert!(out.time_ratio() < 4.0, "time ratio {}", out.time_ratio());
    }

    #[test]
    fn weighted_one_choice_tracks_fair_share_only_on_average() {
        let weights: Vec<f64> = vec![1.0, 3.0];
        let m = 40_000u64;
        let mut rng = SplitMix64::new(9);
        let out = WeightedOneChoice::new(weights).run(m, &mut rng);
        out.validate();
        // Means near 10k / 30k, but deviation ~ √m ≫ the adaptive bound.
        assert!((out.loads[0] as f64 - 10_000.0).abs() < 600.0);
        assert!((out.loads[1] as f64 - 30_000.0).abs() < 600.0);
    }

    #[test]
    fn weighted_adaptive_beats_one_choice_on_overload() {
        let n = 64usize;
        let weights: Vec<f64> = (0..n).map(|j| 1.0 + (j % 5) as f64).collect();
        let m = 64 * 64u64;
        let mut r1 = SplitMix64::new(11);
        let mut r2 = SplitMix64::new(11);
        let ada = WeightedAdaptive::new(weights.clone()).run(m, &mut r1);
        let one = WeightedOneChoice::new(weights).run(m, &mut r2);
        assert!(ada.max_overload() <= 2.0 + 1e-9);
        assert!(one.max_overload() > ada.max_overload());
        assert!(ada.weighted_psi() < one.weighted_psi());
    }

    #[test]
    fn zero_balls_and_single_bin() {
        let mut rng = SplitMix64::new(13);
        let out = WeightedAdaptive::new(vec![2.5]).run(0, &mut rng);
        out.validate();
        assert_eq!(out.total_samples, 0);
        let out = WeightedAdaptive::new(vec![2.5]).run(9, &mut rng);
        assert_eq!(out.loads, vec![9]);
    }

    #[test]
    fn zero_weight_bins_are_legal_and_stay_empty() {
        let weights = vec![1.0, 0.0, 2.0, 0.0];
        let m = 600u64;
        for engine in [Engine::Faithful, Engine::Histogram] {
            let cfg = RunConfig::new(4, m).with_engine(engine);
            let mut rng = SplitMix64::new(17);
            let out =
                WeightedAdaptive::new(weights.clone()).allocate(&cfg, &mut rng, &mut NullObserver);
            out.validate();
            assert_eq!(out.loads[1], 0, "{engine:?}");
            assert_eq!(out.loads[3], 0, "{engine:?}");
            assert_eq!(out.total_balls(), m);
            // Overloads of zero-weight bins are 0 − 0, not NaN.
            assert!(out.overloads().iter().all(|d| d.is_finite()));
        }
    }

    #[test]
    #[should_panic]
    fn rejects_negative_weight() {
        WeightedAdaptive::new(vec![1.0, -0.5]);
    }

    #[test]
    #[should_panic]
    fn rejects_nan_weight() {
        WeightedAdaptive::new(vec![1.0, f64::NAN]);
    }

    #[test]
    #[should_panic]
    fn rejects_all_zero_weights() {
        WeightedOneChoice::new(vec![0.0, 0.0]);
    }

    #[test]
    fn weight_classes_exact_grouping() {
        let weights = vec![1.0, 8.0, 1.0, 0.0, 8.0, 2.0];
        let c = WeightClasses::build(&weights);
        assert!(c.exact());
        assert_eq!(c.len(), 4); // {0, 1, 2, 8}
        assert_eq!(c.weight(0), 0.0);
        assert_eq!(c.members(0), &[3]);
        let all: usize = (0..c.len()).map(|i| c.members(i).len()).sum();
        assert_eq!(all, weights.len());
    }

    #[test]
    fn weight_classes_quantize_when_too_many_distinct() {
        let n = 4 * MAX_WEIGHT_CLASSES;
        let weights: Vec<f64> = (0..n).map(|j| 1.0 + j as f64 / n as f64).collect();
        let c = WeightClasses::build(&weights);
        assert!(!c.exact());
        assert!(c.len() <= MAX_WEIGHT_CLASSES);
        // Mass is preserved: Σ n_c·w_c = Σ w_j.
        let grouped: f64 = (0..c.len())
            .map(|i| c.weight(i) * c.members(i).len() as f64)
            .sum();
        let total: f64 = weights.iter().sum();
        assert!((grouped - total).abs() < 1e-9 * total);
    }

    #[test]
    fn schedule_bound_matches_faithful_acceptance() {
        // The defining consistency property between the two drivers.
        let p = WeightedAdaptive::new(vec![3.0, 1.0, 0.5, 11.0]);
        let w_total = 15.5f64;
        for (j, &w) in p.weights().iter().enumerate() {
            let share = w / w_total;
            for ball in [1u64, 7, 100, 12345] {
                let limit = p.accept_limit(share, ball, 20_000).unwrap();
                let t = strict_int_bound(limit);
                for load in t.saturating_sub(2)..t + 2 {
                    assert_eq!(
                        (load as f64) < limit,
                        load < t,
                        "bin {j} ball {ball} load {load}"
                    );
                }
            }
        }
    }

    #[test]
    fn segment_end_is_tight() {
        let p = WeightedAdaptive::new(vec![5.0, 1.0]);
        let m = 10_000u64;
        for share in [5.0 / 6.0, 1.0 / 6.0, 1e-7, 0.999] {
            let mut ball = 1u64;
            while ball <= m {
                let end = WeightedSchedule::segment_end(&p, share, ball, m);
                assert!(end >= ball && end <= m);
                let bnd = |i: u64| strict_int_bound(p.accept_limit(share, i, m).unwrap());
                assert_eq!(bnd(end), bnd(ball), "share {share} ball {ball}");
                if end < m {
                    assert!(bnd(end + 1) > bnd(end), "share {share} end {end} not tight");
                }
                ball = end + 1;
            }
        }
    }

    #[test]
    fn histogram_engine_mass_bounds_and_time() {
        let n = 512usize;
        let weights: Vec<f64> = (0..n).map(|j| if j % 3 == 0 { 4.0 } else { 1.0 }).collect();
        let w_total: f64 = weights.iter().sum();
        let m = 60_000u64;
        let cfg = RunConfig::new(n, m).with_engine(Engine::Histogram);
        let mut rng = SplitMix64::new(23);
        let out =
            WeightedAdaptive::new(weights.clone()).allocate(&cfg, &mut rng, &mut NullObserver);
        out.validate();
        for (j, &l) in out.loads.iter().enumerate() {
            let fair = m as f64 * weights[j] / w_total;
            assert!(
                (l as f64) <= fair.ceil() + 1.0 + 1e-9,
                "bin {j}: load {l} fair {fair}"
            );
        }
        assert!(out.time_ratio() >= 1.0 && out.time_ratio() < 4.0);
    }

    #[test]
    fn histogram_one_choice_costs_exactly_m_samples() {
        let weights = vec![1.0, 2.0, 3.0, 4.0];
        let m = 40_000u64;
        let cfg = RunConfig::new(4, m).with_engine(Engine::Histogram);
        let mut rng = SplitMix64::new(29);
        let out = WeightedOneChoice::new(weights).allocate(&cfg, &mut rng, &mut NullObserver);
        out.validate();
        assert_eq!(out.total_samples, m, "one-choice wastes no samples");
    }

    #[test]
    fn auto_resolves_weighted_cells() {
        // Small → faithful; big → histogram. Both must validate.
        let weights = vec![2.0, 1.0, 1.0, 1.0];
        for (m, _expect_hist) in [(100u64, false), (1 << 20, true)] {
            let cfg = RunConfig::new(4, m).with_engine(Engine::Auto);
            let mut rng = SplitMix64::new(31);
            let out =
                WeightedAdaptive::new(weights.clone()).allocate(&cfg, &mut rng, &mut NullObserver);
            out.validate();
            assert_eq!(out.total_balls(), m);
        }
        assert_eq!(Engine::auto_weighted(4, 100, 2), Engine::Faithful);
        assert_eq!(Engine::auto_weighted(4, 1 << 20, 2), Engine::Histogram);
    }

    #[test]
    fn stage_traces_fire_under_both_engines() {
        use crate::protocol::StageTrace;
        let n = 64usize;
        let m = 64 * 5 + 13u64; // 5 full stages + remainder
        let weights: Vec<f64> = (0..n).map(|j| 1.0 + (j % 2) as f64).collect();
        for engine in [Engine::Faithful, Engine::Histogram] {
            let cfg = RunConfig::new(n, m).with_engine(engine);
            let mut rng = SplitMix64::new(37);
            let mut trace = StageTrace::new();
            let out = WeightedAdaptive::new(weights.clone()).allocate(&cfg, &mut rng, &mut trace);
            out.validate();
            assert_eq!(trace.stages, vec![1, 2, 3, 4, 5, 6], "{engine:?}");
        }
    }
}
