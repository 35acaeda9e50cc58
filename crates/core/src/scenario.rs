//! The scenario layer: one simulation core over the uniform, weighted
//! and parallel-round protocol families.
//!
//! Before this module existed the repository had three architectural
//! silos: the uniform sequential family (everything under
//! [`crate::protocols`], driven by the engines), the
//! heterogeneous-capacity family ([`crate::weighted`], a bespoke
//! per-ball `run` method returning its own outcome type) and the
//! round-synchronous parallel family (`bib-parallel::protocols`, ditto).
//! Only the first was reachable from [`Engine`] dispatch, [`Observer`]s,
//! `run_protocol`/`replicate_outcomes` and the bench harness.
//!
//! The unification has three parts:
//!
//! 1. **One outcome record.** [`Scenario`] is a lightweight annotation
//!    carried by every [`Outcome`]: per-bin weights for heterogeneous
//!    runs, round/message accounting for parallel runs, the arrival
//!    batch for stale-count runs. `Outcome` exposes the scenario-specific
//!    metrics (`max_overload`, `weighted_psi`, `messages_per_ball`, …)
//!    directly, so `WeightedOutcome` and `ParallelOutcome` no longer
//!    exist as separate types and everything downstream — observers,
//!    replication, summaries, JSON — consumes one record.
//!
//! 2. **One scheduling contract per family.** The uniform family already
//!    had [`ThresholdSchedule`](crate::level_batched::ThresholdSchedule)
//!    / [`HistogramSchedule`](crate::histogram::HistogramSchedule); the
//!    weighted family gets [`WeightedSchedule`], the exact analogue with
//!    the acceptance limit expressed per *weight share* instead of per
//!    run. `WeightedAdaptive` and `WeightedOneChoice` are thin
//!    implementations of it; the faithful per-ball driver and the
//!    weight-class histogram engine in [`crate::weighted`] both consume
//!    the same schedule, which is what makes their equivalence testable.
//!
//! 3. **One construction surface.** [`Workload`] × [`Family`] names a
//!    cell of the scenario matrix; [`scenario_protocol`] materialises it
//!    as a boxed [`DynProtocol`], so sweeps
//!    (the bench binaries, the README matrix) can iterate the
//!    cross-product without knowing the concrete types.
//!
//! Engine dispatch now reaches every family: the uniform schedules run
//! the three concrete engines, the weighted family and the parallel
//! round family (`bib-parallel::protocols`) each dispatch between
//! their faithful path and their histogram fast path (`Histogram` →
//! fast path, anything else → faithful), and `Auto` resolves per
//! family through [`Engine::auto_scheduled`] (uniform schedules and
//! the parallel family) / [`Engine::auto_fixed`] /
//! [`Engine::auto_weighted`] — no protocol silently ignores an engine
//! request without a documented aliasing rule.
//!
//! [`Engine::auto_scheduled`]: crate::protocol::Engine::auto_scheduled
//! [`Engine::auto_fixed`]: crate::protocol::Engine::auto_fixed
//! [`Engine::auto_weighted`]: crate::protocol::Engine::auto_weighted
//!
//! [`Engine`]: crate::protocol::Engine
//! [`Observer`]: crate::protocol::Observer
//! [`Outcome`]: crate::protocol::Outcome

use crate::batched::BatchedAdaptive;
use crate::protocol::DynProtocol;
use crate::protocols::{Adaptive, GreedyD, OneChoice, Threshold};
use crate::stream::{StreamProtocol, StreamSpec};
use crate::weighted::{WeightedAdaptive, WeightedOneChoice};

/// Scenario-specific annotations carried by every
/// [`Outcome`](crate::protocol::Outcome).
///
/// The default value (`Scenario::default()`) is the paper's base model:
/// uniform bins, sequential balls, online arrivals. Families outside the
/// base model fill in the fields they add; every field keeps a neutral
/// sentinel so the record stays one flat struct rather than a tree of
/// variants (a run can be weighted *and* round-based).
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Per-bin weights of a heterogeneous run (empty = uniform bins).
    pub weights: Vec<f64>,
    /// Synchronous rounds used by a parallel protocol (0 = sequential).
    pub rounds: u32,
    /// Total messages of a parallel protocol (0 = not message-passing;
    /// sequential protocols account cost in `total_samples` instead).
    pub messages: u64,
    /// Arrival batch size of a stale-count run (0 or 1 = fully online).
    pub batch: u64,
    /// Virtual time steps of a streaming run (0 = one-shot batch).
    pub ticks: u64,
    /// Total arrived balls of a streaming run. The stream ledger is
    /// `arrivals = m + departed + shed` (with `m` the balls still
    /// resident at the end), checked by `Outcome::validate`.
    pub arrivals: u64,
    /// Balls that departed during a streaming run.
    pub departed: u64,
    /// Balls shed after exhausting the retry budget (never silent).
    pub shed: u64,
    /// Balls placed via the one-choice degradation fallback.
    pub fallbacks: u64,
    /// Accepting fraction of the fleet at the end of the run (1.0 for
    /// every non-stream scenario).
    pub alive_frac: f64,
}

impl Default for Scenario {
    fn default() -> Self {
        Self {
            weights: Vec::new(),
            rounds: 0,
            messages: 0,
            batch: 0,
            ticks: 0,
            arrivals: 0,
            departed: 0,
            shed: 0,
            fallbacks: 0,
            alive_frac: 1.0,
        }
    }
}

impl Scenario {
    /// A uniform sequential scenario (the paper's base model).
    pub fn uniform() -> Self {
        Self::default()
    }

    /// A heterogeneous-bin scenario with the given weights.
    pub fn weighted(weights: Vec<f64>) -> Self {
        Self {
            weights,
            ..Self::default()
        }
    }

    /// A round-synchronous parallel scenario.
    pub fn rounds(rounds: u32, messages: u64) -> Self {
        Self {
            rounds,
            messages,
            ..Self::default()
        }
    }

    /// A batched-arrival scenario (count synchronised every `batch`).
    pub fn batched(batch: u64) -> Self {
        Self {
            batch,
            ..Self::default()
        }
    }

    /// A streaming (churn + faults) scenario with its run ledger.
    pub fn stream(
        ticks: u64,
        arrivals: u64,
        departed: u64,
        shed: u64,
        fallbacks: u64,
        alive_frac: f64,
    ) -> Self {
        Self {
            ticks,
            arrivals,
            departed,
            shed,
            fallbacks,
            alive_frac,
            ..Self::default()
        }
    }

    /// Shed balls as a fraction of arrivals (0 when nothing arrived).
    pub fn shed_rate(&self) -> f64 {
        if self.arrivals == 0 {
            0.0
        } else {
            self.shed as f64 / self.arrivals as f64
        }
    }

    /// Canonical label for tables and JSON: `uniform`, `weighted`,
    /// `parallel`, `batched`, `stream`, or `weighted-parallel` for the
    /// (currently hypothetical) combination.
    pub fn label(&self) -> &'static str {
        if self.ticks > 0 {
            return "stream";
        }
        match (!self.weights.is_empty(), self.rounds > 0, self.batch > 1) {
            (true, true, _) => "weighted-parallel",
            (true, false, _) => "weighted",
            (false, true, _) => "parallel",
            (false, false, true) => "batched",
            (false, false, false) => "uniform",
        }
    }
}

/// Smallest integer `t` with `(t as f64) >= limit` — i.e. the strict
/// acceptance bound: for integer loads, `(load as f64) < limit` holds
/// exactly when `load < t`.
///
/// This is *the* bridge between the faithful weighted acceptance test
/// (a float comparison per sample) and the weight-class histogram
/// engine (integer per-class bounds): both must make identical
/// accept/reject decisions, so the bound is derived from the same float
/// comparison, fixup loops included, rather than from an independent
/// ceiling formula that could disagree by an ulp.
pub fn strict_int_bound(limit: f64) -> u32 {
    assert!(limit.is_finite() && limit >= 0.0, "bad bound limit {limit}");
    if limit >= u32::MAX as f64 {
        // No u32 load can reach the limit: the bound saturates (a bin
        // with this limit always accepts). Returning here also keeps
        // the fixup loop below from wrapping at the type boundary.
        return u32::MAX;
    }
    // lint:allow(N1): limit < u32::MAX is checked by the early return above
    let mut t = limit.ceil() as u32;
    while (t as f64) < limit {
        t += 1;
    }
    while t > 0 && ((t - 1) as f64) >= limit {
        t -= 1;
    }
    t
}

/// The scheduling contract of the weighted sequential family: the
/// acceptance limit of a bin is a function of its *weight share*
/// `w_j / W` and the ball index alone, constant over contiguous
/// segments per share. The weighted analogue of
/// [`ThresholdSchedule`](crate::level_batched::ThresholdSchedule).
///
/// Both weighted drivers consume this trait: the faithful per-ball loop
/// compares `(load as f64) < limit` directly, and the weight-class
/// histogram engine converts the same limit to an integer bound with
/// [`strict_int_bound`] — by construction the two make identical
/// decisions on every (bin, ball, load) triple.
pub trait WeightedSchedule {
    /// Acceptance limit for a bin with weight share `share = w/W` at
    /// ball `ball` (1-based) of a run of `m` balls: the bin accepts iff
    /// `(load as f64) < limit`. `None` means the bin always accepts
    /// (the one-choice law).
    fn accept_limit(&self, share: f64, ball: u64, m: u64) -> Option<f64>;

    /// Inclusive index of the last ball whose integer acceptance bound
    /// for `share` equals `ball`'s (`ball ≤ end ≤ m`). The default
    /// implementation inverts [`Self::accept_limit`] with a binary
    /// search and is exact for limits monotone in the ball index;
    /// schedules with closed forms should override it (the weighted
    /// histogram engine calls this once per class per segment).
    fn segment_end(&self, share: f64, ball: u64, m: u64) -> u64 {
        let Some(limit) = self.accept_limit(share, ball, m) else {
            return m;
        };
        let t = strict_int_bound(limit);
        let bound_at = |i: u64| {
            self.accept_limit(share, i, m)
                .map_or(u32::MAX, strict_int_bound)
        };
        if bound_at(m) == t {
            return m;
        }
        // Largest i in [ball, m] with bound_at(i) == t (monotone in i).
        let (mut lo, mut hi) = (ball, m);
        while lo < hi {
            let mid = lo + (hi - lo).div_ceil(2);
            if bound_at(mid) == t {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        lo
    }
}

/// How balls arrive and how bins are shaped — the workload half of a
/// scenario-matrix cell.
#[derive(Debug, Clone, PartialEq)]
pub enum Workload {
    /// The paper's base model: uniform bins, fully online arrivals.
    Uniform,
    /// Heterogeneous bins with the given weights (capacity shares).
    Weighted(Vec<f64>),
    /// Uniform bins, ball count synchronised only every `batch` balls.
    Batched(u64),
    /// Streaming arrivals/departures with faults and retries
    /// ([`StreamSpec`]); every family runs in this cell.
    Stream(StreamSpec),
}

impl Workload {
    /// Canonical label, mirroring [`Scenario::label`].
    pub fn label(&self) -> &'static str {
        match self {
            Workload::Uniform => "uniform",
            Workload::Weighted(_) => "weighted",
            Workload::Batched(_) => "batched",
            Workload::Stream(_) => "stream",
        }
    }
}

/// The protocol half of a scenario-matrix cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// The paper's adaptive protocol (`load < i/n + 1`, weighted:
    /// `load < i·w/W + 1`).
    Adaptive,
    /// The static-threshold protocol (`load < m/n + 1`, weighted:
    /// `load < m·w/W + 1`).
    Threshold,
    /// The one-choice baseline (no retry).
    OneChoice,
    /// `greedy[d]` (uniform workloads only).
    Greedy(u32),
}

impl Family {
    /// Canonical label.
    pub fn label(&self) -> &'static str {
        match self {
            Family::Adaptive => "adaptive",
            Family::Threshold => "threshold",
            Family::OneChoice => "one-choice",
            Family::Greedy(_) => "greedy",
        }
    }
}

/// Materialises one cell of the scenario matrix as a boxed protocol.
///
/// Returns `None` for cells outside the matrix (`greedy[d]` over
/// non-uniform bins, batched arrivals for count-free protocols — a
/// stale count changes nothing when the rule never reads it, so those
/// cells alias their uniform column and are reported there).
///
/// # Examples
///
/// ```
/// use bib_core::prelude::*;
/// use bib_core::scenario::{scenario_protocol, Family, Workload};
///
/// let p = scenario_protocol(&Workload::Weighted(vec![3.0, 1.0, 1.0]), Family::Adaptive).unwrap();
/// let cfg = RunConfig::new(3, 3_000).with_engine(Engine::Auto);
/// let out = run_protocol(p.as_ref(), &cfg, 7);
/// assert_eq!(out.scenario.label(), "weighted");
/// assert!(out.max_overload() <= 2.0);
/// ```
pub fn scenario_protocol(
    workload: &Workload,
    family: Family,
) -> Option<Box<dyn DynProtocol + Send + Sync>> {
    Some(match (workload, family) {
        (Workload::Uniform, Family::Adaptive) => Box::new(Adaptive::paper()),
        (Workload::Uniform, Family::Threshold) => Box::new(Threshold),
        (Workload::Uniform, Family::OneChoice) => Box::new(OneChoice),
        (Workload::Uniform, Family::Greedy(d)) => Box::new(GreedyD::new(d)),
        (Workload::Weighted(w), Family::Adaptive) => Box::new(WeightedAdaptive::new(w.clone())),
        (Workload::Weighted(w), Family::Threshold) => {
            Box::new(WeightedAdaptive::threshold(w.clone()))
        }
        (Workload::Weighted(w), Family::OneChoice) => Box::new(WeightedOneChoice::new(w.clone())),
        (Workload::Weighted(_), Family::Greedy(_)) => return None,
        (Workload::Batched(b), Family::Adaptive) => Box::new(BatchedAdaptive::new(*b)),
        (Workload::Batched(_), _) => return None,
        (Workload::Stream(spec), f) => Box::new(StreamProtocol::new(spec.clone(), f)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Engine, RunConfig};
    use crate::run::run_protocol;

    #[test]
    fn labels_cover_the_matrix() {
        assert_eq!(Scenario::uniform().label(), "uniform");
        assert_eq!(Scenario::weighted(vec![1.0]).label(), "weighted");
        assert_eq!(Scenario::rounds(3, 10).label(), "parallel");
        assert_eq!(Scenario::batched(16).label(), "batched");
        assert_eq!(
            Scenario {
                weights: vec![1.0],
                rounds: 2,
                messages: 4,
                ..Scenario::default()
            }
            .label(),
            "weighted-parallel"
        );
        // batch = 1 is fully online, i.e. plain uniform.
        assert_eq!(Scenario::batched(1).label(), "uniform");
        // A streaming run labels as stream regardless of other fields.
        assert_eq!(Scenario::stream(10, 100, 20, 1, 2, 0.5).label(), "stream");
        assert_eq!(Scenario::default().alive_frac, 1.0);
        assert!((Scenario::stream(10, 100, 20, 1, 2, 0.5).shed_rate() - 0.01).abs() < 1e-12);
    }

    #[test]
    fn strict_int_bound_matches_float_comparison() {
        // The defining property, brute-forced over awkward limits.
        for limit in [
            0.0,
            0.3,
            1.0,
            1.0 + 1e-12,
            2.0 - 1e-12,
            2.0,
            17.999999,
            1e9 + 0.5,
        ] {
            let t = strict_int_bound(limit);
            for l in t.saturating_sub(2)..t + 2 {
                assert_eq!((l as f64) < limit, l < t, "limit={limit} l={l}");
            }
        }
    }

    #[test]
    fn factory_covers_matrix_and_rejects_holes() {
        let weights = vec![2.0, 1.0, 1.0, 1.0];
        for (wl, fam, expect) in [
            (Workload::Uniform, Family::Adaptive, true),
            (Workload::Uniform, Family::Greedy(2), true),
            (Workload::Weighted(weights.clone()), Family::Adaptive, true),
            (Workload::Weighted(weights.clone()), Family::OneChoice, true),
            (Workload::Weighted(weights.clone()), Family::Threshold, true),
            (Workload::Weighted(weights), Family::Greedy(2), false),
            (Workload::Batched(8), Family::Adaptive, true),
            (Workload::Batched(8), Family::Threshold, false),
            (
                Workload::Stream(crate::stream::StreamSpec::new(8, 0.1)),
                Family::Greedy(2),
                true,
            ),
            (
                Workload::Stream(crate::stream::StreamSpec::new(8, 0.1)),
                Family::OneChoice,
                true,
            ),
        ] {
            assert_eq!(
                scenario_protocol(&wl, fam).is_some(),
                expect,
                "{wl:?} × {fam:?}"
            );
        }
    }

    #[test]
    fn factory_cells_run_and_label_their_outcomes() {
        let n = 16usize;
        let m = 160u64;
        let cfg = RunConfig::new(n, m).with_engine(Engine::Faithful);
        let weights: Vec<f64> = (0..n).map(|j| 1.0 + (j % 3) as f64).collect();
        for (wl, label) in [
            (Workload::Uniform, "uniform"),
            (Workload::Weighted(weights), "weighted"),
            (Workload::Batched(8), "batched"),
        ] {
            let p = scenario_protocol(&wl, Family::Adaptive).unwrap();
            let out = run_protocol(p.as_ref(), &cfg, 3);
            out.validate();
            assert_eq!(out.scenario.label(), label, "{wl:?}");
            assert_eq!(out.total_balls(), m);
        }
    }
}
