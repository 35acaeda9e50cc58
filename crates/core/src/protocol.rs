//! The protocol abstraction: run configuration, outcome record,
//! observers, and the [`Protocol`] trait every allocation scheme
//! implements.

use crate::loads::Loads;
use crate::partitioned::PartitionedBins;
use crate::potential::{
    gap, ln_exponential_potential, ln_exponential_potential_classes, quadratic_potential,
    quadratic_potential_classes, EPSILON,
};
use crate::scenario::Scenario;
use bib_rng::Rng64;

/// Which simulation engine a threshold-style protocol uses.
///
/// `Faithful` is the paper's literal process: every ball samples bins
/// one at a time until one accepts (see [`crate::sampler`]). It is the
/// one per-ball engine, so it is the one that fires
/// `Observer::on_ball` with exact sample counts. The name `jump` still
/// parses, as an alias of `faithful`, for command lines written against
/// the removed geometric-jump engine (same `(bin, samples)` law per
/// ball, slower on every measured cell).
///
/// `LevelBatched` places a whole run whose acceptance bound never
/// changes (`threshold`, `adaptive` with `m ≤ n`) with one batched call
/// (see [`crate::level_batched`]), splitting each accepting group's
/// intake with binomial draws instead of placing balls one at a time.
/// It is distributionally *exact on the final load vector* but does not
/// produce per-ball traces: `Observer::on_ball` never fires,
/// `total_samples` is a CLT-faithful draw rather than a per-ball sum,
/// and `max_samples_per_ball` is only a lower-bound proxy. Every other
/// run under this name (a changing bound, or an observer that wants
/// stage ends) is the faithful loop.
///
/// `Histogram` collapses the bin dimension entirely (see
/// [`crate::histogram`]): state is the occupancy histogram
/// `counts[ℓ] = #bins with load ℓ`, rounds advance with binomial splits
/// over occupancy *classes* instead of bins, and the outcome stays
/// **histogram-first**: without a stage-trace observer no concrete load
/// vector is ever built — the [`Outcome`] carries the histogram plus a
/// reconstruction seed ([`crate::loads::Loads`]) and a dense vector is
/// assigned lazily (seeded, cached) only if per-bin loads are demanded.
/// Unlike the other engines it also accelerates the fixed-sample
/// baselines `one-choice` and `greedy[d]` (their landing laws are
/// functions of the histogram CDF) and — as the *round-occupancy*
/// engine in `bib-parallel` — the round-synchronous parallel family,
/// where each round's contacts collapse to a multiplicity profile
/// drawn with the same occupancy machinery; `left[d]`, `memory` and
/// `(1+β)` still ignore the engine entirely.
///
/// `Auto` is not an engine of its own: each protocol resolves it to the
/// measured-fastest concrete engine for its `(protocol, n, m)` cell
/// before running (see [`Engine::auto_scheduled`] /
/// [`Engine::auto_fixed`], calibrated against `BENCH_engines.json`).
///
/// Every engine runs the allocation process of one run on one thread:
/// the paper's protocols are sequential processes (each ball sees the
/// loads the previous ball left), and threads only ever spread
/// independent replicates (`bib-parallel::replicate`). The names
/// `concurrent` and `conc` still parse, as aliases of `auto`, for
/// command lines written against the removed multi-thread single-run
/// engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Engine {
    /// Faithful sample-by-sample retry loop.
    #[default]
    Faithful,
    /// Level-batched group placement of a constant-bound run: binomial
    /// intake splits per load level, exact on final loads, no per-ball
    /// trace.
    LevelBatched,
    /// Occupancy-histogram engine: the bin dimension is collapsed to
    /// `counts[load]`; round cost is `O(#distinct loads)`, independent
    /// of `n`. Final loads reconstructed by seeded random assignment.
    Histogram,
    /// Resolve to the measured-fastest concrete engine per
    /// `(protocol, n, m)` at run time.
    Auto,
}

impl Engine {
    /// All concrete engines, in documentation order. `Auto` is a
    /// selector, not an engine, and is deliberately absent: iterating
    /// `ALL` visits each distinct simulation path exactly once.
    pub const ALL: [Engine; 3] = [Engine::Faithful, Engine::LevelBatched, Engine::Histogram];

    /// Canonical CLI / JSON name.
    pub fn name(&self) -> &'static str {
        match self {
            Engine::Faithful => "faithful",
            Engine::LevelBatched => "level-batched",
            Engine::Histogram => "histogram",
            Engine::Auto => "auto",
        }
    }

    /// Resolves `Auto` for a threshold-scheduled protocol and for the
    /// round-synchronous parallel family (`collision`, `bounded-load`,
    /// `parallel-greedy`).
    ///
    /// Calibrated against the committed `BENCH_engines.json` (a serial,
    /// single-worker run — see `bench_json --serial`): the histogram
    /// engine (for the parallel family, the round-occupancy engine) is
    /// the measured-fastest at every size in the matrix for every
    /// schedule shape (its round cost is independent of `n`), so the
    /// faithful loop only wins when the run is tiny or `n` is so large
    /// relative to `m` that the engine's `O(n)` reconstruction and
    /// assignment permutation dominate the placement work itself.
    pub fn auto_scheduled(n: usize, m: u64) -> Engine {
        if m < (1 << 13) || 4 * m < n as u64 {
            Engine::Faithful
        } else {
            Engine::Histogram
        }
    }

    /// Resolves `Auto` for the fixed-sample protocols that have a
    /// histogram fast path (`one-choice`, `greedy[d]`): per-bin
    /// sequential placement while small (its cache-resident loop is hard
    /// to beat), histogram once the run is heavy enough that collapsing
    /// the bin dimension pays — which `BENCH_engines.json` puts at
    /// roughly a million balls.
    pub fn auto_fixed(n: usize, m: u64) -> Engine {
        if m >= (1 << 20) && 4 * m >= n as u64 {
            Engine::Histogram
        } else {
            Engine::Faithful
        }
    }

    /// Resolves `Auto` for the weighted sequential family, which has two
    /// concrete paths: the faithful per-ball alias loop and the
    /// weight-class histogram engine (`k` = number of weight classes).
    /// The histogram engine's segment count grows with `k·m/n`, so it
    /// needs a few balls per (class, stage) cell to amortise; below that
    /// — and for tiny runs — the cache-resident per-ball loop wins
    /// (measured in `BENCH_engines.json`, `scenario = "weighted"` rows).
    pub fn auto_weighted(n: usize, m: u64, k: usize) -> Engine {
        if m < (1 << 13) || 4 * m < n as u64 || m < 64 * k as u64 {
            Engine::Faithful
        } else {
            Engine::Histogram
        }
    }
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Engine {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "faithful" | "naive" | "jump" => Ok(Engine::Faithful),
            "level-batched" | "batched" | "level_batched" => Ok(Engine::LevelBatched),
            "histogram" | "hist" => Ok(Engine::Histogram),
            "auto" | "concurrent" | "conc" => Ok(Engine::Auto),
            other => Err(format!(
                "unknown engine {other:?}; expected faithful, level-batched, histogram or \
                 auto"
            )),
        }
    }
}

/// Configuration of one allocation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunConfig {
    /// Number of bins `n` (≥ 1).
    pub n: usize,
    /// Number of balls `m`.
    pub m: u64,
    /// Simulation engine. Threshold-style protocols support all three
    /// concrete engines; `one-choice`/`greedy[d]`, the weighted family
    /// and the parallel round family each dispatch between their
    /// faithful path and their histogram fast path (histogram, or
    /// `Auto` resolving to it, takes the fast path; anything else,
    /// `LevelBatched` included, is the exact faithful path);
    /// `left[d]`, `memory` and `(1+β)` ignore the engine. The
    /// allocation process is single-threaded, whatever the engine.
    pub engine: Engine,
}

impl RunConfig {
    /// Creates a configuration with the default (faithful) engine.
    pub fn new(n: usize, m: u64) -> Self {
        assert!(n > 0, "RunConfig: need at least one bin");
        Self {
            n,
            m,
            engine: Engine::Faithful,
        }
    }

    /// Selects the simulation engine.
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// The target height `⌈m/n⌉ + 1` that both paper protocols guarantee
    /// as a maximum load.
    pub fn max_load_bound(&self) -> u64 {
        self.m.div_ceil(self.n as u64) + 1
    }
}

/// Hooks for instrumenting a run without touching protocol code.
///
/// All methods have no-op defaults. `on_stage_end` fires after every
/// batch of `n` placed balls (the paper's *stages*), and once more at the
/// end if `m` is not a multiple of `n`. A run that [`Engine::LevelBatched`]
/// batches fires neither `on_ball` (there is no per-ball event stream)
/// nor `on_stage_end`; it only batches when
/// [`Observer::wants_stage_ends`] returns `false`, so a stage-trace
/// observer always sees every stage.
pub trait Observer {
    /// Called after each ball is placed: its 1-based index, the receiving
    /// bin, and how many bin samples it consumed.
    fn on_ball(&mut self, _ball: u64, _bin: usize, _samples: u64) {}

    /// Called at the end of stage `tau` (1-based) with the load vector
    /// and the number of balls placed so far.
    fn on_stage_end(&mut self, _tau: u64, _loads: &[u32], _total: u64) {}

    /// Whether this observer consumes `on_stage_end`. The batched
    /// engines ask once per run; returning `false` (as [`NullObserver`]
    /// does) lets them batch across stage boundaries — for
    /// [`Engine::LevelBatched`], it is what allows batching at all.
    fn wants_stage_ends(&self) -> bool {
        true
    }
}

/// Forwarding impl so observers can be passed down generic call chains
/// by mutable reference (and so `&mut dyn Observer` can re-enter the
/// monomorphized API).
impl<O: Observer + ?Sized> Observer for &mut O {
    fn on_ball(&mut self, ball: u64, bin: usize, samples: u64) {
        (**self).on_ball(ball, bin, samples)
    }
    fn on_stage_end(&mut self, tau: u64, loads: &[u32], total: u64) {
        (**self).on_stage_end(tau, loads, total)
    }
    fn wants_stage_ends(&self) -> bool {
        (**self).wants_stage_ends()
    }
}

/// The do-nothing observer.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl Observer for NullObserver {
    fn wants_stage_ends(&self) -> bool {
        false
    }
}

/// Records Ψ, Φ (as ln Φ), and the gap at every stage boundary.
///
/// Drives the smoothness time-series example and the Corollary 3.5 /
/// Lemma 4.2 experiments.
#[derive(Debug, Clone, Default)]
pub struct StageTrace {
    /// Stage indices (1-based, one entry per record).
    pub stages: Vec<u64>,
    /// Quadratic potential at each stage end.
    pub psi: Vec<f64>,
    /// Natural log of the exponential potential at each stage end.
    pub ln_phi: Vec<f64>,
    /// Max−min gap at each stage end.
    pub gaps: Vec<u32>,
}

impl StageTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Observer for StageTrace {
    fn on_stage_end(&mut self, tau: u64, loads: &[u32], total: u64) {
        self.stages.push(tau);
        self.psi.push(quadratic_potential(loads, total));
        self.ln_phi
            .push(ln_exponential_potential(loads, total, EPSILON));
        self.gaps.push(gap(loads));
    }
}

/// Records the per-ball sample counts as a histogram (index = samples−1,
/// saturating at the last cell).
#[derive(Debug, Clone)]
pub struct SampleHistogram {
    /// `counts[k]` = number of balls that used `k+1` samples
    /// (last cell = "that many or more").
    pub counts: Vec<u64>,
}

impl SampleHistogram {
    /// Histogram with `cells` cells.
    pub fn new(cells: usize) -> Self {
        assert!(cells >= 1);
        Self {
            counts: vec![0; cells],
        }
    }
}

impl Observer for SampleHistogram {
    fn on_ball(&mut self, _ball: u64, _bin: usize, samples: u64) {
        let idx = ((samples - 1) as usize).min(self.counts.len() - 1);
        self.counts[idx] += 1;
    }
}

/// The result of one allocation run.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Protocol display name.
    pub protocol: String,
    /// Number of bins.
    pub n: usize,
    /// Number of balls placed.
    pub m: u64,
    /// Total number of bin samples drawn — the paper's *allocation time*.
    pub total_samples: u64,
    /// The largest number of samples any single ball needed.
    pub max_samples_per_ball: u64,
    /// Final loads — histogram-first and lazy (see [`Loads`]). Engine
    /// runs without a trace observer carry only the occupancy histogram
    /// plus a reconstruction seed; the dense per-bin vector is built
    /// (then cached) on first per-bin access — slicing, indexing, or
    /// iterating. Every statistic on this record reads the histogram
    /// view in `O(#distinct loads)`, so a no-observer run never pays
    /// the `O(n)` materialization.
    pub loads: Loads,
    /// Scenario annotations: weights for heterogeneous runs, rounds and
    /// messages for parallel runs, the batch for stale-count runs. The
    /// default is the paper's base model (uniform, sequential, online).
    pub scenario: Scenario,
}

impl Outcome {
    /// Total balls accounted for in `loads` (must equal `m`; checked by
    /// [`Outcome::validate`]). `O(#distinct loads)` over the histogram.
    pub fn total_balls(&self) -> u64 {
        if self.loads.is_empty() {
            return 0;
        }
        self.loads.histogram().total_balls()
    }

    /// Maximum final load.
    pub fn max_load(&self) -> u32 {
        if self.loads.is_empty() {
            return 0;
        }
        self.loads.histogram().max_load()
    }

    /// Minimum final load.
    pub fn min_load(&self) -> u32 {
        if self.loads.is_empty() {
            return 0;
        }
        self.loads.histogram().min_load()
    }

    /// Max−min gap.
    pub fn gap(&self) -> u32 {
        self.max_load() - self.min_load()
    }

    /// Allocation time divided by `m` — converges to 1 for `threshold`
    /// (Theorem 4.1) and to a small constant for `adaptive`
    /// (Theorem 3.1).
    pub fn time_ratio(&self) -> f64 {
        if self.m == 0 {
            0.0
        } else {
            self.total_samples as f64 / self.m as f64
        }
    }

    /// Allocation time minus `m` — the excess bounded by
    /// `O(m^{3/4} n^{1/4})` in Theorem 4.1.
    pub fn excess_samples(&self) -> u64 {
        self.total_samples.saturating_sub(self.m)
    }

    /// Final quadratic potential `Ψ_m` (Figure 3(b)) —
    /// `O(#distinct loads)` over the histogram.
    pub fn psi(&self) -> f64 {
        quadratic_potential_classes(self.loads.histogram().levels(), self.n as u64, self.m)
    }

    /// Final exponential potential `Φ_m` at the paper's ε = 1/200.
    pub fn phi(&self) -> f64 {
        self.ln_phi().exp()
    }

    /// `ln Φ_m`, safe for the deep-hole regime of Lemma 4.2 —
    /// `O(#distinct loads)` log-sum-exp over the histogram classes.
    pub fn ln_phi(&self) -> f64 {
        ln_exponential_potential_classes(
            self.loads.histogram().levels(),
            self.n as u64,
            self.m,
            EPSILON,
        )
    }

    /// Bin `j`'s fair share of the `m` balls: `m·w_j/W` for weighted
    /// runs, `m/n` for uniform ones. Zero-weight bins have fair share 0
    /// (no division by their weight is ever performed).
    pub fn fair_share(&self, j: usize) -> f64 {
        if self.scenario.weights.is_empty() {
            self.m as f64 / self.n as f64
        } else {
            let w_total: f64 = self.scenario.weights.iter().sum();
            self.m as f64 * self.scenario.weights[j] / w_total
        }
    }

    /// Per-bin overload `load_j − fair_share(j)` (positive = above fair
    /// share). The weighted max-load guarantee bounds this by ≤ 2
    /// (⌈·⌉ rounding plus the +1 slack). Inherently per-bin, so this
    /// materializes the loads; prefer [`Outcome::max_overload`] /
    /// [`Outcome::weighted_psi`] when only the aggregate is wanted.
    pub fn overloads(&self) -> Vec<f64> {
        // One pass over the weights for the total, not one per bin.
        if self.scenario.weights.is_empty() {
            let fair = self.m as f64 / self.n as f64;
            return self.loads.iter().map(|&l| l as f64 - fair).collect();
        }
        let w_total: f64 = self.scenario.weights.iter().sum();
        self.loads
            .iter()
            .zip(&self.scenario.weights)
            .map(|(&l, &w)| l as f64 - self.m as f64 * w / w_total)
            .collect()
    }

    /// The largest per-bin overload. Uniform runs read it off the
    /// histogram (`max_load − m/n`, `O(#distinct loads)`, no
    /// materialization); weighted runs take one allocation-free pass
    /// over the bins.
    pub fn max_overload(&self) -> f64 {
        if self.scenario.weights.is_empty() {
            if self.loads.is_empty() {
                return f64::NEG_INFINITY;
            }
            return self.max_load() as f64 - self.m as f64 / self.n as f64;
        }
        let w_total: f64 = self.scenario.weights.iter().sum();
        self.loads
            .iter()
            .zip(&self.scenario.weights)
            .map(|(&l, &w)| l as f64 - self.m as f64 * w / w_total)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Weighted quadratic potential `Σ_j (load_j − fair_share_j)²`
    /// (degenerates to Ψ up to the `m/n` centring for uniform runs —
    /// where it is computed over the histogram classes); weighted runs
    /// take one allocation-free pass over the bins.
    pub fn weighted_psi(&self) -> f64 {
        if self.scenario.weights.is_empty() {
            if self.loads.is_empty() {
                return 0.0;
            }
            return self.psi();
        }
        let w_total: f64 = self.scenario.weights.iter().sum();
        self.loads
            .iter()
            .zip(&self.scenario.weights)
            .map(|(&l, &w)| {
                let d = l as f64 - self.m as f64 * w / w_total;
                d * d
            })
            .sum()
    }

    /// Synchronous rounds used (0 for sequential protocols).
    pub fn rounds(&self) -> u32 {
        self.scenario.rounds
    }

    /// Total messages of a parallel run (0 for sequential protocols,
    /// which account cost in [`Outcome::total_samples`]).
    pub fn messages(&self) -> u64 {
        self.scenario.messages
    }

    /// Messages per ball — O(1) is the headline of the bounded-load
    /// related work; 0 for sequential protocols.
    pub fn messages_per_ball(&self) -> f64 {
        if self.m == 0 {
            0.0
        } else {
            self.scenario.messages as f64 / self.m as f64
        }
    }

    /// Balls shed by a streaming run after exhausting their retry
    /// budget (0 for batch runs — they never shed).
    pub fn shed(&self) -> u64 {
        self.scenario.shed
    }

    /// Shed balls as a fraction of arrivals (0 for batch runs).
    pub fn shed_rate(&self) -> f64 {
        self.scenario.shed_rate()
    }

    /// Balls a streaming run placed via the one-choice degradation
    /// fallback (0 for batch runs).
    pub fn fallbacks(&self) -> u64 {
        self.scenario.fallbacks
    }

    /// Accepting fraction of the fleet at the end of the run (1.0 for
    /// batch runs — faults only exist in the streaming scenario).
    pub fn alive_frac(&self) -> f64 {
        self.scenario.alive_frac
    }

    /// Asserts internal consistency: mass conservation, that the sample
    /// count is at least `m` (every ball needs ≥ 1 sample), and that the
    /// scenario annotations are coherent (weights match the bin count
    /// and contain no NaN/negative entry; zero weights are legal and
    /// divide nothing). Runs on every [`crate::run::run_protocol`] call,
    /// so the uniform checks read only the histogram — a lazy outcome
    /// stays lazy through validation (the weighted per-bin check touches
    /// loads, but the weighted family is dense-born).
    pub fn validate(&self) {
        assert_eq!(self.loads.len(), self.n, "loads/n mismatch");
        assert_eq!(self.total_balls(), self.m, "mass not conserved");
        if self.m > 0 {
            assert!(
                self.total_samples >= self.m,
                "fewer samples ({}) than balls ({})",
                self.total_samples,
                self.m
            );
            assert!(self.max_samples_per_ball >= 1);
        }
        if !self.scenario.weights.is_empty() {
            assert_eq!(self.scenario.weights.len(), self.n, "weights/n mismatch");
            let mut w_total = 0.0f64;
            for &w in &self.scenario.weights {
                assert!(w >= 0.0 && w.is_finite(), "bad weight {w}");
                w_total += w;
            }
            assert!(w_total > 0.0, "weights sum to zero");
            // A bin that can never be sampled can never receive a ball.
            for (j, &w) in self.scenario.weights.iter().enumerate() {
                if w == 0.0 {
                    assert_eq!(self.loads[j], 0, "zero-weight bin {j} got balls");
                }
            }
        }
        if self.scenario.rounds > 0 && self.m > 0 {
            assert!(
                self.scenario.messages >= self.m,
                "a parallel run needs at least one message per ball"
            );
        }
        if self.scenario.ticks > 0 {
            // The stream ledger: every arrived ball is resident,
            // departed, or shed — nothing vanishes silently.
            assert_eq!(
                self.scenario.arrivals,
                self.m + self.scenario.departed + self.scenario.shed,
                "stream ledger broken: {} arrivals vs {} resident + {} departed + {} shed",
                self.scenario.arrivals,
                self.m,
                self.scenario.departed,
                self.scenario.shed
            );
            let af = self.scenario.alive_frac;
            assert!((0.0..=1.0).contains(&af), "alive_frac {af} outside [0, 1]");
        }
    }
}

/// An allocation scheme that places `cfg.m` balls into `cfg.n` bins.
///
/// `allocate` is generic over the RNG and the observer, so the whole
/// per-ball hot path — retry loop, distribution draws, observer hooks —
/// monomorphizes and inlines; a [`NullObserver`] run compiles down to
/// pure placement work with zero virtual calls. Code that needs runtime
/// polymorphism (boxed protocol suites, the CLI) goes through the
/// object-safe [`DynProtocol`] wrapper instead.
pub trait Protocol {
    /// Human-readable name (used in tables and outcome records).
    fn name(&self) -> String;

    /// Runs the full allocation, reporting per-ball events to `obs`.
    fn allocate<R, O>(&self, cfg: &RunConfig, rng: &mut R, obs: &mut O) -> Outcome
    where
        R: Rng64 + ?Sized,
        O: Observer + ?Sized;
}

/// Object-safe view of a [`Protocol`], for heterogeneous suites like
/// [`crate::protocols::table1_suite`].
///
/// Every `Protocol` is a `DynProtocol` (blanket impl below), and
/// `dyn DynProtocol` implements `Protocol` back again by type-erasing
/// the RNG and observer — so `Box<dyn DynProtocol>` flows through the
/// same generic entry points (`run_protocol`, `replicate_outcomes`) as
/// concrete protocols, paying one virtual hop per *run* instead of
/// several per *ball*.
pub trait DynProtocol {
    /// [`Protocol::name`], type-erased.
    fn dyn_name(&self) -> String;

    /// [`Protocol::allocate`], type-erased.
    fn dyn_allocate(&self, cfg: &RunConfig, rng: &mut dyn Rng64, obs: &mut dyn Observer)
        -> Outcome;
}

impl<P: Protocol> DynProtocol for P {
    fn dyn_name(&self) -> String {
        Protocol::name(self)
    }

    fn dyn_allocate(
        &self,
        cfg: &RunConfig,
        rng: &mut dyn Rng64,
        obs: &mut dyn Observer,
    ) -> Outcome {
        self.allocate(cfg, rng, obs)
    }
}

macro_rules! impl_protocol_for_dyn {
    ($($ty:ty),+ $(,)?) => {$(
        impl Protocol for $ty {
            fn name(&self) -> String {
                self.dyn_name()
            }

            fn allocate<R, O>(&self, cfg: &RunConfig, rng: &mut R, obs: &mut O) -> Outcome
            where
                R: Rng64 + ?Sized,
                O: Observer + ?Sized,
            {
                // Re-borrowing through `&mut` gives sized handles that
                // coerce to the trait objects the erased API needs.
                let mut rng = rng;
                let mut obs = obs;
                self.dyn_allocate(cfg, &mut rng, &mut obs)
            }
        }
    )+};
}

impl_protocol_for_dyn!(
    dyn DynProtocol + '_,
    dyn DynProtocol + Send + '_,
    dyn DynProtocol + Sync + '_,
    dyn DynProtocol + Send + Sync + '_,
);

/// Drives the common per-ball loop shared by all sequential protocols:
/// calls `place_one` for each ball, maintains the observer callbacks and
/// sample accounting, and assembles the [`Outcome`].
///
/// `place_one(bins, ball_index, rng) -> (bin, samples)` must place the
/// ball itself (via [`PartitionedBins::place`]) before returning.
pub fn drive_sequential<R, O, F>(
    name: String,
    cfg: &RunConfig,
    rng: &mut R,
    obs: &mut O,
    mut place_one: F,
) -> Outcome
where
    R: Rng64 + ?Sized,
    O: Observer + ?Sized,
    F: FnMut(&mut PartitionedBins, u64, &mut R) -> (usize, u64),
{
    let mut bins = PartitionedBins::new(cfg.n);
    let mut total_samples = 0u64;
    let mut max_samples = 0u64;
    let n64 = cfg.n as u64;
    for ball in 1..=cfg.m {
        let before = bins.total();
        let (bin, samples) = place_one(&mut bins, ball, rng);
        debug_assert_eq!(
            bins.total(),
            before + 1,
            "place_one must place exactly one ball"
        );
        total_samples += samples;
        max_samples = max_samples.max(samples);
        obs.on_ball(ball, bin, samples);
        if ball % n64 == 0 {
            obs.on_stage_end(ball / n64, bins.as_slice(), ball);
        }
    }
    if !cfg.m.is_multiple_of(n64) {
        obs.on_stage_end(cfg.m / n64 + 1, bins.as_slice(), cfg.m);
    }
    Outcome {
        protocol: name,
        n: cfg.n,
        m: cfg.m,
        total_samples,
        max_samples_per_ball: max_samples,
        loads: bins.to_load_vector().into_loads().into(),
        scenario: Scenario::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bib_rng::{RngExt, SplitMix64};

    #[test]
    fn engine_names_round_trip_and_aliases_parse() {
        for engine in Engine::ALL.into_iter().chain([Engine::Auto]) {
            assert_eq!(engine.name().parse::<Engine>(), Ok(engine));
        }
        // The removed geometric-jump engine's name resolves like
        // `faithful`, the removed multi-thread engine's like `auto`.
        assert_eq!("jump".parse::<Engine>(), Ok(Engine::Faithful));
        assert_eq!("concurrent".parse::<Engine>(), Ok(Engine::Auto));
        assert_eq!("conc".parse::<Engine>(), Ok(Engine::Auto));
        assert!("warp".parse::<Engine>().is_err());
    }

    /// A trivial protocol for exercising the harness: one uniform choice
    /// per ball.
    struct Trivial;

    impl Protocol for Trivial {
        fn name(&self) -> String {
            "trivial".into()
        }
        fn allocate<R, O>(&self, cfg: &RunConfig, rng: &mut R, obs: &mut O) -> Outcome
        where
            R: Rng64 + ?Sized,
            O: Observer + ?Sized,
        {
            drive_sequential(self.name(), cfg, rng, obs, |bins, _ball, rng| {
                let b = rng.range_usize(bins.n());
                bins.place(b);
                (b, 1)
            })
        }
    }

    #[test]
    fn dyn_wrapper_round_trips() {
        // Boxed protocols flow through the generic API and agree with
        // the direct monomorphized call on the same stream.
        let cfg = RunConfig::new(5, 40);
        let boxed: Box<dyn DynProtocol> = Box::new(Trivial);
        let mut r1 = SplitMix64::new(7);
        let mut r2 = SplitMix64::new(7);
        let a = boxed.allocate(&cfg, &mut r1, &mut NullObserver);
        let b = Trivial.allocate(&cfg, &mut r2, &mut NullObserver);
        assert_eq!(a, b);
        assert_eq!(boxed.name(), "trivial");
    }

    #[test]
    fn run_config_bound() {
        assert_eq!(RunConfig::new(10, 100).max_load_bound(), 11);
        assert_eq!(RunConfig::new(10, 101).max_load_bound(), 12);
        assert_eq!(RunConfig::new(10, 0).max_load_bound(), 1);
    }

    #[test]
    fn drive_sequential_accounts_mass_and_samples() {
        let cfg = RunConfig::new(7, 50);
        let mut rng = SplitMix64::new(1);
        let out = Trivial.allocate(&cfg, &mut rng, &mut NullObserver);
        out.validate();
        assert_eq!(out.total_samples, 50);
        assert_eq!(out.max_samples_per_ball, 1);
        assert_eq!(out.time_ratio(), 1.0);
    }

    #[test]
    fn zero_balls_is_a_valid_run() {
        let cfg = RunConfig::new(3, 0);
        let mut rng = SplitMix64::new(2);
        let out = Trivial.allocate(&cfg, &mut rng, &mut NullObserver);
        out.validate();
        assert_eq!(out.total_samples, 0);
        assert_eq!(out.max_load(), 0);
        assert_eq!(out.time_ratio(), 0.0);
    }

    #[test]
    fn stage_trace_records_every_stage() {
        let cfg = RunConfig::new(5, 23); // 4 full stages + remainder
        let mut rng = SplitMix64::new(3);
        let mut trace = StageTrace::new();
        Trivial.allocate(&cfg, &mut rng, &mut trace);
        assert_eq!(trace.stages, vec![1, 2, 3, 4, 5]);
        assert_eq!(trace.psi.len(), 5);
        assert_eq!(trace.gaps.len(), 5);
        // Potentials are finite and non-negative.
        assert!(trace.psi.iter().all(|&p| p.is_finite() && p >= 0.0));
        assert!(trace.ln_phi.iter().all(|&p| p.is_finite()));
    }

    #[test]
    fn stage_trace_no_duplicate_final_stage_when_divisible() {
        let cfg = RunConfig::new(5, 20);
        let mut rng = SplitMix64::new(4);
        let mut trace = StageTrace::new();
        Trivial.allocate(&cfg, &mut rng, &mut trace);
        assert_eq!(trace.stages, vec![1, 2, 3, 4]);
    }

    #[test]
    fn sample_histogram_totals_balls() {
        let cfg = RunConfig::new(4, 40);
        let mut rng = SplitMix64::new(5);
        let mut hist = SampleHistogram::new(8);
        Trivial.allocate(&cfg, &mut rng, &mut hist);
        assert_eq!(hist.counts.iter().sum::<u64>(), 40);
        assert_eq!(hist.counts[0], 40); // trivial uses exactly 1 sample
    }

    #[test]
    fn outcome_metrics_consistency() {
        let out = Outcome {
            protocol: "x".into(),
            n: 4,
            m: 8,
            total_samples: 10,
            max_samples_per_ball: 3,
            loads: vec![2, 2, 3, 1].into(),
            scenario: Scenario::default(),
        };
        out.validate();
        assert_eq!(out.max_load(), 3);
        assert_eq!(out.min_load(), 1);
        assert_eq!(out.gap(), 2);
        assert_eq!(out.excess_samples(), 2);
        assert!((out.time_ratio() - 1.25).abs() < 1e-12);
        assert!(out.psi() > 0.0);
        assert!(out.phi() > 0.0);
        assert!((out.ln_phi().exp() - out.phi()).abs() < 1e-9 * out.phi());
    }

    #[test]
    #[should_panic]
    fn validate_catches_mass_violation() {
        Outcome {
            protocol: "x".into(),
            n: 2,
            m: 5,
            total_samples: 5,
            max_samples_per_ball: 1,
            loads: vec![1, 1].into(),
            scenario: Scenario::default(),
        }
        .validate();
    }
}
