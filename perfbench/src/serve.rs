//! `serve-light` and `serve-heavy`: the serial serve driver under the
//! same fault plan, with greedy[2] and adaptive runs alternating.
//!
//! `serve-light` is the shipped load-balancer regime (n = 10⁵, about
//! 4.5 balls per bin): placement and fault handling dominate and the
//! load span stays under about 10 levels. `serve-heavy` (n = 10³, about
//! 500 balls per bin) uses the same layer differently: per-probe class
//! scans and O(ℓ) departure chains dominate, and the crash window piles
//! the load onto the survivors, widening the span to thousands of
//! levels until it drains after recovery.

use crate::trace::{span, Trace};
use crate::{metric, rng_probes, Options, Size, Unit, Workload};
use bib_core::histogram::OccupancyHistogram;
use bib_core::prelude::*;
use bib_core::stream::{arrival_count, departure_split};
use bib_rng::SeedSequence;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// The fault plan both serve workloads run: 90% of the fleet crashes,
/// a third of the rest turns slow, a fifth drains, then all recover.
pub const PLAN: &str = "crash@60:0.9,slow@80:0.3,drain@100:0.2,recover@140:all";

/// Ticks of the untimed warm-up stream (before any fault is due).
const WARM_TICKS: u64 = 20;

/// Per-layer counts of a serve unit (name, unit), summed over its runs.
pub const COUNTS: [(&str, &str); 9] = [
    ("stream.levels_final", "count"),
    ("stream.gap_p99_ticks", "balls"),
    ("stream.placements", "count"),
    ("stream.samples", "count"),
    ("stream.shed", "count"),
    ("stream.fallbacks", "count"),
    ("stream.useful_probe_frac", "ratio"),
    ("stream.fallback_frac", "ratio"),
    ("faults.alive_frac_min", "ratio"),
];

const FAMILIES: [(Family, &str); 2] = [
    (Family::Greedy(2), "greedy2"),
    (Family::Adaptive, "adaptive"),
];

/// A serve workload after set-up.
pub struct Serve {
    cfg: RunConfig,
    spec: StreamSpec,
    plan: FaultPlan,
    seed: u64,
    size: Size,
    break_first_check: bool,
    /// Binomial departure law of one bin at the target load, and the
    /// per-bin arrival rate per tick: the sampler probes' parameters.
    binomial: (u64, f64),
    lambda: f64,
    /// Final fleet histograms of the last traced unit, one per run.
    finals: Vec<OccupancyHistogram>,
}

impl Serve {
    /// Parses the fault plan, builds the stream spec and warms both
    /// families up on a short fault-free stream.
    pub fn setup(opts: &Options) -> Self {
        let (seed, full) = (opts.seed, opts.size == Size::Full);
        // (bins, ticks, arrivals per tick, departure probability): the
        // steady-state load per bin is arrivals / (p · bins).
        let (n, ticks, per_tick, p) = match (opts.workload, full) {
            (Workload::ServeLight, true) => (100_000usize, 200u64, 50_000u64, 0.1),
            (Workload::ServeLight, false) => (2_000, 170, 1_000, 0.1),
            // Heavy keeps 5 ticks after the recovery at tick 140. The
            // ticks after it, while the widened span drains, cost several
            // times a tick before it, so a longer tail leaves too few
            // units per run for steady times.
            (Workload::ServeHeavy, true) => (1_000, 145, 20_000, 0.04),
            (Workload::ServeHeavy, false) => (100, 145, 2_000, 0.04),
            (Workload::BatchSweep, _) => unreachable!("batch-sweep is not a serve workload"),
        };
        let plan = FaultPlan::parse(PLAN, seed).expect("the serve fault plan parses");
        let retry = RetryPolicy {
            probe_budget: 8,
            ..RetryPolicy::default()
        };
        let spec = StreamSpec::new(ticks, p).with_retry(retry);
        let cfg = RunConfig::new(n, ticks * per_tick);

        let warm_spec = StreamSpec::new(WARM_TICKS, p).with_retry(retry);
        let warm_cfg = RunConfig::new(n, WARM_TICKS * per_tick);
        let warm = SeedSequence::new(seed).child_str("warm-up").seed();
        for (family, _) in FAMILIES {
            black_box(serve(&warm_spec, family, &warm_cfg, warm).outcome.m);
        }

        let load = per_tick as f64 / (p * n as f64);
        Serve {
            cfg,
            spec,
            plan,
            seed,
            size: opts.size,
            break_first_check: opts.break_first_check,
            binomial: (load.round() as u64, p),
            lambda: per_tick as f64 / n as f64,
            finals: Vec::new(),
        }
    }

    /// One greedy[2] and one adaptive serve run on the child seeds of
    /// unit `k`, each under the plan re-seeded from that unit.
    pub fn unit(&mut self, k: u64, trace: Option<&Mutex<Trace>>) -> Unit {
        let unit_seed = SeedSequence::new(self.seed).child(k);
        let mut u = Unit::default();
        let mut finals = Vec::new();
        let (mut spb, mut p99, mut gap) = (Vec::new(), Vec::new(), Vec::new());
        let (mut arrivals, mut shed_total) = (0u64, 0u64);
        let mut c = Counts {
            alive_min: 1.0,
            ..Counts::default()
        };
        for (i, (family, label)) in FAMILIES.into_iter().enumerate() {
            let seeds = unit_seed.child_str(label);
            let plan = FaultPlan::new(
                self.plan.events().to_vec(),
                seeds.child_str("faults").seed(),
            );
            let spec = self.spec.clone().with_faults(plan);
            u.checks += 1;
            let broken = self.break_first_check && i == 0;
            // `serve` validates its outcome (the ledger included) and
            // panics on a failure.
            let report = catch_unwind(AssertUnwindSafe(|| {
                span(trace, "stream.serve", label, 1, || {
                    assert!(!broken, "injected check failure");
                    serve(&spec, family, &self.cfg, seeds.seed())
                })
            }));
            let Ok(report) = report else {
                u.failed_checks += 1;
                continue;
            };
            let o = &report.outcome;
            let s = &o.scenario;
            let ledger = s.arrivals == o.m + s.departed + s.shed;
            // Every fault ends with `recover@140:all` inside the run.
            let recovered = s.alive_frac == 1.0;
            if !(ledger && recovered) {
                u.failed_checks += 1;
            }
            u.ops += report.ops();
            let last = *report
                .series
                .last()
                .expect("a stream of at least one tick records a series");
            spb.push(last.samples as f64 / last.placed.max(1) as f64);
            p99.push(report.latency.quantile(0.99) as f64);
            let gaps: Vec<f64> = report.series.iter().map(|t| f64::from(t.gap)).collect();
            gap.push(gaps.iter().sum::<f64>() / gaps.len().max(1) as f64);
            arrivals += s.arrivals;
            shed_total += s.shed;

            let hist = o.loads.histogram();
            c.levels += hist.levels().count() as f64;
            c.gap_p99 += crate::quantile(&gaps, 0.99);
            c.placements += last.placed as f64;
            c.samples += last.samples as f64;
            c.shed += s.shed as f64;
            c.fallbacks += s.fallbacks as f64;
            let alive_min = report.series.iter().map(|t| t.alive_ppm).min().unwrap_or(0);
            c.alive_min = c.alive_min.min(f64::from(alive_min) / 1e6);
            c.runs += 1;
            finals.push(hist.clone());
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        u.samples_per_ball = mean(&spb);
        u.probe_p99 = mean(&p99);
        u.gap_mean = mean(&gap);
        u.failed_frac = shed_total as f64 / arrivals.max(1) as f64;
        let runs = c.runs.max(1) as f64;
        u.counts = vec![
            metric("stream.levels_final", c.levels / runs, "count"),
            metric("stream.gap_p99_ticks", c.gap_p99 / runs, "balls"),
            metric("stream.placements", c.placements, "count"),
            metric("stream.samples", c.samples, "count"),
            metric("stream.shed", c.shed, "count"),
            metric("stream.fallbacks", c.fallbacks, "count"),
            metric(
                "stream.useful_probe_frac",
                c.placements / c.samples.max(1.0),
                "ratio",
            ),
            metric(
                "stream.fallback_frac",
                c.fallbacks / c.placements.max(1.0),
                "ratio",
            ),
            metric("faults.alive_frac_min", c.alive_min, "ratio"),
        ];
        if trace.is_some() {
            self.finals = finals;
        }
        u
    }

    /// Layer probes timed outside the unit, on the final histograms of
    /// the last traced unit: a class scan (one `levels()` walk plus
    /// `min_load`/`max_load`, standing in for the per-probe cost), one
    /// tick of departures on a clone, the arrival draws of every tick,
    /// fault-plan parsing and the samplers.
    pub fn probes(&mut self, trace: &Mutex<Trace>) {
        let full = self.size == Size::Full;
        let scans: u64 = if full { 10_000 } else { 100 };
        let departs: u64 = if full { 16 } else { 4 };
        let mut rng = SeedSequence::new(self.seed).child_str("stream-probe").rng();
        for hist in &self.finals {
            span(Some(trace), "stream.class_scan", "", scans, || {
                for _ in 0..scans {
                    let hist = black_box(hist);
                    let walked: u64 = hist.levels().map(|(_, c)| c).sum();
                    black_box((walked, hist.min_load(), hist.max_load()));
                }
            });
            let mut clones = vec![hist.clone(); departs as usize];
            span(Some(trace), "stream.depart", "", departs, || {
                for h in &mut clones {
                    black_box(departure_split(h, self.spec.depart_prob, &mut rng));
                }
            });
        }
        let reps = if full { 50 } else { 2 };
        let ticks = self.spec.ticks;
        span(Some(trace), "stream.arrivals", "", reps * ticks, || {
            for _ in 0..reps {
                for tick in 0..ticks {
                    black_box(arrival_count(self.cfg.m, ticks, tick, true, &mut rng));
                }
            }
        });
        let parses: u64 = if full { 1_000 } else { 10 };
        span(Some(trace), "faults.parse", "", parses, || {
            for i in 0..parses {
                black_box(FaultPlan::parse(black_box(PLAN), i).is_ok());
            }
        });
        let draws = if full { 1 << 16 } else { 1 << 10 };
        rng_probes(trace, self.seed, self.binomial, self.lambda, draws);
    }
}

#[derive(Default)]
struct Counts {
    runs: u32,
    levels: f64,
    gap_p99: f64,
    placements: f64,
    samples: f64,
    shed: f64,
    fallbacks: f64,
    alive_min: f64,
}
