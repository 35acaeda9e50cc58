//! `batch-sweep`: replicate sweeps through `Engine::Auto` over the cells
//! the experiment binaries and the slow bench rows use. No stream code
//! runs here, so every `engine`, `outcome` and `replicate` change shows
//! up on this workload alone.

use crate::trace::{span, Timed, Trace};
use crate::{metric, rng_probes, Options, Size, Unit};
use bib_core::prelude::*;
use bib_parallel::protocols::{BoundedLoad, Collision, ParallelGreedy};
use bib_parallel::{replicate_outcomes, ReplicateSpec};
use bib_rng::SeedSequence;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// Cell names, in sweep order.
pub const CELLS: [&str; 9] = [
    "adaptive-square",
    "threshold-square",
    "adaptive-giant",
    "greedy2-square",
    "one-choice",
    "weighted-pl16",
    "collision",
    "bounded-load",
    "parallel-greedy",
];

/// What a cell's outcomes must satisfy besides `Outcome::validate`,
/// which `replicate_outcomes` already calls on every outcome.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Bound {
    /// No guarantee on the load vector.
    None,
    /// The paper's guarantee: max load ≤ ⌈m/n⌉ + 1.
    MaxLoad,
    /// The weighted guarantee: load − fair share ≤ 2 in every bin.
    Overload,
}

/// One cell of the sweep.
struct Cell {
    name: &'static str,
    proto: Box<dyn DynProtocol + Send + Sync>,
    cfg: RunConfig,
    /// Replicates of the unit's one `replicate_outcomes` call. Cheap
    /// cells run many, so each engine sample (the mean allocate time of
    /// one call) is far above the clock's resolution.
    reps: u64,
    bound: Bound,
}

/// The power-law-16 weight shape of the weighted bench rows.
fn power_law_16(n: usize) -> Vec<f64> {
    (0..n).map(|j| 1.5f64.powi((j % 16) as i32)).collect()
}

/// The batch workload after set-up.
pub struct Sweep {
    cells: Vec<Cell>,
    seed: u64,
    size: Size,
    break_first_check: bool,
    /// The first outcome of every cell in the last traced unit, kept for
    /// the validation and materialization probes.
    kept: Vec<(&'static str, Outcome)>,
}

impl Sweep {
    /// Builds the cells (the weighted cell's tables included) and warms
    /// each up with one replicate.
    pub fn setup(opts: &Options, trace: Option<&Mutex<Trace>>) -> Self {
        let full = opts.size == Size::Full;
        // (n, m) per cell shape, and replicates per unit. Replicate
        // counts give each protocol family (paper, greedy, one-choice,
        // weighted, parallel) a similar share of the unit's time, and
        // keep a unit near half a second, so a run holds enough units
        // for its fast quantile (see `FAST_QUANTILE`).
        let sq = if full { 10_000usize } else { 256 };
        let sq_m = (sq * sq) as u64;
        let giant = if full { 1_000_000_000usize } else { 1_000_000 };
        let greedy_n = if full { 1_024usize } else { 128 };
        let w_n = if full { 10_000usize } else { 256 };
        let w_m = if full { 6_000_000u64 } else { 256 * 64 };
        let par = if full { 10_000_000usize } else { 10_000 };
        // The self-tests run two replicates per cell.
        let cell = |name, proto: Box<dyn DynProtocol + Send + Sync>, n, m, reps, bound| Cell {
            name,
            proto,
            cfg: RunConfig::new(n, m).with_engine(Engine::Auto),
            reps: if full { reps } else { 2 },
            bound,
        };
        let weighted = span(trace, "weighted.build", "weighted-pl16", 1, || {
            WeightedAdaptive::new(power_law_16(w_n))
        });
        let giant_m = 16 * giant as u64;
        let greedy_m = (greedy_n * greedy_n) as u64;
        let par_m = par as u64;
        let cells = vec![
            cell(
                "adaptive-square",
                Box::new(Adaptive::paper()),
                sq,
                sq_m,
                1,
                Bound::MaxLoad,
            ),
            cell(
                "threshold-square",
                Box::new(Threshold),
                sq,
                sq_m,
                20,
                Bound::MaxLoad,
            ),
            cell(
                "adaptive-giant",
                Box::new(Adaptive::paper()),
                giant,
                giant_m,
                150,
                Bound::MaxLoad,
            ),
            cell(
                "greedy2-square",
                Box::new(GreedyD::new(2)),
                greedy_n,
                greedy_m,
                4,
                Bound::None,
            ),
            cell(
                "one-choice",
                Box::new(OneChoice),
                sq,
                sq_m,
                200,
                Bound::None,
            ),
            cell(
                "weighted-pl16",
                Box::new(weighted),
                w_n,
                w_m,
                1,
                Bound::Overload,
            ),
            cell(
                "collision",
                Box::new(Collision::new(1)),
                par,
                par_m,
                4_000,
                Bound::None,
            ),
            cell(
                "bounded-load",
                Box::new(BoundedLoad::new(2)),
                par,
                par_m,
                15_000,
                Bound::None,
            ),
            cell(
                "parallel-greedy",
                Box::new(ParallelGreedy::new(2, 4, 1)),
                par,
                par_m,
                3_000,
                Bound::None,
            ),
        ];
        debug_assert!(cells.iter().map(|c| c.name).eq(CELLS));

        let warm = SeedSequence::new(opts.seed).child_str("warm-up").seed();
        for cell in &cells {
            black_box(run_protocol(cell.proto.as_ref(), &cell.cfg, warm));
        }
        Sweep {
            cells,
            seed: opts.seed,
            size: opts.size,
            break_first_check: opts.break_first_check,
            kept: Vec::new(),
        }
    }

    /// One sweep over every cell on the child seeds of unit `k`.
    pub fn unit(&mut self, k: u64, trace: Option<&Mutex<Trace>>) -> Unit {
        let unit_seed = SeedSequence::new(self.seed).child(k);
        let mut u = Unit::default();
        let (mut spb, mut p99, mut gap) = (Vec::new(), Vec::new(), Vec::new());
        let (mut dense, mut outcomes) = (0u64, 0u64);
        let mut kept = Vec::new();
        for (i, cell) in self.cells.iter().enumerate() {
            let (mut t_sum, mut m_sum, mut gap_sum) = (0u64, 0u64, 0u64);
            let mut worst = Vec::new();
            let seed = unit_seed.child_str(cell.name).seed();
            let spec = ReplicateSpec::new(cell.reps, seed).with_threads(1);
            u.checks += cell.reps;
            let broken = self.break_first_check && i == 0;
            let outs = catch_unwind(AssertUnwindSafe(|| {
                span(trace, "replicate.call", cell.name, cell.reps, || {
                    assert!(!broken, "injected check failure");
                    match trace {
                        Some(tr) => {
                            let timed = Timed {
                                inner: cell.proto.as_ref(),
                                label: cell.name,
                                trace: tr,
                            };
                            replicate_outcomes(&timed, &cell.cfg, &spec)
                        }
                        None => replicate_outcomes(cell.proto.as_ref(), &cell.cfg, &spec),
                    }
                })
            }));
            let Ok(outs) = outs else {
                // A replicate failed `validate` inside the replicate
                // layer: the whole call counts as failed.
                u.failed_checks += cell.reps;
                continue;
            };
            dense += outs.iter().filter(|o| o.loads.is_materialized()).count() as u64;
            outcomes += outs.len() as u64;
            span(trace, "outcome.stats", cell.name, cell.reps, || {
                for o in &outs {
                    u.failed_checks += u64::from(!within_bound(o, cell));
                    black_box((o.max_load(), o.min_load(), o.psi(), o.ln_phi()));
                    t_sum += o.total_samples;
                    m_sum += o.m;
                    gap_sum += u64::from(o.gap());
                    worst.push(o.max_samples_per_ball as f64);
                }
            });
            if k == 0 {
                let levels = outs[0].loads.histogram().levels().count();
                u.counts.push(metric(
                    format!("engine.{}.levels", cell.name),
                    levels as f64,
                    "count",
                ));
            }
            if trace.is_some() {
                kept.extend(outs.into_iter().next().map(|o| (cell.name, o)));
            }
            u.ops += m_sum;
            let reps = worst.len().max(1) as f64;
            spb.push(t_sum as f64 / m_sum.max(1) as f64);
            gap.push(gap_sum as f64 / reps);
            // Batch outcomes record only each replicate's worst ball, so
            // the batch tail is the 99th percentile of that count.
            p99.push(crate::quantile(&worst, 0.99));
        }
        let cell_mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        u.samples_per_ball = cell_mean(&spb);
        u.probe_p99 = cell_mean(&p99);
        u.gap_mean = cell_mean(&gap);
        u.failed_frac = u.failed_checks as f64 / u.checks.max(1) as f64;
        u.counts.push(metric(
            "loads.materialized_frac",
            dense as f64 / outcomes.max(1) as f64,
            "ratio",
        ));
        if trace.is_some() {
            self.kept = kept;
        }
        u
    }

    /// Layer probes timed outside the unit, on the outcomes kept from the
    /// last traced unit: `Outcome::validate` on each cell's outcome,
    /// materializing the lazy `adaptive-square` outcome, and fixed numbers
    /// of sampler draws at this workload's parameters (a class split over
    /// the square cells' 10⁴ bins, and the giant cell's 16 balls per bin).
    pub fn probes(&mut self, trace: &Mutex<Trace>) {
        let full = self.size == Size::Full;
        let validates: u64 = if full { 1_000 } else { 10 };
        let kept = std::mem::take(&mut self.kept);
        for (name, o) in &kept {
            span(Some(trace), "outcome.validate", name, validates, || {
                for _ in 0..validates {
                    black_box(o).validate();
                }
            });
        }
        let square = kept.iter().find(|(name, _)| *name == "adaptive-square");
        if let Some((_, o)) = square.filter(|(_, o)| !o.loads.is_materialized()) {
            span(
                Some(trace),
                "loads.materialize",
                "adaptive-square",
                1,
                || {
                    black_box(o.loads.as_slice().len());
                },
            );
        }
        let draws = if full { 1 << 16 } else { 1 << 10 };
        rng_probes(trace, self.seed, (10_000, 0.01), 16.0, draws);
    }
}

/// The cell's load guarantee.
fn within_bound(o: &Outcome, cell: &Cell) -> bool {
    match cell.bound {
        Bound::None => true,
        Bound::MaxLoad => u64::from(o.max_load()) <= cell.cfg.max_load_bound(),
        Bound::Overload => o.max_overload() <= 2.0,
    }
}
