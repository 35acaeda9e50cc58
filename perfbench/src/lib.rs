//! The repository benchmark: three closed-loop workloads driven through
//! the library's public calls, end-to-end metrics from untraced units,
//! and per-layer metrics from a separate traced run.
//!
//! A *unit* is the fixed work of one workload, done on child seeds of
//! the workload seed. A run sets up, then repeats units, one after the
//! other, until its time is up. It sets up again after every unit and
//! drops the copy, so `setup_s` samples the host over the whole run as
//! `wall_s` does; both report the fast quantile [`FAST_QUANTILE`] of
//! their samples. A traced run alternates an untraced and a traced unit on the
//! same child seed, so `trace.overhead_frac` compares identical work;
//! after each traced unit it times the layer probes (samplers, class
//! scans, departures, fault-plan parsing) outside the unit.

#![forbid(unsafe_code)]

pub mod batch;
pub mod serve;
pub mod trace;

use bib_rng::dist::{BinomialSampler, Distribution, PoissonSampler};
use bib_rng::{Rng64, SeedSequence};
use std::hint::black_box;
use std::sync::Mutex;
use trace::{now_ns, secs_since, span, Trace};

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Replicate sweep over the batch cells through `Engine::Auto`.
    BatchSweep,
    /// Serve mode at n = 10⁵, about 4.5 balls per bin.
    ServeLight,
    /// Serve mode at n = 10³, about 500 balls per bin.
    ServeHeavy,
}

impl Workload {
    /// Every workload: those `BENCHMARK.json` lists, then `serve-heavy`,
    /// which runs by name but is left out of the bound-checked set.
    pub const ALL: [Workload; 3] = [
        Workload::BatchSweep,
        Workload::ServeLight,
        Workload::ServeHeavy,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchSweep => "batch-sweep",
            Workload::ServeLight => "serve-light",
            Workload::ServeHeavy => "serve-heavy",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input scale: the benchmark's own sizes, or the reduced sizes the
/// self-tests run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` describes.
    Full,
    /// Small inputs that finish in well under a second.
    Small,
}

/// What one invocation runs.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Workload to run.
    pub workload: Workload,
    /// Workload seed; every input derives from it.
    pub seed: u64,
    /// Measurement time after set-up, in seconds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
    /// Input scale.
    pub size: Size,
    /// Self-test hook: the first correctness check of every unit fails
    /// by panicking inside its span, as a failing `Outcome::validate`
    /// does.
    pub break_first_check: bool,
}

/// One printed metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The result of one invocation.
#[derive(Debug)]
pub struct Report {
    /// Every correctness check passed.
    pub correct: bool,
    /// Correctness checks made: one per replicate or serve run.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Units completed (untraced run) or traced pairs (traced run).
    pub units: usize,
    /// Wall time of each untraced unit, in seconds.
    pub walls: Vec<f64>,
    /// Wall time of each set-up, in seconds.
    pub setups: Vec<f64>,
    /// The spans of a traced run.
    pub trace: Option<Trace>,
}

impl Report {
    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite number as JSON (`{:?}` keeps every digit and a decimal
/// point); a non-finite one, which no metric should produce, as 0.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".to_string()
    }
}

/// What one unit produced besides its wall time.
#[derive(Debug, Clone, Default)]
pub struct Unit {
    /// Completed operations: placed balls (batch) or placements plus
    /// departures (serve).
    pub ops: u64,
    /// Correctness checks made.
    pub checks: u64,
    /// Failed checks.
    pub failed_checks: u64,
    /// Probes per placed ball.
    pub samples_per_ball: f64,
    /// 99th-percentile probes per placement.
    pub probe_p99: f64,
    /// Mean max − min load.
    pub gap_mean: f64,
    /// Failed operations ÷ attempted: shed arrivals on serve, replicates
    /// failing a check on batch.
    pub failed_frac: f64,
    /// Per-layer counts of this unit, reported from the first traced
    /// unit so they repeat exactly for a fixed seed.
    pub counts: Vec<Metric>,
}

/// Median of a sample (0 for an empty one).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolation quantile (0 for an empty sample).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = xs.fold((0.0, 0u32), |(s, n), x| (s + x, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / f64::from(n)
    }
}

/// Process peak resident set in MiB (`VmHWM`), 0 where `/proc` is
/// missing.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `f`, returning its output and its wall time in seconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = now_ns();
    let out = f();
    (out, secs_since(start))
}

/// Times `draws` binomial and Poisson draws and 16 × `draws` raw
/// generator outputs.
fn rng_probes(trace: &Mutex<Trace>, seed: u64, binomial: (u64, f64), lambda: f64, draws: u64) {
    let mut rng = SeedSequence::new(seed).child_str("rng-probe").rng();
    let raw = 16 * draws;
    span(Some(trace), "rng.next_u64", "xoshiro256++", raw, || {
        let mut acc = 0u64;
        for _ in 0..raw {
            acc ^= rng.next_u64();
        }
        black_box(acc);
    });
    let bin = BinomialSampler::new(binomial.0, binomial.1);
    span(Some(trace), "rng.binomial", "binomial", draws, || {
        let mut acc = 0u64;
        for _ in 0..draws {
            acc = acc.wrapping_add(bin.sample(&mut rng));
        }
        black_box(acc);
    });
    let poi = PoissonSampler::new(lambda);
    span(Some(trace), "rng.poisson", "poisson", draws, || {
        let mut acc = 0u64;
        for _ in 0..draws {
            acc = acc.wrapping_add(poi.sample(&mut rng));
        }
        black_box(acc);
    });
}

/// A workload after set-up.
enum Bench {
    Batch(batch::Sweep),
    Serve(serve::Serve),
}

impl Bench {
    fn setup(opts: &Options, trace: Option<&Mutex<Trace>>) -> Self {
        match opts.workload {
            Workload::BatchSweep => Bench::Batch(batch::Sweep::setup(opts, trace)),
            _ => Bench::Serve(serve::Serve::setup(opts)),
        }
    }

    fn unit(&mut self, k: u64, trace: Option<&Mutex<Trace>>) -> Unit {
        match self {
            Bench::Batch(b) => b.unit(k, trace),
            Bench::Serve(s) => s.unit(k, trace),
        }
    }

    fn probes(&mut self, trace: &Mutex<Trace>) {
        match self {
            Bench::Batch(b) => b.probes(trace),
            Bench::Serve(s) => s.probes(trace),
        }
    }
}

/// Runs one invocation.
pub fn run(opts: &Options) -> Report {
    let tracer = opts.trace.then(|| Mutex::new(Trace::new()));
    let trace = tracer.as_ref();

    let mut setups = Vec::new();
    let mut setup = || {
        let (bench, wall) = timed(|| {
            trace::span(trace, "bench.setup", opts.workload.name(), 1, || {
                Bench::setup(opts, trace)
            })
        });
        setups.push(wall);
        bench
    };
    let mut bench = setup();

    let start = now_ns();
    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut units = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut untraced = |bench: &mut Bench, k: u64| {
        let (u, wall) = timed(|| bench.unit(k, None));
        walls.push(wall);
        attempted += u.checks;
        failed += u.failed_checks;
        u
    };
    // The run stops before a step the last one says would end past
    // `seconds`, so it takes about `seconds` whatever a unit costs.
    let mut k = 0u64;
    let mut last = 0.0;
    while k == 0 || secs_since(start) + last < opts.seconds {
        let began = now_ns();
        match trace {
            None => units.push(untraced(&mut bench, k)),
            Some(tr) => {
                // A traced pair: the same unit untraced and traced, in
                // alternating order so neither side always runs first.
                tr.lock().expect("trace mutex").set_run(k as u32);
                if k.is_multiple_of(2) {
                    untraced(&mut bench, k);
                }
                let t = now_ns();
                let traced = trace::span(trace, "bench.unit", opts.workload.name(), 1, || {
                    bench.unit(k, trace)
                });
                traced_walls.push(secs_since(t));
                if !k.is_multiple_of(2) {
                    untraced(&mut bench, k);
                }
                bench.probes(tr);
                units.push(traced);
            }
        }
        drop(setup());
        last = secs_since(began);
        k += 1;
    }
    if trace.is_some() {
        attempted += units.iter().map(|u| u.checks).sum::<u64>();
        failed += units.iter().map(|u| u.failed_checks).sum::<u64>();
    }
    let metrics = match tracer {
        None => end_to_end(&setups, &walls, &units),
        Some(ref tr) => {
            let tr = tr.lock().expect("trace mutex");
            per_layer(&tr, &units, &walls, &traced_walls)
        }
    };
    Report {
        correct: failed == 0 && attempted > 0,
        attempted: attempted.max(1),
        failed,
        metrics,
        units: units.len(),
        walls,
        setups,
        trace: tracer.map(|t| t.into_inner().expect("trace mutex")),
    }
}

/// The quantile of a run's set-up and unit times that `setup_s` and
/// `wall_s` report (`ops_per_s` reports the matching fast quantile of
/// the unit rates). On a shared VM the other tenants of a vCPU's core
/// slow a fixed loop by up to 1.6× in phases of seconds to a minute,
/// about as long as a run. A median then reads whichever phase held
/// most of the run; the fast tenth of the units reads the program at
/// the host's undisturbed speed, which some part of nearly every run
/// sees.
pub const FAST_QUANTILE: f64 = 0.1;

fn end_to_end(setups: &[f64], walls: &[f64], units: &[Unit]) -> Vec<Metric> {
    let rates: Vec<f64> = units
        .iter()
        .zip(walls)
        .map(|(u, w)| u.ops as f64 / w)
        .collect();
    vec![
        metric("setup_s", quantile(setups, FAST_QUANTILE), "s"),
        metric("wall_s", quantile(walls, FAST_QUANTILE), "s"),
        metric("ops_per_s", quantile(&rates, 1.0 - FAST_QUANTILE), "1/s"),
        metric("peak_rss_mb", peak_rss_mb(), "MiB"),
        metric(
            "samples_per_ball",
            mean(units.iter().map(|u| u.samples_per_ball)),
            "probes/ball",
        ),
        metric(
            "probe_p99",
            mean(units.iter().map(|u| u.probe_p99)),
            "probes",
        ),
        metric("gap_mean", mean(units.iter().map(|u| u.gap_mean)), "balls"),
    ]
}

/// Per-layer metrics from the spans of a traced run. Layers a workload
/// does not touch report 0: no work was done there.
fn per_layer(tr: &Trace, units: &[Unit], walls: &[f64], traced_walls: &[f64]) -> Vec<Metric> {
    let spans = tr.spans();
    // Per-item time of every span with a given name (and label).
    let per_item = |name: &str, label: Option<&str>, scale: f64| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name && label.is_none_or(|l| s.label == l))
            .map(|s| s.busy_ns as f64 / s.count.max(1) as f64 / scale)
            .collect()
    };
    let mut out = Vec::new();

    // Engine: one sample per replicate_outcomes call, the mean allocate
    // time of its replicates, so cheap cells are timed in batches.
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let (Some(p), "engine.allocate") = (s.parent, s.name) {
            child_ns[p] += s.busy_ns;
        }
    }
    for cell in batch::CELLS {
        let samples: Vec<f64> = spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == "replicate.call" && s.label == cell)
            .map(|(i, s)| child_ns[i] as f64 / s.count.max(1) as f64 / 1e6)
            .collect();
        out.push(metric(
            format!("engine.{cell}.allocate_ms_p50"),
            median(&samples),
            "ms",
        ));
        out.push(metric(
            format!("engine.{cell}.allocate_ms_p90"),
            quantile(&samples, 0.9),
            "ms",
        ));
        out.push(metric(
            format!("engine.{cell}.levels"),
            count(units, &format!("engine.{cell}.levels")),
            "count",
        ));
    }

    out.push(metric(
        "outcome.validate_us_p50",
        median(&per_item("outcome.validate", None, 1e3)),
        "us",
    ));
    out.push(metric(
        "outcome.stats_us_p50",
        median(&per_item("outcome.stats", None, 1e3)),
        "us",
    ));
    out.push(metric(
        "loads.materialized_frac",
        count(units, "loads.materialized_frac"),
        "ratio",
    ));
    out.push(metric(
        "loads.materialize_ms",
        median(&per_item("loads.materialize", None, 1e6)),
        "ms",
    ));
    out.push(metric(
        "weighted.build_ms",
        median(&per_item("weighted.build", None, 1e6)),
        "ms",
    ));

    // Self time per layer inside the traced units, median over units.
    let selfs = tr.self_ns_under("bench.unit");
    let self_ms = |layer: &str| -> f64 {
        let per_unit: Vec<f64> = (0..traced_walls.len() as u32)
            .map(|run| selfs.get(&(run, layer)).copied().unwrap_or(0) as f64 / 1e6)
            .collect();
        median(&per_unit)
    };
    out.push(metric("replicate.overhead_ms", self_ms("replicate"), "ms"));

    out.push(metric(
        "rng.next_u64_ns",
        median(&per_item("rng.next_u64", None, 1.0)),
        "ns",
    ));
    out.push(metric(
        "rng.binomial_ns",
        median(&per_item("rng.binomial", None, 1.0)),
        "ns",
    ));
    out.push(metric(
        "rng.poisson_ns",
        median(&per_item("rng.poisson", None, 1.0)),
        "ns",
    ));

    out.push(metric(
        "stream.class_scan_ns",
        median(&per_item("stream.class_scan", None, 1.0)),
        "ns",
    ));
    out.push(metric(
        "stream.depart_us_per_tick",
        median(&per_item("stream.depart", None, 1e3)),
        "us",
    ));
    out.push(metric(
        "stream.arrivals_us_per_tick",
        median(&per_item("stream.arrivals", None, 1e3)),
        "us",
    ));
    for (name, unit) in serve::COUNTS {
        out.push(metric(name, count(units, name), unit));
    }
    out.push(metric(
        "faults.parse_us",
        median(&per_item("faults.parse", None, 1e3)),
        "us",
    ));
    out.push(metric(
        "failed_frac",
        units.first().map_or(0.0, |u| u.failed_frac),
        "ratio",
    ));
    for layer in ["bench", "engine", "outcome", "stream"] {
        out.push(metric(format!("self_ms.{layer}"), self_ms(layer), "ms"));
    }
    let ratios: Vec<f64> = traced_walls
        .iter()
        .zip(walls)
        .map(|(t, u)| t / u - 1.0)
        .collect();
    out.push(metric("trace.overhead_frac", median(&ratios), "ratio"));
    out
}

/// A count of the first traced unit, 0 where the workload has none.
fn count(units: &[Unit], name: &str) -> f64 {
    units
        .first()
        .and_then(|u| u.counts.iter().find(|m| m.name == name))
        .map_or(0.0, |m| m.value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.9), 9.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn json_keeps_digits() {
        assert_eq!(json_number(0.1234567891), "0.1234567891");
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(f64::NAN), "0.0");
    }
}
