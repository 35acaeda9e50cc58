//! **E12 — scenario/engine perf matrix** → `BENCH_engines.json`.
//!
//! Runs the uniform protocols (`threshold`, `adaptive`) under every
//! engine (plus `auto`) at fixed sizes, `one-choice` and `greedy[2]`
//! under their histogram fast path at the heavy size, the *weighted*
//! family (faithful vs weight-class histogram engine, several weight
//! shapes) and the *parallel round* protocols (faithful per-contact
//! rounds vs the round-occupancy engine at `n = m = 10⁷`) — one row per
//! cell, each tagged with its `scenario`
//! (`uniform` | `weighted` | `parallel` | `stream`), and writes a
//! machine-readable JSON record (schema v7) so the perf trajectory is
//! tracked in-repo. Every run is single-threaded, so rows carry no
//! thread count.
//! Each row carries `loads_materialized`: whether the outcome ever
//! built its dense per-bin vector, plus the serve-mode degradation
//! ledger `shed_rate`/`alive_frac` (0.0/1.0 for every batch row).
//! Serve-mode (`scenario = stream`) rows run the churn + fault-plan
//! driver with a mid-run mass failure and recovery, so the matrix
//! tracks the sustained-throughput story, not just the batch one. Full
//! (non-smoke) runs add the
//! giant-n histogram-only rows — adaptive and collision at `n = 10⁸`
//! and `10⁹` — which are only possible because the lazy outcome keeps
//! memory independent of `n`. The committed `BENCH_engines.json` at
//! the repo root is a full run on the reference machine; CI re-runs
//! `--quick` to catch engine regressions that break the run itself.
//!
//! The matrix cells are measured in parallel over
//! [`bib_parallel::par_map`] worker threads (one cell per task — cells
//! are independent runs), and the host context that wall-clock numbers
//! depend on (worker threads, rustc version) is recorded in the JSON
//! header. Parallel cells contend for cores, so the *committed*
//! `BENCH_engines.json` — the artifact the `Engine::Auto` cutoffs are
//! calibrated against — must come from a serial run (`--threads 1`, or
//! a single-core host as recorded in `host.threads`).
//!
//! ```text
//! cargo run --release -p bib-bench --bin bench_json \
//!     [-- --quick --out PATH --seed <u64> --threads <n>]
//! ```

use bib_bench::ExpArgs;
use bib_core::prelude::*;
use bib_core::run::run_protocol;
use bib_core::stream::stream_name;
use bib_parallel::protocols::{BoundedLoad, Collision, ParallelGreedy};
use bib_parallel::{available_threads, par_map};
use std::fmt::Write as _;
use std::time::Instant;

/// What a matrix cell runs: a one-shot batch protocol, or a serve-mode
/// stream (churn + fault plan) under a placement family.
enum Work {
    Batch(Box<dyn DynProtocol + Send + Sync>),
    Stream(Box<StreamSpec>, Family),
}

/// One cell of the matrix to measure.
struct Spec {
    work: Work,
    cfg: RunConfig,
    reps: u64,
    /// Engine label for the row.
    engine: &'static str,
    /// Display-name override, e.g. `weighted-adaptive[two-class]` —
    /// weighted cells differ only by their weight shape, which must be
    /// readable off the row key.
    name: Option<String>,
}

impl Spec {
    fn batch(
        proto: Box<dyn DynProtocol + Send + Sync>,
        cfg: RunConfig,
        reps: u64,
        engine: &'static str,
        name: Option<String>,
    ) -> Self {
        Spec {
            work: Work::Batch(proto),
            cfg,
            reps,
            engine,
            name,
        }
    }
}

/// One measured cell.
struct Cell {
    protocol: String,
    scenario: &'static str,
    engine: String,
    n: usize,
    m: u64,
    reps: u64,
    wall_ms_mean: f64,
    wall_ms_best: f64,
    samples_per_ball: f64,
    mballs_per_sec: f64,
    /// Whether the outcome materialized its dense per-bin load vector
    /// (false = lazy histogram outcome; the giant-n rows require it).
    loads_materialized: bool,
    /// Shed fraction of the arrival stream (0.0 for every batch row).
    shed_rate: f64,
    /// Alive bin fraction at the end of the run (1.0 for batch rows).
    alive_frac: f64,
}

fn measure(spec: &Spec, seed: u64) -> Cell {
    // One untimed warm-up rep: page-faults, lazy allocations and branch
    // history belong to the process, not the engine under test. Cells
    // measured with a single rep are multi-second runs where the
    // warm-up would double the cost for no benefit — skip it there.
    let run_once = |rep: u64| -> Outcome {
        let seed = seed.wrapping_add(rep);
        match &spec.work {
            Work::Batch(proto) => run_protocol(proto.as_ref(), &spec.cfg, seed),
            Work::Stream(sspec, family) => serve(sspec, *family, &spec.cfg, seed).outcome,
        }
    };
    if spec.reps > 1 {
        let _ = run_once(u64::MAX);
    }
    let mut wall_ms = 0.0f64;
    let mut wall_ms_best = f64::MAX;
    let mut samples = 0u64;
    let mut scenario = "uniform";
    let mut loads_materialized = false;
    let mut shed_rate = 0.0f64;
    let mut alive_frac = 1.0f64;
    for rep in 0..spec.reps {
        let start = Instant::now();
        let out = run_once(rep);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        wall_ms += ms;
        wall_ms_best = wall_ms_best.min(ms);
        samples += out.total_samples;
        scenario = out.scenario.label();
        loads_materialized = out.loads.is_materialized();
        shed_rate = out.scenario.shed_rate();
        alive_frac = out.scenario.alive_frac;
    }
    let wall_ms_mean = wall_ms / spec.reps as f64;
    Cell {
        protocol: spec.name.clone().unwrap_or_else(|| match &spec.work {
            Work::Batch(proto) => proto.name(),
            Work::Stream(_, family) => stream_name(*family),
        }),
        scenario,
        engine: spec.engine.to_string(),
        n: spec.cfg.n,
        m: spec.cfg.m,
        reps: spec.reps,
        wall_ms_mean,
        wall_ms_best,
        samples_per_ball: if spec.cfg.m == 0 {
            0.0
        } else {
            samples as f64 / (spec.reps * spec.cfg.m) as f64
        },
        mballs_per_sec: spec.cfg.m as f64 / wall_ms_best / 1e3,
        loads_materialized,
        shed_rate,
        alive_frac,
    }
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Benchmark weight vectors: the shapes the weighted chi-square suite
/// exercises, at bench scale.
fn weight_vectors(n: usize) -> Vec<(&'static str, Vec<f64>)> {
    vec![
        ("near-degenerate", {
            let mut w = vec![1.0f64; n];
            w[0] = 1e-6;
            w
        }),
        (
            "two-class",
            (0..n).map(|j| if j % 4 == 0 { 8.0 } else { 1.0 }).collect(),
        ),
        (
            "power-law-16",
            (0..n).map(|j| 1.5f64.powi((j % 16) as i32)).collect(),
        ),
    ]
}

fn main() {
    // `--quick` is the old `--smoke`; `--threads 1` is the old
    // `--serial`; `--out`/`--seed` come straight from the shared flags.
    let args = ExpArgs::parse_with(|flag, _| matches!(flag, "--smoke" | "--serial"));
    let smoke = args.quick || std::env::args().any(|a| a == "--smoke");
    let serial = args.threads == Some(1) || std::env::args().any(|a| a == "--serial");
    let out_path = args
        .out
        .clone()
        .unwrap_or_else(|| "BENCH_engines.json".into());
    let seed = args.seed;

    // (n, phi, reps) grid: light (phi = 16), heavy (phi = 256) and the
    // Lemma 4.2 regime (m = n², phi = n) where the engines separate.
    let sizes: Vec<(usize, u64, u64)> = if smoke {
        vec![(256, 4, 3), (512, 32, 3), (512, 512, 3)]
    } else {
        vec![(4096, 16, 5), (4096, 256, 5), (10_000, 10_000, 5)]
    };

    let mut specs: Vec<Spec> = Vec::new();
    for &(n, phi, reps) in &sizes {
        let m = phi * n as u64;
        for engine in Engine::ALL.into_iter().chain([Engine::Auto]) {
            let cfg = RunConfig::new(n, m).with_engine(engine);
            specs.push(Spec::batch(
                Box::new(Threshold),
                cfg,
                reps,
                engine.name(),
                None,
            ));
            specs.push(Spec::batch(
                Box::new(Adaptive::paper()),
                cfg,
                reps,
                engine.name(),
                None,
            ));
        }
    }
    // Fixed-sample baselines at the heaviest size: the histogram engine
    // is what makes greedy[2] runnable here at all in sane time.
    let &(n_heavy, phi_heavy, _) = sizes.last().unwrap();
    let m_heavy = phi_heavy * n_heavy as u64;
    for engine in [Engine::Faithful, Engine::Histogram, Engine::Auto] {
        let cfg = RunConfig::new(n_heavy, m_heavy).with_engine(engine);
        let reps = if engine == Engine::Faithful && !smoke {
            1 // sequential per-ball at m = n² is seconds per rep
        } else {
            3
        };
        specs.push(Spec::batch(
            Box::new(OneChoice),
            cfg,
            reps,
            engine.name(),
            None,
        ));
        specs.push(Spec::batch(
            Box::new(GreedyD::new(2)),
            cfg,
            reps,
            engine.name(),
            None,
        ));
    }
    // Weighted rows at the heavy size: faithful per-ball vs the
    // weight-class histogram engine, across the weight shapes of the
    // equivalence suite. The engine speedup quoted in the README is
    // wall_ms_best(faithful) / wall_ms_best(histogram) per shape.
    let (n_w, m_w) = if smoke {
        (512usize, 512 * 64u64)
    } else {
        (10_000usize, 100_000_000u64)
    };
    for (shape, weights) in weight_vectors(n_w) {
        for engine in [Engine::Faithful, Engine::Histogram, Engine::Auto] {
            let cfg = RunConfig::new(n_w, m_w).with_engine(engine);
            let reps = if engine == Engine::Faithful && !smoke {
                1
            } else {
                3
            };
            specs.push(Spec::batch(
                Box::new(WeightedAdaptive::new(weights.clone())),
                cfg,
                reps,
                engine.name(),
                Some(format!("weighted-adaptive[{shape}]")),
            ));
        }
        let cfg = RunConfig::new(n_w, m_w).with_engine(Engine::Histogram);
        specs.push(Spec::batch(
            Box::new(WeightedOneChoice::new(weights)),
            cfg,
            3,
            Engine::Histogram.name(),
            Some(format!("weighted-one-choice[{shape}]")),
        ));
    }
    // Parallel-round rows at m = n: faithful per-contact rounds vs the
    // round-occupancy engine. The heavy size (n = m = 10⁷) is the
    // engine's acceptance regime — the faithful path is per-contact and
    // cache-miss-bound there, while the engine's per-round work is
    // independent of the contact count and its residual cost is the
    // O(n) load reconstruction.
    let n_p = if smoke { 1 << 12 } else { 10_000_000 };
    type MakeProto = fn() -> Box<dyn DynProtocol + Send + Sync>;
    let parallel_protos: [MakeProto; 3] = [
        || Box::new(Collision::new(1)),
        || Box::new(BoundedLoad::new(2)),
        || Box::new(ParallelGreedy::new(2, 4, 1)),
    ];
    for make in &parallel_protos {
        for engine in [Engine::Faithful, Engine::Histogram, Engine::Auto] {
            let cfg = RunConfig::new(n_p, n_p as u64).with_engine(engine);
            let reps = if engine == Engine::Faithful && !smoke {
                1 // the faithful rounds are seconds per rep at 10⁷
            } else {
                3
            };
            specs.push(Spec::batch(make(), cfg, reps, engine.name(), None));
        }
    }

    // Giant-n histogram-only rows: with the lazy outcome the engine's
    // state and result are both histograms, so memory is independent
    // of n and the sweep reaches n = 10⁸ and 10⁹ — sizes where merely
    // allocating the dense load vector would cost seconds (or, at
    // 10⁹ bins × 4 B, four gigabytes). One sequential row (adaptive —
    // the paper's protocol — at phi = 16, milliseconds even at
    // 1.6 × 10¹⁰ balls) and one parallel row (collision at m = n) per
    // size.
    if !smoke {
        for n_g in [100_000_000usize, 1_000_000_000] {
            let cfg = RunConfig::new(n_g, 16 * n_g as u64).with_engine(Engine::Histogram);
            specs.push(Spec::batch(
                Box::new(Adaptive::paper()),
                cfg,
                3,
                Engine::Histogram.name(),
                None,
            ));
            let cfg = RunConfig::new(n_g, n_g as u64).with_engine(Engine::Histogram);
            specs.push(Spec::batch(
                Box::new(Collision::new(1)),
                cfg,
                3,
                Engine::Histogram.name(),
                None,
            ));
        }
    }

    // Serve-mode rows: a seeded churn stream with a mid-run mass
    // failure (half the fleet dies, later recovers) under the default
    // retry/backoff policy, one row per placement family. The
    // degradation ledger lands in the row as `shed_rate`/`alive_frac`;
    // `balls-lint --check-bench` requires at least one stream row, so
    // serve mode can never silently drop out of the committed matrix.
    let (n_s, ticks_s) = if smoke {
        (512usize, 40u64)
    } else {
        (100_000usize, 200u64)
    };
    let m_s = ticks_s * if smoke { 400 } else { 50_000 };
    let stream_spec = || {
        Box::new(
            StreamSpec::new(ticks_s, 0.10)
                .with_faults(FaultPlan::mass_failure(
                    ticks_s / 3,
                    0.5,
                    2 * ticks_s / 3,
                    7,
                ))
                .with_retry(RetryPolicy::default()),
        )
    };
    for family in [Family::Greedy(2), Family::Adaptive] {
        specs.push(Spec {
            work: Work::Stream(stream_spec(), family),
            cfg: RunConfig::new(n_s, m_s),
            reps: 3,
            engine: "stream",
            name: None,
        });
    }

    let threads = if serial {
        1
    } else {
        args.threads_or_available()
    };
    let cells: Vec<Cell> = par_map(specs.len(), threads, |i| measure(&specs[i], seed));

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"schema\": \"bib-bench/engines/v7\",");
    let _ = writeln!(json, "  \"seed\": {seed},");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(
        json,
        "  \"host\": {{\"threads\": {threads}, \"available_threads\": {}, \"rustc\": \"{}\"}},",
        available_threads(),
        rustc_version()
    );
    json.push_str("  \"results\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"protocol\": \"{}\", \"scenario\": \"{}\", \"engine\": \"{}\", \
             \"n\": {}, \"m\": {}, \"reps\": {}, \"wall_ms_mean\": {:.3}, \
             \"wall_ms_best\": {:.3}, \"samples_per_ball\": {:.6}, \"mballs_per_sec\": {:.3}, \
             \"loads_materialized\": {}, \"shed_rate\": {:.6}, \"alive_frac\": {:.6}}}",
            c.protocol,
            c.scenario,
            c.engine,
            c.n,
            c.m,
            c.reps,
            c.wall_ms_mean,
            c.wall_ms_best,
            c.samples_per_ball,
            c.mballs_per_sec,
            c.loads_materialized,
            c.shed_rate,
            c.alive_frac
        );
        json.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));

    // Human-readable echo.
    println!(
        "# wrote {out_path} ({} cells, {} worker threads)",
        cells.len(),
        threads
    );
    println!(
        "{:<20} {:<10} {:>14} {:>11} {:>13} {:>12} {:>12} {:>14} {:>12} {:>6} {:>9} {:>7}",
        "protocol",
        "scenario",
        "engine",
        "n",
        "m",
        "wall_mean",
        "wall_best",
        "samples/ball",
        "Mballs/s",
        "lazy",
        "shed",
        "alive"
    );
    for c in &cells {
        println!(
            "{:<20} {:<10} {:>14} {:>11} {:>13} {:>12.3} {:>12.3} {:>14.4} {:>12.2} {:>6} {:>9.5} {:>7.3}",
            c.protocol,
            c.scenario,
            c.engine,
            c.n,
            c.m,
            c.wall_ms_mean,
            c.wall_ms_best,
            c.samples_per_ball,
            c.mballs_per_sec,
            if c.loads_materialized { "no" } else { "yes" },
            c.shed_rate,
            c.alive_frac
        );
    }
}
