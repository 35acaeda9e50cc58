//! **E9 — parallel allocation rounds** (Table 1 context: Lenzen &
//! Wattenhofer \[12\], Adler et al. \[1\]).
//!
//! Sweeps `n` (with `m = n`) and reports mean rounds, messages per ball
//! and max load for the bounded-load (cap 2) and collision (c = 1)
//! protocols, next to `log*₂(n)` — the round complexity the paper quotes
//! for \[12\].
//!
//! Since the scenario-layer unification the round protocols are plain
//! [`Protocol`]s, so the sweep replicates
//! them through the same parallel machinery
//! ([`replicate_outcomes`]) as every
//! sequential experiment, honouring `--threads` — and, since the
//! round-occupancy engine, `--engine` (default `faithful`; `histogram`
//! or `auto` run the batched rounds, which makes the full sweep's
//! largest sizes near-instant). `--threads` only spreads replicates:
//! every run is single-threaded, so the table is the same at any
//! thread count.
//!
//! ```text
//! cargo run --release -p bib-bench --bin parallel_rounds \
//!     [-- --quick --csv --threads <n> --engine <faithful|histogram|auto>]
//! ```

use bib_bench::{f, ExpArgs, Table};
use bib_core::prelude::*;
use bib_parallel::protocols::{log_star, BoundedLoad, Collision, ParallelGreedy};
use bib_parallel::replicate::summarize_metric;
use bib_parallel::replicate_outcomes;

fn main() {
    let args = ExpArgs::parse();
    let exps: Vec<u32> = args.pick(vec![8, 10, 12, 14, 16, 18, 20], vec![8, 10, 12]);
    let reps = args.reps_or(10, 3);

    let engine = args.engine_or(Engine::Faithful);
    println!("# Parallel protocols at m = n; {reps} reps");
    println!(
        "# path: {engine} engine per run, replicates across {} thread(s)\n",
        args.threads_or_available()
    );
    let mut table = Table::new(vec![
        "scenario",
        "n",
        "log*",
        "bl_rounds",
        "bl_msg/ball",
        "bl_max",
        "col_rounds",
        "col_msg/ball",
        "col_max",
        "pg_r1_max",
        "pg_r4_max",
    ]);

    for &e in &exps {
        let n = 1usize << e;
        let cfg = RunConfig::new(n, n as u64).with_engine(engine);
        let spec = args.replicate_spec(reps);
        let bl = replicate_outcomes(&BoundedLoad::new(2), &cfg, &spec);
        let co = replicate_outcomes(&Collision::new(1), &cfg, &spec);
        let g1 = replicate_outcomes(&ParallelGreedy::new(2, 1, 1), &cfg, &spec);
        let g4 = replicate_outcomes(&ParallelGreedy::new(2, 4, 1), &cfg, &spec);
        let scenario = bl[0].scenario.label();
        table.row(vec![
            scenario.to_string(),
            n.to_string(),
            log_star(n as f64).to_string(),
            f(summarize_metric(&bl, |o| o.rounds() as f64).mean),
            f(summarize_metric(&bl, |o| o.messages_per_ball()).mean),
            f(summarize_metric(&bl, |o| o.max_load() as f64).mean),
            f(summarize_metric(&co, |o| o.rounds() as f64).mean),
            f(summarize_metric(&co, |o| o.messages_per_ball()).mean),
            f(summarize_metric(&co, |o| o.max_load() as f64).mean),
            f(summarize_metric(&g1, |o| o.max_load() as f64).mean),
            f(summarize_metric(&g4, |o| o.max_load() as f64).mean),
        ]);
    }

    table.print(&args);
    println!("\n# Expected shape: bl_rounds grows like log* (very slowly), bl_max <= 2 always,");
    println!("# messages O(1) per ball; collision finishes in log log-ish rounds with");
    println!(
        "# a larger (but still small) max load. parallel-greedy (d=2, [1]): extra
# negotiation rounds shave the max load (pg_r4 <= pg_r1)."
    );
}
