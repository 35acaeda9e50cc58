//! **E4 — Theorem 3.1**: `adaptive`'s expected allocation time is O(m).
//!
//! We sweep a grid of `(n, ϕ)` and report the normalised excess
//! `(T − m)/m`. Theorem 3.1 says this is bounded by a constant uniformly
//! in both `n` and `ϕ = m/n` — the table's columns and rows should both
//! be flat.
//!
//! ```text
//! cargo run --release -p bib-bench --bin theorem31 [-- --quick --csv]
//! ```

use bib_analysis::Welford;
use bib_bench::{f, ExpArgs, Table};
use bib_core::prelude::*;
use bib_parallel::replicate_outcomes;

fn main() {
    let args = ExpArgs::parse();
    let ns: Vec<usize> = args.pick(
        vec![1 << 10, 1 << 12, 1 << 14, 1 << 16],
        vec![1 << 8, 1 << 10],
    );
    let phis: Vec<u64> = args.pick(vec![1, 4, 16, 64], vec![1, 8]);
    let reps = args.reps_or(20, 5);

    println!(
        "# Theorem 3.1: adaptive excess samples (T - m)/m over an (n, phi) grid; {reps} reps\n"
    );
    let mut table = Table::new(vec!["n", "phi", "(T-m)/m", "ci95", "max_T/m"]);

    let mut global_max = 0.0f64;
    for &n in &ns {
        for &phi in &phis {
            let m = phi * n as u64;
            let cfg = RunConfig::new(n, m).with_engine(args.engine_or(Engine::Faithful));
            let outs = replicate_outcomes(&Adaptive::paper(), &cfg, &args.replicate_spec(reps));
            let mut w = Welford::new();
            let mut worst: f64 = 0.0;
            for o in &outs {
                let r = o.excess_samples() as f64 / m as f64;
                w.push(r);
                worst = worst.max(o.time_ratio());
            }
            global_max = global_max.max(w.mean());
            table.row(vec![
                n.to_string(),
                phi.to_string(),
                f(w.mean()),
                f(1.96 * w.standard_error()),
                f(worst),
            ]);
        }
    }

    table.print(&args);
    println!(
        "\n# Expected shape: the (T-m)/m column is bounded by a constant (no growth in n or phi)."
    );
    println!(
        "# Largest observed mean normalised excess: {}",
        f(global_max)
    );
}
