//! **E5 — Theorem 4.1**: `threshold`'s allocation time is
//! `m + O(m^{3/4} n^{1/4})`.
//!
//! We sweep `(n, ϕ)` and report the excess `T − m` normalised by the
//! theorem's envelope `m^{3/4} n^{1/4}`. If the bound captures the true
//! scaling, the normalised column is bounded (roughly constant) across
//! the whole grid, while naive normalisations (`/m` or `/√(mn)`) drift.
//!
//! ```text
//! cargo run --release -p bib-bench --bin theorem41 [-- --quick --csv]
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
    let phis: Vec<u64> = args.pick(vec![4, 16, 64, 256], vec![4, 16]);
    let reps = args.reps_or(20, 5);

    println!(
        "# Theorem 4.1: threshold excess (T - m), normalised by m^(3/4) n^(1/4); {reps} reps\n"
    );
    let mut table = Table::new(vec!["n", "phi", "T-m", "(T-m)/env", "ci95", "(T-m)/m"]);

    for &n in &ns {
        for &phi in &phis {
            let m = phi * n as u64;
            let env = (m as f64).powf(0.75) * (n as f64).powf(0.25);
            let cfg = RunConfig::new(n, m).with_engine(args.engine_or(Engine::Faithful));
            let outs = replicate_outcomes(&Threshold, &cfg, &args.replicate_spec(reps));
            let mut excess = Welford::new();
            let mut norm = Welford::new();
            for o in &outs {
                excess.push(o.excess_samples() as f64);
                norm.push(o.excess_samples() as f64 / env);
            }
            table.row(vec![
                n.to_string(),
                phi.to_string(),
                f(excess.mean()),
                f(norm.mean()),
                f(1.96 * norm.standard_error()),
                f(excess.mean() / m as f64),
            ]);
        }
    }

    table.print(&args);
    println!("\n# Expected shape: (T-m)/env roughly constant across the grid;");
    println!("# (T-m)/m shrinking as m grows (the excess is sublinear).");
}
