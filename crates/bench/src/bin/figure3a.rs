//! **E2 — Figure 3(a)**: average allocation time ("runtime") vs `m` for
//! `adaptive` and `threshold`.
//!
//! The paper plots the average over 100 simulations of the total number
//! of bin choices, for `m·10⁻⁴` on the x-axis. We reproduce the same
//! series (plus 95% confidence intervals) with `n = 10⁴` bins.
//!
//! Expected shape: threshold's curve hugs the diagonal (runtime → m,
//! Theorem 4.1); adaptive's is a line with a slightly larger slope
//! (runtime → c·m for a small constant c, Theorem 3.1).
//!
//! ```text
//! cargo run --release -p bib-bench --bin figure3a [-- --quick --csv]
//! ```

use bib_bench::{f, ExpArgs, Table};
use bib_core::prelude::*;
use bib_parallel::replicate_outcomes;

fn main() {
    let args = ExpArgs::parse();
    let n = args.pick(10_000usize, 1_000usize);
    let reps = args.reps_or(100, 10);
    // m from 2·10⁵ to 10⁶ step 10⁵ at n = 10⁴ (scaled in quick mode).
    let ms: Vec<u64> = (2..=10).map(|k| k as u64 * 10 * n as u64).collect();

    println!("# Figure 3(a): average allocation time, n = {n}, {reps} replicates\n");
    let mut table = Table::new(vec![
        "m_e4",
        "adaptive_T_e4",
        "adaptive_ci95",
        "threshold_T_e4",
        "threshold_ci95",
        "adaptive_T/m",
        "threshold_T/m",
    ]);

    for &m in &ms {
        let cfg = RunConfig::new(n, m).with_engine(args.engine_or(Engine::Faithful));
        let spec = args.replicate_spec(reps);
        let ada = replicate_outcomes(&Adaptive::paper(), &cfg, &spec);
        let thr = replicate_outcomes(&Threshold, &cfg, &spec);
        let sa = bib_parallel::replicate::summarize_metric(&ada, |o| o.total_samples as f64);
        let st = bib_parallel::replicate::summarize_metric(&thr, |o| o.total_samples as f64);
        table.row(vec![
            f(m as f64 * 1e-4),
            f(sa.mean * 1e-4),
            f(1.96 * sa.stderr * 1e-4),
            f(st.mean * 1e-4),
            f(1.96 * st.stderr * 1e-4),
            f(sa.mean / m as f64),
            f(st.mean / m as f64),
        ]);
    }

    table.print(&args);
    println!(
        "\n# Expected shape: threshold_T/m -> 1 from above; adaptive_T/m -> small constant > 1."
    );
}
