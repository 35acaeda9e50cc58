//! **E3 — Figure 3(b)**: average final quadratic potential vs `m`.
//!
//! The paper plots the average (over 100 simulations) of
//! `Ψ(L^m) = Σᵢ (Lᵢ − m/n)²`, scaled by 1/5000 on the y-axis. Expected
//! shape: adaptive's curve is *flat* in m (it converges to an O(n) value
//! — guaranteed by Lemma 3.4 / Corollary 3.5), while threshold's keeps
//! growing with m.
//!
//! ```text
//! cargo run --release -p bib-bench --bin figure3b [-- --quick --csv]
//! ```

use bib_bench::{f, ExpArgs, Table};
use bib_core::prelude::*;
use bib_parallel::replicate_outcomes;

fn main() {
    let args = ExpArgs::parse();
    let n = args.pick(10_000usize, 1_000usize);
    let reps = args.reps_or(100, 10);
    let ms: Vec<u64> = (2..=10).map(|k| k as u64 * 10 * n as u64).collect();

    println!("# Figure 3(b): average final quadratic potential, n = {n}, {reps} replicates\n");
    let mut table = Table::new(vec![
        "m_e4",
        "adaptive_psi",
        "adaptive_psi/5000",
        "threshold_psi",
        "threshold_psi/5000",
        "psi_ratio_thr/ada",
    ]);

    for &m in &ms {
        let cfg = RunConfig::new(n, m).with_engine(args.engine_or(Engine::Faithful));
        let spec = args.replicate_spec(reps);
        let ada = replicate_outcomes(&Adaptive::paper(), &cfg, &spec);
        let thr = replicate_outcomes(&Threshold, &cfg, &spec);
        let sa = bib_parallel::replicate::summarize_metric(&ada, |o| o.psi());
        let st = bib_parallel::replicate::summarize_metric(&thr, |o| o.psi());
        table.row(vec![
            f(m as f64 * 1e-4),
            f(sa.mean),
            f(sa.mean / 5000.0),
            f(st.mean),
            f(st.mean / 5000.0),
            f(st.mean / sa.mean),
        ]);
    }

    table.print(&args);
    println!("\n# Expected shape: adaptive_psi flat in m (O(n)); threshold_psi increasing in m.");
}
