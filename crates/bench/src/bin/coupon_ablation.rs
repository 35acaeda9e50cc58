//! **E8 — the Section 2 remark**: replacing adaptive's threshold
//! `i/n + 1` by `i/n` turns each stage into a coupon collector, for
//! `Θ(m log n)` total allocation time.
//!
//! We run the `adaptive-tight` ablation across `n` and compare its
//! measured time against the exact coupon-collector prediction
//! `m·H_n/n` from `bib-analysis::coupon` — the ratio should approach 1 —
//! while the paper's `adaptive` stays at a small constant multiple of m.
//!
//! ```text
//! cargo run --release -p bib-bench --bin coupon_ablation [-- --quick --csv]
//! ```

use bib_analysis::coupon::expected_full_collection;
use bib_bench::{f, ExpArgs, Table};
use bib_core::prelude::*;
use bib_parallel::replicate::summarize_metric;
use bib_parallel::replicate_outcomes;

fn main() {
    let args = ExpArgs::parse();
    let ns: Vec<usize> = args.pick(
        vec![1 << 8, 1 << 10, 1 << 12, 1 << 14],
        vec![1 << 6, 1 << 8],
    );
    let phi = 8u64;
    let reps = args.reps_or(20, 5);

    println!("# Section 2 ablation: adaptive with slack 0 (threshold i/n) vs the paper's i/n + 1; phi = {phi}, {reps} reps\n");
    let mut table = Table::new(vec![
        "n",
        "tight_T/m",
        "tight_T/(phi*n*H_n)",
        "paper_T/m",
        "tight_gap",
        "paper_gap",
    ]);

    for &n in &ns {
        let m = phi * n as u64;
        let cfg = RunConfig::new(n, m).with_engine(args.engine_or(Engine::Faithful));
        let spec = args.replicate_spec(reps);
        let tight = replicate_outcomes(&Adaptive::tight(), &cfg, &spec);
        let papr = replicate_outcomes(&Adaptive::paper(), &cfg, &spec);

        // Exact prediction: each of the phi stages is a full coupon
        // collection: phi · n·H_n samples in expectation.
        let predicted = phi as f64 * expected_full_collection(n as u64);
        let t_time = summarize_metric(&tight, |o| o.total_samples as f64);
        let p_time = summarize_metric(&papr, |o| o.time_ratio());
        let t_gap = summarize_metric(&tight, |o| o.gap() as f64);
        let p_gap = summarize_metric(&papr, |o| o.gap() as f64);

        table.row(vec![
            n.to_string(),
            f(t_time.mean / m as f64),
            f(t_time.mean / predicted),
            f(p_time.mean),
            f(t_gap.mean),
            f(p_gap.mean),
        ]);
    }

    table.print(&args);
    println!("\n# Expected shape: tight_T/m grows like H_n = Theta(log n) while");
    println!("# tight_T/(phi*n*H_n) -> 1 (the coupon-collector prediction is exact);");
    println!("# the paper's adaptive stays at a constant T/m. The tight variant's");
    println!("# gap is 0 (perfect balance) — the price is the log factor in time.");
}
