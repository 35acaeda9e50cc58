//! **E7 — Lemma 4.2**: at `m = n²`, `threshold`'s final distribution is
//! rough: `Ψ = Ω(n^{9/8})`, gap `= Ω(n^{1/8})`, `Φ = 2^{Ω(n^{1/8})}`.
//!
//! Sweep `n` with `m = n²` (both columns auto-resolved, which is the
//! histogram engine at every full-size `n`) and report
//! Ψ/n^{9/8}, gap/n^{1/8} and ln Φ/n^{1/8}.
//! Lemma 4.2 predicts all three stay bounded *away from zero* as `n`
//! grows; `adaptive` at the same `m = n²` is shown for contrast (its
//! Ψ/n and gap stay flat — Corollary 3.5).
//!
//! The `thr_lnphi/n^0.125` column cannot show `Φ = 2^{Ω(n^{1/8})}` at
//! these sizes. With `ε = 1/200` every term `exp(ε·(load − m/n))` of
//! `Φ` stays near 1, so `ln Φ ≈ ln n` and the column reads
//! `≈ ln n / n^{1/8}` (2.946 … 2.819 against 2.942 … 2.816 over
//! `n = 2560 … 40960`, to within 0.15 %), falling with `n` whatever the
//! engine. The Ψ and gap columns carry the lemma's evidence here.
//!
//! The histogram engine is exact up to its two moment-matched sampler
//! regimes (`split_binomial` above variance 4, `hypergeometric` above
//! 8 draws), and ln Φ amplifies upper-tail load errors; `--engine
//! faithful` reproduces the exact process.
//!
//! ```text
//! cargo run --release -p bib-bench --bin lemma42 [-- --quick --csv --no-loads]
//! ```
//!
//! With `--no-loads` both columns run on the histogram engine and every
//! outcome is asserted to never materialize its dense load vector. The
//! size grid stays put — `m = n²` is a ball-count wall, not a bin-count
//! one — so here the flag is a lazy-contract check, not a scale unlock
//! (that regime lives in `corollary35 --no-loads`).

use bib_analysis::stats::power_fit;
use bib_bench::{f, ExpArgs, Table};
use bib_core::prelude::*;
use bib_parallel::replicate::summarize_metric;
use bib_parallel::replicate_outcomes;

fn main() {
    let args = ExpArgs::parse();
    // m = n² reaches 1.7 × 10⁹ balls at the top size; both columns run
    // on their measured-fastest engine (group work, ~ms per run).
    let ns: Vec<usize> = args.pick(vec![2560, 5120, 10240, 20480, 40960], vec![64, 128]);
    let reps = args.reps_or(10, 3);

    println!("# Lemma 4.2: threshold at m = n^2; {reps} reps\n");
    let mut table = Table::new(vec![
        "n",
        "thr_psi/n^1.125",
        "thr_gap/n^0.125",
        "thr_lnphi/n^0.125",
        "ada_psi/n",
        "ada_gap",
    ]);

    let mut ns_f = Vec::new();
    let mut psi_means = Vec::new();
    let mut gap_means = Vec::new();
    // Both columns default to Engine::Auto (the histogram engine at every
    // full-size n — see BENCH_engines.json). --no-loads pins the
    // histogram engine (Auto may resolve to the dense faithful loop at
    // small n) so the lazy assertion holds on every outcome.
    let engine = args.engine_or(if args.no_loads {
        Engine::Histogram
    } else {
        Engine::Auto
    });
    for &n in &ns {
        let cfg = RunConfig::new(n, (n as u64) * (n as u64)).with_engine(engine);
        let spec = args.replicate_spec(reps);
        let thr = replicate_outcomes(&Threshold, &cfg, &spec);
        let ada = replicate_outcomes(&Adaptive::paper(), &cfg, &spec);
        for o in thr.iter().chain(ada.iter()) {
            args.assert_lazy(o, &format!("n={n}"));
        }

        let n98 = (n as f64).powf(9.0 / 8.0);
        let n18 = (n as f64).powf(1.0 / 8.0);
        let t_psi = summarize_metric(&thr, |o| o.psi() / n98);
        let t_gap = summarize_metric(&thr, |o| o.gap() as f64 / n18);
        let t_phi = summarize_metric(&thr, |o| o.ln_phi() / n18);
        let a_psi = summarize_metric(&ada, |o| o.psi() / n as f64);
        let a_gap = summarize_metric(&ada, |o| o.gap() as f64);
        ns_f.push(n as f64);
        psi_means.push(summarize_metric(&thr, |o| o.psi()).mean);
        gap_means.push(summarize_metric(&thr, |o| o.gap() as f64).mean);

        table.row(vec![
            n.to_string(),
            f(t_psi.mean),
            f(t_gap.mean),
            f(t_phi.mean),
            f(a_psi.mean),
            f(a_gap.mean),
        ]);
    }

    table.print(&args);
    // Measured exponents vs the lemma's lower bounds (9/8 and 1/8).
    let (_, psi_exp, psi_r2) = power_fit(&ns_f, &psi_means);
    let (_, gap_exp, gap_r2) = power_fit(&ns_f, &gap_means);
    println!(
        "\n# Fitted threshold exponents: psi ~ n^{} (r2 {}), gap ~ n^{} (r2 {})",
        f(psi_exp),
        f(psi_r2),
        f(gap_exp),
        f(gap_r2)
    );
    println!("# Lemma 4.2 lower bounds: psi exponent >= 9/8 = 1.125, gap exponent >= 1/8 = 0.125.");
    println!("\n# Expected shape: the three threshold columns stay bounded away from 0");
    println!("# (the lemma's lower bounds), while adaptive's psi/n and gap stay flat");
    println!("# and small (Corollary 3.5) despite the same m = n^2 load.");
}
