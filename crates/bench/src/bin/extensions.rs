//! **Extensions ablation**: batched (stale-count) adaptive and weighted
//! (heterogeneous-bin) adaptive.
//!
//! Neither is claimed by the paper; both probe how robust its guarantees
//! are when the model's idealisations are relaxed:
//!
//! * **staleness** — adaptive needs the running ball count; how much
//!   allocation time does it cost to synchronise that count only every
//!   `b` balls? (Max load is provably unaffected for `b ≤ n`.)
//! * **heterogeneity** — bins with unequal weights, sampled
//!   proportionally; the per-bin guarantee becomes
//!   `load_j ≤ ⌈m·w_j/W⌉ + 1`.
//!
//! ```text
//! cargo run --release -p bib-bench --bin extensions [-- --quick --csv]
//! ```

use bib_analysis::Welford;
use bib_bench::{f, ExpArgs, Table};
use bib_core::prelude::*;
use bib_core::run::{replicate_seed, run_protocol};

fn main() {
    let args = ExpArgs::parse();
    let n = args.pick(4_096usize, 512usize);
    let phi = 16u64;
    let m = phi * n as u64;
    let reps = args.reps_or(20, 5);

    // --- staleness sweep -------------------------------------------------
    println!("# Extension A: batched adaptive (count synchronised every b balls); n = {n}, phi = {phi}, {reps} reps\n");
    let mut table = Table::new(vec!["batch", "time/m", "gap", "max_excess"]);
    let batches: Vec<u64> = vec![1, 16, 256, n as u64 / 4, n as u64];
    for &b in &batches {
        let cfg = RunConfig::new(n, m).with_engine(args.engine_or(Engine::Faithful));
        let proto = BatchedAdaptive::new(b);
        let mut time = Welford::new();
        let mut gap = Welford::new();
        let mut exc = Welford::new();
        for rep in 0..reps {
            let out = run_protocol(&proto, &cfg, replicate_seed(args.seed, &proto.name(), rep));
            time.push(out.time_ratio());
            gap.push(out.gap() as f64);
            exc.push(out.max_load() as f64 - phi as f64);
        }
        table.row(vec![
            b.to_string(),
            f(time.mean()),
            f(gap.mean()),
            f(exc.mean()),
        ]);
    }
    table.print(&args);
    println!("\n# Expected: time/m rises mildly with b; max_excess stays <= 1 for ALL b.\n");

    // --- heterogeneity sweep ---------------------------------------------
    // The weighted family is an ordinary Protocol since the scenario
    // unification: the sweep goes through `run_protocol` (seed
    // discipline included) with the engine resolved per cell by
    // `Engine::Auto` — the weight-class histogram engine at these sizes.
    println!(
        "# Extension B: weighted adaptive vs weighted one-choice; n = {n}, m = {m}, {reps} reps\n"
    );
    let mut table = Table::new(vec![
        "scenario",
        "skew",
        "ada_time/m",
        "ada_max_over",
        "ada_wpsi",
        "one_max_over",
        "one_wpsi",
    ]);
    // Skew s: weights 1..s interleaved.
    for &skew in args.pick(&[1u32, 2, 8, 32][..], &[1u32, 8][..]) {
        let weights: Vec<f64> = (0..n).map(|j| 1.0 + (j as u32 % skew) as f64).collect();
        let ada = WeightedAdaptive::new(weights.clone());
        let one = WeightedOneChoice::new(weights);
        let cfg = RunConfig::new(n, m).with_engine(args.engine_or(Engine::Auto));
        let mut a_time = Welford::new();
        let mut a_over = Welford::new();
        let mut a_psi = Welford::new();
        let mut o_over = Welford::new();
        let mut o_psi = Welford::new();
        for rep in 0..reps {
            let oa = run_protocol(&ada, &cfg, replicate_seed(args.seed, &ada.name(), rep));
            a_time.push(oa.time_ratio());
            a_over.push(oa.max_overload());
            a_psi.push(oa.weighted_psi());
            let oo = run_protocol(&one, &cfg, replicate_seed(args.seed, &one.name(), rep));
            o_over.push(oo.max_overload());
            o_psi.push(oo.weighted_psi());
        }
        table.row(vec![
            "weighted".to_string(),
            skew.to_string(),
            f(a_time.mean()),
            f(a_over.mean()),
            f(a_psi.mean()),
            f(o_over.mean()),
            f(o_psi.mean()),
        ]);
    }
    table.print(&args);
    println!("\n# Expected: weighted adaptive holds max overload <= 2 at every skew while");
    println!("# one-choice's overload and weighted psi blow up; adaptive's time/m grows");
    println!("# only mildly with skew.\n");

    // --- threshold slack sweep -------------------------------------------
    println!("# Extension C: threshold with slack s (accept load < m/n + s); n = {n}, phi = {phi}, {reps} reps\n");
    let mut table = Table::new(vec!["slack", "time/m", "excess_vs_m", "max_load", "gap"]);
    for &s in args.pick(&[1u32, 2, 4, 8][..], &[1u32, 4][..]) {
        let cfg = RunConfig::new(n, m).with_engine(args.engine_or(Engine::Faithful));
        let proto = bib_core::protocols::ThresholdSlack::new(s);
        let mut time = Welford::new();
        let mut exc = Welford::new();
        let mut maxl = Welford::new();
        let mut gap = Welford::new();
        for rep in 0..reps {
            let out = run_protocol(&proto, &cfg, replicate_seed(args.seed, &proto.name(), rep));
            time.push(out.time_ratio());
            exc.push(out.excess_samples() as f64 / m as f64);
            maxl.push(out.max_load() as f64);
            gap.push(out.gap() as f64);
        }
        table.row(vec![
            s.to_string(),
            f(time.mean()),
            f(exc.mean()),
            f(maxl.mean()),
            f(gap.mean()),
        ]);
    }
    table.print(&args);
    println!("\n# Expected: each extra unit of slack shrinks the retry excess sharply");
    println!("# (more accepting bins near the end) while max load rises by ~1 per unit —");
    println!("# the time/quality dial the paper's +1 choice sits at one end of.");
}
