//! **E12 — the paper's numeric constants**, computed and checked against
//! a direct simulation of Lemma 3.2.
//!
//! Prints ε, C1, β, κ, ρ_n/n and the Corollary 3.5 ceiling (all computed
//! in `bib-analysis::paper`), then *empirically* verifies the Lemma 3.2
//! claim: starting a stage from a load vector with an underloaded bin,
//! the number of balls `Y` that bin receives satisfies
//! `Pr[Y ≥ k] ≥ Pr[Poi(199/198) ≥ k] − 2·10⁻¹⁰` for `0 ≤ k ≤ C1`.
//!
//! ```text
//! cargo run --release -p bib-bench --bin paper_constants [-- --quick]
//! ```

use bib_analysis::paper;
use bib_bench::{f, ExpArgs, Table};
use bib_core::partitioned::PartitionedBins;
use bib_core::sampler::place_below;
use bib_rng::SeedSequence;

fn main() {
    let args = ExpArgs::parse();
    let consts = paper::constants();
    println!("# Derived constants (Section 3):\n{consts}\n");

    // --- Empirical check of Lemma 3.2 -----------------------------------
    // Configuration: stage τ with one underloaded bin (load τ+2−C1 ≈ deep
    // hole), everyone else balanced at τ. Run the stage (n balls with
    // acceptance bound τ+2) and histogram Y = balls landing in bin 0.
    let n = args.pick(4_096usize, 512usize);
    let reps = args.reps_or(40_000, 4_000);
    let tau = consts.c1 as u32 + 4;
    let hole_load = tau + 2 - consts.c1 as u32;

    let mut template = vec![tau; n];
    template[0] = hole_load;
    // Keep the stage mass consistent: the paper conditions on an
    // arbitrary fixed vector; ours has t = n·τ − C1 + 2 balls, which is
    // fine (only the threshold τ+2 matters for stage τ+1).
    let bound = tau + 2;

    let mut counts = vec![0u64; consts.c1 as usize + 3];
    let mut rng = SeedSequence::new(args.seed).child_str("lemma32").rng();
    for _ in 0..reps {
        let mut bins = PartitionedBins::from_loads(template.clone());
        let mut y = 0u64;
        for _ in 0..n {
            let (bin, _) = place_below(&mut bins, bound, &mut rng);
            if bin == 0 {
                y += 1;
            }
        }
        let idx = (y as usize).min(counts.len() - 1);
        counts[idx] += 1;
    }

    println!("# Lemma 3.2 check: stage from a C1-deep hole, n = {n}, {reps} stage sims");
    let mut table = Table::new(vec!["k", "empirical P[Y>=k]", "paper lower bound"]);
    let mut tail = reps;
    let mut ok = true;
    for k in 0..=consts.c1 {
        let emp = tail as f64 / reps as f64;
        let bound_k = paper::lemma32_receive_tail_bound(k);
        // 4-sigma statistical slack on the empirical frequency, plus the
        // rule-of-three floor (with zero observations out of N sims the
        // true probability can still be ~3/N).
        let slack = 4.0 * (emp * (1.0 - emp) / reps as f64).sqrt() + 3.0 / reps as f64;
        if emp + slack < bound_k {
            ok = false;
        }
        table.row(vec![k.to_string(), f(emp), f(bound_k)]);
        if (k as usize) < counts.len() {
            tail -= counts[k as usize];
        }
    }
    table.print(&args);
    println!(
        "\n# Lemma 3.2 empirical tail dominates the paper's bound at every k <= C1: {}",
        if ok { "YES" } else { "NO (violation!)" }
    );
    let mean_y: f64 = counts
        .iter()
        .enumerate()
        .map(|(k, &c)| k as f64 * c as f64)
        .sum::<f64>()
        / reps as f64;
    println!(
        "# Mean balls received by the underloaded bin: {} (paper: slightly > 1 — it catches up; E[Poi(199/198)] = {})",
        f(mean_y),
        f(199.0 / 198.0)
    );
}
