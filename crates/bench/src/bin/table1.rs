//! **E1 — Table 1**: allocation time and maximum load across schemes.
//!
//! Reproduces the comparison table of the paper empirically: for each
//! protocol, the measured allocation time (as a multiple of `m`) and the
//! measured maximum load (as an excess over the average `⌈m/n⌉`), across
//! light (`ϕ = 1`), moderate (`ϕ = 8`) and heavy (`ϕ = 64`) loads.
//!
//! The CRS reallocation scheme reports its reallocation count in the
//! last column; sample-only protocols show `0` there.
//!
//! ```text
//! cargo run --release -p bib-bench --bin table1 [-- --quick --csv]
//! ```

use bib_analysis::Welford;
use bib_bench::{f, ExpArgs, Table};
use bib_core::prelude::*;
use bib_core::protocols::table1_suite;
use bib_core::run::replicate_seed;
use bib_reloc::Crs;
use bib_rng::SeedSequence;

fn main() {
    let args = ExpArgs::parse();
    let n = args.pick(1usize << 14, 1usize << 10);
    let phis: &[u64] = args.pick(&[1, 8, 64][..], &[1, 8][..]);
    let reps = args.reps_or(30, 5);

    println!("# Table 1 (empirical): n = {n}, reps = {reps}; excess = max load − ⌈m/n⌉\n");
    let mut table = Table::new(vec![
        "protocol",
        "phi",
        "time/m",
        "max_excess",
        "gap",
        "realloc/m",
    ]);

    for &phi in phis {
        let m = phi * n as u64;
        let cfg = RunConfig::new(n, m).with_engine(args.engine_or(Engine::Faithful));
        let ceil_avg = m.div_ceil(n as u64) as f64;

        for proto in table1_suite() {
            let mut time = Welford::new();
            let mut excess = Welford::new();
            let mut gap = Welford::new();
            for rep in 0..reps {
                let seed = replicate_seed(args.seed, &proto.name(), rep);
                let mut rng = SeedSequence::new(seed).rng();
                let out = proto.allocate(&cfg, &mut rng, &mut NullObserver);
                out.validate();
                time.push(out.time_ratio());
                excess.push(out.max_load() as f64 - ceil_avg);
                gap.push(out.gap() as f64);
            }
            table.row(vec![
                proto.name(),
                phi.to_string(),
                f(time.mean()),
                f(excess.mean()),
                f(gap.mean()),
                "0".into(),
            ]);
        }

        // CRS (reallocation-based, [6]).
        let mut time = Welford::new();
        let mut excess = Welford::new();
        let mut gap = Welford::new();
        let mut realloc = Welford::new();
        for rep in 0..reps {
            let seed = replicate_seed(args.seed, "crs", rep);
            let mut rng = SeedSequence::new(seed).rng();
            let out = Crs::new().run(n, m, &mut rng);
            out.validate();
            time.push(out.samples as f64 / m.max(1) as f64);
            excess.push(out.max_load() as f64 - ceil_avg);
            let min = out.loads.iter().copied().min().unwrap_or(0);
            gap.push((out.max_load() - min) as f64);
            realloc.push(out.reallocations as f64 / m.max(1) as f64);
        }
        table.row(vec![
            "crs[2]".to_string(),
            phi.to_string(),
            f(time.mean()),
            f(excess.mean()),
            f(gap.mean()),
            f(realloc.mean()),
        ]);
    }

    table.print(&args);
    println!("\n# Expected shapes (paper Table 1):");
    println!("#  one-choice: time/m = 1, worst excess/gap, growing with phi");
    println!("#  greedy[d]/left[d]: time/m = d, excess ~ ln ln n band");
    println!("#  memory(1,1): time/m = 1, excess comparable to greedy[2]");
    println!("#  threshold & adaptive: excess <= 1 ALWAYS; time/m -> 1 resp. small constant");
    println!("#  crs[2]: excess ~ 0 but pays reallocations");
}
