//! Quickstart: allocate balls with the paper's two protocols and read
//! off the quantities the paper is about.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```

use balls_into_bins::core::prelude::*;

fn main() {
    let n = 10_000usize;
    let m = 200_000u64; // ϕ = 20 balls per bin on average
    let cfg = RunConfig::new(n, m).with_engine(Engine::Faithful);
    let seed = 2013; // SPAA'13

    println!(
        "n = {n} bins, m = {m} balls, max-load guarantee = ⌈m/n⌉+1 = {}",
        cfg.max_load_bound()
    );
    println!();
    println!(
        "{:<12} {:>12} {:>10} {:>9} {:>9} {:>12} {:>12}",
        "protocol", "samples", "T/m", "max", "gap", "psi", "phi"
    );

    for proto in [
        Box::new(Adaptive::paper()) as Box<dyn DynProtocol>,
        Box::new(Threshold),
        Box::new(GreedyD::new(2)),
        Box::new(OneChoice),
    ] {
        let out = run_protocol(proto.as_ref(), &cfg, seed);
        println!(
            "{:<12} {:>12} {:>10.4} {:>9} {:>9} {:>12.1} {:>12.1}",
            out.protocol,
            out.total_samples,
            out.time_ratio(),
            out.max_load(),
            out.gap(),
            out.psi(),
            out.phi(),
        );
    }

    println!();
    println!("Things to notice (the paper's headline claims):");
    println!(" * adaptive and threshold hit the ⌈m/n⌉+1 max-load bound; the others do not.");
    println!(" * threshold's sample count is barely above m (Theorem 4.1);");
    println!("   adaptive pays a small constant factor more (Theorem 3.1).");
    println!(" * adaptive's psi/gap are far smaller than threshold's: the load is smoother");
    println!("   (Corollary 3.5 vs Lemma 4.2).");
}
