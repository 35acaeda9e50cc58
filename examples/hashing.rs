//! Hashing scenario: sizing hash-table buckets.
//!
//! The paper's intro motivates balls-into-bins with hashing: items are
//! balls, buckets are bins, and the maximum load dictates the slot count
//! every bucket must reserve. We compare three designs storing the same
//! key set:
//!
//! 1. classic hashing (one-choice): buckets must be provisioned for the
//!    `Θ(log n / log log n)`-ish maximum;
//! 2. `threshold`-style placement: every bucket provably fits in
//!    `⌈m/n⌉ + 1` slots — at the price of a per-item retry during
//!    construction (cheap: Theorem 4.1);
//! 3. cuckoo hashing (`bib-reloc`): constant worst-case lookup with
//!    reallocations at insert time, the alternative the paper discusses.
//!
//! Run with:
//! ```text
//! cargo run --release --example hashing
//! ```

use balls_into_bins::core::prelude::*;
use balls_into_bins::reloc::{CuckooTable, InsertError};
use balls_into_bins::rng::seed::default_rng;

fn main() {
    let buckets = 65_536usize;
    let items = 4 * buckets as u64; // average bucket load 4
    let cfg = RunConfig::new(buckets, items).with_engine(Engine::Faithful);

    println!("{items} keys into {buckets} buckets (avg load 4)\n");

    // --- one-choice vs threshold bucket sizing --------------------------
    println!(
        "{:<18} {:>9} {:>14} {:>16}",
        "scheme", "max", "slots needed", "build samples"
    );
    let one = run_protocol(&OneChoice, &cfg, 1);
    let thr = run_protocol(&Threshold, &cfg, 1);
    for out in [&one, &thr] {
        println!(
            "{:<18} {:>9} {:>14} {:>16}",
            out.protocol,
            out.max_load(),
            out.max_load() as u64 * buckets as u64,
            out.total_samples,
        );
    }
    let saved = (one.max_load() - thr.max_load()) as u64 * buckets as u64;
    let extra = thr.total_samples - one.total_samples;
    println!(
        "\nthreshold saves {saved} slots for {extra} extra construction samples\n\
         ({:.2} slots saved per extra sample).\n",
        saved as f64 / extra.max(1) as f64
    );

    // --- cuckoo hashing: reallocation cost vs load factor ---------------
    println!("cuckoo (d=2, k=4): insert cost as the table fills");
    println!("{:>12} {:>14} {:>12}", "load factor", "avg kicks", "stash");
    let mut table = CuckooTable::new(buckets / 4, 4, 2, 7).with_max_kicks(1_000);
    let mut rng = default_rng(7);
    let capacity = (buckets / 4) * 4;
    let checkpoints = [0.5, 0.8, 0.9, 0.95, 0.97];
    let mut next_cp = 0usize;
    let mut kicks_since = 0u64;
    let mut inserts_since = 0u64;
    let mut key = 0u64;
    while next_cp < checkpoints.len() {
        key += 1;
        match table.insert(key, &mut rng) {
            Ok(k) => kicks_since += k,
            Err(InsertError::KickBudgetExhausted { kicks }) => kicks_since += kicks,
            Err(InsertError::DuplicateKey) => unreachable!("keys are unique"),
        }
        inserts_since += 1;
        if table.len() as f64 / capacity as f64 >= checkpoints[next_cp] {
            println!(
                "{:>12.2} {:>14.3} {:>12}",
                table.load_factor(),
                kicks_since as f64 / inserts_since as f64,
                table.stash_len(),
            );
            kicks_since = 0;
            inserts_since = 0;
            next_cp += 1;
        }
    }
    println!("\nthe kick cost (reallocations per insert) explodes near the (2,4)");
    println!("threshold — the quantitative form of the paper's remark that");
    println!("reallocation-based schemes pay where sample-only schemes do not.");
}
