//! Flagship demo: a fault-tolerant streaming load balancer.
//!
//! This is the application the paper's adaptivity is for, now run as a
//! *service* instead of a batch: requests arrive and complete
//! continuously, the dispatcher places each with two-choice probing,
//! and mid-run half the fleet crashes and later recovers. Watch for:
//!
//! * **sustained throughput** — millions of placements + departures per
//!   second on one thread, from the histogram-first serial driver;
//! * **graceful degradation** — during the outage the dispatcher sheds
//!   or falls back to one-choice instead of wedging, and every such
//!   event is counted on the outcome record;
//! * **self-stabilization** — after the recovery event the gap falls
//!   back into its pre-fault band within a few ticks.
//!
//! Run with:
//! ```text
//! cargo run --release --example load_balancer
//! ```

use balls_into_bins::core::prelude::*;

fn main() {
    let servers = 100_000usize;
    let ticks = 400u64;
    let arrivals = 20_000_000u64; // ≈50k requests per tick
    let depart = 0.10; // each resident request completes w.p. 10%/tick
    let crash_at = 150u64;
    let recover_at = 250u64;
    let seed = 2013u64;

    let spec = StreamSpec::new(ticks, depart)
        .with_faults(FaultPlan::mass_failure(crash_at, 0.5, recover_at, seed))
        .with_retry(RetryPolicy {
            probe_budget: 8,
            retry_budget: 3,
            backoff_cap: 8,
            fallback_alive_frac: 0.6,
        });
    let cfg = RunConfig::new(servers, arrivals);

    println!("{servers} servers, {arrivals} requests over {ticks} ticks");
    println!("fault plan: crash 50% of servers at tick {crash_at}, recover at {recover_at}\n");

    let report = serve(&spec, Family::Greedy(2), &cfg, seed);
    let out = &report.outcome;
    let s = &out.scenario;

    // Pre-fault steady-state gap band: the worst gap seen in the 50
    // ticks leading up to the crash.
    let band = report
        .series
        .iter()
        .filter(|t| t.tick >= crash_at - 50 && t.tick < crash_at)
        .map(|t| t.gap)
        .max()
        .expect("pre-fault window");

    println!(
        "{:>6} {:>12} {:>8} {:>6} {:>6} {:>10} {:>10}",
        "tick", "in-system", "alive%", "gap", "max", "shed", "fallbacks"
    );
    for t in &report.series {
        let interesting = t.tick % 50 == 0
            || t.tick + 1 == ticks
            || t.tick.abs_diff(crash_at) <= 2
            || t.tick.abs_diff(recover_at) <= 2;
        if interesting {
            let marker = match t.tick {
                t if t == crash_at => "  <- crash",
                t if t == recover_at => "  <- recover",
                _ => "",
            };
            println!(
                "{:>6} {:>12} {:>7.1}% {:>6} {:>6} {:>10} {:>10}{marker}",
                t.tick,
                t.in_system,
                t.alive_ppm as f64 / 1e4,
                t.gap,
                t.max_load,
                t.shed,
                t.fallbacks
            );
        }
    }

    let recovered = report
        .series
        .iter()
        .filter(|t| t.tick > recover_at)
        .find(|t| t.gap <= band);
    println!("\npre-fault gap band: ≤ {band}");
    match recovered {
        Some(t) => println!(
            "gap back inside the band at tick {} ({} ticks after recovery)",
            t.tick,
            t.tick - recover_at
        ),
        None => println!("gap still above the band at the end of the run"),
    }

    println!(
        "\nthroughput: {} ops ({} placed + {} departed) in {:.3}s = {:.1}M ops/s",
        report.ops(),
        s.arrivals - s.shed,
        s.departed,
        report.wall.as_secs_f64(),
        report.ops_per_sec() / 1e6
    );
    println!(
        "degradation ledger: shed {} ({:.4}% of arrivals), one-choice fallbacks {}",
        s.shed,
        s.shed_rate() * 100.0,
        s.fallbacks
    );
    println!(
        "latency (probes per placement): p50={} p99={} p999={}",
        report.latency.quantile(0.50),
        report.latency.quantile(0.99),
        report.latency.quantile(0.999)
    );
    println!(
        "final state: {} resident, gap {}, max load {}, alive {:.0}%",
        out.m,
        out.gap(),
        out.max_load(),
        s.alive_frac * 100.0
    );
}
