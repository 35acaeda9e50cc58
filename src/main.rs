//! `balls-into-bins` command-line interface.
//!
//! ```text
//! balls-into-bins list
//! balls-into-bins constants
//! balls-into-bins run --protocol adaptive --n 10000 --m 1000000 \
//!     [--seed 2013] [--engine faithful|histogram|auto] [--reps 1] [--trace]
//! balls-into-bins serve --n 100000 --arrivals 10000000 --ticks 1000 \
//!     [--depart 0.05] [--family greedy[2]] [--faults crash@200:0.5,recover@400:all] \
//!     [--seed 2013] [--series] [--poisson] \
//!     [--probe-budget 16] [--retry-budget 4] [--backoff-cap 8] [--fallback-frac 0.5]
//! ```
//!
//! `run` prints one summary line per replicate (CSV with a header), or a
//! per-stage potential trace with `--trace` (single replicate). The
//! special protocol name `bounded-load(cap=K)` runs the parallel
//! bounded-load protocol; its infeasibility error (`m > cap·n`) is a
//! typed [`ProtocolError`] reported on stderr with exit code 1, not a
//! panic.
//!
//! `serve` drives the fault-tolerant streaming allocator: `--arrivals`
//! balls arrive across `--ticks` virtual ticks (deterministic spread,
//! or Poisson with `--poisson`), each resident ball departs with
//! probability `--depart` per tick, and `--faults` injects seeded
//! crash/drain/slow/recover events (grammar `kind@tick:frac[,...]`,
//! `frac` in (0,1] or `all`). The run is single-threaded and a pure
//! function of its arguments. Prints a summary line; `--series` dumps
//! the per-tick CSV (tick, in-system, gap, max load, alive ppm,
//! cumulative counters).
//!
//! Out-of-range input (`--n 0`, an `--m` or a `serve --arrivals` whose
//! bound `⌈m/n⌉ + 1` does not fit `u32`, `left[2]` with one bin,
//! `bounded-load(cap=0)`, `--ticks 0`, a zero probe or retry budget,
//! `greedy[d]` with `d` above the probe budget, a fallback fraction
//! outside [0, 1], a budget that does not fit `u32`) is reported as an
//! `error:` line with exit code 2.

use balls_into_bins::core::prelude::*;
use balls_into_bins::core::protocol::StageTrace;
use balls_into_bins::core::protocols::by_name;
use balls_into_bins::core::run::{replicate_seed, run_with_observer};
use balls_into_bins::parallel::protocols::BoundedLoad;
use balls_into_bins::rng::SeedSequence;

const PROTOCOLS: &[&str] = &[
    "one-choice",
    "greedy[2]",
    "greedy[3]",
    "left[2]",
    "memory(1,1)",
    "threshold",
    "adaptive",
    "adaptive-tight",
    "bounded-load(cap=K)",
];

fn usage() -> ! {
    eprintln!(
        "usage:\n  balls-into-bins list\n  balls-into-bins constants\n  \
         balls-into-bins run --protocol <name> --n <bins> --m <balls>\n      \
         [--seed <u64>] [--engine faithful|histogram|auto] [--reps <count>] [--trace]\n  \
         balls-into-bins serve --n <bins> --arrivals <balls> --ticks <ticks>\n      \
         [--depart <p>] [--family one-choice|greedy[d]|adaptive|threshold] [--poisson]\n      \
         [--faults kind@tick:frac[,...]] [--seed <u64>] [--series]\n      \
         [--probe-budget <u>] [--retry-budget <u>] [--backoff-cap <u>] [--fallback-frac <f>]\n\n\
         protocols: {}",
        PROTOCOLS.join(", ")
    );
    std::process::exit(2)
}

fn parse_u64(v: Option<String>, flag: &str) -> u64 {
    v.and_then(|s| s.parse().ok()).unwrap_or_else(|| {
        eprintln!("error: {flag} needs an unsigned integer");
        usage()
    })
}

fn parse_u32(v: Option<String>, flag: &str) -> u32 {
    v.and_then(|s| s.parse().ok()).unwrap_or_else(|| {
        eprintln!("error: {flag} needs an unsigned integer below 2^32");
        usage()
    })
}

fn parse_f64(v: Option<String>, flag: &str) -> f64 {
    v.and_then(|s| s.parse().ok()).unwrap_or_else(|| {
        eprintln!("error: {flag} needs a number");
        usage()
    })
}

/// Parses a protocol family name: `one-choice`, `greedy[d]`,
/// `adaptive`, or `threshold`.
fn parse_family(name: &str) -> Option<Family> {
    match name {
        "one-choice" => Some(Family::OneChoice),
        "adaptive" => Some(Family::Adaptive),
        "threshold" => Some(Family::Threshold),
        _ => {
            let d = name.strip_prefix("greedy[")?.strip_suffix(']')?;
            d.parse().ok().filter(|&d| d >= 1).map(Family::Greedy)
        }
    }
}

/// Parses `bounded-load(cap=K)`; plain `bounded-load` gets the
/// default cap of 2. `None` if `name` is not a bounded-load protocol,
/// an error if its cap is 0.
fn parse_bounded_load(name: &str) -> Option<Result<BoundedLoad, &'static str>> {
    if name == "bounded-load" {
        return Some(Ok(BoundedLoad::new(2)));
    }
    let cap = name
        .strip_prefix("bounded-load(cap=")?
        .strip_suffix(')')?
        .parse()
        .ok()?;
    Some(match cap {
        0 => Err("bounded-load cap must be at least 1"),
        cap => Ok(BoundedLoad::new(cap)),
    })
}

fn main() {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("list") => {
            for p in PROTOCOLS {
                println!("{p}");
            }
        }
        Some("constants") => {
            println!("{}", balls_into_bins::analysis::paper::constants());
        }
        Some("run") => {
            let mut protocol = None;
            let mut n = None;
            let mut m = None;
            let mut seed = 2013u64;
            let mut engine = Engine::Faithful;
            let mut reps = 1u64;
            let mut trace = false;
            while let Some(a) = args.next() {
                match a.as_str() {
                    "--protocol" => protocol = args.next(),
                    "--n" => n = Some(parse_u64(args.next(), "--n") as usize),
                    "--m" => m = Some(parse_u64(args.next(), "--m")),
                    "--seed" => seed = parse_u64(args.next(), "--seed"),
                    "--reps" => reps = parse_u64(args.next(), "--reps"),
                    "--trace" => trace = true,
                    "--engine" => match args.next().as_deref().map(str::parse) {
                        Some(Ok(e)) => engine = e,
                        Some(Err(msg)) => {
                            eprintln!("error: {msg}");
                            usage()
                        }
                        None => {
                            eprintln!("error: --engine needs a value");
                            usage()
                        }
                    },
                    other => {
                        eprintln!("error: unknown flag {other}");
                        usage()
                    }
                }
            }
            let (Some(pname), Some(n), Some(m)) = (protocol, n, m) else {
                eprintln!("error: run needs --protocol, --n and --m");
                usage()
            };
            if n == 0 {
                eprintln!("error: --n must be at least 1");
                usage()
            }
            if RunConfig::new(n, m).max_load_bound() > u64::from(u32::MAX) {
                eprintln!("error: --m {m} is too large for --n {n}: ⌈m/n⌉ + 1 must fit in u32");
                usage()
            }
            if pname == "left[2]" && n < 2 {
                eprintln!("error: left[2] needs --n at least 2");
                usage()
            }
            if let Some(bl) = parse_bounded_load(&pname) {
                let bl = bl.unwrap_or_else(|msg| {
                    eprintln!("error: {msg}");
                    usage()
                });
                // Typed-error path: infeasible configurations (m >
                // cap·n) are an error report and exit 1, not a panic.
                println!("replicate,protocol,n,m,samples,time_ratio,max_load,gap,psi");
                for rep in 0..reps {
                    let s = replicate_seed(seed, &Protocol::name(&bl), rep);
                    let mut rng = SeedSequence::new(s).rng();
                    match bl.try_run(n, m, &mut rng) {
                        Ok(out) => {
                            out.validate();
                            println!(
                                "{},{},{},{},{},{:.6},{},{},{:.4}",
                                rep,
                                out.protocol,
                                out.n,
                                out.m,
                                out.total_samples,
                                out.time_ratio(),
                                out.max_load(),
                                out.gap(),
                                out.psi()
                            );
                        }
                        Err(e) => {
                            eprintln!("error: {e}");
                            std::process::exit(1)
                        }
                    }
                }
                return;
            }
            let Some(proto) = by_name(&pname) else {
                eprintln!("error: unknown protocol {pname}");
                usage()
            };
            let cfg = RunConfig::new(n, m).with_engine(engine);

            if trace {
                let mut st = StageTrace::new();
                let out = run_with_observer(proto.as_ref(), &cfg, seed, &mut st);
                println!("stage,psi,ln_phi,gap");
                for i in 0..st.stages.len() {
                    println!(
                        "{},{:.4},{:.4},{}",
                        st.stages[i], st.psi[i], st.ln_phi[i], st.gaps[i]
                    );
                }
                eprintln!(
                    "# {}: samples={} T/m={:.4} max={} gap={}",
                    out.protocol,
                    out.total_samples,
                    out.time_ratio(),
                    out.max_load(),
                    out.gap()
                );
            } else {
                println!("replicate,protocol,n,m,samples,time_ratio,max_load,gap,psi");
                for rep in 0..reps {
                    let s = replicate_seed(seed, &proto.name(), rep);
                    let mut rng = SeedSequence::new(s).rng();
                    let out = proto.allocate(&cfg, &mut rng, &mut NullObserver);
                    out.validate();
                    println!(
                        "{},{},{},{},{},{:.6},{},{},{:.4}",
                        rep,
                        out.protocol,
                        out.n,
                        out.m,
                        out.total_samples,
                        out.time_ratio(),
                        out.max_load(),
                        out.gap(),
                        out.psi()
                    );
                }
            }
        }
        Some("serve") => {
            let mut n = None;
            let mut arrivals = None;
            let mut ticks = None;
            let mut depart = 0.0f64;
            let mut family = Family::Greedy(2);
            let mut faults = None;
            let mut seed = 2013u64;
            let mut poisson = false;
            let mut series = false;
            let mut retry = RetryPolicy::default();
            while let Some(a) = args.next() {
                match a.as_str() {
                    "--n" => n = Some(parse_u64(args.next(), "--n") as usize),
                    "--arrivals" => arrivals = Some(parse_u64(args.next(), "--arrivals")),
                    "--ticks" => ticks = Some(parse_u64(args.next(), "--ticks")),
                    "--depart" => depart = parse_f64(args.next(), "--depart"),
                    "--seed" => seed = parse_u64(args.next(), "--seed"),
                    "--poisson" => poisson = true,
                    "--series" => series = true,
                    "--probe-budget" => {
                        retry.probe_budget = parse_u32(args.next(), "--probe-budget")
                    }
                    "--retry-budget" => {
                        retry.retry_budget = parse_u32(args.next(), "--retry-budget")
                    }
                    "--backoff-cap" => retry.backoff_cap = parse_u32(args.next(), "--backoff-cap"),
                    "--fallback-frac" => {
                        retry.fallback_alive_frac = parse_f64(args.next(), "--fallback-frac")
                    }
                    "--family" => match args.next().as_deref().map(parse_family) {
                        Some(Some(f)) => family = f,
                        _ => {
                            eprintln!(
                                "error: --family needs one-choice, greedy[d], adaptive or threshold"
                            );
                            usage()
                        }
                    },
                    "--faults" => faults = args.next(),
                    other => {
                        eprintln!("error: unknown flag {other}");
                        usage()
                    }
                }
            }
            let (Some(n), Some(arrivals), Some(ticks)) = (n, arrivals, ticks) else {
                eprintln!("error: serve needs --n, --arrivals and --ticks");
                usage()
            };
            if !(0.0..1.0).contains(&depart) {
                eprintln!("error: --depart must be in [0, 1)");
                usage()
            }
            if n == 0 {
                eprintln!("error: --n must be at least 1");
                usage()
            }
            if RunConfig::new(n, arrivals).max_load_bound() > u64::from(u32::MAX) {
                eprintln!(
                    "error: --arrivals {arrivals} is too large for --n {n}: ⌈arrivals/n⌉ + 1 \
                     must fit in u32"
                );
                usage()
            }
            if ticks == 0 {
                eprintln!("error: --ticks must be at least 1");
                usage()
            }
            if retry.probe_budget == 0 {
                eprintln!("error: --probe-budget must be at least 1");
                usage()
            }
            if let Family::Greedy(d) = family {
                // Each accepting contact costs at least one sample, so a
                // budget below d can never place a ball.
                if d > retry.probe_budget {
                    eprintln!(
                        "error: greedy[{d}] needs {d} accepting contacts per attempt, more than \
                         --probe-budget {} allows",
                        retry.probe_budget
                    );
                    usage()
                }
            }
            if retry.retry_budget == 0 {
                eprintln!("error: --retry-budget must be at least 1");
                usage()
            }
            if !(0.0..=1.0).contains(&retry.fallback_alive_frac) {
                eprintln!("error: --fallback-frac must be in [0, 1]");
                usage()
            }
            let plan = match faults {
                Some(spec) => match FaultPlan::parse(&spec, seed) {
                    Ok(p) => p,
                    Err(msg) => {
                        eprintln!("error: bad --faults spec: {msg}");
                        usage()
                    }
                },
                None => FaultPlan::none(),
            };
            let mut spec = StreamSpec::new(ticks, depart)
                .with_faults(plan)
                .with_retry(retry);
            spec.poisson = poisson;
            let report = serve(&spec, family, &RunConfig::new(n, arrivals), seed);
            let out = &report.outcome;
            let s = &out.scenario;
            if series {
                println!(
                    "tick,in_system,gap,max_load,alive_ppm,placed,departed,shed,fallbacks,samples"
                );
                for t in &report.series {
                    println!(
                        "{},{},{},{},{},{},{},{},{},{}",
                        t.tick,
                        t.in_system,
                        t.gap,
                        t.max_load,
                        t.alive_ppm,
                        t.placed,
                        t.departed,
                        t.shed,
                        t.fallbacks,
                        t.samples
                    );
                }
            }
            eprintln!(
                "# {} n={} ticks={} arrivals={} departed={} resident={} shed={} fallbacks={} \
                 alive_frac={:.3} shed_rate={:.6} gap={} max={} ops={} ops/s={:.0} \
                 latency p50={} p99={} wall={:.3}s",
                out.protocol,
                out.n,
                s.ticks,
                s.arrivals,
                s.departed,
                out.m,
                s.shed,
                s.fallbacks,
                s.alive_frac,
                s.shed_rate(),
                out.gap(),
                out.max_load(),
                report.ops(),
                report.ops_per_sec(),
                report.latency.quantile(0.50),
                report.latency.quantile(0.99),
                report.wall.as_secs_f64(),
            );
        }
        _ => usage(),
    }
}
