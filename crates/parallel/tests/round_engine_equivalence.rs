//! Distributional equivalence of the round-occupancy engine.
//!
//! The claim (see `bib_parallel::protocols`): `Engine::Histogram`
//! induces the same distribution as `Engine::Faithful` on the outcome
//! marginals of the parallel round family — final loads, rounds,
//! messages — for `collision`, `bounded-load` and `parallel-greedy`,
//! exactly where the engine takes its exact paths and up to the
//! documented moment-matched approximations elsewhere. Checked four
//! ways:
//!
//! * brute-force enumeration — tiny collision cases are enumerated
//!   exactly (every contact assignment per round, stall counter and
//!   fallback included) and both engines' samples are
//!   goodness-of-fit-tested against the enumerated law; bounded-load
//!   and single-round parallel-greedy have closed forms;
//! * two-sample chi-square tests between faithful and round-occupancy
//!   replicate ensembles on the max-load, rounds and messages
//!   marginals, at sizes that exercise the paths above 64 contacts
//!   (the Poissonized occupancy profile and its top-up, hypergeometric
//!   chains, placed-ball draw);
//! * sure invariants — mass conservation, the bounded-load capacity
//!   bound, exact fills, round-indexed stage traces — across sizes;
//! * `Engine::Auto` resolution: deterministic and stream-identical to
//!   the concrete engine it resolves to.

use bib_analysis::chisq::{chi_square_gof, chi_square_sf};
use bib_core::prelude::*;
use bib_core::protocol::StageTrace;
use bib_core::run::{run_protocol, run_with_observer};
use bib_parallel::protocols::{BoundedLoad, Collision, ParallelGreedy};
use std::collections::BTreeMap;

/// Two-sample Pearson chi-square on a pair of histograms with pooling
/// of sparse cells; returns the p-value of "same distribution".
fn two_sample_p(a: &[u64], b: &[u64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let na: u64 = a.iter().sum();
    let nb: u64 = b.iter().sum();
    assert!(na > 0 && nb > 0);
    let (na, nb) = (na as f64, nb as f64);
    let mut cells: Vec<(f64, f64)> = Vec::new();
    let mut acc = (0.0, 0.0);
    for (&x, &y) in a.iter().zip(b) {
        acc.0 += x as f64;
        acc.1 += y as f64;
        if acc.0 + acc.1 >= 10.0 {
            cells.push(acc);
            acc = (0.0, 0.0);
        }
    }
    if acc.0 + acc.1 > 0.0 {
        if let Some(last) = cells.last_mut() {
            last.0 += acc.0;
            last.1 += acc.1;
        } else {
            cells.push(acc);
        }
    }
    if cells.len() < 2 {
        return 1.0;
    }
    let mut stat = 0.0;
    for &(x, y) in &cells {
        let tot = x + y;
        let ex = tot * na / (na + nb);
        let ey = tot * nb / (na + nb);
        stat += (x - ex) * (x - ex) / ex + (y - ey) * (y - ey) / ey;
    }
    chi_square_sf((cells.len() - 1) as u64, stat)
}

/// Histograms a per-outcome statistic over replicate ensembles of the
/// faithful and round-occupancy engines.
fn engine_histograms<P, F>(
    proto: &P,
    n: usize,
    m: u64,
    reps: u64,
    cells: usize,
    stat: F,
) -> (Vec<u64>, Vec<u64>)
where
    P: Protocol,
    F: Fn(&Outcome) -> usize,
{
    let mut hists = Vec::new();
    for (engine, seed_space) in [(Engine::Faithful, 0u64), (Engine::Histogram, 3_000_000)] {
        let cfg = RunConfig::new(n, m).with_engine(engine);
        let mut h = vec![0u64; cells];
        for rep in 0..reps {
            // Distinct seed spaces per engine (fixed, not tied to the
            // enum's layout): the comparison is distributional, not
            // stream-coupled.
            let seed = rep + seed_space;
            let out = run_protocol(proto, &cfg, seed);
            let idx = stat(&out).min(cells - 1);
            h[idx] += 1;
        }
        hists.push(h);
    }
    let b = hists.pop().unwrap();
    let a = hists.pop().unwrap();
    (a, b)
}

const ALPHA: f64 = 1e-4;

#[test]
fn collision_marginals_match() {
    let (n, m, reps) = (2048usize, 2048u64, 400u64);
    let proto = Collision::new(1);
    let (a, b) = engine_histograms(&proto, n, m, reps, 12, |o| o.max_load() as usize);
    let p = two_sample_p(&a, &b);
    assert!(
        p > ALPHA,
        "collision max-load: p = {p:.2e} ({a:?} vs {b:?})"
    );
    let (a, b) = engine_histograms(&proto, n, m, reps, 16, |o| o.rounds() as usize);
    let p = two_sample_p(&a, &b);
    assert!(p > ALPHA, "collision rounds: p = {p:.2e} ({a:?} vs {b:?})");
    // Messages live in [2m, ~4m]; bucket the excess over the floor.
    let (a, b) = engine_histograms(&proto, n, m, reps, 40, |o| {
        ((o.messages().saturating_sub(2 * m)) / (m / 24).max(1)) as usize
    });
    let p = two_sample_p(&a, &b);
    assert!(
        p > ALPHA,
        "collision messages: p = {p:.2e} ({a:?} vs {b:?})"
    );
}

#[test]
fn collision_larger_threshold_marginals_match() {
    // c = 2 exercises multi-level promotes per round.
    let (n, m, reps) = (1024usize, 1024u64, 300u64);
    let proto = Collision::new(2);
    let (a, b) = engine_histograms(&proto, n, m, reps, 12, |o| o.max_load() as usize);
    let p = two_sample_p(&a, &b);
    assert!(p > ALPHA, "collision(2) max-load: p = {p:.2e}");
    let (a, b) = engine_histograms(&proto, n, m, reps, 12, |o| o.rounds() as usize);
    let p = two_sample_p(&a, &b);
    assert!(p > ALPHA, "collision(2) rounds: p = {p:.2e}");
}

#[test]
fn bounded_load_marginals_match() {
    let (n, m, reps) = (1024usize, 1024u64, 400u64);
    let proto = BoundedLoad::new(2);
    let (a, b) = engine_histograms(&proto, n, m, reps, 12, |o| o.rounds() as usize);
    let p = two_sample_p(&a, &b);
    assert!(
        p > ALPHA,
        "bounded-load rounds: p = {p:.2e} ({a:?} vs {b:?})"
    );
    let (a, b) = engine_histograms(&proto, n, m, reps, 40, |o| {
        ((o.messages().saturating_sub(m)) / (m / 12).max(1)) as usize
    });
    let p = two_sample_p(&a, &b);
    assert!(
        p > ALPHA,
        "bounded-load messages: p = {p:.2e} ({a:?} vs {b:?})"
    );
    // Max load is ≤ cap surely (and almost surely = cap at m = n);
    // compare the marginal anyway — a degenerate pair pools to p = 1.
    let (a, b) = engine_histograms(&proto, n, m, reps, 4, |o| o.max_load() as usize);
    let p = two_sample_p(&a, &b);
    assert!(p > ALPHA, "bounded-load max-load: p = {p:.2e}");
}

#[test]
fn parallel_greedy_marginals_match() {
    for rounds in [2u32, 4] {
        let (n, m, reps) = (1024usize, 1024u64, 400u64);
        let proto = ParallelGreedy::new(2, rounds, 1);
        let (a, b) = engine_histograms(&proto, n, m, reps, 10, |o| o.max_load() as usize);
        let p = two_sample_p(&a, &b);
        assert!(
            p > ALPHA,
            "pg(r={rounds}) max-load: p = {p:.2e} ({a:?} vs {b:?})"
        );
        let (a, b) = engine_histograms(&proto, n, m, reps, 40, |o| {
            ((o.messages().saturating_sub(m)) / (m / 16).max(1)) as usize
        });
        let p = two_sample_p(&a, &b);
        assert!(
            p > ALPHA,
            "pg(r={rounds}) messages: p = {p:.2e} ({a:?} vs {b:?})"
        );
        let (a, b) = engine_histograms(&proto, n, m, reps, 8, |o| o.rounds() as usize);
        let p = two_sample_p(&a, &b);
        assert!(p > ALPHA, "pg(r={rounds}) rounds: p = {p:.2e}");
    }
}

// ---------------------------------------------------------------------
// Brute-force enumeration of tiny collision runs.
// ---------------------------------------------------------------------

/// Exact distribution over `(sorted final loads, rounds)` of the
/// collision protocol, by forward propagation over every per-round
/// contact assignment (`n^u` branches, uniform), stall counter and
/// one-choice fallback included. Mass still live after `max_rounds`
/// rounds is returned separately (the caller pools it into the
/// chi-square overflow cell).
fn collision_brute(
    n: usize,
    m: u32,
    c: u32,
    max_rounds: u32,
) -> (BTreeMap<(Vec<u32>, u32), f64>, f64) {
    const STALL_LIMIT: u32 = 8; // Collision::STALL_LIMIT
    type Live = BTreeMap<(Vec<u32>, u32, u32), f64>; // (loads, unplaced, stalled)
    let mut live: Live = BTreeMap::new();
    live.insert((vec![0; n], m, 0), 1.0);
    let mut terminal: BTreeMap<(Vec<u32>, u32), f64> = BTreeMap::new();
    let mut rounds = 0u32;
    while !live.is_empty() && rounds < max_rounds {
        rounds += 1;
        let mut next: Live = BTreeMap::new();
        for ((loads, unplaced, stalled), prob) in live {
            let u = unplaced as usize;
            let branches = (n as u64).pow(u as u32);
            let p_branch = prob / branches as f64;
            for code in 0..branches {
                // Decode the contact assignment.
                let mut counts = vec![0u32; n];
                let mut x = code;
                for _ in 0..u {
                    counts[(x % n as u64) as usize] += 1;
                    x /= n as u64;
                }
                let mut new_loads = loads.clone();
                let mut placed = 0u32;
                for (bin, &cnt) in counts.iter().enumerate() {
                    if cnt > 0 && cnt <= c {
                        new_loads[bin] += cnt;
                        placed += cnt;
                    }
                }
                let left = unplaced - placed;
                if left == 0 {
                    let mut key = new_loads;
                    key.sort_unstable();
                    *terminal.entry((key, rounds)).or_insert(0.0) += p_branch;
                    continue;
                }
                let new_stalled = if placed == 0 { stalled + 1 } else { 0 };
                if new_stalled >= STALL_LIMIT {
                    // One-choice fallback: one extra round, every
                    // remaining assignment accepted unconditionally.
                    let fb = (n as u64).pow(left);
                    let p_fb = p_branch / fb as f64;
                    for fcode in 0..fb {
                        let mut fl = new_loads.clone();
                        let mut y = fcode;
                        for _ in 0..left {
                            fl[(y % n as u64) as usize] += 1;
                            y /= n as u64;
                        }
                        fl.sort_unstable();
                        *terminal.entry((fl, rounds + 1)).or_insert(0.0) += p_fb;
                    }
                    continue;
                }
                let mut key = new_loads;
                key.sort_unstable();
                *next.entry((key, left, new_stalled)).or_insert(0.0) += p_branch;
            }
        }
        live = next;
    }
    let leftover: f64 = live.values().sum();
    (terminal, leftover)
}

/// Samples `reps` runs of `proto` under `engine` and GOF-tests the
/// `(sorted loads, rounds)` joint against the enumerated law.
fn gof_against_brute(n: usize, m: u32, c: u32, engine: Engine, reps: u64) {
    let (dist, leftover) = collision_brute(n, m, c, 24);
    assert!(leftover < 1e-9, "enumeration truncated too much mass");
    let mut keys: Vec<&(Vec<u32>, u32)> = dist.keys().collect();
    keys.sort();
    let index: BTreeMap<_, _> = keys.iter().enumerate().map(|(i, k)| (*k, i)).collect();
    let probs: Vec<f64> = keys.iter().map(|k| dist[*k]).collect();
    let mut observed = vec![0u64; keys.len()];
    let mut overflow = 0u64;
    let cfg = RunConfig::new(n, m as u64).with_engine(engine);
    let proto = Collision::new(c);
    for rep in 0..reps {
        let out = run_protocol(&proto, &cfg, rep);
        let mut loads = out.loads.to_vec();
        loads.sort_unstable();
        match index.get(&(loads, out.rounds())) {
            Some(&i) => observed[i] += 1,
            None => overflow += 1,
        }
    }
    let gof = chi_square_gof(&observed, &probs, overflow, 5.0);
    assert!(
        gof.p_value > ALPHA,
        "{engine} vs brute force (n={n}, m={m}, c={c}): p = {:.2e}, chi2 = {:.1}/{}",
        gof.p_value,
        gof.statistic,
        gof.dof
    );
}

#[test]
fn collision_small_cases_match_brute_force() {
    // Exact-path regime (every profile walk, class pick and
    // hypergeometric is exact below the thresholds): the engine must
    // reproduce the enumerated law, not just approximate it. The
    // faithful engine runs through the same test to validate the
    // enumerator itself.
    for engine in [Engine::Histogram, Engine::Faithful] {
        gof_against_brute(3, 2, 1, engine, 20_000);
        gof_against_brute(4, 3, 2, engine, 20_000);
    }
}

#[test]
fn bounded_load_small_case_matches_closed_form() {
    // n = 2, cap = 1, m = 2: round 1 places both balls iff they pick
    // distinct bins (probability 1/2). Otherwise one ball retries with
    // k = 2 contacts against one open bin of two, succeeding with
    // probability 1 − (1/2)² = 3/4 per round. So
    //   P(rounds = 1) = 1/2,  P(rounds = r ≥ 2) = (1/2)·(3/4)·(1/4)^{r−2},
    // and the final loads are [1, 1] surely.
    let cells = 12usize;
    let mut probs = vec![0.0f64; cells];
    probs[1] = 0.5;
    for (r, p) in probs.iter_mut().enumerate().skip(2) {
        *p = 0.5 * 0.75 * 0.25f64.powi(r as i32 - 2);
    }
    for engine in [Engine::Histogram, Engine::Faithful] {
        let cfg = RunConfig::new(2, 2).with_engine(engine);
        let proto = BoundedLoad::new(1);
        let mut observed = vec![0u64; cells];
        let mut overflow = 0u64;
        for rep in 0..20_000u64 {
            let out = run_protocol(&proto, &cfg, rep);
            assert_eq!(out.loads, vec![1, 1], "loads must fill exactly");
            match out.rounds() {
                r if (r as usize) < cells => observed[r as usize] += 1,
                _ => overflow += 1,
            }
        }
        let gof = chi_square_gof(&observed, &probs, overflow, 5.0);
        assert!(
            gof.p_value > ALPHA,
            "{engine} bounded-load rounds vs closed form: p = {:.2e}",
            gof.p_value
        );
    }
}

#[test]
fn parallel_greedy_single_round_matches_enumeration() {
    // r = 1 is pure commitment: every ball lands uniformly (min over
    // all-equal loads = first candidate), so the sorted loads follow
    // the enumerated multinomial over n^m assignments. n = 3, m = 3:
    //   [1,1,1] w.p. 6/27, [0,1,2] w.p. 18/27, [0,0,3] w.p. 3/27.
    let probs = [6.0 / 27.0, 18.0 / 27.0, 3.0 / 27.0];
    for engine in [Engine::Histogram, Engine::Faithful] {
        let cfg = RunConfig::new(3, 3).with_engine(engine);
        let proto = ParallelGreedy::new(2, 1, 1);
        let mut observed = [0u64; 3];
        for rep in 0..20_000u64 {
            let out = run_protocol(&proto, &cfg, rep);
            assert_eq!(out.rounds(), 1);
            let mut loads = out.loads.to_vec();
            loads.sort_unstable();
            let idx = match loads.as_slice() {
                [1, 1, 1] => 0,
                [0, 1, 2] => 1,
                [0, 0, 3] => 2,
                other => panic!("impossible loads {other:?}"),
            };
            observed[idx] += 1;
        }
        let gof = chi_square_gof(&observed, &probs, 0, 5.0);
        assert!(
            gof.p_value > ALPHA,
            "{engine} pg(r=1) vs enumeration: p = {:.2e}",
            gof.p_value
        );
    }
}

// ---------------------------------------------------------------------
// Sure invariants and plumbing.
// ---------------------------------------------------------------------

#[test]
fn engine_invariants_across_sizes() {
    for (n, m) in [(1usize, 3u64), (2, 2), (8, 8), (100, 100), (5000, 5000)] {
        let cfg = RunConfig::new(n, m).with_engine(Engine::Histogram);
        let out = run_protocol(&Collision::new(1), &cfg, n as u64);
        assert_eq!(out.scenario.label(), "parallel");
        assert!(out.rounds() >= 1);
        assert!(out.messages() >= m);
        let out = run_protocol(&ParallelGreedy::new(2, 3, 1), &cfg, n as u64);
        assert!(out.rounds() <= 3);
        if 2 * n as u64 >= m {
            let out = run_protocol(&BoundedLoad::new(2), &cfg, n as u64);
            assert!(out.max_load() <= 2, "cap violated: {}", out.max_load());
        }
    }
}

#[test]
fn engine_exact_fill_at_capacity() {
    // m = cap·n: every slot must fill, surely.
    let cfg = RunConfig::new(64, 128).with_engine(Engine::Histogram);
    let out = run_protocol(&BoundedLoad::new(2), &cfg, 9);
    assert_eq!(out.loads, vec![2u32; 64]);
}

#[test]
fn engine_zero_balls() {
    let cfg = RunConfig::new(8, 0).with_engine(Engine::Histogram);
    for out in [
        run_protocol(&Collision::new(1), &cfg, 1),
        run_protocol(&BoundedLoad::new(2), &cfg, 1),
        run_protocol(&ParallelGreedy::new(2, 3, 1), &cfg, 1),
    ] {
        assert_eq!(out.rounds(), 0);
        assert_eq!(out.messages(), 0);
        assert_eq!(out.max_load(), 0);
    }
}

#[test]
fn engine_stage_traces_fire_once_per_round() {
    let cfg = RunConfig::new(256, 256).with_engine(Engine::Histogram);
    for proto in [
        Box::new(Collision::new(1)) as Box<dyn DynProtocol>,
        Box::new(BoundedLoad::new(2)),
        Box::new(ParallelGreedy::new(2, 4, 1)),
    ] {
        let mut trace = StageTrace::new();
        let out = run_with_observer(proto.as_ref(), &cfg, 11, &mut trace);
        assert_eq!(
            trace.stages,
            (1..=out.rounds() as u64).collect::<Vec<_>>(),
            "{}",
            out.protocol
        );
        // The last trace frame is the final state: its gap matches.
        assert_eq!(*trace.gaps.last().unwrap(), out.gap(), "{}", out.protocol);
    }
}

#[test]
fn auto_resolves_deterministically_and_matches_stream() {
    // Large: Auto → Histogram; small: Auto → Faithful. In both cases
    // the Auto run must be bit-identical to the resolved engine's run
    // on the same seed.
    for (n, m, resolved) in [
        (1 << 14, 1u64 << 14, Engine::Histogram),
        (256, 256, Engine::Faithful),
    ] {
        assert_eq!(Engine::auto_scheduled(n, m), resolved);
        for proto in [
            Box::new(Collision::new(1)) as Box<dyn DynProtocol>,
            Box::new(BoundedLoad::new(2)),
            Box::new(ParallelGreedy::new(2, 4, 1)),
        ] {
            let auto = RunConfig::new(n, m).with_engine(Engine::Auto);
            let conc = RunConfig::new(n, m).with_engine(resolved);
            let a = run_protocol(proto.as_ref(), &auto, 42);
            let b = run_protocol(proto.as_ref(), &conc, 42);
            assert_eq!(a, b, "Auto diverged for {}", a.protocol);
        }
    }
}

#[test]
fn alias_engines_share_their_concrete_path() {
    // Jump parses as faithful, and LevelBatched (exact final loads)
    // runs the faithful rounds — documented resolution, not silence.
    let n = 512usize;
    for proto in [
        Box::new(Collision::new(1)) as Box<dyn DynProtocol>,
        Box::new(BoundedLoad::new(2)),
        Box::new(ParallelGreedy::new(2, 3, 1)),
    ] {
        for (alias, concrete) in [
            ("jump".parse().unwrap(), Engine::Faithful),
            (Engine::LevelBatched, Engine::Faithful),
        ] {
            let a = run_protocol(
                proto.as_ref(),
                &RunConfig::new(n, n as u64).with_engine(alias),
                7,
            );
            let b = run_protocol(
                proto.as_ref(),
                &RunConfig::new(n, n as u64).with_engine(concrete),
                7,
            );
            assert_eq!(a, b, "{alias} should alias {concrete}");
        }
    }
}
