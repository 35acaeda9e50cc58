//! Cross-crate tests for the fault-tolerant streaming allocator.
//!
//! The three contracts the fault layer promises:
//!
//! 1. **Determinism under faults** — same seed + same [`FaultPlan`] →
//!    bit-identical reports from the serial `serve` driver; a different
//!    seed gives a different run.
//! 2. **Distributional fidelity** — a zero-churn, zero-fault stream is
//!    the same allocation process as the batch engine: two-sample
//!    chi-square on final-load occupancy cannot tell them apart.
//! 3. **Self-stabilization** — kill half the fleet mid-run; the run
//!    completes without panicking, the degradation is *counted*
//!    (nonzero shed and/or fallbacks), and after the recovery event the
//!    gap returns to the pre-fault band.

use balls_into_bins::analysis::chisq::chi_square_sf;
use balls_into_bins::core::prelude::*;
use balls_into_bins::core::run::run_protocol;

/// Two-sample Pearson chi-square on a pair of occupancy histograms
/// (bins-at-load counts), pooling sparse cells; returns the p-value of
/// "same distribution".
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
    assert!(cells.len() >= 2, "need at least two pooled cells");
    let mut stat = 0.0;
    for (x, y) in &cells {
        let total = x + y;
        let ex = total * na / (na + nb);
        let ey = total * nb / (na + nb);
        stat += (x - ex).powi(2) / ex + (y - ey).powi(2) / ey;
    }
    chi_square_sf(cells.len() as u64 - 1, stat)
}

/// Occupancy counts (bins at load 0, 1, …, cap) of one outcome.
fn occupancy(out: &Outcome, cap: u32) -> Vec<u64> {
    let mut counts = vec![0u64; cap as usize + 1];
    for (load, bins) in out.loads.histogram().levels() {
        counts[(load.min(cap)) as usize] += bins;
    }
    counts
}

#[test]
fn faulted_stream_is_reproducible_per_seed() {
    let spec = StreamSpec::new(80, 0.08)
        .with_faults(FaultPlan::mass_failure(25, 0.5, 55, 17))
        .with_retry(RetryPolicy {
            probe_budget: 6,
            retry_budget: 3,
            backoff_cap: 4,
            fallback_alive_frac: 0.6,
        });
    let cfg = RunConfig::new(400, 80 * 100);
    let base = serve(&spec, Family::Adaptive, &cfg, 2013);
    base.outcome.validate();
    let s = &base.outcome.scenario;
    assert!(s.shed + s.fallbacks > 0, "the crash must leave a trace");
    let again = serve(&spec, Family::Adaptive, &cfg, 2013);
    assert_eq!(again.outcome.loads, base.outcome.loads);
    assert_eq!(again.outcome.scenario, base.outcome.scenario);
    assert_eq!(again.outcome.total_samples, base.outcome.total_samples);
    assert_eq!(again.series, base.series);
    assert_eq!(again.latency, base.latency);
    // The seed drives arrivals, placements and departures: another
    // seed under the same plan is another run.
    let other = serve(&spec, Family::Adaptive, &cfg, 2014);
    other.outcome.validate();
    assert_ne!(other.series, base.series, "a second seed must differ");
}

#[test]
fn zero_churn_stream_is_chi_square_equivalent_to_batch() {
    // With no departures and no faults the serial stream driver is the
    // batch process split across ticks: same acceptance rule, same
    // histogram dynamics. Pool occupancy over replicate ensembles and
    // compare distributions, for greedy[2] and for one-choice (the
    // least-of-1 chain), each against the faithful batch engine.
    let n = 512usize;
    let m = 2048u64;
    let reps = 40u64;
    let cap = 12u32;
    let spec = StreamSpec::new(8, 0.0).deterministic();
    for family in [Family::Greedy(2), Family::OneChoice] {
        let mut stream_occ = vec![0u64; cap as usize + 1];
        let mut batch_occ = vec![0u64; cap as usize + 1];
        for rep in 0..reps {
            let cfg = RunConfig::new(n, m).with_engine(Engine::Faithful);
            let report = serve(&spec, family, &cfg, 9000 + rep);
            report.outcome.validate();
            assert_eq!(report.outcome.m, m, "zero churn must place every ball");
            assert_eq!(report.outcome.scenario.shed, 0);
            for (i, c) in occupancy(&report.outcome, cap).iter().enumerate() {
                stream_occ[i] += c;
            }
            let out = match family {
                Family::Greedy(d) => run_protocol(&GreedyD::new(d), &cfg, 9000 + rep),
                _ => run_protocol(&OneChoice, &cfg, 9000 + rep),
            };
            for (i, c) in occupancy(&out, cap).iter().enumerate() {
                batch_occ[i] += c;
            }
        }
        let p = two_sample_p(&stream_occ, &batch_occ);
        assert!(
            p > 1e-4,
            "{family:?}: stream vs batch occupancy distinguishable: p = {p:.6}\n\
             stream {stream_occ:?}\nbatch  {batch_occ:?}"
        );
    }
}

#[test]
fn gap_returns_to_pre_fault_band_after_mass_failure() {
    let crash_at = 120u64;
    let recover_at = 200u64;
    let ticks = 320u64;
    let spec = StreamSpec::new(ticks, 0.10)
        .with_faults(FaultPlan::mass_failure(crash_at, 0.5, recover_at, 5))
        .with_retry(RetryPolicy {
            probe_budget: 6,
            retry_budget: 2,
            backoff_cap: 4,
            fallback_alive_frac: 0.6,
        });
    let cfg = RunConfig::new(1000, ticks * 200);
    let report = serve(&spec, Family::Greedy(2), &cfg, 2013);
    report.outcome.validate(); // completed, ledger balanced, no panic

    let s = &report.outcome.scenario;
    assert!(
        s.shed + s.fallbacks > 0,
        "killing half the fleet must leave a counted trace"
    );
    assert_eq!(s.alive_frac, 1.0, "the whole fleet recovered");

    // Pre-fault band: worst gap over the 40 ticks before the crash.
    let band = report
        .series
        .iter()
        .filter(|t| t.tick >= crash_at - 40 && t.tick < crash_at)
        .map(|t| t.gap)
        .max()
        .expect("pre-fault window");
    // During the outage the gap leaves the band...
    let worst_outage = report
        .series
        .iter()
        .filter(|t| t.tick >= crash_at && t.tick < recover_at)
        .map(|t| t.gap)
        .max()
        .expect("outage window");
    assert!(
        worst_outage > band,
        "outage should visibly disturb the gap (band {band}, outage max {worst_outage})"
    );
    // ...and settles back inside it after recovery.
    let settled = report
        .series
        .iter()
        .find(|t| t.tick > recover_at && t.gap <= band)
        .unwrap_or_else(|| panic!("gap never returned to the pre-fault band ≤ {band}"));
    assert!(
        settled.tick < ticks - 10,
        "recovery should happen with margin, not at the buzzer"
    );
    // And it stays healthy at the end.
    let last = report.series.last().expect("nonempty series");
    assert!(
        last.gap <= band + 1,
        "final gap {} outside recovered band ≤ {}",
        last.gap,
        band + 1
    );
}

/// 64-bit FNV-1a over a stream of `u64` words (little-endian bytes).
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Digest of an outcome's final loads, ascending.
fn loads_words(out: &Outcome) -> impl Iterator<Item = u64> {
    out.loads
        .histogram()
        .to_sorted_loads()
        .into_iter()
        .map(u64::from)
}

/// Digest of a serve run: its whole `TickStats` series and its final
/// sorted loads.
fn serve_digest(spec: &StreamSpec, family: Family, cfg: &RunConfig, seed: u64) -> u64 {
    let report = serve(spec, family, cfg, seed);
    let series = report.series.iter().flat_map(|t| {
        [
            t.tick,
            t.in_system,
            u64::from(t.gap),
            u64::from(t.max_load),
            u64::from(t.alive_ppm),
            t.placed,
            t.departed,
            t.shed,
            t.fallbacks,
            t.samples,
        ]
    });
    fnv1a(series.chain(loads_words(&report.outcome)))
}

/// The pinned serve cell: n = 2000, 170 ticks of 1000 arrivals,
/// departure probability 0.1, probe budget 8.
fn pinned_spec() -> (StreamSpec, RunConfig) {
    let spec = StreamSpec::new(170, 0.1).with_retry(RetryPolicy {
        probe_budget: 8,
        ..RetryPolicy::default()
    });
    (spec, RunConfig::new(2_000, 170 * 1_000))
}

/// Draw-stream pins: a faulted serve run per family under the perfbench
/// plan, digested by [`serve_digest`]. Any change to the draws a serve
/// run makes — the contact draws, the rank → load map, the fault
/// splits, the departures, the one-choice placement of a fallback
/// tick — moves these. A change that alters the draw stream on purpose
/// updates the pins and says so.
#[test]
fn faulted_serve_draw_stream_is_pinned() {
    let pins = [
        (Family::OneChoice, 0xdb0e_2aa3_c3c2_0869u64),
        (Family::Greedy(2), 0xa5b1_0eb5_b16a_8a31),
        (Family::Adaptive, 0x1ebb_4f6a_e858_a884),
        (Family::Threshold, 0xb13d_77af_d8d5_f002),
    ];
    let seed = 5u64;
    let plan = FaultPlan::parse(
        "crash@60:0.9,slow@80:0.3,drain@100:0.2,recover@140:all",
        seed,
    )
    .expect("the pinned plan parses");
    let (spec, cfg) = pinned_spec();
    let spec = spec.with_faults(plan);
    for (family, pin) in pins {
        let digest = serve_digest(&spec, family, &cfg, seed);
        assert_eq!(
            digest, pin,
            "{family:?}: draw stream moved to {digest:#018x}"
        );
    }
}

/// Draw-stream pins of fault-free serve runs of the families that never
/// place a ball by the one-choice law: `greedy[2]` (least-of-2 rank
/// chain), adaptive and threshold (per-contact below-bound chain).
#[test]
fn fault_free_serve_draw_stream_is_pinned() {
    let pins = [
        (Family::Greedy(2), 0x5d18_54bc_48ad_a08cu64),
        (Family::Adaptive, 0x611f_eca4_411d_ad3e),
        (Family::Threshold, 0x4967_caf7_c0f2_2b67),
    ];
    let (spec, cfg) = pinned_spec();
    for (family, pin) in pins {
        let digest = serve_digest(&spec, family, &cfg, 5);
        assert_eq!(
            digest, pin,
            "{family:?}: draw stream moved to {digest:#018x}"
        );
    }
}

/// Draw-stream pin of the histogram engine's per-ball `greedy[2]` chain
/// at `m = n²`: total samples plus the final sorted loads.
#[test]
fn histogram_greedy_draw_stream_is_pinned() {
    let cfg = RunConfig::new(1_024, 1_024 * 1_024).with_engine(Engine::Histogram);
    let out = run_protocol(&GreedyD::new(2), &cfg, 5);
    let digest = fnv1a(std::iter::once(out.total_samples).chain(loads_words(&out)));
    assert_eq!(
        digest, 0x479a_be56_b56f_bae9,
        "draw stream moved to {digest:#018x}"
    );
}
