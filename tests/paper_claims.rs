//! Statistical integration tests of the paper's quantitative claims at
//! laptop scale. Seeds are fixed, so these are deterministic; thresholds
//! include generous noise margins so they test *shapes*, not exact
//! constants.

use balls_into_bins::analysis::coupon::expected_full_collection;
use balls_into_bins::core::prelude::*;

/// Theorem 3.1: adaptive's allocation time is O(m) — the mean ratio is a
/// small constant, stable across n and ϕ.
#[test]
fn theorem31_adaptive_linear_time() {
    let mut ratios = Vec::new();
    for (n, phi) in [(256usize, 4u64), (1024, 4), (1024, 32), (4096, 8)] {
        let cfg = RunConfig::new(n, phi * n as u64).with_engine(Engine::Faithful);
        let outs = run_replicates(&Adaptive::paper(), &cfg, 9, 10);
        let mean = outs.iter().map(|o| o.time_ratio()).sum::<f64>() / outs.len() as f64;
        assert!(mean < 3.0, "n={n} phi={phi}: ratio {mean}");
        assert!(mean >= 1.0);
        ratios.push(mean);
    }
    // Stability: max/min of the mean ratios bounded (no growth trend).
    let max = ratios.iter().cloned().fold(f64::MIN, f64::max);
    let min = ratios.iter().cloned().fold(f64::MAX, f64::min);
    assert!(max / min < 1.5, "ratios vary too much: {ratios:?}");
}

/// Theorem 4.1: threshold's time is m + O(m^{3/4} n^{1/4}) — so the
/// ratio T/m must approach 1 as ϕ grows, and the normalised excess must
/// not blow up.
#[test]
fn theorem41_threshold_excess_scaling() {
    let n = 1024usize;
    let mut prev_ratio = f64::INFINITY;
    for phi in [4u64, 16, 64, 256] {
        let m = phi * n as u64;
        let cfg = RunConfig::new(n, m).with_engine(Engine::Faithful);
        let outs = run_replicates(&Threshold, &cfg, 5, 10);
        let ratio = outs.iter().map(|o| o.time_ratio()).sum::<f64>() / outs.len() as f64;
        assert!(ratio < prev_ratio + 0.02, "phi={phi}: ratio {ratio} rose");
        prev_ratio = ratio;
        let env = (m as f64).powf(0.75) * (n as f64).powf(0.25);
        let norm = outs
            .iter()
            .map(|o| o.excess_samples() as f64 / env)
            .sum::<f64>()
            / outs.len() as f64;
        assert!(norm < 5.0, "phi={phi}: normalised excess {norm}");
    }
    assert!(prev_ratio < 1.1, "final ratio {prev_ratio} not near 1");
}

/// Corollary 3.5 vs Lemma 4.2: at m = n², adaptive is smooth (Ψ = O(n),
/// small gap) while threshold is rough (Ψ ≫ n, larger gap).
#[test]
fn smoothness_separation_at_m_equals_n_squared() {
    let n = 512usize;
    let cfg = RunConfig::new(n, (n as u64) * (n as u64)).with_engine(Engine::Faithful);
    let ada = run_replicates(&Adaptive::paper(), &cfg, 4, 5);
    let thr = run_replicates(&Threshold, &cfg, 4, 5);
    let ada_psi = ada.iter().map(|o| o.psi()).sum::<f64>() / 5.0;
    let thr_psi = thr.iter().map(|o| o.psi()).sum::<f64>() / 5.0;
    // adaptive: Ψ = O(n) — allow a generous constant.
    assert!(ada_psi < 20.0 * n as f64, "adaptive psi {ada_psi}");
    // threshold: Ψ = Ω(n^{9/8}); the separation is the point.
    assert!(
        thr_psi > 4.0 * ada_psi,
        "threshold psi {thr_psi} not ≫ adaptive psi {ada_psi}"
    );
    let ada_gap = ada.iter().map(|o| o.gap() as f64).sum::<f64>() / 5.0;
    let thr_gap = thr.iter().map(|o| o.gap() as f64).sum::<f64>() / 5.0;
    assert!(ada_gap <= thr_gap, "gap order: {ada_gap} vs {thr_gap}");
    // Corollary 3.5: adaptive's gap is O(log n).
    assert!(ada_gap <= 4.0 * (n as f64).log2(), "adaptive gap {ada_gap}");
}

/// Section 2 remark: the tight (slack-0) variant is a coupon collector —
/// ≈ ϕ·n·H_n samples — and perfectly balanced.
#[test]
fn tight_threshold_is_coupon_collector() {
    let n = 512usize;
    let phi = 4u64;
    let cfg = RunConfig::new(n, phi * n as u64).with_engine(Engine::Faithful);
    let outs = run_replicates(&Adaptive::tight(), &cfg, 11, 5);
    let mean_t = outs.iter().map(|o| o.total_samples as f64).sum::<f64>() / 5.0;
    let predicted = phi as f64 * expected_full_collection(n as u64);
    assert!(
        (mean_t / predicted - 1.0).abs() < 0.15,
        "measured {mean_t} vs coupon prediction {predicted}"
    );
    for o in &outs {
        assert_eq!(o.gap(), 0, "tight variant must balance perfectly");
    }
}

/// Corollary 3.5 is a statement about EVERY stage, not just the end:
/// trace Φ and Ψ per stage and check stationarity for adaptive.
#[test]
fn adaptive_potentials_stationary_at_every_stage() {
    use balls_into_bins::core::protocol::StageTrace;
    use balls_into_bins::core::run::run_with_observer;
    let n = 1024usize;
    let cfg = RunConfig::new(n, 128 * n as u64).with_engine(Engine::Faithful);
    let mut trace = StageTrace::new();
    run_with_observer(&Adaptive::paper(), &cfg, 21, &mut trace);
    assert_eq!(trace.stages.len(), 128);
    // Skip the burn-in stages; after that Φ/n and Ψ/n must stay bounded.
    for (i, &s) in trace.stages.iter().enumerate().skip(8) {
        let phi_over_n = (trace.ln_phi[i] - (n as f64).ln()).exp();
        assert!(phi_over_n < 5.0, "stage {s}: phi/n = {phi_over_n}");
        assert!(
            trace.psi[i] < 20.0 * n as f64,
            "stage {s}: psi = {}",
            trace.psi[i]
        );
        assert!(
            (trace.gaps[i] as f64) < 4.0 * (n as f64).log2(),
            "stage {s}: gap = {}",
            trace.gaps[i]
        );
    }
}

/// Figure 3(b) shape: adaptive's final Ψ is flat in m; threshold's
/// grows.
#[test]
fn figure3b_shape_psi_flat_vs_growing() {
    let n = 512usize;
    let psi_at = |proto: &dyn DynProtocol, m: u64| -> f64 {
        let cfg = RunConfig::new(n, m).with_engine(Engine::Faithful);
        let outs = run_replicates(proto, &cfg, 13, 8);
        outs.iter().map(|o| o.psi()).sum::<f64>() / 8.0
    };
    let ada_small = psi_at(&Adaptive::paper(), 20 * n as u64);
    let ada_big = psi_at(&Adaptive::paper(), 200 * n as u64);
    let thr_small = psi_at(&Threshold, 20 * n as u64);
    let thr_big = psi_at(&Threshold, 200 * n as u64);
    // adaptive: no systematic growth (allow 2x noise).
    assert!(
        ada_big < 2.0 * ada_small,
        "adaptive psi grew: {ada_small} -> {ada_big}"
    );
    // threshold: clear growth.
    assert!(
        thr_big > 2.0 * thr_small,
        "threshold psi flat: {thr_small} -> {thr_big}"
    );
}
