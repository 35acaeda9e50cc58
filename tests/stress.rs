//! Heavy stress tests, `#[ignore]`d by default. Run explicitly:
//!
//! ```text
//! cargo test --release --test stress -- --ignored
//! ```
//!
//! These validate the paper's bounds at sizes close to the experiment
//! harness's full configurations — minutes, not seconds, in debug mode,
//! hence the opt-in.

use balls_into_bins::core::prelude::*;

/// Lemma 4.2 regime at full experiment scale: n = 4096, m = n² ≈ 16.8M,
/// faithful engine. The max-load bound must hold and the smooth/rough
/// separation must be an order of magnitude.
#[test]
#[ignore = "heavy: m = n^2 with n = 4096"]
fn full_scale_n_squared_separation() {
    let n = 4096usize;
    let cfg = RunConfig::new(n, (n as u64) * (n as u64)).with_engine(Engine::Faithful);
    let ada = run_protocol(&Adaptive::paper(), &cfg, 1);
    let thr = run_protocol(&Threshold, &cfg, 1);
    assert!(ada.max_load() as u64 <= cfg.max_load_bound());
    assert!(thr.max_load() as u64 <= cfg.max_load_bound());
    assert!(
        thr.psi() > 10.0 * ada.psi(),
        "thr {} vs ada {}",
        thr.psi(),
        ada.psi()
    );
    assert!(ada.psi() < 4.0 * n as f64);
}

/// Theorem 4.1 at n = 2¹⁸: the envelope constant stays in the band seen
/// in the E5 table (≈ 0.25–0.35).
#[test]
#[ignore = "heavy: n = 262144"]
fn threshold_envelope_at_quarter_million_bins() {
    let n = 1usize << 18;
    let phi = 16u64;
    let m = phi * n as u64;
    let cfg = RunConfig::new(n, m).with_engine(Engine::Faithful);
    let out = run_protocol(&Threshold, &cfg, 2);
    let env = (m as f64).powf(0.75) * (n as f64).powf(0.25);
    let norm = out.excess_samples() as f64 / env;
    assert!(norm > 0.1 && norm < 1.0, "normalised excess {norm}");
}

/// Corollary 3.5 at n = 2¹⁸: gap stays within a small multiple of log n.
#[test]
#[ignore = "heavy: n = 262144"]
fn adaptive_gap_at_quarter_million_bins() {
    let n = 1usize << 18;
    let cfg = RunConfig::new(n, 32 * n as u64).with_engine(Engine::Faithful);
    let out = run_protocol(&Adaptive::paper(), &cfg, 3);
    assert!(out.max_load() as u64 <= cfg.max_load_bound());
    assert!(
        (out.gap() as f64) < 3.0 * (n as f64).log2(),
        "gap {} at n = {n}",
        out.gap()
    );
}

/// Faithful engine at moderate-heavy scale: agreement with the
/// level-batched engine on the time ratio within 1%.
#[test]
#[ignore = "heavy: faithful engine, m = 8.4M"]
fn faithful_engine_full_agreement() {
    let n = 1usize << 16;
    let m = 128 * n as u64;
    let ratio = |engine: Engine| -> f64 {
        let cfg = RunConfig::new(n, m).with_engine(engine);
        run_protocol(&Threshold, &cfg, 4).time_ratio()
    };
    let (faithful, batched) = (ratio(Engine::Faithful), ratio(Engine::LevelBatched));
    assert!(
        (faithful - batched).abs() < 0.01,
        "faithful {faithful} vs level-batched {batched}"
    );
}
