//! End-to-end tests of every experiment binary: run with
//! `--quick --csv`, parse the CSV, and assert the headline *shape* each
//! experiment exists to demonstrate.
//!
//! Cargo builds the binaries for integration tests and exposes their
//! paths through `CARGO_BIN_EXE_<name>`.

use std::collections::BTreeMap;
use std::process::Command;

/// Runs a binary with the given args and returns stdout.
fn run(bin: &str, args: &[&str]) -> String {
    let out = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"));
    assert!(
        out.status.success(),
        "{bin} exited with {:?}\nstderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("non-UTF8 output")
}

/// Extracts the first CSV block (header + rows) from mixed output:
/// lines containing commas, skipping `#` comments and prose.
fn parse_csv(output: &str) -> (Vec<String>, Vec<Vec<String>>) {
    let mut header: Option<Vec<String>> = None;
    let mut rows = Vec::new();
    for line in output.lines() {
        if line.starts_with('#') || !line.contains(',') {
            if header.is_some() && !line.contains(',') && !line.trim().is_empty() {
                break; // end of the first CSV block
            }
            continue;
        }
        let cells: Vec<String> = line.split(',').map(|s| s.trim().to_string()).collect();
        if header.is_none() {
            header = Some(cells);
        } else {
            rows.push(cells);
        }
    }
    (header.expect("no CSV header found"), rows)
}

/// Column accessor by header name.
fn col(header: &[String], rows: &[Vec<String>], name: &str) -> Vec<f64> {
    let idx = header
        .iter()
        .position(|h| h == name)
        .unwrap_or_else(|| panic!("missing column {name} in {header:?}"));
    rows.iter()
        .map(|r| {
            r[idx]
                .parse::<f64>()
                .unwrap_or_else(|_| panic!("bad cell {}", r[idx]))
        })
        .collect()
}

#[test]
fn table1_shapes() {
    let out = run(env!("CARGO_BIN_EXE_table1"), &["--quick", "--csv"]);
    let (h, rows) = parse_csv(&out);
    assert!(!rows.is_empty());
    // Group rows by protocol.
    let mut excess: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let pi = h.iter().position(|c| c == "protocol").unwrap();
    let ei = h.iter().position(|c| c == "max_excess").unwrap();
    for r in &rows {
        excess
            .entry(r[pi].clone())
            .or_default()
            .push(r[ei].parse().unwrap());
    }
    // The defining row property: threshold & adaptive excess ≤ 1.
    for p in ["threshold", "adaptive"] {
        for &e in &excess[p] {
            assert!(e <= 1.0 + 1e-9, "{p} excess {e}");
        }
    }
    // one-choice strictly worse than greedy[2].
    let one: f64 = excess["one-choice"].iter().sum();
    let g2: f64 = excess["greedy[2]"].iter().sum();
    assert!(one > g2);
}

#[test]
fn figure3a_shapes() {
    let out = run(env!("CARGO_BIN_EXE_figure3a"), &["--quick", "--csv"]);
    let (h, rows) = parse_csv(&out);
    let thr = col(&h, &rows, "threshold_T/m");
    let ada = col(&h, &rows, "adaptive_T/m");
    for (t, a) in thr.iter().zip(&ada) {
        assert!(*t >= 1.0 && *a >= 1.0);
        assert!(a > t, "adaptive {a} should cost more than threshold {t}");
    }
    // threshold's ratio decreases along the sweep.
    assert!(thr.last().unwrap() < thr.first().unwrap());
}

#[test]
fn figure3b_shapes() {
    let out = run(env!("CARGO_BIN_EXE_figure3b"), &["--quick", "--csv"]);
    let (h, rows) = parse_csv(&out);
    let ada = col(&h, &rows, "adaptive_psi");
    let thr = col(&h, &rows, "threshold_psi");
    // adaptive flat (last within 2x of first), threshold growing.
    assert!(ada.last().unwrap() < &(2.0 * ada.first().unwrap()));
    assert!(thr.last().unwrap() > &(1.2 * thr.first().unwrap()));
    for (a, t) in ada.iter().zip(&thr) {
        assert!(t > a, "threshold psi {t} !> adaptive psi {a}");
    }
}

#[test]
fn theorem31_bounded_excess() {
    let out = run(env!("CARGO_BIN_EXE_theorem31"), &["--quick", "--csv"]);
    let (h, rows) = parse_csv(&out);
    for v in col(&h, &rows, "(T-m)/m") {
        assert!((0.0..1.0).contains(&v), "normalised excess {v}");
    }
}

#[test]
fn theorem41_envelope_constant() {
    let out = run(env!("CARGO_BIN_EXE_theorem41"), &["--quick", "--csv"]);
    let (h, rows) = parse_csv(&out);
    let norm = col(&h, &rows, "(T-m)/env");
    for &v in &norm {
        assert!(v > 0.0 && v < 3.0, "envelope-normalised excess {v}");
    }
}

#[test]
fn corollary35_flat_columns() {
    let out = run(env!("CARGO_BIN_EXE_corollary35"), &["--quick", "--csv"]);
    let (h, rows) = parse_csv(&out);
    for v in col(&h, &rows, "phi/n") {
        assert!(v < 5.0, "phi/n {v}");
    }
    for v in col(&h, &rows, "psi/n") {
        assert!(v < 20.0, "psi/n {v}");
    }
}

#[test]
fn lemma42_separation() {
    let out = run(env!("CARGO_BIN_EXE_lemma42"), &["--quick", "--csv"]);
    let (h, rows) = parse_csv(&out);
    let t_psi = col(&h, &rows, "thr_psi/n^1.125");
    let a_psi = col(&h, &rows, "ada_psi/n");
    for &v in &t_psi {
        assert!(
            v > 0.5,
            "threshold psi/n^(9/8) {v} should be bounded away from 0"
        );
    }
    for &v in &a_psi {
        assert!(v < 20.0, "adaptive psi/n {v} should stay O(1)");
    }
}

#[test]
fn coupon_ablation_prediction() {
    let out = run(env!("CARGO_BIN_EXE_coupon_ablation"), &["--quick", "--csv"]);
    let (h, rows) = parse_csv(&out);
    for v in col(&h, &rows, "tight_T/(phi*n*H_n)") {
        assert!((v - 1.0).abs() < 0.2, "coupon prediction ratio {v}");
    }
    for v in col(&h, &rows, "tight_gap") {
        assert_eq!(v, 0.0, "tight variant must balance perfectly");
    }
}

#[test]
fn parallel_rounds_caps() {
    let out = run(env!("CARGO_BIN_EXE_parallel_rounds"), &["--quick", "--csv"]);
    let (h, rows) = parse_csv(&out);
    for v in col(&h, &rows, "bl_max") {
        assert!(v <= 2.0, "bounded-load max {v}");
    }
    for v in col(&h, &rows, "bl_rounds") {
        assert!(v <= 12.0, "rounds {v}");
    }
}

#[test]
fn cuckoo_threshold_explosion() {
    let out = run(
        env!("CARGO_BIN_EXE_cuckoo_thresholds"),
        &["--quick", "--csv"],
    );
    let (h, rows) = parse_csv(&out);
    let kicks = col(&h, &rows, "avg_kicks");
    assert!(!kicks.is_empty());
    // Cost must grow along each k's band sweep (first < last by a lot
    // overall).
    let first = kicks.first().unwrap();
    let max = kicks.iter().cloned().fold(0.0f64, f64::max);
    assert!(
        max > 10.0 * (first + 0.01),
        "no explosion: first {first}, max {max}"
    );
}

#[test]
fn paper_constants_verifies_lemma32() {
    let out = run(env!("CARGO_BIN_EXE_paper_constants"), &["--quick"]);
    assert!(out.contains("C1"));
    assert!(
        out.contains("every k <= C1: YES"),
        "Lemma 3.2 check failed:\n{out}"
    );
}

#[test]
fn lemma33_drift_contracts() {
    let out = run(env!("CARGO_BIN_EXE_lemma33_drift"), &["--quick", "--csv"]);
    let (h, rows) = parse_csv(&out);
    let phi = col(&h, &rows, "phi/n");
    // Within each start level the potential decreases along stages; we
    // check the global first-vs-later trend per level via the stage col.
    let stage = col(&h, &rows, "stage");
    let level = col(&h, &rows, "phi0/n");
    for i in 1..rows.len() {
        if level[i] == level[i - 1] && stage[i] > stage[i - 1] {
            assert!(
                phi[i] <= phi[i - 1] * 1.01,
                "phi/n rose: {} -> {} at stage {}",
                phi[i - 1],
                phi[i],
                stage[i]
            );
        }
    }
}

#[test]
fn extensions_hold_guarantees() {
    let out = run(env!("CARGO_BIN_EXE_extensions"), &["--quick", "--csv"]);
    // First CSV block: batched sweep.
    let (h, rows) = parse_csv(&out);
    for v in col(&h, &rows, "max_excess") {
        assert!(v <= 1.0 + 1e-9, "batched excess {v}");
    }
}

#[test]
fn binaries_reject_unknown_flags() {
    // A bad or unknown flag is a typed error: `error:` plus the usage
    // on stderr and exit status 2, never a panic (status 101).
    let cases: [(&str, &[&str]); 4] = [
        (env!("CARGO_BIN_EXE_table1"), &["--bogus"]),
        (env!("CARGO_BIN_EXE_lemma42"), &["--engine", "bogus"]),
        (env!("CARGO_BIN_EXE_lemma42"), &["--seed"]),
        (env!("CARGO_BIN_EXE_bench_json"), &["--reps", "-1"]),
    ];
    for (bin, args) in cases {
        let out = Command::new(bin).args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(
            stderr.starts_with("error: ") && stderr.contains("usage: "),
            "{bin} {args:?}: {stderr}"
        );
    }
}

#[test]
fn bench_json_smoke_writes_valid_json() {
    let out_path = std::env::temp_dir().join("bib_bench_engines_smoke.json");
    let path = out_path.to_str().unwrap();
    let echo = run(
        env!("CARGO_BIN_EXE_bench_json"),
        &["--smoke", "--out", path],
    );
    assert!(echo.contains("histogram"));
    let json = std::fs::read_to_string(&out_path).expect("bench_json must write its output file");
    assert!(json.contains("\"schema\": \"bib-bench/engines/v8\""));
    assert!(json.contains("\"host\""), "host metadata missing");
    assert!(json.contains("\"threads\""), "worker-thread count missing");
    assert!(json.contains("\"rustc\""), "rustc version missing");
    // Full matrix: 3 sizes x (2 engines + auto) x 2 protocols, plus the
    // fixed-sample block at the heavy size (2 protocols x 3 engines),
    // the weighted block (3 weight shapes x (3 adaptive engines + 1
    // one-choice row)), the parallel-round block (3 protocols x
    // {faithful, histogram, auto}) and the serve-mode block (2
    // families).
    assert_eq!(json.matches("\"protocol\"").count(), 47);
    // Every row is tagged with its scenario and records (schema v4)
    // whether it ever materialized the dense load vector; since every
    // run is single-threaded (schema v7) only the host header carries
    // a thread count.
    assert_eq!(
        json.matches("\"protocol\"").count(),
        json.matches("\"scenario\"").count(),
        "every row must carry a scenario tag"
    );
    assert_eq!(
        json.matches("\"protocol\"").count(),
        json.matches("\"loads_materialized\"").count(),
        "every row must carry the lazy-outcome flag"
    );
    assert!(
        json.contains("\"loads_materialized\": false"),
        "histogram rows must stay lazy"
    );
    assert_eq!(
        json.matches("\"threads\":").count(),
        1,
        "only the host header carries a thread count"
    );
    for engine in ["faithful", "histogram", "auto"] {
        assert!(
            json.contains(&format!("\"engine\": \"{engine}\"")),
            "missing engine {engine}"
        );
    }
    assert!(
        !json.contains("\"engine\": \"jump\""),
        "jump is an alias of faithful, not a row"
    );
    for protocol in ["one-choice", "greedy[2]"] {
        assert!(
            json.contains(&format!("\"protocol\": \"{protocol}\"")),
            "missing fixed-sample protocol {protocol}"
        );
    }
    for scenario in ["uniform", "weighted", "parallel", "stream"] {
        assert!(
            json.contains(&format!("\"scenario\": \"{scenario}\"")),
            "missing scenario {scenario}"
        );
    }
    // Serve-mode rows (schema v6) carry the degradation ledger, and
    // the mid-run mass failure must leave a counted trace: at least
    // one stream row records a nonzero shed rate or a sub-1.0 alive
    // fraction is impossible here (the plan recovers), so instead pin
    // the columns themselves plus the stream-keyed protocol name.
    assert_eq!(
        json.matches("\"protocol\"").count(),
        json.matches("\"shed_rate\"").count(),
        "every row must carry shed_rate"
    );
    assert_eq!(
        json.matches("\"protocol\"").count(),
        json.matches("\"alive_frac\"").count(),
        "every row must carry alive_frac"
    );
    assert!(
        json.contains("\"protocol\": \"stream-greedy[2]\""),
        "missing serve-mode stream row"
    );
    assert!(
        json.contains("\"engine\": \"stream\""),
        "missing serial serve-mode row"
    );
    // Weighted rows are keyed by their weight shape so the three shape
    // groups stay distinguishable; parallel rows by protocol name.
    for protocol in [
        "weighted-adaptive[near-degenerate]",
        "weighted-adaptive[two-class]",
        "weighted-adaptive[power-law-16]",
        "weighted-one-choice[two-class]",
        "bounded-load(cap=2)",
        "collision(c=1)",
        "parallel-greedy(d=2,r=4,q=1)",
    ] {
        assert!(
            json.contains(&format!("\"protocol\": \"{protocol}\"")),
            "missing scenario-family protocol {protocol}"
        );
    }
    std::fs::remove_file(&out_path).ok();
}

#[test]
fn histogram_only_sweep_asserts_lazy_outcomes() {
    // --no-loads runs the sweep histogram-only; the binaries panic if
    // any outcome materializes its load vector, so a clean exit is the
    // lazy-contract assertion.
    let out = run(
        env!("CARGO_BIN_EXE_corollary35"),
        &["--quick", "--csv", "--no-loads", "--reps", "2"],
    );
    let (h, rows) = parse_csv(&out);
    assert!(!rows.is_empty());
    assert!(h.iter().any(|c| c == "phi/n"));
    let out = run(
        env!("CARGO_BIN_EXE_lemma42"),
        &["--quick", "--csv", "--no-loads", "--reps", "2"],
    );
    let (_, rows) = parse_csv(&out);
    assert!(!rows.is_empty());
}

#[test]
fn experiment_binaries_accept_engine_flag() {
    // --engine must parse and steer the run on a representative binary.
    let out = run(
        env!("CARGO_BIN_EXE_lemma42"),
        &["--quick", "--csv", "--engine", "faithful", "--reps", "2"],
    );
    let (h, rows) = parse_csv(&out);
    assert!(!rows.is_empty());
    assert!(h.iter().any(|c| c == "thr_psi/n^1.125"));
}
