//! Reduced-size runs of every workload: each metric `BENCHMARK.json`
//! names is printed with its unit, every check passes, and the count
//! metrics repeat exactly for a fixed seed.

use perfbench::{run, Metric, Options, Report, Size, Workload};

const SPEC: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`
/// (one metric object per line).
fn declared(section: &str) -> Vec<(String, String)> {
    let start = SPEC
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &SPEC[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |line: &str, key: &str| -> Option<String> {
        let at = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
        Some(line[at..at + line[at..].find('"')?].to_string())
    };
    body.lines()
        .filter_map(|l| Some((field(l, "name")?, field(l, "unit")?)))
        .collect()
}

fn small(workload: Workload, trace: bool) -> Report {
    run(&Options {
        workload,
        seed: 7,
        seconds: 1e-3,
        trace,
        size: Size::Small,
        break_first_check: false,
    })
}

fn assert_prints_exactly(report: &Report, section: &str) {
    let printed: Vec<(String, String)> = report
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect();
    assert_eq!(printed, declared(section), "{section}");
    assert!(report.correct, "a correctness check failed");
    assert!(report.attempted > 0);
    assert!(report
        .json()
        .starts_with("{\"correct\": true, \"attempted\": "));
}

#[test]
fn declared_workloads_run() {
    let names: Vec<&str> = SPEC
        .lines()
        .filter(|l| l.contains("\"why\""))
        .filter_map(|l| l.split('"').nth(3))
        .collect();
    // serve-heavy runs by name but is left out of the bound-checked set.
    assert_eq!(names, ["batch-sweep", "serve-light"]);
    assert!(names.iter().all(|n| Workload::parse(n).is_some()));
}

#[test]
fn end_to_end_metrics_are_printed_with_units() {
    for w in Workload::ALL {
        let report = small(w, false);
        assert_prints_exactly(&report, "end_to_end");
        for m in &report.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{}: {} = {}",
                w.name(),
                m.name,
                m.value
            );
        }
    }
}

#[test]
fn per_layer_metrics_are_printed_with_units() {
    for w in Workload::ALL {
        let report = small(w, true);
        assert_prints_exactly(&report, "per_layer");
        let spans = report.trace.as_ref().expect("a traced run keeps its spans");
        assert!(spans.spans().iter().any(|s| s.name == "bench.unit"));
        assert!(spans.spans().iter().all(|s| s.end_ns >= s.start_ns));
    }
}

#[test]
fn count_metrics_repeat_for_a_fixed_seed() {
    let counts = |r: &Report| -> Vec<Metric> {
        r.metrics
            .iter()
            .filter(|m| {
                m.name.ends_with(".levels")
                    || m.name.starts_with("stream.") && !m.unit.starts_with(['n', 'u'])
                    || m.name.starts_with("faults.alive")
                    || m.name == "loads.materialized_frac"
                    || m.name == "failed_frac"
            })
            .cloned()
            .collect()
    };
    for w in Workload::ALL {
        let (a, b) = (counts(&small(w, true)), counts(&small(w, true)));
        assert_eq!(a, b, "{}", w.name());
        let nonzero = a.iter().filter(|m| m.value != 0.0).count();
        assert!(nonzero > 0, "{}: no counts recorded", w.name());
    }
}

#[test]
fn a_failed_check_is_reported_not_fatal() {
    for w in Workload::ALL {
        for trace in [false, true] {
            let report = run(&Options {
                workload: w,
                seed: 7,
                seconds: 1e-3,
                trace,
                size: Size::Small,
                break_first_check: true,
            });
            assert!(!report.correct, "{} trace={trace}", w.name());
            assert!(report.failed > 0 && report.failed < report.attempted);
            assert!(report.json().starts_with("{\"correct\": false, "));
        }
    }
}
