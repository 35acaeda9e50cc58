//! Golden-fixture tests: for every rule, one violating fixture that
//! fires, one clean fixture that stays silent, and one fixture whose
//! only defence is a justified `lint:allow` pragma.
//!
//! Fixtures live in `tests/fixtures/<rule>/` and are fed through
//! [`lint::audit_source`] with a synthetic in-scope path, so they never
//! need to compile and the workspace walk never sees them (the
//! `fixtures` directory is on the skip list).

use lint::audit_source;
use lint::rules::Finding;

/// Runs one fixture at `rel_path` and returns the findings for `rule`
/// plus any `pragma` findings (a broken pragma in a fixture is a bug).
fn run(rule: &str, rel_path: &str, src: &str) -> Vec<Finding> {
    audit_source(rel_path, src)
        .into_iter()
        .filter(|f| f.rule == rule || f.rule == "pragma")
        .collect()
}

/// Asserts the violating/clean/suppressed triple for one rule at one
/// synthetic path.
fn check_triple(rule: &str, rel_path: &str, violating: &str, clean: &str, suppressed: &str) {
    let v = run(rule, rel_path, violating);
    assert!(
        v.iter().any(|f| f.rule == rule),
        "{rule}: violating fixture produced no {rule} finding at {rel_path}: {v:?}"
    );
    let c = run(rule, rel_path, clean);
    assert!(
        c.is_empty(),
        "{rule}: clean fixture is not clean at {rel_path}: {c:?}"
    );
    let s = run(rule, rel_path, suppressed);
    assert!(
        s.is_empty(),
        "{rule}: justified pragmas failed to suppress at {rel_path}: {s:?}"
    );
}

#[test]
fn d1_wall_clock() {
    check_triple(
        "D1",
        "crates/core/src/fix.rs",
        include_str!("fixtures/d1/violating.rs"),
        include_str!("fixtures/d1/clean.rs"),
        include_str!("fixtures/d1/suppressed.rs"),
    );
}

#[test]
fn d1_is_allowed_in_bench_crates() {
    // The same wall-clock read is in-policy inside the bench harness
    // and nowhere else: the compat stand-ins are governed like any
    // other crate.
    let src = include_str!("fixtures/d1/violating.rs");
    assert!(
        run("D1", "crates/bench/src/fix.rs", src).is_empty(),
        "D1 fired in crates/bench"
    );
    let compat = "crates/compat/criterion/src/fix.rs";
    assert!(
        !run("D1", compat, src).is_empty(),
        "D1 did not fire in {compat}"
    );
}

#[test]
fn d2_hash_iteration() {
    // Outcome-producing crates are governed *including* their tests:
    // the equivalence suites compare distributions.
    check_triple(
        "D2",
        "crates/parallel/tests/fix.rs",
        include_str!("fixtures/d2/violating.rs"),
        include_str!("fixtures/d2/clean.rs"),
        include_str!("fixtures/d2/suppressed.rs"),
    );
}

#[test]
fn d2_scoped_to_outcome_crates() {
    let src = include_str!("fixtures/d2/violating.rs");
    assert!(
        run("D2", "crates/lint/src/fix.rs", src).is_empty(),
        "D2 fired outside the Outcome-producing crates"
    );
}

#[test]
fn d3_ambient_entropy() {
    check_triple(
        "D3",
        "crates/rng/src/fix.rs",
        include_str!("fixtures/d3/violating.rs"),
        include_str!("fixtures/d3/clean.rs"),
        include_str!("fixtures/d3/suppressed.rs"),
    );
}

#[test]
fn p1_bare_panics() {
    check_triple(
        "P1",
        "crates/core/src/fix.rs",
        include_str!("fixtures/p1/violating.rs"),
        include_str!("fixtures/p1/clean.rs"),
        include_str!("fixtures/p1/suppressed.rs"),
    );
}

#[test]
fn p1_violating_fixture_fires_twice() {
    // Both the bare unwrap() and the empty expect("") must be caught.
    let v = run(
        "P1",
        "crates/core/src/fix.rs",
        include_str!("fixtures/p1/violating.rs"),
    );
    assert_eq!(v.len(), 2, "expected unwrap() and expect(\"\"): {v:?}");
}

#[test]
fn p1_exempts_tests_sections_and_non_policy_crates() {
    let src = include_str!("fixtures/p1/violating.rs");
    for path in ["crates/core/tests/fix.rs", "crates/bench/src/fix.rs"] {
        assert!(run("P1", path, src).is_empty(), "P1 fired in {path}");
    }
}

#[test]
fn n1_narrowing_casts() {
    check_triple(
        "N1",
        "crates/core/src/fix.rs",
        include_str!("fixtures/n1/violating.rs"),
        include_str!("fixtures/n1/clean.rs"),
        include_str!("fixtures/n1/suppressed.rs"),
    );
}

#[test]
fn n1_scoped_to_cast_crates() {
    let src = include_str!("fixtures/n1/violating.rs");
    for path in ["crates/rng/src/fix.rs", "crates/core/tests/fix.rs"] {
        assert!(run("N1", path, src).is_empty(), "N1 fired in {path}");
    }
}

#[test]
fn c1_atomics_need_ordering_comments() {
    check_triple(
        "C1",
        "crates/parallel/src/fix.rs",
        include_str!("fixtures/c1/violating.rs"),
        include_str!("fixtures/c1/clean.rs"),
        include_str!("fixtures/c1/suppressed.rs"),
    );
}

#[test]
fn c1_applies_to_tests_too() {
    // Unlike P1/N1, the concurrency contract has no test carve-out: an
    // atomic in a test still encodes an ordering assumption.
    let v = run(
        "C1",
        "crates/parallel/tests/fix.rs",
        include_str!("fixtures/c1/violating.rs"),
    );
    assert!(!v.is_empty(), "C1 should govern tests as well");
}

#[test]
fn c1_crate_root_must_forbid_unsafe() {
    let bare = "//! A crate root.\npub fn f() {}\n";
    let v = run("C1", "crates/foo/src/lib.rs", bare);
    assert!(
        v.iter().any(|f| f.rule == "C1" && f.line == 1),
        "missing #![forbid(unsafe_code)] went unflagged: {v:?}"
    );

    let forbidding = "//! A crate root.\n#![forbid(unsafe_code)]\npub fn f() {}\n";
    assert!(run("C1", "crates/foo/src/lib.rs", forbidding).is_empty());

    // Same text is fine at a non-root path.
    assert!(run("C1", "crates/foo/src/util.rs", bare).is_empty());
}

#[test]
fn c2_cas_loops_need_retry_comments() {
    check_triple(
        "C2",
        "crates/parallel/src/fix.rs",
        include_str!("fixtures/c2/violating.rs"),
        include_str!("fixtures/c2/clean.rs"),
        include_str!("fixtures/c2/suppressed.rs"),
    );
}

#[test]
fn c2_applies_to_tests_too() {
    // Same scope as C1: a CAS loop in a test can hang the suite just
    // as well as one in library code.
    let v = run(
        "C2",
        "crates/parallel/tests/fix.rs",
        include_str!("fixtures/c2/violating.rs"),
    );
    assert!(!v.is_empty(), "C2 should govern tests as well");
}

#[test]
fn c2_every_cas_spelling_is_flagged() {
    for op in ["compare_exchange", "compare_exchange_weak", "fetch_update"] {
        let src = format!(
            "use std::sync::atomic::{{AtomicU64, Ordering}};\n\
             pub fn f(x: &AtomicU64) {{\n\
                 let _ = x.{op}(Ordering::Relaxed, Ordering::Relaxed, |v| Some(v));\n\
             }}\n"
        );
        let v = run("C2", "crates/core/src/fix.rs", &src);
        assert!(v.iter().any(|f| f.rule == "C2"), "C2 missed `{op}`: {v:?}");
    }
}

#[test]
fn unjustified_pragma_is_a_finding() {
    let src =
        "// lint:allow(D1)\nuse std::time::Instant;\npub fn f() -> Instant { Instant::now() }\n";
    let findings = audit_source("crates/core/src/fix.rs", src);
    assert!(
        findings.iter().any(|f| f.rule == "pragma"),
        "unjustified pragma not flagged: {findings:?}"
    );
    // And without a justification it suppresses nothing.
    assert!(
        findings.iter().any(|f| f.rule == "D1"),
        "unjustified pragma still suppressed the finding: {findings:?}"
    );
}

#[test]
fn unknown_rule_pragma_is_a_finding() {
    let src = "// lint:allow(Z9): sounds official\npub fn f() {}\n";
    let findings = audit_source("crates/core/src/fix.rs", src);
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "pragma" && f.message.contains("Z9")),
        "unknown rule in pragma not flagged: {findings:?}"
    );
}

#[test]
fn pragma_does_not_reach_past_one_line() {
    // A pragma two lines above the violation must not suppress it.
    let src = "// lint:allow(D1): too far away\n\nuse std::time::Instant;\n";
    let findings = run("D1", "crates/core/src/fix.rs", src);
    assert!(
        findings.iter().any(|f| f.rule == "D1"),
        "pragma suppressed a finding two lines below: {findings:?}"
    );
}

#[test]
fn strings_and_comments_never_fire() {
    let src = concat!(
        "//! Mentions Instant, HashMap, thread_rng, unwrap() in prose.\n",
        "pub fn f() -> &'static str {\n",
        "    \"Instant HashMap thread_rng as u32 fetch_add unsafe\"\n",
        "}\n",
    );
    for path in ["crates/core/src/fix.rs", "crates/parallel/src/fix.rs"] {
        let findings = audit_source(path, src);
        assert!(findings.is_empty(), "{path}: fired on prose: {findings:?}");
    }
}
