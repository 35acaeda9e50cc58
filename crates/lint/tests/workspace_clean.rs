//! The meta-test: the live workspace itself must satisfy every rule,
//! modulo the committed `lint.toml` ratchet — plus binary-level tests
//! of the CLI's exit-code contract (0 clean, 1 findings, 2 usage).

use lint::config::parse_allowlist;
use lint::{audit_workspace, find_workspace_root};
use std::path::{Path, PathBuf};
use std::process::Command;

fn workspace_root() -> PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    find_workspace_root(manifest).expect("crates/lint lives inside the workspace")
}

#[test]
fn live_workspace_is_clean_modulo_allowlist() {
    let root = workspace_root();
    let audit = audit_workspace(&root);
    assert!(
        audit.files.len() >= 50,
        "workspace walk found only {} files — skip list too broad?",
        audit.files.len()
    );
    let toml = std::fs::read_to_string(root.join("lint.toml")).expect("committed lint.toml");
    let allowlist = parse_allowlist(&toml).expect("lint.toml parses");
    let findings = lint::config::apply_allowlist(audit.findings, &allowlist);
    assert!(
        findings.is_empty(),
        "the workspace is not lint-clean:\n{}",
        findings
            .iter()
            .map(|f| format!("  {}:{}: [{}] {}", f.file, f.line, f.rule, f.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn allowlist_is_a_live_ratchet() {
    // Every grandfathered entry still matches real findings: stale
    // entries would make apply_allowlist itself report (rule
    // `allowlist`), which the clean meta-test above would catch — here
    // we check the entries point at files that still exist.
    let root = workspace_root();
    let toml = std::fs::read_to_string(root.join("lint.toml")).expect("committed lint.toml");
    for entry in parse_allowlist(&toml).expect("lint.toml parses") {
        assert!(
            root.join(&entry.file).is_file(),
            "lint.toml entry for missing file {}",
            entry.file
        );
    }
}

fn lint_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_lint"))
}

#[test]
fn binary_exits_zero_on_the_real_workspace() {
    let out = lint_bin()
        .args(["--workspace", "--root"])
        .arg(workspace_root())
        .output()
        .expect("run lint binary");
    assert!(
        out.status.success(),
        "lint --workspace failed on the live tree:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn binary_json_report_is_emitted() {
    let out = lint_bin()
        .args(["--workspace", "--json", "--root"])
        .arg(workspace_root())
        .output()
        .expect("run lint binary");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"schema\": \"balls-lint/v1\""), "{text}");
    assert!(text.contains("\"findings\": []"), "{text}");
}

/// A scratch workspace with one injected source file, torn down on drop.
struct ScratchWorkspace {
    root: PathBuf,
}

impl ScratchWorkspace {
    fn new(tag: &str, injected_rel: &str, injected_src: &str) -> Self {
        let root = std::env::temp_dir().join(format!("balls-lint-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let file = root.join(injected_rel);
        std::fs::create_dir_all(file.parent().expect("injected path has a parent"))
            .expect("create scratch dirs");
        std::fs::write(root.join("Cargo.toml"), "[workspace]\nmembers = []\n")
            .expect("write scratch manifest");
        std::fs::write(file, injected_src).expect("write injected source");
        Self { root }
    }
}

impl Drop for ScratchWorkspace {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

#[test]
fn binary_exits_nonzero_on_injected_violations() {
    // The acceptance check: each golden violating fixture, injected
    // into a scratch workspace at an in-scope path, must fail the run
    // with exit code 1 (finding), not 2 (usage error).
    let cases: &[(&str, &str, &str)] = &[
        (
            "d1",
            "crates/core/src/bad.rs",
            include_str!("fixtures/d1/violating.rs"),
        ),
        (
            "d2",
            "crates/parallel/tests/bad.rs",
            include_str!("fixtures/d2/violating.rs"),
        ),
        (
            "d3",
            "crates/rng/src/bad.rs",
            include_str!("fixtures/d3/violating.rs"),
        ),
        (
            "p1",
            "crates/core/src/bad.rs",
            include_str!("fixtures/p1/violating.rs"),
        ),
        (
            "n1",
            "crates/core/src/bad.rs",
            include_str!("fixtures/n1/violating.rs"),
        ),
        (
            "c1",
            "crates/parallel/src/bad.rs",
            include_str!("fixtures/c1/violating.rs"),
        ),
    ];
    for (tag, rel, src) in cases {
        let scratch = ScratchWorkspace::new(tag, rel, src);
        let out = lint_bin()
            .args(["--workspace", "--root"])
            .arg(&scratch.root)
            .output()
            .expect("run lint binary");
        assert_eq!(
            out.status.code(),
            Some(1),
            "{tag}: injected violation should exit 1:\nstdout: {}\nstderr: {}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(
            text.contains(rel),
            "{tag}: report does not name the injected file:\n{text}"
        );
    }
}

#[test]
fn binary_check_bench_accepts_committed_results() {
    let path = workspace_root().join("BENCH_engines.json");
    if !path.is_file() {
        // The results file is optional in a fresh checkout; CI checks
        // the freshly generated one.
        return;
    }
    let out = lint_bin()
        .arg("--check-bench")
        .arg(&path)
        .output()
        .expect("run lint binary");
    assert!(
        out.status.success(),
        "--check-bench rejected the committed BENCH_engines.json:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn binary_check_bench_rejects_malformed_results() {
    let path =
        std::env::temp_dir().join(format!("balls-lint-bad-bench-{}.json", std::process::id()));
    std::fs::write(&path, "{\"schema\": \"wrong/schema\", \"results\": []}")
        .expect("write malformed bench file");
    let out = lint_bin()
        .arg("--check-bench")
        .arg(&path)
        .output()
        .expect("run lint binary");
    let _ = std::fs::remove_file(&path);
    assert_eq!(
        out.status.code(),
        Some(1),
        "malformed bench file should exit 1:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn binary_usage_errors_exit_two() {
    for args in [vec!["--frobnicate"], vec![]] {
        let out = lint_bin().args(&args).output().expect("run lint binary");
        assert_eq!(
            out.status.code(),
            Some(2),
            "args {args:?} should be a usage error:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
