//! `balls-lint` — the dependency-free workspace auditor.
//!
//! Every engine in this workspace rests on one fragile invariant: a
//! fixed seed reproduces the same `Outcome` bit-for-bit across
//! replicate thread counts and hosts. Nothing in the compiler checks
//! that the code stays inside that determinism envelope — no wall-clock
//! reads, no entropy-seeded RNGs, no hash-order iteration in
//! result-producing paths, no `unsafe` or atomics without a written
//! justification. This crate makes those house rules machine-enforced: a minimal Rust lexer, a rule engine
//! over the workspace source tree, a suppression pragma that demands a
//! justification, and a ratcheting `lint.toml` allowlist for
//! grandfathered debt.
//!
//! Run it as `cargo run -p lint -- --workspace` (CI gates on it); see
//! [`rules`] for the rule table and the README's "Static analysis"
//! section for the policy rationale.
//!
//! # Module map
//!
//! * [`lexer`] — line/block comments, plain/raw strings, token stream
//!   with line spans; the reason strings and comments can never
//!   trigger a rule.
//! * [`rules`] — file classification, the D1–D3/P1/N1/C1 rule
//!   families, and `lint:allow` pragma handling.
//! * [`config`] — the `lint.toml` allowlist (parse + ratcheting
//!   application).
//! * [`json`] — hand-rolled JSON for `--json` reports and the
//!   `--check-bench` schema gate over `BENCH_engines.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod json;
pub mod lexer;
pub mod rules;

use rules::{check_file, Finding, SourceFile};
use std::path::{Path, PathBuf};

/// Directories never audited: build output, VCS metadata, and the
/// deliberately-violating golden fixtures of the lint crate itself.
const SKIP_DIRS: &[&str] = &["target", ".git", "fixtures"];

/// Result of auditing a tree: what was checked and what was found
/// (post-pragma, pre-allowlist).
pub struct Audit {
    /// Workspace-relative paths of every `.rs` file audited.
    pub files: Vec<String>,
    /// Unsuppressed findings in path order.
    pub findings: Vec<Finding>,
}

/// Walks `root` (a workspace checkout) and audits every `.rs` file.
/// I/O errors on individual files become findings rather than aborts so
/// a partially unreadable tree still produces a useful report.
pub fn audit_workspace(root: &Path) -> Audit {
    let mut paths = Vec::new();
    collect_rs_files(root, root, &mut paths);
    paths.sort();
    let mut findings = Vec::new();
    for rel in &paths {
        match std::fs::read_to_string(root.join(rel)) {
            Ok(src) => {
                let file = SourceFile::parse(rel, &src);
                findings.extend(check_file(&file));
            }
            Err(e) => findings.push(Finding {
                rule: "io",
                file: rel.clone(),
                line: 0,
                message: format!("unreadable source file: {e}"),
            }),
        }
    }
    Audit {
        files: paths,
        findings,
    }
}

/// Audits one source text as if it lived at `rel_path` in the
/// workspace. This is the entry point the golden-fixture tests use to
/// put a snippet in any rule's scope.
pub fn audit_source(rel_path: &str, src: &str) -> Vec<Finding> {
    check_file(&SourceFile::parse(rel_path, src))
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                collect_rs_files(root, &path, out);
            }
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel_to_slash(rel));
            }
        }
    }
}

fn rel_to_slash(rel: &Path) -> String {
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// Finds the workspace root at or above `start`: the nearest directory
/// whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}
