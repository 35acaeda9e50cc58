//! `balls-lint` CLI.
//!
//! ```text
//! lint --workspace [--json] [--root DIR] [--config FILE]
//! lint --check-bench FILE.json
//! lint [--json] [--root DIR] FILE.rs…
//! ```
//!
//! Exit status: 0 clean, 1 findings (or an invalid bench file),
//! 2 usage/configuration error — so CI can distinguish "policy
//! violation" from "the auditor itself could not run".

#![forbid(unsafe_code)]

use lint::config::{apply_allowlist, parse_allowlist, AllowEntry};
use lint::rules::Finding;
use lint::{audit_workspace, find_workspace_root, json};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workspace: bool,
    json: bool,
    root: Option<PathBuf>,
    config: Option<PathBuf>,
    check_bench: Option<PathBuf>,
    files: Vec<String>,
}

const USAGE: &str = "usage: lint --workspace [--json] [--root DIR] [--config FILE]
       lint --check-bench FILE.json
       lint [--json] [--root DIR] FILE.rs...

Audits the workspace for determinism (D1-D3), panic policy (P1),
numeric soundness (N1) and concurrency-readiness (C1). See the
README section 'Static analysis' for the rule table, the
`// lint:allow(RULE): why` pragma, and the lint.toml allowlist.";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workspace: false,
        json: false,
        root: None,
        config: None,
        check_bench: None,
        files: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workspace" => args.workspace = true,
            "--json" => args.json = true,
            "--root" => {
                args.root = Some(PathBuf::from(it.next().ok_or("--root needs a directory")?))
            }
            "--config" => {
                args.config = Some(PathBuf::from(it.next().ok_or("--config needs a file")?))
            }
            "--check-bench" => {
                args.check_bench = Some(PathBuf::from(
                    it.next().ok_or("--check-bench needs a JSON file")?,
                ))
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown flag `{other}`"));
            }
            file => args.files.push(file.to_string()),
        }
    }
    if !args.workspace && args.check_bench.is_none() && args.files.is_empty() {
        return Err("nothing to do: pass --workspace, --check-bench, or files".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    if let Some(bench) = &args.check_bench {
        return check_bench(bench);
    }

    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let root = match args.root.clone().or_else(|| find_workspace_root(&cwd)) {
        Some(r) => r,
        None => {
            eprintln!("error: no workspace root found above {}", cwd.display());
            return ExitCode::from(2);
        }
    };

    let config_path = args
        .config
        .clone()
        .unwrap_or_else(|| root.join("lint.toml"));
    let allowlist: Vec<AllowEntry> = if config_path.exists() {
        match std::fs::read_to_string(&config_path)
            .map_err(|e| e.to_string())
            .and_then(|t| parse_allowlist(&t))
        {
            Ok(entries) => entries,
            Err(e) => {
                eprintln!("error: {}: {e}", config_path.display());
                return ExitCode::from(2);
            }
        }
    } else {
        Vec::new()
    };

    let (findings, checked) = if args.workspace {
        let audit = audit_workspace(&root);
        (audit.findings, audit.files.len())
    } else {
        let mut findings = Vec::new();
        for rel in &args.files {
            match std::fs::read_to_string(root.join(rel)) {
                Ok(src) => findings.extend(lint::audit_source(rel, &src)),
                Err(e) => {
                    eprintln!("error: {rel}: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        let count = args.files.len();
        (findings, count)
    };
    let findings = apply_allowlist(findings, &allowlist);
    report(&findings, checked, args.json)
}

fn report(findings: &[Finding], checked: usize, as_json: bool) -> ExitCode {
    if as_json {
        print!("{}", json::findings_to_json(findings, checked));
    } else {
        for f in findings {
            println!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.message);
        }
        if findings.is_empty() {
            println!("balls-lint: {checked} files clean");
        } else {
            println!(
                "balls-lint: {} finding(s) in {checked} files",
                findings.len()
            );
        }
    }
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn check_bench(path: &std::path::Path) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {}: {e}", path.display());
            return ExitCode::from(2);
        }
    };
    let errs = json::check_bench(&text);
    if errs.is_empty() {
        println!(
            "balls-lint: {} conforms to {}",
            path.display(),
            json::BENCH_SCHEMA
        );
        ExitCode::SUCCESS
    } else {
        for e in &errs {
            eprintln!("{}: {e}", path.display());
        }
        eprintln!(
            "balls-lint: {} schema problem(s) in {}",
            errs.len(),
            path.display()
        );
        ExitCode::from(1)
    }
}
