//! Engine names that alias the faithful retry loop print exactly the
//! faithful run: `jump`, `level-batched`, and `run` with no `--engine`
//! at all, whether the acceptance bound changes during the run
//! (`adaptive`, `adaptive-tight` at `m > n`) or not (`threshold`).

use std::process::Command;

fn run_stdout(protocol: &str, engine: Option<&str>) -> String {
    let mut args = vec![
        "run",
        "--protocol",
        protocol,
        "--n",
        "1000",
        "--m",
        "100000",
        "--seed",
        "7",
        "--reps",
        "3",
    ];
    if let Some(engine) = engine {
        args.extend(["--engine", engine]);
    }
    let out = Command::new(env!("CARGO_BIN_EXE_balls-into-bins"))
        .args(&args)
        .output()
        .expect("spawn the CLI");
    assert!(out.status.success(), "{args:?} failed");
    String::from_utf8(out.stdout).expect("CSV is UTF-8")
}

#[test]
fn faithful_aliases_print_identical_csv() {
    for protocol in ["adaptive", "adaptive-tight", "threshold"] {
        let faithful = run_stdout(protocol, Some("faithful"));
        assert_eq!(faithful.lines().count(), 4, "header + 3 replicates");
        for alias in [Some("jump"), Some("level-batched"), None] {
            assert_eq!(
                run_stdout(protocol, alias),
                faithful,
                "{protocol}: --engine {alias:?} diverged from faithful"
            );
        }
    }
}
