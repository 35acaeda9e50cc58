//! Bad `run`/`serve` input is an `error:` line and exit code 2 from the
//! binary, never a panic (exit 101).

use std::process::Command;

fn exit_and_stderr(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_balls-into-bins"))
        .args(args)
        .output()
        .expect("spawn the CLI");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn out_of_range_input_is_an_error_not_a_panic() {
    let serve = ["serve", "--n", "10", "--arrivals", "100", "--ticks", "5"];
    let cases: Vec<(Vec<&str>, &str)> = vec![
        (
            vec!["run", "--protocol", "adaptive", "--n", "0", "--m", "10"],
            "--n",
        ),
        (
            vec!["run", "--protocol", "bounded-load", "--n", "0", "--m", "10"],
            "--n",
        ),
        (
            vec!["run", "--protocol", "left[2]", "--n", "1", "--m", "1000"],
            "--n",
        ),
        (
            vec![
                "run",
                "--protocol",
                "bounded-load(cap=0)",
                "--n",
                "4",
                "--m",
                "10",
            ],
            "cap",
        ),
        (
            vec!["serve", "--n", "0", "--arrivals", "100", "--ticks", "5"],
            "--n",
        ),
        (
            vec!["serve", "--n", "10", "--arrivals", "100", "--ticks", "0"],
            "--ticks",
        ),
        (
            [&serve[..], &["--probe-budget", "0"]].concat(),
            "--probe-budget",
        ),
        (
            [&serve[..], &["--probe-budget", "4294967296"]].concat(),
            "--probe-budget",
        ),
        (
            [&serve[..], &["--retry-budget", "0"]].concat(),
            "--retry-budget",
        ),
        (
            [&serve[..], &["--backoff-cap", "4294967296"]].concat(),
            "--backoff-cap",
        ),
        (
            [&serve[..], &["--fallback-frac", "7"]].concat(),
            "--fallback-frac",
        ),
        (
            [&serve[..], &["--fallback-frac", "nan"]].concat(),
            "--fallback-frac",
        ),
        ([&serve[..], &["--depart", "nan"]].concat(), "--depart"),
        // greedy[d] needs d accepting contacts within the probe budget.
        (
            vec![
                "serve",
                "--n",
                "100",
                "--arrivals",
                "1000",
                "--ticks",
                "10",
                "--family",
                "greedy[100000]",
            ],
            "--probe-budget",
        ),
        (
            [&serve[..], &["--family", "greedy[17]"]].concat(),
            "--probe-budget",
        ),
        // ⌈m/n⌉ + 1 must fit the u32 load range.
        (
            vec![
                "run",
                "--protocol",
                "threshold",
                "--n",
                "2",
                "--m",
                "8589934600",
            ],
            "--m",
        ),
        (
            vec![
                "run",
                "--protocol",
                "one-choice",
                "--n",
                "1",
                "--m",
                "4294967296",
                "--engine",
                "histogram",
            ],
            "--m",
        ),
        (
            vec![
                "run",
                "--protocol",
                "adaptive",
                "--n",
                "4",
                "--m",
                "18446744073709551615",
                "--engine",
                "histogram",
            ],
            "--m",
        ),
        // At n = 1 the bound ⌈m/n⌉ + 1 itself would overflow u64.
        (
            vec![
                "run",
                "--protocol",
                "threshold",
                "--n",
                "1",
                "--m",
                "18446744073709551615",
            ],
            "--m",
        ),
    ];
    for (args, flag) in cases {
        let (code, stderr) = exit_and_stderr(&args);
        assert_eq!(code, Some(2), "{args:?} exited {code:?}:\n{stderr}");
        let first = stderr.lines().next().unwrap_or_default();
        assert!(
            first.starts_with("error:") && first.contains(flag),
            "{args:?}: first stderr line {first:?} should name {flag}"
        );
        assert!(!stderr.contains("panicked"), "{args:?} panicked:\n{stderr}");
    }
}

#[test]
fn in_range_input_still_runs() {
    let serve = ["serve", "--n", "10", "--arrivals", "100", "--ticks", "5"];
    for extra in [
        // A budget of one sample is in range for a one-probe family.
        &[
            "--family",
            "one-choice",
            "--probe-budget",
            "1",
            "--fallback-frac",
            "1",
        ][..],
        // d equal to the default budget of 16 is still placeable.
        &["--family", "greedy[16]"][..],
    ] {
        let args = [&serve[..], extra].concat();
        let (code, stderr) = exit_and_stderr(&args);
        assert_eq!(code, Some(0), "{args:?}: {stderr}");
        assert!(stderr.contains("resident="), "{args:?}: {stderr}");
    }
}
