//! Shared harness for the experiment binaries.
//!
//! Every table and figure of the paper has a binary under `src/bin/`
//! (the README's "Experiment binaries (Table 1, Figure 3, …)" section
//! is the experiment index). This small library holds what they share:
//! command-line handling and aligned-table/CSV output.
//!
//! All binaries accept:
//!
//! * `--quick` — shrink sizes/replicates for a fast smoke run;
//! * `--seed <u64>` — master seed (default 2013);
//! * `--reps <u64>` — override the replicate count;
//! * `--engine <faithful|histogram|auto>` — override the simulation
//!   engine (every engine-aware protocol understands all three; `jump`
//!   and `level-batched` parse as `faithful`);
//! * `--threads <n>` — worker threads across independent replicates
//!   (default: machine parallelism; `1` forces serial execution). Every
//!   run itself is single-threaded, so the thread count never changes a
//!   result;
//! * `--out <path>` — write the tables (in the chosen format) to a file
//!   instead of stdout; commentary stays on stdout. Multiple tables
//!   append in order;
//! * `--csv` — emit machine-readable CSV instead of an aligned table;
//! * `--no-loads` — histogram-only sweep mode: every statistic comes
//!   from the occupancy histogram and the binary asserts that no
//!   outcome ever materializes its dense per-bin vector, so memory
//!   stays independent of `n` (the `n = 10⁹` regime).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use bib_core::protocol::Engine;

/// Parsed command-line options shared by all experiment binaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpArgs {
    /// Shrink the experiment for a smoke run.
    pub quick: bool,
    /// Master seed.
    pub seed: u64,
    /// Replicate-count override.
    pub reps: Option<u64>,
    /// Engine override for threshold-style protocols.
    pub engine: Option<Engine>,
    /// Worker-thread override for replicated cells (`Some(1)` = serial).
    pub threads: Option<usize>,
    /// Table output path (`None` = stdout).
    pub out: Option<String>,
    /// Emit CSV instead of an aligned table.
    pub csv: bool,
    /// Histogram-only sweep mode: the binary must compute every
    /// statistic from the occupancy histogram and assert that no
    /// outcome ever materializes its dense load vector — the mode that
    /// makes `n = 10⁹` sweeps memory-independent of `n`.
    pub no_loads: bool,
    /// Whether the `--out` file has been started (first emit truncates,
    /// later emits append) — interior state so a long run never leaves
    /// a destroyed file behind before it has something to write.
    out_started: std::cell::Cell<bool>,
}

impl Default for ExpArgs {
    fn default() -> Self {
        Self::new()
    }
}

impl ExpArgs {
    /// The defaults every binary starts from (seed 2013, full sizes,
    /// stdout tables).
    pub fn new() -> Self {
        Self {
            quick: false,
            seed: 2013,
            reps: None,
            engine: None,
            threads: None,
            out: None,
            csv: false,
            no_loads: false,
            out_started: std::cell::Cell::new(false),
        }
    }

    /// Parses `std::env::args`. A bad or unknown flag prints `error:`
    /// and the usage to stderr and exits with status 2.
    pub fn parse() -> Self {
        Self::parse_with(|_, _| false)
    }

    /// [`ExpArgs::parse`] with an escape hatch for binary-specific
    /// flags: `extra(flag, args)` returns `true` if it consumed the
    /// flag (pulling any value from `args` itself).
    pub fn parse_with<F>(extra: F) -> Self
    where
        F: FnMut(&str, &mut std::env::Args) -> bool,
    {
        let mut args = std::env::args();
        let program = args.next().unwrap_or_default();
        Self::try_parse(args, extra).unwrap_or_else(|e| {
            eprintln!(
                "error: {e}\nusage: {program} [--quick] [--csv] [--no-loads] [--seed <u64>] \
                 [--reps <u64>] [--engine faithful|histogram|auto] [--threads <n>] \
                 [--out <path>]"
            );
            std::process::exit(2)
        })
    }

    fn try_parse<F>(mut args: std::env::Args, mut extra: F) -> Result<Self, String>
    where
        F: FnMut(&str, &mut std::env::Args) -> bool,
    {
        fn value<T: std::str::FromStr>(
            args: &mut std::env::Args,
            flag: &str,
            what: &str,
        ) -> Result<T, String> {
            args.next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("{flag} needs {what}"))
        }
        let mut out = Self::new();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--quick" => out.quick = true,
                "--csv" => out.csv = true,
                "--no-loads" => out.no_loads = true,
                "--seed" => out.seed = value(&mut args, "--seed", "a u64")?,
                "--reps" => out.reps = Some(value(&mut args, "--reps", "a u64")?),
                "--engine" => {
                    out.engine = Some(value(&mut args, "--engine", "faithful, histogram or auto")?);
                }
                "--threads" => {
                    out.threads = Some(value(&mut args, "--threads", "a positive integer")?);
                }
                "--out" => out.out = Some(value(&mut args, "--out", "a path")?),
                other if extra(other, &mut args) => {}
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(out)
    }

    /// Picks the replicate count: explicit `--reps` wins, else `quick`
    /// vs `full` defaults.
    pub fn reps_or(&self, full: u64, quick: u64) -> u64 {
        self.reps.unwrap_or(if self.quick { quick } else { full })
    }

    /// Picks the engine: explicit `--engine` wins, else the experiment's
    /// default.
    pub fn engine_or(&self, default: Engine) -> Engine {
        self.engine.unwrap_or(default)
    }

    /// Worker threads for replicated cells: explicit `--threads` wins,
    /// else machine parallelism.
    pub fn threads_or_available(&self) -> usize {
        self.threads.unwrap_or_else(bib_parallel::available_threads)
    }

    /// A [`bib_parallel::ReplicateSpec`] honouring `--threads`.
    pub fn replicate_spec(&self, reps: u64) -> bib_parallel::ReplicateSpec {
        let spec = bib_parallel::ReplicateSpec::new(reps, self.seed);
        match self.threads {
            Some(t) => spec.with_threads(t),
            None => spec,
        }
    }

    /// In `--no-loads` mode, asserts that `out` never materialized its
    /// dense load vector (no-op otherwise). Sweep binaries call this on
    /// every outcome they fold into a table, making the histogram-only
    /// claim an enforced invariant rather than a hope.
    pub fn assert_lazy(&self, out: &bib_core::protocol::Outcome, ctx: &str) {
        if self.no_loads {
            assert!(
                !out.loads.is_materialized(),
                "--no-loads: {ctx} materialized its load vector"
            );
        }
    }

    /// Picks any size parameter by mode.
    pub fn pick<T>(&self, full: T, quick: T) -> T {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// Emits one rendered table (or any other payload) to the sink the
    /// flags selected: written to `--out` if given (first emit truncates,
    /// the rest of the run appends — so an interrupted run never leaves
    /// an emptied file behind), stdout otherwise.
    pub fn emit(&self, payload: &str) {
        match &self.out {
            None => print!("{payload}"),
            Some(path) => {
                use std::io::Write as _;
                let first = !self.out_started.replace(true);
                let mut f = std::fs::OpenOptions::new()
                    .create(true)
                    .truncate(first)
                    .append(!first)
                    .write(true)
                    .open(path)
                    .unwrap_or_else(|e| panic!("cannot open {path}: {e}"));
                f.write_all(payload.as_bytes())
                    .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
            }
        }
    }
}

/// An aligned text table that can also render as CSV.
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Self {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; must match the header arity.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row arity {} != header arity {}",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders aligned text (right-aligned numeric-ish cells).
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let mut s = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        s.push_str(&fmt_row(&self.headers, &widths));
        s.push('\n');
        s.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        s.push('\n');
        for row in &self.rows {
            s.push_str(&fmt_row(row, &widths));
            s.push('\n');
        }
        s
    }

    /// Renders CSV (no quoting; cells are numeric or simple tokens).
    pub fn csv(&self) -> String {
        let mut s = self.headers.join(",");
        s.push('\n');
        for row in &self.rows {
            s.push_str(&row.join(","));
            s.push('\n');
        }
        s
    }

    /// Emits in the format selected by `args`, to stdout or `--out`.
    pub fn print(&self, args: &ExpArgs) {
        if args.csv {
            args.emit(&self.csv());
        } else {
            args.emit(&self.render());
        }
    }
}

/// Formats a float compactly for table cells.
pub fn f(x: f64) -> String {
    if x == 0.0 {
        "0".into()
    } else if x.abs() >= 1e6 || x.abs() < 1e-3 {
        format!("{x:.3e}")
    } else {
        format!("{x:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_and_csv() {
        let mut t = Table::new(vec!["a", "long_header"]);
        t.row(vec!["1", "2"]);
        t.row(vec!["300", "4"]);
        let txt = t.render();
        assert!(txt.contains("long_header"));
        assert!(txt.lines().count() == 4);
        let csv = t.csv();
        assert_eq!(csv, "a,long_header\n1,2\n300,4\n");
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic]
    fn row_arity_checked() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only-one"]);
    }

    #[test]
    fn args_defaults_and_pick() {
        let a = ExpArgs::new();
        assert_eq!(a.seed, 2013);
        assert_eq!(a.reps_or(100, 5), 100);
        assert_eq!(a.pick(10, 1), 10);
        assert_eq!(a.engine_or(Engine::Histogram), Engine::Histogram);
        assert!(a.threads.is_none());
        assert!(a.out.is_none());
        let e = ExpArgs {
            engine: Some(Engine::Faithful),
            ..ExpArgs::new()
        };
        assert_eq!(e.engine_or(Engine::Histogram), Engine::Faithful);
        let q = ExpArgs {
            quick: true,
            ..ExpArgs::new()
        };
        assert_eq!(q.reps_or(100, 5), 5);
        assert_eq!(q.pick(10, 1), 1);
        let r = ExpArgs {
            reps: Some(7),
            ..ExpArgs::new()
        };
        assert_eq!(r.reps_or(100, 5), 7);
    }

    #[test]
    fn replicate_spec_honours_threads() {
        let a = ExpArgs {
            threads: Some(3),
            ..ExpArgs::new()
        };
        let spec = a.replicate_spec(10);
        assert_eq!(spec.threads, Some(3));
        assert_eq!(spec.reps, 10);
        assert_eq!(spec.seed, 2013);
        let b = ExpArgs::new();
        assert_eq!(b.replicate_spec(4).threads, None);
    }

    #[test]
    fn emit_truncates_on_first_write_then_appends() {
        let path = std::env::temp_dir().join(format!("bib_bench_out_{}", std::process::id()));
        let path_str = path.to_str().unwrap().to_string();
        // Stale content from a previous run survives until the first
        // emit (an interrupted run must not leave an emptied file) …
        std::fs::write(&path, "stale\n").unwrap();
        let a = ExpArgs {
            out: Some(path_str.clone()),
            csv: true,
            ..ExpArgs::new()
        };
        let mut t = Table::new(vec!["x"]);
        t.row(vec!["1"]);
        t.print(&a);
        t.print(&a);
        // … and then the first write replaced it, later writes append.
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body, "x\n1\nx\n1\n");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f(0.0), "0");
        assert_eq!(f(1.5), "1.5000");
        assert!(f(1.23e9).contains('e'));
        assert!(f(1e-9).contains('e'));
    }
}
