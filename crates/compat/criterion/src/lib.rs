//! Offline stand-in for the `criterion` crate.
//!
//! The build environment has no registry access, so this workspace
//! vendors the subset of the criterion 0.5 API its benches use —
//! [`Criterion`], [`criterion_group!`]/[`criterion_main!`] (both the
//! positional and the `name/config/targets` forms), benchmark groups
//! with [`Throughput`], [`BenchmarkId`] and [`Bencher::iter`].
//!
//! Measurement is deliberately simple: per benchmark, a short warm-up
//! followed by `sample_size` timed samples whose iteration count is
//! sized so each sample takes roughly `measurement_time / sample_size`.
//! The median ns/iter (and elements/s when a throughput is set) is
//! printed in a one-line-per-bench format. No statistics, plots, HTML
//! reports or regression baselines — swap in the real criterion from
//! the registry for those.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Prevents the optimizer from deleting a benchmarked computation.
#[inline]
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Declared work per benchmark iteration, used for rate reporting.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Iteration processes this many logical elements.
    Elements(u64),
    /// Iteration processes this many bytes.
    Bytes(u64),
}

/// A benchmark identifier: a function name plus an optional parameter.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// `name/parameter`, e.g. `BenchmarkId::new("faithful", 1024)`.
    pub fn new(function_name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            id: format!("{}/{}", function_name.into(), parameter),
        }
    }

    /// Parameter-only id for groups whose name already names the
    /// function, e.g. `BenchmarkId::from_parameter(n)`.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { id: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { id: s }
    }
}

/// Times the body of one benchmark.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Runs `body` `self.iters` times and records the wall-clock total.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut body: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(body());
        }
        self.elapsed = start.elapsed();
    }
}

/// Top-level benchmark driver (configuration + output).
pub struct Criterion {
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 10,
            warm_up_time: Duration::from_millis(300),
            measurement_time: Duration::from_secs(1),
        }
    }
}

impl Criterion {
    /// Number of timed samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    /// Time spent warming up before sampling.
    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.warm_up_time = d;
        self
    }

    /// Total time budget for the timed samples.
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement_time = d;
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            throughput: None,
        }
    }
}

/// A set of benchmarks sharing a name prefix and throughput setting.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Declares how much work one iteration of the following benchmarks
    /// performs.
    pub fn throughput(&mut self, t: Throughput) {
        self.throughput = Some(t);
    }

    /// Registers and immediately runs a benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F)
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        self.run_one(&id.id.clone(), &mut f);
    }

    /// Registers and immediately runs a benchmark parameterised by
    /// `input`.
    pub fn bench_with_input<I: ?Sized, F>(&mut self, id: BenchmarkId, input: &I, mut f: F)
    where
        F: FnMut(&mut Bencher, &I),
    {
        self.run_one(&id.id.clone(), &mut |b: &mut Bencher| f(b, input));
    }

    /// Ends the group (kept for API compatibility; output is streamed).
    pub fn finish(self) {}

    fn run_one(&mut self, id: &str, f: &mut dyn FnMut(&mut Bencher)) {
        // `cargo test` runs harness-less bench binaries with `--test`:
        // like real criterion, execute each benchmark exactly once as a
        // smoke test instead of measuring.
        if std::env::args().any(|a| a == "--test") {
            let mut b = Bencher {
                iters: 1,
                elapsed: Duration::ZERO,
            };
            f(&mut b);
            println!(
                "test bench {:<48} ... ok (1 iter)",
                format!("{}/{}", self.name, id)
            );
            return;
        }
        // Calibrate: run single iterations until the warm-up budget is
        // spent, tracking the observed per-iteration cost.
        let warm_start = Instant::now();
        let mut per_iter = Duration::from_nanos(1);
        let mut calibration_runs = 0u64;
        while warm_start.elapsed() < self.criterion.warm_up_time || calibration_runs == 0 {
            let mut b = Bencher {
                iters: 1,
                elapsed: Duration::ZERO,
            };
            f(&mut b);
            per_iter = b.elapsed.max(Duration::from_nanos(1));
            calibration_runs += 1;
            if calibration_runs >= 1000 {
                break;
            }
        }

        let samples = self.criterion.sample_size;
        let budget_per_sample = self.criterion.measurement_time / samples as u32;
        let iters = (budget_per_sample.as_nanos() / per_iter.as_nanos().max(1))
            .clamp(1, 1_000_000_000) as u64;

        let mut ns_per_iter: Vec<f64> = Vec::with_capacity(samples);
        for _ in 0..samples {
            let mut b = Bencher {
                iters,
                elapsed: Duration::ZERO,
            };
            f(&mut b);
            ns_per_iter.push(b.elapsed.as_nanos() as f64 / iters as f64);
        }
        ns_per_iter.sort_by(|a, b| a.total_cmp(b));
        let median = ns_per_iter[ns_per_iter.len() / 2];

        let rate = match self.throughput {
            Some(Throughput::Elements(e)) => {
                format!("  {:>12.0} elem/s", e as f64 * 1e9 / median)
            }
            Some(Throughput::Bytes(n)) => {
                format!("  {:>12.0} B/s", n as f64 * 1e9 / median)
            }
            None => String::new(),
        };
        println!(
            "bench {:<48} {:>14.1} ns/iter ({} samples x {} iters){}",
            format!("{}/{}", self.name, id),
            median,
            samples,
            iters,
            rate
        );
    }
}

/// Declares a benchmark group function, in either criterion form:
/// `criterion_group!(benches, f, g)` or
/// `criterion_group! { name = benches; config = ...; targets = f, g }`.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Declares the `main` entry point running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            // Cargo passes --bench (and possibly filters); accepted and
            // ignored — this stand-in always runs every benchmark.
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bench(c: &mut Criterion) {
        let mut group = c.benchmark_group("shim");
        group.throughput(Throughput::Elements(64));
        group.bench_function("sum", |b| {
            b.iter(|| (0u64..64).sum::<u64>());
        });
        group.bench_with_input(BenchmarkId::new("sq", 7u32), &7u32, |b, &x| {
            b.iter(|| x * x);
        });
        group.finish();
    }

    #[test]
    fn runs_to_completion() {
        let mut c = Criterion::default()
            .sample_size(3)
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(5));
        sample_bench(&mut c);
    }

    criterion_group! {
        name = named_form;
        config = Criterion::default().sample_size(2)
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(2));
        targets = sample_bench
    }
    criterion_group!(positional_form, sample_bench);

    #[test]
    fn group_macros_expand() {
        named_form();
        positional_form();
    }
}
