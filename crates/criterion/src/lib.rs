//! A vendored, dependency-free subset of the `criterion` crate.
//!
//! The workspace builds in environments with no cargo-registry access,
//! so the benchmark files link against this minimal harness instead: it
//! supports the `criterion_group!`/`criterion_main!` macros, timed
//! `iter`/`iter_batched` loops, and prints a mean-per-iteration summary
//! line per benchmark. No statistics, plots, or saved baselines.
//!
//! Like upstream, a benchmark binary takes a positional name filter
//! (`cargo bench --bench microbench -- <filter>`): only benchmarks whose
//! name contains the filter run, so one benchmark can be timed in a
//! process of its own instead of on the heap every earlier one left.

use std::time::{Duration, Instant};

/// How batched inputs are grouped; only the variants the workspace uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// One routine call per setup value.
    SmallInput,
    /// Alias accepted for API parity.
    LargeInput,
}

/// Drives the timing loops inside one benchmark.
#[derive(Debug)]
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `routine` over the calibrated iteration count.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            std::hint::black_box(routine());
        }
        self.elapsed = start.elapsed();
    }

    /// Times `routine` over fresh inputs built by `setup`; setup time is
    /// excluded from the measurement.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let mut total = Duration::ZERO;
        for _ in 0..self.iters {
            let input = setup();
            let start = Instant::now();
            std::hint::black_box(routine(input));
            total += start.elapsed();
        }
        self.elapsed = total;
    }
}

/// The benchmark driver handed to each target function.
#[derive(Debug, Clone)]
pub struct Criterion {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Criterion {
        Criterion {
            sample_size: 10,
            measurement_time: Duration::from_secs(1),
            warm_up_time: Duration::from_millis(200),
            filter: None,
        }
    }
}

impl Criterion {
    /// Sets how many timed samples to aggregate.
    #[must_use]
    pub fn sample_size(mut self, n: usize) -> Criterion {
        self.sample_size = n.max(1);
        self
    }

    /// Sets the per-benchmark measurement budget.
    #[must_use]
    pub fn measurement_time(mut self, t: Duration) -> Criterion {
        self.measurement_time = t;
        self
    }

    /// Sets the warm-up budget run before measuring.
    #[must_use]
    pub fn warm_up_time(mut self, t: Duration) -> Criterion {
        self.warm_up_time = t;
        self
    }

    /// Runs only benchmarks whose name contains `filter`.
    #[must_use]
    pub fn with_filter(mut self, filter: impl Into<String>) -> Criterion {
        self.filter = Some(filter.into());
        self
    }

    /// Applies the binary's command line: the first argument that is not
    /// a flag (`cargo bench` passes `--bench`) is the name filter.
    #[must_use]
    pub fn configure_from_args(self) -> Criterion {
        match filter_of(std::env::args().skip(1)) {
            Some(filter) => self.with_filter(filter),
            None => self,
        }
    }

    /// Runs one benchmark and prints its mean time per iteration; a
    /// benchmark the filter excludes does not run.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        if self
            .filter
            .as_ref()
            .is_some_and(|filter| !name.contains(filter.as_str()))
        {
            return self;
        }
        // Warm-up pass: one short run to populate caches and let the
        // routine calibrate how long a single iteration takes.
        let mut b = Bencher {
            iters: 1,
            elapsed: Duration::ZERO,
        };
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        while warm_start.elapsed() < self.warm_up_time {
            f(&mut b);
            warm_iters += b.iters.max(1);
        }
        let per_iter = warm_start.elapsed().as_nanos() / u128::from(warm_iters.max(1));
        // Split the measurement budget across `sample_size` samples.
        let budget_ns = self.measurement_time.as_nanos() / self.sample_size as u128;
        let iters = (budget_ns / per_iter.max(1)).clamp(1, 1 << 20) as u64;
        let mut total = Duration::ZERO;
        let mut total_iters: u64 = 0;
        for _ in 0..self.sample_size {
            b.iters = iters;
            f(&mut b);
            total += b.elapsed;
            total_iters += iters;
        }
        let mean_ns = total.as_nanos() as f64 / total_iters.max(1) as f64;
        println!("{name:<44} {:>12.1} ns/iter (n={total_iters})", mean_ns);
        self
    }
}

/// The name filter among benchmark-binary arguments: the first one that
/// is not a flag.
fn filter_of(args: impl IntoIterator<Item = String>) -> Option<String> {
    args.into_iter().find(|arg| !arg.starts_with('-'))
}

/// Declares a group of benchmark targets, mirroring upstream's
/// `name = ..; config = ..; targets = ..` grammar.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $config.configure_from_args();
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group! {
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        }
    };
}

/// Declares the benchmark binary's `main`, running each group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_routine() {
        let mut calls = 0u64;
        Criterion::default()
            .sample_size(2)
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(2))
            .bench_function("noop", |b| b.iter(|| calls += 1));
        assert!(calls > 0);
    }

    #[test]
    fn the_filter_skips_benchmarks_whose_name_lacks_it() {
        let mut ran = Vec::new();
        let mut criterion = Criterion::default()
            .sample_size(1)
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(1))
            .with_filter("chain");
        for name in ["runtime/execute_chain", "tuner/search", "chain_reused"] {
            criterion.bench_function(name, |b| {
                ran.push(name);
                b.iter(|| ());
            });
        }
        ran.dedup();
        assert_eq!(ran, ["runtime/execute_chain", "chain_reused"]);
    }

    #[test]
    fn the_filter_is_the_first_argument_that_is_not_a_flag() {
        let args = |a: &[&str]| a.iter().map(ToString::to_string).collect::<Vec<_>>();
        assert_eq!(filter_of(args(&["--bench"])), None);
        assert_eq!(
            filter_of(args(&["--bench", "runtime/", "extra"])),
            Some("runtime/".into())
        );
        assert_eq!(filter_of(args(&[])), None);
    }

    #[test]
    fn iter_batched_consumes_setup_values() {
        let mut b = Bencher {
            iters: 8,
            elapsed: Duration::ZERO,
        };
        let mut sum = 0u64;
        b.iter_batched(|| 3u64, |x| sum += x, BatchSize::SmallInput);
        assert_eq!(sum, 24);
    }
}
