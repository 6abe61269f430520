//! Offline API-compatible subset of the `criterion` crate.
//!
//! The build environment has no crates.io access, so the workspace vendors
//! the slice of criterion 0.5 its benches use: [`Criterion`],
//! [`criterion_group!`], [`criterion_main!`], `bench_function`, and
//! benchmark groups. Instead of criterion's statistical machinery this
//! stub warms each benchmark up, picks an iteration count targeting a
//! fixed measurement window, and prints the mean wall-clock time per
//! iteration.

#![allow(
    clippy::disallowed_methods,
    reason = "vendored benchmark stub: reading the clock is its purpose"
)]

use std::time::{Duration, Instant};

/// Re-export matching `criterion::black_box` (deprecated upstream in favour
/// of `std::hint::black_box`, which the benches already use).
pub use std::hint::black_box;

/// Runs timing loops for one benchmark.
pub struct Bencher {
    mean: Option<Duration>,
}

impl Bencher {
    /// Times `f`, recording the mean time per call.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Warm-up and calibration: find an iteration count that fills the
        // measurement window, then measure.
        let calib_start = Instant::now();
        black_box(f());
        let one = calib_start.elapsed().max(Duration::from_nanos(1));
        let window = Duration::from_millis(200);
        let iters = (window.as_nanos() / one.as_nanos()).clamp(1, 1_000_000) as u64;
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        self.mean = Some(start.elapsed() / iters as u32);
    }
}

/// Entry point mirroring `criterion::Criterion`.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Runs one benchmark and prints its mean time.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        let mut b = Bencher { mean: None };
        f(&mut b);
        match b.mean {
            Some(mean) => println!("{name:<40} {mean:>12.3?}/iter"),
            None => println!("{name:<40} (no measurement)"),
        }
        self
    }

    /// Opens a named group; this stub only namespaces the output.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            parent: self,
            name: name.to_string(),
        }
    }
}

/// A named group of benchmarks.
pub struct BenchmarkGroup<'a> {
    parent: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Accepted for API compatibility; the stub ignores sample counts.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Runs one benchmark under the group's namespace.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, f: F) -> &mut Self {
        let full = format!("{}/{}", self.name, name);
        self.parent.bench_function(&full, f);
        self
    }

    /// Ends the group (no-op).
    pub fn finish(self) {}
}

/// Declares a benchmark group function, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Declares the benchmark `main`, mirroring criterion's macro.
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
    fn bench_function_measures_something() {
        let mut c = Criterion::default();
        let mut ran = false;
        c.bench_function("t", |b| {
            b.iter(|| std::hint::black_box(1 + 1));
            ran = true;
        });
        assert!(ran);
    }

    #[test]
    fn groups_namespace_and_finish() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("g");
        g.sample_size(10).bench_function("x", |b| b.iter(|| ()));
        g.finish();
    }
}
