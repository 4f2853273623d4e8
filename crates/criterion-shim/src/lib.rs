//! Offline stand-in for the `criterion` benchmark harness.
//!
//! The build environment has no crates registry, so this workspace ships
//! a small std-only harness covering the subset of the `criterion 0.5`
//! API the benches use: [`Criterion::benchmark_group`],
//! [`BenchmarkGroup::bench_function`] / [`BenchmarkGroup::bench_with_input`],
//! [`Bencher::iter`] / [`Bencher::iter_with_setup`], [`BenchmarkId`], and
//! the [`criterion_group!`] / [`criterion_main!`] macros.
//!
//! Measurement model: each benchmark runs a short calibration pass, then
//! `sample_size` samples of enough iterations to fill ~20 ms each;
//! median, mean, and min per-iteration times are printed as a table row.
//! No plotting, no statistics beyond that — the benches in this repo
//! print their own result tables.
//!
//! **Smoke mode:** setting `CDB_BENCH_SMOKE=1` runs every benchmark for
//! exactly one iteration of one sample. CI uses it (via
//! `scripts/check.sh`) to catch bench bit-rot without paying measurement
//! time.
//!
//! The printed rows are the only output. The engine's own numbers come
//! from the end-to-end benchmark and its per-layer ladder, not from
//! these harnesses.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Re-export so `criterion::black_box` keeps working alongside
/// `std::hint::black_box`.
pub use std::hint::black_box;

/// Whether smoke mode (`CDB_BENCH_SMOKE=1`) is active.
pub fn smoke_mode() -> bool {
    std::env::var("CDB_BENCH_SMOKE")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// The top-level harness handle.
pub struct Criterion {
    default_sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            default_sample_size: 20,
        }
    }
}

impl Criterion {
    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        eprintln!("\n== bench group: {name} ==");
        BenchmarkGroup {
            _criterion: self,
            name,
            sample_size: None,
        }
    }

    /// Runs a stand-alone benchmark (no group).
    pub fn bench_function<F>(&mut self, id: impl IntoBenchmarkId, f: F)
    where
        F: FnMut(&mut Bencher),
    {
        run_bench(&id.into_benchmark_id().label(), self.default_sample_size, f);
    }
}

/// A group of benchmarks sharing a name prefix and sampling config.
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    sample_size: Option<usize>,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n);
        self
    }

    fn resolved_samples(&self) -> usize {
        self.sample_size.unwrap_or(20)
    }

    /// Runs a benchmark in this group.
    pub fn bench_function<F>(&mut self, id: impl IntoBenchmarkId, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let label = format!("{}/{}", self.name, id.into_benchmark_id().label());
        run_bench(&label, self.resolved_samples(), f);
        self
    }

    /// Runs a benchmark parameterized by an input value.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let label = format!("{}/{}", self.name, id.label());
        run_bench(&label, self.resolved_samples(), |b| f(b, input));
        self
    }

    /// Ends the group (printing nothing extra; rows were printed live).
    pub fn finish(self) {}
}

/// A benchmark identifier: a function name plus an optional parameter.
pub struct BenchmarkId {
    name: String,
    param: Option<String>,
}

impl BenchmarkId {
    /// `name/parameter`, as in criterion.
    pub fn new(name: impl Into<String>, param: impl Display) -> Self {
        BenchmarkId {
            name: name.into(),
            param: Some(param.to_string()),
        }
    }

    /// Identifier carrying only a parameter (criterion's
    /// `from_parameter`).
    pub fn from_parameter(param: impl Display) -> Self {
        BenchmarkId {
            name: String::new(),
            param: Some(param.to_string()),
        }
    }

    fn label(&self) -> String {
        match &self.param {
            Some(p) if self.name.is_empty() => p.clone(),
            Some(p) => format!("{}/{p}", self.name),
            None => self.name.clone(),
        }
    }
}

/// Conversion into a [`BenchmarkId`] (criterion's `IntoBenchmarkId`).
pub trait IntoBenchmarkId {
    /// Converts to an id.
    fn into_benchmark_id(self) -> BenchmarkId;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_benchmark_id(self) -> BenchmarkId {
        self
    }
}

impl IntoBenchmarkId for &str {
    fn into_benchmark_id(self) -> BenchmarkId {
        BenchmarkId {
            name: self.to_owned(),
            param: None,
        }
    }
}

impl IntoBenchmarkId for String {
    fn into_benchmark_id(self) -> BenchmarkId {
        BenchmarkId {
            name: self,
            param: None,
        }
    }
}

/// Per-benchmark measurement driver handed to the closure.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `iters` calls of `routine` back to back.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
    }

    /// Times `routine` only, re-running `setup` before every call.
    pub fn iter_with_setup<S, O, Setup, R>(&mut self, mut setup: Setup, mut routine: R)
    where
        Setup: FnMut() -> S,
        R: FnMut(S) -> O,
    {
        let mut total = Duration::ZERO;
        for _ in 0..self.iters {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            total += start.elapsed();
        }
        self.elapsed = total;
    }
}

fn run_bench<F: FnMut(&mut Bencher)>(label: &str, samples: usize, mut f: F) {
    if smoke_mode() {
        let mut b = Bencher {
            iters: 1,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        eprintln!("  {label:<48} smoke ok ({:>10.3?}/iter)", b.elapsed);
        return;
    }
    // Calibrate: how long does one iteration take?
    let mut b = Bencher {
        iters: 1,
        elapsed: Duration::ZERO,
    };
    f(&mut b);
    let per_iter = b.elapsed.max(Duration::from_nanos(1));
    // Aim for ~20 ms per sample, capped so slow benches still finish.
    let iters_per_sample =
        (Duration::from_millis(20).as_nanos() / per_iter.as_nanos()).clamp(1, 1_000_000) as u64;
    let mut per_iter_times: Vec<Duration> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let mut b = Bencher {
            iters: iters_per_sample,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        per_iter_times.push(b.elapsed / iters_per_sample as u32);
    }
    per_iter_times.sort();
    let median = per_iter_times[per_iter_times.len() / 2];
    let min = per_iter_times[0];
    let mean = per_iter_times.iter().sum::<Duration>() / per_iter_times.len() as u32;
    eprintln!(
        "  {label:<48} median {median:>10.3?}  mean {mean:>10.3?}  min {min:>10.3?}  \
         ({samples} samples × {iters_per_sample} iters)"
    );
}

/// Declares a benchmark group function, as in criterion.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Declares the benchmark `main`, as in criterion.
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
    fn ids_render_like_criterion() {
        assert_eq!(BenchmarkId::new("join", 10_000).label(), "join/10000");
        assert_eq!(BenchmarkId::from_parameter(3).label(), "3");
        assert_eq!("plain".into_benchmark_id().label(), "plain");
    }

    #[test]
    fn bencher_runs_requested_iterations() {
        let mut count = 0u64;
        let mut b = Bencher {
            iters: 5,
            elapsed: Duration::ZERO,
        };
        b.iter(|| count += 1);
        assert_eq!(count, 5);
        let mut setups = 0u64;
        let mut runs = 0u64;
        let mut b = Bencher {
            iters: 3,
            elapsed: Duration::ZERO,
        };
        b.iter_with_setup(
            || {
                setups += 1;
            },
            |()| runs += 1,
        );
        assert_eq!((setups, runs), (3, 3));
    }

    #[test]
    fn groups_and_functions_execute() {
        let mut c = Criterion::default();
        std::env::set_var("CDB_BENCH_SMOKE", "1");
        let mut ran = false;
        {
            let mut g = c.benchmark_group("g");
            g.sample_size(2);
            g.bench_with_input(BenchmarkId::new("f", 1), &1, |b, _| b.iter(|| ran = true));
            g.finish();
        }
        std::env::remove_var("CDB_BENCH_SMOKE");
        assert!(ran);
    }
}
