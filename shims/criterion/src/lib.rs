//! Offline shim for the subset of the `criterion` API this workspace uses.
//!
//! The benches compile and run against this harness exactly as they would
//! against real criterion (`Criterion::benchmark_group`, `sample_size`,
//! `BenchmarkGroup::bench_function` with a `&str` or `String` id,
//! `Bencher::iter`, `criterion_group!` / `criterion_main!`). Measurement is
//! intentionally simple: each sample times a batch of iterations with
//! `std::time::Instant` and the harness reports min / median / max
//! per-iteration wall time.
//! Swap in real criterion via the manifest when crates.io is reachable for
//! statistically rigorous numbers.

use std::time::{Duration, Instant};

/// Entry point handed to each registered bench function.
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Criterion {
        Criterion { sample_size: 10 }
    }
}

impl Criterion {
    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup { name: name.to_string(), sample_size: self.sample_size, _criterion: self }
    }
}

/// A named benchmark group; see [`Criterion::benchmark_group`].
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark in this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n > 0, "sample size must be positive");
        self.sample_size = n;
        self
    }

    /// Runs a benchmark inside the group.
    pub fn bench_function<F>(&mut self, id: impl IntoBenchmarkId, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let label = format!("{}/{}", self.name, id.into_benchmark_id());
        run_one(&label, self.sample_size, &mut f);
        self
    }

    /// Finishes the group (kept for API compatibility).
    pub fn finish(self) {}
}

/// Conversion into a printable benchmark id.
pub trait IntoBenchmarkId {
    /// Renders the id.
    fn into_benchmark_id(self) -> String;
}

impl IntoBenchmarkId for &str {
    fn into_benchmark_id(self) -> String {
        self.to_string()
    }
}

impl IntoBenchmarkId for String {
    fn into_benchmark_id(self) -> String {
        self
    }
}

/// Timing handle passed to the bench closure.
pub struct Bencher {
    samples: Vec<Duration>,
    iters_per_sample: u64,
    pending_samples: usize,
}

impl Bencher {
    /// Times `f`, running `iters_per_sample` iterations per sample.
    pub fn iter<O, F>(&mut self, mut f: F)
    where
        F: FnMut() -> O,
    {
        for _ in 0..self.pending_samples {
            let start = Instant::now();
            for _ in 0..self.iters_per_sample {
                std::hint::black_box(f());
            }
            let elapsed = start.elapsed();
            self.samples.push(elapsed / self.iters_per_sample as u32);
        }
        self.pending_samples = 0;
    }
}

fn run_one<F>(label: &str, sample_size: usize, f: &mut F)
where
    F: FnMut(&mut Bencher),
{
    // Warm-up: one untimed iteration batch.
    let mut warmup = Bencher { samples: Vec::new(), iters_per_sample: 1, pending_samples: 1 };
    f(&mut warmup);

    let mut bencher = Bencher {
        samples: Vec::with_capacity(sample_size),
        iters_per_sample: 1,
        pending_samples: sample_size,
    };
    f(&mut bencher);
    let mut samples = bencher.samples;
    if samples.is_empty() {
        println!("bench {label:<40} (no samples: closure never called iter)");
        return;
    }
    samples.sort_unstable();
    let min = samples[0];
    let median = samples[samples.len() / 2];
    let max = samples[samples.len() - 1];
    println!(
        "bench {label:<40} min {min:>12?}  median {median:>12?}  max {max:>12?}  ({} samples)",
        samples.len()
    );
}

/// Declares a function that runs the listed benchmark functions, mirroring
/// `criterion::criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        #[allow(missing_docs)]
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares `fn main` running the listed groups, mirroring
/// `criterion::criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}
