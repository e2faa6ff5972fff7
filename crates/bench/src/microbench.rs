//! The dependency-free timer behind [`crate::kernels`].
//!
//! Each benchmark calibrates an iteration count against a ~10ms batch
//! budget, runs several samples, and reports the best and mean
//! per-iteration time. Best-of-samples is the headline number: it is the
//! least noisy estimator on a shared machine, where interference only ever
//! adds time.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Samples per benchmark.
const SAMPLES: usize = 5;
/// Target wall time of one sample batch.
const BATCH_BUDGET: Duration = Duration::from_millis(10);

/// One benchmark's timing summary.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name as printed.
    pub name: String,
    /// Iterations per sample batch.
    pub iters: u64,
    /// Fastest observed per-iteration time, nanoseconds.
    pub best_ns: f64,
    /// Mean per-iteration time across samples, nanoseconds.
    pub mean_ns: f64,
}

impl std::fmt::Display for BenchResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<44} best {:>10}  mean {:>10}  ({} iters x {} samples)",
            self.name,
            fmt_ns(self.best_ns),
            fmt_ns(self.mean_ns),
            self.iters,
            SAMPLES
        )
    }
}

/// Formats a per-iteration time with an adaptive unit.
fn fmt_ns(ns: f64) -> String {
    if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2}µs", ns / 1e3)
    } else {
        format!("{ns:.1}ns")
    }
}

/// Prints a section header (the group name).
pub fn section(title: &str) {
    println!("\n-- {title}");
}

/// Times `f`, prints one result line, and returns the summary.
pub fn bench<R>(name: &str, mut f: impl FnMut() -> R) -> BenchResult {
    // One warm-up call doubles as the calibration probe.
    let t = Instant::now();
    black_box(f());
    let once_ns = t.elapsed().as_nanos().max(1);
    let iters = (BATCH_BUDGET.as_nanos() / once_ns).clamp(1, 1_000_000) as u64;

    let mut best = f64::INFINITY;
    let mut total = 0.0;
    for _ in 0..SAMPLES {
        let t = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let per = t.elapsed().as_nanos() as f64 / iters as f64;
        best = best.min(per);
        total += per;
    }
    let result = BenchResult {
        name: name.to_string(),
        iters,
        best_ns: best,
        mean_ns: total / SAMPLES as f64,
    };
    println!("{result}");
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_reports_plausible_times() {
        let r = bench("spin", || {
            let mut x = 0u64;
            for i in 0..100u64 {
                x = x.wrapping_add(black_box(i));
            }
            x
        });
        assert!(r.best_ns > 0.0);
        assert!(r.mean_ns >= r.best_ns);
        assert!(r.iters >= 1);
    }

    #[test]
    fn formatting_units() {
        assert_eq!(fmt_ns(12.34), "12.3ns");
        assert_eq!(fmt_ns(12_340.0), "12.34µs");
        assert_eq!(fmt_ns(12_340_000.0), "12.34ms");
    }
}
