//! E15 — parallel scan scaling: query latency vs scan-phase thread count.
//!
//! The executor fans the prune outcome's scan units across worker threads
//! and merges results in unit order, so answers and adaptation are
//! identical at every thread count (asserted here via the answer
//! checksums). This experiment measures the latency side: mean query time
//! at 1/2/4/8 threads over the four seed distribution classes, with a
//! wide predicate so the scan phase dominates.
//!
//! Expect near-linear scaling on a multi-core machine and flat numbers
//! (modulo noise) on a single core — the speedup column states which this
//! machine is.

use crate::report::{fmt_us, fmt_x, Report};
use crate::runner::{assert_same_answers, host_cores, replay_with_policy, Scale};
use ads_engine::{AggKind, ExecPolicy, LatencyHistogram, Strategy};
use ads_workloads::{DataSpec, QuerySpec};

/// Thread counts measured.
const THREADS: &[usize] = &[1, 2, 4, 8];

/// Runs the experiment.
pub fn run(scale: Scale) -> Report {
    let mut report = Report::new(
        "e15",
        "parallel scan scaling (threads vs mean latency, answers invariant)",
        &[
            "distribution",
            "threads",
            "effective",
            "mean µs/query",
            "p95 µs",
            "p99 µs",
            "rows scanned/query",
            "speedup vs 1T",
        ],
    );
    report.note(format!(
        "{} rows, {} SUM queries @20% value-domain selectivity, static zonemap(4096); \
         host has {} core(s)",
        scale.rows,
        scale.queries,
        host_cores()
    ));

    let queries = QuerySpec::UniformRandom { selectivity: 0.20 }.generate(
        scale.queries,
        scale.domain,
        scale.seed ^ 0xE15,
    );
    let dists = [
        DataSpec::Sorted,
        DataSpec::AlmostSorted { noise: 0.05 },
        DataSpec::Clustered { clusters: 64 },
        DataSpec::Uniform,
    ];
    for spec in dists {
        let data = spec.generate(scale.rows, scale.domain, scale.seed);
        let mut runs = Vec::with_capacity(THREADS.len());
        for &t in THREADS {
            // A floor low enough that bench-scale scans actually fan out.
            let policy = ExecPolicy {
                threads: t,
                min_rows_per_thread: 16 * 1024,
            };
            runs.push((
                t,
                replay_with_policy(
                    &data,
                    &queries,
                    &Strategy::StaticZonemap { zone_rows: 4096 },
                    AggKind::Sum,
                    policy,
                ),
            ));
        }
        assert_same_answers(&runs.iter().map(|(_, r)| r.clone()).collect::<Vec<_>>());
        let base = &runs[0].1;
        let base_wall = base.totals.wall_ns;
        for (t, r) in &runs {
            // The same histogram the service's stats surface uses, so E15
            // and E16 percentiles are comparable by construction.
            let mut hist = LatencyHistogram::new();
            for m in &r.history {
                hist.record(m.wall_ns);
            }
            report.row(vec![
                spec.label(),
                t.to_string(),
                r.totals.max_threads_used.to_string(),
                fmt_us(r.mean_ns()),
                fmt_us(hist.p95_ns() as f64),
                fmt_us(hist.p99_ns() as f64),
                format!(
                    "{:.0}",
                    r.totals.rows_scanned as f64 / r.totals.queries as f64
                ),
                fmt_x(base_wall as f64 / r.totals.wall_ns.max(1) as f64),
            ]);
        }
    }
    report
}
