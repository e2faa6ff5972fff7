//! E16 — concurrent service throughput: adaptation modes × reader counts.
//!
//! The paper's protocol is single-writer: inline adaptation serialises
//! every query behind the engine lock no matter how many threads submit —
//! that is the baseline the protocol imposes on a concurrent system. The
//! service decouples the two halves — async mode executes against
//! published snapshots and defers adaptation to the maintenance thread,
//! so throughput should scale with readers; frozen mode isolates pure
//! snapshot-read scaling with no adaptation at all. This experiment
//! measures what that buys: closed-loop throughput (one client thread per
//! reader, each submitting its fixed stream back-to-back) on a sorted
//! (skip-friendly) and a uniform (adversarial) column.
//!
//! Every cell's answers are checksummed per client and compared across
//! modes (same distribution, same client stream ⇒ identical checksums),
//! so the speedups reported here are for bit-identical work.

use crate::report::{fmt_kqps, fmt_us, Report};
use crate::runner::{client_streams, closed_loop, cross_check, host_cores, Scale};
use ads_server::{AdaptationMode, QueryService, ServerConfig, ServerStats};
use ads_workloads::DataSpec;

/// The mode/reader grid each distribution is measured over.
const CELLS: &[(AdaptationMode, usize)] = &[
    (AdaptationMode::Inline, 1),
    (AdaptationMode::Inline, 4),
    (AdaptationMode::Async, 1),
    (AdaptationMode::Async, 2),
    (AdaptationMode::Async, 4),
    (AdaptationMode::Async, 8),
    (AdaptationMode::Frozen, 4),
];

/// One measured (distribution, mode, readers) cell.
struct Cell {
    dist: String,
    mode: AdaptationMode,
    /// Reader threads (= closed-loop client threads).
    readers: usize,
    elapsed_ns: u64,
    stats: ServerStats,
}

impl Cell {
    fn qps(&self) -> f64 {
        self.stats.queries as f64 / (self.elapsed_ns.max(1) as f64 / 1e9)
    }
}

/// Runs [`CELLS`] × {sorted, uniform}.
fn grid(scale: Scale) -> Vec<Cell> {
    let mut cells = Vec::new();
    for spec in [DataSpec::Sorted, DataSpec::Uniform] {
        let data = spec.generate(scale.rows, scale.domain, scale.seed);
        let dist = spec.label();
        let mut reference = Vec::new();
        for &(mode, readers) in CELLS {
            eprintln!("  e16: {dist} {} x{readers} readers", mode.label());
            let svc = QueryService::start(
                data.clone(),
                ServerConfig {
                    readers,
                    queue_capacity: 4 * readers + 16,
                    adaptation: mode,
                    ..ServerConfig::default()
                },
            );
            let (elapsed_ns, checksums) = closed_loop(&svc, client_streams(readers, scale));
            let stats = svc.shutdown();
            cross_check(
                &mut reference,
                &checksums,
                &format!("{dist}/{}/{readers}", mode.label()),
            );
            assert_eq!(stats.queries, (readers * scale.queries) as u64);
            cells.push(Cell {
                dist: dist.clone(),
                mode,
                readers,
                elapsed_ns,
                stats,
            });
        }
    }
    cells
}

/// Runs the experiment.
pub fn run(scale: Scale) -> Report {
    let mut report = Report::new(
        "e16",
        "service throughput: snapshot readers + async adaptation vs inline lock",
        &[
            "distribution",
            "mode",
            "readers",
            "queries",
            "kq/s",
            "vs inline@1",
            "p50 µs",
            "p95 µs",
            "p99 µs",
            "fb dropped",
            "snapshots",
        ],
    );
    report.note(format!(
        "{} rows, {} COUNT queries/client @5% value-domain selectivity, \
         closed loop (clients = readers); host has {} core(s)",
        scale.rows,
        scale.queries,
        host_cores()
    ));

    let cells = grid(Scale {
        seed: scale.seed ^ 0xE16,
        ..scale
    });
    // Every distribution's first cell is its inline@1 baseline.
    let base = |c: &Cell| {
        cells
            .iter()
            .find(|b| b.dist == c.dist)
            .map_or(1.0, Cell::qps)
    };
    for c in &cells {
        report.row(vec![
            c.dist.clone(),
            c.mode.label().to_string(),
            c.readers.to_string(),
            c.stats.queries.to_string(),
            fmt_kqps(c.stats.queries, c.elapsed_ns),
            format!("{:.2}x", c.qps() / base(c)),
            fmt_us(c.stats.latency.p50_ns() as f64),
            fmt_us(c.stats.latency.p95_ns() as f64),
            fmt_us(c.stats.latency.p99_ns() as f64),
            c.stats.feedback_dropped.to_string(),
            c.stats.snapshots_published.to_string(),
        ]);
    }
    let async4 = cells
        .iter()
        .filter(|c| matches!(c.mode, AdaptationMode::Async) && c.readers == 4);
    report.verdict(
        async4.into_iter().all(|c| c.qps() > base(c)),
        "async @4 readers beats the inline@1 baseline on every distribution",
        "async @4 readers did not beat inline@1 on this host",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_grid_answers_every_closed_loop() {
        let cells = grid(Scale {
            rows: 4_000,
            queries: 10,
            domain: 10_000,
            seed: 7,
        });
        assert_eq!(cells.len(), 2 * CELLS.len());
        for c in &cells {
            assert_eq!(c.stats.queries, (c.readers * 10) as u64);
            assert!(c.qps() > 0.0);
        }
    }
}
