//! E16 — concurrent service throughput: adaptation modes × reader counts.
//!
//! The paper's protocol is single-writer: each query prunes, scans and
//! adapts under exclusive access to the index, so however many threads
//! submit, one query runs at a time — that is the baseline the protocol
//! imposes on a concurrent system. The `owner@1` row measures it directly:
//! one client thread answers its stream with [`Owner::execute`], the
//! inline protocol over the same sharded column, with no queue, no worker
//! hand-off and no lock. The service decouples the protocol's two halves —
//! async mode executes against published snapshots and defers adaptation
//! to the maintenance thread, so throughput should scale with readers;
//! frozen mode isolates pure snapshot-read scaling with no adaptation at
//! all. This experiment measures what that buys: closed-loop throughput
//! (one client thread per reader, each submitting its fixed stream
//! back-to-back) on a sorted (skip-friendly) and a uniform (adversarial)
//! column.
//!
//! Every cell's answers are checksummed per client and compared with the
//! `owner@1` row's and across modes (same distribution, same client stream
//! ⇒ identical checksums), so the speedups reported here are for
//! bit-identical work.

use crate::report::{fmt_kqps, fmt_us, Report};
use crate::runner::{client_streams, closed_loop, cross_check, host_cores, Scale};
use ads_core::RangePredicate;
use ads_engine::{AggKind, LatencyHistogram};
use ads_server::{AdaptationMode, Owner, QueryService, ServerConfig};
use ads_workloads::DataSpec;
use std::time::Instant;

/// The service's mode/reader grid each distribution is measured over,
/// after its `owner@1` row.
const CELLS: &[(AdaptationMode, usize)] = &[
    (AdaptationMode::Async, 1),
    (AdaptationMode::Async, 2),
    (AdaptationMode::Async, 4),
    (AdaptationMode::Async, 8),
    (AdaptationMode::Frozen, 4),
];

/// One measured (distribution, mode, readers) cell.
struct Cell {
    dist: String,
    /// `owner` for the inline-protocol row, else the service mode's label.
    mode: &'static str,
    /// Client threads (= the service's reader threads).
    readers: usize,
    queries: u64,
    elapsed_ns: u64,
    latency: LatencyHistogram,
    feedback_dropped: u64,
    snapshots: u64,
}

impl Cell {
    fn qps(&self) -> f64 {
        self.queries as f64 / (self.elapsed_ns.max(1) as f64 / 1e9)
    }
}

/// The `owner@1` row: client 0's stream answered by [`Owner::execute`] on
/// the client's thread, the owner loaded as a default service loads its
/// own. Returns the cell and the stream's checksum.
fn owner_cell(dist: &str, data: &[i64], scale: Scale) -> (Cell, u64) {
    let config = ServerConfig::default();
    let mut owner = Owner::new(data.to_vec(), config.shards, config.adaptive);
    let mut latency = LatencyHistogram::new();
    let mut checksum = 0u64;
    let t0 = Instant::now();
    for q in client_streams(1, scale).remove(0) {
        let t = Instant::now();
        let (answer, _) = owner.execute(RangePredicate::between(q.lo, q.hi), AggKind::Count);
        latency.record(t.elapsed().as_nanos() as u64);
        checksum = checksum.wrapping_add(answer.count);
    }
    let cell = Cell {
        dist: dist.to_string(),
        mode: "owner",
        readers: 1,
        queries: scale.queries as u64,
        elapsed_ns: t0.elapsed().as_nanos() as u64,
        latency,
        feedback_dropped: 0,
        snapshots: 0,
    };
    (cell, checksum)
}

/// Runs the `owner@1` row and [`CELLS`] × {sorted, uniform}.
fn grid(scale: Scale) -> Vec<Cell> {
    let mut cells = Vec::new();
    for spec in [DataSpec::Sorted, DataSpec::Uniform] {
        let data = spec.generate(scale.rows, scale.domain, scale.seed);
        let dist = spec.label();
        eprintln!("  e16: {dist} owner x1 client");
        let (cell, checksum) = owner_cell(&dist, &data, scale);
        let mut reference = Vec::new();
        cross_check(&mut reference, &[checksum], &format!("{dist}/owner/1"));
        cells.push(cell);
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
                mode: mode.label(),
                readers,
                queries: stats.queries,
                elapsed_ns,
                latency: stats.latency,
                feedback_dropped: stats.feedback_dropped,
                snapshots: stats.snapshots_published,
            });
        }
    }
    cells
}

/// Runs the experiment.
pub fn run(scale: Scale) -> Report {
    let mut report = Report::new(
        "e16",
        "service throughput: snapshot readers + async adaptation vs the inline protocol",
        &[
            "distribution",
            "mode",
            "readers",
            "queries",
            "kq/s",
            "vs owner@1",
            "p50 µs",
            "p95 µs",
            "p99 µs",
            "fb dropped",
            "snapshots",
        ],
    );
    report.note(format!(
        "{} rows, {} COUNT queries/client @5% value-domain selectivity, \
         closed loop (clients = readers); owner@1 = one client running \
         Owner::execute on its own thread; host has {} core(s)",
        scale.rows,
        scale.queries,
        host_cores()
    ));

    let cells = grid(Scale {
        seed: scale.seed ^ 0xE16,
        ..scale
    });
    // Every distribution's first cell is its owner@1 baseline.
    let base = |c: &Cell| {
        cells
            .iter()
            .find(|b| b.dist == c.dist)
            .map_or(1.0, Cell::qps)
    };
    for c in &cells {
        report.row(vec![
            c.dist.clone(),
            c.mode.to_string(),
            c.readers.to_string(),
            c.queries.to_string(),
            fmt_kqps(c.queries, c.elapsed_ns),
            format!("{:.2}x", c.qps() / base(c)),
            fmt_us(c.latency.p50_ns() as f64),
            fmt_us(c.latency.p95_ns() as f64),
            fmt_us(c.latency.p99_ns() as f64),
            c.feedback_dropped.to_string(),
            c.snapshots.to_string(),
        ]);
    }
    let async4 = cells.iter().filter(|c| c.mode == "async" && c.readers == 4);
    report.verdict(
        async4.into_iter().all(|c| c.qps() > base(c)),
        "async @4 readers beats the owner@1 baseline on every distribution",
        "async @4 readers did not beat owner@1 on this host",
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
        assert_eq!(cells.len(), 2 * (1 + CELLS.len()));
        for c in &cells {
            assert_eq!(c.queries, (c.readers * 10) as u64);
            assert!(c.qps() > 0.0);
        }
    }
}
