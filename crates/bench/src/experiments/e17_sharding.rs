//! E17 — sharded service: shard-count scaling and publication cost.
//!
//! Sharding the column gives the maintenance thread per-shard snapshot
//! cells, so a publication round clones only the lanes whose mutation
//! epoch moved instead of the whole zonemap. The measurement is the E16
//! closed loop (one client thread per reader, async adaptation) swept
//! over {sorted, clustered, uniform} × shards {1, 4, 16} × readers
//! {1, 4}, after a single-stream warmup pass that drives the zonemaps to
//! steady state: the publication question is about an ongoing service,
//! not cold-start zone builds, so the reported counters are deltas over
//! the measured phase only. Two things are under test:
//!
//! * **Equivalence** — per-client answer checksums must be identical at
//!   every shard count (the sharded path changes fan-out, never answers);
//! * **Publication cost** — each cell records the bytes actually cloned
//!   for republished lanes next to the bytes a whole-map scheme (every
//!   lane, every round) would have cloned over the same maintenance
//!   rounds, so the saving is a measured ratio, not an estimate. Since a
//!   lane's epoch moves only with what a reader decides from, the warmed
//!   cells republish little or nothing and the ratio measures how quiet
//!   steady state is, lane granularity included.

use crate::report::{fmt_kqps, fmt_us, Report};
use crate::runner::{client_streams, closed_loop, cross_check, host_cores, Scale};
use ads_core::RangePredicate;
use ads_engine::AggKind;
use ads_server::{AdaptationMode, QueryService, ServerConfig, ServerStats};
use ads_workloads::{queries, DataSpec};

/// Shard counts each distribution is swept over.
const SHARD_COUNTS: &[usize] = &[1, 4, 16];

/// Reader (= client) counts each shard count is measured at.
const READER_COUNTS: &[usize] = &[1, 4];

/// One measured (distribution, shards, readers) cell, async mode.
struct Cell {
    dist: String,
    shards: usize,
    readers: usize,
    /// Wall time of the measured phase.
    elapsed_ns: u64,
    /// Stats at warmup end — subtracted from `fin`, so the counters
    /// measure the steady-state phase.
    warm: ServerStats,
    /// Stats at shutdown (cumulative; so is the latency histogram, which
    /// therefore includes the single-stream warmup).
    fin: ServerStats,
    /// Feedback queued but unapplied when the clients finished (sampled
    /// before the shutdown drain zeroes it): how far adaptation lagged
    /// execution at the end of the run.
    lag_at_end: u64,
}

/// Runs one cell: a warmup pass (single stream, then a flush barrier),
/// then `readers` closed-loop clients. Returns the cell and its
/// per-client answer checksums.
fn run_cell(
    data: &[i64],
    dist: &str,
    shards: usize,
    readers: usize,
    scale: Scale,
) -> (Cell, Vec<u64>) {
    let svc = QueryService::start(
        data.to_vec(),
        ServerConfig {
            readers,
            shards,
            queue_capacity: 4 * readers + 16,
            adaptation: AdaptationMode::Async,
            ..ServerConfig::default()
        },
    );
    let warmup_seed = scale.seed ^ 0xFEED_FACE;
    for q in queries::uniform_ranges(scale.queries, scale.domain, 0.05, warmup_seed) {
        let pred = RangePredicate::between(q.lo, q.hi);
        svc.query(pred, AggKind::Count).expect("warmup");
    }
    svc.flush();
    let warm = svc.stats();

    let (elapsed_ns, checksums) = closed_loop(&svc, client_streams(readers, scale));
    let lag_at_end = svc.stats().adaptation_lag;
    let fin = svc.shutdown();
    assert_eq!(fin.queries - warm.queries, (readers * scale.queries) as u64);
    let cell = Cell {
        dist: dist.to_string(),
        shards,
        readers,
        elapsed_ns,
        warm,
        fin,
        lag_at_end,
    };
    (cell, checksums)
}

/// Runs {sorted, clustered, uniform} × [`SHARD_COUNTS`] ×
/// [`READER_COUNTS`], async mode throughout.
fn grid(scale: Scale) -> Vec<Cell> {
    let mut cells = Vec::new();
    for spec in [
        DataSpec::Sorted,
        DataSpec::Clustered { clusters: 64 },
        DataSpec::Uniform,
    ] {
        let data = spec.generate(scale.rows, scale.domain, scale.seed);
        let dist = spec.label();
        let mut reference = Vec::new();
        for &shards in SHARD_COUNTS {
            for &readers in READER_COUNTS {
                eprintln!("  e17: {dist} {shards} shard(s) x{readers} readers");
                let (cell, checksums) = run_cell(&data, &dist, shards, readers, scale);
                let ctx = format!("{dist}/{shards} shards/{readers} readers");
                cross_check(&mut reference, &checksums, &ctx);
                cells.push(cell);
            }
        }
    }
    cells
}

/// Runs the experiment.
pub fn run(scale: Scale) -> Report {
    let mut report = Report::new(
        "e17",
        "sharded service: per-shard republish cost vs whole-map clone",
        &[
            "distribution",
            "shards",
            "readers",
            "queries",
            "kq/s",
            "p50 µs",
            "p99 µs",
            "fb dropped",
            "lag",
            "rounds",
            "lanes",
            "lanes/round",
            "republish bytes",
            "whole-map bytes",
            "republish/whole-map",
        ],
    );
    report.note(format!(
        "{} rows, {} COUNT queries/client @5% value-domain selectivity after a \
         {}-query warmup, closed loop, async adaptation; host has {} core(s)",
        scale.rows,
        scale.queries,
        scale.queries,
        host_cores()
    ));
    report.note(
        "rounds = publication rounds that republished a lane, lanes = shard lanes \
         republished across them; whole-map bytes = every lane's metadata at every \
         maintenance round, quiet ones included (what a clone-everything scheme pays); \
         a lane republishes only when something a reader decides from changed, so a \
         converged cell republishes next to nothing; counters are deltas over the \
         measured phase",
    );

    let cells = grid(Scale {
        seed: scale.seed ^ 0xE17,
        ..scale
    });
    let mut bounded = true;
    for c in &cells {
        let delta = |f: fn(&ServerStats) -> u64| f(&c.fin) - f(&c.warm);
        let queries = delta(|s| s.queries);
        let rounds = delta(|s| s.snapshots_published);
        let lanes = delta(|s| s.shards_republished);
        let republish = delta(|s| s.republish_bytes);
        let whole_map = delta(|s| s.whole_map_bytes);
        bounded &= c.shards < 4 || (whole_map > 0 && republish < whole_map);
        report.row(vec![
            c.dist.clone(),
            c.shards.to_string(),
            c.readers.to_string(),
            queries.to_string(),
            fmt_kqps(queries, c.elapsed_ns),
            fmt_us(c.fin.latency.p50_ns() as f64),
            fmt_us(c.fin.latency.p99_ns() as f64),
            delta(|s| s.feedback_dropped).to_string(),
            c.lag_at_end.to_string(),
            rounds.to_string(),
            lanes.to_string(),
            format!("{:.2}", lanes as f64 / rounds.max(1) as f64),
            republish.to_string(),
            whole_map.to_string(),
            format!("{:.1}%", republish as f64 / whole_map.max(1) as f64 * 100.0),
        ]);
    }
    report.verdict(
        bounded,
        "per-shard republish cloned strictly fewer bytes than the whole-map scheme at >=4 shards",
        "per-shard republish did not undercut the whole-map clone at >=4 shards",
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
        assert_eq!(cells.len(), 3 * SHARD_COUNTS.len() * READER_COUNTS.len());
        for c in &cells {
            assert_eq!(c.fin.queries - c.warm.queries, (c.readers * 10) as u64);
            assert!(c.elapsed_ns > 0);
            assert!(
                c.fin.republish_bytes - c.warm.republish_bytes
                    <= c.fin.whole_map_bytes - c.warm.whole_map_bytes
            );
        }
    }
}
