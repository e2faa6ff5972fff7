//! E20 — query throughput over a mutating store: churn scenarios ×
//! {frozen, adaptive} × mutation rates, over sorted data (the case where
//! skipping can win, so frozen-vs-adaptive is a real comparison rather
//! than two full scans):
//!
//! * **update-hotspot** — a hotspot query workload over a store churned
//!   by out-of-place updates (tombstone + tail append).
//! * **delete-storm** — uniform queries over a store losing rows to a
//!   sustained stream of deletes.
//! * **moving-hotspot-over-churn** — a shifting hotspot workload over
//!   mixed update/delete churn with periodic bulk appends.
//!
//! The driver is a single closed loop: every query blocks for its
//! answer, every mutation batch blocks for its publication ack, so each
//! query observes exactly the mutations issued before it. A naive
//! mirror model (plain `Vec` + tombstone flags) recomputes every answer
//! and every batch's applied count; the cell **asserts** equality —
//! count, bit-pattern of the f64 sum, min, max — on every single query,
//! then folds the answers into a checksum that must agree across modes,
//! shard counts, and reader counts. Only the service calls are timed
//! (query replies, mutation and append acks): the mirror's recompute, one
//! pass over the column per query, falls outside the timed span, so the
//! kq/s measure the service. After the timed loop the cell
//! compacts, mirrors the compaction in the model, and re-verifies: value
//! aggregates must not change when tombstones are physically reclaimed.
//! The speedups reported are therefore for proven-identical work.
//!
//! Sums stay bit-identical across prune decisions because every partial
//! sum of in-domain i64 values is an exact integer far below 2^53;
//! addition order cannot perturb them.

use crate::report::{fmt_kqps, Report};
use crate::runner::{cross_check, host_cores, Scale};
use ads_core::RangePredicate;
use ads_engine::AggKind;
use ads_rng::StdRng;
use ads_server::{AdaptationMode, Mutation, QueryService, ServerConfig};
use ads_workloads::queries::RangeQuery;
use ads_workloads::{queries, DataSpec};
use std::time::Instant;

/// The benchmarked churn scenarios.
const SCENARIOS: &[&str] = &[
    "update-hotspot",
    "delete-storm",
    "moving-hotspot-over-churn",
];

/// Mutations issued after each query.
const RATES: &[usize] = &[1, 8];

/// The (mode, shards, readers) grid each (scenario, rate) runs over.
/// Frozen and adaptive appear at matched shapes — `CONFIGS[i]` is the
/// frozen twin of `CONFIGS[i + 2]` — so speedups compare like with like;
/// the two shapes double as the cross-shard and cross-thread checksum
/// witnesses.
const CONFIGS: &[(AdaptationMode, usize, usize)] = &[
    (AdaptationMode::Frozen, 1, 1),
    (AdaptationMode::Frozen, 4, 4),
    (AdaptationMode::Async, 1, 1),
    (AdaptationMode::Async, 4, 4),
];

/// One measured (scenario, rate, mode, shards, readers) cell.
struct Cell {
    scenario: &'static str,
    /// Mutations issued after each query.
    rate: usize,
    mode: AdaptationMode,
    shards: usize,
    readers: usize,
    /// Queries answered in the timed loop.
    queries: u64,
    /// Mutations that took effect (no-ops on dead rows excluded).
    mutations_applied: u64,
    /// Wall time the timed loop spent in service calls: query replies,
    /// mutation and append acks (the mirror's work excluded).
    elapsed_ns: u64,
    /// Fold of every verified answer; equal across the configs of one
    /// (scenario, rate) by construction — asserted by [`grid`].
    checksum: u64,
    /// Rows reclaimed by the end-of-cell compaction.
    rows_reclaimed: u64,
    /// Tombstone density (ppm) just before that compaction.
    tombstone_ppm: u64,
}

/// The naive mirror: the store's semantics replayed on a plain `Vec`.
/// Out-of-place exactly like the service — an update tombstones the old
/// row and appends the new value — so global rowids stay aligned with
/// the service's coordinate system until both compact together.
struct NaiveModel {
    rows: Vec<i64>,
    dead: Vec<bool>,
    dead_count: usize,
}

impl NaiveModel {
    fn new(data: &[i64]) -> Self {
        NaiveModel {
            rows: data.to_vec(),
            dead: vec![false; data.len()],
            dead_count: 0,
        }
    }

    fn len(&self) -> usize {
        self.rows.len()
    }

    fn apply(&mut self, m: Mutation<i64>) -> bool {
        match m {
            Mutation::Delete(row) => {
                if self.dead[row] {
                    return false;
                }
                self.dead[row] = true;
                self.dead_count += 1;
                true
            }
            Mutation::Update(row, v) => {
                if self.dead[row] {
                    return false;
                }
                self.dead[row] = true;
                self.dead_count += 1;
                self.rows.push(v);
                self.dead.push(false);
                true
            }
        }
    }

    fn append(&mut self, vals: &[i64]) {
        self.rows.extend_from_slice(vals);
        self.dead.resize(self.rows.len(), false);
    }

    /// COUNT/SUM/MIN/MAX over live rows in `[lo, hi]`, recomputed from
    /// scratch. The f64 sum is exact (integer partials below 2^53), so
    /// comparing its bit pattern against the engine is meaningful.
    fn answer(&self, lo: i64, hi: i64) -> (u64, f64, Option<i64>, Option<i64>) {
        let mut count = 0u64;
        let mut sum = 0.0f64;
        let mut min = None;
        let mut max = None;
        for (i, &v) in self.rows.iter().enumerate() {
            if self.dead[i] || v < lo || v > hi {
                continue;
            }
            count += 1;
            sum += v as f64;
            min = Some(match min {
                None => v,
                Some(m) => std::cmp::min(m, v),
            });
            max = Some(match max {
                None => v,
                Some(m) => std::cmp::max(m, v),
            });
        }
        (count, sum, min, max)
    }

    /// Mirrors compaction: dead rows drop out, live order is preserved.
    fn compact(&mut self) -> usize {
        let reclaimed = self.dead_count;
        let mut keep = Vec::with_capacity(self.rows.len() - self.dead_count);
        for (i, &v) in self.rows.iter().enumerate() {
            if !self.dead[i] {
                keep.push(v);
            }
        }
        self.rows = keep;
        self.dead = vec![false; self.rows.len()];
        self.dead_count = 0;
        reclaimed
    }
}

/// Asks the service for SUM (which carries COUNT) plus MIN and MAX over
/// `q`, asserts all four against the model, and folds them into
/// `checksum`. Returns the nanoseconds the three service calls took.
fn verify_query(
    svc: &QueryService<i64>,
    model: &NaiveModel,
    q: RangeQuery,
    checksum: &mut u64,
    ctx: &str,
) -> u64 {
    let pred = RangePredicate::between(q.lo, q.hi);
    let (want_count, want_sum, want_min, want_max) = model.answer(q.lo, q.hi);

    let t0 = Instant::now();
    let sum_reply = svc.query(pred, AggKind::Sum).expect("closed loop");
    let min_reply = svc.query(pred, AggKind::Min).expect("closed loop");
    let max_reply = svc.query(pred, AggKind::Max).expect("closed loop");
    let service_ns = t0.elapsed().as_nanos() as u64;

    let ans = sum_reply.answer().expect("no deadline set");
    assert_eq!(ans.count, want_count, "{ctx}: COUNT diverged on {q:?}");
    let got_sum = ans.sum.expect("sum aggregate carries a sum");
    assert_eq!(
        got_sum.to_bits(),
        want_sum.to_bits(),
        "{ctx}: SUM diverged on {q:?} ({got_sum} vs {want_sum})"
    );

    let got_min = min_reply.answer().expect("no deadline set").min;
    assert_eq!(got_min, want_min, "{ctx}: MIN diverged on {q:?}");
    let got_max = max_reply.answer().expect("no deadline set").max;
    assert_eq!(got_max, want_max, "{ctx}: MAX diverged on {q:?}");

    *checksum = checksum
        .rotate_left(7)
        .wrapping_add(want_count)
        .wrapping_add(want_sum.to_bits())
        .wrapping_add(want_min.unwrap_or(-1) as u64)
        .wrapping_add(want_max.unwrap_or(-1) as u64);
    service_ns
}

/// The next mutation batch of a scenario; deterministic in `rng` and the
/// (mirrored, hence config-independent) model length.
fn next_batch(
    scenario: &str,
    rate: usize,
    domain: i64,
    model: &NaiveModel,
    rng: &mut StdRng,
) -> Vec<Mutation<i64>> {
    (0..rate)
        .map(|_| {
            let row = rng.gen_range(0..model.len());
            match scenario {
                "update-hotspot" => Mutation::Update(row, rng.gen_range(0..domain)),
                "delete-storm" => Mutation::Delete(row),
                _ => {
                    if rng.gen_range(0..2u32) == 0 {
                        Mutation::Delete(row)
                    } else {
                        Mutation::Update(row, rng.gen_range(0..domain))
                    }
                }
            }
        })
        .collect()
}

/// Runs the closed loop for one cell.
fn run_cell(
    data: &[i64],
    scenario: &'static str,
    rate: usize,
    (mode, shards, readers): (AdaptationMode, usize, usize),
    scale: Scale,
) -> Cell {
    let Scale { domain, seed, .. } = scale;
    let svc = QueryService::start(
        data.to_vec(),
        ServerConfig {
            readers,
            shards,
            adaptation: mode,
            // The checksum loop owns compaction: it happens exactly once,
            // at the end, mirrored by the model.
            compact_tombstone_ratio: None,
            ..ServerConfig::default()
        },
    );
    let mut model = NaiveModel::new(data);
    // The mutation stream depends only on (scenario, rate, seed) and the
    // mirrored model length, so every config of one (scenario, rate)
    // sees the identical stream.
    let mut mut_rng = StdRng::seed_from_u64(seed ^ (rate as u64).wrapping_mul(0x9E37_79B9));
    let qs = scenario_queries(scenario, scale.queries, domain, seed);
    let ctx = format!("{scenario}/{}/s{shards}/r{rate}", mode.label());

    let mut checksum = 0u64;
    let mut mutations_applied = 0u64;
    let mut elapsed_ns = 0u64;
    for (i, &q) in qs.iter().enumerate() {
        elapsed_ns += verify_query(&svc, &model, q, &mut checksum, &ctx);

        let batch = next_batch(scenario, rate, domain, &model, &mut mut_rng);
        let want_applied: usize = batch.iter().map(|&m| usize::from(model.apply(m))).sum();
        let t0 = Instant::now();
        let applied = svc.mutate(batch).expect("maintenance thread lives");
        elapsed_ns += t0.elapsed().as_nanos() as u64;
        assert_eq!(applied, want_applied, "{ctx}: applied count diverged");
        mutations_applied += applied as u64;

        if scenario == "moving-hotspot-over-churn" && i % 32 == 31 {
            let rows: Vec<i64> = (0..64).map(|_| mut_rng.gen_range(0..domain)).collect();
            model.append(&rows);
            let t0 = Instant::now();
            svc.append(rows);
            elapsed_ns += t0.elapsed().as_nanos() as u64;
        }
    }

    // Compaction epilogue: reclaim tombstones on both sides, then prove
    // the value aggregates did not move.
    let tombstone_ppm = svc.stats().tombstone_ppm;
    let reclaimed = svc.compact().expect("maintenance thread lives");
    assert_eq!(reclaimed, model.dead_count, "{ctx}: reclaimed diverged");
    model.compact();
    for &q in qs.iter().take(32) {
        verify_query(&svc, &model, q, &mut checksum, &ctx);
    }
    svc.shutdown();

    Cell {
        scenario,
        rate,
        mode,
        shards,
        readers,
        queries: qs.len() as u64,
        mutations_applied,
        elapsed_ns,
        checksum,
        rows_reclaimed: reclaimed as u64,
        tombstone_ppm,
    }
}

/// The query stream of a scenario (value-domain hotspots; the store is
/// sorted, so hotspots touch few zones once the zonemap adapts).
fn scenario_queries(scenario: &str, count: usize, domain: i64, seed: u64) -> Vec<RangeQuery> {
    match scenario {
        "update-hotspot" => queries::hotspot_ranges(count, domain, 0.02, 0.5, 0.1, seed),
        "delete-storm" => queries::uniform_ranges(count, domain, 0.02, seed),
        _ => queries::shifting_hotspot(count, domain, 0.02, 4, 0.1, seed),
    }
}

/// Runs [`SCENARIOS`] × [`RATES`] × [`CONFIGS`] over sorted data,
/// config-major within each (scenario, rate).
fn grid(scale: Scale) -> Vec<Cell> {
    let data = DataSpec::Sorted.generate(scale.rows, scale.domain, scale.seed);
    let mut cells = Vec::new();
    for &scenario in SCENARIOS {
        for &rate in RATES {
            let mut reference = Vec::new();
            for &config in CONFIGS {
                let (mode, shards, readers) = config;
                eprintln!(
                    "  e20: {scenario} {} x{shards} shards x{readers} readers rate {rate}",
                    mode.label()
                );
                let cell = run_cell(&data, scenario, rate, config, scale);
                cross_check(
                    &mut reference,
                    &[cell.checksum],
                    &format!("{scenario}/r{rate}"),
                );
                cells.push(cell);
            }
        }
    }
    cells
}

/// Runs the experiment.
pub fn run(scale: Scale) -> Report {
    let mut report = Report::new(
        "e20",
        "mutation subsystem: out-of-place updates/deletes under query load",
        &[
            "scenario",
            "mode",
            "shards",
            "readers",
            "rate",
            "queries",
            "kq/s",
            "vs frozen",
            "applied",
            "tombstone ppm",
            "reclaimed",
            "checksum",
        ],
    );
    report.note(format!(
        "{} rows (sorted), {} verified queries/cell, mutations batched per query; \
         every answer checked against a naive mirror pre- and post-compaction; \
         host has {} core(s)",
        scale.rows,
        scale.queries,
        host_cores()
    ));

    let cells = grid(Scale {
        seed: scale.seed ^ 0xE20,
        ..scale
    });
    let mut adaptive_beats_frozen = false;
    for group in cells.chunks(CONFIGS.len()) {
        for (i, c) in group.iter().enumerate() {
            // Same queries per cell, so the throughput ratio is the
            // inverse time ratio against the frozen twin.
            let vs_frozen = group[i % 2].elapsed_ns as f64 / c.elapsed_ns.max(1) as f64;
            adaptive_beats_frozen |= c.scenario == "update-hotspot" && vs_frozen > 1.0;
            report.row(vec![
                c.scenario.to_string(),
                c.mode.label().to_string(),
                c.shards.to_string(),
                c.readers.to_string(),
                c.rate.to_string(),
                c.queries.to_string(),
                fmt_kqps(c.queries, c.elapsed_ns),
                format!("{vs_frozen:.2}x"),
                c.mutations_applied.to_string(),
                c.tombstone_ppm.to_string(),
                c.rows_reclaimed.to_string(),
                c.checksum.to_string(),
            ]);
        }
    }
    report.verdict(
        adaptive_beats_frozen,
        "adaptive beats frozen on the update-hotspot scenario",
        "adaptive did not beat frozen on update-hotspot on this host",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_grid_mutates_and_agrees_across_configs() {
        let cells = grid(Scale {
            rows: 4_000,
            queries: 12,
            domain: 10_000,
            seed: 7,
        });
        assert_eq!(cells.len(), SCENARIOS.len() * RATES.len() * CONFIGS.len());
        for c in &cells {
            assert_eq!(c.queries, 12);
            assert!(c.elapsed_ns > 0);
            assert!(
                c.mutations_applied > 0,
                "{}: no mutation took effect",
                c.scenario
            );
        }
        // Every (scenario, rate) produced one shared checksum across its
        // four configs (grid() asserts it; spot-check the fold here).
        for group in cells.chunks(CONFIGS.len()) {
            assert!(group
                .iter()
                .all(|c| (c.scenario, c.rate) == (group[0].scenario, group[0].rate)));
            assert!(group.windows(2).all(|w| w[0].checksum == w[1].checksum));
        }
    }
}
