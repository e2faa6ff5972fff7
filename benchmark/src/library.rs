//! The library pass and the raw-kernel calibration of the traced run.
//!
//! The service's worker and maintenance threads are private, so per-layer
//! time is taken here instead: one thread calls the same public functions
//! in the same order — worker (`refresh`, `prune_shared` per lane,
//! `scan_sharded`), then maintenance (`apply_feedback` per lane,
//! `apply_reorg`, `apply_tiers`, `poll_revival`, clone + `publish_shard`
//! of the lanes whose mutation epoch moved) — with a span around each
//! call. The operation count is fixed, so every counter repeats exactly.

use crate::driver::Prepared;
use crate::oracle::{ChurnStream, Mirror, Oracle};
use crate::spec::{agg_of, predicate, COMPACT_EVERY, DOMAIN, KERNEL_PASSES, POOL, SHARDS};
use crate::stats::median;
use crate::trace::Tracer;
use ads_core::adaptive::ShardedZonemap;
use ads_core::SkippingIndex;
use ads_engine::{scan_sharded, ExecPolicy, ShardScanInput};
use ads_server::{ShardSnapshot, ShardedCell};
use ads_storage::scan::{aggregate_in_range, count_in_range_with_minmax};
use ads_storage::{DeleteVector, ShardedColumn};
use std::borrow::Cow;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Counts of the library pass. A fixed operation count over seeded inputs
/// on one thread: two runs with one seed must agree on every field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counters {
    /// Rows the scans touched.
    pub rows_scanned: u64,
    /// Rows answered from metadata alone.
    pub rows_full_match: u64,
    /// Zone-metadata entries examined.
    pub zones_probed: u64,
    /// Zones excluded by metadata.
    pub zones_skipped: u64,
    /// Adaptation events at the end of the pass.
    pub adapt_events: u64,
    /// Zones at the end of the pass.
    pub zones: u64,
    /// Zonemap metadata bytes at the end of the pass.
    pub metadata_bytes: u64,
    /// Metadata tiers built.
    pub tiers_built: u64,
    /// Metadata tiers dropped.
    pub tiers_dropped: u64,
    /// Tier consultations that excluded rows the bounds could not.
    pub tier_skips: u64,
    /// Order-sensitive hash of every answer.
    pub checksum: u64,
}

/// What the library pass measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LibraryPass {
    /// Queries run.
    pub ops: u64,
    /// Rows of the column the pass ran over.
    pub rows: u64,
    /// Queries whose answer disagreed with the oracle.
    pub wrong: u64,
    /// The deterministic counts.
    pub counters: Counters,
}

/// The column, tombstones and oracle the library pass runs over. Read-only
/// workloads: the pristine data. `mixed-churn`: the server's mutation and
/// compaction routines are private, so the pass replays queries only, over
/// the state one compaction interval of the churn stream leaves behind —
/// tombstones set through the public `DeleteVector`, updates appended.
fn library_state(p: &Prepared) -> (Vec<i64>, Option<Vec<bool>>, Cow<'_, Oracle>) {
    if let Some(oracle) = &p.oracle {
        return (p.data(), None, Cow::Borrowed(oracle));
    }
    let mut mirror = Mirror::new(p.data());
    let mut stream = ChurnStream::new(p.seed);
    for _ in 0..COMPACT_EVERY {
        mirror.apply(&stream.next_batch(mirror.rows()));
    }
    let live = mirror.live().to_vec();
    let oracle = Oracle::build(mirror.live_values(), &p.pool);
    (mirror.values().to_vec(), Some(live), Cow::Owned(oracle))
}

/// Runs `ops` queries through the public layer functions on this thread,
/// one `query` span per request with one child span per layer call.
pub fn run_library_pass(p: &Prepared, ops: usize, tracer: &mut Tracer) -> LibraryPass {
    let (values, live, oracle) = library_state(p);
    let rows = values.len() as u64;
    let column = ShardedColumn::new(values, SHARDS);
    let mut zonemap = ShardedZonemap::for_column(&column, p.workload.adaptive_config());
    let deletes: Vec<Arc<DeleteVector>> = (0..SHARDS)
        .map(|s| {
            let mut dv = DeleteVector::new(column.shard(s).len(), 0);
            if let Some(live) = &live {
                for local in 0..dv.len() {
                    if !live[column.start(s) + local] {
                        dv.delete(local);
                    }
                }
            }
            Arc::new(dv)
        })
        .collect();
    let snapshot = |zonemap: &ShardedZonemap<i64>, s: usize, version: u64| ShardSnapshot {
        data: column.shard(s).clone(),
        delete: Arc::clone(&deletes[s]),
        zonemap: zonemap.lane(s).clone(),
        start: column.start(s),
        version,
    };
    let cell = ShardedCell::new((0..SHARDS).map(|s| snapshot(&zonemap, s, 0)).collect());
    let mut cache = cell.cache();
    let mut published_epochs = zonemap.mutation_epochs();
    let mut lane_versions = [0u64; SHARDS];
    let policy = ExecPolicy::sequential();

    let mut counters = Counters::default();
    let mut wrong = 0u64;
    for i in 0..ops {
        let pred = predicate(&p.pool[i % POOL]);
        let agg = agg_of(i);
        // narrowing: the pass runs at most 20,000 queries.
        let request = i as u32;
        let t_start = tracer.now();
        let query = tracer.push("query", t_start, t_start, None, request);
        let mut t = t_start;
        // Ends the span that began at the previous boundary: children tile
        // the query with no gaps between them.
        let mut span = |tracer: &mut Tracer, name: &'static str| {
            let end = tracer.now();
            tracer.push(
                name,
                std::mem::replace(&mut t, end),
                end,
                Some(query),
                request,
            );
        };

        // Worker side.
        cache.refresh(&cell);
        let lanes = cache.lanes();
        let mut outcomes = Vec::with_capacity(SHARDS);
        for lane in lanes {
            outcomes.push(lane.current().zonemap.prune_shared(&pred));
            span(tracer, "core.prune");
        }
        let inputs: Vec<ShardScanInput<'_, i64>> = lanes
            .iter()
            .zip(&outcomes)
            .map(|(lane, outcome)| {
                let snap = lane.current();
                ShardScanInput {
                    data: snap.data.as_slice(),
                    outcome,
                    start: snap.start,
                    live: Some(snap.delete.as_ref()),
                }
            })
            .collect();
        let result = scan_sharded(&inputs, pred, agg, &policy);
        span(tracer, "engine.scan");

        // Maintenance side, one round per query.
        for (s, obs) in result.observations.iter().enumerate() {
            zonemap.lane_mut(s).apply_feedback(obs);
            span(tracer, "core.feedback");
        }
        for s in 0..SHARDS {
            zonemap.lane_mut(s).apply_reorg(column.shard(s).as_slice());
        }
        span(tracer, "core.reorg");
        for s in 0..SHARDS {
            zonemap.lane_mut(s).apply_tiers(column.shard(s).as_slice());
        }
        span(tracer, "core.tiers");
        zonemap.poll_revival();
        span(tracer, "core.revival");
        let epochs = zonemap.mutation_epochs();
        for s in 0..SHARDS {
            if epochs[s] != published_epochs[s] {
                lane_versions[s] += 1;
                cell.publish_shard(s, snapshot(&zonemap, s, lane_versions[s]));
                published_epochs[s] = epochs[s];
            }
        }
        span(tracer, "server.publish");
        tracer.close(query, t);

        counters.rows_scanned += result.phase.rows_scanned as u64;
        for lane in &result.lanes {
            counters.rows_full_match += lane.rows_full_match as u64;
            counters.zones_probed += lane.zones_probed as u64;
            counters.zones_skipped += lane.zones_skipped as u64;
        }
        let answer = &result.answer;
        counters.checksum = counters
            .checksum
            .rotate_left(7)
            .wrapping_add(answer.count)
            .wrapping_add(answer.sum.map_or(0, |s| s as u64));
        wrong += u64::from(!oracle.check(i, answer));
    }

    counters.adapt_events = zonemap.lanes().iter().map(|l| l.adapt_events()).sum();
    counters.zones = zonemap.num_zones() as u64;
    counters.metadata_bytes = zonemap.metadata_bytes() as u64;
    let tiers = zonemap.tier_stats();
    counters.tiers_built = tiers.tiers_built();
    counters.tiers_dropped = tiers.tiers_dropped;
    counters.tier_skips = tiers.tier_skips;
    LibraryPass {
        ops: ops as u64,
        rows,
        wrong,
        counters,
    }
}

/// The raw-kernel calibration: `count_in_range_with_minmax` and
/// `aggregate_in_range` over the whole column, `KERNEL_PASSES` passes
/// each; returns ns per row weighted 3:1 like the COUNT/SUM request mix.
pub fn kernel_ns_per_row(data: &[i64]) -> f64 {
    let (lo, hi) = (DOMAIN / 2, DOMAIN / 2 + DOMAIN / 100);
    let time = |kernel: &dyn Fn()| {
        let passes: Vec<f64> = (0..KERNEL_PASSES)
            .map(|_| {
                let t = Instant::now();
                kernel();
                t.elapsed().as_nanos() as f64 / data.len() as f64
            })
            .collect();
        median(&passes)
    };
    let count = time(&|| {
        black_box(count_in_range_with_minmax(black_box(data), lo, hi));
    });
    let sum = time(&|| {
        black_box(aggregate_in_range(black_box(data), lo, hi));
    });
    0.75 * count + 0.25 * sum
}
