//! The service's observability surface.
//!
//! What many threads count — queries, sheds, the queued/applied pairs
//! behind the two lag gauges — is a relaxed atomic bumped from the hot
//! paths; latency samples go into per-worker [`LatencyHistogram`] shards
//! so readers never contend on one histogram lock. What only the thread
//! holding the [`crate::Owner`] counts is one plain [`OwnerTotals`] value
//! the owner keeps. [`StatsCollector::snapshot`] folds both into an
//! immutable [`ServerStats`] for reporting.

use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::Mutex;
use ads_core::adaptive::TierStats;
use ads_engine::LatencyHistogram;
use std::time::Duration;

/// Shared counters + per-worker latency shards.
#[derive(Debug)]
pub struct StatsCollector {
    /// Queries answered (deadline misses excluded).
    queries: AtomicU64,
    /// Requests rejected at admission because the queue was full.
    shed: AtomicU64,
    /// Requests dropped because their deadline had passed at dequeue.
    deadline_missed: AtomicU64,
    /// Observations dropped because the feedback channel was full.
    feedback_dropped: AtomicU64,
    /// Observations successfully queued for the maintenance thread.
    feedback_queued: AtomicU64,
    /// Observations the maintenance thread has applied.
    feedback_applied: AtomicU64,
    /// Individual mutations (deletes + updates) accepted into the
    /// maintenance channel, whether or not they end up taking effect.
    mutations_queued: AtomicU64,
    /// Individual mutations the maintenance thread has processed (every
    /// entry of every processed batch, no-ops included).
    mutations_processed: AtomicU64,
    /// Rows the scans touched.
    rows_scanned: AtomicU64,
    /// The scanned rows that also paid for metadata construction.
    rows_with_byproducts: AtomicU64,
    /// Queries whose scan ran as more than one run beside scan helpers.
    scans_fanned: AtomicU64,
    /// Rows those fanned scans touched.
    fanned_rows: AtomicU64,
    /// Rows of each fanned scan's largest run, summed.
    fanned_max_run_rows: AtomicU64,
    /// Scan helper threads the service runs (fixed at start).
    scan_helpers: u64,
    /// One latency shard per worker, locked only by that worker (and by
    /// the occasional stats reader).
    latency_shards: Vec<Mutex<LatencyHistogram>>,
}

impl StatsCollector {
    /// A collector with one latency shard per worker.
    pub fn new(workers: usize) -> Self {
        StatsCollector {
            queries: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            deadline_missed: AtomicU64::new(0),
            feedback_dropped: AtomicU64::new(0),
            feedback_queued: AtomicU64::new(0),
            feedback_applied: AtomicU64::new(0),
            mutations_queued: AtomicU64::new(0),
            mutations_processed: AtomicU64::new(0),
            rows_scanned: AtomicU64::new(0),
            rows_with_byproducts: AtomicU64::new(0),
            scans_fanned: AtomicU64::new(0),
            fanned_rows: AtomicU64::new(0),
            fanned_max_run_rows: AtomicU64::new(0),
            scan_helpers: 0,
            latency_shards: (0..workers.max(1))
                .map(|_| Mutex::new(LatencyHistogram::new()))
                .collect(),
        }
    }

    /// The same collector, reporting `helpers` scan helper threads.
    pub(crate) fn with_scan_helpers(self, helpers: u64) -> Self {
        StatsCollector {
            scan_helpers: helpers,
            ..self
        }
    }

    pub(crate) fn record_query(&self, worker: usize, wall_ns: u64) {
        // ordering: Relaxed — monotone counter; RMW atomicity alone
        // guarantees no lost increment, and no other memory is
        // published through it (model-checked in tests/model.rs).
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.latency_shards[worker % self.latency_shards.len()]
            .lock()
            // invariant: LatencyHistogram::record never panics, so the
            // shard lock cannot be poisoned by its only writer.
            .expect("latency shard poisoned")
            .record(wall_ns);
    }

    /// Records one query's scan volume: the rows it touched and how many
    /// of them also computed a by-product the index asked for.
    pub(crate) fn record_scan_rows(&self, scanned: usize, with_byproducts: usize) {
        // ordering: Relaxed — monotone counter; see record_query.
        self.rows_scanned
            .fetch_add(scanned as u64, Ordering::Relaxed);
        // ordering: Relaxed — monotone counter; see record_query.
        self.rows_with_byproducts
            .fetch_add(with_byproducts as u64, Ordering::Relaxed);
    }

    /// Records one query whose scan was fanned out to the helpers, cut
    /// into runs of `run_rows` rows each.
    pub(crate) fn record_scan_fanned(&self, run_rows: &[usize]) {
        // ordering: Relaxed — monotone counter; see record_query.
        self.scans_fanned.fetch_add(1, Ordering::Relaxed);
        let rows: usize = run_rows.iter().sum();
        // ordering: Relaxed — monotone counter; see record_query.
        self.fanned_rows.fetch_add(rows as u64, Ordering::Relaxed);
        let largest = run_rows.iter().max().copied().unwrap_or(0);
        // ordering: Relaxed — monotone counter; see record_query.
        self.fanned_max_run_rows
            .fetch_add(largest as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_shed(&self) {
        // ordering: Relaxed — monotone counter; see record_query.
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_deadline_missed(&self) {
        // ordering: Relaxed — monotone counter; see record_query.
        self.deadline_missed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_feedback_dropped(&self) {
        // ordering: Relaxed — monotone counter; see record_query.
        self.feedback_dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// Public (not `pub(crate)`) so the model-check suite can drive the
    /// queued/applied race directly; harmless to external callers.
    pub fn record_feedback_queued(&self) {
        // ordering: Relaxed — monotone counter; see record_query.
        self.feedback_queued.fetch_add(1, Ordering::Relaxed);
    }

    /// Public for the model-check suite; see record_feedback_queued.
    pub fn record_feedback_applied(&self, n: u64) {
        // ordering: Relaxed — monotone counter; see record_query.
        self.feedback_applied.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn record_mutations_queued(&self, n: u64) {
        // ordering: Relaxed — monotone counter; see record_query.
        self.mutations_queued.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` mutations as processed: every entry of a processed
    /// batch, no-ops included.
    pub(crate) fn record_mutations_processed(&self, n: u64) {
        // ordering: Relaxed — monotone counter; see record_query.
        self.mutations_processed.fetch_add(n, Ordering::Relaxed);
    }

    /// Folds the counters, the shards and the owner's totals into one
    /// immutable report. `queue_depth` and `owner` are sampled by the
    /// caller (the service knows its queue and where its owner lives).
    pub fn snapshot(&self, queue_depth: usize, owner: OwnerTotals) -> ServerStats {
        let mut latency = LatencyHistogram::new();
        for shard in &self.latency_shards {
            // invariant: see record_query — shard locks never poison.
            latency.merge(&shard.lock().expect("latency shard poisoned"));
        }
        // ordering: Relaxed — the two loads are not a consistent cut: the
        // maintenance thread may apply observations between them, so
        // `applied` can exceed the `queued` value read here. The lag is
        // therefore computed with saturating_sub below; it can read low
        // during a race but never underflows to a bogus huge value.
        let feedback_queued = self.feedback_queued.load(Ordering::Relaxed);
        // ordering: Relaxed — see above; saturating_sub absorbs the race.
        let feedback_applied = self.feedback_applied.load(Ordering::Relaxed);
        // ordering: Relaxed — same queued/applied race as feedback: the
        // pending gauge can read low mid-batch, never underflows.
        let mutations_queued = self.mutations_queued.load(Ordering::Relaxed);
        // ordering: Relaxed — see above.
        let mutations_processed = self.mutations_processed.load(Ordering::Relaxed);
        ServerStats {
            // ordering: Relaxed (this load and every one below) — each
            // counter is read independently for a monitoring report;
            // cross-counter skew is acceptable and documented on
            // ServerStats.
            queries: self.queries.load(Ordering::Relaxed),
            // ordering: Relaxed — see the struct-literal comment above.
            shed: self.shed.load(Ordering::Relaxed),
            // ordering: Relaxed — see the struct-literal comment above.
            deadline_missed: self.deadline_missed.load(Ordering::Relaxed),
            // ordering: Relaxed — see the struct-literal comment above.
            feedback_dropped: self.feedback_dropped.load(Ordering::Relaxed),
            feedback_applied,
            adaptation_lag: feedback_queued.saturating_sub(feedback_applied),
            feedback_stale: owner.feedback_stale,
            snapshots_published: owner.snapshots_published,
            shards_republished: owner.shards_republished,
            republish_bytes: owner.republish_bytes,
            whole_map_bytes: owner.whole_map_bytes,
            appends: owner.appends,
            mutations_applied: owner.mutations_applied,
            mutation_batches: owner.mutation_batches,
            deltas_pending: mutations_queued.saturating_sub(mutations_processed),
            compactions_run: owner.compactions_run,
            rows_reclaimed: owner.rows_reclaimed,
            tombstone_ppm: owner.tombstone_ppm,
            tiers_built: owner.tiers.tiers_built(),
            tiers_dropped: owner.tiers.tiers_dropped,
            tier_skips: owner.tiers.tier_skips,
            // ordering: Relaxed — see the struct-literal comment above.
            rows_scanned: self.rows_scanned.load(Ordering::Relaxed),
            // ordering: Relaxed — see the struct-literal comment above.
            rows_with_byproducts: self.rows_with_byproducts.load(Ordering::Relaxed),
            scan_helpers: self.scan_helpers,
            // ordering: Relaxed — see the struct-literal comment above.
            scans_fanned: self.scans_fanned.load(Ordering::Relaxed),
            // ordering: Relaxed — see the struct-literal comment above.
            fanned_rows: self.fanned_rows.load(Ordering::Relaxed),
            // ordering: Relaxed — see the struct-literal comment above.
            fanned_max_run_rows: self.fanned_max_run_rows.load(Ordering::Relaxed),
            queue_depth,
            latency,
        }
    }
}

/// Lifetime totals of the owner side: what only the thread holding the
/// [`crate::Owner`] counts, so a plain value rather than atomics. The
/// owner assembles it ([`crate::Owner::totals`]); the maintenance thread
/// stores a copy once per round, before the round's acks, for
/// [`crate::QueryService::stats`] to read. Field for field the [`ServerStats`]
/// values of the same names, the lanes' own counter blocks kept whole.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OwnerTotals {
    /// Lane observations dropped as stale.
    pub feedback_stale: u64,
    /// Publication rounds that republished at least one shard.
    pub snapshots_published: u64,
    /// Shard lanes republished across all rounds.
    pub shards_republished: u64,
    /// Zonemap metadata bytes cloned for republished lanes.
    pub republish_bytes: u64,
    /// Bytes a whole-map publication scheme would have cloned.
    pub whole_map_bytes: u64,
    /// Append batches applied.
    pub appends: u64,
    /// Mutations that took effect.
    pub mutations_applied: u64,
    /// Mutation batches processed.
    pub mutation_batches: u64,
    /// Shards densely repacked by compaction.
    pub compactions_run: u64,
    /// Tombstoned rows reclaimed by compaction.
    pub rows_reclaimed: u64,
    /// Gauge: tombstoned fraction of the column, parts per million.
    pub tombstone_ppm: u64,
    /// Tier counters, summed over every lane that ever lived.
    pub tiers: TierStats,
}

/// A point-in-time view of the service's health.
#[derive(Debug, Clone)]
pub struct ServerStats {
    /// Queries answered.
    pub queries: u64,
    /// Requests shed at admission (queue full).
    pub shed: u64,
    /// Requests whose deadline expired before a worker reached them.
    pub deadline_missed: u64,
    /// Observations dropped at the feedback channel (channel full).
    pub feedback_dropped: u64,
    /// Observations the maintenance thread has applied to the
    /// authoritative zonemap.
    pub feedback_applied: u64,
    /// Observations queued but not yet applied — how far adaptation lags
    /// behind execution right now.
    pub adaptation_lag: u64,
    /// Lane observations the owner dropped unapplied because the reader
    /// scanned a data version older than the lane's last rebuild
    /// (compaction replaced the lane in between): the old rows' bounds
    /// and mask bits say nothing about the repacked rows.
    pub feedback_stale: u64,
    /// Publication rounds that republished at least one shard since start
    /// (initial snapshots excluded).
    pub snapshots_published: u64,
    /// Individual shard lanes republished across all rounds; divide by
    /// `snapshots_published` for the average republish fan-out.
    pub shards_republished: u64,
    /// Zonemap metadata bytes actually cloned for republished lanes —
    /// the real publication cost of the epoch-diffed scheme.
    pub republish_bytes: u64,
    /// Bytes a whole-map publication scheme (every lane cloned every
    /// round) would have paid over the same rounds; `republish_bytes /
    /// whole_map_bytes` is the publication-cost saving of sharding.
    pub whole_map_bytes: u64,
    /// Append batches applied.
    pub appends: u64,
    /// Individual mutations (deletes + updates) that took effect;
    /// re-deleting or updating an already-dead row is a no-op and is
    /// excluded.
    pub mutations_applied: u64,
    /// Mutation batches the maintenance thread has processed.
    pub mutation_batches: u64,
    /// Mutations accepted into the channel but not yet processed — how
    /// far the delta pipeline lags behind submission right now.
    pub deltas_pending: u64,
    /// Shards densely repacked by compaction.
    pub compactions_run: u64,
    /// Tombstoned rows physically reclaimed by compaction.
    pub rows_reclaimed: u64,
    /// Currently tombstoned fraction of the column, in parts per million
    /// (a gauge sampled at the last maintenance round).
    pub tombstone_ppm: u64,
    /// Metadata tiers (bloom sketches) built by maintenance.
    pub tiers_built: u64,
    /// Metadata tiers dropped by the feedback policy after a hitless
    /// consultation window.
    pub tiers_dropped: u64,
    /// Tier consultations that excluded rows the zone bounds could not.
    pub tier_skips: u64,
    /// Rows the scans touched (full-match rows excluded).
    pub rows_scanned: u64,
    /// The scanned rows that also paid for metadata construction: rows of
    /// zones whose bounds (or value mask) the index still asked for.
    pub rows_with_byproducts: u64,
    /// Scan helper threads the service runs beside its readers: each
    /// worker gets `available_parallelism / readers - 1` of them (so none
    /// once the readers fill the host). Spawned at start, joined at
    /// shutdown.
    pub scan_helpers: u64,
    /// Queries whose scan ran as more than one run, split between a
    /// worker and its helpers — only scans past the policy's floor of
    /// `MIN_ROWS_PER_THREAD` rows per thread are.
    pub scans_fanned: u64,
    /// Rows the fanned scans touched.
    pub fanned_rows: u64,
    /// Rows of each fanned scan's largest run, summed over the fanned
    /// scans: a fanned query waits for its largest run, so
    /// `fanned_max_run_rows / fanned_rows` is how evenly the runs were cut
    /// (`largest_run_share` in [`ServerStats::summary`]).
    pub fanned_max_run_rows: u64,
    /// Request-queue depth at sampling time.
    pub queue_depth: usize,
    /// Merged end-to-end latency distribution (submit-to-reply is up to
    /// the caller; this measures dequeue-to-answer wall time).
    pub latency: LatencyHistogram,
}

impl ServerStats {
    /// Answered queries per second over `elapsed`.
    pub fn throughput_qps(&self, elapsed: Duration) -> f64 {
        let secs = elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.queries as f64 / secs
        }
    }

    /// Share of the scanned rows that also paid for metadata construction
    /// — the paper's "metadata cost vs scan work" ratio on the scan side
    /// (0 when nothing was scanned).
    pub fn byproduct_share(&self) -> f64 {
        if self.rows_scanned == 0 {
            0.0
        } else {
            self.rows_with_byproducts as f64 / self.rows_scanned as f64
        }
    }

    /// Share of the fanned scans' rows that their largest runs held: 1/n
    /// for a perfect n-way cut, 1 when one run held everything (0 when
    /// nothing fanned).
    fn largest_run_share(&self) -> f64 {
        if self.fanned_rows == 0 {
            0.0
        } else {
            self.fanned_max_run_rows as f64 / self.fanned_rows as f64
        }
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "queries={} shed={} deadline_missed={} feedback_applied={} \
             feedback_stale={} lag={} snapshots={} shards_republished={} republish_bytes={} appends={} \
             mutations_applied={} deltas_pending={} compactions={} \
             rows_reclaimed={} tombstone_ppm={} \
             tiers_built={} tiers_dropped={} tier_skips={} \
             rows_scanned={} byproduct_share={:.4} \
             scan_helpers={} scans_fanned={} largest_run_share={:.3} \
             p50={}ns p95={}ns p99={}ns",
            self.queries,
            self.shed,
            self.deadline_missed,
            self.feedback_applied,
            self.feedback_stale,
            self.adaptation_lag,
            self.snapshots_published,
            self.shards_republished,
            self.republish_bytes,
            self.appends,
            self.mutations_applied,
            self.deltas_pending,
            self.compactions_run,
            self.rows_reclaimed,
            self.tombstone_ppm,
            self.tiers_built,
            self.tiers_dropped,
            self.tier_skips,
            self.rows_scanned,
            self.byproduct_share(),
            self.scan_helpers,
            self.scans_fanned,
            self.largest_run_share(),
            self.latency.p50_ns(),
            self.latency.p95_ns(),
            self.latency.p99_ns(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_fold_into_snapshot() {
        let c = StatsCollector::new(2);
        c.record_query(0, 1_000);
        c.record_query(1, 2_000);
        c.record_query(7, 3_000); // wraps onto shard 1
        c.record_shed();
        c.record_deadline_missed();
        c.record_feedback_queued();
        c.record_feedback_queued();
        c.record_feedback_applied(1);
        c.record_feedback_dropped();
        c.record_mutations_queued(10);
        c.record_mutations_processed(7);
        c.record_scan_rows(4_000, 1_000);
        c.record_scan_rows(4_000, 0);
        c.record_scan_fanned(&[3_000, 1_000]);
        let c = c.with_scan_helpers(2);

        let owner = OwnerTotals {
            feedback_stale: 2,
            snapshots_published: 1,
            shards_republished: 3,
            republish_bytes: 1_024,
            whole_map_bytes: 4_096,
            appends: 1,
            mutations_applied: 6,
            mutation_batches: 1,
            compactions_run: 1,
            rows_reclaimed: 4,
            tombstone_ppm: 2_500,
            tiers: TierStats {
                blooms_built: 3,
                tiers_dropped: 1,
                tier_skips: 8,
                ..TierStats::default()
            },
        };
        let s = c.snapshot(5, owner);
        assert_eq!(s.queries, 3);
        assert_eq!(s.shed, 1);
        assert_eq!(s.deadline_missed, 1);
        assert_eq!(s.feedback_dropped, 1);
        assert_eq!(s.feedback_applied, 1);
        assert_eq!(s.adaptation_lag, 1);
        assert_eq!(s.feedback_stale, 2);
        assert_eq!(s.snapshots_published, 1);
        assert_eq!(s.shards_republished, 3);
        assert_eq!(s.republish_bytes, 1_024);
        assert_eq!(s.whole_map_bytes, 4_096);
        assert_eq!(s.appends, 1);
        assert_eq!(s.mutations_applied, 6);
        assert_eq!(s.mutation_batches, 1);
        assert_eq!(s.deltas_pending, 3, "10 queued - 7 processed");
        assert_eq!(s.compactions_run, 1);
        assert_eq!(s.rows_reclaimed, 4);
        assert_eq!(s.tombstone_ppm, 2_500);
        assert_eq!(s.tiers_built, 3);
        assert_eq!(s.tiers_dropped, 1);
        assert_eq!(s.tier_skips, 8);
        assert_eq!((s.rows_scanned, s.rows_with_byproducts), (8_000, 1_000));
        assert_eq!((s.scan_helpers, s.scans_fanned), (2, 1));
        assert_eq!((s.fanned_rows, s.fanned_max_run_rows), (4_000, 3_000));
        assert!((s.byproduct_share() - 0.125).abs() < 1e-12);
        assert_eq!(s.queue_depth, 5);
        assert_eq!(s.latency.count(), 3);
        assert!(s.latency.p99_ns() >= 3_000 * 7 / 8);
    }

    #[test]
    fn throughput_is_queries_over_elapsed() {
        let c = StatsCollector::new(1);
        for _ in 0..100 {
            c.record_query(0, 10);
        }
        let s = c.snapshot(0, OwnerTotals::default());
        let qps = s.throughput_qps(Duration::from_secs(2));
        assert!((qps - 50.0).abs() < 1e-9);
        assert_eq!(s.throughput_qps(Duration::ZERO), 0.0);
        assert!(s.summary().contains("feedback_stale=0"));
        assert!(s
            .summary()
            .contains("scan_helpers=0 scans_fanned=0 largest_run_share=0.000"));
    }

    #[test]
    fn largest_run_share_sums_each_fanned_scans_largest_run() {
        let c = StatsCollector::new(1);
        // An even two-way cut, then one that left four-fifths on one run.
        c.record_scan_fanned(&[500, 500]);
        c.record_scan_fanned(&[200, 800]);
        c.record_scan_fanned(&[100, 100, 100, 100]);
        let s = c.snapshot(0, OwnerTotals::default());
        assert_eq!(s.scans_fanned, 3);
        assert_eq!((s.fanned_rows, s.fanned_max_run_rows), (2_400, 1_400));
        assert!((s.largest_run_share() - 1_400.0 / 2_400.0).abs() < 1e-12);
        assert!(s.summary().contains("largest_run_share=0.583"));
    }
}
