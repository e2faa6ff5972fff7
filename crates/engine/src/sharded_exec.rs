//! Shard-aware execution: prune each shard independently, cut every
//! shard's scan units into runs, merge in shard order.
//!
//! This is the one scan executor, in three steps:
//!
//! 1. **Plan** ([`ScanPlan::new`]): per shard the work-item list
//!    (`build_work_items`), concatenated shard-major, sized by the
//!    policy ([`ExecPolicy::effective_threads`]) and cut once into
//!    contiguous runs at the item boundaries nearest equal shares of the
//!    rows ([`ads_storage::parallel::weighted_runs`]); an item is never
//!    cut, so a run's rows miss its share by at most half an item.
//! 2. **Runs** ([`ScanPlan::scan_run`]): run *k* is the pure kernel
//!    dispatch (`scan_item`) over its items. A run reads the inputs and
//!    writes only its own result, so any thread may scan any run, in any
//!    order.
//! 3. **Merge** ([`ScanPlan::merge`]): the runs' results, in run order,
//!    are the items' results in item order; each shard's slice folds
//!    through `merge_item_results` and the shards fold in shard order.
//!
//! [`scan_sharded`] scans runs 1.. on scoped threads and run 0 on the
//! caller; `ads-server` hands them to persistent scan helpers instead.
//! Either way an unsharded query is this path with a single lane. Two
//! consequences, both load-bearing:
//!
//! * **Equivalence at one shard.** With `shards = 1` the item list, the
//!   thread split, every kernel call, the answer fold, and the
//!   observation batch are those of an unsharded scan, so answers and all
//!   downstream adaptation are bit-identical (pinned by the regression
//!   suite).
//! * **Deterministic merges at any shard and thread count.** Items are
//!   ordered shard-major and each shard's partial results fold in item
//!   order, so f64 SUM accumulation order, POSITIONS order and every
//!   observation batch are a pure function of the prune outcomes — never
//!   of the thread count, nor of which thread scanned which run.

use crate::exec_policy::ExecPolicy;
use crate::executor::{
    build_work_items, merge_item_results, scan_item, AggKind, ItemResult, QueryAnswer, ScanPhase,
    WorkItem,
};
use crate::lane::Lane;
use crate::metrics::QueryMetrics;
use ads_core::adaptive::ShardedZonemap;
use ads_core::{PruneOutcome, RangePredicate, ScanObservation};
use ads_storage::scan::AllLive;
use ads_storage::{parallel, DataValue, DeleteVector, ShardedColumn};
use std::ops::Range;
use std::time::Instant;

/// What one shard's lane contributed to a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardLaneMetrics {
    /// Shard index.
    pub shard: usize,
    /// Rows the shard holds.
    pub rows: usize,
    /// Zone-metadata entries examined in this shard.
    pub zones_probed: usize,
    /// Zones excluded by metadata in this shard.
    pub zones_skipped: usize,
    /// Rows the scan actually touched in this shard.
    pub rows_scanned: usize,
    /// Rows answered from metadata alone in this shard.
    pub rows_full_match: usize,
    /// Rows of this shard satisfying the predicate.
    pub rows_matched: u64,
}

/// [`QueryMetrics`] plus the per-shard breakdown. The flat `query` view
/// sums the lanes, so existing consumers (`CumulativeMetrics::absorb`,
/// stats displays) keep working unchanged.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedQueryMetrics {
    /// Whole-query totals, shaped exactly like the unsharded metrics.
    pub query: QueryMetrics,
    /// Per-shard prune/skip accounting, in shard order.
    pub shards: Vec<ShardLaneMetrics>,
}

/// One shard's scan-phase input: its column slice, its (already computed)
/// prune outcome in shard-local coordinates, and its global start row.
pub struct ShardScanInput<'a, T: DataValue> {
    /// The shard's column data.
    pub data: &'a [T],
    /// The shard lane's prune outcome, in shard-local row coordinates.
    pub outcome: &'a PruneOutcome,
    /// Global row id of the shard's first row (offsets POSITIONS output).
    pub start: usize,
    /// The shard's tombstones, in shard-local row coordinates; `None` (or
    /// an all-live vector) scans unmasked.
    pub live: Option<&'a DeleteVector>,
}

/// What [`scan_sharded`] produced.
pub struct ShardedScanResult<T: DataValue> {
    /// The merged global answer (positions in global row ids).
    pub answer: QueryAnswer<T>,
    /// One observation batch per shard, in shard order and shard-local
    /// coordinates — ready to feed to the matching lane's `observe` /
    /// `apply_feedback`. Every shard gets an entry, even fully skipped
    /// ones, because the feedback protocol's bookkeeping (query clocks,
    /// skip counters, revival) runs per lane per query.
    pub observations: Vec<ScanObservation<T>>,
    /// Timing and sizing of the fused scan phase.
    pub phase: ScanPhase,
    /// Per-shard accounting, in shard order.
    pub lanes: Vec<ShardLaneMetrics>,
}

/// The pure read path of a query: plans every lane's already-pruned
/// outcome into weighted runs, scans runs 1.. on scoped threads and run 0
/// on the caller, and merges shard-major, returning the answer plus one
/// observation batch per lane.
///
/// This is [`Lane::run`] minus pruning and minus learning: it touches no
/// index state and is callable with shared references only, so concurrent
/// readers can execute against immutable per-shard snapshots — each lane
/// of which may be a *different* published version: soundness is
/// shard-local (each outcome describes exactly its own slice), so any mix
/// of lane versions yields exact answers for the union of those versions.
/// The caller decides what to do with the observations: apply them
/// immediately (inline adaptation, what [`Lane::run`] does), queue them
/// for a maintenance thread (asynchronous adaptation), or drop them
/// (frozen metadata). Dropping or delaying feedback never affects answer
/// correctness — only how fast the index adapts.
///
/// Each lane's `data` must be in its outcome's scan coordinates;
/// positions are returned untranslated.
pub fn scan_sharded<T: DataValue>(
    inputs: &[ShardScanInput<'_, T>],
    pred: RangePredicate<T>,
    agg: AggKind,
    policy: &ExecPolicy,
) -> ShardedScanResult<T> {
    ScanPlan::new(inputs, pred, agg, policy).run_scoped(inputs)
}

/// The vector lane `input` has to mask with, if any. An all-live vector
/// is answer-identical to no vector, so masking costs nothing until the
/// first delete lands.
fn mask<'a, T: DataValue>(input: &ShardScanInput<'a, T>) -> Option<&'a DeleteVector> {
    input.live.filter(|dv| dv.has_deletes())
}

/// A query's scan, cut for execution: each lane's work items (the list is
/// shard-major), the contiguous runs that list is cut into, and what the
/// merge needs to fold the runs back together.
///
/// Run *k* ends at the item boundary whose row prefix is nearest `k/n` of
/// the scanned rows ([`ads_storage::parallel::weighted_runs`]). Items —
/// scan units and full-match ranges — are never split, so
/// every unit's SUM stays one running `f64` whatever the run count; the
/// price is that a run may miss its share by up to half the item
/// straddling its cut (with two runs, the larger holds at most half the
/// rows plus half that item).
///
/// A plan owns no borrowed data, so its runs may be scanned by threads
/// that outlive the caller's borrows; each scanner passes in the same
/// lanes the plan was built from ([`ShardScanInput`]s over the same
/// slices and outcomes). Which thread scans which run, and in what order,
/// never shows in the merged result.
#[derive(Debug)]
pub struct ScanPlan<T: DataValue> {
    pred: RangePredicate<T>,
    agg: AggKind,
    /// Each lane's work items, in lane order.
    lane_items: Vec<Vec<WorkItem>>,
    /// Contiguous runs of the shard-major item list, in item order.
    runs: Vec<Range<usize>>,
    /// Threads the policy granted this scan's size.
    threads_used: usize,
    /// When planning began: the scan phase's clock.
    started: Instant,
}

/// What scanning one run of a [`ScanPlan`] produced: its items' results,
/// in item order.
pub struct RunResult<T: DataValue>(Vec<ItemResult<T>>);

impl<T: DataValue> ScanPlan<T> {
    /// Plans the scan of `inputs`' prune outcomes: builds every lane's
    /// work items, asks `policy` how many threads the scanned rows can
    /// keep busy, and cuts the shard-major list into that many runs.
    ///
    /// Under the `audit` feature the shadow oracle checks every lane's
    /// outcome here, before any run can be handed out.
    pub fn new(
        inputs: &[ShardScanInput<'_, T>],
        pred: RangePredicate<T>,
        agg: AggKind,
        policy: &ExecPolicy,
    ) -> Self {
        let started = Instant::now();

        // Shadow oracle, per lane (soundness is shard-local): abort on any
        // zone a lane's prune excluded that still holds a qualifying live
        // row. This is the path every server query takes.
        #[cfg(feature = "audit")]
        for lane in inputs {
            ads_core::audit::verify_outcome(
                lane.data,
                mask(lane),
                &pred,
                lane.outcome,
                None,
                "scan_sharded",
            );
        }

        let lane_items: Vec<Vec<WorkItem>> = inputs
            .iter()
            .map(|l| build_work_items(l.outcome, agg))
            .collect();
        let weights = lane_items.iter().flatten().map(WorkItem::rows);
        let threads_used = policy.effective_threads(weights.clone().sum());
        let runs = parallel::weighted_runs(weights, threads_used);
        ScanPlan {
            pred,
            agg,
            lane_items,
            runs,
            threads_used,
            started,
        }
    }

    /// How many runs the scan was cut into (1 = sequential).
    pub fn runs(&self) -> usize {
        self.runs.len()
    }

    /// The rows each run scans, in run order.
    pub fn run_rows(&self) -> Vec<usize> {
        // The runs partition the shard-major item list in order.
        let mut rows = self.lane_items.iter().flatten().map(WorkItem::rows);
        let run_rows = self
            .runs
            .iter()
            .map(|run| rows.by_ref().take(run.len()).sum());
        run_rows.collect()
    }

    /// Scans run `k` over `inputs` — the lanes the plan was built from.
    pub fn scan_run(&self, inputs: &[ShardScanInput<'_, T>], k: usize) -> RunResult<T> {
        let run = &self.runs[k];
        let (pred, agg) = (self.pred, self.agg);
        let mut results = Vec::with_capacity(run.len());
        // Where each lane's items begin in the shard-major list.
        let mut base = 0usize;
        for (input, items) in inputs.iter().zip(&self.lane_items) {
            let (lo, hi) = (run.start.max(base), run.end.min(base + items.len()));
            if lo < hi {
                let data = input.data;
                let items = &items[lo - base..hi - base];
                match mask(input) {
                    Some(dv) => results.extend(
                        items
                            .iter()
                            .map(|item| scan_item(data, pred, agg, item, dv)),
                    ),
                    None => results.extend(items.iter().map(|item| {
                        // live: the lane has no vector, or one without a
                        // tombstone.
                        scan_item(data, pred, agg, item, AllLive)
                    })),
                }
            }
            base += items.len();
        }
        RunResult(results)
    }

    /// Scans runs 1.. on scoped threads and run 0 on the caller, then
    /// merges.
    pub fn run_scoped(&self, inputs: &[ShardScanInput<'_, T>]) -> ShardedScanResult<T> {
        if self.runs() == 1 {
            return self.merge(inputs, vec![self.scan_run(inputs, 0)]);
        }
        let results = std::thread::scope(|scope| {
            let others: Vec<_> = (1..self.runs())
                .map(|k| scope.spawn(move || self.scan_run(inputs, k)))
                .collect();
            let mut results = vec![self.scan_run(inputs, 0)];
            for h in others {
                // invariant: the kernels contain no panicking operations;
                // a panic there is a bug worth propagating loudly.
                results.push(h.join().expect("scan run panicked"));
            }
            results
        });
        self.merge(inputs, results)
    }

    /// Folds every run's result — `runs[k]` from [`ScanPlan::scan_run`]
    /// on run `k`, over the same `inputs` — into the answer, one
    /// observation batch per lane and the per-lane accounting.
    ///
    /// # Panics
    /// Panics when `runs` does not hold one result per run.
    pub fn merge(
        &self,
        inputs: &[ShardScanInput<'_, T>],
        runs: Vec<RunResult<T>>,
    ) -> ShardedScanResult<T> {
        assert_eq!(runs.len(), self.runs(), "one result per run");
        let (pred, agg) = (self.pred, self.agg);
        // Runs are contiguous and in item order: concatenated, they are
        // the items' results in item order.
        let mut runs = runs.into_iter();
        let mut results: Vec<ItemResult<T>> = runs.next().map_or_else(Vec::new, |run| run.0);
        for run in runs {
            results.extend(run.0);
        }

        // Split results back into per-shard slices (they are contiguous
        // because the work list is shard-major). Back-to-front so each
        // split is O(slice).
        let mut per_lane: Vec<Vec<ItemResult<T>>> = Vec::with_capacity(inputs.len());
        for items in self.lane_items.iter().rev() {
            per_lane.push(results.split_off(results.len() - items.len()));
        }
        per_lane.reverse();

        // Fold shard partials in shard order. Each shard's partial comes
        // from the same in-order item merge the unsharded executor uses.
        let mut answer = QueryAnswer::default();
        let mut sum = 0.0f64;
        let mut mmin = T::MAX_VALUE;
        let mut mmax = T::MIN_VALUE;
        let mut positions: Vec<u32> = Vec::new();
        let mut observations: Vec<ScanObservation<T>> = Vec::with_capacity(inputs.len());
        let mut lanes: Vec<ShardLaneMetrics> = Vec::with_capacity(inputs.len());
        let mut rows_scanned_total = 0usize;
        let mut rows_with_byproducts_total = 0usize;

        for (s, (input, (items, lane_results))) in inputs
            .iter()
            .zip(self.lane_items.iter().zip(per_lane))
            .enumerate()
        {
            let merged = match mask(input) {
                Some(dv) => merge_item_results(input.outcome, pred, agg, items, lane_results, dv),
                // live: the lane has no vector, or one without a tombstone.
                None => merge_item_results(input.outcome, pred, agg, items, lane_results, AllLive),
            };
            let lane_answer = merged.answer;
            answer.count += lane_answer.count;
            if let Some(lane_sum) = lane_answer.sum {
                sum += lane_sum;
            }
            if let Some(m) = lane_answer.min {
                mmin = mmin.min_total(m);
            }
            if let Some(m) = lane_answer.max {
                mmax = mmax.max_total(m);
            }
            if let Some(p) = lane_answer.positions {
                // Lane positions are shard-local and sorted; shards are
                // contiguous in shard order, so offset-and-append keeps
                // the global list sorted.
                // narrowing: shard starts are u32 row ids by the storage
                // contract.
                positions.extend(p.into_iter().map(|pos| pos + input.start as u32));
            }
            rows_scanned_total += merged.rows_scanned;
            rows_with_byproducts_total += merged.rows_with_byproducts;
            lanes.push(ShardLaneMetrics {
                shard: s,
                rows: input.data.len(),
                zones_probed: input.outcome.zones_probed,
                zones_skipped: input.outcome.zones_skipped,
                rows_scanned: merged.rows_scanned,
                rows_full_match: input.outcome.rows_full_match(),
                rows_matched: lane_answer.count,
            });
            observations.push(merged.observation);
        }

        match agg {
            AggKind::Count => {}
            AggKind::Sum => answer.sum = Some(sum),
            AggKind::Min => answer.min = (answer.count > 0).then_some(mmin),
            AggKind::Max => answer.max = (answer.count > 0).then_some(mmax),
            AggKind::Positions => answer.positions = Some(positions),
        }

        ShardedScanResult {
            answer,
            observations,
            phase: ScanPhase {
                rows_scanned: rows_scanned_total,
                rows_with_byproducts: rows_with_byproducts_total,
                threads_used: self.threads_used,
                scan_ns: self.started.elapsed().as_nanos() as u64,
            },
            lanes,
        }
    }
}

/// Executes one query over a sharded column with inline adaptation: one
/// [`Lane`] per shard — its rows, its zonemap lane, its tombstones when
/// `deletes` carries one [`DeleteVector`] per shard (shard-local
/// coordinates) — through [`Lane::run`].
pub fn execute_sharded<T: DataValue>(
    column: &ShardedColumn<T>,
    zonemap: &mut ShardedZonemap<T>,
    deletes: Option<&[DeleteVector]>,
    pred: RangePredicate<T>,
    agg: AggKind,
    policy: &ExecPolicy,
) -> (QueryAnswer<T>, ShardedQueryMetrics) {
    let mut lanes: Vec<Lane<'_, T>> = zonemap
        .lanes_mut()
        .iter_mut()
        .enumerate()
        .map(|(s, index)| Lane {
            data: column.shard(s).as_slice(),
            index,
            live: deletes.map(|dvs| &dvs[s]),
            start: column.start(s),
        })
        .collect();
    Lane::run(&mut lanes, pred, agg, policy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::execute_reference;
    use ads_core::adaptive::AdaptiveConfig;

    fn cfg() -> AdaptiveConfig {
        AdaptiveConfig {
            target_zone_rows: 128,
            min_zone_rows: 16,
            max_zone_rows: 1024,
            ..AdaptiveConfig::default()
        }
    }

    const ALL_AGGS: [AggKind; 5] = [
        AggKind::Count,
        AggKind::Sum,
        AggKind::Min,
        AggKind::Max,
        AggKind::Positions,
    ];

    #[test]
    fn sharded_matches_reference_across_shard_and_thread_counts() {
        let data: Vec<i64> = (0..7001).map(|i| (i * 2654435761i64) % 5000).collect();
        for shards in [1, 3, 8] {
            for threads in [1, 4] {
                let column = ShardedColumn::new(data.clone(), shards);
                let mut zm = ShardedZonemap::for_column(&column, cfg());
                let policy = ExecPolicy {
                    threads,
                    min_rows_per_thread: 1,
                };
                for q in 0..20 {
                    let lo = (q * 211) % 4500;
                    let pred = RangePredicate::between(lo, lo + 400);
                    let agg = ALL_AGGS[q as usize % ALL_AGGS.len()];
                    let (got, m) = execute_sharded(&column, &mut zm, None, pred, agg, &policy);
                    let want = execute_reference(&data, pred, agg);
                    assert_eq!(got, want, "s={shards} t={threads} q={q} {agg:?}");
                    assert_eq!(m.shards.len(), shards);
                    assert_eq!(
                        m.query.rows_matched,
                        m.shards.iter().map(|l| l.rows_matched).sum::<u64>()
                    );
                }
            }
        }
    }

    /// Scans `plan`'s runs last to first, each on a thread of its own,
    /// then merges them in run order.
    fn scan_reversed<T: DataValue>(
        plan: &ScanPlan<T>,
        inputs: &[ShardScanInput<'_, T>],
    ) -> ShardedScanResult<T> {
        let mut runs: Vec<Option<RunResult<T>>> = (0..plan.runs()).map(|_| None).collect();
        for k in (0..plan.runs()).rev() {
            let run = std::thread::scope(|s| s.spawn(|| plan.scan_run(inputs, k)).join());
            runs[k] = Some(run.expect("scan run panicked"));
        }
        let runs = runs.into_iter().map(|r| r.expect("every run scanned"));
        plan.merge(inputs, runs.collect())
    }

    /// Everything a scan result says except its timing and thread count,
    /// with the SUM as raw bits.
    fn fingerprint<T: DataValue>(r: &ShardedScanResult<T>) -> String {
        format!(
            "{:?} sum_bits={:?} obs={:?} lanes={:?} scanned={} byproducts={}",
            r.answer,
            r.answer.sum.map(f64::to_bits),
            r.observations,
            r.lanes,
            r.phase.rows_scanned,
            r.phase.rows_with_byproducts
        )
    }

    #[test]
    fn runs_scanned_in_reverse_on_other_threads_merge_bit_identically() {
        // Values of seven magnitudes: any reordering of the SUM's adds
        // shows in its bits.
        let value = |i: usize| (i as f64 * 0.37).sin() * 10f64.powi((i % 7) as i32);
        let config = AdaptiveConfig {
            maintenance_every: 1,
            ..cfg()
        };
        let (mut saw_masked, mut most_runs) = (false, 0);
        // 49 rows over 8 shards leave the tail shard empty.
        for (rows, shards) in [(7001, 1), (7001, 3), (7001, 8), (49, 8)] {
            let data: Vec<f64> = (0..rows).map(value).collect();
            let column = ShardedColumn::new(data, shards);
            // Every 5th global row tombstoned, in shard-local coordinates.
            let deletes: Vec<DeleteVector> = (0..shards)
                .map(|s| {
                    let mut dv = DeleteVector::new(column.shard(s).len(), 1);
                    for r in (0..column.shard(s).len()).filter(|r| (column.start(s) + r) % 5 == 0) {
                        dv.delete(r);
                    }
                    dv
                })
                .collect();
            let mut zm = ShardedZonemap::for_column(&column, config.clone());
            let pred = |q: usize| {
                let lo = (q as f64 * 0.61).sin() * 1e3;
                RangePredicate::between(lo, lo + 2e4)
            };
            // Inline queries build zones.
            for q in 0..40 {
                let policy = ExecPolicy::sequential();
                execute_sharded(
                    &column,
                    &mut zm,
                    Some(&deletes),
                    pred(q % 4),
                    AggKind::Count,
                    &policy,
                );
            }
            for q in 0..20 {
                let (pred, agg) = (pred(q % 4), ALL_AGGS[q % ALL_AGGS.len()]);
                let outcomes: Vec<PruneOutcome> =
                    zm.lanes().iter().map(|l| l.prune_shared(&pred)).collect();
                let inputs: Vec<ShardScanInput<'_, f64>> = outcomes
                    .iter()
                    .enumerate()
                    .map(|(s, outcome)| ShardScanInput {
                        data: column.shard(s).as_slice(),
                        outcome,
                        start: column.start(s),
                        live: (q % 2 == 0).then(|| &deletes[s]),
                    })
                    .collect();
                saw_masked |= q % 2 == 0;
                let sequential = scan_sharded(&inputs, pred, agg, &ExecPolicy::sequential());
                let want = fingerprint(&sequential);
                for threads in 1..=4 {
                    let policy = ExecPolicy {
                        threads,
                        min_rows_per_thread: 1,
                    };
                    let plan = ScanPlan::new(&inputs, pred, agg, &policy);
                    most_runs = most_runs.max(plan.runs());
                    let got = fingerprint(&scan_reversed(&plan, &inputs));
                    assert_eq!(
                        got, want,
                        "rows={rows} s={shards} t={threads} q={q} {agg:?}"
                    );
                    let scoped = fingerprint(&plan.run_scoped(&inputs));
                    assert_eq!(scoped, want, "rows={rows} s={shards} t={threads} q={q}");
                }
            }
        }
        assert!(saw_masked);
        assert_eq!(most_runs, 4, "no plan was cut into four runs");
    }

    #[test]
    fn a_dead_extent_opening_the_next_lane_is_not_put_on_the_first_run() {
        use ads_core::UnitRequest;
        use ads_storage::RowRange;
        // What the prune emits for a mixed-regions column after
        // deactivation: per-zone units that still learn, and one unit per
        // coalesced dead extent. Lane 0 scans 9,900 rows (48 zones, then
        // its dead tail); lane 1 opens with a 5,100-row dead extent.
        let lane = |units: &[(usize, usize, bool)]| {
            let mut out = PruneOutcome::for_prune();
            for &(start, end, learns) in units {
                let request = UnitRequest {
                    bounds: learns,
                    bins: None,
                };
                out.push_unit(RowRange::new(start, end), request);
            }
            out
        };
        let zones = |from: usize, n: usize| {
            (0..n).map(move |z| (from + 100 * z, from + 100 * (z + 1), true))
        };
        let lane0: Vec<_> = zones(0, 48).chain([(4_800, 9_900, false)]).collect();
        let lane1: Vec<_> = std::iter::once((0, 5_100, false))
            .chain(zones(5_100, 50))
            .collect();
        let outcomes = [lane(&lane0), lane(&lane1)];
        // Thirds: every f64 add rounds, so any regrouping of a unit's
        // additions shows in the SUM's bits.
        let data: Vec<Vec<f64>> = [9_900, 10_100]
            .iter()
            .map(|&rows| (0..rows).map(|i| i as f64 / 3.0).collect())
            .collect();
        let inputs: Vec<ShardScanInput<'_, f64>> = outcomes
            .iter()
            .zip(&data)
            .zip([0, 9_900])
            .map(|((outcome, data), start)| ShardScanInput {
                data,
                outcome,
                start,
                live: None,
            })
            .collect();
        let pred = RangePredicate::between(100.0, 3_000.0);
        let two = ExecPolicy {
            threads: 2,
            min_rows_per_thread: 1,
        };
        let plan = ScanPlan::new(&inputs, pred, AggKind::Sum, &two);
        let rows = plan.run_rows();
        assert_eq!(rows.iter().sum::<usize>(), 20_000);
        let (small, large) = (rows[0].min(rows[1]), rows[0].max(rows[1]));
        assert_eq!(rows.len(), 2);
        assert!(
            large * 10 <= small * 11,
            "runs {rows:?} differ by more than 10 %"
        );
        for agg in ALL_AGGS {
            let one = scan_sharded(&inputs, pred, agg, &ExecPolicy::sequential());
            let fanned = scan_sharded(&inputs, pred, agg, &two);
            assert_eq!(fingerprint(&fanned), fingerprint(&one), "{agg:?}");
            assert_eq!(fanned.phase.threads_used, 2);
        }
    }

    #[test]
    fn masked_sharded_matches_delete_aware_reference() {
        use crate::executor::execute_reference_with_deletes;
        let data: Vec<i64> = (0..5003).map(|i| (i * 2654435761i64) % 4000).collect();
        for shards in [1, 4] {
            for threads in [1, 4] {
                let column = ShardedColumn::new(data.clone(), shards);
                // Shard-local delete vectors tombstoning every 5th global
                // row, plus a mirrored global vector for the reference.
                let mut global = DeleteVector::new(data.len(), 1);
                let mut per_shard: Vec<DeleteVector> = (0..shards)
                    .map(|s| DeleteVector::new(column.shard(s).len(), 1))
                    .collect();
                for r in (0..data.len()).step_by(5) {
                    global.delete(r);
                    let s = (0..shards)
                        .rfind(|&s| column.start(s) <= r)
                        .expect("row maps to a shard");
                    per_shard[s].delete(r - column.start(s));
                }
                let mut zm = ShardedZonemap::for_column(&column, cfg());
                let policy = ExecPolicy {
                    threads,
                    min_rows_per_thread: 1,
                };
                for q in 0..15 {
                    let lo = (q * 307) % 3500;
                    let pred = RangePredicate::between(lo, lo + 500);
                    let agg = ALL_AGGS[q as usize % ALL_AGGS.len()];
                    let (got, _) =
                        execute_sharded(&column, &mut zm, Some(&per_shard), pred, agg, &policy);
                    let want = execute_reference_with_deletes(&data, &global, pred, agg);
                    assert_eq!(
                        got.count, want.count,
                        "s={shards} t={threads} q={q} {agg:?}"
                    );
                    assert_eq!(
                        got.sum.map(f64::to_bits),
                        want.sum.map(f64::to_bits),
                        "s={shards} t={threads} q={q} {agg:?}: sum bits diverged"
                    );
                    assert_eq!(got.min, want.min, "s={shards} t={threads} q={q} {agg:?}");
                    assert_eq!(got.max, want.max, "s={shards} t={threads} q={q} {agg:?}");
                    assert_eq!(
                        got.positions, want.positions,
                        "s={shards} t={threads} q={q} {agg:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn all_live_vectors_scan_identically_to_no_vectors() {
        let data: Vec<i64> = (0..3000).map(|i| (i * 97) % 1000).collect();
        let column = ShardedColumn::new(data.clone(), 3);
        let empty: Vec<DeleteVector> = (0..3)
            .map(|s| DeleteVector::new(column.shard(s).len(), 0))
            .collect();
        let mut zm1 = ShardedZonemap::for_column(&column, cfg());
        let mut zm2 = ShardedZonemap::for_column(&column, cfg());
        let pred = RangePredicate::between(100, 400);
        for agg in ALL_AGGS {
            let (a, _) = execute_sharded(
                &column,
                &mut zm1,
                None,
                pred,
                agg,
                &ExecPolicy::sequential(),
            );
            let (b, _) = execute_sharded(
                &column,
                &mut zm2,
                Some(&empty),
                pred,
                agg,
                &ExecPolicy::sequential(),
            );
            assert_eq!(a, b, "{agg:?}");
        }
    }

    #[test]
    fn lane_metrics_attribute_rows_to_the_right_shard() {
        // Sorted data: after adaptation a narrow predicate touches one
        // shard only, and the others report skips, not scans.
        let data: Vec<i64> = (0..4000).collect();
        let column = ShardedColumn::new(data.clone(), 4);
        let mut zm = ShardedZonemap::for_column(&column, cfg());
        let pred = RangePredicate::between(100, 200);
        let policy = ExecPolicy::sequential();
        for _ in 0..3 {
            execute_sharded(&column, &mut zm, None, pred, AggKind::Count, &policy);
        }
        let (_, m) = execute_sharded(&column, &mut zm, None, pred, AggKind::Count, &policy);
        assert_eq!(m.shards[0].rows_matched, 101);
        for lane in &m.shards[1..] {
            assert_eq!(lane.rows_matched, 0, "shard {}", lane.shard);
            assert_eq!(lane.rows_scanned, 0, "shard {} scanned", lane.shard);
            assert!(lane.zones_skipped > 0, "shard {} skipped", lane.shard);
        }
    }

    #[test]
    fn empty_tail_shards_are_harmless() {
        // 49 rows over 8 shards: chunk = 7, the first 7 shards cover
        // everything and the 8th is empty.
        let data: Vec<i64> = (0..49).collect();
        let column = ShardedColumn::new(data.clone(), 8);
        let mut zm = ShardedZonemap::for_column(&column, cfg());
        let pred = RangePredicate::between(10, 39);
        let (got, m) = execute_sharded(
            &column,
            &mut zm,
            None,
            pred,
            AggKind::Positions,
            &ExecPolicy::sequential(),
        );
        let want = execute_reference(&data, pred, AggKind::Positions);
        assert_eq!(got, want);
        assert_eq!(m.shards.last().unwrap().rows, 0);
    }
}
