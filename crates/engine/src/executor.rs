//! The scan executor: the one-lane front doors and the work-item kernels.
//!
//! [`execute`] / [`execute_with_policy`] run one query end-to-end through
//! the inline protocol ([`Lane::run`]): the index says what to scan, the
//! kernels here run over exactly those ranges and answer the aggregate,
//! and the per-range observations (qualifying counts, plus the exact
//! min/max or value mask wherever the prune asked for them, computed as
//! by-products of the same pass) go back to the index.
//!
//! ## Parallel execution
//!
//! [`execute_with_policy`] cuts the prune outcome's scan units (plus the
//! full-match ranges, for value-reading aggregates) into contiguous runs
//! and scans them on scoped worker threads
//! ([`crate::sharded_exec::ScanPlan`]). Every work item produces its
//! result independently and the executor merges them **in item order** —
//! the exact order the sequential loop folds in — so answers (including
//! floating-point SUMs), the observation feedback, and therefore all
//! adaptation downstream are bit-identical at any thread count.
//! Parallelism changes latency, never state.

use crate::exec_policy::ExecPolicy;
use crate::lane::Lane;
use crate::metrics::QueryMetrics;
use ads_core::{
    PruneOutcome, RangeObservation, RangePredicate, ScanObservation, SkippingIndex, UnitRequest,
};
use ads_storage::scan::{self, Bins, Bounds, ByProduct, Liveness, NoByProduct};
use ads_storage::{DataValue, DeleteVector, RowRange};

/// Which aggregate a scan query computes over the qualifying rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggKind {
    /// Number of qualifying rows.
    Count,
    /// Sum of qualifying values (as `f64`).
    Sum,
    /// Minimum qualifying value.
    Min,
    /// Maximum qualifying value.
    Max,
    /// The qualifying base-table row ids, ascending.
    Positions,
}

/// The result of one query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryAnswer<T: DataValue> {
    /// Number of qualifying rows (computed for every aggregate kind).
    pub count: u64,
    /// Sum of qualifying values; `Some` only for [`AggKind::Sum`].
    pub sum: Option<f64>,
    /// Minimum qualifying value; `Some` for [`AggKind::Min`] with matches.
    pub min: Option<T>,
    /// Maximum qualifying value; `Some` for [`AggKind::Max`] with matches.
    pub max: Option<T>,
    /// Qualifying base row ids; `Some` only for [`AggKind::Positions`].
    pub positions: Option<Vec<u32>>,
}

impl<T: DataValue> Default for QueryAnswer<T> {
    fn default() -> Self {
        QueryAnswer {
            count: 0,
            sum: None,
            min: None,
            max: None,
            positions: None,
        }
    }
}

/// One parallelisable piece of a query's scan work.
#[derive(Debug, Clone, Copy)]
pub(crate) enum WorkItem {
    /// A full-match range whose values must still be read (SUM/MIN/MAX).
    Full(RowRange),
    /// One scan unit of the prune outcome, with the by-products this scan
    /// will compute for it.
    Unit(RowRange, UnitRequest),
    /// One positional unit over a reorganized zone: index into the
    /// outcome's `reorg_units`, plus the qualifying+edge row count for
    /// load balancing (the zone's other rows are never touched).
    Reorg { idx: usize, rows: usize },
}

impl WorkItem {
    pub(crate) fn rows(&self) -> usize {
        match self {
            WorkItem::Full(r) | WorkItem::Unit(r, _) => r.len(),
            WorkItem::Reorg { rows, .. } => *rows,
        }
    }
}

/// What scanning one [`WorkItem`] produced; merged in item order.
pub(crate) struct ItemResult<T: DataValue> {
    /// Observation to feed back (`None` for full-match items).
    obs: Option<RangeObservation<T>>,
    /// Qualifying rows (all rows, for full-match items).
    count: usize,
    /// Partial SUM of qualifying values.
    sum: f64,
    /// MIN over qualifying rows (fold identity when none).
    match_min: T,
    /// MAX over qualifying rows (fold identity when none).
    match_max: T,
    /// Qualifying positions (POSITIONS only).
    positions: Vec<u32>,
}

/// Executes `pred` with aggregate `agg` over `data` using `index`, with
/// the default sequential [`ExecPolicy`].
///
/// Returns the answer plus per-query metrics. The index's adaptation (if
/// any) happens inside this call, and its cost is included in `wall_ns` —
/// adaptive structures pay their reorganisation on the query path, exactly
/// as the paper frames it.
pub fn execute<T: DataValue>(
    data: &[T],
    index: &mut dyn SkippingIndex<T>,
    pred: RangePredicate<T>,
    agg: AggKind,
) -> (QueryAnswer<T>, QueryMetrics) {
    execute_with_policy(data, index, pred, agg, &ExecPolicy::sequential())
}

/// As [`execute`], with an explicit execution policy: the one-lane call
/// of [`Lane::run`]. Answers and post-query index state are identical
/// under every policy; only latency (and `threads_used`) differ.
pub fn execute_with_policy<T: DataValue>(
    data: &[T],
    index: &mut dyn SkippingIndex<T>,
    pred: RangePredicate<T>,
    agg: AggKind,
    policy: &ExecPolicy,
) -> (QueryAnswer<T>, QueryMetrics) {
    let (answer, metrics) = Lane::run(&mut [Lane::new(data, index)], pred, agg, policy);
    (answer, metrics.query)
}

/// Timing and sizing facts of one scan phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScanPhase {
    /// Rows the scan actually touched (full-match rows excluded).
    pub rows_scanned: usize,
    /// The share of `rows_scanned` that also paid for metadata
    /// construction: rows of units scanned with a by-product kernel
    /// because the index asked for bounds or bins there.
    pub rows_with_byproducts: usize,
    /// Worker threads used (1 = sequential).
    pub threads_used: usize,
    /// Wall nanoseconds of the scan phase.
    pub scan_ns: u64,
}

/// Builds the work list of one prune outcome: full-match ranges first
/// (only when their values must be read), then the scan units and
/// positional reorg units merged by ascending zone start — the order the
/// answer fold visits them, which keeps f64 accumulation bit-identical
/// between sequential and parallel execution *and* between the flat and
/// reorganized layouts (a reorg item folds exactly where the same zone's
/// flat unit would).
pub(crate) fn build_work_items(outcome: &PruneOutcome, agg: AggKind) -> Vec<WorkItem> {
    let reads_full_values = matches!(agg, AggKind::Sum | AggKind::Min | AggKind::Max);
    let fulls = if reads_full_values {
        outcome.full_match.ranges()
    } else {
        &[]
    };
    let units = outcome.units();
    let reorg = &outcome.reorg_units;
    let mut items: Vec<WorkItem> = Vec::with_capacity(fulls.len() + units.len() + reorg.len());
    items.extend(fulls.iter().map(|r| WorkItem::Full(*r)));
    let (mut ui, mut ri) = (0usize, 0usize);
    while ui < units.len() || ri < reorg.len() {
        let take_unit = match (units.get(ui), reorg.get(ri)) {
            (Some(u), Some(r)) => u.start < r.zone.start,
            (Some(_), None) => true,
            _ => false,
        };
        if take_unit {
            let mut request = outcome.unit_request(ui);
            if agg != AggKind::Count {
                // Bins ride on COUNT scans only; on the others the zone
                // keeps asking until a COUNT comes by.
                request.bins = None;
            }
            items.push(WorkItem::Unit(units[ui], request));
            ui += 1;
        } else {
            items.push(WorkItem::Reorg {
                idx: ri,
                rows: reorg[ri].full_rows() + reorg[ri].edge_rows(),
            });
            ri += 1;
        }
    }
    items
}

/// One outcome's merged scan: what [`merge_item_results`] produces.
pub(crate) struct MergedLane<T: DataValue> {
    pub(crate) answer: QueryAnswer<T>,
    pub(crate) observation: ScanObservation<T>,
    /// See [`ScanPhase::rows_scanned`].
    pub(crate) rows_scanned: usize,
    /// See [`ScanPhase::rows_with_byproducts`].
    pub(crate) rows_with_byproducts: usize,
}

/// Folds one outcome's [`ItemResult`]s in item order into the answer and
/// the observation batch. `results` must align 1:1 with `items` (which
/// must come from [`build_work_items`] on the same outcome).
pub(crate) fn merge_item_results<T: DataValue, L: Liveness>(
    outcome: &PruneOutcome,
    pred: RangePredicate<T>,
    agg: AggKind,
    items: &[WorkItem],
    results: Vec<ItemResult<T>>,
    live: L,
) -> MergedLane<T> {
    let mut answer = QueryAnswer::default();
    let mut rows_scanned = 0usize;
    let mut rows_with_byproducts = 0usize;

    // Merge phase: fold results in item order.
    let mut sum = 0.0f64;
    let mut mmin = T::MAX_VALUE;
    let mut mmax = T::MIN_VALUE;
    for (item, r) in items.iter().zip(&results) {
        answer.count += r.count as u64;
        sum += r.sum;
        mmin = mmin.min_total(r.match_min);
        mmax = mmax.max_total(r.match_max);
        match item {
            WorkItem::Unit(_, request) => {
                rows_scanned += item.rows();
                if request.wants_any() {
                    rows_with_byproducts += item.rows();
                }
            }
            // Positional units only touch (and predicate-test) their edge
            // pieces; the full span is answered without per-row tests.
            WorkItem::Reorg { idx, .. } => rows_scanned += outcome.reorg_units[*idx].edge_rows(),
            WorkItem::Full(_) => {}
        }
    }
    match agg {
        AggKind::Count => {
            // Full-match rows are answered from metadata alone: the
            // range length, less the delete vector's popcount if any.
            answer.count += outcome
                .full_match
                .ranges()
                .iter()
                .map(|r| live.live_count(r.start, r.end))
                .sum::<usize>() as u64;
        }
        AggKind::Sum => answer.sum = Some(sum),
        AggKind::Min => answer.min = (answer.count > 0).then_some(mmin),
        AggKind::Max => answer.max = (answer.count > 0).then_some(mmax),
        AggKind::Positions => {
            // POSITIONS items are units and reorg units in ascending
            // start order, aligned 1:1 with results: merge-walk the
            // full-match ranges against the item stream so
            // base-coordinate output comes out sorted.
            let full_ranges = outcome.full_match.ranges();
            let mut positions: Vec<u32> =
                Vec::with_capacity(results.iter().map(|r| r.positions.len()).sum::<usize>());
            // A full-match range contributes its live rows, no value read.
            let push_full = |f: RowRange, positions: &mut Vec<u32>, count: &mut u64| {
                let before = positions.len();
                scan::live_positions(live, f.start, f.end, positions);
                *count += (positions.len() - before) as u64;
            };
            let mut fi = 0usize;
            for (item, r) in items.iter().zip(&results) {
                let item_start = match item {
                    WorkItem::Unit(u, _) => u.start,
                    WorkItem::Reorg { idx, .. } => outcome.reorg_units[*idx].zone.start,
                    // Full items are never built for POSITIONS.
                    WorkItem::Full(_) => continue,
                };
                while fi < full_ranges.len() && full_ranges[fi].start < item_start {
                    push_full(full_ranges[fi], &mut positions, &mut answer.count);
                    fi += 1;
                }
                positions.extend_from_slice(&r.positions);
            }
            while fi < full_ranges.len() {
                push_full(full_ranges[fi], &mut positions, &mut answer.count);
                fi += 1;
            }
            answer.positions = Some(positions);
        }
    }
    let mut observations: Vec<RangeObservation<T>> = Vec::with_capacity(outcome.units().len());
    observations.extend(results.into_iter().filter_map(|r| r.obs));

    MergedLane {
        answer,
        observation: ScanObservation {
            predicate: pred,
            ranges: observations,
        },
        rows_scanned,
        rows_with_byproducts,
    }
}

/// Marks the base rows qualifying inside one reorg unit in a zone-local
/// bitmap (bit `i` = base row `zone.start + i`): the full span's rowids
/// wholesale plus edge rows passing the predicate. Replaying the bitmap
/// with [`for_each_set_row`] recovers ascending base order in O(zone)
/// word scans instead of the O(k log k) sort a rowid list would need —
/// and ascending base order is what makes downstream f64 accumulation
/// match the flat scan bit for bit.
fn reorg_unit_bitmap<T: DataValue>(
    unit: &ads_core::ReorgUnit,
    values: &[T],
    rowids: &[u32],
    pred: RangePredicate<T>,
) -> (Vec<u64>, usize) {
    let zone_start = unit.zone.start;
    let mut bits = vec![0u64; (unit.zone.end - zone_start).div_ceil(64)];
    let mut count = unit.full_rows();
    for &r in &rowids[unit.full.start..unit.full.end] {
        // narrowing: u32 row id to usize is lossless on 32/64-bit hosts.
        let off = r as usize - zone_start;
        bits[off / 64] |= 1 << (off % 64);
    }
    for e in unit.edges.iter().flatten() {
        for (i, v) in values[e.start..e.end].iter().enumerate() {
            if pred.matches(*v) {
                // narrowing: u32 row id to usize is lossless here too.
                let off = rowids[e.start + i] as usize - zone_start;
                bits[off / 64] |= 1 << (off % 64);
                count += 1;
            }
        }
    }
    (bits, count)
}

/// Visits the base rows of a zone-local bitmap in ascending order.
fn for_each_set_row(bits: &[u64], zone_start: usize, mut f: impl FnMut(usize)) {
    for (w, &packed) in bits.iter().enumerate() {
        let mut word = packed;
        while word != 0 {
            // narrowing: trailing_zeros of a u64 is at most 64.
            f(zone_start + w * 64 + word.trailing_zeros() as usize);
            word &= word - 1;
        }
    }
}

/// Answers `agg` over one scan unit (`base` is the row of `slice[0]` in
/// `live`'s coordinates) into `out`, feeding every row to `by`.
fn scan_unit<T: DataValue, L: Liveness, B: ByProduct<T>>(
    slice: &[T],
    pred: RangePredicate<T>,
    agg: AggKind,
    live: L,
    base: usize,
    by: &mut B,
    out: &mut ItemResult<T>,
) {
    let (lo, hi) = (pred.lo, pred.hi);
    match agg {
        AggKind::Count => out.count = scan::count(slice, lo, hi, live, base, by),
        AggKind::Sum => (out.count, out.sum) = scan::sum(slice, lo, hi, live, base, by),
        AggKind::Min | AggKind::Max => {
            let m = scan::aggregate(slice, lo, hi, live, base, by);
            (out.count, out.match_min, out.match_max) = (m.count, m.min, m.max);
        }
        AggKind::Positions => {
            out.count = scan::collect(slice, lo, hi, live, base, &mut out.positions, by)
        }
    }
}

/// Scans one work item. Pure with respect to shared state: reads
/// `target` (and, for reorg items, the outcome's payloads), writes only
/// its own result — safe to run on any thread.
pub(crate) fn scan_item<T: DataValue, L: Liveness>(
    target: &[T],
    reorg_units: &[ads_core::ReorgUnit],
    pred: RangePredicate<T>,
    agg: AggKind,
    item: &WorkItem,
    live: L,
) -> ItemResult<T> {
    let mut out = ItemResult {
        obs: None,
        count: 0,
        sum: 0.0,
        match_min: T::MAX_VALUE,
        match_max: T::MIN_VALUE,
        positions: Vec::new(),
    };
    match *item {
        WorkItem::Full(r) => {
            // Every live row qualifies: no predicate re-evaluation,
            // values only.
            let slice = &target[r.start..r.end];
            match agg {
                AggKind::Sum => (out.count, out.sum) = scan::sum_rows(slice, live, r.start),
                _ => {
                    out.count = live.live_count(r.start, r.end);
                    if let Some((lo, hi)) = scan::min_max_rows(slice, live, r.start) {
                        out.match_min = lo;
                        out.match_max = hi;
                    }
                }
            }
        }
        WorkItem::Unit(u, request) => {
            // The kernel is picked from what the index asked for: a unit
            // nothing can be learnt from runs the bare answer loop.
            let slice = &target[u.start..u.end];
            let mut obs = RangeObservation::answer_only(u, 0);
            match (request.bounds, request.bins) {
                (false, None) => {
                    scan_unit(slice, pred, agg, live, u.start, &mut NoByProduct, &mut out)
                }
                (true, None) => {
                    let mut bounds = Bounds::new();
                    scan_unit(slice, pred, agg, live, u.start, &mut bounds, &mut out);
                    obs.bounds = Some(bounds.min_max());
                }
                (false, Some(layout)) => {
                    let mut bins = Bins::new(layout.lo_f, layout.hi_f);
                    scan_unit(slice, pred, agg, live, u.start, &mut bins, &mut out);
                    obs.mask = Some(bins.mask());
                }
                (true, Some(layout)) => {
                    let mut by = (Bounds::new(), Bins::new(layout.lo_f, layout.hi_f));
                    scan_unit(slice, pred, agg, live, u.start, &mut by, &mut out);
                    obs.bounds = Some(by.0.min_max());
                    obs.mask = Some(by.1.mask());
                }
            }
            obs.qualifying = out.count;
            out.obs = Some(obs);
        }
        WorkItem::Reorg { idx, .. } => {
            let unit = &reorg_units[idx];
            let payload = unit
                .payload
                .downcast_ref::<ads_storage::ReorgZone<T>>()
                // invariant: the prune that emitted this unit built the
                // payload from the same column, so T always matches.
                .expect("reorg payload downcasts to the column's value type");
            let values = payload.values();
            let rowids = payload.rowids();
            let (zmin, zmax) = payload.min_max();
            if !L::ALL_LIVE {
                // Under deletes every aggregate routes through the
                // zone-local qualifying bitmap ANDed word-wise with the
                // live windows: positional full spans can no longer be
                // answered from counts alone, and replaying the masked
                // bitmap in ascending base order keeps SUM bit-identical
                // to the masked flat scan.
                let (mut bits, _) = reorg_unit_bitmap(unit, values, rowids, pred);
                let zone_start = unit.zone.start;
                let mut count = 0usize;
                for (w, word) in bits.iter_mut().enumerate() {
                    *word &= live.window(zone_start + w * 64);
                    // narrowing: count_ones of a u64 is at most 64.
                    count += word.count_ones() as usize;
                }
                out.count = count;
                match agg {
                    AggKind::Count => {}
                    AggKind::Sum => {
                        let mut sum = 0.0;
                        for_each_set_row(&bits, zone_start, |r| sum += target[r].to_f64());
                        out.sum = sum;
                    }
                    AggKind::Min | AggKind::Max => {
                        // Reading base values: identical bit patterns to
                        // the view copies, and min/max folds are
                        // order-independent.
                        for_each_set_row(&bits, zone_start, |r| {
                            out.match_min = out.match_min.min_total(target[r]);
                            out.match_max = out.match_max.max_total(target[r]);
                        });
                    }
                    AggKind::Positions => {
                        out.positions.reserve(count);
                        for_each_set_row(&bits, zone_start, |r| {
                            // narrowing: row ids are u32 by storage-wide
                            // contract (columns bounded below 2^32 rows).
                            out.positions.push(r as u32);
                        });
                    }
                }
                out.obs = Some(RangeObservation::new(unit.zone, out.count, zmin, zmax));
                return out;
            }
            match agg {
                AggKind::Count => {
                    let mut q = unit.full_rows();
                    for e in unit.edges.iter().flatten() {
                        q += values[e.start..e.end]
                            .iter()
                            .filter(|v| pred.matches(**v))
                            .count();
                    }
                    out.count = q;
                }
                AggKind::Sum => {
                    let (bits, count) = reorg_unit_bitmap(unit, values, rowids, pred);
                    out.count = count;
                    // Ascending base-row accumulation: the exact order a
                    // flat scan of this zone adds in, so the partial sum
                    // is bit-identical across layouts.
                    let mut sum = 0.0;
                    for_each_set_row(&bits, unit.zone.start, |r| sum += target[r].to_f64());
                    out.sum = sum;
                }
                AggKind::Min | AggKind::Max => {
                    let mut q = unit.full_rows();
                    for &v in &values[unit.full.start..unit.full.end] {
                        out.match_min = out.match_min.min_total(v);
                        out.match_max = out.match_max.max_total(v);
                    }
                    // min_total/max_total folds are order-independent at
                    // the bit level (total-order ties have identical bit
                    // patterns), so view order is as good as base order.
                    for e in unit.edges.iter().flatten() {
                        for &v in &values[e.start..e.end] {
                            if pred.matches(v) {
                                q += 1;
                                out.match_min = out.match_min.min_total(v);
                                out.match_max = out.match_max.max_total(v);
                            }
                        }
                    }
                    out.count = q;
                }
                AggKind::Positions => {
                    let (bits, count) = reorg_unit_bitmap(unit, values, rowids, pred);
                    out.count = count;
                    out.positions.reserve(count);
                    for_each_set_row(&bits, unit.zone.start, |r| {
                        // narrowing: row ids are u32 by storage-wide
                        // contract (columns are bounded below 2^32 rows).
                        out.positions.push(r as u32);
                    });
                }
            }
            // The payload's build-time (min, max) covers every zone row —
            // the same exact metadata a flat scan would feed back.
            out.obs = Some(RangeObservation::new(unit.zone, out.count, zmin, zmax));
        }
    }
    out
}

/// Reference implementation used by tests and the soundness harness:
/// answers the same query with a plain scan, no index involved.
// api: the reference oracle of the correctness, sharding, property and
// stress suites in tests/ and crates/server/tests/.
pub fn execute_reference<T: DataValue>(
    data: &[T],
    pred: RangePredicate<T>,
    agg: AggKind,
) -> QueryAnswer<T> {
    let outcome = PruneOutcome::scan_all(data.len());
    let mut answer = QueryAnswer::default();
    match agg {
        AggKind::Count => {
            // live: delete-free reference by contract — callers with
            // tombstones use `execute_reference_with_deletes`.
            answer.count = scan::count_in_range(data, pred.lo, pred.hi) as u64;
        }
        AggKind::Sum => {
            // live: same delete-free reference contract.
            let (c, s) = scan::sum_in_range(data, pred.lo, pred.hi);
            answer.count = c as u64;
            answer.sum = Some(s);
        }
        AggKind::Min | AggKind::Max => {
            // live: same delete-free reference contract.
            let a = scan::aggregate_in_range(data, pred.lo, pred.hi);
            answer.count = a.count as u64;
            if a.count > 0 {
                match agg {
                    AggKind::Min => answer.min = Some(a.match_min),
                    AggKind::Max => answer.max = Some(a.match_max),
                    _ => unreachable!(),
                }
            }
        }
        AggKind::Positions => {
            let mut positions = Vec::new();
            for r in outcome.must_scan.ranges() {
                // live: same delete-free reference contract.
                scan::collect_in_range(
                    &data[r.start..r.end],
                    r.start,
                    pred.lo,
                    pred.hi,
                    &mut positions,
                );
            }
            answer.count = positions.len() as u64;
            answer.positions = Some(positions);
        }
    }
    answer
}

/// Delete-aware reference: answers the query with a naive per-row loop
/// over the live rows, no index and no block kernels involved. The f64
/// SUM accumulates in ascending row order, so masked execution must match
/// it bit for bit; positions come back in original row coordinates.
// api: the reference oracle of the masked-scan tests in lane.rs and
// sharded_exec.rs.
pub fn execute_reference_with_deletes<T: DataValue>(
    data: &[T],
    live: &DeleteVector,
    pred: RangePredicate<T>,
    agg: AggKind,
) -> QueryAnswer<T> {
    assert_eq!(data.len(), live.len(), "delete vector must cover the data");
    let mut answer = QueryAnswer::default();
    let mut sum = 0.0f64;
    let mut mmin = T::MAX_VALUE;
    let mut mmax = T::MIN_VALUE;
    let mut positions = Vec::new();
    for (i, &v) in data.iter().enumerate() {
        if live.is_deleted(i) || !pred.matches(v) {
            continue;
        }
        answer.count += 1;
        match agg {
            AggKind::Sum => sum += v.to_f64(),
            AggKind::Min | AggKind::Max => {
                mmin = mmin.min_total(v);
                mmax = mmax.max_total(v);
            }
            // narrowing: row ids are u32 by the storage-wide contract.
            AggKind::Positions => positions.push(i as u32),
            AggKind::Count => {}
        }
    }
    match agg {
        AggKind::Count => {}
        AggKind::Sum => answer.sum = Some(sum),
        AggKind::Min => answer.min = (answer.count > 0).then_some(mmin),
        AggKind::Max => answer.max = (answer.count > 0).then_some(mmax),
        AggKind::Positions => answer.positions = Some(positions),
    }
    answer
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::Strategy;

    fn data() -> Vec<i64> {
        (0..5000).map(|i| (i * 2654435761i64) % 1000).collect()
    }

    /// A policy that always parallelises at test scale.
    fn eager(threads: usize) -> ExecPolicy {
        ExecPolicy {
            threads,
            min_rows_per_thread: 1,
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
    fn every_strategy_matches_reference_on_count() {
        let data = data();
        for strat in Strategy::roster() {
            let mut idx = strat.build_index(&data);
            for q in 0..25 {
                let lo = (q * 41) % 900;
                let pred = RangePredicate::between(lo, lo + 75);
                let (ans, _) = execute(&data, idx.as_mut(), pred, AggKind::Count);
                let expected = execute_reference(&data, pred, AggKind::Count);
                assert_eq!(ans.count, expected.count, "{} q{}", strat.label(), q);
            }
        }
    }

    #[test]
    fn every_strategy_matches_reference_on_sum() {
        let data = data();
        for strat in Strategy::roster() {
            let mut idx = strat.build_index(&data);
            let pred = RangePredicate::between(100, 300);
            let (ans, _) = execute(&data, idx.as_mut(), pred, AggKind::Sum);
            let expected = execute_reference(&data, pred, AggKind::Sum);
            assert_eq!(ans.count, expected.count, "{}", strat.label());
            let (a, b) = (ans.sum.unwrap(), expected.sum.unwrap());
            assert!((a - b).abs() < 1e-6, "{}: {a} vs {b}", strat.label());
        }
    }

    #[test]
    fn every_strategy_matches_reference_on_min_max() {
        let data = data();
        for strat in Strategy::roster() {
            let mut idx = strat.build_index(&data);
            let pred = RangePredicate::between(250, 750);
            let (mn, _) = execute(&data, idx.as_mut(), pred, AggKind::Min);
            let (mx, _) = execute(&data, idx.as_mut(), pred, AggKind::Max);
            let emn = execute_reference(&data, pred, AggKind::Min);
            let emx = execute_reference(&data, pred, AggKind::Max);
            assert_eq!(mn.min, emn.min, "{}", strat.label());
            assert_eq!(mx.max, emx.max, "{}", strat.label());
        }
    }

    #[test]
    fn every_strategy_matches_reference_on_positions() {
        let data = data();
        for strat in Strategy::roster() {
            let mut idx = strat.build_index(&data);
            let pred = RangePredicate::between(42, 77);
            let (ans, _) = execute(&data, idx.as_mut(), pred, AggKind::Positions);
            let expected = execute_reference(&data, pred, AggKind::Positions);
            assert_eq!(
                ans.positions,
                expected.positions,
                "{} positions differ",
                strat.label()
            );
        }
    }

    #[test]
    fn parallel_answers_identical_to_sequential_for_every_strategy() {
        let data = data();
        for strat in Strategy::roster() {
            for agg in ALL_AGGS {
                for threads in [2, 3, 8] {
                    // Fresh index per run so both executors see the same
                    // adaptation history.
                    let mut seq_idx = strat.build_index(&data);
                    let mut par_idx = strat.build_index(&data);
                    for q in 0..8 {
                        let lo = (q * 173) % 800;
                        let pred = RangePredicate::between(lo, lo + 120);
                        let (seq, sm) = execute_with_policy(
                            &data,
                            seq_idx.as_mut(),
                            pred,
                            agg,
                            &ExecPolicy::sequential(),
                        );
                        let (par, pm) = execute_with_policy(
                            &data,
                            par_idx.as_mut(),
                            pred,
                            agg,
                            &eager(threads),
                        );
                        assert_eq!(seq, par, "{} {agg:?} t={threads} q{q}", strat.label());
                        assert_eq!(
                            (
                                sm.rows_scanned,
                                sm.rows_matched,
                                sm.zones_probed,
                                sm.zones_skipped
                            ),
                            (
                                pm.rows_scanned,
                                pm.rows_matched,
                                pm.zones_probed,
                                pm.zones_skipped
                            ),
                            "{} {agg:?} t={threads} q{q}: metrics diverged",
                            strat.label()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_sum_is_bit_identical() {
        // f64 addition is not associative, so this only holds because the
        // merge folds partial sums in unit order.
        let data: Vec<f64> = (0..50_000).map(|i| (i as f64) * 0.1 + 0.7).collect();
        let mut idx1 = Strategy::StaticZonemap { zone_rows: 777 }.build_index(&data);
        let mut idx2 = Strategy::StaticZonemap { zone_rows: 777 }.build_index(&data);
        let pred = RangePredicate::between(10.0, 4900.0);
        let (seq, _) = execute(&data, idx1.as_mut(), pred, AggKind::Sum);
        let (par, _) = execute_with_policy(&data, idx2.as_mut(), pred, AggKind::Sum, &eager(8));
        assert_eq!(seq.sum.unwrap().to_bits(), par.sum.unwrap().to_bits());
    }

    #[test]
    fn threads_used_respects_profitability_floor() {
        let data = data();
        let mut idx = Strategy::FullScan.build_index(&data);
        let policy = ExecPolicy {
            threads: 8,
            min_rows_per_thread: 1 << 20,
        };
        let (_, m) = execute_with_policy(
            &data,
            idx.as_mut(),
            RangePredicate::all(),
            AggKind::Count,
            &policy,
        );
        assert_eq!(m.threads_used, 1, "5k rows cannot feed 8 threads");
        let (_, m2) = execute_with_policy(
            &data,
            idx.as_mut(),
            RangePredicate::all(),
            AggKind::Count,
            &eager(4),
        );
        assert_eq!(m2.threads_used, 4);
    }

    #[test]
    fn phase_breakdown_is_populated() {
        let data = data();
        let mut idx = Strategy::StaticZonemap { zone_rows: 500 }.build_index(&data);
        let (_, m) = execute(
            &data,
            idx.as_mut(),
            RangePredicate::between(0, 500),
            AggKind::Count,
        );
        assert!(m.scan_ns > 0);
        assert!(m.wall_ns >= m.prune_ns + m.scan_ns + m.observe_ns - m.wall_ns / 10);
        assert_eq!(m.threads_used, 1);
    }

    #[test]
    fn min_max_none_when_no_matches() {
        let data = data();
        let mut idx = Strategy::FullScan.build_index(&data);
        let pred = RangePredicate::between(5000, 6000);
        let (ans, _) = execute(&data, idx.as_mut(), pred, AggKind::Min);
        assert_eq!(ans.count, 0);
        assert_eq!(ans.min, None);
    }

    #[test]
    fn metrics_reflect_skipping() {
        let sorted: Vec<i64> = (0..10_000).collect();
        let mut idx = Strategy::StaticZonemap { zone_rows: 500 }.build_index(&sorted);
        let pred = RangePredicate::between(100, 200);
        let (_, m) = execute(&sorted, idx.as_mut(), pred, AggKind::Count);
        assert_eq!(m.zones_probed, 20);
        assert!(m.zones_skipped >= 18);
        assert!(m.rows_scanned <= 1000);
        assert!(m.wall_ns > 0);
    }

    #[test]
    fn empty_data() {
        let data: Vec<i64> = Vec::new();
        let mut idx = Strategy::FullScan.build_index(&data);
        let (ans, m) = execute(&data, idx.as_mut(), RangePredicate::all(), AggKind::Count);
        assert_eq!(ans.count, 0);
        assert_eq!(m.rows_scanned, 0);
    }
}
