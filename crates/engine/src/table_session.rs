//! Multi-column sessions: conjunctive predicates over a table, one
//! skipping index per filtered column.
//!
//! Pruning composes by intersection: each column's index nominates its
//! candidate ranges, the executor scans only the intersection, and rows in
//! the intersection of every column's *full-match* ranges are answered
//! without any scan. View-coordinate strategies (cracking, sorted oracle)
//! emit positions in their own copy's order and therefore cannot join this
//! intersection; constructing a table session with one is an error —
//! matching the literature, where cracking is a single-column technique.

use crate::executor::AggKind;
use crate::metrics::{CumulativeMetrics, QueryMetrics};
use crate::planner::{self, FallbackReason, PlanMode, PlanStep, PlanTrace};
use crate::strategy::Strategy;
use ads_core::{
    CostModel, PruneOutcome, PruneStats, RangeObservation, RangePredicate, ScanObservation,
    SkippingIndex,
};
use ads_storage::{scan, Bitmap, Column, DataValue, RangeSet, StorageError, Table};
use std::collections::BTreeMap;
use std::time::Instant;

/// A range predicate over a column of any supported type.
#[derive(Debug, Clone, Copy)]
pub enum AnyPredicate {
    /// Predicate on an `i32` column.
    I32(RangePredicate<i32>),
    /// Predicate on an `i64` column.
    I64(RangePredicate<i64>),
    /// Predicate on a `u64` column.
    U64(RangePredicate<u64>),
    /// Predicate on an `f64` column.
    F64(RangePredicate<f64>),
}

/// A skipping index over a column of any supported type.
enum AnyIndex {
    I32(Box<dyn SkippingIndex<i32>>),
    I64(Box<dyn SkippingIndex<i64>>),
    U64(Box<dyn SkippingIndex<u64>>),
    F64(Box<dyn SkippingIndex<f64>>),
}

/// Errors from table-session operations.
#[derive(Debug)]
pub enum TableSessionError {
    /// Underlying storage error (missing column, type mismatch, ...).
    Storage(StorageError),
    /// The strategy answers in view coordinates and cannot be intersected.
    ViewStrategy(String),
    /// A conjunct referenced a column with no index.
    NoIndex(String),
    /// Predicate type does not match the column type.
    PredicateType {
        /// Column name.
        column: String,
        /// Stored type.
        expected: &'static str,
    },
    /// A forced probe order was not a permutation of the conjuncts.
    InvalidPlan(String),
}

impl std::fmt::Display for TableSessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TableSessionError::Storage(e) => write!(f, "storage error: {e}"),
            TableSessionError::ViewStrategy(s) => {
                write!(f, "strategy {s} answers in view coordinates; multi-column sessions need base coordinates")
            }
            TableSessionError::NoIndex(c) => write!(f, "no index on column {c}"),
            TableSessionError::PredicateType { column, expected } => {
                write!(
                    f,
                    "predicate type mismatch on {column}: column is {expected}"
                )
            }
            TableSessionError::InvalidPlan(msg) => write!(f, "invalid plan: {msg}"),
        }
    }
}

impl std::error::Error for TableSessionError {}

impl From<StorageError> for TableSessionError {
    fn from(e: StorageError) -> Self {
        TableSessionError::Storage(e)
    }
}

/// Result alias for table-session operations.
pub type Result<T> = std::result::Result<T, TableSessionError>;

/// Every this-many queries, a gated plan probes every conjunct anyway so
/// estimates track a shifting workload.
const EXPLORE_EVERY: u64 = 64;

/// A table plus one skipping index per filtered column.
pub struct TableSession {
    table: Table,
    indexes: BTreeMap<String, AnyIndex>,
    totals: CumulativeMetrics,
    cost: CostModel,
    plan_mode: PlanMode,
    last_plan: Option<PlanTrace>,
}

impl TableSession {
    /// Builds `strategy` indexes over the named columns of `table`.
    pub fn new(table: Table, strategy: &Strategy, columns: &[&str]) -> Result<Self> {
        if !strategy.base_coords() {
            return Err(TableSessionError::ViewStrategy(strategy.label()));
        }
        let t0 = Instant::now();
        let mut indexes = BTreeMap::new();
        for &name in columns {
            let col = table.column(name)?;
            let idx = match col {
                ads_storage::AnyColumn::I32(c) => AnyIndex::I32(strategy.build_index(c.as_slice())),
                ads_storage::AnyColumn::I64(c) => AnyIndex::I64(strategy.build_index(c.as_slice())),
                ads_storage::AnyColumn::U64(c) => AnyIndex::U64(strategy.build_index(c.as_slice())),
                ads_storage::AnyColumn::F64(c) => AnyIndex::F64(strategy.build_index(c.as_slice())),
            };
            indexes.insert(name.to_string(), idx);
        }
        Ok(TableSession {
            table,
            indexes,
            totals: CumulativeMetrics {
                build_ns: t0.elapsed().as_nanos() as u64,
                ..Default::default()
            },
            cost: CostModel::default(),
            plan_mode: PlanMode::default(),
            last_plan: None,
        })
    }

    /// The underlying table.
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// Running totals.
    pub fn totals(&self) -> &CumulativeMetrics {
        &self.totals
    }

    /// Sets how conjunction queries choose their probe order.
    pub fn set_plan_mode(&mut self, mode: PlanMode) {
        self.plan_mode = mode;
    }

    /// The active plan mode.
    pub fn plan_mode(&self) -> &PlanMode {
        &self.plan_mode
    }

    /// The decision record of the most recent conjunction query.
    pub fn last_plan(&self) -> Option<&PlanTrace> {
        self.last_plan.as_ref()
    }

    /// Metadata footprint of the named column's index, in bytes.
    pub fn index_metadata_bytes(&self, column: &str) -> Option<usize> {
        self.indexes.get(column).map(|idx| match idx {
            AnyIndex::I32(i) => i.metadata_bytes(),
            AnyIndex::I64(i) => i.metadata_bytes(),
            AnyIndex::U64(i) => i.metadata_bytes(),
            AnyIndex::F64(i) => i.metadata_bytes(),
        })
    }

    /// Counts rows satisfying every conjunct.
    pub fn count_conjunction(
        &mut self,
        conjuncts: &[(&str, AnyPredicate)],
    ) -> Result<(u64, QueryMetrics)> {
        let (answer, metrics) = self.run_conjunction(conjuncts, AggKind::Count, None)?;
        Ok((answer, metrics))
    }

    /// Sums `agg_column` (any numeric type, as f64) over rows satisfying
    /// every conjunct; returns `(count, sum, metrics)`.
    pub fn sum_conjunction(
        &mut self,
        conjuncts: &[(&str, AnyPredicate)],
        agg_column: &str,
    ) -> Result<(u64, f64, QueryMetrics)> {
        let mut sum = 0.0;
        let (count, metrics) =
            self.run_conjunction(conjuncts, AggKind::Sum, Some((agg_column, &mut sum)))?;
        Ok((count, sum, metrics))
    }

    fn run_conjunction(
        &mut self,
        conjuncts: &[(&str, AnyPredicate)],
        agg: AggKind,
        sum_out: Option<(&str, &mut f64)>,
    ) -> Result<(u64, QueryMetrics)> {
        let t0 = Instant::now();
        let n = self.table.num_rows();
        let mut zones_probed = 0usize;
        let mut zones_skipped = 0usize;

        // Phase 0: validate every conjunct up front — missing-index and
        // type-mismatch errors must fire even for conjuncts the plan would
        // not probe — and collect pre-probe stats for the planner.
        let mut stats: Vec<Option<PruneStats>> = Vec::with_capacity(conjuncts.len());
        for &(name, pred) in conjuncts {
            let idx = self
                .indexes
                .get(name)
                .ok_or_else(|| TableSessionError::NoIndex(name.to_string()))?;
            check_predicate_type(idx, &pred, name)?;
            stats.push(stats_any(idx));
        }
        let plan = planner::build_probe_plan(&self.plan_mode, &stats)
            .map_err(TableSessionError::InvalidPlan)?;
        let explore = plan.gated && self.totals.queries.is_multiple_of(EXPLORE_EVERY);

        // Phase 1: probe in plan order, intersecting each probed column's
        // surviving candidates into `alive` before the next probe runs —
        // restricted probes then only examine metadata still in play.
        let mut alive = RangeSet::full(n);
        let mut outcomes: Vec<Option<PruneOutcome>> = conjuncts.iter().map(|_| None).collect();
        let mut steps: Vec<PlanStep> = Vec::with_capacity(conjuncts.len());
        for &ci in &plan.order {
            let (name, pred) = conjuncts[ci];
            let alive_before = alive.covered_rows();
            let est = stats[ci].map(|s| s.est_skip_fraction);
            let (probe, benefit) = if plan.forced_fallback {
                (false, 0.0)
            } else if plan.gated && !explore {
                match &stats[ci] {
                    // Gating applies only to estimates backed by history;
                    // cold indexes are always probed so they can learn.
                    Some(s) if s.queries_observed > 0 => {
                        let b = planner::probe_benefit(s, alive_before, n, &self.cost);
                        (b > 0.0, b)
                    }
                    _ => (true, 0.0),
                }
            } else {
                (true, 0.0)
            };
            if probe {
                let idx = self
                    .indexes
                    .get_mut(name)
                    // invariant: phase 0 verified the entry exists.
                    .expect("index validated in phase 0");
                let out = if plan.restricted && alive_before < n {
                    prune_any_within(idx, &pred, &alive, name)?
                } else {
                    prune_any(idx, &pred, name)?
                };
                // Shadow oracle: rows outside `alive` were excluded by
                // earlier conjuncts, so this outcome is only accountable
                // for the candidates still in play.
                #[cfg(feature = "audit")]
                audit_verify_any(&self.table, name, &pred, &out, &alive)?;
                zones_probed += out.zones_probed;
                zones_skipped += out.zones_skipped;
                alive = alive.intersect(&out.must_scan.union(&out.full_match));
                steps.push(PlanStep {
                    column: name.to_string(),
                    probed: true,
                    est_skip_fraction: est,
                    est_benefit: benefit,
                    zones_probed: out.zones_probed,
                    zones_skipped: out.zones_skipped,
                    alive_before,
                    alive_after: alive.covered_rows(),
                });
                outcomes[ci] = Some(out);
            } else {
                steps.push(PlanStep {
                    column: name.to_string(),
                    probed: false,
                    est_skip_fraction: est,
                    est_benefit: benefit,
                    zones_probed: 0,
                    zones_skipped: 0,
                    alive_before,
                    alive_after: alive_before,
                });
            }
        }
        let conjuncts_probed = outcomes.iter().filter(|o| o.is_some()).count();
        let fallback = if conjuncts_probed == 0 && !conjuncts.is_empty() {
            Some(if plan.forced_fallback {
                FallbackReason::Forced
            } else {
                FallbackReason::NoProfitableProbe
            })
        } else {
            None
        };

        // Rows in every column's full-match ranges qualify outright — but
        // only when every conjunct was probed: an unprobed conjunct has
        // certified nothing, so its rows must go through the filter.
        let all_full = if conjuncts_probed == conjuncts.len() && !conjuncts.is_empty() {
            let mut af: Option<RangeSet> = None;
            for out in outcomes.iter().flatten() {
                af = Some(match af {
                    None => out.full_match.clone(),
                    Some(prev) => prev.intersect(&out.full_match),
                });
            }
            af.unwrap_or_default()
        } else {
            RangeSet::new()
        };
        let prune_ns = t0.elapsed().as_nanos() as u64;
        let t_scan = Instant::now();

        let mut count = all_full.covered_rows() as u64;
        let to_scan = alive.intersect(&all_full.complement(n));

        // Phase 2: scan the remaining candidate ranges, AND-ing per-column
        // qualification bitmaps. Ranges are cut at every column's scan-unit
        // boundaries so that the observations fed back in phase 4 align
        // with zone boundaries — without this, adaptive zonemaps could
        // never materialise metadata from multi-column scans.
        let mut cuts: Vec<usize> = Vec::new();
        for out in outcomes.iter().flatten() {
            for u in out.units() {
                cuts.push(u.start);
                cuts.push(u.end);
            }
        }
        cuts.sort_unstable();
        cuts.dedup();
        let mut scan_pieces: Vec<ads_storage::RowRange> = Vec::new();
        for r in to_scan.ranges() {
            let mut start = r.start;
            let lo = cuts.partition_point(|&c| c <= r.start);
            let hi = cuts.partition_point(|&c| c < r.end);
            for &c in &cuts[lo..hi] {
                if c > start {
                    scan_pieces.push(ads_storage::RowRange::new(start, c));
                    start = c;
                }
            }
            if start < r.end {
                scan_pieces.push(ads_storage::RowRange::new(start, r.end));
            }
        }

        let mut rows_scanned = 0usize;
        let mut per_col_obs: BTreeMap<&str, Vec<ObservationRec>> = BTreeMap::new();
        let mut survivors_per_range: Vec<(usize, Bitmap)> = Vec::new();
        for r in &scan_pieces {
            let mut combined: Option<Bitmap> = None;
            for (ci, &(name, pred)) in conjuncts.iter().enumerate() {
                let probed = outcomes[ci].as_ref();
                // A probed column whose full-match covers this range
                // entirely does not constrain it further and needs no
                // scan; an unprobed column always filters.
                if let Some(out) = probed {
                    if out.full_match.covers_span(r.start, r.end) {
                        continue;
                    }
                }
                let mut bm = Bitmap::new(r.len());
                let (q, bounds) = fill_any(&self.table, name, &pred, r.start, r.end, &mut bm)?;
                rows_scanned += r.len();
                // Observations feed back only to probed indexes — observe
                // without the matching prune would desynchronise an
                // adaptive structure's query clock.
                if probed.is_some() {
                    per_col_obs.entry(name).or_default().push(ObservationRec {
                        start: r.start,
                        end: r.end,
                        qualifying: q,
                        bounds,
                    });
                }
                combined = Some(match combined {
                    None => bm,
                    Some(mut prev) => {
                        prev.intersect_with(&bm);
                        prev
                    }
                });
            }
            let survivors = combined.unwrap_or_else(|| Bitmap::ones(r.len()));
            count += survivors.count_ones() as u64;
            if agg == AggKind::Sum {
                survivors_per_range.push((r.start, survivors));
            }
        }

        // Phase 3: optional SUM over the aggregate column.
        if let Some((agg_col, sum)) = sum_out {
            let col = self.table.column(agg_col)?;
            let mut total = 0.0f64;
            // Full-match rows qualify entirely.
            for r in all_full.ranges() {
                total += sum_any_range(col, r.start, r.end);
            }
            for (start, bm) in &survivors_per_range {
                // Word-wise walk: skip empty words outright, iterate set
                // bits of the rest in ascending order (deterministic sum).
                for (w, word) in bm.iter_set_words() {
                    let word_base = start + w * 64;
                    let mut m = word;
                    while m != 0 {
                        // narrowing: trailing_zeros of a u64 is at most
                        // 64.
                        total += value_as_f64(col, word_base + m.trailing_zeros() as usize);
                        m &= m - 1;
                    }
                }
            }
            *sum = total;
        }

        let scan_ns = t_scan.elapsed().as_nanos() as u64;
        let t_observe = Instant::now();

        // Phase 4: feed observations back per probed column (min/max here
        // are of the scanned range, computed as typed scan by-products).
        for (ci, &(name, pred)) in conjuncts.iter().enumerate() {
            if outcomes[ci].is_none() {
                continue;
            }
            if let Some(obs) = per_col_obs.remove(name) {
                let idx = self
                    .indexes
                    .get_mut(name)
                    // invariant: phase 0 verified the entry exists.
                    .expect("index validated in phase 0");
                observe_any(idx, &pred, obs);
            }
        }
        let observe_ns = t_observe.elapsed().as_nanos() as u64;

        self.last_plan = Some(PlanTrace { steps, fallback });
        let metrics = QueryMetrics {
            wall_ns: t0.elapsed().as_nanos() as u64,
            zones_probed,
            zones_skipped,
            rows_scanned,
            // The bitmap-filling conjunct scan always folds (min, max).
            rows_with_byproducts: rows_scanned,
            rows_full_match: all_full.covered_rows(),
            rows_matched: count,
            adapt_events: 0,
            prune_ns,
            scan_ns,
            observe_ns,
            threads_used: 1,
            conjuncts_probed,
            plan_fallback: fallback.is_some(),
        };
        self.totals.absorb(&metrics);
        Ok((count, metrics))
    }
}

/// Typed `(min, max)` scan by-products, preserved exactly through the
/// type-erased observation path. These used to travel through `f64`; for
/// `i64`/`u64` magnitudes at or above 2^53 the nearest-rounding round-trip
/// could move a recorded zone max *below* the true max (or a min above the
/// true min), making a later predicate falsely skip qualifying rows. Keeping
/// the native type end-to-end removes that failure mode outright.
enum AnyBounds {
    I32(i32, i32),
    I64(i64, i64),
    U64(u64, u64),
    F64(f64, f64),
}

/// Type-erased observation carrying exact typed bounds; converted to the
/// typed observation at the observe step.
struct ObservationRec {
    start: usize,
    end: usize,
    qualifying: usize,
    bounds: AnyBounds,
}

/// The error for a predicate whose type does not match the index's column.
fn type_mismatch(idx: &AnyIndex, _pred: &AnyPredicate, column: &str) -> TableSessionError {
    TableSessionError::PredicateType {
        column: column.to_string(),
        expected: match idx {
            AnyIndex::I32(_) => "i32",
            AnyIndex::I64(_) => "i64",
            AnyIndex::U64(_) => "u64",
            AnyIndex::F64(_) => "f64",
        },
    }
}

/// Validates that `pred`'s type matches the index's column type.
fn check_predicate_type(idx: &AnyIndex, pred: &AnyPredicate, column: &str) -> Result<()> {
    match (idx, pred) {
        (AnyIndex::I32(_), AnyPredicate::I32(_))
        | (AnyIndex::I64(_), AnyPredicate::I64(_))
        | (AnyIndex::U64(_), AnyPredicate::U64(_))
        | (AnyIndex::F64(_), AnyPredicate::F64(_)) => Ok(()),
        (idx, pred) => Err(type_mismatch(idx, pred, column)),
    }
}

/// The index's pre-probe planner summary.
fn stats_any(idx: &AnyIndex) -> Option<PruneStats> {
    match idx {
        AnyIndex::I32(i) => i.prune_stats(),
        AnyIndex::I64(i) => i.prune_stats(),
        AnyIndex::U64(i) => i.prune_stats(),
        AnyIndex::F64(i) => i.prune_stats(),
    }
}

/// The table path derives its alive set from `must_scan ∪ full_match`
/// and re-tests predicates row by row, so positional reorg units must be
/// folded back into plain scan units before the outcome is consumed.
fn demote_if_reorg(out: PruneOutcome) -> PruneOutcome {
    if out.reorg_units.is_empty() {
        out
    } else {
        out.demote_reorg_units()
    }
}

fn prune_any(idx: &mut AnyIndex, pred: &AnyPredicate, column: &str) -> Result<PruneOutcome> {
    match (idx, pred) {
        (AnyIndex::I32(i), AnyPredicate::I32(p)) => Ok(demote_if_reorg(i.prune(p))),
        (AnyIndex::I64(i), AnyPredicate::I64(p)) => Ok(demote_if_reorg(i.prune(p))),
        (AnyIndex::U64(i), AnyPredicate::U64(p)) => Ok(demote_if_reorg(i.prune(p))),
        (AnyIndex::F64(i), AnyPredicate::F64(p)) => Ok(demote_if_reorg(i.prune(p))),
        (idx, pred) => Err(type_mismatch(idx, pred, column)),
    }
}

fn prune_any_within(
    idx: &mut AnyIndex,
    pred: &AnyPredicate,
    alive: &RangeSet,
    column: &str,
) -> Result<PruneOutcome> {
    match (idx, pred) {
        (AnyIndex::I32(i), AnyPredicate::I32(p)) => Ok(demote_if_reorg(i.prune_within(p, alive))),
        (AnyIndex::I64(i), AnyPredicate::I64(p)) => Ok(demote_if_reorg(i.prune_within(p, alive))),
        (AnyIndex::U64(i), AnyPredicate::U64(p)) => Ok(demote_if_reorg(i.prune_within(p, alive))),
        (AnyIndex::F64(i), AnyPredicate::F64(p)) => Ok(demote_if_reorg(i.prune_within(p, alive))),
        (idx, pred) => Err(type_mismatch(idx, pred, column)),
    }
}

/// Cross-checks one conjunct's prune outcome against the base column
/// (see [`ads_core::audit`]). The table path is append-only, so there is
/// no delete vector to thread through; `within` carries the candidate
/// set surviving earlier conjuncts.
#[cfg(feature = "audit")]
fn audit_verify_any(
    table: &Table,
    name: &str,
    pred: &AnyPredicate,
    out: &PruneOutcome,
    within: &RangeSet,
) -> Result<()> {
    fn go<T: DataValue>(
        col: &Column<T>,
        p: &RangePredicate<T>,
        out: &PruneOutcome,
        within: &RangeSet,
    ) {
        ads_core::audit::verify_outcome(
            col.as_slice(),
            None,
            p,
            out,
            Some(within),
            "run_conjunction",
        );
    }
    match pred {
        AnyPredicate::I32(p) => go(table.typed_column::<i32>(name)?, p, out, within),
        AnyPredicate::I64(p) => go(table.typed_column::<i64>(name)?, p, out, within),
        AnyPredicate::U64(p) => go(table.typed_column::<u64>(name)?, p, out, within),
        AnyPredicate::F64(p) => go(table.typed_column::<f64>(name)?, p, out, within),
    }
    Ok(())
}

fn fill_any(
    table: &Table,
    name: &str,
    pred: &AnyPredicate,
    start: usize,
    end: usize,
    bm: &mut Bitmap,
) -> Result<(usize, AnyBounds)> {
    fn go<T: DataValue>(
        col: &Column<T>,
        p: &RangePredicate<T>,
        start: usize,
        end: usize,
        bm: &mut Bitmap,
    ) -> (usize, T, T) {
        // live: the table path is append-only — `TableSession` carries
        // no delete vector, so every row is live.
        scan::fill_bitmap_in_range_with_minmax(col.slice(start, end), 0, p.lo, p.hi, bm)
    }
    match pred {
        AnyPredicate::I32(p) => {
            let (q, lo, hi) = go(table.typed_column::<i32>(name)?, p, start, end, bm);
            Ok((q, AnyBounds::I32(lo, hi)))
        }
        AnyPredicate::I64(p) => {
            let (q, lo, hi) = go(table.typed_column::<i64>(name)?, p, start, end, bm);
            Ok((q, AnyBounds::I64(lo, hi)))
        }
        AnyPredicate::U64(p) => {
            let (q, lo, hi) = go(table.typed_column::<u64>(name)?, p, start, end, bm);
            Ok((q, AnyBounds::U64(lo, hi)))
        }
        AnyPredicate::F64(p) => {
            let (q, lo, hi) = go(table.typed_column::<f64>(name)?, p, start, end, bm);
            Ok((q, AnyBounds::F64(lo, hi)))
        }
    }
}

fn observe_any(idx: &mut AnyIndex, pred: &AnyPredicate, obs: Vec<ObservationRec>) {
    fn go<T: DataValue>(
        idx: &mut Box<dyn SkippingIndex<T>>,
        pred: &RangePredicate<T>,
        obs: Vec<ObservationRec>,
        extract: impl Fn(&AnyBounds) -> Option<(T, T)>,
    ) {
        // Observations whose bounds are not of the column's type cannot
        // occur (fill_any produced them from the same predicate), but the
        // feedback channel is advisory, so dropping beats panicking.
        let ranges = obs
            .into_iter()
            .filter_map(|o| {
                let (min, max) = extract(&o.bounds)?;
                Some(RangeObservation::new(
                    ads_storage::RowRange::new(o.start, o.end),
                    o.qualifying,
                    min,
                    max,
                ))
            })
            .collect();
        idx.observe(&ScanObservation {
            predicate: *pred,
            ranges,
        });
    }
    match (idx, pred) {
        (AnyIndex::I32(i), AnyPredicate::I32(p)) => go(i, p, obs, |b| match b {
            AnyBounds::I32(lo, hi) => Some((*lo, *hi)),
            _ => None,
        }),
        (AnyIndex::I64(i), AnyPredicate::I64(p)) => go(i, p, obs, |b| match b {
            AnyBounds::I64(lo, hi) => Some((*lo, *hi)),
            _ => None,
        }),
        (AnyIndex::U64(i), AnyPredicate::U64(p)) => go(i, p, obs, |b| match b {
            AnyBounds::U64(lo, hi) => Some((*lo, *hi)),
            _ => None,
        }),
        (AnyIndex::F64(i), AnyPredicate::F64(p)) => go(i, p, obs, |b| match b {
            AnyBounds::F64(lo, hi) => Some((*lo, *hi)),
            _ => None,
        }),
        _ => {}
    }
}

fn sum_any_range(col: &ads_storage::AnyColumn, start: usize, end: usize) -> f64 {
    fn go<T: DataValue>(c: &Column<T>, start: usize, end: usize) -> f64 {
        // live: append-only table path — no delete vector exists.
        let (_, s) = scan::sum_in_range(c.slice(start, end), T::MIN_VALUE, T::MAX_VALUE);
        s
    }
    match col {
        ads_storage::AnyColumn::I32(c) => go(c, start, end),
        ads_storage::AnyColumn::I64(c) => go(c, start, end),
        ads_storage::AnyColumn::U64(c) => go(c, start, end),
        ads_storage::AnyColumn::F64(c) => go(c, start, end),
    }
}

fn value_as_f64(col: &ads_storage::AnyColumn, row: usize) -> f64 {
    match col {
        ads_storage::AnyColumn::I32(c) => c.value(row).to_f64(),
        ads_storage::AnyColumn::I64(c) => c.value(row).to_f64(),
        ads_storage::AnyColumn::U64(c) => c.value(row).to_f64(),
        ads_storage::AnyColumn::F64(c) => c.value(row),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ads_core::adaptive::AdaptiveConfig;
    use ads_storage::Column;

    fn make_table(n: usize) -> Table {
        let mut t = Table::new("events");
        let time: Vec<i64> = (0..n as i64).collect();
        let value: Vec<i64> = (0..n).map(|i| ((i as i64) * 2654435761) % 1000).collect();
        let score: Vec<f64> = (0..n).map(|i| (i % 100) as f64 / 10.0).collect();
        t.add_column("time", Column::from_values(time)).unwrap();
        t.add_column("value", Column::from_values(value)).unwrap();
        t.add_column("score", Column::from_values(score)).unwrap();
        t
    }

    fn reference_count(t: &Table, conjuncts: &[(&str, AnyPredicate)]) -> u64 {
        let n = t.num_rows();
        (0..n)
            .filter(|&i| {
                conjuncts.iter().all(|(name, p)| match p {
                    AnyPredicate::I64(p) => {
                        p.matches(t.typed_column::<i64>(name).unwrap().value(i))
                    }
                    AnyPredicate::F64(p) => {
                        p.matches(t.typed_column::<f64>(name).unwrap().value(i))
                    }
                    AnyPredicate::I32(p) => {
                        p.matches(t.typed_column::<i32>(name).unwrap().value(i))
                    }
                    AnyPredicate::U64(p) => {
                        p.matches(t.typed_column::<u64>(name).unwrap().value(i))
                    }
                })
            })
            .count() as u64
    }

    #[test]
    fn conjunction_matches_reference_for_base_strategies() {
        let t = make_table(8000);
        let strategies = [
            Strategy::FullScan,
            Strategy::StaticZonemap { zone_rows: 512 },
            Strategy::Adaptive(AdaptiveConfig::default()),
            Strategy::Imprints {
                values_per_line: 8,
                bins: 32,
            },
        ];
        let conjuncts: Vec<(&str, AnyPredicate)> = vec![
            (
                "time",
                AnyPredicate::I64(RangePredicate::between(1000, 3000)),
            ),
            (
                "value",
                AnyPredicate::I64(RangePredicate::between(100, 500)),
            ),
        ];
        let expected = reference_count(&t, &conjuncts);
        assert!(expected > 0);
        for strat in strategies {
            let mut ts = TableSession::new(t.clone(), &strat, &["time", "value"]).unwrap();
            // Repeat so adaptive structures reorganise between queries.
            for _ in 0..4 {
                let (count, _) = ts.count_conjunction(&conjuncts).unwrap();
                assert_eq!(count, expected, "{}", strat.label());
            }
        }
    }

    #[test]
    fn three_way_conjunction_with_floats() {
        let t = make_table(5000);
        let conjuncts: Vec<(&str, AnyPredicate)> = vec![
            ("time", AnyPredicate::I64(RangePredicate::between(0, 4000))),
            ("value", AnyPredicate::I64(RangePredicate::between(0, 800))),
            (
                "score",
                AnyPredicate::F64(RangePredicate::between(2.0, 7.5)),
            ),
        ];
        let expected = reference_count(&t, &conjuncts);
        let mut ts = TableSession::new(
            t.clone(),
            &Strategy::StaticZonemap { zone_rows: 256 },
            &["time", "value", "score"],
        )
        .unwrap();
        let (count, m) = ts.count_conjunction(&conjuncts).unwrap();
        assert_eq!(count, expected);
        assert!(m.zones_probed > 0);
    }

    #[test]
    fn sum_conjunction_matches_reference() {
        let t = make_table(4000);
        let conjuncts: Vec<(&str, AnyPredicate)> = vec![(
            "time",
            AnyPredicate::I64(RangePredicate::between(100, 1999)),
        )];
        let expected_sum: f64 = (0..4000usize)
            .filter(|&i| (100..=1999).contains(&(i as i64)))
            .map(|i| (((i as i64) * 2654435761) % 1000) as f64)
            .sum();
        let mut ts = TableSession::new(
            t,
            &Strategy::StaticZonemap { zone_rows: 256 },
            &["time", "value"],
        )
        .unwrap();
        let (count, sum, _) = ts.sum_conjunction(&conjuncts, "value").unwrap();
        assert_eq!(count, 1900);
        assert!((sum - expected_sum).abs() < 1e-6, "{sum} vs {expected_sum}");
    }

    #[test]
    fn view_strategies_rejected() {
        let t = make_table(100);
        assert!(matches!(
            TableSession::new(t, &Strategy::Cracking, &["time"]),
            Err(TableSessionError::ViewStrategy(_))
        ));
    }

    #[test]
    fn missing_index_and_type_mismatch_errors() {
        let t = make_table(100);
        let mut ts = TableSession::new(t, &Strategy::FullScan, &["time"]).unwrap();
        let err = ts
            .count_conjunction(&[("value", AnyPredicate::I64(RangePredicate::all()))])
            .unwrap_err();
        assert!(matches!(err, TableSessionError::NoIndex(_)));
        let err2 = ts
            .count_conjunction(&[("time", AnyPredicate::F64(RangePredicate::all()))])
            .unwrap_err();
        assert!(matches!(err2, TableSessionError::PredicateType { .. }));
    }

    #[test]
    fn skipping_reduces_scanned_rows_on_selective_conjunctions() {
        let t = make_table(64_000);
        let conjuncts: Vec<(&str, AnyPredicate)> = vec![
            (
                "time",
                AnyPredicate::I64(RangePredicate::between(1000, 1999)),
            ),
            ("value", AnyPredicate::I64(RangePredicate::between(0, 999))),
        ];
        let mut ts = TableSession::new(
            t,
            &Strategy::StaticZonemap { zone_rows: 1024 },
            &["time", "value"],
        )
        .unwrap();
        let (_, m) = ts.count_conjunction(&conjuncts).unwrap();
        // time is sorted, so intersection confines scans to ~1 zone per column.
        assert!(m.rows_scanned <= 4 * 1024, "scanned {}", m.rows_scanned);
    }

    /// Small adaptive config so metadata materialises within a few queries.
    fn small_adaptive() -> AdaptiveConfig {
        AdaptiveConfig {
            target_zone_rows: 64,
            min_zone_rows: 8,
            max_zone_rows: 512,
            split_after_wasted: 1,
            maintenance_every: 2,
            ..AdaptiveConfig::default()
        }
    }

    /// Regression for the observation-bounds transport: scan by-product
    /// min/max used to round-trip through `f64`, which is exact for
    /// integers only up to 2^53. For a needle value of 2^53 + 1 the
    /// nearest double is 2^53, so an adaptive zone built from that
    /// observation recorded max = 2^53 — strictly below the true max —
    /// and a later point query for the needle was *falsely skipped*.
    /// Typed [`AnyBounds`] transport keeps the native value end-to-end.
    #[test]
    fn u64_bounds_beyond_f64_precision_are_exact() {
        const P53: u64 = 1 << 53;
        let n = 4096usize;
        let mut vals: Vec<u64> = (0..n as u64).map(|i| i * 17 % 1000).collect();
        vals[100] = P53 + 1; // rounds DOWN to 2^53 as f64
        vals[2000] = u64::MAX - 1; // not representable as f64 at all
        let mut t = Table::new("edge");
        t.add_column("v", Column::from_values(vals)).unwrap();
        let mut ts = TableSession::new(t, &Strategy::Adaptive(small_adaptive()), &["v"]).unwrap();
        // FixedOrder always probes, so false skips cannot hide behind the
        // planner's scan-and-filter fallback.
        ts.set_plan_mode(PlanMode::FixedOrder);
        // Warm-up: full-range scans observe every zone, building metadata
        // whose bounds include the needles.
        let warm = [("v", AnyPredicate::U64(RangePredicate::between(0, u64::MAX)))];
        for _ in 0..6 {
            ts.count_conjunction(&warm).unwrap();
        }
        // Point query for each needle: exactly one row. Under the f64
        // transport the first returned 0 (zone max recorded as 2^53).
        for needle in [P53 + 1, u64::MAX - 1] {
            let (c, m) = ts
                .count_conjunction(&[(
                    "v",
                    AnyPredicate::U64(RangePredicate::between(needle, needle)),
                )])
                .unwrap();
            assert_eq!(c, 1, "needle {needle} lost");
            // The prune must be metadata-driven (skips most zones), or the
            // test would pass vacuously by scanning everything.
            assert!(m.zones_skipped > 0, "metadata never engaged");
        }
    }

    /// Same failure mode at the negative end: `-(2^53) - 1` rounds toward
    /// zero to `-(2^53)`, so an f64-transported zone *min* lands above the
    /// true min and a point query for the needle is falsely skipped.
    #[test]
    fn i64_bounds_beyond_negative_f64_precision_are_exact() {
        const N53: i64 = -(1i64 << 53);
        let n = 4096usize;
        let mut vals: Vec<i64> = (0..n as i64).map(|i| i * 13 % 1000).collect();
        vals[300] = N53 - 1;
        vals[3000] = i64::MIN + 1;
        let mut t = Table::new("edge");
        t.add_column("v", Column::from_values(vals)).unwrap();
        let mut ts = TableSession::new(t, &Strategy::Adaptive(small_adaptive()), &["v"]).unwrap();
        ts.set_plan_mode(PlanMode::FixedOrder);
        let warm = [(
            "v",
            AnyPredicate::I64(RangePredicate::between(i64::MIN, i64::MAX)),
        )];
        for _ in 0..6 {
            ts.count_conjunction(&warm).unwrap();
        }
        for needle in [N53 - 1, i64::MIN + 1] {
            let (c, m) = ts
                .count_conjunction(&[(
                    "v",
                    AnyPredicate::I64(RangePredicate::between(needle, needle)),
                )])
                .unwrap();
            assert_eq!(c, 1, "needle {needle} lost");
            assert!(m.zones_skipped > 0, "metadata never engaged");
        }
    }

    #[test]
    fn phase_timings_and_plan_metrics_populated() {
        let t = make_table(8000);
        let conjuncts: Vec<(&str, AnyPredicate)> = vec![
            (
                "time",
                AnyPredicate::I64(RangePredicate::between(1000, 3000)),
            ),
            (
                "value",
                AnyPredicate::I64(RangePredicate::between(100, 500)),
            ),
        ];
        let mut ts = TableSession::new(
            t,
            &Strategy::StaticZonemap { zone_rows: 256 },
            &["time", "value"],
        )
        .unwrap();
        let (_, m) = ts.count_conjunction(&conjuncts).unwrap();
        // Satellite fix: these were all zero before the planner rework.
        assert!(m.prune_ns > 0, "prune phase untimed");
        assert!(m.scan_ns > 0, "scan phase untimed");
        assert_eq!(m.threads_used, 1);
        assert_eq!(m.conjuncts_probed, 2);
        assert!(!m.plan_fallback);
        assert!(m.wall_ns >= m.prune_ns);
        let trace = ts.last_plan().expect("trace recorded");
        assert_eq!(trace.steps.len(), 2);
        assert_eq!(trace.conjuncts_probed(), 2);
        assert!(trace.fallback.is_none());
        assert!(ts.index_metadata_bytes("time").unwrap() > 0);
        assert!(ts.index_metadata_bytes("missing").is_none());
    }

    #[test]
    fn forced_fallback_scans_and_filters_everything() {
        let t = make_table(4000);
        let conjuncts: Vec<(&str, AnyPredicate)> = vec![
            ("time", AnyPredicate::I64(RangePredicate::between(100, 900))),
            ("value", AnyPredicate::I64(RangePredicate::between(0, 400))),
        ];
        let expected = reference_count(&t, &conjuncts);
        let mut ts = TableSession::new(
            t,
            &Strategy::StaticZonemap { zone_rows: 256 },
            &["time", "value"],
        )
        .unwrap();
        ts.set_plan_mode(PlanMode::ForcedFallback);
        let (count, m) = ts.count_conjunction(&conjuncts).unwrap();
        assert_eq!(count, expected);
        assert!(m.plan_fallback);
        assert_eq!(m.conjuncts_probed, 0);
        assert_eq!(m.zones_probed, 0);
        assert_eq!(m.rows_scanned, 4000 * 2, "both conjuncts filter every row");
        assert_eq!(
            ts.last_plan().unwrap().fallback,
            Some(FallbackReason::Forced)
        );
        assert_eq!(ts.totals().plan_fallbacks, 1);
    }

    #[test]
    fn forced_order_must_be_permutation() {
        let t = make_table(1000);
        let conjuncts: Vec<(&str, AnyPredicate)> = vec![
            ("time", AnyPredicate::I64(RangePredicate::between(0, 500))),
            ("value", AnyPredicate::I64(RangePredicate::between(0, 500))),
        ];
        let mut ts = TableSession::new(
            t,
            &Strategy::StaticZonemap { zone_rows: 128 },
            &["time", "value"],
        )
        .unwrap();
        ts.set_plan_mode(PlanMode::ForcedOrder(vec![0, 0]));
        assert!(matches!(
            ts.count_conjunction(&conjuncts),
            Err(TableSessionError::InvalidPlan(_))
        ));
        ts.set_plan_mode(PlanMode::ForcedOrder(vec![1, 0]));
        let (count, _) = ts.count_conjunction(&conjuncts).unwrap();
        ts.set_plan_mode(PlanMode::FixedOrder);
        let (count2, _) = ts.count_conjunction(&conjuncts).unwrap();
        assert_eq!(count, count2, "probe order must not change the answer");
    }
}
