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

use crate::executor::ScanPhase;
use crate::lane::{Lane, Protocol};
use crate::metrics::{CumulativeMetrics, QueryMetrics};
use crate::planner::{self, FallbackReason, PlanMode, PlanStep, PlanTrace};
use crate::strategy::Strategy;
use ads_core::{
    CostModel, PruneOutcome, PruneStats, RangeObservation, RangePredicate, ScanObservation,
    SkippingIndex,
};
use ads_storage::{
    scan, AnyColumn, Bitmap, Column, ColumnAccess, DataValue, RangeSet, RowRange, StorageError,
    Table,
};
use std::any::Any;
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

impl AnyPredicate {
    /// The predicate in value type `T`; `None` when it is over another.
    fn typed<T: DataValue>(&self) -> Option<RangePredicate<T>> {
        let pred: &dyn Any = match self {
            AnyPredicate::I32(p) => p,
            AnyPredicate::I64(p) => p,
            AnyPredicate::U64(p) => p,
            AnyPredicate::F64(p) => p,
        };
        pred.downcast_ref().copied()
    }
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

/// One filtered column's side of a conjunction, with the column's value
/// type erased. Implemented once, by [`TypedConjunct`], over the same
/// [`Lane`] steps every other inline query runs; `col` is the indexed
/// column and `pred` a predicate [`Conjunct::mismatch`] had nothing against.
trait Conjunct: Send {
    /// The column's value type, when `pred` is over another.
    fn mismatch(&self, pred: &AnyPredicate) -> Option<&'static str>;
    /// The index's pre-probe planner summary.
    fn prune_stats(&self) -> Option<PruneStats>;
    /// The lane's prune step, restricted to `alive` when given.
    fn prune(
        &mut self,
        col: &AnyColumn,
        pred: &AnyPredicate,
        alive: Option<&RangeSet>,
        protocol: &mut Protocol,
    ) -> PruneOutcome;
    /// Marks the rows of `piece` satisfying `pred` in `bm`; given the
    /// position `record` of the query's conjunct `pred` is, keeps the
    /// piece's qualifying count and exact `(min, max)` for that
    /// conjunct's [`Conjunct::learn`].
    fn fill(
        &mut self,
        col: &AnyColumn,
        pred: &AnyPredicate,
        piece: RowRange,
        record: Option<usize>,
        bm: &mut Bitmap,
    );
    /// The lane's learn step over `walk`, what [`Conjunct::prune`]
    /// returned for the query's conjunct at position `conjunct`, and what
    /// `fill` recorded for that conjunct.
    fn learn(
        &mut self,
        col: &AnyColumn,
        conjunct: usize,
        pred: &AnyPredicate,
        walk: PruneOutcome,
        protocol: &mut Protocol,
    );
    /// The index, for tests that compare its state with a reference.
    #[cfg(test)]
    fn index(&self) -> &dyn Any;
}

/// A column's index in the column's own value type. Scan by-products stay
/// in that type from the kernel to `observe` — routed through `f64`, an
/// `i64`/`u64` bound at or above 2^53 rounds, a recorded zone max can land
/// *below* the true max, and a later predicate falsely skips the row.
struct TypedConjunct<T: DataValue> {
    index: Box<dyn SkippingIndex<T>>,
    /// What this query's scan has recorded for the index so far, each
    /// piece with the position of the conjunct it was scanned for: a
    /// conjunction may name the column more than once, and each predicate
    /// learns from its own pieces.
    recorded: Vec<(usize, RangeObservation<T>)>,
}

impl<T: ColumnAccess> TypedConjunct<T> {
    fn boxed(column: &Column<T>, strategy: &Strategy) -> Box<dyn Conjunct> {
        Box::new(TypedConjunct {
            index: strategy.build_index(column.as_slice()),
            recorded: Vec::new(),
        })
    }

    /// The column and the predicate in this conjunct's value type.
    fn typed<'a>(col: &'a AnyColumn, pred: &AnyPredicate) -> (&'a [T], RangePredicate<T>) {
        // invariant: the session built this conjunct from `col`.
        let column = T::from_any(col).expect("conjunct built over this column");
        // invariant: `run_conjunction` checks `mismatch(pred)` first.
        let pred = pred.typed().expect("predicate accepted in phase 0");
        (column.as_slice(), pred)
    }
}

impl<T: ColumnAccess> Conjunct for TypedConjunct<T> {
    fn mismatch(&self, pred: &AnyPredicate) -> Option<&'static str> {
        pred.typed::<T>().is_none().then_some(T::TYPE_NAME)
    }

    fn prune_stats(&self) -> Option<PruneStats> {
        self.index.prune_stats()
    }

    fn prune(
        &mut self,
        col: &AnyColumn,
        pred: &AnyPredicate,
        alive: Option<&RangeSet>,
        protocol: &mut Protocol,
    ) -> PruneOutcome {
        let (data, pred) = Self::typed(col, pred);
        let out = Lane::new(data, self.index.as_mut()).prune(&pred, alive, protocol);
        // Shadow oracle: rows outside `alive` were excluded by earlier
        // conjuncts, so a restricted outcome is only accountable for the
        // candidates still in play. (The table path is append-only: no
        // delete vector to thread through.)
        #[cfg(feature = "audit")]
        ads_core::audit::verify_outcome(data, None, &pred, &out, alive, "run_conjunction");
        out
    }

    fn fill(
        &mut self,
        col: &AnyColumn,
        pred: &AnyPredicate,
        piece: RowRange,
        record: Option<usize>,
        bm: &mut Bitmap,
    ) {
        let (data, pred) = Self::typed(col, pred);
        // live: the table path is append-only — `TableSession` carries
        // no delete vector, so every row is live.
        let (qualifying, min, max) = scan::fill_bitmap_in_range_with_minmax(
            &data[piece.start..piece.end],
            0,
            pred.lo,
            pred.hi,
            bm,
        );
        if let Some(conjunct) = record {
            self.recorded
                .push((conjunct, RangeObservation::new(piece, qualifying, min, max)));
        }
    }

    fn learn(
        &mut self,
        col: &AnyColumn,
        conjunct: usize,
        pred: &AnyPredicate,
        walk: PruneOutcome,
        protocol: &mut Protocol,
    ) {
        let (data, predicate) = Self::typed(col, pred);
        let mut ranges = Vec::new();
        self.recorded.retain(|&(c, piece)| {
            let mine = c == conjunct;
            if mine {
                ranges.push(piece);
            }
            !mine
        });
        let observation = ScanObservation {
            predicate,
            ranges,
            walk,
        };
        Lane::new(data, self.index.as_mut()).learn(&observation, protocol);
    }

    #[cfg(test)]
    fn index(&self) -> &dyn Any {
        self.index.as_any()
    }
}

/// A table plus one skipping index per filtered column.
pub struct TableSession {
    table: Table,
    /// The indexed columns by name, in the order they were given.
    indexes: Vec<(String, Box<dyn Conjunct>)>,
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
        let mut indexes = Vec::with_capacity(columns.len());
        for &name in columns {
            let conjunct = match table.column(name)? {
                AnyColumn::I32(c) => TypedConjunct::boxed(c, strategy),
                AnyColumn::I64(c) => TypedConjunct::boxed(c, strategy),
                AnyColumn::U64(c) => TypedConjunct::boxed(c, strategy),
                AnyColumn::F64(c) => TypedConjunct::boxed(c, strategy),
            };
            indexes.push((name.to_string(), conjunct));
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

    /// Counts rows satisfying every conjunct.
    pub fn count_conjunction(
        &mut self,
        conjuncts: &[(&str, AnyPredicate)],
    ) -> Result<(u64, QueryMetrics)> {
        let (count, _, metrics) = self.run_conjunction(conjuncts, None)?;
        Ok((count, metrics))
    }

    /// Sums `agg_column` (any numeric type, as f64) over rows satisfying
    /// every conjunct; returns `(count, sum, metrics)`.
    pub fn sum_conjunction(
        &mut self,
        conjuncts: &[(&str, AnyPredicate)],
        agg_column: &str,
    ) -> Result<(u64, f64, QueryMetrics)> {
        self.run_conjunction(conjuncts, Some(agg_column))
    }

    /// One conjunction query: `(count, sum over agg_column or 0, metrics)`.
    fn run_conjunction(
        &mut self,
        conjuncts: &[(&str, AnyPredicate)],
        agg_column: Option<&str>,
    ) -> Result<(u64, f64, QueryMetrics)> {
        let mut protocol = Protocol::start();
        let n = self.table.num_rows();

        // Phase 0: resolve and validate every conjunct up front — missing-
        // index and type-mismatch errors must fire even for conjuncts the
        // plan would not probe — and collect pre-probe stats for the planner.
        let mut slots: Vec<usize> = Vec::with_capacity(conjuncts.len());
        let mut cols: Vec<&AnyColumn> = Vec::with_capacity(conjuncts.len());
        let mut stats: Vec<Option<PruneStats>> = Vec::with_capacity(conjuncts.len());
        for &(name, pred) in conjuncts {
            let slot = (self.indexes.iter().position(|(indexed, _)| indexed == name))
                .ok_or_else(|| TableSessionError::NoIndex(name.to_string()))?;
            let conjunct = &self.indexes[slot].1;
            if let Some(expected) = conjunct.mismatch(&pred) {
                return Err(TableSessionError::PredicateType {
                    column: name.to_string(),
                    expected,
                });
            }
            slots.push(slot);
            cols.push(self.table.column(name)?);
            stats.push(conjunct.prune_stats());
        }
        let agg_col = agg_column.map(|c| self.table.column(c)).transpose()?;
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
            let (probe, est_benefit) = if plan.forced_fallback {
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
            let mut step = PlanStep {
                column: name.to_string(),
                probed: probe,
                est_skip_fraction: stats[ci].map(|s| s.est_skip_fraction),
                est_benefit,
                zones_probed: 0,
                zones_skipped: 0,
                alive_before,
                alive_after: alive_before,
            };
            if probe {
                let within = (plan.restricted && alive_before < n).then_some(&alive);
                let conjunct = &mut self.indexes[slots[ci]].1;
                let out = conjunct.prune(cols[ci], &pred, within, &mut protocol);
                alive = alive.intersect(&out.unit_set().union(&out.full_match));
                step.zones_probed = out.zones_probed;
                step.zones_skipped = out.zones_skipped;
                step.alive_after = alive.covered_rows();
                outcomes[ci] = Some(out);
            }
            steps.push(step);
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
            for u in &out.units {
                cuts.push(u.range.start);
                cuts.push(u.range.end);
            }
        }
        cuts.sort_unstable();
        cuts.dedup();
        let mut scan_pieces: Vec<RowRange> = Vec::new();
        for r in to_scan.ranges() {
            let mut start = r.start;
            let lo = cuts.partition_point(|&c| c <= r.start);
            let hi = cuts.partition_point(|&c| c < r.end);
            for &c in &cuts[lo..hi] {
                if c > start {
                    scan_pieces.push(RowRange::new(start, c));
                    start = c;
                }
            }
            if start < r.end {
                scan_pieces.push(RowRange::new(start, r.end));
            }
        }

        let mut rows_scanned = 0usize;
        let mut survivors_per_range: Vec<(usize, Bitmap)> = Vec::new();
        for r in &scan_pieces {
            let mut combined: Option<Bitmap> = None;
            for (ci, (_, pred)) in conjuncts.iter().enumerate() {
                let probed = outcomes[ci].as_ref();
                // A probed column whose full-match covers this range
                // entirely does not constrain it further and needs no
                // scan; an unprobed column always filters.
                if probed.is_some_and(|out| out.full_match.covers_span(r.start, r.end)) {
                    continue;
                }
                let mut bm = Bitmap::new(r.len());
                // Observations feed back only to probed indexes: an
                // adaptive index learns a query from the walk its prune
                // returned, and an unprobed one walked nothing.
                let conjunct = &mut self.indexes[slots[ci]].1;
                conjunct.fill(cols[ci], pred, *r, probed.is_some().then_some(ci), &mut bm);
                rows_scanned += r.len();
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
            if agg_col.is_some() {
                survivors_per_range.push((r.start, survivors));
            }
        }

        // Phase 3: optional SUM over the aggregate column.
        let own = conjuncts
            .iter()
            .find(|c| Some(c.0) == agg_column)
            .map(|c| &c.1);
        let sum = agg_col.map_or(0.0, |col| {
            sum_any(col, own, &all_full, &survivors_per_range)
        });
        let phase = ScanPhase {
            rows_scanned,
            // The bitmap-filling conjunct scan always folds (min, max).
            rows_with_byproducts: rows_scanned,
            threads_used: 1,
            scan_ns: t_scan.elapsed().as_nanos() as u64,
        };

        // Phase 4: every probed column learns from its walk and what its
        // scans recorded (min/max of each scanned piece, typed
        // by-products). A column named twice walked twice, and learns
        // twice, each predicate from the pieces scanned for it.
        for (ci, (_, pred)) in conjuncts.iter().enumerate() {
            if let Some(walk) = outcomes[ci].take() {
                let conjunct = &mut self.indexes[slots[ci]].1;
                conjunct.learn(cols[ci], ci, pred, walk, &mut protocol);
            }
        }

        let mut metrics = protocol.finish(phase, all_full.covered_rows(), count);
        metrics.conjuncts_probed = conjuncts_probed;
        metrics.plan_fallback = fallback.is_some();
        self.last_plan = Some(PlanTrace { steps, fallback });
        self.totals.absorb(&metrics);
        Ok((count, sum, metrics))
    }
}

/// SUM of `col` (as f64) over the full-match ranges, then over the rows
/// surviving each scanned piece — ascending rows within each, so the f64
/// accumulation order is a function of the plan alone. Full-match rows
/// all qualify and are added untested: in packed lanes where `own`, the
/// summed column's conjunct, bounds them ([`scan::sum_rows`]), else one
/// by one, NaN included.
fn sum_any(
    col: &AnyColumn,
    own: Option<&AnyPredicate>,
    all_full: &RangeSet,
    survivors: &[(usize, Bitmap)],
) -> f64 {
    fn go<T: DataValue>(
        c: &Column<T>,
        own: Option<&AnyPredicate>,
        all_full: &RangeSet,
        survivors: &[(usize, Bitmap)],
    ) -> f64 {
        let mut total = 0.0f64;
        let bounds = own.and_then(AnyPredicate::typed::<T>);
        for r in all_full.ranges() {
            let rows = c.slice(r.start, r.end);
            match bounds {
                // live: append-only table path — no delete vector exists.
                Some(p) => total += scan::sum_rows(rows, (p.lo, p.hi), scan::AllLive, 0).1,
                None => rows.iter().for_each(|v| total += v.to_f64()),
            }
        }
        for (start, bm) in survivors {
            // Word-wise walk: skip empty words outright, iterate set
            // bits of the rest in ascending order.
            for (w, word) in bm.iter_set_words() {
                let word_base = start + w * 64;
                let mut m = word;
                while m != 0 {
                    // narrowing: trailing_zeros of a u64 is at most 64.
                    total += c.value(word_base + m.trailing_zeros() as usize).to_f64();
                    m &= m - 1;
                }
            }
        }
        total
    }
    match col {
        AnyColumn::I32(c) => go(c, own, all_full, survivors),
        AnyColumn::I64(c) => go(c, own, all_full, survivors),
        AnyColumn::U64(c) => go(c, own, all_full, survivors),
        AnyColumn::F64(c) => go(c, own, all_full, survivors),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ads_core::adaptive::{AdaptiveConfig, AdaptiveZonemap};
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

    /// Column `name` of `t` with its stored type.
    fn typed<'t, T: ColumnAccess>(t: &'t Table, name: &str) -> &'t Column<T> {
        T::from_any(t.column(name).expect("column exists")).expect("column type")
    }

    /// The planner summary of the index over `column`, if one is held.
    fn index_stats(ts: &TableSession, column: &str) -> Option<PruneStats> {
        let (_, conjunct) = ts.indexes.iter().find(|(name, _)| name == column)?;
        conjunct.prune_stats()
    }

    fn reference_count(t: &Table, conjuncts: &[(&str, AnyPredicate)]) -> u64 {
        let n = t.num_rows();
        (0..n)
            .filter(|&i| {
                conjuncts.iter().all(|(name, p)| match p {
                    AnyPredicate::I64(p) => p.matches(typed::<i64>(t, name).value(i)),
                    AnyPredicate::F64(p) => p.matches(typed::<f64>(t, name).value(i)),
                    AnyPredicate::I32(p) => p.matches(typed::<i32>(t, name).value(i)),
                    AnyPredicate::U64(p) => p.matches(typed::<u64>(t, name).value(i)),
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
    fn a_column_named_twice_learns_each_predicate_from_its_own_pieces() {
        // Both predicates over `value` scan every zone of a cold index and
        // read each for almost nothing, so the index learns its bounds and
        // splits its zones. Each predicate must learn from the pieces
        // scanned for it: the state equals an index that pruned both, then
        // observed each predicate's own scan of every zone.
        let t = make_table(32_768);
        let config = AdaptiveConfig::default();
        let preds = [
            RangePredicate::between(0, 4),
            RangePredicate::between(500, 504),
        ];
        let conjuncts: Vec<(&str, AnyPredicate)> = preds
            .iter()
            .map(|&p| ("value", AnyPredicate::I64(p)))
            .collect();
        let mut ts =
            TableSession::new(t.clone(), &Strategy::Adaptive(config.clone()), &["value"]).unwrap();
        let (count, _) = ts.count_conjunction(&conjuncts).unwrap();
        assert_eq!(count, reference_count(&t, &conjuncts));

        let data = typed::<i64>(&t, "value").as_slice();
        let mut reference = Strategy::Adaptive(config).build_index(data);
        let walks = preds.map(|p| reference.prune(&p));
        for (predicate, walk) in preds.into_iter().zip(walks) {
            let ranges = walk
                .units
                .iter()
                .map(|unit| {
                    let rows = &data[unit.range.start..unit.range.end];
                    let (qualifying, min, max) =
                        scan::count_in_range_with_minmax(rows, predicate.lo, predicate.hi);
                    RangeObservation::new(unit.range, qualifying, min, max)
                })
                .collect();
            reference.observe(&ScanObservation {
                predicate,
                ranges,
                walk,
            });
            reference.maintain(data);
        }
        let state = |index: &dyn Any| {
            let zm = index
                .downcast_ref::<AdaptiveZonemap<i64>>()
                .expect("adaptive");
            format!("{zm:?}")
        };
        let (_, conjunct) = &ts.indexes[0];
        assert!(
            state(reference.as_any()).contains("Split"),
            "the reference split a zone"
        );
        assert_eq!(state(conjunct.index()), state(reference.as_any()));
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
    fn a_full_match_sum_adds_every_row_nan_included() {
        // Row 10's NaN lies in a zone the `a` conjunct matches whole: a
        // SUM of the unfiltered `f` must add it there, as a full scan does.
        let n = 20_000;
        let mut t = Table::new("nan");
        let f: Vec<f64> = (0..n)
            .map(|i| if i == 10 { f64::NAN } else { i as f64 * 0.25 })
            .collect();
        t.add_column("a", Column::from_values((0..n as i64).collect()))
            .unwrap();
        t.add_column("f", Column::from_values(f)).unwrap();
        let conjuncts = [("a", AnyPredicate::I64(RangePredicate::between(0, 15_000)))];
        for strategy in [
            Strategy::FullScan,
            Strategy::StaticZonemap { zone_rows: 512 },
        ] {
            let mut ts = TableSession::new(t.clone(), &strategy, &["a"]).unwrap();
            let (count, sum, m) = ts.sum_conjunction(&conjuncts, "f").unwrap();
            assert_eq!(count, 15_001);
            assert!(sum.is_nan(), "{}: {sum}", strategy.label());
            if !matches!(strategy, Strategy::FullScan) {
                assert!(m.rows_full_match > 0, "row 10 was not in a full match");
            }
        }
    }

    #[test]
    fn an_integer_sum_over_its_own_conjunct_is_bit_identical_across_strategies() {
        // `v` filters and is summed, so its full-match ranges add in packed
        // integer lanes: they must land on the bits of a row-order f64 fold.
        let n = 20_000i64;
        let v: Vec<i64> = (0..n)
            .map(|i| i * 7 - 30_000 + (i * 2654435761) % 13)
            .collect();
        let (lo, hi) = (-20_000, 90_000);
        let want = v
            .iter()
            .filter(|x| (lo..=hi).contains(*x))
            .fold(0.0f64, |s, &x| s + x as f64);
        let mut t = Table::new("ints");
        t.add_column("v", Column::from_values(v)).unwrap();
        let conjuncts = [("v", AnyPredicate::I64(RangePredicate::between(lo, hi)))];
        for strategy in [
            Strategy::FullScan,
            Strategy::StaticZonemap { zone_rows: 512 },
            Strategy::Adaptive(AdaptiveConfig::default()),
        ] {
            let mut ts = TableSession::new(t.clone(), &strategy, &["v"]).unwrap();
            let mut full_rows = 0;
            for query in 0..3 {
                let (_, sum, m) = ts.sum_conjunction(&conjuncts, "v").unwrap();
                assert_eq!(
                    sum.to_bits(),
                    want.to_bits(),
                    "{} query {query}: {sum} vs {want}",
                    strategy.label()
                );
                full_rows += m.rows_full_match;
            }
            if !matches!(strategy, Strategy::FullScan) {
                assert!(full_rows > 0, "{}: no full match", strategy.label());
            }
        }
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
    /// Bounds that never leave the column's type keep the native value
    /// end-to-end.
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

    /// The multi-column path runs the whole protocol: `maintain` after
    /// `observe`, and the adaptation events counted. It used to stop at
    /// `observe` with `adapt_events: 0`, so a table session configured
    /// for tiers could never earn one and kept scanning every zone whose
    /// bounds a point probe overlapped.
    #[test]
    fn table_session_earns_tiers_and_counts_adaptation() {
        use crate::session::ColumnSession;
        // Even values scattered over the domain: every zone's (min, max)
        // spans nearly everything, so only a bloom can skip a point probe.
        let vals: Vec<i64> = (0..20_000)
            .map(|i| ((i * 2654435761i64) % 1000) * 2)
            .collect();
        let tiered = AdaptiveConfig {
            target_zone_rows: 256,
            min_zone_rows: 64,
            max_zone_rows: 1024,
            tier_after_scans: 2,
            maintenance_every: 1,
            ..AdaptiveConfig::with_tiers()
        };
        let untiered = AdaptiveConfig {
            enable_tiers: false,
            ..tiered.clone()
        };
        let session = |config: AdaptiveConfig| {
            let mut t = Table::new("points");
            t.add_column("v", Column::from_values(vals.clone()))
                .unwrap();
            let mut ts = TableSession::new(t, &Strategy::Adaptive(config), &["v"]).unwrap();
            ts.set_plan_mode(PlanMode::FixedOrder);
            ts
        };
        let (mut ts, mut flat) = (session(tiered.clone()), session(untiered));
        let mut cs = ColumnSession::new(vals.clone(), &Strategy::Adaptive(tiered));
        let mut late_skips = 0usize;
        for q in 0..200i64 {
            // Odd values are absent everywhere.
            let needle = (q * 66 + 1) % 2000;
            let conj = [("v", AnyPredicate::I64(RangePredicate::point(needle)))];
            let (count, m) = ts.count_conjunction(&conj).unwrap();
            flat.count_conjunction(&conj).unwrap();
            assert_eq!(count, cs.count(RangePredicate::point(needle)), "q{q}");
            if q >= 100 {
                late_skips += m.zones_skipped;
            }
        }
        assert!(ts.totals().adapt_events > 0, "adaptation went uncounted");
        // The blooms are metadata the planner prices: the untiered twin's
        // bounds overlap every probe, so it estimates far fewer skips.
        let (tiered_est, flat_est) = (
            index_stats(&ts, "v").expect("adaptive estimates"),
            index_stats(&flat, "v").expect("adaptive estimates"),
        );
        assert!(
            tiered_est.est_skip_fraction > flat_est.est_skip_fraction,
            "tiers add skips the untiered twin cannot: {} vs {}",
            tiered_est.est_skip_fraction,
            flat_est.est_skip_fraction
        );
        assert!(
            late_skips > 0,
            "no zone skipped: bounds overlap every probe, so no tier was ever earned"
        );
        assert!(
            ts.totals().rows_scanned < flat.totals().rows_scanned / 2,
            "blooms should cut scans: {} vs {}",
            ts.totals().rows_scanned,
            flat.totals().rows_scanned
        );
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
        assert!(
            index_stats(&ts, "time")
                .expect("zonemap estimates")
                .probe_entries
                > 0
        );
        assert!(index_stats(&ts, "missing").is_none());
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
