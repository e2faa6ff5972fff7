//! The [`SkippingIndex`] trait — the framework's uniform interface for
//! data-skipping structures.
//!
//! The paper frames adaptive data skipping as "a framework for structures
//! and techniques that respond to a vast array of data distributions and
//! query workloads". The framework contract here is a two-phase protocol:
//!
//! 1. [`SkippingIndex::prune`] — before the scan, the index converts a
//!    predicate into candidate row ranges (a sound over-approximation);
//! 2. [`SkippingIndex::observe`] — after the scan, the executor feeds back
//!    the prune's outcome and what the scan saw (qualifying counts and
//!    exact per-range min/max), and the index may reorganise itself.
//!
//! Static structures implement `observe` as a no-op; adaptive ones use it to
//! build, refine, coarsen, or retire metadata.

use crate::outcome::{PruneOutcome, ScanObservation};
use crate::predicate::RangePredicate;
use crate::stats::PruneStats;
use ads_storage::{DataValue, RangeSet};

/// Coordinate system of the ranges an index emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanCoords {
    /// Ranges address the base column directly (zonemaps, imprints).
    Base,
    /// Ranges address the index's own reorganised copy of the column
    /// (cracking, sorted projection); positions translate back to base
    /// row ids via [`SkippingIndex::translate_positions`].
    View,
}

/// A data-skipping access method over one column.
pub trait SkippingIndex<T: DataValue>: Send {
    /// Human-readable name including parameters, used in reports.
    fn name(&self) -> String;

    /// Downcast hook so tools (the demo CLI, dashboards) can inspect a
    /// type-erased index — e.g. to render an adaptive zonemap's zones.
    fn as_any(&self) -> &dyn std::any::Any;

    /// Converts `pred` into candidate ranges. May mutate the index
    /// (cracking physically reorganises during this call).
    fn prune(&mut self, pred: &RangePredicate<T>) -> PruneOutcome;

    /// Post-scan feedback, carrying the prune's outcome
    /// ([`ScanObservation::walk`]): adaptive structures learn the query
    /// here — an adaptive zonemap only here. Default: no-op.
    fn observe(&mut self, _obs: &ScanObservation<T>) {}

    /// Maintains the index after `appended` rows were added to the column;
    /// `base` is the full column including the new rows.
    fn on_append(&mut self, appended: &[T], base: &[T]);

    /// Bytes of metadata the index holds (excluding any data copy).
    fn metadata_bytes(&self) -> usize;

    /// Bytes of column data the index duplicates (cracker column, sorted
    /// projection). Zero for metadata-only structures.
    fn data_copy_bytes(&self) -> usize {
        0
    }

    /// Which coordinate system pruned ranges refer to.
    fn scan_coords(&self) -> ScanCoords {
        ScanCoords::Base
    }

    /// The reorganised data copy scans must run against when
    /// [`SkippingIndex::scan_coords`] is [`ScanCoords::View`].
    fn view(&self) -> Option<&[T]> {
        None
    }

    /// Maps view positions (from a scan over [`SkippingIndex::view`]) back
    /// to base row ids, in place. No-op for base-coordinate indexes.
    fn translate_positions(&self, _positions: &mut [u32]) {}

    /// Number of adaptation events (build/split/merge/deactivate/revive)
    /// performed so far. Zero for static structures.
    fn adapt_events(&self) -> u64 {
        0
    }

    /// Pre-probe summary for cost-based planners, or `None` when the index
    /// cannot estimate its own payoff (planners should then treat a probe
    /// as always worthwhile). Only meaningful for base-coordinate indexes.
    fn prune_stats(&self) -> Option<PruneStats> {
        None
    }

    /// Prunes `pred` restricted to rows still `alive` after earlier
    /// conjuncts. The default probes the full map and intersects; indexes
    /// with positional metadata override this to skip examining zones that
    /// are no longer alive. Only meaningful for base-coordinate indexes —
    /// `alive` is in the same coordinates as the emitted ranges.
    fn prune_within(&mut self, pred: &RangePredicate<T>, alive: &RangeSet) -> PruneOutcome {
        self.prune(pred).restrict_to(alive)
    }

    /// Periodic self-maintenance hook, called with the current base
    /// column after feedback — by the inline protocol after each query,
    /// by the server's maintenance round after each batch. The index
    /// keeps its own schedule: an adaptive zonemap runs its metadata-tier
    /// (build/drop) pass once per `maintenance_every` queries it has
    /// learned, however many calls fall in between. Everything else
    /// inherits the no-op.
    fn maintain(&mut self, _base: &[T]) {}
}

impl<T: DataValue> SkippingIndex<T> for Box<dyn SkippingIndex<T>> {
    fn name(&self) -> String {
        self.as_ref().name()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self.as_ref().as_any()
    }

    fn prune(&mut self, pred: &RangePredicate<T>) -> PruneOutcome {
        self.as_mut().prune(pred)
    }

    fn observe(&mut self, obs: &ScanObservation<T>) {
        self.as_mut().observe(obs)
    }

    fn on_append(&mut self, appended: &[T], base: &[T]) {
        self.as_mut().on_append(appended, base)
    }

    fn metadata_bytes(&self) -> usize {
        self.as_ref().metadata_bytes()
    }

    fn data_copy_bytes(&self) -> usize {
        self.as_ref().data_copy_bytes()
    }

    fn scan_coords(&self) -> ScanCoords {
        self.as_ref().scan_coords()
    }

    fn view(&self) -> Option<&[T]> {
        self.as_ref().view()
    }

    fn translate_positions(&self, positions: &mut [u32]) {
        self.as_ref().translate_positions(positions)
    }

    fn adapt_events(&self) -> u64 {
        self.as_ref().adapt_events()
    }

    fn prune_stats(&self) -> Option<PruneStats> {
        self.as_ref().prune_stats()
    }

    fn prune_within(&mut self, pred: &RangePredicate<T>, alive: &RangeSet) -> PruneOutcome {
        self.as_mut().prune_within(pred, alive)
    }

    fn maintain(&mut self, base: &[T]) {
        self.as_mut().maintain(base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ads_storage::RangeSet;

    /// Minimal trait impl to pin default-method behaviour.
    struct Dummy;

    impl SkippingIndex<i64> for Dummy {
        fn name(&self) -> String {
            "dummy".into()
        }

        fn as_any(&self) -> &dyn std::any::Any {
            self
        }

        fn prune(&mut self, _pred: &RangePredicate<i64>) -> PruneOutcome {
            PruneOutcome::scan_all(10)
        }

        fn on_append(&mut self, _appended: &[i64], _base: &[i64]) {}

        fn metadata_bytes(&self) -> usize {
            0
        }
    }

    #[test]
    fn defaults() {
        let mut d = Dummy;
        assert_eq!(d.scan_coords(), ScanCoords::Base);
        assert!(d.view().is_none());
        assert_eq!(d.data_copy_bytes(), 0);
        assert_eq!(d.adapt_events(), 0);
        let mut pos = vec![1u32, 2];
        d.translate_positions(&mut pos);
        assert_eq!(pos, vec![1, 2]);
        let out = d.prune(&RangePredicate::all());
        assert_eq!(out.unit_set().covered_rows(), 10);
        d.observe(&ScanObservation {
            predicate: RangePredicate::all(),
            ranges: Vec::new(),
            walk: PruneOutcome::default(),
        });
        assert!(d.prune_stats().is_none());
        let mut alive = RangeSet::new();
        alive.push_span(2, 6);
        let restricted = d.prune_within(&RangePredicate::all(), &alive);
        assert_eq!(restricted.unit_set().covered_rows(), 4);
    }

    #[test]
    fn trait_is_object_safe() {
        let b: Box<dyn SkippingIndex<i64>> = Box::new(Dummy);
        assert_eq!(b.name(), "dummy");
    }
}
