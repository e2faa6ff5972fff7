//! Pruning outcomes and post-scan observations — the two halves of the
//! prune/observe protocol between a skipping index and the scan executor.

use crate::predicate::RangePredicate;
use ads_storage::scan::Bins;
use ads_storage::{DataValue, RangeSet, RowRange};

/// A request for the scan to also collect a 64-bin value mask over a
/// scanned unit, using equal-width bins over `[lo_f, hi_f]` (values
/// converted via [`DataValue::to_f64`], which is monotone for all
/// supported types, so the binning is sound for range pruning).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaskRequest {
    /// Lower edge of the bin layout.
    pub lo_f: f64,
    /// Upper edge of the bin layout.
    pub hi_f: f64,
}

impl MaskRequest {
    /// Bin index of a value under this layout, clamped to `0..64` — by
    /// the scan kernel's own arithmetic ([`Bins::bin`]), so a predicate
    /// edge and a row holding the same value always share a bin.
    #[inline]
    pub fn bin(&self, v: f64) -> u32 {
        Bins::new(self.lo_f, self.hi_f).bin(v)
    }

    /// Bit mask covering all bins a predicate `[lo, hi]` can touch.
    #[inline]
    pub fn predicate_bits(&self, lo: f64, hi: f64) -> u64 {
        let a = self.bin(lo.max(self.lo_f));
        let b = self.bin(hi.min(self.hi_f));
        debug_assert!(a <= b);
        let width = b - a + 1;
        if width >= 64 {
            u64::MAX
        } else {
            ((1u64 << width) - 1) << a
        }
    }
}

/// What the index wants one scan unit to compute beside the answer — the
/// by-products it can still learn from. A scan is always free to ignore a
/// request (the feedback channel is advisory); it must never report a
/// by-product it did not compute over *every* row of the unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnitRequest {
    /// The exact `(min, max)` over all rows of the unit is wanted: the
    /// unit is a whole zone whose bounds are missing or conservative. An
    /// exact or retired zone never asks — the scan would re-derive the
    /// same two values, or values `observe` discards.
    pub bounds: bool,
    /// A 64-bin value mask under this layout is wanted.
    pub bins: Option<MaskRequest>,
}

impl UnitRequest {
    /// Nothing wanted: the scan computes its answer only.
    pub(crate) const NOTHING: UnitRequest = UnitRequest {
        bounds: false,
        bins: None,
    };

    /// True when the scan is asked for anything beyond its answer.
    pub fn wants_any(&self) -> bool {
        self.bounds || self.bins.is_some()
    }
}

/// One entry of a prune's scan work: a row range the metadata could not
/// exclude, whose every row the executor tests against the predicate,
/// computing the by-products the request asks for in the same pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScanUnit {
    /// The unit's rows, in the index's scan coordinates.
    pub range: RowRange,
    /// What the scan computes beside the answer.
    pub request: UnitRequest,
}

/// What a skipping index tells the executor after pruning a predicate.
///
/// Soundness contract: every qualifying row lies in a unit of `units` or
/// in `full_match` (in the index's scan coordinates — base-table
/// positions for positional indexes, view positions for indexes that
/// answer from their own reorganised copy, such as cracking). The units
/// are ascending, pairwise disjoint and disjoint from `full_match`. The
/// `audit` feature checks both the contract and the shape at runtime:
/// see [`crate::audit`].
#[derive(Debug, Clone, Default)]
pub struct PruneOutcome {
    /// The scan work, in ascending row order. The executor resolves each
    /// unit individually and reports one [`RangeObservation`] per unit,
    /// in this order. Adaptive zonemaps emit one unit per zone, so the
    /// fed-back `(min, max)` is exact at zone granularity; indexes that
    /// learn nothing from scans emit coalesced ranges
    /// ([`PruneOutcome::push_scan`]).
    pub units: Vec<ScanUnit>,
    /// Ranges known to contain *only* qualifying rows (predicate contains
    /// the zone's value range). COUNT-style queries take these for free.
    pub full_match: RangeSet,
    /// Zone-metadata entries examined to produce this outcome — the
    /// "metadata reads" whose cost the paper warns about.
    pub zones_probed: usize,
    /// Zones excluded by metadata.
    pub zones_skipped: usize,
    /// The rows of the zones a bloom tier excluded despite overlapping
    /// bounds (counted in `zones_skipped` too), so the owner can credit
    /// the tiers. Empty without tiers.
    pub tier_skips: RangeSet,
    /// The rows a restricted outcome kept ([`PruneOutcome::restrict_to`]),
    /// whose zones its walk probed; `None` for a walk of every zone.
    pub within: Option<RangeSet>,
    /// Per-zone decision trace for the shadow-oracle auditor. Excluded
    /// from equality: outcomes are decision-equal when they describe the
    /// same scan work, however the decisions were labelled (the
    /// prune ≡ prune_shared ≡ prune_via_zones property tests compare
    /// outcomes across paths with different trace granularity).
    #[cfg(feature = "audit")]
    pub audit_trace: Vec<crate::audit::AuditDecision>,
}

/// Manual impl: every field except the cfg-gated `audit_trace`.
impl PartialEq for PruneOutcome {
    fn eq(&self, other: &Self) -> bool {
        self.units == other.units
            && self.full_match == other.full_match
            && self.zones_probed == other.zones_probed
            && self.zones_skipped == other.zones_skipped
            && self.tier_skips == other.tier_skips
            && self.within == other.within
    }
}

impl PruneOutcome {
    /// An outcome that scans everything: what a store without skipping does.
    pub fn scan_all(rows: usize) -> Self {
        let mut out = PruneOutcome::default();
        out.push_scan(0, rows);
        out
    }

    /// An empty outcome with the working capacities a zone-walking prune
    /// loop wants pre-reserved.
    pub fn for_prune() -> Self {
        PruneOutcome {
            units: Vec::with_capacity(32),
            full_match: RangeSet::with_capacity(8),
            ..Default::default()
        }
    }

    /// Records one per-zone decision for the shadow-oracle auditor.
    #[cfg(feature = "audit")]
    #[inline]
    pub fn record_decision(&mut self, zone: RowRange, action: &'static str) {
        self.audit_trace
            .push(crate::audit::AuditDecision { zone, action });
    }

    /// Without the `audit` feature, decision recording compiles away.
    #[cfg(not(feature = "audit"))]
    #[inline(always)]
    pub fn record_decision(&mut self, _zone: RowRange, _action: &'static str) {}

    /// Appends one zone's unit: the writer of an index that scans zone by
    /// zone and learns from each.
    #[inline]
    pub fn push_unit(&mut self, range: RowRange, request: UnitRequest) {
        self.units.push(ScanUnit { range, request });
    }

    /// Appends rows to scan with nothing asked, coalescing with the
    /// previous unit when adjacent: the writer of every index that learns
    /// nothing from scans. The coalescing is part of the answer, not a
    /// nicety — a SUM accumulates one running `f64` per unit, so cutting
    /// a range in two changes its bits.
    pub fn push_scan(&mut self, start: usize, end: usize) {
        if start >= end {
            return;
        }
        if let Some(ScanUnit { range, request }) = self.units.last_mut() {
            if !request.wants_any() && start <= range.end {
                range.end = range.end.max(end);
                return;
            }
        }
        self.push_unit(RowRange::new(start, end), UnitRequest::NOTHING);
    }

    /// The units' rows as one coalesced set, for the callers that reason
    /// about coverage rather than work: the auditor and a conjunction's
    /// alive set. Derived on each call; the units are the record.
    pub fn unit_set(&self) -> RangeSet {
        let mut set = RangeSet::with_capacity(self.units.len());
        for unit in &self.units {
            set.push(unit.range);
        }
        set
    }

    /// Rows answered from metadata alone.
    pub fn rows_full_match(&self) -> usize {
        self.full_match.covered_rows()
    }

    /// Restricts the outcome to rows still `alive` after earlier conjuncts.
    ///
    /// `full_match` is intersected with `alive`; units are fragmented at
    /// `alive` boundaries so each surviving unit is still a subrange of
    /// exactly one original unit (observation alignment stays per-unit
    /// exact). A fragment keeps its unit's bounds request only when it is
    /// the whole unit — the bounds of a part say nothing about the zone —
    /// and bins are dropped: masks are not collected on the restricted
    /// path. Probe counters and tier skips are kept: the metadata reads
    /// already happened. `alive` is kept too, in [`PruneOutcome::within`].
    pub fn restrict_to(&self, alive: &RangeSet) -> PruneOutcome {
        let mut units = Vec::new();
        let alive_ranges = alive.ranges();
        let mut j = 0;
        for unit in &self.units {
            let u = unit.range;
            let bounds = unit.request.bounds;
            // Advance past alive ranges entirely before this unit.
            while j < alive_ranges.len() && alive_ranges[j].end <= u.start {
                j += 1;
            }
            // Emit one fragment per overlapping alive range; `j` is not
            // advanced past a range that may also overlap the next unit.
            let mut k = j;
            while k < alive_ranges.len() && alive_ranges[k].start < u.end {
                if let Some(frag) = u.intersect(&alive_ranges[k]) {
                    let request = UnitRequest {
                        bounds: frag == u && bounds,
                        bins: None,
                    };
                    units.push(ScanUnit {
                        range: frag,
                        request,
                    });
                }
                k += 1;
            }
        }
        PruneOutcome {
            units,
            full_match: self.full_match.intersect(alive),
            zones_probed: self.zones_probed,
            zones_skipped: self.zones_skipped,
            tier_skips: self.tier_skips.clone(),
            within: Some(alive.clone()),
            #[cfg(feature = "audit")]
            audit_trace: self.audit_trace.clone(),
        }
    }
}

/// Per-range result of an executed scan, fed back to the index.
///
/// `qualifying` is always present — selectivity, wasted-scan and split
/// evidence. `bounds` and `mask` are the by-products the prune asked for
/// ([`UnitRequest`]): a scan that was not asked, or chose not to, leaves
/// them `None` and the index leaves that part of its metadata untouched.
#[derive(Debug, Clone, Copy)]
pub struct RangeObservation<T: DataValue> {
    /// The scanned range, in the index's scan coordinates.
    pub range: RowRange,
    /// Number of rows in `range` satisfying the predicate.
    pub qualifying: usize,
    /// Exact `(min, max)` over *all* rows of `range` (not only the
    /// qualifying ones), when the scan computed them — adaptive zonemaps
    /// materialise zone metadata from it at no extra pass.
    pub bounds: Option<(T, T)>,
    /// 64-bin value mask of the range, when the scan collected one.
    pub mask: Option<u64>,
}

impl<T: DataValue> RangeObservation<T> {
    /// An observation carrying the range's exact `(min, max)`, no mask.
    pub fn new(range: RowRange, qualifying: usize, min: T, max: T) -> Self {
        RangeObservation {
            range,
            qualifying,
            bounds: Some((min, max)),
            mask: None,
        }
    }

    /// An observation of a scan that computed its answer only.
    pub fn answer_only(range: RowRange, qualifying: usize) -> Self {
        RangeObservation {
            range,
            qualifying,
            bounds: None,
            mask: None,
        }
    }
}

/// Everything the executor observed while answering one query.
#[derive(Debug, Clone)]
pub struct ScanObservation<T: DataValue> {
    /// The predicate that was evaluated.
    pub predicate: RangePredicate<T>,
    /// The scanned ranges, ascending: the scan executor reports exactly
    /// one per unit of [`PruneOutcome::units`], in unit order; a
    /// conjunction reports finer pieces cut at every column's units.
    pub ranges: Vec<RangeObservation<T>>,
    /// The outcome the scan executed, as the prune — the owner's, or a
    /// reader's on a published clone — decided it: the probes an adaptive
    /// zonemap records when it learns the query
    /// ([`crate::adaptive::AdaptiveZonemap::apply_feedback`]).
    pub walk: PruneOutcome,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicate_bins_cover_the_bin_the_scan_records() {
        // The mask is collected by the scan kernel and tested by
        // `predicate_bits`; a value binned differently by the two sides
        // would be skipped while present.
        use ads_storage::scan::ByProduct;
        for span in (1..400i64).map(|i| i * 37 + 11) {
            let layout = MaskRequest {
                lo_f: 0.0,
                hi_f: span as f64,
            };
            for v in 0..=span {
                let mut bins = Bins::new(layout.lo_f, layout.hi_f);
                bins.push(v);
                let point = layout.predicate_bits(v as f64, v as f64);
                assert_eq!(bins.mask(), point, "value {v} of [0, {span}]");
            }
        }
    }

    #[test]
    fn scan_all_covers_everything() {
        let o = PruneOutcome::scan_all(100);
        assert_eq!(o.units.len(), 1);
        assert_eq!(o.unit_set().covered_rows(), 100);
        assert_eq!(o.rows_full_match(), 0);
        assert_eq!(o.zones_probed, 0);
        assert!(PruneOutcome::scan_all(0).units.is_empty());
    }

    #[test]
    fn push_scan_coalesces_only_plain_scans() {
        let mut o = PruneOutcome::default();
        o.push_scan(0, 10);
        o.push_scan(10, 20);
        o.push_scan(30, 40);
        let ranges = |o: &PruneOutcome| o.units.iter().map(|u| u.range).collect::<Vec<_>>();
        assert_eq!(ranges(&o), [RowRange::new(0, 20), RowRange::new(30, 40)]);
        // A unit that asks for a by-product is its own zone's unit.
        let request = UnitRequest {
            bounds: true,
            bins: None,
        };
        o.push_unit(RowRange::new(40, 50), request);
        o.push_scan(50, 60);
        assert_eq!(o.units.len(), 4);
        assert_eq!(
            o.unit_set().ranges(),
            [RowRange::new(0, 20), RowRange::new(30, 60)]
        );
    }

    fn scan(start: usize, end: usize, request: UnitRequest) -> ScanUnit {
        ScanUnit {
            range: RowRange::new(start, end),
            request,
        }
    }

    fn requests(o: &PruneOutcome) -> Vec<UnitRequest> {
        o.units.iter().map(|u| u.request).collect()
    }

    #[test]
    fn restrict_to_intersects_and_fragments_units() {
        let layout = MaskRequest {
            lo_f: 0.0,
            hi_f: 1.0,
        };
        let mut o = PruneOutcome {
            units: vec![
                scan(0, 10, UnitRequest::NOTHING),
                scan(
                    10,
                    20,
                    UnitRequest {
                        bounds: true,
                        bins: Some(layout),
                    },
                ),
                scan(
                    20,
                    30,
                    UnitRequest {
                        bounds: true,
                        bins: None,
                    },
                ),
            ],
            zones_probed: 4,
            zones_skipped: 1,
            ..Default::default()
        };
        o.full_match.push_span(40, 50);
        let mut alive = RangeSet::new();
        alive.push_span(5, 12);
        alive.push_span(18, 45);
        let r = o.restrict_to(&alive);
        assert_eq!(
            r.units.iter().map(|u| u.range).collect::<Vec<_>>(),
            vec![
                RowRange::new(5, 10),
                RowRange::new(10, 12),
                RowRange::new(18, 20),
                RowRange::new(20, 30),
            ]
        );
        // Each fragment sits inside exactly one original unit.
        for frag in &r.units {
            assert!(o
                .units
                .iter()
                .any(|u| u.range.start <= frag.range.start && frag.range.end <= u.range.end));
        }
        // Only the whole-unit fragment keeps its bounds request; the
        // fragment of the bins-requesting unit loses both.
        let kept = requests(&r);
        assert_eq!(
            kept.iter().map(|q| q.bounds).collect::<Vec<_>>(),
            [false, false, false, true]
        );
        assert!(kept.iter().all(|q| q.bins.is_none()));
        assert_eq!(r.full_match.covered_rows(), 5);
        assert_eq!(r.zones_probed, 4);
        assert_eq!(r.zones_skipped, 1);
        assert_eq!(r.unit_set().covered_rows(), 7 + 2 + 10);
    }

    #[test]
    fn restrict_to_fragments_a_scan_all_and_empty_alive_clears_everything() {
        let o = PruneOutcome::scan_all(100);
        let mut alive = RangeSet::new();
        alive.push_span(5, 25);
        alive.push_span(40, 50);
        let r = o.restrict_to(&alive);
        assert_eq!(
            r.units,
            vec![
                scan(5, 25, UnitRequest::NOTHING),
                scan(40, 50, UnitRequest::NOTHING)
            ]
        );
        let r = o.restrict_to(&RangeSet::new());
        assert!(r.units.is_empty());
        assert!(r.full_match.is_empty());
    }
}
