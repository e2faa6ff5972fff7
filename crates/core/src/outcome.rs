//! Pruning outcomes and post-scan observations — the two halves of the
//! prune/observe protocol between a skipping index and the scan executor.

use crate::predicate::RangePredicate;
use ads_storage::scan::Bins;
use ads_storage::{DataValue, RangeSet, RowRange};
use std::sync::Arc;

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
    pub const NOTHING: UnitRequest = UnitRequest {
        bounds: false,
        bins: None,
    };

    /// True when the scan is asked for anything beyond its answer.
    pub fn wants_any(&self) -> bool {
        self.bounds || self.bins.is_some()
    }
}

/// A positional scan unit over one reorganized zone.
///
/// The prune resolved the predicate against the zone's sorted/cracked
/// payload: every view position in `full` qualifies, the up-to-two
/// `edges` pieces must still be predicate-tested, and the payload's
/// rowid permutation maps view positions back to base rows. The payload
/// `Arc` travels *inside* the outcome so decision and data are published
/// atomically — an executor can never pair these spans with a different
/// payload generation (no torn zones by construction).
///
/// The payload is type-erased (`dyn Any`) so `PruneOutcome` stays
/// non-generic; executors downcast it to `ReorgZone<T>` for the column's
/// value type.
#[derive(Clone)]
pub struct ReorgUnit {
    /// The zone's row range in base coordinates.
    pub zone: RowRange,
    /// View positions (into the payload) that all qualify.
    pub full: RowRange,
    /// Boundary pieces (view positions) to scan with the predicate.
    pub edges: [Option<RowRange>; 2],
    /// The reorganized payload; downcast to `ads_storage::ReorgZone<T>`.
    pub payload: Arc<dyn std::any::Any + Send + Sync>,
}

impl ReorgUnit {
    /// View rows the executor must still test one by one.
    pub fn edge_rows(&self) -> usize {
        self.edges.iter().flatten().map(RowRange::len).sum()
    }

    /// View rows known to qualify without any test.
    pub fn full_rows(&self) -> usize {
        self.full.len()
    }
}

impl std::fmt::Debug for ReorgUnit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReorgUnit")
            .field("zone", &self.zone)
            .field("full", &self.full)
            .field("edges", &self.edges)
            .finish_non_exhaustive()
    }
}

impl PartialEq for ReorgUnit {
    fn eq(&self, other: &Self) -> bool {
        self.zone == other.zone
            && self.full == other.full
            && self.edges == other.edges
            && Arc::ptr_eq(&self.payload, &other.payload)
    }
}

/// What a skipping index tells the executor after pruning a predicate.
///
/// Soundness contract: every qualifying row lies in `must_scan`,
/// `full_match`, or a `reorg_units` zone (in the index's scan coordinates
/// — base-table positions for positional indexes, view positions for
/// indexes that answer from their own reorganised copy, such as cracking).
/// The `audit` feature checks this contract at runtime: see
/// [`crate::audit`].
#[derive(Debug, Clone, Default)]
pub struct PruneOutcome {
    /// Ranges the executor must scan and filter. Disjoint from `full_match`.
    pub must_scan: RangeSet,
    /// The units the executor should scan *individually*, reporting one
    /// [`RangeObservation`] per unit. Same total coverage as `must_scan`
    /// but possibly finer: adaptive zonemaps emit one unit per zone so the
    /// fed-back `(min, max)` is exact at zone granularity. Empty means
    /// "use `must_scan.ranges()` as the units".
    pub scan_units: Vec<RowRange>,
    /// Per-unit by-product requests, aligned 1:1 with `scan_units` when
    /// non-empty; empty means "nothing wanted anywhere" (what every index
    /// that learns nothing from scans emits). A scan honouring entry `i`
    /// computes what it asks for over unit `i` in the same pass and
    /// returns it in the unit's [`RangeObservation`].
    pub unit_requests: Vec<UnitRequest>,
    /// Ranges known to contain *only* qualifying rows (predicate contains
    /// the zone's value range). COUNT-style queries take these for free.
    pub full_match: RangeSet,
    /// Positional units over reorganized zones, one per overlapping
    /// reorganized zone, disjoint from `must_scan` and `full_match`.
    /// Executors that cannot handle positional units demote them via
    /// [`PruneOutcome::demote_reorg_units`].
    pub reorg_units: Vec<ReorgUnit>,
    /// Zone-metadata entries examined to produce this outcome — the
    /// "metadata reads" whose cost the paper warns about.
    pub zones_probed: usize,
    /// Zones excluded by metadata.
    pub zones_skipped: usize,
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
        self.must_scan == other.must_scan
            && self.scan_units == other.scan_units
            && self.unit_requests == other.unit_requests
            && self.full_match == other.full_match
            && self.reorg_units == other.reorg_units
            && self.zones_probed == other.zones_probed
            && self.zones_skipped == other.zones_skipped
    }
}

impl PruneOutcome {
    /// An outcome that scans everything: what a store without skipping does.
    pub fn scan_all(rows: usize) -> Self {
        PruneOutcome {
            must_scan: RangeSet::full(rows),
            ..Default::default()
        }
    }

    /// An empty outcome with the working capacities a zone-walking prune
    /// loop wants pre-reserved.
    pub fn for_prune() -> Self {
        PruneOutcome {
            must_scan: RangeSet::with_capacity(32),
            scan_units: Vec::with_capacity(32),
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

    /// Appends one scan unit with its by-product request, keeping
    /// `must_scan`, `scan_units` and `unit_requests` aligned.
    #[inline]
    pub fn push_unit(&mut self, unit: RowRange, request: UnitRequest) {
        self.must_scan.push_span(unit.start, unit.end);
        self.scan_units.push(unit);
        self.unit_requests.push(request);
    }

    /// The by-product request for scan unit `i`.
    pub fn unit_request(&self, i: usize) -> UnitRequest {
        self.unit_requests
            .get(i)
            .copied()
            .unwrap_or(UnitRequest::NOTHING)
    }

    /// The ranges the executor should scan one-by-one: `scan_units` when
    /// the index provided them, the coalesced `must_scan` ranges otherwise.
    pub fn units(&self) -> &[RowRange] {
        if self.scan_units.is_empty() {
            self.must_scan.ranges()
        } else {
            &self.scan_units
        }
    }

    /// Rows that must be touched by the scan.
    pub fn rows_to_scan(&self) -> usize {
        self.must_scan.covered_rows()
    }

    /// Rows answered from metadata alone.
    pub fn rows_full_match(&self) -> usize {
        self.full_match.covered_rows()
    }

    /// Rows resolved positionally from reorganized payloads without
    /// per-row predicate tests — the reorg analogue of
    /// [`PruneOutcome::rows_full_match`].
    pub fn rows_positional_match(&self) -> usize {
        self.reorg_units.iter().map(ReorgUnit::full_rows).sum()
    }

    /// Fraction of an `n`-row table the scan avoids touching
    /// (full-match rows count as avoided for COUNT-style work).
    pub fn skip_fraction(&self, n: usize) -> f64 {
        if n == 0 {
            0.0
        } else {
            1.0 - self.rows_to_scan() as f64 / n as f64
        }
    }

    /// Folds positional reorg units back into plain scan units over their
    /// zones' base row ranges, dropping the positional spans and payload.
    ///
    /// Sound (the zone's base rows cover every row its payload permutes)
    /// but slower: the executor re-tests the predicate row by row. Used
    /// by paths that cannot carry positional units — conjunction
    /// restriction and the type-erased table path. A demoted unit asks
    /// for nothing: a reorganized zone's bounds are exact already.
    pub fn demote_reorg_units(&self) -> PruneOutcome {
        if self.reorg_units.is_empty() {
            return self.clone();
        }
        let mut units: Vec<(RowRange, UnitRequest)> = self
            .units()
            .iter()
            .enumerate()
            .map(|(i, u)| (*u, self.unit_request(i)))
            .collect();
        let mut must_scan = self.must_scan.clone();
        for ru in &self.reorg_units {
            units.push((ru.zone, UnitRequest::NOTHING));
            let mut zone = RangeSet::new();
            zone.push_span(ru.zone.start, ru.zone.end);
            must_scan = must_scan.union(&zone);
        }
        units.sort_by_key(|(u, _)| u.start);
        #[cfg_attr(not(feature = "audit"), allow(unused_mut))]
        let mut out = PruneOutcome {
            must_scan,
            scan_units: units.iter().map(|(u, _)| *u).collect(),
            unit_requests: units.iter().map(|(_, r)| *r).collect(),
            full_match: self.full_match.clone(),
            zones_probed: self.zones_probed,
            zones_skipped: self.zones_skipped,
            ..Default::default()
        };
        #[cfg(feature = "audit")]
        {
            out.audit_trace = self.audit_trace.clone();
        }
        out
    }

    /// Restricts the outcome to rows still `alive` after earlier conjuncts.
    ///
    /// `must_scan` and `full_match` are intersected with `alive`; scan
    /// units are fragmented at `alive` boundaries so each surviving unit
    /// is still a subrange of exactly one original unit (observation
    /// alignment stays per-unit exact). A fragment keeps its unit's
    /// bounds request only when it is the whole unit — the bounds of a
    /// part say nothing about the zone — and bins are dropped: masks are
    /// not collected on the restricted path. Reorg units are demoted to
    /// plain units first: a positional span is meaningless under a
    /// base-coordinate restriction. Probe counters are kept: the metadata
    /// reads already happened.
    pub fn restrict_to(&self, alive: &RangeSet) -> PruneOutcome {
        if !self.reorg_units.is_empty() {
            return self.demote_reorg_units().restrict_to(alive);
        }
        let mut units = Vec::new();
        let mut requests = Vec::new();
        let alive_ranges = alive.ranges();
        let mut j = 0;
        for (i, u) in self.units().iter().enumerate() {
            // Advance past alive ranges entirely before this unit.
            while j < alive_ranges.len() && alive_ranges[j].end <= u.start {
                j += 1;
            }
            // Emit one fragment per overlapping alive range; `j` is not
            // advanced past a range that may also overlap the next unit.
            let mut k = j;
            while k < alive_ranges.len() && alive_ranges[k].start < u.end {
                if let Some(frag) = u.intersect(&alive_ranges[k]) {
                    units.push(frag);
                    requests.push(UnitRequest {
                        bounds: frag == *u && self.unit_request(i).bounds,
                        bins: None,
                    });
                }
                k += 1;
            }
        }
        #[cfg_attr(not(feature = "audit"), allow(unused_mut))]
        let mut out = PruneOutcome {
            must_scan: self.must_scan.intersect(alive),
            scan_units: units,
            unit_requests: requests,
            full_match: self.full_match.intersect(alive),
            zones_probed: self.zones_probed,
            zones_skipped: self.zones_skipped,
            ..Default::default()
        };
        #[cfg(feature = "audit")]
        {
            out.audit_trace = self.audit_trace.clone();
        }
        out
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
    /// One entry per scanned range of `PruneOutcome::must_scan`, in order.
    pub ranges: Vec<RangeObservation<T>>,
}

impl<T: DataValue> ScanObservation<T> {
    /// Observation with no scanned ranges (fully skipped or fully matched).
    pub fn empty(predicate: RangePredicate<T>) -> Self {
        ScanObservation {
            predicate,
            ranges: Vec::new(),
        }
    }

    /// Total qualifying rows across scanned ranges.
    pub fn total_qualifying(&self) -> usize {
        self.ranges.iter().map(|r| r.qualifying).sum()
    }

    /// Total rows scanned.
    pub fn total_scanned(&self) -> usize {
        self.ranges.iter().map(|r| r.range.len()).sum()
    }
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
        assert_eq!(o.rows_to_scan(), 100);
        assert_eq!(o.rows_full_match(), 0);
        assert_eq!(o.skip_fraction(100), 0.0);
        assert_eq!(o.zones_probed, 0);
    }

    #[test]
    fn skip_fraction_counts_full_match_as_skipped() {
        let mut o = PruneOutcome::default();
        o.must_scan.push_span(0, 25);
        o.full_match.push_span(50, 75);
        assert!((o.skip_fraction(100) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn skip_fraction_empty_table() {
        assert_eq!(PruneOutcome::default().skip_fraction(0), 0.0);
    }

    #[test]
    fn units_fall_back_to_must_scan() {
        let mut o = PruneOutcome::default();
        o.must_scan.push_span(0, 10);
        o.must_scan.push_span(20, 30);
        assert_eq!(o.units().len(), 2);
        o.scan_units = vec![
            RowRange::new(0, 5),
            RowRange::new(5, 10),
            RowRange::new(20, 30),
        ];
        assert_eq!(o.units().len(), 3);
    }

    #[test]
    fn restrict_to_intersects_and_fragments_units() {
        let mut o = PruneOutcome::default();
        o.must_scan.push_span(0, 30);
        o.scan_units = vec![
            RowRange::new(0, 10),
            RowRange::new(10, 20),
            RowRange::new(20, 30),
        ];
        let layout = MaskRequest {
            lo_f: 0.0,
            hi_f: 1.0,
        };
        o.unit_requests = vec![
            UnitRequest::NOTHING,
            UnitRequest {
                bounds: true,
                bins: Some(layout),
            },
            UnitRequest {
                bounds: true,
                bins: None,
            },
        ];
        o.full_match.push_span(40, 50);
        o.zones_probed = 4;
        o.zones_skipped = 1;
        let mut alive = RangeSet::new();
        alive.push_span(5, 12);
        alive.push_span(18, 45);
        let r = o.restrict_to(&alive);
        assert_eq!(r.must_scan.covered_rows(), 7 + 2 + 10);
        assert_eq!(
            r.scan_units,
            vec![
                RowRange::new(5, 10),
                RowRange::new(10, 12),
                RowRange::new(18, 20),
                RowRange::new(20, 30),
            ]
        );
        // Each fragment sits inside exactly one original unit.
        for frag in &r.scan_units {
            assert!(o
                .scan_units
                .iter()
                .any(|u| u.start <= frag.start && frag.end <= u.end));
        }
        // Only the whole-unit fragment keeps its bounds request; the
        // fragment of the bins-requesting unit loses both.
        assert_eq!(
            r.unit_requests.iter().map(|q| q.bounds).collect::<Vec<_>>(),
            [false, false, false, true]
        );
        assert!(r.unit_requests.iter().all(|q| q.bins.is_none()));
        assert_eq!(r.full_match.covered_rows(), 5);
        assert_eq!(r.zones_probed, 4);
        assert_eq!(r.zones_skipped, 1);
        // Unit coverage equals the restricted must_scan coverage.
        let total: usize = r.scan_units.iter().map(RowRange::len).sum();
        assert_eq!(total, r.must_scan.covered_rows());
    }

    #[test]
    fn restrict_to_uses_must_scan_when_no_units() {
        let mut o = PruneOutcome::default();
        o.must_scan.push_span(0, 10);
        o.must_scan.push_span(20, 30);
        let mut alive = RangeSet::new();
        alive.push_span(5, 25);
        let r = o.restrict_to(&alive);
        assert_eq!(
            r.scan_units,
            vec![RowRange::new(5, 10), RowRange::new(20, 25)]
        );
        // One alive range spanning two units must not be consumed early.
        assert_eq!(r.must_scan.covered_rows(), 10);
    }

    #[test]
    fn restrict_to_empty_alive_clears_everything() {
        let o = PruneOutcome::scan_all(100);
        let r = o.restrict_to(&RangeSet::new());
        assert!(r.must_scan.is_empty());
        assert!(r.scan_units.is_empty());
        assert!(r.full_match.is_empty());
    }

    #[test]
    fn observation_totals() {
        let pred = RangePredicate::between(0i64, 10);
        let obs = ScanObservation {
            predicate: pred,
            ranges: vec![
                RangeObservation::new(RowRange::new(0, 10), 3, -5, 40),
                RangeObservation::new(RowRange::new(20, 25), 5, 0, 9),
            ],
        };
        assert_eq!(obs.total_qualifying(), 8);
        assert_eq!(obs.total_scanned(), 15);
        assert_eq!(ScanObservation::empty(pred).total_scanned(), 0);
    }
}
