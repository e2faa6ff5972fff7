//! The adaptive zonemap: zone metadata as a workload-driven investment.
//!
//! Where a static zonemap pays its full metadata cost up front and at one
//! fixed granularity, the adaptive zonemap:
//!
//! * starts with **unbuilt** zones and materialises `(min, max)` as a
//!   by-product of scans the queries had to run anyway (lazy build);
//! * **splits** zones that keep being scanned for little yield, raising
//!   skipping resolution exactly where the workload lands — and only while
//!   each child saves more scanning than the probe it adds to every query
//!   ([`CostModel::split_benefit`]);
//! * **merges** adjacent zones whose metadata never causes skips, cutting
//!   the per-query probe bill;
//! * **deactivates** regions where even maximal zones never skip, restoring
//!   plain-scan performance on adversarial (random) data — and optionally
//!   **revives** them with exponential backoff so a shifted workload can
//!   re-earn metadata.
//!
//! Structural operations live in `maintenance.rs`; this file holds the
//! container, the prune/observe protocol, and the append path.
//!
//! Every prune entry point is one zone walk: [`walk`] visits zones — all
//! of them, or those an alive set still touches — and [`Walk::probe`]
//! reads each one's bounds, tests overlap, asks the one classifier about
//! what the bounds cannot exclude and writes the decision into the
//! [`PruneOutcome`]. On the plane, for a point on a map with tiers, the
//! zones the bounds leave wait in a [`ZoneBatch`] of 64, whose bloom
//! tiers are read in one loop before any of them is classified. The walk borrows the map immutably and writes only
//! the outcome, so a reader on a published clone
//! ([`AdaptiveZonemap::prune_shared`]) and the owner (after the due
//! revivals, [`AdaptiveZonemap::poll_revival`]) run the same function.
//! The map learns a query in one step, [`AdaptiveZonemap::apply_feedback`]
//! ([`SkippingIndex::observe`]): the clock tick, then the walk the
//! observation carries back recorded (`record_walk`). A zone the bounds
//! exclude appears in no outcome and is written by no one: the map
//! advances its probe clock once per unrestricted walk, and every built
//! zone's probe and skip counts follow from it ([`ZoneStats`]). That is
//! what lets the walk exclude zones 64 at a time ([`Walk::span`]) and
//! probe only the survivors.

use crate::adaptive::config::AdaptiveConfig;
use crate::adaptive::plane::{PrunePlane, ZoneBatch, MIN_RUN};
use crate::adaptive::tier::TierStats;
use crate::adaptive::zone::{AdaptiveZone, TierTelemetry, ZoneMask, ZoneState, ZoneTier};
use crate::cost::CostModel;
use crate::index::SkippingIndex;
use crate::outcome::{MaskRequest, PruneOutcome, ScanObservation, UnitRequest};
use crate::predicate::RangePredicate;
use crate::stats::{IndexStats, PruneStats, ZoneStats};
use crate::trace::{AdaptEvent, AdaptTrace};
use ads_storage::{BloomSketch, DataValue, RangeSet, RowRange};

/// Events retained in the adaptation trace ring.
const TRACE_CAPACITY: usize = 4096;

/// A scan that builds at least one zone in this many (and at least a
/// run's worth) re-derives the plane's runs.
const REDERIVE_SHARE: usize = 16;

/// Qualifying fraction below which a scan through a zone counts as
/// "wasted" (the zone was read for almost nothing — its metadata was too
/// coarse to exclude it).
const SPLIT_LOW_YIELD: f64 = 0.02;

/// Children a split of one `rows`-row zone produces: back to target
/// granularity in one step for a zone merging or revival left oversized
/// (at most 8 at a time), never below the row floor, at least 2.
fn split_parts(rows: usize, config: &AdaptiveConfig) -> usize {
    (rows / config.target_zone_rows)
        .clamp(2, 8)
        .min(rows / config.min_zone_rows.max(1))
        .max(2)
}

/// An adaptive zonemap over one column of `len` rows.
///
/// Construction is O(#zones) and touches no data: all metadata is earned
/// later through the [`SkippingIndex::observe`] feedback channel.
#[derive(Debug, Clone)]
pub struct AdaptiveZonemap<T: DataValue> {
    pub(crate) zones: Vec<AdaptiveZone<T>>,
    /// Dense SoA mirror of the probe-critical zone fields; see
    /// [`PrunePlane`] for the mirroring invariant.
    pub(crate) plane: PrunePlane<T>,
    pub(crate) config: AdaptiveConfig,
    pub(crate) cost: CostModel,
    pub(crate) trace: AdaptTrace,
    pub(crate) stats: IndexStats,
    pub(crate) query_seq: u64,
    /// Unrestricted owner walks so far: each probed every built zone, so
    /// a zone's probe count is this clock since its history started plus
    /// its restricted visits ([`ZoneStats`]).
    pub(crate) probe_clock: u64,
    pub(crate) len: usize,
    /// Earliest query number at which some dead zone is due a revival
    /// check; `u64::MAX` when none are dead or revival is disabled.
    pub(crate) next_revival_check: u64,
    /// Counts changes to what a reader's walk reads (DESIGN.md "What a
    /// reader reads off a snapshot"): zone bounds built or moved, masks
    /// and tiers attached or dropped, structural maintenance that changed
    /// something, revivals, appends — and the one statistic among them,
    /// a zone's [`AdaptiveZone::wants_mask`] answer flipping as a scan
    /// moves its `wasted_scans` across the threshold. Publication layers compare
    /// epochs to skip republishing unchanged state. Everything else a
    /// query leaves behind — probe/skip tallies, scan counts, a
    /// re-observation of bounds the zone already holds — does NOT bump
    /// it: a snapshot stale in those decides exactly as a fresh one.
    pub(crate) mutation_epoch: u64,
    /// `query_seq` of the last maintenance round: the next runs once the
    /// clock crosses a `maintenance_every` boundary past it.
    pub(crate) maintained_at: u64,
    /// Lifetime metadata-tier counters the trace does not keep (skip
    /// benefit, time spent); see [`TierStats`].
    pub(crate) tier_lifetime: TierStats,
}

impl<T: DataValue> AdaptiveZonemap<T> {
    /// Creates an adaptive zonemap for a column of `len` rows.
    ///
    /// # Panics
    /// Panics if `config` is inconsistent (see [`AdaptiveConfig::validate`]).
    pub fn new(len: usize, config: AdaptiveConfig) -> Self {
        Self::with_cost(len, config, CostModel::default())
    }

    /// As [`AdaptiveZonemap::new`] with an explicit cost model.
    ///
    /// epoch: constructor — starts at epoch 0 and is unreachable by
    /// readers until first published.
    pub fn with_cost(len: usize, config: AdaptiveConfig, cost: CostModel) -> Self {
        config.validate();
        let mut zones = Vec::with_capacity(len.div_ceil(config.target_zone_rows.max(1)));
        let mut start = 0;
        while start < len {
            let end = (start + config.target_zone_rows).min(len);
            zones.push(AdaptiveZone::unbuilt(start, end));
            start = end;
        }
        let trace = AdaptTrace::new(TRACE_CAPACITY);
        let plane = PrunePlane::from_zones(&zones);
        let zm = AdaptiveZonemap {
            zones,
            plane,
            config,
            cost,
            trace,
            stats: IndexStats::default(),
            query_seq: 0,
            probe_clock: 0,
            len,
            next_revival_check: u64::MAX,
            mutation_epoch: 0,
            maintained_at: 0,
            tier_lifetime: TierStats::default(),
        };
        zm.assert_invariants();
        zm
    }

    /// Number of rows covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when covering zero rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current number of zone entries (probe cost per query is
    /// proportional to this).
    pub fn num_zones(&self) -> usize {
        self.zones.len()
    }

    /// The adaptation event trace.
    pub fn trace(&self) -> &AdaptTrace {
        &self.trace
    }

    /// Lifetime pruning statistics.
    pub fn index_stats(&self) -> IndexStats {
        self.stats
    }

    /// The active configuration.
    pub fn config(&self) -> &AdaptiveConfig {
        &self.config
    }

    /// The reader-visible mutation epoch: increments whenever zone
    /// metadata changes in a way a reader would decide differently from
    /// (build, tighten, mask, tier, split, merge, deactivate, coalesce,
    /// revive, append, or a scan that makes a
    /// zone start or stop asking for a value mask). Two equal epochs mean
    /// a previously published clone of this zonemap still prunes
    /// identically — [`AdaptiveZonemap::prune_shared`] returns the same
    /// units, requests, full-match spans and skip count for every
    /// predicate (property-tested) — so republication can be skipped.
    pub fn mutation_epoch(&self) -> u64 {
        self.mutation_epoch
    }

    /// A structural snapshot: `(range, state label, skip rate)` per zone,
    /// for dashboards and the demo-style trace example.
    pub fn zone_snapshot(&self) -> Vec<(RowRange, &'static str, f64)> {
        self.zones
            .iter()
            .map(|z| {
                let label = match z.state {
                    // A tier outranks the exactness distinction — the
                    // tier is the zone's defining metadata investment.
                    ZoneState::Built { .. } if z.has_tier() => "built+bloom",
                    ZoneState::Unbuilt => "unbuilt",
                    ZoneState::Built { exact: true, .. } => "built",
                    ZoneState::Built { exact: false, .. } => "built~",
                    ZoneState::Dead { .. } => "dead",
                };
                (z.range(), label, z.stats.skip_rate(self.probe_clock))
            })
            .collect()
    }

    /// Zones by state: `(unbuilt, built, dead)`.
    pub fn state_counts(&self) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for z in &self.zones {
            match z.state {
                ZoneState::Unbuilt => counts.0 += 1,
                ZoneState::Built { .. } => counts.1 += 1,
                ZoneState::Dead { .. } => counts.2 += 1,
            }
        }
        counts
    }

    /// The smallest zone a split may still divide: two children at the row
    /// floor, each big enough to pay for its own probe. Below it a zone
    /// that keeps wasting scans asks for a value mask instead
    /// ([`AdaptiveZone::wants_mask`]).
    fn min_split_rows(&self) -> usize {
        (2 * self.config.min_zone_rows).max(2 * self.cost.min_profitable_zone_rows())
    }

    /// Verifies the zone partition invariant: contiguous, non-empty zones
    /// covering exactly `[0, len)`. Cheap enough to run after every
    /// structural change in debug builds; tests call it directly.
    pub fn assert_invariants(&self) {
        if self.len == 0 {
            assert!(self.zones.is_empty(), "zones over empty column");
            return;
        }
        assert_eq!(self.zones.first().map(|z| z.start), Some(0), "gap at front");
        assert_eq!(
            self.zones.last().map(|z| z.end),
            Some(self.len),
            "gap at back"
        );
        for w in self.zones.windows(2) {
            assert_eq!(w[0].end, w[1].start, "zones not contiguous");
        }
        assert!(
            self.zones.iter().all(|z| !z.is_empty()),
            "empty zone present"
        );
        assert!(
            self.plane.mirrors(&self.zones),
            "prune plane out of sync with zones"
        );
    }
}

impl<T: DataValue> SkippingIndex<T> for AdaptiveZonemap<T> {
    fn name(&self) -> String {
        let mut flags = String::new();
        if self.config.enable_split {
            flags.push('s');
        }
        if self.config.enable_merge {
            flags.push('m');
        }
        if self.config.enable_deactivate {
            flags.push('d');
        }
        if self.config.enable_mask {
            flags.push('v'); // value masks
        }
        if self.config.enable_tiers {
            flags.push('t'); // per-zone metadata tiers
        }
        if flags.is_empty() {
            flags.push_str("lazy");
        }
        format!(
            "adaptive-zonemap({}, {})",
            self.config.target_zone_rows, flags
        )
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn prune(&mut self, pred: &RangePredicate<T>) -> PruneOutcome {
        self.poll_revival();
        walk::<T, true>(self, pred, None)
    }

    fn observe(&mut self, obs: &ScanObservation<T>) {
        self.apply_feedback(obs);
    }

    fn on_append(&mut self, appended: &[T], base: &[T]) {
        debug_assert_eq!(self.len + appended.len(), base.len());
        let new_len = base.len();
        let target = self.config.target_zone_rows;

        let mut start = self.len;
        // Extend a trailing unbuilt zone up to target size before opening
        // new zones, so trickle appends don't fragment the tail.
        if let Some(last) = self.zones.last_mut() {
            if matches!(last.state, ZoneState::Unbuilt) && last.len() < target {
                last.end = (last.start + target).min(new_len);
                start = last.end;
                if let Some(end) = self.plane.ends.last_mut() {
                    *end = last.end;
                }
            }
        }
        while start < new_len {
            let end = (start + target).min(new_len);
            self.zones.push(AdaptiveZone::unbuilt(start, end));
            self.plane.push_unbuilt(end);
            start = end;
        }
        self.len = new_len;
        self.mutation_epoch += 1;

        #[cfg(debug_assertions)]
        self.assert_invariants();
    }

    fn metadata_bytes(&self) -> usize {
        self.zones.capacity() * std::mem::size_of::<AdaptiveZone<T>>()
            + self.plane.heap_bytes()
            + self
                .zones
                .iter()
                .filter_map(|z| z.tier.as_ref().map(ZoneTier::metadata_bytes))
                .sum::<usize>()
    }

    fn adapt_events(&self) -> u64 {
        self.trace.total_events()
    }

    fn prune_stats(&self) -> Option<PruneStats> {
        // Rows-weighted per-zone skip-rate estimate, optimistic for zones
        // with no probe history (unbuilt, or built but never probed): a
        // cold structure must look worth probing or it never gets the
        // probes that would train the estimate. Dead zones estimate 0 —
        // the map itself already concluded they cannot skip.
        let mut weighted = 0.0;
        for z in &self.zones {
            let rate = match z.state {
                ZoneState::Dead { .. } => 0.0,
                ZoneState::Unbuilt => 1.0,
                ZoneState::Built { .. } if z.stats.probes(self.probe_clock) == 0 => 1.0,
                ZoneState::Built { .. } => z.stats.skip_rate(self.probe_clock),
            };
            weighted += rate * z.len() as f64;
        }
        let est = if self.len == 0 {
            0.0
        } else {
            weighted / self.len as f64
        };
        // A tiered zone costs an extra metadata read per probe (the
        // sketch consultation), so it weighs as two probe entries in the
        // planner's probe-cost model.
        let tiered = self.zones.iter().filter(|z| z.has_tier()).count();
        Some(PruneStats {
            probe_entries: self.zones.len() + tiered,
            est_skip_fraction: est,
            queries_observed: self.stats.queries,
        })
    }

    fn prune_within(&mut self, pred: &RangePredicate<T>, alive: &RangeSet) -> PruneOutcome {
        self.poll_revival();
        walk::<T, true>(self, pred, Some(alive)).restrict_to(alive)
    }

    fn maintain(&mut self, base: &[T]) {
        // Tier maintenance rides the same amortization clock as
        // structural maintenance: one round each time the query clock
        // crosses a `maintenance_every` boundary, however many queries
        // (inline: one; served: a round's worth) crossed it.
        let every = self.config.maintenance_every;
        if self.query_seq / every == self.maintained_at / every {
            return;
        }
        self.maintained_at = self.query_seq;
        self.apply_tiers(base);
    }
}

/// What pruning decided for a built zone whose `(min, max)` the predicate
/// overlaps.
enum OverlapAction {
    /// The predicate contains the zone's value range: every row qualifies.
    FullMatch,
    /// The secondary value mask excludes the zone despite overlapping
    /// bounds — the outlier case.
    MaskSkip,
    /// The zone's bloom tier excludes it despite overlapping bounds: the
    /// point predicate's value is in no row of the zone.
    TierSkip,
    /// The zone must be scanned, computing what the request names beside
    /// the answer.
    Scan(UnitRequest),
}

/// The probe decision for a built zone whose `(min, max)` the predicate
/// overlaps: full-match detection, value-mask and tier secondary
/// pruning, and the mask-request choice. Pure — reads the zone, mutates
/// nothing. `bloom_excludes` answers whether the zone's
/// bloom tier proves the point absent ([`bloom_excludes`]); it is asked
/// only when the checks before it leave the zone, and the plane walk and
/// `record_walk` answer it from a batch's tiers read at once. [`Walk`]
/// decides with it, so every prune entry point decides identically by
/// construction; the owner records a walk's overlapping zones with it
/// (`record_walk`).
fn classify_overlapping_zone<T: DataValue>(
    zone: &AdaptiveZone<T>,
    pred: &RangePredicate<T>,
    min: T,
    max: T,
    config: &AdaptiveConfig,
    min_split_rows: usize,
    bloom_excludes: impl FnOnce() -> bool,
) -> OverlapAction {
    if pred.contains_zone(min, max) {
        return OverlapAction::FullMatch;
    }
    if let Some(mask) = zone.mask {
        let bits = mask
            .layout
            .predicate_bits(pred.lo.to_f64(), pred.hi.to_f64());
        if mask.bits & bits == 0 {
            return OverlapAction::MaskSkip;
        }
    }
    // Metadata tier, consulted only when the cheap checks above could
    // not resolve the zone. The sketch is sound-but-conservative: it may
    // over-admit (scan a zone for nothing) but never exclude a row that
    // qualifies — deleted rows in particular are still present in the
    // base column the tier was built over, so delete churn can only make
    // a tier admit *more* than necessary.
    if bloom_excludes() {
        return OverlapAction::TierSkip;
    }
    // Ask the scan to collect a mask for zones that keep wasting scans
    // but can refine no further positionally.
    let bins = zone
        .wants_mask(config, min_split_rows)
        .then_some(MaskRequest {
            lo_f: min.to_f64(),
            hi_f: max.to_f64(),
        });
    OverlapAction::Scan(scan_request(zone, bins))
}

/// Whether `zone`'s bloom tier proves that no row of it holds `pred`'s
/// value. A value-set sketch answers only equality probes: range
/// predicates (and admitted points) scan. The zone-by-zone reference asks
/// here; the plane walk reads the same answers for a batch at once
/// ([`ZoneBatch::bloom_excluded`]).
fn bloom_excludes<T: DataValue>(zone: &AdaptiveZone<T>, pred: &RangePredicate<T>) -> bool {
    match &zone.tier {
        Some(ZoneTier::Bloom(sketch)) => pred.is_point() && !sketch.may_contain(pred.lo),
        None => false,
    }
}

/// What a scan of the whole of `zone` can still teach its metadata: the
/// exact bounds while they are missing or conservative, plus `bins` when
/// the classifier wants a value mask. A `Dead` zone discards whatever it
/// is told and an exact zone would be told what it knows, so neither
/// asks — which is what lets a scan nothing can be skipped in run at the
/// speed of a store without metadata.
fn scan_request<T: DataValue>(zone: &AdaptiveZone<T>, bins: Option<MaskRequest>) -> UnitRequest {
    UnitRequest {
        bounds: matches!(
            zone.state,
            ZoneState::Unbuilt | ZoneState::Built { exact: false, .. }
        ),
        bins,
    }
}

/// Records in `zone` a probe whose bounds overlapped and classified as
/// `action`: the overlap and tier consultation it counts.
///
/// epoch: overlap counts and the tier consultation window are stat
/// drift; nothing a reader decides from changes here.
fn record_probe<T: DataValue>(
    zone: &mut AdaptiveZone<T>,
    action: &OverlapAction,
    tier_life: &mut TierStats,
) {
    if zone.has_tier() && matches!(action, OverlapAction::TierSkip | OverlapAction::Scan(_)) {
        zone.tier_stats.tier_probes = zone.tier_stats.tier_probes.saturating_add(1);
    }
    match action {
        OverlapAction::FullMatch | OverlapAction::Scan(_) => {
            zone.stats.record_overlap();
        }
        OverlapAction::MaskSkip => {}
        OverlapAction::TierSkip => {
            zone.tier_stats.tier_hits = zone.tier_stats.tier_hits.saturating_add(1);
            tier_life.tier_skips += 1;
            tier_life.tier_rows_excluded += zone.len() as u64;
        }
    }
}

/// The probe hashes of `pred`'s value when it is a point, the one kind
/// of predicate a value-set tier answers, on a map that builds tiers:
/// computed once per walk, and once per recorded walk. `None` when no
/// tier can decide a zone.
fn point_hashes<T: DataValue>(
    pred: &RangePredicate<T>,
    config: &AdaptiveConfig,
) -> Option<[u64; 2]> {
    (config.enable_tiers && pred.is_point()).then(|| BloomSketch::probe_hashes(pred.lo))
}

/// The zone walk every prune entry point runs: probes each zone of `map`
/// in order — or, given `alive`, only the zones it touches, each once —
/// and writes the decisions into the outcome, nothing into the map. With
/// `PLANE` the bounds come off the dense [`PrunePlane`], whose runs
/// ([`Walk::runs`]) and packed bounds filter ([`Walk::span`]) an
/// unrestricted walk uses, and for a point on a map with tiers the zones
/// the bounds leave are probed a [`ZoneBatch`] at a time; without it, off
/// each zone's record, zone by zone — the array-of-structs reference.
pub(super) fn walk<T: DataValue, const PLANE: bool>(
    map: &AdaptiveZonemap<T>,
    pred: &RangePredicate<T>,
    alive: Option<&RangeSet>,
) -> PruneOutcome {
    let mut walk = Walk {
        map,
        pred,
        min_split_rows: map.min_split_rows(),
        point: point_hashes(pred, &map.config),
        batch: ZoneBatch::new(),
        out: PruneOutcome::for_prune(),
    };
    let everything = [RowRange::new(0, map.len)];
    let mut next = 0;
    if PLANE && alive.is_none() && !map.plane.runs.is_empty() {
        next = walk.runs();
    }
    // The plain pass: every zone from `next` on, or those `alive` touches.
    for span in alive.map_or(&everything[..], RangeSet::ranges) {
        let zones = map.plane.touched(*span, next);
        next = zones.end;
        walk.span::<PLANE>(zones);
    }
    walk.flush();
    walk.out
}

/// One walk in progress: what it reads, the zones the bounds left that
/// wait to be probed, and the outcome it writes.
struct Walk<'a, T: DataValue> {
    map: &'a AdaptiveZonemap<T>,
    pred: &'a RangePredicate<T>,
    min_split_rows: usize,
    /// The predicate's probe hashes, when a tier can decide a zone.
    point: Option<[u64; 2]>,
    /// Zones the bounds did not exclude, not yet probed (plane, `point`
    /// only).
    batch: ZoneBatch,
    out: PruneOutcome,
}

impl<T: DataValue> Walk<'_, T> {
    /// Walks the zones up to the end of the plane's last ordered run and
    /// returns that end. Each run `[a, b)` is crossed with two binary
    /// searches: the zones the predicate overlaps are the slice
    /// `[first, last)` — below it every `max < lo`, above it every
    /// `min > hi` — and only those are probed. The rest are bounds skips,
    /// counted as the plain pass counts them. Zones between runs go
    /// through [`Walk::span`].
    ///
    /// Kept out of line, so that [`walk`]'s plain pass compiles as it does
    /// for a map without runs.
    #[inline(never)]
    fn runs(&mut self) -> usize {
        let (map, pred) = (self.map, self.pred);
        let mut next = 0;
        for &(a, b) in &map.plane.runs {
            self.span::<true>(next..a);
            let plane = &map.plane;
            let first = a + plane.maxs[a..b].partition_point(|max| max.lt_total(&pred.lo));
            let last = first + plane.mins[first..b].partition_point(|min| min.le_total(&pred.hi));
            let excluded = (b - a) - (last - first);
            self.out.zones_probed += excluded;
            self.out.zones_skipped += excluded;
            self.audit_bounds_skips(a..first);
            for idx in first..last {
                self.push(idx);
            }
            self.audit_bounds_skips(last..b);
            next = b;
        }
        next
    }

    /// Probes the zones `zones` in order. On the plane it first tests them
    /// 64 at a time ([`PrunePlane::bounds_excluded`]: built, and
    /// `max < lo` or `hi < min`, packed from the dense bounds without a
    /// branch), counts the zones that test excludes as probed and skipped
    /// in one add, and batches only the rest — unbuilt or dead, or
    /// overlapping — ascending. What it writes is what probing every zone
    /// writes: an excluded zone would have written nothing but those two
    /// counts (and, under `audit`, its `skip:bounds` label, which the same
    /// loop records in zone order). The reference probes zone by zone.
    #[inline(always)]
    fn span<const PLANE: bool>(&mut self, zones: std::ops::Range<usize>) {
        if !PLANE {
            for idx in zones {
                self.probe::<false>(idx, false);
            }
            return;
        }
        let (lo, hi) = (self.pred.lo.total_key(), self.pred.hi.total_key());
        let mut first = zones.start;
        while first < zones.end {
            // Up to the end of `first`'s 64-zone word of the built bitset.
            let end = (first / 64 * 64 + 64).min(zones.end);
            let excluded = self.map.plane.bounds_excluded(first..end, lo, hi);
            // narrowing: count_ones of a u64 is at most 64.
            let skipped = excluded.count_ones() as usize;
            self.out.zones_probed += skipped;
            self.out.zones_skipped += skipped;
            let span = u64::MAX >> (64 - (end - first));
            let mut visit = if cfg!(feature = "audit") {
                span
            } else {
                span & !excluded
            };
            while visit != 0 {
                // narrowing: trailing_zeros of a non-zero u64 is below 64.
                let i = visit.trailing_zeros() as usize;
                visit &= visit - 1;
                if cfg!(feature = "audit") && excluded >> i & 1 != 0 {
                    self.audit_bounds_skips(first + i..first + i + 1);
                } else {
                    self.push(first + i);
                }
            }
            first = end;
        }
    }

    /// Under `audit`, labels the zones `zones` `skip:bounds` after the
    /// zones batched before them, so the trail lists every zone in order;
    /// otherwise nothing. Gated here, not only inside `record_decision`:
    /// naming a zone reads its record, and a bounds skip must stay on the
    /// plane.
    #[inline(always)]
    fn audit_bounds_skips(&mut self, zones: std::ops::Range<usize>) {
        if cfg!(feature = "audit") {
            self.flush();
            for idx in zones {
                self.out
                    .record_decision(self.map.zones[idx].range(), "skip:bounds");
            }
        }
    }

    /// Probes zone `idx` now when no tier can decide it, else batches it
    /// above every zone batched so far and probes the batch once it is
    /// full: without tiers to read, a batch would only defer the probes.
    #[inline(always)]
    fn push(&mut self, idx: usize) {
        if self.point.is_none() {
            self.probe::<true>(idx, false);
        } else if self.batch.push(idx) {
            self.flush();
        }
    }

    /// Probes the batched zones: their bloom tiers first, read in one
    /// pass of independent loads, then each zone in ascending order, its
    /// tier's answer given to the classifier at the classifier's step.
    #[inline(never)]
    fn flush(&mut self) {
        let excluded = self
            .batch
            .bloom_excluded(&self.map.zones, self.point.as_ref());
        for i in 0..self.batch.zones().len() {
            let idx = self.batch.zones()[i];
            self.probe::<true>(idx, excluded >> i & 1 != 0);
        }
        self.batch.clear();
    }

    /// Probes one zone: reads its bounds, tests overlap, classifies what
    /// the bounds cannot exclude, and writes the decision into the
    /// outcome. On the plane `bloom_excluded` is the zone's tier answer,
    /// read with its batch; the reference asks the tier itself. Inlined
    /// at each of its loops: left to the inliner, a function with more
    /// than one caller became a call per zone, which slowed the plain
    /// pass by about half.
    #[inline(always)]
    fn probe<const PLANE: bool>(&mut self, idx: usize, bloom_excluded: bool) {
        let (map, pred, out) = (self.map, self.pred, &mut self.out);
        out.zones_probed += 1;
        // Off the plane, or off the zone's record for the reference.
        let bounds = if PLANE {
            map.plane.bounds(idx)
        } else if let ZoneState::Built { min, max, .. } = map.zones[idx].state {
            Some((min, max))
        } else {
            None
        };
        let Some((min, max)) = bounds else {
            // Unbuilt and Dead zones scan identically; only the former can
            // learn from it.
            let zone = &map.zones[idx];
            out.push_unit(zone.range(), scan_request(zone, None));
            out.record_decision(zone.range(), "scan:unbuilt");
            return;
        };
        if !pred.overlaps(min, max) {
            out.zones_skipped += 1;
            // Gated here, not only inside `record_decision`: naming the
            // zone reads its record, and this path must stay on the plane.
            #[cfg(feature = "audit")]
            out.record_decision(map.zones[idx].range(), "skip:bounds");
            return;
        }
        let zone = &map.zones[idx];
        let range = zone.range();
        let tier = || {
            if PLANE {
                bloom_excluded
            } else {
                bloom_excludes(zone, pred)
            }
        };
        let action =
            classify_overlapping_zone(zone, pred, min, max, &map.config, self.min_split_rows, tier);
        let label = match action {
            OverlapAction::FullMatch => {
                out.full_match.push_span(range.start, range.end);
                "full:bounds"
            }
            OverlapAction::MaskSkip => {
                out.zones_skipped += 1;
                "skip:mask"
            }
            // Sound under an alive restriction too: no *base* row of the
            // zone qualifies, so no alive subset does either.
            OverlapAction::TierSkip => {
                out.zones_skipped += 1;
                out.tier_skips.push_span(range.start, range.end);
                "skip:bloom"
            }
            OverlapAction::Scan(request) => {
                out.push_unit(range, request);
                "scan"
            }
        };
        out.record_decision(range, label);
    }
}

impl<T: DataValue> AdaptiveZonemap<T> {
    /// The clock tick for each query the map learns from: the query
    /// clock, due revivals, and the walk's probes (the probe clock, or a
    /// visit to each built zone the rows `within` touch).
    ///
    /// epoch: the clocks and visit counts are stat drift.
    fn tick(&mut self, within: Option<&RangeSet>) {
        self.query_seq += 1;
        self.stats.queries += 1;
        self.revive_zones_due_at(self.query_seq);
        match within {
            None => self.probe_clock += 1,
            Some(within) => {
                let mut next = 0;
                for span in within.ranges() {
                    let zones = self.plane.touched(*span, next);
                    next = zones.end;
                    for zone in &mut self.zones[zones] {
                        if zone.is_built() {
                            zone.stats.record_visit();
                        }
                    }
                }
            }
        }
    }

    /// Records a walk over this map (its own, or a reader's over a
    /// published clone): each built zone over the rows its outcome names
    /// — units, full-match spans, tier skips, each zone once however a
    /// restriction cut its rows apart — whose bounds overlap `pred`
    /// ([`record_probe`]), never a zone the bounds excluded, and the
    /// lifetime totals. The zones are found and their bounds read off the
    /// plane, and recorded a [`ZoneBatch`] at a time, the batch's bloom
    /// tiers read in one pass first. Over a stale walk's rows the zones
    /// are recorded as a fresh walk would have decided them.
    ///
    /// epoch: `record_probe` writes statistics only.
    fn record_walk(&mut self, pred: &RangePredicate<T>, walked: &PruneOutcome) {
        let point = point_hashes(pred, &self.config);
        let mut batch = ZoneBatch::new();
        let mut units = walked.units.iter().map(|unit| unit.range);
        let mut spans = walked.full_match.ranges().iter().copied();
        let mut skips = walked.tier_skips.ranges().iter().copied();
        for entries in [
            &mut units as &mut dyn Iterator<Item = RowRange>,
            &mut spans,
            &mut skips,
        ] {
            let mut next = 0;
            for range in entries {
                // Ascending, and mostly lined up with the next zone.
                let zones = if self.plane.is_zone(next, range) {
                    next..next + 1
                } else {
                    self.plane.touched(range, next)
                };
                next = zones.end;
                for idx in zones {
                    let overlaps =
                        (self.plane.bounds(idx)).is_some_and(|(min, max)| pred.overlaps(min, max));
                    if overlaps && batch.push(idx) {
                        self.record_batch(pred, point.as_ref(), &mut batch);
                    }
                }
            }
        }
        self.record_batch(pred, point.as_ref(), &mut batch);
        self.stats.total_probes += walked.zones_probed as u64;
        self.stats.total_skips += walked.zones_skipped as u64;
        self.stats.rows_full_match += walked.full_match.covered_rows() as u64;
    }

    /// Records each zone of `batch` — built, its bounds overlapping
    /// `pred` — as the classifier decides it, and empties the batch.
    ///
    /// epoch: `record_probe` writes statistics only.
    fn record_batch(
        &mut self,
        pred: &RangePredicate<T>,
        point: Option<&[u64; 2]>,
        batch: &mut ZoneBatch,
    ) {
        let excluded = batch.bloom_excluded(&self.zones, point);
        let min_split_rows = self.min_split_rows();
        for (i, &idx) in batch.zones().iter().enumerate() {
            // invariant: only built zones are batched.
            let (min, max) = self.plane.bounds(idx).expect("a batched zone is built");
            let zone = &mut self.zones[idx];
            let action = classify_overlapping_zone(
                zone,
                pred,
                min,
                max,
                &self.config,
                min_split_rows,
                || excluded >> i & 1 != 0,
            );
            record_probe(zone, &action, &mut self.tier_lifetime);
        }
        batch.clear();
    }

    /// Read-only prune: the walk alone, **without mutating anything** —
    /// [`SkippingIndex::prune`] without its revival check. The
    /// concurrent-reader entry point: on a clone published after
    /// [`AdaptiveZonemap::poll_revival`] it decides as the owner's prune
    /// would, and the owner learns its walk from the query's feedback
    /// ([`AdaptiveZonemap::apply_feedback`]).
    pub fn prune_shared(&self, pred: &RangePredicate<T>) -> PruneOutcome {
        walk::<T, true>(self, pred, None)
    }

    /// A clone for publication to readers: everything
    /// [`AdaptiveZonemap::prune_shared`] and the counting accessors read,
    /// without the retained adaptation events (up to 4,096 of them,
    /// comparable in bytes to the zone metadata itself) that only the
    /// owner's [`AdaptiveZonemap::trace`] is ever asked for. Event totals
    /// carry over.
    pub fn clone_for_readers(&self) -> Self {
        AdaptiveZonemap {
            zones: self.zones.clone(),
            plane: self.plane.clone(),
            config: self.config.clone(),
            cost: self.cost,
            trace: self.trace.without_events(),
            stats: self.stats,
            query_seq: self.query_seq,
            probe_clock: self.probe_clock,
            len: self.len,
            next_revival_check: self.next_revival_check,
            mutation_epoch: self.mutation_epoch,
            maintained_at: self.maintained_at,
            tier_lifetime: self.tier_lifetime,
        }
    }

    /// The array-of-structs reference prune: [`SkippingIndex::prune`]
    /// with bounds read off each zone record instead of the dense plane,
    /// decision-identical (property-tested) — the baseline `kernels_json`
    /// gates the plane against.
    pub fn prune_via_zones(&mut self, pred: &RangePredicate<T>) -> PruneOutcome {
        self.poll_revival();
        walk::<T, false>(self, pred, None)
    }

    /// Does nothing. Kept only for `benchmark/src/library.rs`, whose hand
    /// copy of the service's loop calls it on every query; it goes when
    /// that copy moves onto `ads_server::Owner` (ROADMAP item 1(d)).
    pub fn apply_reorg(&mut self, _base: &[T]) {}

    /// Learns one query, whoever pruned it — the owner's
    /// [`SkippingIndex::prune`] or a reader's
    /// [`AdaptiveZonemap::prune_shared`] on a published clone: the clock
    /// tick, the walk the observation carries ([`ScanObservation::walk`])
    /// recorded, then what the scan measured (bounds, masks, splits, the
    /// periodic structural maintenance). [`SkippingIndex::observe`] is
    /// this. From a stale walk the zones now over its rows are recorded
    /// and only statistics move: staleness skews adaptation, never
    /// corrupts it.
    ///
    /// epoch: every write a reader's walk would read differently — a mask
    /// attached, bounds built or moved, a split queued, the zone's
    /// `wants_mask` answer flipped by the scan just recorded — sets
    /// `mutated` at its site and is covered by one bump at the end. What
    /// remains is stat drift no reader decides from, so a scan that
    /// re-observes what the zone already knows publishes nothing.
    pub fn apply_feedback(&mut self, obs: &ScanObservation<T>) {
        self.tick(obs.walk.within.as_ref());
        self.record_walk(&obs.predicate, &obs.walk);
        let mut split_queue: Vec<usize> = Vec::new();
        let mut mutated = false;
        let mut newly_built = 0;
        let min_split_rows = self.min_split_rows();

        for ro in &obs.ranges {
            self.stats.rows_scanned += ro.range.len() as u64;
            // An observation feeds adaptation only when it covers exactly
            // one zone: then its (min, max) is exact zone metadata and its
            // qualifying count an exact sample of the zone's yield.
            // (Composite ranges arise on the multi-column path, where
            // intersection breaks zone alignment; they are ignored here.)
            let Some(idx) = self.plane.zone_at(ro.range) else {
                continue;
            };
            let zone = &mut self.zones[idx];
            let frac = if zone.is_empty() {
                0.0
            } else {
                ro.qualifying as f64 / zone.len() as f64
            };
            let wanted_mask = zone.wants_mask(&self.config, min_split_rows);
            let was_built = match zone.state {
                ZoneState::Dead { .. } => continue,
                ZoneState::Unbuilt => false,
                ZoneState::Built { min, max, .. } => {
                    if let (Some(bits), None) = (ro.mask, zone.mask) {
                        // The layout is the zone's bounds as they were
                        // at prune time (the request we issued).
                        zone.mask = Some(ZoneMask {
                            layout: MaskRequest {
                                lo_f: min.to_f64(),
                                hi_f: max.to_f64(),
                            },
                            bits,
                        });
                        self.trace
                            .record(self.query_seq, AdaptEvent::MaskBuilt { range: ro.range });
                        mutated = true;
                    }
                    true
                }
            };
            // Build, or tighten to, the exact bounds just measured (a mask
            // keeps its own layout, which still covers all rows). A scan
            // that was not asked for bounds — the zone was exact or dead
            // in the snapshot it pruned — leaves the state alone: in
            // particular a zone revived to `Unbuilt` since then stays
            // unbuilt, never built from a fold identity.
            if let Some((min, max)) = ro.bounds {
                // Two stale readers may both have been asked for the same
                // bounds; the second teaches nothing and publishes nothing.
                let known = matches!(
                    zone.state,
                    ZoneState::Built { min: lo, max: hi, exact: true }
                        if lo.total_key() == min.total_key() && hi.total_key() == max.total_key()
                );
                if !known {
                    zone.state = ZoneState::Built {
                        min,
                        max,
                        exact: true,
                    };
                    self.plane.set_built(idx, min, max);
                    mutated = true;
                }
                if !was_built {
                    newly_built += 1;
                    // Every walk from now on probes the zone.
                    zone.stats.since = self.probe_clock;
                    self.trace
                        .record(self.query_seq, AdaptEvent::Built { range: ro.range });
                }
            }
            zone.stats.record_scan(frac, SPLIT_LOW_YIELD);
            if !was_built {
                continue;
            }
            // The scan moved `wasted_scans` across the mask threshold, in
            // either direction (a productive scan resets the streak): the
            // next reader of this zone would ask its scan for something
            // else than the last snapshot's reader did.
            mutated |= zone.wants_mask(&self.config, min_split_rows) != wanted_mask;
            // The wasted-scan threshold doubles per split generation: each
            // refinement level must earn the next with proportionally more
            // evidence, so data without positional locality stops
            // splitting after a couple of speculative levels instead of
            // racing to the floor. (There every scan of every zone is
            // wasted, the waste rate below reads 1.0, and the cost gate
            // passes — only this evidence of no skips gained says stop.)
            let waste_needed = self
                .config
                .split_after_wasted
                .saturating_mul(1 << zone.split_generation.min(16));
            if self.config.enable_split
                && !zone.no_resplit
                && zone.stats.wasted_scans >= waste_needed
                && zone.len() >= 2 * self.config.min_zone_rows
                // The split must pay for the probes it adds: each child
                // costs every query one probe, and saves its rows only
                // for the share of queries that read this zone for
                // nothing. A zone one point lookup in a thousand lands on
                // stays whole however many times it was "wasted".
                && self.cost.split_benefit(
                    zone.len(),
                    split_parts(zone.len(), &self.config),
                    zone.stats.waste_rate(self.probe_clock),
                ) >= 0.0
            {
                split_queue.push(idx);
                mutated = true;
            }
        }

        if !split_queue.is_empty() {
            // Ranges arrive one per scan unit, in row order; a caller that
            // broke that must not get a zone split twice or out of order.
            split_queue.sort_unstable();
            split_queue.dedup();
            // Rebuilds the plane, and so derives its runs.
            self.split_zones(&split_queue);
        } else if newly_built >= MIN_RUN && newly_built * REDERIVE_SHARE >= self.zones.len() {
            // A scan that built a good share of the zones at once — a cold
            // map's first, a compacted lane's rebuild — paid for more than
            // a pass over the bounds: runs form now, not at the next
            // structural change.
            self.plane.derive_runs();
        }
        if mutated {
            self.mutation_epoch += 1;
        }

        if self.query_seq.is_multiple_of(self.config.maintenance_every) {
            self.run_maintenance();
        }

        #[cfg(debug_assertions)]
        self.assert_invariants();
    }

    /// Revives the zones due at the *next* query, so its walk — the
    /// owner's [`SkippingIndex::prune`], whose only write this is, or a
    /// reader's on a snapshot published now — sees them. Returns `true`
    /// when any zone was revived. Idempotent: the next tick (in
    /// [`AdaptiveZonemap::apply_feedback`]) finds nothing newly due.
    pub fn poll_revival(&mut self) -> bool {
        self.revive_zones_due_at(self.query_seq + 1)
    }

    /// Splits each zone of `queue` (non-empty, ascending indices of zones
    /// of at least twice the row floor) into parts,
    /// inheriting the parent's bounds as conservative (non-exact) metadata
    /// so skipping keeps working until the next scan tightens each part.
    /// One pass: the zone vector grows in place, zones move back to front
    /// to their final slots, and the plane is rebuilt once.
    ///
    /// epoch: the only caller (`observe`) sets `mutated` for every queued
    /// split and bumps once at its end.
    ///
    /// lifecycle: children are constructed with `mask: None` and
    /// `tier: None` below — the parent's metadata
    /// covered a different row range and must not survive the split.
    fn split_zones(&mut self, queue: &[usize]) {
        debug_assert!(
            queue.windows(2).all(|w| w[0] < w[1]),
            "split queue out of order"
        );
        let part_rows =
            |zone: &AdaptiveZone<T>| zone.len().div_ceil(split_parts(zone.len(), &self.config));
        let added: usize = queue
            .iter()
            .map(|&idx| self.zones[idx].len().div_ceil(part_rows(&self.zones[idx])) - 1)
            .sum();
        let old_len = self.zones.len();
        // Grown by `realloc`: a second vector beside the first would
        // hold both at once.
        self.zones.reserve_exact(added);
        self.zones
            .resize_with(old_len + added, || AdaptiveZone::unbuilt(0, 0));
        let mut to = old_len + added;
        let mut queued = queue.iter().rev().peekable();
        for idx in (0..old_len).rev() {
            if queued.next_if_eq(&&idx).is_none() {
                to -= 1;
                self.zones.swap(idx, to);
                continue;
            }
            let zone = std::mem::replace(&mut self.zones[idx], AdaptiveZone::unbuilt(0, 0));
            let inherited = match zone.state {
                ZoneState::Built { min, max, .. } => ZoneState::Built {
                    min,
                    max,
                    exact: false,
                },
                other => other,
            };
            let part_rows = part_rows(&zone);
            let parts = zone.len().div_ceil(part_rows);
            to -= parts;
            for (k, child) in self.zones[to..to + parts].iter_mut().enumerate() {
                let start = zone.start + k * part_rows;
                *child = AdaptiveZone {
                    start,
                    end: (start + part_rows).min(zone.end),
                    state: inherited,
                    stats: ZoneStats::starting_at(self.probe_clock),
                    deactivations: zone.deactivations,
                    no_resplit: false,
                    split_generation: zone.split_generation.saturating_add(1),
                    // The parent's mask covered a different row range.
                    mask: None,
                    // Likewise the parent's tier: built over different
                    // rows, so children re-earn their own.
                    tier: None,
                    tier_stats: TierTelemetry::default(),
                    tier_drops: 0,
                };
            }
            // Back to front, as the splits are applied.
            self.trace.record(
                self.query_seq,
                AdaptEvent::Split {
                    range: zone.range(),
                    parts,
                },
            );
        }
        debug_assert_eq!(to, 0, "split children left a gap");
        // `metadata_bytes` counts capacity: return any slack a merge or
        // revival left.
        self.zones.shrink_to_fit();
        self.plane.rebuild(&self.zones);
    }
}
