//! The SoA prune plane: dense, probe-order copies of the only zone fields
//! the hot prune loop needs, and the run index derived from them.
//!
//! `AdaptiveZonemap` stores zones as an array of structs — enum state,
//! stats, mask, split bookkeeping — which is the right shape for
//! adaptation logic but the wrong shape for probing: a probe that only
//! wants "is this zone built, and do its bounds overlap the predicate?"
//! drags the whole ~hundred-byte record through cache. The plane mirrors
//! exactly that probe-critical subset as parallel arrays:
//!
//! * `mins[z]` / `maxs[z]` — the zone's `(min, max)` bounds, valid only
//!   when the zone is built (fold identities otherwise, never read);
//! * `built` — a bitset with bit `z` set iff `zones[z].state` is `Built`.
//!
//! The prune loop streams these dense words and touches the full
//! [`AdaptiveZone`](crate::adaptive::zone::AdaptiveZone) record only for
//! zones that survive the bounds test (stats feedback, value masks, split
//! decisions) — the minority on any workload where skipping is paying off.
//! A zone the bounds exclude costs its built bit and its bounds, and no
//! write: its probe and skip counts follow from the map's probe clock
//! (see [`ZoneStats`](crate::stats::ZoneStats)).
//!
//! The walk's plain pass reads them 64 zones at a time: for one word of
//! `built` it packs `built & (max < lo | hi < min)` from the dense bounds
//! ([`PrunePlane::bounds_excluded`]), counts the zones that word excludes
//! in one add, and probes only the rest, so a bounds skip costs a fraction
//! of a nanosecond rather than a probe.
//!
//! Where the data is ordered the bounds are too, and the plane notices:
//! `runs` lists stretches of at least [`MIN_RUN`] built zones whose `mins`
//! and whose `maxs` are both non-decreasing under the total order. Inside
//! a run the zones a predicate overlaps are one contiguous slice, so the
//! walk finds it with two binary searches instead of testing every zone.
//!
//! **Invariant:** the plane mirrors `zones` exactly — same length, same
//! built-set, same bounds — and every run covers only built zones in
//! order. Cheap transitions (lazy build, bounds tightening, appended
//! zones) update it incrementally, and a bounds change that breaks a
//! run's order cuts the run there; structural rewrites
//! (split/merge/deactivate/coalesce/revive) call [`PrunePlane::rebuild`],
//! which also derives the runs afresh, as does a scan that built a good
//! share of the zones at once — so no single write pays O(zones) for
//! them. `assert_invariants` checks the mirror in debug builds, and
//! the property suite checks prune outcomes against the retained AoS
//! reference loop.

use crate::adaptive::zone::{AdaptiveZone, ZoneState};
use ads_storage::DataValue;
use std::ops::Range;

/// The fewest zones a run is kept for: below it two binary searches save
/// too little over a linear pass to pay for the bookkeeping.
pub(crate) const MIN_RUN: usize = 8;

/// Dense structure-of-arrays mirror of the probe-critical zone fields.
#[derive(Debug, Clone)]
pub(crate) struct PrunePlane<T: DataValue> {
    pub(crate) mins: Vec<T>,
    pub(crate) maxs: Vec<T>,
    /// Bit `z` set iff zone `z` is `Built`.
    pub(crate) built: Vec<u64>,
    /// Disjoint zone-index ranges `[a, b)` in ascending order, each of at
    /// least [`MIN_RUN`] built zones whose `mins` and `maxs` are both
    /// non-decreasing. Maximal when [`PrunePlane::rebuild`] derives them;
    /// a bounds change may cut one since.
    pub(crate) runs: Vec<(usize, usize)>,
}

impl<T: DataValue> PrunePlane<T> {
    /// Builds the plane from scratch to mirror `zones`.
    ///
    /// epoch: constructor — the plane it assembles is not reachable by
    /// any reader until the owning zonemap is published.
    pub(crate) fn from_zones(zones: &[AdaptiveZone<T>]) -> Self {
        let mut plane = PrunePlane {
            mins: Vec::new(),
            maxs: Vec::new(),
            built: Vec::new(),
            runs: Vec::new(),
        };
        plane.rebuild(zones);
        plane
    }

    /// Rewrites the plane to mirror `zones` — the catch-all used after
    /// structural operations that reorder or renumber zones — and derives
    /// its runs.
    pub(crate) fn rebuild(&mut self, zones: &[AdaptiveZone<T>]) {
        self.mins.clear();
        self.maxs.clear();
        self.built.clear();
        self.mins.reserve(zones.len());
        self.maxs.reserve(zones.len());
        self.built.resize(zones.len().div_ceil(64), 0);
        for (z, zone) in zones.iter().enumerate() {
            match zone.state {
                ZoneState::Built { min, max, .. } => {
                    self.mins.push(min);
                    self.maxs.push(max);
                    self.built[z / 64] |= 1u64 << (z % 64);
                }
                _ => {
                    self.mins.push(T::MAX_VALUE);
                    self.maxs.push(T::MIN_VALUE);
                }
            }
        }
        self.derive_runs();
    }

    /// Derives the runs afresh from the bounds: O(zones), so only callers
    /// that already paid as much — a rebuild, or a scan that built a good
    /// share of the zones at once — call it.
    pub(crate) fn derive_runs(&mut self) {
        self.runs.clear();
        let mut start = 0;
        for z in 0..self.mins.len() {
            if !self.is_built(z) {
                self.keep_run(start, z);
                start = z + 1;
            } else if z > start && !self.ordered(z - 1, z) {
                self.keep_run(start, z);
                start = z;
            }
        }
        self.keep_run(start, self.mins.len());
    }

    /// Appends `[a, b)` to the runs if it is long enough to be one.
    fn keep_run(&mut self, a: usize, b: usize) {
        if b >= a + MIN_RUN {
            self.runs.push((a, b));
        }
    }

    /// True iff zone `z`'s bounds are both at least zone `y`'s.
    #[inline]
    fn ordered(&self, y: usize, z: usize) -> bool {
        self.mins[y].le_total(&self.mins[z]) && self.maxs[y].le_total(&self.maxs[z])
    }

    /// True iff zone `z` is built.
    #[inline]
    pub(crate) fn is_built(&self, z: usize) -> bool {
        self.built[z / 64] & (1u64 << (z % 64)) != 0
    }

    /// `(min, max)` of zone `z`, `None` unless it is built.
    #[inline]
    pub(crate) fn bounds(&self, z: usize) -> Option<(T, T)> {
        self.is_built(z).then(|| (self.mins[z], self.maxs[z]))
    }

    /// The packed bounds filter of the plain prune pass: bit `i` is set
    /// iff zone `zones.start + i` is built and its bounds exclude the
    /// predicate whose bound keys ([`DataValue::total_key`]) are `lo` and
    /// `hi` — `max < lo` or `hi < min`, the exact negation of
    /// `RangePredicate::overlaps`. `zones` lies within one word of
    /// `built`. One compare pair per zone and no branch, so the loop packs
    /// four zones per instruction on x86-64-v3, and the bits past
    /// `zones.len()` stay clear.
    #[inline(always)]
    pub(crate) fn bounds_excluded(&self, zones: Range<usize>, lo: T::Key, hi: T::Key) -> u64 {
        debug_assert!(zones.start < zones.end && (zones.end - 1) / 64 == zones.start / 64);
        let built = self.built[zones.start / 64] >> (zones.start % 64);
        let (mins, maxs) = (&self.mins[zones.clone()], &self.maxs[zones]);
        let mut out = 0u64;
        for (i, (min, max)) in mins.iter().zip(maxs).enumerate() {
            out |= (((max.total_key() < lo) | (hi < min.total_key())) as u64) << i;
        }
        out & built
    }

    /// Records that zone `z` became (or stayed) built with bounds
    /// `(min, max)` — the lazy-build and bounds-tightening transitions.
    /// A zone newly built joins no run until the runs are next derived;
    /// one inside a run whose new bounds break the run's order cuts it
    /// there.
    #[inline]
    pub(crate) fn set_built(&mut self, z: usize, min: T, max: T) {
        self.mins[z] = min;
        self.maxs[z] = max;
        self.built[z / 64] |= 1u64 << (z % 64);
        let i = self.runs.partition_point(|&(_, b)| b <= z);
        if let Some(&(a, b)) = self.runs.get(i).filter(|&&(a, _)| a <= z) {
            self.cut_run(i, a, z, b);
        }
    }

    /// Cuts run `i`, `[a, b)`, where zone `z` in it no longer keeps order
    /// with a neighbour: the pieces on either side of the broken order
    /// stay runs if they are still long enough.
    #[cold]
    fn cut_run(&mut self, i: usize, a: usize, z: usize, b: usize) {
        let after_prev = z == a || self.ordered(z - 1, z);
        let before_next = z + 1 == b || self.ordered(z, z + 1);
        if after_prev && before_next {
            return;
        }
        // `z` stays with whichever neighbour it still follows in order.
        let left_end = if after_prev { z + 1 } else { z };
        let right_start = if before_next { z } else { z + 1 };
        self.runs.remove(i);
        for (from, to) in [(right_start, b), (a, left_end)] {
            if to >= from + MIN_RUN {
                self.runs.insert(i, (from, to));
            }
        }
    }

    /// Appends one unbuilt zone at the end — the append path.
    pub(crate) fn push_unbuilt(&mut self) {
        let z = self.mins.len();
        self.mins.push(T::MAX_VALUE);
        self.maxs.push(T::MIN_VALUE);
        if z / 64 >= self.built.len() {
            self.built.push(0);
        }
    }

    /// Heap bytes held by the plane's per-zone arrays (for metadata
    /// accounting). The run index is left out: it holds at most one entry
    /// per [`MIN_RUN`] zones and is derived from the bounds counted here.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.mins.capacity() * std::mem::size_of::<T>()
            + self.maxs.capacity() * std::mem::size_of::<T>()
            + self.built.capacity() * std::mem::size_of::<u64>()
    }

    /// True iff the plane exactly mirrors `zones` (length, built-set,
    /// bounds) and every run is sound: ascending, disjoint, long enough,
    /// and over built zones whose bounds are in order. Used by
    /// `assert_invariants` and the property tests.
    pub(crate) fn mirrors(&self, zones: &[AdaptiveZone<T>]) -> bool {
        if self.mins.len() != zones.len()
            || self.maxs.len() != zones.len()
            || self.built.len() < zones.len().div_ceil(64)
        {
            return false;
        }
        // total_cmp equality, not `==`: NaN zone bounds are legitimate
        // (a zone containing NaN has max = NaN under totalOrder) and must
        // still compare equal to their plane copy.
        let same = |a: T, b: T| a.total_cmp(&b) == std::cmp::Ordering::Equal;
        let mirrored = zones.iter().enumerate().all(|(z, zone)| match zone.state {
            ZoneState::Built { min, max, .. } => {
                self.is_built(z) && same(self.mins[z], min) && same(self.maxs[z], max)
            }
            _ => !self.is_built(z),
        });
        let mut next = 0;
        let runs_sound = self.runs.iter().all(|&(a, b)| {
            let sound = a >= next
                && b >= a + MIN_RUN
                && b <= zones.len()
                && (a..b).all(|z| self.is_built(z))
                && (a + 1..b).all(|z| self.ordered(z - 1, z));
            next = b;
            sound
        });
        mirrored && runs_sound
    }
}
