//! The SoA prune plane: dense, probe-order copies of the only zone fields
//! the hot prune loop needs.
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
//!
//! **Invariant:** the plane mirrors `zones` exactly — same length, same
//! built-set, same bounds. Cheap transitions (lazy build, bounds
//! tightening, appended zones) update it incrementally; structural
//! rewrites (split/merge/deactivate/coalesce/revive) call
//! [`PrunePlane::rebuild`]. `assert_invariants` checks the mirror in
//! debug builds, and the property suite checks prune outcomes against the
//! retained AoS reference loop.

use crate::adaptive::zone::{AdaptiveZone, ZoneState};
use ads_storage::DataValue;

/// Dense structure-of-arrays mirror of the probe-critical zone fields.
#[derive(Debug, Clone)]
pub(crate) struct PrunePlane<T: DataValue> {
    pub(crate) mins: Vec<T>,
    pub(crate) maxs: Vec<T>,
    /// Bit `z` set iff zone `z` is `Built`.
    pub(crate) built: Vec<u64>,
    /// Bit `z` set iff zone `z` carries a reorganized payload. Checked
    /// only for zones that survive the bounds test, so the flat fast
    /// path never reads it.
    pub(crate) reorg: Vec<u64>,
    /// Deferred `record_skip()` calls per zone. The hot skip path bumps
    /// this dense counter instead of the zone's `ZoneStats` (which would
    /// drag the cold AoS record through cache); the counts are flushed
    /// into the real stats before anything reads or resets them
    /// (`AdaptiveZonemap::flush_pending_skips`).
    pub(crate) pending_skips: Vec<u32>,
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
            reorg: Vec::new(),
            pending_skips: Vec::new(),
        };
        plane.rebuild(zones);
        plane
    }

    /// Rewrites the plane to mirror `zones` — the catch-all used after
    /// structural operations that reorder or renumber zones.
    ///
    /// Zeroes `pending_skips`: callers owning un-flushed skip counts must
    /// flush them into the zone stats *before* the structural change
    /// renumbers zones (see `AdaptiveZonemap::flush_pending_skips`).
    pub(crate) fn rebuild(&mut self, zones: &[AdaptiveZone<T>]) {
        self.mins.clear();
        self.maxs.clear();
        self.built.clear();
        self.reorg.clear();
        self.mins.reserve(zones.len());
        self.maxs.reserve(zones.len());
        self.built.resize(zones.len().div_ceil(64), 0);
        self.reorg.resize(zones.len().div_ceil(64), 0);
        self.pending_skips.clear();
        self.pending_skips.resize(zones.len(), 0);
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
            if zone.is_reorganized() {
                self.reorg[z / 64] |= 1u64 << (z % 64);
            }
        }
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

    /// Records that zone `z` became (or stayed) built with bounds
    /// `(min, max)` — the lazy-build and bounds-tightening transitions.
    #[inline]
    pub(crate) fn set_built(&mut self, z: usize, min: T, max: T) {
        self.mins[z] = min;
        self.maxs[z] = max;
        self.built[z / 64] |= 1u64 << (z % 64);
    }

    /// True iff zone `z` carries a reorganized payload.
    #[inline]
    pub(crate) fn is_reorg(&self, z: usize) -> bool {
        self.reorg[z / 64] & (1u64 << (z % 64)) != 0
    }

    /// Records zone `z`'s layout flag — promotion sets, demotion clears.
    pub(crate) fn set_reorg(&mut self, z: usize, reorganized: bool) {
        if reorganized {
            self.reorg[z / 64] |= 1u64 << (z % 64);
        } else {
            self.reorg[z / 64] &= !(1u64 << (z % 64));
        }
    }

    /// Appends one unbuilt zone at the end — the append path.
    pub(crate) fn push_unbuilt(&mut self) {
        let z = self.mins.len();
        self.mins.push(T::MAX_VALUE);
        self.maxs.push(T::MIN_VALUE);
        self.pending_skips.push(0);
        if z / 64 >= self.built.len() {
            self.built.push(0);
        }
        if z / 64 >= self.reorg.len() {
            self.reorg.push(0);
        }
    }

    /// Defers one `record_skip()` for zone `z` into the dense counter.
    #[inline]
    pub(crate) fn defer_skip(&mut self, z: usize) {
        self.pending_skips[z] += 1;
    }

    /// Deferred skip count of zone `z`.
    #[inline]
    pub(crate) fn pending_skip(&self, z: usize) -> u32 {
        self.pending_skips[z]
    }

    /// Heap bytes held by the plane (for metadata accounting).
    pub(crate) fn heap_bytes(&self) -> usize {
        self.mins.capacity() * std::mem::size_of::<T>()
            + self.maxs.capacity() * std::mem::size_of::<T>()
            + self.built.capacity() * std::mem::size_of::<u64>()
            + self.reorg.capacity() * std::mem::size_of::<u64>()
            + self.pending_skips.capacity() * std::mem::size_of::<u32>()
    }

    /// True iff the plane exactly mirrors `zones` (length, built-set,
    /// bounds). Used by `assert_invariants` and the property tests.
    pub(crate) fn mirrors(&self, zones: &[AdaptiveZone<T>]) -> bool {
        if self.mins.len() != zones.len()
            || self.maxs.len() != zones.len()
            || self.pending_skips.len() != zones.len()
            || self.built.len() < zones.len().div_ceil(64)
            || self.reorg.len() < zones.len().div_ceil(64)
        {
            return false;
        }
        // total_cmp equality, not `==`: NaN zone bounds are legitimate
        // (a zone containing NaN has max = NaN under totalOrder) and must
        // still compare equal to their plane copy.
        let same = |a: T, b: T| a.total_cmp(&b) == std::cmp::Ordering::Equal;
        zones.iter().enumerate().all(|(z, zone)| {
            let state_ok = match zone.state {
                ZoneState::Built { min, max, .. } => {
                    self.is_built(z) && same(self.mins[z], min) && same(self.maxs[z], max)
                }
                _ => !self.is_built(z),
            };
            state_ok && self.is_reorg(z) == zone.is_reorganized()
        })
    }
}
