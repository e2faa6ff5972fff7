//! Adaptation event traces.
//!
//! The original SIGMOD demo visualised zone boundaries evolving as queries
//! arrived. The trace captures the same information programmatically: every
//! structural change the adaptive zonemap makes, stamped with the query
//! sequence number that triggered it.

use ads_storage::RowRange;

/// One structural change to an adaptive zonemap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdaptEvent {
    /// Zone metadata materialised for the first time.
    Built {
        /// The zone's row range.
        range: RowRange,
    },
    /// A coarse zone was split into finer zones.
    Split {
        /// The original zone's row range.
        range: RowRange,
        /// Number of resulting zones.
        parts: usize,
    },
    /// Adjacent low-value zones were merged into one.
    Merged {
        /// The merged zone's row range.
        range: RowRange,
        /// Number of zones merged away.
        parts: usize,
    },
    /// Metadata for a region was retired; scans bypass it entirely.
    Deactivated {
        /// The dead region's row range.
        range: RowRange,
    },
    /// A dead region was given another chance after a backoff period.
    Revived {
        /// The revived region's row range.
        range: RowRange,
    },
    /// A secondary value mask was attached to a zone.
    MaskBuilt {
        /// The zone's row range.
        range: RowRange,
    },
    /// A hot zone was promoted to the reorganized (sorted/cracked) layout.
    Promoted {
        /// The zone's row range.
        range: RowRange,
    },
    /// A reorganized zone was demoted back to the flat layout.
    Demoted {
        /// The zone's row range.
        range: RowRange,
    },
    /// A metadata tier (bloom sketch or imprints) was built over a zone.
    TierBuilt {
        /// The zone's row range.
        range: RowRange,
        /// Tier kind label ("bloom" or "imprint").
        kind: &'static str,
    },
    /// A zone's metadata tier was dropped by the feedback policy.
    TierDropped {
        /// The zone's row range.
        range: RowRange,
    },
}

impl AdaptEvent {
    /// Short kind label for reports.
    pub fn kind(&self) -> &'static str {
        match self {
            AdaptEvent::Built { .. } => "built",
            AdaptEvent::Split { .. } => "split",
            AdaptEvent::Merged { .. } => "merged",
            AdaptEvent::Deactivated { .. } => "deactivated",
            AdaptEvent::Revived { .. } => "revived",
            AdaptEvent::MaskBuilt { .. } => "mask-built",
            AdaptEvent::Promoted { .. } => "promoted",
            AdaptEvent::Demoted { .. } => "demoted",
            AdaptEvent::TierBuilt { .. } => "tier-built",
            AdaptEvent::TierDropped { .. } => "tier-dropped",
        }
    }
}

/// A bounded trace of adaptation events plus lifetime counters.
///
/// The ring keeps the most recent `capacity` events for inspection; the
/// counters are exact over the whole lifetime regardless of ring size.
#[derive(Debug, Clone)]
pub struct AdaptTrace {
    events: Vec<(u64, AdaptEvent)>,
    capacity: usize,
    head: usize,
    /// Total events of each kind: built, split, merged, deactivated,
    /// revived, mask-built, promoted, demoted, tier-built, tier-dropped.
    counts: [u64; 10],
}

impl AdaptTrace {
    /// Creates a trace retaining at most `capacity` recent events.
    pub fn new(capacity: usize) -> Self {
        AdaptTrace {
            events: Vec::with_capacity(capacity.min(1024)),
            capacity: capacity.max(1),
            head: 0,
            counts: [0; 10],
        }
    }

    /// This trace with an empty, unallocated ring: the lifetime counters
    /// and the capacity carry over, the retained events do not. What a
    /// clone made for readers carries — they count events, only the owner
    /// replays them.
    pub fn without_events(&self) -> Self {
        AdaptTrace {
            events: Vec::new(),
            capacity: self.capacity,
            head: 0,
            counts: self.counts,
        }
    }

    /// Records `event` as caused by query number `query_seq`.
    pub fn record(&mut self, query_seq: u64, event: AdaptEvent) {
        let idx = match event {
            AdaptEvent::Built { .. } => 0,
            AdaptEvent::Split { .. } => 1,
            AdaptEvent::Merged { .. } => 2,
            AdaptEvent::Deactivated { .. } => 3,
            AdaptEvent::Revived { .. } => 4,
            AdaptEvent::MaskBuilt { .. } => 5,
            AdaptEvent::Promoted { .. } => 6,
            AdaptEvent::Demoted { .. } => 7,
            AdaptEvent::TierBuilt { .. } => 8,
            AdaptEvent::TierDropped { .. } => 9,
        };
        self.counts[idx] += 1;
        if self.events.len() < self.capacity {
            self.events.push((query_seq, event));
        } else {
            self.events[self.head] = (query_seq, event);
            self.head = (self.head + 1) % self.capacity;
        }
    }

    /// Recent events, oldest first.
    pub fn recent(&self) -> Vec<&(u64, AdaptEvent)> {
        let (wrapped, fresh) = self.events.split_at(self.head);
        fresh.iter().chain(wrapped.iter()).collect()
    }

    /// Lifetime totals.
    pub fn totals(&self) -> TraceTotals {
        TraceTotals {
            built: self.counts[0],
            split: self.counts[1],
            merged: self.counts[2],
            deactivated: self.counts[3],
            revived: self.counts[4],
            mask_built: self.counts[5],
            promoted: self.counts[6],
            demoted: self.counts[7],
            tier_built: self.counts[8],
            tier_dropped: self.counts[9],
        }
    }

    /// Total events of all kinds over the lifetime.
    pub fn total_events(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// Lifetime event totals by kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceTotals {
    /// Zones materialised.
    pub built: u64,
    /// Split operations.
    pub split: u64,
    /// Merge operations.
    pub merged: u64,
    /// Deactivations.
    pub deactivated: u64,
    /// Revivals.
    pub revived: u64,
    /// Secondary masks attached.
    pub mask_built: u64,
    /// Zones promoted to the reorganized layout.
    pub promoted: u64,
    /// Zones demoted back to the flat layout.
    pub demoted: u64,
    /// Metadata tiers built over zones.
    pub tier_built: u64,
    /// Metadata tiers dropped by the feedback policy.
    pub tier_dropped: u64,
}

impl std::fmt::Display for TraceTotals {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "built={} split={} merged={} deactivated={} revived={} masks={} promoted={} \
             demoted={} tiers={} tiers_dropped={}",
            self.built,
            self.split,
            self.merged,
            self.deactivated,
            self.revived,
            self.mask_built,
            self.promoted,
            self.demoted,
            self.tier_built,
            self.tier_dropped
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(start: usize) -> AdaptEvent {
        AdaptEvent::Built {
            range: RowRange::new(start, start + 10),
        }
    }

    #[test]
    fn records_and_counts() {
        let mut t = AdaptTrace::new(8);
        t.record(1, ev(0));
        t.record(
            2,
            AdaptEvent::Split {
                range: RowRange::new(0, 10),
                parts: 2,
            },
        );
        let totals = t.totals();
        assert_eq!(totals.built, 1);
        assert_eq!(totals.split, 1);
        assert_eq!(t.total_events(), 2);
    }

    #[test]
    fn ring_keeps_recent_counts_exact() {
        let mut t = AdaptTrace::new(3);
        for i in 0..10 {
            t.record(i, ev(i as usize * 10));
        }
        assert_eq!(t.totals().built, 10);
        let recent = t.recent();
        assert_eq!(recent.len(), 3);
        // Oldest-first, holding the last three events (7, 8, 9).
        assert_eq!(recent[0].0, 7);
        assert_eq!(recent[2].0, 9);
    }

    #[test]
    fn recent_before_wrap_is_in_order() {
        let mut t = AdaptTrace::new(10);
        t.record(1, ev(0));
        t.record(2, ev(10));
        let recent = t.recent();
        assert_eq!(recent[0].0, 1);
        assert_eq!(recent[1].0, 2);
    }

    #[test]
    fn kind_labels() {
        assert_eq!(ev(0).kind(), "built");
        assert_eq!(
            AdaptEvent::Deactivated {
                range: RowRange::new(0, 1)
            }
            .kind(),
            "deactivated"
        );
    }

    #[test]
    fn totals_display() {
        let mut t = AdaptTrace::new(4);
        t.record(0, ev(0));
        assert!(t.totals().to_string().contains("built=1"));
    }
}
