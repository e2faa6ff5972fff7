//! Strategy descriptors: declarative picks of a skipping structure.

use ads_baselines::{ColumnImprints, CrackerColumn, FullScan, SortedOracle};
use ads_core::adaptive::{AdaptiveConfig, AdaptiveZonemap};
use ads_core::{SkippingIndex, StaticZonemap};
use ads_storage::DataValue;

/// A declarative description of which skipping structure to use; the
/// engine builds the matching [`SkippingIndex`] per column.
#[derive(Debug, Clone)]
pub enum Strategy {
    /// No skipping: plain full scans.
    FullScan,
    /// Classic eager zonemap with fixed `zone_rows` granularity.
    StaticZonemap {
        /// Rows per zone.
        zone_rows: usize,
    },
    /// Adaptive zonemap (the paper's contribution).
    Adaptive(AdaptiveConfig),
    /// Column imprints.
    Imprints {
        /// Rows per imprint line.
        values_per_line: usize,
        /// Histogram bins (2..=64).
        bins: usize,
    },
    /// Database cracking.
    Cracking,
    /// Fully sorted projection (upper bound).
    SortedOracle,
}

impl Strategy {
    /// Builds the index for a column. Build cost (eager for static
    /// structures, O(zones) for adaptive) is the caller's to measure.
    pub fn build_index<T: DataValue>(&self, data: &[T]) -> Box<dyn SkippingIndex<T>> {
        match self {
            Strategy::FullScan => Box::new(FullScan::new(data.len())),
            Strategy::StaticZonemap { zone_rows } => {
                Box::new(StaticZonemap::build(data, *zone_rows))
            }
            Strategy::Adaptive(config) => {
                Box::new(AdaptiveZonemap::new(data.len(), config.clone()))
            }
            Strategy::Imprints {
                values_per_line,
                bins,
            } => Box::new(ColumnImprints::build(data, *values_per_line, *bins)),
            Strategy::Cracking => Box::new(CrackerColumn::build(data)),
            Strategy::SortedOracle => Box::new(SortedOracle::build(data)),
        }
    }

    /// Short label for reports (matches the built index's `name()` shape).
    pub fn label(&self) -> String {
        match self {
            Strategy::FullScan => "full-scan".into(),
            Strategy::StaticZonemap { zone_rows } => format!("static-zonemap({zone_rows})"),
            Strategy::Adaptive(_) => "adaptive-zonemap".into(),
            Strategy::Imprints {
                values_per_line,
                bins,
            } => format!("imprints({values_per_line}x{bins})"),
            Strategy::Cracking => "cracking".into(),
            Strategy::SortedOracle => "sorted-oracle".into(),
        }
    }

    /// The default comparison roster used across the experiments.
    pub fn roster() -> Vec<Strategy> {
        vec![
            Strategy::FullScan,
            Strategy::StaticZonemap { zone_rows: 4096 },
            Strategy::Adaptive(AdaptiveConfig::default()),
            Strategy::Imprints {
                values_per_line: 8,
                bins: 64,
            },
            Strategy::Cracking,
            Strategy::SortedOracle,
        ]
    }

    /// True for strategies whose pruned ranges address the base column
    /// (required for multi-column intersection).
    pub fn base_coords(&self) -> bool {
        !matches!(self, Strategy::Cracking | Strategy::SortedOracle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ads_core::RangePredicate;

    #[test]
    fn builds_every_roster_entry() {
        let data: Vec<i64> = (0..1000).collect();
        for strat in Strategy::roster() {
            let mut idx = strat.build_index(&data);
            let out = idx.prune(&RangePredicate::between(10, 20));
            // Soundness smoke check: candidates plus full matches must be
            // able to hold the 11 qualifying rows.
            assert!(
                out.unit_set().covered_rows() + out.rows_full_match() >= 11
                    || out.rows_full_match() == 11,
                "{} lost rows",
                strat.label()
            );
        }
    }

    #[test]
    fn labels_are_distinct() {
        let labels: Vec<String> = Strategy::roster().iter().map(|s| s.label()).collect();
        let mut dedup = labels.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(labels.len(), dedup.len());
    }

    #[test]
    fn coords_classification() {
        assert!(Strategy::FullScan.base_coords());
        assert!(Strategy::StaticZonemap { zone_rows: 64 }.base_coords());
        assert!(!Strategy::Cracking.base_coords());
        assert!(!Strategy::SortedOracle.base_coords());
    }
}
