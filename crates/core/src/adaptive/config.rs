//! Tuning knobs and ablation switches for adaptive zonemaps.

use crate::cost::CostModel;

/// Configuration for an [`crate::adaptive::AdaptiveZonemap`].
///
/// The defaults are derived from the [`CostModel`] and behave well across
/// the distributions in `ads-workloads`; the enable flags exist for the
/// component ablation (experiment E10).
#[derive(Debug, Clone)]
pub struct AdaptiveConfig {
    /// Granularity (rows) at which fresh metadata is materialised: the
    /// initial zone size, the revival zone size, and the append zone size.
    pub target_zone_rows: usize,
    /// Floor for refinement: splitting stops once a zone would drop below
    /// this many rows. Must be at least 2.
    pub min_zone_rows: usize,
    /// Ceiling for coarsening: merging stops once a zone would exceed this
    /// many rows; zones at the ceiling become deactivation candidates.
    pub max_zone_rows: usize,
    /// Consecutive wasted scans before a zone is split.
    pub split_after_wasted: u32,
    /// Probes a zone must accumulate before it may be merged away.
    pub merge_after_probes: u32,
    /// Skip rate at or below which a probed-enough zone is merge-eligible.
    pub merge_max_skip_rate: f64,
    /// Probes a ceiling-sized zone must accumulate before deactivation.
    pub deactivate_after_probes: u32,
    /// Skip rate at or below which a ceiling-sized zone is deactivated.
    pub deactivate_max_skip_rate: f64,
    /// Queries between maintenance passes, all O(zones) and so amortised:
    /// the merge/deactivate scans inside feedback, and the tier pass of
    /// the lane's maintenance round, which the inline protocol and the
    /// server's maintenance thread both schedule by it.
    pub maintenance_every: u64,
    /// Base number of queries a dead region waits before being given
    /// another chance; doubles with each re-deactivation. `None` disables
    /// revival (dead regions stay dead).
    pub revival_base_queries: Option<u64>,
    /// Ablation switch: allow refinement splits.
    pub enable_split: bool,
    /// Ablation switch: allow coarsening merges.
    pub enable_merge: bool,
    /// Ablation switch: allow deactivation.
    pub enable_deactivate: bool,
    /// Ablation switch: allow secondary zone masks — 64-bin value-presence
    /// sketches attached to zones that cannot refine positionally but keep
    /// wasting scans (the outlier case).
    pub enable_mask: bool,
    /// Enable per-zone metadata tiers: a bloom value-set sketch over a
    /// zone whose bounds cannot exclude the point probes that keep reading
    /// it (see [`crate::adaptive::ZoneTier`]). Off by default — the
    /// paper's zones carry `(min, max)` bounds only.
    pub enable_tiers: bool,
    /// Scans a built flat zone must absorb before a tier is built over it.
    /// Each scan read the whole zone, so after `k` scans the zone has
    /// paid `k` times the one-off cost of the tier build pass — the
    /// amortization threshold.
    pub tier_after_scans: u32,
    /// Tier consultations per drop-policy window: once a tier has been
    /// consulted this many times, its hit rate is judged.
    pub tier_drop_after: u32,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig::from_cost_model(&CostModel::default())
    }
}

impl AdaptiveConfig {
    /// Derives sizing knobs from a measured or assumed cost model: the
    /// split floor sits well above the break-even zone size so refined
    /// zones can still repay their probes.
    fn from_cost_model(cost: &CostModel) -> Self {
        let break_even = cost.min_profitable_zone_rows().max(1);
        AdaptiveConfig {
            target_zone_rows: 4096,
            min_zone_rows: (break_even * 8).next_power_of_two().max(64),
            max_zone_rows: 1 << 17,
            split_after_wasted: 2,
            merge_after_probes: 8,
            merge_max_skip_rate: 0.05,
            deactivate_after_probes: 16,
            deactivate_max_skip_rate: 0.02,
            maintenance_every: 8,
            revival_base_queries: Some(256),
            enable_split: true,
            enable_merge: true,
            enable_deactivate: true,
            enable_mask: true,
            enable_tiers: false,
            tier_after_scans: 4,
            tier_drop_after: 16,
        }
    }

    /// Preset: the defaults plus per-zone metadata tiers.
    pub fn with_tiers() -> Self {
        AdaptiveConfig {
            enable_tiers: true,
            ..AdaptiveConfig::default()
        }
    }

    /// Ablation preset: lazy metadata building only (no split/merge/
    /// deactivate).
    pub fn lazy_only() -> Self {
        AdaptiveConfig {
            enable_split: false,
            enable_merge: false,
            enable_deactivate: false,
            enable_mask: false,
            ..AdaptiveConfig::default()
        }
    }

    /// Ablation preset: lazy build + refinement splits.
    pub fn split_only() -> Self {
        AdaptiveConfig {
            enable_merge: false,
            enable_deactivate: false,
            enable_mask: false,
            ..AdaptiveConfig::default()
        }
    }

    /// Ablation preset: everything except zone masks.
    pub fn no_mask() -> Self {
        AdaptiveConfig {
            enable_mask: false,
            ..AdaptiveConfig::default()
        }
    }

    /// Ablation preset: everything except deactivation.
    pub fn no_deactivate() -> Self {
        AdaptiveConfig {
            enable_deactivate: false,
            ..AdaptiveConfig::default()
        }
    }

    /// Checks internal consistency.
    ///
    /// # Panics
    /// Panics on inconsistent sizing or rates; called by the zonemap
    /// constructor so misconfigurations fail fast.
    pub fn validate(&self) {
        assert!(self.target_zone_rows >= 2, "target_zone_rows too small");
        assert!(self.min_zone_rows >= 2, "min_zone_rows must be >= 2");
        assert!(
            self.min_zone_rows <= self.target_zone_rows,
            "min_zone_rows exceeds target_zone_rows"
        );
        assert!(
            self.target_zone_rows <= self.max_zone_rows,
            "target_zone_rows exceeds max_zone_rows"
        );
        assert!(
            (0.0..=1.0).contains(&self.merge_max_skip_rate),
            "merge_max_skip_rate out of [0,1]"
        );
        assert!(
            (0.0..=1.0).contains(&self.deactivate_max_skip_rate),
            "deactivate_max_skip_rate out of [0,1]"
        );
        assert!(
            self.maintenance_every >= 1,
            "maintenance_every must be >= 1"
        );
        assert!(self.tier_after_scans >= 1, "tier_after_scans must be >= 1");
        assert!(self.tier_drop_after >= 1, "tier_drop_after must be >= 1");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_validates() {
        AdaptiveConfig::default().validate();
    }

    #[test]
    fn presets_validate_and_toggle() {
        let lazy = AdaptiveConfig::lazy_only();
        lazy.validate();
        assert!(!lazy.enable_split && !lazy.enable_merge && !lazy.enable_deactivate);

        let split = AdaptiveConfig::split_only();
        split.validate();
        assert!(split.enable_split && !split.enable_merge);

        let nod = AdaptiveConfig::no_deactivate();
        nod.validate();
        assert!(nod.enable_split && nod.enable_merge && !nod.enable_deactivate);

        let nom = AdaptiveConfig::no_mask();
        nom.validate();
        assert!(nom.enable_split && !nom.enable_mask);

        let tiers = AdaptiveConfig::with_tiers();
        tiers.validate();
        assert!(tiers.enable_tiers);
        assert!(
            !AdaptiveConfig::default().enable_tiers,
            "tiers must be opt-in"
        );
    }

    #[test]
    fn from_cost_model_scales_floor() {
        let cheap = AdaptiveConfig::from_cost_model(&CostModel::new(1.0));
        let dear = AdaptiveConfig::from_cost_model(&CostModel::new(32.0));
        assert!(dear.min_zone_rows >= cheap.min_zone_rows);
        dear.validate();
    }

    #[test]
    #[should_panic(expected = "min_zone_rows exceeds target_zone_rows")]
    fn validate_catches_inverted_sizes() {
        AdaptiveConfig {
            min_zone_rows: 1 << 20,
            ..AdaptiveConfig::default()
        }
        .validate();
    }
}
