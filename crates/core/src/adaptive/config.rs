//! Tuning knobs and ablation switches for adaptive zonemaps.

use crate::cost::CostModel;

/// Which secondary metadata tier zones may earn (see
/// [`crate::adaptive::zone::ZoneTier`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TierMode {
    /// No tiers — zones carry `(min, max)` bounds (and masks) only.
    #[default]
    Off,
    /// Every eligible zone builds a bloom value-set sketch.
    Bloom,
    /// Every eligible zone builds a column-imprint sketch.
    Imprint,
    /// Per-zone choice from observed predicate shape: point-heavy zones
    /// get a bloom sketch, range-heavy zones get imprints.
    Adaptive,
}

impl TierMode {
    /// True unless tiers are disabled.
    pub fn enabled(self) -> bool {
        self != TierMode::Off
    }
}

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
    /// Queries between structural maintenance passes (merge/deactivate
    /// scans are O(zones), so they are amortised).
    pub maintenance_every: u64,
    /// Base number of queries a dead region waits before being given
    /// another chance; doubles with each re-deactivation. `None` disables
    /// revival (dead regions stay dead).
    pub revival_base_queries: Option<u64>,
    /// EWMA smoothing factor for per-zone selectivity tracking.
    pub ewma_alpha: f64,
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
    /// Enable zone-local physical reorganization: hot zones are promoted
    /// to a sorted/cracked layout so in-zone skipping becomes positional.
    /// Off by default — the paper's adaptation reshapes metadata only.
    pub enable_reorg: bool,
    /// Partial scans a built zone must absorb before promotion to the
    /// reorganized layout. Each partial scan reads the whole zone, so
    /// after `k` scans the zone has already paid `k` times the one-off
    /// copy cost of reorganizing — the amortization threshold.
    pub reorg_after_scans: u32,
    /// Consecutive probes that skip a reorganized zone outright before it
    /// is demoted back to flat (the hotspot has moved; the payload is
    /// dead weight).
    pub reorg_demote_idle: u32,
    /// Relative-hotness gate: a zone is promoted only when its scan
    /// *rate* (scans per probe, bounded `[0,1]`) is at least this
    /// multiple of the map-wide mean scan rate. On a uniform workload
    /// every probe scans every zone, the mean rate sits near `1.0`, and
    /// no zone can clear the bar — promotion (correctly) never triggers;
    /// on a hot-zone workload the skipped zones drag the mean down and
    /// the hotspot's rate towers over it. `0.0` disables the gate
    /// (always-reorg ablation). Single-zone maps bypass the gate — there
    /// is no population to compare against.
    pub reorg_hot_factor: f64,
    /// Which secondary metadata tier zones may earn. Off by default — the
    /// paper's zones carry `(min, max)` bounds only.
    pub tier_mode: TierMode,
    /// Scans a built flat zone must absorb before a tier is built over it.
    /// Each scan read the whole zone, so after `k` scans the zone has
    /// paid `k` times the one-off cost of the tier build pass — the same
    /// amortization argument as `reorg_after_scans`.
    pub tier_after_scans: u32,
    /// Tier consultations per drop-policy window: once a tier has been
    /// consulted this many times, its hit rate is judged.
    pub tier_drop_after: u32,
    /// Imprint sizing: rows per imprint line (sub-zone skip granularity).
    pub tier_imprint_line_rows: usize,
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
    pub fn from_cost_model(cost: &CostModel) -> Self {
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
            ewma_alpha: 0.25,
            enable_split: true,
            enable_merge: true,
            enable_deactivate: true,
            enable_mask: true,
            enable_reorg: false,
            reorg_after_scans: 4,
            reorg_demote_idle: 64,
            reorg_hot_factor: 2.0,
            tier_mode: TierMode::Off,
            tier_after_scans: 4,
            tier_drop_after: 16,
            tier_imprint_line_rows: 64,
        }
    }

    /// Preset: everything on, including zone-local reorganization.
    pub fn with_reorg() -> Self {
        AdaptiveConfig {
            enable_reorg: true,
            ..AdaptiveConfig::default()
        }
    }

    /// Preset: adaptive per-zone metadata tiers (bloom sketches on
    /// point-heavy zones, imprints on range-heavy ones).
    pub fn with_tiers() -> Self {
        AdaptiveConfig {
            tier_mode: TierMode::Adaptive,
            ..AdaptiveConfig::default()
        }
    }

    /// Preset: the given tier on every eligible zone (or tiers off) —
    /// the forced modes the equivalence harness and E21 grid sweep.
    pub fn with_tier_mode(mode: TierMode) -> Self {
        AdaptiveConfig {
            tier_mode: mode,
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
            self.ewma_alpha > 0.0 && self.ewma_alpha <= 1.0,
            "bad ewma_alpha"
        );
        assert!(
            self.maintenance_every >= 1,
            "maintenance_every must be >= 1"
        );
        assert!(
            self.reorg_after_scans >= 1,
            "reorg_after_scans must be >= 1"
        );
        assert!(
            self.reorg_demote_idle >= 1,
            "reorg_demote_idle must be >= 1"
        );
        assert!(
            self.reorg_hot_factor.is_finite() && self.reorg_hot_factor >= 0.0,
            "reorg_hot_factor must be finite and >= 0"
        );
        assert!(self.tier_after_scans >= 1, "tier_after_scans must be >= 1");
        assert!(self.tier_drop_after >= 1, "tier_drop_after must be >= 1");
        assert!(
            self.tier_imprint_line_rows >= 1,
            "tier_imprint_line_rows must be >= 1"
        );
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

        let reorg = AdaptiveConfig::with_reorg();
        reorg.validate();
        assert!(reorg.enable_reorg);
        assert!(
            !AdaptiveConfig::default().enable_reorg,
            "reorg must be opt-in"
        );

        let tiers = AdaptiveConfig::with_tiers();
        tiers.validate();
        assert_eq!(tiers.tier_mode, TierMode::Adaptive);
        let forced = AdaptiveConfig::with_tier_mode(TierMode::Bloom);
        forced.validate();
        assert!(forced.tier_mode.enabled());
        assert_eq!(
            AdaptiveConfig::default().tier_mode,
            TierMode::Off,
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

    #[test]
    #[should_panic(expected = "bad ewma_alpha")]
    fn validate_catches_bad_alpha() {
        AdaptiveConfig {
            ewma_alpha: 1.5,
            ..AdaptiveConfig::default()
        }
        .validate();
    }
}
