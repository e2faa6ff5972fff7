//! Adaptive zonemaps: the paper's concrete instance of adaptive data
//! skipping.
//!
//! See [`AdaptiveZonemap`] for the structure and [`AdaptiveConfig`] for the
//! policy knobs and ablation presets.

mod config;
mod maintenance;
mod plane;
mod sharded;
mod tier;
mod zone;
mod zonemap;

pub use config::AdaptiveConfig;
pub use sharded::ShardedZonemap;
pub use tier::TierStats;
pub use zone::{AdaptiveZone, TierTelemetry, ZoneState, ZoneTier};
pub use zonemap::AdaptiveZonemap;

#[cfg(test)]
mod tests;
