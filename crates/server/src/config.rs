//! Service tuning knobs.

use ads_core::adaptive::AdaptiveConfig;

/// Whether a query's adaptation feedback reaches the owner. Either way
/// readers execute against published snapshots and the maintenance thread
/// holds the owner; the inline protocol itself (prune → scan → observe
/// under exclusive access) is [`crate::Owner::execute`], called directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdaptationMode {
    /// Feedback is dropped: the zonemap never changes after load. The
    /// baseline that isolates pure snapshot-read scaling (an adaptive
    /// zonemap starts unbuilt, so this degenerates to full scans).
    Frozen,
    /// Readers execute against immutable snapshots and queue their
    /// observations; a maintenance thread applies them in batches and
    /// publishes fresh snapshots. Adaptation lags by the queue depth,
    /// answers never do.
    Async,
}

impl AdaptationMode {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            AdaptationMode::Frozen => "frozen",
            AdaptationMode::Async => "async",
        }
    }
}

/// Configuration of a [`crate::QueryService`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Reader (worker) threads executing queries.
    pub readers: usize,
    /// Contiguous shards the column is partitioned into. Each shard gets
    /// its own zonemap lane, snapshot cell, and publication generation;
    /// `1` reproduces the unsharded service exactly.
    pub shards: usize,
    /// Bound of the request queue; admission beyond it sheds.
    pub queue_capacity: usize,
    /// Feedback routing (see [`AdaptationMode`]).
    pub adaptation: AdaptationMode,
    /// Zonemap configuration.
    pub adaptive: AdaptiveConfig,
    /// Tombstone fraction (deleted rows / total rows, per shard) beyond
    /// which the maintenance thread compacts that shard in its next
    /// round: live rows are densely repacked, the delete vector reset,
    /// and the shard's zonemap rebuilt with tight bounds. `None` disables
    /// automatic compaction; [`crate::QueryService::compact`] still
    /// compacts on demand.
    pub compact_tombstone_ratio: Option<f64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            readers: 4,
            shards: 1,
            queue_capacity: 1024,
            adaptation: AdaptationMode::Async,
            adaptive: AdaptiveConfig::default(),
            compact_tombstone_ratio: None,
        }
    }
}

impl ServerConfig {
    /// Checks internal consistency.
    ///
    /// # Panics
    /// Panics on a zero-sized pool or queue; called by
    /// [`crate::QueryService::start`] so misconfigurations fail fast.
    pub fn validate(&self) {
        assert!(self.readers >= 1, "readers must be >= 1");
        assert!(self.shards >= 1, "shards must be >= 1");
        assert!(self.queue_capacity >= 1, "queue_capacity must be >= 1");
        if let Some(r) = self.compact_tombstone_ratio {
            assert!(
                r > 0.0 && r <= 1.0,
                "compact_tombstone_ratio must be in (0, 1]"
            );
        }
        self.adaptive.validate();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_validates() {
        ServerConfig::default().validate();
        assert_eq!(AdaptationMode::Async.label(), "async");
        assert_eq!(AdaptationMode::Frozen.label(), "frozen");
    }

    #[test]
    #[should_panic(expected = "readers must be >= 1")]
    fn zero_readers_rejected() {
        ServerConfig {
            readers: 0,
            ..ServerConfig::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "compact_tombstone_ratio")]
    fn out_of_range_compaction_ratio_rejected() {
        ServerConfig {
            compact_tombstone_ratio: Some(1.5),
            ..ServerConfig::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "shards must be >= 1")]
    fn zero_shards_rejected() {
        ServerConfig {
            shards: 0,
            ..ServerConfig::default()
        }
        .validate();
    }
}
