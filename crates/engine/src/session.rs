//! A session binds one column to one skipping strategy and runs a query
//! sequence against it, accumulating metrics.

use crate::exec_policy::ExecPolicy;
use crate::executor::{execute_with_policy, AggKind, QueryAnswer};
use crate::metrics::{CumulativeMetrics, QueryMetrics};
use crate::strategy::Strategy;
use ads_core::{RangePredicate, SkippingIndex};
use ads_storage::DataValue;
use std::time::Instant;

/// One column + one skipping index + running metrics.
///
/// This is the unit of comparison throughout the evaluation: identical
/// query sequences are replayed against sessions that differ only in
/// strategy, and the cumulative metrics are the experiment output.
pub struct ColumnSession<T: DataValue> {
    data: Vec<T>,
    index: Box<dyn SkippingIndex<T>>,
    label: String,
    totals: CumulativeMetrics,
    history: Vec<QueryMetrics>,
    record_history: bool,
    policy: ExecPolicy,
}

impl<T: DataValue> ColumnSession<T> {
    /// Builds the strategy's index over `data`, timing the build.
    pub fn new(data: Vec<T>, strategy: &Strategy) -> Self {
        let t0 = Instant::now();
        let index = strategy.build_index(&data);
        let build_ns = t0.elapsed().as_nanos() as u64;
        let label = index.name();
        ColumnSession {
            data,
            index,
            label,
            totals: CumulativeMetrics {
                build_ns,
                ..Default::default()
            },
            history: Vec::new(),
            record_history: false,
            policy: ExecPolicy::default(),
        }
    }

    /// Enables per-query metric recording (for latency-over-time plots).
    pub fn record_history(mut self, on: bool) -> Self {
        self.record_history = on;
        self
    }

    /// Sets the execution policy (builder form).
    pub fn with_exec_policy(mut self, policy: ExecPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Replaces the execution policy for subsequent queries. Answers and
    /// adaptation are policy-independent; only latency changes.
    pub fn set_exec_policy(&mut self, policy: ExecPolicy) {
        self.policy = policy;
    }

    /// The current execution policy.
    pub fn exec_policy(&self) -> ExecPolicy {
        self.policy
    }

    /// Executes one query.
    pub fn query(
        &mut self,
        pred: RangePredicate<T>,
        agg: AggKind,
    ) -> (QueryAnswer<T>, QueryMetrics) {
        let (answer, metrics) =
            execute_with_policy(&self.data, self.index.as_mut(), pred, agg, &self.policy);
        self.totals.absorb(&metrics);
        if self.record_history {
            self.history.push(metrics);
        }
        (answer, metrics)
    }

    /// Convenience: COUNT query.
    pub fn count(&mut self, pred: RangePredicate<T>) -> u64 {
        self.query(pred, AggKind::Count).0.count
    }

    /// Appends rows, maintaining the index; returns maintenance time (ns).
    pub fn append(&mut self, values: &[T]) -> u64 {
        let old = self.data.len();
        self.data.extend_from_slice(values);
        let t0 = Instant::now();
        self.index.on_append(&self.data[old..], &self.data);
        t0.elapsed().as_nanos() as u64
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The column data.
    pub fn data(&self) -> &[T] {
        &self.data
    }

    /// The strategy's display name.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Running totals.
    pub fn totals(&self) -> &CumulativeMetrics {
        &self.totals
    }

    /// Per-query history (empty unless enabled).
    pub fn history(&self) -> &[QueryMetrics] {
        &self.history
    }

    /// The underlying index (for name/size/trace inspection).
    pub fn index(&self) -> &dyn SkippingIndex<T> {
        self.index.as_ref()
    }

    /// Bytes of metadata plus any data copy the index holds.
    pub fn index_bytes(&self) -> (usize, usize) {
        (self.index.metadata_bytes(), self.index.data_copy_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ads_core::adaptive::AdaptiveConfig;

    #[test]
    fn session_accumulates_totals() {
        let data: Vec<i64> = (0..10_000).collect();
        let mut s = ColumnSession::new(data, &Strategy::StaticZonemap { zone_rows: 1000 });
        assert_eq!(s.count(RangePredicate::between(10, 19)), 10);
        assert_eq!(s.count(RangePredicate::between(5000, 5099)), 100);
        assert_eq!(s.totals().queries, 2);
        assert!(s.totals().zones_skipped > 0);
        assert_eq!(s.len(), 10_000);
    }

    #[test]
    fn history_recording_toggle() {
        let data: Vec<i64> = (0..100).collect();
        let mut s = ColumnSession::new(data.clone(), &Strategy::FullScan).record_history(true);
        s.count(RangePredicate::all());
        assert_eq!(s.history().len(), 1);
        let mut s2 = ColumnSession::new(data, &Strategy::FullScan);
        s2.count(RangePredicate::all());
        assert!(s2.history().is_empty());
    }

    #[test]
    fn append_stays_correct_across_strategies() {
        for strat in Strategy::roster() {
            let mut s = ColumnSession::new((0..1000).collect::<Vec<i64>>(), &strat);
            s.count(RangePredicate::between(0, 10));
            s.append(&(1000..1100).collect::<Vec<i64>>());
            assert_eq!(
                s.count(RangePredicate::between(990, 1050)),
                61,
                "{}",
                s.label()
            );
            assert_eq!(s.len(), 1100);
        }
    }

    #[test]
    fn adaptive_session_improves_over_time() {
        let data: Vec<i64> = (0..100_000).collect();
        let mut s = ColumnSession::new(data, &Strategy::Adaptive(AdaptiveConfig::default()))
            .record_history(true);
        let pred = RangePredicate::between(5_000, 5_999);
        for _ in 0..5 {
            assert_eq!(s.count(pred), 1000);
        }
        let h = s.history();
        assert_eq!(h[0].rows_scanned, 100_000);
        assert!(
            h[4].rows_scanned < 20_000,
            "later queries should skip: {}",
            h[4].rows_scanned
        );
    }

    #[test]
    fn build_time_recorded_for_eager_structures() {
        let data: Vec<i64> = (0..50_000).collect();
        let s = ColumnSession::new(data, &Strategy::SortedOracle);
        assert!(s.totals().build_ns > 0);
        let (meta, copy) = s.index_bytes();
        assert!(meta > 0 && copy > 0);
    }
}
