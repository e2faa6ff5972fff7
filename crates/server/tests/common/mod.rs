//! The reference the serialized suites hold the service to.
//!
//! An [`Owner`] driven on the test thread is the inline protocol itself:
//! [`Owner::execute`] prunes, scans and learns before it returns. After
//! every operation the reference runs what the service's maintenance
//! round runs after a batch — the ratio-triggered compaction, then
//! `maintain()` — so a service with one reader, flushed after every
//! operation, must leave the same answers, zones and owner totals. After
//! a query, `maintain()` adds only the revival poll: `execute` already
//! gave each lane its tier round, on the same
//! once-per-`maintenance_every` clock the service's round keeps.

use ads_core::RangePredicate;
use ads_engine::{AggKind, QueryAnswer};
use ads_server::{Mutation, Owner, QueryService, ServerConfig, ServerStats, StatsCollector};
use ads_storage::{DataValue, RowRange};

/// What a step leaves behind: the zones in global row coordinates, and
/// the stats report whose owner totals the suites compare.
pub type Settled = (Vec<(RowRange, &'static str, f64)>, ServerStats);

/// One serialized op stream's view of a store: the service or the
/// reference.
pub trait Store<T: DataValue> {
    /// The answer, `None` for a missed deadline.
    fn query(&mut self, pred: RangePredicate<T>, agg: AggKind) -> Option<QueryAnswer<T>>;
    fn append(&mut self, rows: Vec<T>);
    /// Mutations that took effect.
    fn mutate(&mut self, batch: Vec<Mutation<T>>) -> usize;
    /// Rows reclaimed.
    fn compact(&mut self) -> usize;
    /// Ends the step; the service flushes first.
    fn settle(&mut self) -> Settled;
}

impl<T: DataValue> Store<T> for QueryService<T> {
    fn query(&mut self, pred: RangePredicate<T>, agg: AggKind) -> Option<QueryAnswer<T>> {
        QueryService::query(self, pred, agg)
            .expect("admitted")
            .answer()
            .cloned()
    }

    fn append(&mut self, rows: Vec<T>) {
        QueryService::append(self, rows);
    }

    fn mutate(&mut self, batch: Vec<Mutation<T>>) -> usize {
        QueryService::mutate(self, batch).expect("acknowledged")
    }

    fn compact(&mut self) -> usize {
        QueryService::compact(self).expect("acknowledged")
    }

    fn settle(&mut self) -> Settled {
        self.flush();
        (self.zone_snapshot(), self.stats())
    }
}

/// An [`Owner`] loaded as `config` loads a service's, stepped as the
/// maintenance round steps it.
pub struct Reference<T: DataValue> {
    owner: Owner<T>,
    ratio: Option<f64>,
}

impl<T: DataValue> Reference<T> {
    pub fn new(data: Vec<T>, config: &ServerConfig) -> Self {
        Reference {
            owner: Owner::new(data, config.shards, config.adaptive.clone()),
            ratio: config.compact_tombstone_ratio,
        }
    }

    /// What the maintenance round runs after its batch.
    fn round(&mut self) {
        if let Some(ratio) = self.ratio {
            self.owner.compact(Some(ratio));
        }
        self.owner.maintain();
    }
}

impl<T: DataValue> Store<T> for Reference<T> {
    fn query(&mut self, pred: RangePredicate<T>, agg: AggKind) -> Option<QueryAnswer<T>> {
        let (answer, _) = self.owner.execute(pred, agg);
        self.round();
        Some(answer)
    }

    fn append(&mut self, rows: Vec<T>) {
        self.owner.append(&rows);
        self.round();
    }

    fn mutate(&mut self, batch: Vec<Mutation<T>>) -> usize {
        let applied = self.owner.mutate(&batch).expect("rowids in range");
        self.round();
        applied
    }

    fn compact(&mut self) -> usize {
        let reclaimed = self.owner.compact(None);
        self.round();
        reclaimed
    }

    fn settle(&mut self) -> Settled {
        let stats = StatsCollector::new(1).snapshot(0, self.owner.totals());
        (self.owner.zone_snapshot(), stats)
    }
}
