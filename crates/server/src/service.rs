//! The concurrent query service.
//!
//! A [`QueryService`] owns one sharded column and answers range-aggregate
//! queries from a pool of reader threads. Its central idea is the
//! separation the paper's inline protocol fuses: **query execution**
//! (prune → scan → answer) runs against immutable published
//! [`ShardSnapshot`]s with no locks on the hot path, while **adaptation**
//! (the observe/maintain side of the protocol) is applied asynchronously
//! by a single maintenance thread that drains a bounded feedback channel,
//! replays each query's per-shard prune/observe pairs against the
//! authoritative zonemap lanes, and publishes fresh snapshots RCU-style —
//! into **only the shard lanes whose zonemaps actually changed**, as told
//! by each lane's mutation epoch.
//!
//! ## Correctness under staleness
//!
//! A reader may execute against shard snapshots that are several
//! publications old — and even a *mix* of publication rounds across
//! shards. This is safe by construction: each shard snapshot pairs a
//! zonemap lane with exactly the shard column version it describes, so its
//! prune decisions are sound for the rows it scans, and the shards
//! partition the column contiguously. Staleness costs skipping opportunity
//! (an older lane excludes fewer zones), never answers.
//!
//! ## Convergence with the inline protocol
//!
//! [`AdaptiveZonemap::apply_feedback`] replays the *mutable* prune for its
//! side effects and then feeds the reader's observations through
//! `observe` — the exact inline sequence, applied lane by lane. With a
//! single reader and a flush after every query, each authoritative lane
//! therefore steps through the same states as an inline executor replaying
//! the same query stream (tested in `tests/convergence.rs`). Under
//! concurrency the trajectory interleaves differently but every
//! intermediate state is one the inline protocol could have produced, and
//! answers stay exact.
//!
//! ## Publication policy
//!
//! After each maintenance batch, a lane is republished only when its
//! [`AdaptiveZonemap::mutation_epoch`] moved since its last publication.
//! The epoch moves when zones are built, split, merged, deactivated,
//! revived or appended to — and whenever an applied observation scanned an
//! already-built zone of the lane, bounds changed or not, because readers
//! decide whether to ask a scan for a value mask from the `wasted_scans`
//! tally the published snapshot carries. Prune-side probe/skip tallies
//! alone never force a clone, but scan feedback does: a lane that is still
//! being scanned is cloned on nearly every maintenance batch, and only
//! lanes no query scanned are skipped. A [`QueryService::flush`] barrier
//! republishes **all** lanes unconditionally, so post-flush readers see
//! the lanes' exact current state, statistics included. Republish cost is
//! therefore proportional to the lanes that were scanned or restructured,
//! not to the metadata that changed inside them
//! (`ServerStats::republish_bytes` vs `ServerStats::whole_map_bytes`: E17
//! measures 100 % at 4 and 16 shards on uniform data, where every query
//! scans every lane). ROADMAP item 2's publication note records the
//! counts (85,845 publications for 87,786 feedbacks on the benchmark's
//! `clustered-hotspot`) and why the bump cannot simply stop; the fix
//! belongs with the reader's decision stream.
//!
//! ## Mutations
//!
//! Deletes and updates are out-of-place: a [`Mutation`] batch rides the
//! maintenance channel like an append, the maintenance thread tombstones
//! rows in per-shard [`DeleteVector`]s (an update tombstones the old row
//! and re-appends the new value to the tail shard under a fresh rowid),
//! and the changed shards are republished with data + delete vector in one
//! immutable snapshot — a reader either sees a delete with its epoch or
//! neither, never torn state. The ack is sent only after publication, so a
//! confirmed mutation is visible to every subsequent query. Zone bounds
//! are left untouched by deletes (sound but conservative over tombstones);
//! **compaction** — on demand via [`QueryService::compact`] or automatic
//! past [`ServerConfig::compact_tombstone_ratio`] — densely repacks the
//! live rows, resets the shard's delete vector, and rebuilds its zonemap
//! lane with tight bounds. Compaction shifts downstream shard starts, so
//! those lanes republish in the same round; a reader holding older lanes
//! still answers exactly (each lane's values are masked by that lane's own
//! delete vector), though POSITIONS rowids are interpreted against the
//! snapshot they were computed from.
//!
//! ## Backpressure and shutdown
//!
//! Admission sheds when the bounded request queue is full ([`SubmitError::
//! Shed`]); requests carry optional deadlines checked at dequeue; feedback
//! beyond the channel bound is dropped (slower adaptation, never wrong
//! answers). [`QueryService::shutdown`] closes admission, lets the workers
//! drain every accepted request, then stops the maintenance thread after
//! it has applied all queued feedback.

use crate::config::{AdaptationMode, ServerConfig};
use crate::queue::{Bounded, PushError};
use crate::snapshot::{ShardSnapshot, ShardedCell};
use crate::stats::{ServerStats, StatsCollector};
use crate::sync::{Arc, Mutex};
use ads_core::adaptive::{
    AdaptiveConfig, AdaptiveZonemap, ReorgReport, ShardedZonemap, TierReport,
};
use ads_core::{RangeObservation, RangePredicate, ScanObservation, SkippingIndex};
use ads_engine::{
    execute_sharded_with_deletes, scan_sharded, AggKind, QueryAnswer, ShardScanInput,
};
use ads_storage::{DataValue, DeleteVector, RowRange, ShardedColumn, SharedColumn};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::thread::JoinHandle;
use std::time::Instant;

/// One query to answer.
#[derive(Debug, Clone, Copy)]
pub struct Request<T: DataValue> {
    /// The range predicate.
    pub predicate: RangePredicate<T>,
    /// The aggregate to compute.
    pub agg: AggKind,
    /// Drop the request unanswered if a worker has not reached it by this
    /// instant. `None` falls back to [`ServerConfig::default_deadline`].
    pub deadline: Option<Instant>,
}

impl<T: DataValue> Request<T> {
    /// A request with no explicit deadline.
    pub fn new(predicate: RangePredicate<T>, agg: AggKind) -> Self {
        Request {
            predicate,
            agg,
            deadline: None,
        }
    }
}

/// The service's reply to one request.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply<T: DataValue> {
    /// The query was executed.
    Answer {
        /// The aggregate answer.
        answer: QueryAnswer<T>,
        /// Sum of the per-shard snapshot versions the query ran against
        /// (monotone: later queries never see a smaller value).
        snapshot_version: u64,
        /// Dequeue-to-answer wall time.
        wall_ns: u64,
    },
    /// The request's deadline had passed when a worker picked it up; no
    /// scan was run.
    DeadlineMissed,
}

impl<T: DataValue> Reply<T> {
    /// The answer, or `None` for a missed deadline.
    pub fn answer(&self) -> Option<&QueryAnswer<T>> {
        match self {
            Reply::Answer { answer, .. } => Some(answer),
            Reply::DeadlineMissed => None,
        }
    }
}

/// Why a request was not admitted.
#[derive(Debug)]
pub enum SubmitError<T: DataValue> {
    /// The request queue is full; the request is handed back.
    Shed(Request<T>),
    /// The service is shutting down; the request is handed back.
    ShuttingDown(Request<T>),
}

/// One out-of-place mutation, addressed by global row id — the same
/// rowid space query POSITIONS answers use (`shard start + local row`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mutation<T: DataValue> {
    /// Tombstone the row: queries stop counting it as soon as the
    /// mutation is acknowledged; the bytes are physically reclaimed at
    /// the next compaction. Deleting an already-dead row is a no-op.
    Delete(usize),
    /// Tombstone the row and append the new value to the tail shard
    /// under a fresh rowid. Updating an already-deleted row is a no-op
    /// (the delete won, so no new version is written).
    Update(usize, T),
}

/// Why a mutation batch or compaction request could not be confirmed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutationError {
    /// The maintenance thread is gone — the service is tearing down or
    /// the thread died — so no acknowledgement will arrive. The caller
    /// must treat the batch as lost; it is reported, never silently
    /// dropped.
    Lost,
}

/// A pending reply; redeem with [`Ticket::wait`].
#[derive(Debug)]
pub struct Ticket<T: DataValue> {
    rx: Receiver<Reply<T>>,
}

impl<T: DataValue> Ticket<T> {
    /// Blocks until the reply arrives. Every admitted request is replied
    /// to, including during shutdown (the queue drains before workers
    /// exit).
    pub fn wait(self) -> Reply<T> {
        // invariant: every admitted Job's reply sender is used before the
        // worker drops it — shutdown drains the queue before joining.
        self.rx.recv().expect("worker vanished without replying")
    }
}

/// One admitted unit of work.
struct Job<T: DataValue> {
    request: Request<T>,
    reply: SyncSender<Reply<T>>,
}

/// Messages into the maintenance thread. Feedback is shed-on-full
/// (`try_send`); control messages block until accepted, and their acks are
/// sent only after the resulting snapshots are published. FIFO ordering of
/// the one channel is what makes [`QueryService::flush`] a barrier: all
/// feedback enqueued before the flush is applied before its ack.
enum MaintMsg<T: DataValue> {
    /// One query's scan observations — one entry per shard, in shard
    /// order, shard-local coordinates.
    Feedback(Vec<ScanObservation<T>>),
    Append(Vec<T>, SyncSender<()>),
    /// One client's mutation batch; the ack carries how many mutations
    /// took effect and is sent only after the changed shards republish.
    Mutate(Vec<Mutation<T>>, SyncSender<usize>),
    /// Compact every tombstoned shard this round; the ack carries the
    /// rows reclaimed and is sent only after the repacked shards (and
    /// the start-shifted lanes downstream of them) republish.
    Compact(SyncSender<usize>),
    Flush(SyncSender<()>),
}

/// The mutable engine state of [`AdaptationMode::Inline`].
struct InlineState<T: DataValue> {
    data: ShardedColumn<T>,
    zonemap: ShardedZonemap<T>,
    /// One delete vector per shard, shard-local coordinates.
    deletes: Vec<DeleteVector>,
    /// Mutation batches applied; stamps the delete vectors' epochs.
    epoch: u64,
}

/// How queries reach data, per adaptation mode.
enum Engine<T: DataValue> {
    /// Inline: the seed architecture — one mutable state, one query at a
    /// time, adaptation applied within the query. (Boxed: the zonemap is
    /// two orders of magnitude bigger than the snapshot cells.)
    Inline(Box<Mutex<InlineState<T>>>),
    /// Async/Frozen: immutable per-shard snapshots published RCU-style.
    Snapshot(ShardedCell<T>),
}

/// State shared between the service handle and its threads.
struct Shared<T: DataValue> {
    config: ServerConfig,
    queue: Bounded<Job<T>>,
    stats: StatsCollector,
    engine: Engine<T>,
}

/// The service: a worker pool over a bounded request queue, plus (in
/// async/frozen modes) a maintenance thread owning the authoritative
/// column and zonemap lanes. See the module docs for the architecture.
pub struct QueryService<T: DataValue> {
    shared: Arc<Shared<T>>,
    maint_tx: Option<SyncSender<MaintMsg<T>>>,
    workers: Vec<JoinHandle<()>>,
    maint: Option<JoinHandle<()>>,
}

impl<T: DataValue> QueryService<T> {
    /// Loads `data` into [`ServerConfig::shards`] shards and starts the
    /// worker pool (and, in async/frozen modes, the maintenance thread).
    pub fn start(data: Vec<T>, config: ServerConfig) -> Self {
        config.validate();
        let column = ShardedColumn::new(data, config.shards);
        let zonemap = ShardedZonemap::for_column(&column, config.adaptive.clone());

        let inline = config.adaptation == AdaptationMode::Inline;
        // In snapshot modes the maintenance thread owns the authoritative
        // column + zonemap; the cells only ever hold published clones.
        let (engine, maint_state) = if inline {
            let deletes = (0..column.num_shards())
                .map(|s| DeleteVector::new(column.shard(s).len(), 0))
                .collect();
            let engine = Engine::Inline(Box::new(Mutex::new(InlineState {
                data: column,
                zonemap,
                deletes,
                epoch: 0,
            })));
            (engine, None)
        } else {
            let initial = (0..column.num_shards())
                .map(|s| ShardSnapshot {
                    data: column.shard(s).clone(),
                    delete: Arc::new(DeleteVector::new(column.shard(s).len(), 0)),
                    zonemap: zonemap.lane(s).clone(),
                    start: column.start(s),
                    version: 0,
                })
                .collect();
            let engine = Engine::Snapshot(ShardedCell::new(initial));
            (engine, Some((column, zonemap)))
        };

        let shared = Arc::new(Shared {
            queue: Bounded::new(config.queue_capacity),
            stats: StatsCollector::new(config.readers),
            engine,
            config,
        });

        let (maint_tx, maint) = if let Some((column, zonemap)) = maint_state {
            let (tx, rx) = sync_channel::<MaintMsg<T>>(shared.config.feedback_capacity);
            let sh = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name("ads-maint".into())
                .spawn(move || maintenance_loop(&sh, rx, column, zonemap))
                // invariant: thread spawn fails only on resource
                // exhaustion at startup; nothing to degrade to.
                .expect("spawn maintenance thread");
            (Some(tx), Some(handle))
        } else {
            (None, None)
        };

        let workers = (0..shared.config.readers)
            .map(|id| {
                let sh = Arc::clone(&shared);
                let tx = if shared.config.adaptation == AdaptationMode::Async {
                    maint_tx.clone()
                } else {
                    None
                };
                std::thread::Builder::new()
                    .name(format!("ads-worker-{id}"))
                    .spawn(move || worker_loop(&sh, id, tx))
                    // invariant: see the maintenance spawn above.
                    .expect("spawn worker thread")
            })
            .collect();

        QueryService {
            shared,
            maint_tx,
            workers,
            maint,
        }
    }

    /// Admits a request, or sheds it without blocking.
    pub fn submit(&self, mut request: Request<T>) -> Result<Ticket<T>, SubmitError<T>> {
        if request.deadline.is_none() {
            request.deadline = self
                .shared
                .config
                .default_deadline
                .map(|d| Instant::now() + d);
        }
        let (reply_tx, reply_rx) = sync_channel(1);
        match self.shared.queue.try_push(Job {
            request,
            reply: reply_tx,
        }) {
            Ok(()) => Ok(Ticket { rx: reply_rx }),
            Err(PushError::Full(job)) => {
                self.shared.stats.record_shed();
                Err(SubmitError::Shed(job.request))
            }
            Err(PushError::Closed(job)) => Err(SubmitError::ShuttingDown(job.request)),
        }
    }

    /// Submits and waits: the blocking convenience path.
    pub fn query(
        &self,
        predicate: RangePredicate<T>,
        agg: AggKind,
    ) -> Result<Reply<T>, SubmitError<T>> {
        self.submit(Request::new(predicate, agg)).map(Ticket::wait)
    }

    /// Appends rows (routed to the tail shard). Blocks until the rows are
    /// visible to new queries (inline: immediately; async/frozen: once the
    /// maintenance thread has published the extended tail-shard snapshot).
    pub fn append(&self, rows: Vec<T>) {
        match (&self.shared.engine, &self.maint_tx) {
            (Engine::Inline(state), _) => {
                // invariant: the inline engine never panics mid-update;
                // poisoning means the process is already torn.
                let mut st = state.lock().expect("inline state poisoned");
                let InlineState {
                    data,
                    zonemap,
                    deletes,
                    ..
                } = &mut *st;
                *data = data.append(&rows);
                let tail = data.num_shards() - 1;
                zonemap.on_append_tail(&rows, data.shard(tail).as_slice());
                deletes[tail].grow(data.shard(tail).len());
                self.shared.stats.record_append();
            }
            (Engine::Snapshot(_), Some(tx)) => {
                let (ack_tx, ack_rx) = sync_channel(1);
                tx.send(MaintMsg::Append(rows, ack_tx))
                    // invariant: the maintenance thread outlives the
                    // service handle; it exits only after maint_tx drops.
                    .expect("maintenance thread gone");
                // invariant: see above — the ack sender is never dropped
                // unsent while the maintenance thread lives.
                ack_rx.recv().expect("maintenance thread gone");
            }
            (Engine::Snapshot(_), None) => unreachable!("snapshot mode without maintenance"),
        }
    }

    /// Tombstones one row (global rowid). See [`QueryService::mutate`].
    pub fn delete(&self, row: usize) -> Result<usize, MutationError> {
        self.mutate(vec![Mutation::Delete(row)])
    }

    /// Replaces one row out-of-place (global rowid): the old row is
    /// tombstoned, the new value appended to the tail shard. See
    /// [`QueryService::mutate`].
    pub fn update(&self, row: usize, value: T) -> Result<usize, MutationError> {
        self.mutate(vec![Mutation::Update(row, value)])
    }

    /// Applies one batch of out-of-place mutations and blocks until they
    /// are visible to new queries (inline: immediately; async/frozen:
    /// once the maintenance thread has republished the changed shards).
    /// Returns how many mutations took effect — deleting or updating an
    /// already-dead row is a counted-out no-op.
    ///
    /// # Errors
    /// [`MutationError::Lost`] when the maintenance thread is gone and no
    /// acknowledgement will arrive; the batch must be treated as lost.
    ///
    /// # Panics
    /// Panics on a rowid at or past the current column length.
    pub fn mutate(&self, mutations: Vec<Mutation<T>>) -> Result<usize, MutationError> {
        self.shared
            .stats
            .record_mutations_queued(mutations.len() as u64);
        match (&self.shared.engine, &self.maint_tx) {
            (Engine::Inline(state), _) => {
                // invariant: see append — poisoning is unrecoverable.
                let mut st = state.lock().expect("inline state poisoned");
                let n = mutations.len() as u64;
                let InlineState {
                    data,
                    zonemap,
                    deletes,
                    epoch,
                } = &mut *st;
                *epoch += 1;
                let mut dirty = vec![false; data.num_shards()];
                let applied =
                    apply_mutations(&mutations, data, zonemap, deletes, &mut dirty, *epoch);
                self.shared.stats.record_mutation_batch(n, applied as u64);
                if let Some(ratio) = self.shared.config.compact_tombstone_ratio {
                    compact_shards(
                        data,
                        zonemap,
                        deletes,
                        &mut dirty,
                        *epoch,
                        Some(ratio),
                        &self.shared.config.adaptive,
                        &self.shared.stats,
                    );
                }
                Ok(applied)
            }
            (Engine::Snapshot(_), Some(tx)) => {
                let (ack_tx, ack_rx) = sync_channel(1);
                tx.send(MaintMsg::Mutate(mutations, ack_tx))
                    .map_err(|_| MutationError::Lost)?;
                ack_rx.recv().map_err(|_| MutationError::Lost)
            }
            (Engine::Snapshot(_), None) => unreachable!("snapshot mode without maintenance"),
        }
    }

    /// Compacts every shard holding tombstones: live rows are densely
    /// repacked (shifting downstream shard starts and rowids), delete
    /// vectors reset, and each repacked shard's zonemap lane is rebuilt
    /// with tight bounds. Blocks until the compacted state is published;
    /// returns the rows reclaimed.
    ///
    /// # Errors
    /// [`MutationError::Lost`] when the maintenance thread is gone.
    pub fn compact(&self) -> Result<usize, MutationError> {
        match (&self.shared.engine, &self.maint_tx) {
            (Engine::Inline(state), _) => {
                // invariant: see append — poisoning is unrecoverable.
                let mut st = state.lock().expect("inline state poisoned");
                let InlineState {
                    data,
                    zonemap,
                    deletes,
                    epoch,
                } = &mut *st;
                *epoch += 1;
                let mut dirty = vec![false; data.num_shards()];
                Ok(compact_shards(
                    data,
                    zonemap,
                    deletes,
                    &mut dirty,
                    *epoch,
                    None,
                    &self.shared.config.adaptive,
                    &self.shared.stats,
                ))
            }
            (Engine::Snapshot(_), Some(tx)) => {
                let (ack_tx, ack_rx) = sync_channel(1);
                tx.send(MaintMsg::Compact(ack_tx))
                    .map_err(|_| MutationError::Lost)?;
                ack_rx.recv().map_err(|_| MutationError::Lost)
            }
            (Engine::Snapshot(_), None) => unreachable!("snapshot mode without maintenance"),
        }
    }

    /// Barrier: blocks until all feedback enqueued before this call is
    /// applied to the authoritative zonemap lanes and **every** shard is
    /// freshly published (epoch-diffing is bypassed, so post-flush readers
    /// see exact lane state including per-query statistics). A no-op in
    /// inline mode (adaptation is never deferred).
    pub fn flush(&self) {
        if let Some(tx) = &self.maint_tx {
            let (ack_tx, ack_rx) = sync_channel(1);
            // invariant: see append — maintenance outlives the handle.
            tx.send(MaintMsg::Flush(ack_tx))
                .expect("maintenance thread gone");
            // invariant: see append — maintenance outlives the handle.
            ack_rx.recv().expect("maintenance thread gone");
        }
    }

    /// A point-in-time stats report.
    pub fn stats(&self) -> ServerStats {
        self.stats_at_depth(self.shared.queue.len())
    }

    fn stats_at_depth(&self, queue_depth: usize) -> ServerStats {
        let mut stats = self.shared.stats.snapshot(queue_depth);
        // Inline mode reorganizes inside the query path (no maintenance
        // thread records deltas), so its lifetime totals come straight
        // from the authoritative zonemap.
        if let Engine::Inline(state) = &self.shared.engine {
            // invariant: see append — poisoning is unrecoverable.
            let st = state.lock().expect("inline state poisoned");
            let r = st.zonemap.reorg_stats();
            stats.zones_promoted = r.zones_promoted;
            stats.zones_demoted = r.zones_demoted;
            stats.reorg_bytes_moved = r.bytes_moved;
            stats.reorg_ns = r.reorg_ns;
            let t = st.zonemap.tier_stats();
            stats.tiers_built = t.tiers_built();
            stats.tiers_dropped = t.tiers_dropped;
            stats.tier_skips = t.tier_skips;
            stats.tombstone_ppm = tombstone_ppm(&st.deletes);
        }
        stats
    }

    /// Number of shards the column is partitioned into.
    pub fn num_shards(&self) -> usize {
        match &self.shared.engine {
            Engine::Inline(state) => state
                .lock()
                // invariant: see append — poisoning is unrecoverable.
                .expect("inline state poisoned")
                .data
                .num_shards(),
            Engine::Snapshot(cell) => cell.num_shards(),
        }
    }

    /// The latest published snapshot of every shard lane, in shard order
    /// (`None` in inline mode, which has no publications).
    pub fn shard_snapshots(&self) -> Option<Vec<Arc<ShardSnapshot<T>>>> {
        match &self.shared.engine {
            Engine::Snapshot(cell) => Some(cell.load_all()),
            Engine::Inline(_) => None,
        }
    }

    /// Per-shard publication generations, in shard order (`None` in inline
    /// mode). A lane's generation moves exactly when that lane is
    /// republished, so diffing two reads tells which shards changed.
    pub fn shard_generations(&self) -> Option<Vec<u64>> {
        match &self.shared.engine {
            Engine::Snapshot(cell) => Some(cell.generations()),
            Engine::Inline(_) => None,
        }
    }

    /// The structural state of the zonemap queries currently see, in
    /// global row coordinates: the authoritative state in inline mode, the
    /// latest published lane snapshots otherwise (call
    /// [`QueryService::flush`] first for an up-to-date view).
    pub fn zone_snapshot(&self) -> Vec<(RowRange, &'static str, f64)> {
        match &self.shared.engine {
            Engine::Inline(state) => state
                .lock()
                // invariant: see append — poisoning is unrecoverable.
                .expect("inline state poisoned")
                .zonemap
                .zone_snapshot(),
            Engine::Snapshot(cell) => {
                let mut out = Vec::new();
                for snap in cell.load_all() {
                    let start = snap.start;
                    out.extend(
                        snap.zonemap
                            .zone_snapshot()
                            .into_iter()
                            .map(|(r, label, rate)| {
                                (RowRange::new(r.start + start, r.end + start), label, rate)
                            }),
                    );
                }
                out
            }
        }
    }

    /// Graceful shutdown: stop admission, drain and answer every accepted
    /// request, apply all queued feedback, then return the final stats.
    pub fn shutdown(mut self) -> ServerStats {
        self.shutdown_inner();
        self.stats_at_depth(0)
    }

    fn shutdown_inner(&mut self) {
        self.shared.queue.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // All worker-held senders are gone; dropping ours closes the
        // maintenance channel after the queued feedback drains.
        self.maint_tx = None;
        if let Some(m) = self.maint.take() {
            let _ = m.join();
        }
    }
}

impl<T: DataValue> Drop for QueryService<T> {
    fn drop(&mut self) {
        if !self.workers.is_empty() || self.maint.is_some() {
            self.shutdown_inner();
        }
    }
}

/// One reader: pop → (deadline check) → execute → feedback → reply.
fn worker_loop<T: DataValue>(
    shared: &Shared<T>,
    worker_id: usize,
    feedback: Option<SyncSender<MaintMsg<T>>>,
) {
    let mut cache = match &shared.engine {
        Engine::Snapshot(cell) => Some(cell.cache()),
        Engine::Inline(_) => None,
    };
    while let Some(job) = shared.queue.pop() {
        let t0 = Instant::now();
        if let Some(deadline) = job.request.deadline {
            if Instant::now() > deadline {
                shared.stats.record_deadline_missed();
                let _ = job.reply.send(Reply::DeadlineMissed);
                continue;
            }
        }
        let reply = match &shared.engine {
            Engine::Inline(state) => {
                // The whole prune → scan → observe span under one lock:
                // the seed's single-writer architecture as a service mode.
                // invariant: see append — poisoning is unrecoverable.
                let mut st = state.lock().expect("inline state poisoned");
                let InlineState {
                    data,
                    zonemap,
                    deletes,
                    ..
                } = &mut *st;
                let version = data.shards().iter().map(SharedColumn::version).sum();
                let (answer, metrics) = execute_sharded_with_deletes(
                    data,
                    zonemap,
                    Some(deletes.as_slice()),
                    job.request.predicate,
                    job.request.agg,
                    &shared.config.exec_policy,
                );
                shared.stats.record_scan_rows(
                    metrics.query.rows_scanned,
                    metrics.query.rows_with_byproducts,
                );
                Reply::Answer {
                    answer,
                    snapshot_version: version,
                    wall_ns: metrics.query.wall_ns,
                }
            }
            Engine::Snapshot(cell) => {
                // Lock-free steady state: one atomic generation load per
                // lane, then read-only prunes and one fanned scan against
                // the immutable shard snapshots. Lanes may be from
                // different publication rounds — each is sound for its own
                // shard, which is all the merge needs.
                // invariant: the cache is Some exactly when the engine is
                // Snapshot — both match on the same enum above.
                let cache = cache.as_mut().expect("snapshot mode has a cache");
                cache.refresh(cell);
                let lanes = cache.lanes();
                let outcomes: Vec<_> = lanes
                    .iter()
                    .map(|lane| lane.current().zonemap.prune_shared(&job.request.predicate))
                    .collect();
                let inputs: Vec<ShardScanInput<'_, T>> = lanes
                    .iter()
                    .zip(&outcomes)
                    .map(|(lane, outcome)| {
                        let snap = lane.current();
                        ShardScanInput {
                            data: snap.data.as_slice(),
                            outcome,
                            start: snap.start,
                            live: Some(snap.delete.as_ref()),
                        }
                    })
                    .collect();
                let result = scan_sharded(
                    &inputs,
                    job.request.predicate,
                    job.request.agg,
                    &shared.config.exec_policy,
                );
                let version = lanes.iter().map(|lane| lane.current().version).sum();
                shared
                    .stats
                    .record_scan_rows(result.phase.rows_scanned, result.phase.rows_with_byproducts);
                // Feedback goes out *before* the reply so a client that
                // replies-then-flushes is guaranteed (by channel FIFO) to
                // see its own query's adaptation applied.
                if let Some(tx) = &feedback {
                    match tx.try_send(MaintMsg::Feedback(result.observations)) {
                        Ok(()) => shared.stats.record_feedback_queued(),
                        Err(TrySendError::Full(_)) => shared.stats.record_feedback_dropped(),
                        Err(TrySendError::Disconnected(_)) => {}
                    }
                }
                Reply::Answer {
                    answer: result.answer,
                    snapshot_version: version,
                    wall_ns: t0.elapsed().as_nanos() as u64,
                }
            }
        };
        shared
            .stats
            .record_query(worker_id, t0.elapsed().as_nanos() as u64);
        let _ = job.reply.send(reply);
    }
}

/// The maintenance thread: drain a batch, replay its feedback against the
/// authoritative zonemap lanes, publish the shards whose lanes changed,
/// ack control messages.
fn maintenance_loop<T: DataValue>(
    shared: &Shared<T>,
    rx: Receiver<MaintMsg<T>>,
    mut column: ShardedColumn<T>,
    mut zonemap: ShardedZonemap<T>,
) {
    let cell = match &shared.engine {
        Engine::Snapshot(cell) => cell,
        Engine::Inline(_) => unreachable!("inline mode has no maintenance"),
    };
    let num_shards = column.num_shards();
    let mut lane_versions = vec![0u64; num_shards];
    // Epoch of each lane at its last publication; a lane is republished
    // when its current epoch differs (or a flush forces it).
    let mut published_epochs = zonemap.mutation_epochs();
    // Authoritative per-shard tombstones, shard-local coordinates.
    let mut deletes: Vec<DeleteVector> = (0..num_shards)
        .map(|s| DeleteVector::new(column.shard(s).len(), 0))
        .collect();
    // The Arc each lane last published; re-Arc'd only when that shard's
    // tombstones changed, so a zonemap-only republish shares the bitmap.
    let mut published_deletes: Vec<Arc<DeleteVector>> =
        deletes.iter().map(|d| Arc::new(d.clone())).collect();
    // Lanes that must republish this round regardless of zonemap epochs:
    // their tombstones changed, or compaction shifted their start.
    let mut dirty = vec![false; num_shards];
    // Bumped once per mutation batch; stamps the delete vectors so a
    // published snapshot always carries the epoch of the batch that last
    // changed its tombstones.
    let mut mutation_epoch = 0u64;
    // Lifetime tier skips at the last stats report; tier skips accrue on
    // the authoritative map through feedback replay, so each round reports
    // the delta since the previous one.
    let mut reported_tier_skips = 0u64;

    while let Ok(first) = rx.recv() {
        // Drain opportunistically up to the batch bound: one publication
        // round amortises over the whole batch, keeping reader staleness
        // low without a snapshot-per-observation storm.
        let mut batch = vec![first];
        while batch.len() < shared.config.batch_max {
            match rx.try_recv() {
                Ok(msg) => batch.push(msg),
                Err(_) => break,
            }
        }

        let mut acks: Vec<SyncSender<()>> = Vec::new();
        let mut mutation_acks: Vec<(SyncSender<usize>, usize)> = Vec::new();
        let mut compact_acks: Vec<SyncSender<usize>> = Vec::new();
        let mut applied = 0u64;
        let mut force_all = false;
        let mut explicit_compact = false;
        for msg in batch {
            match msg {
                MaintMsg::Feedback(observations) => {
                    debug_assert_eq!(observations.len(), num_shards);
                    for (s, obs) in observations.iter().enumerate() {
                        zonemap.lane_mut(s).apply_feedback(obs);
                    }
                    applied += 1;
                }
                MaintMsg::Append(rows, ack) => {
                    column = column.append(&rows);
                    let tail = num_shards - 1;
                    zonemap.on_append_tail(&rows, column.shard(tail).as_slice());
                    deletes[tail].grow(column.shard(tail).len());
                    dirty[tail] = true;
                    shared.stats.record_append();
                    acks.push(ack);
                }
                MaintMsg::Mutate(muts, ack) => {
                    mutation_epoch += 1;
                    let took = apply_mutations(
                        &muts,
                        &mut column,
                        &mut zonemap,
                        &mut deletes,
                        &mut dirty,
                        mutation_epoch,
                    );
                    shared
                        .stats
                        .record_mutation_batch(muts.len() as u64, took as u64);
                    mutation_acks.push((ack, took));
                }
                // Compaction is deferred to the end of the batch: every
                // message in this batch was sent before this round's acks,
                // so all its rowids are pre-compaction coordinates and
                // FIFO-applying them first is exact.
                MaintMsg::Compact(ack) => {
                    explicit_compact = true;
                    compact_acks.push(ack);
                }
                // A flush publishes every lane regardless of epochs:
                // post-flush readers must see exact current lane state,
                // per-query statistics included.
                MaintMsg::Flush(ack) => {
                    force_all = true;
                    acks.push(ack);
                }
            }
        }

        // Compaction: an explicit request repacks every tombstoned shard;
        // otherwise the config ratio triggers automatic repacking of the
        // shards past it.
        let min_ratio = if explicit_compact {
            None
        } else {
            shared.config.compact_tombstone_ratio
        };
        let reclaimed = if explicit_compact || min_ratio.is_some() {
            compact_shards(
                &mut column,
                &mut zonemap,
                &mut deletes,
                &mut dirty,
                mutation_epoch,
                min_ratio,
                &shared.config.adaptive,
                &shared.stats,
            )
        } else {
            0
        };

        // Reorganization rides the same maintenance cadence: each lane
        // promotes hot zones / demotes cold ones against its own shard
        // slice. Any layout change bumps the lane's mutation epoch, so the
        // epoch diff below republishes exactly the lanes that moved —
        // readers keep their old snapshot Arc until then and never see a
        // half-reorganized zone.
        let mut reorg = ReorgReport::default();
        for s in 0..num_shards {
            let rep = zonemap.lane_mut(s).apply_reorg(column.shard(s).as_slice());
            reorg.promoted += rep.promoted;
            reorg.demoted += rep.demoted;
            reorg.bytes_moved += rep.bytes_moved;
            reorg.reorg_ns += rep.reorg_ns;
        }
        if reorg.changed() {
            shared.stats.record_reorg(
                reorg.promoted,
                reorg.demoted,
                reorg.bytes_moved,
                reorg.reorg_ns,
            );
        }

        // Metadata tiers ride the same cadence: each lane judges its drop
        // windows and builds sketches over zones whose replayed feedback
        // has amortised one. Builds and drops bump the lane's epoch, so
        // the diff below republishes them atomically — a reader never
        // sees a tier flag without its payload.
        let mut tiers = TierReport::default();
        for s in 0..num_shards {
            let rep = zonemap.lane_mut(s).apply_tiers(column.shard(s).as_slice());
            tiers.built += rep.built;
            tiers.dropped += rep.dropped;
        }
        let tier_skips = zonemap.tier_stats().tier_skips;
        let skip_delta = tier_skips.saturating_sub(reported_tier_skips);
        if tiers.changed() || skip_delta > 0 {
            shared
                .stats
                .record_tiers(tiers.built, tiers.dropped, skip_delta);
            reported_tier_skips = tier_skips;
        }

        // Run the revival check the next query's prune would run, so the
        // snapshot readers see the state an inline executor would start
        // the next query from.
        zonemap.poll_revival();
        let epochs = zonemap.mutation_epochs();
        let mut republished = 0u64;
        let mut republish_bytes = 0u64;
        let mut whole_map_bytes = 0u64;
        for s in 0..num_shards {
            whole_map_bytes += zonemap.lane(s).metadata_bytes() as u64;
            if force_all || dirty[s] || epochs[s] != published_epochs[s] {
                lane_versions[s] += 1;
                republish_bytes += zonemap.lane(s).metadata_bytes() as u64;
                if dirty[s] {
                    published_deletes[s] = Arc::new(deletes[s].clone());
                    dirty[s] = false;
                }
                cell.publish_shard(
                    s,
                    ShardSnapshot {
                        data: column.shard(s).clone(),
                        delete: Arc::clone(&published_deletes[s]),
                        zonemap: zonemap.lane(s).clone(),
                        start: column.start(s),
                        version: lane_versions[s],
                    },
                );
                published_epochs[s] = epochs[s];
                republished += 1;
            }
        }
        if republished > 0 {
            shared.stats.record_snapshot_published();
            shared.stats.record_shards_republished(republished);
            shared.stats.record_republish_bytes(republish_bytes);
        }
        // The counterfactual cost a whole-map publication scheme would
        // have paid this round (the pre-sharding design cloned everything
        // every round).
        shared.stats.record_whole_map_bytes(whole_map_bytes);
        if applied > 0 {
            shared.stats.record_feedback_applied(applied);
        }
        shared.stats.set_tombstone_ppm(tombstone_ppm(&deletes));
        // Acks only after the publications: an acked append/flush/
        // mutation/compaction is visible to every subsequent query.
        for ack in acks {
            let _ = ack.send(());
        }
        for (ack, took) in mutation_acks {
            let _ = ack.send(took);
        }
        for ack in compact_acks {
            let _ = ack.send(reclaimed);
        }
    }
}

/// Locates the shard holding global row `row`.
///
/// Callers guarantee `row < column.len()`, so the last shard whose start
/// is at or below `row` holds it (empty shards share their successor's
/// start and are skipped by taking the last).
fn shard_of_row<T: DataValue>(column: &ShardedColumn<T>, row: usize) -> usize {
    let s = (0..column.num_shards())
        .rfind(|&s| column.start(s) <= row)
        // invariant: shard 0 starts at row 0, so some start is <= row.
        .expect("shard 0 covers row 0");
    debug_assert!(row - column.start(s) < column.shard(s).len());
    s
}

/// Applies one client mutation batch out-of-place: deletes tombstone
/// their row; updates tombstone the old row and append the new value to
/// the tail shard (rowids are resolved against the column *before* any
/// of this batch's appends land, so a batch cannot address its own new
/// rows). Shards whose tombstones changed get their `dirty` flag raised.
/// Returns how many mutations took effect.
fn apply_mutations<T: DataValue>(
    mutations: &[Mutation<T>],
    column: &mut ShardedColumn<T>,
    zonemap: &mut ShardedZonemap<T>,
    deletes: &mut [DeleteVector],
    dirty: &mut [bool],
    epoch: u64,
) -> usize {
    let mut applied = 0usize;
    let mut tail_appends: Vec<T> = Vec::new();
    for m in mutations {
        let (row, update) = match m {
            Mutation::Delete(row) => (*row, None),
            Mutation::Update(row, value) => (*row, Some(*value)),
        };
        assert!(
            row < column.len(),
            "mutation rowid {row} out of range ({} rows)",
            column.len()
        );
        let s = shard_of_row(column, row);
        if deletes[s].delete(row - column.start(s)) {
            deletes[s].set_epoch(epoch);
            dirty[s] = true;
            applied += 1;
            if let Some(value) = update {
                tail_appends.push(value);
            }
        }
    }
    if !tail_appends.is_empty() {
        *column = column.append(&tail_appends);
        let tail = column.num_shards() - 1;
        zonemap.on_append_tail(&tail_appends, column.shard(tail).as_slice());
        deletes[tail].grow(column.shard(tail).len());
        deletes[tail].set_epoch(epoch);
        dirty[tail] = true;
    }
    applied
}

/// Densely repacks every shard whose tombstone ratio reaches `min_ratio`
/// (every tombstoned shard when `None`): live rows are rewritten in
/// order via [`SharedColumn::replace`], the shard's delete vector resets
/// to all-live at `epoch`, and its zonemap lane is rebuilt with bounds
/// tightened by a synthetic zone-aligned observation. Downstream lanes'
/// starts shift, so their `dirty` flags are raised alongside the
/// repacked shard's. Returns the total rows reclaimed.
#[allow(clippy::too_many_arguments)]
fn compact_shards<T: DataValue>(
    column: &mut ShardedColumn<T>,
    zonemap: &mut ShardedZonemap<T>,
    deletes: &mut [DeleteVector],
    dirty: &mut [bool],
    epoch: u64,
    min_ratio: Option<f64>,
    config: &AdaptiveConfig,
    stats: &StatsCollector,
) -> usize {
    let mut reclaimed_total = 0usize;
    for s in 0..column.num_shards() {
        if !deletes[s].has_deletes() {
            continue;
        }
        if let Some(ratio) = min_ratio {
            if deletes[s].tombstone_ratio() < ratio {
                continue;
            }
        }
        let shard = column.shard(s);
        let mut live_rows = Vec::with_capacity(deletes[s].live_count());
        for (i, v) in shard.as_slice().iter().enumerate() {
            if !deletes[s].is_deleted(i) {
                live_rows.push(*v);
            }
        }
        let reclaimed = shard.len() - live_rows.len();
        let mut shards = column.shards().to_vec();
        shards[s] = shards[s].replace(live_rows);
        *column = ShardedColumn::from_shards(shards);
        deletes[s] = DeleteVector::new(column.shard(s).len(), epoch);
        zonemap.replace_lane(
            s,
            rebuilt_lane(column.shard(s).as_slice(), config),
            &column.shard_lens(),
        );
        // The repacked lane and every lane downstream of it (their global
        // starts shifted by `reclaimed`) must republish this round.
        for flag in dirty.iter_mut().skip(s) {
            *flag = true;
        }
        stats.record_compaction(reclaimed as u64);
        reclaimed_total += reclaimed;
    }
    reclaimed_total
}

/// A fresh zonemap lane over a compacted shard, its zones eagerly built
/// with tight bounds: one synthetic all-matching observation walks the
/// lane's own zone-aligned prune units, so the rebuilt metadata is
/// exactly what a full scan would have observed — no query traffic is
/// needed to re-tighten bounds after compaction.
fn rebuilt_lane<T: DataValue>(data: &[T], config: &AdaptiveConfig) -> AdaptiveZonemap<T> {
    let mut lane = AdaptiveZonemap::new(data.len(), config.clone());
    let Some(&first) = data.first() else {
        return lane;
    };
    let (lo, hi) = data.iter().fold((first, first), |(lo, hi), &v| {
        (lo.min_total(v), hi.max_total(v))
    });
    let predicate = RangePredicate::between(lo, hi);
    let outcome = SkippingIndex::prune(&mut lane, &predicate);
    let ranges = outcome
        .units()
        .iter()
        .map(|unit| {
            // live: freshly compacted shard — every tombstone dropped.
            let (q, mn, mx) =
                ads_storage::scan::count_in_range_with_minmax(&data[unit.start..unit.end], lo, hi);
            RangeObservation::new(*unit, q, mn, mx)
        })
        .collect();
    lane.observe(&ScanObservation { predicate, ranges });
    lane
}

/// The column's tombstoned fraction in parts per million.
fn tombstone_ppm(deletes: &[DeleteVector]) -> u64 {
    let total: usize = deletes.iter().map(DeleteVector::len).sum();
    let dead: usize = deletes.iter().map(DeleteVector::deleted_count).sum();
    if total == 0 {
        0
    } else {
        (dead as u64).saturating_mul(1_000_000) / total as u64
    }
}
