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
//! The authoritative state and every way it moves live in one place, the
//! [`Owner`] (`owner.rs`); this module only decides who holds it. In
//! [`AdaptationMode::Inline`] it sits under a mutex the workers take for a
//! query's whole prune → scan → observe span — the seed architecture, and
//! the reference the other modes are compared against. In the snapshot
//! modes the maintenance thread holds it by value, next to what it
//! remembers of its own publications (`Published`); client calls reach it
//! as messages and are acknowledged after the round's publications.
//!
//! ## Threads
//!
//! A service runs `readers` workers, in the snapshot modes one
//! maintenance thread, and — also only in the snapshot modes — each
//! worker's scan helpers: `available_parallelism / readers - 1` of them,
//! so none once the readers fill the host. All are spawned in
//! [`QueryService::start`] and joined in [`QueryService::shutdown`]; no
//! thread is started or stopped per query.
//!
//! A worker parallelises one query only through its helpers. It plans
//! every scan with `ExecPolicy::parallel(1 + helpers)`, so a scan below
//! two threads' worth of `MIN_ROWS_PER_THREAD` rows stays one run on the
//! worker, exactly the sequential path. A plan of more than one run is
//! posted on the worker's job board (`crate::helpers`): worker and
//! helpers claim runs through one cursor, the worker scans until no run
//! is unclaimed and then waits only for runs a helper already started,
//! and the runs merge in item order — so answers and every observation
//! the owner learns from are the ones a sequential scan produces.
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
//! What a stale reader *reports* needs a second argument, because its
//! observation is applied to the owner's current lane, not to the one it
//! pruned. Across structural change of the same rows — splits, merges,
//! deactivation, revival, appends behind the tail — `observe`'s check that
//! an observed row range still aligns with a zone is enough: an aligned
//! range covers the same rows it covered when it was scanned. It is not
//! enough across a **compaction**: the shard's live rows are repacked and
//! its lane rebuilt, cutting zones at the same multiples of the target
//! zone size over rows that all moved, so an old observation aligns and
//! describes other rows. What identifies a lane is therefore the shard
//! data version it was last rebuilt at: every observation travels with
//! the [`ads_storage::SharedColumn::version`] the reader scanned, and
//! [`Owner::feedback`] drops — whole, no re-prune, no `observe`, counted
//! in [`ServerStats::feedback_stale`] — any that predates the lane's
//! rebuild.
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
//! answers stay exact. Without the flush a reader may hold a snapshot
//! whose *statistics* are behind the owner's; by construction that never
//! changes what it decides (see the publication policy below).
//!
//! ## Publication policy
//!
//! After each maintenance batch, a lane is republished only when its
//! [`AdaptiveZonemap::mutation_epoch`] moved since its last publication.
//! The epoch moves exactly when something a reader's walk reads changed:
//! zones built, tightened, split, merged, deactivated, revived, promoted,
//! demoted, cracked or appended to, a mask or tier attached or dropped —
//! and the one statistic readers decide from, a zone starting or ceasing
//! to want a value mask as a scan moves its `wasted_scans` across the
//! threshold (DESIGN.md "What a reader reads off a snapshot"). A scan that
//! re-observes what the zone already knows moves nothing, so a lane that
//! is read all day and learns nothing is never cloned: steady state is
//! quiet, and publication comes in bursts when a hotspot moves and zones
//! split around it. What is cloned is what readers use — the lane without
//! the owner's retained trace events ([`Owner::snapshot`]). A
//! [`QueryService::flush`] barrier republishes **all** lanes
//! unconditionally, so post-flush readers see the lanes' exact current
//! state, statistics included. Republish cost is proportional to the
//! lanes that changed, not to the metadata that changed inside them
//! (`ServerStats::republish_bytes` vs `ServerStats::whole_map_bytes`, the
//! every-lane-every-round counterfactual; E17 measures the ratio).
//!
//! A quiet round costs the maintenance thread a few microseconds, after
//! which parking would make the next reader's `try_send` pay a thread
//! wake-up on the query path; the loop therefore polls its channel for
//! `LINGER` (30 us) before it blocks, and an idle service still parks.
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
//! drain every accepted request, closes the job boards so the helpers
//! exit, then stops the maintenance thread after it has applied all
//! queued feedback.
//!
//! [`AdaptiveZonemap::apply_feedback`]: ads_core::adaptive::AdaptiveZonemap::apply_feedback
//! [`AdaptiveZonemap::mutation_epoch`]: ads_core::adaptive::AdaptiveZonemap::mutation_epoch

use crate::config::{AdaptationMode, ServerConfig};
use crate::helpers::{help_loop, Board, Runs};
use crate::owner::{Mutation, Owner};
use crate::queue::{Bounded, PushError};
use crate::snapshot::{ShardSnapshot, ShardedCell};
use crate::stats::{OwnerTotals, ServerStats, StatsCollector};
use crate::sync::{Arc, Mutex, MutexGuard};
use ads_core::{PruneOutcome, RangePredicate, ScanObservation, SkippingIndex};
use ads_engine::{
    AggKind, ExecPolicy, QueryAnswer, RunResult, ScanPlan, ShardScanInput, ShardedScanResult,
};
use ads_storage::{DataValue, DeleteVector, RowRange};
use std::num::NonZeroUsize;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TryRecvError, TrySendError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One query to answer.
#[derive(Debug, Clone, Copy)]
pub struct Request<T: DataValue> {
    /// The range predicate.
    pub predicate: RangePredicate<T>,
    /// The aggregate to compute.
    pub agg: AggKind,
    /// Drop the request unanswered if a worker has not reached it by this
    /// instant; `None` waits for as long as it takes.
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
    /// order, shard-local coordinates, each beside the data version of
    /// the shard snapshot it was scanned from.
    Feedback(Vec<(u64, ScanObservation<T>)>),
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

/// How queries reach data, per adaptation mode.
enum Engine<T: DataValue> {
    /// Inline: the seed architecture — the owner under one lock, one
    /// query at a time, adaptation applied within the query. (Boxed: the
    /// zonemap is two orders of magnitude bigger than the snapshot cells.)
    Inline(Box<Mutex<Owner<T>>>),
    /// Async/Frozen: immutable per-shard snapshots published RCU-style by
    /// the maintenance thread, which holds the owner.
    Snapshot(ShardedCell<T>),
}

impl<T: DataValue> Engine<T> {
    /// The publication surface (`None` in inline mode, which has none).
    fn cell(&self) -> Option<&ShardedCell<T>> {
        match self {
            Engine::Snapshot(cell) => Some(cell),
            Engine::Inline(_) => None,
        }
    }
}

/// State shared between the service handle and its threads.
struct Shared<T: DataValue> {
    config: ServerConfig,
    queue: Bounded<Job<T>>,
    stats: StatsCollector,
    engine: Engine<T>,
    /// Snapshot modes: the owner's totals as of the last maintenance
    /// round, stored before that round's acks. (Inline mode reads the
    /// owner itself, under its lock.)
    round_totals: Mutex<OwnerTotals>,
    /// Scan helper threads per worker (see [`scan_helpers`]).
    helpers: usize,
    /// One job board per worker when it has helpers; empty otherwise.
    boards: Vec<Board<ScanWork<T>>>,
}

/// How many scan helpers each worker gets: the cores the readers leave
/// free, shared out evenly — `available_parallelism / readers - 1`, so 0
/// whenever the readers alone fill the host, and 0 in inline mode, whose
/// queries keep the owner's sequential policy.
fn scan_helpers(config: &ServerConfig) -> usize {
    if config.adaptation == AdaptationMode::Inline {
        return 0;
    }
    let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    (cores / config.readers).saturating_sub(1)
}

/// The service: a worker pool over a bounded request queue, plus (in
/// async/frozen modes) a maintenance thread owning the authoritative
/// column and zonemap lanes. See the module docs for the architecture.
pub struct QueryService<T: DataValue> {
    shared: Arc<Shared<T>>,
    maint_tx: Option<SyncSender<MaintMsg<T>>>,
    workers: Vec<JoinHandle<()>>,
    helpers: Vec<JoinHandle<()>>,
    maint: Option<JoinHandle<()>>,
}

impl<T: DataValue> QueryService<T> {
    /// Loads `data` into [`ServerConfig::shards`] shards and starts the
    /// worker pool (and, in async/frozen modes, the maintenance thread).
    pub fn start(data: Vec<T>, config: ServerConfig) -> Self {
        config.validate();
        let owner = Owner::new(data, config.shards, config.adaptive.clone());

        // In snapshot modes the maintenance thread holds the owner; the
        // cells only ever hold published clones.
        let (engine, maint_owner) = if config.adaptation == AdaptationMode::Inline {
            (Engine::Inline(Box::new(Mutex::new(owner))), None)
        } else {
            let initial = (0..owner.num_shards())
                .map(|s| owner.snapshot(s, Arc::new(owner.deletes(s).clone()), 0))
                .collect();
            (Engine::Snapshot(ShardedCell::new(initial)), Some(owner))
        };

        let helpers = scan_helpers(&config);
        let boards = if helpers > 0 {
            (0..config.readers).map(|_| Board::new()).collect()
        } else {
            Vec::new()
        };
        let shared = Arc::new(Shared {
            queue: Bounded::new(config.queue_capacity),
            stats: StatsCollector::new(config.readers)
                .with_scan_helpers((config.readers * helpers) as u64),
            engine,
            round_totals: Mutex::new(OwnerTotals::default()),
            config,
            helpers,
            boards,
        });

        let (maint_tx, maint) = if let Some(owner) = maint_owner {
            let (tx, rx) = sync_channel::<MaintMsg<T>>(shared.config.feedback_capacity);
            let sh = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name("ads-maint".into())
                .spawn(move || maintenance_loop(&sh, rx, owner))
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

        // Spawned once, parked on their worker's board between jobs,
        // joined at shutdown: no thread is born or dies per query.
        let helpers = (0..shared.boards.len())
            .flat_map(|id| (0..shared.helpers).map(move |h| (id, h)))
            .map(|(id, h)| {
                let sh = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ads-helper-{id}.{h}"))
                    .spawn(move || help_loop(&sh.boards[id]))
                    // invariant: see the maintenance spawn above.
                    .expect("spawn scan helper thread")
            })
            .collect();

        QueryService {
            shared,
            maint_tx,
            workers,
            helpers,
            maint,
        }
    }

    /// Admits a request, or sheds it without blocking.
    pub fn submit(&self, request: Request<T>) -> Result<Ticket<T>, SubmitError<T>> {
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

    /// Inline mode: the owner, locked. `None` in the snapshot modes, where
    /// the maintenance thread holds it and [`QueryService::control`] is
    /// the way in.
    fn inline_owner(&self) -> Option<MutexGuard<'_, Owner<T>>> {
        match &self.shared.engine {
            // invariant: no owner transition panics mid-update short of a
            // bug; poisoning means the process is already torn.
            Engine::Inline(owner) => Some(owner.lock().expect("inline owner poisoned")),
            Engine::Snapshot(_) => None,
        }
    }

    /// Snapshot modes: sends one control message to the maintenance
    /// thread and blocks until its ack — sent only after the round's
    /// publications — comes back.
    fn control<R>(
        &self,
        msg: impl FnOnce(SyncSender<R>) -> MaintMsg<T>,
    ) -> Result<R, MutationError> {
        let (ack_tx, ack_rx) = sync_channel(1);
        self.maint_tx
            .as_ref()
            // invariant: every snapshot-mode service starts a maintenance
            // thread and keeps its sender until shutdown consumes `self`.
            .expect("snapshot mode without maintenance")
            .send(msg(ack_tx))
            .map_err(|_| MutationError::Lost)?;
        ack_rx.recv().map_err(|_| MutationError::Lost)
    }

    /// Appends rows (routed to the tail shard). Blocks until the rows are
    /// visible to new queries (inline: immediately; async/frozen: once the
    /// maintenance thread has published the extended tail-shard snapshot).
    pub fn append(&self, rows: Vec<T>) {
        match self.inline_owner() {
            Some(mut owner) => owner.append(&rows),
            None => self
                .control(|ack| MaintMsg::Append(rows, ack))
                // invariant: the maintenance thread outlives the service
                // handle; it exits only after maint_tx drops.
                .expect("maintenance thread gone"),
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
        let n = mutations.len() as u64;
        self.shared.stats.record_mutations_queued(n);
        match self.inline_owner() {
            Some(mut owner) => {
                let applied = owner.mutate(&mutations);
                self.shared.stats.record_mutations_processed(n);
                if let Some(ratio) = self.shared.config.compact_tombstone_ratio {
                    owner.compact(Some(ratio));
                }
                Ok(applied)
            }
            None => self.control(|ack| MaintMsg::Mutate(mutations, ack)),
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
        match self.inline_owner() {
            Some(mut owner) => Ok(owner.compact(None)),
            None => self.control(MaintMsg::Compact),
        }
    }

    /// Barrier: blocks until all feedback enqueued before this call is
    /// applied to the authoritative zonemap lanes and **every** shard is
    /// freshly published (epoch-diffing is bypassed, so post-flush readers
    /// see exact lane state including per-query statistics). A no-op in
    /// inline mode (adaptation is never deferred).
    pub fn flush(&self) {
        if self.maint_tx.is_some() {
            self.control(MaintMsg::Flush)
                // invariant: see append — maintenance outlives the handle.
                .expect("maintenance thread gone");
        }
    }

    /// A point-in-time stats report.
    pub fn stats(&self) -> ServerStats {
        let owner = match self.inline_owner() {
            Some(owner) => owner.totals(),
            // invariant: the lock guards one plain copy; nothing panics
            // while holding it.
            None => *self.shared.round_totals.lock().expect("totals poisoned"),
        };
        self.shared.stats.snapshot(self.shared.queue.len(), owner)
    }

    /// Number of shards the column is partitioned into.
    pub fn num_shards(&self) -> usize {
        self.shared.config.shards
    }

    /// The latest published snapshot of every shard lane, in shard order
    /// (`None` in inline mode, which has no publications).
    pub fn shard_snapshots(&self) -> Option<Vec<Arc<ShardSnapshot<T>>>> {
        self.shared.engine.cell().map(ShardedCell::load_all)
    }

    /// Per-shard publication generations, in shard order (`None` in inline
    /// mode). A lane's generation moves exactly when that lane is
    /// republished, so diffing two reads tells which shards changed.
    pub fn shard_generations(&self) -> Option<Vec<u64>> {
        self.shared.engine.cell().map(ShardedCell::generations)
    }

    /// The structural state of the zonemap queries currently see, in
    /// global row coordinates: the authoritative state in inline mode, the
    /// latest published lane snapshots otherwise (call
    /// [`QueryService::flush`] first for an up-to-date view).
    pub fn zone_snapshot(&self) -> Vec<(RowRange, &'static str, f64)> {
        if let Some(owner) = self.inline_owner() {
            return owner.zone_snapshot();
        }
        let mut out = Vec::new();
        for snap in self.shard_snapshots().into_iter().flatten() {
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

    /// Graceful shutdown: stop admission, drain and answer every accepted
    /// request, apply all queued feedback, then return the final stats.
    pub fn shutdown(mut self) -> ServerStats {
        self.shutdown_inner();
        self.stats()
    }

    fn shutdown_inner(&mut self) {
        self.shared.queue.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // No worker is left to post a job; helpers wake, see the closed
        // board and exit.
        for board in &self.shared.boards {
            board.close();
        }
        for h in self.helpers.drain(..) {
            let _ = h.join();
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
        if !self.workers.is_empty() || !self.helpers.is_empty() || self.maint.is_some() {
            self.shutdown_inner();
        }
    }
}

/// One reader: pop → (deadline check) → execute → feedback → reply. In
/// the snapshot modes "execute" is prune → plan → scan (with the helpers
/// on `board` when the plan has more than one run) → merge.
fn worker_loop<T: DataValue>(
    shared: &Shared<T>,
    worker_id: usize,
    feedback: Option<SyncSender<MaintMsg<T>>>,
) {
    let mut cache = shared.engine.cell().map(ShardedCell::cache);
    // A scan is as wide as this worker plus its helpers — the cores the
    // readers leave free, so just the worker when they fill the host.
    // The policy's floor keeps every scan under two threads' worth of
    // rows one run on this thread: the point and hotspot lookups never
    // touch the board.
    let policy = ExecPolicy::parallel(1 + shared.helpers);
    let board = shared.boards.get(worker_id);
    while let Some(job) = shared.queue.pop() {
        let t0 = Instant::now();
        if job.request.deadline.is_some_and(|deadline| t0 > deadline) {
            shared.stats.record_deadline_missed();
            let _ = job.reply.send(Reply::DeadlineMissed);
            continue;
        }
        let reply = match &shared.engine {
            Engine::Inline(owner) => {
                // The whole prune → scan → observe span under one lock:
                // the seed's single-writer architecture as a service mode.
                // invariant: see inline_owner — poisoning is unrecoverable.
                let mut owner = owner.lock().expect("inline owner poisoned");
                let version = owner.data_version();
                let (answer, metrics) = owner.execute(job.request.predicate, job.request.agg);
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
                // lane, then read-only prunes and one planned scan against
                // the immutable shard snapshots. Lanes may be from
                // different publication rounds — each is sound for its own
                // shard, which is all the merge needs.
                // invariant: the cache is Some exactly when the engine is
                // Snapshot — both come from the same enum.
                let cache = cache.as_mut().expect("snapshot mode has a cache");
                cache.refresh(cell);
                let lanes = cache.lanes();
                let (pred, agg) = (job.request.predicate, job.request.agg);
                let outcomes: Vec<PruneOutcome> = lanes
                    .iter()
                    .map(|lane| lane.current().zonemap.prune_shared(&pred))
                    .collect();
                let inputs: Vec<ShardScanInput<'_, T>> = lanes
                    .iter()
                    .zip(&outcomes)
                    .map(|(lane, outcome)| scan_input(lane.current(), outcome))
                    .collect();
                let plan = ScanPlan::new(&inputs, pred, agg, &policy);
                let result = match board {
                    // More than one run: the helpers take what they can,
                    // which is why the job owns what its runs read.
                    Some(board) if plan.runs() > 1 => {
                        drop(inputs);
                        shared.stats.record_scan_fanned();
                        let lanes = lanes.iter().map(|lane| Arc::clone(lane.current()));
                        scan_fanned(
                            board,
                            ScanWork {
                                lanes: lanes.collect(),
                                outcomes,
                                plan,
                            },
                        )
                    }
                    _ => plan.run_scoped(&inputs),
                };
                let version = lanes.iter().map(|lane| lane.current().version).sum();
                shared
                    .stats
                    .record_scan_rows(result.phase.rows_scanned, result.phase.rows_with_byproducts);
                // Feedback goes out *before* the reply so a client that
                // replies-then-flushes is guaranteed (by channel FIFO) to
                // see its own query's adaptation applied. Each lane's
                // observation travels with the data version it scanned:
                // that is what the owner checks it against.
                if let Some(tx) = &feedback {
                    let seen = lanes.iter().map(|lane| lane.current().data.version());
                    let observations = seen.zip(result.observations).collect();
                    match tx.try_send(MaintMsg::Feedback(observations)) {
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

/// One lane's scan input, read off its snapshot.
fn scan_input<'a, T: DataValue>(
    snap: &'a ShardSnapshot<T>,
    outcome: &'a PruneOutcome,
) -> ShardScanInput<'a, T> {
    ShardScanInput {
        data: snap.data.as_slice(),
        outcome,
        start: snap.start,
        live: Some(snap.delete.as_ref()),
    }
}

/// A fanned scan as its helpers see it: everything a run reads, owned —
/// the worker's cached snapshots, its prune outcomes and the plan cut
/// from them.
struct ScanWork<T: DataValue> {
    lanes: Vec<Arc<ShardSnapshot<T>>>,
    outcomes: Vec<PruneOutcome>,
    plan: ScanPlan<T>,
}

impl<T: DataValue> ScanWork<T> {
    /// The lanes the plan was built from, rebuilt on the scanning thread.
    fn inputs(&self) -> Vec<ShardScanInput<'_, T>> {
        let lanes = self.lanes.iter().zip(&self.outcomes);
        lanes
            .map(|(snap, outcome)| scan_input(snap, outcome))
            .collect()
    }
}

impl<T: DataValue> Runs for ScanWork<T> {
    type Out = RunResult<T>;

    fn runs(&self) -> usize {
        self.plan.runs()
    }

    fn run(&self, k: usize) -> RunResult<T> {
        self.plan.scan_run(&self.inputs(), k)
    }
}

/// Scans `work` with this worker's helpers and merges in run order.
fn scan_fanned<T: DataValue>(
    board: &Board<ScanWork<T>>,
    work: ScanWork<T>,
) -> ShardedScanResult<T> {
    let (fan, runs) = board.run(work);
    let work = fan.work();
    work.plan.merge(&work.inputs(), runs)
}

/// What the maintenance thread remembers of each lane's last publication.
struct Published {
    /// Monotone per-lane publication number (0 = the initial snapshot).
    versions: Vec<u64>,
    /// Each lane's zonemap mutation epoch when it was last published; a
    /// lane republishes when its current epoch differs.
    epochs: Vec<u64>,
    /// Each lane's zonemap metadata bytes as of `epochs`: they move only
    /// with the epoch, so a quiet round does not walk the zones to learn
    /// what a clone would have cost.
    bytes: Vec<u64>,
    /// The `Arc` each lane last published; re-`Arc`'d only when that
    /// shard's tombstones changed, so a zonemap-only republish shares the
    /// bitmap.
    deletes: Vec<Arc<DeleteVector>>,
}

impl Published {
    /// Publishes every lane that is dirty, whose zonemap epoch moved since
    /// its last publication, or — under `force_all` — regardless, and
    /// counts the round on the owner.
    fn publish<T: DataValue>(
        &mut self,
        owner: &mut Owner<T>,
        cell: &ShardedCell<T>,
        force_all: bool,
    ) {
        let (mut republished, mut republish_bytes, mut whole_map_bytes) = (0u64, 0u64, 0u64);
        for s in 0..owner.num_shards() {
            let dirty = owner.take_dirty(s);
            let lane = owner.lane(s);
            let epoch = lane.mutation_epoch();
            // A dirty lane may be a rebuilt one, whose epochs started over.
            let moved = dirty || epoch != self.epochs[s];
            if moved {
                self.bytes[s] = lane.metadata_bytes() as u64;
            }
            let bytes = self.bytes[s];
            debug_assert_eq!(
                bytes,
                lane.metadata_bytes() as u64,
                "lane {s}'s metadata moved without its epoch"
            );
            // The counterfactual cost of a whole-map publication scheme
            // (the pre-sharding design cloned everything every round).
            whole_map_bytes += bytes;
            if !(force_all || moved) {
                continue;
            }
            if dirty {
                self.deletes[s] = Arc::new(owner.deletes(s).clone());
            }
            self.versions[s] += 1;
            self.epochs[s] = epoch;
            let delete = Arc::clone(&self.deletes[s]);
            cell.publish_shard(s, owner.snapshot(s, delete, self.versions[s]));
            republished += 1;
            republish_bytes += bytes;
        }
        owner.note_publication(republished, republish_bytes, whole_map_bytes);
    }
}

/// How long the maintenance thread keeps polling its channel after a
/// round before it parks in `recv`.
///
/// A round that publishes nothing takes a few microseconds, less than the
/// gap between two feedbacks of a busy reader; parking in that gap makes
/// the reader's next `try_send` a futex wake plus a scheduler round, paid
/// on the query path. Lingering for about one short query keeps the
/// hand-off a plain queue push while traffic lasts, and an idle service
/// still parks. Swept at 0 / 10 / 30 / 100 us on `sorted-point` and
/// `clustered-hotspot` (CHANGES.md, PR 23).
const LINGER: Duration = Duration::from_micros(30);

/// The next maintenance message: polled for [`LINGER`], then waited for.
/// `None` once every sender is gone and the channel is drained.
fn next_message<M>(rx: &Receiver<M>) -> Option<M> {
    let polling_since = Instant::now();
    loop {
        match rx.try_recv() {
            Ok(msg) => return Some(msg),
            Err(TryRecvError::Disconnected) => return None,
            Err(TryRecvError::Empty) if polling_since.elapsed() >= LINGER => break,
            Err(TryRecvError::Empty) => std::hint::spin_loop(),
        }
    }
    rx.recv().ok()
}

/// The maintenance thread: drain a batch, apply it to the owner, publish
/// the shards whose lanes changed, store the totals, ack control messages.
fn maintenance_loop<T: DataValue>(
    shared: &Shared<T>,
    rx: Receiver<MaintMsg<T>>,
    mut owner: Owner<T>,
) {
    let Engine::Snapshot(cell) = &shared.engine else {
        unreachable!("inline mode has no maintenance");
    };
    let initial = cell.load_all();
    let mut published = Published {
        versions: vec![0; initial.len()],
        epochs: initial
            .iter()
            .map(|snap| snap.zonemap.mutation_epoch())
            .collect(),
        bytes: (0..initial.len())
            .map(|s| owner.lane(s).metadata_bytes() as u64)
            .collect(),
        deletes: initial
            .iter()
            .map(|snap| Arc::clone(&snap.delete))
            .collect(),
    };
    drop(initial);

    while let Some(first) = next_message(&rx) {
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
        let mut force_all = false;
        for msg in batch {
            match msg {
                MaintMsg::Feedback(observations) => {
                    owner.feedback(&observations);
                    shared.stats.record_feedback_applied(1);
                }
                MaintMsg::Append(rows, ack) => {
                    owner.append(&rows);
                    acks.push(ack);
                }
                MaintMsg::Mutate(muts, ack) => {
                    mutation_acks.push((ack, owner.mutate(&muts)));
                    shared.stats.record_mutations_processed(muts.len() as u64);
                }
                // Compaction is deferred to the end of the batch: every
                // message in this batch was sent before this round's acks,
                // so all its rowids are pre-compaction coordinates and
                // FIFO-applying them first is exact.
                MaintMsg::Compact(ack) => compact_acks.push(ack),
                // A flush publishes every lane regardless of epochs:
                // post-flush readers must see exact current lane state,
                // per-query statistics included.
                MaintMsg::Flush(ack) => {
                    force_all = true;
                    acks.push(ack);
                }
            }
        }

        // An explicit request repacks every tombstoned shard; otherwise
        // the config ratio, when set, repacks the shards past it.
        let reclaimed = if !compact_acks.is_empty() {
            owner.compact(None)
        } else if let Some(ratio) = shared.config.compact_tombstone_ratio {
            owner.compact(Some(ratio))
        } else {
            0
        };

        // Reorganization, tiers and the revival check ride the same
        // cadence. Whatever they change bumps the lane's mutation epoch,
        // so the publication below swaps exactly the lanes that moved —
        // readers keep their old snapshot `Arc` until then and never see
        // a half-reorganized zone or a tier flag without its payload.
        owner.maintain();
        published.publish(&mut owner, cell, force_all);
        // invariant: see stats — the totals lock never poisons.
        *shared.round_totals.lock().expect("totals poisoned") = owner.totals();
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
