//! `ads-server`: a concurrent query service over the adaptive skipping
//! engine — snapshot-isolated reads, asynchronous zonemap adaptation.
//!
//! The paper's protocol is inherently single-writer: every query mutates
//! the index (observe ticks the clocks, records the prune's walk, and
//! builds, splits, merges, deactivates). Run naively under concurrency, that serialises
//! all queries behind one lock. This crate keeps the protocol intact but
//! splits *where* its two halves run:
//!
//! * **Reads** execute against immutable [`ShardSnapshot`]s — one frozen
//!   shard column version paired with the zonemap lane computed over
//!   exactly that version — fetched through generation-checked per-lane
//!   caches ([`ShardedCache`]) whose steady-state cost is one atomic load
//!   per shard. Pruning uses the read-only
//!   `AdaptiveZonemap::prune_shared`, which is decision-identical to the
//!   mutable prune; the per-shard scans are cut into one plan's runs and
//!   merge deterministically in shard order. A large scan's runs are
//!   shared with the worker's persistent scan helpers ([`helpers`]), one
//!   per core the readers leave free.
//! * **Adaptation** is deferred: each query's per-shard scan observations
//!   and zone walks go into a bounded feedback channel; a single
//!   maintenance thread drains them in batches, records them in each
//!   authoritative zonemap lane as the inline protocol would, without
//!   walking again (`AdaptiveZonemap::apply_feedback`), and publishes fresh snapshots
//!   RCU-style — **only into the shard lanes whose mutation epoch moved**,
//!   so publication cost tracks the metadata that changed rather than the
//!   whole map. Appends serialise through the same thread and route to the
//!   tail shard, so each lane always describes the shard column version it
//!   is published with.
//!
//! Answers are exact regardless of snapshot staleness; what staleness (or
//! a full feedback channel dropping observations) costs is adaptation
//! speed — the zonemap learns from older decisions, so it adapts later,
//! or by another path, than the inline protocol. See
//! `tests/convergence.rs` for the serialized equivalence proof and
//! `tests/stress.rs` for answer exactness under concurrency.
//!
//! **Mutations** are out-of-place: [`Mutation`] batches (deletes and
//! updates) ride the maintenance channel like appends, tombstone rows in
//! per-shard delete vectors, and are acknowledged only after the changed
//! shards republish — data and tombstones travel in one immutable
//! snapshot, so readers never see torn mutation state. Background
//! compaction densely repacks tombstoned shards and rebuilds their
//! zonemap lanes with tight bounds (see `service` module docs).
//!
//! The authoritative state — column, lanes, delete vectors — and every
//! transition on it (inline query, append, mutate, compact, feedback,
//! maintenance) is one type, [`Owner`], and the maintenance thread is its
//! only holder; the adaptation modes differ only in whether readers send
//! feedback. [`Owner::execute`] is the inline protocol itself, which tests
//! and E16 drive on their own thread as the reference. A lane is taught
//! only by scans of the data version it describes: feedback names the
//! version it scanned, and the owner drops what predates a lane's rebuild
//! ([`ServerStats::feedback_stale`]).
//!
//! Service mechanics: a bounded request queue with shed-on-full admission
//! ([`SubmitError::Shed`]), per-request deadlines, graceful drain on
//! [`QueryService::shutdown`], and a stats surface ([`ServerStats`]) with
//! a shared latency histogram.

#![forbid(unsafe_code)]

pub mod config;
pub mod helpers;
pub mod owner;
pub mod queue;
pub mod service;
pub mod snapshot;
pub mod stats;
pub mod sync;

pub use config::{AdaptationMode, ServerConfig};
pub use helpers::{help_loop, Board, Fan, Runs};
pub use owner::{Mutation, MutationError, Owner};
pub use queue::{Bounded, PushError};
pub use service::{QueryService, Reply, Request, SubmitError, Ticket};
pub use snapshot::{ShardSnapshot, ShardedCache, ShardedCell, SnapshotCache, SnapshotCell};
pub use stats::{OwnerTotals, ServerStats, StatsCollector};
