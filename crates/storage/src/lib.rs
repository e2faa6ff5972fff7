//! # ads-storage — main-memory column store substrate
//!
//! The storage layer underneath the adaptive data-skipping framework of
//! Qin & Idreos, *Adaptive Data Skipping in Main-Memory Systems* (SIGMOD
//! 2016). It provides exactly what the paper's setting assumes:
//!
//! * dense, typed, append-only [`Column`]s grouped into [`Table`]s;
//! * tight branchless [`scan`] kernels ("fast scans") over column slices,
//!   including a kernel that computes zone `(min, max)` metadata as a
//!   by-product of a scan;
//! * row addressing via [`Bitmap`]s and disjoint [`RangeSet`]s — the
//!   currency in which skipping indexes tell scans what they may skip;
//! * order-preserving dictionary-encoded string columns ([`DictColumn`])
//!   that turn string predicates into integer code ranges;
//! * the out-of-place mutation primitive ([`mutation`]): epoch-stamped
//!   tombstone vectors, so updates and deletes never rewrite a published
//!   column version;
//! * value-set and histogram sketches over row ranges ([`sketch`],
//!   [`imprint`]) — the metadata tiers skipping indexes layer on top of
//!   plain `(min, max)` bounds;
//! * the [`parallel`] weighted cut that splits a scan's work list into
//!   per-thread runs.
//!
//! Nothing here knows about zonemaps: the skipping logic lives in
//! `ads-core`, keeping the substrate reusable by the baseline indexes too.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitmap;
pub mod column;
pub mod error;
pub mod imprint;
pub mod mutation;
pub mod parallel;
pub mod ranges;
pub mod reorg;
pub mod scan;
pub mod sharded;
pub mod shared;
pub mod sketch;
pub mod strings;
pub mod table;
pub mod types;

pub use bitmap::Bitmap;
pub use column::Column;
pub use error::{Result, StorageError};
pub use imprint::{Imprints, RunVerdict};
pub use mutation::DeleteVector;
pub use ranges::{RangeSet, RowRange};
pub use reorg::{ReorgSpans, ReorgZone};
pub use sharded::ShardedColumn;
pub use shared::SharedColumn;
pub use sketch::BloomSketch;
pub use strings::{AppendEffect, DictColumn};
pub use table::{AnyColumn, ColumnAccess, Table};
pub use types::DataValue;
