//! # ads-core — the adaptive data-skipping framework
//!
//! Reproduction of the core contribution of Qin & Idreos, *Adaptive Data
//! Skipping in Main-Memory Systems* (SIGMOD 2016): a framework in which
//! data-skipping structures respond to the data distribution and the query
//! workload, instantiated as **adaptive zonemaps**.
//!
//! ## The framework
//!
//! Every skipping structure implements [`SkippingIndex`], a two-phase
//! protocol:
//!
//! 1. **prune** — turn a [`RangePredicate`] into a [`PruneOutcome`]: the
//!    candidate row ranges a scan must still visit (a sound superset of
//!    the qualifying rows), plus ranges known to match entirely;
//! 2. **observe** — after the scan, receive a [`ScanObservation`] carrying
//!    the prune's outcome, per-range qualifying counts and exact
//!    `(min, max)` computed as scan by-products, and learn from them; an
//!    adaptive zonemap's clocks and probe counts move only here.
//!
//! ## The structures
//!
//! * [`StaticZonemap`] — the classic fixed-granularity, eagerly built
//!   zonemap (the paper's comparison point);
//! * [`adaptive::AdaptiveZonemap`] — lazy building, refinement splits,
//!   coarsening merges, deactivation and backoff revival, driven by the
//!   [`CostModel`].
//!
//! Baseline structures from the wider literature (column imprints,
//! database cracking, a sorted oracle) implement the same trait in
//! `ads-baselines`.
//!
//! ## Example
//!
//! ```
//! use ads_core::{adaptive::{AdaptiveConfig, AdaptiveZonemap}, SkippingIndex,
//!                RangePredicate, RangeObservation, ScanObservation};
//! use ads_storage::scan;
//!
//! let data: Vec<i64> = (0..10_000).collect();
//! let mut zm = AdaptiveZonemap::new(data.len(), AdaptiveConfig::default());
//! let pred = RangePredicate::between(100, 199);
//!
//! // prune (a read-only walk) -> scan -> observe (learns the walk)
//! let outcome = zm.prune(&pred);
//! let mut observations = Vec::new();
//! let mut count = outcome.rows_full_match();
//! for unit in &outcome.units {
//!     let r = unit.range;
//!     let (q, min, max) = scan::count_in_range_with_minmax(&data[r.start..r.end], pred.lo, pred.hi);
//!     count += q;
//!     observations.push(RangeObservation::new(r, q, min, max));
//! }
//! zm.observe(&ScanObservation { predicate: pred, ranges: observations, walk: outcome });
//! assert_eq!(count, 100);
//!
//! // The second identical query skips nearly everything; until it is
//! // observed, the map has learned one query.
//! let outcome = zm.prune(&pred);
//! assert!(outcome.unit_set().covered_rows() < 10_000);
//! assert_eq!(zm.index_stats().queries, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
#[cfg(feature = "audit")]
pub mod audit;
pub mod cost;
pub mod index;
pub mod outcome;
pub mod predicate;
pub mod stats;
pub mod trace;
pub mod zonemap_static;

pub use cost::CostModel;
pub use index::{ScanCoords, SkippingIndex};
pub use outcome::{
    Payload, PruneOutcome, RangeObservation, ScanObservation, ScanUnit, UnitRequest, UnitWork,
};
pub use predicate::RangePredicate;
pub use stats::{IndexStats, PruneStats, ZoneStats};
pub use trace::{AdaptEvent, AdaptTrace, TraceTotals};
pub use zonemap_static::StaticZonemap;
