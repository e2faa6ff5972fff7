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
//!    per-range qualifying counts and exact `(min, max)` computed as scan
//!    by-products, and optionally reorganise.
//!
//! ## The structures
//!
//! * [`StaticZonemap`] — the classic fixed-granularity, eagerly built
//!   zonemap (the paper's comparison point);
//! * [`adaptive::AdaptiveZonemap`] — lazy building, refinement splits,
//!   coarsening merges, deactivation and backoff revival, driven by the
//!   [`CostModel`];
//! * [`Activated`] — index-level adaptation: wraps *any* base-coordinate
//!   structure with benefit metering and dormancy/backoff, turning static
//!   structures adaptive at their on/off granularity.
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
//! // prune -> scan -> observe
//! let outcome = zm.prune(&pred);
//! let mut observations = Vec::new();
//! let mut count = outcome.rows_full_match();
//! for unit in outcome.units() {
//!     let (q, min, max) =
//!         scan::count_in_range_with_minmax(&data[unit.start..unit.end], pred.lo, pred.hi);
//!     count += q;
//!     observations.push(RangeObservation::new(*unit, q, min, max));
//! }
//! zm.observe(&ScanObservation { predicate: pred, ranges: observations });
//! assert_eq!(count, 100);
//!
//! // The second identical query skips nearly everything.
//! let outcome = zm.prune(&pred);
//! assert!(outcome.rows_to_scan() < 10_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activation;
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

pub use activation::{Activated, ActivationConfig};
pub use cost::CostModel;
pub use index::{ScanCoords, SkippingIndex};
pub use outcome::{PruneOutcome, RangeObservation, ReorgUnit, ScanObservation, UnitRequest};
pub use predicate::RangePredicate;
pub use stats::{Ewma, IndexStats, PruneStats, ZoneStats};
pub use trace::{AdaptEvent, AdaptTrace, TraceTotals};
pub use zonemap_static::StaticZonemap;
