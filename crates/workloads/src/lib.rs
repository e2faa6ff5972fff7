//! # ads-workloads — synthetic data and query workload generators
//!
//! The demo paper's datasets are not available; these generators substitute
//! controlled synthetics that parameterise exactly the axes the abstract
//! names: sortedness (sorted / semi-sorted), value clustering, and
//! arbitrary (uniform/zipf) distributions, plus query workloads ranging
//! from uniform-random to hotspot, shifting-hotspot and sweep.
//!
//! Everything is deterministic given a seed, so experiments replay the
//! exact same workload against every strategy.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod data;
pub mod queries;
pub mod spec;

pub use queries::RangeQuery;
pub use spec::{DataSpec, QuerySpec};
