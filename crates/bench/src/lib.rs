//! # ads-bench — the experiment harness
//!
//! Two front doors. `harness` runs the reconstructed evaluation, one
//! module per table/figure (E1–E22 in DESIGN.md), each building one
//! [`Report`] that prints as a markdown table and saves as CSV.
//! `kernels_json` is the gated kernel benchmark ([`kernels`]). Run with:
//!
//! ```text
//! cargo run -p ads-bench --release --bin harness -- all
//! cargo run -p ads-bench --release --bin harness -- e3 --rows 10000000
//! cargo run -p ads-bench --release --bin harness -- e4 --quick
//! cargo run -p ads-bench --release --bin kernels_json
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod kernels;
mod microbench;
pub mod report;
pub mod runner;

pub use report::Report;
pub use runner::{replay, replay_agg, replay_with_policy, ReplayResult, Scale};
