//! # ads-engine — scan executor with pluggable data skipping
//!
//! The query-engine layer of the reproduction: it executes range-predicate
//! scan queries (COUNT / SUM / MIN / MAX / POSITIONS) over `ads-storage`
//! columns, delegating pruning to any [`ads_core::SkippingIndex`] and
//! feeding scan by-products back so adaptive structures can reorganise.
//!
//! * [`Strategy`] — declarative index choice (full scan, static zonemap,
//!   adaptive zonemap, imprints, cracking, sorted oracle);
//! * [`Lane`] — the inline protocol, written once: one column's side of a
//!   query with the two steps around every scan — prune, then learn
//!   (`observe` + `maintain`); [`Lane::run`] drives N lanes through prune
//!   → [`scan_sharded`] → learn and assembles the [`QueryMetrics`];
//! * [`executor::execute`] — the one-lane call ([`execute_sharded`]: a
//!   lane per shard; [`execute_disjunction`]: one call per range);
//! * [`ColumnSession`] — a column + strategy + cumulative metrics, the unit
//!   every experiment compares;
//! * [`TableSession`] — conjunctive multi-column filtering by candidate
//!   range intersection, with a cost-based probe planner ([`planner`])
//!   that orders, restricts, and gates per-column metadata probes; each
//!   conjunct runs the two lane steps around a bitmap-AND scan.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod disjunction;
pub mod exec_policy;
pub mod executor;
pub mod histogram;
pub mod lane;
pub mod metrics;
pub mod planner;
pub mod session;
pub mod sharded_exec;
pub mod strategy;
pub mod string_session;
pub mod table_session;

pub use disjunction::{execute_disjunction, in_list};
pub use exec_policy::ExecPolicy;
pub use executor::{
    execute, execute_reference, execute_reference_with_deletes, execute_with_policy, AggKind,
    QueryAnswer, ScanPhase,
};
pub use histogram::LatencyHistogram;
pub use lane::Lane;
pub use metrics::{CumulativeMetrics, QueryMetrics};
pub use planner::{FallbackReason, PlanMode, PlanStep, PlanTrace};
pub use session::ColumnSession;
pub use sharded_exec::{
    execute_sharded, scan_sharded, RunResult, ScanPlan, ShardLaneMetrics, ShardScanInput,
    ShardedQueryMetrics, ShardedScanResult,
};
pub use strategy::Strategy;
pub use string_session::StringColumnSession;
pub use table_session::{AnyPredicate, TableSession, TableSessionError};
