//! `ads-check`: a std-only, loom-style deterministic concurrency model
//! checker.
//!
//! The offline build forbids loom, ThreadSanitizer, and dylint, so this
//! crate provides the correctness tooling in-tree, the same way
//! `ads-rng` replaced `rand`: shim synchronization types
//! ([`sync::Mutex`], [`sync::Condvar`], [`sync::atomic`],
//! [`sync::thread`]) record every operation, and a DFS scheduler
//! ([`model`]) exhaustively enumerates both **interleavings** (which
//! thread's operation executes next) and **weak-memory visibility**
//! (which store an atomic load observes, as allowed by the declared
//! `Ordering`). An erroneous `Relaxed` on a publication counter is
//! therefore *caught*, not masked by the host hardware's strong (x86
//! TSO) memory model.
//!
//! ```
//! use ads_check::sync::atomic::{AtomicU64, Ordering};
//! use ads_check::sync::{thread, Arc};
//!
//! // Message passing: the Release/Acquire pair makes the data visible.
//! let explored = ads_check::model(|| {
//!     let data = Arc::new(AtomicU64::new(0));
//!     let flag = Arc::new(AtomicU64::new(0));
//!     let (d, f) = (Arc::clone(&data), Arc::clone(&flag));
//!     let t = thread::spawn(move || {
//!         // ordering: Relaxed — ordered by the Release store below.
//!         d.store(42, Ordering::Relaxed);
//!         // ordering: Release — publishes the data store above.
//!         f.store(1, Ordering::Release);
//!     });
//!     // ordering: Acquire — pairs with the Release store of `flag`.
//!     if flag.load(Ordering::Acquire) == 1 {
//!         // ordering: Relaxed — ordered by the Acquire load above.
//!         assert_eq!(data.load(Ordering::Relaxed), 42);
//!     }
//!     t.join().unwrap();
//! });
//! assert!(explored.executions > 1);
//! ```
//!
//! What the checker covers and what it cannot is documented in
//! DESIGN.md ("Correctness tooling"): exhaustive within the declared
//! model and bounds; `SeqCst` approximated by a global clock; condvar
//! wakeups FIFO and never spurious; no modeling of fences or
//! `compare_exchange`.

#![forbid(unsafe_code)]

mod sched;
mod vclock;

pub mod sync;

pub use sched::{Config, Explored};

/// Exhaustively explores `f` under the default [`Config`]. Panics with a
/// trace of the violating interleaving when any execution panics (failed
/// assertion), deadlocks, or the state space exceeds the configured
/// bounds.
pub fn model<F: Fn()>(f: F) -> Explored {
    match sched::explore(Config::default(), f) {
        Ok(explored) => explored,
        Err(report) => panic!("{report}"),
    }
}

/// Runs the exploration and returns the failure report instead of
/// panicking — `Err(report)` when a violation was found, `Ok(explored)`
/// when the model is clean. This is how the test suite proves the
/// checker *can* fail: seed a bug, assert `try_model` returns `Err`.
// api: the seeded-bug tests of crates/server/tests/model.rs and
// crates/check/tests/litmus.rs, which must see the checker fail.
pub fn try_model<F: Fn()>(config: Config, f: F) -> Result<Explored, String> {
    sched::explore(config, f)
}
