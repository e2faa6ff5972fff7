//! Litmus tests for the model checker itself: classic weak-memory shapes
//! where the correct outcome set is known from the C++11/Rust memory
//! model. These prove the checker finds real bugs (stale reads under
//! `Relaxed`) and does NOT report false positives on correctly
//! synchronized code.

use ads_check::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use ads_check::sync::{thread, Arc, Condvar, Mutex};
use ads_check::{model, try_model, Config};

/// Message passing with Release/Acquire: the reader that sees the flag
/// must see the data. Correct code — the checker must NOT fail.
#[test]
fn message_passing_release_acquire_passes() {
    let explored = model(|| {
        let data = Arc::new(AtomicU64::new(0));
        let flag = Arc::new(AtomicU64::new(0));
        let (d, f) = (Arc::clone(&data), Arc::clone(&flag));
        let t = thread::spawn(move || {
            // ordering: Relaxed — ordered by the Release store of `flag`.
            d.store(42, Ordering::Relaxed);
            // ordering: Release — publishes the data store above.
            f.store(1, Ordering::Release);
        });
        // ordering: Acquire — pairs with the Release store of `flag`.
        if flag.load(Ordering::Acquire) == 1 {
            // ordering: Relaxed — ordered by the Acquire load above.
            assert_eq!(data.load(Ordering::Relaxed), 42);
        }
        t.join().unwrap();
    });
    // Both flag outcomes (0 and 1 observed) must have been explored.
    assert!(explored.executions >= 2, "explored {explored:?}");
}

/// The same shape with the Release downgraded to Relaxed: now a reader
/// may see flag == 1 but stale data == 0. The checker MUST fail, even
/// though the host (x86 TSO) would never exhibit this reordering.
#[test]
fn message_passing_relaxed_flag_fails() {
    let report = try_model(Config::default(), || {
        let data = Arc::new(AtomicU64::new(0));
        let flag = Arc::new(AtomicU64::new(0));
        let (d, f) = (Arc::clone(&data), Arc::clone(&flag));
        let t = thread::spawn(move || {
            // ordering: Relaxed — BUG under test: nothing orders `data`.
            d.store(42, Ordering::Relaxed);
            // ordering: Relaxed — BUG under test: no release pairing.
            f.store(1, Ordering::Relaxed);
        });
        // ordering: Acquire — correct on the reader side, but the writer
        // never releases, so it synchronizes with nothing.
        if flag.load(Ordering::Acquire) == 1 {
            // ordering: Relaxed — may legally observe 0 here.
            assert_eq!(data.load(Ordering::Relaxed), 42);
        }
        t.join().unwrap();
    })
    .expect_err("relaxed publication must be caught");
    assert!(report.contains("panicked"), "report: {report}");
}

/// The dual bug: Release store kept, but the reader loads the flag
/// `Relaxed` — no acquire, no synchronizes-with, stale data reachable.
#[test]
fn message_passing_relaxed_reader_fails() {
    try_model(Config::default(), || {
        let data = Arc::new(AtomicU64::new(0));
        let flag = Arc::new(AtomicU64::new(0));
        let (d, f) = (Arc::clone(&data), Arc::clone(&flag));
        let t = thread::spawn(move || {
            // ordering: Relaxed — ordered by the Release store below.
            d.store(42, Ordering::Relaxed);
            // ordering: Release — correct writer side.
            f.store(1, Ordering::Release);
        });
        // ordering: Relaxed — BUG under test: discards the pairing.
        if flag.load(Ordering::Relaxed) == 1 {
            // ordering: Relaxed — may legally observe 0 here.
            assert_eq!(data.load(Ordering::Relaxed), 42);
        }
        t.join().unwrap();
    })
    .expect_err("relaxed consumption must be caught");
}

/// Store buffering (Dekker): with SeqCst both threads cannot read 0.
/// Our SeqCst model (a global clock every SeqCst op joins) excludes the
/// r1 == r2 == 0 outcome, so this must pass.
#[test]
fn store_buffering_seqcst_excludes_both_zero() {
    model(|| {
        let x = Arc::new(AtomicU64::new(0));
        let y = Arc::new(AtomicU64::new(0));
        let (x2, y2) = (Arc::clone(&x), Arc::clone(&y));
        let t = thread::spawn(move || {
            // ordering: SeqCst — Dekker-style flag needs total order.
            x2.store(1, Ordering::SeqCst);
            // ordering: SeqCst — must observe the other thread's store.
            y2.load(Ordering::SeqCst)
        });
        // ordering: SeqCst — Dekker-style flag needs total order.
        y.store(1, Ordering::SeqCst);
        // ordering: SeqCst — must observe the other thread's store.
        let r1 = x.load(Ordering::SeqCst);
        let r2 = t.join().unwrap();
        assert!(r1 == 1 || r2 == 1, "both threads read 0 under SeqCst");
    });
}

/// Store buffering with Relaxed: r1 == r2 == 0 IS a legal outcome and
/// the checker must find the interleaving+visibility that produces it.
#[test]
fn store_buffering_relaxed_finds_both_zero() {
    try_model(Config::default(), || {
        let x = Arc::new(AtomicU64::new(0));
        let y = Arc::new(AtomicU64::new(0));
        let (x2, y2) = (Arc::clone(&x), Arc::clone(&y));
        let t = thread::spawn(move || {
            // ordering: Relaxed — BUG under test: Dekker needs SeqCst.
            x2.store(1, Ordering::Relaxed);
            // ordering: Relaxed — BUG under test: may miss the store.
            y2.load(Ordering::Relaxed)
        });
        // ordering: Relaxed — BUG under test: Dekker needs SeqCst.
        y.store(1, Ordering::Relaxed);
        // ordering: Relaxed — BUG under test: may miss the store.
        let r1 = x.load(Ordering::Relaxed);
        let r2 = t.join().unwrap();
        assert!(r1 == 1 || r2 == 1, "both threads read 0");
    })
    .expect_err("relaxed store buffering must expose r1 == r2 == 0");
}

/// Coherence: a thread that observed value 2 of a location never later
/// observes value 1 (per-location modification order is respected even
/// under Relaxed).
#[test]
fn coherence_no_going_back() {
    model(|| {
        let x = Arc::new(AtomicU64::new(0));
        let x2 = Arc::clone(&x);
        let t = thread::spawn(move || {
            // ordering: Relaxed — monotone counter, coherence suffices.
            x2.store(1, Ordering::Relaxed);
            // ordering: Relaxed — monotone counter, coherence suffices.
            x2.store(2, Ordering::Relaxed);
        });
        // ordering: Relaxed — coherence still forbids regression.
        let a = x.load(Ordering::Relaxed);
        // ordering: Relaxed — coherence still forbids regression.
        let b = x.load(Ordering::Relaxed);
        assert!(b >= a, "coherence violated: read {a} then {b}");
        t.join().unwrap();
    });
}

/// Mutexes synchronize: a counter incremented under a lock by two
/// threads always ends at 2 (no lost update), and the lock also
/// publishes plain (modeled-atomic Relaxed) data.
#[test]
fn mutex_counter_no_lost_update() {
    model(|| {
        let n = Arc::new(Mutex::new(0u64));
        let n2 = Arc::clone(&n);
        let t = thread::spawn(move || {
            let mut g = n2.lock().unwrap();
            *g += 1;
        });
        {
            let mut g = n.lock().unwrap();
            *g += 1;
        }
        t.join().unwrap();
        assert_eq!(*n.lock().unwrap(), 2);
    });
}

/// fetch_add is a read-modify-write: two concurrent increments never
/// lose an update even at Relaxed (RMW atomicity is independent of
/// ordering strength).
#[test]
fn fetch_add_relaxed_never_loses_updates() {
    model(|| {
        let n = Arc::new(AtomicU64::new(0));
        let n2 = Arc::clone(&n);
        let t = thread::spawn(move || {
            // ordering: Relaxed — RMW atomicity alone prevents loss.
            n2.fetch_add(1, Ordering::Relaxed);
        });
        // ordering: Relaxed — RMW atomicity alone prevents loss.
        n.fetch_add(1, Ordering::Relaxed);
        t.join().unwrap();
        // ordering: Acquire — join already ordered the child; Acquire for
        // the final read-back.
        assert_eq!(n.load(Ordering::Acquire), 2);
    });
}

/// A non-atomic-looking racy counter (load; add; store) DOES lose
/// updates, and the checker finds the interleaving.
#[test]
fn load_store_counter_loses_update() {
    try_model(Config::default(), || {
        let n = Arc::new(AtomicU64::new(0));
        let n2 = Arc::clone(&n);
        let t = thread::spawn(move || {
            // ordering: SeqCst — BUG under test: strong ordering does not
            // make a load+store read-modify-write atomic.
            let v = n2.load(Ordering::SeqCst);
            // ordering: SeqCst — BUG under test: see above.
            n2.store(v + 1, Ordering::SeqCst);
        });
        // ordering: SeqCst — BUG under test: see above.
        let v = n.load(Ordering::SeqCst);
        // ordering: SeqCst — BUG under test: see above.
        n.store(v + 1, Ordering::SeqCst);
        t.join().unwrap();
        // ordering: SeqCst — final read-back.
        assert_eq!(n.load(Ordering::SeqCst), 2);
    })
    .expect_err("check-then-act counter must lose an update");
}

/// Condvar handoff: consumer waits for the producer's item; no lost
/// wakeup, no deadlock (the checker reports deadlock as a failure).
#[test]
fn condvar_handoff() {
    model(|| {
        let slot = Arc::new((Mutex::new(None::<u64>), Condvar::new()));
        let s2 = Arc::clone(&slot);
        let t = thread::spawn(move || {
            let (m, cv) = &*s2;
            let mut g = m.lock().unwrap();
            *g = Some(7);
            cv.notify_one();
            drop(g);
        });
        let (m, cv) = &*slot;
        let mut g = m.lock().unwrap();
        while g.is_none() {
            g = cv.wait(g).unwrap();
        }
        assert_eq!(*g, Some(7));
        drop(g);
        t.join().unwrap();
    });
}

/// Deadlock detection: both threads block on a condvar nobody signals.
#[test]
fn deadlock_is_reported() {
    let report = try_model(Config::default(), || {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let t = thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut g = m.lock().unwrap();
            while !*g {
                g = cv.wait(g).unwrap();
            }
        });
        let (m, cv) = &*pair;
        let mut g = m.lock().unwrap();
        while !*g {
            g = cv.wait(g).unwrap();
        }
        drop(g);
        t.join().unwrap();
    })
    .expect_err("lost-forever wait must be reported");
    assert!(report.contains("deadlock"), "report: {report}");
}

/// Three threads, shared flag + data: exercises spawn/join bookkeeping
/// and the sleep-set reduction on a larger (but still finite) space.
#[test]
fn three_thread_publication() {
    let explored = model(|| {
        let data = Arc::new(AtomicUsize::new(0));
        let ready = Arc::new(AtomicBool::new(false));
        let (d1, r1) = (Arc::clone(&data), Arc::clone(&ready));
        let writer = thread::spawn(move || {
            // ordering: Relaxed — ordered by the Release store below.
            d1.store(9, Ordering::Relaxed);
            // ordering: Release — publishes `data`.
            r1.store(true, Ordering::Release);
        });
        let (d2, r2) = (Arc::clone(&data), Arc::clone(&ready));
        let reader = thread::spawn(move || {
            // ordering: Acquire — pairs with the writer's Release.
            if r2.load(Ordering::Acquire) {
                // ordering: Relaxed — ordered by the Acquire load above.
                assert_eq!(d2.load(Ordering::Relaxed), 9);
            }
        });
        writer.join().unwrap();
        reader.join().unwrap();
        // ordering: Acquire — joins already ordered both children.
        assert_eq!(data.load(Ordering::Acquire), 9);
    });
    assert!(explored.executions >= 2, "explored {explored:?}");
}

/// The exploration is deterministic: same model, same counts.
#[test]
fn exploration_is_deterministic() {
    let run = || {
        model(|| {
            let x = Arc::new(AtomicU64::new(0));
            let x2 = Arc::clone(&x);
            let t = thread::spawn(move || {
                // ordering: Relaxed — independent counter.
                x2.fetch_add(1, Ordering::Relaxed);
            });
            // ordering: Relaxed — independent counter.
            x.fetch_add(1, Ordering::Relaxed);
            t.join().unwrap();
        })
    };
    let a = run();
    let b = run();
    assert_eq!(a.executions, b.executions);
    assert_eq!(a.pruned, b.pruned);
}

/// Preemption bounding under-approximates: with bound 0 the buggy
/// store-buffering outcome needs no preemption to manifest via weak
/// visibility, but a context-switch-dependent bug is missed. This test
/// just checks the bound caps the state space without false failures.
#[test]
fn preemption_bound_shrinks_space() {
    let full = model(|| {
        let x = Arc::new(AtomicU64::new(0));
        let x2 = Arc::clone(&x);
        let t = thread::spawn(move || {
            // ordering: Relaxed — independent stores.
            x2.store(1, Ordering::Relaxed);
            // ordering: Relaxed — independent stores.
            x2.store(2, Ordering::Relaxed);
        });
        // ordering: Relaxed — concurrent observer.
        let _ = x.load(Ordering::Relaxed);
        t.join().unwrap();
    });
    let bounded = try_model(
        Config {
            preemption_bound: Some(0),
            ..Config::default()
        },
        || {
            let x = Arc::new(AtomicU64::new(0));
            let x2 = Arc::clone(&x);
            let t = thread::spawn(move || {
                // ordering: Relaxed — independent stores.
                x2.store(1, Ordering::Relaxed);
                // ordering: Relaxed — independent stores.
                x2.store(2, Ordering::Relaxed);
            });
            // ordering: Relaxed — concurrent observer.
            let _ = x.load(Ordering::Relaxed);
            t.join().unwrap();
        },
    )
    .expect("bounded exploration is clean");
    assert!(
        bounded.executions <= full.executions,
        "bounded {bounded:?} vs full {full:?}"
    );
}

/// Shims degrade gracefully outside a model: plain std behavior.
#[test]
fn shims_work_outside_model() {
    let n = Arc::new(AtomicU64::new(0));
    let m = Arc::new(Mutex::new(1u64));
    let (n2, m2) = (Arc::clone(&n), Arc::clone(&m));
    let t = thread::spawn(move || {
        // ordering: Relaxed — plain counter outside any model.
        n2.fetch_add(5, Ordering::Relaxed);
        *m2.lock().unwrap() += 1;
    });
    t.join().unwrap();
    // ordering: Acquire — join already synchronized; read-back.
    assert_eq!(n.load(Ordering::Acquire), 5);
    assert_eq!(*m.lock().unwrap(), 2);
}
