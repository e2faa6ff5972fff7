//! Shim synchronization types: `std::sync` look-alikes that report every
//! operation to the model-checking scheduler.
//!
//! Inside a [`crate::model`] execution, each operation (lock, unlock,
//! condvar wait/notify, atomic load/store/rmw, spawn/join) is a yield
//! point the scheduler branches on, and atomics follow the simulated
//! weak-memory semantics described in DESIGN.md. **Outside** a model the
//! types degrade to their `std` equivalents with identical behavior, so
//! a crate compiled against these shims (e.g. `ads-server` with the
//! `check` feature) still runs its ordinary tests and binaries
//! unchanged.
//!
//! Only the API surface the repo actually uses is shimmed: `Mutex::new/
//! lock`, `Condvar::new/wait/notify_one/notify_all`, atomic `new/load/
//! store/swap/fetch_add`, `thread::spawn/join`.
//! `Arc` is re-exported from `std` — its refcount protocol is not under
//! test, and modeled payloads flow through it unchanged.

use crate::sched::{self, Op, OpResult, RmwKind};
use std::sync::LockResult;

pub use std::sync::Arc;

fn addr_of<T>(x: &T) -> usize {
    // narrowing: pointer-to-usize identity for the per-object model
    // address; usize always holds a pointer.
    x as *const T as usize
}

/// A mutual-exclusion lock; see the module docs for the two modes.
pub struct Mutex<T> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    pub fn new(value: T) -> Self {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }

    fn model_addr(&self) -> usize {
        addr_of(&self.inner)
    }

    /// Locks, blocking (in a model: yielding to the scheduler) until
    /// available. Never returns `Err`: the model aborts executions on
    /// panic before poison can be observed, and the fallback maps poison
    /// into the same `Err` shape as `std`.
    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        let in_model = sched::with_ctx(|exec, me| {
            exec.yield_op(me, Op::Lock(self.model_addr()));
        })
        .is_some();
        match self.inner.lock() {
            Ok(g) => Ok(MutexGuard {
                lock: self,
                inner: Some(g),
                model: in_model,
            }),
            Err(poison) => {
                let g = poison.into_inner();
                let guard = MutexGuard {
                    lock: self,
                    inner: Some(g),
                    model: in_model,
                };
                Err(std::sync::PoisonError::new(guard))
            }
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.inner.try_lock() {
            Ok(g) => f.debug_struct("Mutex").field("data", &&*g).finish(),
            Err(_) => f.debug_struct("Mutex").field("data", &"<locked>").finish(),
        }
    }
}

/// RAII guard for [`Mutex`]; releasing it is itself a model operation.
pub struct MutexGuard<'a, T> {
    lock: &'a Mutex<T>,
    inner: Option<std::sync::MutexGuard<'a, T>>,
    model: bool,
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // invariant: inner is Some until drop/wait consume the guard.
        self.inner.as_ref().expect("guard still held")
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // invariant: inner is Some until drop/wait consume the guard.
        self.inner.as_mut().expect("guard still held")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Release the real lock first, then report the unlock. The quiet
        // variant never unwinds: a panicking unwind may drop guards, and
        // a second panic inside Drop would abort the process.
        let _ = self.inner.take();
        if self.model {
            sched::with_ctx(|exec, me| {
                exec.yield_op_quiet(me, Op::Unlock(self.lock.model_addr()));
            });
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

/// A condition variable tied to a [`Mutex`] at wait time, like `std`'s.
///
/// Model restriction: `notify_one` deterministically wakes the
/// longest-waiting thread (FIFO) instead of branching over waiters, and
/// there are no spurious wakeups; see DESIGN.md for why that is an
/// acceptable under-approximation for this repo's protocols.
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Default for Condvar {
    fn default() -> Self {
        Self::new()
    }
}

impl Condvar {
    pub fn new() -> Self {
        Condvar {
            inner: std::sync::Condvar::new(),
        }
    }

    fn model_addr(&self) -> usize {
        addr_of(&self.inner)
    }

    /// Releases the guard's lock, parks until notified, re-acquires.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
        let mut guard = guard;
        if guard.model {
            let lock = guard.lock;
            // Defuse the guard: with `model` cleared and `inner` taken its
            // Drop is a no-op, so no Unlock op is reported — the model
            // CvWait op below performs the release itself.
            guard.model = false;
            let inner = guard.inner.take();
            drop(guard);
            drop(inner);
            let cv = self.model_addr();
            let mutex = lock.model_addr();
            sched::with_ctx(|exec, me| {
                exec.yield_op(me, Op::CvWait { cv, mutex });
            });
            // The scheduler re-granted us the lock at the model level;
            // mirror it on the real mutex (uncontended by construction).
            let inner = lock.inner.lock().unwrap_or_else(|e| e.into_inner());
            Ok(MutexGuard {
                lock,
                inner: Some(inner),
                model: true,
            })
        } else {
            let lock = guard.lock;
            // invariant: guard not yet dropped, inner is Some. Taking the
            // inner guard defuses the shim guard's Drop (non-model, so no
            // Unlock op either way).
            let inner = guard.inner.take().expect("guard still held");
            drop(guard);
            match self.inner.wait(inner) {
                Ok(g) => Ok(MutexGuard {
                    lock,
                    inner: Some(g),
                    model: false,
                }),
                Err(poison) => {
                    let guard = MutexGuard {
                        lock,
                        inner: Some(poison.into_inner()),
                        model: false,
                    };
                    Err(std::sync::PoisonError::new(guard))
                }
            }
        }
    }

    pub fn notify_one(&self) {
        if sched::with_ctx(|exec, me| {
            exec.yield_op(me, Op::CvNotifyOne(self.model_addr()));
        })
        .is_none()
        {
            self.inner.notify_one();
        }
    }

    pub fn notify_all(&self) {
        if sched::with_ctx(|exec, me| {
            exec.yield_op(me, Op::CvNotifyAll(self.model_addr()));
        })
        .is_none()
        {
            self.inner.notify_all();
        }
    }
}

impl std::fmt::Debug for Condvar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Condvar").finish_non_exhaustive()
    }
}

/// Shim atomics with simulated weak-memory semantics under a model.
pub mod atomic {
    use super::*;
    pub use std::sync::atomic::Ordering;

    macro_rules! shim_atomic {
        ($name:ident, $raw:ty, $std:ty, $to:expr, $from:expr) => {
            pub struct $name {
                inner: $std,
            }

            impl $name {
                pub fn new(v: $raw) -> Self {
                    $name {
                        inner: <$std>::new(v),
                    }
                }

                fn model_addr(&self) -> usize {
                    addr_of(&self.inner)
                }

                /// The construction-time value: in a model, the fallback
                /// cell is never written, so it still holds the initial
                /// value the per-execution store history must start from.
                fn init(&self) -> u64 {
                    // ordering: Relaxed — single unobserved cell; only
                    // read to seed the model's per-execution history.
                    #[allow(clippy::redundant_closure_call)]
                    ($to)(self.inner.load(Ordering::Relaxed))
                }

                pub fn load(&self, ord: Ordering) -> $raw {
                    match sched::with_ctx(|exec, me| {
                        exec.yield_op(
                            me,
                            Op::Load {
                                addr: self.model_addr(),
                                ord,
                                init: self.init(),
                            },
                        )
                    }) {
                        Some(OpResult::Value(v)) => ($from)(v),
                        Some(OpResult::Unit) => unreachable!("load returns a value"),
                        None => self.inner.load(ord),
                    }
                }

                pub fn store(&self, val: $raw, ord: Ordering) {
                    if sched::with_ctx(|exec, me| {
                        exec.yield_op(
                            me,
                            Op::Store {
                                addr: self.model_addr(),
                                ord,
                                init: self.init(),
                                val: ($to)(val),
                            },
                        )
                    })
                    .is_none()
                    {
                        self.inner.store(val, ord);
                    }
                }

                pub fn swap(&self, val: $raw, ord: Ordering) -> $raw {
                    self.rmw(RmwKind::Swap, ($to)(val), ord)
                        .unwrap_or_else(|| self.inner.swap(val, ord))
                }

                fn rmw(&self, kind: RmwKind, operand: u64, ord: Ordering) -> Option<$raw> {
                    sched::with_ctx(|exec, me| {
                        match exec.yield_op(
                            me,
                            Op::Rmw {
                                addr: self.model_addr(),
                                ord,
                                init: self.init(),
                                kind,
                                operand,
                            },
                        ) {
                            OpResult::Value(v) => ($from)(v),
                            OpResult::Unit => unreachable!("rmw returns a value"),
                        }
                    })
                }
            }

            impl std::fmt::Debug for $name {
                fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                    // ordering: Relaxed — debug printing only.
                    f.debug_tuple(stringify!($name))
                        .field(&self.inner.load(Ordering::Relaxed))
                        .finish()
                }
            }
        };
    }

    /// Adds the integer fetch-ops on top of `shim_atomic!`.
    macro_rules! shim_atomic_int {
        ($name:ident, $raw:ty, $to:expr) => {
            impl $name {
                pub fn fetch_add(&self, val: $raw, ord: Ordering) -> $raw {
                    self.rmw(RmwKind::Add, ($to)(val), ord)
                        .unwrap_or_else(|| self.inner.fetch_add(val, ord))
                }
            }
        };
    }

    shim_atomic!(
        AtomicU64,
        u64,
        std::sync::atomic::AtomicU64,
        (|v: u64| v),
        (|v: u64| v)
    );
    shim_atomic_int!(AtomicU64, u64, (|v: u64| v));
    shim_atomic!(
        AtomicUsize,
        usize,
        std::sync::atomic::AtomicUsize,
        (|v: usize| v as u64),
        // narrowing: the shim stores AtomicUsize values in a u64 history;
        // usize is at most 64 bits on supported targets.
        (|v: u64| v as usize)
    );
    shim_atomic_int!(AtomicUsize, usize, (|v: usize| v as u64));
    shim_atomic!(
        AtomicBool,
        bool,
        std::sync::atomic::AtomicBool,
        (|v: bool| v as u64),
        (|v: u64| v != 0)
    );
}

/// Shim threads: model-registered inside an execution, `std` otherwise.
pub mod thread {
    use super::*;
    use crate::sched::Tid;

    enum Imp<T> {
        Std(std::thread::JoinHandle<T>),
        Model {
            tid: Tid,
            exec: Arc<crate::sched::Exec>,
            out: Arc<std::sync::Mutex<Option<T>>>,
        },
    }

    /// Handle to a spawned shim thread.
    pub struct JoinHandle<T> {
        imp: Imp<T>,
    }

    impl<T> JoinHandle<T> {
        /// Waits for the thread and returns its result. In a model this
        /// is a scheduling operation establishing happens-before with
        /// the child's whole execution.
        pub fn join(self) -> std::thread::Result<T> {
            match self.imp {
                Imp::Std(h) => h.join(),
                Imp::Model { tid, exec, out } => {
                    let me = crate::sched::with_ctx(|_, me| me)
                        // invariant: Imp::Model is only constructed inside
                        // a model execution, and join() runs on a model
                        // thread of the same execution.
                        .expect("model JoinHandle joined outside its model");
                    exec.yield_op(me, Op::Join(tid));
                    let v = out
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .take()
                        // invariant: Join only executes once the child
                        // finished; a panicked child aborts the
                        // execution before join can return.
                        .expect("joined child left a result");
                    Ok(v)
                }
            }
        }
    }

    /// Spawns a thread. Inside a model the thread participates in the
    /// scheduled interleaving; outside it is a plain `std` thread.
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        match sched::ctx() {
            Some((exec, me)) => {
                let tid = exec.spawn_thread(me);
                let out: Arc<std::sync::Mutex<Option<T>>> = Arc::new(std::sync::Mutex::new(None));
                let exec2 = Arc::clone(&exec);
                let out2 = Arc::clone(&out);
                let os = std::thread::Builder::new()
                    .name(format!("ads-check-{tid}"))
                    .spawn(move || crate::sched::child_main(exec2, tid, f, out2))
                    // invariant: model threads are few and tiny; spawn
                    // failure means the host is out of resources.
                    .expect("spawn model thread");
                exec.register_os_handle(os);
                JoinHandle {
                    imp: Imp::Model { tid, exec, out },
                }
            }
            None => JoinHandle {
                // invariant: mirrors std::thread::spawn's own panic on
                // spawn failure.
                imp: Imp::Std(std::thread::Builder::new().spawn(f).expect("spawn thread")),
            },
        }
    }
}
