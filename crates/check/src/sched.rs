//! The deterministic scheduler: exhaustive DFS over interleavings plus
//! weak-memory value branching.
//!
//! ## Execution model
//!
//! A model execution runs the user closure with real OS threads, but a
//! single **token** serializes them: exactly one thread runs user code at
//! any instant. Every shim operation (mutex lock/unlock, condvar
//! wait/notify, atomic load/store/rmw, spawn/join/yield) is a *yield
//! point*: the thread declares the operation it is about to perform, a
//! scheduling decision picks which declared operation executes next, and
//! only the chosen thread proceeds. Each decision with more than one
//! candidate becomes a **branch point**; the runner re-executes the
//! closure, replaying recorded branch choices as a prefix and advancing
//! the deepest unexplored branch, until the whole tree is explored (DFS
//! over a persistent choice stack — the loom/CHESS architecture).
//!
//! ## Weak memory
//!
//! Atomics are not executed against a single "current value". Every store
//! is appended to a per-location history stamped with the storing
//! thread's vector clock (and, for `Release`-or-stronger stores, a
//! synchronization clock; RMWs extend release sequences). A load may
//! observe **any** store that per-thread coherence and happens-before do
//! not forbid; when several stores are eligible, the choice is itself a
//! branch point. An `Acquire`-or-stronger load of a `Release`-headed
//! store joins its synchronization clock — so an erroneous `Relaxed` on a
//! publication counter genuinely lets readers observe stale data, instead
//! of being masked by the host's (x86-TSO) hardware. `SeqCst` is
//! approximated by an additional global clock all `SeqCst` operations
//! join through (sound for the store-buffering shapes this repo uses; we
//! do not model fences or the full C++20 SC axioms).
//!
//! ## Reduction
//!
//! Two cuts keep the state count tractable without (for the first) losing
//! soundness:
//!
//! * **Sleep sets**: after a branch explores thread `t`, `t` is put to
//!   sleep for the sibling branches and stays asleep along them until a
//!   *dependent* operation (same location, at least one write; or a
//!   thread-control operation) executes. Sleeping threads are not
//!   re-branched, which removes interleavings that only commute
//!   independent operations. This is the classic sound partial-order
//!   reduction.
//! * **Bounded preemption** (opt-in via [`Config::preemption_bound`]):
//!   scheduling away from a thread that could have continued counts as a
//!   preemption; paths over the bound are pruned. This is a deliberate
//!   under-approximation — see DESIGN.md for what it can miss.

use crate::vclock::VClock;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};

pub(crate) type Tid = usize;
pub(crate) type Addr = usize;

/// Panic payload used to unwind parked threads when an execution aborts
/// (failure found, or path pruned by a reduction). Never user-visible.
struct Abort;

/// Exploration limits and knobs.
#[derive(Debug, Clone)]
pub struct Config {
    /// Hard cap on executions; exceeding it fails the model run loudly
    /// ("state space not exhausted") instead of silently passing.
    pub max_executions: usize,
    /// `Some(n)`: prune paths with more than `n` preemptive context
    /// switches (unsound under-approximation, useful for big models).
    /// `None`: fully exhaustive.
    pub preemption_bound: Option<usize>,
    /// Cap on operations per execution, to catch accidental unbounded
    /// loops inside models.
    pub max_ops_per_execution: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            max_executions: 500_000,
            preemption_bound: None,
            max_ops_per_execution: 20_000,
        }
    }
}

/// What a model run explored.
#[derive(Debug, Clone)]
pub struct Explored {
    /// Executions (complete or pruned) that were run.
    pub executions: usize,
    /// Executions cut short by the sleep-set reduction.
    pub pruned: usize,
}

/// One operation a thread declares at a yield point.
#[derive(Debug, Clone)]
pub(crate) enum Op {
    /// Pseudo-op a freshly spawned thread starts with.
    Start,
    Spawn,
    Join(Tid),
    Lock(Addr),
    Unlock(Addr),
    CvWait {
        cv: Addr,
        mutex: Addr,
    },
    CvNotifyOne(Addr),
    CvNotifyAll(Addr),
    Load {
        addr: Addr,
        ord: Ordering,
        init: u64,
    },
    Store {
        addr: Addr,
        ord: Ordering,
        init: u64,
        val: u64,
    },
    Rmw {
        addr: Addr,
        ord: Ordering,
        init: u64,
        kind: RmwKind,
        operand: u64,
    },
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum RmwKind {
    Add,
    Swap,
}

/// What executing an op hands back to the declaring thread.
pub(crate) enum OpResult {
    Unit,
    Value(u64),
}

/// The footprint of an op, for the sleep-set independence relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Footprint {
    Read(Addr),
    Write(Addr),
    /// Touches two locations as writes (condvar ops touch cv + mutex).
    Write2(Addr, Addr),
    /// Conservatively dependent with everything (spawn/join/start).
    ThreadCtl,
}

impl Op {
    fn footprint(&self) -> Footprint {
        match self {
            Op::Start | Op::Spawn | Op::Join(_) => Footprint::ThreadCtl,
            Op::Lock(a) | Op::Unlock(a) => Footprint::Write(*a),
            Op::CvWait { cv, mutex } => Footprint::Write2(*cv, *mutex),
            Op::CvNotifyOne(a) | Op::CvNotifyAll(a) => Footprint::Write(*a),
            Op::Load { addr, .. } => Footprint::Read(*addr),
            Op::Store { addr, .. } | Op::Rmw { addr, .. } => Footprint::Write(*addr),
        }
    }

    fn describe(&self) -> String {
        match self {
            Op::Start => "start".into(),
            Op::Spawn => "spawn".into(),
            Op::Join(t) => format!("join(T{t})"),
            Op::Lock(a) => format!("lock(m{:x})", a & 0xffff),
            Op::Unlock(a) => format!("unlock(m{:x})", a & 0xffff),
            Op::CvWait { cv, .. } => format!("cv-wait(c{:x})", cv & 0xffff),
            Op::CvNotifyOne(a) => format!("notify-one(c{:x})", a & 0xffff),
            Op::CvNotifyAll(a) => format!("notify-all(c{:x})", a & 0xffff),
            Op::Load { addr, ord, .. } => format!("load(a{:x}, {ord:?})", addr & 0xffff),
            Op::Store { addr, ord, val, .. } => {
                format!("store(a{:x}, {val}, {ord:?})", addr & 0xffff)
            }
            Op::Rmw {
                addr,
                ord,
                kind,
                operand,
                ..
            } => {
                format!("rmw-{kind:?}(a{:x}, {operand}, {ord:?})", addr & 0xffff)
            }
        }
    }
}

/// True when the two footprints may not commute.
fn dependent(a: Footprint, b: Footprint) -> bool {
    use Footprint::*;
    let touches = |f: Footprint, addr: Addr, write: bool| match f {
        Read(x) => x == addr && write,
        Write(x) => x == addr,
        Write2(x, y) => x == addr || y == addr,
        ThreadCtl => true,
    };
    match (a, b) {
        (ThreadCtl, _) | (_, ThreadCtl) => true,
        (Read(x), other) => touches(other, x, true),
        (Write(x), other) => touches(other, x, false) || matches!(other, Read(y) if y == x),
        (Write2(x, y), other) => {
            touches(other, x, false)
                || touches(other, y, false)
                || matches!(other, Read(z) if z == x || z == y)
        }
    }
}

/// A store in a location's modification order.
#[derive(Debug, Clone)]
struct StoreElem {
    val: u64,
    /// The storing thread's full clock at the store event (used for the
    /// "may this load still observe that store?" happens-before test).
    event_vc: VClock,
    /// The clock an acquire-load of this store synchronizes with (release
    /// store: the storer's clock; RMW: joined with the clock of the store
    /// it read, extending the release sequence; relaxed store: empty).
    sync_vc: VClock,
}

#[derive(Debug, Default)]
struct AtomicHist {
    stores: Vec<StoreElem>,
}

#[derive(Debug, Default)]
struct MutexSt {
    held_by: Option<Tid>,
    clock: VClock,
}

#[derive(Debug, Default)]
struct CvSt {
    /// FIFO of (waiter tid, the mutex it must re-acquire).
    waiters: Vec<(Tid, Addr)>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Has (or will get) a declared op and can be scheduled once the op
    /// is enabled.
    Active,
    /// Parked on a condvar; needs a notify to become Active again.
    Waiting,
    Finished,
}

struct ThreadSt {
    status: Status,
    pending: Option<Op>,
    vc: VClock,
    /// Per-location floor into the modification order: a thread never
    /// observes a store older than one it has already observed or made.
    seen: HashMap<Addr, usize>,
    final_vc: VClock,
}

impl ThreadSt {
    fn new(vc: VClock) -> Self {
        ThreadSt {
            status: Status::Active,
            pending: None,
            vc,
            seen: HashMap::new(),
            final_vc: VClock::new(),
        }
    }
}

/// One entry of the persistent DFS choice stack.
#[derive(Debug)]
enum Node {
    /// A scheduling decision: which declared op runs next.
    Sched {
        /// Candidate tids in deterministic (ascending) order, after the
        /// sleep-set and preemption filters. Footprints are recomputed
        /// from the live pending ops on replay, so only tids are stored:
        /// a `Footprint` embeds the *address* of the location it touches,
        /// and addresses are only meaningful within the one execution
        /// that allocated them — the stack outlives executions.
        candidates: Vec<Tid>,
        /// Tids asleep when the node was created (footprints recomputed
        /// on replay, same reason as above).
        base_sleep: Vec<Tid>,
        idx: usize,
    },
    /// A value decision: which eligible store a load observes.
    Read { total: usize, idx: usize },
}

/// Per-execution mutable state (world + coordination).
struct ExecState {
    threads: Vec<ThreadSt>,
    /// The token: the one thread allowed to run user code / execute ops.
    current: Tid,
    /// Threads not yet Finished.
    live: usize,
    /// The thread that executed the most recent op (preemption account).
    last_exec: Tid,
    preemptions: usize,
    /// Current sleep set along this path.
    sleep: Vec<(Tid, Footprint)>,
    atomics: HashMap<Addr, AtomicHist>,
    mutexes: HashMap<Addr, MutexSt>,
    condvars: HashMap<Addr, CvSt>,
    sc_clock: VClock,
    /// DFS stack, persisted across executions by `begin_execution`.
    stack: Vec<Node>,
    cursor: usize,
    ops_executed: usize,
    trace: Vec<String>,
    failure: Option<String>,
    /// Path cut by the sleep-set reduction (covered by a sibling).
    pruned: bool,
    /// All threads finished (or unwound) — execution over.
    done: bool,
    os_handles: Vec<std::thread::JoinHandle<()>>,
}

impl ExecState {
    fn aborting(&self) -> bool {
        self.failure.is_some() || self.pruned
    }

    /// Is `t`'s declared op currently executable?
    fn enabled(&self, t: Tid) -> bool {
        let th = &self.threads[t];
        if th.status != Status::Active {
            return false;
        }
        match th.pending {
            None => false,
            Some(Op::Lock(m)) => self.mutexes.get(&m).is_none_or(|ms| ms.held_by.is_none()),
            Some(Op::Join(j)) => self.threads[j].status == Status::Finished,
            Some(_) => true,
        }
    }

    fn enabled_threads(&self) -> Vec<Tid> {
        (0..self.threads.len())
            .filter(|&t| self.enabled(t))
            .collect()
    }

    fn record(&mut self, tid: Tid, text: String) {
        self.trace.push(format!("T{tid} {text}"));
    }
}

/// The shared coordination object for one model run.
pub(crate) struct Exec {
    config: Config,
    state: Mutex<ExecState>,
    cv: Condvar,
}

thread_local! {
    static CTX: std::cell::RefCell<Option<(Arc<Exec>, Tid)>> =
        const { std::cell::RefCell::new(None) };
}

/// The calling thread's model context, if inside a model execution.
pub(crate) fn ctx() -> Option<(Arc<Exec>, Tid)> {
    CTX.with(|c| c.borrow().as_ref().map(|(e, t)| (Arc::clone(e), *t)))
}

/// Runs `f` with the calling thread's model context, if inside a model.
pub(crate) fn with_ctx<R>(f: impl FnOnce(&Arc<Exec>, Tid) -> R) -> Option<R> {
    ctx().map(|(e, t)| f(&e, t))
}

impl Exec {
    fn new(config: Config) -> Self {
        Exec {
            config,
            state: Mutex::new(ExecState {
                threads: Vec::new(),
                current: 0,
                live: 0,
                last_exec: 0,
                preemptions: 0,
                sleep: Vec::new(),
                atomics: HashMap::new(),
                mutexes: HashMap::new(),
                condvars: HashMap::new(),
                sc_clock: VClock::new(),
                stack: Vec::new(),
                cursor: 0,
                ops_executed: 0,
                trace: Vec::new(),
                failure: None,
                pruned: false,
                done: false,
                os_handles: Vec::new(),
            }),
            cv: Condvar::new(),
        }
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, ExecState> {
        // The coordination mutex can be poisoned when a model thread
        // panics with a real failure; the state stays usable (we only
        // read the failure flag and unwind).
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn begin_execution(&self) {
        let mut st = self.lock_state();
        st.threads = vec![ThreadSt::new({
            let mut vc = VClock::new();
            vc.tick(0);
            vc
        })];
        st.current = 0;
        st.live = 1;
        st.last_exec = 0;
        st.preemptions = 0;
        st.sleep.clear();
        st.atomics.clear();
        st.mutexes.clear();
        st.condvars.clear();
        st.sc_clock = VClock::new();
        st.cursor = 0;
        st.ops_executed = 0;
        st.trace.clear();
        st.failure = None;
        st.pruned = false;
        st.done = false;
        st.os_handles.clear();
    }

    /// Advances the deepest advanceable branch; false when exhausted.
    fn backtrack(&self) -> bool {
        let mut st = self.lock_state();
        loop {
            match st.stack.last_mut() {
                None => return false,
                Some(Node::Sched {
                    candidates, idx, ..
                }) => {
                    if *idx + 1 < candidates.len() {
                        *idx += 1;
                        return true;
                    }
                    st.stack.pop();
                }
                Some(Node::Read { total, idx }) => {
                    if *idx + 1 < *total {
                        *idx += 1;
                        return true;
                    }
                    st.stack.pop();
                }
            }
        }
    }

    fn fail(st: &mut ExecState, msg: String) {
        if st.failure.is_none() {
            let mut report = format!("model failure: {msg}\n--- interleaving ---\n");
            for (i, ev) in st.trace.iter().enumerate() {
                report.push_str(&format!("{i:4}: {ev}\n"));
            }
            st.failure = Some(report);
        }
        st.done = st.live == 0;
    }

    /// The scheduling decision: pick which declared op executes next.
    /// Called with `me` parked-or-running at a yield point. Sets
    /// `st.current`; the chosen thread executes its own op when it sees
    /// the token. Returns false when the execution is aborting.
    fn schedule(&self, st: &mut ExecState, me: Tid) -> bool {
        if st.aborting() {
            return false;
        }
        let enabled = st.enabled_threads();
        if enabled.is_empty() {
            if st.live == 0 {
                st.done = true;
            } else {
                let stuck: Vec<String> = st
                    .threads
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| t.status != Status::Finished)
                    .map(|(i, t)| format!("T{i}:{:?}/{:?}", t.status, t.pending))
                    .collect();
                Exec::fail(st, format!("deadlock; stuck threads: {}", stuck.join(" ")));
            }
            return false;
        }

        // Preemption filter: staying on the last-executing thread is
        // free; switching away while it could continue costs one.
        let prev = st.last_exec;
        let prev_enabled = enabled.contains(&prev);
        let over_budget = self
            .config
            .preemption_bound
            .is_some_and(|b| st.preemptions >= b);
        let after_preempt: Vec<Tid> = if over_budget && prev_enabled {
            vec![prev]
        } else {
            enabled.clone()
        };

        // Sleep-set filter.
        let sleeping: Vec<Tid> = st.sleep.iter().map(|&(t, _)| t).collect();
        let candidates: Vec<Tid> = after_preempt
            .iter()
            .copied()
            .filter(|t| !sleeping.contains(t))
            .collect();
        if candidates.is_empty() {
            // Every runnable thread is asleep: this path only commutes
            // independent ops of a sibling branch — prune it.
            st.pruned = true;
            return false;
        }

        let chosen = if candidates.len() == 1 {
            candidates[0]
        } else {
            let footprints: Vec<Footprint> = candidates
                .iter()
                .map(|&t| {
                    st.threads[t]
                        .pending
                        .as_ref()
                        // invariant: a candidate passed enabled(), which
                        // requires a declared pending op.
                        .expect("candidate declared")
                        .footprint()
                })
                .collect();
            let cursor = st.cursor;
            if cursor < st.stack.len() {
                // Replay: reuse the recorded decision; entering branch i
                // puts siblings 0..i to sleep for this subtree until a
                // dependent op executes.
                let (i, base) = match &st.stack[cursor] {
                    Node::Sched {
                        candidates: c,
                        idx,
                        base_sleep,
                        ..
                    } => {
                        if c != &candidates {
                            let msg = format!(
                                "replay divergence: sched candidates {candidates:?} \
                                 vs recorded {c:?} at cursor {cursor}/{}",
                                st.stack.len()
                            );
                            Exec::fail(st, msg);
                            return false;
                        }
                        (*idx, base_sleep.clone())
                    }
                    Node::Read { total, idx } => {
                        let msg = format!(
                            "replay divergence: expected sched node for candidates \
                             {candidates:?}, found read node ({idx}/{total}) at cursor \
                             {cursor}/{}",
                            st.stack.len()
                        );
                        Exec::fail(st, msg);
                        return false;
                    }
                };
                st.sleep = base
                    .iter()
                    .map(|&t| {
                        let fp = st.threads[t]
                            .pending
                            .as_ref()
                            // invariant: a thread enters the sleep set only
                            // as an enabled sibling candidate, so it has a
                            // declared op it cannot retract while asleep.
                            .expect("sleeping thread has a declared op")
                            .footprint();
                        (t, fp)
                    })
                    .collect();
                for j in 0..i {
                    st.sleep.push((candidates[j], footprints[j]));
                }
                st.cursor += 1;
                candidates[i]
            } else {
                st.stack.push(Node::Sched {
                    candidates: candidates.clone(),
                    base_sleep: st.sleep.iter().map(|&(t, _)| t).collect(),
                    idx: 0,
                });
                st.cursor += 1;
                candidates[0]
            }
        };

        if chosen != prev && prev_enabled {
            st.preemptions += 1;
        }
        st.current = chosen;
        let _ = me;
        true
    }

    /// Consults the choice stack for a value decision with `total`
    /// options; returns the option index.
    fn choose_value(&self, st: &mut ExecState, total: usize) -> usize {
        if total <= 1 {
            return 0;
        }
        let cursor = st.cursor;
        let idx = if cursor < st.stack.len() {
            match &st.stack[cursor] {
                Node::Read { total: t, idx } => {
                    debug_assert_eq!(*t, total, "nondeterministic replay");
                    *idx
                }
                Node::Sched { .. } => {
                    Exec::fail(st, "replay divergence: expected read node".into());
                    0
                }
            }
        } else {
            st.stack.push(Node::Read { total, idx: 0 });
            0
        };
        st.cursor += 1;
        idx
    }

    /// Executes `op` on behalf of `me` (who holds the token).
    fn execute(&self, st: &mut ExecState, me: Tid, op: &Op) -> OpResult {
        st.ops_executed += 1;
        if st.ops_executed > self.config.max_ops_per_execution {
            Exec::fail(
                st,
                format!(
                    "execution exceeded {} ops",
                    self.config.max_ops_per_execution
                ),
            );
            return OpResult::Unit;
        }
        let desc = op.describe();
        // Sibling sleepers wake when a dependent op executes.
        let fp = op.footprint();
        st.sleep.retain(|&(_, sfp)| !dependent(sfp, fp));
        st.last_exec = me;
        let result = match *op {
            Op::Start | Op::Spawn => {
                st.threads[me].vc.tick(me);
                OpResult::Unit
            }
            Op::Join(child) => {
                let child_vc = st.threads[child].final_vc.clone();
                st.threads[me].vc.join(&child_vc);
                st.threads[me].vc.tick(me);
                OpResult::Unit
            }
            Op::Lock(m) => {
                let ms = st.mutexes.entry(m).or_default();
                debug_assert!(ms.held_by.is_none(), "scheduled a disabled lock");
                ms.held_by = Some(me);
                let mclock = ms.clock.clone();
                st.threads[me].vc.join(&mclock);
                st.threads[me].vc.tick(me);
                OpResult::Unit
            }
            Op::Unlock(m) => {
                st.threads[me].vc.tick(me);
                let vc = st.threads[me].vc.clone();
                let ms = st.mutexes.entry(m).or_default();
                ms.held_by = None;
                ms.clock = vc;
                OpResult::Unit
            }
            Op::CvWait { cv, mutex } => {
                // Atomically: release the mutex and park on the condvar.
                st.threads[me].vc.tick(me);
                let vc = st.threads[me].vc.clone();
                let ms = st.mutexes.entry(mutex).or_default();
                ms.held_by = None;
                ms.clock = vc;
                st.condvars.entry(cv).or_default().waiters.push((me, mutex));
                st.threads[me].status = Status::Waiting;
                OpResult::Unit
            }
            Op::CvNotifyOne(cv) => {
                st.threads[me].vc.tick(me);
                if let Some((w, m)) = {
                    let cs = st.condvars.entry(cv).or_default();
                    if cs.waiters.is_empty() {
                        None
                    } else {
                        // FIFO wake: a deterministic single choice. (We do
                        // not branch over which waiter wakes; documented
                        // as a model restriction in DESIGN.md.)
                        Some(cs.waiters.remove(0))
                    }
                } {
                    st.threads[w].status = Status::Active;
                    st.threads[w].pending = Some(Op::Lock(m));
                }
                OpResult::Unit
            }
            Op::CvNotifyAll(cv) => {
                st.threads[me].vc.tick(me);
                let woken: Vec<(Tid, Addr)> =
                    std::mem::take(&mut st.condvars.entry(cv).or_default().waiters);
                for (w, m) in woken {
                    st.threads[w].status = Status::Active;
                    st.threads[w].pending = Some(Op::Lock(m));
                }
                OpResult::Unit
            }
            Op::Load { addr, ord, init } => {
                let val = self.atomic_load(st, me, addr, ord, init);
                st.record(me, format!("{desc} -> {val}"));
                st.threads[me].pending = None;
                return OpResult::Value(val);
            }
            Op::Store {
                addr,
                ord,
                init,
                val,
            } => {
                Exec::ensure_hist(st, addr, init);
                st.threads[me].vc.tick(me);
                if matches!(ord, Ordering::SeqCst) {
                    let sc = st.sc_clock.clone();
                    st.threads[me].vc.join(&sc);
                    let vc = st.threads[me].vc.clone();
                    st.sc_clock.join(&vc);
                }
                let event_vc = st.threads[me].vc.clone();
                let sync_vc = match ord {
                    Ordering::Release | Ordering::AcqRel | Ordering::SeqCst => event_vc.clone(),
                    _ => VClock::new(),
                };
                // invariant: ensure_hist ran at the top of this arm.
                let hist = st.atomics.get_mut(&addr).expect("hist ensured");
                hist.stores.push(StoreElem {
                    val,
                    event_vc,
                    sync_vc,
                });
                let idx = hist.stores.len() - 1;
                st.threads[me].seen.insert(addr, idx);
                OpResult::Unit
            }
            Op::Rmw {
                addr,
                ord,
                init,
                kind,
                operand,
            } => {
                Exec::ensure_hist(st, addr, init);
                // An RMW reads the latest store in modification order.
                let (old, prev_sync) = {
                    let hist = &st.atomics[&addr];
                    // invariant: ensure_hist seeds every history with the
                    // initial value, so stores is never empty.
                    let last = hist.stores.last().expect("hist non-empty");
                    (last.val, last.sync_vc.clone())
                };
                if matches!(ord, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst) {
                    st.threads[me].vc.join(&prev_sync);
                }
                st.threads[me].vc.tick(me);
                if matches!(ord, Ordering::SeqCst) {
                    let sc = st.sc_clock.clone();
                    st.threads[me].vc.join(&sc);
                    let vc = st.threads[me].vc.clone();
                    st.sc_clock.join(&vc);
                }
                let new = match kind {
                    RmwKind::Add => old.wrapping_add(operand),
                    RmwKind::Swap => operand,
                };
                let event_vc = st.threads[me].vc.clone();
                // RMWs extend the release sequence of the store they read.
                let mut sync_vc = prev_sync;
                if matches!(ord, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst) {
                    sync_vc.join(&event_vc);
                }
                // invariant: ensure_hist ran at the top of this arm.
                let hist = st.atomics.get_mut(&addr).expect("hist ensured");
                hist.stores.push(StoreElem {
                    val: new,
                    event_vc,
                    sync_vc,
                });
                let idx = hist.stores.len() - 1;
                st.threads[me].seen.insert(addr, idx);
                st.record(me, format!("{desc} -> {old}"));
                st.threads[me].pending = None;
                return OpResult::Value(old);
            }
        };
        st.record(me, desc);
        st.threads[me].pending = None;
        result
    }

    fn ensure_hist(st: &mut ExecState, addr: Addr, init: u64) {
        st.atomics.entry(addr).or_insert_with(|| AtomicHist {
            stores: vec![StoreElem {
                val: init,
                event_vc: VClock::new(),
                sync_vc: VClock::new(),
            }],
        });
    }

    fn atomic_load(
        &self,
        st: &mut ExecState,
        me: Tid,
        addr: Addr,
        ord: Ordering,
        init: u64,
    ) -> u64 {
        Exec::ensure_hist(st, addr, init);
        if matches!(ord, Ordering::SeqCst) {
            let sc = st.sc_clock.clone();
            st.threads[me].vc.join(&sc);
        }
        let floor = st.threads[me].seen.get(&addr).copied().unwrap_or(0);
        let (min_idx, n) = {
            let hist = &st.atomics[&addr];
            let me_vc = &st.threads[me].vc;
            // A load may not observe a store that is coherence-older than
            // another store which already happened-before the load.
            let mut hb_max = 0;
            for (i, s) in hist.stores.iter().enumerate() {
                if s.event_vc.le(me_vc) {
                    hb_max = i;
                }
            }
            (floor.max(hb_max), hist.stores.len())
        };
        let choice = self.choose_value(st, n - min_idx);
        let idx = min_idx + choice;
        let (val, sync_vc) = {
            let s = &st.atomics[&addr].stores[idx];
            (s.val, s.sync_vc.clone())
        };
        st.threads[me].seen.insert(addr, idx);
        if matches!(ord, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst) {
            st.threads[me].vc.join(&sync_vc);
        }
        if matches!(ord, Ordering::SeqCst) {
            let vc = st.threads[me].vc.clone();
            st.sc_clock.join(&vc);
        }
        st.threads[me].vc.tick(me);
        val
    }

    /// The yield-point protocol: declare `op`, let the scheduler pick who
    /// runs, park until granted, execute. Unwinds with `Abort` when the
    /// execution is over (failure or prune).
    pub(crate) fn yield_op(self: &Arc<Self>, me: Tid, op: Op) -> OpResult {
        let mut st = self.lock_state();
        if st.aborting() {
            drop(st);
            std::panic::resume_unwind(Box::new(Abort));
        }
        st.threads[me].pending = Some(op);
        // The labeled block is the abort path: any `break 'abort` falls
        // through to the unwind below; the happy path returns directly.
        'abort: {
            if !self.schedule(&mut st, me) {
                break 'abort;
            }
            self.cv.notify_all();
            while st.current != me && !st.aborting() && !st.done {
                st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
            if st.aborting() {
                break 'abort;
            }
            // Token granted: execute my pending op.
            let op = st.threads[me]
                .pending
                .clone()
                // invariant: the scheduler only grants the token to a
                // thread with a declared op; pending is cleared after
                // execution.
                .expect("token holder has an op");
            let was_wait = matches!(op, Op::CvWait { .. });
            let result = self.execute(&mut st, me, &op);
            if st.aborting() {
                break 'abort;
            }
            if was_wait {
                // The wait op parked us; keep scheduling others until a
                // notify re-activates us and the scheduler re-grants.
                if !self.schedule(&mut st, me) {
                    break 'abort;
                }
                self.cv.notify_all();
                let granted = |st: &ExecState| {
                    st.current == me
                        && st.threads[me].status == Status::Active
                        && st.threads[me].pending.is_some()
                };
                while !granted(&st) && !st.aborting() && !st.done {
                    st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
                }
                if st.aborting() || st.done {
                    break 'abort;
                }
                // Re-granted with the relock op pending; execute it.
                // invariant: the wake path (CvNotify) re-arms the waiter
                // with a Lock op before re-activating it.
                let relock = st.threads[me].pending.clone().expect("relock pending");
                let r2 = self.execute(&mut st, me, &relock);
                if st.aborting() {
                    break 'abort;
                }
                drop(st);
                return r2;
            }
            drop(st);
            return result;
        }
        drop(st);
        self.cv.notify_all();
        std::panic::resume_unwind(Box::new(Abort));
    }

    /// Like [`Exec::yield_op`] but never unwinds: when the execution is
    /// aborting it silently no-ops. Used from `Drop` impls, where a
    /// second panic during an unwind would abort the process.
    pub(crate) fn yield_op_quiet(self: &Arc<Self>, me: Tid, op: Op) {
        {
            let st = self.lock_state();
            if st.aborting() || st.done {
                return;
            }
        }
        let result = catch_unwind(AssertUnwindSafe(|| {
            self.yield_op(me, op);
        }));
        // An Abort unwind here means the execution ended while we were
        // scheduling the drop-op; swallow it — the thread will observe
        // the abort at its next regular yield point.
        drop(result);
    }

    /// Registers a child thread (called while the parent executes Spawn).
    pub(crate) fn spawn_thread(self: &Arc<Self>, parent: Tid) -> Tid {
        // The Spawn op itself is a yield point first.
        let _ = self.yield_op(parent, Op::Spawn);
        let mut st = self.lock_state();
        let mut vc = st.threads[parent].vc.clone();
        let tid = st.threads.len();
        vc.tick(tid);
        let mut ts = ThreadSt::new(vc);
        ts.pending = Some(Op::Start);
        st.threads.push(ts);
        st.live += 1;
        tid
    }

    pub(crate) fn register_os_handle(&self, h: std::thread::JoinHandle<()>) {
        self.lock_state().os_handles.push(h);
    }

    /// A freshly spawned thread parks here until first granted, then
    /// runs its Start pseudo-op and returns to enter user code.
    pub(crate) fn wait_for_start(self: &Arc<Self>, me: Tid) {
        let mut st = self.lock_state();
        while st.current != me && !st.aborting() && !st.done {
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        if st.aborting() || st.done {
            drop(st);
            std::panic::resume_unwind(Box::new(Abort));
        }
        // invariant: spawn_thread declares Op::Start before the child OS
        // thread is created, so it is pending at first grant.
        let op = st.threads[me].pending.clone().expect("start pending");
        self.execute(&mut st, me, &op);
    }

    /// Thread `me`'s closure returned (or unwound): leave the execution.
    pub(crate) fn finish_thread(self: &Arc<Self>, me: Tid) {
        let mut st = self.lock_state();
        st.threads[me].status = Status::Finished;
        st.threads[me].pending = None;
        let vc = st.threads[me].vc.clone();
        st.threads[me].final_vc = vc;
        st.live -= 1;
        st.record(me, "finish".into());
        if st.live == 0 {
            st.done = true;
        } else if !st.aborting() {
            // Hand the token onward.
            self.schedule(&mut st, me);
        }
        drop(st);
        self.cv.notify_all();
    }

    /// Records a failure discovered by thread `me` (assertion panic).
    fn report_panic(&self, me: Tid, payload: &(dyn std::any::Any + Send)) {
        let msg = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "panic (non-string payload)".to_string()
        };
        let mut st = self.lock_state();
        Exec::fail(&mut st, format!("T{me} panicked: {msg}"));
        drop(st);
        self.cv.notify_all();
    }
}

/// Runs the model thread body for a spawned thread: park for start, run,
/// catch panics, finish.
pub(crate) fn child_main<T, F>(exec: Arc<Exec>, me: Tid, f: F, out: Arc<Mutex<Option<T>>>)
where
    F: FnOnce() -> T,
    T: Send,
{
    CTX.with(|c| *c.borrow_mut() = Some((Arc::clone(&exec), me)));
    let started = {
        let r = catch_unwind(AssertUnwindSafe(|| exec.wait_for_start(me)));
        match r {
            Ok(()) => true,
            Err(p) => {
                if p.downcast_ref::<Abort>().is_none() {
                    exec.report_panic(me, p.as_ref());
                }
                false
            }
        }
    };
    if started {
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(v) => {
                *out.lock().unwrap_or_else(|e| e.into_inner()) = Some(v);
            }
            Err(p) => {
                if p.downcast_ref::<Abort>().is_none() {
                    exec.report_panic(me, p.as_ref());
                }
            }
        }
    }
    exec.finish_thread(me);
    CTX.with(|c| *c.borrow_mut() = None);
}

/// The exploration driver: run executions, DFS the choice stack.
pub(crate) fn explore<F: Fn()>(config: Config, f: F) -> Result<Explored, String> {
    let exec = Arc::new(Exec::new(config.clone()));
    let mut executions = 0usize;
    let mut pruned = 0usize;
    loop {
        exec.begin_execution();
        CTX.with(|c| *c.borrow_mut() = Some((Arc::clone(&exec), 0)));
        let root = catch_unwind(AssertUnwindSafe(&f));
        if let Err(p) = root {
            if p.downcast_ref::<Abort>().is_none() {
                exec.report_panic(0, p.as_ref());
            }
        }
        exec.finish_thread(0);
        // Wait for every model thread to leave the execution, then reap
        // the OS threads so nothing leaks across executions.
        let handles = {
            let mut st = exec.lock_state();
            while st.live > 0 {
                st = exec.cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
            std::mem::take(&mut st.os_handles)
        };
        for h in handles {
            let _ = h.join();
        }
        CTX.with(|c| *c.borrow_mut() = None);
        executions += 1;

        let (failure, was_pruned) = {
            let st = exec.lock_state();
            (st.failure.clone(), st.pruned)
        };
        if was_pruned {
            pruned += 1;
        }
        if let Some(report) = failure {
            return Err(format!("{report}--- after {executions} execution(s) ---"));
        }
        if !exec.backtrack() {
            return Ok(Explored { executions, pruned });
        }
        if executions >= config.max_executions {
            return Err(format!(
                "state space not exhausted after {executions} executions \
                 (raise Config::max_executions or shrink the model)"
            ));
        }
    }
}
