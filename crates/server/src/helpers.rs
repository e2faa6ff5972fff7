//! Scan helpers: persistent threads that scan a worker's large queries
//! alongside it.
//!
//! A worker whose scan plan has more than one run ([`ads_engine::ScanPlan`])
//! posts it on its own [`Board`] as a [`Fan`]: the work, one claim cursor
//! and one result slot per run. The worker and its helpers claim runs
//! through the cursor — each claim is one `fetch_add`, so no run is
//! handed out twice — and each writes its run's result into that run's
//! slot. The worker keeps claiming until no run is unclaimed and then
//! waits only for the runs a helper has already started, so a helper that
//! is slow to wake, or held off its core, delays a query by at most one
//! run; a job nobody helps with is simply scanned by the worker alone.
//! The worker reads the slots in run order, which is what makes the merge
//! independent of who scanned what.
//!
//! Helpers live as long as the service: they are spawned once at start,
//! park on the board between jobs and exit when it closes. What a job
//! needs is owned by it (`Arc`'d snapshots, outcomes and plan), because
//! nothing can be borrowed into a thread that outlives the query.
//!
//! Every primitive comes from [`crate::sync`], so `tests/model.rs` drives
//! this production code under the model checker.

use crate::sync::atomic::{AtomicUsize, Ordering};
use crate::sync::{Arc, Condvar, Mutex};

/// A job cut into runs that any thread may execute, in any order.
pub trait Runs: Send + Sync + 'static {
    /// What one run produces.
    type Out: Send + 'static;
    /// How many runs the job has.
    fn runs(&self) -> usize;
    /// Executes run `k` (`k < self.runs()`).
    fn run(&self, k: usize) -> Self::Out;
}

/// One posted job: the work, the claim cursor and one slot per run.
pub struct Fan<W: Runs> {
    work: W,
    /// The next run to hand out; values at or past `runs()` mean none.
    next: AtomicUsize,
    /// Run `k`'s output once its scanner has stored it.
    slots: Mutex<Vec<Option<W::Out>>>,
    /// Signalled whenever a slot is filled.
    filled: Condvar,
}

impl<W: Runs> Fan<W> {
    /// A job with every run unclaimed.
    fn new(work: W) -> Self {
        let slots = (0..work.runs()).map(|_| None).collect();
        Fan {
            work,
            next: AtomicUsize::new(0),
            slots: Mutex::new(slots),
            filled: Condvar::new(),
        }
    }

    /// The work this job was made from.
    pub fn work(&self) -> &W {
        &self.work
    }

    /// Claims and executes unclaimed runs until none is left, storing
    /// each output in its run's slot.
    fn help(&self) {
        loop {
            // ordering: Relaxed — the RMW alone makes every claim unique;
            // the work is immutable and reached the helper through the
            // board's lock, and outputs travel through the slot lock.
            let k = self.next.fetch_add(1, Ordering::Relaxed);
            if k >= self.work.runs() {
                return;
            }
            let out = self.work.run(k);
            // invariant: nothing panics while the slot lock is held.
            self.slots.lock().expect("fan slots poisoned")[k] = Some(out);
            self.filled.notify_all();
        }
    }

    /// The posting worker's side: helps until no run is unclaimed, waits
    /// for the runs helpers have started, and returns every run's output
    /// in run order.
    pub fn finish(&self) -> Vec<W::Out> {
        self.help();
        // invariant: see help — the slot lock never poisons.
        let mut slots = self.slots.lock().expect("fan slots poisoned");
        while slots.iter().any(Option::is_none) {
            // invariant: see help.
            slots = self.filled.wait(slots).expect("fan slots poisoned");
        }
        slots
            .iter_mut()
            // invariant: the loop above left every slot filled.
            .map(|slot| slot.take().expect("every run stored"))
            .collect()
    }
}

struct Posting<W: Runs> {
    /// The job helpers should join, if any.
    job: Option<Arc<Fan<W>>>,
    /// Jobs posted so far; a helper joins each posting at most once.
    posted: u64,
    closed: bool,
}

/// One worker's job board: where it posts a fanned scan for its helpers.
pub struct Board<W: Runs> {
    state: Mutex<Posting<W>>,
    changed: Condvar,
}

impl<W: Runs> Default for Board<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W: Runs> Board<W> {
    /// An open board with nothing posted.
    pub fn new() -> Self {
        Board {
            state: Mutex::new(Posting {
                job: None,
                posted: 0,
                closed: false,
            }),
            changed: Condvar::new(),
        }
    }

    /// Posts `work` for the helpers, executes it beside them, takes it
    /// down, and returns every run's output in run order together with
    /// the job (whose work the caller merges against).
    pub fn run(&self, work: W) -> (Arc<Fan<W>>, Vec<W::Out>) {
        let fan = self.post(work);
        let outs = fan.finish();
        self.take_down();
        (fan, outs)
    }

    /// Posts `work` and wakes the helpers; the poster must [`Fan::finish`]
    /// it and then [`Board::take_down`] the board.
    pub fn post(&self, work: W) -> Arc<Fan<W>> {
        let fan = Arc::new(Fan::new(work));
        {
            // invariant: nothing panics while the board lock is held.
            let mut state = self.state.lock().expect("board poisoned");
            state.job = Some(Arc::clone(&fan));
            state.posted += 1;
        }
        self.changed.notify_all();
        fan
    }

    /// Takes the finished job down, so the board does not keep its
    /// snapshots alive until the next fanned query.
    pub fn take_down(&self) {
        // invariant: see post.
        self.state.lock().expect("board poisoned").job = None;
    }

    /// Wakes every helper and lets it exit. A job still posted is not
    /// lost: its worker scans whatever no helper claimed.
    pub fn close(&self) {
        // invariant: see post.
        self.state.lock().expect("board poisoned").closed = true;
        self.changed.notify_all();
    }

    /// A helper's wait: the next job posted after the one `seen` counts,
    /// or `None` once the board is closed.
    fn next(&self, seen: &mut u64) -> Option<Arc<Fan<W>>> {
        // invariant: see post.
        let mut state = self.state.lock().expect("board poisoned");
        loop {
            if state.closed {
                return None;
            }
            if state.posted != *seen {
                *seen = state.posted;
                if let Some(job) = &state.job {
                    return Some(Arc::clone(job));
                }
            }
            // invariant: see post.
            state = self.changed.wait(state).expect("board poisoned");
        }
    }
}

/// A helper thread's whole life: joins every job posted on `board` until
/// the board closes.
pub fn help_loop<W: Runs>(board: &Board<W>) {
    let mut seen = 0u64;
    while let Some(job) = board.next(&mut seen) {
        job.help();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run `k` returns `k * 10` and counts how often it was executed.
    struct Tally(Vec<AtomicUsize>);

    impl Runs for Tally {
        type Out = usize;
        fn runs(&self) -> usize {
            self.0.len()
        }
        fn run(&self, k: usize) -> usize {
            // ordering: Relaxed — a test counter, read only after the
            // slot lock has ordered the run before the read.
            self.0[k].fetch_add(1, Ordering::Relaxed);
            k * 10
        }
    }

    fn tally(runs: usize) -> Tally {
        Tally((0..runs).map(|_| AtomicUsize::new(0)).collect())
    }

    #[test]
    fn a_job_nobody_helps_with_is_run_by_its_poster() {
        let board = Board::new();
        let (fan, outs) = board.run(tally(3));
        assert_eq!(outs, vec![0, 10, 20]);
        for count in &fan.work().0 {
            // ordering: Relaxed — single-threaded test.
            assert_eq!(count.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn helpers_share_jobs_and_exit_on_close() {
        let board = Arc::new(Board::new());
        let helpers: Vec<_> = (0..2)
            .map(|_| {
                let board = Arc::clone(&board);
                std::thread::spawn(move || help_loop(&board))
            })
            .collect();
        for runs in 1..=6 {
            for _ in 0..50 {
                let (fan, outs) = board.run(tally(runs));
                assert_eq!(outs, (0..runs).map(|k| k * 10).collect::<Vec<_>>());
                for count in &fan.work().0 {
                    // ordering: Relaxed — every run's slot was stored
                    // under the lock `finish` took after it.
                    assert_eq!(count.load(Ordering::Relaxed), 1);
                }
            }
        }
        board.close();
        for h in helpers {
            h.join().expect("helper exits cleanly");
        }
    }
}
