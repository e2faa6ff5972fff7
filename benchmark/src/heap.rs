//! Peak live heap bytes, counted at the allocator.
//!
//! `peak_rss_mb` (`VmHWM`) was the memory metric ISSUE 11 asked for, but on
//! `mixed-churn` it is not a property of the code: every update batch
//! copies a 16 MB shard, glibc keeps freed copies in per-thread arenas, and
//! how much it keeps depends on thread timing — the same binary and seed
//! read 155 MB in one minute and 249 MB ten minutes later. Bytes the
//! program asked for and has not freed repeat to about a percent, so that
//! is what the benchmark gates; `VmHWM` stays in the result file beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering};

/// The system allocator, with live bytes counted on the way through.
pub struct CountingAlloc;

/// Live bytes, as far as threads have reported them.
static LIVE: AtomicIsize = AtomicIsize::new(0);
/// The largest value `LIVE` has reached.
static PEAK: AtomicIsize = AtomicIsize::new(0);

/// A thread reports to the shared counters only once its unreported
/// balance reaches this many bytes, so the request path's many small
/// allocations never touch a shared cache line. The peak is exact to
/// within this much per thread.
const REPORT_BYTES: isize = 64 * 1024;

thread_local! {
    /// This thread's unreported balance.
    static UNREPORTED: Cell<isize> = const { Cell::new(0) };
}

fn account(delta: isize) {
    let report = UNREPORTED
        .try_with(|unreported| {
            let balance = unreported.get() + delta;
            if balance.abs() >= REPORT_BYTES {
                unreported.set(0);
                Some(balance)
            } else {
                unreported.set(balance);
                None
            }
        })
        // The thread-local is gone while a thread is torn down.
        .unwrap_or(Some(delta));
    if let Some(bytes) = report {
        // ordering: Relaxed — statistics; no other memory is published
        // through these counters.
        let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
        // ordering: Relaxed — see above.
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping around the calls
// touches only atomics and a `Cell` in a const-initialised thread-local
// without a destructor, so it neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            account(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            account(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(p, layout) };
        account(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let q = unsafe { System.realloc(p, layout, new_size) };
        if !q.is_null() {
            account(new_size as isize - layout.size() as isize);
        }
        q
    }
}

/// Forgets the peak so far: the next reading covers only what follows.
pub fn reset_peak() {
    // ordering: Relaxed — statistics; see `account`.
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// The most heap the process has held at once since the last
/// [`reset_peak`], in MB.
pub fn peak_heap_mb() -> f64 {
    // ordering: Relaxed — a statistic read after the threads that moved
    // it have been joined.
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn large_allocations_move_the_peak() {
        let before = peak_heap_mb();
        let big = vec![1u8; 64 << 20];
        assert!(peak_heap_mb() >= before.max(64.0));
        drop(big);
        let after_drop = peak_heap_mb();
        drop(vec![1u8; 1 << 20]);
        assert_eq!(peak_heap_mb(), after_drop, "the peak never falls by itself");
        reset_peak();
        assert!(peak_heap_mb() < after_drop - 60.0);
    }
}
