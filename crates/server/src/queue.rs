//! A bounded MPMC work queue with shed-on-full admission and graceful
//! close, built on `Mutex<VecDeque>` + `Condvar` (std-only).
//!
//! Admission is non-blocking by design: a full queue rejects the request
//! immediately ([`PushError::Full`]) so overload turns into fast, explicit
//! shedding at the edge instead of unbounded latency inside. Consumers
//! block on [`Bounded::pop`]; after [`Bounded::close`] they drain whatever
//! is already queued and then receive `None` — the graceful-shutdown
//! contract: accepted work is always finished.

use crate::sync::{Condvar, Mutex};
use std::collections::VecDeque;

/// Why a push was rejected.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue is at capacity; the work item is handed back.
    Full(T),
    /// The queue has been closed; the work item is handed back.
    Closed(T),
}

#[derive(Debug)]
struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// The bounded MPMC queue.
#[derive(Debug)]
pub struct Bounded<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    capacity: usize,
}

impl<T> Bounded<T> {
    /// A queue admitting at most `capacity` items (floor 1).
    pub fn new(capacity: usize) -> Self {
        Bounded {
            inner: Mutex::new(Inner {
                items: VecDeque::with_capacity(capacity.max(1)),
                closed: false,
            }),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Admits `item`, or rejects it without blocking.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        // invariant: queue closures never panic while holding the lock,
        // so poisoning means the process is already tearing down.
        let mut inner = self.inner.lock().expect("queue poisoned");
        if inner.closed {
            return Err(PushError::Closed(item));
        }
        if inner.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        inner.items.push_back(item);
        drop(inner);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Takes the next item if one is queued, without blocking.
    pub fn try_pop(&self) -> Option<T> {
        // invariant: see try_push — lock poisoning is unrecoverable.
        self.inner.lock().expect("queue poisoned").items.pop_front()
    }

    /// Takes the next item, blocking while the queue is open and empty.
    /// Returns `None` once the queue is closed *and* drained.
    pub fn pop(&self) -> Option<T> {
        // invariant: see try_push — lock poisoning is unrecoverable.
        let mut inner = self.inner.lock().expect("queue poisoned");
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            // invariant: see try_push — lock poisoning is unrecoverable.
            inner = self.not_empty.wait(inner).expect("queue poisoned");
        }
    }

    /// Current depth (for stats; racy by nature).
    pub fn len(&self) -> usize {
        // invariant: see try_push — lock poisoning is unrecoverable.
        self.inner.lock().expect("queue poisoned").items.len()
    }

    /// True when no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Stops admission. Queued items remain poppable; blocked consumers
    /// wake and drain.
    pub fn close(&self) {
        // invariant: see try_push — lock poisoning is unrecoverable.
        self.inner.lock().expect("queue poisoned").closed = true;
        self.not_empty.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order() {
        let q = Bounded::new(4);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.try_pop(), Some(2));
        assert_eq!(q.try_pop(), None, "an empty queue does not block");
    }

    #[test]
    fn full_queue_sheds() {
        let q = Bounded::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.try_push(3), Err(PushError::Full(3)));
        assert_eq!(q.len(), 2);
        q.pop();
        q.try_push(3).unwrap();
    }

    #[test]
    fn close_rejects_new_work_but_drains_queued() {
        let q = Bounded::new(4);
        q.try_push(1).unwrap();
        q.close();
        assert_eq!(q.try_push(2), Err(PushError::Closed(2)));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None, "stays closed");
    }

    #[test]
    fn close_wakes_blocked_consumers() {
        let q = Arc::new(Bounded::<u32>::new(4));
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || q.pop())
            })
            .collect();
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        for h in handles {
            assert_eq!(h.join().unwrap(), None);
        }
    }

    #[test]
    fn many_producers_many_consumers_lose_nothing() {
        let q = Bounded::new(64);
        let mut total = 0u64;
        std::thread::scope(|scope| {
            let consumers: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        let mut sum = 0u64;
                        while let Some(v) = q.pop() {
                            sum += v;
                        }
                        sum
                    })
                })
                .collect();
            // Inner scope joins all producers before we close the queue.
            std::thread::scope(|producers| {
                let q = &q;
                for p in 0..4u64 {
                    producers.spawn(move || {
                        for i in 0..250u64 {
                            let mut item = p * 1000 + i;
                            // Spin on Full: this test checks delivery, not shed.
                            loop {
                                match q.try_push(item) {
                                    Ok(()) => break,
                                    Err(PushError::Full(v)) => {
                                        item = v;
                                        std::thread::yield_now();
                                    }
                                    Err(PushError::Closed(_)) => panic!("closed early"),
                                }
                            }
                        }
                    });
                }
            });
            q.close();
            for c in consumers {
                total += c.join().unwrap();
            }
        });
        let expected: u64 = (0..4u64)
            .flat_map(|p| (0..250u64).map(move |i| p * 1000 + i))
            .sum();
        assert_eq!(total, expected);
    }
}
