//! A Condvar-backed multi-producer/multi-consumer work queue.
//!
//! The event-loop transport hands parsed heavy requests to its handler pool through this
//! queue. Compared to the `mpsc`-receiver-under-a-mutex handoff it replaces, the Condvar
//! design keeps all blocking *inside* `Condvar::wait` (no blocking call ever runs under a
//! live guard), exposes an O(1) lock-free [`WorkQueue::len`] for admission control and
//! `/metrics`, and needs no lint escape hatch.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded-by-caller FIFO handoff queue: producers [`WorkQueue::push`], consumers block
/// in [`WorkQueue::pop`] until an item or [`WorkQueue::close`] arrives.
pub(crate) struct WorkQueue<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
    /// Mirror of `items.len()`, maintained under the lock but readable without it —
    /// `/metrics` and the admission check must never block on the handoff mutex.
    depth: AtomicU64,
}

impl<T> WorkQueue<T> {
    pub(crate) fn new() -> Self {
        WorkQueue {
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            depth: AtomicU64::new(0),
        }
    }

    /// Locks the state, recovering a poisoned mutex: poisoning only means a sibling thread
    /// panicked between lock and unlock, and the queue contents (plain owned items + a
    /// flag) cannot be left in a torn state by any code path here.
    fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enqueues an item and wakes one consumer. Returns `false` (dropping the item) when
    /// the queue is closed.
    pub(crate) fn push(&self, item: T) -> bool {
        {
            let mut state = self.lock();
            if state.closed {
                return false;
            }
            state.items.push_back(item);
            self.depth
                .store(state.items.len() as u64, Ordering::Relaxed);
        }
        self.ready.notify_one();
        true
    }

    /// Blocks until an item is available (`Some`) or the queue is closed and drained
    /// (`None`). Items pushed before `close` are still delivered.
    pub(crate) fn pop(&self) -> Option<T> {
        let mut state = self.lock();
        loop {
            if let Some(item) = state.items.pop_front() {
                self.depth
                    .store(state.items.len() as u64, Ordering::Relaxed);
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Current queue depth (lock-free; may lag a concurrent push/pop by one).
    pub(crate) fn len(&self) -> u64 {
        self.depth.load(Ordering::Relaxed)
    }

    /// Closes the queue: pending items drain, further pushes are refused, idle consumers
    /// wake up and observe the close.
    pub(crate) fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn fifo_handoff_across_threads() {
        let queue: Arc<WorkQueue<usize>> = Arc::new(WorkQueue::new());
        let consumer = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || {
                let mut seen = Vec::new();
                while let Some(item) = queue.pop() {
                    seen.push(item);
                }
                seen
            })
        };
        for i in 0..100 {
            assert!(queue.push(i));
        }
        queue.close();
        let seen = consumer.join().unwrap();
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn close_refuses_new_items_but_drains_pending_ones() {
        let queue: WorkQueue<u8> = WorkQueue::new();
        assert!(queue.push(1));
        queue.close();
        assert!(!queue.push(2), "push after close is refused");
        assert_eq!(queue.pop(), Some(1), "pending item still delivered");
        assert_eq!(queue.pop(), None);
    }

    #[test]
    fn close_releases_blocked_consumers() {
        let queue: Arc<WorkQueue<u8>> = Arc::new(WorkQueue::new());
        let waiters: Vec<_> = (0..4)
            .map(|_| {
                let queue = Arc::clone(&queue);
                std::thread::spawn(move || queue.pop())
            })
            .collect();
        std::thread::sleep(Duration::from_millis(30));
        queue.close();
        for waiter in waiters {
            assert_eq!(waiter.join().unwrap(), None);
        }
    }

    #[test]
    fn depth_tracks_len() {
        let queue: WorkQueue<u8> = WorkQueue::new();
        assert_eq!(queue.len(), 0);
        queue.push(1);
        queue.push(2);
        assert_eq!(queue.len(), 2);
        queue.pop();
        assert_eq!(queue.len(), 1);
    }
}
