//! A bounded MPMC queue with condvar wakeups: the admission-control point
//! between the reactor (producer) and the micro-batching dispatcher
//! (consumer).
//!
//! `try_push` never blocks — a full queue is an *admission decision* (the
//! caller turns it into `429 Too Many Requests`), not back-pressure that
//! stalls the socket. The consumer side exposes both a blocking
//! timed pop (for the first job of a batch) and a non-blocking drain (for
//! the rest), which is what gives the dispatcher its natural batching
//! window: whatever queued while the previous batch was being served is
//! coalesced into the next one.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Error returned by [`BoundedQueue::try_push`] on overflow, handing the
/// rejected item back to the caller.
#[derive(Debug)]
pub struct QueueFull<T>(pub T);

/// A fixed-capacity FIFO queue shared between threads.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    inner: Mutex<VecDeque<T>>,
    ready: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue admitting at most `capacity` items.
    #[must_use]
    pub fn new(capacity: usize) -> BoundedQueue<T> {
        BoundedQueue {
            inner: Mutex::new(VecDeque::with_capacity(capacity.min(4096))),
            ready: Condvar::new(),
            capacity,
        }
    }

    /// The configured bound.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current depth.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the queue is currently empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Enqueues without blocking; returns the post-push depth, or the item
    /// back inside [`QueueFull`] when at capacity.
    ///
    /// # Errors
    ///
    /// [`QueueFull`] when the queue already holds `capacity` items.
    pub fn try_push(&self, item: T) -> Result<usize, QueueFull<T>> {
        let mut q = self.lock();
        if q.len() >= self.capacity {
            return Err(QueueFull(item));
        }
        q.push_back(item);
        let depth = q.len();
        drop(q);
        self.ready.notify_one();
        Ok(depth)
    }

    /// Blocks up to `timeout` for one item.
    pub fn pop_timeout(&self, timeout: Duration) -> Option<T> {
        let mut q = self.lock();
        if let Some(item) = q.pop_front() {
            return Some(item);
        }
        let (mut q, _result) = neusight_guard::recover_poison(self.ready.wait_timeout(q, timeout));
        q.pop_front()
    }

    /// Dequeues up to `max` items without blocking.
    pub fn drain_up_to(&self, max: usize) -> Vec<T> {
        let mut q = self.lock();
        let n = q.len().min(max);
        q.drain(..n).collect()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<T>> {
        // A producer that panicked mid-push poisons the mutex; the queue
        // state itself is still consistent (push_back/pop_front are not
        // interruptible between invariant-breaking steps), so recover and
        // count rather than cascading the panic to every other user.
        neusight_guard::recover_poison(self.inner.lock())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn admission_control_rejects_over_capacity() {
        let q = BoundedQueue::new(2);
        assert_eq!(q.try_push(1).unwrap(), 1);
        assert_eq!(q.try_push(2).unwrap(), 2);
        let QueueFull(rejected) = q.try_push(3).unwrap_err();
        assert_eq!(rejected, 3);
        assert_eq!(q.len(), 2);
        // Popping frees a slot.
        assert_eq!(q.pop_timeout(Duration::ZERO), Some(1));
        assert_eq!(q.try_push(3).unwrap(), 2);
    }

    #[test]
    fn drain_preserves_fifo_order() {
        let q = BoundedQueue::new(8);
        for i in 0..5 {
            q.try_push(i).unwrap();
        }
        assert_eq!(q.drain_up_to(3), vec![0, 1, 2]);
        assert_eq!(q.drain_up_to(10), vec![3, 4]);
        assert!(q.drain_up_to(10).is_empty());
        assert!(q.is_empty());
    }

    #[test]
    fn pop_timeout_wakes_on_push() {
        let q = Arc::new(BoundedQueue::new(4));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop_timeout(Duration::from_secs(5)))
        };
        std::thread::sleep(Duration::from_millis(20));
        let start = Instant::now();
        q.try_push(42).unwrap();
        assert_eq!(consumer.join().unwrap(), Some(42));
        // The condvar woke the consumer promptly rather than at timeout.
        assert!(start.elapsed() < Duration::from_secs(4));
    }

    #[test]
    fn pop_timeout_expires_empty() {
        let q: BoundedQueue<u8> = BoundedQueue::new(1);
        assert_eq!(q.pop_timeout(Duration::from_millis(10)), None);
    }
}
