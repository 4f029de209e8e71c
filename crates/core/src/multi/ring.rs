//! Bounded lock-free SPSC rings — the transport between the
//! [`SharedMulti`](crate::multi::SharedMulti) control thread and its shard
//! workers.
//!
//! A classic Lamport queue with cached counterpart indices: the producer
//! caches the consumer's head (and vice versa) so the common case touches
//! only one shared cache line per operation. Capacity is a power of two and
//! fixed at construction — the ring never allocates after `spsc()`, which
//! is what keeps the per-post ingest path allocation-free. Plain `std`
//! atomics only, so it runs on every platform `std` does.
//!
//! Blocking is layered *outside* the ring: a [`Doorbell`] parks a consumer
//! that has seen the ring empty and wakes it from the producer side, so the
//! ring itself stays wait-free.

use std::cell::{Cell, UnsafeCell};
use std::mem::MaybeUninit;
use std::sync::atomic::{fence, AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Pad to a cache line so the producer's and consumer's indices never
/// false-share.
#[repr(align(64))]
struct CachePadded<T>(T);

struct Shared<T> {
    /// `capacity - 1`; capacity is a power of two.
    mask: usize,
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// Next slot the consumer will pop (monotonic).
    head: CachePadded<AtomicUsize>,
    /// Next slot the producer will push (monotonic).
    tail: CachePadded<AtomicUsize>,
}

// SAFETY: slots are handed off by the head/tail publication protocol —
// a slot is written only by the single producer before the Release store of
// `tail`, and read only by the single consumer after the Acquire load of it
// (and vice versa for recycled slots).
unsafe impl<T: Send> Send for Shared<T> {}
// SAFETY: shared access is limited to one `SpscSender` and one
// `SpscReceiver` (neither is `Sync`); by the protocol above they never touch
// the same slot at once, and the indices are atomics.
unsafe impl<T: Send> Sync for Shared<T> {}

impl<T> Drop for Shared<T> {
    fn drop(&mut self) {
        // Both endpoints are gone: drain the un-popped items.
        let head = *self.head.0.get_mut();
        let tail = *self.tail.0.get_mut();
        for i in head..tail {
            let slot = self.buf[i & self.mask].get_mut();
            // SAFETY: slots in [head, tail) were initialized by push and
            // never popped.
            unsafe { slot.assume_init_drop() };
        }
    }
}

/// Producer endpoint; single-owner (`!Sync` via the cached [`Cell`]).
pub(crate) struct SpscSender<T> {
    ring: Arc<Shared<T>>,
    /// Producer's view of `head`; refreshed only when the ring looks full.
    cached_head: Cell<usize>,
}

/// Consumer endpoint; single-owner (`!Sync` via the cached [`Cell`]).
pub(crate) struct SpscReceiver<T> {
    ring: Arc<Shared<T>>,
    /// Consumer's view of `tail`; refreshed only when the ring looks empty.
    cached_tail: Cell<usize>,
}

/// A bounded SPSC ring of at least `capacity` slots (rounded up to a power
/// of two, minimum 2).
pub(crate) fn spsc<T>(capacity: usize) -> (SpscSender<T>, SpscReceiver<T>) {
    let cap = capacity.max(2).next_power_of_two();
    let buf = (0..cap)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect::<Vec<_>>()
        .into_boxed_slice();
    let ring = Arc::new(Shared {
        mask: cap - 1,
        buf,
        head: CachePadded(AtomicUsize::new(0)),
        tail: CachePadded(AtomicUsize::new(0)),
    });
    (
        SpscSender {
            ring: Arc::clone(&ring),
            cached_head: Cell::new(0),
        },
        SpscReceiver {
            ring,
            cached_tail: Cell::new(0),
        },
    )
}

impl<T> SpscSender<T> {
    /// Push `v`, or hand it back if the ring is full.
    pub(crate) fn try_push(&self, v: T) -> Result<(), T> {
        let ring = &*self.ring;
        let tail = ring.tail.0.load(Ordering::Relaxed);
        let cap = ring.mask + 1;
        if tail.wrapping_sub(self.cached_head.get()) >= cap {
            self.cached_head.set(ring.head.0.load(Ordering::Acquire));
            if tail.wrapping_sub(self.cached_head.get()) >= cap {
                return Err(v);
            }
        }
        // SAFETY: the slot at `tail` is past the consumer's head, so only
        // this (single) producer touches it until the Release store below
        // publishes it.
        unsafe { (*ring.buf[tail & ring.mask].get()).write(v) };
        ring.tail.0.store(tail.wrapping_add(1), Ordering::Release);
        Ok(())
    }
}

impl<T> SpscReceiver<T> {
    /// Pop the oldest item, or `None` if the ring is empty.
    pub(crate) fn try_pop(&self) -> Option<T> {
        let ring = &*self.ring;
        let head = ring.head.0.load(Ordering::Relaxed);
        if head == self.cached_tail.get() {
            self.cached_tail.set(ring.tail.0.load(Ordering::Acquire));
            if head == self.cached_tail.get() {
                return None;
            }
        }
        // SAFETY: `head < tail` (Acquire-observed), so the slot was fully
        // written by the producer; only this (single) consumer reads it.
        let v = unsafe { (*ring.buf[head & ring.mask].get()).assume_init_read() };
        ring.head.0.store(head.wrapping_add(1), Ordering::Release);
        Some(v)
    }
}

// ---------------------------------------------------------------------
// Doorbell: consumer parking.
// ---------------------------------------------------------------------

/// Wakes a parked ring consumer. The consumer *must* re-check the ring
/// between [`prepare_park`](Self::prepare_park) and [`park`](Self::park):
/// the producer only rings after a push when it observes `sleeping`, so the
/// flag-then-recheck dance is what closes the lost-wakeup window.
///
/// Both sides of that dance are a store followed by a load of the *other*
/// side's location (producer: publish tail, read `sleeping`; consumer:
/// write `sleeping`, re-read tail). That is the store-buffering litmus, and
/// without stronger ordering both threads may read stale values — the
/// producer skips the wake while the consumer misses the item and parks.
/// The `SeqCst` fences in [`ring`](Self::ring) and
/// [`prepare_park`](Self::prepare_park) order each store before the
/// opposite load, which forbids that outcome.
pub(crate) struct Doorbell {
    sleeping: AtomicBool,
    mutex: Mutex<()>,
    condvar: Condvar,
}

impl Doorbell {
    pub(crate) fn new() -> Self {
        Self {
            sleeping: AtomicBool::new(false),
            mutex: Mutex::new(()),
            condvar: Condvar::new(),
        }
    }

    /// Producer side: wake the consumer if it is (or is about to start)
    /// sleeping. Cheap when it is not — a fence plus one load.
    ///
    /// Call *after* publishing to the ring. The fence orders the ring's
    /// `Release` tail store before the `sleeping` load; paired with the
    /// fence in [`prepare_park`](Self::prepare_park), either this call sees
    /// `sleeping` (and wakes the consumer) or the consumer's re-check sees
    /// the new tail — never neither.
    pub(crate) fn ring(&self) {
        fence(Ordering::SeqCst);
        if self.sleeping.load(Ordering::SeqCst) {
            let _guard = self.mutex.lock().unwrap_or_else(|e| e.into_inner());
            self.sleeping.store(false, Ordering::SeqCst);
            self.condvar.notify_all();
        }
    }

    /// Consumer side, step 1: announce intent to sleep. Re-check the ring
    /// after this call. The fence orders the `sleeping` store before the
    /// re-check's tail load (see the type-level ordering note).
    pub(crate) fn prepare_park(&self) {
        self.sleeping.store(true, Ordering::SeqCst);
        fence(Ordering::SeqCst);
    }

    /// Consumer side, step 2a: the re-check found work — cancel the
    /// announcement.
    pub(crate) fn cancel_park(&self) {
        self.sleeping.store(false, Ordering::SeqCst);
    }

    /// Consumer side, step 2b: the re-check found nothing — sleep until
    /// rung, or until the 50 ms backstop expires. A timeout clears
    /// `sleeping` and returns so the caller re-polls the ring itself:
    /// re-waiting would turn any missed wakeup into an unbounded hang,
    /// which is exactly what the backstop exists to bound. The fenced
    /// protocol makes a missed wakeup impossible in the SPSC pairing, so
    /// the backstop only matters if a future transport breaks the pairing.
    pub(crate) fn park(&self) {
        let mut guard = self.mutex.lock().unwrap_or_else(|e| e.into_inner());
        while self.sleeping.load(Ordering::SeqCst) {
            let (g, timeout) = self
                .condvar
                .wait_timeout(guard, Duration::from_millis(50))
                .unwrap_or_else(|e| e.into_inner());
            guard = g;
            if timeout.timed_out() {
                self.sleeping.store(false, Ordering::SeqCst);
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_within_capacity() {
        let (tx, rx) = spsc::<u32>(4);
        for i in 0..4 {
            tx.try_push(i).unwrap();
        }
        assert_eq!(tx.try_push(99), Err(99), "ring full");
        for i in 0..4 {
            assert_eq!(rx.try_pop(), Some(i));
        }
        assert_eq!(rx.try_pop(), None);
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        let (tx, rx) = spsc::<u8>(5);
        for i in 0..8 {
            tx.try_push(i).unwrap();
        }
        assert!(tx.try_push(8).is_err());
        for i in 0..8 {
            assert_eq!(rx.try_pop(), Some(i));
        }
    }

    #[test]
    fn wraparound_many_times() {
        let (tx, rx) = spsc::<u64>(8);
        for round in 0u64..1000 {
            for i in 0..5 {
                tx.try_push(round * 5 + i).unwrap();
            }
            for i in 0..5 {
                assert_eq!(rx.try_pop(), Some(round * 5 + i));
            }
        }
    }

    #[test]
    fn unconsumed_items_are_dropped() {
        let flag = Arc::new(AtomicUsize::new(0));
        #[derive(Debug)]
        struct Probe(Arc<AtomicUsize>);
        impl Drop for Probe {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let (tx, rx) = spsc::<Probe>(4);
        for _ in 0..3 {
            tx.try_push(Probe(Arc::clone(&flag))).unwrap();
        }
        drop(rx.try_pop()); // one popped and dropped
        drop(tx);
        drop(rx);
        assert_eq!(flag.load(Ordering::SeqCst), 3, "two drained by Drop");
    }

    #[test]
    fn cross_thread_stream_is_ordered_and_complete() {
        const N: u64 = 200_000;
        let (tx, rx) = spsc::<u64>(256);
        let bell = Arc::new(Doorbell::new());
        let bell2 = Arc::clone(&bell);
        let consumer = std::thread::spawn(move || {
            let mut expected = 0u64;
            let mut sum = 0u64;
            while expected < N {
                match rx.try_pop() {
                    Some(v) => {
                        assert_eq!(v, expected);
                        sum += v;
                        expected += 1;
                    }
                    None => {
                        bell2.prepare_park();
                        if let Some(v) = rx.try_pop() {
                            bell2.cancel_park();
                            assert_eq!(v, expected);
                            sum += v;
                            expected += 1;
                        } else {
                            bell2.park();
                        }
                    }
                }
            }
            sum
        });
        let mut i = 0u64;
        while i < N {
            match tx.try_push(i) {
                Ok(()) => {
                    bell.ring();
                    i += 1;
                }
                Err(_) => std::thread::yield_now(),
            }
        }
        let sum = consumer.join().unwrap();
        assert_eq!(sum, N * (N - 1) / 2);
    }

    #[test]
    fn park_backstop_returns_without_a_ring() {
        // Simulates a missed wakeup: the consumer announces sleep and parks
        // with no producer anywhere. The bounded wait must hand control
        // back (after ~50 ms) instead of re-waiting forever.
        let bell = Doorbell::new();
        bell.prepare_park();
        let t0 = std::time::Instant::now();
        bell.park();
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "park must time out, not hang"
        );
        // The announcement was cleared, so a fresh park also returns.
        bell.prepare_park();
        bell.park();
    }
}
