//! Bounded MPMC ring (Vyukov's array queue).
//!
//! Each slot carries a sequence number that encodes whose turn it is:
//! a slot whose sequence equals the push cursor is free, one whose
//! sequence equals `pop cursor + 1` holds a value. Producers and
//! consumers claim a cursor position with a CAS, then publish with a
//! release-store of the slot sequence — so a claim that loses the race
//! retries on a fresh cursor instead of spinning on a lock.
//!
//! No runtime path uses it; `benchmark/src/layers.rs` times it as
//! `nolock.mpmc_push_pop_ns`.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};

struct Slot<T> {
    seq: AtomicUsize,
    value: UnsafeCell<MaybeUninit<T>>,
}

/// A fixed-capacity multi-producer multi-consumer queue.
pub struct Bounded<T> {
    mask: usize,
    slots: Box<[Slot<T>]>,
    /// Pop cursor.
    head: AtomicUsize,
    /// Push cursor.
    tail: AtomicUsize,
}

// SAFETY: slot hand-off is mediated by the per-slot sequence numbers
// (release on publish, acquire on claim), so values move between
// threads with proper ordering whenever T itself is sendable.
unsafe impl<T: Send> Send for Bounded<T> {}
unsafe impl<T: Send> Sync for Bounded<T> {}

impl<T> Bounded<T> {
    /// A queue holding at most `capacity` values (rounded up to the
    /// next power of two, minimum 2).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.next_power_of_two().max(2);
        let slots = (0..cap)
            .map(|i| Slot {
                seq: AtomicUsize::new(i),
                value: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect();
        Bounded {
            mask: cap - 1,
            slots,
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
        }
    }

    /// Append a value; fails (returning it) when the ring is full.
    pub fn push(&self, value: T) -> Result<(), T> {
        let mut tail = self.tail.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[tail & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let dif = (seq as isize).wrapping_sub(tail as isize);
            if dif == 0 {
                match self.tail.compare_exchange_weak(
                    tail,
                    tail.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the CAS claimed this slot for this
                        // producer; no other thread touches it until
                        // the sequence store below publishes it.
                        unsafe { (*slot.value.get()).write(value) };
                        slot.seq.store(tail.wrapping_add(1), Ordering::Release);
                        return Ok(());
                    }
                    Err(current) => tail = current,
                }
            } else if dif < 0 {
                // The slot still holds a value a full lap behind: the
                // ring is full.
                return Err(value);
            } else {
                tail = self.tail.load(Ordering::Relaxed);
            }
        }
    }

    /// Pop the oldest value, or `None` when the ring is empty.
    pub fn pop(&self) -> Option<T> {
        let mut head = self.head.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[head & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let dif = (seq as isize).wrapping_sub(head.wrapping_add(1) as isize);
            if dif == 0 {
                match self.head.compare_exchange_weak(
                    head,
                    head.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the CAS claimed this slot; the
                        // acquire load of `seq` saw the producer's
                        // publishing store, so the value is complete.
                        let value = unsafe { (*slot.value.get()).assume_init_read() };
                        slot.seq.store(
                            head.wrapping_add(self.mask).wrapping_add(1),
                            Ordering::Release,
                        );
                        return Some(value);
                    }
                    Err(current) => head = current,
                }
            } else if dif < 0 {
                return None;
            } else {
                head = self.head.load(Ordering::Relaxed);
            }
        }
    }

    /// Approximate occupancy (exact when no operation is in flight).
    pub fn len(&self) -> usize {
        let tail = self.tail.load(Ordering::SeqCst);
        let head = self.head.load(Ordering::SeqCst);
        tail.wrapping_sub(head).min(self.slots.len())
    }

    /// Whether the ring currently looks empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The rounded-up slot count.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

impl<T> Drop for Bounded<T> {
    fn drop(&mut self) {
        while self.pop().is_some() {}
    }
}
