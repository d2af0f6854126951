//! Intrusive node-based MPSC queue (Vyukov's algorithm).
//!
//! Producers push with a single `swap` on the head pointer and a
//! release-store into the previous node's `next` link; the consumer
//! follows `next` pointers from a stub node and frees each node only
//! after its successor link has been read, which is what makes
//! consumer-side reclamation safe without epochs or hazard pointers.
//!
//! # The head-blocked window
//!
//! Between a producer's head `swap` and its `next` store, the consumer
//! can observe a non-empty queue ([`MpscQueue::len`] counts the push
//! already) whose chain is not yet walkable — [`MpscQueue::pop`]
//! returns `None` momentarily. Callers that drain to empty must
//! therefore loop on `len() > 0`, not on a single `None`.

use std::cell::UnsafeCell;
use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicUsize, Ordering};

struct Node<T> {
    next: AtomicPtr<Node<T>>,
    value: Option<T>,
}

impl<T> Node<T> {
    fn boxed(value: Option<T>) -> *mut Node<T> {
        Box::into_raw(Box::new(Node {
            next: AtomicPtr::new(ptr::null_mut()),
            value,
        }))
    }
}

/// Multi-producer single-consumer queue with a closeable intake.
///
/// `push` after [`close`](MpscQueue::close) fails with the value
/// returned; a push already past the close check still lands and must
/// be drained by the consumer (the shard queue's counter handshake
/// guarantees a drainer is still running whenever that can happen).
pub struct MpscQueue<T> {
    /// The most recently pushed node; producers `swap` here.
    head: AtomicPtr<Node<T>>,
    /// Consumer cursor: the stub, or the last node consumed.
    tail: UnsafeCell<*mut Node<T>>,
    len: AtomicUsize,
    closed: AtomicBool,
    /// Claim guard enforcing the single-consumer role at runtime.
    consuming: AtomicBool,
}

// SAFETY: producers synchronise through `head`/`next` atomics and the
// consumer role is claimed through `consuming`, so the queue can be
// shared across threads whenever the element type can be sent.
unsafe impl<T: Send> Send for MpscQueue<T> {}
unsafe impl<T: Send> Sync for MpscQueue<T> {}

impl<T> MpscQueue<T> {
    /// An empty, open queue.
    pub fn new() -> Self {
        let stub = Node::boxed(None);
        MpscQueue {
            head: AtomicPtr::new(stub),
            tail: UnsafeCell::new(stub),
            len: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
            consuming: AtomicBool::new(false),
        }
    }

    /// Append one value. Fails (returning the value) once the queue is
    /// closed. Lock-free: one allocation, one `swap`, one store.
    pub fn push(&self, value: T) -> Result<(), T> {
        if self.closed.load(Ordering::SeqCst) {
            return Err(value);
        }
        let node = Node::boxed(Some(value));
        self.len.fetch_add(1, Ordering::SeqCst);
        let prev = self.head.swap(node, Ordering::AcqRel);
        // SAFETY: `prev` was the head; only this producer links its
        // `next`, and the consumer will not free it until that link is
        // stored (a null `next` parks the consumer cursor before it).
        unsafe { (*prev).next.store(node, Ordering::Release) };
        Ok(())
    }

    /// Pop the oldest value. `None` when the queue is empty, when a
    /// producer is mid-push (the head-blocked window), or when another
    /// thread currently holds the consumer role.
    pub fn pop(&self) -> Option<T> {
        if self.consuming.swap(true, Ordering::Acquire) {
            // A concurrent consumer is a caller bug; degrade to an
            // empty read instead of racing on the cursor.
            return None;
        }
        // SAFETY: the claim guard above makes this thread the only
        // consumer until the release store below.
        let value = unsafe { self.pop_as_consumer() };
        self.consuming.store(false, Ordering::Release);
        value
    }

    /// # Safety
    /// The caller must hold the consumer claim.
    unsafe fn pop_as_consumer(&self) -> Option<T> {
        // SAFETY: consumer-exclusive cursor, guaranteed by the claim.
        let tail = unsafe { *self.tail.get() };
        // SAFETY: `tail` is the stub or a consumed node; it is freed
        // only by this consumer, after advancing past it.
        let next = unsafe { (*tail).next.load(Ordering::Acquire) };
        if next.is_null() {
            return None;
        }
        // SAFETY: `next` is fully published (acquire above pairs with
        // the producer's release); take its value and retire the old
        // tail, whose `next` we have already read.
        let value = unsafe { (*next).value.take() };
        unsafe { *self.tail.get() = next };
        unsafe { drop(Box::from_raw(tail)) };
        self.len.fetch_sub(1, Ordering::SeqCst);
        debug_assert!(value.is_some(), "non-stub node must carry a value");
        value
    }

    /// Number of enqueued values. Counts pushes from the moment they
    /// are admitted, including any still inside the head-blocked
    /// window, so `len() > 0` with `pop() == None` is a transient the
    /// caller should spin through.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::SeqCst)
    }

    /// Whether the queue is empty (same caveats as [`len`](Self::len)).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Close the intake: subsequent `push` calls fail and return their
    /// values. Values already inside remain poppable.
    pub fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
    }

    /// Whether [`close`](Self::close) has been called.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }
}

impl<T> Default for MpscQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Drop for MpscQueue<T> {
    fn drop(&mut self) {
        // Exclusive access: no producer can be mid-push, so the chain
        // is fully linked and a plain drain frees every node.
        // SAFETY: `&mut self` is the consumer claim in the strongest
        // possible form.
        while unsafe { self.pop_as_consumer() }.is_some() {}
        // SAFETY: what remains is the final cursor node (the stub or
        // the last consumed node), owned solely by us.
        unsafe { drop(Box::from_raw(*self.tail.get())) };
    }
}
