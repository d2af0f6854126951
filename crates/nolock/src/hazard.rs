//! Hazard-pointer deferred reclamation for shared read-mostly state.
//!
//! For a pointer that many threads read while one thread occasionally
//! replaces it. Freeing the old value synchronously would require
//! proving no reader still holds it, a stop-the-world pause. Instead:
//!
//! * a reader **guards** the pointer it is about to dereference by
//!   publishing it into a slot every thread can see ([`Guard`]),
//! * a writer **retires** the value it replaced instead of freeing it
//!   ([`Domain::retire`]), and
//! * a **reclaimer** frees a retired value only once no live guard
//!   covers it ([`Domain::reclaim`]), re-queueing survivors.
//!
//! Reclamation is amortized: every [`SCAN_THRESHOLD`]-th retire runs a
//! scan automatically, so no call site ever pays an unbounded pause —
//! the cost of a rebuild becomes a constant-bounded retire plus a share
//! of a batched scan.
//!
//! # Memory ordering
//!
//! The crux is the store/scan race: a reader publishing a hazard while
//! a reclaimer scans for it. Both sides use `SeqCst` at the single
//! point of contention, giving the classic Dekker-style guarantee:
//!
//! * **Reader** ([`Shared::load`]): load the pointer, publish it into
//!   the slot with a `SeqCst` store, then **re-load** the pointer with
//!   `SeqCst`. If it still matches, the publication is globally visible
//!   *before* any retire of that pointer can have happened — a
//!   reclaimer that later swaps the retire list must see the hazard.
//!   If it changed, the reader retries with the new pointer.
//! * **Reclaimer** ([`Domain::reclaim`]): detach the whole retire list
//!   with a `SeqCst` swap, execute a `SeqCst` fence, then read every
//!   slot. The fence orders the swap before the scan, so any reader
//!   whose re-check succeeded against a pointer retired *before* the
//!   swap has its hazard visible to this scan.
//!
//! Everything else is ordinary acquire/release: slot acquisition
//! (`in_use` CAS) and registry publication pair Acquire with Release,
//! and the retired-node Treiber stack uses Release pushes with an
//! Acquire swap so node contents are visible to whoever frees them.
//!
//! # Books
//!
//! [`DomainStats`] carries the domain's conservation law:
//! `retired == reclaimed + pending`. `retired` and `reclaimed` are
//! monotone counters; `pending` is counted by walking the live retire
//! list, so the law is exact whenever no retire/reclaim is in flight
//! (a scan momentarily holds popped nodes "in hand") — a leaked or
//! double-freed retired object breaks the equality.

use std::marker::PhantomData;
use std::ptr;
use std::sync::atomic::{fence, AtomicBool, AtomicPtr, AtomicU64, Ordering};
use std::sync::Arc;

/// Retires between automatic reclamation scans: every
/// `SCAN_THRESHOLD`-th [`Domain::retire`] triggers a [`Domain::reclaim`],
/// amortizing the O(slots + pending) scan across that many constant-time
/// retires.
pub const SCAN_THRESHOLD: u64 = 64;

/// One published hazard slot. Slots are allocated once, pushed onto the
/// domain's registry list, and **never freed** until the domain drops —
/// a released slot is recycled by the next guard instead (`in_use`
/// claim), so scanners can walk the list without synchronising against
/// slot teardown.
struct Slot {
    /// The pointer this slot currently protects; null when the guard
    /// is not protecting anything.
    active: AtomicPtr<()>,
    /// Claim flag: one live [`Guard`] owns the slot while set.
    in_use: AtomicBool,
    /// Next slot in the registry (immutable after publication).
    next: *const Slot,
}

/// A retired allocation waiting for no guard to cover it. Nodes live on
/// a Treiber stack; `drop_fn` erases the concrete type so one list can
/// hold every retired shape.
struct Retired {
    /// The retired allocation (originally a `Box<T>`).
    ptr: *mut (),
    /// Frees `ptr` as its concrete type.
    drop_fn: unsafe fn(*mut ()),
    /// Next node in the retire stack.
    next: *mut Retired,
}

/// Point-in-time reclamation books for a [`Domain`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DomainStats {
    /// Values handed to [`Domain::retire`] so far.
    pub retired: u64,
    /// Retired values actually freed by a scan.
    pub reclaimed: u64,
    /// Retired values still waiting on the retire list.
    pub pending: u64,
}

impl DomainStats {
    /// The conservation law: every retired value is either freed or
    /// still pending — exact at quiescent points (no retire or scan in
    /// flight).
    #[must_use]
    pub fn conserves(&self) -> bool {
        self.retired == self.reclaimed + self.pending
    }
}

/// A hazard-pointer domain: a guard-slot registry plus a retire list
/// with an amortized reclaimer.
///
/// The domain is the unit of safety: a [`Guard`] only protects loads
/// from [`Shared`] cells retiring into the **same** domain. It is
/// `Sync` — share it behind an `Arc` between every thread that reads
/// or rebuilds the protected state.
pub struct Domain {
    /// Head of the slot registry (lock-free singly-linked list).
    slots: AtomicPtr<Slot>,
    /// Head of the retire list (Treiber stack).
    retire_head: AtomicPtr<Retired>,
    /// Monotone count of retires.
    retired: AtomicU64,
    /// Monotone count of frees performed by scans.
    reclaimed: AtomicU64,
}

impl std::fmt::Debug for Domain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("Domain")
            .field("retired", &stats.retired)
            .field("reclaimed", &stats.reclaimed)
            .field("pending", &stats.pending)
            .field("active_guards", &self.active_guards())
            .finish()
    }
}

impl Default for Domain {
    fn default() -> Self {
        Self::new()
    }
}

impl Domain {
    /// Creates an empty domain: no slots, nothing retired.
    #[must_use]
    pub fn new() -> Self {
        Domain {
            slots: AtomicPtr::new(ptr::null_mut()),
            retire_head: AtomicPtr::new(ptr::null_mut()),
            retired: AtomicU64::new(0),
            reclaimed: AtomicU64::new(0),
        }
    }

    /// Acquires a guard: claims a released slot from the registry or
    /// publishes a fresh one. The guard protects nothing until its
    /// first [`Shared::load`].
    #[must_use]
    pub fn guard(&self) -> Guard<'_> {
        // First pass: recycle a released slot.
        let mut cursor = self.slots.load(Ordering::Acquire);
        while !cursor.is_null() {
            // SAFETY: registry nodes are leaked on publication and only
            // freed in `Domain::drop`, which cannot run while `&self`
            // is borrowed here — the pointer is valid.
            let slot = unsafe { &*cursor };
            if slot
                .in_use
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                return Guard { domain: self, slot };
            }
            cursor = slot.next.cast_mut();
        }
        // No free slot: publish a new one, already claimed.
        let slot = Box::into_raw(Box::new(Slot {
            active: AtomicPtr::new(ptr::null_mut()),
            in_use: AtomicBool::new(true),
            next: ptr::null(),
        }));
        let mut head = self.slots.load(Ordering::Relaxed);
        loop {
            // SAFETY: `slot` was just allocated above and is not yet
            // published, so this thread has exclusive access to `next`.
            unsafe { (*slot).next = head };
            match self
                .slots
                .compare_exchange_weak(head, slot, Ordering::Release, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(current) => head = current,
            }
        }
        // SAFETY: published registry nodes stay valid until `Domain::drop`.
        Guard {
            domain: self,
            slot: unsafe { &*slot },
        }
    }

    /// Hands `value` to the domain for deferred destruction: it is
    /// freed by a later scan once no guard covers its address. Every
    /// [`SCAN_THRESHOLD`]-th retire runs [`Domain::reclaim`] inline.
    ///
    /// `T: Send` because the free may run on whichever thread's retire
    /// crosses the scan threshold.
    pub fn retire<T: Send + 'static>(&self, value: Box<T>) {
        unsafe fn drop_boxed<T>(ptr: *mut ()) {
            // SAFETY (caller): `ptr` came from `Box::into_raw` of a
            // `Box<T>` and is dropped exactly once by the retire list.
            drop(unsafe { Box::from_raw(ptr.cast::<T>()) });
        }
        let node = Box::into_raw(Box::new(Retired {
            ptr: Box::into_raw(value).cast::<()>(),
            drop_fn: drop_boxed::<T>,
            next: ptr::null_mut(),
        }));
        let mut head = self.retire_head.load(Ordering::Relaxed);
        loop {
            // SAFETY: `node` is not yet published; exclusive access.
            unsafe { (*node).next = head };
            match self.retire_head.compare_exchange_weak(
                head,
                node,
                Ordering::Release,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(current) => head = current,
            }
        }
        let retired = self.retired.fetch_add(1, Ordering::Relaxed) + 1;
        // Amortization: scan once per SCAN_THRESHOLD retires. Using the
        // monotone counter keeps the trigger race-free — concurrent
        // retirers each see a distinct count, so exactly one of any
        // THRESHOLD consecutive retires pays for the scan.
        if retired.is_multiple_of(SCAN_THRESHOLD) {
            self.reclaim();
        }
    }

    /// Scans once: detaches the whole retire list, frees every node no
    /// live guard covers, and re-queues the survivors. Returns how many
    /// values were freed.
    ///
    /// Safe to call from any thread at any time; concurrent scans
    /// operate on disjoint detached lists.
    pub fn reclaim(&self) -> u64 {
        // Detach the entire pending list. SeqCst: orders this swap
        // before the hazard scan below (see module docs) so a reader
        // whose re-check beat a retire in this batch is seen.
        let mut node = self.retire_head.swap(ptr::null_mut(), Ordering::SeqCst);
        if node.is_null() {
            return 0;
        }
        fence(Ordering::SeqCst);
        // Snapshot every published hazard. Slots are never freed while
        // the domain lives, so the walk needs no synchronisation beyond
        // the Acquire loads.
        let mut hazards: Vec<*mut ()> = Vec::new();
        let mut cursor = self.slots.load(Ordering::Acquire);
        while !cursor.is_null() {
            // SAFETY: registry nodes live until `Domain::drop`.
            let slot = unsafe { &*cursor };
            let active = slot.active.load(Ordering::SeqCst);
            if !active.is_null() {
                hazards.push(active);
            }
            cursor = slot.next.cast_mut();
        }
        let mut freed = 0u64;
        let mut survivors: *mut Retired = ptr::null_mut();
        let mut survivor_tail: *mut Retired = ptr::null_mut();
        while !node.is_null() {
            // SAFETY: nodes on the detached list are exclusively ours —
            // the swap removed them from every other thread's view.
            let next = unsafe { (*node).next };
            let covered = hazards.contains(unsafe { &(*node).ptr });
            if covered {
                // Survivor: keep it for a later scan.
                // SAFETY: exclusive access to the detached node.
                unsafe { (*node).next = survivors };
                survivors = node;
                if survivor_tail.is_null() {
                    survivor_tail = node;
                }
            } else {
                // SAFETY: no hazard covers `ptr` and the SeqCst
                // publish/re-check protocol guarantees no reader can
                // newly protect a pointer that was already retired, so
                // this free happens exactly once with no live
                // references.
                unsafe {
                    ((*node).drop_fn)((*node).ptr);
                    drop(Box::from_raw(node));
                }
                freed += 1;
            }
            node = next;
        }
        if freed > 0 {
            self.reclaimed.fetch_add(freed, Ordering::Relaxed);
        }
        if !survivors.is_null() {
            // Re-queue the survivor chain with one CAS loop linking the
            // tail to the current head.
            let mut head = self.retire_head.load(Ordering::Relaxed);
            loop {
                // SAFETY: survivor nodes are still exclusively ours.
                unsafe { (*survivor_tail).next = head };
                match self.retire_head.compare_exchange_weak(
                    head,
                    survivors,
                    Ordering::Release,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(current) => head = current,
                }
            }
        }
        freed
    }

    /// Number of slots currently claimed by live guards. Zero means no
    /// reader can block reclamation — the leak-detector oracle: after
    /// every guard drops, [`Domain::reclaim`] must drain [`DomainStats::pending`]
    /// to zero.
    #[must_use]
    pub fn active_guards(&self) -> usize {
        let mut count = 0;
        let mut cursor = self.slots.load(Ordering::Acquire);
        while !cursor.is_null() {
            // SAFETY: registry nodes live until `Domain::drop`.
            let slot = unsafe { &*cursor };
            if slot.in_use.load(Ordering::Acquire) {
                count += 1;
            }
            cursor = slot.next.cast_mut();
        }
        count
    }

    /// Current books. `pending` is counted by walking the retire list,
    /// so the [`DomainStats::conserves`] law is exact at quiescent
    /// points and may transiently undercount while a scan holds popped
    /// nodes in hand.
    #[must_use]
    pub fn stats(&self) -> DomainStats {
        let mut pending = 0u64;
        let mut cursor = self.retire_head.load(Ordering::Acquire);
        while !cursor.is_null() {
            pending += 1;
            // SAFETY: a node reachable from the head has been published
            // and not yet detached; it stays valid while reachable.
            cursor = unsafe { (*cursor).next };
        }
        DomainStats {
            retired: self.retired.load(Ordering::Relaxed),
            reclaimed: self.reclaimed.load(Ordering::Relaxed),
            pending,
        }
    }
}

impl Drop for Domain {
    fn drop(&mut self) {
        // `&mut self` proves no guard borrows the domain and no Shared
        // still holds an Arc to it, so every pending retiree is
        // unreachable: free unconditionally, then tear down the slots.
        let mut node = *self.retire_head.get_mut();
        while !node.is_null() {
            // SAFETY: exclusive access via `&mut self`; each node and
            // its payload are freed exactly once.
            unsafe {
                let next = (*node).next;
                ((*node).drop_fn)((*node).ptr);
                drop(Box::from_raw(node));
                self.reclaimed.fetch_add(1, Ordering::Relaxed);
                node = next;
            }
        }
        let mut slot = *self.slots.get_mut();
        while !slot.is_null() {
            // SAFETY: slots were leaked by `guard()` and never freed
            // until now; exclusive access via `&mut self`.
            unsafe {
                let next = (*slot).next.cast_mut();
                drop(Box::from_raw(slot));
                slot = next;
            }
        }
    }
}

/// A claimed hazard slot. One guard protects **at most one pointer at a
/// time**: [`Shared::load`] takes `&mut self`, so re-using the guard
/// for a second load ends the first borrow before the slot is
/// re-pointed — the type system enforces the single-slot discipline.
///
/// Dropping the guard clears the slot and releases it for reuse.
pub struct Guard<'d> {
    domain: &'d Domain,
    slot: &'d Slot,
}

impl std::fmt::Debug for Guard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Guard")
            .field("protecting", &self.slot.active.load(Ordering::Relaxed))
            .finish()
    }
}

impl Guard<'_> {
    /// Stops protecting whatever the last load protected, without
    /// releasing the slot. A long-lived reader calls this between
    /// batches so retirees it no longer references can be reclaimed.
    pub fn reset(&mut self) {
        self.slot.active.store(ptr::null_mut(), Ordering::Release);
    }

    /// True if this guard belongs to `domain`.
    fn covers(&self, domain: &Domain) -> bool {
        ptr::eq(self.domain, domain)
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        self.slot.active.store(ptr::null_mut(), Ordering::Release);
        self.slot.in_use.store(false, Ordering::Release);
    }
}

/// A shared, hazard-protected cell: always holds a value, readable from
/// any thread under a [`Guard`], replaceable from any thread with the
/// old value retired (never freed in place).
///
/// The cell keeps its domain alive (`Arc`), and retires its final value
/// through the domain on drop — so a value handed out to readers is
/// never freed behind their backs even while the cell itself dies.
pub struct Shared<T: Send + Sync + 'static> {
    ptr: AtomicPtr<T>,
    domain: Arc<Domain>,
    /// `Shared<T>` owns and drops a `T` and hands `&T` across threads.
    _marker: PhantomData<Box<T>>,
}

impl<T: Send + Sync + 'static> std::fmt::Debug for Shared<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared").finish_non_exhaustive()
    }
}

impl<T: Send + Sync + 'static> Shared<T> {
    /// Publishes `value` as the initial state, retiring through (and
    /// keeping alive) `domain`.
    #[must_use]
    pub fn new(value: Box<T>, domain: &Arc<Domain>) -> Self {
        Shared {
            ptr: AtomicPtr::new(Box::into_raw(value)),
            domain: Arc::clone(domain),
            _marker: PhantomData,
        }
    }

    /// Reads the current value under `guard`. The reference stays valid
    /// for as long as the guard borrow lasts: reclamation cannot free a
    /// protected value.
    ///
    /// # Panics
    ///
    /// If `guard` was acquired from a different [`Domain`] than this
    /// cell retires into — such a guard cannot block this cell's
    /// reclaimer, so honoring it would be a use-after-free.
    pub fn load<'g>(&self, guard: &'g mut Guard<'_>) -> &'g T {
        assert!(
            guard.covers(&self.domain),
            "hazard guard used against a Shared from a different Domain"
        );
        loop {
            let current = self.ptr.load(Ordering::Acquire);
            // Publish, then re-check (SeqCst on both sides of the
            // store/scan race — see module docs).
            guard
                .slot
                .active
                .store(current.cast::<()>(), Ordering::SeqCst);
            if self.ptr.load(Ordering::SeqCst) == current {
                // SAFETY: the pointer was published before the
                // re-check confirmed it was still current, so any
                // subsequent retire's scan sees the hazard; the value
                // cannot be freed while `guard` protects it, and the
                // returned borrow cannot outlive the guard borrow.
                return unsafe { &*current };
            }
            // Lost the race to a store: retry with the new pointer.
        }
    }

    /// Replaces the value, retiring the old one into the domain. The
    /// swap is wait-free for readers: a concurrent [`Shared::load`]
    /// either sees the old value (and keeps it alive via its guard) or
    /// the new one.
    pub fn store(&self, value: Box<T>) {
        let old = self.ptr.swap(Box::into_raw(value), Ordering::SeqCst);
        // SAFETY: `old` came from `Box::into_raw` (constructor or a
        // previous store) and ownership transfers to the retire list —
        // it is never touched through `self.ptr` again.
        unsafe { self.retire_raw(old) };
    }

    /// The domain this cell retires into (for acquiring matching
    /// guards and reading the reclamation books).
    #[must_use]
    pub fn domain(&self) -> &Arc<Domain> {
        &self.domain
    }

    /// Retires a pointer previously owned by this cell.
    ///
    /// # Safety
    ///
    /// `old` must have come from `Box::into_raw` and must no longer be
    /// reachable through `self.ptr`.
    unsafe fn retire_raw(&self, old: *mut T) {
        // Re-box and hand to the domain; retire() erases the type.
        // SAFETY: caller guarantees `old` is an unreachable Box raw.
        self.domain.retire(unsafe { Box::from_raw(old) });
    }
}

impl<T: Send + Sync + 'static> Drop for Shared<T> {
    fn drop(&mut self) {
        let old = *self.ptr.get_mut();
        // SAFETY: the final value is unreachable once the cell drops;
        // guards may still reference it, which is exactly why it goes
        // through the retire list instead of being freed here.
        unsafe { self.retire_raw(old) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;
    use std::thread;

    #[test]
    fn retire_then_reclaim_frees_without_guards() {
        let domain = Domain::new();
        domain.retire(Box::new(41u64));
        domain.retire(Box::new(42u64));
        assert_eq!(domain.stats().pending, 2);
        assert_eq!(domain.reclaim(), 2);
        let stats = domain.stats();
        assert_eq!(stats.reclaimed, 2);
        assert_eq!(stats.pending, 0);
        assert!(stats.conserves());
    }

    #[test]
    fn guard_blocks_reclaim_until_released() {
        let domain = Arc::new(Domain::new());
        let cell = Shared::new(Box::new(7u64), &domain);
        let mut guard = domain.guard();
        let value = cell.load(&mut guard);
        assert_eq!(*value, 7);
        cell.store(Box::new(8));
        // The old value is retired but protected: the scan must skip it.
        assert_eq!(domain.reclaim(), 0);
        assert_eq!(domain.stats().pending, 1);
        assert!(domain.stats().conserves());
        // New loads see the new value...
        assert_eq!(*cell.load(&mut guard), 8);
        // ...and re-pointing the guard released the old one.
        assert_eq!(domain.reclaim(), 1);
        assert!(domain.stats().conserves());
    }

    #[test]
    fn guard_reset_releases_protection() {
        let domain = Arc::new(Domain::new());
        let cell = Shared::new(Box::new(1u64), &domain);
        let mut guard = domain.guard();
        let _ = cell.load(&mut guard);
        cell.store(Box::new(2));
        assert_eq!(domain.reclaim(), 0, "still protected");
        guard.reset();
        assert_eq!(domain.reclaim(), 1, "reset unprotects");
    }

    #[test]
    fn slots_are_recycled_not_leaked() {
        let domain = Domain::new();
        for _ in 0..100 {
            let _guard = domain.guard();
        }
        // Sequential guards all reuse the one slot.
        let g1 = domain.guard();
        assert_eq!(domain.active_guards(), 1);
        let g2 = domain.guard();
        assert_eq!(domain.active_guards(), 2);
        drop(g1);
        drop(g2);
        assert_eq!(domain.active_guards(), 0);
    }

    #[test]
    fn amortized_scan_triggers_at_threshold() {
        let domain = Domain::new();
        for i in 0..SCAN_THRESHOLD - 1 {
            domain.retire(Box::new(i));
        }
        assert_eq!(domain.stats().reclaimed, 0, "below threshold: no scan");
        domain.retire(Box::new(0u64));
        let stats = domain.stats();
        assert_eq!(stats.reclaimed, SCAN_THRESHOLD, "threshold retire scanned");
        assert!(stats.conserves());
    }

    #[test]
    fn drop_drains_everything() {
        struct CountsDrops(Arc<AtomicUsize>);
        impl Drop for CountsDrops {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        {
            let domain = Arc::new(Domain::new());
            let cell = Shared::new(Box::new(CountsDrops(Arc::clone(&drops))), &domain);
            cell.store(Box::new(CountsDrops(Arc::clone(&drops))));
            cell.store(Box::new(CountsDrops(Arc::clone(&drops))));
            // cell drop retires the live value; domain drop frees all.
        }
        assert_eq!(drops.load(Ordering::Relaxed), 3);
    }

    #[test]
    #[should_panic(expected = "different Domain")]
    fn cross_domain_guard_is_rejected() {
        let a = Arc::new(Domain::new());
        let b = Arc::new(Domain::new());
        let cell = Shared::new(Box::new(1u64), &a);
        let mut wrong = b.guard();
        let _ = cell.load(&mut wrong);
    }

    #[test]
    fn concurrent_readers_and_writer_smoke() {
        const READERS: usize = 4;
        const STORES: u64 = 2_000;
        let domain = Arc::new(Domain::new());
        let cell = Arc::new(Shared::new(Box::new(0u64), &domain));
        let start = Arc::new(Barrier::new(READERS + 1));
        let mut handles = Vec::new();
        for _ in 0..READERS {
            let cell = Arc::clone(&cell);
            let domain = Arc::clone(&domain);
            let start = Arc::clone(&start);
            handles.push(thread::spawn(move || {
                start.wait();
                let mut guard = domain.guard();
                let mut last = 0u64;
                loop {
                    let value = *cell.load(&mut guard);
                    assert!(value >= last, "monotone writes observed out of order");
                    last = value;
                    if value == STORES {
                        break;
                    }
                }
            }));
        }
        start.wait();
        for i in 1..=STORES {
            cell.store(Box::new(i));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        drop(cell);
        while domain.reclaim() > 0 {}
        let stats = domain.stats();
        assert!(stats.conserves());
        // Everything retired was eventually freed (no guards remain).
        assert_eq!(stats.pending, 0);
        assert_eq!(stats.retired, STORES + 1);
    }
}
