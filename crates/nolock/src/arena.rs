//! Thread-local recycled frame buffers — the allocation-discipline
//! layer under the serving hot path.
//!
//! Every served request used to materialise as a fresh heap `Vec<u8>`
//! (frame extraction, handler response, steal hand-off), so allocator
//! traffic dominated the per-request cost once the hand-off itself went
//! lock-free. A [`FrameBuf`] is a `Vec<u8>` that remembers the worker
//! pool it was acquired from and, on `Drop`, returns its storage there:
//!
//! * **same thread** — the storage goes straight back onto the owning
//!   thread's size-classed free list. No atomics beyond a counter, no
//!   allocation.
//! * **cross thread** — a buffer handed to a thief or parked in a
//!   completion ring still finds its way home through a lock-free MPSC
//!   *return channel* ([`MpscQueue`]); the owner drains the channel
//!   into its free lists on the next acquire.
//!
//! Pooling is opt-in *per thread* ([`set_thread_pooling`]) so a
//! baseline run can measure the undisciplined path with the same code:
//! with pooling off, [`FrameBuf::acquire`] hands out a plain detached
//! buffer that frees on drop.
//!
//! Recycled storage is **cleared before reuse** and, under
//! `debug_assertions`, poisoned with `0xDB` before it is returned —
//! a recycled buffer can never alias a live payload, and a stale read
//! of returned storage shows up as poison, not as another request's
//! bytes.
//!
//! The module also carries the measurement harness for the discipline
//! itself: [`CountingAlloc`], a `#[global_allocator]` wrapper around
//! [`System`] that counts heap allocations made by explicitly opted-in
//! threads ([`count_allocs_on_this_thread`]) — what the e22 experiment
//! (`bench_report -- e22`) uses to report allocs-per-request with and
//! without pooling.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::mpsc::MpscQueue;

/// Size classes (capacity ceilings) for recycled buffers. Requests and
/// responses in the evaluation workloads are tens-to-hundreds of
/// bytes; the top class absorbs large staged runs.
const CLASSES: [usize; 5] = [64, 256, 1024, 4096, 16384];

/// Per-class bound on retained free buffers: beyond this, returned
/// storage is simply freed so an idle pool cannot hoard memory.
const PER_CLASS: usize = 64;

/// Poison byte written over returned storage under `debug_assertions`.
#[cfg(debug_assertions)]
const POISON: u8 = 0xDB;

/// The smallest class index whose ceiling holds `len` bytes, or `None`
/// when `len` exceeds the largest class (such buffers are not pooled).
fn class_of(len: usize) -> Option<usize> {
    CLASSES.iter().position(|&ceiling| len <= ceiling)
}

/// The shared half of one thread's pool: the cross-thread return
/// channel plus the recycling counters. `FrameBuf`s hold an `Arc` to
/// their home so a drop on any thread can find the channel.
struct PoolShared {
    /// Buffers dropped on foreign threads, heading home.
    returns: MpscQueue<Vec<u8>>,
    acquires: AtomicU64,
    reuses: AtomicU64,
    returns_kept: AtomicU64,
    fresh: AtomicU64,
}

impl PoolShared {
    fn new() -> Self {
        PoolShared {
            returns: MpscQueue::new(),
            acquires: AtomicU64::new(0),
            reuses: AtomicU64::new(0),
            returns_kept: AtomicU64::new(0),
            fresh: AtomicU64::new(0),
        }
    }
}

/// The thread-confined half: size-classed free lists only the owning
/// thread touches.
struct LocalPool {
    shared: Arc<PoolShared>,
    free: [Vec<Vec<u8>>; CLASSES.len()],
}

impl LocalPool {
    fn new() -> Self {
        LocalPool {
            shared: Arc::new(PoolShared::new()),
            free: Default::default(),
        }
    }

    /// Files returned storage onto its free list (bounded); oversized
    /// or surplus storage is freed instead of hoarded.
    fn retain(&mut self, bytes: Vec<u8>) {
        if let Some(class) = class_of(bytes.capacity()) {
            if self.free[class].len() < PER_CLASS {
                self.free[class].push(bytes);
                self.shared.returns_kept.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Drains the cross-thread return channel into the free lists.
    /// `len() > 0` with `pop() == None` is the MPSC head-blocked
    /// window; a bounded spin is enough because producers finish their
    /// two-instruction publication promptly.
    fn drain_returns(&mut self) {
        while !self.shared.returns.is_empty() {
            match self.shared.returns.pop() {
                Some(bytes) => self.retain(bytes),
                None => std::hint::spin_loop(),
            }
        }
    }

    fn acquire(&mut self, hint: usize) -> FrameBuf {
        self.drain_returns();
        self.shared.acquires.fetch_add(1, Ordering::Relaxed);
        let class = class_of(hint.max(1));
        if let Some(class) = class {
            // Exact class first, then any larger one: a bigger
            // recycled buffer beats a fresh allocation.
            for c in class..CLASSES.len() {
                if let Some(mut bytes) = self.free[c].pop() {
                    bytes.clear();
                    self.shared.reuses.fetch_add(1, Ordering::Relaxed);
                    return FrameBuf {
                        bytes,
                        home: Some(Arc::clone(&self.shared)),
                    };
                }
            }
        }
        self.shared.fresh.fetch_add(1, Ordering::Relaxed);
        let capacity = class.map_or(hint, |c| CLASSES[c]);
        FrameBuf {
            bytes: Vec::with_capacity(capacity),
            home: Some(Arc::clone(&self.shared)),
        }
    }
}

thread_local! {
    /// This thread's pool, created lazily on the first pooled acquire.
    static POOL: RefCell<Option<LocalPool>> = const { RefCell::new(None) };
    /// Whether [`FrameBuf::acquire`] pools on this thread.
    static POOLING: Cell<bool> = const { Cell::new(false) };
}

/// Enables or disables frame-buffer pooling for the *current* thread.
///
/// Runtime workers enable it at startup from their own thread; threads
/// that never opt in get plain detached buffers from
/// [`FrameBuf::acquire`], so library code can acquire unconditionally.
pub fn set_thread_pooling(enabled: bool) {
    POOLING.with(|p| p.set(enabled));
}

/// Recycling counters of the current thread's pool (zeros when the
/// thread never pooled). `acquires == reuses + fresh_allocs` by
/// construction; `returns` counts storage actually retained on a free
/// list, whether it came back same-thread or through the channel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Pooled [`FrameBuf::acquire`] calls served by this thread's pool.
    pub acquires: u64,
    /// Acquires satisfied from recycled storage.
    pub reuses: u64,
    /// Buffers whose storage was retained for reuse on return.
    pub returns: u64,
    /// Acquires that had to allocate fresh storage.
    pub fresh_allocs: u64,
}

/// Reads the current thread's [`ArenaStats`].
#[must_use]
pub fn thread_stats() -> ArenaStats {
    POOL.with(|pool| {
        pool.borrow().as_ref().map_or(ArenaStats::default(), |p| {
            // Bank any storage already home but still in the channel,
            // so an exit-time snapshot sees settled return counts.
            ArenaStats {
                acquires: p.shared.acquires.load(Ordering::Relaxed),
                reuses: p.shared.reuses.load(Ordering::Relaxed),
                returns: p.shared.returns_kept.load(Ordering::Relaxed),
                fresh_allocs: p.shared.fresh.load(Ordering::Relaxed),
            }
        })
    })
}

/// A recyclable frame buffer: a `Vec<u8>` that returns its storage to
/// the worker pool it was acquired from when dropped — on any thread.
///
/// Dereferences to `Vec<u8>`, so slicing, `extend_from_slice`,
/// `starts_with` and friends all work directly. Buffers obtained via
/// `From<Vec<u8>>` (or on threads without pooling) are *detached*:
/// they behave exactly like the `Vec` they wrap and free on drop.
pub struct FrameBuf {
    bytes: Vec<u8>,
    home: Option<Arc<PoolShared>>,
}

impl FrameBuf {
    /// Acquires a buffer with at least `hint` bytes of capacity —
    /// recycled from the current thread's pool when pooling is enabled
    /// ([`set_thread_pooling`]), freshly allocated and detached
    /// otherwise.
    #[must_use]
    pub fn acquire(hint: usize) -> FrameBuf {
        let pooled = POOLING.try_with(Cell::get).unwrap_or(false);
        if !pooled {
            return FrameBuf::detached(Vec::with_capacity(hint));
        }
        POOL.with(|pool| {
            pool.borrow_mut()
                .get_or_insert_with(LocalPool::new)
                .acquire(hint)
        })
    }

    /// Wraps an existing `Vec` without attaching it to any pool; the
    /// storage frees normally on drop.
    #[must_use]
    pub fn detached(bytes: Vec<u8>) -> FrameBuf {
        FrameBuf { bytes, home: None }
    }

    /// Whether this buffer will return to a pool on drop.
    #[must_use]
    pub fn is_pooled(&self) -> bool {
        self.home.is_some()
    }

    /// Extracts the bytes, detaching them from the pool (the storage
    /// is handed to the caller instead of recycled).
    #[must_use]
    pub fn into_vec(mut self) -> Vec<u8> {
        std::mem::take(&mut self.bytes)
    }
}

impl Drop for FrameBuf {
    fn drop(&mut self) {
        let Some(home) = self.home.take() else {
            return;
        };
        let mut bytes = std::mem::take(&mut self.bytes);
        if bytes.capacity() == 0 || class_of(bytes.capacity()).is_none() {
            return;
        }
        // Poison before the storage can be observed anywhere else: a
        // use-after-return reads 0xDB, never another request's bytes.
        #[cfg(debug_assertions)]
        bytes.iter_mut().for_each(|b| *b = POISON);
        bytes.clear();
        // Same-thread fast path: straight onto the local free list.
        // `try_with` (not `with`): drops can run during thread-local
        // teardown, where the slot is already gone.
        let kept_locally = POOL
            .try_with(|pool| {
                if let Ok(mut slot) = pool.try_borrow_mut() {
                    if let Some(local) = slot.as_mut() {
                        if Arc::ptr_eq(&local.shared, &home) {
                            local.retain(std::mem::take(&mut bytes));
                            return true;
                        }
                    }
                }
                false
            })
            .unwrap_or(false);
        if !kept_locally {
            // Foreign thread (a thief, a completion consumer): send
            // the storage home. A failed push (unreachable: the
            // channel is never closed) just frees the storage.
            let _ = home.returns.push(bytes);
        }
    }
}

impl std::ops::Deref for FrameBuf {
    type Target = Vec<u8>;
    fn deref(&self) -> &Vec<u8> {
        &self.bytes
    }
}

impl std::ops::DerefMut for FrameBuf {
    fn deref_mut(&mut self) -> &mut Vec<u8> {
        &mut self.bytes
    }
}

impl std::fmt::Debug for FrameBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.bytes.fmt(f)
    }
}

impl Default for FrameBuf {
    fn default() -> Self {
        FrameBuf::detached(Vec::new())
    }
}

impl Clone for FrameBuf {
    /// Deep copy, detached: clones never share or inherit a pool.
    fn clone(&self) -> Self {
        FrameBuf::detached(self.bytes.clone())
    }
}

impl From<Vec<u8>> for FrameBuf {
    fn from(bytes: Vec<u8>) -> Self {
        FrameBuf::detached(bytes)
    }
}

impl From<&[u8]> for FrameBuf {
    fn from(bytes: &[u8]) -> Self {
        FrameBuf::detached(bytes.to_vec())
    }
}

impl IntoIterator for FrameBuf {
    type Item = u8;
    type IntoIter = std::vec::IntoIter<u8>;
    /// Consumes the buffer into a byte iterator. The storage moves to
    /// the iterator instead of returning to the pool.
    fn into_iter(mut self) -> Self::IntoIter {
        std::mem::take(&mut self.bytes).into_iter()
    }
}

impl PartialEq for FrameBuf {
    fn eq(&self, other: &Self) -> bool {
        self.bytes == other.bytes
    }
}

impl Eq for FrameBuf {}

impl PartialEq<Vec<u8>> for FrameBuf {
    fn eq(&self, other: &Vec<u8>) -> bool {
        &self.bytes == other
    }
}

impl PartialEq<FrameBuf> for Vec<u8> {
    fn eq(&self, other: &FrameBuf) -> bool {
        self == &other.bytes
    }
}

impl PartialEq<[u8]> for FrameBuf {
    fn eq(&self, other: &[u8]) -> bool {
        self.bytes == other
    }
}

impl PartialEq<&[u8]> for FrameBuf {
    fn eq(&self, other: &&[u8]) -> bool {
        self.bytes == *other
    }
}

impl<const N: usize> PartialEq<[u8; N]> for FrameBuf {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.bytes == other
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for FrameBuf {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.bytes == *other
    }
}

// ---------------------------------------------------------------------
// The counting-allocator harness.
// ---------------------------------------------------------------------

/// Heap allocations made by opted-in threads since process start.
static COUNTED_ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether this thread's allocations are counted.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

#[inline]
fn note_alloc() {
    // `try_with`: the allocator runs during thread-local teardown too.
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        COUNTED_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Opts the current thread in (or out) of allocation counting under a
/// [`CountingAlloc`] global allocator. Worker threads call this from
/// their handler factory so allocs-per-request measures the serving
/// path, not the load generator.
pub fn count_allocs_on_this_thread(enabled: bool) {
    COUNTING.with(|c| c.set(enabled));
}

/// Total heap allocations made so far by threads that opted in via
/// [`count_allocs_on_this_thread`]. Monotonic; measure phases by
/// differencing.
#[must_use]
pub fn counted_allocs() -> u64 {
    COUNTED_ALLOCS.load(Ordering::Relaxed)
}

/// A `#[global_allocator]` wrapper around [`System`] that counts
/// allocation events (alloc, zeroed alloc, realloc) made by opted-in
/// threads. Uncounted threads pay one thread-local read per event.
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: sdrad_nolock::CountingAlloc = sdrad_nolock::CountingAlloc::new();
/// ```
pub struct CountingAlloc;

impl CountingAlloc {
    /// The wrapper (stateless: counters are module statics).
    #[must_use]
    pub const fn new() -> Self {
        CountingAlloc
    }
}

impl Default for CountingAlloc {
    fn default() -> Self {
        Self::new()
    }
}

// SAFETY: every method delegates directly to `System`, which upholds
// the `GlobalAlloc` contract; the counter bump neither allocates nor
// observes the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: forwarded verbatim; caller upholds `layout` validity.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: forwarded verbatim; caller upholds `layout` validity.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; caller guarantees `ptr`/`layout`
        // came from this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        // SAFETY: forwarded verbatim; caller guarantees `ptr`/`layout`
        // came from this allocator and `new_size` is valid.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unpooled_threads_get_detached_buffers() {
        // Each libtest test runs on its own thread; pooling defaults off.
        let buf = FrameBuf::acquire(32);
        assert!(!buf.is_pooled());
        assert_eq!(thread_stats(), ArenaStats::default());
    }

    #[test]
    fn same_thread_drop_recycles_storage() {
        set_thread_pooling(true);
        let mut a = FrameBuf::acquire(100);
        a.extend_from_slice(b"hello frame");
        assert!(a.is_pooled());
        drop(a);
        let b = FrameBuf::acquire(100);
        assert!(b.is_empty(), "recycled buffers come back cleared");
        assert!(b.capacity() >= 100);
        let stats = thread_stats();
        assert_eq!(stats.acquires, 2);
        assert_eq!(stats.reuses, 1);
        assert_eq!(stats.fresh_allocs, 1);
        assert_eq!(stats.returns, 1);
        assert_eq!(stats.acquires, stats.reuses + stats.fresh_allocs);
    }

    #[test]
    fn cross_thread_drop_returns_home_through_the_channel() {
        set_thread_pooling(true);
        let buf = FrameBuf::acquire(64);
        std::thread::spawn(move || drop(buf)).join().unwrap();
        // The next acquire drains the return channel and reuses.
        let again = FrameBuf::acquire(64);
        assert!(again.is_pooled());
        let stats = thread_stats();
        assert_eq!(stats.reuses, 1, "channel-returned storage is reused");
        assert_eq!(stats.returns, 1);
    }

    #[test]
    fn oversized_buffers_are_never_pooled() {
        set_thread_pooling(true);
        let huge = FrameBuf::acquire(CLASSES[CLASSES.len() - 1] + 1);
        drop(huge);
        assert_eq!(thread_stats().returns, 0, "oversized storage is freed");
    }

    #[test]
    fn detached_conversions_round_trip() {
        let buf: FrameBuf = b"abc".to_vec().into();
        assert!(!buf.is_pooled());
        assert_eq!(buf, b"abc");
        assert_eq!(buf, b"abc".to_vec());
        assert_eq!(buf.clone(), buf);
        let collected: Vec<u8> = buf.into_iter().collect();
        assert_eq!(collected, b"abc");
    }

    #[test]
    fn into_vec_detaches_the_storage() {
        set_thread_pooling(true);
        let mut buf = FrameBuf::acquire(16);
        buf.extend_from_slice(b"keep me");
        let v = buf.into_vec();
        assert_eq!(v, b"keep me");
        assert_eq!(thread_stats().returns, 0, "extracted storage never returns");
    }

    #[test]
    fn larger_classes_satisfy_smaller_hints() {
        set_thread_pooling(true);
        drop(FrameBuf::acquire(CLASSES[2])); // retained in class 2
        let small = FrameBuf::acquire(8);
        assert!(
            small.capacity() >= CLASSES[2],
            "bigger recycled beats fresh"
        );
        assert_eq!(thread_stats().reuses, 1);
    }

    #[test]
    fn counting_scope_is_per_thread() {
        let before = counted_allocs();
        let _v: Vec<u8> = Vec::with_capacity(128); // this thread: not opted in
        assert_eq!(counted_allocs(), before, "untracked thread never counts");
        // NOTE: positive counting is exercised by e22, which installs
        // CountingAlloc as the global allocator; unit tests here run
        // under the default allocator so only the scoping is testable.
        count_allocs_on_this_thread(true);
        count_allocs_on_this_thread(false);
    }
}
