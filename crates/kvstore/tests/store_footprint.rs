//! The store's footprint, pinned: a populated store holds one heap
//! allocation per entry (its key and value bytes) plus each shard's
//! slab and index, and a `get` hit or a same-length replacing `set`
//! allocates nothing. The benchmark's kv shards hold 10 000 keys of
//! 64-byte values; at that size the store's slot-and-index layout
//! requests about 180 bytes per entry.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sdrad_kvstore::{Store, StoreConfig};

/// Counts this thread's heap traffic while armed: live allocations and
/// live requested bytes (signed, as frees of older blocks count too),
/// and allocations made.
struct Counting;

#[derive(Clone, Copy, Default)]
struct Books {
    live_allocs: i64,
    live_bytes: i64,
    allocs: u64,
}

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static BOOKS: Cell<Books> = const {
        Cell::new(Books { live_allocs: 0, live_bytes: 0, allocs: 0 })
    };
}

fn book(allocs: i64, bytes: i64, made: u64) {
    if ARMED.get() {
        let mut books = BOOKS.get();
        books.live_allocs += allocs;
        books.live_bytes += bytes;
        books.allocs += made;
        BOOKS.set(books);
    }
}

// SAFETY: every call forwards to `System` unchanged; the bookkeeping
// touches only const-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        book(1, layout.size() as i64, 1);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        book(-1, -(layout.size() as i64), 0);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        book(0, new_size as i64 - layout.size() as i64, 1);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// This thread's heap traffic while `f` runs.
fn counted<R>(f: impl FnOnce() -> R) -> (R, Books) {
    BOOKS.set(Books::default());
    ARMED.set(true);
    let value = f();
    ARMED.set(false);
    (value, BOOKS.get())
}

/// The benchmark's shard: 10 000 keys of 64-byte values.
const KEYS: usize = 10_000;
const VALUE_LEN: usize = 64;
/// Requested heap bytes per entry: its key and value (72 B on average
/// here) plus its share of the slab's 48-byte slots and of the index's
/// 16-byte buckets, both at their power-of-two capacity.
const MAX_BYTES_PER_ENTRY: f64 = 190.0;

fn key(k: usize) -> String {
    format!("key-{k}")
}

fn value(k: usize) -> Vec<u8> {
    vec![(k % 251) as u8; VALUE_LEN]
}

fn populated() -> (Store, Books) {
    let config = StoreConfig::default();
    counted(|| {
        let mut store = Store::new(config);
        for k in 0..KEYS {
            store.set(key(k), value(k));
        }
        store
    })
}

#[test]
fn an_entry_is_one_allocation_of_under_190_bytes() {
    let (store, books) = populated();
    assert_eq!(store.len(), KEYS);
    // One block per entry, plus the shard list and each shard's slab
    // and index.
    let shards = StoreConfig::default().shards as i64;
    let most = KEYS as i64 + 1 + 2 * shards;
    assert!(
        books.live_allocs <= most,
        "{KEYS} entries hold {} live allocations (limit {most})",
        books.live_allocs
    );
    let per_entry = books.live_bytes as f64 / KEYS as f64;
    assert!(
        per_entry <= MAX_BYTES_PER_ENTRY,
        "an entry holds {per_entry:.1} requested heap bytes (limit {MAX_BYTES_PER_ENTRY})"
    );
}

#[test]
fn a_hit_and_a_same_length_replacement_allocate_nothing() {
    let (mut store, _) = populated();
    let hit = key(4_321);
    let (found, books) = counted(|| store.get(&hit).map(<[u8]>::len));
    assert_eq!(found, Some(VALUE_LEN));
    assert_eq!(
        books.allocs, 0,
        "a get hit allocated {} times",
        books.allocs
    );

    // The caller's key and value are built outside the count: the store
    // copies the value over the old one and frees both.
    let (replaced_key, replacement) = (key(4_321), vec![7u8; VALUE_LEN]);
    let ((), books) = counted(|| store.set(replaced_key, replacement));
    assert_eq!(
        books.allocs, 0,
        "a same-length replacement allocated {} times",
        books.allocs
    );
    assert_eq!(store.get(&hit), Some(&[7u8; VALUE_LEN][..]));
    assert_eq!(store.len(), KEYS);
}
