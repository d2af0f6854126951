//! The sharded LRU store, its snapshot/restore (restart) path and the
//! in-place equivalent, [`Store::reload`].
//!
//! A shard keeps its items in a slab of 48-byte [`Slot`]s, one heap
//! allocation per item: a boxed slice holding the key's bytes and then
//! the value's. The slot also carries the item's tick and TTL deadline,
//! its links in the shard's recency list and its link to the next slot
//! whose key has the same hash. An index maps a key's 64-bit hash to the
//! first slot of that chain. The hash is keyed by one std `RandomState`
//! per store, so an attacker can no more aim keys at one chain than at
//! one bucket of a `HashMap<String, _>`. A hit hashes the key once,
//! walks its chain and relinks the slot at the recency list's tail.

use std::collections::hash_map::{self, HashMap, RandomState};
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};

/// Configuration of a [`Store`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// Number of hash shards.
    pub shards: usize,
    /// Byte budget per shard (keys + values); LRU eviction beyond this.
    pub shard_capacity: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            shards: 8,
            shard_capacity: 16 << 20,
        }
    }
}

/// Store-wide counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// `get` hits.
    pub hits: u64,
    /// `get` misses.
    pub misses: u64,
    /// Successful `set`s.
    pub sets: u64,
    /// Successful `delete`s.
    pub deletes: u64,
    /// Entries evicted by the LRU policy.
    pub evictions: u64,
    /// Entries dropped because their TTL passed (lazy expiry).
    pub expired: u64,
    /// Entries currently stored.
    pub entries: u64,
    /// Bytes currently stored (keys + values).
    pub bytes: u64,
}

/// The end of a list: no slot.
const NIL: u32 = u32::MAX;

/// The `key_len` of a vacant slot.
const VACANT: u32 = u32::MAX;

/// One item of a shard, or a vacant place for one.
#[derive(Debug)]
struct Slot {
    /// The key's bytes, then the value's; empty while vacant.
    data: Box<[u8]>,
    tick: u64,
    /// Logical-clock deadline after which the item is expired
    /// (`u64::MAX` = no TTL). Expiry is lazy, like memcached's.
    expires_at: u64,
    /// The less recently used neighbour.
    prev: u32,
    /// The more recently used neighbour; while vacant, the next vacant
    /// slot.
    next: u32,
    /// The next slot whose key has the same hash.
    chain: u32,
    /// How many bytes of `data` are the key; [`VACANT`] while vacant.
    key_len: u32,
}

const _: () = assert!(std::mem::size_of::<Slot>() == 48);

impl Slot {
    fn is_vacant(&self) -> bool {
        self.key_len == VACANT
    }

    fn key(&self) -> &[u8] {
        &self.data[..self.key_len as usize]
    }

    fn value(&self) -> &[u8] {
        &self.data[self.key_len as usize..]
    }

    /// The key as stored: it came in as a `&str`.
    fn key_str(&self) -> &str {
        std::str::from_utf8(self.key()).expect("keys are stored from `&str`")
    }
}

/// The key, then the value, in one allocation of exactly their length.
fn join(key: &[u8], value: &[u8]) -> Box<[u8]> {
    let mut data = Vec::with_capacity(key.len() + value.len());
    data.extend_from_slice(key);
    data.extend_from_slice(value);
    data.into_boxed_slice()
}

/// The keyed hash a store files its keys under, shared by its shards.
#[derive(Debug, Clone)]
struct KeyHash {
    state: RandomState,
    /// Test builds only: every key hashes alike, so each shard's items
    /// share one chain.
    #[cfg(test)]
    one_hash: bool,
}

impl KeyHash {
    fn new() -> Self {
        KeyHash {
            state: RandomState::new(),
            #[cfg(test)]
            one_hash: tests::ONE_HASH.get(),
        }
    }

    fn of(&self, key: &[u8]) -> u64 {
        #[cfg(test)]
        if self.one_hash {
            return 0;
        }
        self.state.hash_one(key)
    }
}

/// The index's hasher: its keys are [`KeyHash`] outputs already, so it
/// passes them through.
#[derive(Default)]
struct Prehashed(u64);

impl Hasher for Prehashed {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("the index is keyed by u64 hashes only")
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

/// One LRU shard: a slab of slots, the hash index into it and a
/// Memcached-style recency list threaded through the slots by index,
/// `head` the least and `tail` the most recently used. Refreshing an
/// item relinks its slot: no hashing beyond the lookup, no allocation.
/// Freed slots wait on the vacant list for the next insert.
#[derive(Debug)]
struct Shard {
    slots: Vec<Slot>,
    /// Key hash → first slot of the chain of keys with that hash.
    index: HashMap<u64, u32, BuildHasherDefault<Prehashed>>,
    hash: KeyHash,
    /// First vacant slot; the rest follow through `next`.
    vacant: u32,
    head: u32,
    tail: u32,
    bytes: usize,
    next_tick: u64,
}

impl Shard {
    fn new(hash: KeyHash) -> Self {
        Shard {
            slots: Vec::new(),
            index: HashMap::default(),
            hash,
            vacant: NIL,
            head: NIL,
            tail: NIL,
            bytes: 0,
            next_tick: 0,
        }
    }

    /// The occupied slots, in slab order.
    fn live(&self) -> impl Iterator<Item = &Slot> {
        self.slots.iter().filter(|slot| !slot.is_vacant())
    }

    /// The slot holding `key`, through the chain of its `hash`.
    fn find(&self, hash: u64, key: &[u8]) -> Option<u32> {
        let mut at = *self.index.get(&hash)?;
        while at != NIL {
            let slot = &self.slots[at as usize];
            if slot.key() == key {
                return Some(at);
            }
            at = slot.chain;
        }
        None
    }

    fn get(&mut self, key: &str, now: u64, stats: &mut StoreStats) -> Option<&[u8]> {
        let hash = self.hash.of(key.as_bytes());
        let at = self.find(hash, key.as_bytes())?;
        let slot = &mut self.slots[at as usize];
        if slot.expires_at != u64::MAX && slot.expires_at <= now {
            // Lazy expiry, memcached-style: reap on access.
            let freed = self.unfile(at, hash);
            stats.entries -= 1;
            stats.bytes -= freed as u64;
            stats.expired += 1;
            return None;
        }
        slot.tick = self.next_tick;
        self.next_tick += 1;
        self.touch(at);
        Some(self.slots[at as usize].value())
    }

    fn insert(
        &mut self,
        key: &[u8],
        value: &[u8],
        expires_at: u64,
        capacity: usize,
        stats: &mut StoreStats,
    ) {
        let size = key.len() + value.len();
        let tick = self.next_tick;
        self.next_tick += 1;
        let hash = self.hash.of(key);
        if let Some(at) = self.find(hash, key) {
            // A replacement: the old value's bytes go, the slot moves to
            // the most recent end. A value of the same length is copied
            // over the old one.
            let slot = &mut self.slots[at as usize];
            let old = slot.data.len();
            self.bytes -= old;
            stats.bytes -= old as u64;
            if old == size {
                slot.data[key.len()..].copy_from_slice(value);
            } else {
                slot.data = join(key, value);
            }
            slot.tick = tick;
            slot.expires_at = expires_at;
            self.touch(at);
        } else {
            let at = self.claim(Slot {
                data: join(key, value),
                tick,
                expires_at,
                prev: NIL,
                next: NIL,
                chain: NIL,
                key_len: u32::try_from(key.len()).expect("a key shorter than 4 GiB"),
            });
            if let Some(first) = self.index.insert(hash, at) {
                self.slots[at as usize].chain = first;
            }
            self.link_back(at);
            stats.entries += 1;
        }
        self.bytes += size;
        stats.bytes += size as u64;

        // Evict least-recently-used entries until within budget (never the
        // entry just inserted, which is the list's tail — unless it alone
        // exceeds the budget, in which case it goes too).
        while self.bytes > capacity && self.head != NIL {
            let lru = self.head;
            let hash = self.hash.of(self.slots[lru as usize].key());
            let freed = self.unfile(lru, hash);
            stats.entries -= 1;
            stats.bytes -= freed as u64;
            stats.evictions += 1;
        }
    }

    /// Removes `key`, returning the bytes it freed.
    fn remove(&mut self, key: &str) -> Option<usize> {
        let hash = self.hash.of(key.as_bytes());
        let at = self.find(hash, key.as_bytes())?;
        Some(self.unfile(at, hash))
    }

    /// Files `slot` in a vacant place, or at the slab's end.
    fn claim(&mut self, slot: Slot) -> u32 {
        if self.vacant == NIL {
            let at = u32::try_from(self.slots.len())
                .ok()
                .filter(|&at| at != NIL)
                .expect("a shard holds fewer than 2^32 - 1 items");
            self.slots.push(slot);
            at
        } else {
            let at = self.vacant;
            self.vacant = self.slots[at as usize].next;
            self.slots[at as usize] = slot;
            at
        }
    }

    /// Takes the item at `at` out of its `hash` chain and the recency
    /// list, frees its bytes and files the slot vacant. Returns the
    /// bytes freed.
    fn unfile(&mut self, at: u32, hash: u64) -> usize {
        let chain = self.slots[at as usize].chain;
        let hash_map::Entry::Occupied(mut first) = self.index.entry(hash) else {
            unreachable!("a stored key's hash is indexed");
        };
        if *first.get() == at {
            if chain == NIL {
                first.remove();
            } else {
                *first.get_mut() = chain;
            }
        } else {
            let mut before = *first.get();
            while self.slots[before as usize].chain != at {
                before = self.slots[before as usize].chain;
            }
            self.slots[before as usize].chain = chain;
        }
        self.unlink(at);
        let slot = &mut self.slots[at as usize];
        let freed = std::mem::take(&mut slot.data).len();
        slot.key_len = VACANT;
        slot.chain = NIL;
        slot.next = self.vacant;
        self.vacant = at;
        self.bytes -= freed;
        freed
    }

    /// Links an unlinked slot as the most recently used.
    fn link_back(&mut self, at: u32) {
        let tail = self.tail;
        let slot = &mut self.slots[at as usize];
        slot.prev = tail;
        slot.next = NIL;
        if tail == NIL {
            self.head = at;
        } else {
            self.slots[tail as usize].next = at;
        }
        self.tail = at;
    }

    fn unlink(&mut self, at: u32) {
        let (prev, next) = {
            let slot = &self.slots[at as usize];
            (slot.prev, slot.next)
        };
        if prev == NIL {
            self.head = next;
        } else {
            self.slots[prev as usize].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slots[next as usize].prev = prev;
        }
    }

    /// Marks the slot the most recently used.
    fn touch(&mut self, at: u32) {
        self.unlink(at);
        self.link_back(at);
    }

    /// Renumbers the shard as re-inserting its entries in slab order
    /// would: ticks `0..n` in that order, every TTL dropped, the recency
    /// list relinked in that order. Nothing is sorted, copied or
    /// re-hashed.
    fn reload(&mut self) {
        self.head = NIL;
        self.tail = NIL;
        let mut tick = 0;
        for at in 0..self.slots.len() as u32 {
            let slot = &mut self.slots[at as usize];
            if slot.is_vacant() {
                continue;
            }
            slot.tick = tick;
            slot.expires_at = u64::MAX;
            tick += 1;
            self.link_back(at);
        }
        self.next_tick = tick;
    }
}

/// A point-in-time copy of the store's contents, the source for the
/// restart path (a real Memcached reloads from a backing database; the
/// time both take scales with the data volume, which is what experiments
/// E2/E3 measure).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    entries: Vec<(String, Vec<u8>)>,
}

impl Snapshot {
    /// Number of entries captured.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the snapshot is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total payload bytes (keys + values) captured.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.entries
            .iter()
            .map(|(k, v)| (k.len() + v.len()) as u64)
            .sum()
    }
}

/// The shard `key` lives in: FNV-1a over the key, reduced to the shard
/// count.
fn shard_index(key: &str, shards: usize) -> usize {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in key.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x1000_0000_01b3);
    }
    (hash % shards as u64) as usize
}

/// The sharded LRU cache.
#[derive(Debug)]
pub struct Store {
    pub(crate) config: StoreConfig,
    shards: Vec<Shard>,
    stats: StoreStats,
    /// Logical clock for TTL expiry, advanced by [`Store::advance`].
    now: u64,
}

impl Store {
    /// Creates an empty store.
    ///
    /// # Panics
    ///
    /// Panics if `config.shards` is zero.
    #[must_use]
    pub fn new(config: StoreConfig) -> Self {
        assert!(config.shards > 0, "at least one shard required");
        let hash = KeyHash::new();
        Store {
            shards: (0..config.shards)
                .map(|_| Shard::new(hash.clone()))
                .collect(),
            config,
            stats: StoreStats::default(),
            now: 0,
        }
    }

    fn shard_for(&self, key: &str) -> usize {
        shard_index(key, self.shards.len())
    }

    /// Looks up `key`, refreshing its recency, and lends out its value.
    /// Entries whose TTL passed are reaped lazily and reported as
    /// misses. A hit hashes the key once, makes one index lookup and
    /// allocates nothing.
    pub fn get(&mut self, key: &str) -> Option<&[u8]> {
        let shard = self.shard_for(key);
        let now = self.now;
        let result = self.shards[shard].get(key, now, &mut self.stats);
        if result.is_some() {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        result
    }

    /// Inserts or replaces `key` with no TTL, evicting LRU entries past
    /// the budget.
    pub fn set(&mut self, key: impl Into<String>, value: Vec<u8>) {
        self.set_with_ttl(key, value, None);
    }

    /// Inserts or replaces `key`; `ttl` is a logical-clock lifetime (see
    /// [`advance`](Self::advance)), `None` for immortal entries.
    /// A replacement by a value of the same length is copied over the
    /// old one and allocates nothing.
    pub fn set_with_ttl(&mut self, key: impl Into<String>, value: Vec<u8>, ttl: Option<u64>) {
        self.insert(&key.into(), &value, ttl);
    }

    /// [`set_with_ttl`](Self::set_with_ttl) from borrowed bytes: the
    /// item's one allocation is the only copy made.
    fn insert(&mut self, key: &str, value: &[u8], ttl: Option<u64>) {
        let shard = self.shard_for(key);
        let capacity = self.config.shard_capacity;
        let expires_at = match ttl {
            Some(ticks) => self.now.saturating_add(ticks),
            None => u64::MAX,
        };
        let stats = &mut self.stats;
        self.shards[shard].insert(key.as_bytes(), value, expires_at, capacity, stats);
        self.stats.sets += 1;
    }

    /// Advances the logical TTL clock by `ticks`. Servers call this once
    /// per request (or per second of wall time, at their choice of
    /// resolution).
    pub fn advance(&mut self, ticks: u64) {
        self.now = self.now.saturating_add(ticks);
    }

    /// The current logical time.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Removes `key`, returning whether it existed.
    pub fn delete(&mut self, key: &str) -> bool {
        let shard = self.shard_for(key);
        if let Some(freed) = self.shards[shard].remove(key) {
            self.stats.entries -= 1;
            self.stats.bytes -= freed as u64;
            self.stats.deletes += 1;
            true
        } else {
            false
        }
    }

    /// Drops every entry.
    pub fn flush(&mut self) {
        for shard in &mut self.shards {
            *shard = Shard::new(shard.hash.clone());
        }
        self.stats.entries = 0;
        self.stats.bytes = 0;
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Entries currently stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.stats.entries as usize
    }

    /// Whether the store holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.stats.entries == 0
    }

    /// Captures the full contents (ordered by shard, then by slot).
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let mut entries = Vec::with_capacity(self.len());
        entries.extend(
            self.entries()
                .map(|(key, value)| (key.to_owned(), value.to_vec())),
        );
        Snapshot { entries }
    }

    /// Every entry, borrowed, in the order [`snapshot`](Self::snapshot)
    /// copies them. Reading does not refresh recency.
    pub fn entries(&self) -> impl Iterator<Item = (&str, &[u8])> {
        self.shards
            .iter()
            .flat_map(|shard| shard.live().map(|slot| (slot.key_str(), slot.value())))
    }

    /// The restart path: rebuilds a fresh store from a snapshot. The cost
    /// of this call is what a process/container restart pays *on top of*
    /// its fixed startup cost, and it scales linearly with data volume.
    #[must_use]
    pub fn restore(config: StoreConfig, snapshot: &Snapshot) -> Self {
        let mut store = Store::new(config);
        for (key, value) in &snapshot.entries {
            store.insert(key, value, None);
        }
        store.reset_activity();
        store
    }

    /// The restart path in place: leaves exactly the store
    /// `Store::restore(config, &self.snapshot())` would build — same
    /// entries, recency renumbered in snapshot order, no TTLs, the clock
    /// and the activity counters reset — without copying a key or a
    /// value. Nothing is evicted: every shard already fits its budget.
    pub fn reload(&mut self) {
        for shard in &mut self.shards {
            shard.reload();
        }
        self.now = 0;
        self.reset_activity();
    }

    /// Rebuilding is not client traffic: zero the activity counters,
    /// keep `entries` and `bytes`.
    fn reset_activity(&mut self) {
        self.stats = StoreStats {
            entries: self.stats.entries,
            bytes: self.stats.bytes,
            ..StoreStats::default()
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::collections::BTreeMap;

    thread_local! {
        /// Whether stores built on this thread file every key under one
        /// hash: a keyed 64-bit hash never chains two of a test's keys
        /// by accident, so the chain paths run only under this switch.
        pub(super) static ONE_HASH: Cell<bool> = const { Cell::new(false) };
    }

    fn small_store(shard_capacity: usize) -> Store {
        Store::new(StoreConfig {
            shards: 2,
            shard_capacity,
        })
    }

    #[test]
    fn set_get_delete_cycle() {
        let mut store = small_store(1024);
        store.set("k1", b"v1".to_vec());
        assert_eq!(store.get("k1"), Some(&b"v1"[..]));
        assert!(store.delete("k1"));
        assert_eq!(store.get("k1"), None);
        assert!(!store.delete("k1"));
    }

    #[test]
    fn replacement_updates_bytes() {
        let mut store = small_store(1024);
        store.set("key", vec![0u8; 100]);
        store.set("key", vec![0u8; 10]);
        assert_eq!(store.stats().entries, 1);
        assert_eq!(store.stats().bytes, (3 + 10) as u64);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut store = Store::new(StoreConfig {
            shards: 1,
            shard_capacity: 30,
        });
        store.set("a", vec![0u8; 9]); // 10 bytes
        store.set("b", vec![0u8; 9]); // 10 bytes
        store.set("c", vec![0u8; 9]); // 10 bytes -> exactly at budget
        let _ = store.get("a"); // refresh a; b becomes LRU
        store.set("d", vec![0u8; 9]); // evicts b
        assert!(store.get("b").is_none());
        assert!(store.get("a").is_some());
        assert!(store.get("c").is_some());
        assert!(store.get("d").is_some());
        assert_eq!(store.stats().evictions, 1);
    }

    #[test]
    fn capacity_is_never_exceeded() {
        let mut store = Store::new(StoreConfig {
            shards: 1,
            shard_capacity: 100,
        });
        for i in 0..50 {
            store.set(format!("key-{i}"), vec![0u8; 20]);
            assert!(store.stats().bytes <= 100, "budget violated");
        }
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let mut store = small_store(1024);
        store.set("present", b"x".to_vec());
        let _ = store.get("present");
        let _ = store.get("absent");
        assert_eq!(store.stats().hits, 1);
        assert_eq!(store.stats().misses, 1);
    }

    #[test]
    fn snapshot_restore_preserves_contents() {
        let mut store = small_store(1 << 20);
        for i in 0..100 {
            store.set(format!("key-{i}"), format!("value-{i}").into_bytes());
        }
        let snapshot = store.snapshot();
        assert_eq!(snapshot.len(), 100);

        let mut restored = Store::restore(
            StoreConfig {
                shards: 2,
                shard_capacity: 1 << 20,
            },
            &snapshot,
        );
        for i in 0..100 {
            assert_eq!(
                restored.get(&format!("key-{i}")),
                Some(format!("value-{i}").as_bytes())
            );
        }
        assert_eq!(restored.stats().sets, 0, "rebuild is not client traffic");
    }

    #[test]
    fn snapshot_reports_bytes() {
        let mut store = small_store(1 << 20);
        store.set("ab", vec![0u8; 8]);
        assert_eq!(store.snapshot().bytes(), 10);
    }

    #[test]
    fn flush_clears_everything() {
        let mut store = small_store(1024);
        store.set("a", b"1".to_vec());
        store.set("b", b"2".to_vec());
        store.flush();
        assert!(store.is_empty());
        assert_eq!(store.get("a"), None);
    }

    #[test]
    fn ttl_expires_entries_lazily() {
        let mut store = small_store(1024);
        store.set_with_ttl("short", b"v".to_vec(), Some(5));
        store.set_with_ttl("long", b"v".to_vec(), Some(100));
        store.set("immortal", b"v".to_vec());

        store.advance(4);
        assert!(store.get("short").is_some(), "not yet expired");

        store.advance(1); // now = 5 = deadline
        assert!(store.get("short").is_none(), "expired at deadline");
        assert!(store.get("long").is_some());
        assert!(store.get("immortal").is_some());
        assert_eq!(store.stats().expired, 1);
        assert_eq!(store.stats().entries, 2, "expired entry reaped");
    }

    #[test]
    fn replacing_an_entry_resets_its_ttl() {
        let mut store = small_store(1024);
        store.set_with_ttl("k", b"old".to_vec(), Some(2));
        store.advance(1);
        store.set_with_ttl("k", b"new".to_vec(), Some(10));
        store.advance(5);
        assert_eq!(store.get("k"), Some(&b"new"[..]));
    }

    #[test]
    fn expired_entries_free_their_bytes() {
        let mut store = small_store(1024);
        store.set_with_ttl("big", vec![0u8; 100], Some(1));
        let before = store.stats().bytes;
        store.advance(2);
        assert!(store.get("big").is_none());
        assert_eq!(store.stats().bytes, before - 103);
    }

    #[test]
    fn ttl_overflow_saturates_to_immortal() {
        let mut store = small_store(1024);
        store.advance(u64::MAX - 1);
        store.set_with_ttl("k", b"v".to_vec(), Some(u64::MAX));
        store.advance(1);
        assert!(store.get("k").is_some(), "saturating deadline");
    }

    #[test]
    fn keys_distribute_across_shards() {
        let mut store = Store::new(StoreConfig {
            shards: 8,
            shard_capacity: 1 << 20,
        });
        for i in 0..1000 {
            store.set(format!("key-{i}"), vec![0u8; 4]);
        }
        let populated = store.shards.iter().filter(|s| !s.index.is_empty()).count();
        assert!(populated >= 6, "only {populated}/8 shards used");
    }

    /// Op tapes shared by the property tests below.
    mod tape {
        use super::*;
        use proptest::prelude::*;

        #[derive(Debug, Clone)]
        pub(super) enum Op {
            Set(u8, usize),
            SetWithTtl(u8, usize, u64),
            Get(u8),
            Delete(u8),
            Advance(u64),
            Flush,
            Reload,
        }

        /// Sixteen keys, values up to 23 bytes: against shard budgets
        /// of 16–95 bytes, sets evict and some entries alone overflow.
        /// `kinds` 20 draws no `Reload`, 21 draws one op in 21.
        pub(super) fn arb_op(kinds: u8) -> impl Strategy<Value = Op> {
            (0u8..kinds, 0u8..16, 0usize..24, 0u64..8).prop_map(|(kind, key, len, n)| match kind {
                0..=5 => Op::Set(key, len),
                6..=9 => Op::SetWithTtl(key, len, n),
                10..=14 => Op::Get(key),
                15..=16 => Op::Delete(key),
                17..=18 => Op::Advance(n),
                19 => Op::Flush,
                _ => Op::Reload,
            })
        }

        pub(super) fn key(k: u8) -> String {
            format!("k{k}")
        }

        pub(super) fn value(k: u8, len: usize) -> Vec<u8> {
            vec![k.wrapping_add(len as u8); len]
        }

        /// Applies `op`, returning what a `get` found.
        pub(super) fn apply(store: &mut Store, op: &Op) -> Option<Vec<u8>> {
            match *op {
                Op::Set(k, len) => store.set(key(k), value(k, len)),
                Op::SetWithTtl(k, len, ttl) => store.set_with_ttl(key(k), value(k, len), Some(ttl)),
                Op::Get(k) => return store.get(&key(k)).map(<[u8]>::to_vec),
                Op::Delete(k) => {
                    let _ = store.delete(&key(k));
                }
                Op::Advance(ticks) => store.advance(ticks),
                Op::Flush => store.flush(),
                Op::Reload => store.reload(),
            }
            None
        }

        /// Per shard: key → (value, tick, `expires_at`), `bytes` and
        /// `next_tick`.
        pub(super) type ShardState = (BTreeMap<String, (Vec<u8>, u64, u64)>, usize, u64);

        /// Everything `restore` defines, independent of map iteration
        /// order: the shards, the counters and the clock.
        pub(super) fn state(store: &Store) -> (Vec<ShardState>, StoreStats, u64) {
            let shards = store
                .shards
                .iter()
                .map(|shard| {
                    let entries = shard
                        .live()
                        .map(|e| {
                            (
                                e.key_str().to_owned(),
                                (e.value().to_vec(), e.tick, e.expires_at),
                            )
                        })
                        .collect();
                    (entries, shard.bytes, shard.next_tick)
                })
                .collect();
            (shards, store.stats, store.now)
        }

        /// The entry in slot `at`, which must be occupied.
        fn entry(shard: &Shard, at: u32) -> &Slot {
            let slot = &shard.slots[at as usize];
            assert!(!slot.is_vacant(), "slot {at} holds an entry");
            slot
        }

        /// Every slot the index reaches, chain by chain; each holds an
        /// entry, and each entry sits in the chain of its key's hash.
        fn indexed(shard: &Shard) -> Vec<u32> {
            let mut reached = Vec::new();
            for (&hash, &first) in &shard.index {
                let mut at = first;
                while at != NIL {
                    assert!(reached.len() < shard.slots.len(), "a chain loops");
                    let slot = entry(shard, at);
                    assert_eq!(
                        shard.hash.of(slot.key()),
                        hash,
                        "slot {at} is chained by its hash"
                    );
                    reached.push(at);
                    at = slot.chain;
                }
            }
            assert_eq!(
                reached.len(),
                shard.live().count(),
                "the index reaches every entry"
            );
            reached
        }

        /// The tick of `key`'s entry.
        pub(super) fn tick_of(shard: &Shard, key: &str) -> u64 {
            let at = shard
                .find(shard.hash.of(key.as_bytes()), key.as_bytes())
                .expect("entry exists");
            entry(shard, at).tick
        }

        /// The recency list, walked head to tail, names every entry once
        /// in strictly increasing tick order, and every entry's slot
        /// names its own key.
        pub(super) fn assert_index_consistent(store: &Store) {
            for shard in &store.shards {
                let entries = indexed(shard);
                let (mut walked, mut prev, mut last_tick) = (0, NIL, None);
                let mut slot = shard.head;
                while slot != NIL {
                    assert!(walked < entries.len(), "the list is longer than the map");
                    let node = entry(shard, slot);
                    assert_eq!(node.prev, prev, "slot {slot} links back to its predecessor");
                    let tick = node.tick;
                    assert!(
                        last_tick < Some(tick),
                        "ticks increase head to tail at {}",
                        node.key_str()
                    );
                    (walked, prev, last_tick) = (walked + 1, slot, Some(tick));
                    slot = node.next;
                }
                assert_eq!(shard.tail, prev, "the walk ends at the tail");
                assert_eq!(walked, entries.len());
                for at in entries {
                    let key = entry(shard, at).key();
                    assert_eq!(shard.find(shard.hash.of(key), key), Some(at), "slot {at}");
                }
            }
        }
    }

    /// `reload` is `restore` of the store's own snapshot, checked on the
    /// private state both leave behind and on how that state behaves.
    mod reload_equals_restore {
        use super::tape::{apply, arb_op, assert_index_consistent, state, Op};
        use super::*;
        use proptest::prelude::*;
        use proptest::TestCaseError;

        fn check(
            one_hash: bool,
            config: StoreConfig,
            tape: &[Op],
            follow_up: &[Op],
        ) -> Result<(), TestCaseError> {
            ONE_HASH.set(one_hash);
            let mut reloaded = Store::new(config);
            for op in tape {
                apply(&mut reloaded, op);
            }
            let mut restored = Store::restore(config, &reloaded.snapshot());
            reloaded.reload();

            prop_assert_eq!(state(&reloaded), state(&restored));
            assert_index_consistent(&reloaded);
            assert_index_consistent(&restored);
            for shard in &reloaded.shards {
                let n = shard.live().count() as u64;
                prop_assert!(
                    shard.live().map(|e| e.tick).eq(0..n),
                    "ticks run 0..n in slab order"
                );
            }

            // Same state, same behaviour: the follow-up tape evicts,
            // expires and misses the same keys in both.
            for op in follow_up {
                apply(&mut reloaded, op);
                apply(&mut restored, op);
            }
            prop_assert_eq!(state(&reloaded), state(&restored));
            Ok(())
        }

        proptest! {
            #[test]
            fn reload_leaves_the_store_restore_builds_from_the_snapshot(
                shards in 1usize..=4,
                shard_capacity in 16usize..96,
                tape in proptest::collection::vec(arb_op(20), 0..160),
                follow_up in proptest::collection::vec(arb_op(20), 0..80),
            ) {
                check(false, StoreConfig { shards, shard_capacity }, &tape, &follow_up)?;
            }

            #[test]
            fn reload_equals_restore_with_every_key_on_one_chain(
                shards in 1usize..=4,
                shard_capacity in 16usize..96,
                tape in proptest::collection::vec(arb_op(20), 0..160),
                follow_up in proptest::collection::vec(arb_op(20), 0..80),
            ) {
                check(true, StoreConfig { shards, shard_capacity }, &tape, &follow_up)?;
            }
        }
    }

    /// The recency list against the design it replaced: a `BTreeMap`
    /// from tick to key per shard, re-keyed on every hit. Same gets,
    /// same counters, same per-key state after every op.
    mod lru_oracle {
        use super::tape::{apply, arb_op, assert_index_consistent, state, tick_of, Op, ShardState};
        use super::*;
        use proptest::prelude::*;
        use proptest::TestCaseError;

        #[derive(Default)]
        struct RefShard {
            /// key → (value, tick, `expires_at`).
            entries: BTreeMap<String, (Vec<u8>, u64, u64)>,
            /// tick → key; the lowest tick is the least recently used.
            order: BTreeMap<u64, String>,
            bytes: usize,
            next_tick: u64,
        }

        impl RefShard {
            fn remove(&mut self, key: &str) -> Option<Vec<u8>> {
                let (value, tick, _) = self.entries.remove(key)?;
                self.order.remove(&tick);
                self.bytes -= key.len() + value.len();
                Some(value)
            }
        }

        struct RefStore {
            shards: Vec<RefShard>,
            capacity: usize,
            stats: StoreStats,
            now: u64,
        }

        impl RefStore {
            fn new(config: StoreConfig) -> Self {
                RefStore {
                    shards: (0..config.shards).map(|_| RefShard::default()).collect(),
                    capacity: config.shard_capacity,
                    stats: StoreStats::default(),
                    now: 0,
                }
            }

            fn get(&mut self, key: &str) -> Option<Vec<u8>> {
                let now = self.now;
                let index = shard_index(key, self.shards.len());
                let shard = &mut self.shards[index];
                let found = match shard.entries.get(key) {
                    Some(&(_, _, expires_at)) if expires_at != u64::MAX && expires_at <= now => {
                        let value = shard.remove(key).expect("entry exists");
                        self.stats.entries -= 1;
                        self.stats.bytes -= (key.len() + value.len()) as u64;
                        self.stats.expired += 1;
                        None
                    }
                    Some(_) => {
                        let tick = shard.next_tick;
                        shard.next_tick += 1;
                        let entry = shard.entries.get_mut(key).expect("entry exists");
                        shard.order.remove(&entry.1);
                        entry.1 = tick;
                        shard.order.insert(tick, key.to_string());
                        Some(entry.0.clone())
                    }
                    None => None,
                };
                if found.is_some() {
                    self.stats.hits += 1;
                } else {
                    self.stats.misses += 1;
                }
                found
            }

            fn set(&mut self, key: String, value: Vec<u8>, ttl: Option<u64>) {
                let expires_at = ttl.map_or(u64::MAX, |ticks| self.now.saturating_add(ticks));
                let capacity = self.capacity;
                let index = shard_index(&key, self.shards.len());
                let shard = &mut self.shards[index];
                let mut stats = self.stats;
                if let Some(old) = shard.remove(&key) {
                    stats.entries -= 1;
                    stats.bytes -= (key.len() + old.len()) as u64;
                }
                let size = key.len() + value.len();
                shard.order.insert(shard.next_tick, key.clone());
                shard
                    .entries
                    .insert(key, (value, shard.next_tick, expires_at));
                shard.next_tick += 1;
                shard.bytes += size;
                stats.entries += 1;
                stats.bytes += size as u64;
                while shard.bytes > capacity {
                    let Some((_, key)) = shard.order.pop_first() else {
                        break;
                    };
                    let (value, _, _) = shard.entries.remove(&key).expect("entry exists");
                    shard.bytes -= key.len() + value.len();
                    stats.entries -= 1;
                    stats.bytes -= (key.len() + value.len()) as u64;
                    stats.evictions += 1;
                }
                stats.sets += 1;
                self.stats = stats;
            }

            fn delete(&mut self, key: &str) {
                let index = shard_index(key, self.shards.len());
                let shard = &mut self.shards[index];
                if let Some(value) = shard.remove(key) {
                    self.stats.entries -= 1;
                    self.stats.bytes -= (key.len() + value.len()) as u64;
                    self.stats.deletes += 1;
                }
            }

            /// A reload renumbers in the store's map iteration order,
            /// which no other map shares: adopt the store's new ticks,
            /// after checking they are `0..n` per shard.
            fn reload_as(&mut self, store: &Store) {
                for (shard, theirs) in self.shards.iter_mut().zip(&store.shards) {
                    shard.order.clear();
                    for (key, (_, tick, expires_at)) in &mut shard.entries {
                        *tick = tick_of(theirs, key);
                        *expires_at = u64::MAX;
                        shard.order.insert(*tick, key.clone());
                    }
                    let n = shard.entries.len() as u64;
                    assert!(
                        shard.order.keys().copied().eq(0..n),
                        "reload ticks run 0..n"
                    );
                    shard.next_tick = n;
                }
                self.now = 0;
                self.stats = StoreStats {
                    entries: self.stats.entries,
                    bytes: self.stats.bytes,
                    ..StoreStats::default()
                };
            }

            fn apply(&mut self, op: &Op, store: &Store) -> Option<Vec<u8>> {
                use super::tape::{key, value};
                match *op {
                    Op::Set(k, len) => self.set(key(k), value(k, len), None),
                    Op::SetWithTtl(k, len, ttl) => self.set(key(k), value(k, len), Some(ttl)),
                    Op::Get(k) => return self.get(&key(k)),
                    Op::Delete(k) => self.delete(&key(k)),
                    Op::Advance(ticks) => self.now = self.now.saturating_add(ticks),
                    Op::Flush => {
                        for shard in &mut self.shards {
                            *shard = RefShard::default();
                        }
                        self.stats.entries = 0;
                        self.stats.bytes = 0;
                    }
                    Op::Reload => self.reload_as(store),
                }
                None
            }

            fn state(&self) -> (Vec<ShardState>, StoreStats, u64) {
                let shards = self
                    .shards
                    .iter()
                    .map(|shard| (shard.entries.clone(), shard.bytes, shard.next_tick))
                    .collect();
                (shards, self.stats, self.now)
            }
        }

        fn check(one_hash: bool, config: StoreConfig, tape: &[Op]) -> Result<(), TestCaseError> {
            ONE_HASH.set(one_hash);
            let mut store = Store::new(config);
            let mut reference = RefStore::new(config);
            for (step, op) in tape.iter().enumerate() {
                let got = apply(&mut store, op);
                let expected = reference.apply(op, &store);
                prop_assert_eq!(got, expected, "step {}: {:?}", step, op);
                prop_assert_eq!(state(&store), reference.state(), "step {}: {:?}", step, op);
                assert_index_consistent(&store);
            }
            Ok(())
        }

        proptest! {
            #[test]
            fn the_recency_list_evicts_and_expires_like_the_btree_it_replaced(
                shards in 1usize..=4,
                shard_capacity in 16usize..96,
                tape in proptest::collection::vec(arb_op(21), 0..240),
            ) {
                check(false, StoreConfig { shards, shard_capacity }, &tape)?;
            }

            /// The same tape with every key on one hash chain: chained
            /// get, replace, remove, eviction, expiry and reload.
            #[test]
            fn one_chain_evicts_and_expires_like_the_btree(
                shards in 1usize..=4,
                shard_capacity in 16usize..96,
                tape in proptest::collection::vec(arb_op(21), 0..240),
            ) {
                check(true, StoreConfig { shards, shard_capacity }, &tape)?;
            }
        }
    }
}
