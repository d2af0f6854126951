//! The sharded LRU store, its snapshot/restore (restart) path and the
//! in-place equivalent, [`Store::reload`].

use std::collections::hash_map::{self, HashMap};

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

/// The end of a recency list: no slot.
const NIL: usize = usize::MAX;

/// One node of a shard's recency list: the key it names and the slots
/// of its neighbours.
#[derive(Debug)]
struct Node {
    key: String,
    prev: usize,
    next: usize,
}

/// A shard's recency order, Memcached-style: a doubly-linked list
/// threaded by slot index through a slab of nodes, `head` the least and
/// `tail` the most recently used. Refreshing an entry relinks a node —
/// no hashing, no allocation. Freed slots wait on `vacant` and keep
/// their key's storage for the next insert.
#[derive(Debug)]
struct Recency {
    nodes: Vec<Node>,
    vacant: Vec<usize>,
    head: usize,
    tail: usize,
}

impl Default for Recency {
    fn default() -> Self {
        Recency {
            nodes: Vec::new(),
            vacant: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }
}

impl Recency {
    /// Links a node naming `key` as the most recently used, returning
    /// its slot.
    fn push_back(&mut self, key: &str) -> usize {
        let slot = if let Some(slot) = self.vacant.pop() {
            let node = &mut self.nodes[slot];
            node.key.clear();
            node.key.push_str(key);
            slot
        } else {
            self.nodes.push(Node {
                key: key.to_owned(),
                prev: NIL,
                next: NIL,
            });
            self.nodes.len() - 1
        };
        self.link_back(slot);
        slot
    }

    /// Links an unlinked `slot` as the most recently used.
    fn link_back(&mut self, slot: usize) {
        let tail = self.tail;
        let node = &mut self.nodes[slot];
        node.prev = tail;
        node.next = NIL;
        if tail == NIL {
            self.head = slot;
        } else {
            self.nodes[tail].next = slot;
        }
        self.tail = slot;
    }

    fn unlink(&mut self, slot: usize) {
        let (prev, next) = (self.nodes[slot].prev, self.nodes[slot].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.nodes[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.nodes[next].prev = prev;
        }
    }

    /// Marks `slot` the most recently used.
    fn touch(&mut self, slot: usize) {
        self.unlink(slot);
        self.link_back(slot);
    }

    /// Unlinks `slot` and files it vacant.
    fn release(&mut self, slot: usize) {
        self.unlink(slot);
        self.vacant.push(slot);
    }

    /// The least recently used slot.
    fn lru(&self) -> Option<usize> {
        (self.head != NIL).then_some(self.head)
    }

    fn key(&self, slot: usize) -> &str {
        &self.nodes[slot].key
    }

    /// Forgets the order; every node keeps its slot and key, ready to
    /// be relinked.
    fn unlink_all(&mut self) {
        self.head = NIL;
        self.tail = NIL;
    }
}

/// One LRU shard: value map plus a recency list.
#[derive(Debug, Default)]
struct Shard {
    entries: HashMap<String, Entry>,
    /// Recency list, in tick order: head = least recently used.
    order: Recency,
    bytes: usize,
    next_tick: u64,
}

#[derive(Debug)]
struct Entry {
    value: Vec<u8>,
    tick: u64,
    /// Logical-clock deadline after which the entry is expired
    /// (`u64::MAX` = no TTL). Expiry is lazy, like memcached's.
    expires_at: u64,
    /// This entry's node in the recency list.
    slot: usize,
}

impl Shard {
    fn get(&mut self, key: &str, now: u64, stats: &mut StoreStats) -> Option<&[u8]> {
        // Two lookups on a hit: a borrow returned from one `get_mut`
        // would stay live across the expiry branch's removal too, which
        // the borrow checker refuses (NLL problem case 3).
        let expires_at = self.entries.get(key)?.expires_at;
        if expires_at != u64::MAX && expires_at <= now {
            // Lazy expiry, memcached-style: reap on access.
            let value = self.remove(key).expect("entry exists");
            stats.entries -= 1;
            stats.bytes -= (key.len() + value.len()) as u64;
            stats.expired += 1;
            return None;
        }
        let entry = self.entries.get_mut(key).expect("entry exists");
        entry.tick = self.next_tick;
        self.next_tick += 1;
        self.order.touch(entry.slot);
        Some(&entry.value)
    }

    fn insert(
        &mut self,
        key: String,
        value: Vec<u8>,
        expires_at: u64,
        capacity: usize,
        stats: &mut StoreStats,
    ) {
        let size = key.len() + value.len();
        let tick = self.next_tick;
        self.next_tick += 1;
        match self.entries.entry(key) {
            hash_map::Entry::Occupied(mut occupied) => {
                // A replacement: the old value's bytes go, the node
                // moves to the most recent end.
                let old = occupied.key().len() + occupied.get().value.len();
                self.bytes -= old;
                stats.bytes -= old as u64;
                let entry = occupied.get_mut();
                entry.value = value;
                entry.tick = tick;
                entry.expires_at = expires_at;
                self.order.touch(entry.slot);
            }
            hash_map::Entry::Vacant(vacant) => {
                let slot = self.order.push_back(vacant.key());
                vacant.insert(Entry {
                    value,
                    tick,
                    expires_at,
                    slot,
                });
                stats.entries += 1;
            }
        }
        self.bytes += size;
        stats.bytes += size as u64;

        // Evict least-recently-used entries until within budget (never the
        // entry just inserted, which is the list's tail — unless it alone
        // exceeds the budget, in which case it goes too).
        while self.bytes > capacity {
            let Some(lru) = self.order.lru() else {
                break;
            };
            let key = self.order.key(lru);
            let entry = self.entries.remove(key).expect("entry exists");
            let freed = key.len() + entry.value.len();
            self.order.release(lru);
            self.bytes -= freed;
            stats.entries -= 1;
            stats.bytes -= freed as u64;
            stats.evictions += 1;
        }
    }

    fn remove(&mut self, key: &str) -> Option<Vec<u8>> {
        let entry = self.entries.remove(key)?;
        self.order.release(entry.slot);
        self.bytes -= key.len() + entry.value.len();
        Some(entry.value)
    }

    /// Renumbers the shard as re-inserting its entries in map order
    /// would: ticks `0..n` in iteration order, every TTL dropped, the
    /// recency list relinked in that order. Nothing is sorted, copied
    /// or re-hashed.
    fn reload(&mut self) {
        self.order.unlink_all();
        for (tick, entry) in (0u64..).zip(self.entries.values_mut()) {
            entry.tick = tick;
            entry.expires_at = u64::MAX;
            self.order.link_back(entry.slot);
        }
        self.next_tick = self.entries.len() as u64;
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
        Store {
            shards: (0..config.shards).map(|_| Shard::default()).collect(),
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
    /// misses. A hit costs two hash lookups and no allocation.
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
    pub fn set_with_ttl(&mut self, key: impl Into<String>, value: Vec<u8>, ttl: Option<u64>) {
        let key = key.into();
        let shard = self.shard_for(&key);
        let capacity = self.config.shard_capacity;
        let expires_at = match ttl {
            Some(ticks) => self.now.saturating_add(ticks),
            None => u64::MAX,
        };
        let stats = &mut self.stats;
        self.shards[shard].insert(key, value, expires_at, capacity, stats);
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
        if let Some(value) = self.shards[shard].remove(key) {
            self.stats.entries -= 1;
            self.stats.bytes -= (key.len() + value.len()) as u64;
            self.stats.deletes += 1;
            true
        } else {
            false
        }
    }

    /// Drops every entry.
    pub fn flush(&mut self) {
        for shard in &mut self.shards {
            *shard = Shard::default();
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

    /// Captures the full contents (ordered by shard, then arbitrarily).
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
        self.shards.iter().flat_map(|shard| {
            shard
                .entries
                .iter()
                .map(|(key, entry)| (key.as_str(), entry.value.as_slice()))
        })
    }

    /// The restart path: rebuilds a fresh store from a snapshot. The cost
    /// of this call is what a process/container restart pays *on top of*
    /// its fixed startup cost, and it scales linearly with data volume.
    #[must_use]
    pub fn restore(config: StoreConfig, snapshot: &Snapshot) -> Self {
        let mut store = Store::new(config);
        for (key, value) in &snapshot.entries {
            store.set(key.clone(), value.clone());
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
    use std::collections::BTreeMap;

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
        let populated = store
            .shards
            .iter()
            .filter(|s| !s.entries.is_empty())
            .count();
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
                        .entries
                        .iter()
                        .map(|(k, e)| (k.clone(), (e.value.clone(), e.tick, e.expires_at)))
                        .collect();
                    (entries, shard.bytes, shard.next_tick)
                })
                .collect();
            (shards, store.stats, store.now)
        }

        /// The recency list, walked head to tail, names every entry once
        /// in strictly increasing tick order, and every entry's slot
        /// names its own key.
        pub(super) fn assert_index_consistent(store: &Store) {
            for shard in &store.shards {
                let order = &shard.order;
                let (mut walked, mut prev, mut last_tick) = (0, NIL, None);
                let mut slot = order.head;
                while slot != NIL {
                    assert!(
                        walked < shard.entries.len(),
                        "the list is longer than the map"
                    );
                    let node = &order.nodes[slot];
                    assert_eq!(node.prev, prev, "slot {slot} links back to its predecessor");
                    let tick = shard.entries[&node.key].tick;
                    assert!(
                        last_tick < Some(tick),
                        "ticks increase head to tail at {}",
                        node.key
                    );
                    (walked, prev, last_tick) = (walked + 1, slot, Some(tick));
                    slot = node.next;
                }
                assert_eq!(order.tail, prev, "the walk ends at the tail");
                assert_eq!(walked, shard.entries.len());
                for (key, entry) in &shard.entries {
                    assert_eq!(&order.nodes[entry.slot].key, key, "slot {}", entry.slot);
                }
            }
        }
    }

    /// `reload` is `restore` of the store's own snapshot, checked on the
    /// private state both leave behind and on how that state behaves.
    mod reload_equals_restore {
        use super::tape::{apply, arb_op, assert_index_consistent, state};
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn reload_leaves_the_store_restore_builds_from_the_snapshot(
                shards in 1usize..=4,
                shard_capacity in 16usize..96,
                tape in proptest::collection::vec(arb_op(20), 0..160),
                follow_up in proptest::collection::vec(arb_op(20), 0..80),
            ) {
                let config = StoreConfig { shards, shard_capacity };
                let mut reloaded = Store::new(config);
                for op in &tape {
                    apply(&mut reloaded, op);
                }
                let mut restored = Store::restore(config, &reloaded.snapshot());
                reloaded.reload();

                prop_assert_eq!(state(&reloaded), state(&restored));
                assert_index_consistent(&reloaded);
                assert_index_consistent(&restored);
                for shard in &reloaded.shards {
                    let n = shard.entries.len() as u64;
                    prop_assert!(
                        shard.entries.values().map(|e| e.tick).eq(0..n),
                        "ticks run 0..n in the map's iteration order"
                    );
                }

                // Same state, same behaviour: the follow-up tape evicts,
                // expires and misses the same keys in both.
                for op in &follow_up {
                    apply(&mut reloaded, op);
                    apply(&mut restored, op);
                }
                prop_assert_eq!(state(&reloaded), state(&restored));
            }
        }
    }

    /// The recency list against the design it replaced: a `BTreeMap`
    /// from tick to key per shard, re-keyed on every hit. Same gets,
    /// same counters, same per-key state after every op.
    mod lru_oracle {
        use super::tape::{apply, arb_op, assert_index_consistent, state, Op, ShardState};
        use super::*;
        use proptest::prelude::*;

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
                        *tick = theirs.entries[key].tick;
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

        proptest! {
            #[test]
            fn the_recency_list_evicts_and_expires_like_the_btree_it_replaced(
                shards in 1usize..=4,
                shard_capacity in 16usize..96,
                tape in proptest::collection::vec(arb_op(21), 0..240),
            ) {
                let config = StoreConfig { shards, shard_capacity };
                let mut store = Store::new(config);
                let mut reference = RefStore::new(config);
                for (step, op) in tape.iter().enumerate() {
                    let got = apply(&mut store, op);
                    let expected = reference.apply(op, &store);
                    prop_assert_eq!(got, expected, "step {}: {:?}", step, op);
                    prop_assert_eq!(state(&store), reference.state(), "step {}: {:?}", step, op);
                    assert_index_consistent(&store);
                }
            }
        }
    }
}
