//! The sharded LRU store, its snapshot/restore (restart) path and the
//! in-place equivalent, [`Store::reload`].

use std::collections::{BTreeMap, HashMap};

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

/// One LRU shard: value map plus a recency index.
#[derive(Debug, Default)]
struct Shard {
    entries: HashMap<String, Entry>,
    /// Recency index: tick → key. Lowest tick = least recently used.
    order: BTreeMap<u64, String>,
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
}

impl Shard {
    fn touch(&mut self, key: &str) {
        let Some(entry) = self.entries.get_mut(key) else {
            return;
        };
        self.order.remove(&entry.tick);
        entry.tick = self.next_tick;
        self.order.insert(self.next_tick, key.to_string());
        self.next_tick += 1;
    }

    fn get(&mut self, key: &str, now: u64, stats: &mut StoreStats) -> Option<Vec<u8>> {
        match self.entries.get(key) {
            Some(entry) if entry.expires_at != u64::MAX && entry.expires_at <= now => {
                // Lazy expiry, memcached-style: reap on access.
                let value = self.remove(key).expect("entry exists");
                stats.entries -= 1;
                stats.bytes -= (key.len() + value.len()) as u64;
                stats.expired += 1;
                None
            }
            Some(_) => {
                self.touch(key);
                Some(self.entries[key].value.clone())
            }
            None => None,
        }
    }

    fn insert(
        &mut self,
        key: String,
        value: Vec<u8>,
        expires_at: u64,
        capacity: usize,
        stats: &mut StoreStats,
    ) {
        if let Some(old) = self.remove(&key) {
            stats.entries -= 1;
            stats.bytes -= (key.len() + old.len()) as u64;
        }
        let size = key.len() + value.len();
        self.entries.insert(
            key.clone(),
            Entry {
                value,
                tick: self.next_tick,
                expires_at,
            },
        );
        self.order.insert(self.next_tick, key);
        self.next_tick += 1;
        self.bytes += size;
        stats.entries += 1;
        stats.bytes += size as u64;

        // Evict least-recently-used entries until within budget (never the
        // entry just inserted, which has the highest tick — unless it alone
        // exceeds the budget, in which case it goes too).
        while self.bytes > capacity {
            let Some((&tick, _)) = self.order.iter().next() else {
                break;
            };
            let key = self.order.remove(&tick).expect("index consistent");
            let entry = self.entries.remove(&key).expect("entry exists");
            let freed = key.len() + entry.value.len();
            self.bytes -= freed;
            stats.entries -= 1;
            stats.bytes -= freed as u64;
            stats.evictions += 1;
        }
    }

    fn remove(&mut self, key: &str) -> Option<Vec<u8>> {
        let entry = self.entries.remove(key)?;
        self.order.remove(&entry.tick);
        self.bytes -= key.len() + entry.value.len();
        Some(entry.value)
    }

    /// Renumbers the shard as re-inserting its entries in map order
    /// would: ticks `0..n` in iteration order, every TTL dropped. The
    /// recency index keeps its key strings — moved, never cloned or
    /// re-hashed.
    fn reload(&mut self) {
        // (old tick, new tick) per entry, in the order `Store::snapshot`
        // emits the entries and `Store::restore` re-inserts them.
        let mut ticks = Vec::with_capacity(self.entries.len());
        for (new, entry) in (0u64..).zip(self.entries.values_mut()) {
            ticks.push((entry.tick, new));
            entry.tick = new;
            entry.expires_at = u64::MAX;
        }
        self.next_tick = ticks.len() as u64;
        // The old index iterates by old tick; sorted the same way, the
        // pairs line every key up with its new tick.
        ticks.sort_unstable();
        self.order = ticks
            .into_iter()
            .zip(std::mem::take(&mut self.order).into_values())
            .map(|((_, new), key)| (new, key))
            .collect();
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

    /// The captured entries, borrowed — what a read-only view (a
    /// hazard-published shard snapshot) indexes without re-cloning the
    /// whole payload a second time.
    pub fn entries(&self) -> impl Iterator<Item = (&str, &[u8])> {
        self.entries
            .iter()
            .map(|(key, value)| (key.as_str(), value.as_slice()))
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

/// The sharded LRU cache.
#[derive(Debug)]
pub struct Store {
    config: StoreConfig,
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
        // FNV-1a over the key, reduced to shard count.
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for byte in key.as_bytes() {
            hash ^= u64::from(*byte);
            hash = hash.wrapping_mul(0x1000_0000_01b3);
        }
        (hash % self.shards.len() as u64) as usize
    }

    /// Looks up `key`, refreshing its recency. Entries whose TTL passed
    /// are reaped lazily and reported as misses.
    pub fn get(&mut self, key: &str) -> Option<Vec<u8>> {
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
        for shard in &self.shards {
            for (key, entry) in &shard.entries {
                entries.push((key.clone(), entry.value.clone()));
            }
        }
        Snapshot { entries }
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
        assert_eq!(store.get("k1"), Some(b"v1".to_vec()));
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
                Some(format!("value-{i}").into_bytes())
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
        assert_eq!(store.get("k"), Some(b"new".to_vec()));
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

    /// `reload` is `restore` of the store's own snapshot, checked on the
    /// private state both leave behind and on how that state behaves.
    mod reload_equals_restore {
        use super::*;
        use proptest::prelude::*;

        #[derive(Debug, Clone)]
        enum Op {
            Set(u8, usize),
            SetWithTtl(u8, usize, u64),
            Get(u8),
            Delete(u8),
            Advance(u64),
            Flush,
        }

        /// Sixteen keys, values up to 23 bytes: against shard budgets
        /// of 16–95 bytes, sets evict and some entries alone overflow.
        fn arb_op() -> impl Strategy<Value = Op> {
            (0u8..20, 0u8..16, 0usize..24, 0u64..8).prop_map(|(kind, key, len, n)| match kind {
                0..=5 => Op::Set(key, len),
                6..=9 => Op::SetWithTtl(key, len, n),
                10..=14 => Op::Get(key),
                15..=16 => Op::Delete(key),
                17..=18 => Op::Advance(n),
                _ => Op::Flush,
            })
        }

        fn apply(store: &mut Store, op: &Op) {
            let key = |k: u8| format!("k{k}");
            let value = |k: u8, len: usize| vec![k.wrapping_add(len as u8); len];
            match *op {
                Op::Set(k, len) => store.set(key(k), value(k, len)),
                Op::SetWithTtl(k, len, ttl) => store.set_with_ttl(key(k), value(k, len), Some(ttl)),
                Op::Get(k) => {
                    let _ = store.get(&key(k));
                }
                Op::Delete(k) => {
                    let _ = store.delete(&key(k));
                }
                Op::Advance(ticks) => store.advance(ticks),
                Op::Flush => store.flush(),
            }
        }

        /// Per shard: key → (value, tick, `expires_at`), `bytes` and
        /// `next_tick`.
        type ShardState = (BTreeMap<String, (Vec<u8>, u64, u64)>, usize, u64);

        /// Everything `restore` defines, independent of map iteration
        /// order: the shards, the counters and the clock.
        fn state(store: &Store) -> (Vec<ShardState>, StoreStats, u64) {
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

        /// The recency index names every entry under its own tick.
        fn assert_index_consistent(store: &Store) {
            for shard in &store.shards {
                assert_eq!(shard.order.len(), shard.entries.len());
                for (tick, key) in &shard.order {
                    assert_eq!(shard.entries[key].tick, *tick, "order[{tick}] = {key}");
                }
            }
        }

        proptest! {
            #[test]
            fn reload_leaves_the_store_restore_builds_from_the_snapshot(
                shards in 1usize..=4,
                shard_capacity in 16usize..96,
                tape in proptest::collection::vec(arb_op(), 0..160),
                follow_up in proptest::collection::vec(arb_op(), 0..80),
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
}
