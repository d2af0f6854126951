//! The restart rung's state effect, pinned: restarting a preloaded kv
//! shard relinks its recency list in place and allocates nothing. The
//! ladder restarts a worker every few pool rebuilds on a hostile run,
//! and the restart's time is already charged from the calibrated model —
//! a copy of the store here is CPU burnt on top of that charge.

use sdrad_nolock::arena::{count_allocs_on_this_thread, counted_allocs};
use sdrad_runtime::{KvHandler, SessionHandler};

#[global_allocator]
static ALLOC: sdrad_nolock::CountingAlloc = sdrad_nolock::CountingAlloc::new();

/// The hostile benchmark's shard: 1 000 keys of 64-byte values.
const KEYS: usize = 1_000;
const VALUE_LEN: usize = 64;
#[test]
fn a_restart_allocates_nothing() {
    let mut handler = KvHandler::default();
    for key in 0..KEYS {
        handler
            .store_mut()
            .set(format!("key-{key}"), vec![(key % 251) as u8; VALUE_LEN]);
    }
    handler.restart();
    // Scatter the recency order, as served reads do between restarts.
    for key in (0..KEYS).step_by(7) {
        let _ = handler.store_mut().get(&format!("key-{key}"));
    }

    count_allocs_on_this_thread(true);
    let before = counted_allocs();
    handler.restart();
    let allocs = counted_allocs() - before;
    count_allocs_on_this_thread(false);

    assert_eq!(handler.store().len(), KEYS, "a restart keeps every entry");
    // Round-tripping the store through a snapshot costs 5 226 allocations
    // here (two clones of every key and value, one more of every key for
    // the index); reloading into a rebuilt `BTreeMap` index cost 112 (its
    // nodes); relinking the recency list costs none.
    assert_eq!(
        allocs, 0,
        "one restart of a {KEYS}-key shard allocated {allocs} times"
    );
}
