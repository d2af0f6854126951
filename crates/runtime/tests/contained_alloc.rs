//! Allocations per disposition, pinned: on a warm kv shard, a contained
//! `xstat` exploit and a `get` hit each allocate a handful of times. The
//! exploit's fault returns to the domain boundary as a value and the
//! planted overflow scrubs domain memory in place, so containment costs
//! no unwind and no host-side scrub buffer of the declared length.

use sdrad::ClientId;
use sdrad_faultsim::workload::kv_exploit_request;
use sdrad_nolock::arena::{count_allocs_on_this_thread, counted_allocs, set_thread_pooling};
use sdrad_runtime::{Disposition, IsolationMode, KvHandler, SessionHandler, WorkerIsolation};

#[global_allocator]
static ALLOC: sdrad_nolock::CountingAlloc = sdrad_nolock::CountingAlloc::new();

/// The hostile benchmark's shard and domains: 1 000 keys of 64-byte
/// values, 32 KiB domain heaps, an exploit declaring 64 KiB.
const KEYS: usize = 1_000;
const VALUE_LEN: usize = 64;
const DOMAIN_HEAP: usize = 32 * 1024;
const EXPLOIT_DECLARED: usize = 64 * 1024;
/// A contained exploit allocates 6 times with its fault returned as a
/// value; 7 with a host-side scrub buffer of the declared length, 9 when
/// the fault also unwinds to the boundary (behind the quiet panic hook).
const MAX_CONTAINED_ALLOCS: u64 = 6;
/// A `get` hit allocates 2, both in domain staging: the key's copy-out
/// and the domain heap's block record. Refreshing recency in a `BTreeMap`
/// (a key clone) and copying the value into a `Response` made it 4.
const MAX_GET_ALLOCS: u64 = 2;

/// Allocations made on this thread while `f` runs.
fn allocs_of<R>(f: impl FnOnce() -> R) -> (R, u64) {
    count_allocs_on_this_thread(true);
    let before = counted_allocs();
    let value = f();
    let allocs = counted_allocs() - before;
    count_allocs_on_this_thread(false);
    (value, allocs)
}

#[test]
fn contained_faults_and_hits_allocate_a_handful() {
    // As on a worker thread: response frames come from the thread's pool.
    set_thread_pooling(true);
    let mut handler = KvHandler::default();
    for key in 0..KEYS {
        handler
            .store_mut()
            .set(format!("key-{key}"), vec![(key % 251) as u8; VALUE_LEN]);
    }
    let mut iso = WorkerIsolation::new(IsolationMode::PerClientDomain, 8, DOMAIN_HEAP);
    let client = ClientId(7);
    let exploit = kv_exploit_request(EXPLOIT_DECLARED);
    let get = b"get key-500\r\n";
    // Warm up: the client's domain exists and the frame pool holds
    // buffers, as in a run past its warm-up.
    for _ in 0..4 {
        handler.handle(&mut iso, client, &exploit);
        handler.handle(&mut iso, client, get);
    }

    let (contained, contained_allocs) = allocs_of(|| handler.handle(&mut iso, client, &exploit));
    assert!(
        matches!(contained.disposition, Disposition::ContainedFault { .. }),
        "{:?}",
        contained.disposition
    );
    drop(contained);
    let (hit, get_allocs) = allocs_of(|| handler.handle(&mut iso, client, get));
    assert_eq!(hit.disposition, Disposition::Ok);
    assert!(hit.response.starts_with(b"VALUE key-500 64\r\n"));

    assert!(
        contained_allocs <= MAX_CONTAINED_ALLOCS,
        "one contained exploit allocated {contained_allocs} times (limit {MAX_CONTAINED_ALLOCS})"
    );
    assert!(
        get_allocs <= MAX_GET_ALLOCS,
        "one get hit allocated {get_allocs} times (limit {MAX_GET_ALLOCS})"
    );
}
