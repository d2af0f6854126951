//! Regression tests for the lock-free shard queue's isolation
//! guarantees between the owner and its thieves.
//!
//! The mutex-era `steal`/`steal_where` walked the owner's deque in
//! O(n·stolen) **while holding the queue lock**, so a storm of thieves
//! could stall the owner's `pop_batch` for an entire walk per steal.
//! The lock-free plane routes thieves through the published steal
//! buffer instead: the owner's inbox cursor is never shared, and an
//! owner drain must stay prompt no matter how hard the buffer is
//! hammered. These tests pin both properties — bounded owner latency
//! under a steal storm, and exactly-once conservation of every
//! accepted request.
//!
//! The arena property test at the bottom adds the frame-buffer pool to
//! the storm: payloads ride in recycled [`FrameBuf`] storage, and every
//! claimed payload must still carry exactly the bytes its producer
//! wrote — a buffer recycled while still live in the queue would be
//! overwritten by the next acquire and fail the content check.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use sdrad::ClientId;
use sdrad_nolock::FrameBuf;
use sdrad_runtime::{Request, ShardQueue};

/// Generous stand-in for "one batch period": serving a 16-request
/// batch takes microseconds, so an owner drain that ever takes this
/// long under a steal storm means thieves are back on the owner's
/// critical path.
const OWNER_STALL_BOUND: Duration = Duration::from_millis(250);

#[test]
fn a_steal_storm_cannot_stall_the_owner() {
    let queue = Arc::new(ShardQueue::new(1024));
    let stop = Arc::new(AtomicBool::new(false));
    let stolen_total = Arc::new(AtomicU64::new(0));
    let thieves = 4usize;
    let gate = Arc::new(Barrier::new(thieves + 2));

    let mut handles = Vec::new();
    for _ in 0..thieves {
        let queue = Arc::clone(&queue);
        let stop = Arc::clone(&stop);
        let stolen_total = Arc::clone(&stolen_total);
        let gate = Arc::clone(&gate);
        handles.push(thread::spawn(move || {
            gate.wait();
            // Spin as hot as possible: no sleeps, no yields on hits.
            while !stop.load(Ordering::Relaxed) {
                let got = queue.steal_where(8, |_| true);
                if got.is_empty() {
                    thread::yield_now();
                } else {
                    stolen_total.fetch_add(got.len() as u64, Ordering::Relaxed);
                }
            }
        }));
    }

    let accepted = Arc::new(AtomicU64::new(0));
    let producer = {
        let queue = Arc::clone(&queue);
        let stop = Arc::clone(&stop);
        let accepted = Arc::clone(&accepted);
        let gate = Arc::clone(&gate);
        thread::spawn(move || {
            gate.wait();
            let mut n = 0u64;
            while !stop.load(Ordering::Relaxed) {
                if queue.try_push(Request::new(ClientId(n), vec![0], None)) {
                    accepted.fetch_add(1, Ordering::Relaxed);
                    n += 1;
                } else {
                    // Saturated: let the owner catch up.
                    thread::yield_now();
                }
            }
        })
    };

    // The owner: keep draining (and publishing surplus, which is what
    // gives the thieves something to fight over) and time every call.
    gate.wait();
    let mut owner_claimed = 0u64;
    let mut worst = Duration::ZERO;
    let deadline = Instant::now() + Duration::from_millis(500);
    while Instant::now() < deadline {
        let started = Instant::now();
        let batch = queue.drain_publishing(16, |_| true);
        worst = worst.max(started.elapsed());
        owner_claimed += batch.len() as u64;
        if batch.is_empty() {
            thread::yield_now();
        }
    }
    stop.store(true, Ordering::SeqCst);
    producer.join().unwrap();
    for handle in handles {
        handle.join().unwrap();
    }
    // Thieves are done; whatever is still pending belongs to the owner.
    loop {
        let batch = queue.try_drain(64);
        if batch.is_empty() {
            if queue.is_empty() {
                break;
            }
            thread::yield_now();
            continue;
        }
        owner_claimed += batch.len() as u64;
    }

    assert!(
        worst < OWNER_STALL_BOUND,
        "owner drain stalled for {worst:?} under a steal storm"
    );
    let stolen = stolen_total.load(Ordering::SeqCst);
    assert_eq!(queue.stolen(), stolen, "steal accounting drifted");
    assert_eq!(
        owner_claimed + stolen,
        accepted.load(Ordering::SeqCst),
        "requests lost or duplicated under contention"
    );
}

#[test]
fn concurrent_push_steal_and_pop_conserve_every_request() {
    let queue = Arc::new(ShardQueue::new(256));
    let total = 8_000u64;
    let stop = Arc::new(AtomicBool::new(false));
    let gate = Arc::new(Barrier::new(4));

    let producer = {
        let queue = Arc::clone(&queue);
        let gate = Arc::clone(&gate);
        thread::spawn(move || {
            gate.wait();
            let mut accepted = 0u64;
            let mut n = 0u64;
            while accepted < total {
                if queue.try_push(Request::new(ClientId(n), vec![0], None)) {
                    accepted += 1;
                } else {
                    thread::yield_now();
                }
                n += 1;
            }
        })
    };
    let mut thieves = Vec::new();
    for _ in 0..2 {
        let queue = Arc::clone(&queue);
        let stop = Arc::clone(&stop);
        let gate = Arc::clone(&gate);
        thieves.push(thread::spawn(move || {
            gate.wait();
            let mut mine = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                let got = queue.steal_where(8, |r| r.client.0 % 2 == 0);
                if got.is_empty() {
                    thread::yield_now();
                } else {
                    mine.extend(got.into_iter().map(|r| r.client.0));
                }
            }
            mine
        }));
    }

    gate.wait();
    let mut seen = HashSet::new();
    while (seen.len() as u64) + queue.stolen() < total {
        for request in queue.drain_publishing(16, |r| r.client.0 % 2 == 0) {
            assert!(seen.insert(request.client.0), "owner double-claim");
        }
    }
    stop.store(true, Ordering::SeqCst);
    producer.join().unwrap();
    let mut stolen_ids = Vec::new();
    for thief in thieves {
        stolen_ids.extend(thief.join().unwrap());
    }
    for id in stolen_ids {
        assert!(id % 2 == 0, "thief claimed a non-stealable request");
        assert!(seen.insert(id), "request claimed twice");
    }
    assert_eq!(seen.len() as u64, total, "requests lost");
    assert!(queue.is_empty());
}

/// Expected payload length for a client — varied so recycled buffers
/// keep crossing size-class boundaries.
fn frame_len(id: u64) -> usize {
    16 + (id % 48) as usize
}

/// Expected payload byte `i` for a client: unique enough per frame that
/// a buffer clobbered by a premature recycle cannot still match.
fn frame_byte(id: u64, i: usize) -> u8 {
    (id as u8) ^ (i as u8).wrapping_mul(31)
}

/// Panics unless `payload` holds exactly the bytes the producer wrote
/// for `id` — the aliasing oracle for the property test below.
fn assert_frame_intact(id: u64, payload: &[u8]) {
    assert_eq!(payload.len(), frame_len(id), "frame {id} resized in flight");
    for (i, &byte) in payload.iter().enumerate() {
        assert_eq!(
            byte,
            frame_byte(id, i),
            "frame {id} byte {i} clobbered — recycled storage aliased a live payload"
        );
    }
}

proptest! {
    // Each case spawns a thread storm; a handful of cases is plenty to
    // shake out interleavings without dominating the suite's runtime.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Property: recycled frame buffers never alias a live payload, and
    /// every frame is claimed exactly once, under a concurrent
    /// push/steal/pop storm with cross-thread buffer returns.
    ///
    /// The producer acquires pooled storage per frame; thieves and the
    /// owner verify content on claim and drop, which routes the storage
    /// back to the producer's pool over the MPSC return channel for the
    /// next acquire. A pool that handed out storage still referenced by
    /// a queued frame would let the producer overwrite it and break the
    /// byte-exact content check.
    #[test]
    fn recycled_buffers_never_alias_live_payloads(
        total in 200u64..800,
        capacity in 32usize..256,
        thieves in 1usize..4,
        chunk in 1usize..9,
    ) {
        let queue = Arc::new(ShardQueue::new(capacity));
        let stop = Arc::new(AtomicBool::new(false));
        let gate = Arc::new(Barrier::new(thieves + 2));

        let producer = {
            let queue = Arc::clone(&queue);
            let gate = Arc::clone(&gate);
            thread::spawn(move || {
                sdrad_nolock::arena::set_thread_pooling(true);
                gate.wait();
                let mut accepted = 0u64;
                while accepted < total {
                    let id = accepted;
                    let mut payload = FrameBuf::acquire(frame_len(id));
                    payload.extend((0..frame_len(id)).map(|i| frame_byte(id, i)));
                    if queue.try_push(Request::new(ClientId(id), payload, None)) {
                        accepted += 1;
                    } else {
                        // Saturated: the rejected frame just recycled
                        // same-thread; let the claimants catch up.
                        thread::yield_now();
                    }
                }
                sdrad_nolock::arena::thread_stats()
            })
        };

        let mut handles = Vec::new();
        for _ in 0..thieves {
            let queue = Arc::clone(&queue);
            let stop = Arc::clone(&stop);
            let gate = Arc::clone(&gate);
            handles.push(thread::spawn(move || {
                gate.wait();
                let mut mine = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    let got = queue.steal_where(chunk, |_| true);
                    if got.is_empty() {
                        thread::yield_now();
                    }
                    for request in got {
                        assert_frame_intact(request.client.0, &request.payload);
                        mine.push(request.client.0);
                        // Dropping here returns the storage to the
                        // producer's pool through the MPSC channel.
                    }
                }
                mine
            }));
        }

        gate.wait();
        let mut seen = HashSet::new();
        while (seen.len() as u64) + queue.stolen() < total {
            for request in queue.drain_publishing(16, |_| true) {
                assert_frame_intact(request.client.0, &request.payload);
                prop_assert!(seen.insert(request.client.0), "owner double-claim");
            }
        }
        stop.store(true, Ordering::SeqCst);
        let arena = producer.join().unwrap();
        for thief in handles {
            for id in thief.join().unwrap() {
                prop_assert!(seen.insert(id), "frame claimed twice");
            }
        }
        prop_assert_eq!(seen.len() as u64, total, "frames lost");
        prop_assert!(queue.is_empty());
        // The pool's own books must balance, and the storm must have
        // actually exercised recycling — a vacuously-fresh run would
        // prove nothing about aliasing.
        prop_assert_eq!(arena.acquires, arena.reuses + arena.fresh_allocs);
        prop_assert!(
            arena.reuses > 0,
            "storm never recycled a buffer (acquires={}, fresh={})",
            arena.acquires,
            arena.fresh_allocs
        );
    }
}
