//! Regression tests for the lock-free shard queue: exactly-once
//! delivery from concurrent producers to the owner's drain.
//!
//! The queue is an MPSC inbox plus a depth-reservation admission
//! counter; producers race each other on both while the owner drains.
//! These tests pin exactly-once conservation of every accepted request.
//!
//! The arena property test at the bottom adds the frame-buffer pool to
//! the storm: payloads ride in recycled [`FrameBuf`] storage acquired
//! on the producer threads and dropped on the owner's, and every claimed
//! payload must still carry exactly the bytes its producer wrote — a
//! buffer recycled while still live in the queue would be overwritten
//! by the next acquire and fail the content check.

use std::collections::HashSet;
use std::sync::{Arc, Barrier};
use std::thread;

use proptest::prelude::*;
use sdrad::ClientId;
use sdrad_nolock::FrameBuf;
use sdrad_runtime::{Request, ShardQueue};

/// Drains `queue` on the calling thread until `total` requests were
/// claimed, handing each to `claim`.
fn drain_until(queue: &ShardQueue, total: u64, mut claim: impl FnMut(Request)) {
    let mut claimed = 0u64;
    while claimed < total {
        let batch = queue.try_drain(16);
        if batch.is_empty() {
            thread::yield_now();
        }
        for request in batch {
            claimed += 1;
            claim(request);
        }
    }
}

#[test]
fn concurrent_producers_and_the_owner_drain_conserve_every_request() {
    const PRODUCERS: u64 = 3;
    const PER_PRODUCER: u64 = 4_000;
    let queue = Arc::new(ShardQueue::new(256));
    let gate = Arc::new(Barrier::new(PRODUCERS as usize + 1));

    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let queue = Arc::clone(&queue);
            let gate = Arc::clone(&gate);
            thread::spawn(move || {
                gate.wait();
                for k in 0..PER_PRODUCER {
                    let id = k * PRODUCERS + p;
                    // A full queue sheds; offer the same id again.
                    while !queue.try_push(Request::new(ClientId(id), vec![0], None)) {
                        thread::yield_now();
                    }
                }
            })
        })
        .collect();

    gate.wait();
    let mut seen = HashSet::new();
    drain_until(&queue, PRODUCERS * PER_PRODUCER, |request| {
        assert!(seen.insert(request.client.0), "request claimed twice");
    });
    for producer in producers {
        producer.join().unwrap();
    }
    assert_eq!(seen.len() as u64, PRODUCERS * PER_PRODUCER, "requests lost");
    assert!(queue.is_empty());
    assert!(queue.try_drain(16).is_empty(), "nothing invented");
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
    /// every frame is claimed exactly once, under concurrent producers
    /// with cross-thread buffer returns.
    ///
    /// Each producer acquires pooled storage per frame; the owner
    /// verifies content on claim and drops it, which routes the storage
    /// back to its producer's pool over the MPSC return channel for the
    /// next acquire. A pool that handed out storage still referenced by
    /// a queued frame would let the producer overwrite it and break the
    /// byte-exact content check.
    #[test]
    fn recycled_buffers_never_alias_live_payloads(
        per_producer in 300u64..800,
        capacity in 32usize..256,
        producers in 1u64..4,
    ) {
        let queue = Arc::new(ShardQueue::new(capacity));
        let gate = Arc::new(Barrier::new(producers as usize + 1));

        let handles: Vec<_> = (0..producers)
            .map(|p| {
                let queue = Arc::clone(&queue);
                let gate = Arc::clone(&gate);
                thread::spawn(move || {
                    sdrad_nolock::arena::set_thread_pooling(true);
                    gate.wait();
                    let mut k = 0u64;
                    while k < per_producer {
                        let id = k * producers + p;
                        let mut payload = FrameBuf::acquire(frame_len(id));
                        payload.extend((0..frame_len(id)).map(|i| frame_byte(id, i)));
                        if queue.try_push(Request::new(ClientId(id), payload, None)) {
                            k += 1;
                        } else {
                            // Saturated: the rejected frame just recycled
                            // same-thread; let the owner catch up.
                            thread::yield_now();
                        }
                    }
                    sdrad_nolock::arena::thread_stats()
                })
            })
            .collect();

        gate.wait();
        let total = producers * per_producer;
        let mut seen = HashSet::new();
        let mut double_claims = 0u64;
        drain_until(&queue, total, |request| {
            assert_frame_intact(request.client.0, &request.payload);
            if !seen.insert(request.client.0) {
                double_claims += 1;
            }
            // Dropping here returns the storage to its producer's pool
            // through the MPSC channel.
        });
        prop_assert_eq!(double_claims, 0, "frame claimed twice");
        prop_assert_eq!(seen.len() as u64, total, "frames lost");
        prop_assert!(queue.is_empty());
        // The pools' own books must balance, and the storm must have
        // actually exercised recycling — a vacuously-fresh run would
        // prove nothing about aliasing.
        let (mut acquires, mut reuses, mut fresh) = (0, 0, 0);
        for handle in handles {
            let arena = handle.join().unwrap();
            prop_assert_eq!(arena.acquires, arena.reuses + arena.fresh_allocs);
            acquires += arena.acquires;
            reuses += arena.reuses;
            fresh += arena.fresh_allocs;
        }
        prop_assert!(
            reuses > 0,
            "storm never recycled a buffer (acquires={}, fresh={})",
            acquires,
            fresh
        );
    }
}
