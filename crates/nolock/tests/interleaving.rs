//! Targeted interleaving tests for the lock-free primitives.
//!
//! Loom is not vendored, so these are stress-style schedules: many
//! threads hammer each structure while the test asserts the three
//! properties the runtime's conservation laws lean on — **no lost
//! elements** (every pushed value is popped exactly once), **no
//! double-pop** (no value is seen twice), and **drain-after-close**
//! (items that land concurrently with `close` are still drainable).
//! Each test tags values with a (producer, sequence) pair so exactness
//! is checked per element, not just by count.

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;

use sdrad_nolock::{Bounded, MpscQueue, SpscRing};

const PRODUCERS: usize = 4;
const PER_PRODUCER: usize = 2_000;

fn tag(producer: usize, seq: usize) -> u64 {
    ((producer as u64) << 32) | seq as u64
}

#[test]
fn mpsc_every_element_arrives_exactly_once() {
    let queue = Arc::new(MpscQueue::new());
    let gate = Arc::new(Barrier::new(PRODUCERS + 1));
    let mut handles = Vec::new();
    for producer in 0..PRODUCERS {
        let queue = Arc::clone(&queue);
        let gate = Arc::clone(&gate);
        handles.push(thread::spawn(move || {
            gate.wait();
            for seq in 0..PER_PRODUCER {
                queue.push(tag(producer, seq)).expect("queue is open");
            }
        }));
    }
    gate.wait();
    let mut seen = HashSet::new();
    let total = PRODUCERS * PER_PRODUCER;
    while seen.len() < total {
        match queue.pop() {
            Some(value) => assert!(seen.insert(value), "double-pop of {value:#x}"),
            // `len` counts pushes whose link is still in flight, so an
            // empty pop with a nonzero len is the head-blocked window,
            // not the end of the stream.
            None => thread::yield_now(),
        }
    }
    for handle in handles {
        handle.join().unwrap();
    }
    assert!(queue.pop().is_none());
    assert_eq!(queue.len(), 0);
}

#[test]
fn mpsc_preserves_per_producer_fifo_order() {
    let queue = Arc::new(MpscQueue::new());
    let gate = Arc::new(Barrier::new(PRODUCERS + 1));
    let mut handles = Vec::new();
    for producer in 0..PRODUCERS {
        let queue = Arc::clone(&queue);
        let gate = Arc::clone(&gate);
        handles.push(thread::spawn(move || {
            gate.wait();
            for seq in 0..PER_PRODUCER {
                queue.push(tag(producer, seq)).expect("queue is open");
            }
        }));
    }
    gate.wait();
    let mut next = [0usize; PRODUCERS];
    let mut popped = 0;
    while popped < PRODUCERS * PER_PRODUCER {
        let Some(value) = queue.pop() else {
            thread::yield_now();
            continue;
        };
        let producer = (value >> 32) as usize;
        let seq = (value & u32::MAX as u64) as usize;
        assert_eq!(seq, next[producer], "producer {producer} reordered");
        next[producer] += 1;
        popped += 1;
    }
    for handle in handles {
        handle.join().unwrap();
    }
}

#[test]
fn mpsc_drains_after_close() {
    let queue = Arc::new(MpscQueue::new());
    let gate = Arc::new(Barrier::new(PRODUCERS + 1));
    let accepted = Arc::new(AtomicUsize::new(0));
    let mut handles = Vec::new();
    for producer in 0..PRODUCERS {
        let queue = Arc::clone(&queue);
        let gate = Arc::clone(&gate);
        let accepted = Arc::clone(&accepted);
        handles.push(thread::spawn(move || {
            gate.wait();
            for seq in 0..PER_PRODUCER {
                if queue.push(tag(producer, seq)).is_ok() {
                    accepted.fetch_add(1, Ordering::SeqCst);
                } else {
                    // Refused after close: the producer backs off for
                    // good, exactly like a shedding submit path.
                    return;
                }
            }
        }));
    }
    gate.wait();
    // Close somewhere in the middle of the storm.
    while queue.len() < PER_PRODUCER {
        thread::yield_now();
    }
    queue.close();
    for handle in handles {
        handle.join().unwrap();
    }
    // Every accepted push — including any that raced the close — must
    // drain; nothing extra may appear.
    let mut seen = HashSet::new();
    loop {
        match queue.pop() {
            Some(value) => {
                assert!(seen.insert(value), "double-pop after close");
            }
            None if !queue.is_empty() => thread::yield_now(),
            None => break,
        }
    }
    assert_eq!(seen.len(), accepted.load(Ordering::SeqCst));
}

#[test]
fn mpmc_thief_storm_claims_each_element_once() {
    let buffer = Arc::new(Bounded::new(64));
    let consumers = 4usize;
    let total = 20_000usize;
    let gate = Arc::new(Barrier::new(consumers + 1));
    let mut handles = Vec::new();
    for _ in 0..consumers {
        let buffer = Arc::clone(&buffer);
        let gate = Arc::clone(&gate);
        handles.push(thread::spawn(move || {
            gate.wait();
            let mut mine = Vec::new();
            loop {
                match buffer.pop() {
                    Some(value) => {
                        if value == u64::MAX {
                            break;
                        }
                        mine.push(value);
                    }
                    None => thread::yield_now(),
                }
            }
            mine
        }));
    }
    gate.wait();
    for value in 0..total as u64 {
        let mut item = value;
        // The ring is intentionally smaller than the stream: full is a
        // normal outcome, the producer retries like the owner re-batches.
        while let Err(back) = buffer.push(item) {
            item = back;
            thread::yield_now();
        }
    }
    for _ in 0..consumers {
        let mut poison = u64::MAX;
        while let Err(back) = buffer.push(poison) {
            poison = back;
            thread::yield_now();
        }
    }
    let mut seen = HashSet::new();
    for handle in handles {
        for value in handle.join().unwrap() {
            assert!(seen.insert(value), "double-pop of {value}");
        }
    }
    assert_eq!(seen.len(), total, "lost elements");
}

#[test]
fn mpmc_concurrent_producers_and_consumers() {
    let buffer = Arc::new(Bounded::new(32));
    let gate = Arc::new(Barrier::new(PRODUCERS * 2 + 1));
    let live = Arc::new(AtomicUsize::new(PRODUCERS));
    let mut producers = Vec::new();
    let mut consumers = Vec::new();
    for producer in 0..PRODUCERS {
        let buffer = Arc::clone(&buffer);
        let gate = Arc::clone(&gate);
        let live = Arc::clone(&live);
        producers.push(thread::spawn(move || {
            gate.wait();
            for seq in 0..PER_PRODUCER {
                let mut item = tag(producer, seq);
                while let Err(back) = buffer.push(item) {
                    item = back;
                    thread::yield_now();
                }
            }
            live.fetch_sub(1, Ordering::SeqCst);
        }));
    }
    for _ in 0..PRODUCERS {
        let buffer = Arc::clone(&buffer);
        let gate = Arc::clone(&gate);
        let live = Arc::clone(&live);
        consumers.push(thread::spawn(move || {
            gate.wait();
            let mut mine = Vec::new();
            loop {
                match buffer.pop() {
                    Some(value) => mine.push(value),
                    None if live.load(Ordering::SeqCst) > 0 => thread::yield_now(),
                    None => break,
                }
            }
            mine
        }));
    }
    gate.wait();
    for handle in producers {
        handle.join().unwrap();
    }
    let mut seen = HashSet::new();
    for handle in consumers {
        for value in handle.join().unwrap() {
            assert!(seen.insert(value), "double-pop of {value:#x}");
        }
    }
    assert_eq!(seen.len(), PRODUCERS * PER_PRODUCER, "lost elements");
}

#[test]
fn spsc_streams_in_order_without_loss() {
    let ring = Arc::new(SpscRing::new(8));
    let total = 50_000u64;
    let producer = {
        let ring = Arc::clone(&ring);
        thread::spawn(move || {
            for value in 0..total {
                let mut item = value;
                while let Err(back) = ring.push(item) {
                    item = back;
                    thread::yield_now();
                }
            }
        })
    };
    let mut expected = 0u64;
    while expected < total {
        match ring.pop() {
            Some(value) => {
                assert_eq!(value, expected, "reordered or duplicated");
                expected += 1;
            }
            None => thread::yield_now(),
        }
    }
    producer.join().unwrap();
    assert!(ring.pop().is_none());
}

#[test]
fn spsc_role_guards_refuse_a_second_consumer_gracefully() {
    let ring = Arc::new(SpscRing::new(4));
    ring.push(7u64).unwrap();
    // A "second consumer" is modeled by racing many poppers: the claim
    // guard guarantees at most one wins per value — never a panic, a
    // tear, or a duplicate.
    let gate = Arc::new(Barrier::new(PRODUCERS));
    let mut handles = Vec::new();
    for _ in 0..PRODUCERS {
        let ring = Arc::clone(&ring);
        let gate = Arc::clone(&gate);
        handles.push(thread::spawn(move || {
            gate.wait();
            ring.pop()
        }));
    }
    let wins: Vec<_> = handles
        .into_iter()
        .filter_map(|h| h.join().unwrap())
        .collect();
    assert_eq!(wins, vec![7]);
}
