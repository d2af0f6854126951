//! Property tests for the domain heap: allocation invariants under
//! arbitrary workloads.

use super::DomainHeap;
use crate::mpk::{AccessRights, MemorySpace, Pkru, PkruGuard, VirtAddr};
use proptest::prelude::*;

/// One step of a synthetic heap workload.
#[derive(Debug, Clone)]
enum Op {
    Alloc(usize),
    /// Free the i-th live block (modulo the live count).
    Free(usize),
    /// Write a byte pattern into the i-th live block.
    Fill(usize, u8),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1usize..600).prop_map(Op::Alloc),
        (0usize..64).prop_map(Op::Free),
        ((0usize..64), any::<u8>()).prop_map(|(i, b)| Op::Fill(i, b)),
    ]
}

proptest! {
    /// Invariants under arbitrary alloc/free/write sequences:
    /// * live blocks never overlap,
    /// * canaries always verify (benign writes stay in bounds),
    /// * live-byte accounting matches the block table.
    #[test]
    fn arbitrary_workload_upholds_invariants(ops in proptest::collection::vec(arb_op(), 1..120)) {
        let mut space = MemorySpace::new();
        let key = space.pkey_alloc().unwrap();
        let _g = PkruGuard::enter(Pkru::root_only().with_rights(key, AccessRights::ReadWrite));
        let mut heap = DomainHeap::new(&mut space, key, 256 * 1024).unwrap();
        let mut live: Vec<(VirtAddr, usize)> = Vec::new();

        for op in ops {
            match op {
                Op::Alloc(len) => {
                    if let Ok(addr) = heap.alloc(&mut space, len) {
                        live.push((addr, len));
                    }
                }
                Op::Free(i) => {
                    if !live.is_empty() {
                        let (addr, _) = live.remove(i % live.len());
                        heap.free(&mut space, addr).expect("benign free succeeds");
                    }
                }
                Op::Fill(i, byte) => {
                    if !live.is_empty() {
                        let (addr, len) = live[i % live.len()];
                        if len > 0 {
                            space.write(addr, &vec![byte; len]).expect("in-bounds write");
                        }
                    }
                }
            }

            // No two live blocks overlap (check via footprints).
            let mut spans: Vec<(u64, u64)> = live
                .iter()
                .map(|(a, _)| {
                    let size = heap.block_size(*a).expect("live block known") as u64;
                    (a.raw(), a.raw() + size.max(1))
                })
                .collect();
            spans.sort_unstable();
            for pair in spans.windows(2) {
                prop_assert!(pair[0].1 <= pair[1].0, "live blocks overlap");
            }
        }

        // All canaries intact after a benign workload.
        heap.sweep(&mut space).expect("no corruption from benign writes");

        let expected_live: u64 = live.iter().map(|(_, l)| *l as u64).sum();
        prop_assert_eq!(heap.stats().live_bytes, expected_live);
        prop_assert_eq!(heap.stats().live_blocks, live.len() as u64);
    }

    /// Data written to one block is never altered by operations on other
    /// blocks (no aliasing through the free list or splitting logic).
    #[test]
    fn blocks_do_not_alias(
        lens in proptest::collection::vec(1usize..300, 2..20),
        victim in 0usize..19,
    ) {
        let mut space = MemorySpace::new();
        let key = space.pkey_alloc().unwrap();
        let _g = PkruGuard::enter(Pkru::root_only().with_rights(key, AccessRights::ReadWrite));
        let mut heap = DomainHeap::new(&mut space, key, 64 * 1024).unwrap();

        prop_assume!(victim < lens.len());
        let blocks: Vec<_> = lens.iter().map(|&l| heap.alloc(&mut space, l).unwrap()).collect();
        let vaddr = blocks[victim];
        let vlen = lens[victim];
        space.write(vaddr, &vec![0x77u8; vlen]).unwrap();

        // Churn every other block.
        for (i, (&addr, &len)) in blocks.iter().zip(&lens).enumerate() {
            if i != victim {
                space.write(addr, &vec![0x11u8; len]).unwrap();
                heap.free(&mut space, addr).unwrap();
                let _ = heap.alloc(&mut space, len / 2 + 1);
            }
        }

        let mut back = vec![0u8; vlen];
        space.read(vaddr, &mut back).unwrap();
        prop_assert!(back.iter().all(|&b| b == 0x77), "victim block was altered");
    }

    /// Discard always leaves the heap empty and immediately reusable,
    /// whatever state it was in.
    #[test]
    fn discard_from_any_state(lens in proptest::collection::vec(1usize..500, 0..30)) {
        let mut space = MemorySpace::new();
        let key = space.pkey_alloc().unwrap();
        let _g = PkruGuard::enter(Pkru::root_only().with_rights(key, AccessRights::ReadWrite));
        let mut heap = DomainHeap::new(&mut space, key, 64 * 1024).unwrap();
        for &len in &lens {
            let _ = heap.alloc(&mut space, len);
        }
        heap.discard(&mut space).unwrap();
        prop_assert_eq!(heap.stats().live_blocks, 0);
        prop_assert!(heap.alloc(&mut space, 100).is_ok());
        heap.sweep(&mut space).unwrap();
    }
}
