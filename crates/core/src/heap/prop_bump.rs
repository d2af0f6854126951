//! Property tests for the bump heap: the free-list heap it replaced as an
//! oracle for its faults and statistics, and its discard leaving no byte
//! of a domain readable.

use super::bump::{round_up, CANARY_LEN, FREE_POISON, MIN_ALIGN};
use super::free_list_oracle::FreeListHeap;
use super::DomainHeap;
use crate::mpk::{AccessRights, Fault, MemorySpace, Pkru, PkruGuard, ProtectionKey, VirtAddr};
use proptest::prelude::*;

/// Heap capacity of every script.
const CAPACITY: usize = 16 * 1024;

/// One step of a script run against both heaps.
#[derive(Debug, Clone)]
enum Op {
    /// Allocate; skipped once the script's allocations would pass the
    /// capacity, where the two heaps' layouts would make them disagree.
    Alloc(usize),
    /// Allocate more than the capacity: a quota fault in both heaps.
    Oversize(usize),
    /// Free the i-th live block (modulo the live count).
    Free(usize),
    /// Free the i-th live block, then free it again.
    DoubleFree(usize),
    /// Write the i-th live block's payload and its whole back canary,
    /// then free it.
    Overflow(usize),
    /// Write over the i-th live block's front canary, then free it.
    Underflow(usize),
    /// Write the i-th live block's requested bytes.
    Fill(usize, u8),
    /// The exit sweep over every live block.
    Sweep,
    /// A rewind's discard.
    Discard,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..600).prop_map(Op::Alloc),
        (0usize..600).prop_map(Op::Alloc),
        (CAPACITY..2 * CAPACITY).prop_map(Op::Oversize),
        (0usize..64).prop_map(Op::Free),
        (0usize..64).prop_map(Op::Free),
        (0usize..64).prop_map(Op::DoubleFree),
        (0usize..64).prop_map(Op::Overflow),
        (0usize..64).prop_map(Op::Underflow),
        ((0usize..64), any::<u8>()).prop_map(|(i, b)| Op::Fill(i, b)),
        Just(Op::Sweep),
        Just(Op::Discard),
    ]
}

/// The bytes of region an allocation of `len` takes, canaries included.
fn footprint(len: usize) -> usize {
    round_up(len.max(1), MIN_ALIGN) + 2 * CANARY_LEN
}

/// What a step's fault shows: its kind, and for a canary which side.
fn shape<T>(outcome: &Result<T, Fault>) -> Option<(&'static str, bool)> {
    match outcome {
        Ok(_) => None,
        Err(Fault::CanaryCorruption { overflow, .. }) => Some(("canary-corruption", *overflow)),
        Err(fault) => Some((fault.kind(), false)),
    }
}

/// One heap under test, in its own space, with its live blocks'
/// addresses and requested lengths in allocation order.
struct Run<H> {
    space: MemorySpace,
    heap: H,
    live: Vec<(VirtAddr, usize)>,
}

/// The heap operations a script drives, shared by both heaps.
trait Heap {
    fn alloc(&mut self, space: &mut MemorySpace, len: usize) -> Result<VirtAddr, Fault>;
    fn free(&mut self, space: &mut MemorySpace, addr: VirtAddr) -> Result<(), Fault>;
    fn sweep(&mut self, space: &mut MemorySpace) -> Result<(), Fault>;
    fn discard(&mut self, space: &mut MemorySpace) -> Result<(), Fault>;
}

macro_rules! impl_heap {
    ($($ty:ty),*) => {$(
        impl Heap for $ty {
            fn alloc(&mut self, space: &mut MemorySpace, len: usize) -> Result<VirtAddr, Fault> {
                <$ty>::alloc(self, space, len)
            }
            fn free(&mut self, space: &mut MemorySpace, addr: VirtAddr) -> Result<(), Fault> {
                <$ty>::free(self, space, addr)
            }
            fn sweep(&mut self, space: &mut MemorySpace) -> Result<(), Fault> {
                <$ty>::sweep(self, space)
            }
            fn discard(&mut self, space: &mut MemorySpace) -> Result<(), Fault> {
                <$ty>::discard(self, space)
            }
        }
    )*};
}
impl_heap!(DomainHeap, FreeListHeap);

impl<H: Heap> Run<H> {
    /// A heap of [`CAPACITY`] built by `new` on the first key of a fresh
    /// space, so both heaps of a script sit at the same base and key.
    fn new(new: impl FnOnce(&mut MemorySpace, ProtectionKey) -> Result<H, Fault>) -> Self {
        let mut space = MemorySpace::new();
        let key = space.pkey_alloc().unwrap();
        let heap = new(&mut space, key).unwrap();
        Run {
            space,
            heap,
            live: Vec::new(),
        }
    }

    /// Takes the i-th live block (modulo the live count) off the list.
    fn take(&mut self, i: usize) -> (VirtAddr, usize) {
        self.live.remove(i % self.live.len())
    }

    /// Runs one step; a fault ends the domain call, so the heap is
    /// discarded as the boundary's rewind would.
    fn step(&mut self, op: &Op) -> Option<(&'static str, bool)> {
        let outcome = match *op {
            Op::Alloc(len) | Op::Oversize(len) => self
                .heap
                .alloc(&mut self.space, len)
                .map(|addr| self.live.push((addr, len))),
            Op::Free(i) => {
                let (addr, _) = self.take(i);
                self.heap.free(&mut self.space, addr)
            }
            Op::DoubleFree(i) => {
                let (addr, _) = self.take(i);
                self.heap.free(&mut self.space, addr).unwrap();
                self.heap.free(&mut self.space, addr)
            }
            Op::Overflow(i) => {
                let (addr, len) = self.take(i);
                let through = round_up(len.max(1), MIN_ALIGN) + CANARY_LEN;
                self.space.fill(addr, through, 0x41).unwrap();
                self.heap.free(&mut self.space, addr)
            }
            Op::Underflow(i) => {
                let (addr, _) = self.take(i);
                let front = VirtAddr::new(addr.raw() - CANARY_LEN as u64);
                self.space.fill(front, CANARY_LEN, 0x42).unwrap();
                self.heap.free(&mut self.space, addr)
            }
            Op::Fill(i, byte) => {
                let (addr, len) = self.live[i % self.live.len()];
                self.space.fill(addr, len, byte)
            }
            Op::Sweep => self.heap.sweep(&mut self.space),
            Op::Discard => {
                self.live.clear();
                self.heap.discard(&mut self.space)
            }
        };
        let shape = shape(&outcome);
        if shape.is_some() {
            self.live.clear();
            self.heap.discard(&mut self.space).unwrap();
        }
        shape
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// On every script whose allocations fit the capacity, the bump heap
    /// and the free-list heap it replaced raise the same fault at the
    /// same step — canary overflow or underflow, double free, quota — and
    /// end with identical statistics.
    #[test]
    fn bump_heap_faults_like_the_free_list(ops in proptest::collection::vec(arb_op(), 1..80)) {
        let mut bump = Run::new(|space, key| DomainHeap::new(space, key, CAPACITY));
        let mut oracle = Run::new(|space, key| FreeListHeap::new(space, key, CAPACITY));
        let key = bump.heap.region().key();
        let _g = PkruGuard::enter(Pkru::root_only().with_rights(key, AccessRights::ReadWrite));
        let mut allocated = 0;
        for (step, op) in ops.iter().enumerate() {
            match op {
                Op::Alloc(len) if allocated + footprint(*len) > CAPACITY => continue,
                Op::Alloc(len) => allocated += footprint(*len),
                Op::Free(_)
                | Op::DoubleFree(_)
                | Op::Overflow(_)
                | Op::Underflow(_)
                | Op::Fill(..)
                    if bump.live.is_empty() =>
                {
                    continue
                }
                _ => {}
            }
            let (got, want) = (bump.step(op), oracle.step(op));
            prop_assert_eq!(got, want, "step {} ({:?})", step, op);
            prop_assert_eq!(bump.live.len(), oracle.live.len());
        }
        prop_assert_eq!(bump.heap.stats(), oracle.heap.stats());
    }
}

/// One step of a script whose discard must leave nothing readable.
#[derive(Debug, Clone)]
enum Touch {
    Alloc(usize),
    /// Free the i-th block allocated so far; a repeat is a double free.
    Free(usize),
    /// Fill `len` bytes at a region offset: anywhere in the region, past
    /// the watermark included, as the chunked-upload exploit writes past
    /// a small buffer, or across or beyond the region's end, which faults.
    Write(usize, usize, u8),
}

fn arb_touch() -> impl Strategy<Value = Touch> {
    prop_oneof![
        (0usize..2000).prop_map(Touch::Alloc),
        (0usize..32).prop_map(Touch::Free),
        ((0usize..CAPACITY + 8192), (1usize..6000), any::<u8>())
            .prop_map(|(at, len, b)| Touch::Write(at, len, b)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// After any script of allocations, frees, in-region writes past the
    /// watermark and out-of-region writes, a discard leaves every byte of
    /// the region reading zero or poison, and the heap starts clean.
    #[test]
    fn discard_leaves_no_stale_bytes(script in proptest::collection::vec(arb_touch(), 1..40)) {
        let mut space = MemorySpace::new();
        let key = space.pkey_alloc().unwrap();
        let _g = PkruGuard::enter(Pkru::root_only().with_rights(key, AccessRights::ReadWrite));
        let mut heap = DomainHeap::new(&mut space, key, CAPACITY).unwrap();
        let base = heap.region().base();
        let mut blocks = Vec::new();
        for touch in &script {
            match *touch {
                Touch::Alloc(len) => {
                    if let Ok(addr) = heap.alloc(&mut space, len) {
                        space.fill(addr, len, 0xA5).unwrap();
                        blocks.push(addr);
                    }
                }
                Touch::Free(i) => {
                    if !blocks.is_empty() {
                        let _ = heap.free(&mut space, blocks[i % blocks.len()]);
                    }
                }
                Touch::Write(at, len, byte) => {
                    let _ = space.fill(base.offset(at), len, byte);
                }
            }
        }
        heap.discard(&mut space).unwrap();
        let mut bytes = vec![0xFFu8; CAPACITY];
        space.read(base, &mut bytes).unwrap();
        let stale = bytes.iter().position(|&b| b != 0 && b != FREE_POISON);
        prop_assert_eq!(stale, None, "a byte survived the discard");
        prop_assert_eq!(heap.stats().live_blocks, 0);
        heap.sweep(&mut space).unwrap();
        prop_assert!(heap.alloc(&mut space, CAPACITY - 2 * CANARY_LEN).is_ok());
    }
}
