//! The per-domain bump heap.

use super::HeapStats;
use crate::mpk::{Fault, MemorySpace, ProtectionKey, Region, VirtAddr};

/// Minimum alignment (and granule) of payload allocations, in bytes.
pub(super) const MIN_ALIGN: usize = 16;

/// Width of each heap canary, in bytes.
pub(super) const CANARY_LEN: usize = 8;

/// Byte written over freed payloads so stale reads are recognisable.
pub(super) const FREE_POISON: u8 = 0xDF;

/// Seed mixed into per-address canary values, so a fixed byte pattern
/// sprayed by an overflow cannot reproduce a valid canary at a new address.
const CANARY_SEED: u64 = 0x5D8A_D000_C0FF_EE00;

/// Per-block bookkeeping kept *outside* the domain's memory.
///
/// SDRaD protects allocator metadata from the domain it serves; keeping the
/// table on the Rust side models that: an overflow inside the domain can
/// clobber canaries and payloads but never the size/state records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Block {
    /// Region offset of the payload.
    offset: usize,
    /// Rounded payload size in bytes (multiple of [`MIN_ALIGN`]).
    rounded: usize,
    /// Requested payload size in bytes.
    requested: usize,
    /// Whether the block is allocated. A freed block below a live one
    /// stays as a dead record until every block above it is freed.
    live: bool,
}

/// A bump heap inside a single key-tagged region.
///
/// `alloc` takes the bytes at the watermark; `free` marks its block dead
/// and pops dead blocks off the top, so a call that frees what it
/// allocated leaves the watermark where the call found it. A hole below
/// a live block is not reused until everything above it is freed.
///
/// All payload bytes live in the domain's [`MemorySpace`] region (so they
/// are subject to PKRU checks); all metadata lives in this struct (so it is
/// immune to domain-internal corruption). See the module docs for the role
/// this plays in SDRaD.
#[derive(Debug)]
pub(crate) struct DomainHeap {
    region: Region,
    /// Block records in address order, dead ones below the top included.
    blocks: Vec<Block>,
    /// Bump watermark: offset of the first byte past the top block.
    watermark: usize,
    stats: HeapStats,
}

impl DomainHeap {
    /// Maps a fresh region of `capacity` bytes (the domain's allocation
    /// quota) tagged `key` and builds an empty heap over it.
    ///
    /// # Errors
    ///
    /// Propagates [`Fault::InvalidKey`] from the mapping.
    pub fn new(
        space: &mut MemorySpace,
        key: ProtectionKey,
        capacity: usize,
    ) -> Result<Self, Fault> {
        let region = space.map(capacity, key)?;
        Ok(DomainHeap {
            region,
            blocks: Vec::new(),
            watermark: 0,
            stats: HeapStats::default(),
        })
    }

    /// The region backing this heap.
    #[must_use]
    pub fn region(&self) -> Region {
        self.region
    }

    /// Current statistics.
    #[must_use]
    pub fn stats(&self) -> HeapStats {
        self.stats
    }

    /// Requested size of the live block at `addr`, if any.
    #[must_use]
    pub fn block_size(&self, addr: VirtAddr) -> Option<usize> {
        self.live_index(addr).map(|i| self.blocks[i].requested)
    }

    /// Allocates `len` payload bytes at the watermark, returning the
    /// payload address.
    ///
    /// # Errors
    ///
    /// [`Fault::QuotaExceeded`] when the region cannot fit the block;
    /// write faults from the space if the current PKRU forbids access to
    /// the heap's key (the canary write performs a real checked store).
    pub fn alloc(&mut self, space: &mut MemorySpace, len: usize) -> Result<VirtAddr, Fault> {
        let rounded = round_up(len.max(1), MIN_ALIGN);
        let end = self.watermark + rounded + 2 * CANARY_LEN;
        if end > self.region.len() {
            self.stats.faults_detected += 1;
            return Err(Fault::QuotaExceeded {
                requested: end,
                quota: self.region.len(),
            });
        }
        let front = self.region.base().offset(self.watermark);
        let payload = front.offset(CANARY_LEN);
        let back = payload.offset(rounded);
        space.write(front, &canary_for(front).to_le_bytes())?;
        space.write(back, &canary_for(back).to_le_bytes())?;
        self.blocks.push(Block {
            offset: self.watermark + CANARY_LEN,
            rounded,
            requested: len,
            live: true,
        });
        self.watermark = end;
        self.stats.on_alloc(len);
        Ok(payload)
    }

    /// Frees the block at payload address `addr`, verifying its canaries
    /// and poisoning its payload.
    ///
    /// # Errors
    ///
    /// [`Fault::DoubleFree`] if `addr` is not a live block;
    /// [`Fault::CanaryCorruption`] if an overflow damaged a canary (the
    /// block stays allocated — the caller is expected to rewind).
    pub fn free(&mut self, space: &mut MemorySpace, addr: VirtAddr) -> Result<(), Fault> {
        let Some(index) = self.live_index(addr) else {
            self.stats.faults_detected += 1;
            return Err(Fault::DoubleFree { addr });
        };
        let block = self.blocks[index];
        verify_block(space, self.region, block, &mut self.stats)?;
        space.fill(addr, block.rounded, FREE_POISON)?;
        self.blocks[index].live = false;
        while let Some(top) = self.blocks.last().filter(|b| !b.live) {
            self.watermark = top.offset - CANARY_LEN;
            self.blocks.pop();
        }
        self.stats.on_free(block.requested);
        Ok(())
    }

    /// Verifies the canaries of every live block — the "heap canary"
    /// detection mechanism run by SDRaD on domain exit.
    ///
    /// # Errors
    ///
    /// [`Fault::CanaryCorruption`] for the first corrupted block found.
    pub fn sweep(&mut self, space: &mut MemorySpace) -> Result<(), Fault> {
        for block in self.blocks.iter().filter(|b| b.live) {
            verify_block(space, self.region, *block, &mut self.stats)?;
        }
        Ok(())
    }

    /// Discards the entire heap: drops the bytes the domain touched since
    /// the last discard, all block records, and the watermark. This is
    /// the discard a rewind performs; it costs the bytes touched, not the
    /// capacity, and the heap is immediately reusable.
    ///
    /// # Errors
    ///
    /// Write faults if the current PKRU forbids access to the heap's key.
    pub fn discard(&mut self, space: &mut MemorySpace) -> Result<(), Fault> {
        space.discard(self.region)?;
        self.blocks.clear();
        self.watermark = 0;
        self.stats.on_discard();
        Ok(())
    }

    /// Index of the live block whose payload starts at `addr`.
    fn live_index(&self, addr: VirtAddr) -> Option<usize> {
        let offset = usize::try_from(addr.raw().checked_sub(self.region.base().raw())?).ok()?;
        let index = self
            .blocks
            .binary_search_by_key(&offset, |b| b.offset)
            .ok()?;
        self.blocks[index].live.then_some(index)
    }
}

/// Checks both canaries of one block of the heap over `region`.
fn verify_block(
    space: &mut MemorySpace,
    region: Region,
    block: Block,
    stats: &mut HeapStats,
) -> Result<(), Fault> {
    let payload = region.base().offset(block.offset);
    let front = region.base().offset(block.offset - CANARY_LEN);
    let back = payload.offset(block.rounded);
    for (pos, overflow) in [(front, false), (back, true)] {
        let mut buf = [0u8; CANARY_LEN];
        space.read(pos, &mut buf)?;
        stats.canary_checks += 1;
        if u64::from_le_bytes(buf) != canary_for(pos) {
            stats.faults_detected += 1;
            return Err(Fault::CanaryCorruption {
                addr: payload,
                overflow,
            });
        }
    }
    Ok(())
}

/// Per-address canary value (splitmix64 finaliser over the address).
pub(super) fn canary_for(addr: VirtAddr) -> u64 {
    let mut z = addr.raw().wrapping_add(CANARY_SEED);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

pub(super) fn round_up(value: usize, align: usize) -> usize {
    value.div_ceil(align) * align
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mpk::{AccessRights, Pkru, PkruGuard};

    fn setup(capacity: usize) -> (MemorySpace, DomainHeap, PkruGuard) {
        let mut space = MemorySpace::new();
        let key = space.pkey_alloc().unwrap();
        let guard = PkruGuard::enter(Pkru::root_only().with_rights(key, AccessRights::ReadWrite));
        let heap = DomainHeap::new(&mut space, key, capacity).unwrap();
        (space, heap, guard)
    }

    #[test]
    fn alloc_write_read_free() {
        let (mut space, mut heap, _g) = setup(4096);
        let addr = heap.alloc(&mut space, 64).unwrap();
        space.write(addr, &[7u8; 64]).unwrap();
        let mut buf = [0u8; 64];
        space.read(addr, &mut buf).unwrap();
        assert_eq!(buf, [7u8; 64]);
        heap.free(&mut space, addr).unwrap();
        assert!(heap.block_size(addr).is_none());
    }

    #[test]
    fn allocations_do_not_overlap() {
        let (mut space, mut heap, _g) = setup(64 * 1024);
        let mut spans: Vec<(u64, usize)> = Vec::new();
        for i in 1..64usize {
            let addr = heap.alloc(&mut space, i * 7 % 200 + 1).unwrap();
            let size = heap.block_size(addr).unwrap();
            for &(start, len) in &spans {
                let end = start + len as u64;
                assert!(
                    addr.raw() >= end || addr.raw() + size as u64 <= start,
                    "block at {addr} overlaps existing span"
                );
            }
            spans.push((addr.raw(), size));
        }
    }

    #[test]
    fn double_free_is_detected() {
        let (mut space, mut heap, _g) = setup(4096);
        let addr = heap.alloc(&mut space, 32).unwrap();
        heap.free(&mut space, addr).unwrap();
        assert!(matches!(
            heap.free(&mut space, addr),
            Err(Fault::DoubleFree { .. })
        ));
        assert_eq!(heap.stats().faults_detected, 1);
    }

    #[test]
    fn overflow_corrupts_back_canary_and_is_detected_on_free() {
        let (mut space, mut heap, _g) = setup(4096);
        let addr = heap.alloc(&mut space, 16).unwrap();
        // Simulate a linear heap overflow: write past the payload into the
        // trailing canary (an in-region store the pkey cannot stop, because
        // it stays inside the domain's own region).
        space.write(addr.offset(16), &[0x41u8; 8]).unwrap();
        let err = heap.free(&mut space, addr).unwrap_err();
        assert!(matches!(
            err,
            Fault::CanaryCorruption { overflow: true, .. }
        ));
    }

    #[test]
    fn underflow_corrupts_front_canary() {
        let (mut space, mut heap, _g) = setup(4096);
        let addr = heap.alloc(&mut space, 16).unwrap();
        space
            .write(VirtAddr::new(addr.raw() - 8), &[0x42u8; 8])
            .unwrap();
        let err = heap.sweep(&mut space).unwrap_err();
        assert!(matches!(
            err,
            Fault::CanaryCorruption {
                overflow: false,
                ..
            }
        ));
    }

    #[test]
    fn sweep_passes_on_clean_heap() {
        let (mut space, mut heap, _g) = setup(8192);
        for len in [1usize, 16, 100, 1000] {
            let addr = heap.alloc(&mut space, len).unwrap();
            space.write(addr, &vec![0xAB; len]).unwrap();
        }
        heap.sweep(&mut space).unwrap();
        assert!(heap.stats().canary_checks >= 8);
    }

    #[test]
    fn quota_exhaustion_faults() {
        let (mut space, mut heap, _g) = setup(1024);
        let err = heap.alloc(&mut space, 4096).unwrap_err();
        assert!(matches!(err, Fault::QuotaExceeded { quota: 1024, .. }));
    }

    #[test]
    fn quota_faults_report_more_than_the_quota() {
        // Canaries and 16-byte rounding count toward the quota, so the
        // payload bytes alone can stay under it when the check fails.
        let (mut space, mut heap, _g) = setup(4096);
        let first = heap.alloc(&mut space, 2000).unwrap();
        heap.alloc(&mut space, 2000).unwrap();
        let full = heap.alloc(&mut space, 64).unwrap_err();
        // A freed hole too small for the next block still refuses it.
        heap.free(&mut space, first).unwrap();
        let fragmented = heap.alloc(&mut space, 2020).unwrap_err();
        for fault in [full, fragmented] {
            match fault {
                Fault::QuotaExceeded { requested, quota } => {
                    assert_eq!(quota, 4096);
                    assert!(requested > quota, "{fault}");
                }
                other => panic!("expected a quota fault, got {other}"),
            }
        }
    }

    #[test]
    fn freed_memory_is_reused() {
        let (mut space, mut heap, _g) = setup(2048);
        let a = heap.alloc(&mut space, 256).unwrap();
        heap.free(&mut space, a).unwrap();
        let b = heap.alloc(&mut space, 256).unwrap();
        assert_eq!(a, b, "freeing the top block hands its span back");
    }

    #[test]
    fn coalescing_allows_large_realloc_after_small_frees() {
        let (mut space, mut heap, _g) = setup(1024);
        // Fill the heap with four blocks, free them all, then allocate one
        // block close to the whole capacity: only possible if spans merge.
        let blocks: Vec<_> = (0..4)
            .map(|_| heap.alloc(&mut space, 200).unwrap())
            .collect();
        for addr in blocks {
            heap.free(&mut space, addr).unwrap();
        }
        assert!(heap.alloc(&mut space, 900).is_ok());
    }

    #[test]
    fn freed_payload_is_poisoned() {
        let (mut space, mut heap, _g) = setup(4096);
        let addr = heap.alloc(&mut space, 32).unwrap();
        space.write(addr, &[1u8; 32]).unwrap();
        heap.free(&mut space, addr).unwrap();
        let mut buf = [0u8; 32];
        space.read(addr, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0xDF));
    }

    #[test]
    fn discard_resets_everything() {
        let (mut space, mut heap, _g) = setup(4096);
        let addr = heap.alloc(&mut space, 128).unwrap();
        space.write(addr, &[9u8; 128]).unwrap();
        heap.discard(&mut space).unwrap();
        assert_eq!(heap.stats().live_blocks, 0);
        assert!(heap.block_size(addr).is_none());
        // The heap is immediately reusable and hands out fresh memory.
        let addr2 = heap.alloc(&mut space, 128).unwrap();
        let mut buf = [0u8; 128];
        space.read(addr2, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0xDF || b == 0), "no stale data");
    }

    #[test]
    fn discard_after_corruption_recovers_the_heap() {
        let (mut space, mut heap, _g) = setup(4096);
        let addr = heap.alloc(&mut space, 16).unwrap();
        space.write(addr.offset(16), &[0u8; 8]).unwrap(); // smash canary
        assert!(heap.sweep(&mut space).is_err());
        heap.discard(&mut space).unwrap();
        assert!(heap.sweep(&mut space).is_ok(), "clean after discard");
        assert!(heap.alloc(&mut space, 16).is_ok());
    }

    #[test]
    fn alloc_without_pkru_rights_faults() {
        let mut space = MemorySpace::new();
        let key = space.pkey_alloc().unwrap();
        let mut heap = {
            let _g = PkruGuard::enter(Pkru::root_only().with_rights(key, AccessRights::ReadWrite));
            DomainHeap::new(&mut space, key, 4096).unwrap()
        };
        // No rights now: the canary write inside alloc must fault.
        let _g = PkruGuard::enter(Pkru::root_only());
        assert!(matches!(
            heap.alloc(&mut space, 16),
            Err(Fault::PkuViolation { .. })
        ));
    }

    #[test]
    fn zero_len_alloc_is_usable() {
        let (mut space, mut heap, _g) = setup(4096);
        let addr = heap.alloc(&mut space, 0).unwrap();
        assert_eq!(heap.block_size(addr), Some(0));
        heap.free(&mut space, addr).unwrap();
    }

    #[test]
    fn watermark_reclaims_trailing_frees() {
        let (mut space, mut heap, _g) = setup(512);
        // Allocate the whole capacity in one block, free it, and allocate
        // again: only possible if the watermark rewinds.
        let a = heap.alloc(&mut space, 480).unwrap();
        heap.free(&mut space, a).unwrap();
        assert!(heap.alloc(&mut space, 480).is_ok());
    }
}
