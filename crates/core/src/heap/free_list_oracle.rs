//! The first-fit free-list heap the bump heap replaced, kept as the
//! reference its oracle test compares against: same canaries, poison,
//! faults and statistics, but freed spans are split, coalesced and
//! reused anywhere below the watermark.

use std::collections::BTreeMap;

use super::bump::{canary_for, round_up, CANARY_LEN, FREE_POISON, MIN_ALIGN};
use super::HeapStats;
use crate::mpk::{Fault, MemorySpace, ProtectionKey, Region, VirtAddr};

/// Minimum leftover footprint worth splitting off as a new free block.
const MIN_SPLIT: usize = 2 * CANARY_LEN + 2 * MIN_ALIGN;

/// Per-block bookkeeping kept *outside* the domain's memory.
///
/// SDRaD protects allocator metadata from the domain it serves; keeping the
/// table on the Rust side models that: an overflow inside the domain can
/// clobber canaries and payloads but never the size/state records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Block {
    /// Rounded payload size in bytes (multiple of [`MIN_ALIGN`]).
    rounded: usize,
    /// Requested payload size in bytes.
    requested: usize,
}

impl Block {
    /// Total bytes of region the block occupies, canaries included.
    fn footprint(&self) -> usize {
        self.rounded + 2 * CANARY_LEN
    }
}

/// A first-fit free-list heap inside a single key-tagged region.
#[derive(Debug)]
pub(super) struct FreeListHeap {
    region: Region,
    /// Live blocks keyed by payload address.
    blocks: BTreeMap<u64, Block>,
    /// Free spans keyed by span start address → footprint length.
    free: BTreeMap<u64, usize>,
    /// Bump watermark: offset of the first never-used byte in the region.
    watermark: usize,
    stats: HeapStats,
}

impl FreeListHeap {
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
        Ok(FreeListHeap {
            region,
            blocks: BTreeMap::new(),
            free: BTreeMap::new(),
            watermark: 0,
            stats: HeapStats::default(),
        })
    }

    /// Current statistics.
    #[must_use]
    pub fn stats(&self) -> HeapStats {
        self.stats
    }

    /// Allocates `len` payload bytes, returning the payload address.
    ///
    /// # Errors
    ///
    /// [`Fault::QuotaExceeded`] when the region cannot fit the block;
    /// write faults from the space if the current PKRU forbids access to
    /// the heap's key (the canary write performs a real checked store).
    pub fn alloc(&mut self, space: &mut MemorySpace, len: usize) -> Result<VirtAddr, Fault> {
        let rounded = round_up(len.max(1), MIN_ALIGN);
        let block = Block {
            rounded,
            requested: len,
        };
        let need = block.footprint();

        let start = match self.take_free_span(need) {
            Some(start) => start,
            None => {
                if self.watermark + need > self.region.len() {
                    self.stats.faults_detected += 1;
                    return Err(Fault::QuotaExceeded {
                        requested: self.watermark + need,
                        quota: self.region.len(),
                    });
                }
                let start = self.watermark;
                self.watermark += need;
                start
            }
        };

        let front = self.region.base().offset(start);
        let payload = front.offset(CANARY_LEN);
        space.write(front, &canary_for(front).to_le_bytes())?;
        let back = payload.offset(rounded);
        space.write(back, &canary_for(back).to_le_bytes())?;
        self.blocks.insert(payload.raw(), block);
        self.stats.on_alloc(len);
        Ok(payload)
    }

    /// Frees the block at payload address `addr`, verifying its canaries.
    ///
    /// # Errors
    ///
    /// [`Fault::DoubleFree`] if `addr` is not a live block;
    /// [`Fault::CanaryCorruption`] if an overflow damaged a canary (the
    /// block stays allocated — the caller is expected to rewind).
    pub fn free(&mut self, space: &mut MemorySpace, addr: VirtAddr) -> Result<(), Fault> {
        let block = match self.blocks.get(&addr.raw()) {
            Some(b) => *b,
            None => {
                self.stats.faults_detected += 1;
                return Err(Fault::DoubleFree { addr });
            }
        };
        self.verify_block(space, addr, block)?;
        space.fill(addr, block.rounded, FREE_POISON)?;
        self.blocks.remove(&addr.raw());
        let span_start = addr.raw() - CANARY_LEN as u64;
        self.insert_free_span(
            usize::try_from(span_start - self.region.base().raw()).expect("offset fits usize"),
            block.footprint(),
        );
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
        let blocks: Vec<(u64, Block)> = self.blocks.iter().map(|(a, b)| (*a, *b)).collect();
        for (addr, block) in blocks {
            self.verify_block(space, VirtAddr::new(addr), block)?;
        }
        Ok(())
    }

    /// Discards the entire heap: poisons the whole region, drops all
    /// metadata, and resets the watermark; the heap is immediately
    /// reusable.
    ///
    /// # Errors
    ///
    /// Write faults if the current PKRU forbids access to the heap's key.
    pub fn discard(&mut self, space: &mut MemorySpace) -> Result<(), Fault> {
        space.fill(self.region.base(), self.region.len(), FREE_POISON)?;
        self.blocks.clear();
        self.free.clear();
        self.watermark = 0;
        self.stats.on_discard();
        Ok(())
    }

    /// Checks both canaries of one block.
    fn verify_block(
        &mut self,
        space: &mut MemorySpace,
        payload: VirtAddr,
        block: Block,
    ) -> Result<(), Fault> {
        let front = VirtAddr::new(payload.raw() - CANARY_LEN as u64);
        let back = payload.offset(block.rounded);
        for (pos, overflow) in [(front, false), (back, true)] {
            let mut buf = [0u8; CANARY_LEN];
            space.read(pos, &mut buf)?;
            self.stats.canary_checks += 1;
            if u64::from_le_bytes(buf) != canary_for(pos) {
                self.stats.faults_detected += 1;
                return Err(Fault::CanaryCorruption {
                    addr: payload,
                    overflow,
                });
            }
        }
        Ok(())
    }

    /// First-fit search of the free list; splits oversized spans.
    fn take_free_span(&mut self, need: usize) -> Option<usize> {
        let (&start, &size) = self.free.iter().find(|(_, &size)| size >= need)?;
        self.free.remove(&start);
        if size - need >= MIN_SPLIT {
            self.free.insert(start + need as u64, size - need);
        }
        Some(usize::try_from(start).expect("offset fits usize"))
    }

    /// Inserts a freed span (given as region offset + length), coalescing
    /// with adjacent free spans and with the watermark.
    fn insert_free_span(&mut self, offset: usize, mut len: usize) {
        let mut start = offset as u64;
        // Coalesce with the span immediately after.
        if let Some(&after_len) = self.free.get(&(start + len as u64)) {
            self.free.remove(&(start + len as u64));
            len += after_len;
        }
        // Coalesce with the span immediately before.
        if let Some((&before_start, &before_len)) = self.free.range(..start).next_back() {
            if before_start + before_len as u64 == start {
                self.free.remove(&before_start);
                start = before_start;
                len += before_len;
            }
        }
        // If the span touches the watermark, give it back to the bump zone.
        if start as usize + len == self.watermark {
            self.watermark = start as usize;
        } else {
            self.free.insert(start, len);
        }
    }
}
