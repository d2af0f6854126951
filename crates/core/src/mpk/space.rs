//! The software memory space: key-tagged regions with checked access.

use std::fmt;

use super::{current_pkru, Access, Fault, PkeyAllocator, ProtectionKey};

/// Page size used for region alignment, matching x86-64.
pub(crate) const PAGE_SIZE: u64 = 4096;

/// A virtual address in the simulated memory space a domain manager owns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct VirtAddr(u64);

impl VirtAddr {
    /// Creates an address from its raw value.
    #[must_use]
    pub fn new(raw: u64) -> Self {
        VirtAddr(raw)
    }

    /// The raw address value.
    #[must_use]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// The address `offset` bytes past this one.
    ///
    /// # Panics
    ///
    /// Panics on address-space overflow, which indicates a bug in the
    /// caller rather than a recoverable fault.
    #[must_use]
    pub fn offset(self, offset: usize) -> Self {
        VirtAddr(
            self.0
                .checked_add(offset as u64)
                .expect("virtual address overflow"),
        )
    }

    /// Byte distance from `base` to this address.
    ///
    /// # Panics
    ///
    /// Panics if `base` is above `self`.
    #[must_use]
    pub fn offset_from(self, base: VirtAddr) -> usize {
        usize::try_from(self.0.checked_sub(base.0).expect("address below base"))
            .expect("offset fits usize")
    }
}

impl fmt::Display for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// Identifier of a mapped region, unique for the lifetime of the space
/// (never reused, which is what makes use-after-free detection reliable).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct RegionId(u64);

/// A lightweight, copyable handle describing a mapped region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    id: RegionId,
    base: VirtAddr,
    len: usize,
    key: ProtectionKey,
}

impl Region {
    /// The region's unique id.
    #[must_use]
    pub(crate) fn id(self) -> RegionId {
        self.id
    }

    /// First address of the region.
    #[must_use]
    pub fn base(self) -> VirtAddr {
        self.base
    }

    /// Region length in bytes.
    #[must_use]
    pub fn len(self) -> usize {
        self.len
    }

    /// Whether the region is zero-sized (never true for mapped regions).
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    /// Protection key the region is tagged with.
    #[must_use]
    pub fn key(self) -> ProtectionKey {
        self.key
    }

    /// Whether `addr` falls inside the region.
    #[must_use]
    pub fn contains(self, addr: VirtAddr) -> bool {
        addr >= self.base && addr.raw() < self.end()
    }

    /// One past the region's last address.
    fn end(self) -> u64 {
        self.base.raw() + self.len as u64
    }
}

/// A region and its backing. An unmapped region stays as a *tombstone*
/// — its extent, so later accesses inside it fault
/// [`Fault::UseAfterFree`] rather than [`Fault::Unmapped`], but no bytes.
#[derive(Debug)]
struct RegionData {
    region: Region,
    live: bool,
    /// Bytes `[0, data.len())` of the region, zero-filled up to the
    /// highest byte written; the bytes past it read as zero.
    data: Vec<u8>,
}

impl RegionData {
    /// The backing through offset `end`, extended with zeros as a first
    /// store faults a page in. Past its capacity the allocation grows by
    /// at least a page and at least doubles, but never past the region
    /// length; within it (after a discard, say) nothing is reallocated.
    fn backing_to(&mut self, end: usize) -> &mut [u8] {
        if end > self.data.capacity() {
            let page = PAGE_SIZE as usize;
            let target = (end.div_ceil(page) * page)
                .max(2 * self.data.capacity())
                .min(self.region.len);
            self.data.reserve_exact(target - self.data.len());
        }
        if end > self.data.len() {
            self.data.resize(end, 0);
        }
        &mut self.data[..end]
    }
}

/// A software memory space of protection-key-tagged regions.
///
/// This is the reproduction's stand-in for the MMU + PKU hardware: regions
/// play the role of page ranges, [`MemorySpace::map`] the role of
/// `mmap` + `pkey_mprotect`, and every [`read`](MemorySpace::read) /
/// [`write`](MemorySpace::write) performs the check the CPU would perform
/// against the current thread's PKRU ([`current_pkru`]).
///
/// Regions are demand-backed like `mmap` pages: mapping allocates
/// nothing, a write backs the region with zeros up to the byte it
/// touched, and untouched bytes read as zero. [`discard`](Self::discard)
/// drops the touched bytes again (`madvise(MADV_DONTNEED)`), so what a
/// region costs follows what was written to it, not its length.
///
/// Addresses are allocated monotonically and never reused, so stale
/// pointers into unmapped regions deterministically fault with
/// [`Fault::UseAfterFree`] instead of aliasing new data.
#[derive(Debug)]
pub(crate) struct MemorySpace {
    /// Every region ever mapped, tombstones included. Ids are dense from
    /// 1 and bases grow with them, so the vector is indexed by id − 1
    /// and is in address order at once.
    regions: Vec<RegionData>,
    keys: PkeyAllocator,
    next_base: u64,
}

impl MemorySpace {
    /// Creates an empty space with all 15 allocatable keys free.
    #[must_use]
    pub fn new() -> Self {
        MemorySpace {
            regions: Vec::new(),
            keys: PkeyAllocator::new(),
            // Start well above zero so that "small integer" addresses are
            // always unmapped, like the real zero page.
            next_base: 0x1_0000,
        }
    }

    /// Allocates a fresh protection key (`pkey_alloc(2)`).
    ///
    /// # Errors
    ///
    /// Returns [`Fault::KeysExhausted`] when all 15 keys are taken.
    pub fn pkey_alloc(&mut self) -> Result<ProtectionKey, Fault> {
        self.keys.pkey_alloc()
    }

    /// Frees a protection key (`pkey_free(2)`).
    ///
    /// # Errors
    ///
    /// Returns [`Fault::InvalidKey`] for the default key or a key that is
    /// not allocated.
    pub fn pkey_free(&mut self, key: ProtectionKey) -> Result<(), Fault> {
        self.keys.pkey_free(key)
    }

    /// Number of protection keys still available.
    #[must_use]
    pub fn keys_available(&self) -> usize {
        self.keys.available()
    }

    /// Maps a region of `len` bytes tagged with `key` (`mmap` +
    /// `pkey_mprotect`), reading as zeros and backed by nothing until it
    /// is written. The base is page-aligned.
    ///
    /// # Errors
    ///
    /// Returns [`Fault::InvalidKey`] if `key` is neither the default key
    /// nor currently allocated.
    pub fn map(&mut self, len: usize, key: ProtectionKey) -> Result<Region, Fault> {
        if !self.keys.is_allocated(key) {
            return Err(Fault::InvalidKey { index: key.index() });
        }
        let base = VirtAddr::new(self.next_base);
        let pages = (len as u64).div_ceil(PAGE_SIZE).max(1);
        self.next_base += pages * PAGE_SIZE + PAGE_SIZE; // guard page gap
        let region = Region {
            id: RegionId(self.regions.len() as u64 + 1),
            base,
            len,
            key,
        };
        self.regions.push(RegionData {
            region,
            live: true,
            data: Vec::new(),
        });
        Ok(region)
    }

    /// Unmaps a region and releases its bytes, leaving a tombstone: later
    /// accesses inside its extent fault with [`Fault::UseAfterFree`].
    ///
    /// # Errors
    ///
    /// Returns [`Fault::UseAfterFree`] if the region was already unmapped.
    pub fn unmap(&mut self, region: RegionId) -> Result<(), Fault> {
        match self.regions.get_mut(region.0 as usize - 1) {
            Some(r) if r.live => {
                r.live = false;
                r.data = Vec::new();
                Ok(())
            }
            _ => Err(Fault::UseAfterFree {
                addr: VirtAddr::new(0),
            }),
        }
    }

    /// The region an access of `len` bytes at `addr` may touch under the
    /// current PKRU, with the offset of `addr` in it: one probe of the
    /// region table serves both the check and the access. Faults in
    /// precedence order — [`Fault::Unmapped`], [`Fault::UseAfterFree`],
    /// [`Fault::OutOfBounds`], [`Fault::PkuViolation`].
    fn checked(
        &mut self,
        addr: VirtAddr,
        len: usize,
        access: Access,
    ) -> Result<(&mut RegionData, usize), Fault> {
        let pkru = current_pkru();
        let below = self.regions.partition_point(|r| r.region.base <= addr);
        let fault = match self.regions[..below].last_mut() {
            Some(r) if r.region.contains(addr) => {
                let region = r.region;
                if !r.live {
                    Fault::UseAfterFree { addr }
                } else if addr.raw().saturating_add(len as u64) > region.end() {
                    Fault::OutOfBounds {
                        addr: VirtAddr::new(region.end()),
                        region_base: region.base,
                        region_len: region.len,
                    }
                } else if !pkru.permits(region.key, access) {
                    Fault::PkuViolation {
                        addr,
                        key: region.key,
                        access,
                        pkru,
                    }
                } else {
                    return Ok((r, addr.offset_from(region.base)));
                }
            }
            _ => Fault::Unmapped { addr },
        };
        Err(fault)
    }

    /// Reads `buf.len()` bytes starting at `addr` under the current PKRU.
    ///
    /// # Errors
    ///
    /// [`Fault::Unmapped`], [`Fault::UseAfterFree`],
    /// [`Fault::OutOfBounds`], or [`Fault::PkuViolation`].
    pub fn read(&mut self, addr: VirtAddr, buf: &mut [u8]) -> Result<(), Fault> {
        let (region, start) = self.checked(addr, buf.len(), Access::Read)?;
        let backed = region.data.get(start..).unwrap_or_default();
        let (touched, untouched) = buf.split_at_mut(backed.len().min(buf.len()));
        touched.copy_from_slice(&backed[..touched.len()]);
        untouched.fill(0);
        Ok(())
    }

    /// Writes `buf` starting at `addr` under the current PKRU.
    ///
    /// # Errors
    ///
    /// [`Fault::Unmapped`], [`Fault::UseAfterFree`],
    /// [`Fault::OutOfBounds`], or [`Fault::PkuViolation`].
    pub fn write(&mut self, addr: VirtAddr, buf: &[u8]) -> Result<(), Fault> {
        let (region, start) = self.checked(addr, buf.len(), Access::Write)?;
        region.backing_to(start + buf.len())[start..].copy_from_slice(buf);
        Ok(())
    }

    /// Fills `len` bytes at `addr` with `byte` under the current PKRU.
    ///
    /// # Errors
    ///
    /// Same as [`write`](Self::write).
    pub fn fill(&mut self, addr: VirtAddr, len: usize, byte: u8) -> Result<(), Fault> {
        let (region, start) = self.checked(addr, len, Access::Write)?;
        region.backing_to(start + len)[start..].fill(byte);
        Ok(())
    }

    /// Drops every byte written to `region` (`madvise(MADV_DONTNEED)`):
    /// the region reads as zeros again, and the backing keeps its
    /// allocation, so the next writes pay only to zero what they touch.
    /// Checked as a write of the whole region.
    ///
    /// # Errors
    ///
    /// Same as [`write`](Self::write) of `region.len()` bytes at its base.
    pub fn discard(&mut self, region: Region) -> Result<(), Fault> {
        let (region, _) = self.checked(region.base(), region.len(), Access::Write)?;
        region.data.clear();
        Ok(())
    }
}

impl Default for MemorySpace {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mpk::{AccessRights, Pkru, PkruGuard};

    /// Bytes of backing allocated for `region`.
    fn backing(space: &MemorySpace, region: Region) -> usize {
        space.regions[region.id().0 as usize - 1].data.capacity()
    }

    fn rw_space_with_region(len: usize) -> (MemorySpace, Region, PkruGuard) {
        let mut space = MemorySpace::new();
        let key = space.pkey_alloc().unwrap();
        let region = space.map(len, key).unwrap();
        let guard = PkruGuard::enter(Pkru::root_only().with_rights(key, AccessRights::ReadWrite));
        (space, region, guard)
    }

    #[test]
    fn map_read_write_round_trip() {
        let (mut space, region, _g) = rw_space_with_region(128);
        space.write(region.base(), b"hello").unwrap();
        let mut buf = [0u8; 5];
        space.read(region.base(), &mut buf).unwrap();
        assert_eq!(&buf, b"hello");
    }

    #[test]
    fn regions_are_zero_initialised() {
        let (mut space, region, _g) = rw_space_with_region(64);
        let mut buf = [0xAAu8; 64];
        space.read(region.base(), &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn denied_key_faults_with_pku_violation() {
        let mut space = MemorySpace::new();
        let key = space.pkey_alloc().unwrap();
        let region = space.map(64, key).unwrap();
        let _g = PkruGuard::enter(Pkru::root_only()); // no rights for `key`
        let err = space.write(region.base(), &[1]).unwrap_err();
        assert!(
            matches!(err, Fault::PkuViolation { key: k, access: Access::Write, .. } if k == key)
        );
    }

    #[test]
    fn read_only_key_faults_on_write_but_not_read() {
        let mut space = MemorySpace::new();
        let key = space.pkey_alloc().unwrap();
        let region = space.map(64, key).unwrap();
        let _g = PkruGuard::enter(Pkru::root_only().with_rights(key, AccessRights::ReadOnly));
        let mut buf = [0u8; 4];
        assert!(space.read(region.base(), &mut buf).is_ok());
        assert!(matches!(
            space.write(region.base(), &[1]),
            Err(Fault::PkuViolation { .. })
        ));
    }

    #[test]
    fn unmapped_address_faults() {
        let mut space = MemorySpace::new();
        let err = space.read(VirtAddr::new(0x10), &mut [0u8; 1]).unwrap_err();
        assert!(matches!(err, Fault::Unmapped { .. }));
    }

    #[test]
    fn out_of_bounds_access_faults() {
        let (mut space, region, _g) = rw_space_with_region(16);
        let err = space
            .write(region.base().offset(10), &[0u8; 10])
            .unwrap_err();
        assert!(matches!(err, Fault::OutOfBounds { region_len: 16, .. }));
        // A length near the top of the address space, as a declared
        // length read from input can be, does not wrap past the check.
        let err = space.fill(region.base(), usize::MAX, 0).unwrap_err();
        assert!(matches!(err, Fault::OutOfBounds { region_len: 16, .. }));
    }

    #[test]
    fn use_after_unmap_faults() {
        let (mut space, region, _g) = rw_space_with_region(16);
        space.unmap(region.id()).unwrap();
        let err = space.read(region.base(), &mut [0u8; 1]).unwrap_err();
        assert!(matches!(err, Fault::UseAfterFree { .. }));
    }

    #[test]
    fn unmapped_region_is_a_tombstone_without_bytes() {
        let (mut space, region, _g) = rw_space_with_region(4096);
        space.unmap(region.id()).unwrap();
        let tombstone = &space.regions[0];
        assert!(!tombstone.live);
        assert_eq!(tombstone.region.len, 4096, "the extent survives");
        assert_eq!(tombstone.data.capacity(), 0, "the bytes do not");
        for offset in [0, 2048, 4095] {
            let err = space.read(region.base().offset(offset), &mut [0u8; 1]);
            assert!(
                matches!(err, Err(Fault::UseAfterFree { .. })),
                "offset {offset}: {err:?}"
            );
        }
        let past = space.read(region.base().offset(4096), &mut [0u8; 1]);
        assert!(matches!(past, Err(Fault::Unmapped { .. })), "{past:?}");
    }

    #[test]
    fn double_unmap_faults() {
        let (mut space, region, _g) = rw_space_with_region(16);
        space.unmap(region.id()).unwrap();
        assert!(space.unmap(region.id()).is_err());
    }

    #[test]
    fn map_with_unallocated_key_is_invalid() {
        let mut space = MemorySpace::new();
        let key = ProtectionKey::new(9).unwrap();
        assert!(matches!(
            space.map(16, key),
            Err(Fault::InvalidKey { index: 9 })
        ));
    }

    #[test]
    fn regions_do_not_overlap() {
        let mut space = MemorySpace::new();
        let key = space.pkey_alloc().unwrap();
        let regions: Vec<Region> = (0..32)
            .map(|i| space.map(100 * (i + 1), key).unwrap())
            .collect();
        for pair in regions.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            assert!(a.base().raw() + a.len() as u64 <= b.base().raw());
        }
    }

    #[test]
    fn default_key_region_is_accessible_from_fresh_thread_state() {
        let mut space = MemorySpace::new();
        let region = space.map(16, ProtectionKey::DEFAULT).unwrap();
        let _g = PkruGuard::enter(Pkru::root_only());
        assert!(space.write(region.base(), &[42]).is_ok());
    }

    #[test]
    fn fill_writes_bytes() {
        let (mut space, region, _g) = rw_space_with_region(32);
        space.fill(region.base(), 32, 0xAB).unwrap();
        let mut buf = [0u8; 32];
        space.read(region.base(), &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0xAB));
    }

    #[test]
    fn backing_grows_only_with_writes() {
        let (mut space, region, _g) = rw_space_with_region(1 << 20);
        assert_eq!(backing(&space, region), 0, "mapping backs nothing");
        space.write(region.base(), &[0x5A; 100]).unwrap();
        assert!(backing(&space, region) <= PAGE_SIZE as usize);
        let mut last = [0xFFu8; 1];
        space
            .read(region.base().offset((1 << 20) - 1), &mut last)
            .unwrap();
        assert_eq!(last, [0], "an untouched byte reads zero");
        assert!(
            backing(&space, region) <= PAGE_SIZE as usize,
            "reads back nothing"
        );
        space
            .fill(region.base().offset((1 << 20) - 8), 8, 1)
            .unwrap();
        assert_eq!(backing(&space, region), 1 << 20, "capped at the region");
    }

    #[test]
    fn discard_drops_touched_bytes_and_keeps_the_allocation() {
        let (mut space, region, _g) = rw_space_with_region(64 * 1024);
        space.fill(region.base().offset(100), 5000, 0xEE).unwrap();
        let touched = backing(&space, region);
        space.discard(region).unwrap();
        let mut buf = vec![0xFFu8; 64 * 1024];
        space.read(region.base(), &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0), "no touched byte survives");
        assert_eq!(backing(&space, region), touched);
        let _none = PkruGuard::enter(Pkru::root_only());
        assert!(matches!(
            space.discard(region),
            Err(Fault::PkuViolation { .. })
        ));
    }

    #[test]
    fn a_touch_after_a_discard_reuses_the_backing() {
        let (mut space, region, _g) = rw_space_with_region(1 << 20);
        space.write(region.base(), &[0x5A; 100]).unwrap();
        let touched = backing(&space, region);
        for _ in 0..16 {
            space.discard(region).unwrap();
            space.write(region.base(), &[0x5A; 100]).unwrap();
        }
        assert_eq!(
            backing(&space, region),
            touched,
            "the same touch after each discard needs no more backing"
        );
    }

    #[test]
    fn region_contains() {
        let (space, region, _g) = rw_space_with_region(16);
        let _ = space;
        assert!(region.contains(region.base()));
        assert!(region.contains(region.base().offset(15)));
        assert!(!region.contains(region.base().offset(16)));
    }
}
