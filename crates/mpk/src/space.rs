//! The software memory space: key-tagged regions with checked access.

use std::collections::BTreeMap;
use std::fmt;

use crate::{current_pkru, Access, Fault, PkeyAllocator, ProtectionKey};

/// Page size used for region alignment, matching x86-64.
pub(crate) const PAGE_SIZE: u64 = 4096;

/// A virtual address inside a [`MemorySpace`].
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
pub struct RegionId(u64);

impl RegionId {
    /// The raw identifier value.
    #[must_use]
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "region#{}", self.0)
    }
}

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
    pub fn id(self) -> RegionId {
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
        addr >= self.base && addr.raw() < self.base.raw() + self.len as u64
    }
}

/// Backing storage and metadata of a region. An unmapped region stays
/// as a *tombstone* — its extent, so later accesses inside it fault
/// [`Fault::UseAfterFree`] rather than [`Fault::Unmapped`], but no bytes.
#[derive(Debug)]
struct RegionData {
    id: RegionId,
    base: VirtAddr,
    /// The mapped length; kept apart from `data`, which a tombstone drops.
    len: usize,
    key: ProtectionKey,
    live: bool,
    data: Vec<u8>,
}

impl RegionData {
    fn handle(&self) -> Region {
        Region {
            id: self.id,
            base: self.base,
            len: self.len,
            key: self.key,
        }
    }

    /// One past the region's last address.
    fn end(&self) -> u64 {
        self.base.raw() + self.len as u64
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
/// Addresses are allocated monotonically and never reused, so stale
/// pointers into unmapped regions deterministically fault with
/// [`Fault::UseAfterFree`] instead of aliasing new data.
#[derive(Debug)]
pub struct MemorySpace {
    regions: BTreeMap<u64, RegionData>,
    /// Base address of every region ever mapped, indexed by id − 1 (ids
    /// are dense from 1), so lookups by id need no scan.
    bases: Vec<u64>,
    keys: PkeyAllocator,
    next_base: u64,
    next_id: u64,
}

impl MemorySpace {
    /// Creates an empty space with all 15 allocatable keys free.
    #[must_use]
    pub fn new() -> Self {
        MemorySpace {
            regions: BTreeMap::new(),
            bases: Vec::new(),
            keys: PkeyAllocator::new(),
            // Start well above zero so that "small integer" addresses are
            // always unmapped, like the real zero page.
            next_base: 0x1_0000,
            next_id: 1,
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

    /// Maps a zero-initialised region of `len` bytes tagged with `key`
    /// (`mmap` + `pkey_mprotect`). The base is page-aligned.
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
        let id = RegionId(self.next_id);
        self.next_id += 1;
        let data = RegionData {
            id,
            base,
            len,
            key,
            live: true,
            data: vec![0u8; len],
        };
        let handle = data.handle();
        self.regions.insert(base.raw(), data);
        self.bases.push(base.raw());
        Ok(handle)
    }

    /// Unmaps a region and releases its bytes, leaving a tombstone: later
    /// accesses inside its extent fault with [`Fault::UseAfterFree`].
    ///
    /// # Errors
    ///
    /// Returns [`Fault::UseAfterFree`] if the region was already unmapped.
    pub fn unmap(&mut self, region: RegionId) -> Result<(), Fault> {
        match self.live_region_mut(region) {
            Some(r) => {
                r.live = false;
                r.data = Vec::new();
                Ok(())
            }
            None => Err(Fault::UseAfterFree {
                addr: VirtAddr::new(0),
            }),
        }
    }

    /// Retags a live region with a different key (`pkey_mprotect(2)`).
    ///
    /// # Errors
    ///
    /// [`Fault::InvalidKey`] if the key is not allocated;
    /// [`Fault::UseAfterFree`] if the region is gone.
    pub fn pkey_mprotect(&mut self, region: RegionId, key: ProtectionKey) -> Result<(), Fault> {
        if !self.keys.is_allocated(key) {
            return Err(Fault::InvalidKey { index: key.index() });
        }
        match self.live_region_mut(region) {
            Some(r) => {
                r.key = key;
                Ok(())
            }
            None => Err(Fault::UseAfterFree {
                addr: VirtAddr::new(0),
            }),
        }
    }

    /// The live region with id `region`, found through `bases`.
    fn live_region_mut(&mut self, region: RegionId) -> Option<&mut RegionData> {
        let index = usize::try_from(region.0.checked_sub(1)?).ok()?;
        let base = *self.bases.get(index)?;
        self.regions.get_mut(&base).filter(|r| r.live)
    }

    /// The region an access of `len` bytes at `addr` may touch under the
    /// current PKRU, with the offset of `addr` in it: one probe of the
    /// region map serves both the check and the access. Faults in
    /// precedence order — [`Fault::Unmapped`], [`Fault::UseAfterFree`],
    /// [`Fault::OutOfBounds`], [`Fault::PkuViolation`].
    fn checked(
        &mut self,
        addr: VirtAddr,
        len: usize,
        access: Access,
    ) -> Result<(&mut RegionData, usize), Fault> {
        let pkru = current_pkru();
        let fault = match self.regions.range_mut(..=addr.raw()).next_back() {
            Some((_, r)) if addr.raw() < r.end() => {
                if !r.live {
                    Fault::UseAfterFree { addr }
                } else if addr.raw() + len as u64 > r.end() {
                    Fault::OutOfBounds {
                        addr: VirtAddr::new(r.end()),
                        region_base: r.base,
                        region_len: r.len,
                    }
                } else if !pkru.permits(r.key, access) {
                    Fault::PkuViolation {
                        addr,
                        key: r.key,
                        access,
                        pkru,
                    }
                } else {
                    let start = addr.offset_from(r.base);
                    return Ok((r, start));
                }
            }
            _ => Fault::Unmapped { addr },
        };
        Err(fault)
    }

    /// Checks that an access of `len` bytes at `addr` is permitted under
    /// the current PKRU, without performing it.
    ///
    /// # Errors
    ///
    /// The same faults [`read`](Self::read)/[`write`](Self::write) raise.
    pub fn check(&mut self, addr: VirtAddr, len: usize, access: Access) -> Result<Region, Fault> {
        self.checked(addr, len, access).map(|(r, _)| r.handle())
    }

    /// Reads `buf.len()` bytes starting at `addr` under the current PKRU.
    ///
    /// # Errors
    ///
    /// [`Fault::Unmapped`], [`Fault::UseAfterFree`],
    /// [`Fault::OutOfBounds`], or [`Fault::PkuViolation`].
    pub fn read(&mut self, addr: VirtAddr, buf: &mut [u8]) -> Result<(), Fault> {
        let (region, start) = self.checked(addr, buf.len(), Access::Read)?;
        buf.copy_from_slice(&region.data[start..start + buf.len()]);
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
        region.data[start..start + buf.len()].copy_from_slice(buf);
        Ok(())
    }

    /// Fills `len` bytes at `addr` with `byte` under the current PKRU.
    ///
    /// # Errors
    ///
    /// Same as [`write`](Self::write).
    pub fn fill(&mut self, addr: VirtAddr, len: usize, byte: u8) -> Result<(), Fault> {
        let (region, start) = self.checked(addr, len, Access::Write)?;
        region.data[start..start + len].fill(byte);
        Ok(())
    }

    /// Reads a little-endian `u64` at `addr`.
    ///
    /// # Errors
    ///
    /// Same as [`read`](Self::read).
    pub fn read_u64(&mut self, addr: VirtAddr) -> Result<u64, Fault> {
        let mut buf = [0u8; 8];
        self.read(addr, &mut buf)?;
        Ok(u64::from_le_bytes(buf))
    }

    /// Writes a little-endian `u64` at `addr`.
    ///
    /// # Errors
    ///
    /// Same as [`write`](Self::write).
    pub fn write_u64(&mut self, addr: VirtAddr, value: u64) -> Result<(), Fault> {
        self.write(addr, &value.to_le_bytes())
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
    use crate::{AccessRights, Pkru, PkruGuard};

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
        let tombstone = &space.regions[&region.base().raw()];
        assert!(!tombstone.live);
        assert_eq!(tombstone.len, 4096, "the extent survives");
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
    fn pkey_mprotect_retags_region() {
        let mut space = MemorySpace::new();
        let key_a = space.pkey_alloc().unwrap();
        let key_b = space.pkey_alloc().unwrap();
        let region = space.map(32, key_a).unwrap();
        space.pkey_mprotect(region.id(), key_b).unwrap();

        // Rights for the old key no longer grant access.
        let _g = PkruGuard::enter(Pkru::root_only().with_rights(key_a, AccessRights::ReadWrite));
        assert!(matches!(
            space.read(region.base(), &mut [0u8; 1]),
            Err(Fault::PkuViolation { key, .. }) if key == key_b
        ));
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
    fn u64_round_trip() {
        let (mut space, region, _g) = rw_space_with_region(32);
        space
            .write_u64(region.base().offset(8), 0xDEAD_BEEF_CAFE)
            .unwrap();
        assert_eq!(
            space.read_u64(region.base().offset(8)).unwrap(),
            0xDEAD_BEEF_CAFE
        );
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
    fn region_contains() {
        let (space, region, _g) = rw_space_with_region(16);
        let _ = space;
        assert!(region.contains(region.base()));
        assert!(region.contains(region.base().offset(15)));
        assert!(!region.contains(region.base().offset(16)));
    }
}
