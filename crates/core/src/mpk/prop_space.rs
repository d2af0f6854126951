//! Property tests for the simulated memory space and PKRU semantics.

use super::{Access, AccessRights, MemorySpace, Pkru, PkruGuard, ProtectionKey, VirtAddr};
use proptest::prelude::*;

fn arb_rights() -> impl Strategy<Value = AccessRights> {
    prop_oneof![
        Just(AccessRights::NoAccess),
        Just(AccessRights::ReadOnly),
        Just(AccessRights::ReadWrite),
    ]
}

proptest! {
    /// Whatever is written at an offset is read back unchanged, byte for
    /// byte, as long as the access is in bounds and permitted.
    #[test]
    fn write_then_read_round_trips(
        data in proptest::collection::vec(any::<u8>(), 1..512),
        offset in 0usize..512,
    ) {
        let mut space = MemorySpace::new();
        let key = space.pkey_alloc().unwrap();
        let region = space.map(1024, key).unwrap();
        let _g = PkruGuard::enter(
            Pkru::root_only().with_rights(key, AccessRights::ReadWrite),
        );
        prop_assume!(offset + data.len() <= 1024);
        let addr = region.base().offset(offset);
        space.write(addr, &data).unwrap();
        let mut back = vec![0u8; data.len()];
        space.read(addr, &mut back).unwrap();
        prop_assert_eq!(back, data);
    }

    /// PKRU set/get is exact for every key and never bleeds into
    /// neighbouring keys.
    #[test]
    fn pkru_set_rights_is_exact(
        assignments in proptest::collection::vec((0u8..16, arb_rights()), 0..64),
    ) {
        let mut pkru = Pkru::allow_all();
        let mut expected = [AccessRights::ReadWrite; 16];
        for (idx, rights) in &assignments {
            let key = ProtectionKey::new(*idx).unwrap();
            pkru.set_rights(key, *rights);
            expected[*idx as usize] = *rights;
        }
        for i in 0..16u8 {
            let key = ProtectionKey::new(i).unwrap();
            prop_assert_eq!(pkru.rights(key), expected[i as usize]);
        }
    }

    /// An access is permitted iff the rights table says so; the check never
    /// panics regardless of key/rights combination.
    #[test]
    fn permits_matches_rights_table(idx in 0u8..16, rights in arb_rights()) {
        let key = ProtectionKey::new(idx).unwrap();
        let pkru = Pkru::deny_all().with_rights(key, rights);
        prop_assert_eq!(pkru.permits(key, Access::Read), rights.permits(Access::Read));
        prop_assert_eq!(pkru.permits(key, Access::Write), rights.permits(Access::Write));
    }

    /// Every access to an address below the first mapping faults as
    /// unmapped, never panics, never succeeds.
    #[test]
    fn low_addresses_always_fault(addr in 0u64..0x1_0000) {
        let mut space = MemorySpace::new();
        let key = space.pkey_alloc().unwrap();
        let _region = space.map(64, key).unwrap();
        let err = space.read(VirtAddr::new(addr), &mut [0u8; 1]).unwrap_err();
        prop_assert_eq!(err.kind(), "unmapped");
    }

    /// Mapping any sequence of region sizes never produces overlapping
    /// regions, and unmapping always poisons exactly the target.
    #[test]
    fn mapped_regions_never_overlap(sizes in proptest::collection::vec(1usize..10_000, 1..40)) {
        let mut space = MemorySpace::new();
        let key = space.pkey_alloc().unwrap();
        let regions: Vec<_> = sizes.iter().map(|&s| space.map(s, key).unwrap()).collect();
        let mut sorted = regions.clone();
        sorted.sort_by_key(|r| r.base());
        for pair in sorted.windows(2) {
            prop_assert!(
                pair[0].base().raw() + pair[0].len() as u64 <= pair[1].base().raw(),
                "regions overlap"
            );
        }
    }

    /// After unmap, reads at every offset of the old region fault with
    /// use-after-free (no silent reads of stale data).
    #[test]
    fn unmap_makes_every_offset_fault(size in 1usize..256, probe in 0usize..256) {
        prop_assume!(probe < size);
        let mut space = MemorySpace::new();
        let key = space.pkey_alloc().unwrap();
        let region = space.map(size, key).unwrap();
        let _g = PkruGuard::enter(
            Pkru::root_only().with_rights(key, AccessRights::ReadWrite),
        );
        space.unmap(region.id()).unwrap();
        let err = space
            .read(region.base().offset(probe), &mut [0u8; 1])
            .unwrap_err();
        prop_assert_eq!(err.kind(), "use-after-free");
    }
}
