//! The PKRU rights register and its per-thread "current" instance.

use std::cell::Cell;
use std::fmt;

use super::{Access, AccessRights, ProtectionKey, MAX_KEYS};

/// The 32-bit PKRU register: two bits per protection key.
///
/// Bit `2k` is the *access-disable* (AD) bit for key `k`; bit `2k + 1` is
/// the *write-disable* (WD) bit. A thread may perform an access to memory
/// tagged with key `k` only if the corresponding bits allow it.
///
/// The `Default` value matches Linux's initial PKRU for new threads under
/// SDRaD-style setups: full access to the default key only.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Pkru(u32);

impl Pkru {
    /// PKRU granting full access to every key (hardware reset value `0`).
    #[must_use]
    pub fn allow_all() -> Self {
        Pkru(0)
    }

    /// PKRU denying access to every key, including the default key.
    ///
    /// Real code never runs with this value for long — even the stack is
    /// reached through some key — but it is the natural starting point
    /// before granting a domain its rights.
    #[must_use]
    pub fn deny_all() -> Self {
        Pkru(u32::MAX)
    }

    /// PKRU granting full access to the default key and nothing else: the
    /// state an SDRaD "root domain" thread runs in.
    #[must_use]
    pub fn root_only() -> Self {
        let mut pkru = Pkru::deny_all();
        pkru.set_rights(ProtectionKey::DEFAULT, AccessRights::ReadWrite);
        pkru
    }

    /// Constructs a PKRU from its raw register value.
    #[must_use]
    pub fn from_raw(raw: u32) -> Self {
        Pkru(raw)
    }

    /// The raw 32-bit register value (what `RDPKRU` would return).
    #[must_use]
    pub fn to_raw(self) -> u32 {
        self.0
    }

    /// Rights currently granted for `key`.
    #[must_use]
    pub fn rights(self, key: ProtectionKey) -> AccessRights {
        let shift = u32::from(key.index()) * 2;
        let ad = self.0 & (1 << shift) != 0;
        let wd = self.0 & (1 << (shift + 1)) != 0;
        AccessRights::from_bits(ad, wd)
    }

    /// Sets the rights for `key`, leaving other keys untouched.
    pub fn set_rights(&mut self, key: ProtectionKey, rights: AccessRights) {
        let shift = u32::from(key.index()) * 2;
        let (ad, wd) = rights.to_bits();
        self.0 &= !(0b11 << shift);
        self.0 |= (u32::from(ad) | (u32::from(wd) << 1)) << shift;
    }

    /// Returns a copy with `rights` applied for `key` (builder-style).
    #[must_use]
    pub fn with_rights(mut self, key: ProtectionKey, rights: AccessRights) -> Self {
        self.set_rights(key, rights);
        self
    }

    /// Whether an access of the given kind to memory tagged `key` is
    /// permitted.
    #[must_use]
    pub fn permits(self, key: ProtectionKey, access: Access) -> bool {
        self.rights(key).permits(access)
    }

    /// Keys to which this PKRU grants any access at all.
    pub fn accessible_keys(self) -> impl Iterator<Item = ProtectionKey> {
        (0..MAX_KEYS as u8)
            .map(|i| ProtectionKey::new(i).expect("index < 16"))
            .filter(move |k| self.rights(*k) != AccessRights::NoAccess)
    }
}

impl Default for Pkru {
    fn default() -> Self {
        Pkru::root_only()
    }
}

impl fmt::Debug for Pkru {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Pkru({:#010x};", self.0)?;
        for key in self.accessible_keys() {
            write!(f, " {key}={}", self.rights(key))?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for Pkru {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#010x}", self.0)
    }
}

thread_local! {
    /// The simulated per-thread PKRU register.
    static CURRENT_PKRU: Cell<u32> = const { Cell::new(0) };
}

/// Reads the current thread's PKRU (the `RDPKRU` instruction).
///
/// Threads start with [`Pkru::allow_all`], matching a process that has not
/// yet partitioned itself into domains: with no non-default tags assigned,
/// "allow everything" and "allow default key" are equivalent, and it keeps
/// unpartitioned code working unchanged.
#[must_use]
pub fn current_pkru() -> Pkru {
    Pkru(CURRENT_PKRU.with(Cell::get))
}

/// Writes the current thread's PKRU (the `WRPKRU` instruction) and returns
/// the previous value.
///
/// Nothing counts these writes: a domain call makes two, and one is priced
/// at [`CostModel::wrpkru_cycles`](crate::CostModel::wrpkru_cycles).
pub(crate) fn set_current_pkru(pkru: Pkru) -> Pkru {
    Pkru(CURRENT_PKRU.with(|c| c.replace(pkru.to_raw())))
}

/// RAII scope for a temporary PKRU value.
///
/// Restores the previous register on drop, including during unwinding —
/// which is exactly what SDRaD's rewind path needs: a fault inside a domain
/// unwinds through the guard and the parent's rights come back
/// automatically.
#[derive(Debug)]
pub(crate) struct PkruGuard {
    previous: Pkru,
}

impl PkruGuard {
    /// Switches the current thread to `pkru` until the guard is dropped.
    #[must_use]
    pub fn enter(pkru: Pkru) -> Self {
        PkruGuard {
            previous: set_current_pkru(pkru),
        }
    }
}

impl Drop for PkruGuard {
    fn drop(&mut self) {
        set_current_pkru(self.previous);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u8) -> ProtectionKey {
        ProtectionKey::new(i).unwrap()
    }

    #[test]
    fn allow_all_permits_every_key() {
        let pkru = Pkru::allow_all();
        for i in 0..16 {
            assert!(pkru.permits(key(i), Access::Read));
            assert!(pkru.permits(key(i), Access::Write));
        }
    }

    #[test]
    fn deny_all_permits_nothing() {
        let pkru = Pkru::deny_all();
        for i in 0..16 {
            assert!(!pkru.permits(key(i), Access::Read));
        }
    }

    #[test]
    fn root_only_permits_default_key_only() {
        let pkru = Pkru::root_only();
        assert!(pkru.permits(ProtectionKey::DEFAULT, Access::Write));
        for i in 1..16 {
            assert_eq!(pkru.rights(key(i)), AccessRights::NoAccess);
        }
    }

    #[test]
    fn set_rights_is_isolated_per_key() {
        let mut pkru = Pkru::deny_all();
        pkru.set_rights(key(5), AccessRights::ReadOnly);
        assert_eq!(pkru.rights(key(5)), AccessRights::ReadOnly);
        assert_eq!(pkru.rights(key(4)), AccessRights::NoAccess);
        assert_eq!(pkru.rights(key(6)), AccessRights::NoAccess);

        pkru.set_rights(key(5), AccessRights::ReadWrite);
        assert_eq!(pkru.rights(key(5)), AccessRights::ReadWrite);
    }

    #[test]
    fn raw_round_trip() {
        let pkru = Pkru::root_only()
            .with_rights(key(3), AccessRights::ReadWrite)
            .with_rights(key(9), AccessRights::ReadOnly);
        assert_eq!(Pkru::from_raw(pkru.to_raw()), pkru);
    }

    #[test]
    fn accessible_keys_lists_granted_keys() {
        let pkru = Pkru::deny_all()
            .with_rights(key(2), AccessRights::ReadOnly)
            .with_rights(key(7), AccessRights::ReadWrite);
        let keys: Vec<_> = pkru.accessible_keys().map(ProtectionKey::index).collect();
        assert_eq!(keys, vec![2, 7]);
    }

    #[test]
    fn guard_restores_previous_register() {
        let before = current_pkru();
        {
            let _guard = PkruGuard::enter(Pkru::deny_all());
            assert_eq!(current_pkru(), Pkru::deny_all());
        }
        assert_eq!(current_pkru(), before);
    }

    #[test]
    fn guard_restores_on_unwind() {
        let before = current_pkru();
        let result = std::panic::catch_unwind(|| {
            let _guard = PkruGuard::enter(Pkru::deny_all());
            panic!("simulated fault");
        });
        assert!(result.is_err());
        assert_eq!(current_pkru(), before);
    }

    #[test]
    fn nested_guards_unwind_in_order() {
        let base = current_pkru();
        let a = Pkru::deny_all().with_rights(key(1), AccessRights::ReadWrite);
        let b = Pkru::deny_all().with_rights(key(2), AccessRights::ReadWrite);
        {
            let _g1 = PkruGuard::enter(a);
            {
                let _g2 = PkruGuard::enter(b);
                assert_eq!(current_pkru(), b);
            }
            assert_eq!(current_pkru(), a);
        }
        assert_eq!(current_pkru(), base);
    }
}
