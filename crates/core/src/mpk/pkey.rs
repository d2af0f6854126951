//! Protection keys and the `pkey_alloc`/`pkey_free` namespace.

use std::fmt;

use super::Fault;

/// Number of protection keys supported by x86-64 PKU hardware.
///
/// PKRU is a 32-bit register with two bits per key, so exactly 16 keys
/// exist. Key 0 is the process-default key that all memory carries unless
/// retagged.
pub(crate) const MAX_KEYS: usize = 16;

/// A protection key (`pkey`), in the range `0..16`.
///
/// Key 0 is the default key; the remaining 15 are handed out by
/// `pkey_alloc`, one per domain, matching the budget a real SDRaD process
/// has for distinct domains per address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProtectionKey(u8);

impl ProtectionKey {
    /// The default key implicitly assigned to all memory (`pkey 0`).
    pub const DEFAULT: ProtectionKey = ProtectionKey(0);

    /// Creates a key from its index.
    ///
    /// # Errors
    ///
    /// Returns [`Fault::InvalidKey`] if `index >= 16`.
    pub fn new(index: u8) -> Result<Self, Fault> {
        if usize::from(index) < MAX_KEYS {
            Ok(ProtectionKey(index))
        } else {
            Err(Fault::InvalidKey { index })
        }
    }

    /// The key's index in `0..16`.
    #[must_use]
    pub fn index(self) -> u8 {
        self.0
    }

    /// Whether this is the default key (`pkey 0`).
    #[must_use]
    pub fn is_default(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for ProtectionKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pkey{}", self.0)
    }
}

/// Allocator for the 15 non-default protection keys.
///
/// Mirrors the kernel's `pkey_alloc(2)`/`pkey_free(2)`: keys are handed out
/// exclusively, freeing returns them to the pool, and exhaustion is an
/// explicit error (a real constraint SDRaD has to engineer around when an
/// application wants more than 15 concurrent domains).
#[derive(Debug, Clone)]
pub(crate) struct PkeyAllocator {
    /// Bit `i` set means key `i` is currently allocated.
    allocated: u16,
}

impl PkeyAllocator {
    /// Creates an allocator with only the default key marked taken.
    #[must_use]
    pub fn new() -> Self {
        PkeyAllocator { allocated: 0b1 }
    }

    /// Allocates the lowest free key, like `pkey_alloc(2)`.
    ///
    /// # Errors
    ///
    /// Returns [`Fault::KeysExhausted`] once all 15 allocatable keys are
    /// taken.
    pub fn pkey_alloc(&mut self) -> Result<ProtectionKey, Fault> {
        for index in 1..MAX_KEYS as u8 {
            if self.allocated & (1 << index) == 0 {
                self.allocated |= 1 << index;
                return Ok(ProtectionKey(index));
            }
        }
        Err(Fault::KeysExhausted)
    }

    /// Frees a previously allocated key, like `pkey_free(2)`.
    ///
    /// # Errors
    ///
    /// Returns [`Fault::InvalidKey`] when freeing the default key or a key
    /// that is not currently allocated (both are EINVAL in the kernel).
    pub fn pkey_free(&mut self, key: ProtectionKey) -> Result<(), Fault> {
        if key.is_default() || self.allocated & (1 << key.index()) == 0 {
            return Err(Fault::InvalidKey { index: key.index() });
        }
        self.allocated &= !(1 << key.index());
        Ok(())
    }

    /// Whether the given key is currently allocated (the default key always
    /// is).
    #[must_use]
    pub fn is_allocated(&self, key: ProtectionKey) -> bool {
        self.allocated & (1 << key.index()) != 0
    }

    /// Number of keys still available to `pkey_alloc`.
    #[must_use]
    pub fn available(&self) -> usize {
        (1..MAX_KEYS as u8)
            .filter(|i| self.allocated & (1 << i) == 0)
            .count()
    }
}

impl Default for PkeyAllocator {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_zero_is_default() {
        assert!(ProtectionKey::DEFAULT.is_default());
        assert_eq!(ProtectionKey::DEFAULT.index(), 0);
    }

    #[test]
    fn new_rejects_out_of_range() {
        assert!(ProtectionKey::new(15).is_ok());
        assert!(matches!(
            ProtectionKey::new(16),
            Err(Fault::InvalidKey { index: 16 })
        ));
    }

    #[test]
    fn alloc_hands_out_fifteen_keys() {
        let mut alloc = PkeyAllocator::new();
        assert_eq!(alloc.available(), 15);
        let mut seen = Vec::new();
        for _ in 0..15 {
            let key = alloc.pkey_alloc().expect("key available");
            assert!(!key.is_default());
            assert!(!seen.contains(&key), "keys must be exclusive");
            seen.push(key);
        }
        assert_eq!(alloc.available(), 0);
        assert!(matches!(alloc.pkey_alloc(), Err(Fault::KeysExhausted)));
    }

    #[test]
    fn free_returns_key_to_pool() {
        let mut alloc = PkeyAllocator::new();
        let key = alloc.pkey_alloc().unwrap();
        alloc.pkey_free(key).unwrap();
        assert!(!alloc.is_allocated(key));
        // The lowest key is reused, like the kernel's behaviour.
        assert_eq!(alloc.pkey_alloc().unwrap(), key);
    }

    #[test]
    fn cannot_free_default_or_unallocated() {
        let mut alloc = PkeyAllocator::new();
        assert!(alloc.pkey_free(ProtectionKey::DEFAULT).is_err());
        let key = ProtectionKey::new(7).unwrap();
        assert!(alloc.pkey_free(key).is_err());
    }

    #[test]
    fn display_names_key() {
        assert_eq!(ProtectionKey::new(3).unwrap().to_string(), "pkey3");
    }
}
