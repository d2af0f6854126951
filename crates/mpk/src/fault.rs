//! Typed memory faults — the software analogue of `#PF`/`SIGSEGV`.

use std::error::Error;
use std::fmt;

use crate::{Access, Pkru, ProtectionKey, VirtAddr};

/// A memory fault detected by the simulated MMU or an allocator above it.
///
/// On real hardware most of these arrive as a page fault (`SIGSEGV` with
/// `si_code = SEGV_PKUERR` for key violations); SDRaD's signal handler
/// classifies them and triggers the domain rewind. In this reproduction the
/// fault is a value that propagates (or unwinds) to the domain boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// The current PKRU forbids this access to memory tagged with `key`
    /// (`SEGV_PKUERR`).
    PkuViolation {
        /// Faulting address.
        addr: VirtAddr,
        /// Protection key carried by the target region.
        key: ProtectionKey,
        /// The access kind that was attempted.
        access: Access,
        /// The PKRU value at the time of the fault.
        pkru: Pkru,
    },
    /// The address is not mapped by any region (`SEGV_MAPERR`).
    Unmapped {
        /// Faulting address.
        addr: VirtAddr,
    },
    /// An access ran past the end of its region.
    OutOfBounds {
        /// Faulting address (first byte outside the region).
        addr: VirtAddr,
        /// Base of the region the access started in.
        region_base: VirtAddr,
        /// Length of that region.
        region_len: usize,
    },
    /// An access touched a region that has been unmapped/discarded.
    UseAfterFree {
        /// Faulting address.
        addr: VirtAddr,
    },
    /// A block was freed twice (reported by the domain heap).
    DoubleFree {
        /// Address of the block payload.
        addr: VirtAddr,
    },
    /// A heap canary did not verify — evidence of a linear overflow.
    CanaryCorruption {
        /// Address of the corrupted block payload.
        addr: VirtAddr,
        /// Whether the canary *before* (underflow) or *after* (overflow)
        /// the payload was damaged.
        overflow: bool,
    },
    /// A (simulated) stack canary was clobbered before function return.
    StackSmash {
        /// Name of the frame whose canary failed, for diagnostics.
        frame: &'static str,
    },
    /// A domain exceeded its allocation quota.
    QuotaExceeded {
        /// Bytes of its region the allocation would have brought the
        /// domain to, canaries and rounding included.
        requested: usize,
        /// The configured quota in bytes.
        quota: usize,
    },
    /// Code inside a domain requested an abort (e.g. an assertion in a
    /// retrofitted application detected an inconsistency).
    ExplicitAbort {
        /// Human-readable reason.
        reason: String,
    },
    /// A protection-key index outside `0..16` was used.
    InvalidKey {
        /// The offending index.
        index: u8,
    },
    /// All 15 allocatable protection keys are in use.
    KeysExhausted,
}

impl Fault {
    /// Short machine-friendly name of the fault class (stable across
    /// versions; used in event logs and bench output).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Fault::PkuViolation { .. } => "pku-violation",
            Fault::Unmapped { .. } => "unmapped",
            Fault::OutOfBounds { .. } => "out-of-bounds",
            Fault::UseAfterFree { .. } => "use-after-free",
            Fault::DoubleFree { .. } => "double-free",
            Fault::CanaryCorruption { .. } => "canary-corruption",
            Fault::StackSmash { .. } => "stack-smash",
            Fault::QuotaExceeded { .. } => "quota-exceeded",
            Fault::ExplicitAbort { .. } => "explicit-abort",
            Fault::InvalidKey { .. } => "invalid-key",
            Fault::KeysExhausted => "keys-exhausted",
        }
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::PkuViolation {
                addr,
                key,
                access,
                pkru,
            } => write!(
                f,
                "protection-key violation: {access} at {addr} tagged {key} under pkru {pkru}"
            ),
            Fault::Unmapped { addr } => write!(f, "access to unmapped address {addr}"),
            Fault::OutOfBounds {
                addr,
                region_base,
                region_len,
            } => write!(
                f,
                "out-of-bounds access at {addr} (region {region_base}+{region_len})"
            ),
            Fault::UseAfterFree { addr } => write!(f, "use after free at {addr}"),
            Fault::DoubleFree { addr } => write!(f, "double free of block at {addr}"),
            Fault::CanaryCorruption { addr, overflow } => write!(
                f,
                "heap canary corrupted {} block at {addr}",
                if *overflow { "after" } else { "before" }
            ),
            Fault::StackSmash { frame } => write!(f, "stack canary smashed in frame `{frame}`"),
            Fault::QuotaExceeded { requested, quota } => write!(
                f,
                "domain allocation quota exceeded: {requested} bytes requested, quota {quota}"
            ),
            Fault::ExplicitAbort { reason } => write!(f, "domain aborted: {reason}"),
            Fault::InvalidKey { index } => write!(f, "invalid protection key index {index}"),
            Fault::KeysExhausted => write!(f, "all 15 allocatable protection keys are in use"),
        }
    }
}

impl Error for Fault {}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(a: u64) -> VirtAddr {
        VirtAddr::new(a)
    }

    #[test]
    fn kinds_are_distinct_and_stable() {
        assert_eq!(Fault::KeysExhausted.kind(), "keys-exhausted");
        assert_eq!(Fault::Unmapped { addr: addr(1) }.kind(), "unmapped");
        assert_eq!(
            Fault::CanaryCorruption {
                addr: addr(1),
                overflow: true
            }
            .kind(),
            "canary-corruption"
        );
    }

    #[test]
    fn display_mentions_address_and_key() {
        let fault = Fault::PkuViolation {
            addr: addr(0x2000),
            key: ProtectionKey::new(2).unwrap(),
            access: Access::Read,
            pkru: Pkru::deny_all(),
        };
        let text = fault.to_string();
        assert!(text.contains("0x2000"), "{text}");
        assert!(text.contains("pkey2"), "{text}");
    }

    #[test]
    fn fault_is_std_error() {
        fn takes_error<E: Error>(_e: E) {}
        takes_error(Fault::KeysExhausted);
    }
}
