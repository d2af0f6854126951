//! Domain identity, configuration, policies and per-domain bookkeeping.

use std::fmt;

use crate::heap::{DomainHeap, HeapStats};
use crate::mpk::{AccessRights, Fault, ProtectionKey};

/// Identifier of a domain within one [`DomainManager`](crate::DomainManager).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DomainId(u64);

impl DomainId {
    /// Creates an id from its raw value (mainly for tests and logs).
    #[must_use]
    pub fn new(raw: u64) -> Self {
        DomainId(raw)
    }

    /// The raw id value.
    #[must_use]
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for DomainId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "domain#{}", self.0)
    }
}

/// What the domain may do with *root* memory (data of the trusted,
/// uncompartmentalized part of the application) while it executes.
///
/// These are the two compartmentalization schemes the paper's SDRaD API
/// supports ("protecting application integrity and confidentiality"):
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DomainPolicy {
    /// The domain may *read* root memory but not write it. Protects the
    /// application's integrity from the domain, while letting the domain
    /// consume inputs in place.
    #[default]
    Integrity,
    /// The domain gets no access to root memory at all. Additionally
    /// protects the confidentiality of application data (e.g. keys in the
    /// OpenSSL use case).
    Confidential,
}

impl DomainPolicy {
    /// Rights over the root (default-key) memory granted inside the domain.
    #[must_use]
    pub fn root_rights(self) -> AccessRights {
        match self {
            DomainPolicy::Integrity => AccessRights::ReadOnly,
            DomainPolicy::Confidential => AccessRights::NoAccess,
        }
    }
}

impl fmt::Display for DomainPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DomainPolicy::Integrity => write!(f, "integrity"),
            DomainPolicy::Confidential => write!(f, "confidential"),
        }
    }
}

/// Configuration for creating a domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainConfig {
    /// Human-readable name used in diagnostics.
    pub name: String,
    /// Capacity (and quota) of the domain's private heap, in bytes.
    pub heap_capacity: usize,
    /// Access the domain gets to root memory while executing.
    pub policy: DomainPolicy,
}

impl DomainConfig {
    /// A named configuration with the default 1 MiB heap and
    /// [`DomainPolicy::Integrity`].
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        DomainConfig {
            name: name.into(),
            heap_capacity: 1 << 20,
            policy: DomainPolicy::default(),
        }
    }

    /// Sets the heap capacity (builder-style).
    #[must_use]
    pub fn heap_capacity(mut self, bytes: usize) -> Self {
        self.heap_capacity = bytes;
        self
    }

    /// Sets the policy (builder-style).
    #[must_use]
    pub fn policy(mut self, policy: DomainPolicy) -> Self {
        self.policy = policy;
        self
    }
}

impl Default for DomainConfig {
    fn default() -> Self {
        Self::new("domain")
    }
}

/// Lifecycle state of a domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DomainState {
    /// Created and ready to execute calls.
    Ready,
    /// Currently executing (present on the call stack).
    Active,
    /// Destroyed; the id is retired.
    Destroyed,
}

impl fmt::Display for DomainState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DomainState::Ready => write!(f, "ready"),
            DomainState::Active => write!(f, "active"),
            DomainState::Destroyed => write!(f, "destroyed"),
        }
    }
}

/// Internal record of a domain owned by the manager.
#[derive(Debug)]
pub(crate) struct Domain {
    pub(crate) id: DomainId,
    pub(crate) name: String,
    pub(crate) key: ProtectionKey,
    pub(crate) policy: DomainPolicy,
    pub(crate) state: DomainState,
    pub(crate) heap: DomainHeap,
    pub(crate) calls: u64,
    pub(crate) violations: u64,
    pub(crate) total_rewind_ns: u64,
    pub(crate) last_fault: Option<Fault>,
}

impl Domain {
    pub(crate) fn info(&self) -> DomainInfo {
        DomainInfo {
            id: self.id,
            name: self.name.clone(),
            key: self.key,
            policy: self.policy,
            state: self.state,
            calls: self.calls,
            violations: self.violations,
            total_rewind_ns: self.total_rewind_ns,
            last_fault: self.last_fault.clone(),
            heap: self.heap.stats(),
        }
    }
}

/// A snapshot of a domain's public status.
#[derive(Debug, Clone, PartialEq)]
pub struct DomainInfo {
    /// The domain's id.
    pub id: DomainId,
    /// The configured name.
    pub name: String,
    /// The protection key backing the domain.
    pub key: ProtectionKey,
    /// The configured root-memory policy.
    pub policy: DomainPolicy,
    /// Current lifecycle state.
    pub state: DomainState,
    /// Number of completed calls into the domain (successful or rewound).
    pub calls: u64,
    /// Number of faults that triggered a rewind.
    pub violations: u64,
    /// Cumulative time spent rewinding, in nanoseconds.
    pub total_rewind_ns: u64,
    /// The most recent fault, if any.
    pub last_fault: Option<Fault>,
    /// Heap statistics.
    pub heap: HeapStats,
}

impl DomainInfo {
    /// Average rewind latency in nanoseconds, if any rewind happened.
    #[must_use]
    pub fn mean_rewind_ns(&self) -> Option<f64> {
        (self.violations > 0).then(|| self.total_rewind_ns as f64 / self.violations as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_rights() {
        assert_eq!(
            DomainPolicy::Integrity.root_rights(),
            AccessRights::ReadOnly
        );
        assert_eq!(
            DomainPolicy::Confidential.root_rights(),
            AccessRights::NoAccess
        );
    }

    #[test]
    fn config_builder() {
        let config = DomainConfig::new("parser")
            .heap_capacity(4096)
            .policy(DomainPolicy::Confidential);
        assert_eq!(config.name, "parser");
        assert_eq!(config.heap_capacity, 4096);
        assert_eq!(config.policy, DomainPolicy::Confidential);
    }

    #[test]
    fn default_config_has_integrity_policy() {
        let config = DomainConfig::default();
        assert_eq!(config.policy, DomainPolicy::Integrity);
        assert!(config.heap_capacity >= 4096);
    }

    #[test]
    fn ids_are_ordered_and_displayable() {
        assert!(DomainId::new(1) < DomainId::new(2));
        assert_eq!(DomainId::new(7).to_string(), "domain#7");
    }

    #[test]
    fn mean_rewind_requires_violations() {
        let mut info = DomainInfo {
            id: DomainId::new(1),
            name: "d".into(),
            key: ProtectionKey::DEFAULT,
            policy: DomainPolicy::Integrity,
            state: DomainState::Ready,
            calls: 10,
            violations: 0,
            total_rewind_ns: 0,
            last_fault: None,
            heap: HeapStats::default(),
        };
        assert!(info.mean_rewind_ns().is_none());
        info.violations = 2;
        info.total_rewind_ns = 7000;
        assert_eq!(info.mean_rewind_ns(), Some(3500.0));
    }
}
