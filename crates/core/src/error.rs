//! Error types of the domain runtime.

use std::error::Error;
use std::fmt;

use crate::mpk::Fault;
use crate::DomainId;

/// Errors returned by [`DomainManager`](crate::DomainManager) operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DomainError {
    /// A fault was detected while executing inside a domain; the domain was
    /// rewound and its heap discarded. The program is fully operational —
    /// this variant is the *recovered* outcome the paper is about.
    Violation {
        /// The domain that faulted.
        domain: DomainId,
        /// The detected fault.
        fault: Fault,
        /// Nanoseconds the rewind (heap discard + state restore) took.
        rewind_ns: u64,
    },
    /// A fault occurred while setting up or tearing down a domain (outside
    /// domain execution), e.g. protection keys exhausted.
    Setup(Fault),
    /// The referenced domain does not exist (never created or destroyed).
    NotFound(DomainId),
    /// The operation is invalid in the domain's current state, e.g.
    /// destroying a domain that is currently executing.
    InvalidState {
        /// The domain concerned.
        domain: DomainId,
        /// What was attempted.
        operation: &'static str,
    },
    /// A domain attempted to call itself (directly or through a cycle),
    /// which SDRaD forbids — rewinding would not know which activation to
    /// restore.
    ReentrantCall(DomainId),
}

impl DomainError {
    /// The underlying fault, if this error carries one.
    #[must_use]
    pub fn fault(&self) -> Option<&Fault> {
        match self {
            DomainError::Violation { fault, .. } | DomainError::Setup(fault) => Some(fault),
            _ => None,
        }
    }

    /// Whether this is a recovered in-domain violation (as opposed to an
    /// API usage error).
    #[must_use]
    pub fn is_violation(&self) -> bool {
        matches!(self, DomainError::Violation { .. })
    }
}

impl fmt::Display for DomainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DomainError::Violation {
                domain,
                fault,
                rewind_ns,
            } => write!(
                f,
                "domain {domain} rewound after fault ({fault}); recovery took {rewind_ns} ns"
            ),
            DomainError::Setup(fault) => write!(f, "domain setup failed: {fault}"),
            DomainError::NotFound(domain) => write!(f, "domain {domain} does not exist"),
            DomainError::InvalidState { domain, operation } => {
                write!(
                    f,
                    "cannot {operation}: domain {domain} is busy or destroyed"
                )
            }
            DomainError::ReentrantCall(domain) => {
                write!(f, "reentrant call into domain {domain} is not allowed")
            }
        }
    }
}

impl Error for DomainError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        self.fault().map(|f| f as &(dyn Error + 'static))
    }
}

impl From<Fault> for DomainError {
    fn from(fault: Fault) -> Self {
        DomainError::Setup(fault)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violation_exposes_fault() {
        let err = DomainError::Violation {
            domain: DomainId::new(1),
            fault: Fault::KeysExhausted,
            rewind_ns: 42,
        };
        assert!(err.is_violation());
        assert_eq!(err.fault(), Some(&Fault::KeysExhausted));
    }

    #[test]
    fn not_found_has_no_fault() {
        let err = DomainError::NotFound(DomainId::new(3));
        assert!(!err.is_violation());
        assert!(err.fault().is_none());
    }

    #[test]
    fn display_includes_rewind_time() {
        let err = DomainError::Violation {
            domain: DomainId::new(2),
            fault: Fault::KeysExhausted,
            rewind_ns: 3500,
        };
        assert!(err.to_string().contains("3500 ns"));
    }

    #[test]
    fn source_chains_to_fault() {
        let err = DomainError::Setup(Fault::KeysExhausted);
        assert!(Error::source(&err).is_some());
    }
}
