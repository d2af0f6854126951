//! SDRaD-FFI error types.

use std::error::Error;
use std::fmt;

use sdrad::DomainError;

use crate::serial::SerialError;

/// Errors surfaced by a sandboxed foreign-function invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum FfiError {
    /// The sandboxed function violated memory safety (or panicked); the
    /// domain was rewound. This is the recoverable outcome SDRaD-FFI is
    /// designed around — run the alternate action and continue.
    Violation(DomainError),
    /// Argument or result (de)serialization failed.
    Serial(SerialError),
    /// The worker subprocess terminated or the pipe broke (process-backend
    /// analogue of a violation: the sandboxed code took the *worker* down,
    /// but the host survives and can respawn).
    WorkerDied(String),
    /// The worker does not know the requested function.
    UnknownFunction(String),
    /// The worker reported a function-level failure.
    WorkerError(String),
    /// Backend cannot perform the operation (e.g. spawning a worker failed).
    Backend(String),
}

impl FfiError {
    /// Whether the sandboxed code failed but the host recovered — i.e. an
    /// alternate action should run. True for violations and worker deaths.
    #[must_use]
    pub fn is_recovered_fault(&self) -> bool {
        matches!(self, FfiError::Violation(_) | FfiError::WorkerDied(_))
    }
}

impl fmt::Display for FfiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FfiError::Violation(e) => write!(f, "sandboxed function contained: {e}"),
            FfiError::Serial(e) => write!(f, "cross-domain serialization failed: {e}"),
            FfiError::WorkerDied(why) => write!(f, "sandbox worker died: {why}"),
            FfiError::UnknownFunction(name) => {
                write!(f, "function `{name}` is not registered in the worker")
            }
            FfiError::WorkerError(msg) => write!(f, "worker-side failure: {msg}"),
            FfiError::Backend(msg) => write!(f, "sandbox backend error: {msg}"),
        }
    }
}

impl Error for FfiError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FfiError::Violation(e) => Some(e),
            FfiError::Serial(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DomainError> for FfiError {
    fn from(e: DomainError) -> Self {
        FfiError::Violation(e)
    }
}

impl From<SerialError> for FfiError {
    fn from(e: SerialError) -> Self {
        FfiError::Serial(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovered_fault_classification() {
        assert!(FfiError::WorkerDied("gone".into()).is_recovered_fault());
        assert!(!FfiError::UnknownFunction("f".into()).is_recovered_fault());
        assert!(!FfiError::Serial(SerialError::UnexpectedEof).is_recovered_fault());
    }

    #[test]
    fn conversions_work_with_question_mark() {
        fn inner() -> Result<(), FfiError> {
            Err(SerialError::UnexpectedEof)?
        }
        assert!(matches!(inner(), Err(FfiError::Serial(_))));
    }
}
