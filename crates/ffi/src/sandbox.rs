//! The [`Sandbox`]: one place to run a risky function under a chosen
//! isolation backend.

use std::process::Command;

use sdrad::{DomainConfig, DomainId, DomainInfo, DomainManager, DomainPolicy};
use serde::de::DeserializeOwned;
use serde::Serialize;

use crate::serial::{from_bytes, to_bytes, Format};
use crate::{FfiError, ProcessWorker};

/// Counters of a sandbox's activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SandboxStats {
    /// Invocations attempted.
    pub invocations: u64,
    /// Invocations that ended in a contained fault (rewind / worker death).
    pub recovered_faults: u64,
    /// Argument bytes marshalled into the sandbox.
    pub bytes_in: u64,
    /// Result bytes marshalled out of the sandbox.
    pub bytes_out: u64,
}

/// Isolation backend of a [`Sandbox`].
#[derive(Debug)]
enum Backend {
    /// No isolation — the baseline. Marshalling still happens so that
    /// backend comparisons isolate the *isolation* cost, not serde costs.
    Direct,
    /// SDRaD in-process isolation: the function runs in a protection-key
    /// domain; faults rewind the domain.
    InProcess {
        mgr: Box<DomainManager>,
        domain: DomainId,
    },
    /// Sandcrust-style process isolation: the function runs in a worker
    /// subprocess (by registered name); crashes kill only the worker.
    Process(Box<ProcessWorker>),
}

/// A sandbox for foreign/unsafe functions, the SDRaD-FFI entry point.
///
/// Every invocation marshals the arguments in the configured
/// [`Format`], runs the function under the backend's isolation, and
/// marshals the result back. On a contained fault the caller receives
/// [`FfiError`] with [`FfiError::is_recovered_fault`]` == true` and can run
/// an alternate action — the host process never crashes.
///
/// # Example
///
/// ```
/// use sdrad_ffi::{Sandbox, FfiError};
///
/// # fn main() -> Result<(), FfiError> {
/// let mut sandbox = Sandbox::in_process()?;
/// let sum = sandbox.invoke("sum", &vec![1u64, 2, 3], |v: Vec<u64>| {
///     v.iter().sum::<u64>()
/// })?;
/// assert_eq!(sum, 6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Sandbox {
    backend: Backend,
    format: Format,
    stats: SandboxStats,
}

impl Sandbox {
    /// A no-isolation sandbox (baseline for comparisons).
    #[must_use]
    pub fn direct() -> Self {
        Sandbox {
            backend: Backend::Direct,
            format: Format::Compact,
            stats: SandboxStats::default(),
        }
    }

    /// An SDRaD in-process sandbox with a default confidential domain.
    ///
    /// # Errors
    ///
    /// [`FfiError::Violation`] wrapping the setup failure.
    pub fn in_process() -> Result<Self, FfiError> {
        Self::in_process_with(DomainConfig::new("ffi").policy(DomainPolicy::Confidential))
    }

    /// An SDRaD in-process sandbox with a custom domain configuration.
    ///
    /// # Errors
    ///
    /// [`FfiError::Violation`] wrapping the setup failure.
    pub fn in_process_with(config: DomainConfig) -> Result<Self, FfiError> {
        let mut mgr = DomainManager::new();
        let domain = mgr.create_domain(config)?;
        Ok(Sandbox {
            backend: Backend::InProcess {
                mgr: Box::new(mgr),
                domain,
            },
            format: Format::Compact,
            stats: SandboxStats::default(),
        })
    }

    /// A process sandbox backed by a worker spawned from `command`
    /// (Sandcrust-style). The local closure passed to
    /// [`invoke`](Self::invoke) is ignored; the *worker's* registered
    /// function of the same name runs instead.
    ///
    /// # Errors
    ///
    /// [`FfiError::Backend`] if the worker cannot be spawned.
    pub fn process(command: Command) -> Result<Self, FfiError> {
        Ok(Sandbox {
            backend: Backend::Process(Box::new(ProcessWorker::spawn(command)?)),
            format: Format::Compact,
            stats: SandboxStats::default(),
        })
    }

    /// Sets the marshalling format (builder-style).
    #[must_use]
    pub fn format(mut self, format: Format) -> Self {
        self.format = format;
        self
    }

    /// The backend's short name (`direct` / `in-process` / `process`).
    #[must_use]
    pub fn backend_name(&self) -> &'static str {
        match self.backend {
            Backend::Direct => "direct",
            Backend::InProcess { .. } => "in-process",
            Backend::Process(_) => "process",
        }
    }

    /// Activity counters.
    #[must_use]
    pub fn stats(&self) -> SandboxStats {
        self.stats
    }

    /// Domain status, for in-process sandboxes.
    #[must_use]
    pub fn domain_info(&self) -> Option<DomainInfo> {
        match &self.backend {
            Backend::InProcess { mgr, domain } => mgr.domain_info(*domain).ok(),
            _ => None,
        }
    }

    /// Invokes a sandboxed function.
    ///
    /// * `name` identifies the function for the process backend's registry
    ///   (and labels diagnostics elsewhere).
    /// * `args` are marshalled by value across the boundary.
    /// * `body` is the function itself, executed locally by the direct and
    ///   in-process backends.
    ///
    /// # Errors
    ///
    /// [`FfiError::Violation`] / [`FfiError::WorkerDied`] for contained
    /// faults (check [`FfiError::is_recovered_fault`], then run your
    /// alternate action); [`FfiError::Serial`] for marshalling failures;
    /// [`FfiError::UnknownFunction`] / [`FfiError::WorkerError`] from the
    /// worker.
    pub fn invoke<A, R, F>(&mut self, name: &str, args: &A, body: F) -> Result<R, FfiError>
    where
        A: Serialize + DeserializeOwned,
        R: Serialize + DeserializeOwned,
        F: FnOnce(A) -> R,
    {
        self.stats.invocations += 1;
        let format = self.format;
        let arg_bytes = to_bytes(format, args)?;
        self.stats.bytes_in += arg_bytes.len() as u64;

        let result_bytes = match &mut self.backend {
            Backend::Direct => {
                let decoded: A = from_bytes(format, &arg_bytes)?;
                to_bytes(format, &body(decoded))?
            }
            Backend::InProcess { mgr, domain } => {
                let outcome = mgr.call(*domain, move |env| {
                    // Copy the serialized arguments into the domain heap and
                    // decode them *inside* the domain, so that the callee
                    // only ever works on its own memory.
                    let addr = env.push_bytes(&arg_bytes);
                    let inside = env.read_bytes(addr, arg_bytes.len());
                    env.free(addr); // staging is call-scoped
                    let decoded: A = match from_bytes(format, &inside) {
                        Ok(v) => v,
                        Err(e) => env.abort(format!("argument decode: {e}")),
                    };
                    let result = body(decoded);
                    match to_bytes(format, &result) {
                        Ok(bytes) => bytes,
                        Err(e) => env.abort(format!("result encode: {e}")),
                    }
                });
                match outcome {
                    Ok(bytes) => bytes,
                    Err(violation) => {
                        self.stats.recovered_faults += 1;
                        return Err(FfiError::Violation(violation));
                    }
                }
            }
            Backend::Process(worker) => match worker.call(name, arg_bytes, format) {
                Ok(bytes) => bytes,
                Err(e @ FfiError::WorkerDied(_)) => {
                    self.stats.recovered_faults += 1;
                    // Recover availability for the next call; the cost of
                    // this respawn is the process baseline's "rewind".
                    let _ = worker.respawn();
                    return Err(e);
                }
                Err(other) => return Err(other),
            },
        };

        self.stats.bytes_out += result_bytes.len() as u64;
        Ok(from_bytes(format, &result_bytes)?)
    }

    /// Invokes with an alternate action: on any *recovered fault* the
    /// fallback runs instead — the paper's "alternate actions in case of
    /// domain violations". Unrecoverable errors still propagate.
    ///
    /// # Errors
    ///
    /// Only non-fault errors (serialization, unknown function, backend).
    pub fn invoke_or<A, R, F, G>(
        &mut self,
        name: &str,
        args: &A,
        body: F,
        fallback: G,
    ) -> Result<R, FfiError>
    where
        A: Serialize + DeserializeOwned,
        R: Serialize + DeserializeOwned,
        F: FnOnce(A) -> R,
        G: FnOnce(&FfiError) -> R,
    {
        match self.invoke(name, args, body) {
            Ok(value) => Ok(value),
            Err(e) if e.is_recovered_fault() => Ok(fallback(&e)),
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_backend_runs_body() {
        let mut sandbox = Sandbox::direct();
        let out = sandbox.invoke("triple", &14u32, |x: u32| x * 3).unwrap();
        assert_eq!(out, 42);
        assert_eq!(sandbox.stats().invocations, 1);
        assert_eq!(sandbox.backend_name(), "direct");
    }

    #[test]
    fn in_process_backend_runs_body_in_domain() {
        let mut sandbox = Sandbox::in_process().unwrap();
        let out = sandbox
            .invoke(
                "concat",
                &("ab".to_string(), "cd".to_string()),
                |(a, b): (String, String)| format!("{a}{b}"),
            )
            .unwrap();
        assert_eq!(out, "abcd");
        let info = sandbox.domain_info().expect("in-process has a domain");
        assert_eq!(info.calls, 1);
        assert_eq!(info.violations, 0);
    }

    #[test]
    fn in_process_contains_panics_as_violations() {
        let mut sandbox = Sandbox::in_process().unwrap();
        let err = sandbox
            .invoke("bad", &1u8, |_: u8| -> u8 {
                panic!("use-after-free in C library")
            })
            .unwrap_err();
        assert!(err.is_recovered_fault());
        assert_eq!(sandbox.stats().recovered_faults, 1);
        // Sandbox remains fully usable.
        let ok = sandbox.invoke("good", &2u8, |x: u8| x + 1).unwrap();
        assert_eq!(ok, 3);
    }

    #[test]
    fn invoke_or_runs_alternate_action() {
        let mut sandbox = Sandbox::in_process().unwrap();
        let value = sandbox
            .invoke_or(
                "risky",
                &10u32,
                |_x: u32| -> u32 { panic!("memory corruption") },
                |_err| 0xFA11u32,
            )
            .unwrap();
        assert_eq!(value, 0xFA11);
    }

    #[test]
    fn invoke_or_passes_success_through() {
        let mut sandbox = Sandbox::direct();
        let value = sandbox
            .invoke_or("fine", &5u32, |x: u32| x * 2, |_err| 0)
            .unwrap();
        assert_eq!(value, 10);
    }

    #[test]
    fn format_builder_changes_marshalling() {
        for format in Format::ALL {
            let mut sandbox = Sandbox::direct().format(format);
            let out = sandbox
                .invoke("id", &vec![1u16, 2, 3], |v: Vec<u16>| v)
                .unwrap();
            assert_eq!(out, vec![1, 2, 3]);
        }
    }

    #[test]
    fn stats_count_bytes() {
        let mut sandbox = Sandbox::direct().format(Format::Wire);
        sandbox
            .invoke("echo", &vec![0u8; 100], |v: Vec<u8>| v)
            .unwrap();
        let stats = sandbox.stats();
        assert!(stats.bytes_in >= 100);
        assert!(stats.bytes_out >= 100);
    }
}
