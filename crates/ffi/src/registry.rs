//! The worker-side function registry.
//!
//! A subprocess cannot receive Rust function pointers from its parent, so
//! — exactly like Sandcrust [9] — the sandboxable functions are *compiled
//! into* the worker and addressed by name. The registry maps names to
//! type-erased wrappers that deserialize arguments, run the function, and
//! serialize the result.

use std::collections::HashMap;

use serde::de::DeserializeOwned;
use serde::Serialize;

use crate::serial::{from_bytes, to_bytes, Format};

/// Type-erased sandboxed function: raw argument bytes in, raw result bytes
/// out, error as text (it crosses a process boundary).
type ErasedFn = Box<dyn Fn(&[u8], Format) -> Result<Vec<u8>, String> + Send + Sync>;

/// A registry of named functions a worker can execute.
///
/// # Example
///
/// ```
/// use sdrad_ffi::Registry;
///
/// let mut registry = Registry::new();
/// registry.register("add", |(a, b): (u32, u32)| a + b);
/// assert!(registry.contains("add"));
/// ```
#[derive(Default)]
pub struct Registry {
    functions: HashMap<String, ErasedFn>,
}

impl Registry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Registry {
            functions: HashMap::new(),
        }
    }

    /// Registers `f` under `name`. Arguments and results must be
    /// serde-serializable, since they cross the process boundary by value.
    /// Re-registering a name replaces the previous function.
    pub fn register<A, R, F>(&mut self, name: impl Into<String>, f: F)
    where
        A: DeserializeOwned,
        R: Serialize,
        F: Fn(A) -> R + Send + Sync + 'static,
    {
        let wrapped: ErasedFn = Box::new(move |bytes, format| {
            let args: A = from_bytes(format, bytes).map_err(|e| format!("argument decode: {e}"))?;
            let result = f(args);
            to_bytes(format, &result).map_err(|e| format!("result encode: {e}"))
        });
        self.functions.insert(name.into(), wrapped);
    }

    /// Whether `name` is registered.
    #[must_use]
    pub fn contains(&self, name: &str) -> bool {
        self.functions.contains_key(name)
    }

    /// Registered names, unordered.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.functions.keys().map(String::as_str)
    }

    /// Invokes a registered function on raw bytes.
    ///
    /// # Errors
    ///
    /// `Err(None)` if the function is unknown; `Err(Some(msg))` if the
    /// function itself failed (decode, encode, or panic).
    pub fn invoke_raw(
        &self,
        name: &str,
        args: &[u8],
        format: Format,
    ) -> Result<Vec<u8>, Option<String>> {
        let f = self.functions.get(name).ok_or(None)?;
        // A panicking sandboxed function must not take the worker loop
        // down with it: catch and report, like a fault would be.
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(args, format)))
            .map_err(|payload| {
                let msg = if let Some(s) = payload.downcast_ref::<&str>() {
                    (*s).to_string()
                } else if let Some(s) = payload.downcast_ref::<String>() {
                    s.clone()
                } else {
                    "panic in sandboxed function".to_string()
                };
                Some(format!("panic: {msg}"))
            })?
            .map_err(Some)
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("functions", &self.functions.keys().collect::<Vec<_>>())
            .finish()
    }
}

/// Registers the built-in demonstration functions used by the bundled
/// worker binary, the tests and the experiments:
///
/// * `echo(Vec<u8>) -> Vec<u8>` — identity, measures pure boundary cost,
/// * `sum(Vec<u64>) -> u64` — wrapping sum,
/// * `checksum(Vec<u8>) -> u64` — FNV-1a, a tiny "real" computation,
/// * `boom(String) -> ()` — panics with the given message (crash testing).
pub fn register_builtins(registry: &mut Registry) {
    registry.register("echo", |data: Vec<u8>| data);
    registry.register("sum", |values: Vec<u64>| {
        values.iter().fold(0u64, |acc, v| acc.wrapping_add(*v))
    });
    registry.register("checksum", |data: Vec<u8>| {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for byte in data {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x1000_0000_01b3);
        }
        hash
    });
    registry.register("boom", |msg: String| -> () { panic!("{msg}") });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_invoke() {
        let mut registry = Registry::new();
        registry.register("double", |x: u64| x * 2);
        let args = to_bytes(Format::Wire, &21u64).unwrap();
        let out = registry.invoke_raw("double", &args, Format::Wire).unwrap();
        let result: u64 = from_bytes(Format::Wire, &out).unwrap();
        assert_eq!(result, 42);
    }

    #[test]
    fn unknown_function_is_none() {
        let registry = Registry::new();
        assert_eq!(registry.invoke_raw("nope", &[], Format::Wire), Err(None));
    }

    #[test]
    fn bad_arguments_are_reported() {
        let mut registry = Registry::new();
        registry.register("double", |x: u64| x * 2);
        let err = registry
            .invoke_raw("double", &[1, 2], Format::Wire)
            .unwrap_err();
        assert!(err.expect("some message").contains("argument decode"));
    }

    #[test]
    fn panics_are_contained() {
        let mut registry = Registry::new();
        register_builtins(&mut registry);
        let args = to_bytes(Format::Wire, &"kaput".to_string()).unwrap();
        let err = registry
            .invoke_raw("boom", &args, Format::Wire)
            .unwrap_err();
        assert!(err.expect("some message").contains("kaput"));
        // The registry (and the worker that owns it) is still usable.
        let args = to_bytes(Format::Wire, &vec![1u64, 2, 3]).unwrap();
        assert!(registry.invoke_raw("sum", &args, Format::Wire).is_ok());
    }

    #[test]
    fn builtins_are_complete() {
        let mut registry = Registry::new();
        register_builtins(&mut registry);
        for name in ["echo", "sum", "checksum", "boom"] {
            assert!(registry.contains(name), "{name} missing");
        }
    }

    #[test]
    fn checksum_is_deterministic() {
        let mut registry = Registry::new();
        register_builtins(&mut registry);
        let args = to_bytes(Format::Compact, &vec![1u8, 2, 3]).unwrap();
        let a = registry
            .invoke_raw("checksum", &args, Format::Compact)
            .unwrap();
        let b = registry
            .invoke_raw("checksum", &args, Format::Compact)
            .unwrap();
        assert_eq!(a, b);
    }
}
