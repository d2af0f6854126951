//! # sdrad-net — deterministic in-memory transport
//!
//! The SDRaD evaluation runs Memcached- and NGINX-style servers under
//! load. Binding real sockets would make the experiments flaky and
//! environment-dependent, so this crate provides an in-memory transport
//! with the same shape as TCP: listeners, bidirectional connections,
//! partial reads, and orderly shutdown — plus byte/message accounting the
//! harnesses read.
//!
//! Connections are thread-safe (both ends can live on different threads),
//! but are equally usable single-threaded for deterministic
//! request/response loops. Accept loops that drain concurrently with
//! connecting clients use [`Listener::accept_blocking`] +
//! [`Listener::close`], which guarantee that no connection enqueued
//! before the close is ever lost.
//!
//! ## Readiness
//!
//! Reads are non-blocking; a reader that does not want to poll registers
//! a [`ReadyCallback`] with [`Endpoint::set_ready_callback`] (or
//! [`Listener::set_ready_callback`] for accept readiness). The callback
//! fires on the writer's thread whenever new state becomes observable —
//! bytes written, peer closed, connection enqueued — and immediately at
//! registration time if an edge already happened, so no wakeup can be
//! lost. This is the hook `sdrad-runtime`'s event-driven scheduler parks
//! on instead of re-polling idle connections.
//!
//! ## Example
//!
//! ```
//! use sdrad_net::Listener;
//!
//! let listener = Listener::new();
//! let mut client = listener.connect();
//! let mut server = listener.accept().expect("pending connection");
//!
//! client.write(b"ping");
//! assert_eq!(server.read_available(), b"ping");
//! server.write(b"pong");
//! assert_eq!(client.read_available(), b"pong");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod conn;
mod listener;

pub use conn::{duplex, Endpoint, NetStats, ReadyCallback};
pub use listener::Listener;
