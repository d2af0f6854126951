//! # sdrad-kvstore — a Memcached-like cache as SDRaD workload
//!
//! The paper's headline numbers come from a Memcached deployment: 2–4 %
//! SDRaD overhead, a ~2 minute restart for a 10 GB instance versus a
//! 3.5 µs in-process rewind, and containment of malicious clients. This
//! crate provides the workload those experiments need:
//!
//! * [`Store`] — a sharded, byte-budgeted LRU cache with snapshot/restore
//!   (the restart path whose cost scales with dataset size),
//! * [`Command`]/[`Response`] — a memcached-style text protocol, including
//!   the deliberately vulnerable `xstat` command (a missing bounds check,
//!   CVE-2011-4971-style),
//! * [`Server`] — a request loop that can run the parser either
//!   unprotected (a fault "kills the process", requiring a costly
//!   restart) or inside an SDRaD domain (a fault is rewound in
//!   microseconds and answered with `SERVER_ERROR`),
//! * [`Session`] — per-connection buffering over `sdrad-net` endpoints.
//!
//! ## Example
//!
//! ```
//! use sdrad_kvstore::{Server, ServerConfig, Isolation};
//!
//! let mut server = Server::new(ServerConfig::default(), Isolation::Domain).unwrap();
//! assert_eq!(server.handle(b"set greeting 5\r\nhello\r\n"), b"STORED\r\n");
//! assert_eq!(
//!     server.handle(b"get greeting\r\n"),
//!     b"VALUE greeting 5\r\nhello\r\nEND\r\n",
//! );
//!
//! // A malicious xstat request is contained, not fatal:
//! let response = server.handle(b"xstat 4096 4\r\nboom\r\n");
//! assert!(response.starts_with(b"SERVER_ERROR"));
//! assert!(server.is_alive());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod protocol;
mod server;
mod store;

pub use protocol::{parse_command, write_value, Command, ProtocolError, Response};
pub use server::{
    apply_op, process_unprotected_command, stage_command, try_stage_command, Isolation, Server,
    ServerConfig, ServerStats, Session, StoreOp,
};
pub use store::{Snapshot, Store, StoreConfig, StoreStats};
