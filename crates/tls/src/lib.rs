//! # sdrad-tls — an OpenSSL-like library as SDRaD workload
//!
//! The third evaluation target. OpenSSL is the paper's confidentiality
//! use case: per-session secrets must not leak even when a parsing bug is
//! exploited. This crate provides a *toy* record layer (no handshake and
//! no real cryptography — the experiments measure isolation, not key
//! exchange or ciphers) plus the canonical motivating bug: a
//! **Heartbleed-style heartbeat over-read** (CVE-2014-0160), where the
//! responder trusts the declared payload length and reads past the
//! request buffer.
//!
//! Two engines process heartbeats:
//!
//! * [`HeartbeatEngine::unprotected`] — request buffers and session
//!   secrets live side by side in one memory arena; the over-read leaks
//!   the secret, exactly like 2014,
//! * [`HeartbeatEngine::isolated`] — the handler runs in a *confidential*
//!   SDRaD domain whose memory contains only the request; the secret is
//!   root data the domain cannot read, so over-reads either return only
//!   the domain's own bytes or fault and are rewound.
//!
//! ## Example
//!
//! ```
//! use sdrad_tls::{HeartbeatEngine, HeartbeatOutcome};
//!
//! let secret = b"MASTER-KEY-0123456789".to_vec();
//! let mut leaky = HeartbeatEngine::unprotected(secret.clone());
//! let mut safe = HeartbeatEngine::isolated(secret.clone()).unwrap();
//!
//! // Declared length 4096 for a 4-byte payload: the classic exploit.
//! let leak = leaky.respond(4096, b"ping");
//! let contained = safe.respond(4096, b"ping");
//!
//! assert!(matches!(leak, HeartbeatOutcome::Response(bytes)
//!     if bytes.windows(secret.len()).any(|w| w == &secret[..])));
//! assert!(!matches!(&contained, HeartbeatOutcome::Response(bytes)
//!     if bytes.windows(secret.len()).any(|w| w == &secret[..])));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod heartbeat;
mod record;

pub use heartbeat::{
    heartbeat_request, heartbeat_response, is_overread_fault, parse_heartbeat_request,
    respond_in_domain, HeartbeatEngine, HeartbeatOutcome,
};
pub use record::{ContentType, Record, RecordError, PROTOCOL_VERSION};
