//! # sdrad-httpd — an NGINX-like HTTP server as SDRaD workload
//!
//! The second evaluation target of the paper. A small but real HTTP/1.1
//! server: request parsing, a static-content store, and a chunked
//! transfer-encoding decoder with a planted length-confusion bug (the
//! class of bug behind e.g. CVE-2013-2028 in nginx's chunked parser).
//!
//! Like `sdrad-kvstore`, the server runs in one of two modes:
//! [`Isolation::None`], where triggering the bug kills the process, and
//! [`Isolation::Domain`], where the decoder runs inside an SDRaD domain
//! and the fault is rewound into a `400 Bad Request`.
//!
//! ## Example
//!
//! ```
//! use sdrad_httpd::{HttpServer, Isolation};
//!
//! let mut server = HttpServer::new(Isolation::Domain).unwrap();
//! server.publish("/index.html", "text/html", b"<h1>hi</h1>".to_vec());
//!
//! let response = server.handle(b"GET /index.html HTTP/1.1\r\nHost: x\r\n\r\n");
//! assert!(response.starts_with(b"HTTP/1.1 200 OK"));
//!
//! // The chunked exploit (declared chunk size >> actual) is contained:
//! let exploit = b"POST /upload HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nfff\r\nhi\r\n0\r\n\r\n";
//! let response = server.handle(exploit);
//! assert!(response.starts_with(b"HTTP/1.1 400"));
//! assert!(server.is_alive());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod request;
mod response;
mod server;

pub use request::{parse_request, scan_request, HttpError, HttpRequest, Method, RequestView};
pub use response::{HttpResponse, Status};
pub use server::{
    decode_chunked_in_domain, decode_chunked_unprotected, HttpServer, HttpSession, HttpStats,
    Isolation,
};
