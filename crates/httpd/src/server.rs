//! The HTTP server with optional SDRaD isolation of the request pipeline.

use std::collections::HashMap;

use sdrad::{DomainConfig, DomainEnv, DomainError, DomainId, DomainManager, DomainPolicy, Fault};

use crate::request::find_crlf;
use crate::{scan_request, HttpError, HttpRequest, HttpResponse, Method, RequestView, Status};

/// How request processing is isolated (mirrors `sdrad-kvstore`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isolation {
    /// Unprotected: the chunked-decoder bug crashes the server.
    None,
    /// SDRaD: the decoder runs in a domain; the bug becomes a 400.
    Domain,
}

/// Server counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HttpStats {
    /// Requests processed (any outcome).
    pub requests: u64,
    /// 2xx responses.
    pub ok: u64,
    /// 4xx responses.
    pub client_errors: u64,
    /// Faults contained by a rewind.
    pub contained_faults: u64,
    /// Fatal crashes (unprotected mode).
    pub crashes: u64,
}

/// A static-content HTTP server with an upload endpoint whose chunked
/// decoder carries the planted bug.
///
/// Routes:
/// * `GET <path>` — published static content,
/// * `POST /echo` — echoes a `Content-Length` body,
/// * `POST /upload` — decodes a chunked body (vulnerable decoder).
#[derive(Debug)]
pub struct HttpServer {
    content: HashMap<String, (String, Vec<u8>)>,
    isolation: Isolation,
    mgr: Option<DomainManager>,
    domain: Option<DomainId>,
    stats: HttpStats,
    crashed: bool,
}

impl HttpServer {
    /// Creates a server in the given isolation mode.
    ///
    /// # Errors
    ///
    /// [`DomainError`] if the isolation domain cannot be created.
    pub fn new(isolation: Isolation) -> Result<Self, DomainError> {
        let (mgr, domain) = match isolation {
            Isolation::None => (None, None),
            Isolation::Domain => {
                let mut mgr = DomainManager::new();
                let domain = mgr.create_domain(
                    DomainConfig::new("http-request")
                        .heap_capacity(8 << 20)
                        .policy(DomainPolicy::Integrity),
                )?;
                (Some(mgr), Some(domain))
            }
        };
        Ok(HttpServer {
            content: HashMap::new(),
            isolation,
            mgr,
            domain,
            stats: HttpStats::default(),
            crashed: false,
        })
    }

    /// Publishes static content at `path`.
    pub fn publish(&mut self, path: impl Into<String>, content_type: &str, body: Vec<u8>) {
        self.content
            .insert(path.into(), (content_type.to_string(), body));
    }

    /// Whether the server is alive (see `sdrad-kvstore` for semantics).
    #[must_use]
    pub fn is_alive(&self) -> bool {
        !self.crashed
    }

    /// Brings a crashed server back up (static content survives — it
    /// would be reloaded from disk; the *cost* of that reload is modeled
    /// by the experiment harness, not here).
    pub fn restart(&mut self) {
        self.crashed = false;
    }

    /// Activity counters.
    #[must_use]
    pub fn stats(&self) -> HttpStats {
        self.stats
    }

    /// The configured isolation mode.
    #[must_use]
    pub fn isolation(&self) -> Isolation {
        self.isolation
    }

    /// Parses and serves one request; returns raw response bytes (empty if
    /// the server is dead).
    pub fn handle(&mut self, raw: &[u8]) -> Vec<u8> {
        if self.crashed {
            return Vec::new();
        }
        match scan_request(raw) {
            Ok((request, _consumed)) => self.respond_view(&request).to_bytes(),
            Err(HttpError::Incomplete) => Vec::new(),
            Err(HttpError::TooLarge) => {
                self.stats.client_errors += 1;
                HttpResponse::text(Status::BadRequest, "request too large").to_bytes()
            }
            Err(HttpError::Malformed(why)) => {
                self.stats.client_errors += 1;
                HttpResponse::text(Status::BadRequest, why).to_bytes()
            }
        }
    }

    /// Serves a parsed request.
    pub fn respond(&mut self, request: &HttpRequest) -> HttpResponse {
        self.respond_view(&request.view())
    }

    /// Serves a scanned request straight from the buffer it arrived in.
    pub fn respond_view(&mut self, request: &RequestView<'_>) -> HttpResponse {
        self.stats.requests += 1;
        let response = match (request.method, request.path) {
            (Method::Get | Method::Head, path) => match self.content.get(path) {
                Some((content_type, body)) => {
                    let body = if request.method == Method::Head {
                        Vec::new()
                    } else {
                        body.clone()
                    };
                    HttpResponse::new(Status::Ok)
                        .header("Content-Type", content_type.clone())
                        .body(body)
                }
                None => HttpResponse::text(Status::NotFound, "not found"),
            },
            (Method::Post, "/echo") => HttpResponse::new(Status::Ok)
                .header("Content-Type", "application/octet-stream")
                .body(request.body.to_vec()),
            (Method::Post, "/upload") if request.chunked => self.decode_upload(request.body),
            (Method::Post, "/upload") => HttpResponse::new(Status::Created)
                .body(format!("{} bytes", request.body.len()).into_bytes()),
            _ => HttpResponse::text(Status::MethodNotAllowed, "unsupported"),
        };
        match response.status().code() {
            200..=299 => self.stats.ok += 1,
            400..=499 => self.stats.client_errors += 1,
            _ => {}
        }
        response
    }

    /// Runs the vulnerable chunked decoder under the configured isolation.
    fn decode_upload(&mut self, raw_chunks: &[u8]) -> HttpResponse {
        match self.isolation {
            Isolation::None => match decode_chunked_unprotected(raw_chunks) {
                Some(decoded) => HttpResponse::new(Status::Created)
                    .body(format!("{} bytes", decoded.len()).into_bytes()),
                None => {
                    self.crashed = true;
                    self.stats.crashes += 1;
                    HttpResponse::text(Status::ServiceUnavailable, "server crashed")
                }
            },
            Isolation::Domain => {
                let mgr = self.mgr.as_mut().expect("domain mode has a manager");
                let domain = self.domain.expect("domain mode has a domain");
                match mgr.try_call(domain, |env| try_decode_chunked_in_domain(env, raw_chunks)) {
                    Ok(decoded_len) => HttpResponse::new(Status::Created)
                        .body(format!("{decoded_len} bytes").into_bytes()),
                    Err(DomainError::Violation { fault, .. }) => {
                        self.stats.contained_faults += 1;
                        HttpResponse::text(
                            Status::BadRequest,
                            format!("contained: {}", fault.kind()),
                        )
                    }
                    Err(other) => HttpResponse::text(
                        Status::InternalServerError,
                        format!("isolation error: {other}"),
                    ),
                }
            }
        }
    }
}

/// Walks a raw chunk stream, yielding `(declared_size, actual_data)` per
/// chunk. Framing only; trusting `declared_size` is the decoder's bug.
fn chunks(raw: &[u8]) -> impl Iterator<Item = (usize, &[u8])> {
    let mut pos = 0;
    std::iter::from_fn(move || {
        let line_end = find_crlf(&raw[pos..])?;
        let size = usize::from_str_radix(
            std::str::from_utf8(&raw[pos..pos + line_end]).ok()?.trim(),
            16,
        )
        .ok()?;
        pos += line_end + 2;
        if size == 0 {
            return None;
        }
        let data_start = pos;
        // Data runs to the next CRLF (actual bytes present, which may be
        // fewer than declared).
        let data_len = find_crlf(&raw[pos..]).unwrap_or(raw.len() - pos);
        pos += data_len + 2.min(raw.len() - pos - data_len);
        Some((size, &raw[data_start..data_start + data_len]))
    })
}

/// The unprotected decoder: copies `declared` bytes per chunk into its
/// assembly buffer. `None` models the fatal overflow (the nginx
/// CVE-2013-2028 shape). Public so external executors (`sdrad-runtime`
/// workers) run the identical baseline path.
pub fn decode_chunked_unprotected(raw: &[u8]) -> Option<Vec<u8>> {
    let mut out = Vec::new();
    for (declared, data) in chunks(raw) {
        if declared > data.len() {
            return None; // SIGSEGV
        }
        out.extend_from_slice(&data[..declared]);
    }
    Some(out)
}

/// The same decoder running on domain memory: the oversized copy smashes
/// heap canaries or leaves the heap region, and the fault is returned for
/// the boundary ([`DomainManager::try_call`]) to rewind. Public so
/// executors that own their own `DomainManager` (per-worker managers in
/// `sdrad-runtime`) run the identical vulnerable workload.
///
/// # Errors
///
/// The planted overflow's [`Fault`] when a chunk declares more bytes
/// than it carries (beyond the allocator's rounding slack).
pub fn try_decode_chunked_in_domain(env: &mut DomainEnv<'_>, raw: &[u8]) -> Result<usize, Fault> {
    let mut total = 0usize;
    for (declared, data) in chunks(raw) {
        let buffer = env.try_push_bytes(data)?;
        // BUG: writes `declared` bytes into a buffer sized for the actual
        // data received.
        env.try_fill(buffer, declared, 0x5A)?;
        env.try_free(buffer)?; // free() re-verifies the canaries
        total += declared;
    }
    Ok(total)
}

/// [`try_decode_chunked_in_domain`] with the fault trapped to the boundary.
pub fn decode_chunked_in_domain(env: &mut DomainEnv<'_>, raw: &[u8]) -> usize {
    try_decode_chunked_in_domain(env, raw).unwrap_or_else(|fault| env.trap(fault))
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXPLOIT: &[u8] =
        b"POST /upload HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nfff\r\nhi\r\n0\r\n\r\n";
    const BENIGN_UPLOAD: &[u8] =
        b"POST /upload HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nWiki\r\n5\r\npedia\r\n0\r\n\r\n";

    fn server(isolation: Isolation) -> HttpServer {
        let mut s = HttpServer::new(isolation).unwrap();
        s.publish("/", "text/html", b"<h1>home</h1>".to_vec());
        s.publish(
            "/static/app.js",
            "text/javascript",
            b"console.log(1)".to_vec(),
        );
        s
    }

    #[test]
    fn serves_static_content() {
        let mut s = server(Isolation::Domain);
        let response = s.handle(b"GET /static/app.js HTTP/1.1\r\nHost: x\r\n\r\n");
        let text = String::from_utf8(response).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK"));
        assert!(text.ends_with("console.log(1)"));
    }

    #[test]
    fn head_omits_the_body() {
        let mut s = server(Isolation::None);
        let response = s.handle(b"HEAD / HTTP/1.1\r\nHost: x\r\n\r\n");
        let text = String::from_utf8(response).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK"));
        assert!(text.contains("Content-Length: 0"));
    }

    #[test]
    fn missing_content_is_404() {
        let mut s = server(Isolation::Domain);
        let response = s.handle(b"GET /nope HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(response.starts_with(b"HTTP/1.1 404"));
        assert_eq!(s.stats().client_errors, 1);
    }

    #[test]
    fn echo_round_trips_body() {
        let mut s = server(Isolation::Domain);
        let response = s.handle(b"POST /echo HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello");
        assert!(String::from_utf8_lossy(&response).ends_with("hello"));
    }

    #[test]
    fn benign_chunked_upload_succeeds_in_both_modes() {
        for isolation in [Isolation::None, Isolation::Domain] {
            let mut s = server(isolation);
            let response = s.handle(BENIGN_UPLOAD);
            let text = String::from_utf8_lossy(&response).into_owned();
            assert!(text.starts_with("HTTP/1.1 201"), "{isolation:?}: {text}");
            assert!(text.ends_with("9 bytes"), "{isolation:?}: {text}");
            assert!(s.is_alive());
        }
    }

    #[test]
    fn exploit_kills_unprotected_server() {
        let mut s = server(Isolation::None);
        let response = s.handle(EXPLOIT);
        assert!(response.starts_with(b"HTTP/1.1 503"));
        assert!(!s.is_alive());
        assert_eq!(s.stats().crashes, 1);
        assert!(s.handle(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n").is_empty());
    }

    #[test]
    fn exploit_is_contained_by_domain() {
        let mut s = server(Isolation::Domain);
        let response = s.handle(EXPLOIT);
        let text = String::from_utf8_lossy(&response).into_owned();
        assert!(text.starts_with("HTTP/1.1 400"), "{text}");
        assert!(text.contains("contained"), "{text}");
        assert!(s.is_alive());
        assert_eq!(s.stats().contained_faults, 1);
        // Still serving.
        let ok = s.handle(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(ok.starts_with(b"HTTP/1.1 200"));
    }

    #[test]
    fn sustained_attack_is_absorbed() {
        let mut s = server(Isolation::Domain);
        for _ in 0..30 {
            let response = s.handle(EXPLOIT);
            assert!(response.starts_with(b"HTTP/1.1 400"));
        }
        assert_eq!(s.stats().contained_faults, 30);
        assert!(s.is_alive());
    }

    #[test]
    fn restart_revives_unprotected_server() {
        let mut s = server(Isolation::None);
        s.handle(EXPLOIT);
        assert!(!s.is_alive());
        s.restart();
        let ok = s.handle(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(ok.starts_with(b"HTTP/1.1 200"));
    }

    #[test]
    fn malformed_request_is_400_not_crash() {
        let mut s = server(Isolation::None);
        let response = s.handle(b"NOPE / HTTP/1.1\r\n\r\n");
        assert!(response.starts_with(b"HTTP/1.1 400"));
        assert!(s.is_alive());
    }
}
