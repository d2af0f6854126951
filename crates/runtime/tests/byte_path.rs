//! The copy-once, scan-once byte path, checked from both ends.
//!
//! * **Scanner differential** — `sdrad_httpd::scan_request` (the
//!   borrowed, allocation-free view the runtime frames and serves from)
//!   and `parse_request` (the owned form the rest of the tree uses) must
//!   agree on **every prefix** of benign, exploit, malformed and
//!   pipelined inputs: same consumed length, same error, same
//!   method/path/chunked/body — and `HttpHandler::frame` must report the
//!   same boundary.
//! * **Cursor-consumed staging** — a pipeline of mixed 4 KiB uploads and
//!   GETs dribbled a few bytes at a time with `conn_read_budget = 1`
//!   walks the staging cursor through every exit of the pump (budget,
//!   incomplete, fatal) and must still answer byte-identically, in
//!   order, and close on a mid-stream fatal head.

use proptest::prelude::*;
use sdrad::ClientId;
use sdrad_faultsim::workload::{http_exploit_request, http_get_request, http_upload_request};
use sdrad_httpd::{parse_request, scan_request, HttpError};
use sdrad_runtime::{
    ConnectionServer, Framing, HttpHandler, IsolationMode, RuntimeConfig, SessionHandler,
    WorkerIsolation,
};

const PAGE_LEN: usize = 4096;
const FATAL_HEAD: &[u8] = b"NOPE / HTTP/1.1\r\nHost: x\r\n\r\n";

fn handler() -> HttpHandler {
    let mut handler = HttpHandler::new();
    handler.publish("/", "text/html", vec![b'p'; PAGE_LEN]);
    handler
}

/// Benign GETs, the 4 KiB upload, the lying-size exploit, bodies framed
/// by `Content-Length`, and one of every malformed head the grammar
/// names.
fn corpus() -> Vec<Vec<u8>> {
    let mut corpus = vec![
        http_get_request("/"),
        http_get_request("/static/app.js"),
        http_upload_request(4, 1024),
        http_upload_request(1, 7),
        http_exploit_request(0xfff),
        b"POST /echo HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello".to_vec(),
        b"POST /upload HTTP/1.1\r\ntransfer-encoding:  CHUNKED \r\n\r\n2\r\nabcdef\r\n0\r\n\r\n"
            .to_vec(),
        b"POST / HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n".to_vec(),
        b"POST / HTTP/1.1\r\nContent-Length: five\r\n\r\n".to_vec(),
        b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\nhi\r\n0\r\n\r\n".to_vec(),
        b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\nXX".to_vec(),
        b"GET / HTTP/1.1\r\nX-Bin: \xff\xfe\r\n\r\n".to_vec(),
        b"\r\n\r\n".to_vec(),
    ];
    for head in [
        "BREW /pot HTTP/1.1",
        "GET noslash HTTP/1.1",
        "GET /",
        "GET / HTTP/2.0",
        "GET / HTTP/1.1 extra",
        "GET / HTTP/1.1\r\nBad Header Name: x",
        "GET / HTTP/1.1\r\nnocolon",
    ] {
        corpus.push(format!("{head}\r\n\r\n").into_bytes());
    }
    corpus
}

/// Asserts the borrowed scan, the owned parse and the runtime's framing
/// agree on `input`.
fn assert_agreement(framer: &HttpHandler, input: &[u8]) {
    let context = || String::from_utf8_lossy(&input[..input.len().min(96)]).into_owned();
    let framing = framer.frame(input);
    match (scan_request(input), parse_request(input)) {
        (Ok((view, scanned)), Ok((request, parsed))) => {
            assert_eq!(scanned, parsed, "consumed length: {}", context());
            assert_eq!(view.method, request.method, "{}", context());
            assert_eq!(view.path, request.path, "{}", context());
            assert_eq!(view.chunked, request.chunked, "{}", context());
            assert_eq!(view.body, request.body, "{}", context());
            assert_eq!(view, request.view(), "{}", context());
            assert_eq!(framing, Framing::Complete(scanned), "{}", context());
        }
        (Err(scanned), Err(parsed)) => {
            assert_eq!(scanned, parsed, "error class: {}", context());
            match scanned {
                HttpError::Incomplete => assert_eq!(framing, Framing::Incomplete),
                HttpError::Malformed(_) | HttpError::TooLarge => {
                    assert!(matches!(framing, Framing::Fatal { .. }), "{}", context());
                }
            }
        }
        (scanned, parsed) => panic!(
            "scan {:?} vs parse {:?} on {}",
            scanned.map(|(_, n)| n),
            parsed.map(|(_, n)| n),
            context()
        ),
    }
}

fn assert_agreement_on_every_prefix(framer: &HttpHandler, input: &[u8]) {
    for cut in 0..=input.len() {
        assert_agreement(framer, &input[..cut]);
    }
}

#[test]
fn scanner_and_parser_agree_on_every_prefix_of_the_corpus() {
    let framer = handler();
    for input in corpus() {
        assert_agreement_on_every_prefix(&framer, &input);
    }
    // The head-size limit, on both sides of its edge.
    let mut oversized = b"GET / HTTP/1.1\r\n".to_vec();
    while oversized.len() < 17 * 1024 {
        oversized.extend_from_slice(b"X-Filler: aaaaaaaaaaaaaaaaaaaaaaaa\r\n");
    }
    for cut in (16 * 1024 - 48)..(16 * 1024 + 48) {
        assert_agreement(&framer, &oversized[..cut]);
    }
}

proptest! {
    // Every prefix of every case is scanned twice, so the case count
    // stays small; the corpus test above covers each input alone.
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn scanner_and_parser_agree_on_every_prefix_of_pipelines(
        picks in proptest::collection::vec(0usize..20, 2..5),
    ) {
        let corpus = corpus();
        let pipeline: Vec<u8> = picks
            .iter()
            .flat_map(|&pick| corpus[pick % corpus.len()].clone())
            .collect();
        assert_agreement_on_every_prefix(&handler(), &pipeline);
    }
}

/// A pipeline of mixed 4 KiB uploads, 4 KiB page GETs, 404s and two
/// lying-size exploits, with the byte-exact responses a single handler
/// gives when handed the requests one by one.
fn mixed_pipeline(requests: usize) -> (Vec<u8>, Vec<u8>) {
    let mut reference = handler();
    let defaults = RuntimeConfig::new(1, IsolationMode::PerClientDomain);
    let mut iso = WorkerIsolation::new(
        defaults.isolation,
        defaults.domains_per_worker,
        defaults.domain_heap,
    );
    let (mut wire, mut expected) = (Vec::new(), Vec::new());
    for i in 0..requests {
        let request = match (i, (i * 5) % 8) {
            (3 | 9, _) => http_exploit_request(0xfff),
            (_, 0..=3) => http_upload_request(4, 1024),
            (_, 4..=6) => http_get_request("/"),
            _ => http_get_request("/missing"),
        };
        expected.extend_from_slice(&reference.handle(&mut iso, ClientId(1), &request).response);
        wire.extend_from_slice(&request);
    }
    (wire, expected)
}

#[test]
fn dribbled_pipeline_answers_in_order_and_closes_on_a_fatal_head() {
    const REQUESTS: usize = 14;
    let (mut wire, mut expected) = mixed_pipeline(REQUESTS);
    // Mid-stream garbage: answered 400, connection closed, and the GET
    // pipelined behind it never runs.
    wire.extend_from_slice(FATAL_HEAD);
    wire.extend_from_slice(&http_get_request("/"));
    let Framing::Fatal { response } = handler().frame(FATAL_HEAD) else {
        panic!("the garbage head must be fatal");
    };
    expected.extend_from_slice(&response);

    let mut config = RuntimeConfig::new(1, IsolationMode::PerClientDomain);
    config.conn_read_budget = 1;
    let server = ConnectionServer::start(config, |_| handler());
    let mut client = server.connect();

    let mut received = Vec::new();
    let (mut sent, mut writes) = (0, 0usize);
    while sent < wire.len() {
        // 1–7 bytes per write, in a pattern that drifts against every
        // frame boundary.
        let step = (1 + (writes * 3 + writes / 7) % 7).min(wire.len() - sent);
        client.write(&wire[sent..sent + step]);
        sent += step;
        writes += 1;
        if writes % 61 == 0 {
            // Let the worker catch up now and then, so its passes end
            // on partial heads, partial bodies and frame boundaries
            // alike rather than always racing the writer.
            assert!(server.quiesce());
            client.read_available_into(&mut received);
            assert!(
                expected.starts_with(&received),
                "responses diverged after {sent} request bytes"
            );
        }
    }
    assert!(server.quiesce());
    client.read_available_into(&mut received);
    assert_eq!(received.len(), expected.len());
    assert!(received == expected, "responses must be byte-identical");
    assert!(!client.is_open(), "a fatal head closes the connection");

    let stats = server.shutdown();
    assert_eq!(
        stats.served(),
        REQUESTS as u64 + 1,
        "nothing ran past the close"
    );
    assert_eq!(stats.contained_faults(), 2);
    assert_eq!(stats.crashes(), 0);
    assert_eq!(stats.leaks(), 0);
    assert!(stats.reconciles());
}
