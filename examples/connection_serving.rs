//! Connection-level serving in one screen: clients connect through an
//! in-memory listener, write raw protocol bytes — pipelined, split
//! mid-request, or malicious — and sharded workers pump the streams,
//! containing the attacker's faults in its own domain while everyone
//! else is served. The stats now carry latency percentiles per
//! disposition.
//!
//! Run with: `cargo run --example connection_serving`

use sdrad_bench::Report;
use sdrad_repro::runtime::{ConnectionServer, IsolationMode, KvHandler, RuntimeConfig};

fn main() {
    let server = ConnectionServer::start(
        RuntimeConfig::new(4, IsolationMode::PerClientDomain),
        |worker| {
            println!("worker {worker}: pumping connections with its own DomainManager");
            KvHandler::default()
        },
    );

    // Three well-behaved clients and one attacker, all on live
    // connections.
    let mut alice = server.connect();
    let mut bob = server.connect();
    let mut carol = server.connect();
    let mut mallory = server.connect();

    // Alice pipelines two requests in one write.
    alice.write(b"set motd 5\r\nhello\r\nget motd\r\n");
    // Bob's request arrives split across writes, like a slow socket.
    bob.write(b"set greeting 2\r\n");
    bob.write(b"hi\r\n");
    // Mallory sends the planted xstat exploit, then a benign request on
    // the same connection — containment is per request, the connection
    // survives.
    mallory.write(b"xstat 65536 4\r\nboom\r\nget motd\r\n");
    // Carol's line is malformed; the shard answers ERROR and
    // resynchronises.
    carol.write(b"gibberish\r\nstats\r\n");

    let alice_bytes = server.await_response(&mut alice);
    assert_eq!(
        alice_bytes,
        b"STORED\r\nVALUE motd 5\r\nhello\r\nEND\r\n".to_vec()
    );
    let bob_bytes = server.await_response(&mut bob);
    assert_eq!(bob_bytes, b"STORED\r\n");
    let mallory_bytes = server.await_response(&mut mallory);
    let mallory_text = String::from_utf8_lossy(&mallory_bytes);
    assert!(mallory_text.starts_with("SERVER_ERROR contained"));
    assert!(mallory_text.contains("END"), "served after containment");
    let carol_bytes = server.await_response(&mut carol);
    assert!(carol_bytes.starts_with(b"ERROR\r\n"));
    println!(
        "attacker answered with: {}",
        mallory_text.lines().next().unwrap_or("")
    );

    let stats = server.shutdown();
    let mut report = Report::new("connection_serving", "connection-level serving");
    report.begin_table(
        "4 live connections, 1 attacker",
        &[
            "conns",
            "served",
            "ok",
            "contained",
            "crashes",
            "reconciles",
        ],
    );
    report.row(&[
        stats.connections().to_string(),
        stats.served().to_string(),
        stats.ok().to_string(),
        stats.contained_faults().to_string(),
        stats.crashes().to_string(),
        if stats.reconciles() { "yes" } else { "NO" }.into(),
    ]);
    let ok = stats.ok_latency();
    let contained = stats.contained_latency();
    report.begin_table(
        "latency by disposition",
        &[
            "ok p50",
            "ok p99",
            "contained p50",
            "contained p99",
            "rewind p99",
        ],
    );
    report.row(&[
        format!("{:?}", ok.p50()),
        format!("{:?}", ok.p99()),
        format!("{:?}", contained.p50()),
        format!("{:?}", contained.p99()),
        format!("{:?}", stats.rewind_latency().p99()),
    ]);
    report.print();
    assert_eq!(stats.connections(), 4);
    assert_eq!(stats.crashes(), 0);
    assert_eq!(stats.contained_faults(), 1);
    assert!(stats.reconciles());
}
