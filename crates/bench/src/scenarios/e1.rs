//! E1 — runtime overhead of SDRaD on the three evaluation apps
//! (Memcached, NGINX and OpenSSL analogues).
//!
//! Times each app's request path unprotected vs inside an SDRaD domain,
//! beside the *modeled* overhead (the two `WRPKRU`s per request over the
//! request's measured work), which is the number comparable to the
//! paper's hardware measurement: the software MMU adds per-byte checks
//! real PKU does not pay (DESIGN.md §5). Every row is a timing (`info`).

use sdrad::CostModel;
use sdrad_faultsim::workload::{
    http_get_request, http_upload_request, kv_preload_request, KvWorkload,
};
use sdrad_httpd::{HttpServer, Isolation as HttpIsolation};
use sdrad_kvstore::{Isolation as KvIsolation, Server, ServerConfig};
use sdrad_tls::{HeartbeatEngine, HeartbeatOutcome};

use crate::{measure, ops_per_sec, overhead_pct, Report};

/// Times `size` requests through each app's baseline and isolated path.
#[must_use]
pub fn run(size: usize) -> Report {
    let iters = size as u32;
    // kvstore: 90/10 get/set mix, preloaded so gets mostly hit.
    let mut requests = KvWorkload::new(7, 512, 64, 0.9);
    let batch: Vec<Vec<u8>> = (0..64).map(|_| requests.next_request()).collect();
    let kv = |isolation| {
        let mut server = Server::new(ServerConfig::default(), isolation).unwrap();
        for i in 0..512 {
            server.handle(&kv_preload_request(i, 64));
        }
        let mut i = 0;
        measure(iters, || {
            server.handle(&batch[i % batch.len()]);
            i += 1;
        })
    };
    // httpd: static GET + benign chunked upload.
    let (get, upload) = (http_get_request("/"), http_upload_request(4, 256));
    let http = |isolation| {
        let mut server = HttpServer::new(isolation).unwrap();
        server.publish("/", "text/html", vec![b'x'; 1024]);
        let mut i = 0u32;
        measure(iters, || {
            server.handle(if i.is_multiple_of(4) { &upload } else { &get });
            i += 1;
        })
    };
    // tls: benign heartbeats.
    let (secret, payload) = (vec![0x42u8; 48], vec![7u8; 256]);
    let tls = |mut engine: HeartbeatEngine| {
        measure(iters, || {
            let out = engine.respond(payload.len(), &payload);
            assert!(matches!(out, HeartbeatOutcome::Response(_)));
        })
    };
    let kv = [KvIsolation::None, KvIsolation::Domain].map(kv);
    let http = [HttpIsolation::None, HttpIsolation::Domain].map(http);
    let engines = [
        HeartbeatEngine::unprotected(secret.clone()),
        HeartbeatEngine::isolated(secret).unwrap(),
    ];
    let tls = engines.map(tls);

    let model = CostModel::calibrated();
    let mut r = Report::new("e1", "request-path overhead of domain isolation");
    r.begin_table(
        "overhead (baseline vs SDRaD-isolated request path)",
        &[
            "app",
            "baseline ops/s",
            "sdrad ops/s",
            "measured overhead",
            "modeled overhead",
        ],
    );
    for (app, key, [base, sdrad]) in [
        ("kvstore (get/set 90/10)", "kv", kv),
        ("httpd (GET + chunked POST)", "http", http),
        ("tls (256 B heartbeats)", "tls", tls),
    ] {
        // Modeled: two WRPKRUs per request over the measured baseline work.
        let modeled = 2.0 * model.wrpkru_ns() / base.as_nanos() as f64 * 100.0;
        let measured = overhead_pct(base, sdrad);
        r.row(&[
            app.into(),
            format!("{:.0}", ops_per_sec(base)),
            format!("{:.0}", ops_per_sec(sdrad)),
            format!("{measured:+.1}%"),
            format!("{modeled:+.2}%"),
        ]);
        r.info(&format!("{key}_overhead_pct"), measured, "pct")
            .info(&format!("{key}_modeled_overhead_pct"), modeled, "pct");
    }
    r.note(
        "'measured' includes the software-MMU's per-byte access checks (simulation artifact); \
         'modeled' charges only the WRPKRU pair per request, the cost real PKU hardware pays — \
         compare that column to the paper's 2-4%.",
    );
    r
}
