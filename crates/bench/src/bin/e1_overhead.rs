//! E1 — runtime overhead of SDRaD on the three evaluation apps.
//!
//! Paper claim (§II): "it adds negligible overhead (2%–4%) in realistic
//! multi-processing scenarios" across Memcached, NGINX and OpenSSL.
//!
//! This harness measures each app's request path unprotected vs inside an
//! SDRaD domain, and also reports the *modeled* overhead (cost-model
//! cycles for the two `WRPKRU`s per request over the request's work),
//! which is the number comparable to the paper's hardware measurement —
//! the software-MMU simulation adds per-byte check costs real PKU does
//! not pay (see DESIGN.md §5).

use sdrad_bench::{banner, measure, ops_per_sec, overhead_pct, TextTable};
use sdrad_faultsim::workload::{http_get_request, http_upload_request, KvWorkload};
use sdrad_httpd::HttpServer;
use sdrad_kvstore::{Server, ServerConfig};
use sdrad_mpk::CostModel;
use sdrad_tls::{HeartbeatEngine, HeartbeatOutcome};

const ITERS: u32 = 2_000;

fn main() {
    sdrad::quiet_fault_traps();
    banner(
        "E1",
        "runtime overhead of per-request domain isolation",
        "2%-4% overhead on Memcached / NGINX / OpenSSL workloads",
    );

    let mut table = TextTable::new(
        "overhead (baseline vs SDRaD-isolated request path)",
        &[
            "app",
            "baseline ops/s",
            "sdrad ops/s",
            "measured overhead",
            "modeled overhead",
        ],
    );

    // --- kvstore (Memcached analogue): 90/10 get/set mix --------------
    let (base_kv, sdrad_kv) = {
        let mut baseline =
            Server::new(ServerConfig::default(), sdrad_kvstore::Isolation::None).unwrap();
        let mut isolated =
            Server::new(ServerConfig::default(), sdrad_kvstore::Isolation::Domain).unwrap();
        let mut requests = KvWorkload::new(7, 512, 64, 0.9);
        let mut batch: Vec<Vec<u8>> = (0..64).map(|_| requests.next_request()).collect();
        // Preload so gets mostly hit.
        for i in 0..512 {
            let preload = sdrad_faultsim::workload::kv_preload_request(i, 64);
            baseline.handle(&preload);
            isolated.handle(&preload);
        }
        let mut i = 0;
        let base = measure(ITERS, || {
            baseline.handle(&batch[i % batch.len()]);
            i += 1;
        });
        i = 0;
        let sdrad = measure(ITERS, || {
            isolated.handle(&batch[i % batch.len()]);
            i += 1;
        });
        batch.clear();
        (base, sdrad)
    };

    // Modeled: two WRPKRUs per request over the measured baseline work.
    let model = CostModel::calibrated();
    let modeled =
        |base: std::time::Duration| 2.0 * model.wrpkru_ns() / base.as_nanos() as f64 * 100.0;

    table.row(&[
        "kvstore (get/set 90/10)".into(),
        format!("{:.0}", ops_per_sec(base_kv)),
        format!("{:.0}", ops_per_sec(sdrad_kv)),
        format!("{:+.1}%", overhead_pct(base_kv, sdrad_kv)),
        format!("{:+.2}%", modeled(base_kv)),
    ]);

    // --- httpd (NGINX analogue): static GET + benign chunked upload ---
    let (base_http, sdrad_http) = {
        let mut baseline = HttpServer::new(sdrad_httpd::Isolation::None).unwrap();
        let mut isolated = HttpServer::new(sdrad_httpd::Isolation::Domain).unwrap();
        for server in [&mut baseline, &mut isolated] {
            server.publish("/", "text/html", vec![b'x'; 1024]);
        }
        let get = http_get_request("/");
        let upload = http_upload_request(4, 256);
        let mut i = 0u32;
        let base = measure(ITERS, || {
            if i.is_multiple_of(4) {
                baseline.handle(&upload);
            } else {
                baseline.handle(&get);
            }
            i += 1;
        });
        i = 0;
        let sdrad = measure(ITERS, || {
            if i.is_multiple_of(4) {
                isolated.handle(&upload);
            } else {
                isolated.handle(&get);
            }
            i += 1;
        });
        (base, sdrad)
    };
    table.row(&[
        "httpd (GET + chunked POST)".into(),
        format!("{:.0}", ops_per_sec(base_http)),
        format!("{:.0}", ops_per_sec(sdrad_http)),
        format!("{:+.1}%", overhead_pct(base_http, sdrad_http)),
        format!("{:+.2}%", modeled(base_http)),
    ]);

    // --- tls (OpenSSL analogue): benign heartbeats ----------------------
    let (base_tls, sdrad_tls) = {
        let secret = vec![0x42u8; 48];
        let mut leaky = HeartbeatEngine::unprotected(secret.clone());
        let mut safe = HeartbeatEngine::isolated(secret).unwrap();
        let payload = vec![7u8; 256];
        let base = measure(ITERS, || {
            let out = leaky.respond(payload.len(), &payload);
            assert!(matches!(out, HeartbeatOutcome::Response(_)));
        });
        let sdrad = measure(ITERS, || {
            let out = safe.respond(payload.len(), &payload);
            assert!(matches!(out, HeartbeatOutcome::Response(_)));
        });
        (base, sdrad)
    };
    table.row(&[
        "tls (256 B heartbeats)".into(),
        format!("{:.0}", ops_per_sec(base_tls)),
        format!("{:.0}", ops_per_sec(sdrad_tls)),
        format!("{:+.1}%", overhead_pct(base_tls, sdrad_tls)),
        format!("{:+.2}%", modeled(base_tls)),
    ]);

    println!("{table}");
    println!(
        "note: 'measured' includes the software-MMU's per-byte access checks \
         (simulation artifact); 'modeled' charges only the WRPKRU pair per \
         request, the cost real PKU hardware pays — compare that column to \
         the paper's 2-4%."
    );
}
