//! Cross-crate integration: the paper's scenarios end to end.

use sdrad_repro::core::{DomainConfig, DomainManager, DomainPolicy};
use sdrad_repro::energy::availability::{availability, nines};
use sdrad_repro::energy::restart::RestartModel;
use sdrad_repro::faultsim::workload::{
    http_exploit_request, http_get_request, kv_exploit_request, KvWorkload,
};
use sdrad_repro::ffi::{sandboxed, Sandbox};
use sdrad_repro::httpd::HttpServer;
use sdrad_repro::kvstore::{Isolation, Server, ServerConfig};
use sdrad_repro::tls::{HeartbeatEngine, HeartbeatOutcome};

#[test]
fn kvstore_survives_a_hostile_mixed_workload_and_keeps_integrity() {
    sdrad_repro::quiet_fault_traps();
    let mut sdrad = Server::new(ServerConfig::default(), Isolation::Domain).unwrap();
    let mut reference = Server::new(ServerConfig::default(), Isolation::None).unwrap();

    let mut workload = KvWorkload::new(42, 64, 48, 0.7);
    for i in 0..500 {
        let request = workload.next_request();
        // Attack every 25th request — only at the SDRaD server (it would
        // kill the reference).
        if i % 25 == 24 {
            let response = sdrad.handle(&kv_exploit_request(4096));
            assert!(response.starts_with(b"SERVER_ERROR"));
            assert!(sdrad.is_alive());
        }
        let a = sdrad.handle(&request);
        let b = reference.handle(&request);
        assert_eq!(a, b, "attack interference changed benign semantics");
    }
    assert_eq!(sdrad.stats().contained_faults, 20);
    assert_eq!(sdrad.stats().crashes, 0);
}

#[test]
fn httpd_and_kvstore_share_one_process_worth_of_domains() {
    sdrad_repro::quiet_fault_traps();
    // Both servers carry their own manager; this test drives both under
    // attack in one test process to show nothing global breaks.
    let mut kv = Server::new(ServerConfig::default(), Isolation::Domain).unwrap();
    let mut http = HttpServer::new(sdrad_repro::httpd::Isolation::Domain).unwrap();
    http.publish("/", "text/html", b"<h1>up</h1>".to_vec());

    for _ in 0..20 {
        assert!(kv
            .handle(&kv_exploit_request(8192))
            .starts_with(b"SERVER_ERROR"));
        assert!(http
            .handle(&http_exploit_request(0xfff))
            .starts_with(b"HTTP/1.1 400"));
        assert!(http
            .handle(&http_get_request("/"))
            .starts_with(b"HTTP/1.1 200"));
    }
    assert!(kv.is_alive() && http.is_alive());
    assert_eq!(kv.stats().contained_faults, 20);
    assert_eq!(http.stats().contained_faults, 20);
}

#[test]
fn heartbleed_containment_preserves_session_secrets() {
    sdrad_repro::quiet_fault_traps();

    // A fixed 32-byte session key is the secret at stake.
    let session_key: [u8; 32] = *b"fixed-session-key-0123456789abcd";

    let mut engine = HeartbeatEngine::isolated(session_key.to_vec()).unwrap();
    for declared in [128usize, 1024, 16 * 1024, 65_535] {
        match engine.respond(declared, b"beat") {
            HeartbeatOutcome::Response(bytes) => {
                assert!(!engine.leaks_secret(&bytes), "leak at {declared}")
            }
            HeartbeatOutcome::Contained { .. } => {}
        }
    }
    // And the unprotected engine does leak, so the test is meaningful.
    let mut leaky = HeartbeatEngine::unprotected(engine.secret().to_vec());
    let HeartbeatOutcome::Response(bytes) = leaky.respond(4096, b"beat") else {
        panic!("unprotected always responds");
    };
    assert!(leaky.leaks_secret(&bytes));
}

#[test]
fn ffi_macro_contains_faults_across_many_calls() {
    sdrad_repro::quiet_fault_traps();
    sandboxed! {
        fn parse_u32(bytes: Vec<u8>) -> u32 {
            u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]])
        } recover |_err| 0
    }
    let mut sandbox = Sandbox::in_process().unwrap();
    for i in 0..100u32 {
        // Every other call passes a short buffer (contained panic).
        if i % 2 == 0 {
            assert_eq!(parse_u32(&mut sandbox, i.to_le_bytes().to_vec()), i);
        } else {
            assert_eq!(parse_u32(&mut sandbox, vec![1, 2]), 0);
        }
    }
    assert_eq!(sandbox.stats().recovered_faults, 50);
}

#[test]
fn measured_rewind_feeds_the_availability_model() {
    sdrad_repro::quiet_fault_traps();
    // Measure this build's rewind, then check the paper's availability
    // argument holds with the *measured* value, not just the quoted one.
    let mut mgr = DomainManager::new();
    let domain = mgr.create_domain(DomainConfig::new("probe")).unwrap();
    for _ in 0..100 {
        let _ = mgr.call(domain, |env| {
            let block = env.push_bytes(b"x");
            env.free(block);
            env.free(block);
        });
    }
    let info = mgr.domain_info(domain).unwrap();
    let rewind = std::time::Duration::from_nanos(info.total_rewind_ns / 100);

    // Even at 10,000 faults/year, rewind-based recovery stays above five
    // nines, while 2-minute restarts lose five nines at 3 faults/year.
    assert!(nines(availability(10_000.0, rewind)) > 5.0);
    let restart = RestartModel::process_restart().recovery_time(10_000_000_000);
    assert!(nines(availability(3.0, restart)) < 5.0);
}

#[test]
fn confidential_domain_cannot_exfiltrate_root_data() {
    sdrad_repro::quiet_fault_traps();
    let mut mgr = DomainManager::new();
    let spy = mgr
        .create_domain(DomainConfig::new("spy").policy(DomainPolicy::Confidential))
        .unwrap();
    let root = mgr.map_root(64).unwrap();
    mgr.root_write(root.base(), b"root-secret").unwrap();

    let result = mgr.call(spy, |env| env.read_bytes(root.base(), 11));
    assert!(result.is_err(), "confidential domain read root data");

    // Integrity-policy domains may read but never write.
    let reader = mgr
        .create_domain(DomainConfig::new("reader").policy(DomainPolicy::Integrity))
        .unwrap();
    let data = mgr
        .call(reader, |env| env.read_bytes(root.base(), 11))
        .unwrap();
    assert_eq!(data, b"root-secret");
    assert!(mgr
        .call(reader, |env| env.write(root.base(), b"overwrite"))
        .is_err());
}
