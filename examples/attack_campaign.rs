//! A randomized attack campaign against pooled per-client domains: every
//! memory-error class, hundreds of times, one process, zero crashes.
//!
//! Run with: `cargo run --example attack_campaign`

use sdrad_repro::core::{ClientId, DomainConfig, DomainManager, DomainPool};
use sdrad_repro::faultsim::Campaign;

fn main() {
    sdrad_repro::quiet_fault_traps();

    let mut mgr = DomainManager::new();
    let mut pool = DomainPool::new(DomainConfig::new("tenant").heap_capacity(256 * 1024), 6);

    // Six tenants get dedicated domains; tenant 0 is hostile.
    let hostile = pool.domain_for(&mut mgr, ClientId(0)).unwrap();
    let peers: Vec<_> = (1..6)
        .map(|i| pool.domain_for(&mut mgr, ClientId(i)).unwrap())
        .collect();

    // Peers hold live session state the campaign must not disturb.
    let mut peer_state = Vec::new();
    for (i, &domain) in peers.iter().enumerate() {
        let marker = format!("tenant-{}-session", i + 1).into_bytes();
        let len = marker.len();
        let addr = mgr
            .call(domain, move |env| env.push_bytes(&marker))
            .unwrap();
        peer_state.push((domain, addr, len));
    }

    // 500 randomized attacks of every class against the hostile tenant.
    let report = Campaign::full(2023).run(&mut mgr, hostile, 500);
    println!("attacks attempted : {}", report.attempted);
    println!("attacks contained : {}", report.contained);
    println!("undetected        : {}", report.undetected);
    println!(
        "mean rewind       : {:.1} µs",
        report.rewind_ns as f64 / report.contained.max(1) as f64 / 1000.0
    );
    println!("\ncontainments by detection mechanism:");
    for (kind, count) in &report.by_fault_kind {
        println!("  {kind:<20} {count}");
    }

    // Verify every peer's state survived untouched.
    for (domain, addr, len) in peer_state {
        let data = mgr
            .call(domain, move |env| env.read_bytes(addr, len))
            .unwrap();
        assert!(String::from_utf8_lossy(&data).contains("session"));
    }
    println!(
        "\nall {} peer tenants' in-domain state verified intact; the process \
         never restarted.",
        peers.len()
    );
}
