//! The adaptive control plane in one screen: a repeat offender climbs
//! the graduated standings (throttle → quarantine in the blast pit →
//! ban), the recovery-escalation ladder answers its faults with the
//! cheapest rung that has not already failed, the rungs are priced
//! through the energy models after the run, and a benign client never
//! notices any of it.
//!
//! Run with: `cargo run --example control_plane`

use sdrad_bench::scenarios::recovery_bill;
use sdrad_bench::Report;
use sdrad_repro::control::{ControlConfig, LadderParams, ReputationParams};
use sdrad_repro::core::ClientId;
use sdrad_repro::runtime::{IsolationMode, KvHandler, Runtime, RuntimeConfig, SubmitOutcome};

fn main() {
    let mut config = RuntimeConfig::new(2, IsolationMode::PerClientDomain);
    config.control = Some(ControlConfig {
        reputation: ReputationParams {
            half_life_ns: 60_000_000_000, // forgiveness far beyond this demo
            throttle_score: 3.0,
            quarantine_score: 6.0,
            ban_score: 16.0,
            throttle_rate_per_sec: 1e9, // the demo throttles nobody to starvation
            throttle_burst: 1e9,
        },
        ladder: LadderParams {
            pool_after: 4,
            restart_after_rebuilds: 2,
        },
        ..ControlConfig::default()
    });
    let runtime = Runtime::start(config, |worker| {
        println!("worker {worker}: online");
        KvHandler::default()
    });
    println!(
        "{} shards + blast pit (shard {})",
        runtime.workers() - 1,
        runtime.blast_pit().expect("control plane enabled")
    );

    let mallory = ClientId(666);
    let alice = ClientId(1);

    // Mallory attacks until admission slams the door; Alice's requests
    // interleave the whole time.
    let mut refusals = 0u64;
    for round in 0..24 {
        match runtime.submit(mallory, b"xstat 65536 4\r\nboom\r\n".to_vec()) {
            SubmitOutcome::Enqueued(ticket) => {
                let reply = ticket.wait();
                if round == 0 {
                    println!(
                        "mallory: {}",
                        String::from_utf8_lossy(&reply.response).trim()
                    );
                }
            }
            SubmitOutcome::Shed => refusals += 1,
        }
        let SubmitOutcome::Enqueued(ticket) = runtime.submit(alice, b"get motd\r\n".to_vec())
        else {
            panic!("a benign client must never be refused");
        };
        assert_eq!(ticket.wait().response, b"END\r\n");
    }
    assert!(refusals > 0, "the ban must engage");

    let stats = runtime.shutdown();
    let ctl = stats.control.clone().expect("control books");
    let bill = recovery_bill(&stats, config.domains_per_worker);
    let mut report = Report::new("control_plane", "graduated response in one screen");
    report.begin_table(
        "mallory's career vs alice's",
        &[
            "quarantines",
            "denies",
            "rewinds",
            "pool rebuilds",
            "restarts",
        ],
    );
    report.row(&[
        ctl.counts.quarantines.to_string(),
        ctl.counts.denies.to_string(),
        stats.ladder_rewinds().to_string(),
        stats.pool_rebuilds().to_string(),
        stats.worker_restarts().to_string(),
    ]);
    report.note(format!(
        "mallory's career: {} quarantined admissions served in the pit, then banned \
         ({} refusals); alice: never touched",
        ctl.counts.quarantines, ctl.counts.denies,
    ));
    report.note(format!(
        "recovery bill: {:?} (ladder) vs {:?} (restart-only) -> {:.1} J saved",
        bill.ladder_time(),
        bill.restart_only_time,
        bill.energy_saved_j(),
    ));
    report.note("books reconcile: every decision counted, logged and executed exactly once");
    report.print();
    assert_eq!(ctl.banned_clients, vec![mallory.0]);
    assert!(ctl.quarantined_clients.contains(&mallory.0));
    assert!(!ctl.quarantined_clients.contains(&alice.0));
    assert!(stats.ladder_rewinds() > 0 && stats.pool_rebuilds() > 0);
    assert!(bill.energy_saved_j() > 0.0);
    assert!(ctl.reconciles(), "decisions logged == decisions counted");
    assert!(stats.reconciles(), "runtime books balance");
}
