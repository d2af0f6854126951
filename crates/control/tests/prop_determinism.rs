//! Properties of the control plane's decision stream:
//!
//! * **Determinism** — decisions are a pure function of the (event,
//!   tick) sequence: replaying the identical seeded campaign yields a
//!   bit-identical decision log (and so identical quarantine/ban
//!   outcomes);
//! * **No benign bans** — under a fault-free run, no client is ever
//!   throttled, quarantined or banned, whatever the traffic pattern
//!   (flash crowds included);
//! * **Containment of blame** — when only offenders fault, only
//!   offenders ever leave good standing.

use proptest::prelude::*;
use sdrad_control::{Admission, ControlConfig, ControlPlane, DecisionRecord};
use sdrad_faultsim::{HostileMix, HostileMixConfig, TrafficKind};

const STEP_NS: u64 = 100_000; // 0.1 ms between events

/// Drives one seeded campaign through a fresh plane: every admitted
/// attack faults, every admitted benign request serves in 80 µs.
/// Returns the decision log plus the report.
fn drive(seed: u64, events: usize, attack_fraction: f64) -> (Vec<DecisionRecord>, ControlPlane) {
    let mut plane = ControlPlane::new(ControlConfig::default());
    let mut mix = HostileMix::new(
        seed,
        HostileMixConfig {
            attack_fraction,
            ..HostileMixConfig::default()
        },
    );
    for i in 0..events {
        let now = (i as u64 + 1) * STEP_NS;
        let event = mix.next_event();
        let shard = (event.client % 4) as usize;
        match plane.admit(event.client, now) {
            Admission::Admit | Admission::Quarantine => match event.kind {
                TrafficKind::Attack => {
                    let _ = plane.observe_fault(shard, event.client, 200_000, now, 1 << 20, 8);
                }
                TrafficKind::Benign => plane.observe_ok(shard, event.client, 80_000, now),
            },
            Admission::ShedThrottle | Admission::ShedOverload | Admission::Deny => {}
        }
        if i % 64 == 0 {
            plane.tick(now);
        }
    }
    let log = plane.decision_log().to_vec();
    (log, plane)
}

proptest! {
    #[test]
    fn decisions_are_a_pure_function_of_the_seeded_campaign(
        seed in 0u64..1_000,
        events in 100usize..600,
    ) {
        let (log_a, plane_a) = drive(seed, events, 0.5);
        let (log_b, plane_b) = drive(seed, events, 0.5);
        prop_assert_eq!(log_a, log_b, "same seed, same decisions");
        prop_assert_eq!(plane_a.report(), plane_b.report());
    }

    #[test]
    fn fault_free_runs_never_leave_good_standing(
        seed in 0u64..1_000,
        events in 100usize..600,
    ) {
        // attack_fraction 0.0: pure benign traffic, flash crowds and all.
        let (_log, plane) = drive(seed, events, 0.0);
        let report = plane.report();
        prop_assert!(report.banned_clients.is_empty(), "a benign client was banned");
        prop_assert!(report.quarantined_clients.is_empty());
        prop_assert_eq!(report.counts.denies, 0);
        prop_assert_eq!(report.counts.throttle_sheds, 0);
        prop_assert_eq!(
            report.counts.rewinds + report.counts.pool_rebuilds + report.counts.worker_restarts,
            0,
            "nothing to recover from"
        );
        prop_assert!(report.reconciles());
    }

    #[test]
    fn only_offenders_ever_leave_good_standing(
        seed in 0u64..500,
        events in 200usize..800,
    ) {
        let config = HostileMixConfig::default();
        let mix = HostileMix::new(seed, config);
        let (_log, plane) = drive(seed, events, config.attack_fraction);
        let report = plane.report();
        for &client in &report.quarantined_clients {
            prop_assert!(mix.is_offender(client), "benign client {} quarantined", client);
        }
        for &client in &report.banned_clients {
            prop_assert!(mix.is_offender(client), "benign client {} banned", client);
        }
        prop_assert!(report.reconciles(), "logged == counted under every mix");
    }
}
