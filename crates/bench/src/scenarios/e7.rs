//! E7 — impact of malicious clients on benign clients (§II: "without
//! disrupting service").
//!
//! Simulation: 8 benign clients issue a get/set workload against the
//! kvstore; one attacker periodically sends the `xstat` exploit. Without
//! isolation each attack crashes the server, which then pays a real
//! (measured) snapshot-replay restart while benign requests go
//! unanswered. With SDRaD each attack costs one rewound domain call.
//!
//! Asserted: the isolated modes answer every benign request with no
//! restart; the baseline loses requests and restarts under attack, and
//! its restart downtime grows with the attack rate. The count columns
//! are deterministic (`exact`); downtime is a timing (`info`).

use std::time::Duration;

use sdrad::ClientId;
use sdrad_faultsim::workload::{kv_exploit_request, KvWorkload};
use sdrad_kvstore::{Isolation, Server, ServerConfig};

use crate::{fmt_duration, time_once, Report};

const BENIGN_CLIENTS: usize = 8;
/// Store entries per round of the run.
const ENTRIES_PER_ROUND: usize = 50;
/// Health-check rounds before a crash is noticed and a restart begins.
const DETECTION_ROUNDS: usize = 5;

#[derive(Default)]
struct Outcome {
    benign_sent: u64,
    benign_answered: u64,
    attacks: u64,
    restarts: u64,
    downtime: Duration,
}

fn cell(isolation: Isolation, rounds: usize, attack_every: usize) -> Outcome {
    let mut server = Server::new(ServerConfig::default(), isolation).unwrap();
    // Preload a dataset so restarts cost something real.
    let entries = rounds * ENTRIES_PER_ROUND;
    let store = server.store_mut();
    for i in 0..entries {
        store.set(format!("key-{i}"), vec![(i % 251) as u8; 256]);
    }
    let snapshot = server.snapshot();
    let mut benign: Vec<_> = (0..BENIGN_CLIENTS as u64)
        .map(|i| (ClientId(1 + i), KvWorkload::new(100 + i, entries, 256, 0.9)))
        .collect();
    let mut outcome = Outcome::default();
    let mut dead_since: Option<usize> = None;
    for round in 0..rounds {
        // Benign clients each send one request; a crashed server
        // answers with silence (an empty response).
        for (client, workload) in &mut benign {
            outcome.benign_sent += 1;
            if !server
                .handle_for(*client, &workload.next_request())
                .is_empty()
            {
                outcome.benign_answered += 1;
            }
        }
        if attack_every > 0 && round % attack_every == attack_every - 1 {
            outcome.attacks += 1;
            let _ = server.handle_for(ClientId(999), &kv_exploit_request(8192));
        }
        // A crashed server is only noticed by monitoring after a
        // detection delay (health-check interval); then ops restart
        // it, paying the measured replay cost. Benign requests sent
        // in between go unanswered.
        if !server.is_alive() {
            match dead_since {
                None => dead_since = Some(round),
                Some(since) if round - since >= DETECTION_ROUNDS => {
                    outcome.downtime += time_once(|| server.restart_from(&snapshot)).1;
                    outcome.restarts += 1;
                    dead_since = None;
                }
                Some(_) => {}
            }
        }
    }
    outcome
}

/// Runs every mode × attack period for `size` rounds over a store of
/// `size` × 50 entries.
#[must_use]
pub fn run(size: usize) -> Report {
    let mut r = Report::new("e7", "malicious-client impact on benign clients");
    r.begin_table(
        format!(
            "{BENIGN_CLIENTS} benign clients x {size} rounds, {}k-entry store",
            size * ENTRIES_PER_ROUND / 1000
        ),
        &[
            "mode",
            "attack period",
            "attacks",
            "restarts",
            "benign answered",
            "success rate",
            "downtime (restarts)",
        ],
    );
    let mut downtimes = Vec::new();
    for attack_every in [0usize, 40, 10] {
        for (mode, isolation) in [
            ("baseline", Isolation::None),
            ("sdrad", Isolation::Domain),
            ("sdrad-per-client", Isolation::PerClient),
        ] {
            let o = cell(isolation, size, attack_every);
            let lost = o.benign_sent - o.benign_answered;
            let answered = o.benign_answered as f64 / o.benign_sent as f64;
            if isolation != Isolation::None || attack_every == 0 {
                assert!(lost + o.restarts == 0, "{mode}: service disrupted");
            } else {
                assert!(lost > 0 && o.restarts > 0, "baseline survived attacks");
                downtimes.push(o.downtime);
                let name = |metric: &str| format!("p{attack_every}_{metric}");
                r.exact(&name("answered"), o.benign_answered as f64, "count")
                    .exact(&name("attacks"), o.attacks as f64, "count")
                    .exact(&name("restarts"), o.restarts as f64, "count")
                    .info(&name("downtime_ms"), o.downtime.as_secs_f64() * 1e3, "ms");
            }
            r.row(&[
                mode.into(),
                if attack_every == 0 {
                    "never".into()
                } else {
                    format!("every {attack_every} rounds")
                },
                o.attacks.to_string(),
                o.restarts.to_string(),
                format!("{}/{}", o.benign_answered, o.benign_sent),
                format!("{:.1}%", answered * 100.0),
                fmt_duration(o.downtime),
            ]);
        }
    }
    assert!(
        downtimes[1] > downtimes[0],
        "restart downtime must grow with the attack rate: {downtimes:?}"
    );
    r.note(
        "without isolation, every attack crashes the server and benign success drops with \
         attack frequency while restart downtime accumulates; with SDRaD, benign success stays \
         at 100% and downtime stays zero — 'without disrupting service'",
    );
    r
}
