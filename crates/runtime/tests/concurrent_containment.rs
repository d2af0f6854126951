//! Integration: N concurrent clients, one attacker. The attacker's
//! faults must be contained to its own domain, every other client's
//! in-flight requests must succeed, and the aggregate statistics must
//! reconcile with each worker's own `DomainManager` counters.

use std::time::Duration;

use sdrad::ClientId;
use sdrad_bench::scenarios::recovery_bill;
use sdrad_runtime::{
    Disposition, HttpHandler, IsolationMode, KvHandler, Reply, Runtime, RuntimeConfig,
    SessionHandler, SubmitOutcome, Ticket, WorkerIsolation,
};

const ATTACKER: ClientId = ClientId(0);
const VICTIMS: u64 = 11;
const ROUNDS: u64 = 40;

fn submit(runtime: &Runtime, client: ClientId, payload: &[u8]) -> Ticket {
    match runtime.submit(client, payload.to_vec()) {
        SubmitOutcome::Enqueued(ticket) => ticket,
        SubmitOutcome::Shed => panic!("unexpected shed for {client}"),
    }
}

#[test]
fn attacker_faults_are_contained_while_victims_are_served() {
    let runtime = Runtime::start(
        RuntimeConfig::new(4, IsolationMode::PerClientDomain),
        |_worker| KvHandler::default(),
    );

    // Interleave attacker exploits with victim traffic so victim
    // requests are genuinely in flight while domains rewind.
    let mut attacker_tickets = Vec::new();
    let mut victim_tickets = Vec::new();
    for round in 0..ROUNDS {
        attacker_tickets.push(submit(&runtime, ATTACKER, b"xstat 65536 4\r\nboom\r\n"));
        for v in 1..=VICTIMS {
            let client = ClientId(v);
            victim_tickets.push((
                client,
                submit(
                    &runtime,
                    client,
                    format!("set r{round}-c{v} 2\r\nok\r\n").as_bytes(),
                ),
                submit(
                    &runtime,
                    client,
                    format!("get r{round}-c{v}\r\n").as_bytes(),
                ),
            ));
        }
    }

    // Every attacker request came back as a contained fault…
    let mut rewind_total = 0u64;
    for ticket in attacker_tickets {
        let done = ticket.wait();
        assert!(
            done.response.starts_with(b"SERVER_ERROR contained"),
            "attacker got {:?}",
            String::from_utf8_lossy(&done.response)
        );
        match done.disposition {
            Disposition::ContainedFault { rewind_ns } => rewind_total += rewind_ns,
            other => panic!("attacker disposition {other:?}"),
        }
    }
    assert!(rewind_total > 0, "rewinds take measurable time");

    // …and every victim request, in flight throughout the attack,
    // succeeded with the right bytes.
    for (client, set, get) in victim_tickets {
        let set = set.wait();
        assert_eq!(
            set.response,
            b"STORED\r\n",
            "victim {client} set failed: {:?}",
            String::from_utf8_lossy(&set.response)
        );
        let get = get.wait();
        assert_eq!(get.disposition, Disposition::Ok, "victim {client}");
        assert!(
            get.response.ends_with(b"ok\r\nEND\r\n"),
            "victim {client} read back {:?}",
            String::from_utf8_lossy(&get.response)
        );
    }

    let stats = runtime.shutdown();
    // Totals reconcile: the process never crashed, every attack was
    // contained, per-worker manager rewinds match protocol-level counts,
    // and the grand totals add up.
    assert_eq!(stats.crashes(), 0, "no process crash under isolation");
    assert_eq!(stats.contained_faults(), ROUNDS);
    assert_eq!(stats.rewind_ns(), rewind_total);
    assert!(stats.reconciles(), "stats must reconcile: {stats:?}");
    assert_eq!(stats.served(), ROUNDS + 2 * VICTIMS * ROUNDS);
    assert_eq!(stats.shed, 0);
    assert_eq!(stats.submitted, stats.served());

    // The attacker's faults all landed on the attacker's shard.
    let attacked_shard = stats
        .workers
        .iter()
        .filter(|w| w.contained_faults > 0)
        .count();
    assert_eq!(attacked_shard, 1, "one client's faults stay on one worker");
}

#[test]
fn baseline_crashes_where_isolation_contains() {
    let run = |mode| {
        let runtime = Runtime::start(RuntimeConfig::new(2, mode), |_worker| KvHandler::default());
        // One attacker per shard: a fleet under attack has no lucky
        // unattacked workers propping up the average.
        let attackers: Vec<ClientId> = (0..runtime.workers())
            .map(|shard| {
                (1000u64..)
                    .map(ClientId)
                    .find(|c| runtime.shard_of(*c) == shard)
                    .expect("some id maps to every shard")
            })
            .collect();
        for i in 0..200u64 {
            let (client, payload): (ClientId, Vec<u8>) = if i % 50 == 0 {
                (
                    attackers[(i / 50) as usize % attackers.len()],
                    b"xstat 65536 4\r\nboom\r\n".to_vec(),
                )
            } else {
                (ClientId(1 + i % 7), format!("get k{i}\r\n").into_bytes())
            };
            while !runtime.submit_detached(client, payload.clone()) {
                std::thread::yield_now();
            }
        }
        runtime.shutdown()
    };

    let isolated = run(IsolationMode::PerClientDomain);
    let baseline = run(IsolationMode::Baseline);
    let domains = RuntimeConfig::new(2, IsolationMode::Baseline).domains_per_worker;
    let (isolated_bill, baseline_bill) = (
        recovery_bill(&isolated, domains),
        recovery_bill(&baseline, domains),
    );

    assert_eq!(isolated.crashes(), 0);
    assert_eq!(isolated.contained_faults(), 4);
    assert!(isolated_bill.restart_time.is_zero());

    assert_eq!(baseline.crashes(), 4);
    assert_eq!(baseline.contained_faults(), 0);
    assert!(
        baseline_bill.restart_time > Duration::from_secs(1),
        "each crash pays a calibrated restart: {:?}",
        baseline_bill.restart_time
    );
    assert!(
        baseline_bill.effective_throughput_rps < isolated_bill.effective_throughput_rps / 10.0,
        "restart downtime collapses delivered throughput: baseline {:.0} vs sdrad {:.0}",
        baseline_bill.effective_throughput_rps,
        isolated_bill.effective_throughput_rps
    );
    assert!(isolated.reconciles() && baseline.reconciles());
}

#[test]
fn http_workload_contains_chunked_exploits_under_concurrency() {
    const EXPLOIT: &[u8] =
        b"POST /upload HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nfff\r\nhi\r\n0\r\n\r\n";
    let runtime = Runtime::start(
        RuntimeConfig::new(3, IsolationMode::PerClientDomain),
        |_worker| {
            let mut handler = HttpHandler::new();
            handler.publish("/", "text/html", b"<h1>hello</h1>".to_vec());
            handler
        },
    );

    let mut gets = Vec::new();
    let mut attacks = Vec::new();
    for i in 0..30u64 {
        attacks.push(submit(&runtime, ClientId(666), EXPLOIT));
        gets.push(submit(
            &runtime,
            ClientId(i % 6),
            b"GET / HTTP/1.1\r\nHost: x\r\n\r\n",
        ));
    }
    for ticket in attacks {
        assert!(ticket.wait().response.starts_with(b"HTTP/1.1 400"));
    }
    for ticket in gets {
        let done = ticket.wait();
        assert!(done.response.starts_with(b"HTTP/1.1 200"));
        assert_eq!(done.disposition, Disposition::Ok);
    }
    let stats = runtime.shutdown();
    assert_eq!(stats.crashes(), 0);
    assert_eq!(stats.contained_faults(), 30);
    assert!(stats.reconciles());
}

/// A handler that blocks on each request until released, making queue
/// saturation deterministic.
struct SlowHandler {
    delay: Duration,
}

impl SessionHandler for SlowHandler {
    fn handle(&mut self, _iso: &mut WorkerIsolation, client: ClientId, _req: &[u8]) -> Reply {
        std::thread::sleep(self.delay);
        Reply {
            response: format!("done {client}").into_bytes().into(),
            disposition: Disposition::Ok,
        }
    }
    fn state_bytes(&self) -> u64 {
        0
    }
    fn restart(&mut self) {}
}

#[test]
fn saturated_shards_shed_instead_of_queueing_unboundedly() {
    let mut config = RuntimeConfig::new(1, IsolationMode::PerClientDomain);
    config.queue_capacity = 4;
    let runtime = Runtime::start(config, |_worker| SlowHandler {
        delay: Duration::from_millis(2),
    });

    let mut accepted = 0u64;
    let mut shed = 0u64;
    for i in 0..64u64 {
        if runtime.submit_detached(ClientId(i), b"x".to_vec()) {
            accepted += 1;
        } else {
            shed += 1;
        }
    }
    let stats = runtime.shutdown();
    assert!(
        shed > 0,
        "a 2ms/req worker cannot absorb a 64-burst at depth 4"
    );
    assert_eq!(stats.shed, shed);
    assert_eq!(stats.served(), accepted, "accepted requests are all served");
    assert_eq!(stats.submitted, accepted);
}
