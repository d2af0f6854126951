//! Property: readiness scheduling and read budgets never bend the
//! conservation laws.
//!
//! For **any** client mix, queue bound, worker count and per-connection
//! read budget:
//!
//! * every offered request is either served or shed — `served + shed ==
//!   offered`, over both the submit path and the connection path;
//! * no request is processed twice: every `Enqueued` ticket completes
//!   exactly once;
//! * connection traffic is fully answered **in frame order** regardless
//!   of how small the read budget slices the pump passes.

use proptest::prelude::*;
use sdrad::ClientId;
use sdrad_runtime::{ConnectionServer, IsolationMode, KvHandler, RuntimeConfig, SubmitOutcome};

/// One offered request: which client, and whether it is an exploit
/// (~10% of traffic).
fn arb_offer() -> impl Strategy<Value = (u64, bool)> {
    (0u64..24, 0u32..10).prop_map(|(client, roll)| (client, roll == 0))
}

proptest! {
    #[test]
    fn conservation_holds_under_budgets_and_wakeups(
        offers in proptest::collection::vec(arb_offer(), 1..250),
        conn_loads in proptest::collection::vec(1usize..6, 0..4),
        capacity in 1usize..48,
        workers in 1usize..5,
        budget in 1usize..8,
    ) {
        let mut config = RuntimeConfig::new(workers, IsolationMode::PerClientDomain);
        config.queue_capacity = capacity;
        config.conn_read_budget = budget;
        let server = ConnectionServer::start(config, |_| KvHandler::default());
        let runtime = server.runtime();

        // Connection path: each connection pipelines its whole load in
        // one write (the budget must slice it without losing any or
        // reordering it). Reads hit keys nothing ever sets, writes use
        // keys unique per connection, so the expected response bytes
        // are exact.
        let mut conns = Vec::new();
        let mut conn_requests = 0u64;
        for (c, &load) in conn_loads.iter().enumerate() {
            let mut client = server.connect();
            let mut burst = Vec::new();
            let mut expected = Vec::new();
            for i in 0..load {
                if i % 2 == 0 {
                    burst.extend_from_slice(format!("get c{i}\r\n").as_bytes());
                    expected.extend_from_slice(b"END\r\n");
                } else {
                    burst.extend_from_slice(format!("set w{c}x{i} 2\r\nok\r\n").as_bytes());
                    expected.extend_from_slice(b"STORED\r\n");
                }
            }
            client.write(&burst);
            conn_requests += load as u64;
            conns.push((client, expected));
        }

        // Submit path: accepted ⇒ ticketed, saturated ⇒ shed. Mixed
        // reads and mutations.
        let mut tickets = Vec::new();
        let mut shed_at_submit = 0u64;
        for (i, (client, attack)) in offers.iter().enumerate() {
            let payload = if *attack {
                b"xstat 65536 4\r\nboom\r\n".to_vec()
            } else if i % 2 == 0 {
                format!("set k{client} 2\r\nok\r\n").into_bytes()
            } else {
                format!("get q{client}\r\n").into_bytes()
            };
            match runtime.submit(ClientId(1_000 + *client), payload) {
                SubmitOutcome::Enqueued(ticket) => tickets.push(ticket),
                SubmitOutcome::Shed => shed_at_submit += 1,
            }
        }
        let stats = server.shutdown();

        // Conservation over both paths: nothing lost, nothing invented.
        let offered = offers.len() as u64 + conn_requests;
        prop_assert_eq!(stats.served() + stats.shed, offered);
        prop_assert_eq!(stats.conn_served(), conn_requests);
        prop_assert_eq!(stats.served() - stats.conn_served(), tickets.len() as u64);
        prop_assert_eq!(stats.shed, shed_at_submit);
        prop_assert_eq!(stats.submitted, tickets.len() as u64);
        prop_assert_eq!(stats.shed_latency.len(), stats.shed);

        // No request is both served and shed, and none is served twice:
        // every enqueued ticket holds exactly one completion.
        for ticket in tickets {
            prop_assert!(ticket.try_take().is_some(), "enqueued but never served");
            prop_assert!(ticket.try_take().is_none(), "completed twice");
        }

        // Every connection byte was answered in frame order — exact
        // response bytes.
        for (client, expected) in &mut conns {
            prop_assert_eq!(
                client.read_available(),
                expected.clone(),
                "pipelined responses complete, in order"
            );
        }

        // Histograms per-request, managers agree.
        prop_assert!(stats.reconciles());
    }
}
