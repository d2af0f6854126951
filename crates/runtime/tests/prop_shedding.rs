//! Property: the runtime's backpressure accounting is conservative.
//!
//! For **any** client mix, queue bound, worker count and payload mix:
//!
//! * every offered request is either served or shed — `served + shed ==
//!   offered`, nothing lost, nothing invented;
//! * no request is both: a ticket that was `Enqueued` always completes,
//!   a `Shed` submit never does (there is no ticket to complete);
//! * the shed histogram carries exactly one sample per shed request;
//! * a run of mutations behind a read a thief lifts off a connection
//!   buffer is served by the owner **exactly once** and in order —
//!   never dropped, never double-served, never silently counted as
//!   shed.

use proptest::prelude::*;
use sdrad::ClientId;
use sdrad_net::{duplex, Endpoint};
use sdrad_runtime::{IsolationMode, KvHandler, Runtime, RuntimeConfig, StealPolicy, SubmitOutcome};

/// One offered request: which client, and whether it is an exploit
/// (~10% of traffic).
fn arb_offer() -> impl Strategy<Value = (u64, bool)> {
    (0u64..24, 0u32..10).prop_map(|(client, roll)| (client, roll == 0))
}

proptest! {
    #[test]
    fn served_plus_shed_equals_offered(
        offers in proptest::collection::vec(arb_offer(), 1..300),
        capacity in 1usize..48,
        workers in 1usize..5,
    ) {
        let mut config = RuntimeConfig::new(workers, IsolationMode::PerClientDomain);
        config.queue_capacity = capacity;
        let runtime = Runtime::start(config, |_| KvHandler::default());

        let mut tickets = Vec::new();
        let mut shed_at_submit = 0u64;
        for (client, attack) in &offers {
            let payload = if *attack {
                b"xstat 65536 4\r\nboom\r\n".to_vec()
            } else {
                format!("set k{client} 2\r\nok\r\n").into_bytes()
            };
            match runtime.submit(ClientId(*client), payload) {
                SubmitOutcome::Enqueued(ticket) => tickets.push(ticket),
                SubmitOutcome::Shed => shed_at_submit += 1,
            }
        }
        let stats = runtime.shutdown();

        // Conservation: offered = served + shed, with both sides agreeing
        // between the submitter's view and the runtime's accounting.
        prop_assert_eq!(stats.served() + stats.shed, offers.len() as u64);
        prop_assert_eq!(stats.served(), tickets.len() as u64);
        prop_assert_eq!(stats.shed, shed_at_submit);
        prop_assert_eq!(stats.submitted, tickets.len() as u64);
        prop_assert_eq!(stats.shed_latency.len(), stats.shed);

        // No request is both served and shed: every enqueued ticket has
        // exactly one completion waiting (shutdown drains all queues).
        for ticket in tickets {
            prop_assert!(ticket.try_take().is_some(), "enqueued but never served");
        }

        // And the books balance all the way down to the managers.
        prop_assert!(stats.reconciles());
    }
}

proptest! {
    // Each case starts a threaded runtime with live connections, so a
    // smaller case count keeps the suite inside its time budget while
    // still sweeping run lengths, connection counts and queue bounds.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Conservation for **mutation runs behind a stolen read**, with
    /// queues so small they shed most of the pinning work: a thief may
    /// lift each connection's leading get, but the run of sets behind
    /// it stays in the buffer for the owner. Every pipelined response
    /// arrives exactly once and in order, whoever served the read.
    #[test]
    fn mutation_runs_behind_a_stolen_read_are_conserved(
        run_len in 2usize..40,
        conns in 1usize..4,
        pin in 0usize..1200,
        capacity in 1usize..5,
    ) {
        let mut config = RuntimeConfig::new(2, IsolationMode::PerClientDomain);
        config.work_stealing = StealPolicy::Deep;
        config.queue_capacity = capacity;
        config.batch = 4;
        config.conn_read_budget = 2;
        let runtime = Runtime::start(config, |_| KvHandler::default());

        // Pin the owner with queue work so the sibling goes stealing.
        // The tiny capacity sheds most of it; count what was accepted.
        let hot: Vec<ClientId> = (0u64..)
            .map(ClientId)
            .filter(|c| runtime.shard_of(*c) == 0)
            .take(conns.max(1))
            .collect();
        let mut accepted = 0u64;
        for _ in 0..pin {
            if runtime.submit_detached(hot[0], b"set pin 2\r\nok\r\n".to_vec()) {
                accepted += 1;
            }
        }

        // Each connection: one stealable get, then one unbroken run of
        // sets only the owner may serve.
        let mut endpoints: Vec<(Endpoint, Vec<u8>)> = Vec::new();
        for (c, client_id) in hot.iter().enumerate() {
            let (mut client, server) = duplex();
            runtime.attach(*client_id, server);
            let mut burst = Vec::new();
            let mut expected = Vec::new();
            burst.extend_from_slice(b"get miss\r\n");
            expected.extend_from_slice(b"END\r\n");
            for i in 0..run_len {
                burst.extend_from_slice(format!("set c{c}-k{i} 2\r\nok\r\n").as_bytes());
                expected.extend_from_slice(b"STORED\r\n");
            }
            client.write(&burst);
            endpoints.push((client, expected));
        }

        prop_assert!(runtime.quiesce(), "drain barrier failed");
        for (client, expected) in &mut endpoints {
            // Exactly-once and in-order: a dropped run truncates this, a
            // double-served run duplicates bytes within it.
            prop_assert_eq!(&client.read_available(), expected);
        }
        let stats = runtime.shutdown();

        prop_assert_eq!(
            stats.served(),
            accepted + (conns * (run_len + 1)) as u64
        );
        prop_assert_eq!(stats.thief_mutations(), 0);
        // Connection frames are never counted as shed: shed tracks
        // only the submit path, which we counted exactly.
        prop_assert_eq!(stats.shed, pin as u64 - accepted);
        prop_assert!(stats.reconciles(), "books drifted: {:?}", stats);
    }
}
