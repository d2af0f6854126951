//! Property: the runtime's backpressure accounting is conservative.
//!
//! For **any** client mix, queue bound, worker count and payload mix:
//!
//! * every offered request is either served or shed — `served + shed ==
//!   offered`, nothing lost, nothing invented;
//! * no request is both: a ticket that was `Enqueued` always completes,
//!   a `Shed` submit never does (there is no ticket to complete);
//! * the shed histogram carries exactly one sample per shed request.

use proptest::prelude::*;
use sdrad::ClientId;
use sdrad_runtime::{IsolationMode, KvHandler, Runtime, RuntimeConfig, SubmitOutcome};

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
