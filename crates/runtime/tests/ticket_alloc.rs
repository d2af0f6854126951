//! A blocked `Ticket::wait`, pinned: the submitter parks on the
//! ticket's own condvar and allocates nothing while it waits. A
//! submitter that keeps a window of tickets in flight waits on one per
//! request, so an allocation per park is an allocation per request on
//! the submitting thread whenever the answer is not in yet.

use std::time::Duration;

use sdrad::ClientId;
use sdrad_nolock::arena::{count_allocs_on_this_thread, counted_allocs};
use sdrad_runtime::{
    Disposition, IsolationMode, KvHandler, Reply, Runtime, RuntimeConfig, SessionHandler,
    SubmitOutcome, WorkerIsolation,
};

#[global_allocator]
static ALLOC: sdrad_nolock::CountingAlloc = sdrad_nolock::CountingAlloc::new();

/// Holds every request long enough that the submitter is parked in
/// `wait` before the completion lands.
const HOLD: Duration = Duration::from_millis(20);

struct Slow(KvHandler);

impl SessionHandler for Slow {
    fn handle(&mut self, iso: &mut WorkerIsolation, client: ClientId, request: &[u8]) -> Reply {
        std::thread::sleep(HOLD);
        self.0.handle(iso, client, request)
    }

    fn state_bytes(&self) -> u64 {
        self.0.state_bytes()
    }

    fn restart(&mut self) {
        self.0.restart();
    }
}

#[test]
fn a_blocking_wait_allocates_nothing_on_the_waiting_thread() {
    let runtime = Runtime::start(
        RuntimeConfig::new(1, IsolationMode::PerClientDomain),
        |_| Slow(KvHandler::default()),
    );
    for _ in 0..5 {
        let SubmitOutcome::Enqueued(ticket) = runtime.submit(ClientId(1), b"get k\r\n".to_vec())
        else {
            panic!("an idle runtime shed a request");
        };
        count_allocs_on_this_thread(true);
        let before = counted_allocs();
        let completion = ticket.wait();
        let allocs = counted_allocs() - before;
        count_allocs_on_this_thread(false);
        assert_eq!(completion.disposition, Disposition::Ok);
        assert_eq!(allocs, 0, "a parked Ticket::wait allocated {allocs} times");
    }
    assert_eq!(runtime.shutdown().served(), 5);
}
