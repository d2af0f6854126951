//! Shared by the deep-stealing integration tests: a handler wrapper that
//! makes steal engagement a certainty instead of a race the owner
//! usually wins.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sdrad::ClientId;
use sdrad_runtime::{Framing, ReadView, Reply, SessionHandler, StealClass, WorkerIsolation};

/// Waits until `flag` is set; panics naming `what` after 5 s.
pub fn await_flag(flag: &AtomicBool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !flag.load(Ordering::SeqCst) {
        assert!(Instant::now() < deadline, "gave up after 5 s: {what}");
        std::thread::sleep(Duration::from_micros(100));
    }
}

/// Forwards every call to `inner`, on a two-shard runtime whose traffic
/// all belongs to shard 0, except that:
///
/// * shard 0 holds its first request until `claimed` is set, so the
///   owner cannot drain its backlog before the sibling engages;
/// * shard 1 sets `claimed` the first time it classifies a request.
///   Shard 1 has no traffic of its own, so that request is one it is
///   stealing — a published queue request, or a frame on one of shard
///   0's connection buffers — and, when that request is read-only, the
///   steal completes whatever the owner does next (a mutation the
///   thief leaves where it found it).
pub struct ClaimGate<H> {
    inner: H,
    shard: usize,
    claimed: Arc<AtomicBool>,
    held: bool,
}

impl<H> ClaimGate<H> {
    pub fn new(inner: H, shard: usize, claimed: Arc<AtomicBool>) -> Self {
        ClaimGate {
            inner,
            shard,
            claimed,
            held: false,
        }
    }
}

impl<H: SessionHandler> SessionHandler for ClaimGate<H> {
    fn handle(&mut self, iso: &mut WorkerIsolation, client: ClientId, request: &[u8]) -> Reply {
        if self.shard == 0 && !self.held {
            self.held = true;
            await_flag(&self.claimed, "the idle sibling never claimed a request");
        }
        self.inner.handle(iso, client, request)
    }

    fn steal_class(&self, request: &[u8]) -> StealClass {
        if self.shard == 1 {
            self.claimed.store(true, Ordering::SeqCst);
        }
        self.inner.steal_class(request)
    }

    fn frame(&self, buffer: &[u8]) -> Framing {
        self.inner.frame(buffer)
    }

    fn state_version(&self) -> u64 {
        self.inner.state_version()
    }

    fn read_view(&self) -> Option<Box<dyn ReadView>> {
        self.inner.read_view()
    }

    fn state_bytes(&self) -> u64 {
        self.inner.state_bytes()
    }

    fn restart(&mut self) {
        self.inner.restart();
    }
}
