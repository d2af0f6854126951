//! Connection-level serving: the bridge from `sdrad-net` listeners into
//! the sharded runtime.
//!
//! The paper's availability argument is about servers that keep
//! answering **real connections** while domains rewind underneath them.
//! Pre-framed payload submission (the [`Runtime::submit`] API) skips
//! everything that makes that hard: partial reads, pipelined requests,
//! malformed heads, and clients that vanish mid-request. This module
//! adds the missing layer:
//!
//! * [`ConnectionServer`] — owns a [`Listener`] and an **acceptor
//!   thread** that drains it with the close-aware blocking accept (no
//!   connection enqueued before shutdown is ever lost), assigns each
//!   connection a fresh [`ClientId`], and hands it to the dispatcher;
//! * the dispatcher routes the connection to its sticky shard's
//!   [`ConnInbox`] and kicks the worker, which adopts it and **pumps**
//!   it from then on: `SessionHandler::frame` splits complete requests
//!   off the byte stream, responses are written straight back to the
//!   endpoint.
//!
//! Shutdown closes the listener first (draining every pending accept),
//! then stops the queues; workers serve every byte that has already
//! arrived before exiting, so a client that wrote its requests before
//! [`ConnectionServer::shutdown`] always gets its responses.
//!
//! A connection never leaves its owner: the worker that adopted it owns
//! the endpoint *and* its staging buffer ([`Staged`]), and pumps both
//! without a lock, so responses keep frame order by construction.
//!
//! [`Runtime::submit`]: crate::Runtime::submit

use std::fmt;
use std::thread::JoinHandle;

use sdrad::ClientId;
use sdrad_net::{Endpoint, Listener};
use sdrad_nolock::{FrameBuf, MpscQueue};

use crate::handler::SessionHandler;
use crate::runtime::{Runtime, RuntimeConfig};
use crate::stats::RuntimeStats;

/// One accepted connection owned by a worker: the server-side endpoint
/// plus the bytes received so far that have not yet been served.
#[derive(Debug)]
pub(crate) struct Connection {
    pub(crate) client: ClientId,
    pub(crate) endpoint: Endpoint,
    /// Bytes received (off the endpoint) but not yet served. The head
    /// is always a frame boundary.
    pub(crate) staged: Staged,
    /// Pump pass (worker-local counter) in which this connection last
    /// made progress — the idle-reaper's clock.
    pub(crate) last_progress_pass: u64,
}

impl Connection {
    pub(crate) fn new(client: ClientId, endpoint: Endpoint) -> Self {
        Connection {
            client,
            endpoint,
            staged: Staged::default(),
            last_progress_pass: 0,
        }
    }
}

/// A connection's staging bytes: a buffer consumed through a head
/// cursor. Taking a frame off the front moves the cursor — O(1), however
/// much is pipelined behind it — and the consumed prefix is reclaimed
/// once per refill (or for free when the buffer runs empty), not once
/// per frame.
#[derive(Debug, Default)]
pub(crate) struct Staged {
    bytes: Vec<u8>,
    /// Offset of the first unserved byte in `bytes`.
    head: usize,
}

impl Staged {
    /// The unserved bytes, oldest first.
    pub(crate) fn pending(&self) -> &[u8] {
        &self.bytes[self.head..]
    }

    pub(crate) fn len(&self) -> usize {
        self.bytes.len() - self.head
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops the first `n` pending bytes.
    pub(crate) fn consume(&mut self, n: usize) {
        self.head += n;
        debug_assert!(self.head <= self.bytes.len(), "consumed past the end");
        if self.head >= self.bytes.len() {
            self.clear();
        }
    }

    /// Drops everything pending.
    pub(crate) fn clear(&mut self) {
        self.bytes.clear();
        self.head = 0;
    }

    /// Compacts the consumed prefix away, then lets `fill` append fresh
    /// bytes (returning how many, which is passed through).
    pub(crate) fn refill(&mut self, fill: impl FnOnce(&mut Vec<u8>) -> usize) -> usize {
        if self.head > 0 {
            self.bytes.drain(..self.head);
            self.head = 0;
        }
        fill(&mut self.bytes)
    }

    /// Copies the first `n` pending bytes into a pooled frame buffer
    /// (from the calling thread's arena) and consumes them.
    pub(crate) fn take_frame(&mut self, n: usize) -> FrameBuf {
        let mut frame = FrameBuf::acquire(n);
        frame.extend_from_slice(&self.pending()[..n]);
        self.consume(n);
        frame
    }
}

/// Hand-off slot for connections newly assigned to a shard. The acceptor
/// pushes, the worker drains on its next wakeup (every push is followed
/// by a [`ShardQueue::kick`](crate::ShardQueue::kick), so a parked
/// worker wakes promptly). Backed
/// by the lock-free MPSC inbox, so a burst of accepts never serializes
/// against the adopting worker.
#[derive(Default)]
pub(crate) struct ConnInbox {
    pending: MpscQueue<Connection>,
}

impl ConnInbox {
    pub(crate) fn push(&self, conn: Connection) {
        // The inbox is never closed (shutdown drains it instead), so
        // the push cannot be refused.
        self.pending.push(conn).expect("conn inbox never closes");
    }

    pub(crate) fn drain(&self) -> Vec<Connection> {
        let mut drained = Vec::new();
        while let Some(conn) = self.pending.pop() {
            drained.push(conn);
        }
        drained
    }

    /// Counter-based: also true for a push whose node link is still in
    /// flight, so the worker's drain loop never misses a hand-off.
    pub(crate) fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }
}

impl fmt::Debug for ConnInbox {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ConnInbox")
            .field("pending", &self.pending.len())
            .finish()
    }
}

/// A sharded runtime serving **connections** instead of pre-framed
/// payloads: accept loop, per-connection framing, in-order pipelined
/// responses.
///
/// ```
/// use sdrad_runtime::{ConnectionServer, IsolationMode, KvHandler, RuntimeConfig};
///
/// let server = ConnectionServer::start(
///     RuntimeConfig::new(2, IsolationMode::PerClientDomain),
///     |_worker| KvHandler::default(),
/// );
///
/// // A client connects and pipelines two requests, the second of them
/// // split across writes like a real socket stream.
/// let mut client = server.connect();
/// client.write(b"set k 2\r\nhi\r\nget ");
/// client.write(b"k\r\n");
///
/// let response = server.await_response(&mut client);
/// assert_eq!(response, b"STORED\r\nVALUE k 2\r\nhi\r\nEND\r\n".to_vec());
///
/// let stats = server.shutdown();
/// assert_eq!(stats.connections(), 1);
/// assert_eq!(stats.crashes(), 0);
/// assert!(stats.reconciles());
/// ```
pub struct ConnectionServer {
    listener: Listener,
    runtime: Runtime,
    acceptor: Option<JoinHandle<u64>>,
}

impl ConnectionServer {
    /// Starts the runtime plus the acceptor thread. `factory` runs on
    /// each worker thread, exactly as in [`Runtime::start`].
    pub fn start<H, F>(config: RuntimeConfig, factory: F) -> Self
    where
        H: SessionHandler,
        F: Fn(usize) -> H + Send + Sync + 'static,
    {
        let runtime = Runtime::start(config, factory);
        let listener = Listener::new();
        let acceptor = {
            let listener = listener.clone();
            let dispatcher = runtime.dispatcher();
            std::thread::Builder::new()
                .name("sdrad-acceptor".into())
                .spawn(move || {
                    let mut accepted = 0u64;
                    while let Some(endpoint) = listener.accept_blocking() {
                        accepted += 1;
                        // Each connection is its own client: its own
                        // sticky shard, its own pooled domain.
                        dispatcher.attach(ClientId(accepted), endpoint);
                    }
                    accepted
                })
                .expect("spawn acceptor thread")
        };
        ConnectionServer {
            listener,
            runtime,
            acceptor: Some(acceptor),
        }
    }

    /// A clone of the listener (e.g. to hand to client threads).
    #[must_use]
    pub fn listener(&self) -> Listener {
        self.listener.clone()
    }

    /// Opens a new client connection to this server.
    #[must_use]
    pub fn connect(&self) -> Endpoint {
        self.listener.connect()
    }

    /// Number of shards/workers.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.runtime.workers()
    }

    /// The underlying runtime (e.g. for mixing in pre-framed submits).
    #[must_use]
    pub fn runtime(&self) -> &Runtime {
        &self.runtime
    }

    /// Reads everything the server has answered for `client` once all
    /// traffic written so far has been served. Returns all bytes
    /// received.
    ///
    /// This is **deterministic**: it [quiesces](Self::quiesce) the
    /// runtime — every accepted connection adopted, every shard's
    /// worker parked with empty queues and no pending readiness — and
    /// then reads. No sleeps, no "stream looks quiet" heuristics.
    pub fn await_response(&self, client: &mut Endpoint) -> Vec<u8> {
        self.quiesce();
        client.read_available()
    }

    /// Blocks until every connection admitted so far has been handed to
    /// its shard **and** every worker is parked with nothing pending
    /// (empty queue, empty inbox, no ready connections). At that
    /// instant, all traffic written before the call has been fully
    /// served and its responses are readable. Concurrent writers can of
    /// course re-busy the runtime afterwards.
    ///
    /// Returns whether quiescence was actually observed; `false` means
    /// a failsafe deadline fired (acceptor wedged, or a worker never
    /// parked) and the runtime may still be working.
    pub fn quiesce(&self) -> bool {
        // Accept handoff first: a connection the listener admitted but
        // the acceptor has not yet attached is invisible to the shards.
        // The handoff is two thread hops (listener condvar → acceptor →
        // inbox push), so back off gently instead of spinning a core.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        let mut backoff = std::time::Duration::from_micros(10);
        while self.runtime.attached() < self.listener.connects() {
            if std::time::Instant::now() > deadline {
                return false; // failsafe: callers assert on content, not hangs
            }
            std::thread::sleep(backoff);
            backoff = (backoff * 2).min(std::time::Duration::from_millis(1));
        }
        self.runtime.quiesce()
    }

    /// Stops accepting, drains every accepted connection and queued
    /// request, joins the workers and returns the measurements. The
    /// number of accepted connections is available afterwards as
    /// [`RuntimeStats::connections`].
    #[must_use]
    pub fn shutdown(mut self) -> RuntimeStats {
        // Close first: the acceptor drains every pending connect (none
        // can be lost — see `Listener::accept_blocking`), hands them all
        // to the workers, then exits.
        self.listener.close();
        let accepted = self
            .acceptor
            .take()
            .expect("acceptor joined once")
            .join()
            .expect("acceptor panicked");
        let stats = self.runtime.shutdown();
        debug_assert_eq!(
            stats.connections(),
            accepted,
            "every accepted connection must reach a worker"
        );
        stats
    }
}

impl std::fmt::Debug for ConnectionServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConnectionServer")
            .field("workers", &self.runtime.workers())
            .field("backlog", &self.listener.backlog_len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handler::KvHandler;
    use crate::isolation::IsolationMode;

    #[test]
    fn serves_pipelined_and_partial_requests_over_connections() {
        let server = ConnectionServer::start(
            RuntimeConfig::new(2, IsolationMode::PerClientDomain),
            |_| KvHandler::default(),
        );
        let mut alice = server.connect();
        let mut bob = server.connect();

        // Alice pipelines; Bob drips a request byte by byte.
        alice.write(b"set a 1\r\nx\r\nget a\r\n");
        for &byte in b"set b 2\r\nok\r\n" {
            bob.write(&[byte]);
        }

        let alice_bytes = server.await_response(&mut alice);
        assert_eq!(alice_bytes, b"STORED\r\nVALUE a 1\r\nx\r\nEND\r\n".to_vec());
        let bob_bytes = server.await_response(&mut bob);
        assert_eq!(bob_bytes, b"STORED\r\n");

        let stats = server.shutdown();
        assert_eq!(stats.connections(), 2);
        assert_eq!(stats.ok(), 3);
        assert!(stats.reconciles());
    }

    #[test]
    fn requests_written_before_shutdown_are_served() {
        let server = ConnectionServer::start(
            RuntimeConfig::new(1, IsolationMode::PerClientDomain),
            |_| KvHandler::default(),
        );
        let mut client = server.connect();
        client.write(b"set k 1\r\nv\r\nget k\r\n");
        // No waiting: shutdown must drain what has arrived.
        let stats = server.shutdown();
        assert_eq!(stats.ok(), 2, "shutdown drains received bytes");
        assert_eq!(
            client.read_available(),
            b"STORED\r\nVALUE k 1\r\nv\r\nEND\r\n".to_vec()
        );
        assert!(stats.reconciles());
    }

    #[test]
    fn mid_request_disconnect_discards_the_half_request() {
        let server = ConnectionServer::start(
            RuntimeConfig::new(1, IsolationMode::PerClientDomain),
            |_| KvHandler::default(),
        );
        let mut client = server.connect();
        client.write(b"get done\r\nset k 9\r\nhal"); // second request cut short
        let _ = server.await_response(&mut client);
        client.close();
        let stats = server.shutdown();
        assert_eq!(stats.served(), 1, "only the complete request ran");
        assert_eq!(stats.aborted_requests(), 1);
        assert!(stats.reconciles());
    }

    #[test]
    fn connections_land_on_their_sticky_shard() {
        let server = ConnectionServer::start(
            RuntimeConfig::new(4, IsolationMode::PerClientDomain),
            |_| KvHandler::default(),
        );
        let mut clients: Vec<Endpoint> = (0..12).map(|_| server.connect()).collect();
        for client in &mut clients {
            client.write(b"stats\r\n");
        }
        for client in &mut clients {
            assert!(!server.await_response(client).is_empty());
        }
        let stats = server.shutdown();
        assert_eq!(stats.connections(), 12);
        assert_eq!(stats.served(), 12);
        assert!(stats.reconciles());
    }
}
