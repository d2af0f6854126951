//! Bidirectional in-memory connections.

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::Mutex;

/// A readiness waker: invoked (at most once per state change) when bytes
/// arrive on, or the peer closes, the endpoint it is registered on.
///
/// Wakers run on the **writer's** thread, while no transport lock is
/// held — they may take their own locks (the intended use is signalling
/// a scheduler's condvar) but should return quickly.
pub type ReadyCallback = Arc<dyn Fn() + Send + Sync>;

/// One direction of a connection: a byte queue plus an open flag and the
/// reader's registered waker.
#[derive(Default)]
struct Pipe {
    buffer: VecDeque<u8>,
    closed: bool,
    /// Waker of the endpoint that *reads* from this pipe. Fired by the
    /// writer after a write or close makes new state observable.
    waker: Option<ReadyCallback>,
}

impl Pipe {
    /// Removes the first `n` buffered bytes, handing them to `sink` as
    /// the (at most two) contiguous runs the ring stores them in — every
    /// read path moves bytes with slice copies, never one at a time.
    /// Emptying the pipe rewinds the ring, so a reader that keeps up
    /// always sees one contiguous run.
    fn take_front(&mut self, n: usize, mut sink: impl FnMut(&[u8])) {
        let (front, back) = self.buffer.as_slices();
        let from_front = n.min(front.len());
        sink(&front[..from_front]);
        sink(&back[..n - from_front]);
        if n == self.buffer.len() {
            self.buffer.clear();
        } else {
            self.buffer.drain(..n);
        }
    }

    /// [`take_front`](Self::take_front) appending to a vector.
    fn take_front_into(&mut self, n: usize, out: &mut Vec<u8>) {
        out.reserve(n);
        self.take_front(n, |run| out.extend_from_slice(run));
    }

    /// Offset of the first `\n` buffered, if any.
    fn newline_pos(&self) -> Option<usize> {
        let (front, back) = self.buffer.as_slices();
        let find = |run: &[u8]| run.iter().position(|&b| b == b'\n');
        find(front).or_else(|| find(back).map(|pos| front.len() + pos))
    }
}

impl std::fmt::Debug for Pipe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pipe")
            .field("buffered", &self.buffer.len())
            .field("closed", &self.closed)
            .field("waker", &self.waker.is_some())
            .finish()
    }
}

/// Transfer statistics of one endpoint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Bytes written by this endpoint.
    pub bytes_sent: u64,
    /// Bytes read by this endpoint.
    pub bytes_received: u64,
    /// Write calls made.
    pub writes: u64,
    /// Read calls that returned at least one byte.
    pub reads: u64,
}

/// A cloneable, thread-safe handle on one endpoint's byte streams.
///
/// Obtained from [`Endpoint::stream_handle`], this is the cooperation
/// surface work stealing needs: a sibling thread can drain the bytes
/// pending on the endpoint ([`drain_pending`](Self::drain_pending)) and
/// write responses back ([`write`](Self::write)) **without taking the
/// endpoint over** — ownership, readiness-callback registration,
/// lifecycle (`close`) and transfer statistics all stay with the
/// endpoint's owner. Writes through a handle fire the peer's registered
/// waker exactly like [`Endpoint::write`] does.
///
/// Handle operations are **not** reflected in the owning endpoint's
/// [`NetStats`] (those count the owner's own calls); byte-level framing
/// and response ordering are the caller's responsibility — callers
/// serialise access with their own per-connection lock.
#[derive(Debug, Clone)]
pub struct StreamHandle {
    /// Pipe the owner endpoint reads from (we drain it).
    incoming: Arc<Mutex<Pipe>>,
    /// Pipe the owner endpoint writes into (we respond through it).
    outgoing: Arc<Mutex<Pipe>>,
}

impl StreamHandle {
    /// Takes and returns every byte currently pending on the endpoint,
    /// in arrival order. Returns an empty vector when nothing is
    /// pending.
    #[must_use]
    pub fn drain_pending(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.drain_pending_into(&mut out);
        out
    }

    /// Appends every byte currently pending on the endpoint to `out`,
    /// in arrival order; returns how many were appended. The allocation-
    /// free sibling of [`drain_pending`](Self::drain_pending) for
    /// callers that stage into a reused buffer.
    pub fn drain_pending_into(&self, out: &mut Vec<u8>) -> usize {
        let mut pipe = self.incoming.lock();
        let n = pipe.buffer.len();
        pipe.take_front_into(n, out);
        n
    }

    /// Bytes currently pending on the endpoint.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.incoming.lock().buffer.len()
    }

    /// Writes `data` towards the endpoint's peer, firing the peer's
    /// registered waker once the bytes are observable — identical
    /// semantics to [`Endpoint::write`], including the silent drop after
    /// the peer closed.
    pub fn write(&self, data: &[u8]) {
        let waker = {
            let mut pipe = self.outgoing.lock();
            if pipe.closed {
                return;
            }
            pipe.buffer.extend(data);
            if data.is_empty() {
                None
            } else {
                pipe.waker.clone()
            }
        };
        // Fired outside the pipe lock: wakers take scheduler locks.
        if let Some(waker) = waker {
            waker();
        }
    }

    /// Whether the peer can still send to the endpoint (false once the
    /// peer closed its sending side) — mirrors [`Endpoint::is_open`].
    #[must_use]
    pub fn is_open(&self) -> bool {
        !self.incoming.lock().closed
    }
}

/// One end of a bidirectional in-memory connection.
///
/// Reads are non-blocking: they return what is available (possibly
/// nothing). This models a readiness-based server loop without needing an
/// event reactor.
#[derive(Debug)]
pub struct Endpoint {
    /// Pipe this endpoint writes into.
    outgoing: Arc<Mutex<Pipe>>,
    /// Pipe this endpoint reads from.
    incoming: Arc<Mutex<Pipe>>,
    stats: NetStats,
}

/// Creates a connected pair of endpoints.
#[must_use]
pub fn duplex() -> (Endpoint, Endpoint) {
    let a_to_b = Arc::new(Mutex::new(Pipe::default()));
    let b_to_a = Arc::new(Mutex::new(Pipe::default()));
    let a = Endpoint {
        outgoing: Arc::clone(&a_to_b),
        incoming: Arc::clone(&b_to_a),
        stats: NetStats::default(),
    };
    let b = Endpoint {
        outgoing: b_to_a,
        incoming: a_to_b,
        stats: NetStats::default(),
    };
    (a, b)
}

impl Endpoint {
    /// Writes all of `data` to the peer. Writes to a peer-closed
    /// connection are silently dropped (like TCP after FIN + RST without a
    /// signal handler — the caller discovers closure via `is_open`).
    ///
    /// If the peer registered a [`ReadyCallback`], it fires after the
    /// bytes are visible — the readiness edge that lets a serving loop
    /// park instead of polling.
    pub fn write(&mut self, data: &[u8]) {
        let waker = {
            let mut pipe = self.outgoing.lock();
            if pipe.closed {
                return;
            }
            pipe.buffer.extend(data);
            self.stats.bytes_sent += data.len() as u64;
            self.stats.writes += 1;
            if data.is_empty() {
                None
            } else {
                pipe.waker.clone()
            }
        };
        // Fired outside the pipe lock: wakers take scheduler locks.
        if let Some(waker) = waker {
            waker();
        }
    }

    /// Reads up to `buf.len()` bytes; returns how many were read (0 when
    /// nothing is pending).
    pub fn read(&mut self, buf: &mut [u8]) -> usize {
        let mut pipe = self.incoming.lock();
        let n = buf.len().min(pipe.buffer.len());
        let mut filled = 0;
        pipe.take_front(n, |run| {
            buf[filled..filled + run.len()].copy_from_slice(run);
            filled += run.len();
        });
        if n > 0 {
            self.stats.bytes_received += n as u64;
            self.stats.reads += 1;
        }
        n
    }

    /// Reads and returns everything currently pending.
    pub fn read_available(&mut self) -> Vec<u8> {
        let mut out = Vec::new();
        self.read_available_into(&mut out);
        out
    }

    /// Appends everything currently pending to `out`; returns how many
    /// bytes were read. The allocation-free sibling of
    /// [`read_available`](Self::read_available) for serving loops that
    /// stage into a reused buffer.
    pub fn read_available_into(&mut self, out: &mut Vec<u8>) -> usize {
        let mut pipe = self.incoming.lock();
        let n = pipe.buffer.len();
        pipe.take_front_into(n, out);
        if n > 0 {
            self.stats.bytes_received += n as u64;
            self.stats.reads += 1;
        }
        n
    }

    /// Reads one `\r\n`- or `\n`-terminated line if a complete one is
    /// pending, including its terminator. Returns `None` otherwise.
    /// (Text-protocol helper for the memcached-style server.)
    pub fn read_line(&mut self) -> Option<Vec<u8>> {
        let mut pipe = self.incoming.lock();
        let len = pipe.newline_pos()? + 1;
        let mut line = Vec::new();
        pipe.take_front_into(len, &mut line);
        self.stats.bytes_received += line.len() as u64;
        self.stats.reads += 1;
        Some(line)
    }

    /// Reads exactly `n` bytes if at least that many are pending.
    pub fn read_exact(&mut self, n: usize) -> Option<Vec<u8>> {
        let mut pipe = self.incoming.lock();
        if pipe.buffer.len() < n {
            return None;
        }
        let mut bytes = Vec::new();
        pipe.take_front_into(n, &mut bytes);
        self.stats.bytes_received += n as u64;
        self.stats.reads += 1;
        Some(bytes)
    }

    /// Bytes currently waiting to be read.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.incoming.lock().buffer.len()
    }

    /// Closes this endpoint's *sending* side; the peer sees `!is_open`
    /// once its incoming pipe is marked. The peer's registered waker (if
    /// any) fires so a parked reader observes the hang-up.
    pub fn close(&mut self) {
        let waker = {
            let mut pipe = self.outgoing.lock();
            pipe.closed = true;
            pipe.waker.clone()
        };
        if let Some(waker) = waker {
            waker();
        }
    }

    /// Registers `waker` to fire whenever the peer makes new state
    /// observable on this endpoint: bytes written, or the sending side
    /// closed. At most one waker is registered at a time (a new
    /// registration replaces the old).
    ///
    /// If bytes are already pending — or the peer already closed — the
    /// waker fires immediately, so registration can never lose an edge
    /// that preceded it.
    pub fn set_ready_callback(&mut self, waker: ReadyCallback) {
        let fire_now = {
            let mut pipe = self.incoming.lock();
            let pending = !pipe.buffer.is_empty() || pipe.closed;
            pipe.waker = Some(Arc::clone(&waker));
            pending
        };
        if fire_now {
            waker();
        }
    }

    /// Removes any registered waker. Future writes and closes by the peer
    /// no longer signal anyone (back to the polling contract).
    pub fn clear_ready_callback(&mut self) {
        self.incoming.lock().waker = None;
    }

    /// Whether the peer can still send to us (false after peer `close`).
    #[must_use]
    pub fn is_open(&self) -> bool {
        !self.incoming.lock().closed
    }

    /// A cloneable, thread-safe [`StreamHandle`] on this endpoint's byte
    /// streams, for a cooperating thread (e.g. a work-stealing sibling)
    /// that drains pending bytes and writes responses without taking
    /// the endpoint over. See [`StreamHandle`] for the contract.
    #[must_use]
    pub fn stream_handle(&self) -> StreamHandle {
        StreamHandle {
            incoming: Arc::clone(&self.incoming),
            outgoing: Arc::clone(&self.outgoing),
        }
    }

    /// Transfer statistics of this endpoint.
    #[must_use]
    pub fn stats(&self) -> NetStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_round_trip() {
        let (mut a, mut b) = duplex();
        a.write(b"hello");
        let mut buf = [0u8; 5];
        assert_eq!(b.read(&mut buf), 5);
        assert_eq!(&buf, b"hello");
    }

    #[test]
    fn reads_are_non_blocking() {
        let (_a, mut b) = duplex();
        let mut buf = [0u8; 8];
        assert_eq!(b.read(&mut buf), 0);
        assert!(b.read_available().is_empty());
    }

    #[test]
    fn partial_reads_preserve_order() {
        let (mut a, mut b) = duplex();
        a.write(b"abcdef");
        let mut buf = [0u8; 2];
        assert_eq!(b.read(&mut buf), 2);
        assert_eq!(&buf, b"ab");
        assert_eq!(b.read_available(), b"cdef");
    }

    #[test]
    fn both_directions_are_independent() {
        let (mut a, mut b) = duplex();
        a.write(b"to-b");
        b.write(b"to-a");
        assert_eq!(a.read_available(), b"to-a");
        assert_eq!(b.read_available(), b"to-b");
    }

    #[test]
    fn read_line_waits_for_terminator() {
        let (mut a, mut b) = duplex();
        a.write(b"GET ke");
        assert_eq!(b.read_line(), None);
        a.write(b"y\r\nrest");
        assert_eq!(b.read_line().unwrap(), b"GET key\r\n");
        assert_eq!(b.pending(), 4);
    }

    #[test]
    fn read_exact_is_all_or_nothing() {
        let (mut a, mut b) = duplex();
        a.write(b"123");
        assert_eq!(b.read_exact(4), None);
        a.write(b"4");
        assert_eq!(b.read_exact(4).unwrap(), b"1234");
    }

    #[test]
    fn close_is_visible_to_peer() {
        let (mut a, b) = duplex();
        assert!(b.is_open());
        a.close();
        assert!(!b.is_open());
        assert!(a.is_open(), "close is one-directional");
    }

    #[test]
    fn writes_after_peer_close_are_dropped() {
        let (mut a, mut b) = duplex();
        b.close(); // b will not receive anymore
                   // b closed its *sending* side; a can still send to b? No: close()
                   // closes the outgoing pipe, so b's outgoing (towards a) is closed.
        a.write(b"x");
        assert_eq!(b.read_available(), b"x", "a->b still open");
        a.close();
        b.write(b"y");
        assert!(a.read_available().is_empty(), "write after close dropped");
    }

    #[test]
    fn stats_account_bytes() {
        let (mut a, mut b) = duplex();
        a.write(b"12345");
        b.read_available();
        assert_eq!(a.stats().bytes_sent, 5);
        assert_eq!(b.stats().bytes_received, 5);
        assert_eq!(a.stats().writes, 1);
        assert_eq!(b.stats().reads, 1);
    }

    #[test]
    fn ready_callback_fires_on_write_and_close() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let (mut a, mut b) = duplex();
        let fired = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&fired);
        b.set_ready_callback(Arc::new(move || {
            counter.fetch_add(1, Ordering::SeqCst);
        }));
        assert_eq!(fired.load(Ordering::SeqCst), 0, "nothing pending yet");
        a.write(b"x");
        assert_eq!(fired.load(Ordering::SeqCst), 1, "write signals");
        a.write(b"");
        assert_eq!(fired.load(Ordering::SeqCst), 1, "empty write is no edge");
        a.close();
        assert_eq!(fired.load(Ordering::SeqCst), 2, "close signals");
    }

    #[test]
    fn ready_callback_fires_immediately_when_bytes_precede_registration() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let (mut a, mut b) = duplex();
        a.write(b"early");
        let fired = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&fired);
        b.set_ready_callback(Arc::new(move || {
            counter.fetch_add(1, Ordering::SeqCst);
        }));
        assert_eq!(fired.load(Ordering::SeqCst), 1, "pre-registration edge");
    }

    #[test]
    fn cleared_callback_no_longer_fires() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let (mut a, mut b) = duplex();
        let fired = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&fired);
        b.set_ready_callback(Arc::new(move || {
            counter.fetch_add(1, Ordering::SeqCst);
        }));
        b.clear_ready_callback();
        a.write(b"x");
        a.close();
        assert_eq!(fired.load(Ordering::SeqCst), 0);
        assert_eq!(b.read_available(), b"x", "bytes still flow");
    }

    #[test]
    fn ready_callback_wakes_a_parked_reader_across_threads() {
        use std::sync::{Condvar, Mutex};
        let (mut a, mut b) = duplex();
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let signal = Arc::clone(&gate);
        b.set_ready_callback(Arc::new(move || {
            let (lock, cv) = &*signal;
            *lock.lock().expect("gate lock") = true;
            cv.notify_all();
        }));
        let writer = std::thread::spawn(move || a.write(b"wake up"));
        let (lock, cv) = &*gate;
        let mut ready = lock.lock().expect("gate lock");
        while !*ready {
            let (next, timeout) = cv
                .wait_timeout(ready, std::time::Duration::from_secs(5))
                .expect("gate wait");
            ready = next;
            assert!(!timeout.timed_out(), "waker must arrive");
        }
        writer.join().unwrap();
        assert_eq!(b.read_available(), b"wake up");
    }

    #[test]
    fn stream_handle_drains_and_responds_without_taking_over() {
        let (mut client, server) = duplex();
        let handle = server.stream_handle();
        client.write(b"request");
        assert_eq!(handle.pending(), 7);
        assert_eq!(handle.drain_pending(), b"request");
        assert_eq!(handle.pending(), 0, "drained through the handle");
        handle.write(b"response");
        assert_eq!(client.read_available(), b"response");
        assert!(handle.is_open());
        client.close();
        assert!(!handle.is_open(), "handle observes the peer close");
        // The owner endpoint still owns lifecycle and stats: handle
        // traffic is not charged to the owner's counters.
        assert_eq!(server.stats().bytes_received, 0);
        assert_eq!(server.stats().bytes_sent, 0);
    }

    #[test]
    fn stream_handle_writes_fire_the_peer_waker() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let (mut client, server) = duplex();
        let handle = server.stream_handle();
        let fired = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&fired);
        client.set_ready_callback(Arc::new(move || {
            counter.fetch_add(1, Ordering::SeqCst);
        }));
        handle.write(b"stolen frame response");
        assert_eq!(fired.load(Ordering::SeqCst), 1, "handle write signals");
        assert_eq!(client.read_available(), b"stolen frame response");
    }

    #[test]
    fn stream_handle_and_owner_reads_interleave_in_arrival_order() {
        let (mut client, mut server) = duplex();
        let handle = server.stream_handle();
        client.write(b"first ");
        assert_eq!(handle.drain_pending(), b"first ");
        client.write(b"second");
        assert_eq!(server.read_available(), b"second");
        assert!(handle.drain_pending().is_empty());
    }

    #[test]
    fn endpoints_work_across_threads() {
        let (mut a, mut b) = duplex();
        let handle = std::thread::spawn(move || {
            a.write(b"cross-thread");
            a.close();
        });
        handle.join().unwrap();
        assert_eq!(b.read_available(), b"cross-thread");
        assert!(!b.is_open());
    }
}
