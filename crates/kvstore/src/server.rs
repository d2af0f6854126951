//! The request-processing server, with and without SDRaD isolation.

use sdrad::{
    ClientId, DomainConfig, DomainEnv, DomainError, DomainId, DomainManager, DomainPolicy,
    DomainPool, Fault,
};

use crate::{parse_command, Command, ProtocolError, Response, Snapshot, Store, StoreConfig};

/// How request processing is isolated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isolation {
    /// No isolation: the planted memory bug crashes the whole server
    /// (state lost; a costly restart is needed). The paper's baseline.
    None,
    /// SDRaD: request processing runs in one protection-key domain; the
    /// bug faults, the domain rewinds in microseconds, the client gets
    /// `SERVER_ERROR`, everyone else is unaffected.
    Domain,
    /// SDRaD with per-client domains (the paper's service scenario): each
    /// client's requests run in that client's pooled domain, so even
    /// in-flight state of other clients is out of the blast radius.
    PerClient,
}

/// Server configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerConfig {
    /// Store (shard/capacity) configuration.
    pub store: StoreConfig,
}

/// Server activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests fully processed (any outcome).
    pub requests: u64,
    /// Requests answered with a protocol `ERROR`.
    pub protocol_errors: u64,
    /// Faults contained by a domain rewind (isolation on).
    pub contained_faults: u64,
    /// Fatal crashes (isolation off): each one needs a restart.
    pub crashes: u64,
    /// Cumulative nanoseconds spent rewinding after contained faults.
    pub rewind_ns: u64,
}

/// What the in-domain processing decided the root should do to the store.
///
/// Mutating the store happens *outside* the domain: under the integrity
/// policy the domain cannot write root data, so the parsed intent is
/// passed out by value — the same pattern the SDRaD Memcached retrofit
/// uses for its wrapped commands. Public so external executors (the
/// `sdrad-runtime` workers, which own their own `DomainManager`) can
/// drive the same request pipeline.
#[derive(Debug, PartialEq, Eq)]
pub enum StoreOp {
    /// Look up a key.
    Get(String),
    /// Store a value, with an optional TTL in logical ticks.
    Set {
        /// Cache key.
        key: String,
        /// Value bytes.
        value: Vec<u8>,
        /// Optional TTL in logical ticks.
        ttl: Option<u64>,
    },
    /// Delete a key.
    Delete(String),
    /// Render statistics.
    Stats,
    /// Drop every entry.
    Flush,
    /// Result of the (vulnerable) xstat blob checksum.
    XStat(u64),
    /// Close the session.
    Quit,
}

/// Runs one parsed command **inside** an SDRaD domain: request data is
/// staged on the domain heap and processed there, and only the resulting
/// intent leaves the domain; a detected fault is returned for the
/// boundary ([`DomainManager::try_call`]) to rewind. This is the exact
/// processing [`Server::execute_for`] performs; it is exposed so
/// executors that own their own `DomainManager` (per-worker managers in
/// `sdrad-runtime`) run the identical workload, planted bug included.
///
/// # Errors
///
/// The [`Fault`] a staged access raises — for a malicious `xstat`, the
/// planted overflow's.
pub fn try_stage_command(env: &mut DomainEnv<'_>, cmd: Command<'_>) -> Result<StoreOp, Fault> {
    Ok(match cmd {
        Command::Get(key) => {
            let staged = env.try_push_bytes(key.as_bytes())?;
            let back = env.try_read_bytes(staged, key.len())?;
            env.try_free(staged)?;
            StoreOp::Get(string_from_copy_out(back))
        }
        Command::Set { key, value, ttl } => {
            let k = env.try_push_bytes(key.as_bytes())?;
            let v = env.try_push_bytes(value)?;
            let key_back = env.try_read_bytes(k, key.len())?;
            let value_back = env.try_read_bytes(v, value.len())?;
            env.try_free(v)?;
            env.try_free(k)?;
            StoreOp::Set {
                key: string_from_copy_out(key_back),
                value: value_back,
                ttl,
            }
        }
        Command::Delete(key) => StoreOp::Delete(key.to_string()),
        Command::Stats => StoreOp::Stats,
        Command::Flush => StoreOp::Flush,
        Command::XStat { declared, data } => {
            StoreOp::XStat(vulnerable_xstat_in_domain(env, declared, data)?)
        }
        Command::Quit => StoreOp::Quit,
    })
}

/// [`try_stage_command`] with the fault trapped to the boundary.
pub fn stage_command(env: &mut DomainEnv<'_>, cmd: Command<'_>) -> StoreOp {
    try_stage_command(env, cmd).unwrap_or_else(|fault| env.trap(fault))
}

/// Turns a domain copy-out buffer into a `String`, reusing its storage
/// when the bytes are valid UTF-8 (always, for keys the parser accepted
/// as UTF-8 request lines). The lossy copy is the cold fallback only.
fn string_from_copy_out(bytes: Vec<u8>) -> String {
    match String::from_utf8(bytes) {
        Ok(key) => key,
        Err(err) => String::from_utf8_lossy(err.as_bytes()).into_owned(),
    }
}

/// Runs one parsed command on the **unprotected** path. `None` models a
/// fatal memory fault (`SIGSEGV`) in the host process — the baseline the
/// paper restarts from. Exposed for external executors (see
/// [`try_stage_command`]).
#[must_use]
pub fn process_unprotected_command(cmd: Command<'_>) -> Option<StoreOp> {
    Server::process_unprotected(cmd)
}

/// Applies a store intent, returning the protocol response. `StoreOp::
/// Stats` renders store-level counters only; [`Server`] overlays its own
/// request counters on top.
///
/// The owning adapter: a `get` hit copies its value out of the store
/// into the `Response`. A serving path that renders right away borrows
/// instead — [`Store::get`] then [`write_value`](crate::write_value).
pub fn apply_op(store: &mut Store, op: StoreOp) -> Response {
    match op {
        StoreOp::Get(key) => match store.get(&key).map(<[u8]>::to_vec) {
            Some(value) => Response::Value { key, value },
            None => Response::Miss,
        },
        StoreOp::Set { key, value, ttl } => {
            store.set_with_ttl(key, value, ttl);
            Response::Stored
        }
        StoreOp::Delete(key) => {
            if store.delete(&key) {
                Response::Deleted
            } else {
                Response::NotFound
            }
        }
        StoreOp::Stats => {
            let stats = store.stats();
            Response::Stats(vec![
                ("entries".into(), stats.entries),
                ("bytes".into(), stats.bytes),
                ("hits".into(), stats.hits),
                ("misses".into(), stats.misses),
                ("evictions".into(), stats.evictions),
            ])
        }
        StoreOp::Flush => {
            store.flush();
            Response::Ok
        }
        StoreOp::XStat(checksum) => Response::Stats(vec![("xstat_checksum".into(), checksum)]),
        StoreOp::Quit => Response::Ok,
    }
}

/// The memcached-like server.
///
/// See the crate docs for an end-to-end example.
#[derive(Debug)]
pub struct Server {
    store: Store,
    isolation: Isolation,
    mgr: Option<DomainManager>,
    domain: Option<DomainId>,
    pool: Option<DomainPool>,
    stats: ServerStats,
    crashed: bool,
}

impl Server {
    /// Creates a server with the requested isolation mode.
    ///
    /// # Errors
    ///
    /// [`DomainError`] if the isolation domain cannot be created.
    pub fn new(config: ServerConfig, isolation: Isolation) -> Result<Self, DomainError> {
        let domain_config = DomainConfig::new("kvstore-request")
            .heap_capacity(4 << 20)
            .policy(DomainPolicy::Integrity);
        let (mgr, domain, pool) = match isolation {
            Isolation::None => (None, None, None),
            Isolation::Domain => {
                let mut mgr = DomainManager::new();
                let domain = mgr.create_domain(domain_config)?;
                (Some(mgr), Some(domain), None)
            }
            Isolation::PerClient => {
                let mgr = DomainManager::new();
                let pool = DomainPool::new(
                    DomainConfig {
                        name: "kvstore-client".into(),
                        heap_capacity: 1 << 20,
                        ..domain_config
                    },
                    8,
                );
                (Some(mgr), None, Some(pool))
            }
        };
        Ok(Server {
            store: Store::new(config.store),
            isolation,
            mgr,
            domain,
            pool,
            stats: ServerStats::default(),
            crashed: false,
        })
    }

    /// The isolation mode this server runs with.
    #[must_use]
    pub fn isolation(&self) -> Isolation {
        self.isolation
    }

    /// Whether the server is alive (an unprotected server dies at the
    /// first triggered bug and stays dead until [`restart_from`]).
    ///
    /// [`restart_from`]: Self::restart_from
    #[must_use]
    pub fn is_alive(&self) -> bool {
        !self.crashed
    }

    /// Activity counters.
    #[must_use]
    pub fn stats(&self) -> ServerStats {
        self.stats
    }

    /// Read access to the store (setup and verification).
    #[must_use]
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Write access to the store (bulk setup in experiments).
    pub fn store_mut(&mut self) -> &mut Store {
        &mut self.store
    }

    /// Captures the store contents (the data a restart would reload).
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        self.store.snapshot()
    }

    /// The restart path for the unprotected baseline: rebuilds the store
    /// from a snapshot and brings the server back up. The wall-clock cost
    /// of this call scales with the snapshot size (experiments E2/E3).
    pub fn restart_from(&mut self, snapshot: &Snapshot) {
        self.store = Store::restore(self.store.config, snapshot);
        self.crashed = false;
    }

    /// Parses and executes exactly one request, returning the raw response
    /// bytes (empty if the server is dead — the connection just hangs,
    /// which is what a crashed process looks like to its clients).
    pub fn handle(&mut self, raw: &[u8]) -> Vec<u8> {
        self.handle_for(ClientId(0), raw)
    }

    /// Like [`handle`](Self::handle), attributing the request to a client
    /// (used by per-client isolation to pick the client's domain).
    pub fn handle_for(&mut self, client: ClientId, raw: &[u8]) -> Vec<u8> {
        if self.crashed {
            return Vec::new();
        }
        match parse_command(raw) {
            Ok((cmd, _consumed)) => self.execute_for(client, cmd).to_bytes(),
            Err(ProtocolError::Incomplete) => Vec::new(),
            Err(_) => {
                self.stats.protocol_errors += 1;
                Response::Error.to_bytes()
            }
        }
    }

    /// Executes a parsed command under the configured isolation.
    pub fn execute(&mut self, cmd: Command<'_>) -> Response {
        self.execute_for(ClientId(0), cmd)
    }

    /// Status of the domain serving `client`, in per-client mode.
    #[must_use]
    pub fn client_domain_info(&mut self, client: ClientId) -> Option<sdrad::DomainInfo> {
        let pool = self.pool.as_mut()?;
        let mgr = self.mgr.as_mut()?;
        let domain = pool.domain_for(mgr, client).ok()?;
        mgr.domain_info(domain).ok()
    }

    /// Executes a parsed command for a specific client.
    pub fn execute_for(&mut self, client: ClientId, cmd: Command<'_>) -> Response {
        if self.crashed {
            return Response::ServerError("server is down".into());
        }
        self.stats.requests += 1;
        self.store.advance(1); // one logical TTL tick per request
        if cmd == Command::Stats {
            return self.render_stats();
        }
        let op = match self.isolation {
            Isolation::None => match Self::process_unprotected(cmd) {
                Some(op) => op,
                None => {
                    // The memory bug fired with no isolation: the process
                    // is gone. (A real deployment would now pay the full
                    // restart cost.)
                    self.crashed = true;
                    self.stats.crashes += 1;
                    return Response::ServerError("server crashed".into());
                }
            },
            Isolation::Domain | Isolation::PerClient => {
                let mgr = self.mgr.as_mut().expect("domain mode has a manager");
                let domain = match self.isolation {
                    Isolation::Domain => self.domain.expect("domain mode has a domain"),
                    Isolation::PerClient => {
                        let pool = self.pool.as_mut().expect("per-client mode has a pool");
                        match pool.domain_for(mgr, client) {
                            Ok(domain) => domain,
                            Err(e) => {
                                return Response::ServerError(format!(
                                    "no domain for {client}: {e}"
                                ));
                            }
                        }
                    }
                    Isolation::None => unreachable!("handled above"),
                };
                match mgr.try_call(domain, move |env| try_stage_command(env, cmd)) {
                    Ok(op) => op,
                    Err(DomainError::Violation {
                        fault, rewind_ns, ..
                    }) => {
                        self.stats.contained_faults += 1;
                        self.stats.rewind_ns += rewind_ns;
                        return Response::ServerError(format!("contained: {}", fault.kind()));
                    }
                    Err(other) => {
                        return Response::ServerError(format!("isolation error: {other}"));
                    }
                }
            }
        };
        self.apply(op)
    }

    /// The unprotected processing path. `None` models a fatal memory
    /// fault (`SIGSEGV`) in the host process.
    fn process_unprotected(cmd: Command<'_>) -> Option<StoreOp> {
        Some(match cmd {
            Command::Get(key) => StoreOp::Get(key.to_string()),
            Command::Set { key, value, ttl } => StoreOp::Set {
                key: key.to_string(),
                value: value.to_vec(),
                ttl,
            },
            Command::Delete(key) => StoreOp::Delete(key.to_string()),
            Command::Stats => StoreOp::Stats,
            Command::Flush => StoreOp::Flush,
            Command::XStat { declared, data } => {
                // The planted bug: the handler "processes" `declared`
                // bytes of a blob that is only `data.len()` long. Without
                // isolation the overflow corrupts the process and the OS
                // kills it.
                if declared > data.len() {
                    return None;
                }
                StoreOp::XStat(fnv_checksum(&data[..declared]))
            }
            Command::Quit => StoreOp::Quit,
        })
    }

    /// Applies a store intent produced by request processing.
    fn apply(&mut self, op: StoreOp) -> Response {
        match op {
            // Server-level stats overlay the store-level counters.
            StoreOp::Stats => self.render_stats(),
            other => apply_op(&mut self.store, other),
        }
    }

    fn render_stats(&self) -> Response {
        let store = self.store.stats();
        Response::Stats(vec![
            ("entries".into(), store.entries),
            ("bytes".into(), store.bytes),
            ("hits".into(), store.hits),
            ("misses".into(), store.misses),
            ("evictions".into(), store.evictions),
            ("requests".into(), self.stats.requests),
            ("contained_faults".into(), self.stats.contained_faults),
            ("crashes".into(), self.stats.crashes),
        ])
    }
}

/// The same planted bug, executed inside the domain on domain memory: the
/// handler scrubs a buffer sized for the *actual* data but trusting the
/// *declared* length. The overflow smashes heap canaries (or leaves the
/// heap region entirely) and is detected — the fault returns to the
/// domain boundary and the server rewinds.
fn vulnerable_xstat_in_domain(
    env: &mut DomainEnv<'_>,
    declared: usize,
    data: &[u8],
) -> Result<u64, Fault> {
    let buffer = env.try_push_bytes(data)?;
    let processed = env.try_read_bytes(buffer, declared.min(data.len()))?;
    let checksum = fnv_checksum(&processed);
    // BUG (same trust as the baseline path): scrub the scratch buffer
    // using the *declared* length before releasing it.
    env.try_fill(buffer, declared, 0xA5)?; // overflow -> canary smash
    env.try_free(buffer)?; // free() also re-verifies the canaries
    Ok(checksum)
}

/// FNV-1a, the blob "statistic" xstat computes.
fn fnv_checksum(data: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in data {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x1000_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server(isolation: Isolation) -> Server {
        Server::new(ServerConfig::default(), isolation).unwrap()
    }

    #[test]
    fn basic_protocol_round_trip() {
        for isolation in [Isolation::None, Isolation::Domain] {
            let mut s = server(isolation);
            assert_eq!(s.handle(b"set k 3\r\nabc\r\n"), b"STORED\r\n");
            assert_eq!(s.handle(b"get k\r\n"), b"VALUE k 3\r\nabc\r\nEND\r\n");
            assert_eq!(s.handle(b"get nope\r\n"), b"END\r\n");
            assert_eq!(s.handle(b"delete k\r\n"), b"DELETED\r\n");
            assert_eq!(s.handle(b"delete k\r\n"), b"NOT_FOUND\r\n");
        }
    }

    #[test]
    fn benign_xstat_works_in_both_modes() {
        for isolation in [Isolation::None, Isolation::Domain] {
            let mut s = server(isolation);
            let response = s.handle(b"xstat 4 4\r\nblob\r\n");
            let text = String::from_utf8(response).unwrap();
            assert!(
                text.starts_with("STAT xstat_checksum"),
                "{isolation:?}: {text}"
            );
            assert!(s.is_alive());
        }
    }

    #[test]
    fn exploit_kills_unprotected_server() {
        let mut s = server(Isolation::None);
        s.handle(b"set k 1\r\nv\r\n");
        let response = s.handle(b"xstat 4096 4\r\nboom\r\n");
        assert!(String::from_utf8_lossy(&response).contains("crashed"));
        assert!(!s.is_alive());
        assert_eq!(s.stats().crashes, 1);
        // Dead server serves nothing.
        assert!(s.handle(b"get k\r\n").is_empty());
    }

    #[test]
    fn exploit_is_contained_by_domain_isolation() {
        let mut s = server(Isolation::Domain);
        s.handle(b"set k 1\r\nv\r\n");
        let response = s.handle(b"xstat 4096 4\r\nboom\r\n");
        assert!(String::from_utf8_lossy(&response).starts_with("SERVER_ERROR contained"));
        assert!(s.is_alive(), "SDRaD server survives");
        assert_eq!(s.stats().contained_faults, 1);
        // And keeps serving, with data intact.
        assert_eq!(s.handle(b"get k\r\n"), b"VALUE k 1\r\nv\r\nEND\r\n");
    }

    #[test]
    fn repeated_attacks_never_take_the_domain_server_down() {
        let mut s = server(Isolation::Domain);
        for i in 0..50 {
            let attack = format!("xstat 8192 4\r\nb{i:03}\r\n");
            let response = s.handle(attack.as_bytes());
            assert!(String::from_utf8_lossy(&response).starts_with("SERVER_ERROR"));
            assert!(s.is_alive());
        }
        assert_eq!(s.stats().contained_faults, 50);
    }

    #[test]
    fn restart_recovers_the_unprotected_server_with_data() {
        let mut s = server(Isolation::None);
        for i in 0..20 {
            s.handle(format!("set key-{i} 2\r\nxx\r\n").as_bytes());
        }
        let snapshot = s.snapshot();
        s.handle(b"xstat 999 1\r\nz\r\n");
        assert!(!s.is_alive());

        s.restart_from(&snapshot);
        assert!(s.is_alive());
        assert_eq!(
            s.handle(b"get key-7\r\n"),
            b"VALUE key-7 2\r\nxx\r\nEND\r\n"
        );
    }

    #[test]
    fn restart_keeps_the_configured_store_budget() {
        const BUDGET: usize = 4 << 10;
        let config = ServerConfig {
            store: StoreConfig {
                shards: 1,
                shard_capacity: BUDGET,
            },
        };
        let mut s = Server::new(config, Isolation::None).unwrap();
        s.handle(b"set k 1\r\nv\r\n");
        let snapshot = s.snapshot();
        s.handle(b"xstat 999 1\r\nz\r\n");
        assert!(!s.is_alive());

        s.restart_from(&snapshot);
        for i in 0..64 {
            s.handle(format!("set key-{i} 256\r\n{}\r\n", "x".repeat(256)).as_bytes());
        }
        let stats = s.store().stats();
        assert!(
            stats.evictions > 0,
            "16 KiB of sets evict at a 4 KiB budget"
        );
        assert!(stats.bytes <= BUDGET as u64, "{} bytes held", stats.bytes);
    }

    #[test]
    fn stats_expose_containment_counters() {
        let mut s = server(Isolation::Domain);
        s.handle(b"xstat 512 1\r\nq\r\n");
        let text = String::from_utf8(s.handle(b"stats\r\n")).unwrap();
        assert!(text.contains("STAT contained_faults 1"), "{text}");
    }

    #[test]
    fn malformed_requests_get_error_and_are_counted() {
        let mut s = server(Isolation::Domain);
        assert_eq!(s.handle(b"bogus cmd\r\n"), b"ERROR\r\n");
        assert_eq!(s.stats().protocol_errors, 1);
    }

    #[test]
    fn ttl_expiry_works_through_the_protocol() {
        for isolation in [Isolation::None, Isolation::Domain] {
            let mut s = server(isolation);
            // TTL of 2 ticks; each request advances the clock by 1.
            assert_eq!(s.handle(b"set ephemeral 1 2\r\nx\r\n"), b"STORED\r\n");
            assert_eq!(
                s.handle(b"get ephemeral\r\n"),
                b"VALUE ephemeral 1\r\nx\r\nEND\r\n",
                "{isolation:?}: still alive after one tick"
            );
            let _ = s.handle(b"stats\r\n"); // tick
            assert_eq!(
                s.handle(b"get ephemeral\r\n"),
                b"END\r\n",
                "{isolation:?}: expired after TTL"
            );
        }
    }

    #[test]
    fn per_client_mode_serves_and_contains() {
        let mut s = server(Isolation::PerClient);
        let alice = ClientId(1);
        let mallory = ClientId(2);

        assert_eq!(s.handle_for(alice, b"set a 1\r\nx\r\n"), b"STORED\r\n");
        let attack = s.handle_for(mallory, b"xstat 8192 4\r\nboom\r\n");
        assert!(String::from_utf8_lossy(&attack).starts_with("SERVER_ERROR"));
        assert!(s.is_alive());

        // Alice's domain never rewound; Mallory's did.
        assert_eq!(s.client_domain_info(alice).unwrap().violations, 0);
        assert_eq!(s.client_domain_info(mallory).unwrap().violations, 1);
        // And Alice is served normally afterwards.
        assert_eq!(
            s.handle_for(alice, b"get a\r\n"),
            b"VALUE a 1\r\nx\r\nEND\r\n"
        );
    }

    #[test]
    fn per_client_mode_multiplexes_many_clients() {
        let mut s = server(Isolation::PerClient);
        for i in 0..100u64 {
            let response = s.handle_for(ClientId(i), b"set shared 2\r\nok\r\n");
            assert_eq!(response, b"STORED\r\n", "client {i}");
        }
        // At most the pool budget of domains exists despite 100 clients.
        let stats = s.stats();
        assert_eq!(stats.requests, 100);
    }

    #[test]
    fn marginal_overflow_inside_rounding_slack_escapes_detection() {
        // Canary detection is not magic: an overflow that stays within the
        // allocator's 16-byte rounding slack is invisible — matching real
        // heap-canary semantics. Documented limitation.
        let mut s = server(Isolation::Domain);
        let response = s.handle(b"xstat 6 4\r\nblob\r\n");
        let text = String::from_utf8_lossy(&response);
        assert!(
            text.starts_with("STAT"),
            "slack overflow undetected: {text}"
        );
        assert!(s.is_alive());
    }
}
