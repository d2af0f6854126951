//! Per-worker isolation state: a thread-confined `DomainManager` plus a
//! `DomainPool` mapping the worker's clients onto its domains.
//!
//! MPK protection keys and the PKRU register are per-thread state on real
//! hardware, so the runtime gives **each worker its own manager** instead
//! of sharing one behind a lock: the request hot path takes no locks, and
//! a worker's rewinds never serialize against another worker's traffic.

use sdrad::{
    ClientId, DomainConfig, DomainEnv, DomainError, DomainManager, DomainPolicy, DomainPool, Fault,
};

/// Whether a worker contains faults with per-client domains or runs the
/// unprotected baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IsolationMode {
    /// No isolation: the planted bugs crash the worker's server, which
    /// then pays the full modeled restart cost (the paper's baseline).
    Baseline,
    /// SDRaD per-client domains: each client's requests run in that
    /// client's pooled domain; faults rewind in microseconds.
    PerClientDomain,
}

/// The isolation context one worker owns.
#[derive(Debug)]
pub struct WorkerIsolation {
    mode: IsolationMode,
    mgr: DomainManager,
    pool: DomainPool,
    /// The pool template, kept so the control plane's escalation rungs
    /// can discard and rebuild the pool (or the whole context).
    template: DomainConfig,
    max_domains: usize,
    /// Rewinds performed by managers retired by
    /// [`restart_worker`](Self::restart_worker) — the reconciliation
    /// invariant (`contained_faults == manager rewinds`) must survive a
    /// ladder-driven restart.
    retired_rewinds: u64,
    /// Domains created by pools retired by rebuild/restart rungs.
    retired_domains: usize,
}

impl WorkerIsolation {
    /// Builds the context for one worker: up to `domains` pooled domains
    /// of `heap_capacity` bytes each (clamped to the 14 keys a process
    /// can spare).
    #[must_use]
    pub fn new(mode: IsolationMode, domains: usize, heap_capacity: usize) -> Self {
        let template = DomainConfig::new("runtime-client")
            .heap_capacity(heap_capacity)
            .policy(DomainPolicy::Integrity);
        WorkerIsolation {
            mode,
            mgr: DomainManager::new(),
            pool: DomainPool::new(template.clone(), domains),
            template,
            max_domains: domains,
            retired_rewinds: 0,
            retired_domains: 0,
        }
    }

    /// The pool-rebuild rung of the recovery-escalation ladder: the old
    /// pool's domains are destroyed on the spot (their keys return to
    /// the manager) and a fresh, empty pool takes their place. Client →
    /// domain assignments are forgotten; the manager — and its rewind
    /// book — survives. A real 8-domain rebuild costs a few µs, so it
    /// runs inline on the worker that decided it.
    pub fn rebuild_pool(&mut self) {
        self.retired_domains += self.pool.domains_created();
        // The rung runs between calls: every pooled domain belongs to
        // this manager and none is active, so no destroy fails.
        let _ = self.pool.shutdown(&mut self.mgr);
        self.pool = DomainPool::new(self.template.clone(), self.max_domains);
    }

    /// The worker-restart rung: the whole isolation context — manager,
    /// keys, pool — is discarded and rebuilt, exactly what a process
    /// restart would do. The retired manager's rewind count is retained
    /// so the reconciliation invariant keeps holding across restarts.
    pub fn restart_worker(&mut self) {
        self.retired_rewinds += self.mgr.total_rewinds();
        self.retired_domains += self.pool.domains_created();
        self.mgr = DomainManager::new();
        self.pool = DomainPool::new(self.template.clone(), self.max_domains);
    }

    /// The configured mode.
    #[must_use]
    pub fn mode(&self) -> IsolationMode {
        self.mode
    }

    /// True when faults are contained by domains.
    #[must_use]
    pub fn is_isolated(&self) -> bool {
        self.mode == IsolationMode::PerClientDomain
    }

    /// The trapping form of [`try_call_for`](Self::try_call_for).
    ///
    /// # Errors
    ///
    /// As [`try_call_for`](Self::try_call_for).
    pub fn call_for<R>(
        &mut self,
        client: ClientId,
        f: impl FnOnce(&mut DomainEnv<'_>) -> R,
    ) -> Result<R, DomainError> {
        self.try_call_for(client, |env| Ok(f(env)))
    }

    /// Runs `f` inside `client`'s domain (creating or multiplexing one
    /// via the pool). A fault `f` returns (or traps) rewinds the domain
    /// and surfaces as [`DomainError::Violation`].
    ///
    /// # Errors
    ///
    /// [`DomainError::Setup`] if no domain can be provided,
    /// [`DomainError::Violation`] when `f` faults and is rewound.
    pub fn try_call_for<R>(
        &mut self,
        client: ClientId,
        f: impl FnOnce(&mut DomainEnv<'_>) -> Result<R, Fault>,
    ) -> Result<R, DomainError> {
        let domain = self.pool.domain_for(&mut self.mgr, client)?;
        self.mgr.try_call(domain, f)
    }

    /// Total rewinds this worker's managers have performed — current
    /// manager plus any retired by a ladder-driven restart
    /// (cross-checked against the worker's own fault counter in
    /// `RuntimeStats`).
    #[must_use]
    pub fn rewinds(&self) -> u64 {
        self.retired_rewinds + self.mgr.total_rewinds()
    }

    /// Domains instantiated by this worker's pools (current plus pools
    /// retired by rebuild/restart rungs).
    #[must_use]
    pub fn domains_created(&self) -> usize {
        self.retired_domains + self.pool.domains_created()
    }

    /// Clients currently assigned to domains.
    #[must_use]
    pub fn clients_assigned(&self) -> usize {
        self.pool.clients_assigned()
    }

    /// Read access to the manager (violation counters, domain status).
    #[must_use]
    pub fn manager(&self) -> &DomainManager {
        &self.mgr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_client_faults_stay_in_their_domain() {
        let mut iso = WorkerIsolation::new(IsolationMode::PerClientDomain, 4, 64 * 1024);
        let alice = ClientId(1);
        let mallory = ClientId(2);

        let kept = iso
            .call_for(alice, |env| env.push_bytes(b"alice-state"))
            .unwrap();

        for _ in 0..5 {
            let crashed = iso.call_for(mallory, |env| {
                let block = env.push_bytes(b"x");
                env.free(block);
                env.free(block);
            });
            assert!(crashed.is_err());
        }

        let intact = iso.call_for(alice, |env| env.read_bytes(kept, 11)).unwrap();
        assert_eq!(intact, b"alice-state");
        assert_eq!(iso.rewinds(), 5);
        assert_eq!(iso.domains_created(), 2);
    }

    #[test]
    fn rebuild_and_restart_retain_the_books() {
        let mut iso = WorkerIsolation::new(IsolationMode::PerClientDomain, 4, 16 * 1024);
        let fault = |iso: &mut WorkerIsolation, client: u64| {
            let crashed = iso.call_for(ClientId(client), |env| {
                let block = env.push_bytes(b"x");
                env.free(block);
                env.free(block);
            });
            assert!(crashed.is_err());
        };
        fault(&mut iso, 1);
        fault(&mut iso, 2);
        assert_eq!(iso.rewinds(), 2);
        assert_eq!(iso.domains_created(), 2);

        // The pool rung forgets assignments but keeps the rewind book.
        iso.rebuild_pool();
        assert_eq!(iso.clients_assigned(), 0, "assignments forgotten");
        assert_eq!(iso.rewinds(), 2, "rewind book survives");
        fault(&mut iso, 1);
        assert_eq!(iso.rewinds(), 3);
        assert_eq!(iso.domains_created(), 3, "fresh pool, new domain");

        // The restart rung discards the manager too; the books persist.
        iso.restart_worker();
        assert_eq!(iso.rewinds(), 3);
        fault(&mut iso, 9);
        assert_eq!(iso.rewinds(), 4);
        assert!(iso
            .call_for(ClientId(9), |env| env.push_bytes(b"alive"))
            .is_ok());
    }

    #[test]
    fn back_to_back_rebuilds_keep_a_domain_per_client() {
        // Two rebuilds of a full pool in a row, then as many new clients
        // as the pool holds: each gets its own domain, because every
        // rebuild returned its keys before the next client arrived (two
        // full 8-domain pools alone would need 16 of the 15 keys).
        let mut iso = WorkerIsolation::new(IsolationMode::PerClientDomain, 8, 16 * 1024);
        let serve = |iso: &mut WorkerIsolation, clients: std::ops::Range<u64>| {
            for i in clients {
                iso.call_for(ClientId(i), |_| ()).unwrap();
            }
        };
        serve(&mut iso, 0..8);
        iso.rebuild_pool();
        serve(&mut iso, 8..16);
        iso.rebuild_pool();
        serve(&mut iso, 16..24);
        assert_eq!(iso.domains_created(), 24, "8 dedicated domains per pool");
        assert_eq!(iso.manager().domains().len(), 8);
        assert_eq!(iso.clients_assigned(), 8);
    }

    #[test]
    fn sticky_assignment_reuses_the_same_domain() {
        let mut iso = WorkerIsolation::new(IsolationMode::PerClientDomain, 2, 16 * 1024);
        for _ in 0..10 {
            iso.call_for(ClientId(9), |_| ()).unwrap();
        }
        assert_eq!(iso.domains_created(), 1);
        assert_eq!(iso.clients_assigned(), 1);
    }
}
