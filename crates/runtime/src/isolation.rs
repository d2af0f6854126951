//! Per-worker isolation state: a thread-confined `DomainManager` plus a
//! `DomainPool` mapping the worker's clients onto its domains.
//!
//! MPK protection keys and the PKRU register are per-thread state on real
//! hardware, so the runtime gives **each worker its own manager** instead
//! of sharing one behind a lock: the request hot path takes no locks, and
//! a worker's rewinds never serialize against another worker's traffic.

use std::collections::VecDeque;

use sdrad::{
    ClientId, DomainConfig, DomainEnv, DomainError, DomainManager, DomainPolicy, DomainPool,
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
    /// Pools replaced by [`rebuild_pool_deferred`] whose domains are
    /// still being torn down incrementally by [`reclaim_step`]. Oldest
    /// first — reclamation drains in retirement order.
    ///
    /// [`rebuild_pool_deferred`]: Self::rebuild_pool_deferred
    /// [`reclaim_step`]: Self::reclaim_step
    deferred: VecDeque<DomainPool>,
    /// Monotonic pool identity: bumped by every rebuild and every
    /// restart. A published read view stamped with an older
    /// generation is stale and must be republished.
    pool_generation: u64,
    /// Domains handed to teardown by rebuild/restart rungs — the
    /// retire side of the `retired == reclaimed + pending` law.
    hz_retired: u64,
    /// Domains actually torn down (by reclaim steps, or with their
    /// manager on a restart).
    hz_reclaimed: u64,
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
            deferred: VecDeque::new(),
            pool_generation: 0,
            hz_retired: 0,
            hz_reclaimed: 0,
        }
    }

    /// The pool-rebuild rung of the recovery-escalation ladder, zero
    /// pause: publish a fresh (empty) pool, *retire* the old one onto
    /// the deferred list, and tear its domains down incrementally via
    /// [`reclaim_step`](Self::reclaim_step) instead of inside the
    /// serving path. Client → domain assignments are forgotten; the
    /// manager — and its rewind book — survives. The publish itself is
    /// pointer-scale work; one domain is reclaimed eagerly so the fresh
    /// pool always has key headroom (hardware keys are the scarce
    /// resource the old pool is still holding).
    pub fn rebuild_pool_deferred(&mut self) {
        let retired = self.pool.domains_created();
        self.retired_domains += retired;
        self.hz_retired += retired as u64;
        let fresh = DomainPool::new(self.template.clone(), self.max_domains);
        let old = std::mem::replace(&mut self.pool, fresh);
        if old.domains_created() > 0 {
            self.deferred.push_back(old);
        }
        self.pool_generation += 1;
        // Eager first step: free one key now, so the fresh pool can
        // create its first domain even when the retired pools hold the
        // rest (DomainPool degrades to multiplexing from one domain).
        self.reclaim_step(1);
    }

    /// Tears down up to `budget` domains from the retired pools (oldest
    /// pool first) and returns how many went. The amortized half of
    /// [`rebuild_pool_deferred`](Self::rebuild_pool_deferred): workers
    /// call this once per pump pass, so a rebuild's teardown cost is
    /// spread across passes instead of spiking one request's latency.
    /// Cheap no-op when nothing is pending.
    pub fn reclaim_step(&mut self, budget: usize) -> usize {
        let mut torn_down = 0;
        while torn_down < budget {
            let Some(pool) = self.deferred.front_mut() else {
                break;
            };
            let went = pool.teardown_some(&mut self.mgr, budget - torn_down);
            torn_down += went;
            if pool.domains_created() == 0 {
                self.deferred.pop_front();
            } else if went == 0 {
                break;
            }
        }
        self.hz_reclaimed += torn_down as u64;
        torn_down
    }

    /// The worker-restart rung: the whole isolation context — manager,
    /// keys, pool — is discarded and rebuilt, exactly what a process
    /// restart would do. The retired manager's rewind count is retained
    /// so the reconciliation invariant keeps holding across restarts.
    /// Deferred pools die with the manager that owns their domains, so
    /// their pending teardowns are booked as reclaimed here.
    pub fn restart_worker(&mut self) {
        self.retired_rewinds += self.mgr.total_rewinds();
        self.retired_domains += self.pool.domains_created();
        let torn_down = self.pool.domains_created() + self.pending_domains();
        self.hz_retired += self.pool.domains_created() as u64;
        self.hz_reclaimed += torn_down as u64;
        self.deferred.clear();
        self.mgr = DomainManager::new();
        self.pool = DomainPool::new(self.template.clone(), self.max_domains);
        self.pool_generation += 1;
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

    /// Runs `f` inside `client`'s domain (creating or multiplexing one
    /// via the pool). Faults inside `f` rewind the domain and surface as
    /// [`DomainError::Violation`].
    ///
    /// # Errors
    ///
    /// [`DomainError::Setup`] if no domain can be provided,
    /// [`DomainError::Violation`] when `f` faults and is rewound.
    pub fn call_for<R>(
        &mut self,
        client: ClientId,
        f: impl FnOnce(&mut DomainEnv<'_>) -> R,
    ) -> Result<R, DomainError> {
        let domain = self.pool.domain_for(&mut self.mgr, client)?;
        self.mgr.call(domain, f)
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

    /// Monotonic pool identity (bumped by every rebuild and restart) —
    /// the staleness stamp a published read view carries.
    #[must_use]
    pub fn pool_generation(&self) -> u64 {
        self.pool_generation
    }

    /// Domains handed to teardown by rebuild/restart rungs.
    #[must_use]
    pub fn domains_retired(&self) -> u64 {
        self.hz_retired
    }

    /// Domains actually torn down (reclaim steps, plus restarts that
    /// discard the manager owning them).
    #[must_use]
    pub fn domains_reclaimed(&self) -> u64 {
        self.hz_reclaimed
    }

    /// Domains still alive inside retired pools, awaiting reclaim
    /// steps.
    #[must_use]
    pub fn pending_domains(&self) -> usize {
        self.deferred.iter().map(DomainPool::domains_created).sum()
    }

    /// The deferred lifecycle's conservation law: every retired domain
    /// is either reclaimed or still pending — nothing lost, nothing
    /// double-counted.
    #[must_use]
    pub fn reclaim_conserves(&self) -> bool {
        self.hz_retired == self.hz_reclaimed + self.pending_domains() as u64
    }

    /// Read access to the manager (violation counters, event log).
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
        iso.rebuild_pool_deferred();
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
    fn deferred_rebuild_keeps_serving_and_conserves() {
        let mut iso = WorkerIsolation::new(IsolationMode::PerClientDomain, 4, 16 * 1024);
        for i in 0..4 {
            iso.call_for(ClientId(i), |_| ()).unwrap();
        }
        assert_eq!(iso.pool_generation(), 0);

        iso.rebuild_pool_deferred();
        assert_eq!(iso.pool_generation(), 1);
        // The eager step reclaimed one domain; the rest stay pending.
        assert_eq!(iso.domains_retired(), 4);
        assert_eq!(iso.domains_reclaimed(), 1);
        assert_eq!(iso.pending_domains(), 3);
        assert!(iso.reclaim_conserves());

        // The fresh pool serves immediately — the freed key is its
        // headroom even while retired pools hold the others.
        iso.call_for(ClientId(77), |_| ()).unwrap();

        // Amortized steps drain the rest; the law holds at every step.
        while iso.reclaim_step(2) > 0 {
            assert!(iso.reclaim_conserves());
        }
        assert_eq!(iso.pending_domains(), 0);
        assert_eq!(iso.domains_reclaimed(), 4);
        assert!(iso.reclaim_conserves());
    }

    #[test]
    fn restart_closes_the_deferred_books() {
        let mut iso = WorkerIsolation::new(IsolationMode::PerClientDomain, 3, 16 * 1024);
        for i in 0..3 {
            iso.call_for(ClientId(i), |_| ()).unwrap();
        }
        iso.rebuild_pool_deferred();
        iso.call_for(ClientId(9), |_| ()).unwrap();
        assert!(iso.pending_domains() > 0);

        iso.restart_worker();
        assert_eq!(
            iso.pending_domains(),
            0,
            "deferred pools die with the manager that owns their domains"
        );
        assert_eq!(iso.domains_retired(), iso.domains_reclaimed());
        assert!(iso.reclaim_conserves());
    }

    #[test]
    fn back_to_back_deferred_rebuilds_queue_in_retirement_order() {
        let mut iso = WorkerIsolation::new(IsolationMode::PerClientDomain, 2, 16 * 1024);
        iso.call_for(ClientId(1), |_| ()).unwrap();
        iso.rebuild_pool_deferred();
        iso.call_for(ClientId(2), |_| ()).unwrap();
        iso.call_for(ClientId(3), |_| ()).unwrap();
        iso.rebuild_pool_deferred();
        assert_eq!(iso.pool_generation(), 2);
        assert!(iso.reclaim_conserves());

        while iso.reclaim_step(1) > 0 {}
        assert_eq!(iso.pending_domains(), 0);
        assert!(iso.reclaim_conserves());
        assert_eq!(iso.domains_retired(), iso.domains_reclaimed());
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
