//! The recovery-escalation ladder: consecutive faults in the same
//! domain escalate domain rewind → pool discard/rebuild → worker
//! restart.
//!
//! Per-client domains make "the same domain" mean "the same client on
//! the same shard": a client whose requests keep faulting is either a
//! deliberate attacker or a poisoned input loop, and rewinding the same
//! domain forever pays the (cheap) rewind without ever clearing the
//! cause. The ladder answers each fault with the *cheapest rung that
//! has not already failed*: rewinds first; after a configured run of
//! consecutive faults a pool discard/rebuild (fresh domains, fresh
//! heaps, application state intact); after repeated rebuilds a full
//! worker restart. A normally-served request from the client resets its
//! run — recovery worked — and the per-shard rebuild count resets after
//! a restart.

use std::collections::BTreeMap;

/// One rung of the ladder, cheapest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecoveryRung {
    /// Rewind the faulting domain in-process (microseconds, constant in
    /// state size).
    Rewind,
    /// Discard and rebuild the worker's whole domain pool — every
    /// pooled domain is torn down and re-created, but application state
    /// outside the domains survives.
    PoolRebuild,
    /// Restart the worker outright: fixed startup cost plus the state
    /// reload, exactly the baseline's crash.
    WorkerRestart,
}

/// Ladder thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LadderParams {
    /// Consecutive faults in one domain (client × shard) that trigger a
    /// pool discard/rebuild instead of another rewind.
    pub pool_after: u32,
    /// Pool rebuilds on one shard that trigger a worker restart instead
    /// of another rebuild.
    pub restart_after_rebuilds: u32,
}

impl Default for LadderParams {
    fn default() -> Self {
        LadderParams {
            pool_after: 4,
            restart_after_rebuilds: 2,
        }
    }
}

/// The ladder state machine: deterministic, allocation-bounded (prune
/// with [`reset_client`](Self::reset_client) on client forgiveness).
#[derive(Debug, Clone, Default)]
pub struct EscalationLadder {
    params: LadderParams,
    /// Consecutive-fault run per (shard, client) domain.
    runs: BTreeMap<(usize, u64), u32>,
    /// Pool rebuilds per shard since that shard's last worker restart.
    rebuilds: BTreeMap<usize, u32>,
}

impl EscalationLadder {
    /// A ladder with the given thresholds.
    #[must_use]
    pub fn new(params: LadderParams) -> Self {
        EscalationLadder {
            params,
            ..Self::default()
        }
    }

    /// One fault in `client`'s domain on `shard`: returns the rung to
    /// execute. The rewind itself has already happened (the isolation
    /// substrate rewinds unconditionally); [`RecoveryRung::Rewind`]
    /// means *no further action*, the other rungs instruct the caller
    /// to discard the pool or restart the worker.
    pub fn on_fault(&mut self, shard: usize, client: u64) -> RecoveryRung {
        let run = self.runs.entry((shard, client)).or_insert(0);
        *run += 1;
        if *run < self.params.pool_after.max(1) {
            return RecoveryRung::Rewind;
        }
        // The domain keeps faulting: this rung resets the run (the
        // rebuilt pool is a fresh start for the domain)…
        *run = 0;
        let rebuilds = self.rebuilds.entry(shard).or_insert(0);
        *rebuilds += 1;
        if *rebuilds < self.params.restart_after_rebuilds.max(1) {
            return RecoveryRung::PoolRebuild;
        }
        // …and repeated rebuilds exhaust the shard's credit: restart.
        *rebuilds = 0;
        RecoveryRung::WorkerRestart
    }

    /// A normally-served request for `client` on `shard`: its domain
    /// recovered, the consecutive run resets.
    pub fn on_ok(&mut self, shard: usize, client: u64) {
        self.runs.remove(&(shard, client));
    }

    /// Forgets a client entirely (reputation decay / pruning).
    pub fn reset_client(&mut self, client: u64) {
        self.runs.retain(|&(_, c), _| c != client);
    }

    /// Current consecutive-fault run for a domain (observability).
    #[must_use]
    pub fn run_of(&self, shard: usize, client: u64) -> u32 {
        self.runs.get(&(shard, client)).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ladder() -> EscalationLadder {
        EscalationLadder::new(LadderParams {
            pool_after: 3,
            restart_after_rebuilds: 2,
        })
    }

    #[test]
    fn rewind_first_then_pool_then_restart() {
        let mut ladder = ladder();
        let mut rungs = Vec::new();
        for _ in 0..12 {
            rungs.push(ladder.on_fault(0, 7));
        }
        assert_eq!(
            rungs,
            vec![
                RecoveryRung::Rewind,
                RecoveryRung::Rewind,
                RecoveryRung::PoolRebuild, // 3 consecutive
                RecoveryRung::Rewind,
                RecoveryRung::Rewind,
                RecoveryRung::WorkerRestart, // 2nd rebuild escalates
                RecoveryRung::Rewind,
                RecoveryRung::Rewind,
                RecoveryRung::PoolRebuild, // restart reset the credit
                RecoveryRung::Rewind,
                RecoveryRung::Rewind,
                RecoveryRung::WorkerRestart,
            ],
            "cheapest rung first, each rung only after the one below failed"
        );
    }

    #[test]
    fn a_served_request_resets_the_run() {
        let mut ladder = ladder();
        assert_eq!(ladder.on_fault(0, 1), RecoveryRung::Rewind);
        assert_eq!(ladder.on_fault(0, 1), RecoveryRung::Rewind);
        ladder.on_ok(0, 1);
        // The run restarts: two more rewinds before any escalation.
        assert_eq!(ladder.on_fault(0, 1), RecoveryRung::Rewind);
        assert_eq!(ladder.on_fault(0, 1), RecoveryRung::Rewind);
        assert_eq!(ladder.on_fault(0, 1), RecoveryRung::PoolRebuild);
    }

    #[test]
    fn runs_are_per_domain_not_per_shard() {
        let mut ladder = ladder();
        // Two clients interleaving on one shard: neither's run advances
        // the other's.
        for _ in 0..2 {
            assert_eq!(ladder.on_fault(0, 1), RecoveryRung::Rewind);
            assert_eq!(ladder.on_fault(0, 2), RecoveryRung::Rewind);
        }
        assert_eq!(ladder.run_of(0, 1), 2);
        assert_eq!(ladder.run_of(0, 2), 2);
        // And the same client on another shard is another domain.
        assert_eq!(ladder.on_fault(1, 1), RecoveryRung::Rewind);
        assert_eq!(ladder.run_of(1, 1), 1);
    }

    #[test]
    fn rebuild_credit_is_per_shard() {
        let mut ladder = ladder();
        for _ in 0..3 {
            let _ = ladder.on_fault(0, 1);
        }
        for _ in 0..3 {
            let _ = ladder.on_fault(1, 2);
        }
        // Each shard has one rebuild; neither restarts yet.
        assert_eq!(ladder.on_fault(0, 1), RecoveryRung::Rewind);
        assert_eq!(ladder.on_fault(1, 2), RecoveryRung::Rewind);
    }
}
