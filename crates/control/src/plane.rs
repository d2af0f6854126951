//! The closed control loop: reputation-gated admission, per-class
//! latency-target shedding, and the recovery-escalation ladder — every
//! decision logged, counted and billed at the moment it is made.

use std::collections::VecDeque;
use std::time::Duration;

use sdrad_energy::decisions::{RecoveryBill, RecoveryRung, RungModels};
use sdrad_energy::power::PowerModel;

use crate::ladder::{EscalationLadder, LadderParams};
use crate::reputation::{ReputationBook, ReputationParams, Standing};
use crate::shedding::{CodelShedder, ShedParams};

/// Configuration of one control plane. `Copy`, so runtime configs that
/// embed it stay `Copy`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlConfig {
    /// Reputation scoring and standing thresholds.
    pub reputation: ReputationParams,
    /// Latency-target shedding for good-standing (benign) traffic.
    pub benign_shed: ShedParams,
    /// Latency-target shedding for throttled/quarantined (suspect)
    /// traffic — typically a much tighter target, so attack overload
    /// sheds first.
    pub suspect_shed: ShedParams,
    /// Escalation-ladder thresholds.
    pub ladder: LadderParams,
}

impl Default for ControlConfig {
    fn default() -> Self {
        ControlConfig {
            reputation: ReputationParams::default(),
            benign_shed: ShedParams {
                target_ns: 50_000_000, // generous: benign sheds are a last resort
                ..ShedParams::default()
            },
            suspect_shed: ShedParams {
                target_ns: 2_000_000, // tight: hostile pressure sheds early
                ..ShedParams::default()
            },
            ladder: LadderParams::default(),
        }
    }
}

/// What admission decided for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Admit to the client's sticky shard.
    Admit,
    /// Shed: the client is throttled and its token bucket is empty.
    ShedThrottle,
    /// Shed: the client's class is over its latency target (CoDel).
    ShedOverload,
    /// Admit, but route to the sacrificial blast-pit shard.
    Quarantine,
    /// Refuse outright: the client is banned.
    Deny,
}

/// One entry of the decision log (the determinism oracle: same event
/// sequence ⇒ identical log).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecisionRecord {
    /// Logical time of the decision, nanoseconds.
    pub now_ns: u64,
    /// The client the decision concerns.
    pub client: u64,
    /// What was decided.
    pub decision: Decision,
}

/// Every decision family the plane makes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// An admission-control decision.
    Admission(Admission),
    /// An escalation-ladder decision (on a fault).
    Ladder(RecoveryRung),
    /// A telemetry-evidence decision: this many trace-observed faults
    /// arrived as one windowed spike from the streaming collector and
    /// were scored against the client.
    Evidence(u64),
}

/// Decision counts per family — the "counted" side of the books.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DecisionCounts {
    /// Requests admitted normally.
    pub admits: u64,
    /// Requests shed by a throttled client's empty bucket.
    pub throttle_sheds: u64,
    /// Requests shed by the latency-target controllers.
    pub overload_sheds: u64,
    /// Requests admitted into quarantine (blast-pit routing).
    pub quarantines: u64,
    /// Requests refused by a ban.
    pub denies: u64,
    /// Ladder decisions that stopped at the rewind rung.
    pub rewinds: u64,
    /// Ladder decisions that escalated to a pool rebuild.
    pub pool_rebuilds: u64,
    /// Ladder decisions that escalated to a worker restart.
    pub worker_restarts: u64,
    /// Telemetry-evidence decisions (windowed fault spikes scored).
    pub evidence: u64,
}

impl DecisionCounts {
    /// Total decisions across every family.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.admits
            + self.throttle_sheds
            + self.overload_sheds
            + self.quarantines
            + self.denies
            + self.rewinds
            + self.pool_rebuilds
            + self.worker_restarts
            + self.evidence
    }

    /// Admission decisions that refused work (any reason).
    #[must_use]
    pub fn refused(&self) -> u64 {
        self.throttle_sheds + self.overload_sheds + self.denies
    }
}

/// The closed-loop control plane. Deterministic and clock-injected:
/// every method takes logical nanoseconds; the plane never reads a
/// clock, so the decision stream is a pure function of the (event,
/// tick) sequence.
#[derive(Debug, Clone)]
pub struct ControlPlane {
    config: ControlConfig,
    book: ReputationBook,
    benign: CodelShedder,
    suspect: CodelShedder,
    ladder: EscalationLadder,
    models: RungModels,
    bill: RecoveryBill,
    counts: DecisionCounts,
    /// The retained tail of the decision log (a ring bounded at
    /// [`LOG_RETAIN`]; `logged` keeps the total so the books still
    /// balance on long runs).
    log: VecDeque<DecisionRecord>,
    /// Decisions logged over the plane's lifetime.
    logged: u64,
    /// Last tick that ran the (O(tracked clients)) prune.
    pruned_at_ns: u64,
}

/// Decision-log records retained in memory. The log is an audit tail
/// and a determinism oracle, not an accounting structure — the counts
/// and bills are the books — so a long-lived plane keeps only the most
/// recent window instead of one record per request forever.
const LOG_RETAIN: usize = 65_536;

impl ControlPlane {
    /// A plane with the paper-calibrated rung models.
    #[must_use]
    pub fn new(config: ControlConfig) -> Self {
        Self::with_models(config, RungModels::calibrated())
    }

    /// A plane billing rungs through the given models (e.g. a measured
    /// rewind latency).
    #[must_use]
    pub fn with_models(config: ControlConfig, models: RungModels) -> Self {
        ControlPlane {
            config,
            book: ReputationBook::new(config.reputation),
            benign: CodelShedder::new(config.benign_shed),
            suspect: CodelShedder::new(config.suspect_shed),
            ladder: EscalationLadder::new(config.ladder),
            models,
            bill: RecoveryBill::default(),
            counts: DecisionCounts::default(),
            log: VecDeque::new(),
            logged: 0,
            pruned_at_ns: 0,
        }
    }

    fn log(&mut self, now_ns: u64, client: u64, decision: Decision) {
        if self.log.len() >= LOG_RETAIN {
            self.log.pop_front();
        }
        self.log.push_back(DecisionRecord {
            now_ns,
            client,
            decision,
        });
        self.logged += 1;
    }

    /// Admission control for one request from `client` at `now_ns`.
    pub fn admit(&mut self, client: u64, now_ns: u64) -> Admission {
        let standing = self.book.standing(client, now_ns);
        let decision = match standing {
            Standing::Banned => Admission::Deny,
            Standing::Quarantined => {
                if self.suspect.offer(now_ns) {
                    Admission::ShedOverload
                } else {
                    Admission::Quarantine
                }
            }
            Standing::Throttled => {
                // Overload check first: a request the CoDel controller
                // sheds anyway must not burn a trickle token — the
                // token bucket is the evidence channel that keeps a
                // throttled attacker's score honest, and draining it
                // on never-admitted requests would starve it.
                if self.suspect.offer(now_ns) {
                    Admission::ShedOverload
                } else if !self.book.take_token(client, now_ns) {
                    Admission::ShedThrottle
                } else {
                    Admission::Admit
                }
            }
            Standing::Good => {
                if self.benign.offer(now_ns) {
                    Admission::ShedOverload
                } else {
                    Admission::Admit
                }
            }
        };
        match decision {
            Admission::Admit => self.counts.admits += 1,
            Admission::ShedThrottle => self.counts.throttle_sheds += 1,
            Admission::ShedOverload => self.counts.overload_sheds += 1,
            Admission::Quarantine => self.counts.quarantines += 1,
            Admission::Deny => self.counts.denies += 1,
        }
        self.log(now_ns, client, Decision::Admission(decision));
        decision
    }

    /// One normally-served request: feeds the benign (or suspect, for
    /// clients in bad standing) latency window and resets the client's
    /// ladder run on that shard.
    pub fn observe_ok(&mut self, shard: usize, client: u64, latency_ns: u64, now_ns: u64) {
        if self.book.standing(client, now_ns) == Standing::Good {
            self.benign.record(latency_ns);
        } else {
            self.suspect.record(latency_ns);
        }
        self.book.observe_ok(client, now_ns);
        self.ladder.on_ok(shard, client);
    }

    /// One fault attributed to `client` on `shard` (contained fault,
    /// secret leak, or crash): bumps the reputation score, feeds the
    /// suspect latency window, and climbs the escalation ladder.
    /// Returns the rung the caller must execute — [`RecoveryRung`]
    /// escalations are billed here, at decision time, with the caller's
    /// `state_bytes`/`domains` sizing the restart and rebuild bills.
    pub fn observe_fault(
        &mut self,
        shard: usize,
        client: u64,
        latency_ns: u64,
        now_ns: u64,
        state_bytes: u64,
        domains: u32,
    ) -> RecoveryRung {
        self.book.observe_fault(client, now_ns);
        self.suspect.record(latency_ns);
        let rung = self.ladder.on_fault(shard, client);
        match rung {
            RecoveryRung::Rewind => self.counts.rewinds += 1,
            RecoveryRung::PoolRebuild => self.counts.pool_rebuilds += 1,
            RecoveryRung::WorkerRestart => self.counts.worker_restarts += 1,
        }
        self.bill.bill(&self.models, rung, state_bytes, domains);
        self.log(now_ns, client, Decision::Ladder(rung));
        rung
    }

    /// Telemetry-side corroborating evidence against `client`: `faults`
    /// trace-observed faults arriving as one windowed spike from the
    /// streaming collector. Scored into the reputation book with the
    /// same decay as per-request faults (see
    /// [`ReputationBook::observe_evidence`]); counted and logged like
    /// every other decision, so the books still reconcile. A zero-fault
    /// report is a no-op — not a decision, not logged.
    pub fn observe_evidence(&mut self, client: u64, faults: u64, now_ns: u64) {
        if faults == 0 {
            return;
        }
        self.book.observe_evidence(client, faults, now_ns);
        self.counts.evidence += 1;
        self.log(now_ns, client, Decision::Evidence(faults));
    }

    /// One control-loop tick: prunes decayed reputation records (the
    /// memory bound for long runs). Wired into the runtime's wake
    /// machinery; harmless to call at any cadence — the
    /// O(tracked clients) prune actually runs at most once per
    /// reputation half-life, so a hot runtime ticking every wake pass
    /// pays a counter compare, not a map walk, per pass.
    pub fn tick(&mut self, now_ns: u64) {
        let cadence = self.config.reputation.half_life_ns.max(1);
        if now_ns.saturating_sub(self.pruned_at_ns) < cadence {
            return;
        }
        self.pruned_at_ns = now_ns;
        // Forgiveness cascades: a client whose score decayed to noise
        // also sheds its escalation-ladder runs (fresh evidence starts
        // a fresh run).
        for client in self.book.prune(now_ns) {
            self.ladder.reset_client(client);
        }
    }

    /// The client's current standing (observability).
    #[must_use]
    pub fn standing(&self, client: u64, now_ns: u64) -> Standing {
        self.book.standing(client, now_ns)
    }

    /// The configuration this plane was built with.
    #[must_use]
    pub fn config(&self) -> &ControlConfig {
        &self.config
    }

    /// The retained tail of the decision log, oldest first (the
    /// determinism oracle; bounded — long runs keep the most recent
    /// 65 536 decisions).
    #[must_use]
    pub fn decision_log(&self) -> Vec<DecisionRecord> {
        self.log.iter().copied().collect()
    }

    /// Closes the books: counts, bill, quarantine/ban history and the
    /// modeled energy delta versus restart-only recovery.
    #[must_use]
    pub fn report(&self, power: &PowerModel) -> ControlReport {
        ControlReport {
            counts: self.counts,
            bill: self.bill,
            log_len: self.logged,
            quarantined_clients: self.book.ever_quarantined(),
            banned_clients: self.book.ever_banned(),
            benign_p99_ns: self.benign.p99(),
            suspect_p99_ns: self.suspect.p99(),
            ladder_energy_j: self.bill.energy_joules(power),
            restart_only_energy_j: self.bill.restart_only_energy_joules(power),
        }
    }
}

/// Everything a finished run's control plane decided, counted and
/// billed.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlReport {
    /// Decision counts per family (the "counted" side).
    pub counts: DecisionCounts,
    /// The per-rung recovery bill (the "billed" side).
    pub bill: RecoveryBill,
    /// Decisions logged over the run (every count above was logged;
    /// the in-memory log retains only the most recent window).
    pub log_len: u64,
    /// Clients that ever reached quarantine, ascending.
    pub quarantined_clients: Vec<u64>,
    /// Clients that ever reached a ban, ascending.
    pub banned_clients: Vec<u64>,
    /// Final benign-class window p99 (None if the window never filled).
    pub benign_p99_ns: Option<u64>,
    /// Final suspect-class window p99.
    pub suspect_p99_ns: Option<u64>,
    /// Modeled recovery energy of the ladder policy, joules.
    pub ladder_energy_j: f64,
    /// Modeled recovery energy of restart-only recovery on the same
    /// faults, joules.
    pub restart_only_energy_j: f64,
}

impl ControlReport {
    /// The books-balance invariant: every ladder decision counted was
    /// billed exactly once (per rung), and every decision of any family
    /// appears in the log exactly once.
    #[must_use]
    pub fn reconciles(&self) -> bool {
        self.bill.rewinds == self.counts.rewinds
            && self.bill.pool_rebuilds == self.counts.pool_rebuilds
            && self.bill.worker_restarts == self.counts.worker_restarts
            && self.log_len == self.counts.total()
    }

    /// Modeled recovery energy saved versus restart-only recovery,
    /// joules (positive whenever any fault stopped below the restart
    /// rung).
    #[must_use]
    pub fn energy_saved_j(&self) -> f64 {
        self.restart_only_energy_j - self.ladder_energy_j
    }

    /// Modeled recovery time saved versus restart-only recovery.
    #[must_use]
    pub fn time_saved(&self) -> Duration {
        self.bill.time_saved()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    fn plane() -> ControlPlane {
        ControlPlane::new(ControlConfig::default())
    }

    #[test]
    fn benign_traffic_is_admitted_and_never_escalates() {
        let mut plane = plane();
        for i in 0..5_000u64 {
            let client = i % 20;
            let now = i * MS / 10;
            assert_eq!(plane.admit(client, now), Admission::Admit);
            plane.observe_ok((client % 4) as usize, client, 50_000, now);
        }
        let report = plane.report(&PowerModel::rack_server());
        assert_eq!(report.counts.admits, 5_000);
        assert_eq!(report.counts.refused(), 0);
        assert!(report.banned_clients.is_empty());
        assert!(report.quarantined_clients.is_empty());
        assert_eq!(report.bill.decisions(), 0);
        assert!(report.reconciles());
    }

    #[test]
    fn a_repeat_offender_climbs_standings_and_rungs() {
        let mut plane = plane();
        let mut now = 0u64;
        let mut denied = false;
        for _ in 0..200 {
            now += MS / 10;
            match plane.admit(666, now) {
                Admission::Deny => {
                    denied = true;
                    break;
                }
                Admission::ShedThrottle | Admission::ShedOverload => {}
                Admission::Admit | Admission::Quarantine => {
                    // Every admitted request faults (a pure attacker).
                    plane.observe_fault(0, 666, 200_000, now, 1 << 20, 8);
                }
            }
        }
        assert!(denied, "a pure attacker must eventually be banned");
        let report = plane.report(&PowerModel::rack_server());
        assert_eq!(report.banned_clients, vec![666]);
        assert_eq!(report.quarantined_clients, vec![666]);
        assert!(report.counts.rewinds > 0, "rewind rung engaged");
        assert!(report.counts.pool_rebuilds > 0, "pool rung engaged");
        assert!(report.counts.worker_restarts > 0, "restart rung engaged");
        assert!(
            report.counts.rewinds > report.counts.pool_rebuilds,
            "cheapest rung fires most"
        );
        assert!(report.energy_saved_j() > 0.0);
        assert!(report.reconciles());
    }

    #[test]
    fn decisions_are_a_pure_function_of_the_event_sequence() {
        let drive = || {
            let mut plane = plane();
            for i in 0..500u64 {
                let now = i * MS / 4;
                let client = i % 7;
                match plane.admit(client, now) {
                    Admission::Admit | Admission::Quarantine => {
                        if client == 3 {
                            plane.observe_fault(0, client, 150_000, now, 1 << 16, 4);
                        } else {
                            plane.observe_ok(0, client, 80_000, now);
                        }
                    }
                    _ => {}
                }
                plane.tick(now);
            }
            plane.decision_log()
        };
        assert_eq!(drive(), drive(), "identical inputs, identical decisions");
    }

    #[test]
    fn telemetry_evidence_accelerates_the_ban_and_still_reconciles() {
        // Two identical attack streams; one plane also receives the
        // trace-side spikes. The fed plane must deny strictly earlier.
        let drive = |telemetry_fed: bool| {
            let mut plane = plane();
            let mut now = 0u64;
            let mut faults_before_deny = 0u64;
            let mut pending_spike = 0u64;
            for _ in 0..400 {
                now += MS / 10;
                match plane.admit(666, now) {
                    Admission::Deny => break,
                    Admission::Admit | Admission::Quarantine => {
                        plane.observe_fault(0, 666, 200_000, now, 1 << 20, 8);
                        faults_before_deny += 1;
                        pending_spike += 1;
                        // The collector reports windowed spikes of 4.
                        if telemetry_fed && pending_spike >= 4 {
                            plane.observe_evidence(666, pending_spike, now);
                            pending_spike = 0;
                        }
                    }
                    Admission::ShedThrottle | Admission::ShedOverload => {}
                }
            }
            let report = plane.report(&PowerModel::rack_server());
            assert!(report.reconciles(), "evidence is counted and logged");
            (faults_before_deny, report)
        };
        let (books_only, baseline) = drive(false);
        let (fed, fed_report) = drive(true);
        assert!(baseline.counts.evidence == 0);
        assert!(fed_report.counts.evidence > 0);
        assert_eq!(fed_report.banned_clients, vec![666]);
        assert!(
            fed < books_only,
            "telemetry-fed admission must ban earlier ({fed} vs {books_only} faults absorbed)"
        );
        // Zero-fault evidence is not a decision.
        let mut plane = plane();
        plane.observe_evidence(1, 0, MS);
        assert_eq!(plane.report(&PowerModel::rack_server()).counts.total(), 0);
    }

    #[test]
    fn report_reconciliation_detects_drift() {
        let mut plane = plane();
        let now = MS;
        let _ = plane.admit(1, now);
        plane.observe_fault(0, 1, 100_000, now, 1 << 16, 4);
        let mut report = plane.report(&PowerModel::rack_server());
        assert!(report.reconciles());
        report.counts.rewinds += 1; // a counted-but-unbilled decision
        assert!(!report.reconciles());
    }

    #[test]
    fn quarantine_is_reversible_but_remembered() {
        let params = ReputationParams {
            half_life_ns: 10 * MS,
            ..ReputationParams::default()
        };
        let mut plane = ControlPlane::new(ControlConfig {
            reputation: params,
            ..ControlConfig::default()
        });
        let mut now = 0u64;
        for _ in 0..10 {
            now += MS / 10;
            let _ = plane.admit(5, now);
            plane.observe_fault(0, 5, 100_000, now, 1 << 16, 4);
        }
        assert_eq!(plane.standing(5, now), Standing::Quarantined);
        now += 200 * MS; // 20 half-lives
        assert_eq!(plane.standing(5, now), Standing::Good);
        let report = plane.report(&PowerModel::rack_server());
        assert_eq!(report.quarantined_clients, vec![5]);
    }
}
