//! The runtime's bridge to `sdrad-control`: one shared hub the
//! dispatcher consults at admission and every worker reports into.
//!
//! The control plane itself is deterministic and clock-injected; the
//! hub supplies the clock (nanoseconds since runtime start) and the
//! lock. Admission (`submit`/`attach`) and observation (a worker's
//! per-request disposition) both funnel through the same
//! [`ControlPlane`], so reputation, shedding state and the escalation
//! ladder see one consistent event stream.
//!
//! With telemetry enabled the hub also owns the **control ring's**
//! recorder: every *standing crossing* (good → throttled → quarantined
//! → banned) is emitted as a trace event the moment the plane's answer
//! changes. Crossings are detected by comparing the client's standing
//! before and after each fault observation — under the plane mutex, so
//! the comparison is race-free and the ring is effectively
//! single-producer.
//!
//! Lock discipline: the hub's mutex is leaf-level — nothing is called
//! while holding it, and it is never taken while holding a queue,
//! inbox, tray or wakeset lock. (The recorder's `emit` is lock-free, so
//! emitting under the plane mutex adds no ordering edge.)

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use sdrad::ClientId;
use sdrad_control::{
    Admission, ControlConfig, ControlPlane, ControlReport, RecoveryRung, Standing,
};
use sdrad_energy::decisions::RungModels;
use sdrad_energy::power::PowerModel;
use sdrad_telemetry::{EventKind, Recorder, ShedReason};

use crate::queue::Disposition;

/// The shared control-plane hub (one per runtime, when enabled).
pub(crate) struct ControlHub {
    plane: Mutex<ControlPlane>,
    started: Instant,
    /// The sacrificial shard quarantined clients are routed to.
    blast_pit: usize,
    /// The control ring's emit handle ([`Recorder::Off`] when telemetry
    /// is disabled). Standing crossings only — rare, so the ring never
    /// overflows and post-mortem ladders are always complete.
    recorder: Recorder,
    /// Admission decisions enforced at the dispatcher, by outcome —
    /// the runtime-side counters the `ControlReport` is reconciled
    /// against at shutdown.
    admitted: AtomicU64,
    denied: AtomicU64,
    control_shed: AtomicU64,
    quarantined: AtomicU64,
}

/// What the dispatcher should do with one request or connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Routing {
    /// Admit to the client's sticky shard.
    Sticky,
    /// Admit, but to the blast-pit shard.
    BlastPit(usize),
    /// Refuse (shed or ban): the request never reaches a queue. Carries
    /// the reason so the dispatcher's shed trace event can say why.
    Refuse(ShedReason),
}

impl ControlHub {
    pub(crate) fn new(
        config: ControlConfig,
        models: RungModels,
        blast_pit: usize,
        recorder: Recorder,
    ) -> Self {
        ControlHub {
            plane: Mutex::new(ControlPlane::with_models(config, models)),
            started: Instant::now(),
            blast_pit,
            recorder,
            admitted: AtomicU64::new(0),
            denied: AtomicU64::new(0),
            control_shed: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// The blast-pit shard index.
    pub(crate) fn blast_pit(&self) -> usize {
        self.blast_pit
    }

    /// Admission control for one request/connection from `client`.
    pub(crate) fn admit(&self, client: ClientId) -> Routing {
        let now = self.now_ns();
        let decision = self
            .plane
            .lock()
            .expect("control lock")
            .admit(client.0, now);
        match decision {
            Admission::Admit => {
                self.admitted.fetch_add(1, Ordering::Relaxed);
                Routing::Sticky
            }
            Admission::Quarantine => {
                self.quarantined.fetch_add(1, Ordering::Relaxed);
                Routing::BlastPit(self.blast_pit)
            }
            Admission::ShedThrottle => {
                self.control_shed.fetch_add(1, Ordering::Relaxed);
                Routing::Refuse(ShedReason::Throttle)
            }
            Admission::ShedOverload => {
                self.control_shed.fetch_add(1, Ordering::Relaxed);
                Routing::Refuse(ShedReason::Overload)
            }
            Admission::Deny => {
                self.denied.fetch_add(1, Ordering::Relaxed);
                Routing::Refuse(ShedReason::Ban)
            }
        }
    }

    /// One served request's disposition, reported by the worker that
    /// served it. Faults climb the escalation ladder: the returned rung
    /// (if any) is the action the *worker* must now execute.
    pub(crate) fn observe(
        &self,
        shard: usize,
        client: ClientId,
        disposition: &Disposition,
        latency_ns: u64,
        state_bytes: u64,
        domains: u32,
    ) -> Option<RecoveryRung> {
        let now = self.now_ns();
        let mut plane = self.plane.lock().expect("control lock");
        match disposition {
            Disposition::Ok => {
                plane.observe_ok(shard, client.0, latency_ns, now);
                None
            }
            Disposition::ContainedFault { .. } | Disposition::SecretLeak | Disposition::Crashed => {
                // Standing crossings happen only here (faults raise the
                // score; decay only lowers it), so the before/after
                // compare under the plane mutex catches every upward
                // transition exactly once.
                let before = plane.standing(client.0, now);
                let rung =
                    plane.observe_fault(shard, client.0, latency_ns, now, state_bytes, domains);
                let after = plane.standing(client.0, now);
                if self.recorder.is_on() && after != before {
                    self.emit_crossing(shard, client, before, after);
                }
                Some(rung)
            }
            Disposition::ProtocolError | Disposition::InternalError => None,
        }
    }

    /// Emits the trace events for a standing transition. A single fault
    /// can jump more than one standing (e.g. straight to banned under a
    /// vicious score spike): every rung passed over is emitted, so a
    /// post-mortem ladder is complete even then.
    fn emit_crossing(&self, shard: usize, client: ClientId, before: Standing, after: Standing) {
        let shard = u16::try_from(shard).unwrap_or(u16::MAX);
        let rank = |s: Standing| match s {
            Standing::Good => 0u8,
            Standing::Throttled => 1,
            Standing::Quarantined => 2,
            Standing::Banned => 3,
        };
        for crossed in (rank(before) + 1)..=rank(after) {
            let kind = match crossed {
                1 => EventKind::Throttle,
                2 => EventKind::Quarantine,
                _ => EventKind::Ban,
            };
            self.recorder.emit(kind, shard, client.0, 0);
        }
    }

    /// Telemetry-side corroborating evidence: a windowed fault spike
    /// from the streaming collector, scored against `client` through
    /// [`ControlPlane::observe_evidence`]. The before/after standing
    /// compare runs under the plane mutex like every fault observation,
    /// so evidence-driven crossings are traced exactly once too.
    pub(crate) fn observe_evidence(&self, shard: usize, client: ClientId, faults: u64) {
        if faults == 0 {
            return;
        }
        let now = self.now_ns();
        let mut plane = self.plane.lock().expect("control lock");
        let before = plane.standing(client.0, now);
        plane.observe_evidence(client.0, faults, now);
        let after = plane.standing(client.0, now);
        if self.recorder.is_on() && after != before {
            self.emit_crossing(shard, client, before, after);
        }
    }

    /// One control-loop tick (wired into the workers' wake passes).
    pub(crate) fn tick(&self) {
        let now = self.now_ns();
        self.plane.lock().expect("control lock").tick(now);
    }

    /// Requests refused at admission (throttle/overload sheds + bans).
    /// Observability only (the `Debug` impl): harness-level
    /// conservation checks read the same quantity from the closed
    /// books as `ControlReport::counts.refused()`.
    pub(crate) fn refused(&self) -> u64 {
        self.control_shed.load(Ordering::Relaxed) + self.denied.load(Ordering::Relaxed)
    }

    /// Closes the books. The dispatcher-side enforcement counters must
    /// equal the plane's own decision counts — drift between them means
    /// a decision was made but not enforced (or vice versa).
    pub(crate) fn report(&self) -> ControlReport {
        let report = self
            .plane
            .lock()
            .expect("control lock")
            .report(&PowerModel::rack_server());
        debug_assert_eq!(
            report.counts.admits,
            self.admitted.load(Ordering::Relaxed),
            "every admit decision was enforced"
        );
        debug_assert_eq!(
            report.counts.quarantines,
            self.quarantined.load(Ordering::Relaxed)
        );
        debug_assert_eq!(report.counts.denies, self.denied.load(Ordering::Relaxed));
        debug_assert_eq!(
            report.counts.throttle_sheds + report.counts.overload_sheds,
            self.control_shed.load(Ordering::Relaxed)
        );
        report
    }
}

impl std::fmt::Debug for ControlHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ControlHub")
            .field("blast_pit", &self.blast_pit)
            .field("refused", &self.refused())
            .finish()
    }
}
