//! The trace-event taxonomy and its fixed-width wire encoding.
//!
//! Every consequential runtime/control action is recorded as one
//! [`TraceEvent`]: a logical-clock stamp, an [`EventKind`], the source
//! that emitted it, the shard it concerns, the client it concerns and
//! one kind-specific detail word. Events pack into exactly four `u64`
//! words so a flight-recorder slot can store them through plain atomic
//! words (no unsafe, no torn reads — see [`ring`](crate::ring)).

/// What happened. The taxonomy covers every decision the runtime and
/// control plane make that a post-mortem would ask about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// A request was accepted onto a shard queue (detail = shard).
    Submit = 0,
    /// A request was refused: queue backpressure or admission control
    /// (detail: a [`ShedReason`] discriminant).
    Shed = 1,
    /// No longer emitted: every request runs on its client's sticky
    /// shard, so nothing is stolen. Kept because the discriminants are
    /// the wire encoding.
    Steal = 2,
    /// No longer emitted, for the same reason as [`Steal`](Self::Steal).
    /// Kept because the discriminants are the wire encoding.
    OwnerRoute = 3,
    /// A contained fault was rewound (detail = rewind nanoseconds).
    Rewind = 4,
    /// The escalation ladder decided a recovery rung (detail: 0 =
    /// rewind-only, 1 = pool rebuild, 2 = worker restart).
    Rung = 5,
    /// A client crossed into the throttled standing.
    Throttle = 6,
    /// A client crossed into quarantine (blast-pit routing).
    Quarantine = 7,
    /// A client crossed into a ban.
    Ban = 8,
    /// A worker parked with nothing to do (detail = pump pass).
    Park = 9,
    /// A parked worker was woken by a signal (detail = pump pass).
    Wake = 10,
}

impl EventKind {
    /// Every kind, in discriminant order.
    pub const ALL: [EventKind; 11] = [
        EventKind::Submit,
        EventKind::Shed,
        EventKind::Steal,
        EventKind::OwnerRoute,
        EventKind::Rewind,
        EventKind::Rung,
        EventKind::Throttle,
        EventKind::Quarantine,
        EventKind::Ban,
        EventKind::Park,
        EventKind::Wake,
    ];

    /// Decodes a discriminant (`None` for out-of-range bytes — a
    /// corrupted slot must surface as a decode failure, not a panic).
    #[must_use]
    pub fn from_u8(raw: u8) -> Option<Self> {
        Self::ALL.get(usize::from(raw)).copied()
    }

    /// True for the high-volume kinds the overload-adaptive sampler may
    /// head-sample under ring pressure (submits and park/wake chatter).
    /// Control-relevant evidence — rewinds, rung decisions, standing
    /// crossings, sheds — is **never** sampled: losing it
    /// would blind exactly the post-mortems and the admission evidence
    /// channel the recorder exists to feed.
    #[must_use]
    pub fn is_sampleable(self) -> bool {
        matches!(self, EventKind::Submit | EventKind::Park | EventKind::Wake)
    }

    /// The stable lower-case name used in snapshots and query output.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Submit => "submit",
            EventKind::Shed => "shed",
            EventKind::Steal => "steal",
            EventKind::OwnerRoute => "owner-route",
            EventKind::Rewind => "rewind",
            EventKind::Rung => "rung",
            EventKind::Throttle => "throttle",
            EventKind::Quarantine => "quarantine",
            EventKind::Ban => "ban",
            EventKind::Park => "park",
            EventKind::Wake => "wake",
        }
    }
}

/// Why a [`EventKind::Shed`] happened (the event's detail word).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u64)]
pub enum ShedReason {
    /// The shard's bounded queue was full.
    QueueFull = 0,
    /// A throttled client's token bucket was empty.
    Throttle = 1,
    /// The latency-target (CoDel) controller shed the class.
    Overload = 2,
    /// The client is banned.
    Ban = 3,
}

impl ShedReason {
    /// Decodes a detail word.
    #[must_use]
    pub fn from_u64(raw: u64) -> Option<Self> {
        match raw {
            0 => Some(ShedReason::QueueFull),
            1 => Some(ShedReason::Throttle),
            2 => Some(ShedReason::Overload),
            3 => Some(ShedReason::Ban),
            _ => None,
        }
    }
}

/// Who emitted an event: a worker (by shard index), the dispatcher's
/// admission path, or the control plane's standing machinery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Source {
    /// Worker thread of the given shard.
    Worker(u16),
    /// The dispatcher (submit/attach admission path — any thread).
    Dispatcher,
    /// The control plane (standing transitions, under the plane lock).
    Control,
}

const SOURCE_DISPATCHER: u16 = u16::MAX;
const SOURCE_CONTROL: u16 = u16::MAX - 1;

impl Source {
    fn to_u16(self) -> u16 {
        match self {
            Source::Worker(shard) => shard.min(SOURCE_CONTROL - 1),
            Source::Dispatcher => SOURCE_DISPATCHER,
            Source::Control => SOURCE_CONTROL,
        }
    }

    fn from_u16(raw: u16) -> Self {
        match raw {
            SOURCE_DISPATCHER => Source::Dispatcher,
            SOURCE_CONTROL => Source::Control,
            shard => Source::Worker(shard),
        }
    }

    /// The stable name used in snapshots and query output.
    #[must_use]
    pub fn name(self) -> String {
        match self {
            Source::Worker(shard) => format!("worker-{shard}"),
            Source::Dispatcher => "dispatcher".to_string(),
            Source::Control => "control".to_string(),
        }
    }
}

/// One structured flight-recorder event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Logical-clock stamp ([`LogicalClock`](crate::LogicalClock)):
    /// a total order over all events of one runtime, shared across
    /// every ring.
    pub stamp: u64,
    /// What happened.
    pub kind: EventKind,
    /// Who emitted it.
    pub source: Source,
    /// The shard the event concerns (the serving shard, or for a shed
    /// the shard the request would have landed on).
    pub shard: u16,
    /// The client the event concerns (0 when not client-attributed).
    pub client: u64,
    /// Kind-specific payload (see [`EventKind`] variants).
    pub detail: u64,
}

impl TraceEvent {
    /// Packs the event into the four slot words.
    #[must_use]
    pub fn encode(&self) -> [u64; 4] {
        let packed = u64::from(self.kind as u8)
            | (u64::from(self.source.to_u16()) << 8)
            | (u64::from(self.shard) << 24);
        [self.stamp, packed, self.client, self.detail]
    }

    /// Unpacks four slot words (`None` when the kind byte is invalid).
    #[must_use]
    pub fn decode(words: [u64; 4]) -> Option<Self> {
        #[allow(clippy::cast_possible_truncation)]
        let kind = EventKind::from_u8(words[1] as u8)?;
        #[allow(clippy::cast_possible_truncation)]
        let source = Source::from_u16((words[1] >> 8) as u16);
        #[allow(clippy::cast_possible_truncation)]
        let shard = (words[1] >> 24) as u16;
        Some(TraceEvent {
            stamp: words[0],
            kind,
            source,
            shard,
            client: words[2],
            detail: words[3],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrips_every_kind_and_source() {
        for kind in EventKind::ALL {
            for source in [
                Source::Worker(0),
                Source::Worker(513),
                Source::Dispatcher,
                Source::Control,
            ] {
                let event = TraceEvent {
                    stamp: 0xDEAD_BEEF_0042,
                    kind,
                    source,
                    shard: 7,
                    client: u64::MAX - 3,
                    detail: 123_456_789,
                };
                assert_eq!(TraceEvent::decode(event.encode()), Some(event));
            }
        }
    }

    #[test]
    fn invalid_kind_bytes_decode_to_none() {
        assert_eq!(TraceEvent::decode([0, 0xFF, 0, 0]), None);
        assert!(EventKind::from_u8(11).is_none());
        assert!(EventKind::from_u8(u8::MAX).is_none());
    }

    #[test]
    fn kind_names_are_stable_and_distinct() {
        let mut names: Vec<&str> = EventKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EventKind::ALL.len());
    }

    #[test]
    fn only_high_volume_kinds_are_sampleable() {
        let sampleable: Vec<EventKind> = EventKind::ALL
            .into_iter()
            .filter(|k| k.is_sampleable())
            .collect();
        assert_eq!(
            sampleable,
            vec![EventKind::Submit, EventKind::Park, EventKind::Wake]
        );
        // The control-relevant evidence set is always kept.
        for kind in [
            EventKind::Rewind,
            EventKind::Rung,
            EventKind::Throttle,
            EventKind::Quarantine,
            EventKind::Ban,
            EventKind::Shed,
        ] {
            assert!(!kind.is_sampleable(), "{kind:?} must never be sampled");
        }
    }

    #[test]
    fn shed_reasons_roundtrip() {
        for reason in [
            ShedReason::QueueFull,
            ShedReason::Throttle,
            ShedReason::Overload,
            ShedReason::Ban,
        ] {
            assert_eq!(ShedReason::from_u64(reason as u64), Some(reason));
        }
        assert_eq!(ShedReason::from_u64(99), None);
    }
}
