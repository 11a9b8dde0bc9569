//! Typed, `Copy` telemetry events and the inline [`Label`] string they use.
//!
//! Every event is plain old data: no heap allocation happens when an
//! event is constructed or recorded, which keeps the recorder off the
//! allocator on the simulator's hot paths.

use serde::{Deserialize, Error, Serialize, Value};
use silvasec_sim::SimTime;
use std::fmt;

/// Maximum number of bytes an inline [`Label`] can hold.
pub const LABEL_CAPACITY: usize = 23;

/// A short, inline, copyable string used for names inside events.
///
/// Labels hold up to [`LABEL_CAPACITY`] bytes inline (no heap); longer
/// inputs are truncated at a UTF-8 character boundary. This keeps the
/// whole [`Event`] enum `Copy` so recording an event never allocates.
///
/// ```
/// use silvasec_telemetry::Label;
/// let l = Label::new("gnss-spoofing");
/// assert_eq!(l.as_str(), "gnss-spoofing");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Label {
    len: u8,
    bytes: [u8; LABEL_CAPACITY],
}

impl Label {
    /// Creates a label from a string, truncating to [`LABEL_CAPACITY`]
    /// bytes at a character boundary.
    #[must_use]
    pub fn new(s: &str) -> Self {
        let mut end = s.len().min(LABEL_CAPACITY);
        while end > 0 && !s.is_char_boundary(end) {
            end -= 1;
        }
        let mut bytes = [0u8; LABEL_CAPACITY];
        bytes[..end].copy_from_slice(&s.as_bytes()[..end]);
        Label {
            len: end as u8,
            bytes,
        }
    }

    /// `const` form of [`Label::new`] for hoisting fixed labels out of
    /// hot loops (e.g. the per-tick sensor labels in the worksite).
    ///
    /// Identical truncation semantics: cut to [`LABEL_CAPACITY`] bytes
    /// at a UTF-8 character boundary (a continuation byte has the bit
    /// pattern `10xxxxxx`, so backing off past them lands on a
    /// boundary).
    #[must_use]
    pub const fn from_static(s: &str) -> Self {
        let src = s.as_bytes();
        let mut end = if src.len() < LABEL_CAPACITY {
            src.len()
        } else {
            LABEL_CAPACITY
        };
        while end > 0 && end < src.len() && (src[end] & 0xC0) == 0x80 {
            end -= 1;
        }
        let mut bytes = [0u8; LABEL_CAPACITY];
        let mut i = 0;
        while i < end {
            bytes[i] = src[i];
            i += 1;
        }
        Label {
            len: end as u8,
            bytes,
        }
    }

    /// Returns the label as a string slice.
    #[must_use]
    pub fn as_str(&self) -> &str {
        // The constructor only ever stores a prefix of a valid `&str`
        // cut at a character boundary.
        std::str::from_utf8(&self.bytes[..self.len as usize]).unwrap_or("")
    }

    /// Returns `true` when the label is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Label {
    fn from(s: &str) -> Self {
        Label::new(s)
    }
}

impl Serialize for Label {
    fn serialize(&self) -> Value {
        Value::String(self.as_str().to_string())
    }
}

impl Deserialize for Label {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        match v {
            Value::String(s) => Ok(Label::new(s)),
            other => Err(Error::custom(format!(
                "expected string label, got {}",
                other.kind()
            ))),
        }
    }
}

/// A structured telemetry event.
///
/// All variants are `Copy`; strings are inline [`Label`]s. Events carry
/// no timestamp of their own — the recorder stamps each one with the
/// current [`SimTime`] and a monotonic sequence number when it is
/// recorded (see [`Record`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Event {
    /// A frame was put on the radio medium.
    FrameTx {
        /// True transmitting node (ground truth, not the claimed source).
        src: u32,
        /// Destination node; `None` = broadcast.
        dst: Option<u32>,
        /// Frame kind ("data", "deauth", ...).
        kind: Label,
        /// Wire length in bytes.
        bytes: u32,
        /// Sender-stamped sequence number.
        seq: u64,
    },
    /// A frame was delivered to a receiver.
    FrameRx {
        /// True transmitting node.
        src: u32,
        /// Receiving node.
        dst: u32,
        /// Received signal strength in dBm.
        rssi_dbm: f64,
        /// Signal-to-interference-plus-noise ratio in dB.
        sinr_db: f64,
    },
    /// A frame addressed to a receiver was lost on the air.
    FrameLost {
        /// True transmitting node.
        src: u32,
        /// Intended receiving node.
        dst: u32,
    },
    /// An interferer (jammer) turned on or off.
    Jam {
        /// `true` when the interferer was added, `false` when removed.
        on: bool,
        /// Transmit power of the interferer in dBm.
        power_dbm: f64,
    },
    /// A handshake began (responder decoded an initiator hello).
    HandshakeStart {
        /// Peer identity as claimed by the hello.
        peer: Label,
    },
    /// A handshake completed and produced a session.
    HandshakeDone {
        /// Authenticated peer identity.
        peer: Label,
    },
    /// A handshake was rejected.
    HandshakeFail {
        /// Short reason ("pki", "decode", "transcript", ...).
        reason: Label,
    },
    /// A perception sensor produced a reading this tick.
    SensorReading {
        /// Sensor name ("camera", "lidar", "drone").
        sensor: Label,
        /// Number of detections in the reading.
        detections: u32,
    },
    /// The IDS raised an alert.
    IdsAlert {
        /// Alert class ("jamming", "gnss-spoofing", ...).
        class: Label,
        /// Alert severity ("low", "medium", "high", "critical").
        severity: Label,
    },
    /// The continuous risk assessment moved a threat's risk level.
    RiskDelta {
        /// Threat scenario identifier.
        threat: Label,
        /// Risk level before the update.
        from: u8,
        /// Risk level after the update.
        to: u8,
    },
    /// Secure boot measured (and verified) one firmware stage.
    BootMeasure {
        /// Firmware stage ("bootloader", "application").
        stage: Label,
        /// Image version number.
        version: u32,
        /// Whether the stage verified successfully.
        ok: bool,
    },
    /// A record-layer open failed (bad tag, replay, decode).
    AuthFail {
        /// Peer the session is bound to.
        peer: Label,
    },
    /// The incident response policy chose an action for an alert.
    Response {
        /// Chosen action ("log-only", "degraded-mode", ...).
        action: Label,
    },
    /// An attack campaign phase started or ended.
    AttackPhase {
        /// Campaign index within the engine.
        campaign: u32,
        /// Attack kind ("rf-jamming", "replay", ...).
        kind: Label,
        /// `true` on activation, `false` on deactivation.
        started: bool,
    },
    /// A fleet OTA update bundle finished verification and (on success)
    /// was applied through secure-boot update authorization.
    UpdateApply {
        /// Fleet site index.
        site: u32,
        /// Bundle version from the manifest.
        version: u32,
        /// Whether the bundle verified and booted.
        ok: bool,
        /// Outcome tag ("applied", "signature", "downgrade", ...).
        reason: Label,
    },
    /// A staged-rollout wave changed state.
    RolloutWave {
        /// Wave index (0 = canary).
        wave: u32,
        /// Phase tag ("start", "complete", "halt").
        phase: Label,
    },
    /// The fleet SIEM correlated the same attack class across sites.
    CampaignAlert {
        /// Correlated alert class.
        class: Label,
        /// Number of distinct sites reporting the class in the window.
        sites: u32,
    },
    /// A free-form key/value event for ad-hoc instrumentation.
    Custom {
        /// Event key.
        key: Label,
        /// Integer payload.
        value: i64,
    },
    /// Aggregated rollout outcome of one shadow-population shard this
    /// tick. Shadow sites are too numerous for per-site `UpdateApply`
    /// events (a million-site wave would flood any bounded ring), so the
    /// fleet layer emits one summary per shard per tick with activity.
    ShadowWave {
        /// Shadow shard index.
        shard: u32,
        /// Shadow sites in the shard that applied the bundle this tick.
        applied: u32,
        /// Shadow sites in the shard that rejected the bundle this tick.
        rejected: u32,
    },
    /// An incident was accepted into the ops engine's durable queue.
    OpsEnqueue {
        /// Deterministic run id (canonical incident hash ⊕ occurrence).
        run: u64,
        /// Incident alert class.
        class: Label,
        /// Incident severity ("low", ..., "critical").
        severity: Label,
        /// Affected site index; `u32::MAX` means fleet scope.
        site: u32,
        /// Distinct sites involved (1 for site scope).
        sites: u32,
    },
    /// An enqueue was recognised as a duplicate of an open run and
    /// folded into it instead of opening a second run.
    OpsDedup {
        /// Run id the duplicate folded into.
        run: u64,
        /// Total duplicates folded into the run so far.
        duplicates: u32,
    },
    /// The queue leased an incident to the workflow engine.
    OpsLease {
        /// Run id of the leased incident.
        run: u64,
        /// 1-based delivery attempt (2+ = redelivery after lease expiry
        /// or an explicit nack).
        delivery: u32,
    },
    /// A workflow step transition was committed to the run store.
    OpsStep {
        /// Run id the transition belongs to.
        run: u64,
        /// Step transitioned from ("triage", "contain", ...).
        from: Label,
        /// Step transitioned to.
        to: Label,
        /// 1-based attempt number of the `from` step (Silas ladder:
        /// 1..=retries are retries, then consult, re-plan, escalate).
        attempt: u32,
        /// Whether the `from` step's action succeeded.
        ok: bool,
    },
    /// A review gate decided between containment and remediation.
    OpsGate {
        /// Run id the gate belongs to.
        run: u64,
        /// Decision tag ("approve", "reject").
        decision: Label,
        /// `true` when an auto-approve policy decided, `false` for an
        /// explicit reviewer verdict.
        auto: bool,
    },
    /// An incident exhausted its delivery budget and was dead-lettered.
    OpsDeadLetter {
        /// Run id of the dead-lettered incident.
        run: u64,
        /// Deliveries consumed before giving up.
        deliveries: u32,
    },
    /// A generative-TARA live hypothesis changed state: fleet SIEM
    /// evidence confirmed an attack class of the ranking, or a
    /// completed mitigation retired it.
    TaraHypothesis {
        /// Attack-class tag of the hypothesis.
        class: Label,
        /// Transition tag ("confirm", "retire").
        phase: Label,
        /// Distinct sites behind the evidence (0 for a retirement not
        /// driven by site evidence).
        sites: u32,
        /// Ranked scenarios of the class, which move with it.
        scenarios: u32,
    },
}

/// The kind tag of an [`Event`], used for subscriber filtering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum EventKind {
    /// [`Event::FrameTx`].
    FrameTx,
    /// [`Event::FrameRx`].
    FrameRx,
    /// [`Event::FrameLost`].
    FrameLost,
    /// [`Event::Jam`].
    Jam,
    /// [`Event::HandshakeStart`].
    HandshakeStart,
    /// [`Event::HandshakeDone`].
    HandshakeDone,
    /// [`Event::HandshakeFail`].
    HandshakeFail,
    /// [`Event::SensorReading`].
    SensorReading,
    /// [`Event::IdsAlert`].
    IdsAlert,
    /// [`Event::RiskDelta`].
    RiskDelta,
    /// [`Event::BootMeasure`].
    BootMeasure,
    /// [`Event::AuthFail`].
    AuthFail,
    /// [`Event::Response`].
    Response,
    /// [`Event::AttackPhase`].
    AttackPhase,
    /// [`Event::UpdateApply`].
    UpdateApply,
    /// [`Event::RolloutWave`].
    RolloutWave,
    /// [`Event::CampaignAlert`].
    CampaignAlert,
    /// [`Event::Custom`].
    Custom,
    /// [`Event::ShadowWave`].
    ShadowWave,
    /// [`Event::OpsEnqueue`].
    OpsEnqueue,
    /// [`Event::OpsDedup`].
    OpsDedup,
    /// [`Event::OpsLease`].
    OpsLease,
    /// [`Event::OpsStep`].
    OpsStep,
    /// [`Event::OpsGate`].
    OpsGate,
    /// [`Event::OpsDeadLetter`].
    OpsDeadLetter,
    /// [`Event::TaraHypothesis`].
    TaraHypothesis,
}

impl EventKind {
    /// Returns this kind's bit in an [`EventFilter`] mask.
    #[must_use]
    pub const fn bit(self) -> u32 {
        1 << self as u32
    }
}

impl Event {
    /// Returns the kind tag of this event.
    #[must_use]
    pub fn kind(&self) -> EventKind {
        match self {
            Event::FrameTx { .. } => EventKind::FrameTx,
            Event::FrameRx { .. } => EventKind::FrameRx,
            Event::FrameLost { .. } => EventKind::FrameLost,
            Event::Jam { .. } => EventKind::Jam,
            Event::HandshakeStart { .. } => EventKind::HandshakeStart,
            Event::HandshakeDone { .. } => EventKind::HandshakeDone,
            Event::HandshakeFail { .. } => EventKind::HandshakeFail,
            Event::SensorReading { .. } => EventKind::SensorReading,
            Event::IdsAlert { .. } => EventKind::IdsAlert,
            Event::RiskDelta { .. } => EventKind::RiskDelta,
            Event::BootMeasure { .. } => EventKind::BootMeasure,
            Event::AuthFail { .. } => EventKind::AuthFail,
            Event::Response { .. } => EventKind::Response,
            Event::AttackPhase { .. } => EventKind::AttackPhase,
            Event::UpdateApply { .. } => EventKind::UpdateApply,
            Event::RolloutWave { .. } => EventKind::RolloutWave,
            Event::CampaignAlert { .. } => EventKind::CampaignAlert,
            Event::Custom { .. } => EventKind::Custom,
            Event::ShadowWave { .. } => EventKind::ShadowWave,
            Event::OpsEnqueue { .. } => EventKind::OpsEnqueue,
            Event::OpsDedup { .. } => EventKind::OpsDedup,
            Event::OpsLease { .. } => EventKind::OpsLease,
            Event::OpsStep { .. } => EventKind::OpsStep,
            Event::OpsGate { .. } => EventKind::OpsGate,
            Event::OpsDeadLetter { .. } => EventKind::OpsDeadLetter,
            Event::TaraHypothesis { .. } => EventKind::TaraHypothesis,
        }
    }
}

/// A bitmask over [`EventKind`]s selecting which events a subscriber
/// receives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventFilter(u32);

impl EventFilter {
    /// A filter that accepts every event kind.
    #[must_use]
    pub const fn all() -> Self {
        EventFilter(u32::MAX)
    }

    /// A filter that accepts nothing.
    #[must_use]
    pub const fn none() -> Self {
        EventFilter(0)
    }

    /// The security-relevant, low-volume subset: alerts, risk deltas,
    /// handshake lifecycle, boot measurements, responses, auth failures
    /// and attack phases — everything except per-frame radio traffic and
    /// per-tick sensor readings. A subscriber with this filter keeps the
    /// first alerts of an episode even when frame traffic would have
    /// evicted them from an unfiltered flight ring.
    #[must_use]
    pub const fn security() -> Self {
        EventFilter(
            EventKind::HandshakeStart.bit()
                | EventKind::HandshakeDone.bit()
                | EventKind::HandshakeFail.bit()
                | EventKind::IdsAlert.bit()
                | EventKind::RiskDelta.bit()
                | EventKind::BootMeasure.bit()
                | EventKind::AuthFail.bit()
                | EventKind::Response.bit()
                | EventKind::AttackPhase.bit()
                | EventKind::Jam.bit()
                | EventKind::UpdateApply.bit()
                | EventKind::RolloutWave.bit()
                | EventKind::CampaignAlert.bit()
                | EventKind::ShadowWave.bit()
                | EventKind::OpsEnqueue.bit()
                | EventKind::OpsDedup.bit()
                | EventKind::OpsLease.bit()
                | EventKind::OpsStep.bit()
                | EventKind::OpsGate.bit()
                | EventKind::OpsDeadLetter.bit()
                | EventKind::TaraHypothesis.bit(),
        )
    }

    /// Returns a copy of this filter that also accepts `kind`.
    #[must_use]
    pub const fn with(self, kind: EventKind) -> Self {
        EventFilter(self.0 | kind.bit())
    }

    /// Returns `true` when this filter accepts `kind`.
    #[must_use]
    pub const fn allows(self, kind: EventKind) -> bool {
        self.0 & kind.bit() != 0
    }
}

impl Default for EventFilter {
    fn default() -> Self {
        EventFilter::all()
    }
}

/// A recorded event: the payload plus the recorder's stamp.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Record {
    /// Simulated time at which the event was recorded.
    pub at: SimTime,
    /// Monotonic sequence number, global across all subscribers.
    pub seq: u64,
    /// The event payload.
    pub event: Event,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_roundtrip_and_truncation() {
        assert_eq!(Label::new("jamming").as_str(), "jamming");
        let long = Label::new("a-very-long-label-that-exceeds-capacity");
        assert_eq!(long.as_str().len(), LABEL_CAPACITY);
        assert!(long.as_str().starts_with("a-very-long-label"));
        // Truncation respects character boundaries for multibyte input.
        let multi = Label::new("ääääääääääääää"); // 2 bytes per char
        assert!(multi.as_str().chars().all(|c| c == 'ä'));
        assert!(Label::new("").is_empty());
    }

    #[test]
    fn const_constructor_matches_runtime_constructor() {
        const HOISTED: Label = Label::from_static("forwarder-01/camera");
        assert_eq!(HOISTED, Label::new("forwarder-01/camera"));
        for s in [
            "",
            "x",
            "forwarder-01/lidar",
            "a-very-long-label-that-exceeds-capacity",
            "ääääääääääääää",
            "ääääääääääää-and-more-tail",
        ] {
            assert_eq!(Label::from_static(s), Label::new(s), "input {s:?}");
        }
    }

    #[test]
    fn event_is_copy_and_kinds_match() {
        let e = Event::IdsAlert {
            class: Label::new("jamming"),
            severity: Label::new("high"),
        };
        let e2 = e; // Copy
        assert_eq!(e, e2);
        assert_eq!(e.kind(), EventKind::IdsAlert);
        assert_eq!(
            Event::Custom {
                key: Label::new("k"),
                value: -3
            }
            .kind(),
            EventKind::Custom
        );
    }

    #[test]
    fn filter_masks() {
        let f = EventFilter::none().with(EventKind::IdsAlert);
        assert!(f.allows(EventKind::IdsAlert));
        assert!(!f.allows(EventKind::FrameTx));
        assert!(EventFilter::all().allows(EventKind::FrameRx));
        let s = EventFilter::security();
        assert!(s.allows(EventKind::IdsAlert));
        assert!(s.allows(EventKind::RiskDelta));
        assert!(s.allows(EventKind::UpdateApply));
        assert!(s.allows(EventKind::RolloutWave));
        assert!(s.allows(EventKind::CampaignAlert));
        assert!(s.allows(EventKind::ShadowWave));
        assert!(s.allows(EventKind::OpsEnqueue));
        assert!(s.allows(EventKind::OpsStep));
        assert!(s.allows(EventKind::OpsGate));
        assert!(s.allows(EventKind::OpsDeadLetter));
        assert!(s.allows(EventKind::TaraHypothesis));
        assert!(!s.allows(EventKind::FrameTx));
        assert!(!s.allows(EventKind::SensorReading));
    }

    #[test]
    fn record_serde_roundtrip() {
        let r = Record {
            at: SimTime::from_millis(1500),
            seq: 7,
            event: Event::FrameTx {
                src: 1,
                dst: None,
                kind: Label::new("deauth"),
                bytes: 26,
                seq: 42,
            },
        };
        let json = serde_json::to_string(&r).unwrap();
        let back: Record = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }
}
