//! Worksite scenario configuration.

use silvasec_ids::IdsConfig;
use silvasec_machines::drone::DroneConfig;
use silvasec_machines::forwarder::ForwarderConfig;
use silvasec_machines::safety::SafetyConfig;
use silvasec_sim::time::SimDuration;
use silvasec_sim::world::WorldConfig;

/// The security controls deployed on the worksite — the experiment knobs
/// of the whole evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SecurityPosture {
    /// Authenticated, encrypted channels (PKI + handshake + AEAD). This
    /// also covers secure-boot commissioning: every machine's firmware
    /// is signed and verified-booted when its identity is provisioned.
    pub secure_channel: bool,
    /// Management-frame protection (defeats forged de-auth).
    pub mfp: bool,
    /// The intrusion detection system and response policy.
    pub ids: bool,
}

impl SecurityPosture {
    /// Everything on — the hardened worksite.
    #[must_use]
    pub fn secure() -> Self {
        SecurityPosture {
            secure_channel: true,
            mfp: true,
            ids: true,
        }
    }

    /// Everything off — the paper's implicit baseline.
    #[must_use]
    pub fn insecure() -> Self {
        SecurityPosture {
            secure_channel: false,
            mfp: false,
            ids: false,
        }
    }
}

impl Default for SecurityPosture {
    fn default() -> Self {
        Self::secure()
    }
}

/// Flight-recorder configuration.
///
/// The worksite owns one [`silvasec_telemetry::Recorder`] and threads
/// clones through every instrumented component. Two subscribers ride on
/// it: an unfiltered "flight" ring of 16 384 records (everything,
/// including per-frame events) and a "security" ring of 4 096 records
/// holding only the security-relevant event classes — the latter is
/// what the trace-divergence tooling compares across runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// When off, the worksite uses a disabled recorder and every record
    /// call is a single pointer check.
    pub enabled: bool,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig { enabled: true }
    }
}

/// Full worksite scenario configuration.
#[derive(Debug, Clone)]
pub struct WorksiteConfig {
    /// World generation parameters.
    pub world: WorldConfig,
    /// Security posture.
    pub security: SecurityPosture,
    /// Whether the observation drone participates (the Figure 2
    /// collaborative function).
    pub drone_enabled: bool,
    /// Forwarder parameters.
    pub forwarder: ForwarderConfig,
    /// Drone parameters.
    pub drone: DroneConfig,
    /// Safety supervisor parameters.
    pub safety: SafetyConfig,
    /// Intrusion-detection tuning (used when `security.ids` is on).
    pub ids: IdsConfig,
    /// Simulation tick length.
    pub tick: SimDuration,
    /// How long a commanded safe-stop holds.
    pub safe_stop_hold: SimDuration,
    /// Flight-recorder configuration.
    pub telemetry: TelemetryConfig,
}

impl Default for WorksiteConfig {
    fn default() -> Self {
        WorksiteConfig {
            world: WorldConfig::default(),
            security: SecurityPosture::secure(),
            drone_enabled: true,
            forwarder: ForwarderConfig::default(),
            drone: DroneConfig::default(),
            safety: SafetyConfig::default(),
            ids: IdsConfig::default(),
            tick: SimDuration::from_millis(500),
            safe_stop_hold: SimDuration::from_secs(30),
            telemetry: TelemetryConfig::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn postures() {
        let s = SecurityPosture::secure();
        assert!(s.secure_channel && s.mfp && s.ids);
        let i = SecurityPosture::insecure();
        assert!(!i.secure_channel && !i.mfp && !i.ids);
        assert_eq!(SecurityPosture::default(), s);
    }

    #[test]
    fn default_config_sane() {
        let c = WorksiteConfig::default();
        assert!(c.drone_enabled);
        assert_eq!(c.tick, SimDuration::from_millis(500));
    }
}
