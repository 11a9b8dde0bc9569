//! Staged rollout policy: canary first, then waves, with an automatic
//! halt when the freshly updated sites start raising IDS alerts.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::ops::Range;

/// How a fleet update is staged across sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RolloutPolicy {
    /// Sites in the canary wave (wave 0).
    pub canary_sites: usize,
    /// Sites per subsequent wave.
    pub wave_size: usize,
    /// Soak ticks after a wave finishes applying before the next wave
    /// starts; alerts from wave members during this window count towards
    /// the halt threshold.
    pub observe_ticks: u32,
    /// IDS alerts from sites already updated in this rollout at which
    /// the rollout halts.
    pub halt_alert_threshold: u32,
}

impl Default for RolloutPolicy {
    fn default() -> Self {
        RolloutPolicy {
            canary_sites: 1,
            wave_size: 8,
            observe_ticks: 40,
            halt_alert_threshold: 3,
        }
    }
}

impl RolloutPolicy {
    /// Splits the site indices `0..fleet_size` into contiguous waves:
    /// the canary wave first, then full waves of [`wave_size`]. An empty
    /// fleet has no waves.
    ///
    /// [`wave_size`]: RolloutPolicy::wave_size
    #[must_use]
    pub fn waves(&self, fleet_size: usize) -> Vec<Range<usize>> {
        if fleet_size == 0 {
            return Vec::new();
        }
        let canary = self.canary_sites.clamp(1, fleet_size);
        let step = self.wave_size.max(1);
        std::iter::once(0..canary)
            .chain(
                (canary..fleet_size)
                    .step_by(step)
                    .map(|start| start..(start + step).min(fleet_size)),
            )
            .collect()
    }
}

/// Where a rollout currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RolloutPhase {
    /// Distributing and applying the bundle to the current wave.
    Distributing,
    /// Soaking: watching the current wave's IDS output.
    Observing,
    /// Every wave completed.
    Complete,
}

/// The measured outcome of one fleet rollout.
///
/// Serialization covers only the deterministic fields: same fleet size,
/// seed, and scenario must produce byte-identical report JSON (that
/// contract is tested), so the host wall-clock verification timings are
/// deliberately left out of the serialized form — read them off the
/// struct directly.
#[derive(Debug, Clone, PartialEq)]
pub struct RolloutReport {
    /// Number of sites in the fleet.
    pub fleet_size: usize,
    /// The version the rollout distributed.
    pub target_version: u32,
    /// Whether every wave completed (an empty fleet's rollout has no
    /// wave, so it counts as completed).
    pub completed: bool,
    /// The wave at which the rollout halted, if it did.
    pub halted_at_wave: Option<u32>,
    /// Sites that verified and applied the update.
    pub applied_sites: u32,
    /// Sites that rejected the offered bundle.
    pub rejected_sites: u32,
    /// Rejection tally per [`BundleError::reason`] tag.
    ///
    /// [`BundleError::reason`]: crate::bundle::BundleError::reason
    pub reject_reasons: BTreeMap<String, u32>,
    /// Wall-to-wall rollout time in fleet milliseconds.
    pub latency_ms: u64,
    /// Bytes put on the air across every uplink, retransmits included.
    pub bytes_on_air: u64,
    /// Frames transmitted across every uplink.
    pub frames_sent: u64,
    /// Milliseconds from the first in-wave IDS alert to the halt, when
    /// the rollout halted.
    pub detect_to_halt_ms: Option<u64>,
    /// Host wall-clock microseconds spent verifying bundles across every
    /// site, total. Host time, not fleet time: it never feeds the
    /// simulation or the security trace, only the performance report.
    pub verify_wall_us: u64,
    /// Slowest single bundle verification, host wall-clock microseconds.
    pub verify_wall_us_max: u64,
    /// Bundle verifications measured (applied and rejected sites both
    /// count; sites whose bundle failed to decode do not).
    pub verify_calls: u32,
    /// Sites whose received chunk stream failed the transfer-digest
    /// cross-check (the streaming SHA-256 computed over ordered chunk
    /// slots vs the digest of what the backend sent). Deterministic, but
    /// kept out of the serialized form so the report JSON schema is
    /// unchanged — read it off the struct directly.
    pub transfer_tampered_sites: u32,
    /// Shared bundle verdicts decided for shadow sites: one chain walk
    /// and one bundle-signature check per distributed bundle variant,
    /// whatever the shard count, decided again for the sites that
    /// complete after the CRL list changes. Like
    /// [`transfer_tampered_sites`](RolloutReport::transfer_tampered_sites),
    /// deterministic but kept out of the serialized report JSON.
    pub batch_verify_calls: u64,
    /// Shadow sites whose bundle acceptance was resolved from a shared
    /// verdict. Not serialized.
    pub batch_verified_sites: u64,
    /// Shadow sites that had to be verified individually (their received
    /// bytes were tampered, so no shared verdict applies). Not serialized.
    pub individually_verified_sites: u64,
}

impl Serialize for RolloutReport {
    fn serialize(&self) -> serde::Value {
        // Deterministic fields only — `verify_wall_us` and
        // `verify_wall_us_max` are host wall-clock measurements and would
        // break the same-seed byte-identity contract on the report JSON.
        serde::Value::Object(vec![
            ("fleet_size".to_string(), self.fleet_size.serialize()),
            (
                "target_version".to_string(),
                self.target_version.serialize(),
            ),
            ("completed".to_string(), self.completed.serialize()),
            (
                "halted_at_wave".to_string(),
                self.halted_at_wave.serialize(),
            ),
            ("applied_sites".to_string(), self.applied_sites.serialize()),
            (
                "rejected_sites".to_string(),
                self.rejected_sites.serialize(),
            ),
            (
                "reject_reasons".to_string(),
                self.reject_reasons.serialize(),
            ),
            ("latency_ms".to_string(), self.latency_ms.serialize()),
            ("bytes_on_air".to_string(), self.bytes_on_air.serialize()),
            ("frames_sent".to_string(), self.frames_sent.serialize()),
            (
                "detect_to_halt_ms".to_string(),
                self.detect_to_halt_ms.serialize(),
            ),
            ("verify_calls".to_string(), self.verify_calls.serialize()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waves_cover_fleet_exactly_once() {
        let policy = RolloutPolicy {
            canary_sites: 2,
            wave_size: 5,
            ..RolloutPolicy::default()
        };
        let waves = policy.waves(13);
        assert_eq!(waves, vec![0..2, 2..7, 7..12, 12..13]);
        // Each wave starts where the previous one ended.
        assert!(waves.windows(2).all(|w| w[0].end == w[1].start));
        let all: Vec<usize> = waves.into_iter().flatten().collect();
        assert_eq!(all, (0..13).collect::<Vec<_>>());
    }

    #[test]
    fn single_site_fleet_is_one_canary_wave() {
        let waves = RolloutPolicy::default().waves(1);
        assert_eq!(waves.len(), 1);
        assert_eq!(waves[0], 0..1);
    }

    #[test]
    fn empty_fleet_has_no_waves() {
        for canary_sites in [0, 1, 10] {
            let policy = RolloutPolicy {
                canary_sites,
                ..RolloutPolicy::default()
            };
            assert!(policy.waves(0).is_empty());
        }
    }

    #[test]
    fn oversized_canary_is_clamped() {
        let policy = RolloutPolicy {
            canary_sites: 10,
            ..RolloutPolicy::default()
        };
        let waves = policy.waves(3);
        assert_eq!(waves.len(), 1);
        assert_eq!(waves[0], 0..3);
    }
}
