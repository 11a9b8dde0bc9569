//! The staged verified-boot state machine.

use crate::image::{FirmwareStage, SignedImage};
use crate::pcr::PcrBank;
use serde::{Deserialize, Serialize};
use silvasec_crypto::schnorr::VerifyingKey;
use silvasec_telemetry::{Event, Label, Recorder};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

fn stage_label(stage: FirmwareStage) -> &'static str {
    match stage {
        FirmwareStage::Bootloader => "bootloader",
        FirmwareStage::Application => "application",
    }
}

/// Why a boot attempt failed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum BootError {
    /// A required stage was missing from the image chain.
    MissingStage(FirmwareStage),
    /// A stage appeared more than once.
    DuplicateStage(FirmwareStage),
    /// An image's signature did not verify against the pinned signer key.
    BadSignature(FirmwareStage),
    /// An image targets a different component.
    WrongComponent {
        /// Component the image was built for.
        expected: String,
        /// Component found in the image header.
        actual: String,
    },
    /// An image's version is lower than the stored rollback counter.
    Rollback {
        /// The stage whose version regressed.
        stage: FirmwareStage,
        /// Minimum accepted version.
        min_version: u32,
        /// Version found in the image.
        actual: u32,
    },
}

impl fmt::Display for BootError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BootError::MissingStage(s) => write!(f, "missing {s:?} image"),
            BootError::DuplicateStage(s) => write!(f, "duplicate {s:?} image"),
            BootError::BadSignature(s) => write!(f, "bad signature on {s:?} image"),
            BootError::WrongComponent { expected, actual } => {
                write!(f, "image built for {actual}, device is {expected}")
            }
            BootError::Rollback {
                stage,
                min_version,
                actual,
            } => {
                write!(
                    f,
                    "rollback on {stage:?}: version {actual} < minimum {min_version}"
                )
            }
        }
    }
}

impl Error for BootError {}

/// The outcome of one boot attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BootReport {
    /// Whether the device reached the application stage.
    pub success: bool,
    /// The failure, if any.
    pub error: Option<BootError>,
    /// Measurement registers after the attempt (partial on failure).
    pub pcrs: PcrBank,
    /// Versions that actually booted, by stage.
    pub booted_versions: HashMap<FirmwareStage, u32>,
}

/// A machine controller with a boot ROM, pinned signer key and rollback
/// counters.
#[derive(Debug, Clone)]
pub struct Device {
    component_id: String,
    signer: VerifyingKey,
    rollback: HashMap<FirmwareStage, u32>,
    last_pcrs: Option<PcrBank>,
    recorder: Recorder,
}

impl Device {
    /// Creates a device with the signer key burned into its boot ROM.
    pub fn new(component_id: impl Into<String>, signer: VerifyingKey) -> Self {
        Device {
            component_id: component_id.into(),
            signer,
            rollback: HashMap::new(),
            last_pcrs: None,
            recorder: Recorder::disabled(),
        }
    }

    /// Attaches a telemetry recorder; each measured stage is then
    /// mirrored as a `BootMeasure` event (`ok: false` when the stage is
    /// rejected).
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// The component id this device identifies as.
    #[must_use]
    pub fn component_id(&self) -> &str {
        &self.component_id
    }

    /// The rollback counter for a stage (0 when never booted).
    #[must_use]
    pub fn rollback_counter(&self, stage: FirmwareStage) -> u32 {
        self.rollback.get(&stage).copied().unwrap_or(0)
    }

    /// PCR state of the most recent successful boot.
    #[must_use]
    pub fn last_pcrs(&self) -> Option<&PcrBank> {
        self.last_pcrs.as_ref()
    }

    /// Attempts to boot the image chain (bootloader + application).
    ///
    /// On success, rollback counters ratchet up to the booted versions and
    /// PCRs hold the measurements. On failure, boot halts at the failing
    /// stage (the report carries the partial PCR state) and counters are
    /// unchanged.
    pub fn boot(&mut self, chain: &[SignedImage]) -> BootReport {
        let mut pcrs = PcrBank::new();
        let mut booted = HashMap::new();

        let fail =
            |error: BootError, pcrs: PcrBank, booted: HashMap<FirmwareStage, u32>| BootReport {
                success: false,
                error: Some(error),
                pcrs,
                booted_versions: booted,
            };

        // Collect stages; order of verification is fixed: ROM verifies the
        // bootloader, the bootloader verifies the application.
        let mut by_stage: HashMap<FirmwareStage, &SignedImage> = HashMap::new();
        for img in chain {
            if by_stage.insert(img.image.stage, img).is_some() {
                return fail(BootError::DuplicateStage(img.image.stage), pcrs, booted);
            }
        }

        for stage in [FirmwareStage::Bootloader, FirmwareStage::Application] {
            let Some(signed) = by_stage.get(&stage) else {
                return fail(BootError::MissingStage(stage), pcrs, booted);
            };
            let reject = Event::BootMeasure {
                stage: Label::new(stage_label(stage)),
                version: signed.image.version,
                ok: false,
            };
            if signed.image.component_id != self.component_id {
                self.recorder.record(reject);
                return fail(
                    BootError::WrongComponent {
                        expected: self.component_id.clone(),
                        actual: signed.image.component_id.clone(),
                    },
                    pcrs,
                    booted,
                );
            }
            // One hash per payload: the measurement is both the signed
            // digest and the PCR extension.
            let digest = signed.image.digest();
            if !signed.verify(&self.signer, &digest) {
                self.recorder.record(reject);
                return fail(BootError::BadSignature(stage), pcrs, booted);
            }
            let min = self.rollback_counter(stage);
            if signed.image.version < min {
                self.recorder.record(reject);
                return fail(
                    BootError::Rollback {
                        stage,
                        min_version: min,
                        actual: signed.image.version,
                    },
                    pcrs,
                    booted,
                );
            }
            pcrs.extend(stage.pcr_index(), &digest);
            booted.insert(stage, signed.image.version);
            self.recorder.record(Event::BootMeasure {
                stage: Label::new(stage_label(stage)),
                version: signed.image.version,
                ok: true,
            });
        }

        // Ratchet rollback counters only after the full chain verified.
        for (stage, version) in &booted {
            let entry = self.rollback.entry(*stage).or_insert(0);
            *entry = (*entry).max(*version);
        }
        self.last_pcrs = Some(pcrs.clone());
        BootReport {
            success: true,
            error: None,
            pcrs,
            booted_versions: booted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::FirmwareImage;
    use silvasec_crypto::schnorr::SigningKey;

    fn signer() -> SigningKey {
        SigningKey::from_seed(&[1u8; 32])
    }

    fn chain(bl_version: u32, app_version: u32) -> Vec<SignedImage> {
        let s = signer();
        vec![
            FirmwareImage::new("dev", FirmwareStage::Bootloader, bl_version, b"bl".to_vec())
                .sign(&s),
            FirmwareImage::new(
                "dev",
                FirmwareStage::Application,
                app_version,
                b"app".to_vec(),
            )
            .sign(&s),
        ]
    }

    fn device() -> Device {
        Device::new("dev", signer().verifying_key())
    }

    #[test]
    fn clean_boot_succeeds() {
        let mut d = device();
        let report = d.boot(&chain(1, 1));
        assert!(report.success);
        assert_eq!(report.error, None);
        assert!(!report.pcrs.is_reset(0));
        assert!(!report.pcrs.is_reset(1));
        assert_eq!(report.booted_versions[&FirmwareStage::Application], 1);
        assert!(d.last_pcrs().is_some());
    }

    #[test]
    fn tampered_application_halts_boot() {
        let mut d = device();
        let mut c = chain(1, 1);
        c[1].image.payload = b"evil".to_vec();
        let report = d.boot(&c);
        assert!(!report.success);
        assert_eq!(
            report.error,
            Some(BootError::BadSignature(FirmwareStage::Application))
        );
        // Bootloader measured, application not.
        assert!(!report.pcrs.is_reset(0));
        assert!(report.pcrs.is_reset(1));
    }

    #[test]
    fn rollback_rejected_after_upgrade() {
        let mut d = device();
        assert!(d.boot(&chain(2, 5)).success);
        assert_eq!(d.rollback_counter(FirmwareStage::Application), 5);
        let report = d.boot(&chain(2, 4));
        assert!(!report.success);
        assert!(matches!(
            report.error,
            Some(BootError::Rollback {
                actual: 4,
                min_version: 5,
                ..
            })
        ));
        // Equal version still boots.
        assert!(d.boot(&chain(2, 5)).success);
    }

    #[test]
    fn counters_do_not_ratchet_on_failure() {
        let mut d = device();
        assert!(d.boot(&chain(1, 3)).success);
        let mut c = chain(9, 9);
        c[1].image.payload = b"evil".to_vec();
        let _ = d.boot(&c);
        assert_eq!(d.rollback_counter(FirmwareStage::Application), 3);
        assert_eq!(d.rollback_counter(FirmwareStage::Bootloader), 1);
    }

    #[test]
    fn missing_and_duplicate_stages() {
        let mut d = device();
        let only_bl = vec![chain(1, 1)[0].clone()];
        assert_eq!(
            d.boot(&only_bl).error,
            Some(BootError::MissingStage(FirmwareStage::Application))
        );
        let dup = vec![chain(1, 1)[0].clone(), chain(1, 1)[0].clone()];
        assert_eq!(
            d.boot(&dup).error,
            Some(BootError::DuplicateStage(FirmwareStage::Bootloader))
        );
    }

    #[test]
    fn wrong_component_rejected() {
        let s = signer();
        let mut d = device();
        let c = vec![
            FirmwareImage::new("other", FirmwareStage::Bootloader, 1, b"bl".to_vec()).sign(&s),
            FirmwareImage::new("other", FirmwareStage::Application, 1, b"app".to_vec()).sign(&s),
        ];
        assert!(matches!(
            d.boot(&c).error,
            Some(BootError::WrongComponent { .. })
        ));
    }

    #[test]
    fn boot_records_one_event_per_stage() {
        // A clean boot records exactly one ok event per stage, a
        // tampered application records bootloader-ok then
        // application-reject.
        use silvasec_telemetry::{Event, Recorder};
        let mut d = device();
        let recorder = Recorder::new();
        let sub = recorder.subscribe("test", 64);
        d.set_recorder(recorder.clone());

        assert!(d.boot(&chain(1, 1)).success);
        let events: Vec<Event> = recorder.drain(sub).into_iter().map(|r| r.event).collect();
        assert_eq!(events.len(), 2);
        assert!(events
            .iter()
            .all(|e| matches!(e, Event::BootMeasure { ok: true, .. })));

        let mut c = chain(2, 2);
        c[1].image.payload = b"evil".to_vec();
        assert!(!d.boot(&c).success);
        let events: Vec<Event> = recorder.drain(sub).into_iter().map(|r| r.event).collect();
        assert_eq!(events.len(), 2);
        assert!(matches!(events[0], Event::BootMeasure { ok: true, .. }));
        assert!(matches!(events[1], Event::BootMeasure { ok: false, .. }));
    }

    #[test]
    fn measurements_distinguish_payloads() {
        let s = signer();
        let mut d1 = device();
        let mut d2 = device();
        let r1 = d1.boot(&chain(1, 1));
        let c2 = vec![
            FirmwareImage::new("dev", FirmwareStage::Bootloader, 1, b"bl".to_vec()).sign(&s),
            FirmwareImage::new("dev", FirmwareStage::Application, 1, b"app2".to_vec()).sign(&s),
        ];
        let r2 = d2.boot(&c2);
        assert!(r1.success && r2.success);
        assert_eq!(r1.pcrs.read(0), r2.pcrs.read(0));
        assert_ne!(r1.pcrs.read(1), r2.pcrs.read(1));
    }
}
