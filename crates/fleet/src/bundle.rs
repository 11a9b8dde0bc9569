//! Signed OTA update bundles.
//!
//! A bundle carries the firmware images for one fleet component plus a
//! manifest (monotone version, release channel) and is signed as a whole
//! by the fleet's firmware-signing key. The signer's certificate chain
//! travels inside the bundle, so a site can verify it against nothing but
//! its commissioned trust store: chain → [`KeyUsage::FIRMWARE_SIGNING`],
//! then the bundle signature, then the manifest's monotone version
//! against the site's installed version. Per-image signatures are checked
//! by the secure-boot device when the update is applied — the bundle
//! signature authenticates *distribution*, the image signatures
//! authenticate *boot*.

use serde::{Deserialize, Serialize};
use silvasec_crypto::schnorr::{Signature, SigningKey};
use silvasec_pki::{Certificate, CertificateRevocationList, KeyUsage, PkiError, TrustStore};
use silvasec_secure_boot::SignedImage;
use std::fmt;

/// Domain-separation tag for the bundle signature.
const BUNDLE_SIG_DOMAIN: &[u8] = b"silvasec-ota-bundle-v1";

/// Bundle metadata: what the update is and where it fits in the version
/// order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct UpdateManifest {
    /// The fleet component the images target (e.g. `"forwarder-fw"`).
    pub component_id: String,
    /// Monotone bundle version; sites refuse any version at or below
    /// their installed one (anti-rollback at the distribution layer).
    pub version: u32,
    /// Release channel tag (`"stable"`, `"beta"`, ...).
    pub channel: String,
    /// Release instant in fleet milliseconds (informational).
    pub released_at_ms: u64,
}

/// A signed update bundle as distributed over the air.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UpdateBundle {
    /// The manifest.
    pub manifest: UpdateManifest,
    /// The firmware chain to install (bootloader + application).
    pub images: Vec<SignedImage>,
    /// The signer's certificate chain, end entity first; the root is
    /// expected in the verifier's trust store.
    pub signer_chain: Vec<Certificate>,
    /// Signature over [`UpdateBundle::signed_bytes`] by the chain's end
    /// entity.
    pub signature: Vec<u8>,
}

/// Why a site refused an update bundle.
#[derive(Debug, Clone, PartialEq)]
pub enum BundleError {
    /// The received bytes did not decode to a bundle.
    Decode,
    /// The signer chain did not validate for firmware signing.
    Chain(PkiError),
    /// The bundle signature did not verify under the chain's leaf key.
    Signature,
    /// The manifest targets a different component than this site runs.
    WrongComponent {
        /// Component the site runs.
        expected: String,
        /// Component the manifest names.
        got: String,
    },
    /// An image's version or component disagrees with the manifest.
    ManifestMismatch,
    /// The offered version is not strictly newer than the installed one.
    Downgrade {
        /// Version the site already runs.
        installed: u32,
        /// Version the bundle offers.
        offered: u32,
    },
}

impl fmt::Display for BundleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BundleError::Decode => write!(f, "bundle failed to decode"),
            BundleError::Chain(e) => write!(f, "signer chain invalid: {e}"),
            BundleError::Signature => write!(f, "bundle signature invalid"),
            BundleError::WrongComponent { expected, got } => {
                write!(f, "bundle targets {got}, site runs {expected}")
            }
            BundleError::ManifestMismatch => {
                write!(f, "image metadata disagrees with the manifest")
            }
            BundleError::Downgrade { installed, offered } => {
                write!(f, "version {offered} not newer than installed {installed}")
            }
        }
    }
}

impl std::error::Error for BundleError {}

impl BundleError {
    /// Short stable tag used as the `UpdateApply` telemetry reason.
    #[must_use]
    pub fn reason(&self) -> &'static str {
        match self {
            BundleError::Decode => "decode",
            BundleError::Chain(_) => "chain",
            BundleError::Signature => "signature",
            BundleError::WrongComponent { .. } => "component",
            BundleError::ManifestMismatch => "manifest",
            BundleError::Downgrade { .. } => "downgrade",
        }
    }
}

impl UpdateBundle {
    /// Builds and signs a bundle.
    ///
    /// # Panics
    ///
    /// Panics if the manifest or images fail to serialize (they cannot:
    /// both are plain data with derived encodings).
    #[must_use]
    pub fn build(
        manifest: UpdateManifest,
        images: Vec<SignedImage>,
        signer_chain: Vec<Certificate>,
        signer: &SigningKey,
    ) -> Self {
        let tbs = Self::signed_bytes_of(&manifest, &images);
        let signature = signer.sign(&tbs).to_bytes().to_vec();
        UpdateBundle {
            manifest,
            images,
            signer_chain,
            signature,
        }
    }

    /// The canonical signed encoding: a domain tag plus the JSON
    /// encodings of the manifest and images, each length-prefixed so the
    /// encoding is injective.
    #[must_use]
    pub fn signed_bytes(&self) -> Vec<u8> {
        Self::signed_bytes_of(&self.manifest, &self.images)
    }

    fn signed_bytes_of(manifest: &UpdateManifest, images: &[SignedImage]) -> Vec<u8> {
        let manifest_json = serde_json::to_vec(manifest).expect("manifest serializes");
        let mut out = Vec::with_capacity(64 + manifest_json.len());
        out.extend_from_slice(BUNDLE_SIG_DOMAIN);
        out.extend_from_slice(&(manifest_json.len() as u32).to_le_bytes());
        out.extend_from_slice(&manifest_json);
        out.extend_from_slice(&(images.len() as u32).to_le_bytes());
        for image in images {
            let image_json = serde_json::to_vec(image).expect("image serializes");
            out.extend_from_slice(&(image_json.len() as u32).to_le_bytes());
            out.extend_from_slice(&image_json);
        }
        out
    }

    /// Serializes the bundle for distribution.
    ///
    /// # Panics
    ///
    /// Panics if serialization fails (it cannot for a well-formed
    /// bundle).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        serde_json::to_vec(self).expect("bundle serializes")
    }

    /// Deserializes a received bundle.
    ///
    /// # Errors
    ///
    /// Returns [`BundleError::Decode`] when the bytes are not a bundle —
    /// the usual face of in-transit tampering.
    pub fn decode(bytes: &[u8]) -> Result<Self, BundleError> {
        serde_json::from_slice(bytes).map_err(|_| BundleError::Decode)
    }

    /// Verifies the bundle for a site running `component_id` at firmware
    /// `installed_version`.
    ///
    /// Checks, in order: signer chain (against `store` and the
    /// revocation lists `crls`, for [`KeyUsage::FIRMWARE_SIGNING`]),
    /// bundle signature under the chain's end-entity key, component
    /// binding, image/manifest agreement, and the monotone version rule.
    /// A bundle signed under a revoked certificate — the
    /// incident-response containment case — is rejected with
    /// [`BundleError::Chain`] even though its signature still verifies;
    /// pass `&[]` when no CRL has been published.
    ///
    /// The per-image signatures are not checked here: they are
    /// authoritative only at boot, where the device checks them against
    /// its pinned key.
    ///
    /// # Errors
    ///
    /// The first [`BundleError`] encountered.
    pub fn verify(
        &self,
        store: &TrustStore,
        now_ms: u64,
        crls: &[CertificateRevocationList],
        component_id: &str,
        installed_version: u32,
    ) -> Result<(), BundleError> {
        self.verify_shared(store, now_ms, crls, component_id)?;
        self.check_version(installed_version)
    }

    /// The site-independent prefix of [`UpdateBundle::verify`]: signer
    /// chain (revocation included), bundle signature, component binding,
    /// and image/manifest agreement — everything except the per-site
    /// monotone version rule.
    ///
    /// Every site in a fleet shares the same trust store and component
    /// id, so the shadow population decides this verdict once per
    /// bundle variant per rollout (again when the CRL list changes) and
    /// reuses it across every untampered shadow site; only
    /// [`UpdateBundle::check_version`] remains per-site. Composing the
    /// two checks in order is exactly [`UpdateBundle::verify`].
    ///
    /// # Errors
    ///
    /// The first [`BundleError`] encountered.
    pub fn verify_shared(
        &self,
        store: &TrustStore,
        now_ms: u64,
        crls: &[CertificateRevocationList],
        component_id: &str,
    ) -> Result<(), BundleError> {
        store
            .validate_chain_for_usage(&self.signer_chain, now_ms, crls, KeyUsage::FIRMWARE_SIGNING)
            .map_err(BundleError::Chain)?;
        let leaf = self.signer_chain.first().ok_or(BundleError::Signature)?;
        let key = leaf.subject_key().map_err(|_| BundleError::Signature)?;
        let sig = Signature::from_bytes(&self.signature).map_err(|_| BundleError::Signature)?;
        key.verify(&self.signed_bytes(), &sig)
            .map_err(|_| BundleError::Signature)?;

        if self.manifest.component_id != component_id {
            return Err(BundleError::WrongComponent {
                expected: component_id.to_string(),
                got: self.manifest.component_id.clone(),
            });
        }
        if self.images.is_empty()
            || self.images.iter().any(|img| {
                img.image.version != self.manifest.version
                    || img.image.component_id != self.manifest.component_id
            })
        {
            return Err(BundleError::ManifestMismatch);
        }
        Ok(())
    }

    /// The per-site suffix of [`UpdateBundle::verify`]: the monotone
    /// version rule against this site's installed firmware.
    ///
    /// # Errors
    ///
    /// [`BundleError::Downgrade`] when the offered version is not
    /// strictly newer than `installed_version`.
    pub fn check_version(&self, installed_version: u32) -> Result<(), BundleError> {
        if self.manifest.version <= installed_version {
            return Err(BundleError::Downgrade {
                installed: installed_version,
                offered: self.manifest.version,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silvasec_pki::{CertificateAuthority, ComponentRole, Subject, Validity};
    use silvasec_secure_boot::{FirmwareImage, FirmwareStage};

    fn fixture() -> (UpdateBundle, TrustStore) {
        let root =
            CertificateAuthority::new_root("fleet-root", &[1u8; 32], Validity::new(0, 1_000_000));
        let signer = SigningKey::from_seed(&[2u8; 32]);
        let mut ca = root;
        let leaf = ca.issue_mut(
            &Subject::new("fleet-fw-signer", ComponentRole::FirmwareSigner),
            &signer.verifying_key(),
            KeyUsage::FIRMWARE_SIGNING,
            Validity::new(0, 1_000_000),
        );
        let store = TrustStore::with_roots([ca.certificate().clone()]);
        let images = vec![
            FirmwareImage::new("forwarder-fw", FirmwareStage::Bootloader, 2, vec![0xAA; 64])
                .sign(&signer),
            FirmwareImage::new(
                "forwarder-fw",
                FirmwareStage::Application,
                2,
                vec![0xBB; 256],
            )
            .sign(&signer),
        ];
        let manifest = UpdateManifest {
            component_id: "forwarder-fw".into(),
            version: 2,
            channel: "stable".into(),
            released_at_ms: 1000,
        };
        let bundle = UpdateBundle::build(manifest, images, vec![leaf], &signer);
        (bundle, store)
    }

    #[test]
    fn encode_decode_verify_roundtrip() {
        let (bundle, store) = fixture();
        let bytes = bundle.encode();
        let back = UpdateBundle::decode(&bytes).unwrap();
        assert_eq!(back, bundle);
        back.verify(&store, 5000, &[], "forwarder-fw", 1).unwrap();
    }

    #[test]
    fn tampered_bytes_rejected() {
        let (bundle, store) = fixture();
        let mut bytes = bundle.encode();
        // Flip a byte deep in the image payload region: either the JSON
        // breaks (decode error) or the content changes (signature error).
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        match UpdateBundle::decode(&bytes) {
            Err(BundleError::Decode) => {}
            Ok(b) => {
                let err = b.verify(&store, 5000, &[], "forwarder-fw", 1).unwrap_err();
                assert!(matches!(
                    err,
                    BundleError::Signature | BundleError::Chain(_) | BundleError::ManifestMismatch
                ));
            }
            Err(other) => panic!("unexpected decode error: {other}"),
        }
    }

    #[test]
    fn downgrade_rejected() {
        let (bundle, store) = fixture();
        let err = bundle
            .verify(&store, 5000, &[], "forwarder-fw", 2)
            .unwrap_err();
        assert!(matches!(
            err,
            BundleError::Downgrade {
                installed: 2,
                offered: 2
            }
        ));
        let err = bundle
            .verify(&store, 5000, &[], "forwarder-fw", 7)
            .unwrap_err();
        assert!(matches!(
            err,
            BundleError::Downgrade {
                installed: 7,
                offered: 2
            }
        ));
    }

    #[test]
    fn wrong_component_rejected() {
        let (bundle, store) = fixture();
        let err = bundle.verify(&store, 5000, &[], "drone-fw", 1).unwrap_err();
        assert!(matches!(err, BundleError::WrongComponent { .. }));
    }

    #[test]
    fn unauthorized_signer_rejected() {
        // A chain whose leaf lacks FIRMWARE_SIGNING must not sign updates.
        let mut ca =
            CertificateAuthority::new_root("fleet-root", &[1u8; 32], Validity::new(0, 1_000_000));
        let signer = SigningKey::from_seed(&[3u8; 32]);
        let leaf = ca.issue_mut(
            &Subject::new("telemetry-only", ComponentRole::BaseStation),
            &signer.verifying_key(),
            KeyUsage::TELEMETRY_SIGNING,
            Validity::new(0, 1_000_000),
        );
        let store = TrustStore::with_roots([ca.certificate().clone()]);
        let images =
            vec![
                FirmwareImage::new("forwarder-fw", FirmwareStage::Application, 2, vec![1])
                    .sign(&signer),
            ];
        let manifest = UpdateManifest {
            component_id: "forwarder-fw".into(),
            version: 2,
            channel: "stable".into(),
            released_at_ms: 0,
        };
        let bundle = UpdateBundle::build(manifest, images, vec![leaf], &signer);
        let err = bundle
            .verify(&store, 100, &[], "forwarder-fw", 1)
            .unwrap_err();
        assert!(matches!(err, BundleError::Chain(_)));
    }

    #[test]
    fn manifest_image_disagreement_rejected() {
        let (mut bundle, store) = fixture();
        // Re-sign with a mismatching image version so only the manifest
        // consistency check can catch it.
        let signer = SigningKey::from_seed(&[2u8; 32]);
        bundle.images[0].image.version = 9;
        bundle.images[0] = bundle.images[0].image.clone().sign(&signer);
        let rebuilt = UpdateBundle::build(
            bundle.manifest.clone(),
            bundle.images.clone(),
            bundle.signer_chain.clone(),
            &signer,
        );
        let err = rebuilt
            .verify(&store, 5000, &[], "forwarder-fw", 1)
            .unwrap_err();
        assert_eq!(err, BundleError::ManifestMismatch);
    }

    #[test]
    fn foreign_image_signer_does_not_fail_distribution() {
        // Images signed by a key other than the chain leaf are not a
        // distribution-layer error: the bundle must still be accepted
        // (the boot ROM is the authority on image signatures).
        let (bundle, store) = fixture();
        let other = SigningKey::from_seed(&[9u8; 32]);
        let images: Vec<_> = bundle
            .images
            .iter()
            .map(|img| img.image.clone().sign(&other))
            .collect();
        let signer = SigningKey::from_seed(&[2u8; 32]);
        let rebuilt = UpdateBundle::build(
            bundle.manifest.clone(),
            images,
            bundle.signer_chain.clone(),
            &signer,
        );
        rebuilt
            .verify(&store, 5000, &[], "forwarder-fw", 1)
            .unwrap();
    }

    #[test]
    fn garbage_image_signature_does_not_fail_distribution() {
        // An undecodable image signature likewise leaves the decision
        // to the bundle signature.
        let (bundle, store) = fixture();
        let mut images = bundle.images.clone();
        images[0].signature = vec![0u8; 5];
        let signer = SigningKey::from_seed(&[2u8; 32]);
        let rebuilt = UpdateBundle::build(
            bundle.manifest.clone(),
            images,
            bundle.signer_chain.clone(),
            &signer,
        );
        rebuilt
            .verify(&store, 5000, &[], "forwarder-fw", 1)
            .unwrap();
    }

    #[test]
    fn bad_bundle_signature_still_rejected_with_valid_images() {
        // Valid image signatures must not mask a bad bundle signature.
        let (mut bundle, store) = fixture();
        let last = bundle.signature.len() - 1;
        bundle.signature[last] ^= 0x01;
        let err = bundle
            .verify(&store, 5000, &[], "forwarder-fw", 1)
            .unwrap_err();
        assert_eq!(err, BundleError::Signature);
    }

    #[test]
    fn split_verify_composes_to_full_verify() {
        // verify == verify_shared ∘ check_version, so one shared verdict
        // per bundle variant plus the per-site version rule decides
        // exactly what the per-site verify would.
        let (bundle, store) = fixture();
        bundle
            .verify_shared(&store, 5000, &[], "forwarder-fw")
            .unwrap();
        bundle.check_version(1).unwrap();
        // The shared prefix is version-independent: a site already on a
        // newer version still passes it and fails only the version rule,
        // matching verify's error.
        assert_eq!(
            bundle.check_version(7).unwrap_err(),
            bundle
                .verify(&store, 5000, &[], "forwarder-fw", 7)
                .unwrap_err()
        );
        // Component mismatch surfaces in the shared prefix.
        assert!(matches!(
            bundle
                .verify_shared(&store, 5000, &[], "drone-fw")
                .unwrap_err(),
            BundleError::WrongComponent { .. }
        ));
    }

    #[test]
    fn error_reasons_are_stable() {
        assert_eq!(BundleError::Decode.reason(), "decode");
        assert_eq!(BundleError::Signature.reason(), "signature");
        assert_eq!(
            BundleError::Downgrade {
                installed: 2,
                offered: 1
            }
            .reason(),
            "downgrade"
        );
    }
}
