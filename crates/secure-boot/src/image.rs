//! Firmware images and image signing.

use serde::{Deserialize, Serialize};
use silvasec_crypto::schnorr::{Signature, SigningKey, VerifyingKey};
use silvasec_crypto::sha256;

/// The boot stage an image belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum FirmwareStage {
    /// Second-stage bootloader (verified by the boot ROM).
    Bootloader,
    /// Application firmware (verified by the bootloader).
    Application,
}

impl FirmwareStage {
    /// The PCR index this stage's measurement extends.
    #[must_use]
    pub fn pcr_index(self) -> usize {
        match self {
            FirmwareStage::Bootloader => 0,
            FirmwareStage::Application => 1,
        }
    }
}

/// An unsigned firmware image.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FirmwareImage {
    /// Component the image targets (e.g. `"forwarder-01"`).
    pub component_id: String,
    /// Which boot stage this image implements.
    pub stage: FirmwareStage,
    /// Monotonic version for anti-rollback.
    pub version: u32,
    /// Image payload.
    pub payload: Vec<u8>,
}

impl FirmwareImage {
    /// Creates an image.
    pub fn new(
        component_id: impl Into<String>,
        stage: FirmwareStage,
        version: u32,
        payload: Vec<u8>,
    ) -> Self {
        FirmwareImage {
            component_id: component_id.into(),
            stage,
            version,
            payload,
        }
    }

    /// The canonical signed encoding (header fields + payload digest).
    #[must_use]
    pub fn tbs_bytes(&self) -> Vec<u8> {
        self.tbs_bytes_with_digest(&self.digest())
    }

    /// [`FirmwareImage::tbs_bytes`] with a caller-supplied payload
    /// digest, so verify-and-measure flows that already hold the
    /// measurement hash the payload exactly once.
    #[must_use]
    pub fn tbs_bytes_with_digest(&self, digest: &[u8; 32]) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.component_id.len());
        out.extend_from_slice(b"silvasec-fw-v1");
        out.extend_from_slice(&(self.component_id.len() as u32).to_le_bytes());
        out.extend_from_slice(self.component_id.as_bytes());
        out.push(match self.stage {
            FirmwareStage::Bootloader => 0,
            FirmwareStage::Application => 1,
        });
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(digest);
        out
    }

    /// SHA-256 digest of the payload (the boot measurement).
    #[must_use]
    pub fn digest(&self) -> [u8; 32] {
        sha256::digest(&self.payload)
    }

    /// Signs the image with the firmware signer's key.
    #[must_use]
    pub fn sign(self, signer: &SigningKey) -> SignedImage {
        let signature = signer.sign(&self.tbs_bytes()).to_bytes().to_vec();
        SignedImage {
            image: self,
            signature,
        }
    }
}

/// A signed firmware image as stored in flash / shipped in updates.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SignedImage {
    /// The image.
    pub image: FirmwareImage,
    /// Signer's signature over [`FirmwareImage::tbs_bytes`].
    pub signature: Vec<u8>,
}

impl SignedImage {
    /// Verifies the signature against the pinned signer key, given the
    /// payload's measurement `digest` (its [`FirmwareImage::digest`]), so
    /// a boot stage that measures its payload hashes it only once. The
    /// payload itself is not read: a `digest` that is not its
    /// measurement vouches for nothing about it.
    #[must_use]
    pub fn verify(&self, signer: &VerifyingKey, digest: &[u8; 32]) -> bool {
        Signature::from_bytes(&self.signature)
            .map(|sig| {
                signer
                    .verify(&self.image.tbs_bytes_with_digest(digest), &sig)
                    .is_ok()
            })
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn signer() -> SigningKey {
        SigningKey::from_seed(&[7u8; 32])
    }

    #[test]
    fn sign_and_verify() {
        let img = FirmwareImage::new("fw-01", FirmwareStage::Application, 5, vec![1, 2, 3]);
        let signed = img.sign(&signer());
        assert!(signed.verify(&signer().verifying_key(), &signed.image.digest()));
    }

    #[test]
    fn payload_tamper_detected() {
        let img = FirmwareImage::new("fw-01", FirmwareStage::Application, 5, vec![1, 2, 3]);
        let mut signed = img.sign(&signer());
        signed.image.payload[0] ^= 0xff;
        assert!(!signed.verify(&signer().verifying_key(), &signed.image.digest()));
    }

    #[test]
    fn version_tamper_detected() {
        let img = FirmwareImage::new("fw-01", FirmwareStage::Application, 5, vec![1, 2, 3]);
        let mut signed = img.sign(&signer());
        signed.image.version = 6;
        assert!(!signed.verify(&signer().verifying_key(), &signed.image.digest()));
    }

    #[test]
    fn wrong_component_detected() {
        let img = FirmwareImage::new("fw-01", FirmwareStage::Bootloader, 5, vec![1]);
        let mut signed = img.sign(&signer());
        signed.image.component_id = "fw-02".into();
        assert!(!signed.verify(&signer().verifying_key(), &signed.image.digest()));
    }

    #[test]
    fn wrong_signer_rejected() {
        let img = FirmwareImage::new("fw-01", FirmwareStage::Application, 5, vec![1]);
        let signed = img.sign(&signer());
        let other = SigningKey::from_seed(&[8u8; 32]);
        assert!(!signed.verify(&other.verifying_key(), &signed.image.digest()));
    }

    #[test]
    fn garbage_signature_rejected() {
        let img = FirmwareImage::new("fw-01", FirmwareStage::Application, 5, vec![1]);
        let mut signed = img.sign(&signer());
        signed.signature = vec![0u8; 12];
        assert!(!signed.verify(&signer().verifying_key(), &signed.image.digest()));
    }

    #[test]
    fn stage_pcr_mapping() {
        assert_eq!(FirmwareStage::Bootloader.pcr_index(), 0);
        assert_eq!(FirmwareStage::Application.pcr_index(), 1);
    }

    #[test]
    fn digest_depends_only_on_payload() {
        let a = FirmwareImage::new("x", FirmwareStage::Application, 1, vec![9, 9]);
        let b = FirmwareImage::new("y", FirmwareStage::Bootloader, 2, vec![9, 9]);
        assert_eq!(a.digest(), b.digest());
    }
}
