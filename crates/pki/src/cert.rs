//! Certificates with a canonical signed encoding.

use crate::error::PkiError;
use crate::types::{KeyUsage, Subject, Validity};
use serde::{Deserialize, Serialize};
use silvasec_crypto::schnorr::{Signature, VerifyingKey, PUBLIC_KEY_LEN, SIGNATURE_LEN};

/// A certificate binding a subject to a public key.
///
/// The format is deliberately simple (this is a simulation toolkit, not an
/// X.509 implementation): a canonical length-prefixed byte encoding of the
/// to-be-signed fields is hashed and Schnorr-signed by the issuer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Certificate {
    /// The certified subject.
    pub subject: Subject,
    /// Subject id of the issuing authority.
    pub issuer_id: String,
    /// Serial number, unique per issuer.
    pub serial: u64,
    /// Validity window.
    pub validity: Validity,
    /// What the certified key may be used for.
    pub key_usage: KeyUsage,
    /// The certified Schnorr public key (64 bytes).
    pub public_key: Vec<u8>,
    /// Issuer's signature over [`Certificate::tbs_bytes`] (96 bytes).
    pub signature: Vec<u8>,
}

impl Certificate {
    /// The canonical to-be-signed encoding.
    ///
    /// Every variable-length field is prefixed with its `u32` length so the
    /// encoding is injective (no two distinct certificates share an
    /// encoding).
    #[must_use]
    pub fn tbs_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.tbs_len());
        out.extend_from_slice(b"silvasec-cert-v1");
        push_bytes(&mut out, self.subject.id.as_bytes());
        push_bytes(&mut out, self.subject.role.as_str().as_bytes());
        push_bytes(&mut out, self.issuer_id.as_bytes());
        out.extend_from_slice(&self.serial.to_le_bytes());
        out.extend_from_slice(&self.validity.not_before.to_le_bytes());
        out.extend_from_slice(&self.validity.not_after.to_le_bytes());
        out.push(self.key_usage.bits());
        push_bytes(&mut out, &self.public_key);
        out
    }

    /// Exact byte length of [`Certificate::tbs_bytes`], without building it.
    #[must_use]
    pub fn tbs_len(&self) -> usize {
        16 + (4 + self.subject.id.len())
            + (4 + self.subject.role.as_str().len())
            + (4 + self.issuer_id.len())
            + 8
            + 8
            + 8
            + 1
            + (4 + self.public_key.len())
    }

    /// Parses the embedded subject public key.
    ///
    /// # Errors
    ///
    /// Returns [`PkiError::MalformedKey`] if the key bytes are not a valid
    /// curve point of the expected length.
    pub fn subject_key(&self) -> Result<VerifyingKey, PkiError> {
        let bytes: &[u8; PUBLIC_KEY_LEN] =
            self.public_key
                .as_slice()
                .try_into()
                .map_err(|_| PkiError::MalformedKey {
                    subject: self.subject.id.clone(),
                })?;
        VerifyingKey::from_bytes(bytes).map_err(|_| PkiError::MalformedKey {
            subject: self.subject.id.clone(),
        })
    }

    /// Verifies this certificate's signature against `issuer_key`.
    ///
    /// # Errors
    ///
    /// Returns [`PkiError::BadSignature`] if the signature is malformed or
    /// does not verify.
    pub fn verify_signature(&self, issuer_key: &VerifyingKey) -> Result<(), PkiError> {
        let bad = || PkiError::BadSignature {
            subject: self.subject.id.clone(),
        };
        if self.signature.len() != SIGNATURE_LEN {
            return Err(bad());
        }
        let sig = Signature::from_bytes(&self.signature).map_err(|_| bad())?;
        issuer_key
            .verify(&self.tbs_bytes(), &sig)
            .map_err(|_| bad())
    }

    /// Whether this certificate is self-signed (issuer id == subject id).
    #[must_use]
    pub fn is_self_signed(&self) -> bool {
        self.issuer_id == self.subject.id
    }
}

fn push_bytes(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
    out.extend_from_slice(b);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ComponentRole;
    use silvasec_crypto::schnorr::SigningKey;

    fn sample_cert() -> (Certificate, SigningKey) {
        let issuer = SigningKey::from_seed(&[1u8; 32]);
        let subject_key = SigningKey::from_seed(&[2u8; 32]);
        let mut cert = Certificate {
            subject: Subject::new("forwarder-01", ComponentRole::Forwarder),
            issuer_id: "root".into(),
            serial: 7,
            validity: Validity::new(0, 1000),
            key_usage: KeyUsage::AUTHENTICATION,
            public_key: subject_key.verifying_key().to_bytes().to_vec(),
            signature: Vec::new(),
        };
        let sig = issuer.sign(&cert.tbs_bytes());
        cert.signature = sig.to_bytes().to_vec();
        (cert, issuer)
    }

    #[test]
    fn signature_verifies() {
        let (cert, issuer) = sample_cert();
        assert!(cert.verify_signature(&issuer.verifying_key()).is_ok());
    }

    #[test]
    fn tampered_fields_break_signature() {
        let (cert, issuer) = sample_cert();
        let vk = issuer.verifying_key();

        let mut c = cert.clone();
        c.serial = 8;
        assert!(c.verify_signature(&vk).is_err());

        let mut c = cert.clone();
        c.subject.id = "forwarder-02".into();
        assert!(c.verify_signature(&vk).is_err());

        let mut c = cert.clone();
        c.validity = Validity::new(0, 2000);
        assert!(c.verify_signature(&vk).is_err());

        let mut c = cert.clone();
        c.key_usage = KeyUsage::ALL;
        assert!(c.verify_signature(&vk).is_err());
    }

    #[test]
    fn tbs_encoding_is_injective_across_field_boundaries() {
        // "ab" + "c" vs "a" + "bc" must encode differently.
        let (mut a, _) = sample_cert();
        let (mut b, _) = sample_cert();
        a.subject.id = "ab".into();
        a.issuer_id = "c".into();
        b.subject.id = "a".into();
        b.issuer_id = "bc".into();
        assert_ne!(a.tbs_bytes(), b.tbs_bytes());
    }

    #[test]
    fn subject_key_parses() {
        let (cert, _) = sample_cert();
        assert!(cert.subject_key().is_ok());
    }

    #[test]
    fn malformed_key_detected() {
        let (mut cert, _) = sample_cert();
        cert.public_key = vec![0u8; 10];
        assert!(matches!(
            cert.subject_key(),
            Err(PkiError::MalformedKey { .. })
        ));
        cert.public_key = vec![0xaau8; 64];
        assert!(matches!(
            cert.subject_key(),
            Err(PkiError::MalformedKey { .. })
        ));
    }

    #[test]
    fn serde_roundtrip() {
        let (cert, _) = sample_cert();
        let json = serde_json::to_string(&cert).unwrap();
        let back: Certificate = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cert);
    }

    #[test]
    fn self_signed_detection() {
        let (mut cert, _) = sample_cert();
        assert!(!cert.is_self_signed());
        cert.issuer_id = cert.subject.id.clone();
        assert!(cert.is_self_signed());
    }
}
