//! Signed certificate revocation lists.

use crate::error::PkiError;
use serde::{Deserialize, Serialize};
use silvasec_crypto::schnorr::{Signature, SigningKey, VerifyingKey};

/// A revocation entry: which serial was revoked and when.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RevocationEntry {
    /// Serial number of the revoked certificate.
    pub serial: u64,
    /// Worksite time at which revocation took effect.
    pub revoked_at: u64,
}

/// A signed list of revoked certificate serials for one issuer.
///
/// The paper's "remote and isolated locations" characteristic (Table I)
/// makes CRL freshness a real concern: machines may be offline for long
/// periods, so validators track the CRL `sequence` and `issued_at` and can
/// enforce a maximum staleness.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CertificateRevocationList {
    /// Id of the issuing authority.
    pub issuer_id: String,
    /// Monotonically increasing CRL sequence number.
    pub sequence: u64,
    /// Worksite time of issuance.
    pub issued_at: u64,
    /// The revoked serials.
    pub entries: Vec<RevocationEntry>,
    /// Issuer signature over the canonical encoding.
    pub signature: Vec<u8>,
}

impl CertificateRevocationList {
    /// Builds and signs a CRL. Used by
    /// [`crate::ca::CertificateAuthority::sign_crl`].
    #[must_use]
    pub fn new_signed(
        key: &SigningKey,
        issuer_id: &str,
        sequence: u64,
        issued_at: u64,
        revoked: &[(u64, u64)],
    ) -> Self {
        let mut entries: Vec<RevocationEntry> = revoked
            .iter()
            .map(|&(serial, revoked_at)| RevocationEntry { serial, revoked_at })
            .collect();
        entries.sort_by_key(|e| e.serial);
        let mut crl = CertificateRevocationList {
            issuer_id: issuer_id.to_owned(),
            sequence,
            issued_at,
            entries,
            signature: Vec::new(),
        };
        let sig = key.sign(&crl.tbs_bytes());
        crl.signature = sig.to_bytes().to_vec();
        crl
    }

    /// The canonical to-be-signed encoding.
    #[must_use]
    pub fn tbs_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.tbs_len());
        out.extend_from_slice(b"silvasec-crl-v1");
        out.extend_from_slice(&(self.issuer_id.len() as u32).to_le_bytes());
        out.extend_from_slice(self.issuer_id.as_bytes());
        out.extend_from_slice(&self.sequence.to_le_bytes());
        out.extend_from_slice(&self.issued_at.to_le_bytes());
        out.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        for e in &self.entries {
            out.extend_from_slice(&e.serial.to_le_bytes());
            out.extend_from_slice(&e.revoked_at.to_le_bytes());
        }
        out
    }

    /// Exact byte length of [`CertificateRevocationList::tbs_bytes`],
    /// without building it.
    #[must_use]
    pub fn tbs_len(&self) -> usize {
        15 + (4 + self.issuer_id.len()) + 8 + 8 + 4 + self.entries.len() * 16
    }

    /// Verifies the CRL signature against the issuer's key.
    ///
    /// # Errors
    ///
    /// Returns [`PkiError::BadCrl`] if the signature is malformed or does
    /// not verify.
    pub fn verify_signature(&self, issuer_key: &VerifyingKey) -> Result<(), PkiError> {
        let sig = Signature::from_bytes(&self.signature).map_err(|_| PkiError::BadCrl)?;
        issuer_key
            .verify(&self.tbs_bytes(), &sig)
            .map_err(|_| PkiError::BadCrl)
    }

    /// Whether `serial` is revoked at `time` according to this CRL.
    #[must_use]
    pub fn is_revoked(&self, serial: u64, time: u64) -> bool {
        self.entries
            .iter()
            .any(|e| e.serial == serial && e.revoked_at <= time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn signed_crl() -> (CertificateRevocationList, SigningKey) {
        let key = SigningKey::from_seed(&[4u8; 32]);
        let crl = CertificateRevocationList::new_signed(&key, "root", 3, 100, &[(7, 50), (2, 90)]);
        (crl, key)
    }

    #[test]
    fn signature_verifies() {
        let (crl, key) = signed_crl();
        assert!(crl.verify_signature(&key.verifying_key()).is_ok());
    }

    #[test]
    fn entries_sorted_by_serial() {
        let (crl, _) = signed_crl();
        assert_eq!(crl.entries[0].serial, 2);
        assert_eq!(crl.entries[1].serial, 7);
    }

    #[test]
    fn tamper_detected() {
        let (mut crl, key) = signed_crl();
        crl.entries.pop();
        assert_eq!(
            crl.verify_signature(&key.verifying_key()),
            Err(PkiError::BadCrl)
        );
    }

    #[test]
    fn revocation_respects_time() {
        let (crl, _) = signed_crl();
        assert!(!crl.is_revoked(7, 49));
        assert!(crl.is_revoked(7, 50));
        assert!(crl.is_revoked(7, 1000));
        assert!(!crl.is_revoked(99, 1000));
    }

    #[test]
    fn serde_roundtrip() {
        let (crl, _) = signed_crl();
        let json = serde_json::to_string(&crl).unwrap();
        let back: CertificateRevocationList = serde_json::from_str(&json).unwrap();
        assert_eq!(back, crl);
    }
}
