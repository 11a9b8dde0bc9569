//! Trust stores and chain validation.
//!
//! [`TrustStore::validate_chain`] is the one chain check behind every
//! trust decision that rests on a certificate: a handshake peer's chain
//! and an OTA bundle's signer chain. It walks the chain once, end entity
//! first, and verifies every certificate and CRL signature on every
//! call; nothing is cached between calls.

use crate::cert::Certificate;
use crate::crl::CertificateRevocationList;
use crate::error::PkiError;
use crate::types::KeyUsage;
use std::collections::HashMap;

/// Default maximum accepted chain length (end entity + intermediates).
pub const DEFAULT_MAX_CHAIN_LEN: usize = 4;

/// A set of trusted root certificates plus validation policy.
///
/// # Example
///
/// ```
/// use silvasec_pki::prelude::*;
/// use silvasec_crypto::schnorr::SigningKey;
///
/// let mut root = CertificateAuthority::new_root("root", &[1u8; 32], Validity::new(0, 1_000));
/// let key = SigningKey::from_seed(&[2u8; 32]);
/// let cert = root.issue_mut(
///     &Subject::new("drone-01", ComponentRole::Drone),
///     &key.verifying_key(),
///     KeyUsage::AUTHENTICATION,
///     Validity::new(0, 500),
/// );
/// let store = TrustStore::with_roots([root.certificate().clone()]);
/// assert!(store.validate_chain(&[cert.clone()], 100, &[]).is_ok());
/// assert!(store.validate_chain(&[cert], 600, &[]).is_err()); // expired
/// ```
#[derive(Debug, Clone)]
pub struct TrustStore {
    roots: HashMap<String, Certificate>,
    max_chain_len: usize,
    /// Maximum accepted CRL age; `None` disables staleness checks.
    max_crl_age: Option<u64>,
}

impl Default for TrustStore {
    fn default() -> Self {
        Self::new()
    }
}

impl TrustStore {
    /// Creates an empty trust store with default policy.
    #[must_use]
    pub fn new() -> Self {
        TrustStore {
            roots: HashMap::new(),
            max_chain_len: DEFAULT_MAX_CHAIN_LEN,
            max_crl_age: None,
        }
    }

    /// Creates a store trusting the given self-signed roots.
    ///
    /// # Panics
    ///
    /// Panics if any certificate is not self-signed or fails its own
    /// signature check — a trust anchor must at minimum be internally
    /// consistent.
    #[must_use]
    pub fn with_roots(roots: impl IntoIterator<Item = Certificate>) -> Self {
        let mut store = Self::new();
        for root in roots {
            store
                .add_root(root)
                .expect("trust anchor must be a valid self-signed certificate");
        }
        store
    }

    /// Adds a trusted root.
    ///
    /// # Errors
    ///
    /// Returns [`PkiError::BadSignature`] when the certificate is not a
    /// correctly self-signed authority certificate.
    pub fn add_root(&mut self, root: Certificate) -> Result<(), PkiError> {
        if !root.is_self_signed() {
            return Err(PkiError::BadSignature {
                subject: root.subject.id,
            });
        }
        let key = root.subject_key()?;
        root.verify_signature(&key)?;
        self.roots.insert(root.subject.id.clone(), root);
        Ok(())
    }

    /// Sets the maximum chain length.
    pub fn set_max_chain_len(&mut self, len: usize) {
        self.max_chain_len = len;
    }

    /// Requires CRLs to be no older than `age` time units at validation.
    pub fn set_max_crl_age(&mut self, age: u64) {
        self.max_crl_age = Some(age);
    }

    /// Validates a chain `[end_entity, intermediate…]` at `time`.
    ///
    /// The chain is ordered from the end entity towards (but excluding)
    /// the root; the last element's issuer must be a trusted root. Every
    /// CRL in `crls` that matches an issuer in the chain is checked (after
    /// verifying the CRL's own signature and freshness).
    ///
    /// # Errors
    ///
    /// The [`PkiError`] of the first check that fails. The chain must be
    /// non-empty and no longer than the maximum chain length. Then, for
    /// each certificate from the end entity up:
    ///
    /// 1. its issuer link: the next certificate's subject, or a trusted
    ///    root for the last one;
    /// 2. the issuer's [`KeyUsage::CERT_SIGNING`] usage;
    /// 3. the issuer's key, then its signature under that key;
    /// 4. its validity window;
    /// 5. each CRL from its issuer, in slice order: the issuer's
    ///    [`KeyUsage::CRL_SIGNING`] usage, the CRL's signature, its age
    ///    (when a maximum is set) and the certificate's revocation.
    ///
    /// Last comes the validity window of the root itself.
    pub fn validate_chain(
        &self,
        chain: &[Certificate],
        time: u64,
        crls: &[CertificateRevocationList],
    ) -> Result<(), PkiError> {
        if chain.is_empty() {
            return Err(PkiError::EmptyChain);
        }
        if chain.len() > self.max_chain_len {
            return Err(PkiError::ChainTooLong {
                max: self.max_chain_len,
                actual: chain.len(),
            });
        }

        // Resolve each certificate's issuer key: the next chain element,
        // or a trusted root for the last element.
        for (i, cert) in chain.iter().enumerate() {
            let issuer_cert = if i + 1 < chain.len() {
                let next = &chain[i + 1];
                if next.subject.id != cert.issuer_id {
                    return Err(PkiError::BrokenLink {
                        subject: cert.subject.id.clone(),
                    });
                }
                next
            } else {
                self.roots
                    .get(&cert.issuer_id)
                    .ok_or_else(|| PkiError::UntrustedRoot {
                        issuer: cert.issuer_id.clone(),
                    })?
            };

            // Intermediates and roots must be allowed to sign certificates.
            if !issuer_cert.key_usage.permits(KeyUsage::CERT_SIGNING) {
                return Err(PkiError::KeyUsageViolation {
                    subject: issuer_cert.subject.id.clone(),
                });
            }

            let issuer_key = issuer_cert.subject_key()?;
            cert.verify_signature(&issuer_key)?;

            if time < cert.validity.not_before {
                return Err(PkiError::NotYetValid {
                    subject: cert.subject.id.clone(),
                });
            }
            if time > cert.validity.not_after {
                return Err(PkiError::Expired {
                    subject: cert.subject.id.clone(),
                });
            }

            // Revocation: find CRLs from this certificate's issuer.
            for crl in crls.iter().filter(|c| c.issuer_id == cert.issuer_id) {
                if !issuer_cert.key_usage.permits(KeyUsage::CRL_SIGNING) {
                    return Err(PkiError::BadCrl);
                }
                crl.verify_signature(&issuer_key)?;
                if let Some(max_age) = self.max_crl_age {
                    if time.saturating_sub(crl.issued_at) > max_age {
                        return Err(PkiError::BadCrl);
                    }
                }
                if crl.is_revoked(cert.serial, time) {
                    return Err(PkiError::Revoked {
                        subject: cert.subject.id.clone(),
                        serial: cert.serial,
                    });
                }
            }
        }

        // Validity of the root itself.
        let last = chain.last().expect("non-empty checked above");
        if let Some(root) = self.roots.get(&last.issuer_id) {
            if !root.validity.contains(time) {
                return Err(PkiError::Expired {
                    subject: root.subject.id.clone(),
                });
            }
        }
        Ok(())
    }

    /// Validates a chain and additionally requires the end entity to carry
    /// the given key usage.
    ///
    /// # Errors
    ///
    /// As [`TrustStore::validate_chain`], plus
    /// [`PkiError::KeyUsageViolation`] when the end entity lacks `usage`.
    pub fn validate_chain_for_usage(
        &self,
        chain: &[Certificate],
        time: u64,
        crls: &[CertificateRevocationList],
        usage: KeyUsage,
    ) -> Result<(), PkiError> {
        self.validate_chain(chain, time, crls)?;
        let end = &chain[0];
        if !end.key_usage.permits(usage) {
            return Err(PkiError::KeyUsageViolation {
                subject: end.subject.id.clone(),
            });
        }
        Ok(())
    }

    /// Number of trusted roots.
    #[must_use]
    pub fn root_count(&self) -> usize {
        self.roots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ca::CertificateAuthority;
    use crate::types::{ComponentRole, Subject, Validity};
    use silvasec_crypto::schnorr::SigningKey;

    struct Fixture {
        root: CertificateAuthority,
        site: CertificateAuthority,
        store: TrustStore,
        end_key: SigningKey,
    }

    fn fixture() -> Fixture {
        let mut root = CertificateAuthority::new_root("root", &[1u8; 32], Validity::new(0, 10_000));
        let site = root.issue_intermediate_mut("site", &[2u8; 32], Validity::new(0, 8_000));
        let store = TrustStore::with_roots([root.certificate().clone()]);
        let end_key = SigningKey::from_seed(&[3u8; 32]);
        Fixture {
            root,
            site,
            store,
            end_key,
        }
    }

    fn issue_end(f: &mut Fixture, validity: Validity) -> Certificate {
        f.site.issue_mut(
            &Subject::new("fw-01", ComponentRole::Forwarder),
            &f.end_key.verifying_key(),
            KeyUsage::AUTHENTICATION,
            validity,
        )
    }

    #[test]
    fn two_level_chain_validates() {
        let mut f = fixture();
        let end = issue_end(&mut f, Validity::new(0, 5_000));
        let chain = vec![end, f.site.certificate().clone()];
        assert!(f.store.validate_chain(&chain, 100, &[]).is_ok());
    }

    #[test]
    fn direct_root_issue_validates() {
        let mut f = fixture();
        let end = f.root.issue_mut(
            &Subject::new("bs-01", ComponentRole::BaseStation),
            &f.end_key.verifying_key(),
            KeyUsage::AUTHENTICATION,
            Validity::new(0, 5_000),
        );
        assert!(f.store.validate_chain(&[end], 100, &[]).is_ok());
    }

    #[test]
    fn empty_chain_rejected() {
        let f = fixture();
        assert_eq!(
            f.store.validate_chain(&[], 0, &[]),
            Err(PkiError::EmptyChain)
        );
    }

    #[test]
    fn expired_and_not_yet_valid() {
        let mut f = fixture();
        let end = issue_end(&mut f, Validity::new(100, 200));
        let chain = vec![end, f.site.certificate().clone()];
        assert!(matches!(
            f.store.validate_chain(&chain, 50, &[]),
            Err(PkiError::NotYetValid { .. })
        ));
        assert!(matches!(
            f.store.validate_chain(&chain, 201, &[]),
            Err(PkiError::Expired { .. })
        ));
        assert!(f.store.validate_chain(&chain, 150, &[]).is_ok());
    }

    #[test]
    fn unknown_root_rejected() {
        let mut f = fixture();
        let end = issue_end(&mut f, Validity::new(0, 5_000));
        let empty_store = TrustStore::new();
        let chain = vec![end, f.site.certificate().clone()];
        assert!(matches!(
            empty_store.validate_chain(&chain, 100, &[]),
            Err(PkiError::UntrustedRoot { .. })
        ));
    }

    #[test]
    fn broken_link_rejected() {
        let mut f = fixture();
        let mut end = issue_end(&mut f, Validity::new(0, 5_000));
        end.issuer_id = "someone-else".into();
        let chain = vec![end, f.site.certificate().clone()];
        assert!(matches!(
            f.store.validate_chain(&chain, 100, &[]),
            Err(PkiError::BrokenLink { .. })
        ));
    }

    #[test]
    fn forged_signature_rejected() {
        let mut f = fixture();
        let mut end = issue_end(&mut f, Validity::new(0, 5_000));
        end.serial += 1; // invalidates the signature
        let chain = vec![end, f.site.certificate().clone()];
        assert!(matches!(
            f.store.validate_chain(&chain, 100, &[]),
            Err(PkiError::BadSignature { .. })
        ));
    }

    #[test]
    fn end_entity_cannot_act_as_ca() {
        let mut f = fixture();
        // Issue a cert chained under a *non-CA* certificate: build a fake
        // intermediate from the forwarder's own (AUTHENTICATION-only) cert.
        let end = issue_end(&mut f, Validity::new(0, 5_000));
        let rogue_key = SigningKey::from_seed(&[4u8; 32]);
        let mut rogue = Certificate {
            subject: Subject::new("rogue", ComponentRole::Sensor),
            issuer_id: end.subject.id.clone(),
            serial: 1,
            validity: Validity::new(0, 5_000),
            key_usage: KeyUsage::AUTHENTICATION,
            public_key: rogue_key.verifying_key().to_bytes().to_vec(),
            signature: Vec::new(),
        };
        let sig = f.end_key.sign(&rogue.tbs_bytes());
        rogue.signature = sig.to_bytes().to_vec();

        let chain = vec![rogue, end, f.site.certificate().clone()];
        assert!(matches!(
            f.store.validate_chain(&chain, 100, &[]),
            Err(PkiError::KeyUsageViolation { .. })
        ));
    }

    #[test]
    fn revoked_certificate_rejected() {
        let mut f = fixture();
        let end = issue_end(&mut f, Validity::new(0, 5_000));
        f.site.revoke(end.serial, 150);
        let crl = f.site.sign_crl(160);
        let chain = vec![end, f.site.certificate().clone()];
        // Before revocation takes effect the chain is fine.
        assert!(f
            .store
            .validate_chain(&chain, 100, std::slice::from_ref(&crl))
            .is_ok());
        // After, it is revoked.
        assert!(matches!(
            f.store.validate_chain(&chain, 200, &[crl]),
            Err(PkiError::Revoked { .. })
        ));
    }

    #[test]
    fn stale_crl_rejected_when_policy_set() {
        let mut f = fixture();
        let end = issue_end(&mut f, Validity::new(0, 5_000));
        let crl = f.site.sign_crl(100);
        f.store.set_max_crl_age(50);
        let chain = vec![end, f.site.certificate().clone()];
        assert!(f
            .store
            .validate_chain(&chain, 120, std::slice::from_ref(&crl))
            .is_ok());
        assert_eq!(
            f.store.validate_chain(&chain, 200, &[crl]),
            Err(PkiError::BadCrl)
        );
    }

    #[test]
    fn chain_length_limit() {
        let mut f = fixture();
        let end = issue_end(&mut f, Validity::new(0, 5_000));
        let mut store = f.store.clone();
        store.set_max_chain_len(1);
        let chain = vec![end, f.site.certificate().clone()];
        assert!(matches!(
            store.validate_chain(&chain, 100, &[]),
            Err(PkiError::ChainTooLong { .. })
        ));
    }

    #[test]
    fn usage_check_on_end_entity() {
        let mut f = fixture();
        let end = issue_end(&mut f, Validity::new(0, 5_000));
        let chain = vec![end, f.site.certificate().clone()];
        assert!(f
            .store
            .validate_chain_for_usage(&chain, 100, &[], KeyUsage::AUTHENTICATION)
            .is_ok());
        assert!(matches!(
            f.store
                .validate_chain_for_usage(&chain, 100, &[], KeyUsage::FIRMWARE_SIGNING),
            Err(PkiError::KeyUsageViolation { .. })
        ));
    }

    #[test]
    fn revalidation_still_enforces_time_checks() {
        let mut f = fixture();
        let end = issue_end(&mut f, Validity::new(0, 200));
        f.site.revoke(end.serial, 150);
        let crl = f.site.sign_crl(100);
        let chain = vec![end, f.site.certificate().clone()];
        // A chain that validated once…
        assert!(f
            .store
            .validate_chain(&chain, 100, std::slice::from_ref(&crl))
            .is_ok());
        // …is revoked when the same bytes are validated again after the
        // revocation took effect: an earlier verdict carries nothing
        // over.
        assert!(matches!(
            f.store
                .validate_chain(&chain, 180, std::slice::from_ref(&crl)),
            Err(PkiError::Revoked { .. })
        ));
        // Likewise expiry: same bytes, later time.
        assert!(f.store.validate_chain(&chain, 100, &[]).is_ok());
        assert!(matches!(
            f.store.validate_chain(&chain, 250, &[]),
            Err(PkiError::Expired { .. })
        ));
    }

    #[test]
    fn crl_revoking_the_issuer_rejects_a_validated_chain() {
        // A chain is validated, then a *new* CRL from the root revokes
        // its issuing intermediate: the next validation must report the
        // intermediate's revocation.
        let mut f = fixture();
        let end = issue_end(&mut f, Validity::new(0, 5_000));
        let chain = vec![end, f.site.certificate().clone()];
        assert!(f.store.validate_chain(&chain, 100, &[]).is_ok());

        let site_serial = f.site.certificate().serial;
        f.root.revoke(site_serial, 110);
        let root_crl = f.root.sign_crl(120);
        let err = f
            .store
            .validate_chain(&chain, 130, std::slice::from_ref(&root_crl));
        assert!(
            matches!(err, Err(PkiError::Revoked { ref subject, .. }) if subject == "site"),
            "{err:?}"
        );
    }

    #[test]
    fn replacing_a_root_invalidates_earlier_verdicts() {
        // Same chain bytes, different trust anchor under the same id:
        // the earlier verdict must not carry over.
        let mut f = fixture();
        let end = issue_end(&mut f, Validity::new(0, 5_000));
        let chain = vec![end, f.site.certificate().clone()];
        assert!(f.store.validate_chain(&chain, 100, &[]).is_ok());

        let imposter =
            CertificateAuthority::new_root("root", &[99u8; 32], Validity::new(0, 10_000));
        let mut store = f.store.clone();
        store
            .add_root(imposter.certificate().clone())
            .expect("self-signed root");
        assert!(matches!(
            store.validate_chain(&chain, 100, &[]),
            Err(PkiError::BadSignature { .. })
        ));
    }

    #[test]
    fn add_root_rejects_non_self_signed() {
        let mut f = fixture();
        let mut store = TrustStore::new();
        let end = issue_end(&mut f, Validity::new(0, 5_000));
        assert!(store.add_root(end).is_err());
        assert_eq!(store.root_count(), 0);
    }
}
