//! Trust stores and chain validation.
//!
//! Chain validation is the per-handshake / per-OTA-verify hot path, so
//! it is organised around two amortisations (see DESIGN.md):
//!
//! * **Batched signature checks**: a validation pass first runs every
//!   cheap structural check in the original order while *collecting*
//!   the signature jobs (certificate and CRL signatures), then verifies
//!   them all in one [`silvasec_crypto::schnorr::verify_batch`] call.
//!   Any failure falls back to the exact sequential path, so the first
//!   error reported is always the same one the unbatched code returned.
//! * **A verified-chain cache**: once every signature in a chain (+ its
//!   CRLs, + the resolved root) has verified, that fact is recorded
//!   under a content fingerprint. Signature validity is a pure function
//!   of those bytes, so a later validation of the same chain can skip
//!   the signature work and re-run only the cheap, time-dependent
//!   checks (validity windows, CRL staleness, revocation) — outcomes
//!   are bit-identical to a full validation.

use crate::cert::Certificate;
use crate::crl::CertificateRevocationList;
use crate::error::PkiError;
use crate::types::KeyUsage;
use silvasec_crypto::schnorr::{self, Signature, VerifyingKey};
use silvasec_crypto::sha256::Sha256;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};

/// Default maximum accepted chain length (end entity + intermediates).
pub const DEFAULT_MAX_CHAIN_LEN: usize = 4;

/// Width of the verified-chain cache's validation-time bucket. Entries
/// are keyed by `time / bucket` in addition to the content fingerprint,
/// so a cached "signatures verified" fact is never consulted more than
/// one bucket away from when it was established (defense in depth — the
/// cached fact itself is time-independent).
pub const CHAIN_CACHE_TIME_BUCKET: u64 = 60_000;

/// Cache-size bound: when an insert would exceed this many entries, all
/// entries outside the current time bucket are evicted (deterministic,
/// no LRU clocks).
const CHAIN_CACHE_MAX_ENTRIES: usize = 1024;

/// A collected signature-verification job (deferred for batching).
struct SigJob {
    message: Vec<u8>,
    signature: Signature,
    key: VerifyingKey,
}

/// How [`TrustStore::validate_chain_inner`] treats signature checks.
enum SigCheck<'a> {
    /// Verify each signature inline, exactly like the original
    /// sequential implementation (error-precedence reference).
    Sequential,
    /// Skip signature checks: the verified-chain cache has already
    /// established that every signature over these exact bytes is good.
    Skip,
    /// Parse each signature (malformed signatures must still fail in
    /// order) and collect the verification jobs for one batched check.
    Collect(&'a mut Vec<SigJob>),
}

/// Verified-chain cache entries: a content fingerprint over the
/// chain+CRL+root bytes plus the validation-time bucket it was proven
/// in. See [`TrustStore::validate_chain`].
type VerifiedChainSet = Arc<Mutex<HashSet<([u8; 32], u64)>>>;

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
    /// Verified-chain cache: fingerprints of chain+CRL+root byte
    /// contents whose signatures have all verified, keyed additionally
    /// by validation-time bucket. Shared across clones (`Arc`) — safe,
    /// because entries are content-addressed facts, not policy
    /// decisions; all policy/time checks re-run on every hit.
    verified_chains: VerifiedChainSet,
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
            verified_chains: Arc::new(Mutex::new(HashSet::new())),
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
    /// Any [`PkiError`] variant describing the first failure found,
    /// checking (in order): shape, issuer links, signatures, validity
    /// windows, key usage of intermediates, and revocation.
    pub fn validate_chain(
        &self,
        chain: &[Certificate],
        time: u64,
        crls: &[CertificateRevocationList],
    ) -> Result<(), PkiError> {
        if chain.is_empty() {
            return Err(PkiError::EmptyChain);
        }
        let cache_key = self.chain_cache_key(chain, time, crls);
        if self
            .verified_chains
            .lock()
            .expect("chain cache lock poisoned")
            .contains(&cache_key)
        {
            // Every signature over these exact bytes is known-good, so
            // skipping the signature checks cannot change which check
            // fails first; only the cheap time/policy checks re-run.
            return self.validate_chain_inner(chain, time, crls, &mut SigCheck::Skip);
        }

        // First pass: cheap checks in original order, signatures
        // collected for one batched verification.
        let mut jobs = Vec::new();
        let cheap = self.validate_chain_inner(chain, time, crls, &mut SigCheck::Collect(&mut jobs));
        let batch_ok = cheap.is_ok() && {
            let items: Vec<schnorr::BatchItem<'_>> = jobs
                .iter()
                .map(|j| schnorr::BatchItem {
                    message: &j.message,
                    signature: &j.signature,
                    key: &j.key,
                })
                .collect();
            schnorr::verify_batch(&items)
        };
        if batch_ok {
            self.chain_cache_insert(cache_key);
            return Ok(());
        }

        // Something failed — either a cheap check (whose error may be
        // preempted by an earlier signature failure in sequential
        // order) or the batch itself (which cannot name the failing
        // signature). Re-run the exact sequential reference path so the
        // reported error is identical to the pre-batching code.
        let result = self.validate_chain_inner(chain, time, crls, &mut SigCheck::Sequential);
        if result.is_ok() {
            self.chain_cache_insert(cache_key);
        }
        result
    }

    /// Content fingerprint for the verified-chain cache: hashes every
    /// chain certificate (TBS + signature), every CRL (TBS + signature),
    /// and the resolved root certificate's bytes, then pairs the digest
    /// with the validation-time bucket. Any change to chain bytes, CRL
    /// contents (including sequence bumps / new revocations), or the
    /// trusted root resolving the chain produces a different key.
    fn chain_cache_key(
        &self,
        chain: &[Certificate],
        time: u64,
        crls: &[CertificateRevocationList],
    ) -> ([u8; 32], u64) {
        // Every TBS encoding streams straight into the hasher
        // (`absorb_fingerprint` feeds the identical `len || tbs || len
        // || sig` framing) — no per-certificate buffer is materialized.
        let mut h = Sha256::new();
        h.update(b"silvasec-chain-cache-v1");
        h.update(&(chain.len() as u64).to_le_bytes());
        for cert in chain {
            cert.absorb_fingerprint(&mut h);
        }
        h.update(&(crls.len() as u64).to_le_bytes());
        for crl in crls {
            crl.absorb_fingerprint(&mut h);
        }
        // The root that will anchor this chain (if known): replacing a
        // root under the same id must invalidate cached verdicts.
        if let Some(root) = chain.last().and_then(|c| self.roots.get(&c.issuer_id)) {
            root.absorb_fingerprint(&mut h);
        }
        (h.finalize(), time / CHAIN_CACHE_TIME_BUCKET)
    }

    fn chain_cache_insert(&self, key: ([u8; 32], u64)) {
        let mut cache = self
            .verified_chains
            .lock()
            .expect("chain cache lock poisoned");
        if cache.len() >= CHAIN_CACHE_MAX_ENTRIES {
            // Deterministic eviction: drop everything outside the
            // current time bucket.
            let bucket = key.1;
            cache.retain(|entry| entry.1 == bucket);
        }
        cache.insert(key);
    }

    /// Number of entries currently in the verified-chain cache.
    #[must_use]
    pub fn chain_cache_len(&self) -> usize {
        self.verified_chains
            .lock()
            .expect("chain cache lock poisoned")
            .len()
    }

    /// The single source of truth for chain-validation check order.
    /// `mode` selects how signature checks are performed; every other
    /// check is identical across modes, which is what keeps the batched
    /// and cached paths' outcomes bit-identical to the sequential one.
    fn validate_chain_inner(
        &self,
        chain: &[Certificate],
        time: u64,
        crls: &[CertificateRevocationList],
        mode: &mut SigCheck<'_>,
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
            match mode {
                SigCheck::Sequential => cert.verify_signature(&issuer_key)?,
                SigCheck::Skip => {}
                SigCheck::Collect(jobs) => {
                    // A malformed signature must fail here, in order;
                    // only the curve equation check is deferred.
                    let sig = Signature::from_bytes(&cert.signature).map_err(|_| {
                        PkiError::BadSignature {
                            subject: cert.subject.id.clone(),
                        }
                    })?;
                    jobs.push(SigJob {
                        message: cert.tbs_bytes(),
                        signature: sig,
                        key: issuer_key,
                    });
                }
            }

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
                let crl_key = issuer_cert.subject_key()?;
                if !issuer_cert.key_usage.permits(KeyUsage::CRL_SIGNING) {
                    return Err(PkiError::BadCrl);
                }
                match mode {
                    SigCheck::Sequential => crl.verify_signature(&crl_key)?,
                    SigCheck::Skip => {}
                    SigCheck::Collect(jobs) => {
                        let sig =
                            Signature::from_bytes(&crl.signature).map_err(|_| PkiError::BadCrl)?;
                        jobs.push(SigJob {
                            message: crl.tbs_bytes(),
                            signature: sig,
                            key: crl_key,
                        });
                    }
                }
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
    fn chain_cache_populates_and_repeats() {
        let mut f = fixture();
        let end = issue_end(&mut f, Validity::new(0, 5_000));
        let chain = vec![end, f.site.certificate().clone()];
        assert_eq!(f.store.chain_cache_len(), 0);
        assert!(f.store.validate_chain(&chain, 100, &[]).is_ok());
        assert_eq!(f.store.chain_cache_len(), 1);
        // Second validation hits the cache (no new entry) and agrees.
        assert!(f.store.validate_chain(&chain, 120, &[]).is_ok());
        assert_eq!(f.store.chain_cache_len(), 1);
        // A different time bucket is a different key — the cert has
        // expired by the next bucket, so this misses the cache, fails,
        // and must not add an entry.
        assert!(matches!(
            f.store
                .validate_chain(&chain, 100 + CHAIN_CACHE_TIME_BUCKET, &[]),
            Err(PkiError::Expired { .. })
        ));
        assert_eq!(f.store.chain_cache_len(), 1);
    }

    #[test]
    fn cache_hit_still_enforces_time_checks() {
        let mut f = fixture();
        let end = issue_end(&mut f, Validity::new(0, 200));
        f.site.revoke(end.serial, 150);
        let crl = f.site.sign_crl(100);
        let chain = vec![end, f.site.certificate().clone()];
        // Populate the cache with a successful validation…
        assert!(f
            .store
            .validate_chain(&chain, 100, std::slice::from_ref(&crl))
            .is_ok());
        assert_eq!(f.store.chain_cache_len(), 1);
        // …then re-validate the *same bytes in the same bucket* at a
        // time where revocation has taken effect: the cached signature
        // verdict must not mask the revocation check.
        assert!(matches!(
            f.store
                .validate_chain(&chain, 180, std::slice::from_ref(&crl)),
            Err(PkiError::Revoked { .. })
        ));
        // Likewise expiry on a cache hit: same bytes, same bucket,
        // later time.
        assert!(f.store.validate_chain(&chain, 100, &[]).is_ok());
        assert!(matches!(
            f.store.validate_chain(&chain, 250, &[]),
            Err(PkiError::Expired { .. })
        ));
    }

    #[test]
    fn crl_revoking_cached_chains_issuer_invalidates() {
        // Satellite regression: a chain is validated and cached, then a
        // *new* CRL from the root revokes the cached chain's issuing
        // intermediate. The CRL bytes are part of the cache key, so the
        // next validation must miss the cache and report the revocation.
        let mut f = fixture();
        let end = issue_end(&mut f, Validity::new(0, 5_000));
        let chain = vec![end, f.site.certificate().clone()];
        assert!(f.store.validate_chain(&chain, 100, &[]).is_ok());
        assert_eq!(f.store.chain_cache_len(), 1);

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
    fn replacing_a_root_invalidates_cached_verdicts() {
        // Same chain bytes, different trust anchor under the same id:
        // the cached "signatures verified" fact must not carry over.
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
