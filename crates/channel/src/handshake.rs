//! The SIGMA-style handshake state machines.

use crate::error::ChannelError;
use crate::messages::{Finished, Hello, Reply};
use crate::session::{Session, SessionKeys};
use silvasec_crypto::schnorr::{Signature, SigningKey};
use silvasec_crypto::{hkdf, sha256, x25519};
use silvasec_pki::{Certificate, CertificateRevocationList, KeyUsage, TrustStore};
use silvasec_telemetry::{Event, Label, Recorder};

/// Short stable reason string for a channel error, used as a telemetry
/// label on `HandshakeFail` events.
pub(crate) fn error_reason(e: &ChannelError) -> &'static str {
    match e {
        ChannelError::Pki(_) => "pki",
        ChannelError::Crypto(_) => "crypto",
        ChannelError::Decode => "decode",
        ChannelError::SmallOrderKey => "small-order-key",
        ChannelError::Replay => "replay",
        ChannelError::SequenceExhausted => "seq-exhausted",
        ChannelError::BadTranscript => "transcript",
    }
}

/// A component's channel identity: its certificate chain and signing key.
#[derive(Debug, Clone)]
pub struct Identity {
    chain: Vec<Certificate>,
    key: SigningKey,
}

impl Identity {
    /// Creates an identity.
    ///
    /// # Panics
    ///
    /// Panics if `chain` is empty — an identity must at least carry its
    /// own end-entity certificate.
    #[must_use]
    pub fn new(chain: Vec<Certificate>, key: SigningKey) -> Self {
        assert!(!chain.is_empty(), "identity requires a certificate chain");
        Identity { chain, key }
    }

    /// The component id from the end-entity certificate.
    #[must_use]
    pub fn id(&self) -> &str {
        &self.chain[0].subject.id
    }
}

/// Validation policy for peer credentials.
#[derive(Debug, Clone)]
pub struct HandshakePolicy {
    store: TrustStore,
    crls: Vec<CertificateRevocationList>,
    /// Worksite time used for validity checks.
    pub now: u64,
    recorder: Recorder,
}

impl HandshakePolicy {
    /// Creates a policy with no CRLs.
    #[must_use]
    pub fn new(store: TrustStore, now: u64) -> Self {
        HandshakePolicy {
            store,
            crls: Vec::new(),
            now,
            recorder: Recorder::disabled(),
        }
    }

    /// Adds revocation lists to enforce.
    #[must_use]
    pub fn with_crls(mut self, crls: Vec<CertificateRevocationList>) -> Self {
        self.crls = crls;
        self
    }

    /// Attaches a telemetry recorder; handshakes run under this policy
    /// then emit `HandshakeStart`/`HandshakeDone`/`HandshakeFail` events.
    #[must_use]
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Validates the peer's chain.
    fn validate_peer(&self, chain: &[Certificate]) -> Result<(), ChannelError> {
        self.store
            .validate_chain_for_usage(chain, self.now, &self.crls, KeyUsage::AUTHENTICATION)
            .map_err(ChannelError::from)
    }
}

fn transcript_hash(hello_bytes: &[u8], reply_signed_part: &[u8]) -> [u8; 32] {
    let mut h = sha256::Sha256::new();
    h.update(b"silvasec-hs-v1");
    h.update(&(hello_bytes.len() as u64).to_le_bytes());
    h.update(hello_bytes);
    h.update(reply_signed_part);
    h.finalize()
}

fn signing_payload(domain: &[u8], transcript: &[u8; 32]) -> Vec<u8> {
    let mut msg = Vec::with_capacity(64);
    msg.extend_from_slice(domain);
    msg.extend_from_slice(transcript);
    msg.to_vec()
}

fn derive_keys(
    shared: &[u8; 32],
    nonce_i: &[u8; 32],
    nonce_r: &[u8; 32],
    transcript: &[u8; 32],
) -> ([u8; 32], [u8; 32]) {
    let mut salt = Vec::with_capacity(64);
    salt.extend_from_slice(nonce_i);
    salt.extend_from_slice(nonce_r);
    let prk = hkdf::extract(&salt, shared);

    let mut info_i2r = b"silvasec-i2r".to_vec();
    info_i2r.extend_from_slice(transcript);
    let mut info_r2i = b"silvasec-r2i".to_vec();
    info_r2i.extend_from_slice(transcript);

    let mut k_i2r = [0u8; 32];
    let mut k_r2i = [0u8; 32];
    hkdf::expand(&prk, &info_i2r, &mut k_i2r);
    hkdf::expand(&prk, &info_r2i, &mut k_r2i);
    (k_i2r, k_r2i)
}

fn dh_checked(private: &[u8; 32], peer_pub: &[u8; 32]) -> Result<[u8; 32], ChannelError> {
    let shared = x25519::diffie_hellman(private, peer_pub);
    if shared == [0u8; 32] {
        return Err(ChannelError::SmallOrderKey);
    }
    Ok(shared)
}

/// The initiator side of a handshake in progress.
#[derive(Debug)]
pub struct Initiator {
    identity: Identity,
    eph_priv: [u8; 32],
    hello_bytes: Vec<u8>,
}

impl Initiator {
    /// Starts a handshake; returns the state machine and the encoded
    /// `Hello` to transmit.
    #[must_use]
    pub fn start(identity: Identity, eph_seed: [u8; 32], nonce: [u8; 32]) -> (Initiator, Vec<u8>) {
        let (eph_priv, eph_pub) = x25519::keypair(&eph_seed);
        let hello = Hello {
            eph_pub,
            nonce,
            chain: identity.chain.clone(),
        };
        let hello_bytes = hello.encode();
        let wire = hello_bytes.clone();
        (
            Initiator {
                identity,
                eph_priv,
                hello_bytes,
            },
            wire,
        )
    }

    /// Processes the responder's `Reply`; returns the established session
    /// and the encoded `Finished` to transmit.
    ///
    /// # Errors
    ///
    /// Any [`ChannelError`]: decode failures, peer certificate rejection,
    /// transcript signature mismatch, or small-order key injection.
    pub fn finish(
        self,
        policy: &HandshakePolicy,
        reply_bytes: &[u8],
    ) -> Result<(Session, Vec<u8>), ChannelError> {
        match self.finish_inner(policy, reply_bytes) {
            Ok((session, finished)) => {
                policy.recorder.record(Event::HandshakeDone {
                    peer: Label::new(session.peer_id()),
                });
                Ok((session, finished))
            }
            Err(e) => {
                policy.recorder.record(Event::HandshakeFail {
                    reason: Label::new(error_reason(&e)),
                });
                Err(e)
            }
        }
    }

    fn finish_inner(
        self,
        policy: &HandshakePolicy,
        reply_bytes: &[u8],
    ) -> Result<(Session, Vec<u8>), ChannelError> {
        let reply = Reply::decode(reply_bytes)?;
        policy.validate_peer(&reply.chain)?;

        let transcript = transcript_hash(&self.hello_bytes, &reply.signed_part());

        // Verify the responder's transcript signature with its certified key.
        let responder_key = reply.chain[0].subject_key()?;
        let sig =
            Signature::from_bytes(&reply.signature).map_err(|_| ChannelError::BadTranscript)?;
        responder_key
            .verify(&signing_payload(b"silvasec-resp", &transcript), &sig)
            .map_err(|_| ChannelError::BadTranscript)?;

        let shared = dh_checked(&self.eph_priv, &reply.eph_pub)?;
        let hello = Hello::decode(&self.hello_bytes).expect("own hello re-decodes");
        let (k_i2r, k_r2i) = derive_keys(&shared, &hello.nonce, &reply.nonce, &transcript);

        let finished_sig = self
            .identity
            .key
            .sign(&signing_payload(b"silvasec-init", &transcript));
        let finished = Finished {
            signature: finished_sig.to_bytes().to_vec(),
        }
        .encode();

        let session = Session::new(
            SessionKeys {
                send_key: k_i2r,
                recv_key: k_r2i,
            },
            reply.chain[0].subject.id.clone(),
        );
        Ok((session, finished))
    }
}

/// The responder side of a handshake in progress.
#[derive(Debug)]
pub struct Responder {
    transcript: [u8; 32],
    initiator_chain: Vec<Certificate>,
    keys: SessionKeys,
    recorder: Recorder,
}

impl Responder {
    /// Processes a `Hello`; returns the state machine and the encoded
    /// `Reply` to transmit.
    ///
    /// # Errors
    ///
    /// Any [`ChannelError`]: decode failures, peer certificate rejection,
    /// or small-order key injection.
    pub fn respond(
        identity: Identity,
        policy: &HandshakePolicy,
        hello_bytes: &[u8],
        eph_seed: [u8; 32],
        nonce: [u8; 32],
    ) -> Result<(Responder, Vec<u8>), ChannelError> {
        match Self::respond_inner(identity, policy, hello_bytes, eph_seed, nonce) {
            Ok(ok) => Ok(ok),
            Err(e) => {
                policy.recorder.record(Event::HandshakeFail {
                    reason: Label::new(error_reason(&e)),
                });
                Err(e)
            }
        }
    }

    fn respond_inner(
        identity: Identity,
        policy: &HandshakePolicy,
        hello_bytes: &[u8],
        eph_seed: [u8; 32],
        nonce: [u8; 32],
    ) -> Result<(Responder, Vec<u8>), ChannelError> {
        let hello = Hello::decode(hello_bytes)?;
        if let Some(cert) = hello.chain.first() {
            policy.recorder.record(Event::HandshakeStart {
                peer: Label::new(&cert.subject.id),
            });
        }
        policy.validate_peer(&hello.chain)?;

        let (eph_priv, eph_pub) = x25519::keypair(&eph_seed);
        let shared = dh_checked(&eph_priv, &hello.eph_pub)?;

        let mut reply = Reply {
            eph_pub,
            nonce,
            chain: identity.chain.clone(),
            signature: Vec::new(),
        };
        let transcript = transcript_hash(hello_bytes, &reply.signed_part());
        reply.signature = identity
            .key
            .sign(&signing_payload(b"silvasec-resp", &transcript))
            .to_bytes()
            .to_vec();

        let (k_i2r, k_r2i) = derive_keys(&shared, &hello.nonce, &reply.nonce, &transcript);

        Ok((
            Responder {
                transcript,
                initiator_chain: hello.chain,
                keys: SessionKeys {
                    send_key: k_r2i,
                    recv_key: k_i2r,
                },
                recorder: policy.recorder.clone(),
            },
            reply.encode(),
        ))
    }

    /// Processes the initiator's `Finished`; returns the established
    /// session.
    ///
    /// # Errors
    ///
    /// [`ChannelError::BadTranscript`] when the initiator's signature
    /// does not verify, or [`ChannelError::Decode`] for malformed input.
    pub fn complete(self, finished_bytes: &[u8]) -> Result<Session, ChannelError> {
        let recorder = self.recorder.clone();
        match self.complete_inner(finished_bytes) {
            Ok(session) => {
                recorder.record(Event::HandshakeDone {
                    peer: Label::new(session.peer_id()),
                });
                Ok(session)
            }
            Err(e) => {
                recorder.record(Event::HandshakeFail {
                    reason: Label::new(error_reason(&e)),
                });
                Err(e)
            }
        }
    }

    fn complete_inner(self, finished_bytes: &[u8]) -> Result<Session, ChannelError> {
        let finished = Finished::decode(finished_bytes)?;
        let initiator_key = self.initiator_chain[0].subject_key()?;
        let sig =
            Signature::from_bytes(&finished.signature).map_err(|_| ChannelError::BadTranscript)?;
        initiator_key
            .verify(&signing_payload(b"silvasec-init", &self.transcript), &sig)
            .map_err(|_| ChannelError::BadTranscript)?;
        Ok(Session::new(
            self.keys,
            self.initiator_chain[0].subject.id.clone(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silvasec_pki::prelude::*;

    struct Pki {
        root: CertificateAuthority,
        store: TrustStore,
    }

    fn pki() -> Pki {
        let root = CertificateAuthority::new_root("root", &[1u8; 32], Validity::new(0, 100_000));
        let store = TrustStore::with_roots([root.certificate().clone()]);
        Pki { root, store }
    }

    fn identity(p: &mut Pki, id: &str, role: ComponentRole, seed: u8) -> Identity {
        let key = SigningKey::from_seed(&[seed; 32]);
        let cert = p.root.issue_mut(
            &Subject::new(id, role),
            &key.verifying_key(),
            KeyUsage::AUTHENTICATION,
            Validity::new(0, 50_000),
        );
        Identity::new(vec![cert], key)
    }

    fn run_handshake(
        policy: &HandshakePolicy,
        init_id: Identity,
        resp_id: Identity,
    ) -> (Session, Session) {
        let (init, hello) = Initiator::start(init_id, [10u8; 32], [11u8; 32]);
        let (resp, reply) =
            Responder::respond(resp_id, policy, &hello, [12u8; 32], [13u8; 32]).unwrap();
        let (s_i, finished) = init.finish(policy, &reply).unwrap();
        let s_r = resp.complete(&finished).unwrap();
        (s_i, s_r)
    }

    #[test]
    fn full_handshake_and_traffic() {
        let mut p = pki();
        let fw = identity(&mut p, "fw-01", ComponentRole::Forwarder, 2);
        let bs = identity(&mut p, "bs-01", ComponentRole::BaseStation, 3);
        let policy = HandshakePolicy::new(p.store.clone(), 100);
        let (mut si, mut sr) = run_handshake(&policy, fw, bs);
        assert_eq!(si.peer_id(), "bs-01");
        assert_eq!(sr.peer_id(), "fw-01");
        let rec = si.seal(b"telemetry").unwrap();
        assert_eq!(sr.open(&rec).unwrap(), b"telemetry");
        let rec = sr.seal(b"ack").unwrap();
        assert_eq!(si.open(&rec).unwrap(), b"ack");
    }

    #[test]
    fn uncertified_peer_rejected() {
        let mut p = pki();
        let fw = identity(&mut p, "fw-01", ComponentRole::Forwarder, 2);
        // Rogue with a self-made root the store does not trust.
        let mut rogue_root =
            CertificateAuthority::new_root("rogue-root", &[9u8; 32], Validity::new(0, 100_000));
        let rogue_key = SigningKey::from_seed(&[8u8; 32]);
        let rogue_cert = rogue_root.issue_mut(
            &Subject::new("rogue-01", ComponentRole::Sensor),
            &rogue_key.verifying_key(),
            KeyUsage::AUTHENTICATION,
            Validity::new(0, 50_000),
        );
        let rogue = Identity::new(vec![rogue_cert], rogue_key);
        let policy = HandshakePolicy::new(p.store.clone(), 100);

        // Rogue as initiator: responder rejects the hello.
        let (_, hello) = Initiator::start(rogue.clone(), [10u8; 32], [11u8; 32]);
        assert!(matches!(
            Responder::respond(fw.clone(), &policy, &hello, [12u8; 32], [13u8; 32]),
            Err(ChannelError::Pki(_))
        ));

        // Rogue as responder: initiator rejects the reply.
        let (init, hello) = Initiator::start(fw, [10u8; 32], [11u8; 32]);
        let rogue_policy = HandshakePolicy::new(
            TrustStore::with_roots([rogue_root.certificate().clone()]),
            100,
        );
        // The rogue responder *can* answer (it does not validate us here
        // with the rogue policy trusting the real root? use permissive
        // policy trusting both to isolate the initiator-side check).
        let mut both = TrustStore::with_roots([rogue_root.certificate().clone()]);
        both.add_root(p.root.certificate().clone()).unwrap();
        let permissive = HandshakePolicy::new(both, 100);
        let (_, reply) =
            Responder::respond(rogue, &permissive, &hello, [12u8; 32], [13u8; 32]).unwrap();
        assert!(matches!(
            init.finish(&policy, &reply),
            Err(ChannelError::Pki(_))
        ));
        let _ = rogue_policy;
    }

    #[test]
    fn revoked_peer_rejected() {
        let mut p = pki();
        let fw = identity(&mut p, "fw-01", ComponentRole::Forwarder, 2);
        let bs = identity(&mut p, "bs-01", ComponentRole::BaseStation, 3);
        // Revoke the forwarder's certificate (serial 1).
        p.root.revoke(1, 10);
        let crl = p.root.sign_crl(20);
        let policy = HandshakePolicy::new(p.store.clone(), 100).with_crls(vec![crl]);
        let (_, hello) = Initiator::start(fw, [10u8; 32], [11u8; 32]);
        assert!(matches!(
            Responder::respond(bs, &policy, &hello, [12u8; 32], [13u8; 32]),
            Err(ChannelError::Pki(PkiError::Revoked { .. }))
        ));
    }

    #[test]
    fn expired_peer_rejected() {
        let mut p = pki();
        let fw = identity(&mut p, "fw-01", ComponentRole::Forwarder, 2);
        let bs = identity(&mut p, "bs-01", ComponentRole::BaseStation, 3);
        let policy = HandshakePolicy::new(p.store.clone(), 60_000); // past not_after
        let (_, hello) = Initiator::start(fw, [10u8; 32], [11u8; 32]);
        assert!(matches!(
            Responder::respond(bs, &policy, &hello, [12u8; 32], [13u8; 32]),
            Err(ChannelError::Pki(PkiError::Expired { .. }))
        ));
    }

    #[test]
    fn mitm_key_substitution_detected() {
        // An attacker intercepts the reply and swaps the ephemeral key.
        let mut p = pki();
        let fw = identity(&mut p, "fw-01", ComponentRole::Forwarder, 2);
        let bs = identity(&mut p, "bs-01", ComponentRole::BaseStation, 3);
        let policy = HandshakePolicy::new(p.store.clone(), 100);
        let (init, hello) = Initiator::start(fw, [10u8; 32], [11u8; 32]);
        let (_, reply_bytes) =
            Responder::respond(bs, &policy, &hello, [12u8; 32], [13u8; 32]).unwrap();
        let mut reply = Reply::decode(&reply_bytes).unwrap();
        let (_, attacker_pub) = x25519::keypair(&[66u8; 32]);
        reply.eph_pub = attacker_pub;
        assert_eq!(
            init.finish(&policy, &reply.encode()).unwrap_err(),
            ChannelError::BadTranscript
        );
    }

    #[test]
    fn small_order_key_rejected() {
        let mut p = pki();
        let fw = identity(&mut p, "fw-01", ComponentRole::Forwarder, 2);
        let bs = identity(&mut p, "bs-01", ComponentRole::BaseStation, 3);
        let policy = HandshakePolicy::new(p.store.clone(), 100);
        // Hello with an all-zero (small-order) ephemeral key.
        let (_, hello_bytes) = Initiator::start(fw, [10u8; 32], [11u8; 32]);
        let mut hello = Hello::decode(&hello_bytes).unwrap();
        hello.eph_pub = [0u8; 32];
        assert_eq!(
            Responder::respond(bs, &policy, &hello.encode(), [12u8; 32], [13u8; 32]).unwrap_err(),
            ChannelError::SmallOrderKey
        );
    }

    #[test]
    fn forged_finished_rejected() {
        let mut p = pki();
        let fw = identity(&mut p, "fw-01", ComponentRole::Forwarder, 2);
        let bs = identity(&mut p, "bs-01", ComponentRole::BaseStation, 3);
        let policy = HandshakePolicy::new(p.store.clone(), 100);
        let (init, hello) = Initiator::start(fw, [10u8; 32], [11u8; 32]);
        let (resp, reply) =
            Responder::respond(bs, &policy, &hello, [12u8; 32], [13u8; 32]).unwrap();
        let (_, finished) = init.finish(&policy, &reply).unwrap();
        let mut bad = finished.clone();
        let n = bad.len();
        bad[n / 2] ^= 0x10;
        assert_eq!(
            resp.complete(&bad).unwrap_err(),
            ChannelError::BadTranscript
        );
    }

    #[test]
    fn sessions_differ_across_handshakes() {
        let mut p = pki();
        let policy = HandshakePolicy::new(p.store.clone(), 100);
        let fw = identity(&mut p, "fw-01", ComponentRole::Forwarder, 2);
        let bs = identity(&mut p, "bs-01", ComponentRole::BaseStation, 3);

        let (mut s1, _) = run_handshake(&policy, fw.clone(), bs.clone());
        // Different ephemeral seeds → different keys.
        let (init, hello) = Initiator::start(fw, [20u8; 32], [21u8; 32]);
        let (resp, reply) =
            Responder::respond(bs, &policy, &hello, [22u8; 32], [23u8; 32]).unwrap();
        let (_, finished) = init.finish(&policy, &reply).unwrap();
        let mut s2r = resp.complete(&finished).unwrap();

        let rec = s1.seal(b"cross").unwrap();
        assert!(
            s2r.open(&rec).is_err(),
            "records must not decrypt across sessions"
        );
    }
}
