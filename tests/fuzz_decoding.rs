//! Robustness fuzzing: every network-facing decoder must reject arbitrary
//! bytes gracefully — no panics, no unbounded allocation — because the
//! radio medium delivers whatever an attacker transmits.

use proptest::prelude::*;
use silvasec::channel::messages::{Finished, Hello, Reply};
use silvasec::crypto::edwards::EdwardsPoint;
use silvasec::crypto::schnorr::{Signature, VerifyingKey};
use silvasec::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn handshake_decoders_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = Hello::decode(&bytes);
        let _ = Reply::decode(&bytes);
        let _ = Finished::decode(&bytes);
    }

    #[test]
    fn record_layer_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let keys = silvasec::channel::session::SessionKeys {
            send_key: [1u8; 32],
            recv_key: [2u8; 32],
        };
        let mut session = Session::new(keys, "peer".into());
        prop_assert!(session.open(&bytes).is_err(), "random bytes must never authenticate");
    }

    #[test]
    fn point_decoding_never_panics(bytes in any::<[u8; 64]>()) {
        let _ = EdwardsPoint::decode(&bytes);
        let _ = VerifyingKey::from_bytes(&bytes);
    }

    #[test]
    fn signature_parsing_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Signature::from_bytes(&bytes);
    }

    #[test]
    fn random_signatures_never_verify(
        seed in any::<[u8; 32]>(),
        sig_bytes in any::<[u8; 32]>(),
        msg in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        // Construct a structurally valid signature from a random point and
        // scalar; it must still fail verification.
        let sk = silvasec::crypto::schnorr::SigningKey::from_seed(&seed);
        let vk = sk.verifying_key();
        let r_point = EdwardsPoint::mul_basepoint(
            &silvasec::crypto::scalar::Scalar::from_bytes_mod_order(&sig_bytes),
        );
        let forged = Signature {
            r_bytes: r_point.encode(),
            s_bytes: silvasec::crypto::scalar::Scalar::from_bytes_mod_order(&sig_bytes).to_bytes(),
        };
        prop_assert!(vk.verify(&msg, &forged).is_err());
    }

}

proptest! {
    // A full PKI + handshake per case: keep the case count low.
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn corrupted_handshake_replies_rejected(
        flip in any::<usize>(),
        bit in 0u8..8,
    ) {
        // A bit-flipped (but structurally plausible) reply must never
        // complete a handshake.
        let mut root = CertificateAuthority::new_root("root", &[1u8; 32], Validity::new(0, 1_000));
        let store = TrustStore::with_roots([root.certificate().clone()]);
        let make = |id: &str, role, s: u8, root: &mut CertificateAuthority| {
            let key = silvasec::crypto::schnorr::SigningKey::from_seed(&[s; 32]);
            let cert = root.issue_mut(
                &Subject::new(id, role),
                &key.verifying_key(),
                KeyUsage::AUTHENTICATION,
                Validity::new(0, 500),
            );
            Identity::new(vec![cert], key)
        };
        let a = make("a", ComponentRole::Forwarder, 2, &mut root);
        let b = make("b", ComponentRole::BaseStation, 3, &mut root);
        let policy = HandshakePolicy::new(store, 100);
        let (init, hello) = Initiator::start(a, [4u8; 32], [5u8; 32]);
        let (_, reply) = Responder::respond(b, &policy, &hello, [6u8; 32], [7u8; 32]).unwrap();
        let mut bad = reply.clone();
        let idx = flip % bad.len();
        bad[idx] ^= 1 << bit;
        prop_assert!(bad == reply || init.finish(&policy, &bad).is_err());
    }
}
