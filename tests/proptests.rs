//! Property-based tests over the core invariants of every substrate.

use proptest::prelude::*;
use silvasec::crypto::aead::ChaCha20Poly1305;
use silvasec::crypto::edwards::EdwardsPoint;
use silvasec::crypto::field::FieldElement;
use silvasec::crypto::scalar::Scalar;
use silvasec::crypto::schnorr::{self, BatchItem, SigningKey};
use silvasec::crypto::{chacha20, hkdf, sha256};
use silvasec::prelude::*;
use silvasec::risk::feasibility::{AttackFeasibility, AttackPotential};
use silvasec::risk::impact::ImpactLevel;
use silvasec::risk::RiskLevel;
use silvasec::sim::vegetation::{StandConfig, Tree, TreeStand};
use silvasec_channel::replay::ReplayWindow;

/// Edge-heavy length schedule for the data-plane parity tests: empty,
/// single byte, around the Poly1305 16-byte boundary, the ChaCha20
/// 64-byte block boundary, and the 512-byte wide-chunk boundary.
const KEYSTREAM_EDGE_LENS: [usize; 12] = [0, 1, 15, 16, 17, 63, 64, 65, 511, 512, 513, 1537];

proptest! {
    // ---------------- crypto ----------------

    #[test]
    fn aead_roundtrip(key in any::<[u8; 32]>(), nonce in any::<[u8; 12]>(),
                      aad in proptest::collection::vec(any::<u8>(), 0..64),
                      pt in proptest::collection::vec(any::<u8>(), 0..512)) {
        let aead = ChaCha20Poly1305::new(&key);
        let sealed = aead.seal(&nonce, &aad, &pt);
        prop_assert_eq!(aead.open(&nonce, &aad, &sealed).unwrap(), pt);
    }

    #[test]
    fn aead_tamper_always_detected(key in any::<[u8; 32]>(),
                                   pt in proptest::collection::vec(any::<u8>(), 1..128),
                                   flip_byte in any::<usize>(), flip_bit in 0u8..8) {
        let aead = ChaCha20Poly1305::new(&key);
        let mut sealed = aead.seal(&[0u8; 12], b"", &pt);
        let idx = flip_byte % sealed.len();
        sealed[idx] ^= 1 << flip_bit;
        prop_assert!(aead.open(&[0u8; 12], b"", &sealed).is_err());
    }

    #[test]
    fn keystream_wide_path_matches_naive(key in any::<[u8; 32]>(), nonce in any::<[u8; 12]>(),
                                         counter in 0u32..1_000_000,
                                         len_i in 0usize..KEYSTREAM_EDGE_LENS.len(),
                                         extra in 0usize..1600) {
        // The multi-block keystream must match the frozen per-block
        // reference at every chunking edge: around the 64-byte block
        // boundary, around the 512-byte wide-chunk boundary, and on
        // arbitrary lengths.
        let cipher = chacha20::ChaCha20::new(&key);
        for len in [KEYSTREAM_EDGE_LENS[len_i], extra] {
            let pt: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let mut fast = pt.clone();
            let mut naive = pt;
            cipher.apply_keystream_inplace(&nonce, counter, &mut fast);
            cipher.apply_keystream_naive(&nonce, counter, &mut naive);
            prop_assert_eq!(fast, naive, "len {}", len);
        }
    }

    #[test]
    fn aead_in_place_matches_two_pass(key in any::<[u8; 32]>(), nonce in any::<[u8; 12]>(),
                                      aad in proptest::collection::vec(any::<u8>(), 0..48),
                                      len_i in 0usize..KEYSTREAM_EDGE_LENS.len(),
                                      extra in 0usize..1600,
                                      flip_byte in any::<usize>(), flip_bit in 0u8..8) {
        // One-pass seal/open over a caller buffer must be byte-identical
        // to (and interoperable with) the allocating API and the frozen
        // two-pass oracle, and must reject exactly the same forgeries.
        let aead = ChaCha20Poly1305::new(&key);
        for len in [KEYSTREAM_EDGE_LENS[len_i], extra] {
            let pt: Vec<u8> = (0..len).map(|i| (i % 249) as u8).collect();
            let mut buf = pt.clone();
            aead.seal_in_place(&nonce, &aad, &mut buf);
            let sealed = aead.seal(&nonce, &aad, &pt);
            prop_assert_eq!(&buf, &sealed, "seal len {}", len);
            prop_assert_eq!(&aead.seal_naive(&nonce, &aad, &pt), &sealed, "seal_naive len {}", len);

            // Cross-open: in-place opens the two-pass record and
            // vice versa.
            let mut opened = sealed.clone();
            aead.open_in_place(&nonce, &aad, &mut opened).unwrap();
            prop_assert_eq!(&opened, &pt, "open len {}", len);
            prop_assert_eq!(&aead.open(&nonce, &aad, &buf).unwrap(), &pt);
            prop_assert_eq!(&aead.open_naive(&nonce, &aad, &buf).unwrap(), &pt);

            // Tamper-rejection parity: every path rejects the same flip,
            // and the in-place path clears the buffer.
            let mut forged = sealed.clone();
            let idx = flip_byte % forged.len();
            forged[idx] ^= 1 << flip_bit;
            let mut forged_in_place = forged.clone();
            prop_assert!(aead.open(&nonce, &aad, &forged).is_err());
            prop_assert!(aead.open_naive(&nonce, &aad, &forged).is_err());
            prop_assert!(aead.open_in_place(&nonce, &aad, &mut forged_in_place).is_err());
            prop_assert!(forged_in_place.is_empty());
        }
    }

    #[test]
    fn sha256_incremental_equals_oneshot(data in proptest::collection::vec(any::<u8>(), 0..2048),
                                         split in any::<usize>()) {
        let s = split % (data.len() + 1);
        let mut h = sha256::Sha256::new();
        h.update(&data[..s]);
        h.update(&data[s..]);
        prop_assert_eq!(h.finalize(), sha256::digest(&data));
    }

    #[test]
    fn hkdf_prefix_stability(ikm in any::<[u8; 32]>(), len_a in 1usize..100, len_b in 1usize..100) {
        // Expanding to different lengths agrees on the common prefix.
        let prk = hkdf::extract(b"salt", &ikm);
        let mut a = vec![0u8; len_a];
        let mut b = vec![0u8; len_b];
        hkdf::expand(&prk, b"info", &mut a);
        hkdf::expand(&prk, b"info", &mut b);
        let n = len_a.min(len_b);
        prop_assert_eq!(&a[..n], &b[..n]);
    }

    #[test]
    fn field_algebra(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        let (fa, fb, fc) = (FieldElement::from_u64(a), FieldElement::from_u64(b), FieldElement::from_u64(c));
        prop_assert_eq!(fa.add(&fb), fb.add(&fa));
        prop_assert_eq!(fa.mul(&fb), fb.mul(&fa));
        prop_assert_eq!(fa.mul(&fb.add(&fc)), fa.mul(&fb).add(&fa.mul(&fc)));
        prop_assert_eq!(fa.sub(&fa), FieldElement::ZERO);
    }

    #[test]
    fn field_inverse(a in 1u64..) {
        let fa = FieldElement::from_u64(a);
        prop_assert_eq!(fa.mul(&fa.invert()), FieldElement::ONE);
    }

    #[test]
    fn scalar_ring_axioms(a in any::<[u8; 32]>(), b in any::<[u8; 32]>()) {
        let sa = Scalar::from_bytes_mod_order(&a);
        let sb = Scalar::from_bytes_mod_order(&b);
        prop_assert_eq!(sa.add(&sb), sb.add(&sa));
        prop_assert_eq!(sa.mul(&sb), sb.mul(&sa));
        prop_assert_eq!(sa.sub(&sa), Scalar::ZERO);
        prop_assert_eq!(sa.add(&sa.neg()), Scalar::ZERO);
    }

    #[test]
    fn edwards_group_homomorphism(a in any::<u64>(), b in any::<u64>()) {
        let base = EdwardsPoint::basepoint();
        let sa = Scalar::from_u64(a);
        let sb = Scalar::from_u64(b);
        prop_assert_eq!(
            base.scalar_mul(&sa.add(&sb)),
            base.scalar_mul(&sa).add(&base.scalar_mul(&sb))
        );
    }

    #[test]
    fn signatures_roundtrip(seed in any::<[u8; 32]>(),
                            msg in proptest::collection::vec(any::<u8>(), 0..256)) {
        let sk = SigningKey::from_seed(&seed);
        let sig = sk.sign(&msg);
        prop_assert!(sk.verifying_key().verify(&msg, &sig).is_ok());
        // A different message never verifies.
        let mut other = msg.clone();
        other.push(0x55);
        prop_assert!(sk.verifying_key().verify(&other, &sig).is_err());
    }

    // ---------------- channel ----------------

    #[test]
    fn replay_window_accepts_each_seq_once(seqs in proptest::collection::vec(0u64..5000, 1..200)) {
        let mut window = ReplayWindow::new();
        let mut accepted = std::collections::HashSet::new();
        for seq in seqs {
            let result = window.accept(seq);
            if result.is_ok() {
                prop_assert!(accepted.insert(seq), "seq {} accepted twice", seq);
            }
        }
    }

    #[test]
    fn replay_window_never_rejects_fresh_in_order(start in 0u64..1000, n in 1u64..300) {
        let mut window = ReplayWindow::new();
        for seq in start..start + n {
            prop_assert!(window.accept(seq).is_ok());
        }
    }

    // ---------------- sim ----------------

    #[test]
    fn event_queue_pops_sorted(times in proptest::collection::vec(0u64..10_000, 1..100)) {
        let mut q = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.schedule(SimTime::from_millis(*t), i);
        }
        let mut last = SimTime::ZERO;
        while let Some((at, _)) = q.pop() {
            prop_assert!(at >= last);
            last = at;
        }
    }

    #[test]
    fn terrain_height_bounded_and_symmetric_los(seed in any::<u64>()) {
        let terrain = silvasec::sim::terrain::Terrain::generate(
            &silvasec::sim::terrain::TerrainConfig {
                size_m: 200.0, ..silvasec::sim::terrain::TerrainConfig::default()
            },
            &mut SimRng::from_seed(seed),
        );
        let stand = silvasec::sim::vegetation::TreeStand::from_trees(Vec::new(), 200.0);
        let a = Vec3::new(20.0, 30.0, terrain.height_at(Vec2::new(20.0, 30.0)) + 2.0);
        let b = Vec3::new(170.0, 150.0, terrain.height_at(Vec2::new(170.0, 150.0)) + 2.0);
        let ab = silvasec::sim::los::line_of_sight(&terrain, &stand, a, b);
        let ba = silvasec::sim::los::line_of_sight(&terrain, &stand, b, a);
        // LoS over terrain-only occluders is symmetric.
        prop_assert_eq!(ab.is_blocked(), ba.is_blocked());
    }

    // ---------------- sweep ----------------

    #[test]
    fn par_sweep_bit_identical_to_sequential_map(points in proptest::collection::vec(any::<u64>(), 0..200)) {
        // The determinism contract of the parallel sweep engine: for any
        // point set, the result is the sequential map, bit for bit —
        // including floating-point outputs.
        let eval = |&p: &u64| {
            let mut acc = (p as f64).sin();
            let mut h = p;
            for i in 0..50u64 {
                h = h.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
                acc = (acc * 1.0001 + (h >> 11) as f64 * 1e-12).cos();
            }
            (acc, h)
        };
        let par = silvasec::sweep::par_sweep(&points, eval);
        let seq: Vec<(f64, u64)> = points.iter().map(eval).collect();
        prop_assert_eq!(par.len(), seq.len());
        for ((pa, ph), (sa, sh)) in par.iter().zip(&seq) {
            prop_assert_eq!(pa.to_bits(), sa.to_bits());
            prop_assert_eq!(ph, sh);
        }
    }

    #[test]
    fn par_sweep_order_preserved_under_uneven_load(spins in proptest::collection::vec(0u64..2000, 1..64)) {
        // Uneven per-point cost shuffles completion order; the scatter
        // by input index must still return input order.
        let out = silvasec::sweep::par_sweep(&spins, |&spin| {
            let mut acc = 0u64;
            for i in 0..spin {
                acc = acc.wrapping_add(i ^ spin);
            }
            (spin, acc)
        });
        for (i, (spin, _)) in out.iter().enumerate() {
            prop_assert_eq!(*spin, spins[i]);
        }
    }

    // ---------------- risk ----------------

    #[test]
    fn risk_matrix_monotone(i1 in 0u8..4, i2 in 0u8..4, f1 in 0u8..4, f2 in 0u8..4) {
        let impact = |v: u8| match v {
            0 => ImpactLevel::Negligible,
            1 => ImpactLevel::Moderate,
            2 => ImpactLevel::Major,
            _ => ImpactLevel::Severe,
        };
        let feas = |v: u8| match v {
            0 => AttackFeasibility::VeryLow,
            1 => AttackFeasibility::Low,
            2 => AttackFeasibility::Medium,
            _ => AttackFeasibility::High,
        };
        if i1 <= i2 && f1 <= f2 {
            prop_assert!(
                RiskLevel::from_matrix(impact(i1), feas(f1))
                    <= RiskLevel::from_matrix(impact(i2), feas(f2))
            );
        }
    }

    #[test]
    fn attack_potential_feasibility_antitone(t1 in 0u8..20, e1 in 0u8..9, t2 in 0u8..20, e2 in 0u8..9) {
        let p1 = AttackPotential::new(t1, e1, 0, 0, 0);
        let p2 = AttackPotential::new(t2, e2, 0, 0, 0);
        if p1.total() <= p2.total() {
            prop_assert!(p1.feasibility() >= p2.feasibility());
        }
    }

    // ---------------- assurance ----------------

    #[test]
    fn random_goal_trees_are_well_formed(n in 1usize..30) {
        // A generated strict tree of goals with solutions at the leaves
        // must always pass the checker.
        let mut case = AssuranceCase::new("generated");
        let root = case.add_node(NodeKind::Goal, "G0", "root");
        let mut parents = vec![root.clone()];
        for i in 1..=n {
            let parent = parents[i % parents.len()].clone();
            let goal = case.add_node(NodeKind::Goal, format!("G{i}"), "sub");
            case.supported_by(&parent, &goal);
            let sol = case.add_node(NodeKind::Solution, format!("Sn{i}"), "evidence");
            case.supported_by(&goal, &sol);
            parents.push(goal);
        }
        prop_assert!(case.check().is_empty());
        prop_assert_eq!(case.goal_coverage(), 1.0);
    }
}

// ---------------- fleet OTA bundles ----------------

/// A signed update bundle over arbitrary manifest fields and payloads,
/// plus the trust store that anchors it.
fn arbitrary_bundle(
    version: u32,
    channel: &str,
    released_at_ms: u64,
    boot_payload: Vec<u8>,
    app_payload: Vec<u8>,
) -> (silvasec::fleet::UpdateBundle, TrustStore) {
    use silvasec::fleet::{UpdateBundle, UpdateManifest};
    let mut ca =
        CertificateAuthority::new_root("fleet-root", &[1u8; 32], Validity::new(0, u64::MAX / 2));
    let signer = SigningKey::from_seed(&[2u8; 32]);
    let leaf = ca.issue_mut(
        &Subject::new("fleet-fw-signer", ComponentRole::FirmwareSigner),
        &signer.verifying_key(),
        KeyUsage::FIRMWARE_SIGNING,
        Validity::new(0, u64::MAX / 2),
    );
    let store = TrustStore::with_roots([ca.certificate().clone()]);
    let images = vec![
        FirmwareImage::new(
            "forwarder-fw",
            FirmwareStage::Bootloader,
            version,
            boot_payload,
        )
        .sign(&signer),
        FirmwareImage::new(
            "forwarder-fw",
            FirmwareStage::Application,
            version,
            app_payload,
        )
        .sign(&signer),
    ];
    let manifest = UpdateManifest {
        component_id: "forwarder-fw".into(),
        version,
        channel: channel.into(),
        released_at_ms,
    };
    (
        UpdateBundle::build(manifest, images, vec![leaf], &signer),
        store,
    )
}

proptest! {
    // Chain building + three signatures per case: keep the case count
    // low enough for debug-mode CI.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn update_bundle_encode_decode_roundtrip(
        version in 2u32..1_000,
        channel_i in 0usize..3,
        released_at_ms in 0u64..1_000_000_000,
        boot_payload in proptest::collection::vec(any::<u8>(), 1..256),
        app_payload in proptest::collection::vec(any::<u8>(), 1..512),
    ) {
        let channel = ["stable", "beta", "nightly"][channel_i];
        let (bundle, store) =
            arbitrary_bundle(version, channel, released_at_ms, boot_payload, app_payload);
        let bytes = bundle.encode();
        let back = silvasec::fleet::UpdateBundle::decode(&bytes).unwrap();
        prop_assert_eq!(&back, &bundle);
        // The decoded bundle verifies against the anchoring store and
        // any strictly older installed version...
        prop_assert!(back
            .verify(&store, released_at_ms, "forwarder-fw", version - 1)
            .is_ok());
        // ... and is a rejected downgrade against itself or anything newer.
        prop_assert!(back
            .verify(&store, released_at_ms, "forwarder-fw", version)
            .is_err());
    }

    #[test]
    fn update_bundle_bitflip_never_verifies(
        version in 2u32..100,
        flip_at in any::<usize>(),
        flip_bit in 0u8..8,
    ) {
        let (bundle, store) =
            arbitrary_bundle(version, "stable", 1_000, vec![0xAA; 64], vec![0xBB; 128]);
        let mut bytes = bundle.encode();
        let idx = flip_at % bytes.len();
        bytes[idx] ^= 1 << flip_bit;
        match silvasec::fleet::UpdateBundle::decode(&bytes) {
            Err(_) => {}
            Ok(back) => {
                // A flip that still parses but changed any content must
                // fail verification. (A flip can land in redundant JSON
                // encoding and leave the value unchanged — that decodes
                // to an equal bundle and is not a forgery.)
                if back != bundle {
                    prop_assert!(back
                        .verify(&store, 1_000, "forwarder-fw", version - 1)
                        .is_err());
                }
            }
        }
    }
}

// ---------------- fast-path crypto vs the frozen naive oracle ----------------

proptest! {
    // Every case runs several full scalar multiplications against the
    // frozen seed ladder (or builds a chain and signs a CRL); keep the
    // case count debug-CI friendly.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn scalar_mul_fast_paths_encode_identical_to_naive(
        s_bytes in any::<[u8; 32]>(),
        p_seed in any::<u64>(),
    ) {
        let s = Scalar::from_bytes_mod_order(&s_bytes);
        let base = EdwardsPoint::basepoint();
        // Basepoint dispatch (shared precomputed table)...
        prop_assert_eq!(base.scalar_mul(&s).encode(), base.scalar_mul_naive(&s).encode());
        // ...and the constant-time fixed-window ladder on an arbitrary
        // point (p_seed = 0 exercises the identity).
        let p = base.scalar_mul_naive(&Scalar::from_u64(p_seed));
        prop_assert_eq!(p.scalar_mul(&s).encode(), p.scalar_mul_naive(&s).encode());
    }

    #[test]
    fn double_scalar_mul_encodes_identical_to_naive(
        a_bytes in any::<[u8; 32]>(),
        b_bytes in any::<[u8; 32]>(),
        p_seed in any::<u64>(),
        q_seed in any::<u64>(),
    ) {
        let a = Scalar::from_bytes_mod_order(&a_bytes);
        let b = Scalar::from_bytes_mod_order(&b_bytes);
        let base = EdwardsPoint::basepoint();
        let p = base.scalar_mul_naive(&Scalar::from_u64(p_seed));
        let q = base.scalar_mul_naive(&Scalar::from_u64(q_seed));
        // All three dispatch shapes: basepoint first (the verification
        // equation), basepoint second, and fully generic.
        prop_assert_eq!(
            base.double_scalar_mul(&a, &p, &b).encode(),
            base.double_scalar_mul_naive(&a, &p, &b).encode()
        );
        prop_assert_eq!(
            p.double_scalar_mul(&a, &base, &b).encode(),
            p.double_scalar_mul_naive(&a, &base, &b).encode()
        );
        prop_assert_eq!(
            p.double_scalar_mul(&a, &q, &b).encode(),
            p.double_scalar_mul_naive(&a, &q, &b).encode()
        );
    }

    #[test]
    fn batch_verify_accepts_iff_every_individual_verifies(
        msg_salt in any::<u64>(),
        corrupt_idx in 0usize..16,
        corrupt_sig in any::<bool>(),
    ) {
        const N: usize = 16;
        let keys: Vec<SigningKey> = (0..N)
            .map(|i| {
                let mut seed = [0u8; 32];
                seed[..8].copy_from_slice(&msg_salt.to_le_bytes());
                seed[8] = i as u8;
                SigningKey::from_seed(&seed)
            })
            .collect();
        let mut messages: Vec<Vec<u8>> = (0..N)
            .map(|i| format!("batch proptest {msg_salt} {i}").into_bytes())
            .collect();
        let mut signatures: Vec<_> = keys
            .iter()
            .zip(&messages)
            .map(|(k, m)| k.sign(m))
            .collect();
        let verifiers: Vec<_> = keys.iter().map(SigningKey::verifying_key).collect();

        let batch_ok = |messages: &[Vec<u8>], sigs: &[schnorr::Signature]| {
            let items: Vec<BatchItem<'_>> = (0..N)
                .map(|i| BatchItem {
                    message: &messages[i],
                    signature: &sigs[i],
                    key: &verifiers[i],
                })
                .collect();
            schnorr::verify_batch(&items)
        };

        // All-valid set: the batch accepts.
        prop_assert!(batch_ok(&messages, &signatures));

        // Corrupt exactly one of the sixteen (signature or message).
        if corrupt_sig {
            let mut bytes = signatures[corrupt_idx].to_bytes();
            bytes[17] ^= 0x40;
            match schnorr::Signature::from_bytes(&bytes) {
                Ok(sig) => signatures[corrupt_idx] = sig,
                // A flipped bit can make the encoding undecodable
                // (non-canonical); corrupt the message instead.
                Err(_) => messages[corrupt_idx].push(0x99),
            }
        } else {
            messages[corrupt_idx][0] ^= 0x01;
        }

        // The batch rejects, and individual verification pinpoints
        // exactly the corrupted index.
        prop_assert!(!batch_ok(&messages, &signatures));
        for i in 0..N {
            let individual = verifiers[i].verify(&messages[i], &signatures[i]).is_ok();
            prop_assert_eq!(individual, i != corrupt_idx, "index {}", i);
        }
    }

    #[test]
    fn field_mul_prescaled_matches_widening_reference(
        a_bytes in any::<[u8; 32]>(),
        b_bytes in any::<[u8; 32]>(),
    ) {
        // The u64-prescaled `mul` must be bit-identical to the frozen
        // u128-widening reference, including on the widened limbs that
        // `add` chains produce (inputs up to ~2^54 per limb).
        let a = FieldElement::from_bytes(&a_bytes);
        let b = FieldElement::from_bytes(&b_bytes);
        prop_assert_eq!(a.mul(&b), a.mul_reference(&b));
        // Push the limbs off canonical form via unreduced sums.
        let wide_a = a.add(&a).add(&a).add(&b);
        let wide_b = b.add(&b).add(&a).add(&b);
        prop_assert_eq!(wide_a.mul(&wide_b), wide_a.mul_reference(&wide_b));
    }

    #[test]
    fn chain_cache_never_survives_a_crl_revocation(
        validate_t in 10u64..900,
        revoke_at in 1_000u64..5_000,
    ) {
        let mut ca = CertificateAuthority::new_root(
            "prop-root",
            &[7u8; 32],
            Validity::new(0, 10_000),
        );
        let end_key = SigningKey::from_seed(&[8u8; 32]);
        let end = ca.issue_mut(
            &Subject::new("prop-end", ComponentRole::Sensor),
            &end_key.verifying_key(),
            KeyUsage::AUTHENTICATION,
            Validity::new(0, 10_000),
        );
        let store = TrustStore::with_roots([ca.certificate().clone()]);
        let chain = vec![end.clone()];

        // Warm the verified-chain cache (second call is the cached hit).
        prop_assert!(store.validate_chain(&chain, validate_t, &[]).is_ok());
        prop_assert!(store.validate_chain(&chain, validate_t, &[]).is_ok());
        prop_assert!(store.chain_cache_len() >= 1);

        // A CRL revoking the leaf changes the cache key (CRL bytes are
        // part of the fingerprint), so the warm cache cannot mask the
        // revocation.
        ca.revoke(end.serial, revoke_at);
        let crl = ca.sign_crl(revoke_at + 1);
        prop_assert!(matches!(
            store.validate_chain(&chain, revoke_at + 10, std::slice::from_ref(&crl)),
            Err(PkiError::Revoked { .. })
        ));

        // The CRL-free verdict at the original time is still served.
        prop_assert!(store.validate_chain(&chain, validate_t, &[]).is_ok());
    }
}

// ---------------- episode engine (pooled worksite reuse) ----------------

/// A compact worksite for the episode-engine properties (the shared
/// episode-sweep configuration), so each case stays debug-CI friendly.
fn episode_test_config(secure: bool) -> WorksiteConfig {
    silvasec::experiments::compact_config(if secure {
        SecurityPosture::secure()
    } else {
        SecurityPosture::insecure()
    })
}

/// The attack rotation used by the episode properties (campaign targets
/// without label strings, the rotation `tests/alloc_free.rs` resets
/// through).
const EPISODE_ATTACKS: [Option<AttackKind>; 4] = [
    None,
    Some(AttackKind::RfJamming),
    Some(AttackKind::DeauthFlood),
    Some(AttackKind::Replay),
];

proptest! {
    // Each case runs several full worksite episodes (PKI, worldgen,
    // simulation); keep the case count debug-CI friendly.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn worksite_reset_is_byte_identical_to_fresh_build(
        dirty_seed in 0u64..50,
        seed in 0u64..50,
        dirty_attack_i in 0usize..4,
        attack_i in 0usize..4,
        dirty_secure in any::<bool>(),
        secure in any::<bool>(),
    ) {
        use silvasec::experiments::EpisodeSpec;

        let dirty_spec = EpisodeSpec {
            config: episode_test_config(dirty_secure),
            seed: dirty_seed,
            attack: EPISODE_ATTACKS[dirty_attack_i],
            duration: SimDuration::from_secs(40),
        };
        let spec = EpisodeSpec {
            config: episode_test_config(secure),
            seed,
            attack: EPISODE_ATTACKS[attack_i],
            duration: SimDuration::from_secs(40),
        };

        // Dirty the pooled worksite with an arbitrary first episode,
        // then reset it onto the probed spec...
        let mut pooled = Worksite::new(&dirty_spec.config, dirty_spec.seed);
        dirty_spec.arm(&mut pooled);
        pooled.run(dirty_spec.duration);
        pooled.reset_for_episode(&spec.config, spec.seed);
        spec.arm(&mut pooled);
        pooled.run(spec.duration);

        // ...and run the same spec on a fresh build. Every exported
        // trace must be byte-identical — same seed, same bytes.
        let mut fresh = Worksite::new(&spec.config, spec.seed);
        spec.arm(&mut fresh);
        fresh.run(spec.duration);

        prop_assert_eq!(pooled.export_security_jsonl(), fresh.export_security_jsonl());
        prop_assert_eq!(pooled.export_flight_jsonl(), fresh.export_flight_jsonl());
        prop_assert_eq!(pooled.metrics().ticks, fresh.metrics().ticks);
        prop_assert_eq!(
            pooled.metrics().distance_m.to_bits(),
            fresh.metrics().distance_m.to_bits()
        );
    }

    #[test]
    fn episode_runner_parallel_matches_sequential(
        seeds in proptest::collection::vec(0u64..40, 2..5),
        workers in 2usize..5,
    ) {
        use silvasec::experiments::{EpisodeRunner, EpisodeSpec};

        let episodes: Vec<EpisodeSpec> = seeds
            .iter()
            .enumerate()
            .map(|(i, &seed)| EpisodeSpec {
                config: episode_test_config(true),
                seed,
                attack: EPISODE_ATTACKS[i % EPISODE_ATTACKS.len()],
                duration: SimDuration::from_secs(30),
            })
            .collect();

        let sequential = EpisodeRunner::with_workers(1).run(&episodes);
        let parallel = EpisodeRunner::with_workers(workers).run(&episodes);
        prop_assert_eq!(&parallel, &sequential, "workers = {}", workers);
        // Input order is preserved regardless of completion order.
        for (outcome, spec) in sequential.iter().zip(&episodes) {
            prop_assert_eq!(outcome.seed, spec.seed);
        }
    }
}

// ---------------- tick hot path (zero-alloc perception + culling) ----------------

/// A generated compact world for the perception/culling parity
/// properties (forest stand + worker roster + entity grid).
fn hotpath_world(seed: u64) -> World {
    let config = silvasec::experiments::compact_config(SecurityPosture::secure());
    World::generate(&config.world, SimRng::from_seed(seed))
}

/// Decodes one fuzzed detection from 64 raw bits (the vendored proptest
/// has integer strategies only; floats are derived in-test).
fn detection_from_bits(bits: u64) -> Detection {
    Detection {
        human_id: silvasec::sim::humans::HumanId((bits & 7) as u32),
        position: Vec2::new(
            ((bits >> 3) % 1000) as f64 / 10.0 - 50.0,
            ((bits >> 13) % 1000) as f64 / 10.0 - 50.0,
        ),
        confidence: ((bits >> 23) % 1001) as f64 / 1000.0,
        distance_m: 0.5 + ((bits >> 33) % 400) as f64 / 10.0,
    }
}

/// Checks every fast stand query against the frozen full-rectangle scan
/// for one segment: the culled visitor returns the reference's trees in
/// its order, the trunk query returns those of them whose base is within
/// `margin`, in that order, and the capped count is `min(len, cap)`.
fn stand_queries_match_reference(
    stand: &TreeStand,
    a: Vec2,
    b: Vec2,
    margin: f64,
) -> Result<(), TestCaseError> {
    let same = |got: &[&Tree], want: &[&Tree]| {
        got.len() == want.len() && got.iter().zip(want).all(|(g, w)| std::ptr::eq(*g, *w))
    };
    let oracle = stand.trees_near_segment_reference(a, b, margin);
    prop_assert!(
        same(&stand.trees_near_segment(a, b, margin), &oracle),
        "culled query diverged from the reference"
    );
    for cap in [0, 1, 60, usize::MAX] {
        prop_assert_eq!(
            stand.count_trees_near_segment(a, b, margin, cap),
            oracle.len().min(cap)
        );
    }
    let trunks_oracle: Vec<&Tree> = oracle
        .iter()
        .copied()
        .filter(|t| t.position.distance_to_segment(a, b) <= margin)
        .collect();
    let mut trunks = Vec::new();
    stand.for_trunks_near_segment(a, b, margin, |t| {
        trunks.push(t);
        true
    });
    prop_assert!(
        same(&trunks, &trunks_oracle),
        "trunk query diverged from the reference"
    );
    Ok(())
}

/// The pre-optimization foliage loss, kept as the oracle of
/// `comms::propagation::foliage_loss_db`: it collects the trees of the
/// frozen full-rectangle scan into a `Vec` and filters them by trunk
/// distance and height, with no early exit at the cap.
fn foliage_loss_db_reference(
    config: &silvasec::comms::propagation::PropagationConfig,
    stand: &TreeStand,
    from: silvasec::sim::geom::Vec3,
    to: silvasec::sim::geom::Vec3,
) -> f64 {
    let a2 = from.xy();
    let b2 = to.xy();
    let link_z = from.z.min(to.z);
    let crossing_count = stand
        .trees_near_segment_reference(a2, b2, 1.5)
        .iter()
        .filter(|tree| tree.position.distance_to_segment(a2, b2) <= 1.5 && tree.height_m >= link_z)
        .count();
    (crossing_count as f64 * config.per_tree_db).min(config.max_foliage_db)
}

/// `x` moved by `k` ulps (through zero into the negatives).
fn ulps(x: f64, k: i32) -> f64 {
    (0..k.unsigned_abs()).fold(x, |v, _| if k > 0 { v.next_up() } else { v.next_down() })
}

proptest! {
    // Each case generates a world (stand + roster); keep the count
    // debug-CI friendly.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn detect_into_matches_detect(
        seed in 0u64..500,
        kind_i in 0usize..2,
        xi in 0u32..1500,
        yi in 0u32..1500,
        heading_i in 0u32..628,
        steps in 0u32..40,
    ) {
        let mut world = hotpath_world(seed);
        for _ in 0..steps {
            world.step(SimDuration::from_millis(500));
        }
        let kind = [SensorKind::Camera, SensorKind::Lidar][kind_i];
        let sensor = PeopleSensor::new(kind, 2.8);
        let pos = Vec2::new(f64::from(xi) / 10.0, f64::from(yi) / 10.0);
        let heading = f64::from(heading_i) / 100.0;
        let mut oracle_rng = SimRng::from_seed(seed ^ 0x9e37_79b9);
        let mut hot_rng = oracle_rng.clone();
        let oracle = sensor.detect(&world, pos, heading, &mut oracle_rng);
        let (mut candidates, mut out) = (Vec::new(), Vec::new());
        sensor.detect_into(&world, pos, heading, &mut hot_rng, &mut candidates, &mut out);
        prop_assert_eq!(&out, &oracle);
        // Both forms must consume the exact same RNG draws, or every
        // later draw in a tick would diverge.
        prop_assert_eq!(
            oracle_rng.uniform_range(0.0, 1.0).to_bits(),
            hot_rng.uniform_range(0.0, 1.0).to_bits()
        );
    }

    #[test]
    fn fuse_into_matches_fuse(
        raw in proptest::collection::vec(
            proptest::collection::vec(any::<u64>(), 0..8),
            0..4,
        ),
    ) {
        let sources: Vec<Vec<Detection>> = raw
            .iter()
            .map(|l| l.iter().copied().map(detection_from_bits).collect())
            .collect();
        let oracle = fuse_detections(&sources);
        let views: Vec<&[Detection]> = sources.iter().map(Vec::as_slice).collect();
        let mut out = Vec::new();
        fuse_detections_into(&views, &mut out);
        prop_assert_eq!(out, oracle);
    }

    #[test]
    fn grid_candidates_match_linear_scan(
        seed in 0u64..500,
        steps in 0u32..40,
        xi in 0u32..1500,
        yi in 0u32..1500,
        radius_i in 1u32..800,
    ) {
        let mut world = hotpath_world(seed);
        for _ in 0..steps {
            world.step(SimDuration::from_millis(500));
        }
        let center = Vec2::new(f64::from(xi) / 10.0, f64::from(yi) / 10.0);
        let radius = f64::from(radius_i) / 10.0;
        let mut candidates = Vec::new();
        world.human_grid().fill_candidates(center, radius, &mut candidates);
        prop_assert!(candidates.windows(2).all(|w| w[0] < w[1]), "not sorted/deduped");
        let linear: Vec<u32> = world
            .humans()
            .iter()
            .enumerate()
            .filter(|(_, h)| h.position.distance(center) <= radius)
            .map(|(i, _)| i as u32)
            .collect();
        // Conservative superset of everyone in range...
        for i in &linear {
            prop_assert!(candidates.binary_search(i).is_ok(), "missing index {}", i);
        }
        // ...and exactly the linear scan once the true range filter
        // re-applies (same members, same ascending order).
        let culled: Vec<u32> = candidates
            .iter()
            .copied()
            .filter(|&i| world.humans()[i as usize].position.distance(center) <= radius)
            .collect();
        prop_assert_eq!(culled, linear);
    }

    #[test]
    fn culled_segment_query_matches_frozen_reference(
        seed in 0u64..500,
        axi in 0u32..1500,
        ayi in 0u32..1500,
        bxi in 0u32..1500,
        byi in 0u32..1500,
        margin_i in 1u32..300,
    ) {
        let world = hotpath_world(seed);
        let stand = world.stand();
        let a = Vec2::new(f64::from(axi) / 10.0, f64::from(ayi) / 10.0);
        let b = Vec2::new(f64::from(bxi) / 10.0, f64::from(byi) / 10.0);
        let margin = f64::from(margin_i) / 10.0;
        let oracle = stand.trees_near_segment_reference(a, b, margin);
        let culled = stand.trees_near_segment(a, b, margin);
        // Same trees (by identity) in the same order as the frozen
        // full-rectangle scan — the cell cull may only skip cells that
        // contain no matching tree.
        prop_assert_eq!(culled.len(), oracle.len());
        for (c, o) in culled.iter().zip(&oracle) {
            prop_assert!(std::ptr::eq(*c, *o));
        }
        prop_assert_eq!(stand.count_trees_near_segment(a, b, margin, usize::MAX), oracle.len());
    }

    #[test]
    fn stand_queries_match_reference_across_rebuilds(
        seed in 0u64..500,
        axi in 0u32..3200,
        ayi in 0u32..3200,
        bxi in 0u32..3200,
        byi in 0u32..3200,
        margin_i in 0u32..300,
        disc_xi in 0u32..1500,
        disc_yi in 0u32..1500,
        disc_ri in 0u32..600,
        size_i in 0usize..3,
        density_i in 0usize..3,
    ) {
        let at = |xi: u32, yi: u32| Vec2::new(f64::from(xi) / 10.0, f64::from(yi) / 10.0);
        let (a, b) = (at(axi, ayi), at(bxi, byi));
        let margin = f64::from(margin_i) / 10.0;
        let mut rng = SimRng::from_seed(seed);
        let config = |trees_per_hectare| StandConfig {
            trees_per_hectare,
            ..StandConfig::default()
        };
        let mut stand = TreeStand::generate(&config(800.0), 150.0, &mut rng);
        stand_queries_match_reference(&stand, a, b, margin)?;
        // The index is rebuilt in place after a clearing...
        stand.clear_disc(at(disc_xi, disc_yi), f64::from(disc_ri) / 10.0);
        stand_queries_match_reference(&stand, a, b, margin)?;
        // ...and after redrawing at another size and density.
        let size = [60.0, 150.0, 310.0][size_i];
        stand.regenerate(&config([0.0, 300.0, 1500.0][density_i]), size, &mut rng);
        stand_queries_match_reference(&stand, a, b, margin)?;
    }

    #[test]
    fn foliage_loss_matches_frozen_reference(
        seed in 0u64..500,
        axi in 0u32..1500,
        ayi in 0u32..1500,
        azi in 10u32..600,
        bxi in 0u32..1500,
        byi in 0u32..1500,
        bzi in 10u32..600,
    ) {
        use silvasec::comms::propagation::{foliage_loss_db, PropagationConfig};
        use silvasec::sim::geom::Vec3;
        let world = hotpath_world(seed);
        let config = PropagationConfig::default();
        let from = Vec3::new(f64::from(axi) / 10.0, f64::from(ayi) / 10.0, f64::from(azi) / 10.0);
        let to = Vec3::new(f64::from(bxi) / 10.0, f64::from(byi) / 10.0, f64::from(bzi) / 10.0);
        // The trunk query and the capped early exit must not move the
        // loss by a single bit.
        prop_assert_eq!(
            foliage_loss_db(&config, world.stand(), from, to).to_bits(),
            foliage_loss_db_reference(&config, world.stand(), from, to).to_bits()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn stand_queries_match_reference_on_a_lattice(
        shape in 0usize..5,
        col in 0u32..32,
        row0 in 0u32..32,
        row1 in 0u32..32,
        margin_i in 0u32..24,
        reach_i in 0u32..4,
        bits in any::<u32>(),
    ) {
        // Trunks on a 2.5 m lattice that includes the 20 m cell
        // boundaries, and margins on a 0.5 m grid. Shapes 0–3 run an
        // axis-aligned segment at exactly `margin` from one lattice
        // column or row, on either side, so trees sit at exactly the
        // query distance and exactly on a cell's inflated edge; shape 4
        // is any segment between 0.5 m grid points.
        let trees: Vec<Tree> = (0..32u32)
            .flat_map(|i| (0..32u32).map(move |j| (i, j)))
            .map(|(i, j)| Tree {
                position: Vec2::new(f64::from(i) * 2.5, f64::from(j) * 2.5),
                height_m: 10.0,
                trunk_radius_m: 0.25,
                canopy_radius_m: [0.25, 0.5, 2.5, 5.0][((i * 7 + j + reach_i) % 4) as usize],
            })
            .collect();
        let stand = TreeStand::from_trees(trees, 80.0);
        let margin = f64::from(margin_i) / 2.0;
        let line = f64::from(col) * 2.5;
        let (y0, y1) = (f64::from(row0) * 2.5, f64::from(row1) * 2.5);
        let grid = |v: u32| f64::from(v % 240) / 2.0 - 20.0;
        let (a, b) = match shape {
            0 => (Vec2::new(line - margin, y0), Vec2::new(line - margin, y1)),
            1 => (Vec2::new(line + margin, y0), Vec2::new(line + margin, y1)),
            2 => (Vec2::new(y0, line - margin), Vec2::new(y1, line - margin)),
            3 => (Vec2::new(y0, line + margin), Vec2::new(y1, line + margin)),
            _ => (
                Vec2::new(grid(bits), grid(bits >> 8)),
                Vec2::new(grid(bits >> 16), grid(bits >> 24)),
            ),
        };
        stand_queries_match_reference(&stand, a, b, margin)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn guarded_segment_predicate_matches_hypot_distance(
        shape in 0usize..3,
        axi in 0u32..3000,
        ayi in 0u32..3000,
        dir_i in 0u32..3600,
        len_i in 1u32..3000,
        along_i in 0u32..1400,
        side_i in 0u32..3600,
        r_i in 0usize..5,
        k in 0u32..9,
    ) {
        let a = Vec2::new(f64::from(axi) / 10.0, f64::from(ayi) / 10.0);
        let angle = |i: u32| (f64::from(i) / 10.0).to_radians();
        let len = [0.0, 0.1, f64::from(len_i) / 10.0][shape];
        let b = a + Vec2::new(angle(dir_i).cos(), angle(dir_i).sin()) * len;
        let r = [0.0, 1e-300, 0.05, 1.5, 30.0][r_i];
        let k = k as i32 - 4;
        // A point about `r` from the segment, off its middle or past an
        // end.
        let base = a.lerp(b, f64::from(along_i) / 1000.0 - 0.2);
        let p = base + Vec2::new(angle(side_i).cos(), angle(side_i).sin()) * r;
        let d = p.distance_to_segment(a, b);
        // Radii within a few ulps of the nominal radius, and of the
        // point's own distance, where the squared compare cannot decide.
        for radius in [ulps(r, k), ulps(d, k)] {
            prop_assert_eq!(
                p.is_near_segment(a, b, radius),
                d <= radius,
                "p {:?} a {:?} b {:?} r {:e} d {:e}",
                p,
                a,
                b,
                radius,
                d
            );
        }
    }
}
