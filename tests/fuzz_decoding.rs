//! Robustness fuzzing: every network-facing decoder must reject arbitrary
//! bytes gracefully — no panics, no unbounded allocation — because the
//! radio medium delivers whatever an attacker transmits.

use proptest::prelude::*;
use silvasec::channel::messages::{Finished, Hello, Reply};
use silvasec::crypto::edwards::EdwardsPoint;
use silvasec::crypto::schnorr::{Signature, VerifyingKey};
use silvasec::experiments::{fleet_config, run_pathway_scenario, tara_ranking};
use silvasec::fleet::{
    chunk_payloads, ChunkHeader, Fleet, Reassembly, UpdateBundle, FLEET_COMPONENT,
};
use silvasec::ops::RunStore;
use silvasec::prelude::*;
use silvasec::sim::rng::mix64;
use silvasec::tara::HypothesisSet;
use silvasec::telemetry::{Event, Record};

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

/// The deterministic stream the structure-aware mutation loops draw
/// from: the SplitMix64 finalizer over a counter.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 += 1;
        mix64(self.0)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Genuine chunk frames of bundles 0 to three chunks + 1 bytes long, in
/// 1-, 7- and 768-byte chunks, delivered shuffled, with duplicates and
/// with header mutations, through `ChunkHeader::decode` and
/// `Reassembly::accept`. A chunk is accepted exactly when it belongs to
/// the update, its count matches, its index is in range and new; the
/// stream completes only once every index was accepted; and when every
/// accepted frame was genuine, the stream reassembles to the bundle.
#[test]
fn chunk_frames_survive_mutation() {
    const FLIP: usize = 0;
    const SHORT: usize = 1;
    const HEADER_ONLY: usize = 2;
    const FOREIGN: usize = 3;
    const OUT_OF_RANGE: usize = 4;
    const WRONG_COUNT: usize = 5;
    let mut rng = SplitMix(0xC4A9_0A7A);
    let (mut intact, mut mutated_in, mut refused) = (0usize, 0usize, 0usize);
    for case in 0..6_000 {
        let chunk_bytes = [1, 7, 768][case % 3];
        let bundle: Vec<u8> = (0..rng.below(3 * chunk_bytes + 2))
            .map(|_| rng.next() as u8)
            .collect();
        let update_id = rng.next() as u32;
        let frames = chunk_payloads(update_id, &bundle, chunk_bytes);
        let count = frames.len();
        let mut order: Vec<usize> = (0..count).collect();
        for i in (1..count).rev() {
            order.swap(i, rng.below(i + 1));
        }
        for _ in 0..rng.below(3) {
            order.insert(rng.below(order.len() + 1), rng.below(count));
        }

        let mut reassembly = Reassembly::new(update_id, count as u16);
        let mut accepted = vec![false; count];
        let mut all_genuine = true;
        for &index in &order {
            let genuine = &frames[index];
            let (header, body) = ChunkHeader::decode(genuine).expect("genuine frames decode");
            let kind = rng.below(12);
            let frame = match kind {
                FLIP => {
                    let mut frame = genuine.clone();
                    frame[rng.below(ChunkHeader::LEN)] ^= 1 << rng.below(8);
                    frame
                }
                SHORT => genuine[..rng.below(ChunkHeader::LEN)].to_vec(),
                HEADER_ONLY => genuine[..ChunkHeader::LEN].to_vec(),
                FOREIGN => ChunkHeader {
                    update_id: update_id ^ (1 + rng.below(u32::MAX as usize) as u32),
                    ..header
                }
                .encode(body),
                OUT_OF_RANGE => ChunkHeader {
                    index: (count + rng.below(usize::from(u16::MAX) + 1 - count)) as u16,
                    ..header
                }
                .encode(body),
                WRONG_COUNT => {
                    let wrong = (count + 1 + rng.below(usize::from(u16::MAX))) as u16;
                    ChunkHeader {
                        count: wrong,
                        ..header
                    }
                    .encode(body)
                }
                _ => genuine.clone(),
            };
            let Some((got, data)) = ChunkHeader::decode(&frame) else {
                assert!(
                    kind == FLIP || kind == SHORT,
                    "kind {kind} failed to decode"
                );
                refused += 1;
                continue;
            };
            assert_ne!(kind, SHORT, "a frame shorter than the header decoded");
            assert_eq!(got.encode(data), frame, "decode then encode is the frame");
            let slot = usize::from(got.index);
            let fresh = got.update_id == update_id
                && usize::from(got.count) == count
                && slot < count
                && !accepted[slot];
            if matches!(kind, FOREIGN | OUT_OF_RANGE | WRONG_COUNT) {
                assert!(!fresh, "kind {kind} built an acceptable header");
            }
            assert_eq!(reassembly.accept(got, data), fresh, "kind {kind}");
            if fresh {
                accepted[slot] = true;
                all_genuine &= frame == frames[slot];
            } else {
                refused += 1;
            }
            assert_eq!(reassembly.complete(), accepted.iter().all(|&a| a));
        }
        match reassembly.assemble() {
            None => assert!(!reassembly.complete()),
            Some(stream) if all_genuine => {
                assert_eq!(stream, bundle, "case {case}");
                intact += 1;
            }
            Some(_) => mutated_in += 1,
        }
    }
    // Every side of the property is exercised.
    assert!(
        intact > 1_000 && mutated_in > 200 && refused > 5_000,
        "{intact} {mutated_in} {refused}"
    );
}

/// Mutants of a published bundle's encoding (11 258 bytes): single-bit
/// flips, the MITM's `0x41` flips, deleted and duplicated bytes and
/// truncations, drawn over the whole encoding (manifest, images, chain
/// and signature). `UpdateBundle::decode` never panics, the genuine
/// bytes decode to the published bundle, and no mutant that decodes to
/// another bundle verifies against the backend's trust store.
#[test]
fn mutated_bundles_never_verify() {
    let fleet = Fleet::new(fleet_config(4), 11);
    let backend = fleet.backend();
    let bundle = &backend.published()[0];
    let bytes = bundle.encode();
    let verify = |b: &UpdateBundle| {
        b.verify(
            backend.trust_store(),
            1_000,
            backend.crls(),
            FLEET_COMPONENT,
            0,
        )
    };
    assert_eq!(UpdateBundle::decode(&bytes).as_ref(), Ok(bundle));
    assert_eq!(verify(bundle), Ok(()));
    let mut rng = SplitMix(0xB0_0D1E);
    let (mut decoded, mut different) = (0, 0);
    for _ in 0..1_000 {
        let mut mutant = bytes.clone();
        let at = rng.below(mutant.len());
        match rng.below(5) {
            0 => mutant[at] ^= 1 << rng.below(8),
            1 => mutant[at] ^= 0x41,
            2 => {
                mutant.remove(at);
            }
            3 => mutant.insert(at, mutant[at]),
            _ => mutant.truncate(at),
        }
        let Ok(decoded_bundle) = UpdateBundle::decode(&mutant) else {
            continue;
        };
        decoded += 1;
        if decoded_bundle != *bundle {
            different += 1;
            assert!(
                verify(&decoded_bundle).is_err(),
                "a mutant at byte {at} verifies"
            );
        }
    }
    assert!(decoded > 100 && different > 100, "{decoded} {different}");
}

/// The run a step or gate line belongs to and, for a step, whether it
/// moves the run to another step (`None` for a gate).
fn ops_line(line: &str) -> Option<(u64, Option<bool>)> {
    match serde_json::from_str::<Record>(line).ok()?.event {
        Event::OpsStep { run, from, to, .. } => Some((run, Some(from != to))),
        Event::OpsGate { run, .. } => Some((run, None)),
        _ => None,
    }
}

/// The seed-11 `pathway` trace at 16 sites (179 lines: every `Ops*`
/// kind and 4 `TaraHypothesis` events), damaged as a trace ring that
/// drops events or a broken file damages it: a line duplicated, dropped
/// or swapped with its neighbour, a flipped bit, a truncation. Both
/// replays, `RunStore::replay_from_jsonl` and
/// `HypothesisSet::replay_from_jsonl`, take every damaged trace without
/// a panic. The intact trace replays to the live store and hypotheses,
/// and the damages the run store used to panic on (a repeated gate
/// verdict, a repeated or a missing step) fail with an error naming the
/// run.
#[test]
fn trace_replays_survive_mutation() {
    let run = run_pathway_scenario(16, 2, 11);
    let trace = run.fleet.export_trace_jsonl();
    let live_store = run.fleet.ops().expect("pathway runs ops").store();
    let live_tara = run.fleet.tara().expect("pathway runs TARA");
    let ranking = tara_ranking(11);
    let replay = |trace: &str| {
        (
            RunStore::replay_from_jsonl(trace),
            HypothesisSet::replay_from_jsonl(ranking.clone(), trace),
        )
    };
    let (store, tara) = replay(&trace);
    assert_eq!(store.expect("intact trace").digest(), live_store.digest());
    assert_eq!(
        tara.expect("intact trace").first_divergence(live_tara),
        None
    );

    let lines: Vec<&str> = trace.lines().collect();
    let rejoin = |lines: &[&str]| -> String { lines.iter().map(|l| format!("{l}\n")).collect() };
    let ops: Vec<(usize, u64, Option<bool>)> = lines
        .iter()
        .enumerate()
        .filter_map(|(i, l)| ops_line(l).map(|(run, step)| (i, run, step)))
        .collect();
    let gate = ops.iter().find(|(_, _, step)| step.is_none());
    let moving_step = ops.iter().find(|(_, _, step)| *step == Some(true));
    // A moving step whose run steps again later: dropping it strands
    // the run in the step it left.
    let stranding_step = ops.iter().enumerate().find_map(|(k, (i, run, step))| {
        let later = ops[k + 1..].iter().any(|(_, r, s)| r == run && s.is_some());
        (*step == Some(true) && later).then_some((*i, *run))
    });
    let (gate, moving_step, stranding_step) = (
        gate.expect("the trace carries a gate verdict"),
        moving_step.expect("the trace carries a step"),
        stranding_step.expect("some run steps twice"),
    );
    for (what, at, run, drop) in [
        ("repeated gate", gate.0, gate.1, false),
        ("repeated step", moving_step.0, moving_step.1, false),
        ("missing step", stranding_step.0, stranding_step.1, true),
    ] {
        let mut damaged = lines.clone();
        if drop {
            damaged.remove(at);
        } else {
            damaged.insert(at, lines[at]);
        }
        let err = RunStore::replay_from_jsonl(&rejoin(&damaged)).expect_err(what);
        assert!(err.contains(&format!("{run:#018x}")), "{what}: {err}");
    }

    // Every other line damage lands on one of the 4 `TaraHypothesis`
    // events, so the hypothesis replay's events are hit.
    let tara: Vec<usize> = (0..lines.len() - 1)
        .filter(|&i| lines[i].contains("TaraHypothesis"))
        .collect();
    let mut rng = SplitMix(0x7EAC_E5ED);
    for case in 0..20 {
        let mut damaged = lines.clone();
        let at = if case % 2 == 0 {
            tara[rng.below(tara.len())]
        } else {
            rng.below(lines.len() - 1)
        };
        let text = match rng.below(5) {
            0 => {
                damaged.insert(at, lines[at]);
                rejoin(&damaged)
            }
            1 => {
                damaged.remove(at);
                rejoin(&damaged)
            }
            2 => {
                damaged.swap(at, at + 1);
                rejoin(&damaged)
            }
            3 => {
                let mut bytes = trace.clone().into_bytes();
                let byte = rng.below(bytes.len());
                bytes[byte] ^= 1 << rng.below(8);
                String::from_utf8_lossy(&bytes).into_owned()
            }
            _ => String::from_utf8_lossy(&trace.as_bytes()[..rng.below(trace.len())]).into_owned(),
        };
        let _ = replay(&text);
    }
}
