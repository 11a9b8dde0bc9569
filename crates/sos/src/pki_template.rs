//! Amortized worksite PKI provisioning.
//!
//! Commissioning a secure worksite is by far the most expensive part of
//! episode setup: a root CA, per-machine certificate chains, signed
//! 4 KiB + 64 KiB firmware images, verified boots and two SIGMA
//! handshakes. None of that depends on anything but the scenario seed
//! and whether the drone link exists, so a [`SitePkiTemplate`] performs
//! the whole sequence **once** per `(seed, drone profile)` and freezes
//! the results: every established session's traffic keys and
//! authenticated peer id, and the handshake telemetry records.
//! Episode resets then fork per-episode state (sessions via
//! [`Session::reinit`], telemetry via replay) in microseconds instead of
//! re-running the asymmetric crypto.
//!
//! Determinism contract: [`SitePkiTemplate::build`] is the only
//! commissioning path. [`crate::site::Worksite::new`] and
//! [`crate::site::Worksite::reset_for_episode`] both key their secure
//! links from it, and it consumes the RNG stream
//! `SimRng::from_seed(seed).fork("pki")` in a fixed draw sequence, so
//! every key, nonce and signature is a function of the seed alone. The
//! tick pins in `crate::site` and the golden digests in
//! `tests/golden.rs` hold its output.
//!
//! [`Session::reinit`]: silvasec_channel::Session::reinit

use crate::pki_setup::WorksitePki;
use silvasec_channel::session::SessionKeys;
use silvasec_channel::{HandshakePolicy, Initiator, Responder};
use silvasec_pki::Validity;
use silvasec_sim::rng::SimRng;
use silvasec_telemetry::{Record, Recorder};

/// Frozen provisioning result for one secure link (one handshake).
#[derive(Debug, Clone)]
pub struct LinkTemplate {
    /// Traffic keys of the initiator-side session.
    pub initiator_keys: SessionKeys,
    /// Peer id the initiator authenticated.
    pub initiator_peer: String,
    /// Traffic keys of the responder-side session.
    pub responder_keys: SessionKeys,
    /// Peer id the responder authenticated.
    pub responder_peer: String,
}

/// A seed-keyed, immutable snapshot of the commissioned worksite PKI,
/// shareable behind an `Rc` across every episode that replays the same
/// scenario seed.
///
/// Worksites are thread-local, so a template is never shared between
/// sweep workers. The sweep keeps each run of same-seed episodes on one
/// worker instead (contiguous claims): in a world-major episode sweep a
/// world is commissioned once, plus once more only where a claim
/// boundary hands part of its secure run to another worker. A
/// cross-thread cache would need a lock-and-wait protocol: two workers
/// that reach the same world at once would otherwise both build it.
#[derive(Debug)]
pub struct SitePkiTemplate {
    seed: u64,
    drone_enabled: bool,
    /// Forwarder (initiator) ↔ base station (responder) link.
    pub fw_bs: LinkTemplate,
    /// Drone (initiator) ↔ forwarder (responder) link, when commissioned.
    pub drone_fw: Option<LinkTemplate>,
    /// Handshake telemetry captured during commissioning, replayed
    /// verbatim into each episode's recorder.
    records: Vec<Record>,
}

impl SitePkiTemplate {
    /// Runs the full commissioning sequence for `seed` and freezes the
    /// results. Expensive (milliseconds) — call once and share.
    #[must_use]
    pub fn build(seed: u64, drone_enabled: bool) -> Self {
        let root_rng = SimRng::from_seed(seed);
        let mut pki_rng = root_rng.fork("pki");

        // Capture the handshake telemetry once, so every replay into an
        // episode's recorder yields byte-identical traces.
        let recorder = Recorder::new();
        let capture = recorder.subscribe("pki-capture", 64);

        let mut pki = WorksitePki::commission(&mut pki_rng, u64::MAX / 2);
        let validity = Validity::new(0, u64::MAX / 2);
        let fw_creds = pki.commission_machine(
            "forwarder-01",
            silvasec_pki::ComponentRole::Forwarder,
            1,
            &mut pki_rng,
            validity,
        );
        let bs_creds = pki.commission_machine(
            "base-01",
            silvasec_pki::ComponentRole::BaseStation,
            1,
            &mut pki_rng,
            validity,
        );
        assert!(fw_creds.boot_report.success, "forwarder failed secure boot");
        assert!(
            bs_creds.boot_report.success,
            "base station failed secure boot"
        );

        let policy = HandshakePolicy::new(pki.store.clone(), 0).with_recorder(recorder.clone());

        let (init, hello) = Initiator::start(
            fw_creds.identity.clone(),
            pki_rng.next_seed(),
            pki_rng.next_seed(),
        );
        let (resp, reply) = Responder::respond(
            bs_creds.identity.clone(),
            &policy,
            &hello,
            pki_rng.next_seed(),
            pki_rng.next_seed(),
        )
        .expect("base station rejects forwarder hello");
        let (fw_session, finished) = init.finish(&policy, &reply).expect("handshake finish");
        let bs_session = resp.complete(&finished).expect("handshake complete");
        let fw_bs = LinkTemplate {
            initiator_keys: fw_session.keys().clone(),
            initiator_peer: fw_session.peer_id().to_string(),
            responder_keys: bs_session.keys().clone(),
            responder_peer: bs_session.peer_id().to_string(),
        };

        let drone_fw = if drone_enabled {
            let drone_creds = pki.commission_machine(
                "drone-01",
                silvasec_pki::ComponentRole::Drone,
                1,
                &mut pki_rng,
                validity,
            );
            assert!(drone_creds.boot_report.success, "drone failed secure boot");
            let (init, hello) = Initiator::start(
                drone_creds.identity.clone(),
                pki_rng.next_seed(),
                pki_rng.next_seed(),
            );
            let (resp, reply) = Responder::respond(
                fw_creds.identity.clone(),
                &policy,
                &hello,
                pki_rng.next_seed(),
                pki_rng.next_seed(),
            )
            .expect("forwarder rejects drone hello");
            let (drone_session, finished) = init.finish(&policy, &reply).expect("drone finish");
            let fw_session = resp.complete(&finished).expect("drone complete");
            Some(LinkTemplate {
                initiator_keys: drone_session.keys().clone(),
                initiator_peer: drone_session.peer_id().to_string(),
                responder_keys: fw_session.keys().clone(),
                responder_peer: fw_session.peer_id().to_string(),
            })
        } else {
            None
        };

        let records = recorder.records(capture);
        let stats = recorder.stats();
        assert_eq!(
            stats[0].dropped, 0,
            "handshake capture ring must hold every record"
        );

        SitePkiTemplate {
            seed,
            drone_enabled,
            fw_bs,
            drone_fw,
            records,
        }
    }

    /// The scenario seed this template was commissioned from.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether a drone link was commissioned.
    #[must_use]
    pub fn drone_enabled(&self) -> bool {
        self.drone_enabled
    }

    /// Whether this template can provision a worksite with the given
    /// scenario parameters.
    #[must_use]
    pub fn matches(&self, seed: u64, drone_enabled: bool) -> bool {
        self.seed == seed && self.drone_enabled == drone_enabled
    }

    /// Replays the captured commissioning telemetry into `recorder`
    /// (alloc-free: records are plain data pushed into warm rings).
    pub fn replay_commissioning_telemetry(&self, recorder: &Recorder) {
        for rec in &self.records {
            recorder.record_at(rec.at, rec.event);
        }
    }

    /// Number of captured handshake telemetry records.
    #[must_use]
    pub fn telemetry_record_count(&self) -> usize {
        self.records.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn template_is_deterministic_per_seed() {
        let a = SitePkiTemplate::build(7, false);
        let b = SitePkiTemplate::build(7, false);
        assert_eq!(a.fw_bs.initiator_keys, b.fw_bs.initiator_keys);
        assert_eq!(a.fw_bs.responder_keys, b.fw_bs.responder_keys);
        assert_eq!(a.fw_bs.initiator_peer, "base-01");
        assert_eq!(a.fw_bs.responder_peer, "forwarder-01");
        assert!(a.drone_fw.is_none());
        assert_eq!(a.telemetry_record_count(), b.telemetry_record_count());
    }

    #[test]
    fn drone_profile_adds_a_link() {
        let t = SitePkiTemplate::build(7, true);
        assert!(t.matches(7, true));
        assert!(!t.matches(7, false));
        assert!(!t.matches(8, true));
        let link = t.drone_fw.as_ref().expect("drone link commissioned");
        assert_eq!(link.initiator_peer, "forwarder-01");
        assert_eq!(link.responder_peer, "drone-01");
        // Sessions differ per link: key reuse across links would be a
        // cross-protocol confusion hazard.
        assert_ne!(t.fw_bs.initiator_keys, link.initiator_keys);
    }

    #[test]
    fn captured_telemetry_replays_identically() {
        let t = SitePkiTemplate::build(3, true);
        // Two handshakes → HandshakeStart + 2×HandshakeDone each.
        assert_eq!(t.telemetry_record_count(), 6);
        let rec = Recorder::new();
        let sub = rec.subscribe("replay", 64);
        t.replay_commissioning_telemetry(&rec);
        let replayed = rec.records(sub);
        assert_eq!(replayed.len(), 6);
        for (i, r) in replayed.iter().enumerate() {
            assert_eq!(r.seq, i as u64, "replay must renumber from zero");
        }
    }
}
