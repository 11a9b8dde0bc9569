//! Golden digests: byte-for-byte pins of canonical scenario outputs.
//!
//! Each scenario pin is the sha256 of the scenario's simulated outputs,
//! hashed the way the pathway benchmark (`benchmark/`) digests a round:
//! every part is prefixed with its length as a little-endian `u64`. The
//! TARA pin is the enumeration report's own digest, and the 64-site
//! fleet pin the plain sha256 of its trace. A pin moves only when a
//! change alters the trace or the reports. Performance work must leave
//! every pin where it is.
//!
//! Re-pinning (the one procedure): when a change is *meant* to alter an
//! output, run `cargo test --test golden`, check that the change
//! explains the difference, copy the new digest from the failure
//! message into the constant, and say in the commit message which pin
//! moved and why.

use silvasec::attacks::{AttackCampaign, AttackKind, AttackTarget};
use silvasec::crypto::sha256::{self, Sha256};
use silvasec::experiments::{
    campaign_for, figure1_trace, fleet_scale_config, run_fleet_rollout, run_pathway_scenario,
    standard_config, EpisodeRunner, EpisodeSpec, FleetScenario,
};
use silvasec::fleet::{Fleet, RolloutReport};
use silvasec::risk::catalog::worksite_model;
use silvasec::sim::geom::Vec2;
use silvasec::sim::rng::hash3;
use silvasec::sim::time::{SimDuration, SimTime};
use silvasec::sos::{SecurityPosture, Worksite};
use silvasec::tara::{ScenarioSpace, TaraCatalog};

/// The benchmark's `fleet_scale` scenario at seed 11 on 16 384 sites
/// (4 full, two 8 192-site shadow shards): fleet trace JSONL, then the
/// clean and the tampered `RolloutReport` JSON.
const FLEET_SCALE_16K_SEED11: &str =
    "b3c9f68992428d6e1520c04b0b5c47b1f3edad20ae20d2f0c60d893d89aef666";

/// The Figure-1 security trace: one secure standard-config worksite at
/// seed 11 for 3 600 sim-s (7 200 ticks) under the five back-to-back
/// Figure-1 campaigns, as `figure1_trace` exports it.
const FIGURE1_SECURE_SEED11: &str =
    "3db68164ea19e3a14d65289fdeee4e516422a0e4901b2f4a61d52fde94f96b8a";

/// The benchmark's `episode_sweep` round at seed 11 cut to two worlds:
/// 32 compact 20 s episodes (2 worlds × 2 postures × 8 attack cells) on
/// one pooled worker, one `{:?}` line per `EpisodeOutcome`.
const EPISODE_SWEEP_2W_SEED11: &str =
    "54f4455e287d6e5c05941801e3d0e1fc76aafff3954dd40f029573da18234397";

/// The benchmark's `pathway` round at seed 11 (`run_pathway_scenario`:
/// 128 sites, 8 full, ops and live TARA): fleet trace JSONL, run-store
/// digest, `{:?}` of the store counters, then the version-2 and the
/// remediation `RolloutReport`s as JSON lines.
const PATHWAY_SEED11: &str = "9844edeb7115bf8ec3034e15ab0fae77209e993541196cb7fdf228680336f40d";

/// The generative TARA's enumeration of the worksite catalog at seed 11,
/// two variants, top 4 096: `EnumerationReport::digest` (dedup counters
/// and the canonical ranking).
const TARA_ENUMERATION_SEED11: &str =
    "132a61d0f0d3af5bf551479542edb712052b9ccafe8bf99e2f16d9515f8b86a0";

/// The standard worksite (`standard_config`) at seed 7 for 150 sim-s
/// (300 ticks) in four posture/campaign cells: ticks, messages
/// delivered, distance bits and danger-zone ticks (each a little-endian
/// `u64`), then the security and the flight JSONL.
const STANDARD_SITE_SEED7: [(&str, &str); 4] = [
    (
        "secure/quiet",
        "7ce5e46c3e9d3e806a78f04fa1f5d26fc243ede7def73f0aa58acead6b805325",
    ),
    (
        "secure/jamming",
        "996e00c6fb63d863776335495c1e281a4b2ff97d62b364f495539116ff7dd32b",
    ),
    (
        "insecure/quiet",
        "bb85e4e0ef8168612b6557bf23ee0235dff3775cc4ceb4857919aad0cd0f885f",
    ),
    (
        "insecure/replay",
        "21d21cd662d49effe6671ce9b1a75b8b70f9272be9fb47dd829b68c3caec0f56",
    ),
];

/// The E10 fleet at 64 sites and seed 11 with a clean version-2
/// rollout (`run_fleet_rollout`): the plain sha256 of its trace JSONL,
/// no length prefix.
const FLEET_64_SEED11: &str = "44c52268bb2ce420363da9753b9d8c4c7514d2303770eaf19de7affc1557e450";

/// sha256 over `parts`, each length-prefixed, as hex.
fn digest(parts: &[&[u8]]) -> String {
    let mut h = Sha256::new();
    for p in parts {
        h.update(&(p.len() as u64).to_le_bytes());
        h.update(p);
    }
    hex(&h.finalize())
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn fleet_scale_scenario_matches_its_pin() {
    let mut fleet = Fleet::new(fleet_scale_config(16_384, true), 11);
    // Disclosure and a 60 s deauth flood inside a 90 s free run, then a
    // clean version-2 rollout and an in-transit-tampered version 3.
    fleet.disclose_vulnerability("update-tampering");
    fleet.schedule_fleet_attack(campaign_for(
        AttackKind::DeauthFlood,
        SimTime::from_secs(5),
        SimDuration::from_secs(60),
    ));
    fleet.run(SimDuration::from_secs(90));
    let clean = fleet.run_rollout(2);
    fleet.schedule_fleet_attack(
        FleetScenario::Tampered
            .campaign()
            .expect("the tampered scenario has a campaign"),
    );
    let tampered = fleet.run_rollout(3);

    let report = |r: &RolloutReport| serde_json::to_string(r).expect("report serializes");
    let got = digest(&[
        fleet.export_trace_jsonl().as_bytes(),
        report(&clean).as_bytes(),
        report(&tampered).as_bytes(),
    ]);
    assert_eq!(
        got, FLEET_SCALE_16K_SEED11,
        "fleet_scale seed-11 16k-site outputs moved (re-pin procedure: module doc)"
    );
}

#[test]
fn figure1_trace_matches_its_pin() {
    let trace = figure1_trace(SecurityPosture::secure(), 11, SimDuration::from_secs(3600));
    assert_eq!(
        digest(&[trace.as_bytes()]),
        FIGURE1_SECURE_SEED11,
        "figure-1 seed-11 trace moved (re-pin procedure: module doc)"
    );
}

#[test]
fn pooled_episode_sweep_matches_its_pin() {
    // The benchmark's sweep order: worlds seed-major, then posture, then
    // attack cell, each world seed derived from the round seed.
    const WORLD_SALT: u64 = 0xE9150DE5;
    let cells = [
        None,
        Some(AttackKind::RfJamming),
        Some(AttackKind::DeauthFlood),
        Some(AttackKind::GnssSpoofing),
        Some(AttackKind::GnssJamming),
        Some(AttackKind::CameraBlinding),
        Some(AttackKind::Replay),
        Some(AttackKind::RogueNode),
    ];
    let mut specs = Vec::new();
    for world in 0..2 {
        let seed = hash3(11, WORLD_SALT, world);
        for posture in [SecurityPosture::secure(), SecurityPosture::insecure()] {
            for attack in cells {
                specs.push(EpisodeSpec::compact(
                    posture,
                    attack,
                    seed,
                    SimDuration::from_secs(20),
                ));
            }
        }
    }
    let outcomes = EpisodeRunner::with_workers(1).run(&specs);
    assert_eq!(outcomes.len(), 32);
    let text: String = outcomes.iter().map(|o| format!("{o:?}\n")).collect();
    assert_eq!(
        digest(&[text.as_bytes()]),
        EPISODE_SWEEP_2W_SEED11,
        "pooled episode sweep seed-11 outcomes moved (re-pin procedure: module doc)"
    );
}

#[test]
fn pathway_scenario_matches_its_pin() {
    let run = run_pathway_scenario(128, 8, 11);
    let engine = run.fleet.ops().expect("pathway fleets run ops");
    let counters = engine.store().counters();
    let reports: String = std::iter::once(&run.v2)
        .chain(&run.remediations)
        .map(|r| serde_json::to_string(r).expect("report serializes") + "\n")
        .collect();
    let got = digest(&[
        run.fleet.export_trace_jsonl().as_bytes(),
        &engine.store().digest(),
        format!("{counters:?}").as_bytes(),
        reports.as_bytes(),
    ]);
    assert_eq!(
        got, PATHWAY_SEED11,
        "pathway seed-11 outputs moved (re-pin procedure: module doc)"
    );
}

#[test]
fn tara_enumeration_matches_its_pin() {
    let catalog = TaraCatalog::from_model(&worksite_model());
    let report = ScenarioSpace::new(&catalog, 11, 2, 4_096).enumerate();
    assert_eq!(
        hex(&report.digest()),
        TARA_ENUMERATION_SEED11,
        "TARA seed-11 enumeration moved (re-pin procedure: module doc)"
    );
}

#[test]
fn standard_site_ticks_match_their_pins() {
    let jamming = AttackCampaign {
        kind: AttackKind::RfJamming,
        target: AttackTarget::Area {
            center: Vec2::new(150.0, 150.0),
            radius_m: 300.0,
        },
        start: SimTime::from_secs(30),
        duration: SimDuration::from_secs(60),
        intensity: 1.0,
    };
    let replay = AttackCampaign {
        kind: AttackKind::Replay,
        target: AttackTarget::Network,
        start: SimTime::from_secs(30),
        duration: SimDuration::from_secs(60),
        intensity: 1.0,
    };
    let cells = [
        (SecurityPosture::secure(), None),
        (SecurityPosture::secure(), Some(jamming)),
        (SecurityPosture::insecure(), None),
        (SecurityPosture::insecure(), Some(replay)),
    ];
    for ((posture, campaign), (label, pin)) in cells.into_iter().zip(STANDARD_SITE_SEED7) {
        let mut site = Worksite::new(&standard_config(posture), 7);
        if let Some(c) = campaign {
            site.attack_engine_mut().add_campaign(c);
        }
        site.run(SimDuration::from_secs(150));
        let m = site.metrics();
        let got = digest(&[
            &m.ticks.to_le_bytes(),
            &m.messages_delivered.to_le_bytes(),
            &m.distance_m.to_bits().to_le_bytes(),
            &m.danger_zone_ticks.to_le_bytes(),
            site.export_security_jsonl().as_bytes(),
            site.export_flight_jsonl().as_bytes(),
        ]);
        assert_eq!(
            got, pin,
            "standard site {label} seed-7 outputs moved (re-pin procedure: module doc)"
        );
    }
}

#[test]
fn fleet_64_rollout_trace_matches_its_pin() {
    let (_, trace) = run_fleet_rollout(64, 11, FleetScenario::Clean);
    assert_eq!(
        hex(&sha256::digest(trace.as_bytes())),
        FLEET_64_SEED11,
        "64-site seed-11 fleet trace moved (re-pin procedure: module doc)"
    );
}
