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
    campaign_for, figure1_trace, fleet_scale_config, occlusion_sweep, ops_config,
    run_fleet_rollout, run_fleet_scale_point, run_pathway_scenario, sotif_evidence,
    standard_config, EpisodeRunner, EpisodeSpec, FleetScenario,
};
use silvasec::fleet::{Fleet, RolloutReport, ShadowConfig};
use silvasec::machines::sensors::{PeopleSensor, SensorKind};
use silvasec::machines::validation::measure_detection_curve;
use silvasec::risk::catalog::worksite_model;
use silvasec::sim::geom::Vec2;
use silvasec::sim::humans::HumanConfig;
use silvasec::sim::rng::{hash3, SimRng};
use silvasec::sim::terrain::TerrainConfig;
use silvasec::sim::time::{SimDuration, SimTime};
use silvasec::sim::vegetation::StandConfig;
use silvasec::sim::weather::Weather;
use silvasec::sim::world::{World, WorldConfig};
use silvasec::sos::{SecurityPosture, Worksite};
use silvasec::tara::{ScenarioSpace, TaraCatalog};

/// The benchmark's `fleet_scale` scenario at seed 11 on 16 384 sites
/// (4 full, two 8 192-site shadow shards): fleet trace JSONL, then the
/// clean and the tampered `RolloutReport` JSON.
const FLEET_SCALE_16K_SEED11: &str =
    "b3c9f68992428d6e1520c04b0b5c47b1f3edad20ae20d2f0c60d893d89aef666";

/// Two-fidelity version-2 rollouts under the three other fleet attacks
/// (`run_fleet_scale_point(4_096, 11, scenario, true)`: 4 full sites,
/// one 4 092-site shadow shard): fleet trace JSONL, then the
/// `RolloutReport` JSON. They hold the old-bundle, poison and jam
/// branches of the shadow rollout kernel, which the 16k pin's clean and
/// tampered rollouts do not reach.
const FLEET_SCALE_4K_SEED11_DOWNGRADE: &str =
    "773bc8d63bc6397cb32f964badf6ec889f360bd3a51c5e234bcec940aae97b99";
const FLEET_SCALE_4K_SEED11_POISONED: &str =
    "5b30df2eb8209c15889361b8679f82fa294b4dfc107e228102042590938ef9bd";
const FLEET_SCALE_4K_SEED11_JAMMED: &str =
    "275a07acd9f95546513e71ec5b8c815a7e4b8c60706b1ee904c8ceb55568bf02";

/// A 64-site two-fidelity fleet with ops (4 full sites, fifteen 4-site
/// shadow shards) at seed 11 rolling out version 2 through a fleet-wide
/// replay storm from 10 s to 70 s, the alert-spike halt off: ops
/// revokes the firmware signer at 10.5 s, 9 sites apply and 55 reject
/// with `chain`. Fleet trace JSONL, then the `RolloutReport` JSON. The
/// only pin of a CRL published mid-rollout, recorded once shadow
/// verdicts followed the CRL list. Per-shard cached verdicts printed
/// this digest too, since each of these shards first decided after the
/// CRL was out, but applied the bundle on 61 sites with one 60-site
/// shard; `a_signer_revoked_mid_rollout_is_refused_at_any_shard_size`
/// (`tests/fleet_scale.rs`) holds the two layouts to one outcome.
const FLEET_REVOKED_MIDWAY_SEED11: &str =
    "790f373cfff957e47a61f5939e3802077c0098fe5d8c101983fd6097a983da6d";

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
const PATHWAY_SEED11: &str = "fd544790b7dcd6a0e2f486ff13d8a387bd2c9917ff15e780bcdc107443b51863";

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

/// The `figure2` bin's Figure 2b grid: `occlusion_sweep` over seven
/// stand densities (0 to 1 500 trees/ha) at 15 m relief, seeds 5, 17
/// and 29, 400 sim-s each. Every row's six `f64`s as little-endian
/// `to_bits`, in row order.
const FIGURE2_DENSITY_GRID: &str =
    "4181147ee5b34590e376a87c295d1f1be464f57857c918dae47e73189c793148";

/// E9's SOTIF evidence (`sotif_evidence`) at seed 7 for 2 400 sim-s in
/// each of the six weathers: exposures and unsafe outcomes as
/// little-endian `u64`s, in weather order.
const SOTIF_EVIDENCE_SEED7: &str =
    "b0e481048461485b39f3e5a3acf890ca59b87a540fd42aabaf06c53d6c4c3f84";

/// E8's reference detection curve (`measure_detection_curve`): a LiDAR
/// people sensor at seed 1 in clear weather, 150 trees/ha, 1 800 sim-s.
/// The bin width's `to_bits`, then every bin's samples and detections,
/// each a little-endian `u64`.
const DETECTION_CURVE_SEED1: &str =
    "853c60c9341a6ba7232dd4032129bfeb6b61b4699b329ba7c5125bb5b2758409";

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

/// The digest [`FLEET_SCALE_4K_SEED11_DOWNGRADE`] and its two siblings
/// pin.
fn fleet_scale_4k_digest(scenario: FleetScenario) -> String {
    let (report, fleet) = run_fleet_scale_point(4_096, 11, scenario, true);
    let report = serde_json::to_string(&report).expect("report serializes");
    digest(&[fleet.export_trace_jsonl().as_bytes(), report.as_bytes()])
}

#[test]
fn fleet_scale_downgrade_rollout_matches_its_pin() {
    assert_eq!(
        fleet_scale_4k_digest(FleetScenario::Downgrade),
        FLEET_SCALE_4K_SEED11_DOWNGRADE,
        "4k-site seed-11 downgrade rollout moved (re-pin procedure: module doc)"
    );
}

#[test]
fn fleet_scale_poisoned_rollout_matches_its_pin() {
    assert_eq!(
        fleet_scale_4k_digest(FleetScenario::Poisoned),
        FLEET_SCALE_4K_SEED11_POISONED,
        "4k-site seed-11 poisoned rollout moved (re-pin procedure: module doc)"
    );
}

#[test]
fn fleet_scale_jammed_rollout_matches_its_pin() {
    assert_eq!(
        fleet_scale_4k_digest(FleetScenario::Jammed),
        FLEET_SCALE_4K_SEED11_JAMMED,
        "4k-site seed-11 jammed rollout moved (re-pin procedure: module doc)"
    );
}

#[test]
fn fleet_signer_revoked_midway_matches_its_pin() {
    let mut config = fleet_scale_config(64, false);
    config.ops = Some(ops_config());
    config.policy.halt_alert_threshold = u32::MAX;
    config.shadow = Some(ShadowConfig {
        full_sites: 4,
        shard_sites: 4,
        sequential: false,
    });
    let mut fleet = Fleet::new(config, 11);
    fleet.schedule_fleet_attack(campaign_for(
        AttackKind::Replay,
        SimTime::from_secs(10),
        SimDuration::from_secs(60),
    ));
    let report = fleet.run_rollout(2);
    let report = serde_json::to_string(&report).expect("report serializes");
    assert_eq!(
        digest(&[fleet.export_trace_jsonl().as_bytes(), report.as_bytes()]),
        FLEET_REVOKED_MIDWAY_SEED11,
        "64-site seed-11 mid-rollout revocation moved (re-pin procedure: module doc)"
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

#[test]
fn figure2_density_grid_matches_its_pin() {
    let densities = [0.0, 100.0, 300.0, 600.0, 900.0, 1200.0, 1500.0];
    let rows = occlusion_sweep(&densities, 15.0, &[5, 17, 29], SimDuration::from_secs(400));
    let bytes: Vec<u8> = rows
        .iter()
        .flat_map(|r| {
            [
                r.density,
                r.relief_m,
                r.forwarder_coverage,
                r.combined_coverage,
                r.forwarder_ttd_s,
                r.combined_ttd_s,
            ]
        })
        .flat_map(|x| x.to_bits().to_le_bytes())
        .collect();
    assert_eq!(
        digest(&[&bytes]),
        FIGURE2_DENSITY_GRID,
        "Figure 2b grid moved (re-pin procedure: module doc)"
    );
}

#[test]
fn sotif_evidence_matches_its_pin() {
    let weathers = [
        Weather::Clear,
        Weather::Overcast,
        Weather::Rain,
        Weather::HeavyRain,
        Weather::Fog,
        Weather::Snow,
    ];
    let bytes: Vec<u8> = weathers
        .iter()
        .map(|&w| sotif_evidence(w, 7, SimDuration::from_secs(2400)))
        .flat_map(|e| [e.exposures, e.unsafe_outcomes])
        .flat_map(u64::to_le_bytes)
        .collect();
    assert_eq!(
        digest(&[&bytes]),
        SOTIF_EVIDENCE_SEED7,
        "E9 seed-7 SOTIF evidence moved (re-pin procedure: module doc)"
    );
}

#[test]
fn detection_curve_matches_its_pin() {
    // The `exp8_sim_validation` reference campaign.
    let config = WorldConfig {
        terrain: TerrainConfig {
            size_m: 150.0,
            relief_m: 2.0,
            ..TerrainConfig::default()
        },
        stand: StandConfig {
            trees_per_hectare: 150.0,
            ..StandConfig::default()
        },
        human_count: 6,
        human: HumanConfig {
            work_area_bias: 0.8,
            ..HumanConfig::default()
        },
        work_area: Vec2::new(75.0, 75.0),
        landing_area: Vec2::new(20.0, 20.0),
        initial_weather: Weather::Clear,
        weather_change_prob: 0.0,
    };
    let mut world = World::generate(&config, SimRng::from_seed(1));
    let sensor = PeopleSensor::new(SensorKind::Lidar, 3.0);
    let mut rng = SimRng::from_seed(1 ^ 0xabc);
    let curve = measure_detection_curve(
        &mut world,
        &sensor,
        Vec2::new(75.0, 75.0),
        SimDuration::from_secs(1800),
        &mut rng,
    );
    let bytes: Vec<u8> = std::iter::once(curve.bin_width_m.to_bits())
        .chain(curve.bins.iter().flat_map(|b| [b.samples, b.detections]))
        .flat_map(u64::to_le_bytes)
        .collect();
    assert_eq!(
        digest(&[&bytes]),
        DETECTION_CURVE_SEED1,
        "E8 seed-1 reference detection curve moved (re-pin procedure: module doc)"
    );
}
