//! The scenario library behind every table and figure of the evaluation.
//!
//! Each public function here is one experiment from `EXPERIMENTS.md`; the
//! binaries in `silvasec-bench` call these and print the rows. Keeping
//! the logic in the library makes the experiments unit-testable and
//! reusable from the pathway benchmark under `benchmark/`.

use serde::{Deserialize, Serialize};
use silvasec_assurance::case::AssuranceCase;
use silvasec_assurance::gsn::NodeKind;
use silvasec_assurance::modular::{AwayReference, Composition, Module};
use silvasec_attacks::prelude::*;
use silvasec_ids::AlertKind;
use silvasec_machines::drone::{Drone, DroneConfig};
use silvasec_machines::prelude::*;
use silvasec_risk::catalog;
use silvasec_risk::continuous::{alert_class_to_attack_class, ContinuousAssessment};
use silvasec_risk::tara::{RiskLevel, Tara};
use silvasec_sim::geom::Vec2;
use silvasec_sim::prelude::*;
use silvasec_sim::terrain::TerrainConfig;
use silvasec_sim::vegetation::StandConfig;
use silvasec_sos::metrics::WorksiteMetrics;
use silvasec_sos::prelude::*;
use silvasec_telemetry::{Event, Record};
use std::collections::HashMap;

// ---------------------------------------------------------------------
// Figure 2: occlusion study
// ---------------------------------------------------------------------

/// One row of the Figure 2 occlusion sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OcclusionRow {
    /// Stand density, trees per hectare.
    pub density: f64,
    /// Terrain relief, metres.
    pub relief_m: f64,
    /// Coverage with forwarder sensors only (fraction of in-range
    /// human-ticks detected).
    pub forwarder_coverage: f64,
    /// Coverage with the drone's point of view fused in.
    pub combined_coverage: f64,
    /// Mean time to first detection after a worker enters range,
    /// forwarder only (seconds; worst-case capped at the episode length).
    pub forwarder_ttd_s: f64,
    /// Mean time to first detection, combined (seconds).
    pub combined_ttd_s: f64,
}

/// Runs the Figure 2 occlusion experiment for one parameter point.
///
/// A stationary forwarder works at the stand centre with an escort drone
/// overhead; workers move with a strong work-area bias. Coverage is the
/// fraction of (human, tick) samples within detection range that were
/// detected; time-to-detect is measured per approach episode.
#[must_use]
pub fn occlusion_point(
    density: f64,
    relief_m: f64,
    seed: u64,
    duration: SimDuration,
) -> OcclusionRow {
    let eval_radius = 40.0;
    let config = WorldConfig {
        terrain: TerrainConfig {
            size_m: 300.0,
            relief_m,
            ..TerrainConfig::default()
        },
        stand: StandConfig {
            trees_per_hectare: density,
            ..StandConfig::default()
        },
        human_count: 4,
        human: silvasec_sim::humans::HumanConfig {
            work_area_bias: 0.7,
            ..silvasec_sim::humans::HumanConfig::default()
        },
        // Workers cluster around the felling front ~25 m from the
        // machine, so their approaches cross terrain features and tree
        // cover on the way in — the Figure 2 geometry.
        work_area: Vec2::new(175.0, 150.0),
        landing_area: Vec2::new(40.0, 40.0),
        ..WorldConfig::default()
    };
    let mut world = World::generate(&config, SimRng::from_seed(seed));
    let mut rng = SimRng::from_seed(seed ^ 0x5eed);

    let machine_pos = Vec2::new(150.0, 150.0);
    let camera = PeopleSensor::new(SensorKind::Camera, 2.8);
    let lidar = PeopleSensor::new(SensorKind::Lidar, 3.2);
    let mut drone = Drone::new(machine_pos, DroneConfig::default(), &world);

    let tick = SimDuration::from_millis(500);
    let ticks = duration.as_millis() / tick.as_millis();

    // Per-human, per-mode episode state.
    #[derive(Default, Clone)]
    struct Episode {
        in_range: bool,
        ticks_waiting_fw: u64,
        ticks_waiting_comb: u64,
        detected_fw: bool,
        detected_comb: bool,
    }
    let mut episodes: HashMap<u32, Episode> = HashMap::new();
    let mut ttd_fw: Vec<f64> = Vec::new();
    let mut ttd_comb: Vec<f64> = Vec::new();
    let (mut in_range_ticks, mut fw_hits, mut comb_hits) = (0u64, 0u64, 0u64);

    // The machine sweeps its heading like a working forwarder.
    let mut heading = 0.0f64;
    let (mut candidates, mut cam, mut lid, mut air) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());

    for _ in 0..ticks {
        world.step(tick);
        drone.step(&world, machine_pos, tick);
        heading = (heading + 0.2) % std::f64::consts::TAU;

        camera.detect_into(
            &world,
            machine_pos,
            heading,
            &mut rng,
            &mut candidates,
            &mut cam,
        );
        lidar.detect_into(
            &world,
            machine_pos,
            heading,
            &mut rng,
            &mut candidates,
            &mut lid,
        );
        drone.detect_into(&world, &mut rng, &mut candidates, &mut air);

        for human in world.humans() {
            let dist = human.position.distance(machine_pos);
            let ep = episodes.entry(human.id.0).or_default();
            if dist <= eval_radius {
                in_range_ticks += 1;
                let seen = |feed: &[Detection]| feed.iter().any(|d| d.human_id == human.id);
                let fw_detected = seen(&cam) || seen(&lid);
                let comb_detected = fw_detected || seen(&air);
                if fw_detected {
                    fw_hits += 1;
                }
                if comb_detected {
                    comb_hits += 1;
                }
                if !ep.in_range {
                    // New approach episode.
                    *ep = Episode {
                        in_range: true,
                        ..Episode::default()
                    };
                }
                if !ep.detected_fw {
                    if fw_detected {
                        ep.detected_fw = true;
                        ttd_fw.push(ep.ticks_waiting_fw as f64 * tick.as_secs_f64());
                    } else {
                        ep.ticks_waiting_fw += 1;
                    }
                }
                if !ep.detected_comb {
                    if comb_detected {
                        ep.detected_comb = true;
                        ttd_comb.push(ep.ticks_waiting_comb as f64 * tick.as_secs_f64());
                    } else {
                        ep.ticks_waiting_comb += 1;
                    }
                }
            } else if ep.in_range {
                // Episode ends; undetected episodes contribute the cap.
                if !ep.detected_fw {
                    ttd_fw.push(ep.ticks_waiting_fw as f64 * tick.as_secs_f64());
                }
                if !ep.detected_comb {
                    ttd_comb.push(ep.ticks_waiting_comb as f64 * tick.as_secs_f64());
                }
                *ep = Episode::default();
            }
        }
    }

    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    OcclusionRow {
        density,
        relief_m,
        forwarder_coverage: if in_range_ticks == 0 {
            1.0
        } else {
            fw_hits as f64 / in_range_ticks as f64
        },
        combined_coverage: if in_range_ticks == 0 {
            1.0
        } else {
            comb_hits as f64 / in_range_ticks as f64
        },
        forwarder_ttd_s: mean(&ttd_fw),
        combined_ttd_s: mean(&ttd_comb),
    }
}

/// Runs the full Figure 2 sweep over stand densities.
///
/// The densities × seeds grid is evaluated on the parallel sweep engine
/// ([`crate::sweep::par_sweep`]); every grid point carries its own seed,
/// and per-density means are folded in seed order, so the rows are
/// bit-identical to the sequential nested map this replaces.
#[must_use]
pub fn occlusion_sweep(
    densities: &[f64],
    relief_m: f64,
    seeds: &[u64],
    duration: SimDuration,
) -> Vec<OcclusionRow> {
    if seeds.is_empty() {
        // Degenerate grid: mirror the old nested map, whose empty-mean
        // division yielded NaN summaries.
        let nan = f64::NAN;
        return densities
            .iter()
            .map(|&density| OcclusionRow {
                density,
                relief_m,
                forwarder_coverage: nan,
                combined_coverage: nan,
                forwarder_ttd_s: nan,
                combined_ttd_s: nan,
            })
            .collect();
    }
    let points: Vec<(f64, u64)> = densities
        .iter()
        .flat_map(|&d| seeds.iter().map(move |&s| (d, s)))
        .collect();
    let rows = crate::sweep::par_sweep(&points, |&(density, seed)| {
        occlusion_point(density, relief_m, seed, duration)
    });
    rows.chunks(seeds.len())
        .zip(densities)
        .map(|(rows, &density)| {
            let n = rows.len() as f64;
            OcclusionRow {
                density,
                relief_m,
                forwarder_coverage: rows.iter().map(|r| r.forwarder_coverage).sum::<f64>() / n,
                combined_coverage: rows.iter().map(|r| r.combined_coverage).sum::<f64>() / n,
                forwarder_ttd_s: rows.iter().map(|r| r.forwarder_ttd_s).sum::<f64>() / n,
                combined_ttd_s: rows.iter().map(|r| r.combined_ttd_s).sum::<f64>() / n,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Worksite scenario wrapper (Figure 1, E1, E2)
// ---------------------------------------------------------------------

/// The standard small worksite used by the attack experiments.
#[must_use]
pub fn standard_config(posture: SecurityPosture) -> WorksiteConfig {
    WorksiteConfig {
        world: WorldConfig {
            terrain: TerrainConfig {
                size_m: 300.0,
                relief_m: 8.0,
                ..TerrainConfig::default()
            },
            stand: StandConfig {
                trees_per_hectare: 400.0,
                ..StandConfig::default()
            },
            human_count: 3,
            work_area: Vec2::new(240.0, 240.0),
            landing_area: Vec2::new(60.0, 60.0),
            ..WorldConfig::default()
        },
        security: posture,
        ..WorksiteConfig::default()
    }
}

/// A compact worksite configuration for episode sweeps: the full
/// security machinery (PKI, handshakes, drone link) over a small stand,
/// so per-episode *setup* dominates and huge batches of short probing
/// episodes stay cheap — the regime the pooled episode engine (E14) and
/// the generative Ag-ODD sweeps run in.
#[must_use]
pub fn compact_config(posture: SecurityPosture) -> WorksiteConfig {
    WorksiteConfig {
        world: WorldConfig {
            terrain: TerrainConfig {
                size_m: 150.0,
                relief_m: 4.0,
                ..TerrainConfig::default()
            },
            stand: StandConfig {
                trees_per_hectare: 200.0,
                ..StandConfig::default()
            },
            human_count: 2,
            work_area: Vec2::new(120.0, 120.0),
            landing_area: Vec2::new(30.0, 30.0),
            ..WorldConfig::default()
        },
        security: posture,
        ..WorksiteConfig::default()
    }
}

/// Builds the attack campaign for one attack class against the standard
/// worksite (starting at `start`, for `duration`).
#[must_use]
pub fn campaign_for(kind: AttackKind, start: SimTime, duration: SimDuration) -> AttackCampaign {
    let target = match kind {
        AttackKind::RfJamming | AttackKind::GnssSpoofing | AttackKind::GnssJamming => {
            AttackTarget::Area {
                center: Vec2::new(150.0, 150.0),
                radius_m: 400.0,
            }
        }
        AttackKind::DeauthFlood => {
            // Node ids in Worksite: 0 = base station, 1 = forwarder.
            AttackTarget::Link {
                spoof_as: silvasec_comms::NodeId(0),
                victim: silvasec_comms::NodeId(1),
            }
        }
        AttackKind::CameraBlinding | AttackKind::FirmwareTampering => AttackTarget::Machine {
            label: "forwarder-01".into(),
        },
        AttackKind::Replay => AttackTarget::Network,
        AttackKind::RogueNode => AttackTarget::Link {
            spoof_as: silvasec_comms::NodeId(0),
            victim: silvasec_comms::NodeId(0),
        },
        _ => AttackTarget::Network,
    };
    AttackCampaign {
        kind,
        target,
        start,
        duration,
        intensity: 1.0,
    }
}

/// Runs the standard worksite with an optional attack; returns metrics.
#[must_use]
pub fn run_worksite(
    posture: SecurityPosture,
    attack: Option<AttackKind>,
    seed: u64,
    total: SimDuration,
) -> WorksiteMetrics {
    let mut site = Worksite::new(&standard_config(posture), seed);
    if let Some(kind) = attack {
        let start = SimTime::from_secs(60);
        let dur = SimDuration::from_secs(total.as_secs_f64() as u64 / 2);
        site.attack_engine_mut()
            .add_campaign(campaign_for(kind, start, dur));
    }
    site.run(total);
    site.metrics().clone()
}

/// Runs the standard worksite like [`run_worksite`] but also returns the
/// security-event trace from the flight recorder (the record stream the
/// continuous risk assessment and the trace-divergence tooling consume).
#[must_use]
pub fn run_worksite_traced(
    posture: SecurityPosture,
    attack: Option<AttackKind>,
    seed: u64,
    total: SimDuration,
) -> (WorksiteMetrics, Vec<Record>) {
    let mut site = Worksite::new(&standard_config(posture), seed);
    if let Some(kind) = attack {
        let start = SimTime::from_secs(60);
        let dur = SimDuration::from_secs(total.as_secs_f64() as u64 / 2);
        site.attack_engine_mut()
            .add_campaign(campaign_for(kind, start, dur));
    }
    site.run(total);
    (site.metrics().clone(), site.security_records())
}

/// Runs a shortened Figure 1 episode (secure posture optional, five-phase
/// attack campaign scaled into `total`) and returns the security trace as
/// JSON Lines — the input format of the `trace_compare` tool.
#[must_use]
pub fn figure1_trace(posture: SecurityPosture, seed: u64, total: SimDuration) -> String {
    let mut site = Worksite::new(&standard_config(posture), seed);
    // The figure1 campaign phases, scaled to the episode length: five
    // attack classes back-to-back across the middle 5/6 of the run.
    let phase = total.as_secs_f64() as u64 / 8;
    for (i, kind) in [
        AttackKind::DeauthFlood,
        AttackKind::RfJamming,
        AttackKind::CameraBlinding,
        AttackKind::GnssSpoofing,
        AttackKind::Replay,
    ]
    .into_iter()
    .enumerate()
    {
        site.attack_engine_mut().add_campaign(campaign_for(
            kind,
            SimTime::from_secs(phase * (i as u64 + 1)),
            SimDuration::from_secs((phase * 3) / 4),
        ));
    }
    site.run(total);
    site.export_security_jsonl()
}

/// The alert kind the IDS is expected to raise for an attack class.
#[must_use]
pub fn expected_alert(kind: AttackKind) -> Option<AlertKind> {
    match kind {
        AttackKind::RfJamming => Some(AlertKind::Jamming),
        AttackKind::DeauthFlood => Some(AlertKind::DeauthFlood),
        AttackKind::GnssSpoofing => Some(AlertKind::GnssSpoofing),
        AttackKind::GnssJamming => Some(AlertKind::GnssJamming),
        AttackKind::CameraBlinding => Some(AlertKind::SensorBlinding),
        AttackKind::Replay => Some(AlertKind::AuthFailureStorm),
        AttackKind::RogueNode => Some(AlertKind::RogueAssociation),
        AttackKind::FirmwareTampering => None,
        _ => None,
    }
}

/// One row of the E1 attack × defense matrix.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AttackMatrixRow {
    /// The attack class.
    pub attack: String,
    /// Whether the expected alert fired.
    pub detected: bool,
    /// Seconds from attack onset to first expected alert (if detected).
    pub time_to_detect_s: Option<f64>,
    /// Mission productivity relative to the clean baseline
    /// (distance-driven ratio — robust for runs shorter than one full
    /// haul cycle).
    pub productivity_ratio: f64,
    /// Telemetry delivery ratio under attack.
    pub delivery_ratio: f64,
    /// Safety incidents during the run.
    pub safety_incidents: usize,
    /// Forged/replayed application messages accepted.
    pub forged_accepted: u64,
}

/// Runs the E1 matrix for the runtime attack classes.
///
/// The clean baseline and the seven attacked runs are independent
/// episodes (each reconstructs its own `Worksite` from `seed`), so they
/// are evaluated together on the parallel sweep engine; rows are derived
/// afterwards and match the sequential formulation exactly.
#[must_use]
pub fn attack_matrix(
    posture: SecurityPosture,
    seed: u64,
    total: SimDuration,
) -> Vec<AttackMatrixRow> {
    let attacks = [
        AttackKind::RfJamming,
        AttackKind::DeauthFlood,
        AttackKind::GnssSpoofing,
        AttackKind::GnssJamming,
        AttackKind::CameraBlinding,
        AttackKind::Replay,
        AttackKind::RogueNode,
    ];
    let episodes: Vec<Option<AttackKind>> = std::iter::once(None)
        .chain(attacks.iter().copied().map(Some))
        .collect();
    let mut metrics = crate::sweep::par_sweep(&episodes, |&attack| {
        run_worksite(posture, attack, seed, total)
    })
    .into_iter();
    let baseline = metrics.next().expect("baseline episode present");
    let baseline_distance = baseline.distance_m.max(1.0);
    attacks
        .iter()
        .zip(metrics)
        .map(|(&kind, m)| {
            let onset = SimTime::from_secs(60);
            let (detected, ttd) = match expected_alert(kind) {
                Some(alert) => match m.first_alert_at.get(&alert.to_string()) {
                    Some(at) if *at >= onset => (true, Some(at.since(onset).as_secs_f64())),
                    Some(_) => (true, Some(0.0)),
                    None => (false, None),
                },
                None => (false, None),
            };
            AttackMatrixRow {
                attack: kind.to_string(),
                detected,
                time_to_detect_s: ttd,
                productivity_ratio: m.distance_m / baseline_distance,
                delivery_ratio: m.delivery_ratio(),
                safety_incidents: m.safety_incidents.len(),
                forged_accepted: m.forged_accepted,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figure 3: methodology pipeline
// ---------------------------------------------------------------------

/// Artifact counts per phase of the methodology pipeline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PipelineCounts {
    /// Identified assets.
    pub assets: usize,
    /// Damage scenarios.
    pub damage_scenarios: usize,
    /// Threat scenarios.
    pub threats: usize,
    /// Assessed risks.
    pub risks: usize,
    /// Risks at level ≥ 4.
    pub high_risks: usize,
    /// Derived requirements.
    pub requirements: usize,
    /// Safety–security interplay findings.
    pub interplay_findings: usize,
    /// Machinery hazards considered.
    pub hazards: usize,
    /// SOTIF triggering conditions.
    pub triggering_conditions: usize,
    /// Assurance-case nodes generated.
    pub assurance_nodes: usize,
    /// Assurance evidence items generated.
    pub evidence_items: usize,
}

/// Runs the pipeline over the built-in model and counts artifacts.
#[must_use]
pub fn methodology_pipeline() -> PipelineCounts {
    let model = catalog::worksite_model();
    let tara = Tara::assess(&model);
    let case = silvasec_assurance::builder::build_security_case(&tara, "worksite");
    PipelineCounts {
        assets: model.assets.len(),
        damage_scenarios: model.damage_scenarios.len(),
        threats: model.threats.len(),
        risks: tara.risks.len(),
        high_risks: tara.risks_at_or_above(silvasec_risk::RiskLevel(4)).len(),
        requirements: tara.requirements().count(),
        interplay_findings: tara.interplay_findings.len(),
        hazards: model.hazards.len(),
        triggering_conditions: model.triggering_conditions.len(),
        assurance_nodes: case.nodes().len(),
        evidence_items: case.evidence().len(),
    }
}

// ---------------------------------------------------------------------
// E4: SoS scaling
// ---------------------------------------------------------------------

/// Builds a synthetic SoS assurance composition of `n` constituent
/// modules, each with `goals_per_module` argument goals, chained by
/// away-references.
#[must_use]
pub fn build_sos_composition(n: usize, goals_per_module: usize) -> Composition {
    let mut composition = Composition::new();
    for i in 0..n {
        let name = format!("constituent-{i}");
        let mut case = AssuranceCase::new(&name);
        let root = case.add_node(
            NodeKind::Goal,
            format!("{name}.G0"),
            "constituent is secure",
        );
        let strategy = case.add_node(
            NodeKind::Strategy,
            format!("{name}.S0"),
            "argue over functions",
        );
        case.supported_by(&root, &strategy);
        for g in 0..goals_per_module {
            let goal = case.add_node(
                NodeKind::Goal,
                format!("{name}.G{}", g + 1),
                format!("function {g} is protected"),
            );
            case.supported_by(&strategy, &goal);
            let solution = case.add_node(
                NodeKind::Solution,
                format!("{name}.Sn{g}"),
                "verification run",
            );
            case.supported_by(&goal, &solution);
            let ev = format!("{name}.ev{g}");
            case.register_evidence(silvasec_assurance::evidence::Evidence::new(
                ev.clone(),
                "verification evidence",
                "simulation",
            ));
            case.cite_evidence(&solution, &ev);
        }
        let away = (i > 0).then(|| {
            vec![AwayReference {
                local_goal: silvasec_assurance::gsn::NodeId::new(format!("{name}.G0")),
                remote_module: format!("constituent-{}", i - 1),
                remote_claim: silvasec_assurance::gsn::NodeId::new(format!(
                    "constituent-{}.G0",
                    i - 1
                )),
            }]
        });
        composition.add_module(Module {
            name: name.clone(),
            case,
            public_claims: vec![silvasec_assurance::gsn::NodeId::new(format!("{name}.G0"))],
            away_references: away.unwrap_or_default(),
        });
    }
    composition
}

// ---------------------------------------------------------------------
// E9: SOTIF evidence from simulation
// ---------------------------------------------------------------------

/// Runs approach episodes under a fixed weather condition and collects
/// SOTIF evidence for the people-detection function: an episode is
/// *unsafe* when a worker reaches the critical distance while still
/// undetected (the function — as designed, no malfunction — failed to
/// see them in time). This is the ISO 21448 evidence loop of the paper's
/// Sec. III-C, executed.
#[must_use]
pub fn sotif_evidence(
    weather: silvasec_sim::weather::Weather,
    seed: u64,
    duration: SimDuration,
) -> silvasec_risk::sotif::Evidence {
    let critical_distance = 15.0;
    let config = WorldConfig {
        terrain: TerrainConfig {
            size_m: 300.0,
            relief_m: 10.0,
            ..TerrainConfig::default()
        },
        stand: StandConfig {
            trees_per_hectare: 400.0,
            ..StandConfig::default()
        },
        human_count: 5,
        human: silvasec_sim::humans::HumanConfig {
            work_area_bias: 0.8,
            ..silvasec_sim::humans::HumanConfig::default()
        },
        work_area: Vec2::new(170.0, 150.0),
        landing_area: Vec2::new(40.0, 40.0),
        initial_weather: weather,
        weather_change_prob: 0.0,
    };
    let mut world = World::generate(&config, SimRng::from_seed(seed));
    let mut rng = SimRng::from_seed(seed ^ 0x50f1f);

    let machine_pos = Vec2::new(150.0, 150.0);
    let camera = PeopleSensor::new(SensorKind::Camera, 2.8);
    let lidar = PeopleSensor::new(SensorKind::Lidar, 3.2);
    let mut drone = Drone::new(machine_pos, DroneConfig::default(), &world);

    let tick = SimDuration::from_millis(500);
    let ticks = duration.as_millis() / tick.as_millis();
    let mut heading = 0.0f64;

    // Episode state per human: whether the worker has been detected yet
    // in the current approach.
    let mut in_episode: HashMap<u32, bool> = HashMap::new();
    let mut evidence = silvasec_risk::sotif::Evidence::default();
    let mut episode_unsafe: HashMap<u32, bool> = HashMap::new();
    let (mut candidates, mut cam, mut lid, mut air) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());

    for _ in 0..ticks {
        world.step(tick);
        drone.step(&world, machine_pos, tick);
        heading = (heading + 0.2) % std::f64::consts::TAU;
        camera.detect_into(
            &world,
            machine_pos,
            heading,
            &mut rng,
            &mut candidates,
            &mut cam,
        );
        lidar.detect_into(
            &world,
            machine_pos,
            heading,
            &mut rng,
            &mut candidates,
            &mut lid,
        );
        drone.detect_into(&world, &mut rng, &mut candidates, &mut air);

        for human in world.humans() {
            let dist = human.position.distance(machine_pos);
            let id = human.id.0;
            if dist <= 40.0 {
                let seen = [&cam, &lid, &air]
                    .into_iter()
                    .flatten()
                    .any(|d| d.human_id == human.id);
                let entry = in_episode.entry(id).or_insert(false);
                *entry = *entry || seen;
                if dist <= critical_distance && !*entry {
                    episode_unsafe.insert(id, true);
                }
            } else if in_episode.remove(&id).is_some() {
                evidence.record(episode_unsafe.remove(&id).unwrap_or(false));
            }
        }
    }
    // Close any episodes still open at the end.
    for (id, _) in in_episode.drain() {
        evidence.record(episode_unsafe.remove(&id).unwrap_or(false));
    }
    evidence
}

// ---------------------------------------------------------------------
// E5: continuous assessment latency
// ---------------------------------------------------------------------

/// Timings from attack onset through detection to risk update.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ContinuousLatencyRow {
    /// The attack class exercised.
    pub attack: String,
    /// Attack onset, seconds.
    pub onset_s: f64,
    /// First matching alert, seconds (if detected).
    pub alert_s: Option<f64>,
    /// Risk level before the incident.
    pub risk_before: u8,
    /// Risk level after ingesting the incident.
    pub risk_after: u8,
    /// Goals thrown into doubt when the matching evidence class is
    /// invalidated.
    pub goals_in_doubt: usize,
}

/// Runs E5: attack → IDS alert → continuous risk escalation → assurance
/// invalidation, reporting each hop's outcome.
///
/// The risk layer consumes the worksite's *recorded* security trace: every
/// `IdsAlert` record is fed through
/// [`ContinuousAssessment::ingest_record`], which maps alert classes onto
/// TARA attack classes via [`alert_class_to_attack_class`]. The alert
/// latency is likewise read off the trace rather than from bespoke
/// first-alert bookkeeping.
#[must_use]
pub fn continuous_latency(kind: AttackKind, seed: u64) -> ContinuousLatencyRow {
    let total = SimDuration::from_secs(300);
    let (_metrics, trace) = run_worksite_traced(SecurityPosture::secure(), Some(kind), seed, total);
    let onset = SimTime::from_secs(60);

    let class = kind.as_str().to_string();
    let alert_s = trace.iter().find_map(|r| match &r.event {
        Event::IdsAlert { class: c, .. } if alert_class_to_attack_class(c.as_str()) == class => {
            Some(r.at.as_secs_f64())
        }
        _ => None,
    });

    // Static assessment, then replay the recorded alert stream into it.
    let model = catalog::worksite_model();
    let mut continuous = ContinuousAssessment::new(model);
    let threat_risk = |ca: &ContinuousAssessment| {
        ca.report()
            .risks
            .iter()
            .find(|r| {
                catalog::worksite_model()
                    .threats
                    .iter()
                    .any(|t| t.id == r.threat_id && t.attack_class.as_deref() == Some(&class))
            })
            .map(|r| r.risk.0)
            .unwrap_or(0)
    };
    let before = threat_risk(&continuous);
    for record in &trace {
        let _ = continuous.ingest_record(record);
    }
    let after = threat_risk(&continuous);

    // Assurance invalidation: the control tag tied to this attack class.
    let tara = Tara::assess(&catalog::worksite_model());
    let mut case = silvasec_assurance::builder::build_security_case(&tara, "worksite");
    let tag = Tara::candidate_controls(Some(&class))
        .into_iter()
        .next()
        .unwrap_or_default();
    let _ = case.invalidate_evidence_tagged(&tag);
    let doubt = case.goals_in_doubt(0).len();

    ContinuousLatencyRow {
        attack: class,
        onset_s: onset.as_secs_f64(),
        alert_s,
        risk_before: before,
        risk_after: after,
        goals_in_doubt: doubt,
    }
}

// ---------------------------------------------------------------------
// E10: fleet OTA rollout and fleet security operations
// ---------------------------------------------------------------------

/// The fleet-layer attack injected into an E10 rollout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FleetScenario {
    /// No attack — the baseline rollout.
    Clean,
    /// Update chunks corrupted in transit (MITM on the distribution
    /// path); every site must reject the reassembled bundle.
    Tampered,
    /// The old but genuinely signed bundle substituted on the wire;
    /// every site must reject the version rollback.
    Downgrade,
    /// A correctly signed malicious bundle: sites that apply it start
    /// misbehaving, and the canary IDS spike must halt the rollout.
    Poisoned,
    /// Broadband jamming of every uplink at intensity 1.0 for the whole
    /// rollout. No rollout completes: a full-fidelity uplink loses every
    /// frame, so full site 0 never finishes the canary wave, and the
    /// rollout stops at its 4 000-tick budget (`completed: false`,
    /// `latency_ms` 2 000 000). Full-fidelity fleets of 4, 16 and 64
    /// sites apply nothing (64 000 frames sent, all lost). Shadow sites
    /// keep 15 % of their link quality (at least 2 %), so in a
    /// two-fidelity fleet the canary wave's shadow sites apply: 63 of
    /// 4 096 sites at seed 11, the rollout `tests/golden.rs` pins.
    Jammed,
}

impl FleetScenario {
    /// Short stable name for result tables.
    #[must_use]
    pub fn as_str(&self) -> &'static str {
        match self {
            FleetScenario::Clean => "clean",
            FleetScenario::Tampered => "tampered",
            FleetScenario::Downgrade => "downgrade",
            FleetScenario::Poisoned => "poisoned",
            FleetScenario::Jammed => "jammed",
        }
    }

    /// The fleet-layer campaign this scenario schedules, if any.
    #[must_use]
    pub fn campaign(&self) -> Option<AttackCampaign> {
        let kind = match self {
            FleetScenario::Clean => return None,
            FleetScenario::Tampered => AttackKind::UpdateTampering,
            FleetScenario::Downgrade => AttackKind::Downgrade,
            FleetScenario::Poisoned => AttackKind::RolloutPoisoning,
            FleetScenario::Jammed => AttackKind::RfJamming,
        };
        Some(AttackCampaign {
            kind,
            target: AttackTarget::Network,
            start: SimTime::ZERO,
            duration: SimDuration::from_secs(100_000),
            intensity: 1.0,
        })
    }
}

/// The standard E10 fleet: compact worksites (fleet scale comes from the
/// site count, not from each site's stand), a one-site canary, and waves
/// of four.
#[must_use]
pub fn fleet_config(sites: usize) -> silvasec_fleet::FleetConfig {
    let site = WorksiteConfig {
        world: WorldConfig {
            terrain: TerrainConfig {
                size_m: 200.0,
                relief_m: 6.0,
                ..TerrainConfig::default()
            },
            stand: StandConfig {
                trees_per_hectare: 300.0,
                ..StandConfig::default()
            },
            human_count: 2,
            work_area: Vec2::new(160.0, 160.0),
            landing_area: Vec2::new(40.0, 40.0),
            ..WorldConfig::default()
        },
        ..WorksiteConfig::default()
    };
    silvasec_fleet::FleetConfig {
        sites,
        site,
        policy: silvasec_fleet::RolloutPolicy {
            canary_sites: 1,
            wave_size: 4,
            // Long enough for a poisoned canary's IDS alerts (which take
            // ~10 s to cross the halt threshold) to stop the rollout
            // before the first full wave ships.
            observe_ticks: 40,
            halt_alert_threshold: 3,
        },
        ..silvasec_fleet::FleetConfig::default()
    }
}

/// Runs one E10 point: commissions a fleet of `sites` worksites and
/// rolls firmware version 2 out under `scenario`. Returns the rollout
/// report and the fleet security trace (JSONL).
#[must_use]
pub fn run_fleet_rollout(
    sites: usize,
    seed: u64,
    scenario: FleetScenario,
) -> (silvasec_fleet::RolloutReport, String) {
    let mut fleet = silvasec_fleet::Fleet::new(fleet_config(sites), seed);
    if let Some(campaign) = scenario.campaign() {
        fleet.schedule_fleet_attack(campaign);
    }
    let report = fleet.run_rollout(2);
    let trace = fleet.export_trace_jsonl();
    (report, trace)
}

// ---------------------------------------------------------------------
// E12: fleet-scale control plane (two-fidelity shadow population)
// ---------------------------------------------------------------------

/// The E12 fleet-scale configuration: the same compact worksites as
/// [`fleet_config`] for the full-fidelity subset, a shadow population
/// for the rest, and a rollout policy whose waves scale with the fleet
/// (a million-site rollout is a handful of waves, not 250k of them).
#[must_use]
pub fn fleet_scale_config(sites: usize, sequential: bool) -> silvasec_fleet::FleetConfig {
    let mut config = fleet_config(sites);
    config.policy = silvasec_fleet::RolloutPolicy {
        canary_sites: (sites / 64).max(1),
        wave_size: (sites / 8).max(4),
        observe_ticks: 8,
        halt_alert_threshold: 3,
    };
    config.shadow = Some(silvasec_fleet::ShadowConfig {
        full_sites: 4,
        shard_sites: 8_192,
        sequential,
    });
    config
}

/// Runs one E12 point: a fleet of `sites` (full-fidelity subset plus
/// shadow population per [`fleet_scale_config`]) rolling out firmware
/// version 2 under `scenario`. Returns the report and the fleet itself
/// so callers can probe the trace, SIEM and security snapshot.
#[must_use]
pub fn run_fleet_scale_point(
    sites: usize,
    seed: u64,
    scenario: FleetScenario,
    sequential: bool,
) -> (silvasec_fleet::RolloutReport, silvasec_fleet::Fleet) {
    let mut fleet = silvasec_fleet::Fleet::new(fleet_scale_config(sites, sequential), seed);
    if let Some(campaign) = scenario.campaign() {
        fleet.schedule_fleet_attack(campaign);
    }
    let report = fleet.run_rollout(2);
    (report, fleet)
}

/// Runs the E12 security-operations scenario on an already shaped
/// fleet config: disclose an update-tampering vulnerability (risk up),
/// sustain a fleet-wide deauthentication flood for 60 s while
/// free-running 90 s (SIEM correlation, risk up), then roll out
/// version 2 (mitigation, risk down). Pass [`fleet_config`] with
/// `shadow: None` for the full-fidelity reference, or
/// [`fleet_scale_config`] for the two-fidelity scale points.
#[must_use]
pub fn run_fleet_scale_scenario(
    config: silvasec_fleet::FleetConfig,
    seed: u64,
) -> (silvasec_fleet::RolloutReport, silvasec_fleet::Fleet) {
    let mut fleet = silvasec_fleet::Fleet::new(config, seed);
    fleet.disclose_vulnerability("update-tampering");
    fleet.schedule_fleet_attack(campaign_for(
        AttackKind::DeauthFlood,
        SimTime::from_secs(5),
        SimDuration::from_secs(60),
    ));
    fleet.run(SimDuration::from_secs(90));
    let report = fleet.run_rollout(2);
    (report, fleet)
}

/// The fleet-level security *decisions* of a run, in emission order:
/// correlated campaign classes and risk transitions `(threat, from,
/// to)`. Timestamps and in-window site counts are excluded on purpose —
/// shadow alert latencies are modeled rather than simulated, so the
/// instants (and how many sites happen to sit in the window when the
/// k-th arrives) differ across fidelities while the decisions must not.
#[must_use]
pub fn fleet_decisions(
    fleet: &silvasec_fleet::Fleet,
) -> (Vec<String>, Vec<(String, RiskLevel, RiskLevel)>) {
    let campaigns = fleet
        .siem()
        .campaigns()
        .iter()
        .map(|c| c.class.clone())
        .collect();
    let risk = fleet
        .risk()
        .changes()
        .iter()
        .map(|c| (c.threat_id.clone(), c.from, c.to))
        .collect();
    (campaigns, risk)
}

// ---------------------------------------------------------------------
// E13: incident-response operations (deterministic ops engine)
// ---------------------------------------------------------------------

/// The standard E13 ops configuration for fleet wiring: the default
/// engine with a visibility timeout generous enough that a full staged
/// remediation rollout never outlives its lease (see
/// [`silvasec_fleet::Fleet::run_ops_remediations`]), and a review
/// window generous enough that a critical run gated mid-scenario is
/// still awaiting its reviewer when the free-running phase ends.
#[must_use]
pub fn ops_config() -> silvasec_ops::OpsConfig {
    silvasec_ops::OpsConfig {
        queue: silvasec_ops::QueueConfig {
            visibility_timeout_ms: 300_000,
            ..silvasec_ops::QueueConfig::default()
        },
        gate: silvasec_ops::GatePolicy {
            review_timeout_ms: 600_000,
            ..silvasec_ops::GatePolicy::default()
        },
        ..silvasec_ops::OpsConfig::default()
    }
}

/// Runs the E13 fleet incident-response scenario: the E10 fleet with
/// the ops engine enabled, a sustained fleet-wide deauthentication
/// flood that correlates into a SIEM campaign, then a free-running
/// window in which the engine triages, contains (site quarantine /
/// rollout halt) and gates the resulting incidents. Remediation is
/// deferred: the caller reviews pending gates and calls
/// `run_ops_remediations` to push the fix (see `tests/ops_incident.rs`
/// for the full arc).
#[must_use]
pub fn run_fleet_ops_scenario(sites: usize, seed: u64) -> silvasec_fleet::Fleet {
    let mut config = fleet_config(sites);
    config.ops = Some(ops_config());
    let mut fleet = silvasec_fleet::Fleet::new(config, seed);
    fleet.schedule_fleet_attack(campaign_for(
        AttackKind::DeauthFlood,
        SimTime::from_secs(5),
        SimDuration::from_secs(60),
    ));
    fleet.run(SimDuration::from_secs(90));
    fleet
}

/// What [`run_pathway_scenario`] leaves behind.
pub struct PathwayRun {
    /// The fleet after the operator loop.
    pub fleet: silvasec_fleet::Fleet,
    /// The staged version-2 rollout requested after the free run.
    pub v2: silvasec_fleet::RolloutReport,
    /// One remediation rollout per operator pass that found commands
    /// parked, in order.
    pub remediations: Vec<silvasec_fleet::RolloutReport>,
}

/// Operator passes before [`run_pathway_scenario`] gives up on ops idle.
const PATHWAY_OPERATOR_PASSES: usize = 20;

/// Runs the paper's whole chain (attack → IDS alert → SIEM campaign →
/// incident → remediation → closure, with live TARA) on a `sites`-site
/// fleet of which `full_sites` are full-fidelity, as the benchmark's
/// `pathway` round does: disclose update tampering, a fleet-wide deauth
/// flood at 5–65 s with replay on the odd-numbered full sites, a 90 s
/// free run, the staged version-2 rollout, then operator passes
/// (approve every gate, run the parked remediations, advance 10 s)
/// until ops is idle, at most 20 passes.
#[must_use]
pub fn run_pathway_scenario(sites: usize, full_sites: usize, seed: u64) -> PathwayRun {
    let mut config = fleet_scale_config(sites, false);
    config.shadow = Some(silvasec_fleet::ShadowConfig {
        full_sites,
        shard_sites: 8_192,
        sequential: false,
    });
    config.ops = Some(ops_config());
    config.tara = Some(tara_config());
    let mut fleet = silvasec_fleet::Fleet::new(config, seed);
    let flood = campaign_for(
        AttackKind::DeauthFlood,
        SimTime::from_secs(5),
        SimDuration::from_secs(60),
    );
    fleet.disclose_vulnerability("update-tampering");
    fleet.schedule_fleet_attack(flood.clone());
    for pos in (1..full_sites).step_by(2) {
        fleet.schedule_site_attack(
            pos,
            campaign_for(AttackKind::Replay, flood.start, flood.duration),
        );
    }
    fleet.run(SimDuration::from_secs(90));
    let v2 = fleet.run_rollout(2);

    let mut remediations = Vec::new();
    for _ in 0..PATHWAY_OPERATOR_PASSES {
        if fleet.ops().is_none_or(silvasec_ops::OpsEngine::idle) {
            break;
        }
        for run in fleet.ops_pending_reviews() {
            fleet.ops_review(run, silvasec_ops::GateDecision::Approve);
        }
        remediations.extend(fleet.run_ops_remediations());
        fleet.run(SimDuration::from_secs(10));
    }
    PathwayRun {
        fleet,
        v2,
        remediations,
    }
}

/// One synthetic E13 load point: drives a bare [`silvasec_ops::OpsEngine`]
/// (no fleet attached) to idle under `incidents` incidents with a
/// deterministic arrival schedule, scope/severity mix, scripted command
/// flakiness and scripted review verdicts. Returns the settled engine
/// and its security-filtered JSONL trace; callers assert digests,
/// counters and replay against them. Everything is a pure function of
/// `(incidents, seed)` — two calls are byte-identical.
///
/// # Panics
///
/// Panics if the engine fails to settle within the tick budget (a
/// lost-incident bug by definition).
#[must_use]
pub fn run_ops_load(incidents: usize, seed: u64) -> (silvasec_ops::OpsEngine, String) {
    use silvasec_ids::alert::Severity;
    use silvasec_ops::{Action, GateDecision, Incident, IncidentScope, OpsConfig, OpsEngine};
    use silvasec_sim::rng::hash3;
    use silvasec_telemetry::{EventFilter, Recorder};

    const CLASSES: [&str; 4] = [
        "jamming",
        "gnss-spoofing",
        "auth-failure-storm",
        "rogue-association",
    ];
    let recorder = Recorder::new();
    let ring = (incidents * 64).max(1 << 16);
    let sub = recorder.subscribe_filtered("ops-load", ring, EventFilter::security());
    let mut engine = OpsEngine::new(
        OpsConfig {
            seed,
            ..OpsConfig::default()
        },
        recorder.clone(),
    );

    let mut now_ms = 0u64;
    let mut issued = 0usize;
    let mut verdicts = 0u64;
    // Scripted executor: QuarantineSite flakes on a fixed cadence so the
    // retry ladder and backoff paths are exercised; everything else
    // succeeds. MitigateRisk is fire-and-forget.
    let mut pump = |engine: &mut OpsEngine, mut cmds: Vec<silvasec_ops::OpsCommand>, now: u64| {
        while let Some(cmd) = cmds.pop() {
            if matches!(cmd.action, Action::MitigateRisk { .. }) {
                continue;
            }
            verdicts += 1;
            let ok = !(matches!(cmd.action, Action::QuarantineSite { .. })
                && verdicts.is_multiple_of(13));
            cmds.extend(engine.complete(cmd.id, ok, now));
        }
    };
    let max_ticks = 4 * incidents as u64 + 4_000;
    for _ in 0..max_ticks {
        // Arrivals: a batch of up to 64 per 500 ms tick, mixing scopes
        // and severities deterministically. Every 31st incident repeats
        // the previous identity to exercise dedup folding.
        let batch = (incidents - issued).min(64);
        for i in 0..batch {
            let k = (issued + i) as u64;
            let k = if k % 31 == 30 { k - 1 } else { k };
            let class = CLASSES[(k % 4) as usize];
            let severity = match k % 5 {
                0 => Severity::Low,
                1 | 2 => Severity::Medium,
                3 => Severity::High,
                _ => Severity::Critical,
            };
            let scope = if k % 7 == 0 {
                IncidentScope::Fleet {
                    sites: 3 + (k % 5) as u32,
                }
            } else {
                IncidentScope::Site((k % 97) as u32)
            };
            engine.enqueue_incident(
                &Incident {
                    class: class.to_string(),
                    severity,
                    scope,
                    detected_at_ms: now_ms,
                },
                now_ms,
            );
        }
        issued += batch;
        // Scripted reviewer: answers every pending gate the tick it
        // appears, rejecting one in four.
        for run in engine.pending_reviews() {
            let decision = if hash3(seed, run, 0xE13).is_multiple_of(4) {
                GateDecision::Reject
            } else {
                GateDecision::Approve
            };
            let cmds = engine.review(run, decision, now_ms);
            pump(&mut engine, cmds, now_ms);
        }
        let cmds = engine.tick(now_ms);
        pump(&mut engine, cmds, now_ms);
        now_ms += 500;
        if issued == incidents && engine.idle() {
            let trace = recorder.export_jsonl(sub);
            return (engine, trace);
        }
    }
    panic!("ops load of {incidents} incidents not settled after {max_ticks} ticks");
}

// ---------------------------------------------------------------------
// E11: generative TARA (scenario enumeration and live hypotheses)
// ---------------------------------------------------------------------

/// The standard E11 TARA knob for fleet wiring: a ranking wide enough
/// that every distinct scenario of the two-variant space (4 000) is
/// ranked, so every attack class has a live hypothesis for campaign
/// evidence to confirm, and the rollout mitigation finds the
/// firmware-tampering one to retire.
#[must_use]
pub fn tara_config() -> silvasec_fleet::TaraConfig {
    silvasec_fleet::TaraConfig {
        variants: 2,
        top_k: 4_096,
    }
}

/// The exact ranking a fleet commissioned with `seed` under
/// [`tara_config`] carries — what the hypothesis trace replays against
/// (`HypothesisSet::replay_from_jsonl`).
#[must_use]
pub fn tara_ranking(seed: u64) -> Vec<silvasec_tara::ScoredScenario> {
    let tc = tara_config();
    let catalog = silvasec_tara::TaraCatalog::from_model(&catalog::worksite_model());
    silvasec_tara::ScenarioSpace::new(&catalog, seed, tc.variants, tc.top_k)
        .enumerate()
        .top
}

/// Runs the E11 live-hypothesis scenario: the E10 fleet with the
/// generative TARA on, a sustained fleet-wide deauthentication flood
/// that correlates into a SIEM campaign (confirming the matching
/// class), then a completed version-2 rollout whose mitigation retires
/// the firmware-tampering class. Probe the result through
/// [`silvasec_fleet::Fleet::tara`] and the fleet trace.
#[must_use]
pub fn run_tara_hypotheses(sites: usize, seed: u64) -> silvasec_fleet::Fleet {
    let mut config = fleet_config(sites);
    config.tara = Some(tara_config());
    let mut fleet = silvasec_fleet::Fleet::new(config, seed);
    fleet.schedule_fleet_attack(campaign_for(
        AttackKind::DeauthFlood,
        SimTime::from_secs(5),
        SimDuration::from_secs(60),
    ));
    fleet.run(SimDuration::from_secs(90));
    let _ = fleet.run_rollout(2);
    fleet
}

// ---------------------------------------------------------------------
// E14: episode-throughput engine (scenario sweeps over pooled worksites)
// ---------------------------------------------------------------------

/// One scenario point of an episode sweep: everything needed to run one
/// worksite episode from nothing.
#[derive(Debug, Clone)]
pub struct EpisodeSpec {
    /// The worksite configuration (world, posture, telemetry shape).
    pub config: WorksiteConfig,
    /// Scenario seed.
    pub seed: u64,
    /// Attack class launched with the standard campaign timing, if any.
    pub attack: Option<AttackKind>,
    /// Episode length.
    pub duration: SimDuration,
}

impl EpisodeSpec {
    /// An episode on the standard attack-experiment worksite.
    #[must_use]
    pub fn standard(
        posture: SecurityPosture,
        attack: Option<AttackKind>,
        seed: u64,
        duration: SimDuration,
    ) -> Self {
        EpisodeSpec {
            config: standard_config(posture),
            seed,
            attack,
            duration,
        }
    }

    /// An episode on the compact episode-sweep worksite
    /// ([`compact_config`]).
    #[must_use]
    pub fn compact(
        posture: SecurityPosture,
        attack: Option<AttackKind>,
        seed: u64,
        duration: SimDuration,
    ) -> Self {
        EpisodeSpec {
            config: compact_config(posture),
            seed,
            attack,
            duration,
        }
    }

    /// Schedules this spec's campaign on `site`, scaled to the episode
    /// length: onset a quarter in, lasting half the episode (matching
    /// [`run_worksite`]'s 60 s / half-run shape at its 240 s horizon,
    /// while still firing inside arbitrarily short probing episodes).
    pub fn arm(&self, site: &mut Worksite) {
        if let Some(kind) = self.attack {
            let secs = self.duration.as_secs_f64() as u64;
            let start = SimTime::from_secs(secs / 4);
            let dur = SimDuration::from_secs((secs / 2).max(1));
            site.attack_engine_mut()
                .add_campaign(campaign_for(kind, start, dur));
        }
    }
}

/// Scalar outcome of one episode, plus a digest of its security trace —
/// the cheap cross-run (parallel vs sequential, pooled vs naive)
/// equality witness.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpisodeOutcome {
    /// Scenario seed the episode ran under.
    pub seed: u64,
    /// Simulation ticks executed.
    pub ticks: u64,
    /// Messages delivered end-to-end.
    pub messages_delivered: u64,
    /// Forwarder distance, metres (bit-exact carrier: compare via
    /// `to_bits`).
    pub distance_m: f64,
    /// Ticks with a worker inside the danger zone.
    pub danger_zone_ticks: u64,
    /// Forged or replayed messages accepted.
    pub forged_accepted: u64,
    /// Total IDS alerts across kinds.
    pub alerts: u64,
    /// FNV-1a digest of the security-trace JSONL export.
    pub trace_digest: u64,
}

/// FNV-1a (64-bit) digest of a trace export.
#[must_use]
pub fn trace_digest(trace: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in trace.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn episode_outcome(site: &Worksite, seed: u64) -> EpisodeOutcome {
    let m = site.metrics();
    EpisodeOutcome {
        seed,
        ticks: m.ticks,
        messages_delivered: m.messages_delivered,
        distance_m: m.distance_m,
        danger_zone_ticks: m.danger_zone_ticks,
        forged_accepted: m.forged_accepted,
        alerts: m.alerts.values().sum(),
        trace_digest: trace_digest(&site.export_security_jsonl()),
    }
}

/// Runs one episode the naive way: build a fresh [`Worksite`] from
/// nothing (full PKI commissioning, world generation, all allocations),
/// run it, read the outcome.
///
/// This is the **frozen oracle** of the episode-throughput overhaul:
/// the pooled path must reproduce its outcomes bit-for-bit. Do not
/// optimize this function.
#[must_use]
pub fn run_episode_naive(spec: &EpisodeSpec) -> EpisodeOutcome {
    let mut site = Worksite::new(&spec.config, spec.seed);
    spec.arm(&mut site);
    site.run(spec.duration);
    episode_outcome(&site, spec.seed)
}

/// Runs one episode on a pooled worksite slot: the first episode builds
/// the worksite, every later one resets it in place
/// ([`Worksite::reset_for_episode`]) — reusing terrain grids, telemetry
/// rings, radio buffers and the amortized PKI template.
pub fn run_episode_pooled(slot: &mut Option<Worksite>, spec: &EpisodeSpec) -> EpisodeOutcome {
    match slot {
        Some(site) => site.reset_for_episode(&spec.config, spec.seed),
        None => *slot = Some(Worksite::new(&spec.config, spec.seed)),
    }
    let site = slot.as_mut().expect("slot populated above");
    spec.arm(site);
    site.run(spec.duration);
    episode_outcome(site, spec.seed)
}

/// The episode-throughput engine: drives a batch of scenario points
/// through a pool of reusable worksites on the parallel sweep engine —
/// one long-lived worksite per worker, reset per episode.
///
/// Results come back in input order and are bit-identical to the
/// sequential single-worksite loop for any worker count (the
/// `par_sweep` determinism contract plus the reset-equals-fresh
/// property). This is the substrate for generative Ag-ODD scenario
/// sweeps: enumerate specs, hand them here, get trajectory-grade
/// outcomes back.
///
/// Workers take contiguous claims of the batch
/// ([`crate::sweep::par_sweep_scoped_workers`]), so list the specs that
/// share a scenario seed next to each other (world-major order): a run
/// of them stays on one worker, whose worksite commissions that seed's
/// PKI template once and replays it for the rest of the run. Any other
/// order gives the same outcomes, only with more template builds.
#[derive(Debug, Clone, Copy, Default)]
pub struct EpisodeRunner {
    workers: Option<usize>,
}

impl EpisodeRunner {
    /// A runner using the hardware worker count.
    #[must_use]
    pub fn new() -> Self {
        EpisodeRunner::default()
    }

    /// A runner with an explicit worker count (1 = the sequential
    /// reference).
    #[must_use]
    pub fn with_workers(workers: usize) -> Self {
        EpisodeRunner {
            workers: Some(workers),
        }
    }

    /// Runs every episode, returning outcomes in input order.
    #[must_use]
    pub fn run(&self, episodes: &[EpisodeSpec]) -> Vec<EpisodeOutcome> {
        let workers = self
            .workers
            .unwrap_or_else(|| crate::sweep::worker_count(episodes.len()));
        crate::sweep::par_sweep_scoped_workers(
            episodes,
            workers,
            || None::<Worksite>,
            |slot, spec, _| run_episode_pooled(slot, spec),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occlusion_drone_helps_in_dense_stands() {
        let dense = occlusion_point(1200.0, 12.0, 5, SimDuration::from_secs(400));
        assert!(
            dense.combined_coverage > dense.forwarder_coverage,
            "drone must add coverage in dense stands: fw {} vs comb {}",
            dense.forwarder_coverage,
            dense.combined_coverage
        );
        assert!(dense.combined_ttd_s <= dense.forwarder_ttd_s + 1e-9);
    }

    #[test]
    fn occlusion_gap_grows_with_terrain_relief() {
        // The paper's Figure 2 claim: the drone's additional point of view
        // eliminates occlusions caused by *terrain obstacles*. The
        // forwarder-vs-combined coverage gap should widen on rough ground.
        let flat = occlusion_point(300.0, 0.5, 5, SimDuration::from_secs(400));
        let rough = occlusion_point(300.0, 25.0, 5, SimDuration::from_secs(400));
        let gap_flat = flat.combined_coverage - flat.forwarder_coverage;
        let gap_rough = rough.combined_coverage - rough.forwarder_coverage;
        assert!(
            gap_rough > gap_flat,
            "gap flat {gap_flat:.3} vs rough {gap_rough:.3}"
        );
        assert!(rough.forwarder_coverage < flat.forwarder_coverage);
    }

    #[test]
    fn occlusion_sweep_matches_the_sequential_nested_map() {
        // Per density, the parallel sweep must equal to the bit the mean
        // of `occlusion_point` over the seeds, summed in seed order.
        // Three seeds, because two sum to the same bits in either order.
        let densities = [0.0, 600.0, 1500.0];
        let seeds = [5u64, 17, 29];
        let (relief_m, duration) = (15.0, SimDuration::from_secs(60));
        let rows = occlusion_sweep(&densities, relief_m, &seeds, duration);
        assert_eq!(rows.len(), densities.len());
        for (row, &density) in rows.iter().zip(&densities) {
            let points: Vec<OcclusionRow> = seeds
                .iter()
                .map(|&s| occlusion_point(density, relief_m, s, duration))
                .collect();
            let mean = |field: fn(&OcclusionRow) -> f64| {
                points.iter().map(field).sum::<f64>() / points.len() as f64
            };
            let expected = [
                density,
                relief_m,
                mean(|r| r.forwarder_coverage),
                mean(|r| r.combined_coverage),
                mean(|r| r.forwarder_ttd_s),
                mean(|r| r.combined_ttd_s),
            ];
            let got = [
                row.density,
                row.relief_m,
                row.forwarder_coverage,
                row.combined_coverage,
                row.forwarder_ttd_s,
                row.combined_ttd_s,
            ];
            assert_eq!(
                got.map(f64::to_bits),
                expected.map(f64::to_bits),
                "density {density}: {got:?} vs {expected:?}"
            );
        }
    }

    #[test]
    fn pipeline_counts_consistent() {
        let p = methodology_pipeline();
        assert_eq!(p.risks, p.threats);
        assert!(p.requirements <= p.risks);
        assert!(p.high_risks <= p.risks);
        assert!(p.assurance_nodes > p.risks);
        assert!(p.evidence_items > 0);
    }

    #[test]
    fn sos_composition_scales_and_checks() {
        let comp = build_sos_composition(8, 5);
        assert_eq!(comp.modules().len(), 8);
        assert!(comp.check_all().is_empty());
        assert!(comp.check_incremental("constituent-3").is_empty());
        assert_eq!(comp.total_nodes(), 8 * (2 + 2 * 5));
    }

    #[test]
    fn sotif_evidence_separates_fog_from_clear() {
        let clear = sotif_evidence(
            silvasec_sim::weather::Weather::Clear,
            7,
            SimDuration::from_secs(1200),
        );
        let fog = sotif_evidence(
            silvasec_sim::weather::Weather::Fog,
            7,
            SimDuration::from_secs(1200),
        );
        assert!(
            clear.exposures >= 10,
            "too few episodes: {}",
            clear.exposures
        );
        assert!(
            fog.unsafe_rate() > clear.unsafe_rate(),
            "fog {:.2} vs clear {:.2}",
            fog.unsafe_rate(),
            clear.unsafe_rate()
        );
    }

    #[test]
    fn continuous_latency_escalates_risk() {
        let row = continuous_latency(AttackKind::GnssSpoofing, 11);
        assert!(row.risk_after >= row.risk_before);
        assert!(row.goals_in_doubt > 0);
    }

    #[test]
    fn ops_load_settles_conserves_and_replays() {
        let (engine, trace) = run_ops_load(100, 7);
        let counters = engine.store().counters();
        assert!(counters.duplicates_folded > 0, "dedup path exercised");
        assert_eq!(
            counters.settled() + counters.duplicates_folded,
            100,
            "every incident accounted for: {counters:?}"
        );
        // At idle nothing is ready or in flight: every opened run was
        // queued once and settled once.
        let queue = engine.queue_counters();
        assert_eq!(counters.opened, queue.enqueued, "{queue:?}");
        assert_eq!(
            queue.enqueued,
            queue.acked + queue.dead_lettered,
            "{queue:?}"
        );
        assert!(engine.queue_conserves());
        let replayed = silvasec_ops::RunStore::replay_from_jsonl(&trace).unwrap();
        assert_eq!(replayed.digest(), engine.store().digest());
        assert_eq!(engine.store().first_divergence(&replayed), None);
        // Pure function of (incidents, seed).
        let (engine2, trace2) = run_ops_load(100, 7);
        assert_eq!(engine2.store().digest(), engine.store().digest());
        assert_eq!(trace2, trace);
    }

    #[test]
    fn tara_hypotheses_confirm_retire_and_replay_from_the_trace() {
        use silvasec_tara::{HypothesisSet, HypothesisStatus};

        let fleet = run_tara_hypotheses(4, 11);
        let tara = fleet.tara().expect("tara knob on");
        let (_, confirmed, retired) = tara.counts();
        assert!(confirmed > 0, "campaign evidence must confirm hypotheses");
        assert!(retired > 0, "rollout mitigation must retire hypotheses");
        assert!(tara
            .hypotheses()
            .iter()
            .filter(|h| h.status == HypothesisStatus::Retired)
            .all(|h| h.class == "firmware-tampering"));

        // The hypothesis state is a pure function of the trace: rebuild
        // it from the JSONL alone and compare.
        let replayed =
            HypothesisSet::replay_from_jsonl(tara_ranking(11), &fleet.export_trace_jsonl())
                .unwrap();
        assert_eq!(replayed.first_divergence(tara), None);

        // And the scenario itself is deterministic.
        let fleet2 = run_tara_hypotheses(4, 11);
        assert_eq!(fleet2.export_trace_jsonl(), fleet.export_trace_jsonl());
    }

    /// The attack cells the episode batches rotate through.
    const EPISODE_ATTACKS: [Option<AttackKind>; 4] = [
        None,
        Some(AttackKind::RfJamming),
        Some(AttackKind::DeauthFlood),
        Some(AttackKind::Replay),
    ];

    fn episode_batch() -> Vec<EpisodeSpec> {
        (0..8u64)
            .map(|i| {
                EpisodeSpec::standard(
                    SecurityPosture::secure(),
                    EPISODE_ATTACKS[i as usize % EPISODE_ATTACKS.len()],
                    11 + i % 3,
                    SimDuration::from_secs(150),
                )
            })
            .collect()
    }

    #[test]
    fn pooled_episodes_match_the_naive_oracle() {
        // The standard batch, then two rounds of compact secure 2 s
        // episodes at seed 11 over the four attack cells: the pooled
        // site crosses from the standard to the compact world, then
        // resets from a warm PKI template, the setup-dominated regime
        // of short probing sweeps.
        let mut specs = episode_batch();
        specs.extend(EPISODE_ATTACKS.iter().cycle().take(8).map(|&attack| {
            EpisodeSpec::compact(
                SecurityPosture::secure(),
                attack,
                11,
                SimDuration::from_secs(2),
            )
        }));
        let naive: Vec<EpisodeOutcome> = specs.iter().map(run_episode_naive).collect();
        let pooled = EpisodeRunner::with_workers(1).run(&specs);
        assert_eq!(naive, pooled, "pooled runner diverged from naive oracle");
    }

    #[test]
    fn episode_runner_is_order_preserving_across_worker_counts() {
        let specs = episode_batch();
        let reference = EpisodeRunner::with_workers(1).run(&specs);
        assert_eq!(reference.len(), specs.len());
        for (spec, out) in specs.iter().zip(&reference) {
            assert_eq!(spec.seed, out.seed, "outcomes must come back in order");
        }
        for workers in [2usize, 3] {
            let out = EpisodeRunner::with_workers(workers).run(&specs);
            assert_eq!(out, reference, "diverged at {workers} workers");
        }
    }
}
