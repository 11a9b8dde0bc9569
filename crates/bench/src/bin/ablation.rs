//! **Ablations** — the design choices DESIGN.md calls out, swept:
//!
//! 1. drone patrol altitude (the Figure 2 vantage-point trade-off:
//!    higher sees over terrain but through more canopy at an angle);
//! 2. safety-supervisor clear delay (stop/start oscillation vs
//!    productivity);
//! 3. GNSS-consistency confirmation count (detection latency vs false
//!    positives on clean runs).
//!
//! Run with: `cargo run --release -p silvasec-bench --bin ablation`

use silvasec::experiments::{campaign_for, standard_config};
use silvasec::machines::drone::{Drone, DroneConfig};
use silvasec::prelude::*;
use silvasec::sim::terrain::TerrainConfig;
use silvasec::sim::vegetation::StandConfig;
use silvasec::sweep::par_sweep;

fn drone_altitude_ablation() {
    println!("--- ablation 1: drone patrol altitude (relief 25 m, 300 trees/ha) ---");
    println!(
        "{:>12} {:>12} {:>12}",
        "altitude (m)", "coverage", "ttd (s)"
    );
    let altitudes = [20.0, 35.0, 50.0, 80.0, 120.0];
    let rows = par_sweep(&altitudes, |&altitude| {
        // Re-implement the occlusion core with a custom drone config.
        let config = WorldConfig {
            terrain: TerrainConfig {
                size_m: 300.0,
                relief_m: 25.0,
                ..TerrainConfig::default()
            },
            stand: StandConfig {
                trees_per_hectare: 300.0,
                ..StandConfig::default()
            },
            human_count: 4,
            human: silvasec::sim::humans::HumanConfig {
                work_area_bias: 0.7,
                ..silvasec::sim::humans::HumanConfig::default()
            },
            work_area: Vec2::new(175.0, 150.0),
            landing_area: Vec2::new(40.0, 40.0),
            ..WorldConfig::default()
        };
        let mut world = World::generate(&config, SimRng::from_seed(5));
        let mut rng = SimRng::from_seed(99);
        let machine_pos = Vec2::new(150.0, 150.0);
        let mut drone = Drone::new(
            machine_pos,
            DroneConfig {
                altitude_agl: altitude,
                ..DroneConfig::default()
            },
            &world,
        );
        let tick = SimDuration::from_millis(500);
        let (mut in_range, mut hits) = (0u64, 0u64);
        let mut waiting: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
        let mut ttds: Vec<f64> = Vec::new();
        let (mut candidates, mut seen) = (Vec::new(), Vec::new());
        for _ in 0..800 {
            world.step(tick);
            drone.step(&world, machine_pos, tick);
            drone.detect_into(&world, &mut rng, &mut candidates, &mut seen);
            for human in world.humans() {
                if human.position.distance(machine_pos) <= 40.0 {
                    in_range += 1;
                    if seen.iter().any(|d| d.human_id == human.id) {
                        hits += 1;
                        if let Some(w) = waiting.remove(&human.id.0) {
                            ttds.push(w as f64 * 0.5);
                        }
                    } else {
                        *waiting.entry(human.id.0).or_insert(0) += 1;
                    }
                } else {
                    waiting.remove(&human.id.0);
                }
            }
        }
        let coverage = if in_range == 0 {
            0.0
        } else {
            hits as f64 / in_range as f64
        };
        let ttd = if ttds.is_empty() {
            f64::NAN
        } else {
            ttds.iter().sum::<f64>() / ttds.len() as f64
        };
        (coverage, ttd)
    });
    for (&altitude, &(coverage, ttd)) in altitudes.iter().zip(&rows) {
        println!("{altitude:>12.0} {:>11.1}% {:>12.2}", coverage * 100.0, ttd);
    }
    println!();
}

fn clear_delay_ablation() {
    println!("--- ablation 2: safety clear delay (900 s, 6 workers, no attack) ---");
    println!(
        "{:>12} {:>10} {:>12} {:>14}",
        "delay (s)", "stops", "stopped tk", "distance (m)"
    );
    let delays = [0u64, 1, 3, 10, 30];
    let rows = par_sweep(&delays, |&delay| {
        let mut config = standard_config(SecurityPosture::secure());
        config.world.human_count = 6;
        config.world.human.work_area_bias = 0.85;
        config.safety.clear_delay = SimDuration::from_secs(delay);
        let mut site = Worksite::new(&config, 13);
        site.run(SimDuration::from_secs(900));
        let m = site.metrics();
        (m.stop_events, m.stopped_ticks, m.distance_m)
    });
    for (&delay, &(stops, stopped_ticks, distance_m)) in delays.iter().zip(&rows) {
        println!("{delay:>12} {stops:>10} {stopped_ticks:>12} {distance_m:>14.0}");
    }
    println!();
}

fn nav_confirmation_ablation() {
    println!("--- ablation 3: GNSS-consistency confirmation count ---");
    println!(
        "{:>14} {:>16} {:>22}",
        "confirmations", "spoof ttd (s)", "false alerts (clean)"
    );
    let confirmations = [1u32, 2, 3, 5, 10];
    let rows = par_sweep(&confirmations, |&required| {
        let mut config = standard_config(SecurityPosture::secure());
        config.ids.nav.required_consecutive = required;

        // Detection latency under spoofing.
        let mut site = Worksite::new(&config, 21);
        site.attack_engine_mut().add_campaign(campaign_for(
            AttackKind::GnssSpoofing,
            SimTime::from_secs(60),
            SimDuration::from_secs(150),
        ));
        site.run(SimDuration::from_secs(240));
        let ttd = site
            .metrics()
            .first_alert_at
            .get("gnss-spoofing")
            .map(|t| t.since(SimTime::from_secs(60)).as_secs_f64());

        // False positives over three clean runs.
        let mut false_alerts = 0u64;
        for seed in [31u64, 32, 33] {
            let mut clean = Worksite::new(&config, seed);
            clean.run(SimDuration::from_secs(240));
            false_alerts += clean
                .metrics()
                .alert_count(silvasec::ids::AlertKind::GnssSpoofing);
        }
        (ttd, false_alerts)
    });
    for (&required, (ttd, false_alerts)) in confirmations.iter().zip(&rows) {
        println!(
            "{required:>14} {:>16} {:>22}",
            ttd.map_or("undetected".into(), |t| format!("{t:.1}")),
            false_alerts
        );
    }
    println!();
}

fn main() {
    println!("Design-choice ablations\n");
    drone_altitude_ablation();
    clear_delay_ablation();
    nav_confirmation_ablation();
    println!("shapes to verify: (1) ~35 m is the sweet spot — enough to clear 25 m");
    println!("ridges, still inside the camera's 60 m range (80 m+ sees nothing: the");
    println!("vantage point is bounded by sensor range, a real dimensioning rule);");
    println!("(2) short clear delays oscillate (most stop events at 0 s), long ones");
    println!("trade distance for standstill; (3) each added confirmation costs ~0.5 s");
    println!("of detection latency while false positives stay at zero — the base");
    println!("tolerance, not the confirmation count, carries the FP budget here.");
}
