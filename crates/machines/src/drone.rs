//! The observation drone: an elevated, gimballed people-detection
//! platform escorting the forwarder (the paper's Figure 2 concept).

use crate::kinematics::DroneBody;
use crate::sensors::{Detection, PeopleSensor, SensorKind};
use silvasec_sim::geom::Vec2;
use silvasec_sim::rng::SimRng;
use silvasec_sim::time::SimDuration;
use silvasec_sim::world::World;

/// Drone parameters.
#[derive(Debug, Clone, Copy)]
pub struct DroneConfig {
    /// Patrol altitude above ground, metres.
    pub altitude_agl: f64,
    /// Cruise speed, m/s.
    pub cruise_speed: f64,
    /// Orbit radius around the escorted machine, metres.
    pub orbit_radius: f64,
    /// Orbit angular rate, radians per second.
    pub orbit_rate: f64,
}

impl Default for DroneConfig {
    fn default() -> Self {
        DroneConfig {
            altitude_agl: 50.0,
            cruise_speed: 12.0,
            orbit_radius: 20.0,
            orbit_rate: 0.15,
        }
    }
}

/// The observation drone.
#[derive(Debug, Clone)]
pub struct Drone {
    /// The airframe.
    pub body: DroneBody,
    /// The downward-looking gimballed camera.
    pub sensor: PeopleSensor,
    config: DroneConfig,
    orbit_angle: f64,
}

impl Drone {
    /// Creates a drone at `position_2d` over the given world.
    #[must_use]
    pub fn new(position_2d: Vec2, config: DroneConfig, world: &World) -> Self {
        Drone {
            body: DroneBody::new(
                position_2d,
                config.altitude_agl,
                config.cruise_speed,
                world.terrain(),
            ),
            sensor: PeopleSensor::new(SensorKind::Camera, 0.0),
            config,
            orbit_angle: 0.0,
        }
    }

    /// Advances the escort orbit around `escort_target` by `dt`.
    pub fn step(&mut self, world: &World, escort_target: Vec2, dt: SimDuration) {
        self.orbit_angle =
            (self.orbit_angle + self.config.orbit_rate * dt.as_secs_f64()) % std::f64::consts::TAU;
        let offset = Vec2::new(
            self.config.orbit_radius * self.orbit_angle.cos(),
            self.config.orbit_radius * self.orbit_angle.sin(),
        );
        self.body.set_target(escort_target + offset);
        self.body.step(world.terrain(), dt);
    }

    /// Samples the drone's people detections (gimballed camera:
    /// omnidirectional in azimuth) into caller-owned `out` (cleared
    /// first), using `candidates` as index scratch — see
    /// [`crate::sensors::PeopleSensor::detect_from_into`].
    pub fn detect_into(
        &self,
        world: &World,
        rng: &mut SimRng,
        candidates: &mut Vec<u32>,
        out: &mut Vec<Detection>,
    ) {
        self.sensor
            .detect_from_into(world, self.body.position, None, rng, candidates, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silvasec_sim::prelude::*;
    use silvasec_sim::terrain::TerrainConfig;
    use silvasec_sim::vegetation::StandConfig;

    fn world() -> World {
        let config = WorldConfig {
            terrain: TerrainConfig {
                size_m: 300.0,
                relief_m: 2.0,
                ..TerrainConfig::default()
            },
            stand: StandConfig {
                trees_per_hectare: 0.0,
                ..StandConfig::default()
            },
            human_count: 2,
            ..WorldConfig::default()
        };
        World::generate(&config, SimRng::from_seed(1))
    }

    #[test]
    fn orbits_the_escort_target() {
        let w = world();
        let target = Vec2::new(150.0, 150.0);
        let mut d = Drone::new(target, DroneConfig::default(), &w);
        let mut distances = Vec::new();
        for _ in 0..600 {
            d.step(&w, target, SimDuration::from_millis(500));
            distances.push(d.body.position.xy().distance(target));
        }
        // After settling, distance should hover near the orbit radius.
        let settled = &distances[300..];
        let mean: f64 = settled.iter().sum::<f64>() / settled.len() as f64;
        assert!((10.0..=30.0).contains(&mean), "mean orbit distance {mean}");
    }

    #[test]
    fn follows_a_moving_target() {
        let w = world();
        let mut d = Drone::new(Vec2::new(50.0, 50.0), DroneConfig::default(), &w);
        let mut target = Vec2::new(50.0, 50.0);
        for i in 0..1200 {
            target = Vec2::new(50.0 + 0.1 * i as f64, 50.0);
            d.step(&w, target, SimDuration::from_millis(500));
        }
        assert!(
            d.body.position.xy().distance(target) < 40.0,
            "drone fell behind: {} m",
            d.body.position.xy().distance(target)
        );
    }

    #[test]
    fn detects_from_altitude() {
        let w = world();
        let worker = w.humans()[0].position;
        let mut d = Drone::new(worker, DroneConfig::default(), &w);
        let mut rng = SimRng::from_seed(2);
        // Hover directly over the worker.
        d.step(&w, worker, SimDuration::from_millis(500));
        let (mut candidates, mut out) = (Vec::new(), Vec::new());
        let mut hits = 0;
        for _ in 0..100 {
            d.detect_into(&w, &mut rng, &mut candidates, &mut out);
            if out.iter().any(|det| det.human_id == w.humans()[0].id) {
                hits += 1;
            }
        }
        assert!(hits > 50, "{hits}/100 detections from overhead");
    }
}
