//! Validation of the simulation toolchain against reference data.
//!
//! The paper's future work (Sec. VI) calls for "a validation method for
//! simulation environments to ensure that their obtained results possess
//! an adequate representation of the real world", naming the virtual
//! sensor as the first component to validate. This module implements
//! that method for the people-detection sensor: measure the sensor's
//! *detection-rate-versus-distance curve* in a candidate simulation and
//! compare it, bin by bin, against a reference curve (from field trials
//! or a trusted simulation), with a divergence threshold deciding
//! acceptance.

use crate::sensors::PeopleSensor;
use serde::{Deserialize, Serialize};
use silvasec_sim::geom::Vec2;
use silvasec_sim::rng::SimRng;
use silvasec_sim::time::SimDuration;
use silvasec_sim::world::World;

/// One distance bin of a detection curve.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct BinStat {
    /// (human, tick) samples observed in this bin.
    pub samples: u64,
    /// Samples that were detected.
    pub detections: u64,
}

impl BinStat {
    /// The detection rate (0 when no samples).
    #[must_use]
    pub fn rate(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.detections as f64 / self.samples as f64
        }
    }
}

/// A detection-rate-versus-distance curve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetectionCurve {
    /// Width of each distance bin, metres.
    pub bin_width_m: f64,
    /// Bins from 0 outwards.
    pub bins: Vec<BinStat>,
}

impl DetectionCurve {
    /// Creates an empty curve covering `max_range_m`.
    ///
    /// # Panics
    ///
    /// Panics if `bin_width_m` is not positive.
    #[must_use]
    pub fn new(bin_width_m: f64, max_range_m: f64) -> Self {
        assert!(bin_width_m > 0.0, "bin width must be positive");
        let n = (max_range_m / bin_width_m).ceil() as usize;
        DetectionCurve {
            bin_width_m,
            bins: vec![BinStat::default(); n],
        }
    }

    /// Records one sample at `distance_m`.
    pub fn record(&mut self, distance_m: f64, detected: bool) {
        let idx = (distance_m / self.bin_width_m) as usize;
        if let Some(bin) = self.bins.get_mut(idx) {
            bin.samples += 1;
            if detected {
                bin.detections += 1;
            }
        }
    }

    /// Total samples recorded.
    #[must_use]
    pub fn total_samples(&self) -> u64 {
        self.bins.iter().map(|b| b.samples).sum()
    }
}

/// The outcome of comparing a candidate curve against a reference.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ValidationReport {
    /// Maximum absolute detection-rate difference across compared bins.
    pub max_divergence: f64,
    /// Mean absolute difference across compared bins.
    pub mean_divergence: f64,
    /// Number of bins with enough samples on both sides to compare.
    pub bins_compared: usize,
    /// The acceptance threshold used.
    pub threshold: f64,
    /// Whether the candidate is accepted as representative.
    pub accepted: bool,
    /// The worst bin's index and rates (reference, candidate), if any.
    pub worst_bin: Option<(usize, f64, f64)>,
}

/// Compares two curves; bins with fewer than `min_samples` on either
/// side are skipped (insufficient evidence either way).
#[must_use]
pub fn validate_curves(
    reference: &DetectionCurve,
    candidate: &DetectionCurve,
    min_samples: u64,
    threshold: f64,
) -> ValidationReport {
    let mut max_div: f64 = 0.0;
    let mut sum_div = 0.0;
    let mut compared = 0usize;
    let mut worst = None;
    for (i, (r, c)) in reference.bins.iter().zip(candidate.bins.iter()).enumerate() {
        if r.samples < min_samples || c.samples < min_samples {
            continue;
        }
        let div = (r.rate() - c.rate()).abs();
        sum_div += div;
        compared += 1;
        if div > max_div {
            max_div = div;
            worst = Some((i, r.rate(), c.rate()));
        }
    }
    ValidationReport {
        max_divergence: max_div,
        mean_divergence: if compared == 0 {
            0.0
        } else {
            sum_div / compared as f64
        },
        bins_compared: compared,
        threshold,
        accepted: compared > 0 && max_div <= threshold,
        worst_bin: worst,
    }
}

/// Measures the people-sensor detection curve in a world: a stationary
/// 360°-swept sensor at `machine_pos` sampling the world's workers as
/// they move, for `duration`.
pub fn measure_detection_curve(
    world: &mut World,
    sensor: &PeopleSensor,
    machine_pos: Vec2,
    duration: SimDuration,
    rng: &mut SimRng,
) -> DetectionCurve {
    let tick = SimDuration::from_millis(500);
    let max_range = sensor.kind.base_range_m();
    let mut curve = DetectionCurve::new(5.0, max_range);
    let ticks = duration.as_millis() / tick.as_millis();
    let mut heading = 0.0f64;
    let (mut candidates, mut detections) = (Vec::new(), Vec::new());
    for _ in 0..ticks {
        world.step(tick);
        heading = (heading + 0.35) % std::f64::consts::TAU;
        sensor.detect_into(
            world,
            machine_pos,
            heading,
            rng,
            &mut candidates,
            &mut detections,
        );
        for human in world.humans() {
            let dist = human.position.distance(machine_pos);
            if dist <= max_range {
                let detected = detections.iter().any(|d| d.human_id == human.id);
                curve.record(dist, detected);
            }
        }
    }
    curve
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sensors::SensorKind;
    use silvasec_sim::terrain::TerrainConfig;
    use silvasec_sim::vegetation::StandConfig;
    use silvasec_sim::weather::Weather;
    use silvasec_sim::world::WorldConfig;

    fn world(seed: u64, weather: Weather) -> World {
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
            human: silvasec_sim::humans::HumanConfig {
                work_area_bias: 0.8,
                ..silvasec_sim::humans::HumanConfig::default()
            },
            work_area: Vec2::new(75.0, 75.0),
            landing_area: Vec2::new(20.0, 20.0),
            initial_weather: weather,
            weather_change_prob: 0.0,
        };
        World::generate(&config, SimRng::from_seed(seed))
    }

    fn curve(seed: u64, weather: Weather) -> DetectionCurve {
        let mut w = world(seed, weather);
        let sensor = PeopleSensor::new(SensorKind::Lidar, 3.0);
        let mut rng = SimRng::from_seed(seed ^ 0xabc);
        measure_detection_curve(
            &mut w,
            &sensor,
            Vec2::new(75.0, 75.0),
            SimDuration::from_secs(900),
            &mut rng,
        )
    }

    #[test]
    fn bins_and_rates() {
        let mut c = DetectionCurve::new(5.0, 45.0);
        assert_eq!(c.bins.len(), 9);
        c.record(2.0, true);
        c.record(3.0, false);
        c.record(44.9, true);
        assert_eq!(c.bins[0].samples, 2);
        assert!((c.bins[0].rate() - 0.5).abs() < 1e-12);
        assert_eq!(c.bins[8].detections, 1);
        assert_eq!(c.total_samples(), 3);
        // Out of range records are dropped.
        c.record(100.0, true);
        assert_eq!(c.total_samples(), 3);
    }

    #[test]
    fn same_configuration_validates() {
        let reference = curve(1, Weather::Clear);
        let candidate = curve(2, Weather::Clear);
        assert!(
            reference.total_samples() > 300,
            "not enough exposure: {}",
            reference.total_samples()
        );
        let report = validate_curves(&reference, &candidate, 30, 0.2);
        assert!(
            report.accepted,
            "same config must validate: max divergence {:.3} over {} bins ({:?})",
            report.max_divergence, report.bins_compared, report.worst_bin
        );
    }

    #[test]
    fn wrong_weather_model_rejected() {
        // Reference "field data" in clear weather; candidate simulation
        // wrongly models the campaign as fog.
        let reference = curve(1, Weather::Clear);
        let candidate = curve(2, Weather::Fog);
        let report = validate_curves(&reference, &candidate, 30, 0.2);
        assert!(
            !report.accepted,
            "fog-vs-clear must diverge: max {:.3}",
            report.max_divergence
        );
    }

    #[test]
    fn sparse_bins_skipped() {
        let a = DetectionCurve::new(5.0, 45.0);
        let b = DetectionCurve::new(5.0, 45.0);
        let report = validate_curves(&a, &b, 10, 0.1);
        assert_eq!(report.bins_compared, 0);
        assert!(!report.accepted, "no evidence means no acceptance");
    }
}
