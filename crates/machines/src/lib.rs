//! Forestry machine models: forwarder, harvester, drone, their sensors
//! and the safety supervisor.
//!
//! The paper's use case (Sec. III, Figure 1–2): an **autonomous forwarder**
//! hauls logs from a manually-operated **harvester** to a landing area,
//! while an observation **drone** complements the forwarder's
//! people-detection safety function with an elevated point of view. This
//! crate models those machines at the level the safety and security
//! questions live at:
//!
//! * [`kinematics`] — ground-vehicle and drone motion.
//! * [`planner`] — A* path planning over terrain with slope costs.
//! * [`sensors`] — people-detection sensors (camera/LiDAR) with occlusion,
//!   range, field of view and weather effects; blinding attack surface.
//! * [`gnss`] — GNSS receivers and the spoofing/jamming field.
//! * [`fusion`] — multi-source detection fusion.
//! * [`safety`] — the stop/slow-zone safety supervisor (ISO 13849-style
//!   safety function).
//! * [`forwarder`] — the autonomous forwarder's work cycle.
//! * [`drone`] — the observation drone's patrol behaviour.
//! * [`harvester`] — the manned harvester producing log piles.
//!
//! # Example
//!
//! ```
//! use silvasec_machines::prelude::*;
//! use silvasec_sim::prelude::*;
//!
//! let world = World::generate(&WorldConfig::default(), SimRng::from_seed(1));
//! let sensor = PeopleSensor::new(SensorKind::Lidar, 3.0);
//! let mut rng = SimRng::from_seed(2);
//! let pose = Vec2::new(250.0, 250.0);
//! // Caller-owned buffers: reused across samples, they stop allocating.
//! let (mut candidates, mut detections) = (Vec::new(), Vec::new());
//! sensor.detect_into(&world, pose, 0.0, &mut rng, &mut candidates, &mut detections);
//! // Detections depend on who is in range and line of sight.
//! assert!(detections.len() <= world.humans().len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod drone;
pub mod forwarder;
pub mod fusion;
pub mod gnss;
pub mod harvester;
pub mod kinematics;
pub mod planner;
pub mod safety;
pub mod sensors;
pub mod validation;

pub use forwarder::{Forwarder, ForwarderPhase};
pub use gnss::{GnssField, GnssFix, GnssReceiver};
pub use safety::{SafetySupervisor, SpeedLimit};
pub use sensors::{Detection, PeopleSensor, SensorKind};

/// Identifier of a machine on the worksite.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct MachineId(pub u32);

impl std::fmt::Display for MachineId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "machine-{}", self.0)
    }
}

/// Convenient glob import of the crate's primary types.
pub mod prelude {
    pub use crate::drone::Drone;
    pub use crate::forwarder::{Forwarder, ForwarderPhase};
    pub use crate::fusion::fuse_detections_into;
    pub use crate::gnss::{GnssField, GnssFix, GnssReceiver};
    pub use crate::harvester::Harvester;
    pub use crate::kinematics::{DroneBody, GroundVehicle};
    pub use crate::planner::PlannerConfig;
    pub use crate::safety::{SafetySupervisor, SpeedLimit};
    pub use crate::sensors::{Detection, PeopleSensor, SensorKind};
    pub use crate::MachineId;
}
