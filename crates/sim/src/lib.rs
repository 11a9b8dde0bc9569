//! Deterministic fixed-tick simulation kernel and forest world model.
//!
//! The reproduced paper (Sec. III-D) argues that simulation is the primary
//! development and validation substrate for autonomous forestry machines —
//! real-world data is scarce and worksites are inaccessible. This crate is
//! that substrate: a seeded, fully deterministic simulation of a forestry
//! worksite, on which the machine models, radio medium, attacks and
//! defenses of the other crates operate.
//!
//! * [`time`] — simulation time ([`SimTime`], [`SimDuration`]), millisecond
//!   resolution, no wall clock anywhere.
//! * [`rng`] — the seeded [`SimRng`] (ChaCha20-based) with stream forking
//!   and the distributions the world model needs.
//! * [`geom`] — 2-D/3-D vectors and geometry helpers.
//! * [`sweep`] — the deterministic parallel sweep engine (order-preserving
//!   worker pool; re-exported as `silvasec::sweep`).
//! * [`terrain`] — procedurally generated heightmaps with slope queries.
//! * [`vegetation`] — tree stands (positions, heights, canopy radii).
//! * [`weather`] — weather states degrading sensors and radio.
//! * [`humans`] — ground-worker actors with waypoint movement models.
//! * [`los`] — line-of-sight ray casting against terrain and trees.
//! * [`world`] — the composed [`world::World`].
//!
//! # Determinism
//!
//! Identical seeds give identical traces. All randomness flows from a
//! single [`rng::SimRng`]; there is no wall-clock access.
//!
//! # Example
//!
//! ```
//! use silvasec_sim::prelude::*;
//!
//! let mut world = World::generate(&WorldConfig::default(), SimRng::from_seed(7));
//! let t0 = world.now();
//! world.step(SimDuration::from_secs(1));
//! assert_eq!(world.now(), t0 + SimDuration::from_secs(1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod geom;
pub mod grid;
pub mod humans;
pub mod los;
pub mod rng;
pub mod sweep;
pub mod terrain;
pub mod time;
pub mod vegetation;
pub mod weather;
pub mod world;

pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
pub use world::{World, WorldConfig};

/// Convenient glob import of the crate's primary types.
pub mod prelude {
    pub use crate::geom::{Vec2, Vec3};
    pub use crate::humans::{Human, HumanId};
    pub use crate::rng::SimRng;
    pub use crate::terrain::Terrain;
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::vegetation::TreeStand;
    pub use crate::weather::Weather;
    pub use crate::world::{World, WorldConfig};
}
