//! The worksite system of systems: orchestration of world, machines,
//! radio, security substrates, IDS and attacks.
//!
//! This crate realizes the paper's Figure 1 worksite as one stepped
//! simulation: an autonomous forwarder hauling logs, a manned harvester,
//! an observation drone escorting the forwarder (the Figure 2
//! collaborative safety function), and a base station — all communicating
//! over the simulated radio medium, optionally protected by the PKI /
//! secure-channel / secure-boot substrates, monitored by the IDS, and
//! attacked by the attack engine.
//!
//! The SoS characteristics of Sec. IV-E are first-class: constituents are
//! independent state machines joined only by the medium (operational
//! independence); security posture is per-constituent configuration
//! (managerial independence); and the mission/safety metrics quantify the
//! emergent effects of attacks and defenses.
//!
//! * [`config`] — the worksite scenario configuration (security toggles
//!   are the experiment knobs).
//! * [`pki_setup`] — worksite PKI commissioning (CA, identities, boot).
//! * [`pki_template`] — the seed-keyed commissioned PKI every secure
//!   site keys its links from, built once per `(seed, drone profile)`.
//! * [`metrics`] — mission, safety and security metrics.
//! * [`site`] — the [`site::Worksite`] orchestrator.
//!
//! # Example
//!
//! ```
//! use silvasec_sos::prelude::*;
//! use silvasec_sim::time::SimDuration;
//!
//! let mut site = Worksite::new(&WorksiteConfig::default(), 42);
//! site.run(SimDuration::from_secs(60));
//! let m = site.metrics();
//! assert!(m.ticks > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod metrics;
pub mod pki_setup;
pub mod pki_template;
pub mod site;

pub use config::{SecurityPosture, TelemetryConfig, WorksiteConfig};
pub use metrics::WorksiteMetrics;
pub use pki_template::SitePkiTemplate;
pub use site::Worksite;

/// Convenient glob import of the crate's primary types.
pub mod prelude {
    pub use crate::config::{SecurityPosture, TelemetryConfig, WorksiteConfig};
    pub use crate::metrics::WorksiteMetrics;
    pub use crate::pki_setup::WorksitePki;
    pub use crate::pki_template::SitePkiTemplate;
    pub use crate::site::Worksite;
}
