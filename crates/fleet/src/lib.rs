//! Fleet operations for autonomous forestry machines: secure OTA update
//! distribution and fleet-scale security operations.
//!
//! Every other crate in the workspace operates at the scale of one
//! worksite. This crate manages *N* worksites from a central backend and
//! adds the two capabilities a certified fleet operator needs:
//!
//! * **Secure OTA updates** — update bundles (firmware images + manifest
//!   with a monotone version) signed under the fleet PKI
//!   ([`bundle`]), distributed in chunks over the simulated radio
//!   uplink with retransmission under loss and jamming ([`transport`]),
//!   verified and applied through secure-boot update authorization with
//!   anti-rollback, staged canary-then-waves rollout with an automatic
//!   halt on an IDS alert spike ([`rollout`], [`Fleet::run_rollout`]);
//! * **Fleet security operations** — a SIEM-style aggregator draining
//!   each worksite's security-event ring into cross-site correlation
//!   (same attack class on *k* sites within a window ⇒ coordinated
//!   campaign, [`siem`]) feeding the continuous risk assessment, so a
//!   disclosed vulnerability raises fleet risk and a completed rollout
//!   lowers it again. The SIEM correlator streams: it holds bounded
//!   per-class sliding windows (with observable drop counters), not a
//!   global alert vector, so memory is O(sites + window).
//! * **Two-fidelity fleet scaling** — a deterministically sampled subset
//!   of sites runs as full [`Worksite`] simulations while the rest live
//!   as a compact struct-of-arrays shadow population ([`shadow`]),
//!   sharded across the deterministic sweep worker pool with an
//!   order-preserving merge and one shared bundle verdict per bundle
//!   variant per rollout (decided again when the CRL list changes), so
//!   a million-site control plane stays tractable and byte-identical to
//!   a sequential reference. This is the fleet's one
//!   layout: without [`FleetConfig::shadow`] every site is full and the
//!   population has no shards. Rollout waves are contiguous index
//!   ranges ([`RolloutPolicy::waves`]).
//! * **Live TARA hypotheses** — with [`FleetConfig::tara`] set, the
//!   generative TARA of `silvasec-tara` ranks the worksite's threat
//!   scenarios at commissioning and the fleet carries the top-k as one
//!   live hypothesis per attack class: SIEM-correlated campaigns
//!   confirm a class, completed mitigations retire it, and every class
//!   transition lands in the fleet trace as one `TaraHypothesis` event.
//!
//! [`Worksite`]: silvasec_sos::Worksite
//!
//! Everything is deterministic: the same seed yields a byte-identical
//! fleet trace ([`Fleet::export_trace_jsonl`]).
//!
//! ```
//! use silvasec_fleet::{Fleet, FleetConfig};
//!
//! let mut fleet = Fleet::new(FleetConfig { sites: 2, ..FleetConfig::default() }, 7);
//! let report = fleet.run_rollout(2);
//! assert!(report.completed);
//! assert_eq!(fleet.installed_version(0), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bundle;
pub mod fleet;
pub mod rollout;
pub mod shadow;
pub mod siem;
pub mod transport;

pub use bundle::{BundleError, UpdateBundle, UpdateManifest};
pub use fleet::{
    Fleet, FleetBackend, FleetConfig, FleetSecuritySnapshot, TaraConfig, FLEET_COMPONENT,
};
pub use rollout::{RolloutPhase, RolloutPolicy, RolloutReport};
pub use shadow::{ShadowConfig, ShadowLayout, ShadowPopulation, SiteSlot};
pub use siem::{CorrelatedCampaign, FleetSiem};
pub use transport::{chunk_payloads, ChunkHeader, Delivery, Reassembly, Uplink};

/// Convenient glob import for fleet scenarios.
pub mod prelude {
    pub use crate::bundle::{BundleError, UpdateBundle, UpdateManifest};
    pub use crate::fleet::{
        Fleet, FleetBackend, FleetConfig, FleetSecuritySnapshot, TaraConfig, FLEET_COMPONENT,
    };
    pub use crate::rollout::{RolloutPolicy, RolloutReport};
    pub use crate::shadow::{ShadowConfig, ShadowLayout, ShadowPopulation, SiteSlot};
    pub use crate::siem::{CorrelatedCampaign, FleetSiem};
}
