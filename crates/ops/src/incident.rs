//! Incident identity: what the ops engine works on and how two reports
//! of the same trouble are recognised as one incident.

use silvasec_crypto::sha256;
use silvasec_ids::alert::Severity;
use silvasec_sim::rng::hash3;

/// Sentinel site index meaning "the whole fleet", used where an
/// incident's scope is flattened to a single `u32` (telemetry events,
/// run records).
pub const FLEET_SITE: u32 = u32::MAX;

/// Domain-separation salt for run-id derivation.
const SALT_RUN: u64 = 0x0b5;

/// What part of the fleet an incident concerns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncidentScope {
    /// One worksite.
    Site(u32),
    /// A correlated fleet-level campaign.
    Fleet {
        /// Distinct sites reporting the correlated class.
        sites: u32,
    },
}

impl IncidentScope {
    /// Flattens the scope to the `(site, sites)` pair used by telemetry
    /// events and run records ([`FLEET_SITE`] marks fleet scope).
    #[must_use]
    pub fn flatten(self) -> (u32, u32) {
        match self {
            IncidentScope::Site(site) => (site, 1),
            IncidentScope::Fleet { sites } => (FLEET_SITE, sites),
        }
    }
}

/// The canonical identity of an incident of `class` at `site`
/// ([`FLEET_SITE`] = fleet scope): the first eight little-endian bytes
/// of a SHA-256 over a canonical byte encoding, so it is stable across
/// processes and sessions. A run record's `class` and `site` give back
/// the identity its run was opened under.
#[must_use]
pub(crate) fn identity_hash(class: &str, site: u32) -> u64 {
    let mut bytes = Vec::with_capacity(class.len() + 16);
    bytes.extend_from_slice(b"silvasec-ops-incident/1|");
    bytes.extend_from_slice(class.as_bytes());
    if site == FLEET_SITE {
        // Site count is evidence strength, not identity: a campaign
        // seen on 3 sites and re-reported on 5 is one campaign.
        bytes.extend_from_slice(b"|fleet");
    } else {
        bytes.extend_from_slice(b"|site|");
        bytes.extend_from_slice(&site.to_le_bytes());
    }
    let digest = sha256::digest(&bytes);
    u64::from_le_bytes(digest[..8].try_into().expect("8-byte prefix"))
}

/// One security incident entering the response pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Incident {
    /// Alert class ("jamming", "auth-failure-storm", ...).
    pub class: String,
    /// Severity the incident was triaged at ingest with.
    pub severity: Severity,
    /// Scope of the incident.
    pub scope: IncidentScope,
    /// Detection instant in fleet milliseconds.
    pub detected_at_ms: u64,
}

impl Incident {
    /// The canonical identity hash: two incidents with the same class
    /// and scope are *the same incident* for dedup purposes, no matter
    /// when they were detected or how severe each report was. The hash
    /// covers the class and the flattened site, and is stable across
    /// processes and sessions.
    #[must_use]
    pub fn canonical_hash(&self) -> u64 {
        identity_hash(&self.class, self.scope.flatten().0)
    }

    /// Derives the run id for the `occurrence`-th run opened for this
    /// identity (dedup folds concurrent reports into the open run; a
    /// *closed* identity that recurs opens a fresh run with the next
    /// occurrence index).
    #[must_use]
    pub fn run_id(&self, occurrence: u32) -> u64 {
        hash3(self.canonical_hash(), u64::from(occurrence), SALT_RUN)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn incident(class: &str, scope: IncidentScope) -> Incident {
        Incident {
            class: class.to_string(),
            severity: Severity::High,
            scope,
            detected_at_ms: 1_000,
        }
    }

    #[test]
    fn identity_ignores_time_severity_and_campaign_size() {
        let a = incident("jamming", IncidentScope::Fleet { sites: 3 });
        let mut b = incident("jamming", IncidentScope::Fleet { sites: 5 });
        b.severity = Severity::Low;
        b.detected_at_ms = 99_000;
        assert_eq!(a.canonical_hash(), b.canonical_hash());
    }

    #[test]
    fn identity_separates_class_and_scope() {
        let base = incident("jamming", IncidentScope::Site(4));
        assert_ne!(
            base.canonical_hash(),
            incident("replay", IncidentScope::Site(4)).canonical_hash()
        );
        assert_ne!(
            base.canonical_hash(),
            incident("jamming", IncidentScope::Site(5)).canonical_hash()
        );
        assert_ne!(
            base.canonical_hash(),
            incident("jamming", IncidentScope::Fleet { sites: 1 }).canonical_hash()
        );
    }

    #[test]
    fn occurrences_get_distinct_run_ids() {
        let a = incident("jamming", IncidentScope::Site(4));
        assert_ne!(a.run_id(0), a.run_id(1));
        assert_eq!(a.run_id(0), a.run_id(0));
    }

    #[test]
    fn scope_flattening() {
        assert_eq!(IncidentScope::Site(7).flatten(), (7, 1));
        assert_eq!(
            IncidentScope::Fleet { sites: 12 }.flatten(),
            (FLEET_SITE, 12)
        );
    }
}
