//! Damage scenarios, threat scenarios, attack paths and the worksite
//! model they hang off.

use crate::assets::{Asset, SecurityProperty};
use crate::feasibility::{AttackFeasibility, AttackPotential};
use crate::hara::Hazard;
use crate::impact::ImpactRating;
use crate::interplay::InterplayLink;
use crate::sotif::TriggeringCondition;
use serde::{Deserialize, Serialize};

/// A damage scenario: what goes wrong when a property of an asset is
/// violated (21434 clause 15.3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DamageScenario {
    /// Stable id, e.g. `"ds.people-undetected"`.
    pub id: String,
    /// Id of the affected asset.
    pub asset_id: String,
    /// The violated property.
    pub violated_property: SecurityProperty,
    /// Narrative description.
    pub description: String,
    /// The impact rating.
    pub impact: ImpactRating,
}

/// One step of an attack path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttackStep {
    /// What the attacker does.
    pub action: String,
    /// Attack potential required for this step.
    pub potential: AttackPotential,
}

/// A threat scenario realizing a damage scenario (21434 clause 15.4),
/// with one or more attack paths (clause 15.6).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThreatScenario {
    /// Stable id, e.g. `"ts.camera-blinding"`.
    pub id: String,
    /// The damage scenario this threat realizes.
    pub damage_scenario_id: String,
    /// Machine-readable attack class tag (matches the attack engine's
    /// `AttackKind` display names, e.g. `"gnss-spoofing"`), when the
    /// threat corresponds to a simulated attack.
    pub attack_class: Option<String>,
    /// Threat agent description (from the domain threat profile).
    pub threat_agent: String,
    /// Alternative attack paths; each path is a sequence of steps.
    pub attack_paths: Vec<Vec<AttackStep>>,
}

impl ThreatScenario {
    /// The attack potential the scenario requires: per 21434, a path's
    /// requirement is its hardest step (max), and the scenario takes its
    /// *easiest* path (min over paths). `None` without a non-empty path.
    #[must_use]
    pub fn required_potential(&self) -> Option<u8> {
        self.attack_paths
            .iter()
            .filter_map(|path| path.iter().map(|s| s.potential.total()).max())
            .min()
    }

    /// The scenario's attack feasibility: the
    /// [`required_potential`](Self::required_potential) through
    /// [`AttackFeasibility::from_total`], `VeryLow` without a path.
    #[must_use]
    pub fn feasibility(&self) -> AttackFeasibility {
        self.required_potential()
            .map_or(AttackFeasibility::VeryLow, AttackFeasibility::from_total)
    }
}

/// The full worksite model a TARA runs over.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct WorksiteModel {
    /// Assets.
    pub assets: Vec<Asset>,
    /// Damage scenarios.
    pub damage_scenarios: Vec<DamageScenario>,
    /// Threat scenarios.
    pub threats: Vec<ThreatScenario>,
    /// Machinery hazards (safety side).
    pub hazards: Vec<Hazard>,
    /// SOTIF triggering conditions.
    pub triggering_conditions: Vec<TriggeringCondition>,
    /// Safety–security interplay links.
    pub interplay: Vec<InterplayLink>,
}

impl WorksiteModel {
    /// Looks up a damage scenario by id.
    #[must_use]
    pub fn damage_scenario(&self, id: &str) -> Option<&DamageScenario> {
        self.damage_scenarios.iter().find(|d| d.id == id)
    }

    /// Looks up an asset by id.
    #[must_use]
    pub fn asset(&self, id: &str) -> Option<&Asset> {
        self.assets.iter().find(|a| a.id == id)
    }

    /// Looks up a hazard by id.
    #[must_use]
    pub fn hazard(&self, id: &str) -> Option<&Hazard> {
        self.hazards.iter().find(|h| h.id == id)
    }

    /// Validates referential integrity: every damage scenario points to a
    /// real asset, every threat to a real damage scenario, every
    /// interplay link to real endpoints. Returns the dangling references.
    #[must_use]
    pub fn dangling_references(&self) -> Vec<String> {
        let mut dangling = Vec::new();
        for ds in &self.damage_scenarios {
            if self.asset(&ds.asset_id).is_none() {
                dangling.push(format!("{} -> asset {}", ds.id, ds.asset_id));
            }
        }
        for ts in &self.threats {
            if self.damage_scenario(&ts.damage_scenario_id).is_none() {
                dangling.push(format!(
                    "{} -> damage scenario {}",
                    ts.id, ts.damage_scenario_id
                ));
            }
        }
        for link in &self.interplay {
            if !self.threats.iter().any(|t| t.id == link.threat_id) {
                dangling.push(format!("interplay -> threat {}", link.threat_id));
            }
            if self.hazard(&link.hazard_id).is_none() {
                dangling.push(format!("interplay -> hazard {}", link.hazard_id));
            }
        }
        dangling
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(total_hint: u8) -> AttackStep {
        AttackStep {
            action: "do a thing".into(),
            potential: AttackPotential::new(total_hint, 0, 0, 0, 0),
        }
    }

    #[test]
    fn path_feasibility_dominated_by_hardest_step() {
        let ts = ThreatScenario {
            id: "ts".into(),
            damage_scenario_id: "ds".into(),
            attack_class: None,
            threat_agent: "vandal".into(),
            attack_paths: vec![vec![step(0), step(19)]], // hardest step: 19 → Medium
        };
        assert_eq!(ts.feasibility(), AttackFeasibility::Medium);
    }

    #[test]
    fn scenario_takes_easiest_path() {
        let ts = ThreatScenario {
            id: "ts".into(),
            damage_scenario_id: "ds".into(),
            attack_class: None,
            threat_agent: "vandal".into(),
            attack_paths: vec![vec![step(19)], vec![step(2)]], // easy path exists → High
        };
        assert_eq!(ts.feasibility(), AttackFeasibility::High);
    }

    #[test]
    fn no_paths_is_very_low() {
        let ts = ThreatScenario {
            id: "ts".into(),
            damage_scenario_id: "ds".into(),
            attack_class: None,
            threat_agent: "vandal".into(),
            attack_paths: vec![],
        };
        assert_eq!(ts.feasibility(), AttackFeasibility::VeryLow);
    }

    #[test]
    fn dangling_reference_detection() {
        let model = WorksiteModel {
            threats: vec![ThreatScenario {
                id: "ts".into(),
                damage_scenario_id: "missing".into(),
                attack_class: None,
                threat_agent: "x".into(),
                attack_paths: vec![],
            }],
            ..WorksiteModel::default()
        };
        let dangling = model.dangling_references();
        assert_eq!(dangling.len(), 1);
        assert!(dangling[0].contains("missing"));
    }
}
