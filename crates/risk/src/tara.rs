//! The TARA core: risk values, treatment decisions and the assessment
//! report (ISO/SAE 21434 clauses 15.8–15.9), extended with the combined
//! safety–security findings. One assessment body serves the static
//! ratings and continuous assessment's escalated ones.

use crate::feasibility::AttackFeasibility;
use crate::impact::ImpactLevel;
use crate::interplay::{evaluate_link, InterplayFinding};
use crate::threat::{ThreatScenario, WorksiteModel};
use serde::{Deserialize, Serialize};

/// A 21434 risk value (1 = lowest, 5 = highest).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RiskLevel(pub u8);

impl RiskLevel {
    /// The 21434 risk matrix: impact × feasibility → 1..=5.
    #[must_use]
    pub fn from_matrix(impact: ImpactLevel, feasibility: AttackFeasibility) -> Self {
        // Row = impact (0..3), column = feasibility (0..3).
        const MATRIX: [[u8; 4]; 4] = [
            // VeryLow Low Medium High
            [1, 1, 1, 1], // Negligible
            [1, 2, 2, 3], // Moderate
            [1, 2, 3, 4], // Major
            [2, 3, 4, 5], // Severe
        ];
        RiskLevel(MATRIX[impact.value() as usize][feasibility.value() as usize])
    }
}

/// The 21434 risk-treatment options.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Treatment {
    /// Accept the risk as-is.
    Retain,
    /// Reduce via cybersecurity controls (spawns requirements).
    Reduce,
    /// Transfer (insurance, contracts).
    Share,
    /// Remove the risk source (redesign).
    Avoid,
}

/// A security requirement derived from a treated risk.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SecurityRequirement {
    /// Stable id, e.g. `"req.ts.camera-blinding"`.
    pub id: String,
    /// The treated threat scenario.
    pub threat_id: String,
    /// Requirement text.
    pub text: String,
    /// Candidate control tags (match deployable controls, e.g.
    /// `"secure-channel"`, `"ids"`, `"mfp"`, `"secure-boot"`,
    /// `"drone-redundancy"`).
    pub candidate_controls: Vec<String>,
}

/// One assessed risk.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AssessedRisk {
    /// The threat scenario id.
    pub threat_id: String,
    /// The realized damage scenario id.
    pub damage_scenario_id: String,
    /// Impact level used (overall across categories).
    pub impact: ImpactLevel,
    /// Attack feasibility used.
    pub feasibility: AttackFeasibility,
    /// The resulting risk value.
    pub risk: RiskLevel,
    /// The treatment decision.
    pub treatment: Treatment,
}

/// The full TARA report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaraReport {
    /// Per-threat risks, sorted descending by risk value (stable by id).
    pub risks: Vec<AssessedRisk>,
    /// Combined safety–security findings, sorted by priority.
    pub interplay_findings: Vec<InterplayFinding>,
    /// Derived requirements for every `Reduce`-treated risk.
    requirements: Vec<SecurityRequirement>,
    /// Model-integrity problems found during assessment.
    pub dangling_references: Vec<String>,
}

impl TaraReport {
    /// The derived security requirements.
    pub fn requirements(&self) -> impl Iterator<Item = &SecurityRequirement> {
        self.requirements.iter()
    }

    /// Risks at or above the given level.
    #[must_use]
    pub fn risks_at_or_above(&self, level: RiskLevel) -> Vec<&AssessedRisk> {
        self.risks.iter().filter(|r| r.risk >= level).collect()
    }
}

/// The assessment engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tara;

impl Tara {
    /// Default treatment policy: risk ≥ 4 → `Avoid` is impractical for
    /// the worksite's core functions, so `Reduce`; risk 3 → `Reduce`;
    /// risk 2 → `Share`; risk 1 → `Retain`.
    #[must_use]
    pub fn default_treatment(risk: RiskLevel) -> Treatment {
        match risk.0 {
            0 | 1 => Treatment::Retain,
            2 => Treatment::Share,
            _ => Treatment::Reduce,
        }
    }

    /// Candidate controls for an attack class tag.
    #[must_use]
    pub fn candidate_controls(attack_class: Option<&str>) -> Vec<String> {
        match attack_class {
            Some("deauth-flood") => vec!["mfp".into(), "ids".into()],
            Some("rf-jamming") => vec!["ids".into(), "degraded-mode".into()],
            Some("gnss-spoofing") => {
                vec!["nav-consistency".into(), "ids".into(), "safe-stop".into()]
            }
            Some("gnss-jamming") => vec!["nav-consistency".into(), "degraded-mode".into()],
            Some("camera-blinding") => {
                vec![
                    "sensor-health".into(),
                    "drone-redundancy".into(),
                    "safe-stop".into(),
                ]
            }
            Some("replay") => vec!["secure-channel".into()],
            Some("rogue-node") => vec!["pki".into(), "secure-channel".into()],
            Some("firmware-tampering") => vec!["secure-boot".into(), "attestation".into()],
            _ => vec!["secure-channel".into(), "ids".into()],
        }
    }

    /// Runs the full assessment over a model.
    #[must_use]
    pub fn assess(model: &WorksiteModel) -> TaraReport {
        Self::assess_with(model, ThreatScenario::feasibility)
    }

    /// The assessment with each threat rated at `feasibility(threat)`:
    /// the static rating for [`Tara::assess`], the field-evidence
    /// escalation for continuous assessment. Risks, requirements and
    /// interplay findings all read the same rating.
    pub(crate) fn assess_with(
        model: &WorksiteModel,
        feasibility: impl Fn(&ThreatScenario) -> AttackFeasibility,
    ) -> TaraReport {
        let mut risks = Vec::with_capacity(model.threats.len());
        let mut requirements = Vec::new();

        for threat in &model.threats {
            let impact = model
                .damage_scenario(&threat.damage_scenario_id)
                .map(|ds| ds.impact.overall())
                .unwrap_or(ImpactLevel::Negligible);
            let feasibility = feasibility(threat);
            let risk = RiskLevel::from_matrix(impact, feasibility);
            let treatment = Self::default_treatment(risk);
            if treatment == Treatment::Reduce {
                requirements.push(SecurityRequirement {
                    id: format!("req.{}", threat.id),
                    threat_id: threat.id.clone(),
                    text: format!(
                        "the system shall mitigate threat scenario {} (risk {})",
                        threat.id, risk.0
                    ),
                    candidate_controls: Self::candidate_controls(threat.attack_class.as_deref()),
                });
            }
            risks.push(AssessedRisk {
                threat_id: threat.id.clone(),
                damage_scenario_id: threat.damage_scenario_id.clone(),
                impact,
                feasibility,
                risk,
                treatment,
            });
        }
        risks.sort_by(|a, b| {
            b.risk
                .cmp(&a.risk)
                .then_with(|| a.threat_id.cmp(&b.threat_id))
        });

        let mut interplay_findings: Vec<InterplayFinding> = model
            .interplay
            .iter()
            .filter_map(|link| {
                let hazard = model.hazard(&link.hazard_id)?;
                let threat = model.threats.iter().find(|t| t.id == link.threat_id)?;
                Some(evaluate_link(link, hazard, feasibility(threat)))
            })
            .collect();
        interplay_findings.sort_by(|a, b| {
            b.priority()
                .cmp(&a.priority())
                .then_with(|| a.threat_id.cmp(&b.threat_id))
        });

        TaraReport {
            risks,
            interplay_findings,
            requirements,
            dangling_references: model.dangling_references(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feasibility::AttackPotential;
    use crate::impact::{ImpactCategory, ImpactRating};
    use crate::threat::{AttackStep, DamageScenario, ThreatScenario};
    use crate::{Asset, AssetCategory, SecurityProperty};

    fn tiny_model(impact: ImpactLevel, step_points: u8) -> WorksiteModel {
        WorksiteModel {
            assets: vec![Asset::new(
                "a",
                "asset",
                AssetCategory::Sensor,
                vec![SecurityProperty::Availability],
            )],
            damage_scenarios: vec![DamageScenario {
                id: "ds".into(),
                asset_id: "a".into(),
                violated_property: SecurityProperty::Availability,
                description: "d".into(),
                impact: ImpactRating::new().with(ImpactCategory::Safety, impact),
            }],
            threats: vec![ThreatScenario {
                id: "ts".into(),
                damage_scenario_id: "ds".into(),
                attack_class: Some("camera-blinding".into()),
                threat_agent: "vandal".into(),
                attack_paths: vec![vec![AttackStep {
                    action: "blind".into(),
                    potential: AttackPotential::new(step_points, 0, 0, 0, 0),
                }]],
            }],
            ..WorksiteModel::default()
        }
    }

    #[test]
    fn matrix_corners() {
        assert_eq!(
            RiskLevel::from_matrix(ImpactLevel::Negligible, AttackFeasibility::VeryLow).0,
            1
        );
        assert_eq!(
            RiskLevel::from_matrix(ImpactLevel::Severe, AttackFeasibility::High).0,
            5
        );
    }

    #[test]
    fn matrix_monotone() {
        use AttackFeasibility as F;
        use ImpactLevel as I;
        let impacts = [I::Negligible, I::Moderate, I::Major, I::Severe];
        let feas = [F::VeryLow, F::Low, F::Medium, F::High];
        for (i, imp) in impacts.iter().enumerate() {
            for (j, f) in feas.iter().enumerate() {
                let here = RiskLevel::from_matrix(*imp, *f);
                if i + 1 < impacts.len() {
                    assert!(RiskLevel::from_matrix(impacts[i + 1], *f) >= here);
                }
                if j + 1 < feas.len() {
                    assert!(RiskLevel::from_matrix(*imp, feas[j + 1]) >= here);
                }
            }
        }
    }

    #[test]
    fn severe_feasible_threat_gets_reduced_with_requirements() {
        let report = Tara::assess(&tiny_model(ImpactLevel::Severe, 0));
        assert_eq!(report.risks.len(), 1);
        assert_eq!(report.risks[0].risk.0, 5);
        assert_eq!(report.risks[0].treatment, Treatment::Reduce);
        let reqs: Vec<_> = report.requirements().collect();
        assert_eq!(reqs.len(), 1);
        assert!(reqs[0]
            .candidate_controls
            .contains(&"drone-redundancy".to_string()));
    }

    #[test]
    fn negligible_risk_retained_without_requirements() {
        let report = Tara::assess(&tiny_model(ImpactLevel::Negligible, 30));
        assert_eq!(report.risks[0].risk.0, 1);
        assert_eq!(report.risks[0].treatment, Treatment::Retain);
        assert_eq!(report.requirements().count(), 0);
    }

    #[test]
    fn risks_sorted_descending() {
        let mut model = tiny_model(ImpactLevel::Severe, 0);
        // Add a second, low-risk threat.
        model.threats.push(ThreatScenario {
            id: "ts2".into(),
            damage_scenario_id: "ds".into(),
            attack_class: None,
            threat_agent: "x".into(),
            attack_paths: vec![vec![AttackStep {
                action: "hard".into(),
                potential: AttackPotential::new(19, 8, 11, 0, 0),
            }]],
        });
        let report = Tara::assess(&model);
        assert!(report.risks[0].risk >= report.risks[1].risk);
        assert_eq!(report.risks_at_or_above(RiskLevel(5)).len(), 1);
    }

    #[test]
    fn assessment_is_pure() {
        let model = tiny_model(ImpactLevel::Major, 5);
        assert_eq!(Tara::assess(&model), Tara::assess(&model));
    }
}
