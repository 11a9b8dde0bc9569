//! Continuous risk assessment (the ISO/SAE 21434 clause the paper's
//! future work singles out).
//!
//! The static TARA rates attack feasibility from expert judgement. At
//! runtime, the IDS produces *field evidence*: an observed incident of an
//! attack class proves the attack is being mounted here and now, so the
//! matching threat scenarios' feasibility escalates and the report is
//! assessed again at the escalated ratings — risks re-rank, and the
//! requirements and interplay findings follow them. The history of
//! risk-level changes (with timestamps) is the measurable output —
//! experiment E5 measures the latency from attack onset to risk update.

use crate::feasibility::AttackFeasibility;
use crate::tara::{RiskLevel, Tara, TaraReport};
use crate::threat::WorksiteModel;
use serde::{Deserialize, Serialize};
use silvasec_sim::time::SimTime;
use silvasec_telemetry::{Event, Label, Record, Recorder};
use std::collections::HashMap;

/// Maps an IDS alert class (the detector vocabulary) onto the TARA's
/// attack-class vocabulary (`ThreatScenario::attack_class`).
///
/// The two vocabularies differ where the detector sees a *symptom* while
/// the TARA names the *attack*: a sensor-blinding alert is evidence for
/// the camera-blinding threat, an auth-failure storm is the observable
/// face of a replay campaign, and a rogue association maps to the
/// rogue-node threat. Classes that already coincide pass through.
#[must_use]
pub fn alert_class_to_attack_class(alert_class: &str) -> &str {
    match alert_class {
        "jamming" => "rf-jamming",
        "sensor-blinding" => "camera-blinding",
        "auth-failure-storm" => "replay",
        "rogue-association" => "rogue-node",
        // Fleet OTA attack classes are all faces of the firmware-
        // tampering threat the static TARA already models.
        "update-tampering" | "downgrade" | "rollout-poisoning" => "firmware-tampering",
        other => other,
    }
}

/// A recorded risk-level change.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RiskChange {
    /// The threat whose risk changed.
    pub threat_id: String,
    /// Risk before.
    pub from: RiskLevel,
    /// Risk after.
    pub to: RiskLevel,
    /// When (worksite ms).
    pub at_ms: u64,
}

/// The continuous assessment wrapper around a model.
#[derive(Debug, Clone)]
pub struct ContinuousAssessment {
    model: WorksiteModel,
    /// Feasibility overrides from field evidence.
    overrides: HashMap<String, AttackFeasibility>,
    current: TaraReport,
    changes: Vec<RiskChange>,
    recorder: Recorder,
}

impl ContinuousAssessment {
    /// Starts continuous assessment from a model (runs the initial TARA).
    #[must_use]
    pub fn new(model: WorksiteModel) -> Self {
        let current = Tara::assess(&model);
        ContinuousAssessment {
            model,
            overrides: HashMap::new(),
            current,
            changes: Vec::new(),
            recorder: Recorder::disabled(),
        }
    }

    /// Attaches a telemetry recorder; every risk-level change is then
    /// mirrored as a `RiskDelta` event stamped with the incident time.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// The current report.
    #[must_use]
    pub fn report(&self) -> &TaraReport {
        &self.current
    }

    /// The recorded risk changes.
    #[must_use]
    pub fn changes(&self) -> &[RiskChange] {
        &self.changes
    }

    /// Feeds field evidence that `attack_class` is being mounted (an
    /// incident confirmed at `at_ms`, worksite ms); escalates the
    /// feasibility of matching threats and re-assesses. Returns the
    /// changes the evidence caused.
    pub fn ingest(&mut self, attack_class: &str, at_ms: u64) -> Vec<RiskChange> {
        let mut escalated_any = false;
        for threat in &self.model.threats {
            if threat.attack_class.as_deref() == Some(attack_class) {
                let current = self
                    .overrides
                    .get(&threat.id)
                    .copied()
                    .unwrap_or_else(|| threat.feasibility());
                let escalated = current.escalate();
                if escalated != current {
                    self.overrides.insert(threat.id.clone(), escalated);
                    escalated_any = true;
                }
            }
        }
        if !escalated_any {
            return Vec::new();
        }
        self.reassess(at_ms)
    }

    /// Withdraws the field-evidence escalation for every threat of
    /// `attack_class` and re-assesses, so the matching risks fall back to
    /// their static baseline.
    ///
    /// This is the de-escalation half of continuous assessment: a
    /// completed mitigation (e.g. a fleet-wide firmware rollout patching
    /// a disclosed vulnerability) removes the evidence that made the
    /// attack feasible, and the risk ranking must reflect that just as
    /// promptly as it reflected the escalation. Returns the changes the
    /// mitigation caused (empty when nothing was escalated).
    pub fn mitigate(&mut self, attack_class: &str, at_ms: u64) -> Vec<RiskChange> {
        let mut withdrew = false;
        for threat in &self.model.threats {
            if threat.attack_class.as_deref() == Some(attack_class) {
                withdrew |= self.overrides.remove(&threat.id).is_some();
            }
        }
        if !withdrew {
            return Vec::new();
        }
        self.reassess(at_ms)
    }

    /// Feeds a recorded telemetry event. `IdsAlert` records are mapped to
    /// incidents via [`alert_class_to_attack_class`]; all other events are
    /// ignored. Returns the changes the record caused.
    pub fn ingest_record(&mut self, record: &Record) -> Vec<RiskChange> {
        if let Event::IdsAlert { class, .. } = &record.event {
            self.ingest(
                alert_class_to_attack_class(class.as_str()),
                record.at.as_millis(),
            )
        } else {
            Vec::new()
        }
    }

    /// Assesses the model at the escalated feasibilities and records
    /// every risk that moved.
    fn reassess(&mut self, at_ms: u64) -> Vec<RiskChange> {
        let overrides = &self.overrides;
        let report = Tara::assess_with(&self.model, |threat| {
            overrides
                .get(&threat.id)
                .copied()
                .unwrap_or_else(|| threat.feasibility())
        });
        let mut new_changes = Vec::new();
        for risk in &report.risks {
            let old = self
                .current
                .risks
                .iter()
                .find(|r| r.threat_id == risk.threat_id)
                .map_or(RiskLevel(1), |r| r.risk);
            if old != risk.risk {
                self.recorder.record_at(
                    SimTime::from_millis(at_ms),
                    Event::RiskDelta {
                        threat: Label::new(&risk.threat_id),
                        from: old.0,
                        to: risk.risk.0,
                    },
                );
                new_changes.push(RiskChange {
                    threat_id: risk.threat_id.clone(),
                    from: old,
                    to: risk.risk,
                    at_ms,
                });
            }
        }
        self.current = report;
        self.changes.extend(new_changes.clone());
        new_changes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feasibility::AttackPotential;
    use crate::impact::{ImpactCategory, ImpactLevel, ImpactRating};
    use crate::threat::{AttackStep, DamageScenario, ThreatScenario};
    use crate::{Asset, AssetCategory, SecurityProperty};

    fn model() -> WorksiteModel {
        WorksiteModel {
            assets: vec![Asset::new(
                "gnss",
                "GNSS receiver",
                AssetCategory::Sensor,
                vec![SecurityProperty::Integrity],
            )],
            damage_scenarios: vec![DamageScenario {
                id: "ds.nav".into(),
                asset_id: "gnss".into(),
                violated_property: SecurityProperty::Integrity,
                description: "machine navigates on false position".into(),
                impact: ImpactRating::new().with(ImpactCategory::Safety, ImpactLevel::Severe),
            }],
            threats: vec![ThreatScenario {
                id: "ts.spoof".into(),
                damage_scenario_id: "ds.nav".into(),
                attack_class: Some("gnss-spoofing".into()),
                threat_agent: "targeted attacker".into(),
                // Hard attack: Low feasibility statically.
                attack_paths: vec![vec![AttackStep {
                    action: "mount regional spoofer".into(),
                    potential: AttackPotential::new(19, 4, 0, 0, 0), // 23 → Low
                }]],
            }],
            ..WorksiteModel::default()
        }
    }

    #[test]
    fn baseline_assessment_matches_static() {
        let ca = ContinuousAssessment::new(model());
        assert_eq!(ca.report().risks[0].feasibility, AttackFeasibility::Low);
        assert_eq!(ca.report().risks[0].risk.0, 3);
    }

    #[test]
    fn incident_escalates_matching_threat() {
        let mut ca = ContinuousAssessment::new(model());
        let changes = ca.ingest("gnss-spoofing", 5_000);
        assert_eq!(changes.len(), 1);
        assert_eq!(changes[0].from.0, 3);
        assert_eq!(changes[0].to.0, 4);
        assert_eq!(changes[0].at_ms, 5_000);
        assert_eq!(ca.report().risks[0].feasibility, AttackFeasibility::Medium);
    }

    #[test]
    fn repeated_incidents_saturate() {
        let mut ca = ContinuousAssessment::new(model());
        for t in 0..5 {
            let _ = ca.ingest("gnss-spoofing", t * 1000);
        }
        assert_eq!(ca.report().risks[0].feasibility, AttackFeasibility::High);
        assert_eq!(ca.report().risks[0].risk.0, 5);
        // Low→Medium and Medium→High: exactly two changes recorded.
        assert_eq!(ca.changes().len(), 2);
    }

    #[test]
    fn unrelated_incident_changes_nothing() {
        let mut ca = ContinuousAssessment::new(model());
        let changes = ca.ingest("replay", 0);
        assert!(changes.is_empty());
        assert!(ca.changes().is_empty());
    }

    #[test]
    fn mitigation_restores_the_static_baseline() {
        let mut ca = ContinuousAssessment::new(model());
        for t in 0..3 {
            let _ = ca.ingest("gnss-spoofing", t * 1000);
        }
        assert_eq!(ca.report().risks[0].risk.0, 5);
        let changes = ca.mitigate("gnss-spoofing", 10_000);
        assert_eq!(changes.len(), 1);
        assert_eq!(changes[0].from.0, 5);
        assert_eq!(changes[0].to.0, 3);
        assert_eq!(changes[0].at_ms, 10_000);
        assert_eq!(ca.report().risks[0].feasibility, AttackFeasibility::Low);
        // Mitigating a class that was never escalated is a no-op.
        assert!(ca.mitigate("gnss-spoofing", 11_000).is_empty());
        assert!(ca.mitigate("replay", 11_000).is_empty());
    }

    #[test]
    fn alert_classes_alias_onto_attack_classes() {
        assert_eq!(alert_class_to_attack_class("jamming"), "rf-jamming");
        assert_eq!(
            alert_class_to_attack_class("sensor-blinding"),
            "camera-blinding"
        );
        assert_eq!(alert_class_to_attack_class("auth-failure-storm"), "replay");
        assert_eq!(
            alert_class_to_attack_class("rogue-association"),
            "rogue-node"
        );
        assert_eq!(
            alert_class_to_attack_class("gnss-spoofing"),
            "gnss-spoofing"
        );
        for fleet_class in ["update-tampering", "downgrade", "rollout-poisoning"] {
            assert_eq!(
                alert_class_to_attack_class(fleet_class),
                "firmware-tampering"
            );
        }
    }

    #[test]
    fn recorded_alert_escalates_and_emits_risk_delta() {
        let recorder = Recorder::new();
        let sub = recorder.subscribe("test", 64);
        let mut ca = ContinuousAssessment::new(model());
        ca.set_recorder(recorder.clone());

        // An IdsAlert record drives the assessment exactly like a
        // direct `ingest` of the aliased class.
        recorder.record_at(
            SimTime::from_millis(5_000),
            Event::IdsAlert {
                class: Label::new("gnss-spoofing"),
                severity: Label::new("high"),
            },
        );
        let records = recorder.records(sub);
        let changes = ca.ingest_record(&records[0]);
        assert_eq!(changes.len(), 1);
        assert_eq!(changes[0].at_ms, 5_000);

        // The change itself was mirrored back as a RiskDelta event.
        let records = recorder.records(sub);
        assert!(records.iter().any(
            |r| matches!(r.event, Event::RiskDelta { from: 3, to: 4, .. })
                && r.at.as_millis() == 5_000
        ));
    }

    #[test]
    fn non_alert_records_are_ignored() {
        let recorder = Recorder::new();
        let sub = recorder.subscribe("test", 64);
        recorder.record(Event::Custom {
            key: Label::new("noise"),
            value: 1,
        });
        let mut ca = ContinuousAssessment::new(model());
        let records = recorder.records(sub);
        assert!(ca.ingest_record(&records[0]).is_empty());
    }

    #[test]
    fn treatment_escalates_with_risk() {
        let mut ca = ContinuousAssessment::new(model());
        for _ in 0..3 {
            let _ = ca.ingest("gnss-spoofing", 0);
        }
        assert_eq!(
            ca.report().risks[0].treatment,
            crate::tara::Treatment::Reduce
        );
    }
}
