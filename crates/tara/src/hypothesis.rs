//! Live TARA hypotheses: the top-k ranking meets fleet evidence.
//!
//! A generated ranking is a stack of *claims* — "this scenario is the
//! risk to worry about" — and the fleet produces exactly the evidence
//! that can test them: SIEM-correlated campaigns name an attack class
//! and the number of sites reporting it, and completed mitigations
//! (e.g. a fleet-wide firmware rollout) remove the attack's standing.
//! A [`HypothesisSet`] holds the ranked scenarios as [`TaraHypothesis`]
//! entries and folds that evidence in: campaign evidence *confirms*
//! every open hypothesis of the class, a mitigation *retires* them.
//!
//! Transitions are monotone (`Open → Confirmed → Retired`; retirement
//! is terminal) and idempotent under duplicate evidence, and every
//! transition is mirrored as an `Event::TaraHypothesis` record — the
//! set's state is therefore a pure function of the JSONL trace, which
//! [`HypothesisSet::replay_from_jsonl`] exploits. The replay is checked
//! against the live set by the `experiments` unit test
//! `tara_hypotheses_confirm_retire_and_replay_from_the_trace` and by the
//! pathway benchmark every round, which requires
//! [`HypothesisSet::first_divergence`] to find none.

use crate::engine::ScoredScenario;
use silvasec_sim::SimTime;
use silvasec_telemetry::{Event, Label, Record, Recorder};

/// Lifecycle of one live hypothesis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HypothesisStatus {
    /// Ranked but not yet supported by fleet evidence.
    Open,
    /// Fleet SIEM evidence supports the scenario.
    Confirmed,
    /// A completed mitigation closed the scenario (terminal).
    Retired,
}

/// One ranked scenario with its evidence state.
#[derive(Debug, Clone, PartialEq)]
pub struct TaraHypothesis {
    /// The ranked scenario the hypothesis claims.
    pub scenario: ScoredScenario,
    /// Current lifecycle state.
    pub status: HypothesisStatus,
    /// When the first confirming evidence arrived (worksite ms).
    pub confirmed_at_ms: Option<u64>,
    /// When the hypothesis was retired (worksite ms).
    pub retired_at_ms: Option<u64>,
    /// Distinct sites behind the strongest confirming evidence seen.
    pub evidence_sites: u32,
}

/// The ranked hypotheses plus the recorder their transitions mirror to.
#[derive(Debug, Clone)]
pub struct HypothesisSet {
    hypotheses: Vec<TaraHypothesis>,
    recorder: Recorder,
}

impl HypothesisSet {
    /// Wraps a ranking (best first) as open hypotheses.
    #[must_use]
    pub fn from_ranking(top: Vec<ScoredScenario>) -> Self {
        HypothesisSet {
            hypotheses: top
                .into_iter()
                .map(|scenario| TaraHypothesis {
                    scenario,
                    status: HypothesisStatus::Open,
                    confirmed_at_ms: None,
                    retired_at_ms: None,
                    evidence_sites: 0,
                })
                .collect(),
            recorder: Recorder::disabled(),
        }
    }

    /// Attaches a telemetry recorder; every subsequent transition is
    /// mirrored as an `Event::TaraHypothesis` stamped with the evidence
    /// time.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// The hypotheses, in ranking order.
    #[must_use]
    pub fn hypotheses(&self) -> &[TaraHypothesis] {
        &self.hypotheses
    }

    /// `(open, confirmed, retired)` counts.
    #[must_use]
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for h in &self.hypotheses {
            match h.status {
                HypothesisStatus::Open => counts.0 += 1,
                HypothesisStatus::Confirmed => counts.1 += 1,
                HypothesisStatus::Retired => counts.2 += 1,
            }
        }
        counts
    }

    fn emit(&self, h: &TaraHypothesis, phase: &str, sites: u32, at_ms: u64) {
        self.recorder.record_at(
            SimTime::from_millis(at_ms),
            Event::TaraHypothesis {
                scenario: h.scenario.hash,
                class: Label::new(&h.scenario.attack_class),
                phase: Label::new(phase),
                risk: h.scenario.risk.0,
                sites,
            },
        );
    }

    /// Folds in SIEM campaign evidence: every *open* hypothesis of
    /// `attack_class` becomes confirmed. Duplicate evidence is a no-op
    /// (already-confirmed and retired hypotheses are untouched).
    /// Returns the number of transitions.
    pub fn confirm(&mut self, attack_class: &str, sites: u32, at_ms: u64) -> usize {
        let mut transitions = Vec::new();
        for (i, h) in self.hypotheses.iter_mut().enumerate() {
            if h.scenario.attack_class != attack_class || h.status != HypothesisStatus::Open {
                continue;
            }
            h.status = HypothesisStatus::Confirmed;
            h.confirmed_at_ms = Some(at_ms);
            h.evidence_sites = sites;
            transitions.push(i);
        }
        for &i in &transitions {
            let h = self.hypotheses[i].clone();
            self.emit(&h, "confirm", sites, at_ms);
        }
        transitions.len()
    }

    /// Folds in a completed mitigation: every open or confirmed
    /// hypothesis of `attack_class` retires. Retirement is terminal, so
    /// duplicates are a no-op. Returns the number of transitions.
    pub fn retire(&mut self, attack_class: &str, at_ms: u64) -> usize {
        let mut transitions = Vec::new();
        for (i, h) in self.hypotheses.iter_mut().enumerate() {
            if h.scenario.attack_class != attack_class || h.status == HypothesisStatus::Retired {
                continue;
            }
            h.status = HypothesisStatus::Retired;
            h.retired_at_ms = Some(at_ms);
            transitions.push(i);
        }
        for &i in &transitions {
            let h = self.hypotheses[i].clone();
            self.emit(&h, "retire", 0, at_ms);
        }
        transitions.len()
    }

    /// Rebuilds a set from the ranking plus a JSONL telemetry trace:
    /// every `TaraHypothesis` record is applied, addressed by scenario
    /// hash. Unknown scenario hashes and unknown phase tags are errors
    /// (the trace and the ranking must come from the same run).
    pub fn replay_from_jsonl(top: Vec<ScoredScenario>, jsonl: &str) -> Result<Self, String> {
        let mut set = HypothesisSet::from_ranking(top);
        for (lineno, line) in jsonl.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let record: Record = serde_json::from_str(line)
                .map_err(|e| format!("line {}: unparseable record: {e:?}", lineno + 1))?;
            let Event::TaraHypothesis {
                scenario,
                phase,
                sites,
                ..
            } = record.event
            else {
                continue;
            };
            let at_ms = record.at.as_millis();
            let h = set
                .hypotheses
                .iter_mut()
                .find(|h| h.scenario.hash == scenario)
                .ok_or_else(|| {
                    format!("line {}: unknown scenario hash {scenario:#x}", lineno + 1)
                })?;
            match phase.as_str() {
                "confirm" => {
                    if h.status == HypothesisStatus::Open {
                        h.status = HypothesisStatus::Confirmed;
                        h.confirmed_at_ms = Some(at_ms);
                        h.evidence_sites = sites;
                    }
                }
                "retire" => {
                    if h.status != HypothesisStatus::Retired {
                        h.status = HypothesisStatus::Retired;
                        h.retired_at_ms = Some(at_ms);
                    }
                }
                other => {
                    return Err(format!("line {}: unknown phase {other:?}", lineno + 1));
                }
            }
        }
        Ok(set)
    }

    /// The first hypothesis whose state differs from `other`'s, as a
    /// human-readable description — `None` when the sets agree.
    #[must_use]
    pub fn first_divergence(&self, other: &HypothesisSet) -> Option<String> {
        if self.hypotheses.len() != other.hypotheses.len() {
            return Some(format!(
                "hypothesis count {} != {}",
                self.hypotheses.len(),
                other.hypotheses.len()
            ));
        }
        for (a, b) in self.hypotheses.iter().zip(&other.hypotheses) {
            if a != b {
                return Some(format!(
                    "scenario {:#018x} ({}): {:?}@{:?}/{:?} != {:?}@{:?}/{:?}",
                    a.scenario.hash,
                    a.scenario.attack_class,
                    a.status,
                    a.confirmed_at_ms,
                    a.retired_at_ms,
                    b.status,
                    b.confirmed_at_ms,
                    b.retired_at_ms
                ));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::TaraCatalog;
    use crate::engine::ScenarioSpace;
    use silvasec_risk::catalog::worksite_model;
    use silvasec_telemetry::EventKind;

    fn ranking() -> Vec<ScoredScenario> {
        let catalog = TaraCatalog::from_model(&worksite_model());
        ScenarioSpace::new(&catalog, 11, 2, 96).enumerate().top
    }

    #[test]
    fn evidence_confirms_only_the_matching_open_hypotheses() {
        let top = ranking();
        let class = top[0].attack_class.clone();
        let expected = top.iter().filter(|s| s.attack_class == class).count();
        let mut set = HypothesisSet::from_ranking(top);
        assert_eq!(set.confirm(&class, 3, 1_000), expected);
        let (_, confirmed, retired) = set.counts();
        assert_eq!(confirmed, expected);
        assert_eq!(retired, 0);
        // Duplicate evidence is a no-op.
        assert_eq!(set.confirm(&class, 7, 2_000), 0);
        for h in set.hypotheses() {
            if h.scenario.attack_class == class {
                assert_eq!(h.confirmed_at_ms, Some(1_000));
                assert_eq!(h.evidence_sites, 3);
            } else {
                assert_eq!(h.status, HypothesisStatus::Open);
            }
        }
    }

    #[test]
    fn retirement_is_terminal_and_idempotent() {
        let top = ranking();
        let class = top[0].attack_class.clone();
        let matching = top.iter().filter(|s| s.attack_class == class).count();
        let mut set = HypothesisSet::from_ranking(top);
        set.confirm(&class, 2, 500);
        assert_eq!(set.retire(&class, 1_500), matching);
        assert_eq!(set.retire(&class, 2_500), 0);
        // Evidence after retirement changes nothing.
        assert_eq!(set.confirm(&class, 9, 3_500), 0);
        for h in set.hypotheses() {
            if h.scenario.attack_class == class {
                assert_eq!(h.status, HypothesisStatus::Retired);
                assert_eq!(h.retired_at_ms, Some(1_500));
            }
        }
    }

    #[test]
    fn transitions_emit_events_and_replay_reproduces_the_state() {
        let top = ranking();
        let recorder = Recorder::new();
        let sub = recorder.subscribe("tara", 256);
        let mut set = HypothesisSet::from_ranking(top.clone());
        set.set_recorder(recorder.clone());

        let class_a = top[0].attack_class.clone();
        let class_b = top
            .iter()
            .map(|s| &s.attack_class)
            .find(|c| **c != class_a)
            .expect("ranking spans classes")
            .clone();
        set.confirm(&class_a, 4, 1_000);
        set.confirm(&class_b, 2, 2_000);
        set.retire(&class_a, 3_000);

        let records = recorder.records(sub);
        assert!(records
            .iter()
            .all(|r| r.event.kind() == EventKind::TaraHypothesis));
        let jsonl: String = records
            .iter()
            .map(|r| serde_json::to_string(r).unwrap() + "\n")
            .collect();
        let replayed = HypothesisSet::replay_from_jsonl(top, &jsonl).unwrap();
        assert_eq!(replayed.first_divergence(&set), None);
        assert_eq!(replayed.counts(), set.counts());
    }

    #[test]
    fn replay_rejects_foreign_traces() {
        let top = ranking();
        let recorder = Recorder::new();
        let sub = recorder.subscribe("tara", 16);
        recorder.record(Event::TaraHypothesis {
            scenario: 0xDEAD_BEEF,
            class: Label::new("rf-jamming"),
            phase: Label::new("confirm"),
            risk: 5,
            sites: 1,
        });
        let jsonl: String = recorder
            .records(sub)
            .iter()
            .map(|r| serde_json::to_string(r).unwrap() + "\n")
            .collect();
        let err = HypothesisSet::replay_from_jsonl(top, &jsonl).unwrap_err();
        assert!(err.contains("unknown scenario hash"), "{err}");
    }

    #[test]
    fn divergence_is_reported_with_the_scenario() {
        let top = ranking();
        let class = top[0].attack_class.clone();
        let mut a = HypothesisSet::from_ranking(top.clone());
        let b = HypothesisSet::from_ranking(top);
        a.confirm(&class, 1, 100);
        let d = a.first_divergence(&b).expect("states differ");
        assert!(d.contains(&class), "{d}");
    }
}
