//! Live TARA hypotheses: the top-k ranking meets fleet evidence.
//!
//! A generated ranking is a stack of *claims* — "these scenarios are
//! the risks to worry about" — and the fleet produces exactly the
//! evidence that can test them: SIEM-correlated campaigns name an
//! attack class and the number of sites reporting it, and completed
//! mitigations (e.g. a fleet-wide firmware rollout) remove the attack's
//! standing. Evidence only ever names an attack class, so a
//! [`HypothesisSet`] keeps one [`TaraHypothesis`] per attack class of
//! the ranking, counting the ranked scenarios the class covers, and
//! folds that evidence in: campaign evidence *confirms* an open class,
//! a mitigation *retires* it.
//!
//! Transitions are monotone (`Open → Confirmed → Retired`; retirement
//! is terminal) and idempotent under duplicate evidence, and every
//! class transition is mirrored as one `Event::TaraHypothesis` record —
//! the set's state is therefore a pure function of the JSONL trace,
//! which [`HypothesisSet::replay_from_jsonl`] exploits. Live evidence
//! and replay reach a class through one lookup and move it through one
//! private transition rule, so the two cannot disagree about what a
//! phase does. The replay is checked against the live set by the
//! `experiments` unit test
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
    /// Fleet SIEM evidence supports the attack class.
    Confirmed,
    /// A completed mitigation closed the attack class (terminal).
    Retired,
}

/// One attack class of the ranking with its evidence state.
#[derive(Debug, Clone, PartialEq)]
pub struct TaraHypothesis {
    /// Attack-class tag the evidence names.
    pub class: String,
    /// How many ranked scenarios the class covers.
    pub scenarios: u32,
    /// Current lifecycle state.
    pub status: HypothesisStatus,
    /// When the first confirming evidence arrived (worksite ms).
    pub confirmed_at_ms: Option<u64>,
    /// When the class was retired (worksite ms).
    pub retired_at_ms: Option<u64>,
    /// Distinct sites behind the first confirming evidence.
    pub evidence_sites: u32,
}

/// The `TaraHypothesis` phase tag of a confirmation.
const CONFIRM: &str = "confirm";
/// The `TaraHypothesis` phase tag of a retirement.
const RETIRE: &str = "retire";

/// The one transition rule, live and on replay: [`CONFIRM`] moves an
/// open hypothesis to confirmed with its evidence, [`RETIRE`] a live
/// one to retired. Returns whether `h` moved; an unknown phase is an
/// error.
fn transition(h: &mut TaraHypothesis, phase: &str, sites: u32, at_ms: u64) -> Result<bool, String> {
    match (phase, h.status) {
        (CONFIRM, HypothesisStatus::Open) => {
            h.status = HypothesisStatus::Confirmed;
            h.confirmed_at_ms = Some(at_ms);
            h.evidence_sites = sites;
        }
        (RETIRE, HypothesisStatus::Open | HypothesisStatus::Confirmed) => {
            h.status = HypothesisStatus::Retired;
            h.retired_at_ms = Some(at_ms);
        }
        (CONFIRM | RETIRE, _) => return Ok(false),
        (other, _) => return Err(format!("unknown phase {other:?}")),
    }
    Ok(true)
}

/// One hypothesis per attack class of a ranking, plus the recorder
/// their transitions mirror to.
#[derive(Debug, Clone)]
pub struct HypothesisSet {
    hypotheses: Vec<TaraHypothesis>,
    recorder: Recorder,
}

impl HypothesisSet {
    /// Wraps a ranking (best first) as one open hypothesis per attack
    /// class, in the order the ranking first names each class.
    #[must_use]
    pub fn from_ranking(top: Vec<ScoredScenario>) -> Self {
        let mut set = HypothesisSet {
            hypotheses: Vec::new(),
            recorder: Recorder::disabled(),
        };
        for scenario in top {
            match set.class_mut(&scenario.attack_class) {
                Some(h) => h.scenarios += 1,
                None => set.hypotheses.push(TaraHypothesis {
                    class: scenario.attack_class,
                    scenarios: 1,
                    status: HypothesisStatus::Open,
                    confirmed_at_ms: None,
                    retired_at_ms: None,
                    evidence_sites: 0,
                }),
            }
        }
        set
    }

    /// Attaches a telemetry recorder; every subsequent transition is
    /// mirrored as an `Event::TaraHypothesis` stamped with the evidence
    /// time.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// The hypotheses, one per attack class, best-ranked class first.
    #[must_use]
    pub fn hypotheses(&self) -> &[TaraHypothesis] {
        &self.hypotheses
    }

    /// `(open, confirmed, retired)` counts of ranked scenarios.
    #[must_use]
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for h in &self.hypotheses {
            let n = h.scenarios as usize;
            match h.status {
                HypothesisStatus::Open => counts.0 += n,
                HypothesisStatus::Confirmed => counts.1 += n,
                HypothesisStatus::Retired => counts.2 += n,
            }
        }
        counts
    }

    /// The one lookup, live and on replay: the hypothesis of `class`.
    fn class_mut(&mut self, class: &str) -> Option<&mut TaraHypothesis> {
        self.hypotheses.iter_mut().find(|h| h.class == class)
    }

    /// Applies `phase` to the hypothesis of `attack_class` through
    /// [`transition`], emitting the move as it happens. Returns the
    /// ranked scenarios that moved.
    fn apply(&mut self, attack_class: &str, phase: &str, sites: u32, at_ms: u64) -> usize {
        let Some(h) = self.class_mut(attack_class) else {
            return 0;
        };
        if !transition(h, phase, sites, at_ms).expect("live phases are known") {
            return 0;
        }
        let event = Event::TaraHypothesis {
            class: Label::new(&h.class),
            phase: Label::new(phase),
            sites,
            scenarios: h.scenarios,
        };
        let moved = h.scenarios as usize;
        self.recorder.record_at(SimTime::from_millis(at_ms), event);
        moved
    }

    /// Folds in SIEM campaign evidence: an *open* `attack_class` becomes
    /// confirmed. Duplicate evidence is a no-op (confirmed and retired
    /// classes are untouched). Returns the ranked scenarios that moved.
    pub fn confirm(&mut self, attack_class: &str, sites: u32, at_ms: u64) -> usize {
        self.apply(attack_class, CONFIRM, sites, at_ms)
    }

    /// Folds in a completed mitigation: an open or confirmed
    /// `attack_class` retires. Retirement is terminal, so duplicates are
    /// a no-op. Returns the ranked scenarios that moved.
    pub fn retire(&mut self, attack_class: &str, at_ms: u64) -> usize {
        self.apply(attack_class, RETIRE, 0, at_ms)
    }

    /// Rebuilds a set from the ranking plus a JSONL telemetry trace:
    /// every `TaraHypothesis` record is applied to its class. A class
    /// the ranking lacks, or covers with another number of scenarios,
    /// and an unknown phase tag are errors naming the line (the trace
    /// and the ranking must come from the same run).
    pub fn replay_from_jsonl(top: Vec<ScoredScenario>, jsonl: &str) -> Result<Self, String> {
        let mut set = HypothesisSet::from_ranking(top);
        for (n, line) in (1_u64..).zip(jsonl.lines()) {
            if line.trim().is_empty() {
                continue;
            }
            let record: Record = serde_json::from_str(line)
                .map_err(|e| format!("line {n}: unparseable record: {e:?}"))?;
            let Event::TaraHypothesis {
                class,
                phase,
                sites,
                scenarios,
            } = record.event
            else {
                continue;
            };
            let h = set
                .class_mut(class.as_str())
                .filter(|h| h.scenarios == scenarios)
                .ok_or_else(|| {
                    format!("line {n}: unknown class {class} of {scenarios} scenarios")
                })?;
            transition(h, phase.as_str(), sites, record.at.as_millis())
                .map_err(|e| format!("line {n}: {e}"))?;
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
        self.hypotheses
            .iter()
            .zip(&other.hypotheses)
            .find(|(a, b)| a != b)
            .map(|(a, b)| format!("{a:?} != {b:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::TaraCatalog;
    use crate::engine::ScenarioSpace;
    use silvasec_risk::catalog::worksite_model;

    fn ranking() -> Vec<ScoredScenario> {
        let catalog = TaraCatalog::from_model(&worksite_model());
        ScenarioSpace::new(&catalog, 11, 2, 96).enumerate().top
    }

    /// The scenarios of `class` in `top`.
    fn covered(top: &[ScoredScenario], class: &str) -> usize {
        top.iter().filter(|s| s.attack_class == class).count()
    }

    /// The records `recorder` gave `sub`, as a JSONL trace.
    fn jsonl(recorder: &Recorder, sub: silvasec_telemetry::SubscriberId) -> String {
        recorder
            .records(sub)
            .iter()
            .map(|r| serde_json::to_string(r).unwrap() + "\n")
            .collect()
    }

    #[test]
    fn one_hypothesis_per_class_counts_the_ranked_scenarios() {
        let top = ranking();
        let set = HypothesisSet::from_ranking(top.clone());
        let classes: Vec<&str> = set.hypotheses().iter().map(|h| h.class.as_str()).collect();
        let mut first_named: Vec<&str> = Vec::new();
        for s in &top {
            if !first_named.contains(&s.attack_class.as_str()) {
                first_named.push(&s.attack_class);
            }
        }
        assert_eq!(classes, first_named, "best-ranked class first");
        for h in set.hypotheses() {
            assert_eq!(h.scenarios as usize, covered(&top, &h.class));
        }
        assert_eq!(set.counts(), (top.len(), 0, 0));
    }

    #[test]
    fn evidence_confirms_only_the_matching_open_hypotheses() {
        let top = ranking();
        let class = top[0].attack_class.clone();
        let expected = covered(&top, &class);
        let mut set = HypothesisSet::from_ranking(top);
        assert_eq!(set.confirm(&class, 3, 1_000), expected);
        let (_, confirmed, retired) = set.counts();
        assert_eq!(confirmed, expected);
        assert_eq!(retired, 0);
        // Duplicate evidence is a no-op, and so is a class the ranking
        // lacks.
        assert_eq!(set.confirm(&class, 7, 2_000), 0);
        assert_eq!(set.confirm("no-such-class", 7, 2_000), 0);
        for h in set.hypotheses() {
            if h.class == class {
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
        let matching = covered(&top, &class);
        let mut set = HypothesisSet::from_ranking(top);
        set.confirm(&class, 2, 500);
        assert_eq!(set.retire(&class, 1_500), matching);
        assert_eq!(set.retire(&class, 2_500), 0);
        // Evidence after retirement changes nothing.
        assert_eq!(set.confirm(&class, 9, 3_500), 0);
        let h = set.hypotheses().iter().find(|h| h.class == class).unwrap();
        assert_eq!(h.status, HypothesisStatus::Retired);
        assert_eq!(
            (h.confirmed_at_ms, h.retired_at_ms, h.evidence_sites),
            (Some(500), Some(1_500), 2)
        );
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
        set.confirm(&class_b, 5, 2_500);
        set.retire(&class_a, 3_000);

        let events: Vec<_> = recorder
            .records(sub)
            .iter()
            .map(|r| (r.at.as_millis(), r.event))
            .collect();
        let event = |class: &str, phase: &str, sites: u32| Event::TaraHypothesis {
            class: Label::new(class),
            phase: Label::new(phase),
            sites,
            scenarios: covered(&top, class) as u32,
        };
        assert_eq!(
            events,
            [
                (1_000, event(&class_a, CONFIRM, 4)),
                (2_000, event(&class_b, CONFIRM, 2)),
                (3_000, event(&class_a, RETIRE, 0)),
            ]
        );
        let replayed = HypothesisSet::replay_from_jsonl(top, &jsonl(&recorder, sub)).unwrap();
        assert_eq!(replayed.first_divergence(&set), None);
        assert_eq!(replayed.counts(), set.counts());
    }

    #[test]
    fn replay_rejects_foreign_traces() {
        let top = ranking();
        let class = top[0].attack_class.clone();
        let scenarios = covered(&top, &class) as u32;
        for (event_class, phase, scenarios, want) in [
            ("no-such-class", CONFIRM, scenarios, "unknown class"),
            (class.as_str(), CONFIRM, scenarios + 1, "unknown class"),
            (class.as_str(), "reopen", scenarios, "unknown phase"),
        ] {
            let recorder = Recorder::new();
            let sub = recorder.subscribe("tara", 16);
            recorder.record(Event::CampaignAlert {
                class: Label::new("jamming"),
                sites: 2,
            });
            recorder.record(Event::TaraHypothesis {
                class: Label::new(event_class),
                phase: Label::new(phase),
                sites: 1,
                scenarios,
            });
            let err =
                HypothesisSet::replay_from_jsonl(top.clone(), &jsonl(&recorder, sub)).unwrap_err();
            assert!(err.starts_with("line 2: ") && err.contains(want), "{err}");
        }
    }

    #[test]
    fn divergence_is_reported_with_the_class() {
        let top = ranking();
        let class = top[0].attack_class.clone();
        let mut a = HypothesisSet::from_ranking(top.clone());
        let b = HypothesisSet::from_ranking(top);
        a.confirm(&class, 1, 100);
        let d = a.first_divergence(&b).expect("states differ");
        assert!(d.contains(&class), "{d}");
    }
}
