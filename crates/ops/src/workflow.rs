//! The typed incident-response step machine and its failure ladder.
//!
//! The happy path is `Triage → Contain → Gate → Remediate → Verify →
//! Close`. Every edge the engine may take is in the transition table
//! below — an invalid transition is a programming error and panics in
//! the run store, never silently corrupts a run:
//!
//! ```text
//!            ┌────────┐ low sev ┌────────┐
//!            │ Triage │────────▶│ Reject │
//!            └───┬────┘         └────────┘
//!                ▼
//!            ┌─────────┐ reject / timeout     ┌──────────┐
//!            │ Contain │───┐   ┌─────────────▶│ Escalate │
//!            └───┬─────┘   │   │          ┌──▶└──────────┘
//!                ▼         ▼   │          │ ladder exhausted
//!            ┌──────┐    ┌─────┴──┐       │ (any step)
//!            │ Gate │───▶│Escalate│       │
//!            └───┬──┘    └────────┘       │
//!        approve ▼                        │
//!          ┌───────────┐   re-plan  ┌─────┴──┐
//!          │ Remediate │◀───────────│ Verify │
//!          └─────┬─────┘            └──┬─────┘
//!                └──────────▶──────────┘ quiet ▼ ┌───────┐
//!                                               │ Close │
//!                                               └───────┘
//! ```
//!
//! A failed step does not transition: it self-loops (recorded as a
//! `from == to` transition with `ok: false`) and climbs the Silas
//! ladder ([`LadderAction::on_failure`]) — **retry** the same action
//! twice, then **consult** (re-derive the plan from current state),
//! then **re-plan** (widen the plan; at `Verify` this re-enters
//! `Remediate`), then **escalate** to a human. Each rung is a
//! deterministic decision from the per-step attempt counter, so the
//! whole cascade replays from the trace.

use serde::{Deserialize, Serialize};

/// One step of the incident-response workflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Step {
    /// Classify the incident and derive the response plan.
    Triage,
    /// Execute containment actions against real subsystems.
    Contain,
    /// Review gate between containment and remediation.
    Gate,
    /// Drive the fix (an OTA rollout) through the fleet.
    Remediate,
    /// Re-check the SIEM window: did the trouble actually stop?
    Verify,
    /// Terminal: incident resolved and verified.
    Close,
    /// Terminal: automated response gave up; a human owns the incident.
    Escalate,
    /// Terminal: triage decided no automated response is warranted.
    Reject,
}

impl Step {
    /// Short stable name, used as a telemetry label.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Step::Triage => "triage",
            Step::Contain => "contain",
            Step::Gate => "gate",
            Step::Remediate => "remediate",
            Step::Verify => "verify",
            Step::Close => "close",
            Step::Escalate => "escalate",
            Step::Reject => "reject",
        }
    }

    /// Parses the stable name produced by [`Step::as_str`].
    #[must_use]
    pub fn from_str_name(name: &str) -> Option<Self> {
        match name {
            "triage" => Some(Step::Triage),
            "contain" => Some(Step::Contain),
            "gate" => Some(Step::Gate),
            "remediate" => Some(Step::Remediate),
            "verify" => Some(Step::Verify),
            "close" => Some(Step::Close),
            "escalate" => Some(Step::Escalate),
            "reject" => Some(Step::Reject),
            _ => None,
        }
    }

    /// `true` for the three terminal steps.
    #[must_use]
    pub fn is_terminal(self) -> bool {
        matches!(self, Step::Close | Step::Escalate | Step::Reject)
    }

    /// The typed transition table. Self-loops (failed attempts) are
    /// valid for every non-terminal step.
    #[must_use]
    pub fn can_transition(self, to: Step) -> bool {
        if self == to {
            return !self.is_terminal();
        }
        matches!(
            (self, to),
            (Step::Triage, Step::Contain)
                | (Step::Triage, Step::Reject)
                | (Step::Triage, Step::Escalate)
                | (Step::Contain, Step::Gate)
                | (Step::Contain, Step::Escalate)
                | (Step::Gate, Step::Remediate)
                | (Step::Gate, Step::Escalate)
                | (Step::Remediate, Step::Verify)
                | (Step::Remediate, Step::Escalate)
                | (Step::Verify, Step::Close)
                | (Step::Verify, Step::Remediate)
                | (Step::Verify, Step::Escalate)
        )
    }
}

/// What the ladder says to do about a failed attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LadderAction {
    /// Re-run the same actions after backoff.
    Retry,
    /// Re-derive the plan from current state, then re-run.
    Consult,
    /// Widen the plan (at `Verify`: fall back to `Remediate`).
    Replan,
    /// Hand the incident to a human.
    Escalate,
}

impl LadderAction {
    /// The Silas failure ladder's response to the `attempt`-th failure
    /// of one step (1-based): two retries, then consult, re-plan and
    /// escalate.
    #[must_use]
    pub fn on_failure(attempt: u32) -> Self {
        match attempt {
            0..=2 => LadderAction::Retry,
            3 => LadderAction::Consult,
            4 => LadderAction::Replan,
            _ => LadderAction::Escalate,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Step; 8] = [
        Step::Triage,
        Step::Contain,
        Step::Gate,
        Step::Remediate,
        Step::Verify,
        Step::Close,
        Step::Escalate,
        Step::Reject,
    ];

    #[test]
    fn names_roundtrip() {
        for step in ALL {
            assert_eq!(Step::from_str_name(step.as_str()), Some(step));
        }
        assert_eq!(Step::from_str_name("unknown"), None);
    }

    #[test]
    fn happy_path_is_valid() {
        let path = [
            Step::Triage,
            Step::Contain,
            Step::Gate,
            Step::Remediate,
            Step::Verify,
            Step::Close,
        ];
        for pair in path.windows(2) {
            assert!(pair[0].can_transition(pair[1]), "{pair:?}");
        }
    }

    #[test]
    fn terminals_are_absorbing() {
        for from in [Step::Close, Step::Escalate, Step::Reject] {
            assert!(from.is_terminal());
            for to in ALL {
                assert!(!from.can_transition(to), "{from:?} -> {to:?}");
            }
        }
    }

    #[test]
    fn escalate_reachable_from_every_active_step() {
        for from in [
            Step::Triage,
            Step::Contain,
            Step::Gate,
            Step::Remediate,
            Step::Verify,
        ] {
            assert!(from.can_transition(Step::Escalate), "{from:?}");
            assert!(from.can_transition(from), "self-loop {from:?}");
        }
    }

    #[test]
    fn backward_and_skip_edges_rejected() {
        assert!(!Step::Contain.can_transition(Step::Triage));
        assert!(!Step::Triage.can_transition(Step::Remediate));
        assert!(!Step::Gate.can_transition(Step::Close));
        assert!(!Step::Remediate.can_transition(Step::Gate));
        // The one sanctioned backward edge: verify re-plan.
        assert!(Step::Verify.can_transition(Step::Remediate));
    }

    #[test]
    fn ladder_climbs_in_order() {
        use LadderAction::{Consult, Escalate, Replan, Retry};
        let rungs: Vec<LadderAction> = (1..=6).map(LadderAction::on_failure).collect();
        assert_eq!(rungs, [Retry, Retry, Consult, Replan, Escalate, Escalate]);
    }
}
