//! The ops engine: queue + workflow + run store + gates, speaking to
//! the host in commands.
//!
//! The engine deliberately knows nothing about the fleet: containment
//! and remediation are expressed as [`OpsCommand`]s returned from
//! [`OpsEngine::tick`] (and from [`OpsEngine::complete`], which may
//! unblock the next step of a workflow). The host — the fleet layer,
//! or a synthetic harness such as `experiments::run_ops_load` —
//! executes each command against real subsystems and reports the
//! outcome via [`OpsEngine::complete`]. This keeps the dependency
//! arrow pointing `fleet → ops` and makes the engine testable against a
//! scripted executor.
//!
//! # Pump loop
//!
//! ```text
//! let mut cmds = engine.tick(now);
//! while let Some(cmd) = cmds.pop() {
//!     let ok = host_execute(&cmd);
//!     cmds.extend(engine.complete(cmd.id, ok, now));
//! }
//! ```
//!
//! # Failure discipline
//!
//! A failed command fails the step's current attempt; the Silas ladder
//! ([`LadderAction::on_failure`]: two retries, then consult, re-plan,
//! escalate) decides, and the queue's nack backoff provides the
//! deterministic inter-attempt delay. A workflow that stalls without
//! failing (the host never completes a command) is caught by lease
//! expiry and redelivered; a run that exhausts its delivery budget is
//! dead-lettered. Every one of those paths is a recorded `Ops*` event,
//! so the whole cascade replays from the trace.

use crate::gate::{GateDecision, GatePolicy};
use crate::incident::{Incident, FLEET_SITE};
use crate::queue::{DurableQueue, QueueConfig, QueueCounters};
use crate::run_store::{OpenOutcome, RunStore, Transition};
use crate::workflow::{LadderAction, Step};
use silvasec_ids::alert::Severity;
use silvasec_sim::SimTime;
use silvasec_telemetry::{Event, Label, Recorder};
use std::collections::BTreeMap;

/// Leases granted per [`OpsEngine::tick`] call — bounds per-tick work
/// so a 10k-incident backlog drains over ticks, not in one.
const MAX_LEASES_PER_TICK: u32 = 64;

/// Engine tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpsConfig {
    /// Durable-queue tuning.
    pub queue: QueueConfig,
    /// Review-gate policy.
    pub gate: GatePolicy,
    /// Seed keying the queue's deterministic backoff jitter.
    pub seed: u64,
}

/// What the host is asked to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Containment: stop draining `site`'s alerts into the SIEM and
    /// hold its traffic.
    QuarantineSite {
        /// Site to quarantine.
        site: u32,
    },
    /// Containment: quarantine every site currently reporting `class`.
    QuarantineReporting {
        /// Alert class whose reporters are quarantined.
        class: String,
    },
    /// Containment: revoke the fleet's update-signing certificate and
    /// publish a CRL (for campaigns implying signer compromise).
    RevokeSigner,
    /// Containment: halt any staged rollout in progress.
    HaltRollout,
    /// Remediation: push a fixed firmware version through the staged
    /// rollout machinery.
    OtaRollout,
    /// Verification: report whether the SIEM has been quiet for
    /// `class` since `since_ms`.
    CheckQuiet {
        /// Alert class to re-check.
        class: String,
        /// Start of the quiet window (remediation completion).
        since_ms: u64,
    },
    /// Notification (fire-and-forget, no completion expected): the run
    /// closed verified, the host may lower continuous risk for `class`.
    MitigateRisk {
        /// Alert class whose risk is mitigated.
        class: String,
    },
}

/// One command issued to the host.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpsCommand {
    /// Completion handle for [`OpsEngine::complete`].
    pub id: u64,
    /// Run the command belongs to.
    pub run: u64,
    /// What to do.
    pub action: Action,
}

/// The response plan triage derives for a run.
#[derive(Debug, Clone)]
struct Plan {
    contain: Vec<Action>,
}

fn derive_plan(class: &str, site: u32) -> Plan {
    let mut contain = Vec::new();
    if site == FLEET_SITE {
        contain.push(Action::HaltRollout);
        contain.push(Action::QuarantineReporting {
            class: class.to_string(),
        });
        if class == "auth-failure-storm" {
            // A fleet-wide storm of cryptographic failures implies the
            // update-signing key may be talking to impostors: revoke it.
            contain.push(Action::RevokeSigner);
        }
    } else {
        contain.push(Action::QuarantineSite { site });
    }
    Plan { contain }
}

fn widen_plan(plan: &mut Plan, class: &str, site: u32) {
    let fallback = if site == FLEET_SITE {
        Action::RevokeSigner
    } else {
        Action::QuarantineReporting {
            class: class.to_string(),
        }
    };
    if !plan.contain.contains(&fallback) {
        plan.contain.push(fallback);
    }
}

/// Per-run live control state (the run store holds the durable state;
/// this is the engine's working memory and is reconstructible from the
/// store record).
#[derive(Debug)]
struct RunCtl {
    step: Step,
    attempt: u32,
    class: String,
    severity: Severity,
    site: u32,
    plan: Plan,
    consulted: bool,
    replanned: bool,
    /// Outstanding command ids for the current attempt.
    pending: Vec<u64>,
    /// Whether any command of the current attempt failed.
    failed: bool,
    awaiting_review: bool,
    review_deadline: u64,
    remediated_at_ms: u64,
}

/// The deterministic incident-response engine.
#[derive(Debug)]
pub struct OpsEngine {
    config: OpsConfig,
    queue: DurableQueue,
    store: RunStore,
    recorder: Recorder,
    ctl: BTreeMap<u64, RunCtl>,
    /// Outstanding command id → owning run: exactly the live runs'
    /// [`RunCtl::pending`] ids.
    outstanding: BTreeMap<u64, u64>,
    next_cmd: u64,
}

impl OpsEngine {
    /// Creates an engine recording its audit trail into `recorder`.
    #[must_use]
    pub fn new(config: OpsConfig, recorder: Recorder) -> Self {
        OpsEngine {
            queue: DurableQueue::new(config.queue, config.seed),
            store: RunStore::new(),
            recorder,
            config,
            ctl: BTreeMap::new(),
            outstanding: BTreeMap::new(),
            next_cmd: 0,
        }
    }

    fn record(&self, now_ms: u64, event: Event) {
        self.recorder.record_at(SimTime::from_millis(now_ms), event);
    }

    /// Accepts an incident: opens a run and queues it, or folds the
    /// report into the identity's open run. Returns the run id.
    pub fn enqueue_incident(&mut self, incident: &Incident, now_ms: u64) -> u64 {
        match self.store.open_or_fold(incident, now_ms) {
            OpenOutcome::Opened(run) => {
                let (site, sites) = incident.scope.flatten();
                self.record(
                    now_ms,
                    Event::OpsEnqueue {
                        run,
                        class: Label::new(&incident.class),
                        severity: Label::new(incident.severity.as_str()),
                        site,
                        sites,
                    },
                );
                let accepted = self.queue.enqueue(run, now_ms);
                debug_assert!(accepted, "fresh run already queued");
                run
            }
            OpenOutcome::Folded(run, duplicates) => {
                self.record(now_ms, Event::OpsDedup { run, duplicates });
                run
            }
        }
    }

    /// Advances the engine: expires leases (redelivery / dead-letter),
    /// times out stale reviews, grants new leases and drives the leased
    /// workflows until each blocks. Returns the commands the host must
    /// execute (see the module docs for the pump loop).
    pub fn tick(&mut self, now_ms: u64) -> Vec<OpsCommand> {
        let mut out = Vec::new();
        let qt = self.queue.tick(now_ms);
        for &(run, deliveries) in &qt.dead {
            self.record(now_ms, Event::OpsDeadLetter { run, deliveries });
            self.store.record_dead_letter(run, deliveries);
            self.forget(run);
        }
        for &(run, _) in &qt.expired {
            // The abandoned attempt's commands can no longer complete.
            if let Some(ctl) = self.ctl.get_mut(&run) {
                for id in ctl.pending.drain(..) {
                    self.outstanding.remove(&id);
                }
                ctl.failed = false;
                ctl.awaiting_review = false;
            }
        }
        // Review timeouts: nobody answered the gate — escalate.
        let timed_out: Vec<u64> = self
            .ctl
            .iter()
            .filter(|(_, c)| c.awaiting_review && c.review_deadline <= now_ms)
            .map(|(&run, _)| run)
            .collect();
        for run in timed_out {
            self.record(
                now_ms,
                Event::OpsGate {
                    run,
                    decision: Label::new("timeout"),
                    auto: true,
                },
            );
            self.store.record_gate(run, "timeout", true);
            let attempt = self.ctl[&run].attempt;
            self.transit(run, now_ms, Step::Gate, Step::Escalate, attempt, false);
        }
        for _ in 0..MAX_LEASES_PER_TICK {
            let Some((run, delivery)) = self.queue.lease(now_ms) else {
                break;
            };
            self.record(now_ms, Event::OpsLease { run, delivery });
            self.store.record_lease(run, delivery);
            self.ensure_ctl(run);
            self.drive(run, now_ms, &mut out);
        }
        out
    }

    /// Reports a command outcome. Returns follow-on commands (the next
    /// step's actions when this completion finished a step). Stale
    /// completions — the command's lease expired or its run settled —
    /// are ignored and return no commands.
    pub fn complete(&mut self, cmd_id: u64, ok: bool, now_ms: u64) -> Vec<OpsCommand> {
        let mut out = Vec::new();
        let Some(run) = self.outstanding.remove(&cmd_id) else {
            return out;
        };
        let Some(ctl) = self.ctl.get_mut(&run) else {
            return out;
        };
        ctl.pending.retain(|&id| id != cmd_id);
        if !ok {
            ctl.failed = true;
        }
        if !ctl.pending.is_empty() {
            return out;
        }
        // Progress resets the abandonment clock.
        self.queue
            .extend_until(run, now_ms + self.config.queue.visibility_timeout_ms);
        let ctl = self.ctl.get_mut(&run).expect("ctl checked above");
        let (step, attempt, failed) = (ctl.step, ctl.attempt, ctl.failed);
        ctl.failed = false;
        if failed {
            self.fail_step(run, now_ms, step, attempt);
            return out;
        }
        match step {
            Step::Contain => {
                self.transit(run, now_ms, Step::Contain, Step::Gate, attempt, true);
                if !self.settled(run) {
                    self.ctl.get_mut(&run).expect("live run").attempt = 1;
                    self.drive(run, now_ms, &mut out);
                }
            }
            Step::Remediate => {
                self.ctl.get_mut(&run).expect("live run").remediated_at_ms = now_ms;
                self.transit(run, now_ms, Step::Remediate, Step::Verify, attempt, true);
                self.ctl.get_mut(&run).expect("live run").attempt = 1;
                self.drive(run, now_ms, &mut out);
            }
            Step::Verify => {
                let class = self.ctl[&run].class.clone();
                self.transit(run, now_ms, Step::Verify, Step::Close, attempt, true);
                // Fire-and-forget: no outstanding entry, no completion.
                let id = self.next_cmd;
                self.next_cmd += 1;
                out.push(OpsCommand {
                    id,
                    run,
                    action: Action::MitigateRisk { class },
                });
            }
            other => unreachable!("completion in non-command step {}", other.as_str()),
        }
        out
    }

    /// Delivers an explicit reviewer verdict for a run awaiting its
    /// gate. Returns follow-on commands (remediation on approve).
    /// Ignored (empty) when the run is not awaiting review.
    pub fn review(&mut self, run: u64, decision: GateDecision, now_ms: u64) -> Vec<OpsCommand> {
        let mut out = Vec::new();
        let Some(ctl) = self.ctl.get_mut(&run) else {
            return out;
        };
        if !ctl.awaiting_review {
            return out;
        }
        ctl.awaiting_review = false;
        let attempt = ctl.attempt;
        self.record(
            now_ms,
            Event::OpsGate {
                run,
                decision: Label::new(decision.as_str()),
                auto: false,
            },
        );
        self.store.record_gate(run, decision.as_str(), false);
        match decision {
            GateDecision::Approve => {
                self.transit(run, now_ms, Step::Gate, Step::Remediate, attempt, true);
                self.ctl.get_mut(&run).expect("live run").attempt = 1;
                self.drive(run, now_ms, &mut out);
            }
            GateDecision::Reject => {
                self.transit(run, now_ms, Step::Gate, Step::Escalate, attempt, true);
            }
        }
        out
    }

    /// Runs currently blocked on an explicit review, in run-id order.
    #[must_use]
    pub fn pending_reviews(&self) -> Vec<u64> {
        self.ctl
            .iter()
            .filter(|(_, c)| c.awaiting_review)
            .map(|(&run, _)| run)
            .collect()
    }

    /// `true` when no work remains: the queue holds nothing and every
    /// opened run has settled.
    #[must_use]
    pub fn idle(&self) -> bool {
        self.queue.ready_len() == 0 && self.queue.in_flight_len() == 0 && self.ctl.is_empty()
    }

    /// The audit-trail run store.
    #[must_use]
    pub fn store(&self) -> &RunStore {
        &self.store
    }

    /// Queue accounting counters.
    #[must_use]
    pub fn queue_counters(&self) -> QueueCounters {
        self.queue.counters()
    }

    /// The queue's conservation invariant (see
    /// [`DurableQueue::conserves`]).
    #[must_use]
    pub fn queue_conserves(&self) -> bool {
        self.queue.conserves()
    }

    // -- internals ----------------------------------------------------

    fn ensure_ctl(&mut self, run: u64) {
        if self.ctl.contains_key(&run) {
            return;
        }
        // Rebuild working memory from the durable record (first lease,
        // or an engine that lost its state between leases).
        let record = self.store.run(run).expect("leased run recorded");
        let severity =
            Severity::from_str_name(&record.severity).expect("store severities are canonical");
        self.ctl.insert(
            run,
            RunCtl {
                step: record.state,
                attempt: 1,
                class: record.class.clone(),
                severity,
                site: record.site,
                plan: derive_plan(&record.class, record.site),
                consulted: false,
                replanned: false,
                pending: Vec::new(),
                failed: false,
                awaiting_review: false,
                review_deadline: 0,
                remediated_at_ms: record.opened_at_ms,
            },
        );
    }

    /// Drives `run` from its current step until it blocks on commands,
    /// a review, or settles.
    fn drive(&mut self, run: u64, now_ms: u64, out: &mut Vec<OpsCommand>) {
        loop {
            let Some(ctl) = self.ctl.get(&run) else {
                return; // settled
            };
            if !ctl.pending.is_empty() || ctl.awaiting_review {
                return; // blocked
            }
            match ctl.step {
                Step::Triage => {
                    let attempt = ctl.attempt;
                    if ctl.severity == Severity::Low {
                        // Informational: log-only, no automated response.
                        self.transit(run, now_ms, Step::Triage, Step::Reject, attempt, true);
                        return;
                    }
                    self.transit(run, now_ms, Step::Triage, Step::Contain, attempt, true);
                    if self.settled(run) {
                        return;
                    }
                    self.ctl.get_mut(&run).expect("live run").attempt = 1;
                }
                Step::Contain => {
                    let actions = self.ctl[&run].plan.contain.clone();
                    self.issue(run, now_ms, actions, out);
                    return;
                }
                Step::Gate => {
                    let severity = ctl.severity;
                    let attempt = ctl.attempt;
                    match self.config.gate.auto_decision(severity) {
                        Some(decision) => {
                            self.record(
                                now_ms,
                                Event::OpsGate {
                                    run,
                                    decision: Label::new(decision.as_str()),
                                    auto: true,
                                },
                            );
                            self.store.record_gate(run, decision.as_str(), true);
                            match decision {
                                GateDecision::Approve => {
                                    self.transit(
                                        run,
                                        now_ms,
                                        Step::Gate,
                                        Step::Remediate,
                                        attempt,
                                        true,
                                    );
                                    if self.settled(run) {
                                        return;
                                    }
                                    self.ctl.get_mut(&run).expect("live run").attempt = 1;
                                }
                                GateDecision::Reject => {
                                    self.transit(
                                        run,
                                        now_ms,
                                        Step::Gate,
                                        Step::Escalate,
                                        attempt,
                                        true,
                                    );
                                    return;
                                }
                            }
                        }
                        None => {
                            let ctl = self.ctl.get_mut(&run).expect("live run");
                            ctl.awaiting_review = true;
                            ctl.review_deadline = now_ms + self.config.gate.review_timeout_ms;
                            let deadline = ctl.review_deadline;
                            // Hold the lease across the whole review
                            // window so the gate, not the queue, owns
                            // the timeout.
                            self.queue.extend_until(
                                run,
                                deadline + self.config.queue.visibility_timeout_ms,
                            );
                            return;
                        }
                    }
                }
                Step::Remediate => {
                    self.issue(run, now_ms, vec![Action::OtaRollout], out);
                    return;
                }
                Step::Verify => {
                    let class = ctl.class.clone();
                    let since_ms = ctl.remediated_at_ms;
                    self.issue(
                        run,
                        now_ms,
                        vec![Action::CheckQuiet { class, since_ms }],
                        out,
                    );
                    return;
                }
                terminal => unreachable!("driving terminal step {}", terminal.as_str()),
            }
        }
    }

    /// Issues one attempt's commands and blocks the run on them.
    fn issue(&mut self, run: u64, now_ms: u64, actions: Vec<Action>, out: &mut Vec<OpsCommand>) {
        debug_assert!(!actions.is_empty(), "steps always have actions");
        let ctl = self.ctl.get_mut(&run).expect("live run");
        for action in actions {
            let id = self.next_cmd;
            self.next_cmd += 1;
            ctl.pending.push(id);
            self.outstanding.insert(id, run);
            out.push(OpsCommand { id, run, action });
        }
        self.queue
            .extend_until(run, now_ms + self.config.queue.visibility_timeout_ms);
    }

    /// Handles a failed step attempt: climbs the ladder, records the
    /// matching transition, and either re-queues the run (retry /
    /// consult / re-plan, with the queue's nack backoff as the
    /// deterministic delay) or escalates / dead-letters it.
    fn fail_step(&mut self, run: u64, now_ms: u64, step: Step, attempt: u32) {
        let ctl = self.ctl.get(&run).expect("live run");
        let mut action = LadderAction::on_failure(attempt);
        // Each advisory rung is taken at most once per run; a rung
        // already spent falls through to the next.
        if action == LadderAction::Consult && ctl.consulted {
            action = LadderAction::Replan;
        }
        if action == LadderAction::Replan && ctl.replanned {
            action = LadderAction::Escalate;
        }
        match action {
            LadderAction::Retry | LadderAction::Consult => {
                self.transit(run, now_ms, step, step, attempt, false);
                if self.settled(run) {
                    return;
                }
                let ctl = self.ctl.get_mut(&run).expect("live run");
                ctl.attempt += 1;
                if action == LadderAction::Consult {
                    // Consult = re-derive the plan from current state.
                    ctl.consulted = true;
                    ctl.plan = derive_plan(&ctl.class.clone(), ctl.site);
                }
                self.requeue(run, now_ms);
            }
            LadderAction::Replan => {
                if step == Step::Verify {
                    // Verification keeps failing: the fix did not take.
                    // Fall back to remediation with a widened plan.
                    self.transit(run, now_ms, Step::Verify, Step::Remediate, attempt, false);
                    if self.settled(run) {
                        return;
                    }
                    let ctl = self.ctl.get_mut(&run).expect("live run");
                    ctl.replanned = true;
                    ctl.attempt = 1;
                    let (class, site) = (ctl.class.clone(), ctl.site);
                    widen_plan(&mut ctl.plan, &class, site);
                    self.requeue(run, now_ms);
                } else {
                    self.transit(run, now_ms, step, step, attempt, false);
                    if self.settled(run) {
                        return;
                    }
                    let ctl = self.ctl.get_mut(&run).expect("live run");
                    ctl.replanned = true;
                    ctl.attempt += 1;
                    let (class, site) = (ctl.class.clone(), ctl.site);
                    widen_plan(&mut ctl.plan, &class, site);
                    self.requeue(run, now_ms);
                }
            }
            LadderAction::Escalate => {
                self.transit(run, now_ms, step, Step::Escalate, attempt, false);
            }
        }
    }

    /// Nacks the run back to the queue for a backed-off redelivery;
    /// dead-letters it when the delivery budget is spent.
    fn requeue(&mut self, run: u64, now_ms: u64) {
        if !self.queue.nack(run, now_ms) {
            let deliveries = self
                .queue
                .dead_letters()
                .iter()
                .find(|&&(r, _)| r == run)
                .map_or(0, |&(_, d)| d);
            self.record(now_ms, Event::OpsDeadLetter { run, deliveries });
            self.store.record_dead_letter(run, deliveries);
            self.forget(run);
        }
    }

    /// Commits a transition to the store and the trace; settles the run
    /// when the transition is terminal.
    fn transit(&mut self, run: u64, now_ms: u64, from: Step, to: Step, attempt: u32, ok: bool) {
        self.record(
            now_ms,
            Event::OpsStep {
                run,
                from: Label::new(from.as_str()),
                to: Label::new(to.as_str()),
                attempt,
                ok,
            },
        );
        self.store.record_transition(
            run,
            Transition {
                at_ms: now_ms,
                from,
                to,
                attempt,
                ok,
            },
        );
        if to.is_terminal() {
            self.queue.ack(run);
            self.forget(run);
        } else if let Some(ctl) = self.ctl.get_mut(&run) {
            ctl.step = to;
        }
    }

    /// `true` when the run no longer has live control state.
    fn settled(&self, run: u64) -> bool {
        !self.ctl.contains_key(&run)
    }

    /// Drops all live state for a settled or dead-lettered run. Its
    /// outstanding commands are exactly its `pending` ids.
    fn forget(&mut self, run: u64) {
        if let Some(ctl) = self.ctl.remove(&run) {
            for id in ctl.pending {
                self.outstanding.remove(&id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incident::IncidentScope;
    use silvasec_sim::rng::hash3;
    use silvasec_telemetry::EventFilter;

    fn incident(class: &str, severity: Severity, scope: IncidentScope) -> Incident {
        Incident {
            class: class.to_string(),
            severity,
            scope,
            detected_at_ms: 0,
        }
    }

    struct Harness {
        engine: OpsEngine,
        recorder: Recorder,
        sub: silvasec_telemetry::SubscriberId,
        now: u64,
    }

    impl Harness {
        fn new(config: OpsConfig) -> Self {
            let recorder = Recorder::new();
            let sub = recorder.subscribe_filtered("ops", 1 << 16, EventFilter::security());
            Harness {
                engine: OpsEngine::new(config, recorder.clone()),
                recorder,
                sub,
                now: 0,
            }
        }

        /// Ticks once and completes every command with `verdict(action)`.
        fn pump(&mut self, verdict: &mut dyn FnMut(&Action) -> bool) {
            let mut cmds = self.engine.tick(self.now);
            while let Some(cmd) = cmds.pop() {
                if matches!(cmd.action, Action::MitigateRisk { .. }) {
                    continue;
                }
                let ok = verdict(&cmd.action);
                cmds.extend(self.engine.complete(cmd.id, ok, self.now));
            }
        }

        /// Pumps with all-succeed until idle or `max_ticks` elapse.
        fn run_to_idle(&mut self, verdict: &mut dyn FnMut(&Action) -> bool, max_ticks: u32) {
            for _ in 0..max_ticks {
                if self.engine.idle() {
                    return;
                }
                self.pump(verdict);
                self.now += 500;
            }
            panic!("engine not idle after {max_ticks} ticks");
        }

        fn trace(&self) -> String {
            self.recorder.export_jsonl(self.sub)
        }
    }

    #[test]
    fn happy_path_closes_and_replays() {
        let mut h = Harness::new(OpsConfig::default());
        let run = h.engine.enqueue_incident(
            &incident("jamming", Severity::High, IncidentScope::Site(3)),
            0,
        );
        let mut seen = Vec::new();
        h.run_to_idle(
            &mut |a| {
                seen.push(a.clone());
                true
            },
            100,
        );
        let record = h.engine.store().run(run).unwrap();
        assert_eq!(record.state, Step::Close);
        assert_eq!(record.gate, Some(("approve".to_string(), true)));
        assert!(seen.contains(&Action::QuarantineSite { site: 3 }));
        assert!(seen.contains(&Action::OtaRollout));
        assert!(seen.iter().any(|a| matches!(a, Action::CheckQuiet { .. })));
        // Replay the trace: digest-identical store.
        let replayed = RunStore::replay_from_jsonl(&h.trace()).unwrap();
        assert_eq!(replayed.digest(), h.engine.store().digest());
        assert_eq!(h.engine.store().first_divergence(&replayed), None);
        assert!(h.engine.queue_conserves());
    }

    #[test]
    fn low_severity_rejects_at_triage() {
        let mut h = Harness::new(OpsConfig::default());
        let run = h.engine.enqueue_incident(
            &incident("rogue-association", Severity::Low, IncidentScope::Site(1)),
            0,
        );
        h.run_to_idle(&mut |_| true, 10);
        assert_eq!(h.engine.store().run(run).unwrap().state, Step::Reject);
        assert_eq!(h.engine.store().counters().rejected, 1);
    }

    #[test]
    fn dedup_folds_while_open_reopens_after_close() {
        let mut h = Harness::new(OpsConfig::default());
        let inc = incident("jamming", Severity::High, IncidentScope::Site(3));
        let run = h.engine.enqueue_incident(&inc, 0);
        assert_eq!(h.engine.enqueue_incident(&inc, 10), run);
        assert_eq!(h.engine.store().run(run).unwrap().duplicates, 1);
        h.run_to_idle(&mut |_| true, 100);
        let run2 = h.engine.enqueue_incident(&inc, h.now);
        assert_ne!(run, run2);
        assert_eq!(h.engine.store().counters().opened, 2);
    }

    #[test]
    fn persistent_failure_climbs_ladder_to_escalate() {
        let config = OpsConfig {
            queue: QueueConfig {
                max_deliveries: 32, // keep dead-letter out of the way
                ..QueueConfig::default()
            },
            ..OpsConfig::default()
        };
        let mut h = Harness::new(config);
        let run = h.engine.enqueue_incident(
            &incident("jamming", Severity::High, IncidentScope::Site(3)),
            0,
        );
        // Containment always fails.
        h.run_to_idle(&mut |a| !matches!(a, Action::QuarantineSite { .. }), 500);
        let record = h.engine.store().run(run).unwrap();
        assert_eq!(record.state, Step::Escalate);
        // Ladder: 2 retries + consult + replan = 4 failed self-loops,
        // then the escalate edge.
        let self_loops = record
            .transitions
            .iter()
            .filter(|t| t.from == Step::Contain && t.to == Step::Contain && !t.ok)
            .count();
        assert_eq!(self_loops, 4);
        assert_eq!(h.engine.store().counters().escalated, 1);
        // The replan widened containment to quarantine-reporting.
        let replayed = RunStore::replay_from_jsonl(&h.trace()).unwrap();
        assert_eq!(replayed.digest(), h.engine.store().digest());
    }

    #[test]
    fn critical_fleet_incident_waits_for_review_and_reject_escalates() {
        let mut h = Harness::new(OpsConfig::default());
        let run = h.engine.enqueue_incident(
            &incident(
                "gnss-spoofing",
                Severity::Critical,
                IncidentScope::Fleet { sites: 5 },
            ),
            0,
        );
        // Pump until the gate blocks.
        for _ in 0..20 {
            h.pump(&mut |_| true);
            h.now += 500;
            if h.engine.pending_reviews() == vec![run] {
                break;
            }
        }
        assert_eq!(h.engine.pending_reviews(), vec![run]);
        assert_eq!(h.engine.store().run(run).unwrap().state, Step::Gate);
        let cmds = h.engine.review(run, GateDecision::Reject, h.now);
        assert!(cmds.is_empty());
        let record = h.engine.store().run(run).unwrap();
        assert_eq!(record.state, Step::Escalate);
        assert_eq!(record.gate, Some(("reject".to_string(), false)));
        let replayed = RunStore::replay_from_jsonl(&h.trace()).unwrap();
        assert_eq!(replayed.digest(), h.engine.store().digest());
    }

    #[test]
    fn unanswered_review_times_out_to_escalate() {
        let config = OpsConfig {
            gate: GatePolicy {
                auto_approve_max: None,
                review_timeout_ms: 3_000,
            },
            ..OpsConfig::default()
        };
        let mut h = Harness::new(config);
        let run = h.engine.enqueue_incident(
            &incident("jamming", Severity::High, IncidentScope::Site(1)),
            0,
        );
        h.run_to_idle(&mut |_| true, 100);
        let record = h.engine.store().run(run).unwrap();
        assert_eq!(record.state, Step::Escalate);
        assert_eq!(record.gate, Some(("timeout".to_string(), true)));
    }

    #[test]
    fn abandoned_commands_redeliver_and_exhaustion_dead_letters() {
        let config = OpsConfig {
            queue: QueueConfig {
                visibility_timeout_ms: 1_000,
                max_deliveries: 3,
                backoff_base_ms: 100,
                backoff_jitter_ms: 50,
            },
            ..OpsConfig::default()
        };
        let mut h = Harness::new(config);
        let run = h.engine.enqueue_incident(
            &incident("jamming", Severity::High, IncidentScope::Site(1)),
            0,
        );
        // Never complete any command: every lease expires.
        for _ in 0..200 {
            let _ = h.engine.tick(h.now);
            h.now += 500;
            if h.engine.idle() {
                break;
            }
        }
        assert!(h.engine.idle(), "dead-letter settles the run");
        let record = h.engine.store().run(run).unwrap();
        assert!(record.dead_lettered);
        assert_eq!(record.deliveries, 3);
        assert_eq!(h.engine.store().counters().dead_lettered, 1);
        assert_eq!(h.engine.queue_counters().dead_lettered, 1);
        assert!(h.engine.queue_conserves());
        let replayed = RunStore::replay_from_jsonl(&h.trace()).unwrap();
        assert_eq!(replayed.digest(), h.engine.store().digest());
    }

    #[test]
    fn failed_verify_replans_back_to_remediate() {
        let mut quiet_checks = 0u32;
        let mut h = Harness::new(OpsConfig::default());
        let run = h.engine.enqueue_incident(
            &incident("jamming", Severity::High, IncidentScope::Site(1)),
            0,
        );
        h.run_to_idle(
            &mut |a| match a {
                Action::CheckQuiet { .. } => {
                    quiet_checks += 1;
                    // Quiet only after the re-remediation.
                    quiet_checks > 4
                }
                _ => true,
            },
            2_000,
        );
        let record = h.engine.store().run(run).unwrap();
        assert_eq!(record.state, Step::Close);
        assert!(
            record
                .transitions
                .iter()
                .any(|t| t.from == Step::Verify && t.to == Step::Remediate),
            "replan edge taken"
        );
        let replayed = RunStore::replay_from_jsonl(&h.trace()).unwrap();
        assert_eq!(replayed.digest(), h.engine.store().digest());
    }

    #[test]
    fn same_seed_runs_are_byte_identical() {
        let run_once = || {
            let mut h = Harness::new(OpsConfig::default());
            for site in 0..10u32 {
                h.engine.enqueue_incident(
                    &incident("jamming", Severity::High, IncidentScope::Site(site)),
                    0,
                );
            }
            // Deterministic flakiness: fail quarantines on odd sites once.
            let mut h2 = 0u64;
            h.run_to_idle(
                &mut |a| {
                    h2 = h2.wrapping_add(1);
                    !matches!(a, Action::QuarantineSite { site } if site % 2 == 1 && h2.is_multiple_of(3))
                },
                2_000,
            );
            (h.engine.store().digest(), h.trace())
        };
        let (d1, t1) = run_once();
        let (d2, t2) = run_once();
        assert_eq!(d1, d2);
        assert_eq!(t1, t2);
    }

    /// `outstanding` holds exactly the live runs' `pending` ids.
    fn assert_outstanding_is_pending(engine: &OpsEngine) {
        let mut pending: Vec<(u64, u64)> = engine
            .ctl
            .iter()
            .flat_map(|(&run, ctl)| ctl.pending.iter().map(move |&id| (id, run)))
            .collect();
        pending.sort_unstable();
        let outstanding: Vec<(u64, u64)> = engine
            .outstanding
            .iter()
            .map(|(&id, &run)| (id, run))
            .collect();
        assert_eq!(outstanding, pending);
    }

    #[test]
    fn outstanding_commands_are_the_live_runs_pending_ids() {
        let config = OpsConfig {
            queue: QueueConfig {
                visibility_timeout_ms: 1_500,
                max_deliveries: 3,
                backoff_base_ms: 100,
                backoff_jitter_ms: 50,
            },
            ..OpsConfig::default()
        };
        let mut h = Harness::new(config);
        for site in 0..24u32 {
            h.engine.enqueue_incident(
                &incident("jamming", Severity::High, IncidentScope::Site(site)),
                0,
            );
        }
        for class in ["replay", "gnss-spoofing"] {
            h.engine.enqueue_incident(
                &incident(class, Severity::High, IncidentScope::Fleet { sites: 4 }),
                0,
            );
        }
        // Flaky host: by a hash of the command id, a command fails, or
        // is held back 1 to 4 ticks (past its 3-tick lease, or not),
        // or succeeds at once.
        let mut held: Vec<(u64, u64)> = Vec::new();
        let (mut stale, mut tick) = (0u32, 0u64);
        while !h.engine.idle() {
            assert!(tick < 400, "engine not idle after 400 ticks");
            let mut cmds = h.engine.tick(h.now);
            assert_outstanding_is_pending(&h.engine);
            let (due, later) = held.into_iter().partition(|&(at, _)| at <= tick);
            held = later;
            let mut done: Vec<(u64, bool)> = due.into_iter().map(|(_, id)| (id, true)).collect();
            loop {
                while let Some(cmd) = cmds.pop() {
                    if matches!(cmd.action, Action::MitigateRisk { .. }) {
                        continue;
                    }
                    match hash3(cmd.id, 0, 0x0f1a) % 6 {
                        0 => done.push((cmd.id, false)),
                        1 => held.push((tick + 1 + hash3(cmd.id, 1, 0x0f1a) % 4, cmd.id)),
                        _ => done.push((cmd.id, true)),
                    }
                }
                let Some((id, ok)) = done.pop() else {
                    break;
                };
                stale += u32::from(!h.engine.outstanding.contains_key(&id));
                cmds = h.engine.complete(id, ok, h.now);
                assert_outstanding_is_pending(&h.engine);
            }
            h.now += 500;
            tick += 1;
        }
        assert!(h.engine.outstanding.is_empty());
        let (queue, store) = (h.engine.queue_counters(), h.engine.store().counters());
        assert!(
            queue.lease_expired > 0 && queue.dead_lettered > 0,
            "{queue:?}"
        );
        assert!(store.closed > 0 && store.dead_lettered > 0, "{store:?}");
        assert_eq!(store.settled(), store.opened);
        assert!(stale > 0, "no completion arrived after its lease expired");
        let replayed = RunStore::replay_from_jsonl(&h.trace()).unwrap();
        assert_eq!(replayed.digest(), h.engine.store().digest());
    }
}
