//! The replayable run store: the audit trail of every incident run.
//!
//! Runs are keyed by a deterministic run id derived from the canonical
//! incident hash ([`crate::incident::Incident::canonical_hash`]) and an
//! occurrence index. While a run is open, further reports of the same
//! identity *fold into it* (dedup) instead of opening a second run; a
//! closed identity that recurs opens a fresh run with the next
//! occurrence index.
//!
//! # Replay contract
//!
//! Every mutation of the store is mirrored 1:1 by an `Ops*` telemetry
//! event the engine records, and [`RunStore::replay_from_jsonl`]
//! rebuilds a store from nothing but those events. The contract —
//! asserted by `ops_load_settles_conserves_and_replays`, the ops
//! proptests and every round of the pathway benchmark —
//! is `replay(trace(live)).digest() == live.digest()`: the digest
//! covers every run's metadata and every step transition, so a live
//! store and its replay cannot silently disagree about anything the
//! audit trail records. [`RunStore::first_divergence`] is the
//! debugging counterpart: the first canonical line where two stores
//! disagree.

use crate::incident::{identity_hash, Incident, IncidentScope, FLEET_SITE};
use crate::workflow::Step;
use silvasec_crypto::sha256;
use silvasec_telemetry::{export::parse_jsonl_records, Event};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One committed step transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// Fleet milliseconds at which the transition was committed.
    pub at_ms: u64,
    /// Step transitioned from.
    pub from: Step,
    /// Step transitioned to (`from == to` records a failed attempt).
    pub to: Step,
    /// 1-based attempt number of the `from` step.
    pub attempt: u32,
    /// Whether the `from` step's action succeeded.
    pub ok: bool,
}

/// The full audit record of one incident run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunRecord {
    /// Deterministic run id.
    pub run: u64,
    /// Incident alert class.
    pub class: String,
    /// Severity label the run was opened with.
    pub severity: String,
    /// Affected site ([`FLEET_SITE`] = fleet scope).
    pub site: u32,
    /// Distinct sites involved.
    pub sites: u32,
    /// When the run was opened.
    pub opened_at_ms: u64,
    /// Duplicate reports folded into this run while it was open.
    pub duplicates: u32,
    /// Highest delivery attempt the queue granted for this run.
    pub deliveries: u32,
    /// Gate verdict `(decision, auto)` once decided.
    pub gate: Option<(String, bool)>,
    /// Every committed transition, in commit order.
    pub transitions: Vec<Transition>,
    /// Current (or final) step.
    pub state: Step,
    /// Whether the queue dead-lettered this run.
    pub dead_lettered: bool,
}

/// Monotonic run accounting. `opened == closed + escalated + rejected +
/// dead_lettered` once every run has settled — the "no incident lost,
/// none handled twice" ledger `ops_load_settles_conserves_and_replays`
/// and `pathway_closes_every_incident_it_opens` assert.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// Runs opened.
    pub opened: u64,
    /// Runs that reached `Close`.
    pub closed: u64,
    /// Runs that reached `Escalate`.
    pub escalated: u64,
    /// Runs that reached `Reject`.
    pub rejected: u64,
    /// Runs the queue dead-lettered.
    pub dead_lettered: u64,
    /// Duplicate reports folded into open runs.
    pub duplicates_folded: u64,
    /// Queue leases recorded (first deliveries and redeliveries).
    pub leases: u64,
}

impl StoreCounters {
    /// Runs that reached a settled outcome.
    #[must_use]
    pub fn settled(&self) -> u64 {
        self.closed + self.escalated + self.rejected + self.dead_lettered
    }
}

/// Outcome of [`RunStore::open_or_fold`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpenOutcome {
    /// A new run was opened.
    Opened(u64),
    /// The report folded into an already-open run; the second field is
    /// the run's updated duplicate count.
    Folded(u64, u32),
}

/// The run store.
#[derive(Debug, Clone, Default)]
pub struct RunStore {
    runs: BTreeMap<u64, RunRecord>,
    /// Next occurrence index per canonical incident identity.
    occurrences: BTreeMap<u64, u32>,
    /// Canonical identity → currently-open run.
    open_by_identity: BTreeMap<u64, u64>,
    counters: StoreCounters,
}

impl RunStore {
    /// Creates an empty store.
    #[must_use]
    pub fn new() -> Self {
        RunStore::default()
    }

    /// Opens a run for `incident`, or folds the report into the
    /// identity's already-open run.
    pub fn open_or_fold(&mut self, incident: &Incident, now_ms: u64) -> OpenOutcome {
        let canonical = incident.canonical_hash();
        if let Some(&run) = self.open_by_identity.get(&canonical) {
            let record = self.runs.get_mut(&run).expect("open run exists");
            record.duplicates += 1;
            // The recorded blast radius stays what the run was opened
            // with: the dedup telemetry event carries only the fold
            // count, so widening here would make live and replayed
            // stores disagree.
            self.counters.duplicates_folded += 1;
            return OpenOutcome::Folded(run, record.duplicates);
        }
        let occurrence = self.occurrences.entry(canonical).or_insert(0);
        let run = incident.run_id(*occurrence);
        *occurrence += 1;
        let (site, sites) = incident.scope.flatten();
        let previous = self.runs.insert(
            run,
            RunRecord {
                run,
                class: incident.class.clone(),
                severity: incident.severity.as_str().to_string(),
                site,
                sites,
                opened_at_ms: now_ms,
                duplicates: 0,
                deliveries: 0,
                gate: None,
                transitions: Vec::new(),
                state: Step::Triage,
                dead_lettered: false,
            },
        );
        assert!(previous.is_none(), "run id collision: {run:#018x}");
        self.open_by_identity.insert(canonical, run);
        self.counters.opened += 1;
        OpenOutcome::Opened(run)
    }

    /// Records a queue lease for `run`.
    ///
    /// # Panics
    ///
    /// Panics on an unknown run.
    pub fn record_lease(&mut self, run: u64, delivery: u32) {
        let record = self.runs.get_mut(&run).expect("lease for unknown run");
        record.deliveries = record.deliveries.max(delivery);
        self.counters.leases += 1;
    }

    /// Commits a step transition.
    ///
    /// # Panics
    ///
    /// Panics on an unknown run, a `from` that does not match the run's
    /// current state, or an edge outside [`Step::can_transition`] — the
    /// store is the typed backstop for the engine.
    pub fn record_transition(&mut self, run: u64, transition: Transition) {
        let record = self.runs.get_mut(&run).expect("transition for unknown run");
        assert_eq!(
            record.state,
            transition.from,
            "run {run:#018x}: transition from {} but state is {}",
            transition.from.as_str(),
            record.state.as_str()
        );
        assert!(
            transition.from.can_transition(transition.to),
            "run {run:#018x}: invalid edge {} -> {}",
            transition.from.as_str(),
            transition.to.as_str()
        );
        record.transitions.push(transition);
        record.state = transition.to;
        if transition.to.is_terminal() {
            match transition.to {
                Step::Close => self.counters.closed += 1,
                Step::Escalate => self.counters.escalated += 1,
                Step::Reject => self.counters.rejected += 1,
                _ => unreachable!(),
            }
            self.release_identity(run);
        }
    }

    /// Records the gate verdict for `run`.
    ///
    /// # Panics
    ///
    /// Panics on an unknown run or a second gate verdict.
    pub fn record_gate(&mut self, run: u64, decision: &str, auto: bool) {
        let record = self.runs.get_mut(&run).expect("gate for unknown run");
        assert!(record.gate.is_none(), "run {run:#018x}: gate decided twice");
        record.gate = Some((decision.to_string(), auto));
    }

    /// Records that the queue dead-lettered `run` after `deliveries`
    /// attempts.
    ///
    /// # Panics
    ///
    /// Panics on an unknown run.
    pub fn record_dead_letter(&mut self, run: u64, deliveries: u32) {
        let record = self
            .runs
            .get_mut(&run)
            .expect("dead-letter for unknown run");
        record.dead_lettered = true;
        record.deliveries = record.deliveries.max(deliveries);
        self.counters.dead_lettered += 1;
        self.release_identity(run);
    }

    /// Frees the canonical identity so a recurrence opens a new run,
    /// unless it already maps to a newer run of that identity.
    fn release_identity(&mut self, run: u64) {
        let record = &self.runs[&run];
        let identity = identity_hash(&record.class, record.site);
        if self.open_by_identity.get(&identity) == Some(&run) {
            self.open_by_identity.remove(&identity);
        }
    }

    /// The record for `run`, if any.
    #[must_use]
    pub fn run(&self, run: u64) -> Option<&RunRecord> {
        self.runs.get(&run)
    }

    /// All runs in run-id order.
    pub fn runs(&self) -> impl Iterator<Item = &RunRecord> {
        self.runs.values()
    }

    /// Number of runs in the store.
    #[must_use]
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// `true` when no run has been opened.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Runs still in a non-terminal step and not dead-lettered.
    #[must_use]
    pub fn open_runs(&self) -> usize {
        self.runs
            .values()
            .filter(|r| !r.state.is_terminal() && !r.dead_lettered)
            .count()
    }

    /// Monotonic accounting counters.
    #[must_use]
    pub fn counters(&self) -> StoreCounters {
        self.counters
    }

    /// The canonical text serialization the digest and differ operate
    /// on: one `run` header line per run (run-id order) followed by one
    /// indented line per transition, every field in a fixed order.
    #[must_use]
    pub fn canonical_text(&self) -> String {
        let mut out = String::new();
        for record in self.runs.values() {
            let gate = match &record.gate {
                Some((decision, auto)) => {
                    format!("{decision}/{}", if *auto { "auto" } else { "review" })
                }
                None => "none".to_string(),
            };
            let _ = writeln!(
                out,
                "run {:016x} class={} severity={} site={} sites={} opened={} dupes={} deliveries={} gate={} state={} dead={}",
                record.run,
                record.class,
                record.severity,
                record.site,
                record.sites,
                record.opened_at_ms,
                record.duplicates,
                record.deliveries,
                gate,
                record.state.as_str(),
                record.dead_lettered
            );
            for t in &record.transitions {
                let _ = writeln!(
                    out,
                    "  t {} {}->{} attempt={} ok={}",
                    t.at_ms,
                    t.from.as_str(),
                    t.to.as_str(),
                    t.attempt,
                    t.ok
                );
            }
        }
        out
    }

    /// SHA-256 over [`RunStore::canonical_text`].
    #[must_use]
    pub fn digest(&self) -> [u8; 32] {
        sha256::digest(self.canonical_text().as_bytes())
    }

    /// The first canonical line where `self` and `other` disagree:
    /// `(line number, self's line, other's line)` with `"<end>"`
    /// standing in for a missing line. `None` when the stores agree.
    #[must_use]
    pub fn first_divergence(&self, other: &RunStore) -> Option<(usize, String, String)> {
        let left = self.canonical_text();
        let right = other.canonical_text();
        let mut l = left.lines();
        let mut r = right.lines();
        let mut line = 0usize;
        loop {
            line += 1;
            match (l.next(), r.next()) {
                (None, None) => return None,
                (a, b) if a == b => {}
                (a, b) => {
                    return Some((
                        line,
                        a.unwrap_or("<end>").to_string(),
                        b.unwrap_or("<end>").to_string(),
                    ))
                }
            }
        }
    }

    /// Rebuilds a store from a telemetry JSONL trace, consuming only
    /// the `Ops*` events (everything else is skipped). The result is
    /// digest-identical to the live store that produced the trace —
    /// the replay half of the determinism contract.
    ///
    /// # Errors
    ///
    /// Returns a message when the trace fails to parse or the event
    /// stream violates the run-store protocol (e.g. a transition for a
    /// run that was never enqueued).
    pub fn replay_from_jsonl(trace: &str) -> Result<RunStore, String> {
        let records = parse_jsonl_records(trace).map_err(|e| format!("trace parse: {e:?}"))?;
        let mut store = RunStore::new();
        for record in records {
            let at_ms = record.at.as_millis();
            match record.event {
                Event::OpsEnqueue {
                    run,
                    class,
                    severity,
                    site,
                    sites,
                } => {
                    let incident = Incident {
                        class: class.as_str().to_string(),
                        severity: silvasec_ids::alert::Severity::from_str_name(severity.as_str())
                            .ok_or_else(|| {
                            format!("run {run:#018x}: unknown severity {severity}")
                        })?,
                        scope: if site == FLEET_SITE {
                            IncidentScope::Fleet { sites }
                        } else {
                            IncidentScope::Site(site)
                        },
                        detected_at_ms: at_ms,
                    };
                    match store.open_or_fold(&incident, at_ms) {
                        OpenOutcome::Opened(opened) if opened == run => {}
                        other => {
                            return Err(format!("run {run:#018x}: enqueue replayed as {other:?}"))
                        }
                    }
                }
                Event::OpsDedup { run, duplicates } => {
                    let rec = store
                        .runs
                        .get_mut(&run)
                        .ok_or_else(|| format!("dedup for unknown run {run:#018x}"))?;
                    rec.duplicates = rec.duplicates.max(duplicates);
                    store.counters.duplicates_folded += 1;
                }
                Event::OpsLease { run, delivery } => {
                    if !store.runs.contains_key(&run) {
                        return Err(format!("lease for unknown run {run:#018x}"));
                    }
                    store.record_lease(run, delivery);
                }
                Event::OpsStep {
                    run,
                    from,
                    to,
                    attempt,
                    ok,
                } => {
                    let from = Step::from_str_name(from.as_str())
                        .ok_or_else(|| format!("unknown step {from}"))?;
                    let to = Step::from_str_name(to.as_str())
                        .ok_or_else(|| format!("unknown step {to}"))?;
                    if !store.runs.contains_key(&run) {
                        return Err(format!("step for unknown run {run:#018x}"));
                    }
                    store.record_transition(
                        run,
                        Transition {
                            at_ms,
                            from,
                            to,
                            attempt,
                            ok,
                        },
                    );
                }
                Event::OpsGate {
                    run,
                    decision,
                    auto,
                } => {
                    if !store.runs.contains_key(&run) {
                        return Err(format!("gate for unknown run {run:#018x}"));
                    }
                    store.record_gate(run, decision.as_str(), auto);
                }
                Event::OpsDeadLetter { run, deliveries } => {
                    if !store.runs.contains_key(&run) {
                        return Err(format!("dead-letter for unknown run {run:#018x}"));
                    }
                    store.record_dead_letter(run, deliveries);
                }
                _ => {}
            }
        }
        Ok(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silvasec_ids::alert::Severity;

    fn incident(class: &str, site: u32) -> Incident {
        Incident {
            class: class.to_string(),
            severity: Severity::High,
            scope: IncidentScope::Site(site),
            detected_at_ms: 100,
        }
    }

    fn transition(from: Step, to: Step, at_ms: u64, ok: bool) -> Transition {
        Transition {
            at_ms,
            from,
            to,
            attempt: 1,
            ok,
        }
    }

    #[test]
    fn open_fold_and_reopen() {
        let mut store = RunStore::new();
        let site = incident("jamming", 3);
        let fleet = Incident {
            scope: IncidentScope::Fleet { sites: 3 },
            ..incident("jamming", 3)
        };
        for (i, inc) in [site, fleet].into_iter().enumerate() {
            let OpenOutcome::Opened(run) = store.open_or_fold(&inc, 100) else {
                panic!("first report opens");
            };
            assert_eq!(store.open_or_fold(&inc, 150), OpenOutcome::Folded(run, 1));
            assert_eq!(store.open_or_fold(&inc, 160), OpenOutcome::Folded(run, 2));
            // Close the run: the identity is free again.
            store.record_transition(run, transition(Step::Triage, Step::Reject, 200, true));
            let OpenOutcome::Opened(run2) = store.open_or_fold(&inc, 300) else {
                panic!("recurrence reopens");
            };
            assert_ne!(run, run2, "occurrence index separates the runs");
            // A late dead letter of the closed run leaves the identity
            // with the run that reopened it.
            store.record_dead_letter(run, 3);
            assert_eq!(store.open_or_fold(&inc, 400), OpenOutcome::Folded(run2, 1));
            assert_eq!(store.counters().opened, 2 * (i as u64 + 1));
        }
        assert_eq!(store.counters().duplicates_folded, 6);
    }

    #[test]
    #[should_panic(expected = "invalid edge")]
    fn invalid_edge_panics() {
        let mut store = RunStore::new();
        let OpenOutcome::Opened(run) = store.open_or_fold(&incident("jamming", 1), 0) else {
            panic!();
        };
        store.record_transition(run, transition(Step::Triage, Step::Verify, 10, true));
    }

    #[test]
    #[should_panic(expected = "state is")]
    fn stale_from_state_panics() {
        let mut store = RunStore::new();
        let OpenOutcome::Opened(run) = store.open_or_fold(&incident("jamming", 1), 0) else {
            panic!();
        };
        store.record_transition(run, transition(Step::Contain, Step::Gate, 10, true));
    }

    #[test]
    fn digest_and_divergence() {
        let mut a = RunStore::new();
        let mut b = RunStore::new();
        for store in [&mut a, &mut b] {
            let OpenOutcome::Opened(run) = store.open_or_fold(&incident("jamming", 1), 0) else {
                panic!();
            };
            store.record_lease(run, 1);
            store.record_transition(run, transition(Step::Triage, Step::Contain, 5, true));
        }
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.first_divergence(&b), None);
        let run = a.runs().next().unwrap().run;
        b.record_transition(run, transition(Step::Contain, Step::Gate, 9, true));
        assert_ne!(a.digest(), b.digest());
        // The run header diverges first: it carries the current state.
        let (line, left, right) = a.first_divergence(&b).unwrap();
        assert_eq!(line, 1);
        assert!(left.contains("state=contain"), "{left}");
        assert!(right.contains("state=gate"), "{right}");
    }

    #[test]
    fn settled_ledger() {
        let mut store = RunStore::new();
        let classes = ["a", "b", "c", "d"];
        let mut runs = Vec::new();
        for class in classes {
            let OpenOutcome::Opened(run) = store.open_or_fold(&incident(class, 1), 0) else {
                panic!();
            };
            runs.push(run);
        }
        store.record_transition(runs[0], transition(Step::Triage, Step::Reject, 1, true));
        store.record_transition(runs[1], transition(Step::Triage, Step::Escalate, 1, false));
        store.record_transition(runs[2], transition(Step::Triage, Step::Contain, 1, true));
        store.record_transition(runs[2], transition(Step::Contain, Step::Gate, 2, true));
        store.record_gate(runs[2], "approve", true);
        store.record_transition(runs[2], transition(Step::Gate, Step::Remediate, 3, true));
        store.record_transition(runs[2], transition(Step::Remediate, Step::Verify, 4, true));
        store.record_transition(runs[2], transition(Step::Verify, Step::Close, 5, true));
        store.record_dead_letter(runs[3], 6);
        let c = store.counters();
        assert_eq!(c.opened, 4);
        assert_eq!(c.settled(), 4);
        assert_eq!(
            (c.closed, c.escalated, c.rejected, c.dead_lettered),
            (1, 1, 1, 1)
        );
        assert_eq!(store.open_runs(), 0);
    }
}
