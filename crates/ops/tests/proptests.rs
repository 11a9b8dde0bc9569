//! Property-based tests over the ops subsystem's invariants: queue
//! conservation under arbitrary host behavior, delivery budgets,
//! same-seed byte-identity, trace replay, and gate semantics.

use proptest::prelude::*;
use silvasec_ids::alert::Severity;
use silvasec_ops::{
    Action, DurableQueue, GateDecision, Incident, IncidentScope, OpsCommand, OpsConfig, OpsEngine,
    QueueConfig, RunStore,
};
use silvasec_sim::rng::hash3;
use silvasec_telemetry::{EventFilter, Recorder, SubscriberId};

const CLASSES: [&str; 4] = [
    "jamming",
    "gnss-spoofing",
    "auth-failure-storm",
    "rogue-association",
];
const SEVERITIES: [Severity; 4] = [
    Severity::Low,
    Severity::Medium,
    Severity::High,
    Severity::Critical,
];

/// A deterministic engine harness with a scripted executor: command
/// verdicts and review decisions are pure functions of `script`, so two
/// harnesses with equal inputs replay the same history.
struct Harness {
    engine: OpsEngine,
    recorder: Recorder,
    sub: SubscriberId,
    script: u64,
    verdicts: u64,
    now: u64,
}

impl Harness {
    fn new(config: OpsConfig, script: u64) -> Self {
        let recorder = Recorder::new();
        let sub = recorder.subscribe_filtered("ops-prop", 1 << 16, EventFilter::security());
        Harness {
            engine: OpsEngine::new(config, recorder.clone()),
            recorder,
            sub,
            script,
            verdicts: 0,
            now: 0,
        }
    }

    fn pump(&mut self, mut cmds: Vec<OpsCommand>) {
        while let Some(cmd) = cmds.pop() {
            if matches!(cmd.action, Action::MitigateRisk { .. }) {
                continue;
            }
            self.verdicts += 1;
            let ok = !hash3(self.script, self.verdicts, 0xF1).is_multiple_of(5);
            cmds.extend(self.engine.complete(cmd.id, ok, self.now));
        }
    }

    /// One scheduler round: scripted reviews, tick, scripted verdicts.
    fn round(&mut self) {
        for run in self.engine.pending_reviews() {
            let decision = if hash3(self.script, run, 0x6A7E).is_multiple_of(3) {
                GateDecision::Reject
            } else {
                GateDecision::Approve
            };
            let cmds = self.engine.review(run, decision, self.now);
            self.pump(cmds);
        }
        let cmds = self.engine.tick(self.now);
        self.pump(cmds);
        self.now += 500;
    }

    fn run_to_idle(&mut self, max_rounds: u32) {
        for _ in 0..max_rounds {
            if self.engine.idle() {
                return;
            }
            self.round();
        }
        panic!("engine not idle after {max_rounds} rounds");
    }

    fn trace(&self) -> String {
        self.recorder.export_jsonl(self.sub)
    }
}

fn incident(k: u64, at_ms: u64) -> Incident {
    let scope = if k.is_multiple_of(6) {
        IncidentScope::Fleet {
            sites: 2 + (k % 7) as u32,
        }
    } else {
        IncidentScope::Site((k % 23) as u32)
    };
    Incident {
        class: CLASSES[(k % 4) as usize].to_string(),
        severity: SEVERITIES[((k % 4) ^ (k % 3)) as usize % 4],
        scope,
        detected_at_ms: at_ms,
    }
}

proptest! {
    // ---------------- durable queue ----------------

    /// Conservation (`enqueued == acked + dead_lettered + ready +
    /// in_flight`) holds after every operation, whatever interleaving of
    /// enqueue / lease / ack / nack / time-advance the host performs —
    /// including acks and nacks for leases that already expired.
    #[test]
    fn queue_conserves_under_arbitrary_host_behavior(
        seed in any::<u64>(),
        ops in proptest::collection::vec(any::<u16>(), 1..120),
    ) {
        let config = QueueConfig {
            visibility_timeout_ms: 1_000,
            max_deliveries: 4,
            backoff_base_ms: 100,
            backoff_jitter_ms: 50,
        };
        let mut queue = DurableQueue::new(config, seed);
        let mut now = 0u64;
        let mut next_run = 0u64;
        let mut leased: Vec<u64> = Vec::new();
        for word in ops {
            // Decode one packed word into (operation, time jitter) —
            // the vendored proptest has no tuple strategies.
            let (op, jitter) = (word & 3, (word >> 2) & 0xFF);
            match op {
                0 => {
                    queue.enqueue(next_run, now);
                    next_run += 1;
                }
                1 => {
                    if let Some((run, delivery)) = queue.lease(now) {
                        prop_assert!(delivery <= config.max_deliveries);
                        leased.push(run);
                    }
                }
                2 => {
                    if let Some(run) = leased.pop() {
                        queue.ack(run); // may be stale — must be tolerated
                    }
                }
                _ => {
                    if let Some(run) = leased.pop() {
                        queue.nack(run, now); // may be stale too
                    }
                }
            }
            now += u64::from(jitter) * 17;
            let t = queue.tick(now);
            for (run, _) in t.expired.iter().chain(&t.dead) {
                leased.retain(|r| r != run);
            }
            prop_assert!(queue.conserves(), "counters: {:?}", queue.counters());
        }
    }

    /// A host that never completes anything dead-letters every message
    /// after exactly `max_deliveries` deliveries — none lost, none stuck.
    #[test]
    fn abandoned_messages_always_dead_letter_on_budget(
        seed in any::<u64>(),
        runs in 1u64..12,
        visibility in 200u64..2_000,
        max_deliveries in 1u32..6,
    ) {
        let config = QueueConfig {
            visibility_timeout_ms: visibility,
            max_deliveries,
            backoff_base_ms: 100,
            backoff_jitter_ms: 50,
        };
        let mut queue = DurableQueue::new(config, seed);
        for run in 0..runs {
            queue.enqueue(run, 0);
        }
        let mut now = 0u64;
        for _ in 0..10_000 {
            while queue.lease(now).is_some() {}
            queue.tick(now);
            now += visibility / 2 + 1;
            if queue.ready_len() == 0 && queue.in_flight_len() == 0 {
                break;
            }
        }
        let counters = queue.counters();
        prop_assert_eq!(counters.dead_lettered, runs);
        prop_assert_eq!(queue.dead_letters().len() as u64, runs);
        prop_assert!(queue.dead_letters().iter().all(|&(_, d)| d == max_deliveries));
        prop_assert!(queue.conserves());
    }

    // ---------------- engine ----------------

    /// Same seed, same incidents, same scripted host ⇒ byte-identical
    /// telemetry trace and run-store digest; and the store rebuilt from
    /// nothing but that trace is digest-identical to the live one.
    #[test]
    fn same_seed_history_is_byte_identical_and_replays(
        seed in any::<u64>(),
        script in any::<u64>(),
        arrivals in proptest::collection::vec(0u64..40, 1..25),
    ) {
        let run_once = || {
            let config = OpsConfig { seed, ..OpsConfig::default() };
            let mut h = Harness::new(config, script);
            for (i, &k) in arrivals.iter().enumerate() {
                // A few arrivals per round interleaved with scheduling.
                if i % 3 == 2 {
                    h.round();
                }
                let inc = incident(k, h.now);
                h.engine.enqueue_incident(&inc, h.now);
            }
            h.run_to_idle(5_000);
            prop_assert!(h.engine.queue_conserves());
            let counters = h.engine.store().counters();
            prop_assert_eq!(
                counters.settled() + counters.duplicates_folded,
                arrivals.len() as u64,
                "every report settled or folded"
            );
            Ok((h.engine.store().digest(), h.trace()))
        };
        let (digest_a, trace_a) = run_once()?;
        let (digest_b, trace_b) = run_once()?;
        prop_assert_eq!(digest_a, digest_b);
        prop_assert_eq!(&trace_a, &trace_b);
        let replayed = RunStore::replay_from_jsonl(&trace_a).unwrap();
        prop_assert_eq!(replayed.digest(), digest_a);
    }

    /// An explicit reject at the review gate always escalates the run —
    /// never remediates it — regardless of timing and incident shape.
    #[test]
    fn gate_reject_always_escalates(
        seed in any::<u64>(),
        k in any::<u64>(),
        delay_rounds in 0u32..8,
    ) {
        let config = OpsConfig {
            gate: silvasec_ops::GatePolicy {
                auto_approve_max: None, // every run needs a reviewer
                review_timeout_ms: 1_000_000,
            },
            seed,
            ..OpsConfig::default()
        };
        let mut h = Harness::new(config, 0);
        // Severity above Low so triage does not reject outright.
        let mut inc = incident(k, 0);
        inc.severity = Severity::High;
        let run = h.engine.enqueue_incident(&inc, 0);
        for _ in 0..200 {
            // All-succeed executor: drive to the gate, no ladder noise.
            let mut cmds = h.engine.tick(h.now);
            while let Some(cmd) = cmds.pop() {
                if matches!(cmd.action, Action::MitigateRisk { .. }) {
                    continue;
                }
                cmds.extend(h.engine.complete(cmd.id, true, h.now));
            }
            h.now += 500;
            if h.engine.pending_reviews().contains(&run) {
                break;
            }
        }
        prop_assert!(h.engine.pending_reviews().contains(&run), "run reaches its gate");
        for _ in 0..delay_rounds {
            let _ = h.engine.tick(h.now);
            h.now += 500;
        }
        let follow_on = h.engine.review(run, GateDecision::Reject, h.now);
        prop_assert!(follow_on.is_empty(), "reject must not issue remediation");
        let record = h.engine.store().run(run).unwrap();
        prop_assert_eq!(record.state, silvasec_ops::Step::Escalate);
        prop_assert_eq!(record.gate.clone(), Some(("reject".to_string(), false)));
        prop_assert!(h.engine.idle(), "rejected run is settled");
        // The audit trail of the rejection replays too.
        let replayed = RunStore::replay_from_jsonl(&h.trace()).unwrap();
        prop_assert_eq!(replayed.digest(), h.engine.store().digest());
    }
}
