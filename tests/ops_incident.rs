//! End-to-end incident response over the real fleet: a sustained
//! fleet-wide deauthentication flood correlates into a SIEM campaign,
//! the ops engine contains it (site quarantine, rollout halt), the
//! critical campaign run waits at its review gate, an approve drives
//! the deferred OTA remediation through the staged rollout machinery,
//! SIEM-quiet verification passes, and every run closes — with the
//! whole audit trail replaying byte-identically from the fleet's
//! security trace.

use silvasec::experiments::{run_fleet_ops_scenario, run_pathway_scenario, tara_ranking};
use silvasec::ops::{GateDecision, RunStore, Step, FLEET_SITE};
use silvasec::sim::time::SimDuration;
use silvasec::tara::HypothesisSet;
use silvasec::telemetry::{Event, Record};

#[test]
fn campaign_is_contained_reviewed_remediated_and_verified_closed() {
    let mut fleet = run_fleet_ops_scenario(4, 11);

    // The flood correlated into a coordinated campaign...
    assert!(
        !fleet.siem().campaigns().is_empty(),
        "deauth flood must correlate into a campaign"
    );
    // ...whose reporting sites containment quarantined, so their
    // subsequent alerts were withheld from the SIEM.
    assert!(
        !fleet.quarantined_sites().is_empty(),
        "containment quarantines the reporting sites"
    );
    assert!(
        fleet.ops_withheld_alerts() > 0,
        "quarantined sites stop feeding the SIEM"
    );

    // The critical campaign run is blocked at its review gate; the
    // High-severity per-site runs auto-approved and parked their OTA
    // remediations for the driver.
    let reviews = fleet.ops_pending_reviews();
    assert!(!reviews.is_empty(), "campaign run awaits explicit review");
    for run in reviews {
        fleet.ops_review(run, GateDecision::Approve);
    }
    assert!(
        fleet.ops_pending_remediations() > 0,
        "approved runs queue OTA remediations"
    );

    // Remediate: one rollout serves every parked command (clearing the
    // containment halt first), and verification re-checks the SIEM.
    let report = fleet
        .run_ops_remediations()
        .expect("parked remediations run a rollout");
    assert!(
        report.completed,
        "remediation rollout must complete: {report:?}"
    );
    assert!(fleet.installed_version(0) >= 2, "sites took the fix");

    // Drain the tail: runs opened by alerts near the end of the window
    // (or parked on a backoff redelivery) still need engine ticks, which
    // the fleet drives from its own clock. Keep the operator loop going
    // — review, remediate, advance — until the engine is idle.
    for _ in 0..20 {
        if fleet.ops().expect("ops enabled").idle() {
            break;
        }
        fleet.run(SimDuration::from_secs(10));
        for run in fleet.ops_pending_reviews() {
            fleet.ops_review(run, GateDecision::Approve);
        }
        fleet.run_ops_remediations();
    }

    // Every opened run settled without a dead letter (which `settled`
    // would count); the campaign run took the full arc through
    // containment, review, remediation and verification.
    let engine = fleet.ops().expect("ops enabled");
    let counters = engine.store().counters();
    assert!(counters.closed > 0, "verified closes: {counters:?}");
    assert_eq!(counters.dead_lettered, 0, "{counters:?}");
    assert_eq!(
        counters.settled(),
        counters.opened,
        "no runs left open: {counters:?}"
    );
    assert!(engine.idle());
    assert!(engine.queue_conserves());
    let campaign_run = engine
        .store()
        .runs()
        .find(|r| r.site == FLEET_SITE)
        .expect("fleet-scope campaign run recorded");
    assert_eq!(campaign_run.state, Step::Close);
    assert_eq!(
        campaign_run.gate,
        Some(("approve".to_string(), false)),
        "campaign gate decided by the explicit reviewer, not auto-policy"
    );
    assert!(
        campaign_run
            .transitions
            .iter()
            .any(|t| t.from == Step::Remediate && t.to == Step::Verify && t.ok),
        "remediation verified before close"
    );

    // The audit trail lands in the same fleet security trace as the
    // IDS/SIEM events, and rebuilds the run store byte-identically.
    let replayed = RunStore::replay_from_jsonl(&fleet.export_trace_jsonl()).expect("trace replays");
    assert_eq!(replayed.digest(), engine.store().digest());
    assert_eq!(engine.store().first_divergence(&replayed), None);
}

#[test]
fn rejected_review_escalates_instead_of_remediating() {
    let mut fleet = run_fleet_ops_scenario(4, 17);
    let reviews = fleet.ops_pending_reviews();
    assert!(!reviews.is_empty(), "campaign run awaits explicit review");
    let before = fleet.ops_pending_remediations();
    for run in &reviews {
        fleet.ops_review(*run, GateDecision::Reject);
    }
    assert_eq!(
        fleet.ops_pending_remediations(),
        before,
        "a rejected run must not queue remediation"
    );
    let engine = fleet.ops().expect("ops enabled");
    for run in reviews {
        let record = engine.store().run(run).expect("reviewed run recorded");
        assert_eq!(record.state, Step::Escalate);
        assert_eq!(record.gate, Some(("reject".to_string(), false)));
    }
    assert!(engine.store().counters().escalated >= 1);
}

/// The benchmark's pathway scenario (128 sites, 8 full) closes every
/// incident it opens: the parked remediations share one rollout that
/// finishes inside every lease, so nothing is redelivered or
/// dead-lettered. Its live TARA moves one hypothesis per attack class,
/// each move one trace event, and replays from the trace.
#[test]
fn pathway_closes_every_incident_it_opens() {
    for seed in [11, 29] {
        let run = run_pathway_scenario(128, 8, seed);

        // The flood and the replay campaigns confirm their classes; the
        // remediation's completed rollouts retire them and the
        // firmware-tampering class, each move covering 500 scenarios.
        let trace = run.fleet.export_trace_jsonl();
        assert_eq!(trace.lines().count(), 1_162, "seed {seed}");
        let tara_events: Vec<(u64, String, String, u32, u32)> = trace
            .lines()
            .filter_map(|line| {
                let record: Record = serde_json::from_str(line).ok()?;
                let Event::TaraHypothesis {
                    class,
                    phase,
                    sites,
                    scenarios,
                } = record.event
                else {
                    return None;
                };
                let at = record.at.as_millis();
                Some((at, class.to_string(), phase.to_string(), sites, scenarios))
            })
            .collect();
        let event = |at: u64, class: &str, phase: &str, sites: u32| {
            (at, class.to_string(), phase.to_string(), sites, 500)
        };
        assert_eq!(
            tara_events,
            [
                event(5_000, "replay", "confirm", 8),
                event(5_000, "deauth-flood", "confirm", 8),
                event(140_000, "firmware-tampering", "retire", 0),
                event(140_000, "deauth-flood", "retire", 0),
                event(140_000, "replay", "retire", 0),
            ],
            "seed {seed}"
        );
        let tara = run.fleet.tara().expect("pathway fleets run TARA");
        assert_eq!(tara.counts(), (2_500, 0, 1_500), "seed {seed}");
        let replayed = HypothesisSet::replay_from_jsonl(tara_ranking(seed), &trace)
            .expect("the TARA trace replays");
        assert_eq!(replayed.first_divergence(tara), None, "seed {seed}");

        // Containment's rollout halt stands when version 2 is requested:
        // the staged rollout is refused and publishes nothing, so the
        // backend holds only the baseline and the remediation's bundle.
        assert_eq!(run.v2.halted_at_wave, Some(0), "seed {seed}");
        assert_eq!(run.v2.bytes_on_air, 0, "seed {seed}");
        let published: Vec<u32> = run
            .fleet
            .backend()
            .published()
            .iter()
            .map(|b| b.manifest.version)
            .collect();
        assert_eq!(published, [1, 2], "seed {seed}");

        let engine = run.fleet.ops().expect("pathway fleets run ops");
        assert!(engine.idle(), "seed {seed}: ops not idle");
        let counters = engine.store().counters();
        assert_eq!(counters.dead_lettered, 0, "seed {seed}: {counters:?}");
        assert_eq!(engine.queue_counters().redelivered, 0, "seed {seed}");
        assert_eq!(
            counters.closed + counters.escalated,
            counters.opened,
            "seed {seed}: {counters:?}"
        );
        assert!(engine.queue_conserves(), "seed {seed}");

        // The remediation supersedes the halt and ships version 2.
        let [fix] = run.remediations.as_slice() else {
            panic!(
                "seed {seed}: one remediation rollout expected, got {}",
                run.remediations.len()
            );
        };
        assert!(fix.completed, "seed {seed}: {fix:?}");
        assert_eq!(fix.target_version, 2, "seed {seed}");
    }
}
