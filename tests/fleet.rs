//! Fleet OTA rollout and fleet security operations, end to end.
//!
//! Small fleets (2–4 sites) keep these affordable in debug mode; the
//! 64-site fleet is pinned by `fleet_64_rollout_trace_matches_its_pin`
//! in `tests/golden.rs`.

use serde::Serialize;
use silvasec::experiments::{fleet_config, run_fleet_rollout, FleetScenario};
use silvasec::fleet::Fleet;
use silvasec::prelude::*;

fn total_risk(fleet: &Fleet) -> u32 {
    fleet
        .risk()
        .report()
        .risks
        .iter()
        .map(|r| u32::from(r.risk.0))
        .sum()
}

#[test]
fn same_seed_fleet_traces_byte_identical() {
    let (report_a, trace_a) = run_fleet_rollout(3, 7, FleetScenario::Clean);
    let (report_b, trace_b) = run_fleet_rollout(3, 7, FleetScenario::Clean);
    assert!(!trace_a.is_empty());
    assert_eq!(trace_a, trace_b, "same seed must replay byte-identically");
    assert_eq!(
        serde_json::to_string(&report_a.serialize()).unwrap(),
        serde_json::to_string(&report_b.serialize()).unwrap()
    );
    // A different seed schedules differently (uplink ranges, chunk loss).
    let (_, trace_c) = run_fleet_rollout(3, 8, FleetScenario::Clean);
    assert_ne!(trace_a, trace_c, "different seeds must differ somewhere");
}

#[test]
fn clean_rollout_updates_every_site_and_lowers_risk() {
    let mut fleet = Fleet::new(fleet_config(3), 42);
    let baseline = total_risk(&fleet);

    // Field evidence first: a disclosed firmware vulnerability raises
    // fleet risk, which is what motivates the rollout.
    fleet.disclose_vulnerability("firmware-tampering");
    let disclosed = total_risk(&fleet);
    assert!(
        disclosed > baseline,
        "disclosure must raise fleet risk ({baseline} -> {disclosed})"
    );

    let report = fleet.run_rollout(2);
    assert!(report.completed, "{report:?}");
    assert_eq!(report.applied_sites, 3);
    assert_eq!(report.rejected_sites, 0);
    for site in 0..fleet.len() {
        assert_eq!(fleet.installed_version(site), 2);
    }

    // The completed rollout withdraws the escalation.
    let patched = total_risk(&fleet);
    assert!(
        patched < disclosed,
        "completed rollout must lower fleet risk ({disclosed} -> {patched})"
    );
}

/// A disclosure's escalation reaches the whole report, not only the
/// risk list: the escalated firmware-tampering risk derives its
/// requirement, and its interplay finding rates the escalated
/// feasibility.
#[test]
fn escalated_report_agrees_with_itself() {
    let mut fleet = Fleet::new(fleet_config(4), 11);
    fleet.disclose_vulnerability("update-tampering");
    let report = fleet.risk().report();
    let risk = report
        .risks
        .iter()
        .find(|r| r.threat_id == "ts.firmware-tamper")
        .expect("firmware tampering is assessed");
    assert_eq!(
        (risk.risk, risk.treatment, risk.feasibility),
        (RiskLevel(3), Treatment::Reduce, AttackFeasibility::Low)
    );
    assert!(
        report
            .requirements()
            .any(|r| r.id == "req.ts.firmware-tamper"),
        "a Reduce-treated risk derives its requirement"
    );
    let finding = report
        .interplay_findings
        .iter()
        .find(|f| f.threat_id == "ts.firmware-tamper" && f.hazard_id == "hz.runover")
        .expect("firmware tampering defeats the run-over stop");
    assert_eq!(finding.feasibility, AttackFeasibility::Low);
}

#[test]
fn tampered_bundle_rejected_on_every_site() {
    let (report, _) = run_fleet_rollout(3, 42, FleetScenario::Tampered);
    assert_eq!(report.applied_sites, 0, "{report:?}");
    assert_eq!(report.rejected_sites, 3, "{report:?}");

    // No site moved off the baseline firmware.
    let mut fleet = Fleet::new(fleet_config(3), 42);
    if let Some(campaign) = FleetScenario::Tampered.campaign() {
        fleet.schedule_fleet_attack(campaign);
    }
    let _ = fleet.run_rollout(2);
    for site in 0..fleet.len() {
        assert_eq!(fleet.installed_version(site), 1);
    }
}

#[test]
fn downgrade_rejected_on_every_site() {
    let (report, _) = run_fleet_rollout(3, 42, FleetScenario::Downgrade);
    assert_eq!(report.applied_sites, 0, "{report:?}");
    assert_eq!(report.rejected_sites, 3, "{report:?}");
    assert_eq!(
        report.reject_reasons.get("downgrade"),
        Some(&3),
        "{report:?}"
    );
}

#[test]
fn device_anti_rollback_is_the_second_line_of_defence() {
    // Even if the bundle-level version check were bypassed, the secure
    // boot device itself refuses firmware older than what it has run.
    let mut fleet = Fleet::new(fleet_config(1), 42);
    let report = fleet.run_rollout(2);
    assert!(report.completed);
    assert_eq!(fleet.installed_version(0), 2);

    let old = &fleet.backend().published()[0];
    assert_eq!(old.manifest.version, 1);
    let err = old
        .verify(
            fleet.backend().trust_store(),
            fleet.now().as_millis(),
            &[],
            silvasec::fleet::FLEET_COMPONENT,
            fleet.installed_version(0),
        )
        .unwrap_err();
    assert_eq!(err.reason(), "downgrade");
}

#[test]
fn poisoned_rollout_halts_after_canary_spike() {
    let (report, trace) = run_fleet_rollout(4, 42, FleetScenario::Poisoned);
    assert!(!report.completed, "{report:?}");
    assert_eq!(report.halted_at_wave, Some(0), "{report:?}");
    assert_eq!(
        report.applied_sites, 1,
        "only the canary may be exposed: {report:?}"
    );
    let detect_to_halt = report.detect_to_halt_ms.expect("halt carries timing");
    assert!(detect_to_halt < 30_000, "{detect_to_halt} ms");
    assert!(
        trace.contains("\"phase\":\"halt\"") || trace.contains("halt"),
        "the halt must be on the fleet security trace"
    );
}

#[test]
fn siem_correlates_same_class_across_sites() {
    let mut fleet = Fleet::new(fleet_config(3), 42);
    // The same deauth campaign hits every site: three local incidents
    // that the fleet SIEM must recognise as one coordinated campaign.
    fleet.schedule_fleet_attack(silvasec::experiments::campaign_for(
        AttackKind::DeauthFlood,
        SimTime::from_secs(5),
        SimDuration::from_secs(60),
    ));
    fleet.run(SimDuration::from_secs(90));
    assert!(
        !fleet.siem().campaigns().is_empty(),
        "3 sites reporting the same class within the window must correlate"
    );
    let campaign = &fleet.siem().campaigns()[0];
    assert_eq!(campaign.sites, 3);
    // The coordinated campaign and its risk escalation are both on the
    // fleet security trace.
    let trace = fleet.export_trace_jsonl();
    assert!(trace.contains("CampaignAlert"), "{trace}");
    assert!(trace.contains("RiskDelta"), "{trace}");
}
