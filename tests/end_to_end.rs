//! End-to-end integration: the full chain from attack injection through
//! detection, response, continuous risk assessment and assurance-case
//! invalidation — the paper's whole story in one test file.

use silvasec::certify::{certify_worksite, Verdict};
use silvasec::experiments::{campaign_for, standard_config};
use silvasec::prelude::*;
use silvasec::risk::catalog;
use silvasec::risk::continuous::ContinuousAssessment;

#[test]
fn certification_pipeline_distinguishes_postures() {
    let hardened = certify_worksite(true);
    let undefended = certify_worksite(false);
    assert_eq!(hardened.verdict, Verdict::Pass);
    assert_ne!(undefended.verdict, Verdict::Pass);
    // Both assessed the same model.
    assert_eq!(hardened.risk_count, undefended.risk_count);
}

#[test]
fn attack_to_assurance_chain() {
    // 1. Run the hardened worksite under GNSS spoofing.
    let mut site = Worksite::new(&standard_config(SecurityPosture::secure()), 21);
    site.attack_engine_mut().add_campaign(campaign_for(
        AttackKind::GnssSpoofing,
        SimTime::from_secs(60),
        SimDuration::from_secs(150),
    ));
    site.run(SimDuration::from_secs(300));
    let metrics = site.metrics().clone();

    // 2. The IDS detected the spoof.
    let first_alert = metrics
        .first_alert_at
        .get("gnss-spoofing")
        .copied()
        .expect("gnss spoofing must be detected");
    assert!(first_alert >= SimTime::from_secs(60), "alert before onset");
    assert!(
        first_alert <= SimTime::from_secs(210),
        "alert too late: {first_alert}"
    );

    // 3. The incident escalates the matching risk in continuous
    //    assessment.
    let mut continuous = ContinuousAssessment::new(catalog::worksite_model());
    let before = continuous
        .report()
        .risks
        .iter()
        .find(|r| r.threat_id == "ts.gnss-spoofing")
        .unwrap()
        .risk;
    let changes = continuous.ingest("gnss-spoofing", first_alert.as_millis());
    assert!(!changes.is_empty(), "incident must change the risk picture");
    let after = continuous
        .report()
        .risks
        .iter()
        .find(|r| r.threat_id == "ts.gnss-spoofing")
        .unwrap()
        .risk;
    assert!(after > before);

    // 4. The assurance case flags the affected claims when the
    //    corresponding evidence class is invalidated.
    let tara = Tara::assess(&catalog::worksite_model());
    let mut case = build_security_case(&tara, "worksite");
    assert!(case.check().is_empty());
    let hit = case.invalidate_evidence_tagged("nav-consistency");
    assert!(hit > 0);
    let doubted = case.goals_in_doubt(first_alert.as_millis());
    assert!(doubted.iter().any(|g| g.0 == "G.ts.gnss-spoofing"));
    assert!(doubted.iter().any(|g| g.0 == "G.root"));
}

#[test]
fn safety_function_keeps_working_under_deauth_with_mfp() {
    // The collaborative drone feed runs over the radio; a de-auth attack
    // tries to sever it. With MFP the feed survives.
    let run = |posture: SecurityPosture| {
        let mut site = Worksite::new(&standard_config(posture), 22);
        site.attack_engine_mut().add_campaign(campaign_for(
            AttackKind::DeauthFlood,
            SimTime::from_secs(30),
            SimDuration::from_secs(200),
        ));
        site.run(SimDuration::from_secs(260));
        site.metrics().drone_feed_ratio()
    };
    let with_mfp = run(SecurityPosture::secure());
    let without_mfp = run(SecurityPosture::insecure());
    assert!(
        with_mfp > 0.7,
        "MFP should keep the drone feed up (got {with_mfp:.2})"
    );
    // Note: de-auth targets the forwarder↔bs association; the drone→fw
    // feed frames are data frames from the drone, so the undefended case
    // mainly loses telemetry. Verify telemetry instead for the contrast.
    let _ = without_mfp;
}

#[test]
fn deauth_breaks_telemetry_without_mfp_only() {
    let run = |posture: SecurityPosture| {
        let mut site = Worksite::new(&standard_config(posture), 23);
        site.attack_engine_mut().add_campaign(campaign_for(
            AttackKind::DeauthFlood,
            SimTime::from_secs(30),
            SimDuration::from_secs(200),
        ));
        site.run(SimDuration::from_secs(260));
        site.metrics().delivery_ratio()
    };
    let protected = run(SecurityPosture::secure());
    let unprotected = run(SecurityPosture::insecure());
    assert!(
        unprotected < protected - 0.2,
        "de-auth should gut unprotected telemetry: protected {protected:.2}, unprotected {unprotected:.2}"
    );
}

#[test]
fn firmware_tampering_blocked_at_boot() {
    use silvasec::sos::pki_setup::WorksitePki;
    let mut rng = SimRng::from_seed(31);
    let mut pki = WorksitePki::commission(&mut rng, 1_000_000);
    let mut creds = pki.commission_machine(
        "forwarder-01",
        ComponentRole::Forwarder,
        3,
        &mut rng,
        Validity::new(0, 500_000),
    );
    assert!(creds.boot_report.success);

    // Supply-chain attack: swap the application payload. The installed
    // chain is `Arc`-shared, so the attacker works on a private copy.
    let mut tampered = creds.firmware.as_ref().clone();
    tampered[1].image.payload[100] ^= 0x5a;
    let report = creds.device.boot(&tampered);
    assert!(!report.success, "tampered image must not boot");

    // Rollback attack: ship an old (validly signed) version.
    let old = vec![
        FirmwareImage::new(
            "forwarder-01",
            FirmwareStage::Bootloader,
            1,
            b"old-bl".to_vec(),
        )
        .sign(&pki.firmware_signer),
        FirmwareImage::new(
            "forwarder-01",
            FirmwareStage::Application,
            1,
            b"old-app".to_vec(),
        )
        .sign(&pki.firmware_signer),
    ];
    let report = creds.device.boot(&old);
    assert!(!report.success, "rollback must be rejected");
}

#[test]
fn methodology_finds_more_risk_than_safety_only_view() {
    // Baseline comparison (ii): a safety-only HARA sees the hazards at
    // their engineered exposure; the combined methodology surfaces the
    // security-induced escalations on top.
    let model = catalog::worksite_model();
    let report = Tara::assess(&model);

    let safety_only_worst = model
        .hazards
        .iter()
        .map(silvasec::risk::hara::Hazard::required_pl)
        .max()
        .unwrap();
    let combined_worst = report
        .interplay_findings
        .iter()
        .map(|f| f.compromised_pl)
        .max()
        .unwrap();
    assert!(combined_worst >= safety_only_worst);

    // And strictly more findings: every interplay link is a risk item a
    // safety-only view has no row for.
    assert!(!report.interplay_findings.is_empty());
    let defeated = report
        .interplay_findings
        .iter()
        .filter(|f| f.safety_function_defeated)
        .count();
    assert!(
        defeated >= 3,
        "expected multiple safety-function-defeating threats"
    );
}
