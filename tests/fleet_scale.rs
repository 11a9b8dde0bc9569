//! Fleet-scale two-fidelity control plane: decision equivalence,
//! tamper parity through the shared verify (one chain walk and one
//! bundle-signature check per bundle variant per rollout, its verdict
//! shared by every shard's untampered sites), one shared decision at
//! any shard count, a signer revoked mid-rollout refused whatever the
//! shard size, and shard determinism.
//!
//! Small populations keep these affordable in debug mode. The 16k-site
//! scenario, the 64-site shadowless trace and the mid-rollout
//! revocation are pinned in `tests/golden.rs`; throughput and peak
//! memory at 524 288 sites are the pathway benchmark's `fleet_scale`
//! workload.

use proptest::prelude::*;
use silvasec::attacks::AttackKind;
use silvasec::experiments::{
    campaign_for, fleet_config, fleet_decisions, fleet_scale_config, ops_config,
    run_fleet_scale_point, run_fleet_scale_scenario, FleetScenario,
};
use silvasec::fleet::{Fleet, RolloutReport, ShadowConfig, SiteSlot};
use silvasec::sim::time::{SimDuration, SimTime};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// At overlap scales the shadow-fidelity fleet must make the same
    /// security decisions as the all-full-fidelity reference: the same
    /// correlated campaign classes in the same order, and the same risk
    /// trajectory `(threat, from, to)`. Timestamps are excluded by
    /// design — shadow alert latencies are modeled, not simulated.
    #[test]
    fn shadow_and_full_fidelity_agree_on_decisions(seed in 1u64..200, sites in 8usize..=20) {
        let (full_report, full) = run_fleet_scale_scenario(fleet_config(sites), seed);
        let mut config = fleet_config(sites);
        config.shadow = Some(ShadowConfig {
            full_sites: 4,
            shard_sites: 4,
            sequential: false,
        });
        let (shadow_report, shadow) = run_fleet_scale_scenario(config, seed);
        prop_assert_eq!(full_report.applied_sites, shadow_report.applied_sites);
        prop_assert_eq!(full_report.rejected_sites, shadow_report.rejected_sites);
        let (full_campaigns, full_risk) = fleet_decisions(&full);
        let (shadow_campaigns, shadow_risk) = fleet_decisions(&shadow);
        prop_assert!(!full_campaigns.is_empty(),
            "the equivalence scenario must correlate at least one campaign");
        prop_assert_eq!(full_campaigns, shadow_campaigns);
        prop_assert_eq!(full_risk, shadow_risk);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// A tampered bundle must be rejected by every site even though
    /// shadow sites share one verification verdict — tampered sites
    /// fall off the shared-verdict fast path and are verified
    /// individually.
    #[test]
    fn tampered_bundles_reject_through_batched_verify(seed in 1u64..100) {
        let (report, _) = run_fleet_scale_point(64, seed, FleetScenario::Tampered, false);
        prop_assert_eq!(report.applied_sites, 0);
        prop_assert_eq!(report.rejected_sites, 64);
        prop_assert!(report.individually_verified_sites > 0,
            "tampered shadow sites must be verified individually: {:?}", report);
    }

    /// The anti-rollback rule survives the shared-verdict split: a
    /// downgraded bundle is rejected fleet-wide, for the right reason.
    #[test]
    fn downgrade_rejected_through_batched_verify(seed in 1u64..100) {
        let (report, _) = run_fleet_scale_point(64, seed, FleetScenario::Downgrade, false);
        prop_assert_eq!(report.applied_sites, 0);
        prop_assert_eq!(
            report.reject_reasons.get("downgrade").copied().unwrap_or(0), 64,
            "every site must reject the rollback as a downgrade: {:?}", report);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Waves are index ranges and the full sites a strided subset, so a
    /// wave edge can fall next to, on or between full sites, and a wave
    /// can hold no full site at all. Whatever the split, a clean rollout
    /// must resolve every wave and reach every site.
    #[test]
    fn clean_two_fidelity_rollouts_reach_every_site(
        seed in 1u64..1_000,
        sites in 2usize..=10,
        full_sites in 1usize..=4,
        canary_sites in 1usize..=3,
        wave_size in 1usize..=5,
        shard_sites in 1usize..=4,
    ) {
        let mut config = fleet_config(sites);
        config.policy.canary_sites = canary_sites;
        config.policy.wave_size = wave_size;
        config.policy.observe_ticks = 2;
        config.shadow = Some(ShadowConfig {
            full_sites,
            shard_sites,
            sequential: false,
        });
        let case = format!(
            "seed {seed}, {sites} sites, {full_sites} full, canary {canary_sites}, \
             waves of {wave_size}, shards of {shard_sites}"
        );
        let mut fleet = Fleet::new(config, seed);
        let report = fleet.run_rollout(2);
        prop_assert!(report.completed, "{}: {:?}", case, report);
        prop_assert_eq!(report.applied_sites as usize, sites, "{}: {:?}", case, report);
        for site in 0..sites {
            prop_assert_eq!(fleet.installed_version(site), 2, "{}: site {}", case, site);
        }
    }
}

/// Parallel shadow shards, sequential shards and a same-seed twin all
/// export byte-identical fleet traces — the order-preserving merge is
/// indistinguishable from the sequential reference.
#[test]
fn sharded_traces_match_sequential_reference_byte_for_byte() {
    let (par_report, par) = run_fleet_scale_point(128, 11, FleetScenario::Clean, false);
    let (_, seq) = run_fleet_scale_point(128, 11, FleetScenario::Clean, true);
    let (_, twin) = run_fleet_scale_point(128, 11, FleetScenario::Clean, false);
    assert!(par_report.completed, "{par_report:?}");
    assert_eq!(par_report.applied_sites, 128);
    let par_trace = par.export_trace_jsonl();
    assert!(!par_trace.is_empty());
    assert_eq!(
        par_trace,
        seq.export_trace_jsonl(),
        "parallel shards must merge byte-identically to the sequential reference"
    );
    assert_eq!(
        par_trace,
        twin.export_trace_jsonl(),
        "same seed must replay byte-identically"
    );
}

/// A clean shadow rollout decides its shared bundle verdict once, at
/// any shard count and on either sweep schedule, and no per-site
/// fallback verifies.
#[test]
fn batched_verify_amortizes_across_shadow_sites() {
    for sequential in [false, true] {
        let mut config = fleet_scale_config(128, sequential);
        config.shadow = Some(ShadowConfig {
            full_sites: 4,
            shard_sites: 16,
            sequential,
        });
        let mut fleet = Fleet::new(config, 7);
        let report = fleet.run_rollout(2);
        assert!(report.completed, "{report:?}");
        assert_eq!(fleet.shadows().shard_count(), 8);
        let shadow_sites = fleet.shadows().layout.shadow_count() as u64;
        assert_eq!(report.batch_verified_sites, shadow_sites);
        assert_eq!(report.individually_verified_sites, 0);
        assert_eq!(
            report.batch_verify_calls, 1,
            "one shared decision serves every shard (sequential: {sequential})"
        );
    }
}

/// A 64-site two-fidelity fleet with ops rolls out version 2 while a
/// fleet-wide replay storm runs from 10 s to 70 s. Ops contains the
/// correlated `auth-failure-storm` campaign by revoking the firmware
/// signer, so the bundle, signed under the revoked leaf, must be
/// refused by every site whose delivery completes after the CRL is out.
/// The alert-spike halt is off so the rollout runs to the end.
fn rollout_with_signer_revoked_midway(shard_sites: usize, seed: u64) -> (RolloutReport, Fleet) {
    let mut config = fleet_scale_config(64, false);
    config.ops = Some(ops_config());
    config.policy.halt_alert_threshold = u32::MAX;
    config.shadow = Some(ShadowConfig {
        full_sites: 4,
        shard_sites,
        sequential: false,
    });
    let mut fleet = Fleet::new(config, seed);
    fleet.schedule_fleet_attack(campaign_for(
        AttackKind::Replay,
        SimTime::from_secs(10),
        SimDuration::from_secs(60),
    ));
    let report = fleet.run_rollout(2);
    (report, fleet)
}

/// Every shadow site is judged under the CRLs of the tick its delivery
/// completes in, as full sites are, so the shard layout cannot change
/// who installs a bundle whose signer was revoked mid-rollout: fifteen
/// 4-site shards and one 60-site shard give the same per-site versions
/// and the same report.
#[test]
fn a_signer_revoked_mid_rollout_is_refused_at_any_shard_size() {
    let versions = |fleet: &Fleet| -> Vec<u32> {
        (0..fleet.len())
            .map(|s| fleet.installed_version(s))
            .collect()
    };
    let json = |r: &RolloutReport| serde_json::to_string(r).expect("report serializes");
    for seed in [11, 29] {
        let (small, small_fleet) = rollout_with_signer_revoked_midway(4, seed);
        let (one, one_fleet) = rollout_with_signer_revoked_midway(60, seed);
        assert_eq!(small_fleet.shadows().shard_count(), 15);
        assert_eq!(one_fleet.shadows().shard_count(), 1);
        for fleet in [&small_fleet, &one_fleet] {
            assert_eq!(fleet.backend().crls().len(), 1, "seed {seed}");
        }
        assert_eq!(versions(&small_fleet), versions(&one_fleet), "seed {seed}");
        assert_eq!(json(&small), json(&one), "seed {seed}");
        let chain = small.reject_reasons.get("chain").copied().unwrap_or(0);
        assert!(
            small.applied_sites > 0 && chain > 0,
            "seed {seed}: both sides of the revocation must occur: {small:?}"
        );
    }
}

/// The security snapshot surfaces the population split, the shadow
/// state (alert calendars included) and the places alerts can be lost
/// (SIEM windows, trace ring) as observable counters.
#[test]
fn security_snapshot_surfaces_population_and_loss_counters() {
    let fresh = Fleet::new(fleet_scale_config(64, false), 11).security_snapshot();
    assert!(fresh.shadow_mem_bytes > 0);
    assert_eq!(
        fresh.shadow_calendar_bytes, 0,
        "alert calendars are built when a campaign can fire, not at commissioning"
    );
    let (_, fleet) = run_fleet_scale_scenario(fleet_scale_config(64, false), 11);
    let snapshot = fleet.security_snapshot();
    assert_eq!(snapshot.sites, 64);
    assert_eq!(snapshot.full_sites, 4);
    assert_eq!(snapshot.shadow_sites, 60);
    assert_eq!(snapshot.full_sites + snapshot.shadow_sites, snapshot.sites);
    assert!(snapshot.siem_records_ingested > 0);
    assert!(snapshot.trace_pushed > 0);
    // The deauth flood builds one calendar: 4 B per shadow site, counted
    // in the shadow total.
    assert!(
        snapshot.shadow_calendar_bytes >= 4 * snapshot.shadow_sites,
        "{snapshot:?}"
    );
    assert!(
        snapshot.shadow_mem_bytes >= fresh.shadow_mem_bytes + snapshot.shadow_calendar_bytes,
        "{snapshot:?}"
    );
    // No drops at this scale — the counters exist and read zero, which
    // is itself the observable claim (loss would be counted, not
    // silent). Zero-drop classes are listed on purpose.
    assert_eq!(snapshot.siem_window_drops, 0);
    assert!(!snapshot.siem_window_drops_by_class.is_empty());
    assert!(snapshot
        .siem_window_drops_by_class
        .iter()
        .all(|(_, dropped)| *dropped == 0));
}

/// Every site index resolves to exactly one slot, shadow members
/// report installed versions through the compact path, and asking for
/// a shadow member's full worksite is a clear panic, not a wrong
/// answer.
#[test]
fn site_slots_partition_the_fleet() {
    let (_, fleet) = run_fleet_scale_point(64, 11, FleetScenario::Clean, false);
    let mut full = 0usize;
    let mut shadow = 0usize;
    for site in 0..64u32 {
        match fleet.site_slot(site) {
            SiteSlot::Full(_) => full += 1,
            SiteSlot::Shadow { .. } => shadow += 1,
        }
        assert_eq!(fleet.installed_version(site as usize), 2);
    }
    assert_eq!(full, 4);
    assert_eq!(shadow, 60);
    let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let SiteSlot::Shadow { .. } = fleet.site_slot(1) else {
            // Site 1 is a shadow member under the 4-of-64 stride; if
            // the layout ever changes, fail loudly rather than probing
            // the wrong site.
            panic!("site 1 must be a shadow member under full_sites=4");
        };
        let _ = fleet.worksite(1);
    }));
    assert!(
        panicked.is_err(),
        "worksite() on a shadow member must panic rather than fabricate state"
    );
}
