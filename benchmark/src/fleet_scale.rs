//! `fleet_scale`: a two-fidelity fleet of half a million sites through
//! the E12 security-operations scenario, a clean rollout and an
//! in-transit tampering campaign.
//!
//! The rollout layer runs with and without its shared-verdict cache: the
//! clean rollout verifies once per shard, the tampered one makes every
//! site reassemble and reject its bundle alone. Shadow alert sweeps and
//! the streaming SIEM take most of the rest; the tick hot path is
//! negligible.
//!
//! The shards run on one thread. On a shared 2-core host the parallel
//! shard sweep was 1.1–1.3× faster, but its speedup depends on how busy
//! the second core is, so its median round time moved far more between
//! sessions (3.3–5.0 s) than the sequential one (4.1–4.7 s).

use crate::trace::{Tracer, ROUND};
use crate::workload::{digest, fleet_layer, run_fleet, Checks, Round, Workload};
use silvasec::attacks::AttackKind;
use silvasec::experiments::{campaign_for, fleet_scale_config, FleetScenario};
use silvasec::fleet::{Fleet, RolloutReport};
use silvasec::sim::time::{SimDuration, SimTime};
use std::time::Instant;

/// The fleet: `sites` sites, 4 full-fidelity, sequential 8192-site
/// shards.
pub struct FleetScale {
    /// Fleet seed.
    pub seed: u64,
    /// Fleet size.
    pub sites: usize,
}

impl Workload for FleetScale {
    fn round(&self, t: &mut Tracer) -> Round {
        let config = fleet_scale_config(self.sites, true);
        let tick = config.site.tick;
        t.enter(ROUND);
        let started = Instant::now();
        t.enter("fleet.new");
        let mut fleet = Fleet::new(config, self.seed);
        t.exit();
        let setup_s = started.elapsed().as_secs_f64();

        // E12: disclosure, a 60 s deauth flood inside a 90 s free run,
        // then the clean version-2 rollout.
        let flood = campaign_for(
            AttackKind::DeauthFlood,
            SimTime::from_secs(5),
            SimDuration::from_secs(60),
        );
        fleet.disclose_vulnerability("update-tampering");
        fleet.schedule_fleet_attack(flood);
        run_fleet(&mut fleet, SimTime::from_secs(90), t);
        t.enter("fleet.rollout");
        let clean = fleet.run_rollout(2);
        t.exit();

        // In-transit tampering: every site must reject version 3.
        fleet.schedule_fleet_attack(
            FleetScenario::Tampered
                .campaign()
                .expect("the tampered scenario has a campaign"),
        );
        t.enter("fleet.rollout_tampered");
        let tampered = fleet.run_rollout(3);
        t.exit();
        let work_s = started.elapsed().as_secs_f64() - setup_s;

        t.enter("fleet.export");
        let trace = fleet.export_trace_jsonl();
        t.exit();
        t.enter("bench.check");
        let sites = self.sites as u64;
        let mut checks = Checks::default();
        checks.units(
            sites,
            sites.saturating_sub(u64::from(clean.applied_sites)),
            || {
                format!(
                    "clean rollout applied on {} of {sites} sites",
                    clean.applied_sites
                )
            },
        );
        checks.units(
            sites,
            sites.saturating_sub(u64::from(tampered.rejected_sites)),
            || {
                format!(
                    "tampered rollout rejected on {} of {sites} sites",
                    tampered.rejected_sites
                )
            },
        );
        let report = |r: &RolloutReport| serde_json::to_string(r).unwrap_or_default();
        let digest = digest(&[
            trace.as_bytes(),
            report(&clean).as_bytes(),
            report(&tampered).as_bytes(),
        ]);
        t.exit();
        t.exit();

        let both = [&clean, &tampered];
        let batch_calls: u64 = both.iter().map(|r| r.batch_verify_calls).sum();
        let batch_sites: u64 = both.iter().map(|r| r.batch_verified_sites).sum();
        let outcomes = u64::from(clean.applied_sites + clean.rejected_sites)
            + u64::from(tampered.applied_sites + tampered.rejected_sites);
        let mut layer = fleet_layer(&fleet, tick);
        layer.extend([
            (
                "fleet.bytes_on_air",
                both.iter().map(|r| r.bytes_on_air).sum::<u64>() as f64,
            ),
            (
                "fleet.bundle_verify_us",
                both.iter().map(|r| r.verify_wall_us).sum::<u64>() as f64,
            ),
            (
                "fleet.batch_amortization",
                batch_sites as f64 / batch_calls.max(1) as f64,
            ),
            (
                "fleet.individually_verified_sites",
                both.iter()
                    .map(|r| r.individually_verified_sites)
                    .sum::<u64>() as f64,
            ),
        ]);
        Round {
            setup_s,
            work_s,
            digest,
            checks,
            layer,
            detail: vec![("sites_per_s", "1/s", outcomes as f64 / work_s)],
            ticks: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miniature_fleet_applies_rejects_and_repeats() {
        let fleet = FleetScale {
            seed: 11,
            sites: 4_096,
        };
        let plain = fleet.round(&mut Tracer::new(false));
        assert_eq!(plain.checks.attempted, 2 * 4_096);
        assert_eq!(plain.checks.failed, 0, "{:?}", plain.checks.failures);
        let mut t = Tracer::new(true);
        let traced = fleet.round(&mut t);
        let spans = t.take();
        crate::tests::assert_known_metrics(&traced, &spans);
        assert_eq!(traced.digest, plain.digest, "tracing changed the outputs");
        assert_eq!(spans.iter().filter(|s| s.name == "fleet.tick").count(), 180);
    }
}
