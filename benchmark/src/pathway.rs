//! `pathway`: the paper's continuous-assurance chain on one fleet —
//! attack → IDS alert → SIEM campaign → incident response → OTA
//! remediation → closure, with live TARA.
//!
//! The only workload that runs ops, remediation rollouts and live TARA;
//! almost all of its wall time is the per-incident remediation rollouts,
//! each ticking the full-fidelity sites. Rollout and ops optimisations
//! show here and nowhere else.

use crate::trace::{Tracer, ROUND};
use crate::workload::{digest, fleet_layer, run_fleet, Checks, Round, Workload};
use silvasec::attacks::AttackKind;
use silvasec::experiments::{
    campaign_for, fleet_scale_config, ops_config, tara_config, tara_ranking,
};
use silvasec::fleet::{Fleet, FleetConfig, RolloutReport, ShadowConfig};
use silvasec::ops::{GateDecision, RunStore};
use silvasec::risk::catalog::worksite_model;
use silvasec::sim::time::{SimDuration, SimTime};
use silvasec::tara::{HypothesisSet, ScenarioSpace, TaraCatalog};
use std::time::Instant;

/// End of the free run.
const FREE_RUN_END: SimTime = SimTime::from_secs(90);

/// Operator-loop iterations before the pathway counts as stuck.
const OPERATOR_ITERATIONS: usize = 20;

/// The pathway fleet: `sites` sites, `full_sites` of them full-fidelity.
pub struct Pathway {
    /// Fleet seed.
    pub seed: u64,
    /// Fleet size.
    pub sites: usize,
    /// Full-fidelity sites; the rest are shadows.
    pub full_sites: usize,
}

impl Pathway {
    fn config(&self) -> FleetConfig {
        let mut config = fleet_scale_config(self.sites, false);
        config.shadow = Some(ShadowConfig {
            full_sites: self.full_sites,
            shard_sites: 8_192,
            sequential: false,
        });
        config.ops = Some(ops_config());
        config.tara = Some(tara_config());
        config
    }
}

impl Workload for Pathway {
    fn round(&self, t: &mut Tracer) -> Round {
        let config = self.config();
        let tick = config.site.tick;
        t.enter(ROUND);
        let started = Instant::now();
        t.enter("fleet.new");
        let mut fleet = Fleet::new(config, self.seed);
        t.exit();
        let setup_s = started.elapsed().as_secs_f64();

        // Disclosure, then a fleet-wide deauth flood at 5–65 s with replay
        // on the odd-numbered full sites, free-running 90 s. The close
        // time starts at the first attack tick.
        let flood = campaign_for(
            AttackKind::DeauthFlood,
            SimTime::from_secs(5),
            SimDuration::from_secs(60),
        );
        fleet.disclose_vulnerability("update-tampering");
        fleet.schedule_fleet_attack(flood.clone());
        for pos in (1..self.full_sites).step_by(2) {
            fleet.schedule_site_attack(
                pos,
                campaign_for(AttackKind::Replay, flood.start, flood.duration),
            );
        }
        let before_attack = SimTime::from_millis(flood.start.as_millis() - tick.as_millis());
        run_fleet(&mut fleet, before_attack, t);
        let attacked = Instant::now();
        run_fleet(&mut fleet, FREE_RUN_END, t);
        t.enter("fleet.rollout");
        let v2 = fleet.run_rollout(2);
        t.exit();

        // The operator: approve every gate, run the parked remediations,
        // advance 10 s, until ops is idle.
        let mut remediations: Vec<RolloutReport> = Vec::new();
        let mut remediation_ns = 0;
        for _ in 0..OPERATOR_ITERATIONS {
            if fleet.ops().is_none_or(|ops| ops.idle()) {
                break;
            }
            for run in fleet.ops_pending_reviews() {
                t.enter("ops.review");
                fleet.ops_review(run, GateDecision::Approve);
                t.exit();
            }
            t.enter("fleet.remediation");
            remediations.extend(fleet.run_ops_remediations());
            remediation_ns += t.exit();
            let until = fleet.now() + SimDuration::from_secs(10);
            run_fleet(&mut fleet, until, t);
        }
        let close_wall_s = attacked.elapsed().as_secs_f64();
        let work_s = started.elapsed().as_secs_f64() - setup_s;

        t.enter("fleet.export");
        let trace = fleet.export_trace_jsonl();
        t.exit();
        t.enter("bench.check");
        let engine = fleet.ops().expect("pathway fleets run ops");
        let counters = engine.store().counters();
        let mut checks = Checks::default();
        for (i, r) in remediations.iter().enumerate() {
            checks.unit(r.completed, || {
                format!("remediation rollout {i} did not complete")
            });
        }
        checks.unit(engine.idle(), || {
            format!("ops not idle after {OPERATOR_ITERATIONS} operator iterations")
        });
        checks.units(
            counters.opened,
            counters.opened.saturating_sub(counters.settled()),
            || format!("runs left open: {counters:?}"),
        );
        checks.unit(engine.queue_conserves(), || {
            "ops queue does not conserve".into()
        });
        let replayed = RunStore::replay_from_jsonl(&trace);
        checks.unit(
            replayed
                .as_ref()
                .is_ok_and(|r| r.digest() == engine.store().digest()),
            || "run store does not replay from the fleet trace".into(),
        );
        let tara = fleet.tara().expect("pathway fleets run TARA");
        let tara_replay = HypothesisSet::replay_from_jsonl(tara_ranking(self.seed), &trace);
        checks.unit(
            tara_replay
                .as_ref()
                .is_ok_and(|r| r.first_divergence(tara).is_none()),
            || "TARA hypotheses diverge on replay".into(),
        );
        let reports: String = std::iter::once(&v2)
            .chain(&remediations)
            .map(|r| serde_json::to_string(r).unwrap_or_default() + "\n")
            .collect();
        let digest = digest(&[
            trace.as_bytes(),
            &engine.store().digest(),
            format!("{counters:?}").as_bytes(),
            reports.as_bytes(),
        ]);
        t.exit();

        if t.on() {
            // Replays the enumeration `Fleet::new` makes for live TARA.
            let tc = tara_config();
            let catalog = TaraCatalog::from_model(&worksite_model());
            t.enter("tara.enumerate");
            let report = ScenarioSpace::new(&catalog, self.seed, tc.variants, tc.top_k).enumerate();
            t.exit();
            std::hint::black_box(report);
        }
        t.exit();

        let rollouts = std::iter::once(&v2).chain(&remediations);
        let queue = engine.queue_counters();
        let mut layer = fleet_layer(&fleet, tick);
        layer.extend([
            ("fleet.remediation_rollouts", remediations.len() as f64),
            (
                // The fleet runs a batch of remediations per call; only
                // the batch is timed from outside, so this is a mean.
                "fleet.remediation_ms.mean",
                remediation_ns as f64 / 1e6 / remediations.len().max(1) as f64,
            ),
            (
                "fleet.bytes_on_air",
                rollouts.clone().map(|r| r.bytes_on_air).sum::<u64>() as f64,
            ),
            (
                "fleet.bundle_verify_us",
                rollouts.map(|r| r.verify_wall_us).sum::<u64>() as f64,
            ),
            ("ops.opened", counters.opened as f64),
            ("ops.closed", counters.closed as f64),
            ("ops.escalated", counters.escalated as f64),
            ("ops.redelivered", queue.redelivered as f64),
            ("ops.dead_lettered", counters.dead_lettered as f64),
        ]);
        // Every full site ticks every fleet tick, rollouts included.
        let sim_s = fleet.now().as_millis() as f64 / 1e3 * self.full_sites as f64;
        Round {
            setup_s,
            work_s,
            digest,
            checks,
            layer,
            detail: vec![
                ("close_wall_s", "s", close_wall_s),
                ("sim_rate", "sim-s/s", sim_s / work_s),
            ],
            ticks: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miniature_pathway_closes_replays_and_repeats() {
        let pathway = Pathway {
            seed: 11,
            sites: 16,
            full_sites: 2,
        };
        let plain = pathway.round(&mut Tracer::new(false));
        assert_eq!(plain.checks.failed, 0, "{:?}", plain.checks.failures);
        assert!(plain.checks.attempted > 4);
        let mut t = Tracer::new(true);
        let traced = pathway.round(&mut t);
        let spans = t.take();
        crate::tests::assert_known_metrics(&traced, &spans);
        assert_eq!(traced.digest, plain.digest, "tracing changed the outputs");
        for name in ["fleet.tick", "fleet.remediation", "tara.enumerate"] {
            assert!(spans.iter().any(|s| s.name == name), "no {name} span");
        }
    }
}
