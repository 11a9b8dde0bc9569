//! `site_soak`: one secure standard worksite soaking under the Figure-1
//! campaign cycle, repeated every sim-hour.
//!
//! Nearly all wall time is `Worksite::tick` (perception, propagation,
//! record seal/open, IDS); set-up, fleet, ops and TARA code are absent.
//! A tick-layer optimisation shows here, a set-up or fleet one must not.

use crate::trace::{Tracer, ROUND};
use crate::workload::{digest, Checks, Probe, RadioCounts, Round, Workload};
use silvasec::attacks::{AttackCampaign, AttackKind};
use silvasec::experiments::{campaign_for, expected_alert, standard_config};
use silvasec::sim::time::{SimDuration, SimTime};
use silvasec::sos::{SecurityPosture, Worksite};
use std::time::Instant;

/// The Figure-1 attack classes, one 5-minute slot each per sim-hour.
const CYCLE: [AttackKind; 5] = [
    AttackKind::DeauthFlood,
    AttackKind::RfJamming,
    AttackKind::CameraBlinding,
    AttackKind::GnssSpoofing,
    AttackKind::Replay,
];

/// Slot spacing and attack length within the hour, seconds: attacks run
/// at minutes 5–10, 15–20, 25–30, 35–40 and 45–50.
const SLOT_S: u64 = 600;
const ATTACK_S: u64 = 300;

/// The soak: `hours` sim-hours of the campaign cycle on one worksite.
pub struct SiteSoak {
    /// Worksite seed.
    pub seed: u64,
    /// Sim-hours per round.
    pub hours: u64,
}

impl SiteSoak {
    fn campaigns(&self) -> Vec<AttackCampaign> {
        (0..self.hours)
            .flat_map(|h| {
                CYCLE.iter().zip(0u64..).map(move |(&kind, k)| {
                    campaign_for(
                        kind,
                        SimTime::from_secs(h * 3600 + k * SLOT_S + ATTACK_S),
                        SimDuration::from_secs(ATTACK_S),
                    )
                })
            })
            .collect()
    }
}

impl Workload for SiteSoak {
    fn round(&self, t: &mut Tracer) -> Round {
        let config = standard_config(SecurityPosture::secure());
        t.enter(ROUND);
        let started = Instant::now();
        t.enter("sos.new");
        let mut site = Worksite::new(&config, self.seed);
        t.exit();
        let setup_s = started.elapsed().as_secs_f64();

        let probe = t.on().then(|| Probe::attach(&site));
        let campaigns = self.campaigns();
        for c in &campaigns {
            site.attack_engine_mut().add_campaign(c.clone());
        }
        let ticks_per_hour = 3_600_000 / config.tick.as_millis();
        let mut checks = Checks::default();
        let mut radio = RadioCounts::default();
        let mut ticks = Vec::new();
        let mut alerts_before = site.metrics().alerts.clone();
        for hour in 0..self.hours {
            for _ in 0..ticks_per_hour {
                t.enter("sos.tick");
                site.tick();
                let ns = t.exit();
                if let Some(probe) = probe {
                    let attack = campaigns.iter().any(|c| c.active_at(site.now()));
                    ticks.push((ns as f64 / 1e3, attack));
                    t.enter("bench.telemetry");
                    probe.drain(&site, &mut radio);
                    t.exit();
                }
            }
            // Every campaign class of the hour must raise its alert, and
            // the secure posture must accept nothing forged.
            let m = site.metrics();
            for kind in CYCLE {
                let class = expected_alert(kind).map_or_else(String::new, |a| a.to_string());
                let raised = m.alerts.get(&class) > alerts_before.get(&class);
                checks.unit(raised, || {
                    format!("hour {hour}: {kind:?} raised no {class}")
                });
            }
            checks.unit(m.forged_accepted == 0, || {
                format!("hour {hour}: {} forged accepted", m.forged_accepted)
            });
            alerts_before.clone_from(&m.alerts);
        }
        let work_s = started.elapsed().as_secs_f64() - setup_s;

        t.enter("sos.export");
        let security = site.export_security_jsonl();
        t.exit();
        let m = site.metrics();
        let digest = digest(&[security.as_bytes(), format!("{m:?}").as_bytes()]);
        t.exit();

        let sim_s = m.ticks as f64 * config.tick.as_secs_f64();
        let mut layer = vec![
            ("sos.ticks", m.ticks as f64),
            ("channel.auth_fail", m.auth_failures as f64),
            ("channel.forged_accepted", m.forged_accepted as f64),
            ("ids.alerts", m.alerts.values().sum::<u64>() as f64),
        ];
        if probe.is_some() {
            layer.extend(radio.layer(Probe::drops(&site)));
            layer.push(("telemetry.events", site.recorder().events_recorded() as f64));
        }
        Round {
            setup_s,
            work_s,
            digest,
            checks,
            layer,
            detail: vec![("sim_rate", "sim-s/s", sim_s / work_s)],
            ticks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miniature_soak_passes_its_checks_and_repeats() {
        let soak = SiteSoak { seed: 11, hours: 1 };
        let mut t = Tracer::new(false);
        let plain = soak.round(&mut t);
        assert_eq!(plain.checks.failed, 0, "{:?}", plain.checks.failures);
        assert_eq!(plain.checks.attempted, 6);
        let mut t = Tracer::new(true);
        let traced = soak.round(&mut t);
        crate::tests::assert_known_metrics(&traced, &t.take());
        assert_eq!(traced.digest, plain.digest, "tracing changed the outputs");
        assert_eq!(traced.ticks.len(), 7_200);
        assert!(traced.ticks.iter().any(|s| s.1) && traced.ticks.iter().any(|s| !s.1));
    }
}
