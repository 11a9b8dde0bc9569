//! `episode_sweep`: an Ag-ODD-style scenario sweep of short compact
//! episodes through the pooled `EpisodeRunner`.
//!
//! Each world is swept over every attack cell in both postures, worlds
//! in seed-major order, so a pooled worksite rebuilds its PKI template
//! once per world and half the episodes skip the crypto entirely: the
//! template-cache miss path that a single-seed batch never takes.
//! Untraced rounds call `EpisodeRunner::run`; a traced round runs the
//! same pooled loop through the public pieces it is made of, with a span
//! around every call, and must reproduce the runner's outcomes exactly.
//! The sweep commissions inside its episodes, so each round also times
//! one `Worksite::new` of its first episode as its set-up.

use crate::stats;
use crate::trace::{Span, Tracer, ROUND};
use crate::workload::{digest, Checks, Probe, RadioCounts, Round, Workload};
use silvasec::attacks::AttackKind;
use silvasec::experiments::{trace_digest, EpisodeOutcome, EpisodeRunner, EpisodeSpec};
use silvasec::sim::rng::hash3;
use silvasec::sim::time::SimDuration;
use silvasec::sos::{SecurityPosture, Worksite};
use silvasec::sweep::par_sweep_scoped_workers;
use std::rc::Rc;
use std::time::Instant;

/// The attack cells each world is swept over: none plus seven classes.
const CELLS: [Option<AttackKind>; 8] = [
    None,
    Some(AttackKind::RfJamming),
    Some(AttackKind::DeauthFlood),
    Some(AttackKind::GnssSpoofing),
    Some(AttackKind::GnssJamming),
    Some(AttackKind::CameraBlinding),
    Some(AttackKind::Replay),
    Some(AttackKind::RogueNode),
];

/// Episode length.
const EPISODE: SimDuration = SimDuration::from_secs(20);

/// Salt separating world seeds from other seeds derived from `--seed`.
const WORLD_SALT: u64 = 0xE9150DE5;

/// The sweep: `worlds` worlds × 8 cells × 2 postures per round.
pub struct EpisodeSweep {
    /// Seed every world seed derives from.
    pub seed: u64,
    /// Worlds per round.
    pub worlds: u64,
    /// Worker threads.
    pub workers: usize,
}

impl EpisodeSweep {
    fn specs(&self) -> Vec<EpisodeSpec> {
        let postures = [SecurityPosture::secure(), SecurityPosture::insecure()];
        (0..self.worlds)
            .flat_map(|w| {
                let seed = hash3(self.seed, WORLD_SALT, w);
                postures.into_iter().flat_map(move |posture| {
                    CELLS
                        .into_iter()
                        .map(move |attack| EpisodeSpec::compact(posture, attack, seed, EPISODE))
                })
            })
            .collect()
    }
}

/// How a traced episode got its worksite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Commission {
    /// First episode on a worker: `Worksite::new`.
    Build,
    /// Secure reset that reused the cached PKI template.
    TemplateHit,
    /// Secure reset that rebuilt the PKI template.
    TemplateMiss,
    /// Insecure reset: no PKI at all.
    NoPki,
}

/// What a traced episode records besides its outcome.
struct EpisodeTrace {
    spans: Vec<Span>,
    ticks: Vec<(f64, bool)>,
    commission: Commission,
    commission_us: f64,
    radio: RadioCounts,
    events: u64,
    ring_drops: u64,
}

/// One episode on a pooled worksite, exactly as `EpisodeRunner` runs it,
/// with a span around every public call.
fn traced_episode(
    slot: &mut Option<(Worksite, Probe)>,
    spec: &EpisodeSpec,
    t: &mut Tracer,
) -> (EpisodeOutcome, EpisodeTrace) {
    t.enter("sweep.episode");
    let (commission, commission_ns) = match slot {
        Some((site, _)) => {
            let before = site.pki_template().cloned();
            t.enter("sos.reset");
            site.reset_for_episode(&spec.config, spec.seed);
            let ns = t.exit();
            let reused = matches!(
                (&before, site.pki_template()),
                (Some(a), Some(b)) if Rc::ptr_eq(a, b)
            );
            let kind = match (spec.config.security.secure_channel, reused) {
                (false, _) => Commission::NoPki,
                (true, true) => Commission::TemplateHit,
                (true, false) => Commission::TemplateMiss,
            };
            (kind, ns)
        }
        None => {
            t.enter("sos.new");
            let site = Worksite::new(&spec.config, spec.seed);
            let ns = t.exit();
            let probe = Probe::attach(&site);
            *slot = Some((site, probe));
            (Commission::Build, ns)
        }
    };
    let (site, probe) = slot.as_mut().expect("slot populated above");
    spec.arm(site);

    // The campaign `arm` schedules: a quarter in, for half the episode.
    let secs = spec.duration.as_secs_f64() as u64;
    let window_ms = (secs / 4 * 1000, (secs / 4 + (secs / 2).max(1)) * 1000);
    let count = spec.duration.as_millis() / spec.config.tick.as_millis();
    let mut ticks = Vec::with_capacity(count as usize);
    let mut radio = RadioCounts::default();
    for _ in 0..count {
        t.enter("sos.tick");
        site.tick();
        let ns = t.exit();
        let now_ms = site.now().as_millis();
        let attack = spec.attack.is_some() && now_ms >= window_ms.0 && now_ms < window_ms.1;
        ticks.push((ns as f64 / 1e3, attack));
        t.enter("bench.telemetry");
        probe.drain(site, &mut radio);
        t.exit();
    }

    t.enter("sos.export");
    let security = site.export_security_jsonl();
    t.exit();
    let m = site.metrics();
    let outcome = EpisodeOutcome {
        seed: spec.seed,
        ticks: m.ticks,
        messages_delivered: m.messages_delivered,
        distance_m: m.distance_m,
        danger_zone_ticks: m.danger_zone_ticks,
        forged_accepted: m.forged_accepted,
        alerts: m.alerts.values().sum(),
        trace_digest: trace_digest(&security),
    };
    let (events, ring_drops) = (site.recorder().events_recorded(), Probe::drops(site));
    t.exit();
    let trace = EpisodeTrace {
        spans: t.take(),
        ticks,
        commission,
        commission_us: commission_ns as f64 / 1e3,
        radio,
        events,
        ring_drops,
    };
    (outcome, trace)
}

impl Workload for EpisodeSweep {
    fn workers(&self) -> usize {
        self.workers
    }

    fn round(&self, t: &mut Tracer) -> Round {
        let specs = self.specs();
        t.enter(ROUND);
        let started = Instant::now();
        t.enter("sos.new");
        let site = Worksite::new(&specs[0].config, specs[0].seed);
        t.exit();
        let setup_s = started.elapsed().as_secs_f64();
        drop(std::hint::black_box(site));

        let started = Instant::now();
        let (outcomes, traces): (Vec<EpisodeOutcome>, Vec<EpisodeTrace>) = if t.on() {
            let parent = &*t;
            let ran = par_sweep_scoped_workers(
                &specs,
                self.workers,
                || None,
                |slot, spec, i| {
                    // Disjoint id ranges per episode: 2^20 spans each.
                    let mut fork = parent.fork((i as u64 + 1) << 20);
                    traced_episode(slot, spec, &mut fork)
                },
            );
            ran.into_iter().unzip()
        } else {
            (
                EpisodeRunner::with_workers(self.workers).run(&specs),
                Vec::new(),
            )
        };
        let work_s = started.elapsed().as_secs_f64();

        // Every episode runs its full tick count; a secure one accepts
        // nothing forged.
        let mut checks = Checks::default();
        for (spec, out) in specs.iter().zip(&outcomes) {
            let ticks = spec.duration.as_millis() / spec.config.tick.as_millis();
            let forged = spec.config.security.secure_channel && out.forged_accepted > 0;
            checks.unit(
                out.seed == spec.seed && out.ticks == ticks && !forged,
                || {
                    format!(
                        "episode seed {} {:?}: {} of {ticks} ticks, {} forged",
                        spec.seed, spec.attack, out.ticks, out.forged_accepted
                    )
                },
            );
        }
        let text: String = outcomes.iter().map(|o| format!("{o:?}\n")).collect();
        let digest = digest(&[text.as_bytes()]);

        let mut ticks = Vec::new();
        let mut radio = RadioCounts::default();
        let (mut events, mut ring_drops) = (0, 0);
        let mut commission: Vec<(Commission, f64)> = Vec::new();
        for tr in traces {
            t.absorb(tr.spans);
            ticks.extend(tr.ticks);
            radio.add(&tr.radio);
            events += tr.events;
            ring_drops += tr.ring_drops;
            commission.push((tr.commission, tr.commission_us));
        }
        t.exit();

        let sim_ticks: u64 = outcomes.iter().map(|o| o.ticks).sum();
        let sim_s = sim_ticks as f64 * specs[0].config.tick.as_secs_f64();
        let mut layer = vec![
            ("sos.ticks", sim_ticks as f64),
            (
                "ids.alerts",
                outcomes.iter().map(|o| o.alerts).sum::<u64>() as f64,
            ),
            (
                "channel.forged_accepted",
                outcomes.iter().map(|o| o.forged_accepted).sum::<u64>() as f64,
            ),
        ];
        if !commission.is_empty() {
            let us = |kind| {
                let v: Vec<f64> = commission
                    .iter()
                    .filter(|c| c.0 == kind)
                    .map(|c| c.1)
                    .collect();
                (v.len() as f64, stats::median(&v))
            };
            let (hits, hit_us) = us(Commission::TemplateHit);
            let (misses, miss_us) = us(Commission::TemplateMiss);
            layer.extend(radio.layer(ring_drops));
            layer.push(("telemetry.events", events as f64));
            layer.push((
                "sos.pki_template.hit_ratio",
                hits / (hits + misses).max(1.0),
            ));
            layer.push(("sos.reset_us.hit_p50", hit_us));
            layer.push(("sos.reset_us.miss_p50", miss_us));
        }
        Round {
            setup_s,
            work_s,
            digest,
            checks,
            layer,
            detail: vec![
                ("episodes_per_s", "1/s", outcomes.len() as f64 / work_s),
                ("sim_rate", "sim-s/s", sim_s / work_s),
            ],
            ticks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miniature_sweep_matches_the_runner_and_repeats() {
        let sweep = EpisodeSweep {
            seed: 11,
            worlds: 2,
            workers: 2,
        };
        let plain = sweep.round(&mut Tracer::new(false));
        assert_eq!(plain.checks.attempted, 32);
        assert_eq!(plain.checks.failed, 0, "{:?}", plain.checks.failures);
        assert_eq!(sweep.round(&mut Tracer::new(false)).digest, plain.digest);
        let mut t = Tracer::new(true);
        let traced = sweep.round(&mut t);
        assert_eq!(
            traced.digest, plain.digest,
            "traced loop diverged from EpisodeRunner"
        );
        assert_eq!(traced.ticks.len(), 32 * 40);
        let hit_ratio = traced
            .layer
            .iter()
            .find(|l| l.0 == "sos.pki_template.hit_ratio")
            .expect("traced round reports the template hit ratio")
            .1;
        assert!(hit_ratio > 0.0 && hit_ratio < 1.0, "{hit_ratio}");
        let spans = t.take();
        crate::tests::assert_known_metrics(&traced, &spans);
        assert_eq!(
            spans.iter().filter(|s| s.name == "sweep.episode").count(),
            32
        );
    }
}
