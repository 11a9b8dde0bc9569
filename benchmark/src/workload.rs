//! What the workloads share: the round record, check accounting, the
//! telemetry probe and the digest.

use crate::trace::Tracer;
use silvasec::crypto::sha256::Sha256;
use silvasec::fleet::Fleet;
use silvasec::sim::time::{SimDuration, SimTime};
use silvasec::sos::Worksite;
use silvasec::tara::HypothesisSet;
use silvasec::telemetry::{Event, EventFilter, EventKind, SubscriberId};

/// One workload: a closed loop of identical rounds. Every input comes
/// from the seed the workload was built with, so every round must
/// produce the same digest.
pub trait Workload {
    /// Runs one round from nothing (set-up included) and checks it.
    fn round(&self, t: &mut Tracer) -> Round;

    /// Threads the benchmark itself runs the workload on.
    fn workers(&self) -> usize {
        1
    }
}

/// What one round measured and produced.
#[derive(Debug)]
pub struct Round {
    /// Set-up wall time: the round's `Worksite::new` / `Fleet::new`.
    pub setup_s: f64,
    /// Wall time of the work after set-up, before the digest and the
    /// end-of-round checks.
    pub work_s: f64,
    /// sha256 over the simulated outputs.
    pub digest: [u8; 32],
    /// Correctness accounting.
    pub checks: Checks,
    /// Values of per-layer metrics read from public reports (and, in a
    /// traced round, from the telemetry probe).
    pub layer: Vec<(&'static str, f64)>,
    /// The workload's headline throughput for the report: `(name, unit,
    /// value)`.
    pub detail: Vec<(&'static str, &'static str, f64)>,
    /// Traced rounds: latency of every `Worksite::tick` the benchmark
    /// drives, in µs, with whether an attack was active.
    pub ticks: Vec<(f64, bool)>,
}

/// Units checked and units that failed, with the first few failures.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Checks {
    /// Units checked.
    pub attempted: u64,
    /// Units that failed their check.
    pub failed: u64,
    /// Descriptions of the first failures.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records `units` units of which `failed` failed.
    pub fn units(&mut self, units: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += units;
        self.failed += failed;
        if failed > 0 && self.failures.len() < 8 {
            self.failures.push(what());
        }
    }

    /// Records one unit that passes when `ok`.
    pub fn unit(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.units(1, u64::from(!ok), what);
    }
}

/// sha256 over `parts`, each length-prefixed.
#[must_use]
pub fn digest(parts: &[&[u8]]) -> [u8; 32] {
    let mut h = Sha256::new();
    for p in parts {
        h.update(&(p.len() as u64).to_le_bytes());
        h.update(p);
    }
    h.finalize()
}

/// Radio, channel and perception work counted on one worksite.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RadioCounts {
    /// Frames put on the air.
    pub frames_tx: u64,
    /// Frames delivered.
    pub frames_rx: u64,
    /// Frames lost on the air.
    pub frames_lost: u64,
    /// Perception sensor readings.
    pub sensor_readings: u64,
}

impl RadioCounts {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &RadioCounts) {
        self.frames_tx += other.frames_tx;
        self.frames_rx += other.frames_rx;
        self.frames_lost += other.frames_lost;
        self.sensor_readings += other.sensor_readings;
    }

    /// The per-layer metrics these counts feed, with the ring's drops.
    #[must_use]
    pub fn layer(&self, ring_drops: u64) -> Vec<(&'static str, f64)> {
        let lost = self.frames_lost as f64;
        let addressed = (self.frames_rx + self.frames_lost) as f64;
        vec![
            ("comms.frames_tx", self.frames_tx as f64),
            ("comms.frames_rx", self.frames_rx as f64),
            ("comms.frames_lost", lost),
            (
                "comms.loss_ratio",
                if addressed > 0.0 {
                    lost / addressed
                } else {
                    0.0
                },
            ),
            ("machines.sensor_readings", self.sensor_readings as f64),
            ("telemetry.ring_drops", ring_drops as f64),
        ]
    }
}

/// Advances `fleet` to `until` one `Fleet::tick` at a time (what
/// `Fleet::run` does), with a span around every tick.
pub fn run_fleet(fleet: &mut Fleet, until: SimTime, t: &mut Tracer) {
    while fleet.now() < until {
        t.enter("fleet.tick");
        let _alerts = fleet.tick();
        t.exit();
    }
}

/// Per-layer counts every fleet exposes: full-site ticks, SIEM ingest
/// and window drops, shadow state and live TARA hypotheses.
#[must_use]
pub fn fleet_layer(fleet: &Fleet, tick: SimDuration) -> Vec<(&'static str, f64)> {
    let snap = fleet.security_snapshot();
    let fleet_ticks = fleet.now().as_millis() / tick.as_millis();
    let ingested = snap.siem_records_ingested as f64;
    let (_, confirmed, retired) = fleet.tara().map_or((0, 0, 0), HypothesisSet::counts);
    vec![
        ("sos.ticks", (fleet_ticks * snap.full_sites as u64) as f64),
        ("siem.ingested", ingested),
        ("siem.campaigns", snap.siem_campaigns as f64),
        (
            "siem.drop_ratio",
            if ingested > 0.0 {
                snap.siem_window_drops as f64 / ingested
            } else {
                0.0
            },
        ),
        (
            "fleet.shadow_bytes_per_site",
            snap.shadow_mem_bytes as f64 / snap.shadow_sites.max(1) as f64,
        ),
        ("tara.confirmed", confirmed as f64),
        ("tara.retired", retired as f64),
    ]
}

/// Name of the benchmark's telemetry ring.
const PROBE: &str = "bench-probe";

/// Capacity of the probe ring; it is drained after every tick.
const PROBE_CAPACITY: usize = 4_096;

/// A benchmark-owned ring on a worksite's flight recorder, counting
/// frame and sensor events. Recording draws no randomness, so the probe
/// leaves every simulated output unchanged (the digests check this).
#[derive(Debug, Clone, Copy)]
pub struct Probe(SubscriberId);

impl Probe {
    /// Subscribes the probe ring to `site`'s recorder.
    #[must_use]
    pub fn attach(site: &Worksite) -> Self {
        let filter = [
            EventKind::FrameTx,
            EventKind::FrameRx,
            EventKind::FrameLost,
            EventKind::SensorReading,
        ]
        .into_iter()
        .fold(EventFilter::none(), EventFilter::with);
        Probe(
            site.recorder()
                .subscribe_filtered(PROBE, PROBE_CAPACITY, filter),
        )
    }

    /// Drains the ring into `counts`.
    pub fn drain(self, site: &Worksite, counts: &mut RadioCounts) {
        for r in site.recorder().drain(self.0) {
            match r.event {
                Event::FrameTx { .. } => counts.frames_tx += 1,
                Event::FrameRx { .. } => counts.frames_rx += 1,
                Event::FrameLost { .. } => counts.frames_lost += 1,
                Event::SensorReading { .. } => counts.sensor_readings += 1,
                _ => {}
            }
        }
    }

    /// Records the ring lost since the recorder was last reset.
    #[must_use]
    pub fn drops(site: &Worksite) -> u64 {
        site.recorder()
            .stats()
            .iter()
            .find(|s| s.name == PROBE)
            .map_or(0, |s| s.dropped)
    }
}
