//! The worksite orchestrator.

use crate::config::{TelemetryConfig, WorksiteConfig};
use crate::metrics::{SafetyIncident, WorksiteMetrics};
use crate::pki_template::{LinkTemplate, SitePkiTemplate};
use silvasec_attacks::{AttackEngine, SideEffect};
use silvasec_channel::Session;
use silvasec_comms::{Frame, Medium, MediumConfig, NodeId, ReceivedFrame};
use silvasec_ids::prelude::*;
use silvasec_machines::harvester::Harvester;
use silvasec_machines::prelude::*;
use silvasec_machines::sensors::{detections_from_json, detections_to_json, Detection};
use silvasec_sim::geom::Vec2;
use silvasec_sim::rng::SimRng;
use silvasec_sim::time::{SimDuration, SimTime};
use silvasec_sim::world::World;
use silvasec_telemetry::{
    CounterId, Event, EventFilter, Label, MetricsSnapshot, Record, Recorder, SubscriberId,
};
use std::rc::Rc;

/// Danger radius: a worker this close to a moving forwarder is a safety
/// incident.
pub const DANGER_RADIUS_M: f64 = 3.5;

/// How many recovered frame-payload buffers the worksite keeps pooled
/// for reuse by the next seal/send.
const PAYLOAD_POOL_CAP: usize = 8;

// Hot-path labels, hoisted once: `Label` is a fixed-capacity inline
// `Copy` type and `from_static` is `const`, so recording with these
// costs nothing per tick (and produces the same bytes `Label::new`
// would).
const LABEL_FW_CAMERA: Label = Label::from_static("forwarder-01/camera");
const LABEL_FW_LIDAR: Label = Label::from_static("forwarder-01/lidar");
const LABEL_DRONE_CAMERA: Label = Label::from_static("drone-01/camera");
const LABEL_FW: Label = Label::from_static("forwarder-01");
const LABEL_BS: Label = Label::from_static("base-01");

struct SecureLinks {
    /// Forwarder-side session with the base station.
    fw: Session,
    /// Base-station-side session with the forwarder.
    bs_fw: Session,
    /// Drone-side session with the forwarder (the detection feed).
    drone: Option<Session>,
    /// Forwarder-side session with the drone.
    fw_drone: Option<Session>,
}

impl SecureLinks {
    /// Every secure link's sessions, keyed from `t` in fresh
    /// allocations.
    fn from_template(t: &SitePkiTemplate) -> Self {
        let (fw, bs_fw) = link_sessions(&t.fw_bs);
        let (drone, fw_drone) = t.drone_fw.as_ref().map(link_sessions).unzip();
        SecureLinks {
            fw,
            bs_fw,
            drone,
            fw_drone,
        }
    }

    fn set_recorder(&mut self, recorder: &Recorder) {
        let drone_sessions = self.drone.iter_mut().chain(&mut self.fw_drone);
        for session in [&mut self.fw, &mut self.bs_fw]
            .into_iter()
            .chain(drone_sessions)
        {
            session.set_recorder(recorder.clone());
        }
    }
}

/// The initiator- and responder-side sessions of one link, keyed from
/// its template.
fn link_sessions(l: &LinkTemplate) -> (Session, Session) {
    (
        Session::new(l.initiator_keys.clone(), l.initiator_peer.clone()),
        Session::new(l.responder_keys.clone(), l.responder_peer.clone()),
    )
}

/// Re-keys one link's sessions from its template inside their existing
/// allocations.
fn rekey_link(initiator: &mut Session, responder: &mut Session, l: &LinkTemplate) {
    initiator.reinit(&l.initiator_keys, &l.initiator_peer);
    responder.reinit(&l.responder_keys, &l.responder_peer);
}

/// The composed worksite simulation.
pub struct Worksite {
    config: WorksiteConfig,
    world: World,
    medium: Medium,
    gnss_field: GnssField,
    attack_engine: AttackEngine,

    forwarder: Forwarder,
    camera: PeopleSensor,
    lidar: PeopleSensor,
    gnss_rx: GnssReceiver,
    supervisor: SafetySupervisor,
    drone: Option<Drone>,
    harvester: Harvester,

    node_fw: NodeId,
    node_bs: NodeId,
    node_drone: Option<NodeId>,

    links: Option<SecureLinks>,
    /// The amortized provisioning the secure links were keyed from,
    /// kept for [`Worksite::reset_for_episode`] to reuse while
    /// `(seed, drone profile)` match.
    pki_template: Option<Rc<SitePkiTemplate>>,

    ids: Option<WorksiteIds>,
    response: ResponsePolicy,
    security_stop_until: Option<SimTime>,
    degraded_until: Option<SimTime>,

    // Telemetry deltas for IDS observations.
    prev_deauth_rx: u64,
    prev_bs_assoc_rx: u64,
    prev_link_attempted: u64,
    prev_link_delivered: u64,
    auth_failures_tick: u64,

    last_drone_feed: Vec<Detection>,
    /// Reused plaintext buffer for record opens on the receive paths —
    /// steady-state ticks decrypt without allocating.
    open_scratch: Vec<u8>,
    danger_in_progress: bool,
    seq: u64,
    rng: SimRng,
    metrics: WorksiteMetrics,
    recorder: Recorder,
    flight_sub: SubscriberId,
    security_sub: SubscriberId,
    tick_counter: CounterId,
    /// Ground-truth replay bookkeeping (measurement, not a defence):
    /// sequence numbers already accepted at each receiver.
    seen_at_fw: std::collections::HashSet<u64>,
    seen_at_bs: std::collections::HashSet<u64>,

    // --- steady-state tick scratch (performance only; reusing these
    // buffers is never observable in metrics or telemetry) ---
    /// Camera detections for the current tick.
    cam_scratch: Vec<Detection>,
    /// LiDAR detections for the current tick.
    lidar_scratch: Vec<Detection>,
    /// Drone detections for the current tick (sender side).
    drone_scratch: Vec<Detection>,
    /// Fused people picture for the current tick.
    fused_scratch: Vec<Detection>,
    /// Decoded drone-feed staging; committed to `last_drone_feed` only
    /// on a successful decode, preserving decode-failure semantics.
    feed_parse_scratch: Vec<Detection>,
    /// Spatial-grid query index scratch shared by every culled sweep.
    candidates_scratch: Vec<u32>,
    /// Inbox-drain scratch; capacity ping-pongs with the medium's inbox.
    rx_scratch: Vec<ReceivedFrame>,
    /// Recovered frame-payload buffers, reused by the next seal/send.
    payload_pool: Vec<Vec<u8>>,
    /// Serialized drone-feed JSON for the current tick.
    feed_buf: Vec<u8>,
    /// Telemetry-uplink report text for the current tick.
    report_buf: String,
}

impl Worksite {
    /// Builds and commissions a worksite from configuration and seed.
    ///
    /// A build generates the world, creates the long-lived containers
    /// (radio medium, flight recorder, attack engine, scratch buffers)
    /// and then runs the same assembly [`Worksite::reset_for_episode`]
    /// runs after it regenerates its world in place, so a build and a
    /// reset share one construction path. A secure site is commissioned
    /// by [`SitePkiTemplate::build`] and keeps that template, so its
    /// first reset at the same `(seed, drone profile)` reuses it.
    ///
    /// # Panics
    ///
    /// Panics if secure commissioning fails (it cannot, for untampered
    /// firmware) — a commissioning failure is a scenario-construction
    /// bug, not a runtime condition.
    #[must_use]
    pub fn new(config: &WorksiteConfig, seed: u64) -> Self {
        let root_rng = SimRng::from_seed(seed);
        let world = World::generate(&config.world, root_rng.fork("world"));
        let (recorder, flight_sub, security_sub, tick_counter) =
            Self::telemetry_recorder(&config.telemetry);
        // Pool buffers start at worst-case record size so a
        // later-than-ever-seen largest drone feed never reallocs
        // mid-window. The pool is sized here only: replayed frames hand
        // their exact-size payloads to it, so re-reserving pooled
        // buffers on a reset would allocate.
        let pooled_bytes = Self::scratch_caps(&world).1 + 64;
        // Every per-episode part below is a placeholder that `assemble`
        // replaces; the reused containers start empty.
        let mut site = Worksite {
            config: config.clone(),
            world,
            medium: Medium::new(MediumConfig::default(), root_rng.clone()),
            gnss_field: GnssField::new(),
            attack_engine: AttackEngine::new(),
            forwarder: Forwarder::new(config.world.landing_area, config.forwarder),
            camera: PeopleSensor::new(SensorKind::Camera, 0.0),
            lidar: PeopleSensor::new(SensorKind::Lidar, 0.0),
            gnss_rx: GnssReceiver::default(),
            supervisor: SafetySupervisor::new(config.safety),
            drone: None,
            harvester: Harvester::new(config.world.work_area, SimDuration::ZERO),
            node_fw: NodeId(0),
            node_bs: NodeId(0),
            node_drone: None,
            links: None,
            pki_template: None,
            ids: None,
            response: ResponsePolicy::default(),
            security_stop_until: None,
            degraded_until: None,
            prev_deauth_rx: 0,
            prev_bs_assoc_rx: 0,
            prev_link_attempted: 0,
            prev_link_delivered: 0,
            auth_failures_tick: 0,
            last_drone_feed: Vec::new(),
            open_scratch: Vec::new(),
            danger_in_progress: false,
            seq: 0,
            rng: root_rng,
            metrics: WorksiteMetrics::default(),
            recorder,
            flight_sub,
            security_sub,
            tick_counter,
            // Pre-sized so the plaintext-posture replay log never
            // rehashes inside a measured steady-state window.
            seen_at_fw: std::collections::HashSet::with_capacity(8192),
            seen_at_bs: std::collections::HashSet::with_capacity(8192),
            cam_scratch: Vec::new(),
            lidar_scratch: Vec::new(),
            drone_scratch: Vec::new(),
            fused_scratch: Vec::new(),
            feed_parse_scratch: Vec::new(),
            candidates_scratch: Vec::new(),
            rx_scratch: Vec::with_capacity(8),
            payload_pool: (0..PAYLOAD_POOL_CAP)
                .map(|_| Vec::with_capacity(pooled_bytes))
                .collect(),
            feed_buf: Vec::new(),
            report_buf: String::with_capacity(64),
        };
        site.assemble(config, seed);
        site
    }

    /// A flight recorder shaped by `telemetry`, with the flight and
    /// security subscribers and the tick counter every site exports.
    ///
    /// The recorder is threaded through every instrumented component
    /// exactly like `SimRng`: cloned handles, one shared core, no
    /// globals. Recording never draws randomness or touches control
    /// flow, so traces ride along without perturbing the run.
    fn telemetry_recorder(
        telemetry: &TelemetryConfig,
    ) -> (Recorder, SubscriberId, SubscriberId, CounterId) {
        let recorder = if telemetry.enabled {
            Recorder::new()
        } else {
            Recorder::disabled()
        };
        let flight = recorder.subscribe("flight", telemetry.flight_capacity);
        let security = recorder.subscribe_filtered(
            "security",
            telemetry.security_capacity,
            EventFilter::security(),
        );
        let ticks = recorder.counter("worksite_ticks");
        (recorder, flight, security, ticks)
    }

    /// Worst-case scratch sizes for `world`'s roster, as `(detections,
    /// feed bytes)`. Detections are people detections, so every
    /// per-detection buffer is bounded by the roster; a serialized
    /// detection is well under 192 JSON bytes even at full f64
    /// round-trip precision.
    fn scratch_caps(world: &World) -> (usize, usize) {
        let humans = world.humans().len().max(1);
        (humans, 16 + 192 * humans)
    }

    /// Resets this worksite in place to the state [`Worksite::new`]
    /// would produce for `(config, seed)`: it regenerates the world in
    /// place and then runs the assembly a build runs, reusing every
    /// long-lived allocation: terrain grids, tree stands, telemetry
    /// rings, radio inboxes, session key schedules and scratch buffers.
    /// Secure provisioning comes from the site's [`SitePkiTemplate`],
    /// rebuilt only when `(seed, drone profile)` changes.
    ///
    /// Observable behaviour — metrics, security/flight telemetry
    /// exports — is byte-identical to a fresh build for the same
    /// `(config, seed)` (property-tested). In steady state (unchanged
    /// telemetry shape, warm template, a roster no larger than one the
    /// site has held) the reset performs no heap allocation.
    pub fn reset_for_episode(&mut self, config: &WorksiteConfig, seed: u64) {
        self.world
            .regenerate(&config.world, &SimRng::from_seed(seed).fork("world"));
        self.assemble(config, seed);
    }

    /// Assembles everything but the world for `(config, seed)` into
    /// this site's long-lived containers: telemetry, radio nodes, the
    /// attacker, secure links, machines, IDS, per-episode state and
    /// scratch. The one construction path behind [`Worksite::new`] and
    /// [`Worksite::reset_for_episode`]; the world must already be
    /// (re)generated from `seed`.
    fn assemble(&mut self, config: &WorksiteConfig, seed: u64) {
        let root_rng = SimRng::from_seed(seed);
        self.rng = root_rng.fork("site");

        // Telemetry: reuse the recorder core when the subscriber shape
        // is unchanged, otherwise build one for the new shape.
        if config.telemetry == self.config.telemetry {
            self.recorder.reset();
        } else {
            (
                self.recorder,
                self.flight_sub,
                self.security_sub,
                self.tick_counter,
            ) = Self::telemetry_recorder(&config.telemetry);
        }

        // Worksite radios: elevated antennas and a modest power budget
        // sized so the clean network works across the stand — attacks are
        // then measured against a functioning baseline.
        let propagation = silvasec_comms::propagation::PropagationConfig {
            exponent: 2.6,
            per_tree_db: 0.3,
            ..silvasec_comms::propagation::PropagationConfig::default()
        };
        let medium_config = MediumConfig {
            mfp_enabled: config.security.mfp,
            tx_power_dbm: 27.0,
            propagation,
            ..MediumConfig::default()
        };
        self.medium.reset(medium_config, root_rng.fork("medium"));
        self.medium.set_recorder(self.recorder.clone());

        let landing = config.world.landing_area;
        let above_ground = |p: Vec2, height_m: f64| p.with_z(self.world.ground_at(p) + height_m);
        self.node_bs = self.medium.add_node(above_ground(landing, 6.0));
        self.node_fw = self.medium.add_node(above_ground(landing, 3.0));
        self.node_drone = config
            .drone_enabled
            .then(|| self.medium.add_node(above_ground(landing, 50.0)));
        self.medium.associate(self.node_bs);
        self.medium.associate(self.node_fw);
        if let Some(n) = self.node_drone {
            self.medium.associate(n);
        }
        // The attacker's rogue radio sits at the stand edge.
        let attacker_pos = Vec2::new(config.world.terrain.size_m * 0.5, 5.0);
        let node_attacker = self.medium.add_node(above_ground(attacker_pos, 2.0));
        self.attack_engine.reset();
        self.attack_engine.set_attacker_node(node_attacker);
        self.attack_engine.set_recorder(self.recorder.clone());

        // Secure commissioning: the site's template, commissioned once
        // per `(seed, drone profile)`, replays its handshake telemetry
        // and keys every session.
        if config.security.secure_channel {
            let template = match self.pki_template.take() {
                Some(t) if t.matches(seed, config.drone_enabled) => t,
                _ => Rc::new(SitePkiTemplate::build(seed, config.drone_enabled)),
            };
            template.replay_commissioning_telemetry(&self.recorder);
            let links = match &mut self.links {
                // Same shape: re-key the sessions inside their existing
                // allocations.
                Some(links) if links.drone.is_some() == config.drone_enabled => {
                    rekey_link(&mut links.fw, &mut links.bs_fw, &template.fw_bs);
                    if let (Some(drone), Some(fw), Some(l)) =
                        (&mut links.drone, &mut links.fw_drone, &template.drone_fw)
                    {
                        rekey_link(drone, fw, l);
                    }
                    links
                }
                slot => slot.insert(SecureLinks::from_template(&template)),
            };
            links.set_recorder(&self.recorder);
            self.pki_template = Some(template);
        } else {
            self.links = None;
        }

        self.forwarder = Forwarder::new(landing, config.forwarder);
        self.camera = PeopleSensor::new(SensorKind::Camera, 2.8);
        self.lidar = PeopleSensor::new(SensorKind::Lidar, 3.2);
        self.gnss_rx = GnssReceiver::default();
        self.supervisor = SafetySupervisor::new(config.safety);
        self.drone = config
            .drone_enabled
            .then(|| Drone::new(landing, config.drone, &self.world));
        self.harvester = Harvester::new(config.world.work_area, SimDuration::from_secs(300));
        self.ids = config.security.ids.then(|| {
            let mut ids = WorksiteIds::new(config.ids.clone());
            ids.set_recorder(self.recorder.clone());
            ids
        });
        self.response = ResponsePolicy::default();
        self.security_stop_until = None;
        self.degraded_until = None;
        self.prev_deauth_rx = 0;
        self.prev_bs_assoc_rx = 0;
        self.prev_link_attempted = 0;
        self.prev_link_delivered = 0;
        self.auth_failures_tick = 0;
        self.danger_in_progress = false;
        self.seq = 0;
        self.metrics = WorksiteMetrics::default();
        self.seen_at_fw.clear();
        self.seen_at_bs.clear();
        self.gnss_field = GnssField::new();

        // Scratch capacities sized to the roster's worst case up front,
        // so no "largest feed yet" high-water growth ever allocates
        // inside a measured steady-state window. Reserving into a warm
        // buffer allocates nothing. `rx_scratch` is only cleared: its
        // capacity ping-pongs with the medium's inbox. `payload_pool` is
        // retained: pooled buffers carry no episode state (always
        // cleared before reuse).
        let (humans, feed_bytes) = Self::scratch_caps(&self.world);
        for buf in [
            &mut self.last_drone_feed,
            &mut self.cam_scratch,
            &mut self.lidar_scratch,
            &mut self.drone_scratch,
            &mut self.feed_parse_scratch,
        ] {
            buf.clear();
            buf.reserve(humans);
        }
        self.fused_scratch.clear();
        self.fused_scratch.reserve(3 * humans);
        self.candidates_scratch.clear();
        self.candidates_scratch.reserve(humans);
        self.open_scratch.clear();
        self.open_scratch.reserve(feed_bytes + 64);
        self.feed_buf.clear();
        self.feed_buf.reserve(feed_bytes);
        self.rx_scratch.clear();
        self.report_buf.clear();
        self.config.clone_from(config);
    }

    /// The PKI template of the site's latest secure build or reset;
    /// `None` until the site has been secure.
    #[must_use]
    pub fn pki_template(&self) -> Option<&Rc<SitePkiTemplate>> {
        self.pki_template.as_ref()
    }

    /// The attack engine, for scheduling campaigns.
    pub fn attack_engine_mut(&mut self) -> &mut AttackEngine {
        &mut self.attack_engine
    }

    /// The accumulated metrics.
    #[must_use]
    pub fn metrics(&self) -> &WorksiteMetrics {
        &self.metrics
    }

    /// The worksite's flight recorder (disabled when telemetry is off).
    #[must_use]
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Records currently held by the security-event ring, oldest first.
    #[must_use]
    pub fn security_records(&self) -> Vec<Record> {
        self.recorder.records(self.security_sub)
    }

    /// JSONL export of the security-event ring.
    #[must_use]
    pub fn export_security_jsonl(&self) -> String {
        self.recorder.export_jsonl(self.security_sub)
    }

    /// JSONL export of the unfiltered flight ring.
    #[must_use]
    pub fn export_flight_jsonl(&self) -> String {
        self.recorder.export_jsonl(self.flight_sub)
    }

    /// Telemetry metrics snapshot (counters, gauges, histograms and ring
    /// drop accounting).
    #[must_use]
    pub fn telemetry_snapshot(&self) -> MetricsSnapshot {
        self.recorder.snapshot()
    }

    /// Current sim time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.world.now()
    }

    /// The world (read access for experiments).
    #[must_use]
    pub fn world(&self) -> &World {
        &self.world
    }

    /// The forwarder (read access for experiments).
    #[must_use]
    pub fn forwarder(&self) -> &Forwarder {
        &self.forwarder
    }

    /// Runs the simulation for `duration`.
    pub fn run(&mut self, duration: SimDuration) {
        let end = self.world.now() + duration;
        while self.world.now() < end {
            self.tick();
        }
    }

    /// Executes one simulation tick.
    ///
    /// This is the steady-state hot path: perception runs through the
    /// grid-culled `_into` variants writing into worksite-owned scratch
    /// buffers, the drone feed is serialized by the canonical byte-exact
    /// writer into a reused buffer, comms payloads come from the
    /// recovered-buffer pool, and safety supervision range-tests only
    /// grid-culled candidates. With warm buffers a quiet steady-state
    /// tick performs **zero heap allocations** (asserted under a
    /// counting allocator by `tests/alloc_free.rs`). Its observable
    /// output — metrics and the security and flight traces — is pinned
    /// by digest in this module's tests and in `tests/golden.rs`.
    pub fn tick(&mut self) {
        let tick = self.config.tick;
        self.world.step(tick);
        let now = self.world.now();
        self.recorder.advance(now);
        self.recorder.inc(self.tick_counter, 1);
        self.auth_failures_tick = 0;

        // --- attacks act on the shared physics ---
        let effects = self
            .attack_engine
            .step(now, &mut self.medium, &mut self.gnss_field);
        self.apply_attack_effects(effects);

        // --- GNSS-coupled navigation error ---
        self.apply_gnss_spoof_drift(now, tick);

        // --- perception (scratch buffers + grid culling) ---
        let fw_pos = self.forwarder.position();
        let heading = self.forwarder.vehicle.heading;
        self.camera.detect_into(
            &self.world,
            fw_pos,
            heading,
            &mut self.rng,
            &mut self.candidates_scratch,
            &mut self.cam_scratch,
        );
        self.lidar.detect_into(
            &self.world,
            fw_pos,
            heading,
            &mut self.rng,
            &mut self.candidates_scratch,
            &mut self.lidar_scratch,
        );
        self.recorder.record(Event::SensorReading {
            sensor: LABEL_FW_CAMERA,
            detections: self.cam_scratch.len() as u32,
        });
        self.recorder.record(Event::SensorReading {
            sensor: LABEL_FW_LIDAR,
            detections: self.lidar_scratch.len() as u32,
        });

        // Drone flies escort and streams detections over the radio.
        self.drone_feed(now, fw_pos);

        fuse_detections_into(
            &[
                self.cam_scratch.as_slice(),
                self.lidar_scratch.as_slice(),
                self.last_drone_feed.as_slice(),
            ],
            &mut self.fused_scratch,
        );

        // --- safety supervision (with security response override) ---
        let limit = self.supervisor.update(now, fw_pos, &self.fused_scratch);
        let limit = self.resolve_security_limit(now, limit);

        // --- machine motion and work ---
        let fw_pos = self.step_machines(now, tick, limit);

        // --- telemetry uplink fw → bs ---
        self.telemetry_uplink(now, fw_pos);

        // --- intrusion detection ---
        self.observe_ids(now, fw_pos);

        // --- safety accounting ---
        self.account_safety(now, fw_pos, limit);
        self.finish_tick();
    }

    /// Applies attack side effects to the sensors.
    fn apply_attack_effects(&mut self, effects: Vec<SideEffect>) {
        for effect in effects {
            match effect {
                SideEffect::BlindSensor {
                    machine_label,
                    health,
                } => {
                    if machine_label.starts_with("forwarder") {
                        // Optical interference blinds both optical
                        // sensors (camera and LiDAR) — Petit et al.'s
                        // remote attacks cover both.
                        self.camera.degrade(health);
                        self.lidar.degrade(health);
                    } else if machine_label.starts_with("drone") {
                        if let Some(d) = &mut self.drone {
                            d.sensor.degrade(health);
                        }
                    }
                }
                SideEffect::RestoreSensor { machine_label } => {
                    if machine_label.starts_with("forwarder") {
                        self.camera.degrade(1.0);
                        self.lidar.degrade(1.0);
                    } else if machine_label.starts_with("drone") {
                        if let Some(d) = &mut self.drone {
                            d.sensor.degrade(1.0);
                        }
                    }
                }
                SideEffect::TamperFirmware { .. } => {
                    // Takes effect at next boot; verified boot rejects it.
                    // (Exercised by the secure-boot experiment.)
                }
                _ => {}
            }
        }
    }

    /// Applies the security-response overrides (degraded mode, safe
    /// stop) on top of the supervisor's limit.
    fn resolve_security_limit(&mut self, now: SimTime, mut limit: SpeedLimit) -> SpeedLimit {
        if let Some(until) = self.degraded_until {
            if now < until {
                // Degraded mode: never faster than Slow.
                if limit == SpeedLimit::Full {
                    limit = SpeedLimit::Slow;
                }
            } else {
                self.degraded_until = None;
            }
        }
        if let Some(until) = self.security_stop_until {
            if now < until {
                limit = SpeedLimit::Stop;
            } else {
                self.security_stop_until = None;
            }
        }
        limit
    }

    /// Steps the machines and the radio node positions; returns the
    /// forwarder's post-step position.
    fn step_machines(&mut self, now: SimTime, tick: SimDuration, limit: SpeedLimit) -> Vec2 {
        let before_loads = self.forwarder.loads_delivered();
        self.forwarder.step(&self.world, limit, tick);
        self.metrics.loads_delivered += self.forwarder.loads_delivered() - before_loads;
        let _ = self.harvester.step(now);
        if limit == SpeedLimit::Stop {
            self.metrics.stopped_ticks += 1;
        }

        let fw_pos = self.forwarder.position();
        self.medium.set_position(
            self.node_fw,
            fw_pos.with_z(self.world.ground_at(fw_pos) + 3.0),
        );
        if let (Some(node), Some(d)) = (self.node_drone, &self.drone) {
            self.medium.set_position(node, d.body.position);
        }
        fw_pos
    }

    /// Per-tick metric roll-up.
    fn finish_tick(&mut self) {
        self.metrics.stop_events = self.supervisor.stop_events();
        self.metrics.distance_m = self.forwarder.distance_travelled();
        self.metrics.ticks += 1;
    }

    /// Returns a payload buffer to the pool (bounded, cleared).
    fn pool_push(pool: &mut Vec<Vec<u8>>, mut buf: Vec<u8>) {
        if pool.len() < PAYLOAD_POOL_CAP {
            buf.clear();
            pool.push(buf);
        }
    }

    /// A GNSS-guided machine corrects its trajectory against its fix; a
    /// dragged fix therefore pushes the *true* position off the plan.
    fn apply_gnss_spoof_drift(&mut self, now: SimTime, tick: SimDuration) {
        let truth = self.forwarder.position();
        let Some(fix) = self
            .gnss_rx
            .sample(&self.gnss_field, truth, now, &mut self.rng)
        else {
            return; // jammed: navigation falls back to odometry (no drift)
        };
        let offset = fix.position - truth;
        if offset.length() > 3.0 {
            // The controller steers to cancel the perceived error, moving
            // the true position opposite to the offset, bounded by what
            // the machine can physically do in one tick.
            let max_step = self.forwarder.vehicle.speed_cap.min(2.0) * tick.as_secs_f64();
            let correction = -offset.normalized() * offset.length().min(max_step);
            let size = self.config.world.terrain.size_m;
            let new_pos = Vec2::new(
                (truth.x + correction.x).clamp(0.0, size),
                (truth.y + correction.y).clamp(0.0, size),
            );
            self.forwarder.vehicle.position = new_pos;
        }
    }

    /// Zero-alloc drone feed: grid-culled `detect_into`, the canonical
    /// byte-exact JSON writer into a reused buffer, pooled comms
    /// payloads (recovered both from drained frames and from lost
    /// frames via [`Medium::transmit_env_reclaiming`]), and an
    /// attacker-capture gated on whether any replay campaign actually
    /// consumes captures.
    fn drone_feed(&mut self, now: SimTime, fw_pos: Vec2) {
        self.last_drone_feed.clear();
        let Some(drone) = &mut self.drone else {
            return;
        };
        let Some(node_drone) = self.node_drone else {
            return;
        };
        drone.step(&self.world, fw_pos, self.config.tick);
        drone.detect_into(
            &self.world,
            &mut self.rng,
            &mut self.candidates_scratch,
            &mut self.drone_scratch,
        );
        self.recorder.record_at(
            now,
            Event::SensorReading {
                sensor: LABEL_DRONE_CAMERA,
                detections: self.drone_scratch.len() as u32,
            },
        );

        detections_to_json(&self.drone_scratch, &mut self.feed_buf);
        let mut payload = self.payload_pool.pop().unwrap_or_default();
        if let Some(links) = &mut self.links {
            match links
                .drone
                .as_mut()
                .map(|s| s.seal_into(&self.feed_buf, &mut payload))
            {
                Some(Ok(())) => {}
                _ => {
                    Self::pool_push(&mut self.payload_pool, payload);
                    return;
                }
            }
        } else {
            payload.clear();
            payload.extend_from_slice(&self.feed_buf);
        }

        self.seq += 1;
        let frame = Frame::data(node_drone, self.node_fw, payload).with_seq(self.seq);
        self.metrics.drone_feed_sent += 1;
        // The attacker passively sniffs a fraction of the traffic for
        // later replay (it is in radio range of the whole stand).
        // Captures are only ever consumed by a replay campaign, so when
        // none is scheduled the clone is unobservable and skipped.
        if self.seq.is_multiple_of(5) && self.attack_engine.wants_captures() {
            self.attack_engine.capture(frame.clone());
        }
        let (_, reclaimed) = self.medium.transmit_env_reclaiming(
            self.world.stand(),
            self.world.weather(),
            node_drone,
            frame,
            now,
        );
        if let Some(buf) = reclaimed {
            Self::pool_push(&mut self.payload_pool, buf);
        }

        // Forwarder drains its inbox and decodes the feed.
        let mut rxs = std::mem::take(&mut self.rx_scratch);
        self.medium.drain_inbox_into(self.node_fw, &mut rxs);
        for rx in rxs.drain(..) {
            let frame = rx.frame;
            // `fresh` = a first-time, genuinely-sourced feed frame.
            // Secure links enforce this cryptographically (replays fail
            // to open); the plaintext path only *measures* it via the
            // ground-truth sequence log.
            let (body, fresh): (&[u8], bool) = if let Some(links) = &mut self.links {
                let Some(session) = links.fw_drone.as_mut() else {
                    Self::pool_push(&mut self.payload_pool, frame.payload);
                    continue;
                };
                match session.open_into(&frame.payload, &mut self.open_scratch) {
                    Ok(()) => (&self.open_scratch, true),
                    Err(_) => {
                        self.auth_failures_tick += 1;
                        self.metrics.auth_failures += 1;
                        Self::pool_push(&mut self.payload_pool, frame.payload);
                        continue;
                    }
                }
            } else {
                let fresh = frame.claimed_src == node_drone && self.seen_at_fw.insert(frame.seq);
                if !fresh {
                    self.metrics.forged_accepted += 1;
                }
                (&frame.payload, fresh)
            };
            if detections_from_json(body, &mut self.feed_parse_scratch) {
                // Stale replayed feeds still overwrite the forwarder's
                // picture (the attack's harm) but only fresh frames count
                // towards availability.
                std::mem::swap(&mut self.last_drone_feed, &mut self.feed_parse_scratch);
                if fresh {
                    self.metrics.drone_feed_delivered += 1;
                }
            }
            Self::pool_push(&mut self.payload_pool, frame.payload);
        }
        self.rx_scratch = rxs;
    }

    /// Zero-alloc telemetry uplink: the report is formatted into a
    /// reused `String`, sealed into a pooled payload buffer, and lost
    /// or drained frames hand their buffers back to the pool.
    fn telemetry_uplink(&mut self, now: SimTime, fw_pos: Vec2) {
        use std::fmt::Write as _;
        self.report_buf.clear();
        let _ = write!(
            self.report_buf,
            "pos={:.1},{:.1};loads={}",
            fw_pos.x,
            fw_pos.y,
            self.forwarder.loads_delivered()
        );
        let mut payload = self.payload_pool.pop().unwrap_or_default();
        if let Some(links) = &mut self.links {
            match links.fw.seal_into(self.report_buf.as_bytes(), &mut payload) {
                Ok(()) => {}
                Err(_) => {
                    Self::pool_push(&mut self.payload_pool, payload);
                    return;
                }
            }
        } else {
            payload.clear();
            payload.extend_from_slice(self.report_buf.as_bytes());
        }
        self.seq += 1;
        let frame = Frame::data(self.node_fw, self.node_bs, payload).with_seq(self.seq);
        self.metrics.messages_sent += 1;
        if self.seq.is_multiple_of(5) && self.attack_engine.wants_captures() {
            self.attack_engine.capture(frame.clone());
        }
        let (_, reclaimed) = self.medium.transmit_env_reclaiming(
            self.world.stand(),
            self.world.weather(),
            self.node_fw,
            frame,
            now,
        );
        if let Some(buf) = reclaimed {
            Self::pool_push(&mut self.payload_pool, buf);
        }

        let mut rxs = std::mem::take(&mut self.rx_scratch);
        self.medium.drain_inbox_into(self.node_bs, &mut rxs);
        for rx in rxs.drain(..) {
            let frame = rx.frame;
            if let Some(links) = &mut self.links {
                match links
                    .bs_fw
                    .open_into(&frame.payload, &mut self.open_scratch)
                {
                    Ok(()) => self.metrics.messages_delivered += 1,
                    Err(_) => {
                        self.auth_failures_tick += 1;
                        self.metrics.auth_failures += 1;
                    }
                }
            } else if frame.claimed_src != self.node_fw || !self.seen_at_bs.insert(frame.seq) {
                // Forged source or replayed sequence — accepted by the
                // plaintext receiver (the harm), but not counted as a
                // legitimate delivery.
                self.metrics.forged_accepted += 1;
            } else {
                self.metrics.messages_delivered += 1;
            }
            Self::pool_push(&mut self.payload_pool, frame.payload);
        }
        self.rx_scratch = rxs;
    }

    fn observe_ids(&mut self, now: SimTime, fw_pos: Vec2) {
        let Some(ids) = &mut self.ids else {
            return;
        };
        let mut alerts = Vec::new();

        // Radio telemetry for the forwarder's receiver.
        let stats = self.medium.node_stats(self.node_fw);
        let deauth_delta = stats.deauth_rx - self.prev_deauth_rx;
        self.prev_deauth_rx = stats.deauth_rx;
        let link = self.medium.link_stats(self.node_fw, self.node_bs);
        let (attempted, delivered) = link.map_or((0, 0), |l| (l.attempted, l.delivered));
        let att_delta = attempted - self.prev_link_attempted;
        let del_delta = delivered - self.prev_link_delivered;
        self.prev_link_attempted = attempted;
        self.prev_link_delivered = delivered;
        let delivery_ratio = if att_delta == 0 {
            1.0
        } else {
            del_delta as f64 / att_delta as f64
        };

        // The roster is fixed at commissioning; any association request
        // arriving at the base station afterwards is from an unknown
        // radio.
        let bs_assoc = self.medium.node_stats(self.node_bs).assoc_rx;
        let unknown_assoc_delta = bs_assoc - self.prev_bs_assoc_rx;
        self.prev_bs_assoc_rx = bs_assoc;
        alerts.extend(ids.observe_radio(&RadioObservation {
            node_label: LABEL_BS,
            at: now,
            noise_dbm: None,
            delivery_ratio: 1.0,
            deauth_frames: 0,
            auth_failures: 0,
            unknown_assoc_requests: unknown_assoc_delta,
        }));

        alerts.extend(ids.observe_radio(&RadioObservation {
            node_label: LABEL_FW,
            at: now,
            noise_dbm: stats.noise_ewma.get(),
            delivery_ratio,
            deauth_frames: deauth_delta,
            auth_failures: self.auth_failures_tick,
            unknown_assoc_requests: 0,
        }));

        // Navigation cross-check: dead reckoning ≈ odometry (slow drift).
        let fix = self
            .gnss_rx
            .sample(&self.gnss_field, fw_pos, now, &mut self.rng)
            .map(|f| f.position);
        let dead_reckoned = Vec2::new(
            fw_pos.x + self.rng.normal(0.0, 0.4),
            fw_pos.y + self.rng.normal(0.0, 0.4),
        );
        alerts.extend(ids.observe_nav(&NavObservation {
            machine_label: LABEL_FW,
            at: now,
            gnss_fix: fix,
            dead_reckoned,
            moving: self.forwarder.vehicle.speed_cap > 0.0,
        }));

        // Sensor health: nearby trunks + detections are the feature
        // stream; blinding collapses it.
        // The feature stream reads at most 60 trees, so the count stops
        // there.
        let nearby_trees = self.world.stand().count_trees_near_segment(
            fw_pos,
            fw_pos + Vec2::new(0.1, 0.0),
            25.0,
            60,
        );
        let mut features = 0u32;
        for _ in 0..nearby_trees {
            if self.rng.chance(0.85 * self.camera.health) {
                features += 1;
            }
        }
        alerts.extend(ids.observe_sensor(&SensorObservation {
            sensor_label: LABEL_FW_CAMERA,
            at: now,
            feature_count: features,
        }));

        // Record and respond.
        for alert in alerts {
            self.metrics.record_alert(alert.kind, alert.at);
            match self.response.decide_recorded(&alert, &self.recorder) {
                ResponseAction::SafeStop => {
                    self.security_stop_until = Some(now + self.config.safe_stop_hold);
                    self.metrics.security_stops += 1;
                }
                ResponseAction::RekeyAndReauth => {
                    if let Some(links) = &mut self.links {
                        links.fw.rekey();
                        links.bs_fw.rekey();
                        if let (Some(d), Some(f)) = (&mut links.drone, &mut links.fw_drone) {
                            d.rekey();
                            f.rekey();
                        }
                    }
                }
                ResponseAction::DegradedMode => {
                    self.degraded_until = Some(now + self.config.safe_stop_hold);
                }
                ResponseAction::LogOnly => {}
            }
        }
    }

    /// Grid-culled danger-zone accounting: only humans within
    /// `DANGER_RADIUS_M` of the forwarder (a conservative 2-D grid
    /// superset of the full roster restricted to that radius) are
    /// range-tested.
    ///
    /// Equivalence with a scan of the full roster: the culled candidate
    /// set is a subset of all humans, so its min distance is ≥ the true
    /// min; and whenever the true min is ≤ `DANGER_RADIUS_M` the argmin
    /// human is inside the query radius and therefore in the candidate
    /// set, so the two minima coincide exactly on every tick where the
    /// danger branch is taken. The branch predicate (and the recorded
    /// `distance_m`) is thus the one the full scan would give.
    fn account_safety(&mut self, now: SimTime, fw_pos: Vec2, limit: SpeedLimit) {
        self.world.human_grid().fill_candidates(
            fw_pos,
            DANGER_RADIUS_M,
            &mut self.candidates_scratch,
        );
        let mut nearest = f64::INFINITY;
        for &i in &self.candidates_scratch {
            nearest = nearest.min(self.world.humans()[i as usize].position.distance(fw_pos));
        }
        if nearest <= DANGER_RADIUS_M {
            self.metrics.danger_zone_ticks += 1;
            let moving = limit != SpeedLimit::Stop
                && self.forwarder.vehicle.effective_speed(self.world.terrain()) > 0.3
                && !self.forwarder.vehicle.path_complete();
            if moving {
                self.metrics.moving_danger_ticks += 1;
                if !self.danger_in_progress {
                    self.danger_in_progress = true;
                    self.metrics.safety_incidents.push(SafetyIncident {
                        at: now,
                        distance_m: nearest,
                        speed_mps: self.forwarder.vehicle.effective_speed(self.world.terrain()),
                    });
                }
            } else {
                self.danger_in_progress = false;
            }
        } else {
            self.danger_in_progress = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SecurityPosture;
    use silvasec_attacks::prelude::*;
    use silvasec_sim::terrain::TerrainConfig;
    use silvasec_sim::vegetation::StandConfig;
    use silvasec_sim::world::WorldConfig;

    fn small_config(security: SecurityPosture) -> WorksiteConfig {
        WorksiteConfig {
            world: WorldConfig {
                terrain: TerrainConfig {
                    size_m: 300.0,
                    relief_m: 6.0,
                    ..TerrainConfig::default()
                },
                stand: StandConfig {
                    trees_per_hectare: 300.0,
                    ..StandConfig::default()
                },
                human_count: 2,
                work_area: Vec2::new(240.0, 240.0),
                landing_area: Vec2::new(60.0, 60.0),
                ..WorldConfig::default()
            },
            security,
            ..WorksiteConfig::default()
        }
    }

    #[test]
    fn secure_site_runs_and_hauls() {
        let mut site = Worksite::new(&small_config(SecurityPosture::secure()), 1);
        site.run(SimDuration::from_secs(600));
        let m = site.metrics();
        assert_eq!(m.ticks, 1200);
        assert!(
            m.distance_m > 100.0,
            "forwarder barely moved: {} m",
            m.distance_m
        );
        assert!(m.messages_sent > 1000);
        assert!(m.delivery_ratio() > 0.8, "delivery {}", m.delivery_ratio());
        assert_eq!(m.forged_accepted, 0);
    }

    #[test]
    fn insecure_site_also_operates() {
        let mut site = Worksite::new(&small_config(SecurityPosture::insecure()), 1);
        site.run(SimDuration::from_secs(300));
        assert!(site.metrics().messages_delivered > 0);
    }

    #[test]
    fn deterministic_runs() {
        let run = |seed| {
            let mut site = Worksite::new(&small_config(SecurityPosture::secure()), seed);
            site.run(SimDuration::from_secs(120));
            (
                site.metrics().messages_delivered,
                site.metrics().distance_m.to_bits(),
                site.metrics().danger_zone_ticks,
            )
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn jamming_degrades_delivery_and_is_detected() {
        let mut site = Worksite::new(&small_config(SecurityPosture::secure()), 2);
        site.attack_engine_mut().add_campaign(AttackCampaign {
            kind: AttackKind::RfJamming,
            target: AttackTarget::Area {
                center: Vec2::new(150.0, 150.0),
                radius_m: 300.0,
            },
            start: SimTime::from_secs(60),
            duration: SimDuration::from_secs(120),
            intensity: 1.0,
        });
        site.run(SimDuration::from_secs(300));
        let m = site.metrics();
        assert!(
            m.delivery_ratio() < 0.9,
            "jamming had no effect: {}",
            m.delivery_ratio()
        );
        assert!(
            m.alert_count(silvasec_ids::AlertKind::Jamming) > 0,
            "jamming undetected"
        );
        let first = m.first_alert_at.get("jamming").copied().unwrap();
        assert!(first >= SimTime::from_secs(60));
        assert!(
            first <= SimTime::from_secs(120),
            "detected too late: {first}"
        );
    }

    #[test]
    fn camera_blinding_detected_and_safe_stopped() {
        let mut site = Worksite::new(&small_config(SecurityPosture::secure()), 3);
        site.attack_engine_mut().add_campaign(AttackCampaign {
            kind: AttackKind::CameraBlinding,
            target: AttackTarget::Machine {
                label: "forwarder-01".into(),
            },
            start: SimTime::from_secs(120),
            duration: SimDuration::from_secs(120),
            intensity: 1.0,
        });
        site.run(SimDuration::from_secs(360));
        let m = site.metrics();
        assert!(
            m.alert_count(silvasec_ids::AlertKind::SensorBlinding) > 0,
            "blinding undetected; alerts: {:?}",
            m.alerts
        );
        assert!(m.security_stops > 0, "no protective stop commanded");
    }

    #[test]
    fn rogue_node_association_detected() {
        let mut site = Worksite::new(&small_config(SecurityPosture::secure()), 5);
        site.attack_engine_mut().add_campaign(AttackCampaign {
            kind: AttackKind::RogueNode,
            target: AttackTarget::Link {
                spoof_as: silvasec_comms::NodeId(0),
                victim: silvasec_comms::NodeId(0),
            },
            start: SimTime::from_secs(60),
            duration: SimDuration::from_secs(60),
            intensity: 1.0,
        });
        site.run(SimDuration::from_secs(180));
        assert!(
            site.metrics()
                .alert_count(silvasec_ids::AlertKind::RogueAssociation)
                > 0,
            "rogue association undetected; alerts: {:?}",
            site.metrics().alerts
        );
    }

    #[test]
    fn telemetry_records_attack_story_deterministically() {
        let run = |seed| {
            let mut site = Worksite::new(&small_config(SecurityPosture::secure()), seed);
            site.attack_engine_mut().add_campaign(AttackCampaign {
                kind: AttackKind::RfJamming,
                target: AttackTarget::Area {
                    center: Vec2::new(150.0, 150.0),
                    radius_m: 300.0,
                },
                start: SimTime::from_secs(60),
                duration: SimDuration::from_secs(60),
                intensity: 1.0,
            });
            site.run(SimDuration::from_secs(180));
            site
        };
        let site = run(2);
        let records = site.security_records();
        // Commissioning handshakes land at t=0, the campaign's jammer
        // switch-on at t=60s, the IDS alerts and responses after that —
        // all in one globally-sequenced trace.
        assert!(records
            .iter()
            .any(|r| matches!(r.event, silvasec_telemetry::Event::HandshakeDone { .. })));
        assert!(records.iter().any(|r| matches!(
            r.event,
            silvasec_telemetry::Event::AttackPhase { started: true, .. }
        )));
        assert!(records
            .iter()
            .any(|r| matches!(r.event, silvasec_telemetry::Event::Jam { on: true, .. })));
        assert!(records
            .iter()
            .any(|r| matches!(r.event, silvasec_telemetry::Event::IdsAlert { .. })));
        assert!(records
            .iter()
            .any(|r| matches!(r.event, silvasec_telemetry::Event::Response { .. })));
        assert!(records.windows(2).all(|w| w[0].seq < w[1].seq));

        // Identical seeds export byte-identical security traces.
        assert_eq!(site.export_security_jsonl(), run(2).export_security_jsonl());

        // The metrics registry saw every tick, and the flight ring's
        // drop accounting is visible in the snapshot.
        let snap = site.telemetry_snapshot();
        assert_eq!(snap.counter("worksite_ticks"), Some(360));
        assert_eq!(snap.subscribers.len(), 2);
    }

    #[test]
    fn disabled_telemetry_does_not_change_the_run() {
        let run = |enabled: bool| {
            let mut config = small_config(SecurityPosture::secure());
            config.telemetry.enabled = enabled;
            let mut site = Worksite::new(&config, 7);
            site.run(SimDuration::from_secs(120));
            (
                site.metrics().messages_delivered,
                site.metrics().distance_m.to_bits(),
            )
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn replay_rejected_when_secure_accepted_when_not() {
        let run = |posture: SecurityPosture| {
            let mut site = Worksite::new(&small_config(posture), 4);
            site.attack_engine_mut().add_campaign(replay_campaign());
            site.run(SimDuration::from_secs(240));
            (site.metrics().forged_accepted, site.metrics().auth_failures)
        };
        let (secure_forged, secure_auth_failures) = run(SecurityPosture::secure());
        let (insecure_forged, _) = run(SecurityPosture::insecure());
        assert_eq!(secure_forged, 0, "secure channel accepted forged traffic");
        assert!(
            insecure_forged > 0,
            "insecure site should have accepted replayed frames"
        );
        assert!(
            secure_auth_failures > 0,
            "replays should surface as auth failures"
        );
    }

    fn replay_campaign() -> AttackCampaign {
        AttackCampaign {
            kind: AttackKind::Replay,
            target: AttackTarget::Network,
            start: SimTime::from_secs(30),
            duration: SimDuration::from_secs(120),
            intensity: 1.0,
        }
    }

    fn jam_campaign() -> AttackCampaign {
        AttackCampaign {
            kind: AttackKind::RfJamming,
            target: AttackTarget::Area {
                center: Vec2::new(150.0, 150.0),
                radius_m: 300.0,
            },
            start: SimTime::from_secs(30),
            duration: SimDuration::from_secs(60),
            intensity: 1.0,
        }
    }

    /// Scalar + trace fingerprint of a finished run; byte-equal
    /// fingerprints mean observably identical episodes.
    fn fingerprint(site: &Worksite) -> (u64, u64, u64, u64, String, String) {
        let m = site.metrics();
        (
            m.ticks,
            m.messages_delivered,
            m.distance_m.to_bits(),
            m.danger_zone_ticks,
            site.export_security_jsonl(),
            site.export_flight_jsonl(),
        )
    }

    /// sha256 of a [`fingerprint`], each part prefixed with its length as
    /// a little-endian `u64` (the `tests/golden.rs` digest), as hex.
    fn fingerprint_digest(site: &Worksite) -> String {
        let (ticks, delivered, distance, danger, security, flight) = fingerprint(site);
        let mut h = silvasec_crypto::sha256::Sha256::new();
        for part in [
            &ticks.to_le_bytes()[..],
            &delivered.to_le_bytes(),
            &distance.to_le_bytes(),
            &danger.to_le_bytes(),
            security.as_bytes(),
            flight.as_bytes(),
        ] {
            h.update(&(part.len() as u64).to_le_bytes());
            h.update(part);
        }
        h.finalize().iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Campaign of one pinned tick scenario.
    #[derive(Debug, Clone, Copy)]
    enum Pinned {
        /// No campaign, 150 s.
        Quiet,
        /// [`jam_campaign`], 150 s.
        Jam,
        /// [`replay_campaign`], 240 s.
        Replay,
    }
    use Pinned::{Jam, Quiet, Replay};

    /// Fingerprint pins of the small site, `(secure, seed, campaign,
    /// pin)`: secure and insecure × seeds 3 and 11 × quiet and jamming.
    /// Jamming loses frames, so their payload buffers come back through
    /// the reclaiming transmit. The pins were recorded while the
    /// pre-optimization tick body was still kept beside this one and
    /// matched it on every run, so they are that reference body's
    /// outputs.
    const REFERENCE_PINS: [(bool, u64, Pinned, &str); 8] = [
        (
            true,
            3,
            Quiet,
            "a935c51183333d05c9e01b0f16eb573e3d6835b9ae6b4af731eb6b5518497442",
        ),
        (
            true,
            3,
            Jam,
            "a45b24843c970681faf8be67bfdb1a1dfad9603d55729d45fe99f099159776d6",
        ),
        (
            true,
            11,
            Quiet,
            "3a213b7aac2cdef28e520b9507a8db88ab2f0e6fbb226815044bd5554ff48208",
        ),
        (
            true,
            11,
            Jam,
            "755748696452f8074642e497801aaffe73abb37d992722271202bf4941bda9b8",
        ),
        (
            false,
            3,
            Quiet,
            "6418c0ec2f45d35aa3dd3880594f6c4a91ca11c3cbdd72ae7d414b1e03445222",
        ),
        (
            false,
            3,
            Jam,
            "39474699533ab9ec1c686ec0171eacf20aac2c42070dfe1232ad84017ee417c4",
        ),
        (
            false,
            11,
            Quiet,
            "494b449a10994138aa3599b0776e1aab734ec97bc0d6f769efc4bd3f8442ddbe",
        ),
        (
            false,
            11,
            Jam,
            "12e08b427223d41b0fd06809e70ba06228896962b225bf339060193f088c41b4",
        ),
    ];

    /// Fingerprint pins of both postures under replay at seed 4, the one
    /// campaign that consumes captured frames; recorded from the
    /// reference body like [`REFERENCE_PINS`].
    const REPLAY_REFERENCE_PINS: [(bool, u64, Pinned, &str); 2] = [
        (
            true,
            4,
            Replay,
            "c5e609a45646f6341894b2610491414fdc084469f2b17bd9fb6f0204d1c4d51d",
        ),
        (
            false,
            4,
            Replay,
            "8070724771df8956270ed64a2e9c086a758ee780bf724fa76b2e630d9c4d71e7",
        ),
    ];

    /// Runs each pinned scenario and fails naming every one whose
    /// fingerprint digest moved off its pin.
    fn assert_pins(pins: &[(bool, u64, Pinned, &str)]) {
        let mut moved = Vec::new();
        for &(secure, seed, campaign, pin) in pins {
            let posture = if secure {
                SecurityPosture::secure()
            } else {
                SecurityPosture::insecure()
            };
            let mut site = Worksite::new(&small_config(posture), seed);
            let secs = match campaign {
                Quiet => 150,
                Jam => {
                    site.attack_engine_mut().add_campaign(jam_campaign());
                    150
                }
                Replay => {
                    site.attack_engine_mut().add_campaign(replay_campaign());
                    240
                }
            };
            site.run(SimDuration::from_secs(secs));
            let got = fingerprint_digest(&site);
            if got != pin {
                moved.push(format!("secure={secure} seed={seed} {campaign:?}: {got}"));
            }
        }
        assert!(moved.is_empty(), "tick pins moved:\n{}", moved.join("\n"));
    }

    #[test]
    fn tick_matches_reference_oracle() {
        assert_pins(&REFERENCE_PINS);
    }

    #[test]
    fn tick_matches_reference_under_replay() {
        assert_pins(&REPLAY_REFERENCE_PINS);
    }

    #[test]
    fn a_built_secure_site_keeps_its_pki_template() {
        let secure = small_config(SecurityPosture::secure());
        let mut site = Worksite::new(&secure, 5);
        let built = Rc::clone(
            site.pki_template()
                .expect("a secure build carries its template"),
        );
        site.run(SimDuration::from_secs(30));
        site.reset_for_episode(&secure, 5);
        let reset = site.pki_template().expect("a secure reset carries one");
        assert!(
            Rc::ptr_eq(&built, reset),
            "the first same-seed reset re-commissioned"
        );
        let insecure = Worksite::new(&small_config(SecurityPosture::insecure()), 5);
        assert!(insecure.pki_template().is_none());
    }

    #[test]
    fn reset_for_episode_matches_fresh_build() {
        let config = small_config(SecurityPosture::secure());
        // Dirty the reused site with a different episode first.
        let mut reused = Worksite::new(&config, 4);
        reused.attack_engine_mut().add_campaign(jam_campaign());
        reused.run(SimDuration::from_secs(90));
        for seed in [4u64, 9] {
            reused.reset_for_episode(&config, seed);
            reused.attack_engine_mut().add_campaign(jam_campaign());
            reused.run(SimDuration::from_secs(120));
            let mut fresh = Worksite::new(&config, seed);
            fresh.attack_engine_mut().add_campaign(jam_campaign());
            fresh.run(SimDuration::from_secs(120));
            assert_eq!(
                fingerprint(&fresh),
                fingerprint(&reused),
                "reset diverged from fresh at seed {seed}"
            );
        }
    }

    #[test]
    fn reset_crosses_security_postures_and_telemetry_shapes() {
        let secure = small_config(SecurityPosture::secure());
        let insecure = small_config(SecurityPosture::insecure());
        let mut quiet = small_config(SecurityPosture::secure());
        quiet.telemetry.enabled = false;
        let mut droneless = small_config(SecurityPosture::secure());
        droneless.drone_enabled = false;
        let mut droneless_insecure = small_config(SecurityPosture::insecure());
        droneless_insecure.drone_enabled = false;
        let mut crowded = small_config(SecurityPosture::secure());
        crowded.world.human_count = 6;

        let mut reused = Worksite::new(&secure, 6);
        reused.run(SimDuration::from_secs(60));
        // The drone profile changes once at an unchanged seed (the
        // template misses on the profile alone) and once back at a new
        // seed; both times the secure links change shape.
        for (config, seed) in [
            (&insecure, 8u64),
            (&secure, 8),
            (&droneless, 8),
            (&droneless_insecure, 8),
            (&droneless, 3),
            (&crowded, 5),
            (&quiet, 6),
            (&secure, 6),
        ] {
            reused.reset_for_episode(config, seed);
            reused.run(SimDuration::from_secs(90));
            let mut fresh = Worksite::new(config, seed);
            fresh.run(SimDuration::from_secs(90));
            assert_eq!(fingerprint(&fresh), fingerprint(&reused));
        }
    }
}
