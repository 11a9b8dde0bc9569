//! The shared radio medium: nodes, interferers, transmission and delivery.

use crate::assoc::AssociationTable;
use crate::frame::{Frame, FrameKind, NodeId, ReceivedFrame};
use crate::propagation::{self, PropagationConfig};
use crate::stats::{LinkStats, NodeStats};
use silvasec_sim::geom::Vec3;
use silvasec_sim::rng::SimRng;
use silvasec_sim::time::SimTime;
use silvasec_sim::vegetation::TreeStand;
use silvasec_sim::weather::Weather;
use silvasec_telemetry::{Event, Label, Recorder};
use std::collections::HashMap;

/// Identifier of an interference source (jammer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InterfererId(u32);

/// Medium configuration.
#[derive(Debug, Clone)]
pub struct MediumConfig {
    /// Propagation model parameters.
    pub propagation: PropagationConfig,
    /// Node transmit power, dBm.
    pub tx_power_dbm: f64,
    /// Link bitrate, bits per second.
    pub bitrate_bps: f64,
    /// Whether management-frame protection is enabled (defeats forged
    /// de-auth).
    pub mfp_enabled: bool,
    /// Re-association delay after a de-auth, ms.
    pub reassoc_delay_ms: u64,
}

impl Default for MediumConfig {
    fn default() -> Self {
        MediumConfig {
            propagation: PropagationConfig::default(),
            tx_power_dbm: 20.0,
            bitrate_bps: 6_000_000.0,
            mfp_enabled: false,
            reassoc_delay_ms: 3_000,
        }
    }
}

/// The result of one transmission attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransmitOutcome {
    /// Whether the frame reached (any) addressee.
    pub delivered: bool,
    /// Received signal strength at the addressee, dBm (unicast only).
    pub rssi_dbm: f64,
    /// SINR at the addressee, dB (unicast only).
    pub sinr_db: f64,
    /// Packet error rate the channel imposed.
    pub per: f64,
    /// Airtime the frame occupied, milliseconds.
    pub airtime_ms: f64,
    /// Whether delivery failed because the sender was not associated.
    pub blocked_by_assoc: bool,
}

#[derive(Debug, Clone)]
struct RadioNode {
    position: Vec3,
}

#[derive(Debug, Clone, Copy)]
struct Interferer {
    position: Vec3,
    power_dbm: f64,
}

/// The shared wireless medium.
///
/// See the crate-level example for typical use. Attacks interact with the
/// medium exactly like legitimate nodes: they register a node (the rogue
/// radio), transmit forged frames, or add interference power (jammers) —
/// they never reach into victim state directly.
#[derive(Debug, Clone)]
pub struct Medium {
    config: MediumConfig,
    nodes: Vec<RadioNode>,
    interferers: HashMap<InterfererId, Interferer>,
    next_interferer: u32,
    inboxes: Vec<Vec<ReceivedFrame>>,
    node_stats: Vec<NodeStats>,
    link_stats: HashMap<(NodeId, NodeId), LinkStats>,
    assoc: AssociationTable,
    channel_busy_ms: f64,
    rng: SimRng,
    recorder: Recorder,
}

/// Per-transmission delivery accumulators shared between the unicast
/// and broadcast arms of [`Medium::transmit_env`].
struct DeliveryState {
    any_delivered: bool,
    last_rssi: f64,
    last_sinr: f64,
    last_per: f64,
    /// Inbox delivery is deferred one recipient so the final one
    /// receives the frame by move: a unicast frame (the common case) is
    /// never cloned, and a broadcast clones once per *extra* recipient.
    pending: Option<(NodeId, f64, f64)>,
}

impl Medium {
    /// Creates a medium with the given configuration and RNG stream.
    #[must_use]
    pub fn new(config: MediumConfig, rng: SimRng) -> Self {
        let assoc = AssociationTable::new(config.mfp_enabled, config.reassoc_delay_ms);
        Medium {
            config,
            nodes: Vec::new(),
            interferers: HashMap::new(),
            next_interferer: 0,
            inboxes: Vec::new(),
            node_stats: Vec::new(),
            link_stats: HashMap::new(),
            assoc,
            channel_busy_ms: 0.0,
            rng,
            recorder: Recorder::disabled(),
        }
    }

    /// Attaches a telemetry recorder; the medium then emits
    /// `FrameTx`/`FrameRx`/`FrameLost` and `Jam` events.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// Resets the medium to the state [`Medium::new`]`(config, rng)`
    /// would produce, keeping the node, inbox, stats and association
    /// allocations warm. Nodes must be re-registered by the caller (ids
    /// restart at 0) and the recorder re-attached, exactly as for a
    /// fresh medium — the episode-reset fast path.
    pub fn reset(&mut self, config: MediumConfig, rng: SimRng) {
        self.assoc
            .reset(config.mfp_enabled, config.reassoc_delay_ms);
        self.config = config;
        self.nodes.clear();
        self.interferers.clear();
        self.next_interferer = 0;
        // Inbox slots are kept (contents cleared) so re-registered nodes
        // inherit warm buffers; `inboxes.len() >= nodes.len()` always.
        for inbox in &mut self.inboxes {
            inbox.clear();
        }
        self.node_stats.clear();
        self.link_stats.clear();
        self.channel_busy_ms = 0.0;
        self.rng = rng;
        self.recorder = Recorder::disabled();
    }

    /// Registers a radio node at `position` and returns its id.
    pub fn add_node(&mut self, position: Vec3) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(RadioNode { position });
        if self.inboxes.len() < self.nodes.len() {
            self.inboxes.push(Vec::new());
        }
        self.node_stats.push(NodeStats::default());
        id
    }

    /// Updates a node's position (machines move).
    ///
    /// # Panics
    ///
    /// Panics if `node` was not registered on this medium.
    pub fn set_position(&mut self, node: NodeId, position: Vec3) {
        self.nodes[node.0 as usize].position = position;
    }

    /// A node's current position.
    ///
    /// # Panics
    ///
    /// Panics if `node` was not registered on this medium.
    #[must_use]
    pub fn position(&self, node: NodeId) -> Vec3 {
        self.nodes[node.0 as usize].position
    }

    /// Adds an interference source (jammer) and returns its handle.
    pub fn add_interferer(&mut self, position: Vec3, power_dbm: f64) -> InterfererId {
        let id = InterfererId(self.next_interferer);
        self.next_interferer += 1;
        self.interferers.insert(
            id,
            Interferer {
                position,
                power_dbm,
            },
        );
        self.recorder.record(Event::Jam {
            on: true,
            power_dbm,
        });
        id
    }

    /// Removes an interference source; `true` if it existed.
    pub fn remove_interferer(&mut self, id: InterfererId) -> bool {
        match self.interferers.remove(&id) {
            Some(i) => {
                self.recorder.record(Event::Jam {
                    on: false,
                    power_dbm: i.power_dbm,
                });
                true
            }
            None => false,
        }
    }

    /// Marks `node` associated with the worksite network.
    pub fn associate(&mut self, node: NodeId) {
        self.assoc.associate(node);
    }

    /// Whether `node` is currently associated.
    #[must_use]
    pub fn is_associated(&self, node: NodeId, now: SimTime) -> bool {
        self.assoc.is_associated(node, now.as_millis())
    }

    /// Total interference power at `position`, dBm (None when no
    /// interferers contribute).
    #[must_use]
    pub fn interference_at(&self, position: Vec3) -> Option<f64> {
        if self.interferers.is_empty() {
            return None;
        }
        let total_mw: f64 = self
            .interferers
            .values()
            .map(|i| {
                let loss =
                    propagation::path_loss_db(&self.config.propagation, i.position, position);
                propagation::dbm_to_mw(i.power_dbm - loss)
            })
            .sum();
        if total_mw <= 0.0 {
            None
        } else {
            Some(propagation::mw_to_dbm(total_mw))
        }
    }

    /// Transmits `frame` from `true_src` over an obstacle-free channel in
    /// clear weather (convenience for tests and infrastructure-free links).
    ///
    /// # Panics
    ///
    /// Panics if `true_src` or the frame's destination is unregistered.
    pub fn transmit(&mut self, true_src: NodeId, frame: Frame, now: SimTime) -> TransmitOutcome {
        // A process-wide empty stand sidesteps the borrow conflict with
        // `&mut self` without cloning a stand per call.
        static EMPTY_STAND: std::sync::OnceLock<TreeStand> = std::sync::OnceLock::new();
        let stand = EMPTY_STAND.get_or_init(|| TreeStand::from_trees(Vec::new(), 1.0));
        self.transmit_env(stand, Weather::Clear, true_src, frame, now)
    }

    /// Transmits `frame` from `true_src` through the given environment.
    ///
    /// The `claimed_src` inside the frame is what receivers see; `true_src`
    /// determines the physics (transmitter position) and authenticity of
    /// management frames.
    ///
    /// # Panics
    ///
    /// Panics if `true_src` or the frame's destination is unregistered.
    pub fn transmit_env(
        &mut self,
        stand: &TreeStand,
        weather: Weather,
        true_src: NodeId,
        frame: Frame,
        now: SimTime,
    ) -> TransmitOutcome {
        self.transmit_env_reclaiming(stand, weather, true_src, frame, now)
            .0
    }

    /// Like [`Medium::transmit_env`], but when the frame ends up in no
    /// inbox (lost, or blocked by association) its payload buffer is
    /// handed back so callers can pool it instead of re-allocating —
    /// physics, stats, telemetry and RNG stream are untouched.
    ///
    /// # Panics
    ///
    /// Panics if `true_src` or the frame's destination is unregistered.
    pub fn transmit_env_reclaiming(
        &mut self,
        stand: &TreeStand,
        weather: Weather,
        true_src: NodeId,
        frame: Frame,
        now: SimTime,
    ) -> (TransmitOutcome, Option<Vec<u8>>) {
        let now_ms = now.as_millis();
        self.assoc.tick(now_ms);

        let airtime_ms = frame.wire_len() as f64 * 8.0 / self.config.bitrate_bps * 1000.0;
        self.channel_busy_ms += airtime_ms;

        // Association gating applies to data frames once the association
        // scheme is in use at all. Filtering keys on the *claimed* source
        // address — like a real access point, which cannot see who truly
        // transmitted (that is exactly what spoofing exploits).
        let blocked_by_assoc = frame.kind == FrameKind::Data
            && !self.assoc.is_empty()
            && !self.assoc.is_associated(frame.claimed_src, now_ms);

        self.recorder.record_at(
            now,
            Event::FrameTx {
                src: true_src.0,
                dst: frame.dst.map(|d| d.0),
                kind: Label::new(frame.kind.as_str()),
                bytes: frame.wire_len() as u32,
                seq: frame.seq,
            },
        );

        let mut state = DeliveryState {
            any_delivered: false,
            last_rssi: f64::NEG_INFINITY,
            last_sinr: f64::NEG_INFINITY,
            last_per: 1.0,
            pending: None,
        };

        // The unicast arm needs no target list at all (the old code
        // built a one-element `Vec` per call); the broadcast arm walks
        // node ids directly. RNG draw order matches the former
        // collected-targets loop exactly.
        match frame.dst {
            Some(d) => {
                self.attempt_delivery(
                    stand,
                    weather,
                    &frame,
                    true_src,
                    d,
                    now,
                    blocked_by_assoc,
                    &mut state,
                );
            }
            None => {
                for n in 0..self.nodes.len() as u32 {
                    let dst = NodeId(n);
                    if dst == true_src {
                        continue;
                    }
                    self.attempt_delivery(
                        stand,
                        weather,
                        &frame,
                        true_src,
                        dst,
                        now,
                        blocked_by_assoc,
                        &mut state,
                    );
                }
            }
        }

        let reclaimed = if let Some((dst, rssi, sinr)) = state.pending {
            self.inboxes[dst.0 as usize].push(ReceivedFrame {
                frame,
                rssi_dbm: rssi,
                sinr_db: sinr,
                at_ms: now_ms,
            });
            None
        } else {
            Some(frame.payload)
        };

        self.node_stats[true_src.0 as usize].tx_frames += 1;

        (
            TransmitOutcome {
                delivered: state.any_delivered,
                rssi_dbm: state.last_rssi,
                sinr_db: state.last_sinr,
                per: state.last_per,
                airtime_ms,
                blocked_by_assoc,
            },
            reclaimed,
        )
    }

    /// One channel realization towards `dst`: path loss + fading, SINR,
    /// packet-error draw, stats, management handling, deferred inbox
    /// delivery.
    #[allow(clippy::too_many_arguments)]
    fn attempt_delivery(
        &mut self,
        stand: &TreeStand,
        weather: Weather,
        frame: &Frame,
        true_src: NodeId,
        dst: NodeId,
        now: SimTime,
        blocked_by_assoc: bool,
        state: &mut DeliveryState,
    ) {
        let now_ms = now.as_millis();
        let src_pos = self.nodes[true_src.0 as usize].position;
        let dst_pos = self.nodes[dst.0 as usize].position;
        let rssi = propagation::received_power_dbm(
            &self.config.propagation,
            self.config.tx_power_dbm,
            stand,
            weather,
            src_pos,
            dst_pos,
            &mut self.rng,
        );
        let interference = self.interference_at(dst_pos);
        let sinr = propagation::sinr_db(&self.config.propagation, rssi, interference);
        let per = propagation::packet_error_rate(&self.config.propagation, sinr);

        // Receiver's noise-floor observation (updated whether or not
        // the frame survives — carrier sensing sees the energy).
        let noise_dbm = interference.map_or(self.config.propagation.noise_floor_dbm, |i| {
            propagation::mw_to_dbm(
                propagation::dbm_to_mw(i)
                    + propagation::dbm_to_mw(self.config.propagation.noise_floor_dbm),
            )
        });
        self.node_stats[dst.0 as usize].record_noise(noise_dbm);

        let channel_ok = !self.rng.chance(per);
        let delivered = channel_ok && !blocked_by_assoc;

        let link = self.link_stats.entry((true_src, dst)).or_default();
        link.attempted += 1;

        if delivered {
            link.delivered += 1;
            state.any_delivered = true;
            self.node_stats[dst.0 as usize].record_delivery(frame.kind, rssi, sinr);
            self.handle_management(dst, frame, true_src, now_ms);
            if let Some((prev_dst, prev_rssi, prev_sinr)) = state.pending.replace((dst, rssi, sinr))
            {
                self.inboxes[prev_dst.0 as usize].push(ReceivedFrame {
                    frame: frame.clone(),
                    rssi_dbm: prev_rssi,
                    sinr_db: prev_sinr,
                    at_ms: now_ms,
                });
            }
            self.recorder.record_at(
                now,
                Event::FrameRx {
                    src: true_src.0,
                    dst: dst.0,
                    rssi_dbm: rssi,
                    sinr_db: sinr,
                },
            );
        } else {
            self.node_stats[dst.0 as usize].record_loss();
            self.recorder.record_at(
                now,
                Event::FrameLost {
                    src: true_src.0,
                    dst: dst.0,
                },
            );
        }
        state.last_rssi = rssi;
        state.last_sinr = sinr;
        state.last_per = per;
    }

    fn handle_management(
        &mut self,
        receiver: NodeId,
        frame: &Frame,
        true_src: NodeId,
        now_ms: u64,
    ) {
        match frame.kind {
            FrameKind::Deauth => {
                let authentic = frame.claimed_src == true_src;
                self.assoc.handle_deauth(receiver, authentic, now_ms);
            }
            FrameKind::AssocRequest => {
                self.assoc.associate(frame.claimed_src);
            }
            _ => {}
        }
    }

    /// Drains and returns all frames delivered to `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` was not registered on this medium.
    pub fn drain_inbox(&mut self, node: NodeId) -> Vec<ReceivedFrame> {
        std::mem::take(&mut self.inboxes[node.0 as usize])
    }

    /// Drains all frames delivered to `node` into `into` (cleared
    /// first), swapping buffers so capacity ping-pongs between the
    /// caller's scratch and the inbox — the zero-alloc form of
    /// [`Medium::drain_inbox`].
    ///
    /// # Panics
    ///
    /// Panics if `node` was not registered on this medium.
    pub fn drain_inbox_into(&mut self, node: NodeId, into: &mut Vec<ReceivedFrame>) {
        into.clear();
        std::mem::swap(into, &mut self.inboxes[node.0 as usize]);
    }

    /// Telemetry for `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` was not registered on this medium.
    #[must_use]
    pub fn node_stats(&self, node: NodeId) -> &NodeStats {
        &self.node_stats[node.0 as usize]
    }

    /// Telemetry for the directed link `src → dst`, if any traffic flowed.
    #[must_use]
    pub fn link_stats(&self, src: NodeId, dst: NodeId) -> Option<&LinkStats> {
        self.link_stats.get(&(src, dst))
    }

    /// Cumulative channel-busy airtime, ms (channel-utilization metric).
    #[must_use]
    pub fn channel_busy_ms(&self) -> f64 {
        self.channel_busy_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn medium() -> Medium {
        Medium::new(MediumConfig::default(), SimRng::from_seed(1))
    }

    #[test]
    fn close_link_delivers() {
        let mut m = medium();
        let a = m.add_node(Vec3::new(0.0, 0.0, 2.0));
        let b = m.add_node(Vec3::new(30.0, 0.0, 2.0));
        let mut delivered = 0;
        for i in 0..100 {
            let out = m.transmit(a, Frame::data(a, b, vec![0; 64]).with_seq(i), SimTime::ZERO);
            if out.delivered {
                delivered += 1;
            }
        }
        assert!(delivered >= 95, "only {delivered}/100 at 30 m");
        assert_eq!(m.drain_inbox(b).len(), delivered);
    }

    #[test]
    fn distant_link_fails() {
        let mut m = medium();
        let a = m.add_node(Vec3::new(0.0, 0.0, 2.0));
        let b = m.add_node(Vec3::new(5000.0, 0.0, 2.0));
        let mut delivered = 0;
        for _ in 0..50 {
            if m.transmit(a, Frame::data(a, b, vec![0; 64]), SimTime::ZERO)
                .delivered
            {
                delivered += 1;
            }
        }
        assert!(delivered <= 2, "{delivered}/50 delivered at 5 km");
    }

    #[test]
    fn jammer_degrades_link() {
        let mut m = medium();
        let a = m.add_node(Vec3::new(0.0, 0.0, 2.0));
        let b = m.add_node(Vec3::new(120.0, 0.0, 2.0));
        let deliver_count = |m: &mut Medium| {
            (0..200)
                .filter(|_| {
                    m.transmit(a, Frame::data(a, b, vec![0; 64]), SimTime::ZERO)
                        .delivered
                })
                .count()
        };
        let clean = deliver_count(&mut m);
        let jammer = m.add_interferer(Vec3::new(120.0, 10.0, 2.0), 30.0);
        let jammed = deliver_count(&mut m);
        m.remove_interferer(jammer);
        let recovered = deliver_count(&mut m);
        assert!(clean >= 180, "clean {clean}");
        assert!(jammed < clean / 4, "jammed {jammed} vs clean {clean}");
        assert!(recovered >= 180, "recovered {recovered}");
    }

    #[test]
    fn forged_deauth_disassociates_without_mfp() {
        let mut m = medium();
        let bs = m.add_node(Vec3::new(0.0, 0.0, 5.0));
        let victim = m.add_node(Vec3::new(40.0, 0.0, 2.0));
        let attacker = m.add_node(Vec3::new(60.0, 0.0, 2.0));
        m.associate(victim);
        m.associate(bs);

        // Attacker sends a de-auth to the victim claiming to be the BS.
        let mut took_effect = false;
        for _ in 0..10 {
            let out = m.transmit(attacker, Frame::deauth(bs, victim), SimTime::ZERO);
            if out.delivered {
                took_effect = true;
                break;
            }
        }
        assert!(took_effect);
        assert!(!m.is_associated(victim, SimTime::from_millis(1)));
        // Victim's data frames are now blocked.
        let out = m.transmit(
            victim,
            Frame::data(victim, bs, vec![1]),
            SimTime::from_millis(10),
        );
        assert!(out.blocked_by_assoc);
        assert!(!out.delivered);
        // After the re-association delay it recovers.
        assert!(m.is_associated(victim, SimTime::from_millis(4_000)));
    }

    #[test]
    fn forged_deauth_blocked_with_mfp() {
        let config = MediumConfig {
            mfp_enabled: true,
            ..MediumConfig::default()
        };
        let mut m = Medium::new(config, SimRng::from_seed(2));
        let bs = m.add_node(Vec3::new(0.0, 0.0, 5.0));
        let victim = m.add_node(Vec3::new(40.0, 0.0, 2.0));
        let attacker = m.add_node(Vec3::new(60.0, 0.0, 2.0));
        m.associate(victim);
        for _ in 0..10 {
            let _ = m.transmit(attacker, Frame::deauth(bs, victim), SimTime::ZERO);
        }
        assert!(m.is_associated(victim, SimTime::from_millis(1)));
    }

    #[test]
    fn broadcast_reaches_all_nearby() {
        let mut m = medium();
        let a = m.add_node(Vec3::new(0.0, 0.0, 2.0));
        let b = m.add_node(Vec3::new(20.0, 0.0, 2.0));
        let c = m.add_node(Vec3::new(0.0, 20.0, 2.0));
        let out = m.transmit(a, Frame::broadcast(a, vec![7]), SimTime::ZERO);
        assert!(out.delivered);
        assert_eq!(m.drain_inbox(b).len() + m.drain_inbox(c).len(), 2);
        assert!(m.drain_inbox(a).is_empty(), "no loopback");
    }

    #[test]
    fn stats_accumulate() {
        let mut m = medium();
        let a = m.add_node(Vec3::new(0.0, 0.0, 2.0));
        let b = m.add_node(Vec3::new(10.0, 0.0, 2.0));
        for _ in 0..20 {
            let _ = m.transmit(a, Frame::data(a, b, vec![0; 32]), SimTime::ZERO);
        }
        assert_eq!(m.node_stats(a).tx_frames, 20);
        assert!(m.node_stats(b).rx_delivered > 0);
        let link = m.link_stats(a, b).unwrap();
        assert_eq!(link.attempted, 20);
        assert!(m.channel_busy_ms() > 0.0);
    }

    #[test]
    fn drain_inbox_into_swaps_and_clears() {
        let mut m = medium();
        let a = m.add_node(Vec3::new(0.0, 0.0, 2.0));
        let b = m.add_node(Vec3::new(10.0, 0.0, 2.0));
        for i in 0..20 {
            let _ = m.transmit(
                a,
                Frame::data(a, b, vec![i as u8]).with_seq(i),
                SimTime::ZERO,
            );
        }
        let mut scratch = vec![];
        m.drain_inbox_into(b, &mut scratch);
        assert!(!scratch.is_empty());
        assert!(m.drain_inbox(b).is_empty(), "inbox must be drained");
        m.drain_inbox_into(b, &mut scratch);
        assert!(scratch.is_empty(), "second drain clears the scratch");
    }

    #[test]
    fn spoofed_source_is_recorded_as_claimed() {
        let mut m = medium();
        let a = m.add_node(Vec3::new(0.0, 0.0, 2.0));
        let b = m.add_node(Vec3::new(10.0, 0.0, 2.0));
        let ghost = m.add_node(Vec3::new(10.0, 10.0, 2.0));
        let _ = m.transmit(a, Frame::data(ghost, b, vec![1]), SimTime::ZERO);
        let rx = m.drain_inbox(b);
        assert_eq!(rx.len(), 1);
        // The receiver sees the claimed source, not the true transmitter.
        assert_eq!(rx[0].frame.claimed_src, ghost);
    }

    #[test]
    fn node_position_updates_affect_link() {
        let mut m = medium();
        let a = m.add_node(Vec3::new(0.0, 0.0, 2.0));
        let b = m.add_node(Vec3::new(10.0, 0.0, 2.0));
        let near: f64 = m
            .transmit(a, Frame::data(a, b, vec![]), SimTime::ZERO)
            .rssi_dbm;
        m.set_position(b, Vec3::new(1000.0, 0.0, 2.0));
        let far: f64 = m
            .transmit(a, Frame::data(a, b, vec![]), SimTime::ZERO)
            .rssi_dbm;
        assert!(far < near - 30.0);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let run = |seed| {
            let mut m = Medium::new(MediumConfig::default(), SimRng::from_seed(seed));
            let a = m.add_node(Vec3::new(0.0, 0.0, 2.0));
            let b = m.add_node(Vec3::new(150.0, 0.0, 2.0));
            (0..50)
                .map(|_| {
                    m.transmit(a, Frame::data(a, b, vec![0; 64]), SimTime::ZERO)
                        .delivered
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
    }
}
