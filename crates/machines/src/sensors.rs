//! People-detection sensors with occlusion, range, field-of-view and
//! weather effects.
//!
//! These model the safety-critical perception path of the paper's use
//! case. A sensor sample either detects a worker (with a noisy position
//! estimate and a confidence) or it does not; detection probability
//! combines geometry (range falloff, field of view), the world's
//! line-of-sight factor (terrain/trunk/canopy occlusion), weather, and
//! the sensor's health (camera blinding attacks reduce it).

use serde::{Deserialize, Serialize};
use silvasec_sim::geom::{Vec2, Vec3};
use silvasec_sim::humans::{Human, HumanId};
use silvasec_sim::rng::SimRng;
use silvasec_sim::weather::Weather;
use silvasec_sim::world::World;

/// The sensor technology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum SensorKind {
    /// Optical camera with a forward cone field of view.
    Camera,
    /// 360° LiDAR.
    Lidar,
    /// Short-range ultrasonic ring.
    Ultrasonic,
}

impl SensorKind {
    /// Base detection range in clear weather, metres.
    #[must_use]
    pub fn base_range_m(self) -> f64 {
        match self {
            SensorKind::Camera => 60.0,
            SensorKind::Lidar => 45.0,
            SensorKind::Ultrasonic => 8.0,
        }
    }

    /// Horizontal field of view, radians.
    #[must_use]
    pub fn fov_rad(self) -> f64 {
        match self {
            SensorKind::Camera => 2.1, // ~120°
            SensorKind::Lidar | SensorKind::Ultrasonic => std::f64::consts::TAU,
        }
    }

    /// Per-sample detection probability for an unoccluded target at
    /// close range in clear weather.
    #[must_use]
    pub fn base_detection_prob(self) -> f64 {
        match self {
            SensorKind::Camera => 0.92,
            SensorKind::Lidar => 0.85,
            SensorKind::Ultrasonic => 0.95,
        }
    }

    /// Whether weather attenuates this sensor (optical sensors only).
    #[must_use]
    pub fn weather_sensitive(self) -> bool {
        matches!(self, SensorKind::Camera | SensorKind::Lidar)
    }
}

/// A detection of one worker in one sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Detection {
    /// Which worker was detected.
    pub human_id: HumanId,
    /// Noisy position estimate.
    pub position: Vec2,
    /// Confidence in `[0, 1]`.
    pub confidence: f64,
    /// True distance from the sensor at sample time, metres.
    pub distance_m: f64,
}

/// A people-detection sensor instance.
///
/// `health` is the sensor's attack surface: camera-blinding reduces it
/// towards zero; the IDS watches for exactly that collapse.
#[derive(Debug, Clone)]
pub struct PeopleSensor {
    /// Sensor technology.
    pub kind: SensorKind,
    /// Mount height above ground (ground machines) — aerial use supplies
    /// full 3-D poses instead.
    pub mount_height_m: f64,
    /// Health factor in `[0, 1]`; 1 = nominal, 0 = fully blinded.
    pub health: f64,
}

impl PeopleSensor {
    /// Creates a nominal sensor.
    #[must_use]
    pub fn new(kind: SensorKind, mount_height_m: f64) -> Self {
        PeopleSensor {
            kind,
            mount_height_m,
            health: 1.0,
        }
    }

    /// Applies degradation (e.g. a blinding attack); clamps to `[0, 1]`.
    pub fn degrade(&mut self, health: f64) {
        self.health = health.clamp(0.0, 1.0);
    }

    /// The effective detection range under `weather`, metres.
    fn effective_range(&self, weather: Weather) -> f64 {
        self.kind.base_range_m()
            * if self.kind.weather_sensitive() {
                weather.optical_range_factor()
            } else {
                1.0
            }
    }

    /// Samples one human: applies the range / field-of-view / occlusion
    /// filters (no RNG draws), then — only for a passing target — draws
    /// the detection chance and position noise.
    #[allow(clippy::too_many_arguments)]
    fn sample_human(
        &self,
        world: &World,
        sensor_pos: Vec3,
        heading: Option<f64>,
        weather: Weather,
        range: f64,
        human: &Human,
        rng: &mut SimRng,
        out: &mut Vec<Detection>,
    ) {
        let target = world.human_target_point(human);
        let dist = sensor_pos.distance(target);
        if dist > range {
            return;
        }
        // Field-of-view check against the 2-D bearing.
        if let Some(h) = heading {
            let bearing = (human.position - sensor_pos.xy()).heading();
            let mut diff = (bearing - h).abs() % std::f64::consts::TAU;
            if diff > std::f64::consts::PI {
                diff = std::f64::consts::TAU - diff;
            }
            if diff > self.kind.fov_rad() / 2.0 {
                return;
            }
        }
        let visibility = world.visibility(sensor_pos, target);
        if visibility.is_blocked() {
            return;
        }
        let weather_conf = if self.kind.weather_sensitive() {
            weather.detection_confidence_factor()
        } else {
            1.0
        };
        let range_falloff = 1.0 - 0.3 * (dist / range);
        let p = self.kind.base_detection_prob()
            * visibility.factor
            * weather_conf
            * range_falloff
            * self.health;
        if rng.chance(p) {
            let sigma = 0.2 + 0.02 * dist;
            let estimate = Vec2::new(
                human.position.x + rng.normal(0.0, sigma),
                human.position.y + rng.normal(0.0, sigma),
            );
            out.push(Detection {
                human_id: human.id,
                position: estimate,
                confidence: p.clamp(0.0, 1.0),
                distance_m: dist,
            });
        }
    }

    /// Samples detections from a ground pose (`position`, `heading`)
    /// into caller-owned `out` (cleared first), using `candidates` as
    /// index scratch. With warm capacities no heap allocation occurs.
    pub fn detect_into(
        &self,
        world: &World,
        position: Vec2,
        heading: f64,
        rng: &mut SimRng,
        candidates: &mut Vec<u32>,
        out: &mut Vec<Detection>,
    ) {
        let sensor_pos = position.with_z(world.ground_at(position) + self.mount_height_m);
        self.detect_from_into(world, sensor_pos, Some(heading), rng, candidates, out);
    }

    /// Samples detections from an arbitrary 3-D pose (aerial use) into
    /// caller-owned `out` (cleared first), using `candidates` as index
    /// scratch. A `heading` of `None` means omnidirectional (gimballed
    /// camera).
    ///
    /// The grid query is 2-D with the full weather-adjusted range as
    /// radius; since planar distance never exceeds the 3-D sensor-target
    /// distance the candidate set is a superset of every human passing
    /// the range filter, and candidates arrive index-sorted, so
    /// re-applying the exact per-human filters visits the same accepted
    /// humans in the same order as a scan of the whole roster — see
    /// [`silvasec_sim::grid::EntityGrid`].
    pub fn detect_from_into(
        &self,
        world: &World,
        sensor_pos: Vec3,
        heading: Option<f64>,
        rng: &mut SimRng,
        candidates: &mut Vec<u32>,
        out: &mut Vec<Detection>,
    ) {
        out.clear();
        let weather = world.weather();
        let range = self.effective_range(weather);
        world
            .human_grid()
            .fill_candidates(sensor_pos.xy(), range, candidates);
        for &i in candidates.iter() {
            let human = &world.humans()[i as usize];
            self.sample_human(world, sensor_pos, heading, weather, range, human, rng, out);
        }
    }
}

/// Serializes a detection feed into `out` (cleared first), byte-for-byte
/// identical to `serde_json::to_vec(&detections)`: objects keep field
/// declaration order, the printer is compact, floats use the shortest
/// round-trip `Display` form and non-finite floats render as `null` —
/// exactly the vendored serializer's rules. Byte identity is load-bearing:
/// the payload length feeds the radio frame's airtime and loss draws, so
/// a single divergent digit would shift the RNG stream.
///
/// Allocation-free once `out` is warm.
pub fn detections_to_json(detections: &[Detection], out: &mut Vec<u8>) {
    use std::io::Write as _;
    fn write_f64(out: &mut Vec<u8>, f: f64) {
        if f.is_finite() {
            let _ = write!(out, "{f}");
        } else {
            out.extend_from_slice(b"null");
        }
    }
    out.clear();
    if detections.is_empty() {
        out.extend_from_slice(b"[]");
        return;
    }
    out.push(b'[');
    for (i, d) in detections.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        out.extend_from_slice(b"{\"human_id\":");
        let _ = write!(out, "{}", d.human_id.0);
        out.extend_from_slice(b",\"position\":{\"x\":");
        write_f64(out, d.position.x);
        out.extend_from_slice(b",\"y\":");
        write_f64(out, d.position.y);
        out.extend_from_slice(b"},\"confidence\":");
        write_f64(out, d.confidence);
        out.extend_from_slice(b",\"distance_m\":");
        write_f64(out, d.distance_m);
        out.push(b'}');
    }
    out.push(b']');
}

/// Parses a detection feed into `out` (cleared first); returns whether a
/// feed was decoded, matching `serde_json::from_slice::<Vec<Detection>>`
/// exactly in both acceptance and values.
///
/// The fast path is a strict scanner for the canonical grammar
/// [`detections_to_json`] emits and allocates nothing; any deviation
/// (whitespace, reordered keys, escapes — e.g. a forged payload) falls
/// back to the full `serde_json` parser, so hostile input behaves
/// exactly as it always did. Number equivalence: the fallback parses an
/// integral token as `u64` and widens with `as f64`, which rounds to the
/// same value `str::parse::<f64>` produces for the same token.
pub fn detections_from_json(bytes: &[u8], out: &mut Vec<Detection>) -> bool {
    out.clear();
    if parse_feed_fast(bytes, out) {
        return true;
    }
    out.clear();
    match serde_json::from_slice::<Vec<Detection>>(bytes) {
        Ok(v) => {
            out.extend_from_slice(&v);
            true
        }
        Err(_) => false,
    }
}

fn eat(bytes: &[u8], p: &mut usize, tok: &[u8]) -> bool {
    if bytes[*p..].starts_with(tok) {
        *p += tok.len();
        true
    } else {
        false
    }
}

fn scan_u32(bytes: &[u8], p: &mut usize) -> Option<u32> {
    let start = *p;
    while *p < bytes.len() && bytes[*p].is_ascii_digit() {
        *p += 1;
    }
    if *p == start {
        return None;
    }
    std::str::from_utf8(&bytes[start..*p]).ok()?.parse().ok()
}

/// Scans one JSON number token (the same token boundary the fallback
/// parser uses) and parses it as `f64`. A token with no integer digit
/// (`.5`, `-.5`) is left to the fallback, which rejects `.5`.
fn scan_f64(bytes: &[u8], p: &mut usize) -> Option<f64> {
    let start = *p;
    if *p < bytes.len() && bytes[*p] == b'-' {
        *p += 1;
    }
    let digits = *p;
    while *p < bytes.len() && bytes[*p].is_ascii_digit() {
        *p += 1;
    }
    if *p == digits {
        return None;
    }
    if *p < bytes.len() && bytes[*p] == b'.' {
        *p += 1;
        while *p < bytes.len() && bytes[*p].is_ascii_digit() {
            *p += 1;
        }
    }
    if *p < bytes.len() && matches!(bytes[*p], b'e' | b'E') {
        *p += 1;
        if *p < bytes.len() && matches!(bytes[*p], b'+' | b'-') {
            *p += 1;
        }
        while *p < bytes.len() && bytes[*p].is_ascii_digit() {
            *p += 1;
        }
    }
    std::str::from_utf8(&bytes[start..*p]).ok()?.parse().ok()
}

fn parse_feed_fast(bytes: &[u8], out: &mut Vec<Detection>) -> bool {
    let mut p = 0usize;
    if !eat(bytes, &mut p, b"[") {
        return false;
    }
    if eat(bytes, &mut p, b"]") {
        return p == bytes.len();
    }
    loop {
        if !eat(bytes, &mut p, b"{\"human_id\":") {
            return false;
        }
        let Some(id) = scan_u32(bytes, &mut p) else {
            return false;
        };
        if !eat(bytes, &mut p, b",\"position\":{\"x\":") {
            return false;
        }
        let Some(x) = scan_f64(bytes, &mut p) else {
            return false;
        };
        if !eat(bytes, &mut p, b",\"y\":") {
            return false;
        }
        let Some(y) = scan_f64(bytes, &mut p) else {
            return false;
        };
        if !eat(bytes, &mut p, b"},\"confidence\":") {
            return false;
        }
        let Some(confidence) = scan_f64(bytes, &mut p) else {
            return false;
        };
        if !eat(bytes, &mut p, b",\"distance_m\":") {
            return false;
        }
        let Some(distance_m) = scan_f64(bytes, &mut p) else {
            return false;
        };
        if !eat(bytes, &mut p, b"}") {
            return false;
        }
        out.push(Detection {
            human_id: HumanId(id),
            position: Vec2::new(x, y),
            confidence,
            distance_m,
        });
        if eat(bytes, &mut p, b",") {
            continue;
        }
        return eat(bytes, &mut p, b"]") && p == bytes.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silvasec_sim::prelude::*;
    use silvasec_sim::terrain::TerrainConfig;
    use silvasec_sim::vegetation::StandConfig;

    /// A world with one human at a known location and no trees.
    fn open_world(human_near: Vec2) -> World {
        let config = WorldConfig {
            terrain: TerrainConfig {
                size_m: 200.0,
                relief_m: 0.001,
                ..TerrainConfig::default()
            },
            stand: StandConfig {
                trees_per_hectare: 0.0,
                ..StandConfig::default()
            },
            human_count: 1,
            ..WorldConfig::default()
        };
        let mut world = World::generate(&config, SimRng::from_seed(1));
        // Humans spawn randomly; step zero time and relocate via stepping
        // is awkward — instead exploit that detection reads positions, so
        // regenerate until the worker is near the desired point.
        let mut seed = 2;
        while world.humans()[0].position.distance(human_near) > 60.0 && seed < 200 {
            world = World::generate(&config, SimRng::from_seed(seed));
            seed += 1;
        }
        world
    }

    /// One ground-pose sample on fresh buffers.
    fn sample(
        sensor: &PeopleSensor,
        world: &World,
        pose: Vec2,
        heading: f64,
        rng: &mut SimRng,
    ) -> Vec<Detection> {
        let (mut candidates, mut out) = (Vec::new(), Vec::new());
        sensor.detect_into(world, pose, heading, rng, &mut candidates, &mut out);
        out
    }

    #[test]
    fn detects_close_unoccluded_worker() {
        let world = open_world(Vec2::new(100.0, 100.0));
        let worker = world.humans()[0].position;
        let sensor = PeopleSensor::new(SensorKind::Lidar, 3.0);
        let mut rng = SimRng::from_seed(3);
        let mut hits = 0;
        let pose = worker + Vec2::new(10.0, 0.0);
        for _ in 0..100 {
            if !sample(&sensor, &world, pose, 0.0, &mut rng).is_empty() {
                hits += 1;
            }
        }
        assert!(hits > 60, "only {hits}/100 detections at 10 m in the open");
    }

    #[test]
    fn ignores_out_of_range_worker() {
        let world = open_world(Vec2::new(100.0, 100.0));
        let worker = world.humans()[0].position;
        let sensor = PeopleSensor::new(SensorKind::Ultrasonic, 1.0);
        let mut rng = SimRng::from_seed(4);
        // 50 m away with an 8 m sensor.
        let pose = worker + Vec2::new(50.0, 0.0);
        for _ in 0..50 {
            assert!(sample(&sensor, &world, pose, 0.0, &mut rng).is_empty());
        }
    }

    #[test]
    fn camera_fov_limits_detection() {
        let world = open_world(Vec2::new(100.0, 100.0));
        let worker = world.humans()[0].position;
        let sensor = PeopleSensor::new(SensorKind::Camera, 2.5);
        let mut rng = SimRng::from_seed(5);
        let pose = worker + Vec2::new(15.0, 0.0);
        // Worker is due west of the pose; looking east misses entirely.
        for _ in 0..50 {
            assert!(sample(&sensor, &world, pose, 0.0, &mut rng).is_empty());
        }
        // Looking west hits.
        let mut hits = 0;
        for _ in 0..100 {
            if !sample(&sensor, &world, pose, std::f64::consts::PI, &mut rng).is_empty() {
                hits += 1;
            }
        }
        assert!(hits > 60, "{hits}/100 looking at the worker");
    }

    #[test]
    fn blinded_sensor_detects_nothing() {
        let world = open_world(Vec2::new(100.0, 100.0));
        let worker = world.humans()[0].position;
        let mut sensor = PeopleSensor::new(SensorKind::Camera, 2.5);
        sensor.degrade(0.0);
        let mut rng = SimRng::from_seed(6);
        let pose = worker + Vec2::new(10.0, 0.0);
        for _ in 0..100 {
            assert!(sample(&sensor, &world, pose, std::f64::consts::PI, &mut rng).is_empty());
        }
    }

    #[test]
    fn degraded_sensor_detects_less() {
        let world = open_world(Vec2::new(100.0, 100.0));
        let worker = world.humans()[0].position;
        let pose = worker + Vec2::new(10.0, 0.0);
        let rate = |health: f64| {
            let mut s = PeopleSensor::new(SensorKind::Lidar, 3.0);
            s.degrade(health);
            let mut rng = SimRng::from_seed(7);
            (0..300)
                .filter(|_| !sample(&s, &world, pose, 0.0, &mut rng).is_empty())
                .count()
        };
        let healthy = rate(1.0);
        let weak = rate(0.3);
        assert!(weak < healthy / 2, "healthy {healthy}, weak {weak}");
    }

    #[test]
    fn aerial_detection_from_overhead() {
        let world = open_world(Vec2::new(100.0, 100.0));
        let worker = world.humans()[0].position;
        let sensor = PeopleSensor::new(SensorKind::Camera, 0.0);
        let mut rng = SimRng::from_seed(8);
        let aerial = worker.with_z(world.ground_at(worker) + 40.0);
        let (mut candidates, mut out) = (Vec::new(), Vec::new());
        let mut hits = 0;
        for _ in 0..100 {
            sensor.detect_from_into(&world, aerial, None, &mut rng, &mut candidates, &mut out);
            if !out.is_empty() {
                hits += 1;
            }
        }
        assert!(hits > 60, "{hits}/100 from overhead");
    }

    #[test]
    fn estimate_noise_grows_with_distance_on_average() {
        let world = open_world(Vec2::new(100.0, 100.0));
        let worker = world.humans()[0].position;
        let sensor = PeopleSensor::new(SensorKind::Lidar, 3.0);
        let mean_err = |dist: f64| {
            let mut rng = SimRng::from_seed(9);
            let pose = worker + Vec2::new(dist, 0.0);
            let mut errs = Vec::new();
            for _ in 0..2000 {
                for d in sample(&sensor, &world, pose, 0.0, &mut rng) {
                    errs.push(d.position.distance(worker));
                }
            }
            errs.iter().sum::<f64>() / errs.len().max(1) as f64
        };
        let near = mean_err(5.0);
        let far = mean_err(35.0);
        assert!(
            far > near,
            "noise at 35 m ({far}) should exceed 5 m ({near})"
        );
    }

    fn feed_cases() -> Vec<Vec<Detection>> {
        let det = |id: u32, x: f64, y: f64, c: f64, d: f64| Detection {
            human_id: HumanId(id),
            position: Vec2::new(x, y),
            confidence: c,
            distance_m: d,
        };
        vec![
            vec![],
            vec![det(0, 0.0, -0.0, 1.0, 0.1)],
            vec![
                det(7, 123.456789012345, -98.7, 0.8315450011223344, 41.0),
                det(u32::MAX, 1e-12, 2.5e300, 0.0, 1.0 / 3.0),
            ],
            vec![det(3, std::f64::consts::PI * 1e5, -1234.0, 0.25, 60.0)],
        ]
    }

    #[test]
    fn feed_writer_matches_serde_bytes() {
        let mut buf = Vec::new();
        for feed in feed_cases() {
            detections_to_json(&feed, &mut buf);
            let oracle = serde_json::to_vec(&feed).unwrap();
            assert_eq!(buf, oracle, "writer diverged for {feed:?}");
        }
    }

    #[test]
    fn feed_parser_round_trips_and_matches_serde() {
        let mut buf = Vec::new();
        let mut parsed = Vec::new();
        for feed in feed_cases() {
            detections_to_json(&feed, &mut buf);
            assert!(detections_from_json(&buf, &mut parsed));
            assert_eq!(parsed, feed);
        }
    }

    #[test]
    fn feed_parser_fallback_agrees_with_serde_on_hostile_input() {
        let mut parsed = Vec::new();
        let cases: &[&[u8]] = &[
            b"",
            b"not json",
            b"[",
            b"[{\"human_id\":1}]",
            b"{\"human_id\":1}",
            // Whitespace and reordered keys: serde accepts, fast path
            // cannot — the fallback must still decode them.
            b"[ {\"position\":{\"x\":1.0,\"y\":2.0},\"human_id\":4,\"confidence\":0.5,\"distance_m\":3.0} ]",
            // Float where an integer id is expected.
            b"[{\"human_id\":1.5,\"position\":{\"x\":0,\"y\":0},\"confidence\":0,\"distance_m\":0}]",
        ];
        for &bytes in cases {
            let ok = detections_from_json(bytes, &mut parsed);
            let oracle = serde_json::from_slice::<Vec<Detection>>(bytes);
            assert_eq!(ok, oracle.is_ok(), "acceptance diverged for {bytes:?}");
            if let Ok(o) = oracle {
                // Compare re-serialized bytes: missing fields decode to
                // NaN, which is unequal to itself under `PartialEq`.
                assert_eq!(
                    serde_json::to_vec(&parsed).unwrap(),
                    serde_json::to_vec(&o).unwrap(),
                    "values diverged for {bytes:?}"
                );
            }
        }
    }

    /// Every occurrence of `a` in `bytes` becomes `b` and vice versa.
    fn swap_tokens(bytes: &[u8], a: &[u8], b: &[u8]) -> Vec<u8> {
        let (mut out, mut i) = (Vec::new(), 0);
        while i < bytes.len() {
            let (from, to) = if bytes[i..].starts_with(a) {
                (a, b)
            } else {
                (b, a)
            };
            if bytes[i..].starts_with(from) {
                out.extend_from_slice(to);
                i += from.len();
            } else {
                out.push(bytes[i]);
                i += 1;
            }
        }
        out
    }

    /// Mutants of the `feed_cases` encodings, each with up to three
    /// flipped bits, inserted whitespace, swapped keys, truncations or
    /// respelt numbers: `detections_from_json` never panics, and
    /// whenever the fast path accepts, the `serde_json` fallback accepts
    /// the same bytes and decodes every field to the same bits.
    #[test]
    fn feed_fast_path_agrees_with_serde_under_mutation() {
        let spellings: Vec<&str> =
            "-0 0 -00 01 1e0 1E+0 10e-1 1. .5 -.5 -0.0 1e999 5e-324 4294967296 1.5 -1"
                .split(' ')
                .collect();
        const KEYS: [(&[u8], &[u8]); 3] = [
            (b"\"x\"", b"\"y\""),
            (b"\"confidence\"", b"\"distance_m\""),
            (b"\"human_id\"", b"\"position\""),
        ];
        let encodings: Vec<Vec<u8>> = feed_cases()
            .iter()
            .map(|feed| serde_json::to_vec(feed).unwrap())
            .collect();
        let mut state = 0x0F00_D5EE_D000_0001u64;
        let mut below = |n: usize| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            (silvasec_sim::rng::mix64(state) % n as u64) as usize
        };
        let (mut fast, mut scratch) = (Vec::new(), Vec::new());
        let mut fast_accepts = 0;
        for case in 0..4_000 {
            let mut bytes = encodings[case % encodings.len()].clone();
            for _ in 0..case % 4 {
                match below(5) {
                    0 if !bytes.is_empty() => {
                        let at = below(bytes.len());
                        bytes[at] ^= 1 << below(8);
                    }
                    1 => bytes.insert(below(bytes.len() + 1), b" \n\t\r"[below(4)]),
                    2 => {
                        let (a, b) = KEYS[below(KEYS.len())];
                        bytes = swap_tokens(&bytes, a, b);
                    }
                    3 => bytes.truncate(below(bytes.len() + 1)),
                    _ => {
                        let numbers: Vec<usize> = (1..bytes.len())
                            .filter(|&i| {
                                bytes[i - 1] == b':' && matches!(bytes[i], b'-' | b'0'..=b'9')
                            })
                            .collect();
                        if numbers.is_empty() {
                            continue;
                        }
                        let start = numbers[below(numbers.len())];
                        let end = (start..bytes.len())
                            .find(|&i| {
                                !matches!(bytes[i], b'0'..=b'9' | b'+' | b'-' | b'.' | b'e' | b'E')
                            })
                            .unwrap_or(bytes.len());
                        let spelling = spellings[below(spellings.len())];
                        bytes.splice(start..end, spelling.bytes());
                    }
                }
            }
            let _ = detections_from_json(&bytes, &mut scratch);
            fast.clear();
            if !parse_feed_fast(&bytes, &mut fast) {
                continue;
            }
            fast_accepts += 1;
            let text = String::from_utf8_lossy(&bytes);
            let oracle = serde_json::from_slice::<Vec<Detection>>(&bytes).unwrap_or_else(|e| {
                panic!("serde rejects what the fast path accepts: {text}: {e:?}")
            });
            let bits = |d: &Detection| {
                let fields = [d.position.x, d.position.y, d.confidence, d.distance_m];
                (d.human_id, fields.map(f64::to_bits))
            };
            let oracle: Vec<_> = oracle.iter().map(bits).collect();
            assert_eq!(fast.iter().map(bits).collect::<Vec<_>>(), oracle, "{text}");
        }
        assert!(fast_accepts > 1_000, "{fast_accepts}");
    }

    #[test]
    fn detection_reports_identity_and_distance() {
        let world = open_world(Vec2::new(100.0, 100.0));
        let worker = &world.humans()[0];
        let sensor = PeopleSensor::new(SensorKind::Lidar, 3.0);
        let mut rng = SimRng::from_seed(10);
        let pose = worker.position + Vec2::new(10.0, 0.0);
        for _ in 0..100 {
            for d in sample(&sensor, &world, pose, 0.0, &mut rng) {
                assert_eq!(d.human_id, worker.id);
                assert!((d.distance_m - 10.0).abs() < 3.0);
                assert!((0.0..=1.0).contains(&d.confidence));
            }
        }
    }
}
