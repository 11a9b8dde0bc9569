//! The compact shadow-site population: fleet scale without fleet cost.
//!
//! A fleet of a million sites cannot hold a million full [`Worksite`]
//! simulations — each one carries a terrain, a radio medium, machines,
//! an IDS and a flight recorder. The control plane therefore keeps a
//! site in one of two fidelities:
//!
//! * **Full** — a deterministically-sampled subset (evenly strided over
//!   the index space, canary included) runs the complete worksite
//!   simulation. A fleet without a [`ShadowConfig`] keeps every site
//!   here: its population has no shadow sites and no shards.
//! * **Shadow** — every other site is a handful of bytes in a
//!   struct-of-arrays [`ShadowShard`]: global index, anti-rollback
//!   version, link quality, rollout outcome and the state of its
//!   in-flight delivery, 15 B in all. A shadow site's behaviour (chunk
//!   loss, IDS alert timing, tamper positions) is derived from
//!   *stateless counter-based hashing* of `(fleet seed, site index,
//!   tick, …)` — no RNG stream object per site, so a shard's memory is
//!   those 15 B per site plus its alert calendars, and its per-tick
//!   cost is proportional to the sites actually doing something (the
//!   active rollout wave, the alert-active sites), not the population.
//!
//! Campaign alerts keep that cost model through a per-shard *alert
//! calendar*. A site's detection latency for a detector class is a
//! fixed draw, so the first time a class can fire in a shard, the shard
//! sorts every slot by that latency (4 B per site per alerting class,
//! built in place, never at commissioning). A tick then binary-searches
//! the latencies whose alert instant falls inside it, so it costs
//! O(alerting sites + log shard) per campaign instead of a sweep over
//! every slot. The packing caps a shard at [`MAX_SHARD_SITES`] sites.
//!
//! Shards are stepped on the workspace's deterministic sweep pool
//! ([`silvasec_sim::sweep::par_sweep_mut`], on one worker when
//! [`ShadowConfig::sequential`] is set) and their outputs merged in
//! shard order, so a sharded run's security trace is byte-identical to
//! the same fleet stepped shard-by-shard sequentially — the property
//! `sharded_traces_match_sequential_reference_byte_for_byte`
//! (`tests/fleet_scale.rs`) asserts.
//!
//! What every shard shares about a rollout's bundle variants (the new
//! bundle and the old one a downgrade MITM substitutes) is built once
//! per rollout ([`ShadowPopulation::reset_rollout`]): bytes, chunk
//! count, first-chunk pre-scan record, tamper-flip levels and one
//! shared verdict per variant ([`UpdateBundle::verify_shared`]: one
//! signer-chain walk and one bundle-signature check). The first shard
//! that needs a verdict decides it for all, and an untampered site then
//! pays only [`UpdateBundle::check_version`]. A changed CRL list, the
//! one verdict input that moves during a rollout, forgets the verdicts,
//! so a signer revoked mid-rollout is refused by every later delivery
//! whatever the shard layout, as on full sites. Tampered deliveries
//! corrupt *per-site* bytes, so they are decoded + verified
//! individually — the full path's precedence — on one scratch copy of
//! the bundle per shard tick.
//!
//! Most tampered sites are decided by their first chunk. `serde_json`
//! pre-scans a bundle's structure before it builds anything, and three
//! flips in the first chunk almost always break it there. So the
//! rollout's variants each keep the pre-scan's record of their first
//! chunk ([`serde_json::PrescanRecord`]): its state at every value
//! boundary and which bytes are plain string content. A site draws its
//! three first-chunk flips and skips those the scan cannot see (plain
//! string content that stays plain). It XORs the three in and resumes
//! the scan from the last recorded state strictly before the first flip
//! it can see. If that scan rejects without reading a byte of the
//! second chunk, the verdict is `decode`, as the complete verification
//! would find whatever the later chunks' flips are. Every other site
//! (about 1 % at 768-byte chunks) draws the rest of its flips, XORs them
//! into the copy, decodes and verifies, and XORs the same list back
//! out.
//!
//! Every shadow draw is `hash3(key ^ salt, b, c)` for the site's
//! [`site_key`], and `hash3(a, b, c)` is `mix64(a ^ hash2(b, c))`. The
//! counters `(b, c)` never name the site, so the [`hash2`] level is
//! computed once for all the sites that share it, and a site pays one
//! [`mix64`] per draw:
//!
//! | draw | `(b, c)` | level computed once per |
//! |---|---|---|
//! | chunk loss | `(tick, chunk << 16 \| attempt)` | distributing tick, for every chunk of the longer bundle variant × the chunk budget; every shard reads it |
//! | tamper flip | `(chunk, flip)` | rollout, three flips per chunk of the longer variant; a site draws chunks past the first only when its first chunk does not decide it |
//! | detection latency | `(class_tag(class), SALT_LATENCY)` | detector class: alert-calendar build, or a poisoned-site sweep |
//! | link quality | `(SALT_LINK, 0)` | shard commissioning |
//!
//! The latency and link draws key on `key` itself, the rollout
//! draws on `key ^ SALT_CHUNK` and `key ^ SALT_TAMPER`. A chunk lands
//! when `u01(draw) < p_deliver`. The kernel tests
//! `draw >> 11 < u01_threshold(p_deliver)` instead, with the threshold
//! computed once per site per tick. It is the same test in integers:
//! `u01` scales the draw's top 53 bits by `2⁻⁵³`, exactly, so the cut is
//! `ceil(p_deliver · 2⁵³)`.
//!
//! [`Worksite`]: silvasec_sos::Worksite

use crate::bundle::UpdateBundle;
use crate::transport::{chunk_count, chunk_wire_len};
use serde_json::PrescanRecord;
use silvasec_attacks::AttackKind;
use silvasec_pki::{CertificateRevocationList, TrustStore};
use silvasec_sim::sweep::{par_sweep_mut, worker_count};
use std::ops::Range;
use std::sync::OnceLock;

/// Shadow-population tuning. A fleet config without one builds the
/// all-full layout: `full_sites` equal to the fleet size, so there are
/// no shadow sites and no shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShadowConfig {
    /// Number of sites kept at full `Worksite` fidelity, evenly strided
    /// over the index space (site 0 — the canary — is always full).
    /// Clamped to the fleet size.
    pub full_sites: usize,
    /// Shadow sites per shard. Each shard is stepped by one sweep
    /// worker, so smaller shards parallelize better; the shard size
    /// changes no outcome, since every shard reads the same shared
    /// bundle verdicts.
    pub shard_sites: usize,
    /// Step shards on one worker instead of the sweep pool — the
    /// reference schedule the parallel path must match byte-for-byte.
    pub sequential: bool,
}

impl Default for ShadowConfig {
    fn default() -> Self {
        ShadowConfig {
            full_sites: 4,
            shard_sites: 8_192,
            sequential: false,
        }
    }
}

/// Where a global site index lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteSlot {
    /// Full-fidelity site: position in the fleet's worksite vector.
    Full(u32),
    /// Shadow site: shard number and slot within the shard.
    Shadow {
        /// Shard index.
        shard: u32,
        /// Slot within the shard's arrays.
        slot: u32,
    },
}

/// The global indices kept at full fidelity: `full` evenly-strided
/// picks, always including index 0 (the rollout canary must be a real
/// worksite) unless the fleet is empty. Sorted, distinct.
#[must_use]
pub fn full_site_indices(sites: usize, full: usize) -> Vec<u32> {
    let full = full.clamp(1, sites.max(1)).min(sites);
    (0..full).map(|i| (i * sites / full) as u32).collect()
}

/// Index arithmetic between global site indices, the full subset and
/// shadow shard slots. Holds only the (small) full-site list, so its
/// memory is independent of the fleet size.
#[derive(Debug, Clone)]
pub struct ShadowLayout {
    /// Total managed sites, both fidelities.
    pub sites: usize,
    /// Sorted global indices of the full-fidelity subset.
    pub full: Vec<u32>,
    /// Shadow sites per shard.
    pub shard_sites: usize,
}

/// Most sites one shard may hold: an alert-calendar entry packs the
/// slot index into its low 18 bits.
pub const MAX_SHARD_SITES: usize = 1 << SLOT_BITS;

impl ShadowLayout {
    /// Builds the layout for `sites` sites under `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config.shard_sites` exceeds [`MAX_SHARD_SITES`].
    #[must_use]
    pub fn new(sites: usize, config: &ShadowConfig) -> Self {
        assert!(
            config.shard_sites <= MAX_SHARD_SITES,
            "shard_sites {} exceeds the {MAX_SHARD_SITES}-site shard cap",
            config.shard_sites
        );
        ShadowLayout {
            sites,
            full: full_site_indices(sites, config.full_sites),
            shard_sites: config.shard_sites.max(1),
        }
    }

    /// Number of shadow sites.
    #[must_use]
    pub fn shadow_count(&self) -> usize {
        self.sites - self.full.len()
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shadow_count().div_ceil(self.shard_sites)
    }

    /// Positions in [`ShadowLayout::full`] of the full sites whose
    /// global index lies in `sites`; the range's other members are
    /// shadow sites.
    #[must_use]
    pub(crate) fn full_within(&self, sites: &Range<usize>) -> Range<usize> {
        let below = |end: usize| self.full.partition_point(|&f| (f as usize) < end);
        below(sites.start)..below(sites.end)
    }

    /// Resolves a global site index to its home.
    ///
    /// # Panics
    ///
    /// Panics if `site` is out of range.
    #[must_use]
    pub fn slot_of(&self, site: u32) -> SiteSlot {
        assert!((site as usize) < self.sites, "site {site} out of range");
        match self.full.binary_search(&site) {
            Ok(pos) => SiteSlot::Full(pos as u32),
            Err(full_below) => {
                let ordinal = site as usize - full_below;
                SiteSlot::Shadow {
                    shard: (ordinal / self.shard_sites) as u32,
                    slot: (ordinal % self.shard_sites) as u32,
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Stateless counter-based randomness.
//
// A per-site SimRng (ChaCha20 stream + fork labels) costs hundreds of
// bytes and a keyed setup per site; a shadow site instead derives every
// random decision from a splitmix64-style hash of (seed, site, …)
// counters. The hash primitive itself lives in `sim::rng` (shared with
// the ops engine's lease/backoff jitter); re-exported here because the
// shadow draw recipes below are specified in terms of it. Every recipe
// is `hash3(key ^ salt, b, c)` = `mix64(key ^ salt ^ hash2(b, c))`, and
// `(b, c)` never names the site, so the `hash2` level is computed once
// for every site that shares it (see `RolloutDraws`, `RolloutBundles`).
// ---------------------------------------------------------------------

use silvasec_sim::rng::u01_threshold;
pub use silvasec_sim::rng::{hash2, hash3, mix64, u01};

/// Per-site key all of a shadow site's draws are derived from.
#[must_use]
pub fn site_key(seed: u64, site: u32) -> u64 {
    mix64(seed ^ u64::from(site).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// FNV-1a of an alert-class label, the `class` counter in alert-timing
/// draws (so distinct detector classes on one site draw independently).
#[must_use]
pub fn class_tag(class: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in class.as_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Domain-separation salts for the independent draw families.
const SALT_LINK: u64 = 0x11;
const SALT_CHUNK: u64 = 0x22;
const SALT_TAMPER: u64 = 0x33;
const SALT_LATENCY: u64 = 0x44;

// ---------------------------------------------------------------------
// Rollout outcome vocabulary.
// ---------------------------------------------------------------------

/// Outcome code: site not yet resolved this rollout.
pub const OUTCOME_NONE: u8 = 0;
/// Outcome code: update applied.
pub const OUTCOME_APPLIED: u8 = 1;
/// Reject reason tags, in code order (code = index + 2). Mirrors
/// [`BundleError::reason`](crate::bundle::BundleError::reason) plus the
/// device `"boot"` failure the full path can report.
pub const REJECT_REASONS: [&str; 7] = [
    "decode",
    "chain",
    "signature",
    "component",
    "manifest",
    "downgrade",
    "boot",
];

fn reject_code(reason: &str) -> u8 {
    REJECT_REASONS
        .iter()
        .position(|&r| r == reason)
        .map_or(OUTCOME_NONE, |i| (i + 2) as u8)
}

// ---------------------------------------------------------------------
// IDS-visible attack classes for shadow sites.
// ---------------------------------------------------------------------

/// The IDS detector class a worksite-layer attack campaign surfaces as,
/// `None` for kinds the site IDS does not alert on. This is the shadow
/// analogue of the full worksite's attack → detector pipeline.
#[must_use]
pub fn campaign_class(kind: AttackKind) -> Option<&'static str> {
    match kind {
        AttackKind::DeauthFlood => Some("deauth-flood"),
        AttackKind::GnssSpoofing => Some("gnss-spoofing"),
        AttackKind::GnssJamming => Some("gnss-jamming"),
        AttackKind::CameraBlinding => Some("sensor-blinding"),
        AttackKind::Replay => Some("auth-failure-storm"),
        AttackKind::RogueNode => Some("rogue-association"),
        _ => None,
    }
}

/// The three detector classes a poisoned (trojanized) site trips, the
/// shadow analogue of `Fleet::poison_site`'s three campaigns.
pub const POISON_CLASSES: [&str; 3] = ["auth-failure-storm", "deauth-flood", "gnss-spoofing"];

/// How long a poisoned shadow site misbehaves, matching the full path's
/// 120 s poison campaigns.
const POISON_DURATION_MS: u64 = 120_000;

/// IDS per-class alert cooldown, matching the full worksite IDS (30 s).
const ALERT_COOLDOWN_MS: u64 = 30_000;

/// An attack-class window shadow sites raise alerts in: the fleet
/// derives one per worksite-layer campaign it schedules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShadowCampaign {
    /// The IDS detector class the campaign trips.
    pub class: &'static str,
    /// Campaign start, fleet milliseconds.
    pub start_ms: u64,
    /// Campaign end (exclusive), fleet milliseconds.
    pub end_ms: u64,
}

/// One IDS alert raised by a shadow site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShadowAlert {
    /// Global site index.
    pub site: u32,
    /// Detector class.
    pub class: &'static str,
    /// Alert instant, fleet milliseconds.
    pub at_ms: u64,
}

/// Shortest detection latency a shadow site draws.
const LATENCY_MIN_MS: u64 = 1_000;

/// Number of distinct latencies: they lie in
/// `[LATENCY_MIN_MS, LATENCY_MIN_MS + LATENCY_SPAN_MS)`.
const LATENCY_SPAN_MS: u64 = 10_000;

/// Low bits of an alert-calendar entry holding the slot; the high 14
/// hold the latency above [`LATENCY_MIN_MS`].
const SLOT_BITS: u32 = 18;
const _: () = assert!(LATENCY_SPAN_MS <= 1 << (32 - SLOT_BITS));

/// The site-independent level of `class`'s latency draws,
/// `hash2(class_tag(class), SALT_LATENCY)`: computed once per calendar
/// build (or per poisoned-site sweep), not once per site.
fn latency_level(class: &str) -> u64 {
    hash2(class_tag(class), SALT_LATENCY)
}

/// The per-`(site, class)` detection latency, 1–11 s: how long the
/// site's detector of a class lags a campaign's start. `level` is the
/// class's [`latency_level`]; the draw is
/// `hash3(key, class_tag(class), SALT_LATENCY)`.
fn detection_latency_ms(key: u64, level: u64) -> u64 {
    LATENCY_MIN_MS + (u01(mix64(key ^ level)) * LATENCY_SPAN_MS as f64) as u64
}

/// Emits the alert instants of a `(site, class)` pair whose detection
/// latency is `latency_ms`, under a campaign window `[start_ms, end_ms)`,
/// that fall in the tick `(prev_ms, now_ms]`.
///
/// A site's first alert lags campaign start by its
/// [`detection_latency_ms`]; while the campaign stays active the
/// detector re-alerts every [`ALERT_COOLDOWN_MS`]. The schedule is a
/// pure function, so a million dormant sites cost nothing and any tick
/// can be evaluated without replaying the ticks before it.
fn alerts_in_tick(
    latency_ms: u64,
    start_ms: u64,
    end_ms: u64,
    prev_ms: u64,
    now_ms: u64,
    mut emit: impl FnMut(u64),
) {
    let first = start_ms + latency_ms;
    let n = if prev_ms < first {
        0
    } else {
        (prev_ms - first) / ALERT_COOLDOWN_MS + 1
    };
    let mut t = first + n * ALERT_COOLDOWN_MS;
    while t <= now_ms && t < end_ms {
        emit(t);
        t += ALERT_COOLDOWN_MS;
    }
}

// ---------------------------------------------------------------------
// Per-tick rollout context and output.
// ---------------------------------------------------------------------

/// What a shard needs to step one distribution tick besides the
/// rollout's bundles ([`ShadowPopulation::reset_rollout`]), shared
/// read-only across the worker pool.
#[derive(Debug, Clone, Copy)]
pub struct ShadowRolloutCtx<'a> {
    /// Trust store bundles are verified against.
    pub store: &'a TrustStore,
    /// CRLs the signer chain is checked against this tick (empty until
    /// ops revokes a signer).
    pub crls: &'a [CertificateRevocationList],
    /// Chunk transmissions per site per tick.
    pub budget: usize,
    /// Current fleet time, milliseconds.
    pub now_ms: u64,
    /// Monotone tick counter (the time axis of per-chunk loss draws).
    pub tick_index: u64,
    /// Whether an update-tampering campaign is active this tick.
    pub tamper: bool,
    /// Whether a downgrade MITM is active this tick.
    pub downgrade: bool,
    /// Whether rollout poisoning is active: sites applying now start
    /// misbehaving at the given instant.
    pub poison_at_ms: Option<u64>,
    /// Active uplink jamming intensity in `[0, 1]` (0 = clean air).
    pub jam: f64,
}

/// Aggregated outcome of one shard's distribution tick.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShadowWaveOut {
    /// Sites that applied the update this tick.
    pub applied: u32,
    /// Sites that rejected it this tick.
    pub rejected: u32,
    /// Rejections by reason, indexed as [`REJECT_REASONS`].
    pub reject_reasons: [u32; REJECT_REASONS.len()],
    /// Airtime spent this tick, bytes.
    pub bytes_on_air: u64,
    /// Frames transmitted this tick.
    pub frames_sent: u64,
    /// Shared bundle verdicts this shard decided: each distributed
    /// variant's verdict is decided once per rollout, and again for the
    /// sites that complete after the CRL list changes, by whichever
    /// shard needs it first.
    pub batch_verify_calls: u64,
    /// Sites resolved off a shared verdict.
    pub batch_verified_sites: u64,
    /// Sites verified individually (tampered deliveries).
    pub individually_verified_sites: u64,
}

impl ShadowWaveOut {
    /// Whether the tick did anything worth a trace event.
    #[must_use]
    pub fn resolved(&self) -> u32 {
        self.applied + self.rejected
    }
}

/// Sentinel: no delivery in flight.
const NO_DELIVERY: u16 = u16::MAX;

/// Bytes a tampering MITM flips in each chunk body, mirroring the full
/// transport's MITM.
const FLIPS_PER_CHUNK: usize = 3;

/// What a tampering MITM XORs into each byte it flips.
const FLIP_MASK: u8 = 0x41;

/// One bundle variant a rollout can deliver, as every shard reads it.
#[derive(Debug)]
struct Variant {
    /// The encoded bundle.
    bytes: Vec<u8>,
    /// Chunks it is sent in.
    chunks: usize,
    /// The JSON pre-scan's record of its first chunk
    /// ([`first_chunk_rejects`]).
    first_chunk: Option<PrescanRecord>,
    /// Its site-independent verdict ([`bundle_verdict`]), decided by the
    /// first shard that needs it, under [`RolloutBundles::crls`].
    verdict: OnceLock<Result<u32, u8>>,
}

/// What every shard shares about one rollout's bundle variants, built
/// once when the rollout starts.
#[derive(Debug, Default)]
struct RolloutBundles {
    /// OTA chunk payload size, bytes.
    chunk_bytes: usize,
    /// The new bundle, then the old (genuinely signed) one a downgrade
    /// MITM substitutes, when there is one.
    variants: Vec<Variant>,
    /// Tamper-flip levels `hash2(chunk, flip)`, [`FLIPS_PER_CHUNK`] per
    /// chunk of the longer variant.
    tamper_flips: Vec<u64>,
    /// The CRL list the decided verdicts were decided under.
    crls: Vec<CertificateRevocationList>,
}

impl RolloutBundles {
    fn new(encoded: Vec<u8>, old_encoded: Option<Vec<u8>>, chunk_bytes: usize) -> Self {
        let variants: Vec<Variant> = std::iter::once(encoded)
            .chain(old_encoded)
            .map(|bytes| Variant {
                chunks: chunk_count(bytes.len(), chunk_bytes),
                first_chunk: PrescanRecord::new(&bytes, chunk_bytes).ok(),
                verdict: OnceLock::new(),
                bytes,
            })
            .collect();
        let chunks = variants.iter().map(|v| v.chunks).max().unwrap_or(0) as u64;
        let tamper_flips = (0..chunks)
            .flat_map(|chunk| (0..FLIPS_PER_CHUNK as u64).map(move |flip| hash2(chunk, flip)))
            .collect();
        RolloutBundles {
            chunk_bytes,
            variants,
            tamper_flips,
            crls: Vec::new(),
        }
    }

    /// Chunks of the longer variant.
    fn chunks(&self) -> usize {
        self.tamper_flips.len() / FLIPS_PER_CHUNK
    }

    /// Whether a delivery starting now carries the old bundle: a
    /// downgrade MITM substitutes it on the wire, when there is one.
    fn starts_old(&self, downgrade: bool) -> bool {
        downgrade && self.variants.len() > 1
    }

    /// The new bundle, or the old one.
    fn variant(&self, old_bundle: bool) -> &Variant {
        &self.variants[usize::from(old_bundle)]
    }

    /// Forgets the decided verdicts when `crls` differs from the list
    /// they were decided under, so a site is judged under the CRLs of
    /// the tick its delivery completes in.
    fn decide_under(&mut self, crls: &[CertificateRevocationList]) {
        if self.crls != crls {
            self.crls = crls.to_vec();
            for variant in &mut self.variants {
                variant.verdict.take();
            }
        }
    }

    /// The positions a tampering MITM flips in `chunk` of a `len`-byte
    /// variant, for the site whose tamper key is `tamper_key`:
    /// [`FLIPS_PER_CHUNK`] draws, each uniform over the chunk's body
    /// (none in an empty bundle).
    fn chunk_flips(
        &self,
        tamper_key: u64,
        len: usize,
        chunk: usize,
    ) -> impl Iterator<Item = usize> + '_ {
        let start = chunk * self.chunk_bytes;
        let span = self.chunk_bytes.min(len - start) as u64;
        let levels = if span == 0 {
            &[][..]
        } else {
            &self.tamper_flips[chunk * FLIPS_PER_CHUNK..][..FLIPS_PER_CHUNK]
        };
        levels
            .iter()
            .map(move |&level| start + (mix64(tamper_key ^ level) % span) as usize)
    }

    /// Approximate resident bytes: the variants' bytes and pre-scan
    /// records, the flip levels and the CRL list.
    fn mem_bytes(&self) -> usize {
        let variant = |v: &Variant| {
            v.bytes.capacity() + v.first_chunk.as_ref().map_or(0, PrescanRecord::mem_bytes)
        };
        self.variants.iter().map(variant).sum::<usize>()
            + self.tamper_flips.capacity() * 8
            + self.crls.capacity() * std::mem::size_of::<CertificateRevocationList>()
    }
}

/// The chunk-loss levels of one distributing tick, built once per tick
/// before the shards run and read by every shard. A shadow draw
/// `hash3(key ^ salt, b, c)` is `mix64(key ^ salt ^ hash2(b, c))`, so a
/// site pays one [`mix64`] per draw.
#[derive(Debug)]
struct RolloutDraws {
    /// Chunk transmissions per site per tick, the row length of
    /// `chunk_loss`.
    budget: usize,
    /// Chunk-loss levels `hash2(tick_index, chunk << 16 | attempt)`,
    /// chunk-major, for each of `chunks` chunks.
    chunk_loss: Vec<u64>,
}

impl RolloutDraws {
    fn new(ctx: &ShadowRolloutCtx<'_>, chunks: usize) -> Self {
        let (tick, budget) = (ctx.tick_index, ctx.budget as u64);
        let chunk_loss = (0..chunks as u64)
            .flat_map(|chunk| (0..budget).map(move |attempt| hash2(tick, (chunk << 16) | attempt)))
            .collect();
        RolloutDraws {
            budget: ctx.budget,
            chunk_loss,
        }
    }

    /// The level of the loss draw for `chunk` on the tick's `attempt`.
    fn chunk_loss(&self, chunk: usize, attempt: usize) -> u64 {
        self.chunk_loss[chunk * self.budget + attempt]
    }
}

/// Whether `flips`, a tampered delivery's flip positions in its first
/// chunk, make the JSON pre-scan reject the bundle before it reads past
/// that chunk. `bytes` holds the delivered variant unflipped, and is
/// left so; `record` is the pre-scan's record of its first chunk.
///
/// When it does, [`UpdateBundle::decode`] rejects the bundle whatever
/// the later chunks' flips are, since `serde_json` pre-scans before it
/// builds. The scan resumes from the record's last state strictly
/// before the first flip it can see: the flips before that point leave
/// plain string content plain, so the scan reaches that state as the
/// record did. Only that choice reads byte classes. The scan itself runs
/// on the flipped bytes, so two flips that cancel on one byte cost
/// nothing but an earlier start.
fn first_chunk_rejects(record: &PrescanRecord, bytes: &mut [u8], flips: &[usize]) -> bool {
    let Some(first_seen) = flips
        .iter()
        .copied()
        .filter(|&at| record.sees(at, bytes[at] ^ FLIP_MASK))
        .min()
    else {
        // Nothing the scan sees changed in this chunk: it cannot reject
        // here.
        return false;
    };
    for &at in flips {
        bytes[at] ^= FLIP_MASK;
    }
    let scanned = record.resume(bytes, first_seen);
    for &at in flips {
        bytes[at] ^= FLIP_MASK;
    }
    scanned.is_err_and(|reach| reach <= record.limit())
}

/// One shard tick's scratch for tampered deliveries: a copy of the
/// delivered bundle variant and the flip positions of the site being
/// verified. A tick copies a bundle only when the variant changes (the
/// new bundle or the downgrade one), not once per site.
#[derive(Debug, Default)]
struct TamperBuffer {
    bytes: Vec<u8>,
    /// Which variant `bytes` holds; `None` until the first copy.
    old_bundle: Option<bool>,
    /// The current site's flip positions in `bytes`.
    flips: Vec<usize>,
}

impl TamperBuffer {
    /// Verifies a tampered delivery of the variant `old_bundle` names
    /// individually, in place. Per-site corruption cannot share a
    /// verdict.
    ///
    /// It draws the first chunk's [`FLIPS_PER_CHUNK`] flips. When the
    /// variant has a first-chunk record and [`first_chunk_rejects`], the
    /// verdict is `decode`, as the complete verification would find.
    /// Otherwise it draws the other chunks' flips, XORs all of them into
    /// the held copy, runs the complete verification and XORs the same
    /// positions back out.
    fn verify(
        &mut self,
        old_bundle: bool,
        key: u64,
        ctx: &ShadowRolloutCtx<'_>,
        bundles: &RolloutBundles,
    ) -> Result<u32, u8> {
        let variant = bundles.variant(old_bundle);
        if self.old_bundle != Some(old_bundle) {
            self.bytes.clear();
            self.bytes.extend_from_slice(&variant.bytes);
            self.old_bundle = Some(old_bundle);
        }
        let len = self.bytes.len();
        let tamper_key = key ^ SALT_TAMPER;
        self.flips.clear();
        self.flips.extend(bundles.chunk_flips(tamper_key, len, 0));
        if let Some(record) = &variant.first_chunk {
            if first_chunk_rejects(record, &mut self.bytes, &self.flips) {
                return Err(reject_code("decode"));
            }
        }
        for chunk in 1..variant.chunks {
            self.flips
                .extend(bundles.chunk_flips(tamper_key, len, chunk));
        }
        for &at in &self.flips {
            self.bytes[at] ^= FLIP_MASK;
        }
        let verdict = bundle_verdict(&self.bytes, ctx);
        for &at in &self.flips {
            self.bytes[at] ^= FLIP_MASK;
        }
        verdict
    }
}

/// One detector class's alert calendar: every slot packed as
/// `(latency - LATENCY_MIN_MS) << SLOT_BITS | slot` and sorted, so the
/// slots whose alert instant falls in a tick form one contiguous run.
#[derive(Debug)]
struct AlertCalendar {
    class: &'static str,
    packed: Vec<u32>,
}

// ---------------------------------------------------------------------
// The shard.
// ---------------------------------------------------------------------

/// A struct-of-arrays population of shadow sites, stepped as one unit
/// by one sweep worker. All arrays are indexed by slot.
#[derive(Debug)]
pub struct ShadowShard {
    /// Global site index per slot, ascending.
    site_index: Vec<u32>,
    /// Anti-rollback: installed firmware version.
    installed_version: Vec<u32>,
    /// Link quality in Q0.16 (probability a transmitted chunk lands on
    /// clean air), commissioned per site from the fleet seed.
    link_q16: Vec<u16>,
    /// Rollout outcome code ([`OUTCOME_NONE`], [`OUTCOME_APPLIED`] or a
    /// reject code).
    outcome: Vec<u8>,
    /// Chunks still to deliver, [`NO_DELIVERY`] when idle.
    pending_chunks: Vec<u16>,
    /// Whether the in-flight delivery has been tampered with.
    tampered: Vec<bool>,
    /// Whether the in-flight delivery carries the old (downgrade)
    /// bundle.
    old_bundle: Vec<bool>,
    /// Poisoned sites: `(slot, misbehaviour start ms)`.
    poisoned: Vec<(u32, u64)>,
    /// Alert calendars, one per detector class that could fire so far.
    calendars: Vec<AlertCalendar>,
    /// Fleet seed material for this shard's stateless draws.
    seed: u64,
}

impl ShadowShard {
    fn new(site_indices: Vec<u32>, seed: u64) -> Self {
        let n = site_indices.len();
        // `hash3(key, SALT_LINK, 0)`.
        let link_level = hash2(SALT_LINK, 0);
        let link_q16 = site_indices
            .iter()
            .map(|&site| {
                let q = 0.55 + 0.4 * u01(mix64(site_key(seed, site) ^ link_level));
                (q * f64::from(u16::MAX)) as u16
            })
            .collect();
        ShadowShard {
            installed_version: vec![1; n],
            link_q16,
            outcome: vec![OUTCOME_NONE; n],
            pending_chunks: vec![NO_DELIVERY; n],
            tampered: vec![false; n],
            old_bundle: vec![false; n],
            poisoned: Vec::new(),
            calendars: Vec::new(),
            seed,
            site_index: site_indices,
        }
    }

    /// Number of shadow sites in this shard.
    #[must_use]
    pub fn len(&self) -> usize {
        self.site_index.len()
    }

    /// Whether the shard holds no sites.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.site_index.is_empty()
    }

    /// Installed firmware version at `slot`.
    #[must_use]
    pub fn installed_version(&self, slot: u32) -> u32 {
        self.installed_version[slot as usize]
    }

    /// Whether `slot` applied the in-progress rollout.
    #[must_use]
    pub fn is_applied(&self, slot: u32) -> bool {
        self.outcome[slot as usize] == OUTCOME_APPLIED
    }

    /// Clears per-rollout state (outcomes and deliveries).
    pub fn reset_rollout(&mut self) {
        self.outcome.fill(OUTCOME_NONE);
        self.pending_chunks.fill(NO_DELIVERY);
        self.tampered.fill(false);
        self.old_bundle.fill(false);
    }

    /// Approximate resident bytes of this shard: its arrays and alert
    /// calendars.
    #[must_use]
    pub fn mem_bytes(&self) -> usize {
        self.site_index.capacity() * 4
            + self.installed_version.capacity() * 4
            + self.link_q16.capacity() * 2
            + self.outcome.capacity()
            + self.pending_chunks.capacity() * 2
            + self.tampered.capacity()
            + self.old_bundle.capacity()
            + self.poisoned.capacity() * std::mem::size_of::<(u32, u64)>()
            + self.calendar_bytes()
            + std::mem::size_of::<Self>()
    }

    /// Bytes held by the shard's alert calendars: 4 per site per
    /// detector class that could fire, none before the first.
    fn calendar_bytes(&self) -> usize {
        self.calendars.capacity() * std::mem::size_of::<AlertCalendar>()
            + self
                .calendars
                .iter()
                .map(|c| c.packed.capacity() * 4)
                .sum::<usize>()
    }

    /// Runs one distribution tick for the shard's members of the global
    /// wave range `[lo, hi)`, reading the rollout's shared bundle facts
    /// from `bundles` and the tick's chunk-loss levels from `draws`.
    /// Cost is proportional to the members in range, not the shard size.
    fn rollout_tick(
        &mut self,
        lo: u32,
        hi: u32,
        ctx: &ShadowRolloutCtx<'_>,
        bundles: &RolloutBundles,
        draws: &RolloutDraws,
    ) -> ShadowWaveOut {
        let mut out = ShadowWaveOut::default();
        let mut tamper_buffer = TamperBuffer::default();
        // A downgrade MITM substitutes the old but genuinely signed
        // bundle on the wire of every delivery it sees start.
        let start_old = bundles.starts_old(ctx.downgrade);
        let jam_factor = 1.0 - 0.85 * ctx.jam;
        let from = self.site_index.partition_point(|&s| s < lo);
        let to = self.site_index.partition_point(|&s| s < hi);
        for slot in from..to {
            if self.outcome[slot] != OUTCOME_NONE {
                continue;
            }
            let key = site_key(self.seed, self.site_index[slot]);
            let mut pending = self.pending_chunks[slot];
            if pending == NO_DELIVERY {
                pending = bundles.variant(start_old).chunks as u16;
                self.old_bundle[slot] = start_old;
                self.tampered[slot] = false;
            }
            let variant = bundles.variant(self.old_bundle[slot]);
            let (len, total) = (variant.bytes.len(), variant.chunks);
            let q = f64::from(self.link_q16[slot]) / f64::from(u16::MAX);
            // `u01(draw) < p_deliver`, tested on the draw's top 53 bits.
            let deliver_below = u01_threshold((q * jam_factor).clamp(0.02, 1.0));
            let loss_key = key ^ SALT_CHUNK;
            let mut landed = false;
            for attempt in 0..ctx.budget {
                if pending == 0 {
                    break;
                }
                // Chunks land in order; a lost chunk is retried on a
                // later attempt. The chunk on the air is therefore the
                // first undelivered one.
                let chunk = total - usize::from(pending);
                out.frames_sent += 1;
                out.bytes_on_air += chunk_wire_len(len, bundles.chunk_bytes, chunk);
                if mix64(loss_key ^ draws.chunk_loss(chunk, attempt)) >> 11 < deliver_below {
                    pending -= 1;
                    landed = true;
                }
            }
            if landed && ctx.tamper {
                // An active MITM corrupts chunks as they land.
                self.tampered[slot] = true;
            }
            if pending == 0 {
                self.pending_chunks[slot] = NO_DELIVERY;
                self.resolve(slot, key, ctx, bundles, &mut tamper_buffer, &mut out);
            } else {
                self.pending_chunks[slot] = pending;
            }
        }
        out
    }

    /// Verifies and applies a completed delivery at `slot`.
    fn resolve(
        &mut self,
        slot: usize,
        key: u64,
        ctx: &ShadowRolloutCtx<'_>,
        bundles: &RolloutBundles,
        tamper_buffer: &mut TamperBuffer,
        out: &mut ShadowWaveOut,
    ) {
        let old = self.old_bundle[slot];
        let verdict = if self.tampered[slot] {
            out.individually_verified_sites += 1;
            tamper_buffer.verify(old, key, ctx, bundles)
        } else {
            out.batch_verified_sites += 1;
            // The variant's shared verdict: whichever shard needs it
            // first decides it for every shard.
            let variant = bundles.variant(old);
            *variant.verdict.get_or_init(|| {
                out.batch_verify_calls += 1;
                bundle_verdict(&variant.bytes, ctx)
            })
        };
        let code = match verdict {
            Ok(version) => {
                // Only the per-site monotone version rule remains after
                // the shared prefix.
                if version > self.installed_version[slot] {
                    self.installed_version[slot] = version;
                    OUTCOME_APPLIED
                } else {
                    reject_code("downgrade")
                }
            }
            Err(code) => code,
        };
        self.outcome[slot] = code;
        if code == OUTCOME_APPLIED {
            out.applied += 1;
            if let Some(at_ms) = ctx.poison_at_ms {
                self.poisoned.push((slot as u32, at_ms));
            }
        } else {
            out.rejected += 1;
            out.reject_reasons[usize::from(code) - 2] += 1;
        }
    }

    /// The alert calendar of `class`, built on first use: every slot's
    /// packed detection latency, sorted in place.
    fn calendar(&mut self, class: &'static str) -> &[u32] {
        let at = match self.calendars.iter().position(|c| c.class == class) {
            Some(at) => at,
            None => {
                let seed = self.seed;
                let level = latency_level(class);
                let mut packed: Vec<u32> = self
                    .site_index
                    .iter()
                    .enumerate()
                    .map(|(slot, &site)| {
                        let offset =
                            detection_latency_ms(site_key(seed, site), level) - LATENCY_MIN_MS;
                        ((offset as u32) << SLOT_BITS) | slot as u32
                    })
                    .collect();
                packed.sort_unstable();
                self.calendars.push(AlertCalendar { class, packed });
                self.calendars.len() - 1
            }
        };
        &self.calendars[at].packed
    }

    /// Emits the shard's IDS alerts for the tick `(prev_ms, now_ms]`:
    /// campaign-driven alerts across every site plus misbehaviour from
    /// poisoned sites.
    ///
    /// Campaign alerts come from the class's alert calendar, built the
    /// first time the class can fire in this shard (4 B per site). For
    /// each cooldown period overlapping the tick, one binary search
    /// finds the sites whose alert instant falls in the tick and before
    /// the campaign ends, so a tick costs O(alerting sites + log shard)
    /// per campaign. Alerts come out ordered by (slot, campaign,
    /// instant), the order of a slot-by-slot evaluation of
    /// `alerts_in_tick`.
    pub fn alert_tick(
        &mut self,
        campaigns: &[ShadowCampaign],
        prev_ms: u64,
        now_ms: u64,
    ) -> Vec<ShadowAlert> {
        const LATENCY_MAX_MS: u64 = LATENCY_MIN_MS + LATENCY_SPAN_MS - 1;
        // (slot, campaign index, instant) of every campaign alert.
        let mut hits: Vec<(u32, u32, u64)> = Vec::new();
        for (index, c) in campaigns.iter().enumerate() {
            // Instants are start + latency + k·cooldown with k ≥ 0, in
            // (prev_ms, last].
            let Some(last) = c.end_ms.checked_sub(1).map(|end| end.min(now_ms)) else {
                continue;
            };
            if last <= prev_ms || last < c.start_ms + LATENCY_MIN_MS {
                continue;
            }
            let k_lo = match prev_ms.checked_sub(c.start_ms + LATENCY_MAX_MS) {
                Some(behind) => behind / ALERT_COOLDOWN_MS + 1,
                None => 0,
            };
            let k_hi = (last - c.start_ms - LATENCY_MIN_MS) / ALERT_COOLDOWN_MS;
            if k_lo > k_hi {
                continue;
            }
            let calendar = self.calendar(c.class);
            for k in k_lo..=k_hi {
                // Latency offsets (above LATENCY_MIN_MS) alerting in
                // the tick during cooldown period k.
                let base = c.start_ms + k * ALERT_COOLDOWN_MS + LATENCY_MIN_MS;
                let lo = (prev_ms + 1).saturating_sub(base);
                let hi = (last - base).min(LATENCY_SPAN_MS - 1);
                let from = calendar.partition_point(|&p| p < (lo as u32) << SLOT_BITS);
                let to = calendar.partition_point(|&p| p < ((hi + 1) as u32) << SLOT_BITS);
                hits.extend(calendar[from..to].iter().map(|&p| {
                    let slot = p & ((1 << SLOT_BITS) - 1);
                    (slot, index as u32, base + u64::from(p >> SLOT_BITS))
                }));
            }
        }
        hits.sort_unstable();
        let mut alerts: Vec<ShadowAlert> = hits
            .iter()
            .map(|&(slot, index, at_ms)| ShadowAlert {
                site: self.site_index[slot as usize],
                class: campaigns[index as usize].class,
                at_ms,
            })
            .collect();
        if self.poisoned.is_empty() {
            return alerts;
        }
        let poison_levels = POISON_CLASSES.map(latency_level);
        for &(slot, start_ms) in &self.poisoned {
            let site = self.site_index[slot as usize];
            let key = site_key(self.seed, site);
            for (class, level) in POISON_CLASSES.into_iter().zip(poison_levels) {
                alerts_in_tick(
                    detection_latency_ms(key, level),
                    start_ms,
                    start_ms + POISON_DURATION_MS,
                    prev_ms,
                    now_ms,
                    |t| {
                        alerts.push(ShadowAlert {
                            site,
                            class,
                            at_ms: t,
                        });
                    },
                );
            }
        }
        alerts
    }
}

/// Decodes `bytes` and runs the site-independent bundle checks:
/// `Ok(offered_version)`, or the reject code.
fn bundle_verdict(bytes: &[u8], ctx: &ShadowRolloutCtx<'_>) -> Result<u32, u8> {
    let bundle = UpdateBundle::decode(bytes).map_err(|e| reject_code(e.reason()))?;
    bundle
        .verify_shared(ctx.store, ctx.now_ms, ctx.crls, crate::FLEET_COMPONENT)
        .map_err(|e| reject_code(e.reason()))?;
    Ok(bundle.manifest.version)
}

// ---------------------------------------------------------------------
// The population: shards + deterministic sweep.
// ---------------------------------------------------------------------

/// The whole shadow population: shards, layout, and the sweep schedule
/// (the pool's workers, or one for the sequential reference — both
/// produce identical merged output).
#[derive(Debug)]
pub struct ShadowPopulation {
    /// Index arithmetic for the two-fidelity split.
    pub layout: ShadowLayout,
    shards: Vec<ShadowShard>,
    /// What every shard shares about the current rollout's bundles;
    /// empty before the first rollout.
    bundles: RolloutBundles,
    /// Sweep workers the shards are stepped on.
    workers: usize,
}

impl ShadowPopulation {
    /// Commissions the shadow population for a fleet of `sites` sites
    /// under `config`, deriving all per-site state from `seed`.
    #[must_use]
    pub fn new(sites: usize, config: &ShadowConfig, seed: u64) -> Self {
        let layout = ShadowLayout::new(sites, config);
        let shadow_seed = mix64(seed ^ 0x5AD0_51DE);
        // Shadow global indices ascend; carve them into shard-sized
        // runs.
        let mut shadow_sites: Vec<u32> = Vec::with_capacity(layout.shadow_count());
        let mut full_iter = layout.full.iter().copied().peekable();
        for site in 0..sites as u32 {
            if full_iter.peek() == Some(&site) {
                full_iter.next();
            } else {
                shadow_sites.push(site);
            }
        }
        let shards: Vec<ShadowShard> = shadow_sites
            .chunks(layout.shard_sites)
            .map(|chunk| ShadowShard::new(chunk.to_vec(), shadow_seed))
            .collect();
        let workers = if config.sequential {
            1
        } else {
            worker_count(shards.len())
        };
        ShadowPopulation {
            layout,
            shards,
            bundles: RolloutBundles::default(),
            workers,
        }
    }

    /// Number of shadow sites.
    #[must_use]
    pub fn len(&self) -> usize {
        self.layout.shadow_count()
    }

    /// Whether the population holds no shadow sites.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Read access to a shard.
    #[must_use]
    pub fn shard(&self, shard: u32) -> &ShadowShard {
        &self.shards[shard as usize]
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Approximate resident bytes across every shard, plus the current
    /// rollout's shared bundle facts.
    #[must_use]
    pub fn mem_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(ShadowShard::mem_bytes)
            .sum::<usize>()
            + self.bundles.mem_bytes()
    }

    /// The part of [`ShadowPopulation::mem_bytes`] held by alert
    /// calendars.
    #[must_use]
    pub fn calendar_bytes(&self) -> usize {
        self.shards.iter().map(ShadowShard::calendar_bytes).sum()
    }

    /// Starts a rollout of the encoded bundle `encoded`, sent in
    /// `chunk_bytes`-byte chunks, with `old_encoded` the genuinely signed
    /// bundle a downgrade MITM substitutes: clears every shard's
    /// per-rollout state and builds, once for all shards, what they
    /// share about the two bundles.
    pub fn reset_rollout(
        &mut self,
        encoded: Vec<u8>,
        old_encoded: Option<Vec<u8>>,
        chunk_bytes: usize,
    ) {
        for shard in &mut self.shards {
            shard.reset_rollout();
        }
        self.bundles = RolloutBundles::new(encoded, old_encoded, chunk_bytes);
    }

    /// The bundle a delivery starting now carries: the old one while a
    /// downgrade MITM substitutes it (and there is one), else the new
    /// one. Shadow deliveries start on the same variant.
    #[must_use]
    pub(crate) fn delivered(&self, downgrade: bool) -> &[u8] {
        let bundles = &self.bundles;
        &bundles.variant(bundles.starts_old(downgrade)).bytes
    }

    /// Steps every shard's distribution tick for the wave range
    /// `[lo, hi)` and returns the per-shard outputs in shard order —
    /// identical whether the shards ran on the sweep pool or
    /// sequentially. The shared verdicts are forgotten first if
    /// `ctx.crls` changed since they were decided, and the tick's
    /// chunk-loss levels are built once, here, for all shards.
    pub fn rollout_sweep(
        &mut self,
        lo: u32,
        hi: u32,
        ctx: &ShadowRolloutCtx<'_>,
    ) -> Vec<ShadowWaveOut> {
        self.bundles.decide_under(ctx.crls);
        let draws = RolloutDraws::new(ctx, self.bundles.chunks());
        let bundles = &self.bundles;
        par_sweep_mut(&mut self.shards, self.workers, |_, s| {
            s.rollout_tick(lo, hi, ctx, bundles, &draws)
        })
    }

    /// Steps every shard's alert tick and returns the merged alerts in
    /// shard order (order-preserving merge — the determinism anchor).
    pub fn alert_sweep(
        &mut self,
        campaigns: &[ShadowCampaign],
        prev_ms: u64,
        now_ms: u64,
    ) -> Vec<ShadowAlert> {
        let per_shard = par_sweep_mut(&mut self.shards, self.workers, |_, s| {
            s.alert_tick(campaigns, prev_ms, now_ms)
        });
        let mut merged = Vec::with_capacity(per_shard.iter().map(Vec::len).sum());
        for alerts in per_shard {
            merged.extend(alerts);
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_subset_is_strided_distinct_and_includes_canary() {
        for sites in [1usize, 2, 4, 63, 64, 1000] {
            for full in [1usize, 2, 4, 16] {
                let picks = full_site_indices(sites, full);
                assert_eq!(picks[0], 0, "canary must be full");
                assert!(picks.windows(2).all(|w| w[0] < w[1]), "{picks:?}");
                assert!(picks.iter().all(|&p| (p as usize) < sites));
                assert_eq!(picks.len(), full.clamp(1, sites));
            }
        }
    }

    #[test]
    fn layout_roundtrips_every_site() {
        let config = ShadowConfig {
            full_sites: 4,
            shard_sites: 10,
            sequential: true,
        };
        let layout = ShadowLayout::new(64, &config);
        let pop = ShadowPopulation::new(64, &config, 7);
        let mut full_seen = 0usize;
        let mut shadow_seen = 0usize;
        for site in 0..64u32 {
            match layout.slot_of(site) {
                SiteSlot::Full(pos) => {
                    assert_eq!(layout.full[pos as usize], site);
                    full_seen += 1;
                }
                SiteSlot::Shadow { shard, slot } => {
                    assert_eq!(pop.shard(shard).site_index[slot as usize], site);
                    shadow_seen += 1;
                }
            }
        }
        assert_eq!(full_seen, 4);
        assert_eq!(shadow_seen, 60);
        assert_eq!(pop.len(), 60);
        assert_eq!(pop.shard_count(), 6);
    }

    #[test]
    fn stateless_draws_are_deterministic_and_spread() {
        assert_eq!(mix64(42), mix64(42));
        assert_ne!(mix64(42), mix64(43));
        let a = u01(hash3(1, 2, 3));
        assert!((0.0..1.0).contains(&a));
        assert_eq!(a, u01(hash3(1, 2, 3)));
        assert_ne!(u01(hash3(1, 2, 3)), u01(hash3(1, 2, 4)));
        // Mean of many u01 draws is near 1/2 (sanity, not statistics).
        let n = 4096;
        let mean: f64 = (0..n).map(|i| u01(mix64(i))).sum::<f64>() / f64::from(n as u32);
        assert!((mean - 0.5).abs() < 0.05, "{mean}");
    }

    /// A latency draw as its recipe states it, three `mix64` levels per
    /// call: the definition the hoisted [`detection_latency_ms`] must
    /// equal.
    fn latency_by_recipe(key: u64, class: &str) -> u64 {
        let draw = hash3(key, class_tag(class), SALT_LATENCY);
        LATENCY_MIN_MS + (u01(draw) * LATENCY_SPAN_MS as f64) as u64
    }

    #[test]
    fn alert_schedule_respects_window_latency_and_cooldown() {
        let latency = latency_by_recipe(site_key(9, 5), "deauth-flood");
        let mut fired = Vec::new();
        // Whole campaign in one evaluation window.
        alerts_in_tick(latency, 10_000, 100_000, 0, 200_000, |t| {
            fired.push(t);
        });
        assert!(!fired.is_empty());
        assert!(fired[0] >= 11_000 && fired[0] < 21_000, "{fired:?}");
        assert!(fired.windows(2).all(|w| w[1] - w[0] == ALERT_COOLDOWN_MS));
        assert!(fired.iter().all(|&t| t < 100_000));
        // Tick-by-tick evaluation sees exactly the same instants.
        let mut stepped = Vec::new();
        let mut prev = 0u64;
        while prev < 200_000 {
            let now = prev + 500;
            alerts_in_tick(latency, 10_000, 100_000, prev, now, |t| {
                stepped.push(t);
            });
            prev = now;
        }
        assert_eq!(fired, stepped, "schedule must be evaluation-invariant");
    }

    /// Slot-by-slot evaluation of `alerts_in_tick` for every campaign,
    /// then the poisoned sites, with latencies drawn by recipe: the
    /// definition `alert_tick` must match.
    fn brute_force_alert_tick(
        shard: &ShadowShard,
        campaigns: &[ShadowCampaign],
        prev_ms: u64,
        now_ms: u64,
    ) -> Vec<ShadowAlert> {
        let mut fired = Vec::new();
        for slot in 0..shard.len() {
            let key = site_key(shard.seed, shard.site_index[slot]);
            for c in campaigns {
                let latency = latency_by_recipe(key, c.class);
                alerts_in_tick(latency, c.start_ms, c.end_ms, prev_ms, now_ms, |t| {
                    fired.push((slot, c.class, t));
                });
            }
        }
        for &(slot, start_ms) in &shard.poisoned {
            let key = site_key(shard.seed, shard.site_index[slot as usize]);
            for class in POISON_CLASSES {
                let end_ms = start_ms + POISON_DURATION_MS;
                let latency = latency_by_recipe(key, class);
                alerts_in_tick(latency, start_ms, end_ms, prev_ms, now_ms, |t| {
                    fired.push((slot as usize, class, t));
                });
            }
        }
        fired
            .into_iter()
            .map(|(slot, class, at_ms)| ShadowAlert {
                site: shard.site_index[slot],
                class,
                at_ms,
            })
            .collect()
    }

    #[test]
    fn alert_calendar_matches_brute_force_scan() {
        const CLASSES: [&str; 2] = ["deauth-flood", "gnss-spoofing"];
        // Under EDGE_SEED, sites whose first-class latency is the
        // shortest or the longest drawable: the calendar's end entries.
        const EDGE_SEED: u64 = 7;
        let edge_sites: Vec<u32> = (0u32..)
            .filter(|&s| {
                let latency = latency_by_recipe(site_key(EDGE_SEED, s), CLASSES[0]);
                latency == LATENCY_MIN_MS || latency == LATENCY_MIN_MS + LATENCY_SPAN_MS - 1
            })
            .take(4)
            .collect();
        let mut state = 0x0CA1_E4DA_u64;
        let mut draw = |n: u64| {
            state = mix64(state);
            state % n
        };
        let (mut alerts, mut multi_period) = (0usize, 0usize);
        for case in 0..300 {
            let edge = case % 4 == 0;
            let seed = if edge { EDGE_SEED } else { draw(1 << 32) };
            let mut sites = Vec::new();
            let mut site = draw(5) as u32;
            for _ in 0..1 + draw(60) {
                sites.push(site);
                site += 2 + draw(4) as u32;
            }
            if edge {
                sites.extend(&edge_sites);
                sites.sort_unstable();
                sites.dedup();
            }
            let mut fast = ShadowShard::new(sites.clone(), seed);
            let mut slow = ShadowShard::new(sites.clone(), seed);
            let campaigns: Vec<ShadowCampaign> = (0..1 + draw(4))
                .map(|_| {
                    let class = CLASSES[draw(2) as usize];
                    let start_ms = draw(120_000);
                    let end_ms = match draw(5) {
                        0 => start_ms,
                        // Ends exactly on one site's alert instant.
                        1 => {
                            let site = sites[draw(sites.len() as u64) as usize];
                            let latency = latency_by_recipe(site_key(seed, site), class);
                            start_ms + latency + draw(3) * ALERT_COOLDOWN_MS
                        }
                        _ => start_ms + draw(150_000),
                    };
                    ShadowCampaign {
                        class,
                        start_ms,
                        end_ms,
                    }
                })
                .collect();
            for slot in 0..fast.len() as u32 {
                if draw(8) == 0 {
                    let at = (slot, draw(150_000));
                    fast.poisoned.push(at);
                    slow.poisoned.push(at);
                }
            }
            let mut prev = draw(3_000);
            while prev < 400_000 {
                let width = match draw(5) {
                    0 => 1 + draw(20),
                    1 => 500,
                    2 => 1 + draw(1_000),
                    3 => 1 + draw(ALERT_COOLDOWN_MS),
                    _ => ALERT_COOLDOWN_MS + draw(65_001),
                };
                let now = prev + width;
                let got = fast.alert_tick(&campaigns, prev, now);
                let want = brute_force_alert_tick(&slow, &campaigns, prev, now);
                assert_eq!(
                    got, want,
                    "case {case}, tick ({prev}, {now}]: {campaigns:?}"
                );
                alerts += got.len();
                multi_period += got
                    .windows(2)
                    .filter(|w| w[0].site == w[1].site && w[0].class == w[1].class)
                    .count();
                prev = now;
            }
        }
        assert!(alerts > 1_000, "the cases must raise alerts: {alerts}");
        assert!(
            multi_period > 0,
            "wide ticks must raise a site's class more than once"
        );
    }

    #[test]
    fn parallel_and_sequential_sweeps_merge_identically() {
        let mk = |sequential| {
            let config = ShadowConfig {
                full_sites: 2,
                shard_sites: 16,
                sequential,
            };
            ShadowPopulation::new(200, &config, 11)
        };
        let campaigns = [ShadowCampaign {
            class: "deauth-flood",
            start_ms: 1_000,
            end_ms: 90_000,
        }];
        let mut par = mk(false);
        let mut seq = mk(true);
        let mut prev = 0u64;
        for _ in 0..40 {
            let now = prev + 500;
            assert_eq!(
                par.alert_sweep(&campaigns, prev, now),
                seq.alert_sweep(&campaigns, prev, now)
            );
            prev = now;
        }
    }

    /// The copy-per-site tamper path the in-place buffer replaced: flip a
    /// fresh copy of the delivered bytes, each position drawn by its
    /// recipe (one `hash3` per flip).
    fn flipped_copy(bytes: &[u8], key: u64, chunk_bytes: usize) -> Vec<u8> {
        let mut copy = bytes.to_vec();
        let total = chunk_count(copy.len(), chunk_bytes);
        for chunk in 0..total {
            let start = chunk * chunk_bytes;
            let span = chunk_bytes.min(copy.len() - start) as u64;
            if span == 0 {
                continue;
            }
            for flip in 0..3u64 {
                let at = start + (hash3(key ^ SALT_TAMPER, chunk as u64, flip) % span) as usize;
                copy[at] ^= 0x41;
            }
        }
        copy
    }

    /// ... and the verdict on that copy.
    fn copy_verdict(
        bytes: &[u8],
        key: u64,
        chunk_bytes: usize,
        ctx: &ShadowRolloutCtx<'_>,
    ) -> Result<u32, u8> {
        bundle_verdict(&flipped_copy(bytes, key, chunk_bytes), ctx)
    }

    /// A backend's baseline (version 1, the downgrade bundle) and
    /// version-2 bundles at the fleet's default image size, and its
    /// trust store.
    fn two_bundles() -> (Vec<u8>, Vec<u8>, TrustStore) {
        let mut rng = silvasec_sim::rng::SimRng::from_seed(5);
        let mut backend = crate::FleetBackend::commission(&mut rng);
        let payload = crate::FleetConfig::default().image_payload_bytes;
        let old = backend.publish(1, payload, 0, &mut rng).encode();
        let new = backend.publish(2, payload, 1_000, &mut rng).encode();
        (old, new, backend.trust_store().clone())
    }

    fn rollout_ctx(store: &TrustStore) -> ShadowRolloutCtx<'_> {
        ShadowRolloutCtx {
            store,
            crls: &[],
            budget: 1,
            now_ms: 5_000,
            tick_index: 0,
            tamper: true,
            downgrade: false,
            poison_at_ms: None,
            jam: 0.0,
        }
    }

    #[test]
    fn in_place_tamper_matches_a_fresh_flipped_copy() {
        let (old, new, store) = two_bundles();
        assert!(
            new.len() > 8_000,
            "a fleet-sized bundle: {} bytes",
            new.len()
        );
        let misfit = 1_000;
        assert_ne!(new.len() % misfit, 0, "{misfit} must not divide the length");
        // Sites decided from their first chunk, and sites that took the
        // complete verification, per chunk size.
        let (mut early, mut complete) = ([0; 4], [0; 4]);
        let ctx = rollout_ctx(&store);
        for (size, chunk_bytes) in [1, 768, misfit, new.len() + 5].into_iter().enumerate() {
            let bundles = RolloutBundles::new(new.clone(), Some(old.clone()), chunk_bytes);
            let mut buffer = TamperBuffer::default();
            for site in 0..2_000u32 {
                let key = site_key(0xF1EE7, site);
                let tamper_key = key ^ SALT_TAMPER;
                for (old_bundle, delivered) in [(false, &new), (true, &old)] {
                    let len = delivered.len();
                    let flipped = flipped_copy(delivered, key, chunk_bytes);
                    // The one flip-drawing function draws the copy
                    // path's corruption.
                    let mut drawn = delivered.to_vec();
                    for chunk in 0..chunk_count(len, chunk_bytes) {
                        for at in bundles.chunk_flips(tamper_key, len, chunk) {
                            drawn[at] ^= FLIP_MASK;
                        }
                    }
                    assert_eq!(drawn, flipped, "site {site}, {chunk_bytes}-byte chunks");
                    let want = bundle_verdict(&flipped, &ctx);
                    assert_eq!(buffer.verify(old_bundle, key, &ctx, &bundles), want);
                    assert_eq!(buffer.bytes, **delivered, "the buffer is restored");
                    let record = bundles
                        .variant(old_bundle)
                        .first_chunk
                        .as_ref()
                        .expect("a bundle's first chunk pre-scans");
                    let first: Vec<usize> = bundles.chunk_flips(tamper_key, len, 0).collect();
                    if first_chunk_rejects(record, &mut buffer.bytes, &first) {
                        early[size] += 1;
                    } else {
                        complete[size] += 1;
                    }
                }
            }
        }
        // One-byte chunks flip byte 0 (`{`) three times: every site is
        // decided early. Both paths run at the chunk sizes in between.
        assert_eq!(early[0], 4_000);
        for size in 1..3 {
            assert!(
                early[size] > 3_000 && complete[size] > 0,
                "{early:?} {complete:?}"
            );
        }
        assert!(early[3] > 3_000, "{early:?}");
    }

    #[test]
    fn first_chunk_decisions_match_the_copy_path() {
        let (old, new, store) = two_bundles();
        let chunk_bytes = 768;
        let ctx = rollout_ctx(&store);
        let bundles = RolloutBundles::new(new.clone(), Some(old), chunk_bytes);
        let record = bundles
            .variant(false)
            .first_chunk
            .as_ref()
            .expect("a bundle's first chunk pre-scans");
        assert_eq!(record.limit(), chunk_bytes);
        let find = |needle: &[u8]| {
            new.windows(needle.len())
                .position(|w| w == needle)
                .expect("the bundle names it")
        };
        // The `c` opening the first key `"component_id"`, the first
        // letter of its value `"forwarder-fw"` (plain string content
        // that stays plain under the flip), and the quote closing the
        // key `"payload"`, before the bundle's first byte array.
        let key_c = find(br#""component_id""#) + 1;
        let plain = find(br#""forwarder-fw""#) + 1;
        let quote = find(br#""payload""#) + 8;
        assert_eq!(new[key_c] ^ FLIP_MASK, b'"');
        assert!(quote < chunk_bytes);
        let decode = Err(reject_code("decode"));
        let signature = Err(reject_code("signature"));
        // Chunk 0's flips; whether they decide the site; the verdict on
        // a copy flipped there.
        let cases: [([usize; 3], bool, Result<u32, u8>); 6] = [
            // `{` becomes `:`.
            ([0, plain, plain + 1], true, decode),
            // `c` becomes `"`: the key ends early. Resuming at a state
            // past it would miss it, the invisible flips around it change
            // nothing the scan sees, and the rest of chunk 0 is intact.
            ([plain, key_c, plain + 1], true, decode),
            // The first visible flip decides, not the later one whose
            // scan runs into chunk 1 (below).
            ([quote, key_c, plain], true, decode),
            // All three invisible: the manifest's component changes and
            // the bundle signature no longer verifies.
            ([plain, plain + 1, plain + 2], false, signature),
            // The two flips at `key_c` cancel. The scan runs on the real
            // bytes, finds nothing wrong in chunk 0 and leaves the site
            // to the complete verification.
            ([key_c, key_c, plain], false, signature),
            // The key `"payload"` no longer ends: its string runs on into
            // chunk 1, whose flips the early path does not apply.
            ([quote, plain, plain + 1], false, decode),
        ];
        let mut bytes = new.clone();
        let copy_verdict = |flips: &[usize]| {
            let mut copy = new.clone();
            for &at in flips {
                copy[at] ^= FLIP_MASK;
            }
            bundle_verdict(&copy, &ctx)
        };
        for (flips, decides, verdict) in cases {
            assert_eq!(
                first_chunk_rejects(record, &mut bytes, &flips),
                decides,
                "{flips:?}"
            );
            assert_eq!(bytes, new, "the bytes are restored");
            assert_eq!(copy_verdict(&flips), verdict, "{flips:?}");
        }
        // A flip at the last byte of chunk 0 or within 8 bytes of it:
        // decided early only when its scan reads nothing of chunk 1.
        let mut decided = 0;
        for at in chunk_bytes - 9..chunk_bytes {
            let flips = [at, plain, plain + 1];
            if first_chunk_rejects(record, &mut bytes, &flips) {
                assert_eq!(copy_verdict(&flips), decode, "{flips:?}");
                decided += 1;
            }
        }
        assert!((1..9).contains(&decided), "{decided} of 9 decided");
    }

    #[test]
    fn rollout_draw_levels_match_their_recipes() {
        let (old, new, store) = two_bundles();
        let mut ctx = rollout_ctx(&store);
        ctx.budget = 5;
        ctx.tick_index = 37;
        let chunks = chunk_count(new.len().max(old.len()), 768);
        let bundles = RolloutBundles::new(new, Some(old), 768);
        assert_eq!(bundles.chunks(), chunks);
        let draws = RolloutDraws::new(&ctx, bundles.chunks());
        assert_eq!(draws.chunk_loss.len(), chunks * ctx.budget);
        let key = site_key(0xD7A5, 3);
        for chunk in 0..chunks {
            for attempt in 0..ctx.budget {
                let c = ((chunk as u64) << 16) | attempt as u64;
                assert_eq!(
                    mix64(key ^ SALT_CHUNK ^ draws.chunk_loss(chunk, attempt)),
                    hash3(key ^ SALT_CHUNK, ctx.tick_index, c)
                );
            }
            let levels = &bundles.tamper_flips[chunk * FLIPS_PER_CHUNK..][..FLIPS_PER_CHUNK];
            for (flip, &level) in levels.iter().enumerate() {
                assert_eq!(
                    mix64(key ^ SALT_TAMPER ^ level),
                    hash3(key ^ SALT_TAMPER, chunk as u64, flip as u64)
                );
            }
        }
    }

    #[test]
    fn tamper_buffer_serves_both_variants_in_one_tick() {
        let (old, new, store) = two_bundles();
        let sites: Vec<u32> = (0..48).collect();
        let mut shard = ShadowShard::new(sites.clone(), 0xD0_96);
        // Tick 0: every other block of four sites starts receiving the
        // new bundle under tampering and cannot finish on one chunk.
        let mut ctx = rollout_ctx(&store);
        let bundles = RolloutBundles::new(new.clone(), Some(old.clone()), 768);
        let draws = RolloutDraws::new(&ctx, bundles.chunks());
        for lo in (0..48).step_by(8) {
            let out = shard.rollout_tick(lo, lo + 4, &ctx, &bundles, &draws);
            assert_eq!(out.resolved(), 0);
        }
        let started_new: Vec<bool> = shard
            .pending_chunks
            .iter()
            .map(|&p| p != NO_DELIVERY)
            .collect();
        // Tick 1: a downgrade MITM joins the tampering, so the blocks in
        // between start on the old bundle; everyone gets time to finish.
        ctx.downgrade = true;
        ctx.budget = 256;
        ctx.tick_index = 1;
        let draws = RolloutDraws::new(&ctx, bundles.chunks());
        let out = shard.rollout_tick(0, 48, &ctx, &bundles, &draws);
        assert_eq!(out.resolved(), 48, "every delivery completes");
        assert_eq!(out.individually_verified_sites, 48);
        assert_eq!(out.batch_verify_calls, 0);
        let mut variants = [0; 2];
        for (slot, &site) in sites.iter().enumerate() {
            assert_eq!(shard.old_bundle[slot], !started_new[slot]);
            let delivered = if started_new[slot] { &new } else { &old };
            let want = match copy_verdict(delivered, site_key(0xD0_96, site), 768, &ctx) {
                Ok(version) if version > 1 => OUTCOME_APPLIED,
                Ok(_) => reject_code("downgrade"),
                Err(code) => code,
            };
            assert_eq!(shard.outcome[slot], want, "slot {slot}");
            variants[usize::from(started_new[slot])] += 1;
        }
        assert_eq!(variants, [24, 24]);
        assert_eq!(out.reject_reasons.iter().sum::<u32>(), out.rejected);
    }

    #[test]
    fn reject_codes_cover_all_reasons() {
        for (i, reason) in REJECT_REASONS.iter().enumerate() {
            assert_eq!(usize::from(reject_code(reason)), i + 2);
        }
        assert_eq!(reject_code("nonsense"), OUTCOME_NONE);
    }
}
