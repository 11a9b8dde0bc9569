//! The compact shadow-site population: fleet scale without fleet cost.
//!
//! A fleet of a million sites cannot hold a million full [`Worksite`]
//! simulations — each one carries a terrain, a radio medium, machines,
//! an IDS and a flight recorder. The control plane therefore keeps a
//! site in one of two fidelities:
//!
//! * **Full** — a deterministically-sampled subset (evenly strided over
//!   the index space, canary included) runs the complete worksite
//!   simulation, exactly as every site did before this module existed.
//! * **Shadow** — every other site is a handful of bytes in a
//!   struct-of-arrays [`ShadowShard`]: anti-rollback version, rollout
//!   outcome, link quality, session-key slot, risk/alert counters. A
//!   shadow site's behaviour (chunk loss, IDS alert timing, tamper
//!   positions) is derived from *stateless counter-based hashing* of
//!   `(fleet seed, site index, tick, …)` — no RNG stream object per
//!   site, so a shard's memory is a few dozen bytes per site and its
//!   per-tick cost is proportional to the sites actually doing
//!   something (the active rollout wave, the alert-active sites), not
//!   the population.
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
//! ([`silvasec_sim::sweep::par_sweep_mut`]) and their outputs merged in
//! shard order, so a sharded run's security trace is byte-identical to
//! the same fleet stepped shard-by-shard sequentially — the property
//! `sharded_traces_match_sequential_reference_byte_for_byte`
//! (`tests/fleet_scale.rs`) asserts.
//!
//! Bundle verification is amortized across a shard: the
//! site-independent verdict ([`UpdateBundle::verify_shared`], which
//! internally batch-verifies the bundle + image signatures in one
//! Fiat–Shamir batch) is computed once per shard per distributed
//! variant and cached; each shadow site then pays only the monotone
//! version rule ([`UpdateBundle::check_version`]). Tampered deliveries
//! corrupt *per-site* bytes, so they fall off the shared path and are
//! decoded + verified individually — exactly the precedence the full
//! path has. They share one scratch copy of the delivered bundle per
//! shard tick: each site flips its corruption in, verifies and flips
//! it back out. The JSON decoder's structural pre-scan stops at the
//! first broken token without building anything, so a tampered site
//! costs a scan of its bundle's intact prefix, not a copy and a tree.
//!
//! [`Worksite`]: silvasec_sos::Worksite

use crate::bundle::{BundleError, UpdateBundle};
use crate::transport::{chunk_count, chunk_wire_len};
use silvasec_attacks::AttackKind;
use silvasec_pki::{CertificateRevocationList, TrustStore};
use silvasec_sim::sweep::par_sweep_mut;

/// Shadow-population tuning. Present on a fleet config = two-fidelity
/// mode; absent = every site is full, byte-identical to the historical
/// behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShadowConfig {
    /// Number of sites kept at full `Worksite` fidelity, evenly strided
    /// over the index space (site 0 — the canary — is always full).
    /// Clamped to the fleet size.
    pub full_sites: usize,
    /// Shadow sites per shard. Each shard is stepped by one sweep
    /// worker; smaller shards parallelize better, larger shards
    /// amortize the per-shard batched bundle verification further.
    pub shard_sites: usize,
    /// Step shards sequentially instead of on the sweep pool — the
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
/// worksite). Sorted, distinct.
#[must_use]
pub fn full_site_indices(sites: usize, full: usize) -> Vec<u32> {
    let full = full.clamp(1, sites.max(1));
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
// shadow draw recipes below are specified in terms of it.
// ---------------------------------------------------------------------

pub use silvasec_sim::rng::{hash3, mix64, u01};

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
const SALT_SESSION: u64 = 0x55;

// ---------------------------------------------------------------------
// Rollout outcome vocabulary.
// ---------------------------------------------------------------------

/// Outcome code: site not yet resolved this rollout.
pub const OUTCOME_NONE: u8 = 0;
/// Outcome code: update applied.
pub const OUTCOME_APPLIED: u8 = 1;
/// Reject reason tags, in code order (code = index + 2). Mirrors
/// [`BundleError::reason`] plus the device `"boot"` failure the full
/// path can report.
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

/// The per-`(site, class)` detection latency, 1–11 s: how long the
/// site's detector of `class` lags a campaign's start.
fn detection_latency_ms(key: u64, class: &str) -> u64 {
    LATENCY_MIN_MS
        + (u01(hash3(key, class_tag(class), SALT_LATENCY)) * LATENCY_SPAN_MS as f64) as u64
}

/// Emits the alert instants of `(site, class)` under a campaign window
/// `[start_ms, end_ms)` that fall in the tick `(prev_ms, now_ms]`.
///
/// A site's first alert lags campaign start by its
/// [`detection_latency_ms`]; while the campaign stays active the
/// detector re-alerts every [`ALERT_COOLDOWN_MS`]. The schedule is a
/// pure function, so a million dormant sites cost nothing and any tick
/// can be evaluated without replaying the ticks before it.
fn alerts_in_tick(
    key: u64,
    class: &'static str,
    start_ms: u64,
    end_ms: u64,
    prev_ms: u64,
    now_ms: u64,
    mut emit: impl FnMut(u64),
) {
    let first = start_ms + detection_latency_ms(key, class);
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

/// Everything a shard needs to step one distribution tick, shared
/// read-only across the worker pool.
#[derive(Debug, Clone, Copy)]
pub struct ShadowRolloutCtx<'a> {
    /// Target firmware version being distributed.
    pub version: u32,
    /// Update id, part of the per-rollout verdict cache key.
    pub update_id: u32,
    /// The encoded bundle on the wire.
    pub encoded: &'a [u8],
    /// The old (genuinely signed) bundle a downgrade MITM substitutes.
    pub old_encoded: Option<&'a [u8]>,
    /// Trust store bundles are verified against.
    pub store: &'a TrustStore,
    /// CRLs the signer chain is checked against (empty outside
    /// incident-response revocation drills).
    pub crls: &'a [CertificateRevocationList],
    /// OTA chunk payload size, bytes.
    pub chunk_bytes: usize,
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
    /// Shared (batched) bundle verifications performed.
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

    /// Folds another output into this one.
    pub fn absorb(&mut self, other: &ShadowWaveOut) {
        self.applied += other.applied;
        self.rejected += other.rejected;
        for (a, b) in self.reject_reasons.iter_mut().zip(&other.reject_reasons) {
            *a += b;
        }
        self.bytes_on_air += other.bytes_on_air;
        self.frames_sent += other.frames_sent;
        self.batch_verify_calls += other.batch_verify_calls;
        self.batch_verified_sites += other.batch_verified_sites;
        self.individually_verified_sites += other.individually_verified_sites;
    }
}

/// A shared bundle verdict cached per shard per rollout: the
/// site-independent prefix of bundle verification, computed once and
/// reused for every untampered site in the shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CachedVerdict {
    update_id: u32,
    old_bundle: bool,
    /// `Ok(offered_version)` when the shared checks pass, else the
    /// reject code.
    shared: Result<u32, u8>,
}

/// Sentinel: no delivery in flight.
const NO_DELIVERY: u16 = u16::MAX;

/// One shard tick's scratch copy of a delivered bundle variant. Each
/// tampered site flips its corruption into it, verifies, and flips it
/// back, so a tick copies a bundle only when the variant changes (the
/// new bundle or the downgrade one), not once per site.
#[derive(Debug, Default)]
struct TamperBuffer {
    bytes: Vec<u8>,
    /// Which variant `bytes` holds; `None` until the first copy.
    old_bundle: Option<bool>,
}

impl TamperBuffer {
    /// The buffer holding `bundle`, the variant `old_bundle` names.
    fn holding(&mut self, old_bundle: bool, bundle: &[u8]) -> &mut [u8] {
        if self.old_bundle != Some(old_bundle) {
            self.bytes.clear();
            self.bytes.extend_from_slice(bundle);
            self.old_bundle = Some(old_bundle);
        }
        &mut self.bytes
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
    /// Commissioned session-key slot id (which backend session-key
    /// register the site's OTA channel uses).
    session_slot: Vec<u32>,
    /// Session epoch, bumped when an update applies (key rotation on
    /// new firmware).
    session_epoch: Vec<u16>,
    /// Saturating risk score, bumped per alert.
    risk_score: Vec<u16>,
    /// Saturating lifetime alert counter.
    alert_count: Vec<u16>,
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
    /// Per-rollout shared verdicts (at most one per distributed bundle
    /// variant).
    verdicts: Vec<CachedVerdict>,
    /// Alert calendars, one per detector class that could fire so far.
    calendars: Vec<AlertCalendar>,
    /// Fleet seed material for this shard's stateless draws.
    seed: u64,
}

impl ShadowShard {
    fn new(site_indices: Vec<u32>, seed: u64) -> Self {
        let n = site_indices.len();
        let mut link_q16 = Vec::with_capacity(n);
        let mut session_slot = Vec::with_capacity(n);
        for &site in &site_indices {
            let key = site_key(seed, site);
            let q = 0.55 + 0.4 * u01(hash3(key, SALT_LINK, 0));
            link_q16.push((q * f64::from(u16::MAX)) as u16);
            session_slot.push(hash3(key, SALT_SESSION, 0) as u32);
        }
        ShadowShard {
            installed_version: vec![1; n],
            link_q16,
            session_slot,
            session_epoch: vec![0; n],
            risk_score: vec![0; n],
            alert_count: vec![0; n],
            outcome: vec![OUTCOME_NONE; n],
            pending_chunks: vec![NO_DELIVERY; n],
            tampered: vec![false; n],
            old_bundle: vec![false; n],
            poisoned: Vec::new(),
            verdicts: Vec::new(),
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

    /// Session-key slot and epoch at `slot`.
    #[must_use]
    pub fn session(&self, slot: u32) -> (u32, u16) {
        (
            self.session_slot[slot as usize],
            self.session_epoch[slot as usize],
        )
    }

    /// Clears per-rollout state (outcomes, deliveries, verdict cache).
    pub fn reset_rollout(&mut self) {
        self.outcome.fill(OUTCOME_NONE);
        self.pending_chunks.fill(NO_DELIVERY);
        self.tampered.fill(false);
        self.old_bundle.fill(false);
        self.verdicts.clear();
    }

    /// Approximate resident bytes of this shard: its arrays, verdict
    /// cache and alert calendars.
    #[must_use]
    pub fn mem_bytes(&self) -> usize {
        self.site_index.capacity() * 4
            + self.installed_version.capacity() * 4
            + self.link_q16.capacity() * 2
            + self.session_slot.capacity() * 4
            + self.session_epoch.capacity() * 2
            + self.risk_score.capacity() * 2
            + self.alert_count.capacity() * 2
            + self.outcome.capacity()
            + self.pending_chunks.capacity() * 2
            + self.tampered.capacity()
            + self.old_bundle.capacity()
            + self.poisoned.capacity() * std::mem::size_of::<(u32, u64)>()
            + self.verdicts.capacity() * std::mem::size_of::<CachedVerdict>()
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
    /// wave range `[lo, hi)`. Cost is proportional to the members in
    /// range, not the shard size.
    pub fn rollout_tick(&mut self, lo: u32, hi: u32, ctx: &ShadowRolloutCtx<'_>) -> ShadowWaveOut {
        let mut out = ShadowWaveOut::default();
        let mut tamper_buffer = TamperBuffer::default();
        let from = self.site_index.partition_point(|&s| s < lo);
        let to = self.site_index.partition_point(|&s| s < hi);
        for slot in from..to {
            if self.outcome[slot] != OUTCOME_NONE {
                continue;
            }
            let site = self.site_index[slot];
            let key = site_key(self.seed, site);
            if self.pending_chunks[slot] == NO_DELIVERY {
                // Start the delivery: a downgrade MITM substitutes the
                // old but genuinely signed bundle on the wire.
                let old = ctx.downgrade && ctx.old_encoded.is_some();
                let len = if old {
                    ctx.old_encoded.map_or(0, <[u8]>::len)
                } else {
                    ctx.encoded.len()
                };
                self.pending_chunks[slot] = chunk_count(len, ctx.chunk_bytes) as u16;
                self.old_bundle[slot] = old;
                self.tampered[slot] = false;
            }
            let len = if self.old_bundle[slot] {
                ctx.old_encoded.map_or(0, <[u8]>::len)
            } else {
                ctx.encoded.len()
            };
            let total = chunk_count(len, ctx.chunk_bytes);
            let q = f64::from(self.link_q16[slot]) / f64::from(u16::MAX);
            let p_deliver = (q * (1.0 - 0.85 * ctx.jam)).clamp(0.02, 1.0);
            for attempt in 0..ctx.budget {
                let pending = self.pending_chunks[slot];
                if pending == 0 {
                    break;
                }
                // Chunks land in order; a lost chunk is retried on a
                // later attempt. The chunk on the air is therefore the
                // first undelivered one.
                let chunk = total - usize::from(pending);
                out.frames_sent += 1;
                out.bytes_on_air += chunk_wire_len(len, ctx.chunk_bytes, chunk);
                let draw = hash3(
                    key ^ SALT_CHUNK,
                    ctx.tick_index,
                    ((chunk as u64) << 16) | attempt as u64,
                );
                if u01(draw) < p_deliver {
                    self.pending_chunks[slot] = pending - 1;
                    if ctx.tamper {
                        // An active MITM corrupts chunks as they land.
                        self.tampered[slot] = true;
                    }
                }
            }
            if self.pending_chunks[slot] == 0 {
                self.pending_chunks[slot] = NO_DELIVERY;
                self.resolve(slot, key, ctx, &mut tamper_buffer, &mut out);
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
        tamper_buffer: &mut TamperBuffer,
        out: &mut ShadowWaveOut,
    ) {
        let old = self.old_bundle[slot];
        let bytes = if old {
            ctx.old_encoded.unwrap_or(ctx.encoded)
        } else {
            ctx.encoded
        };
        let verdict = if self.tampered[slot] {
            out.individually_verified_sites += 1;
            verify_tampered(tamper_buffer.holding(old, bytes), key, ctx)
        } else {
            out.batch_verified_sites += 1;
            self.shared_verdict(old, bytes, ctx, out)
        };
        let code = match verdict {
            Ok(version) => {
                // Only the per-site monotone version rule remains after
                // the shared prefix.
                if version > self.installed_version[slot] {
                    self.installed_version[slot] = version;
                    self.session_epoch[slot] = self.session_epoch[slot].saturating_add(1);
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

    /// The shared (site-independent) verdict for the distributed bundle
    /// variant, computed once per shard per rollout and cached. The one
    /// [`UpdateBundle::verify_shared`] call runs the Fiat–Shamir batch
    /// over bundle + image signatures — this is where per-site verifies
    /// collapse into one batched verification per shard.
    fn shared_verdict(
        &mut self,
        old_bundle: bool,
        bytes: &[u8],
        ctx: &ShadowRolloutCtx<'_>,
        out: &mut ShadowWaveOut,
    ) -> Result<u32, u8> {
        if let Some(cached) = self
            .verdicts
            .iter()
            .find(|v| v.update_id == ctx.update_id && v.old_bundle == old_bundle)
        {
            return cached.shared;
        }
        out.batch_verify_calls += 1;
        let shared = bundle_verdict(bytes, ctx);
        self.verdicts.push(CachedVerdict {
            update_id: ctx.update_id,
            old_bundle,
            shared,
        });
        shared
    }

    /// The alert calendar of `class`, built on first use: every slot's
    /// packed detection latency, sorted in place.
    fn calendar(&mut self, class: &'static str) -> &[u32] {
        let at = match self.calendars.iter().position(|c| c.class == class) {
            Some(at) => at,
            None => {
                let seed = self.seed;
                let mut packed: Vec<u32> = self
                    .site_index
                    .iter()
                    .enumerate()
                    .map(|(slot, &site)| {
                        let offset =
                            detection_latency_ms(site_key(seed, site), class) - LATENCY_MIN_MS;
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
    /// poisoned sites. Bumps the per-site alert and risk counters.
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
            .map(|&(slot, index, at_ms)| {
                let slot = slot as usize;
                self.alert_count[slot] = self.alert_count[slot].saturating_add(1);
                self.risk_score[slot] = self.risk_score[slot].saturating_add(16);
                ShadowAlert {
                    site: self.site_index[slot],
                    class: campaigns[index as usize].class,
                    at_ms,
                }
            })
            .collect();
        for &(slot, start_ms) in &self.poisoned {
            let site = self.site_index[slot as usize];
            let key = site_key(self.seed, site);
            for class in POISON_CLASSES {
                alerts_in_tick(
                    key,
                    class,
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
                        self.alert_count[slot as usize] =
                            self.alert_count[slot as usize].saturating_add(1);
                        self.risk_score[slot as usize] =
                            self.risk_score[slot as usize].saturating_add(16);
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
    match bundle.verify_shared_with_crls(ctx.store, ctx.now_ms, ctx.crls, crate::FLEET_COMPONENT) {
        Ok(()) => Ok(bundle.manifest.version),
        Err(e) => Err(reject_code(match e {
            BundleError::Chain(_) => "chain",
            other => other.reason(),
        })),
    }
}

/// XORs a tampered delivery's corruption into `bundle`: three
/// deterministic flips per chunk body, mirroring the full transport's
/// MITM. XOR undoes itself, so a second call restores the bytes.
fn flip_tampered_bytes(bundle: &mut [u8], key: u64, chunk_bytes: usize) {
    for chunk in 0..chunk_count(bundle.len(), chunk_bytes) {
        let start = chunk * chunk_bytes;
        let span = chunk_bytes.min(bundle.len() - start) as u64;
        if span == 0 {
            continue;
        }
        for flip in 0..3u64 {
            let at = start + (hash3(key ^ SALT_TAMPER, chunk as u64, flip) % span) as usize;
            bundle[at] ^= 0x41;
        }
    }
}

/// Verifies a tampered delivery individually, in place: flips the
/// site's corruption into `bundle` (the delivered bytes), runs the
/// complete verification on it and flips it back out. Per-site
/// corruption cannot share a verdict.
fn verify_tampered(bundle: &mut [u8], key: u64, ctx: &ShadowRolloutCtx<'_>) -> Result<u32, u8> {
    flip_tampered_bytes(bundle, key, ctx.chunk_bytes);
    let verdict = bundle_verdict(bundle, ctx);
    flip_tampered_bytes(bundle, key, ctx.chunk_bytes);
    verdict
}

// ---------------------------------------------------------------------
// The population: shards + deterministic sweep.
// ---------------------------------------------------------------------

/// The whole shadow population: shards, layout, and the sweep schedule
/// (parallel pool or sequential reference — both produce identical
/// merged output).
#[derive(Debug)]
pub struct ShadowPopulation {
    /// Index arithmetic for the two-fidelity split.
    pub layout: ShadowLayout,
    shards: Vec<ShadowShard>,
    sequential: bool,
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
        ShadowPopulation {
            layout,
            shards,
            sequential: config.sequential,
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

    /// Approximate resident bytes across every shard.
    #[must_use]
    pub fn mem_bytes(&self) -> usize {
        self.shards.iter().map(ShadowShard::mem_bytes).sum()
    }

    /// The part of [`ShadowPopulation::mem_bytes`] held by alert
    /// calendars.
    #[must_use]
    pub fn calendar_bytes(&self) -> usize {
        self.shards.iter().map(ShadowShard::calendar_bytes).sum()
    }

    /// Clears per-rollout state in every shard.
    pub fn reset_rollout(&mut self) {
        for shard in &mut self.shards {
            shard.reset_rollout();
        }
    }

    /// Steps every shard's distribution tick for the wave range
    /// `[lo, hi)` and returns the per-shard outputs in shard order —
    /// identical whether the shards ran on the sweep pool or
    /// sequentially.
    pub fn rollout_sweep(
        &mut self,
        lo: u32,
        hi: u32,
        ctx: &ShadowRolloutCtx<'_>,
    ) -> Vec<ShadowWaveOut> {
        if self.sequential {
            self.shards
                .iter_mut()
                .map(|s| s.rollout_tick(lo, hi, ctx))
                .collect()
        } else {
            par_sweep_mut(&mut self.shards, |_, s| s.rollout_tick(lo, hi, ctx))
        }
    }

    /// Steps every shard's alert tick and returns the merged alerts in
    /// shard order (order-preserving merge — the determinism anchor).
    pub fn alert_sweep(
        &mut self,
        campaigns: &[ShadowCampaign],
        prev_ms: u64,
        now_ms: u64,
    ) -> Vec<ShadowAlert> {
        let per_shard: Vec<Vec<ShadowAlert>> = if self.sequential {
            self.shards
                .iter_mut()
                .map(|s| s.alert_tick(campaigns, prev_ms, now_ms))
                .collect()
        } else {
            par_sweep_mut(&mut self.shards, |_, s| {
                s.alert_tick(campaigns, prev_ms, now_ms)
            })
        };
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

    #[test]
    fn alert_schedule_respects_window_latency_and_cooldown() {
        let key = site_key(9, 5);
        let mut fired = Vec::new();
        // Whole campaign in one evaluation window.
        alerts_in_tick(key, "deauth-flood", 10_000, 100_000, 0, 200_000, |t| {
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
            alerts_in_tick(key, "deauth-flood", 10_000, 100_000, prev, now, |t| {
                stepped.push(t);
            });
            prev = now;
        }
        assert_eq!(fired, stepped, "schedule must be evaluation-invariant");
    }

    /// Slot-by-slot evaluation of `alerts_in_tick` for every campaign,
    /// then the poisoned sites: the definition `alert_tick` must match.
    fn brute_force_alert_tick(
        shard: &mut ShadowShard,
        campaigns: &[ShadowCampaign],
        prev_ms: u64,
        now_ms: u64,
    ) -> Vec<ShadowAlert> {
        let mut fired = Vec::new();
        for slot in 0..shard.len() {
            let key = site_key(shard.seed, shard.site_index[slot]);
            for c in campaigns {
                alerts_in_tick(key, c.class, c.start_ms, c.end_ms, prev_ms, now_ms, |t| {
                    fired.push((slot, c.class, t));
                });
            }
        }
        for &(slot, start_ms) in &shard.poisoned {
            let key = site_key(shard.seed, shard.site_index[slot as usize]);
            for class in POISON_CLASSES {
                let end_ms = start_ms + POISON_DURATION_MS;
                alerts_in_tick(key, class, start_ms, end_ms, prev_ms, now_ms, |t| {
                    fired.push((slot as usize, class, t));
                });
            }
        }
        fired
            .into_iter()
            .map(|(slot, class, at_ms)| {
                shard.alert_count[slot] = shard.alert_count[slot].saturating_add(1);
                shard.risk_score[slot] = shard.risk_score[slot].saturating_add(16);
                ShadowAlert {
                    site: shard.site_index[slot],
                    class,
                    at_ms,
                }
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
                let latency = detection_latency_ms(site_key(EDGE_SEED, s), CLASSES[0]);
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
                            let latency = detection_latency_ms(site_key(seed, site), class);
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
                let want = brute_force_alert_tick(&mut slow, &campaigns, prev, now);
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
            assert_eq!(fast.alert_count, slow.alert_count, "case {case}");
            assert_eq!(fast.risk_score, slow.risk_score, "case {case}");
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
    /// fresh copy of the delivered bytes.
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
    fn copy_verdict(bytes: &[u8], key: u64, ctx: &ShadowRolloutCtx<'_>) -> Result<u32, u8> {
        bundle_verdict(&flipped_copy(bytes, key, ctx.chunk_bytes), ctx)
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

    fn rollout_ctx<'a>(
        new: &'a [u8],
        old: &'a [u8],
        store: &'a TrustStore,
        chunk_bytes: usize,
    ) -> ShadowRolloutCtx<'a> {
        ShadowRolloutCtx {
            version: 2,
            update_id: 2,
            encoded: new,
            old_encoded: Some(old),
            store,
            crls: &[],
            chunk_bytes,
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
        let mut verdicts = 0;
        for chunk_bytes in [1, 768, misfit, new.len() + 5] {
            let ctx = rollout_ctx(&new, &old, &store, chunk_bytes);
            let mut buffer = TamperBuffer::default();
            for site in 0..24u32 {
                let key = site_key(0xF1EE7, site);
                for (old_bundle, delivered) in [(false, &new), (true, &old)] {
                    let want = copy_verdict(delivered, key, &ctx);
                    let bytes = buffer.holding(old_bundle, delivered);
                    flip_tampered_bytes(bytes, key, chunk_bytes);
                    assert_eq!(*bytes, flipped_copy(delivered, key, chunk_bytes));
                    flip_tampered_bytes(bytes, key, chunk_bytes);
                    assert_eq!(verify_tampered(bytes, key, &ctx), want);
                    assert_eq!(*bytes, **delivered, "the buffer is restored");
                    verdicts += 1;
                }
            }
        }
        assert_eq!(verdicts, 4 * 24 * 2);
    }

    #[test]
    fn tamper_buffer_serves_both_variants_in_one_tick() {
        let (old, new, store) = two_bundles();
        let sites: Vec<u32> = (0..48).collect();
        let mut shard = ShadowShard::new(sites.clone(), 0xD0_96);
        // Tick 0: every other block of four sites starts receiving the
        // new bundle under tampering and cannot finish on one chunk.
        let mut ctx = rollout_ctx(&new, &old, &store, 768);
        for lo in (0..48).step_by(8) {
            let out = shard.rollout_tick(lo, lo + 4, &ctx);
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
        let out = shard.rollout_tick(0, 48, &ctx);
        assert_eq!(out.resolved(), 48, "every delivery completes");
        assert_eq!(out.individually_verified_sites, 48);
        assert_eq!(out.batch_verify_calls, 0);
        let mut variants = [0; 2];
        for (slot, &site) in sites.iter().enumerate() {
            assert_eq!(shard.old_bundle[slot], !started_new[slot]);
            let delivered = if started_new[slot] { &new } else { &old };
            let want = match copy_verdict(delivered, site_key(0xD0_96, site), &ctx) {
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
