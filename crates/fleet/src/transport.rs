//! Chunked OTA distribution over the simulated radio uplink.
//!
//! Each fleet site owns a dedicated point-to-point uplink (backend radio
//! ↔ site gateway) modelled by a private [`Medium`]. The encoded bundle
//! is split into fixed-size chunks, each chunk rides one data frame, and
//! lost frames are retransmitted until the gateway holds every chunk —
//! so jamming and path loss show up as rollout latency and wasted
//! airtime, never as corruption. Corruption is the *attack* case: an
//! in-window update-tampering campaign flips bytes in delivered chunks,
//! and the reassembled bundle then fails decode or signature
//! verification at the site.

use silvasec_comms::medium::InterfererId;
use silvasec_comms::{Frame, Medium, MediumConfig, NodeId};
use silvasec_crypto::sha256::Sha256;
use silvasec_sim::geom::Vec3;
use silvasec_sim::rng::SimRng;
use silvasec_sim::time::SimTime;
use std::collections::VecDeque;

/// Magic bytes identifying an OTA chunk frame.
const CHUNK_MAGIC: [u8; 2] = [0x0A, 0x7A];

/// Fixed header prepended to every chunk payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkHeader {
    /// Identifies the update this chunk belongs to.
    pub update_id: u32,
    /// Chunk index, `0..count`.
    pub index: u16,
    /// Total number of chunks in the update.
    pub count: u16,
}

impl ChunkHeader {
    /// Encoded header length in bytes.
    pub const LEN: usize = 10;

    /// Encodes the header followed by `data` into one frame payload.
    #[must_use]
    pub fn encode(self, data: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::LEN + data.len());
        out.extend_from_slice(&CHUNK_MAGIC);
        out.extend_from_slice(&self.update_id.to_le_bytes());
        out.extend_from_slice(&self.index.to_le_bytes());
        out.extend_from_slice(&self.count.to_le_bytes());
        out.extend_from_slice(data);
        out
    }

    /// Splits a frame payload into header and chunk data.
    #[must_use]
    pub fn decode(payload: &[u8]) -> Option<(ChunkHeader, &[u8])> {
        if payload.len() < Self::LEN || payload[..2] != CHUNK_MAGIC {
            return None;
        }
        let update_id = u32::from_le_bytes(payload[2..6].try_into().ok()?);
        let index = u16::from_le_bytes(payload[6..8].try_into().ok()?);
        let count = u16::from_le_bytes(payload[8..10].try_into().ok()?);
        Some((
            ChunkHeader {
                update_id,
                index,
                count,
            },
            &payload[Self::LEN..],
        ))
    }
}

/// Splits `bytes` into ready-to-transmit chunk payloads.
///
/// # Panics
///
/// Panics if `chunk_bytes` is zero or the input needs more than `u16::MAX`
/// chunks — both scenario-construction bugs, not runtime conditions.
#[must_use]
pub fn chunk_payloads(update_id: u32, bytes: &[u8], chunk_bytes: usize) -> Vec<Vec<u8>> {
    assert!(chunk_bytes > 0, "chunk size must be positive");
    let count = bytes.len().div_ceil(chunk_bytes).max(1);
    assert!(count <= usize::from(u16::MAX), "update too large to chunk");
    (0..count)
        .map(|i| {
            let start = i * chunk_bytes;
            let end = (start + chunk_bytes).min(bytes.len());
            ChunkHeader {
                update_id,
                index: i as u16,
                count: count as u16,
            }
            .encode(&bytes[start..end])
        })
        .collect()
}

/// Number of chunks a `len`-byte update splits into — the count
/// [`chunk_payloads`] would produce, without materializing the chunks.
///
/// # Panics
///
/// Panics if `chunk_bytes` is zero.
#[must_use]
pub fn chunk_count(len: usize, chunk_bytes: usize) -> usize {
    assert!(chunk_bytes > 0, "chunk size must be positive");
    len.div_ceil(chunk_bytes).max(1)
}

/// On-air wire bytes of chunk `index` of a `len`-byte update: frame
/// overhead + chunk header + the chunk body (the final chunk is usually
/// short). Matches `Frame::wire_len` of the frame [`Delivery`] would
/// send, so shadow-site airtime accounting agrees byte-for-byte with the
/// full simulation's.
#[must_use]
pub fn chunk_wire_len(len: usize, chunk_bytes: usize, index: usize) -> u64 {
    let start = (index * chunk_bytes).min(len);
    let body = chunk_bytes.min(len - start);
    (silvasec_comms::FRAME_OVERHEAD_BYTES + ChunkHeader::LEN + body) as u64
}

/// Collects received chunks back into the update byte stream.
#[derive(Debug)]
pub struct Reassembly {
    update_id: u32,
    slots: Vec<Option<Vec<u8>>>,
    received: usize,
}

impl Reassembly {
    /// Starts reassembly of `update_id` expecting `count` chunks.
    #[must_use]
    pub fn new(update_id: u32, count: u16) -> Self {
        Reassembly {
            update_id,
            slots: vec![None; usize::from(count.max(1))],
            received: 0,
        }
    }

    /// Accepts one received chunk; duplicates and foreign updates are
    /// ignored. Returns `true` when the chunk was new.
    pub fn accept(&mut self, header: ChunkHeader, data: &[u8]) -> bool {
        if header.update_id != self.update_id
            || usize::from(header.count) != self.slots.len()
            || usize::from(header.index) >= self.slots.len()
        {
            return false;
        }
        let slot = &mut self.slots[usize::from(header.index)];
        if slot.is_some() {
            return false;
        }
        *slot = Some(data.to_vec());
        self.received += 1;
        true
    }

    /// Whether every chunk has arrived.
    #[must_use]
    pub fn complete(&self) -> bool {
        self.received == self.slots.len()
    }

    /// Concatenates the chunks. Returns `None` until [`complete`].
    ///
    /// [`complete`]: Reassembly::complete
    #[must_use]
    pub fn assemble(&self) -> Option<Vec<u8>> {
        if !self.complete() {
            return None;
        }
        let mut out = Vec::new();
        for slot in &self.slots {
            out.extend_from_slice(slot.as_deref().unwrap_or_default());
        }
        Some(out)
    }

    /// SHA-256 of the reassembled stream, streamed chunk slot by chunk
    /// slot through an incremental hasher — the concatenated buffer is
    /// never materialized. Returns `None` until [`complete`].
    ///
    /// [`complete`]: Reassembly::complete
    #[must_use]
    pub fn content_digest(&self) -> Option<[u8; 32]> {
        if !self.complete() {
            return None;
        }
        let mut h = Sha256::new();
        for slot in &self.slots {
            h.update(slot.as_deref().unwrap_or_default());
        }
        Some(h.finalize())
    }
}

/// One site's dedicated backend↔gateway radio uplink.
#[derive(Debug)]
pub struct Uplink {
    medium: Medium,
    backend: NodeId,
    gateway: NodeId,
    jammer: Option<InterfererId>,
}

impl Uplink {
    /// Builds an uplink with the gateway `range_m` metres from the
    /// backend radio. Longer ranges mean thinner links and more
    /// retransmission under interference.
    #[must_use]
    pub fn new(range_m: f64, rng: SimRng) -> Self {
        let mut medium = Medium::new(MediumConfig::default(), rng);
        let backend = medium.add_node(Vec3::new(0.0, 0.0, 12.0));
        let gateway = medium.add_node(Vec3::new(range_m, 0.0, 6.0));
        medium.associate(backend);
        medium.associate(gateway);
        Uplink {
            medium,
            backend,
            gateway,
            jammer: None,
        }
    }

    /// Turns uplink jamming on or off. The interferer sits midway along
    /// the link; `power_dbm` scales with campaign intensity.
    pub fn set_jamming(&mut self, on: bool, power_dbm: f64) {
        match (on, self.jammer) {
            (true, None) => {
                let mid = self.medium.position(self.gateway).x / 2.0;
                self.jammer = Some(
                    self.medium
                        .add_interferer(Vec3::new(mid, 15.0, 3.0), power_dbm),
                );
            }
            (false, Some(id)) => {
                self.medium.remove_interferer(id);
                self.jammer = None;
            }
            _ => {}
        }
    }

    /// Transmits one chunk payload; returns `(delivered, bytes_on_air)`.
    pub fn send_chunk(&mut self, payload: Vec<u8>, seq: u64, now: SimTime) -> (bool, u64) {
        let frame = Frame::data(self.backend, self.gateway, payload).with_seq(seq);
        let bytes = frame.wire_len() as u64;
        let outcome = self.medium.transmit(self.backend, frame, now);
        (outcome.delivered, bytes)
    }

    /// Drains frame payloads delivered to the gateway.
    pub fn drain_gateway(&mut self) -> Vec<Vec<u8>> {
        self.medium
            .drain_inbox(self.gateway)
            .into_iter()
            .map(|rx| rx.frame.payload)
            .collect()
    }
}

/// An in-flight delivery of one encoded bundle to one site.
#[derive(Debug)]
pub struct Delivery {
    chunks: Vec<Vec<u8>>,
    pending: VecDeque<usize>,
    reassembly: Reassembly,
    tamper_rng: SimRng,
    seq: u64,
    sent_digest: [u8; 32],
    received_digest: Option<[u8; 32]>,
    /// Total bytes put on the air, retransmissions included.
    pub bytes_on_air: u64,
    /// Total frames transmitted.
    pub frames_sent: u64,
}

impl Delivery {
    /// Starts a delivery of the encoded bundle `bytes`.
    #[must_use]
    pub fn new(update_id: u32, bytes: &[u8], chunk_bytes: usize, tamper_rng: SimRng) -> Self {
        let chunks = chunk_payloads(update_id, bytes, chunk_bytes);
        let count = chunks.len() as u16;
        // Digest of the stream as sent, hashed incrementally off the
        // chunk bodies so the transfer integrity check shares bytes with
        // the chunking pass.
        let mut h = Sha256::new();
        for chunk in &chunks {
            h.update(&chunk[ChunkHeader::LEN..]);
        }
        Delivery {
            pending: (0..chunks.len()).collect(),
            chunks,
            reassembly: Reassembly::new(update_id, count),
            tamper_rng,
            seq: 0,
            sent_digest: h.finalize(),
            received_digest: None,
            bytes_on_air: 0,
            frames_sent: 0,
        }
    }

    /// Runs one distribution tick: transmits up to `budget` pending
    /// chunks over `uplink`, requeues losses, ingests deliveries (with
    /// in-transit corruption while `tamper` is set), and returns the
    /// reassembled bytes once the gateway holds every chunk.
    pub fn step(
        &mut self,
        uplink: &mut Uplink,
        budget: usize,
        tamper: bool,
        now: SimTime,
    ) -> Option<Vec<u8>> {
        for _ in 0..budget {
            let Some(index) = self.pending.pop_front() else {
                break;
            };
            let (delivered, bytes) = uplink.send_chunk(self.chunks[index].clone(), self.seq, now);
            self.seq += 1;
            self.frames_sent += 1;
            self.bytes_on_air += bytes;
            if !delivered {
                self.pending.push_back(index);
            }
        }
        for mut payload in uplink.drain_gateway() {
            if tamper && payload.len() > ChunkHeader::LEN {
                // Man-in-the-middle: flip a few bytes of the chunk body.
                for _ in 0..3 {
                    let span = (payload.len() - ChunkHeader::LEN) as u64;
                    let at = ChunkHeader::LEN + self.tamper_rng.below(span) as usize;
                    payload[at] ^= 0x41;
                }
            }
            if let Some((header, data)) = ChunkHeader::decode(&payload) {
                self.reassembly.accept(header, data);
            }
        }
        let assembled = self.reassembly.assemble();
        if assembled.is_some() && self.received_digest.is_none() {
            self.received_digest = self.reassembly.content_digest();
        }
        assembled
    }

    /// Whether the stream arrived byte-identical to what the backend
    /// sent, judged by comparing the streaming transfer digests. `None`
    /// until the transfer completes. Purely observational — corruption
    /// is still caught (and attributed) by bundle decode/signature
    /// verification at the site.
    #[must_use]
    pub fn transfer_intact(&self) -> Option<bool> {
        self.received_digest.map(|d| d == self.sent_digest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_roundtrip() {
        let data: Vec<u8> = (0u16..2000).map(|i| (i % 251) as u8).collect();
        let chunks = chunk_payloads(7, &data, 256);
        assert_eq!(chunks.len(), 8);
        let mut reassembly = Reassembly::new(7, 8);
        // Deliver out of order with a duplicate.
        for payload in chunks.iter().rev().chain(chunks.first()) {
            let (header, body) = ChunkHeader::decode(payload).unwrap();
            reassembly.accept(header, body);
        }
        assert_eq!(reassembly.assemble().unwrap(), data);
    }

    #[test]
    fn chunk_accounting_matches_materialized_chunks() {
        for (len, chunk_bytes) in [(0usize, 64usize), (1, 64), (64, 64), (65, 64), (2000, 256)] {
            let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let chunks = chunk_payloads(7, &data, chunk_bytes);
            assert_eq!(chunk_count(len, chunk_bytes), chunks.len(), "len={len}");
            for (i, chunk) in chunks.iter().enumerate() {
                let frame = Frame::data(NodeId(0), NodeId(1), chunk.clone());
                assert_eq!(
                    chunk_wire_len(len, chunk_bytes, i),
                    frame.wire_len() as u64,
                    "len={len} chunk={i}"
                );
            }
        }
    }

    #[test]
    fn empty_input_still_chunks() {
        let chunks = chunk_payloads(1, &[], 64);
        assert_eq!(chunks.len(), 1);
        let (header, body) = ChunkHeader::decode(&chunks[0]).unwrap();
        assert_eq!(header.count, 1);
        assert!(body.is_empty());
    }

    #[test]
    fn foreign_and_garbage_chunks_ignored() {
        let mut reassembly = Reassembly::new(3, 2);
        assert!(ChunkHeader::decode(b"short").is_none());
        assert!(ChunkHeader::decode(&[0u8; 32]).is_none());
        let other = ChunkHeader {
            update_id: 9,
            index: 0,
            count: 2,
        };
        assert!(!reassembly.accept(other, b"x"));
        let bad_count = ChunkHeader {
            update_id: 3,
            index: 0,
            count: 5,
        };
        assert!(!reassembly.accept(bad_count, b"x"));
        assert!(!reassembly.complete());
    }

    #[test]
    fn delivery_completes_over_clean_uplink() {
        let rng = SimRng::from_seed(11);
        let mut uplink = Uplink::new(120.0, rng.fork("uplink"));
        let data: Vec<u8> = (0u16..4096).map(|i| (i % 256) as u8).collect();
        let mut delivery = Delivery::new(1, &data, 512, rng.fork("tamper"));
        let mut now = SimTime::ZERO;
        assert_eq!(delivery.transfer_intact(), None);
        for _ in 0..200 {
            if let Some(got) = delivery.step(&mut uplink, 8, false, now) {
                assert_eq!(got, data);
                assert!(delivery.frames_sent >= 8);
                assert!(delivery.bytes_on_air > data.len() as u64);
                assert_eq!(delivery.transfer_intact(), Some(true));
                return;
            }
            now += silvasec_sim::time::SimDuration::from_millis(500);
        }
        panic!("delivery did not complete");
    }

    #[test]
    fn tampered_delivery_corrupts_payload() {
        let rng = SimRng::from_seed(12);
        let mut uplink = Uplink::new(120.0, rng.fork("uplink"));
        let data = vec![0u8; 4096];
        let mut delivery = Delivery::new(1, &data, 512, rng.fork("tamper"));
        let mut now = SimTime::ZERO;
        for _ in 0..200 {
            if let Some(got) = delivery.step(&mut uplink, 8, true, now) {
                assert_eq!(got.len(), data.len());
                assert_ne!(got, data, "tampering must corrupt the stream");
                assert_eq!(delivery.transfer_intact(), Some(false));
                return;
            }
            now += silvasec_sim::time::SimDuration::from_millis(500);
        }
        panic!("delivery did not complete");
    }
}
