//! A deterministic random bit generator built on ChaCha20.
//!
//! The whole SilvaSec simulation is seeded and reproducible; this DRBG is
//! the only source of "randomness" the security substrates use (key
//! generation, nonces, attack schedules). It is *deterministic by design* —
//! a production system would seed it from hardware entropy.
//!
//! The stream is ChaCha20 block 0 under the 64-bit nonces 0, 1, 2, …
//! (little-endian in nonce bytes 0..8, bytes 8..12 zero). A refill
//! generates [`WIDE_BLOCKS`] of those blocks (512 B) at once through the
//! record layer's interleaved 4-lane core, stepping the nonce across the
//! lanes, and draws copy whole slices out of the buffer. The bytes are
//! the ones the one-block generator this replaced produced; the
//! `drbg_matches_one_block_reference` proptest holds every operation,
//! fork included, to that frozen generator.

use crate::chacha20::{ChaCha20, BLOCK_LEN, WIDE_BLOCKS};
use crate::sha256;

/// Bytes one refill produces.
const REFILL_LEN: usize = WIDE_BLOCKS * BLOCK_LEN;

/// A ChaCha20-based deterministic random bit generator.
///
/// # Example
///
/// ```
/// use silvasec_crypto::drbg::ChaChaDrbg;
///
/// let mut rng = ChaChaDrbg::from_seed(b"worksite-7");
/// let a = rng.next_u64();
/// let mut rng2 = ChaChaDrbg::from_seed(b"worksite-7");
/// assert_eq!(a, rng2.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct ChaChaDrbg {
    cipher: ChaCha20,
    /// Nonce of the first block the next refill generates.
    next_block: u64,
    buf: [u8; REFILL_LEN],
    buf_pos: usize,
}

impl ChaChaDrbg {
    /// Creates a DRBG from arbitrary seed material (hashed to a key).
    #[must_use]
    pub fn from_seed(seed: &[u8]) -> Self {
        let key = sha256::digest(seed);
        ChaChaDrbg {
            cipher: ChaCha20::new(&key),
            next_block: 0,
            buf: [0; REFILL_LEN],
            buf_pos: REFILL_LEN,
        }
    }

    /// Derives an independent child generator labelled by `label`.
    ///
    /// Children with different labels produce independent streams; the
    /// parent's state is unaffected.
    ///
    /// Short labels (all the simulation's subsystem labels) are hashed
    /// through a stack buffer so forking is allocation-free — the
    /// episode-reset fast path forks a dozen streams per episode and
    /// must stay at zero allocations. The hashed bytes are identical to
    /// the original heap-built layout, so every fork stream is unchanged.
    #[must_use]
    pub fn fork(&self, label: &[u8]) -> Self {
        const PREFIX: usize = 8 + 6; // counter ‖ b"/fork/"
        const STACK_LABEL_MAX: usize = 42;
        // Mix in a block of our keystream so forks of forks differ.
        let counter = self.blocks_started();
        let mut nonce = [0u8; 12];
        nonce[..8].copy_from_slice(&counter.to_le_bytes());
        let block = self.cipher.block(&nonce, u32::MAX);
        if label.len() <= STACK_LABEL_MAX {
            let mut seed = [0u8; PREFIX + STACK_LABEL_MAX + BLOCK_LEN];
            seed[..8].copy_from_slice(&counter.to_le_bytes());
            seed[8..PREFIX].copy_from_slice(b"/fork/");
            seed[PREFIX..PREFIX + label.len()].copy_from_slice(label);
            let end = PREFIX + label.len() + BLOCK_LEN;
            seed[PREFIX + label.len()..end].copy_from_slice(&block);
            ChaChaDrbg::from_seed(&seed[..end])
        } else {
            let mut seed = Vec::with_capacity(PREFIX + label.len() + BLOCK_LEN);
            seed.extend_from_slice(&counter.to_le_bytes());
            seed.extend_from_slice(b"/fork/");
            seed.extend_from_slice(label);
            seed.extend_from_slice(&block);
            ChaChaDrbg::from_seed(&seed)
        }
    }

    /// Blocks whose first byte has been drawn: the blocks refilled so far
    /// less the buffered ones not yet begun. It is the counter the
    /// one-block generator held at the same point of the stream, and
    /// [`ChaChaDrbg::fork`] mixes it in, so every fork stays unchanged.
    fn blocks_started(&self) -> u64 {
        let unstarted = (REFILL_LEN - self.buf_pos) / BLOCK_LEN;
        self.next_block.wrapping_sub(unstarted as u64)
    }

    fn refill(&mut self) {
        self.cipher
            .nonce_stepped_blocks(self.next_block, &mut self.buf);
        self.next_block = self.next_block.wrapping_add(WIDE_BLOCKS as u64);
        self.buf_pos = 0;
    }

    /// Fills `out` with pseudorandom bytes.
    pub fn fill_bytes(&mut self, out: &mut [u8]) {
        let mut filled = 0;
        while filled < out.len() {
            if self.buf_pos == REFILL_LEN {
                self.refill();
            }
            let n = (out.len() - filled).min(REFILL_LEN - self.buf_pos);
            out[filled..filled + n].copy_from_slice(&self.buf[self.buf_pos..self.buf_pos + n]);
            self.buf_pos += n;
            filled += n;
        }
    }

    /// Returns the next pseudorandom `u64`.
    ///
    /// Inlinable across crates: it is the simulation's hottest draw, and
    /// outside a refill it is a bounds check and an 8-byte copy.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        if self.buf_pos == REFILL_LEN {
            self.refill();
        }
        let mut b = [0u8; 8];
        match self.buf.get(self.buf_pos..self.buf_pos + 8) {
            Some(bytes) => {
                b.copy_from_slice(bytes);
                self.buf_pos += 8;
            }
            None => self.fill_bytes(&mut b),
        }
        u64::from_le_bytes(b)
    }

    /// Returns a pseudorandom value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_bounded(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Rejection sampling to avoid modulo bias.
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }

    /// Returns a pseudorandom `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Returns a fresh 32-byte key/seed.
    pub fn next_seed(&mut self) -> [u8; 32] {
        let mut out = [0u8; 32];
        self.fill_bytes(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = ChaChaDrbg::from_seed(b"seed");
        let mut b = ChaChaDrbg::from_seed(b"seed");
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = ChaChaDrbg::from_seed(b"seed-a");
        let mut b = ChaChaDrbg::from_seed(b"seed-b");
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn forks_are_independent_and_deterministic() {
        let parent = ChaChaDrbg::from_seed(b"root");
        let mut c1 = parent.fork(b"comms");
        let mut c2 = parent.fork(b"attack");
        let mut c1_again = parent.fork(b"comms");
        assert_ne!(c1.next_u64(), c2.next_u64());
        assert_eq!(c1_again.next_u64(), {
            let mut c = parent.fork(b"comms");
            c.next_u64()
        });
    }

    #[test]
    fn bounded_stays_in_range() {
        let mut rng = ChaChaDrbg::from_seed(b"range");
        for bound in [1u64, 2, 3, 10, 1000, u64::MAX / 2 + 1] {
            for _ in 0..200 {
                assert!(rng.next_bounded(bound) < bound);
            }
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = ChaChaDrbg::from_seed(b"f");
        let mut sum = 0.0;
        for _ in 0..1000 {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        // Mean should be near 0.5 for a uniform stream.
        let mean = sum / 1000.0;
        assert!((0.45..0.55).contains(&mean), "mean {mean}");
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn zero_bound_panics() {
        ChaChaDrbg::from_seed(b"x").next_bounded(0);
    }

    #[test]
    fn refills_carry_the_nonce_into_word_14() {
        // Start three blocks before nonce word 13 wraps: the first
        // refill's lanes 3..8 and all of the second need the carry.
        let start = (1u64 << 32) - 3;
        let mut rng = ChaChaDrbg::from_seed(b"carry");
        rng.next_block = start;
        let cipher = rng.cipher.clone();
        let mut drawn = [0u8; 2 * REFILL_LEN];
        rng.fill_bytes(&mut drawn);
        for (i, block) in drawn.chunks_exact(BLOCK_LEN).enumerate() {
            let mut nonce = [0u8; 12];
            nonce[..8].copy_from_slice(&(start + i as u64).to_le_bytes());
            assert_eq!(block, cipher.block(&nonce, 0), "block {i}");
        }
        assert_eq!(rng.blocks_started(), start + 16);
    }

    #[test]
    fn fill_bytes_across_block_boundaries() {
        let mut a = ChaChaDrbg::from_seed(b"blocks");
        let mut big = [0u8; 200];
        a.fill_bytes(&mut big);

        let mut b = ChaChaDrbg::from_seed(b"blocks");
        let mut parts = [0u8; 200];
        let (p1, rest) = parts.split_at_mut(63);
        let (p2, p3) = rest.split_at_mut(65);
        b.fill_bytes(p1);
        b.fill_bytes(p2);
        b.fill_bytes(p3);
        assert_eq!(big.to_vec(), parts.to_vec());
    }
}
