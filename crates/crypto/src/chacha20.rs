//! The ChaCha20 stream cipher (RFC 7539).
//!
//! Two keystream paths live here, mirroring the oracle discipline the
//! asymmetric side established for scalar multiplication:
//!
//! * the **fast path** ([`ChaCha20::apply_keystream_inplace`]) builds
//!   the 16-word key/nonce state once per call and then generates
//!   [`WIDE_BLOCKS`] keystream blocks per core invocation: each state
//!   word is held as a 4-lane `[u32; 4]` so the lane loops compile to
//!   vector adds/xors/rotates, two independent 4-lane quarter-round
//!   chains are interleaved statement by statement to cover the rotate
//!   latency, and the block counter is incremented in-register across
//!   the lanes;
//! * the **naive reference oracle** ([`ChaCha20::apply_keystream_naive`])
//!   is the original one-block-at-a-time code, kept frozen and
//!   unoptimized so the fast path always has an independent
//!   implementation to be cross-checked against (the RFC vectors and the
//!   `keystream_wide_path_matches_naive` proptest compare the two).
//!
//! Both paths are bit-identical by contract; the fast path must never be
//! "validated" against itself.
//!
//! The same wide core also refills [`crate::drbg::ChaChaDrbg`], which
//! steps the 64-bit nonce rather than the block counter: the lane
//! set-up is the only thing that differs, so the record layer and the
//! DRBG share one round core.

/// Key length in bytes.
pub const KEY_LEN: usize = 32;
/// Nonce length in bytes.
pub const NONCE_LEN: usize = 12;
/// Keystream block length in bytes.
pub const BLOCK_LEN: usize = 64;
/// Keystream blocks produced per fast-path core invocation.
pub const WIDE_BLOCKS: usize = 8;

/// The ChaCha20 stream cipher keyed with a 256-bit key.
///
/// Encryption and decryption are the same operation (XOR with the
/// keystream).
///
/// # Example
///
/// ```
/// use silvasec_crypto::chacha20::ChaCha20;
///
/// let cipher = ChaCha20::new(&[0x42; 32]);
/// let mut data = *b"drone waypoint update";
/// cipher.apply_keystream(&[0; 12], 1, &mut data);
/// cipher.apply_keystream(&[0; 12], 1, &mut data);
/// assert_eq!(&data, b"drone waypoint update");
/// ```
#[derive(Debug, Clone)]
pub struct ChaCha20 {
    key_words: [u32; 8],
}

const SIGMA: [u32; 4] = [0x61707865, 0x3320646e, 0x79622d32, 0x6b206574];

#[inline]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// One 4-block lane group: element `l` belongs to keystream block
/// `counter + l` within the group.
type Lanes = [u32; 4];

#[inline(always)]
fn vadd(a: Lanes, b: Lanes) -> Lanes {
    let mut r = [0u32; 4];
    for l in 0..4 {
        r[l] = a[l].wrapping_add(b[l]);
    }
    r
}

#[inline(always)]
fn vxor(a: Lanes, b: Lanes) -> Lanes {
    let mut r = [0u32; 4];
    for l in 0..4 {
        r[l] = a[l] ^ b[l];
    }
    r
}

#[inline(always)]
fn vrol<const N: u32>(a: Lanes) -> Lanes {
    let mut r = [0u32; 4];
    for l in 0..4 {
        r[l] = a[l].rotate_left(N);
    }
    r
}

/// Two independent 4-lane quarter-rounds, interleaved statement by
/// statement: the second chain's instructions fill the rotate/add
/// latency bubbles of the first, which is where the fast path's
/// throughput margin over one chain comes from.
macro_rules! quarter_round_pair {
    ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident) => {
        $a = vadd($a, $b);
        $e = vadd($e, $f);
        $d = vrol::<16>(vxor($d, $a));
        $h = vrol::<16>(vxor($h, $e));
        $c = vadd($c, $d);
        $g = vadd($g, $h);
        $b = vrol::<12>(vxor($b, $c));
        $f = vrol::<12>(vxor($f, $g));
        $a = vadd($a, $b);
        $e = vadd($e, $f);
        $d = vrol::<8>(vxor($d, $a));
        $h = vrol::<8>(vxor($h, $e));
        $c = vadd($c, $d);
        $g = vadd($g, $h);
        $b = vrol::<7>(vxor($b, $c));
        $f = vrol::<7>(vxor($f, $g));
    };
}

/// 4x4 transpose of four lane-vectors: output `i` holds element `i` of
/// each input, so per-block keystream words become contiguous.
#[inline(always)]
fn transpose4(r0: Lanes, r1: Lanes, r2: Lanes, r3: Lanes) -> (Lanes, Lanes, Lanes, Lanes) {
    (
        [r0[0], r1[0], r2[0], r3[0]],
        [r0[1], r1[1], r2[1], r3[1]],
        [r0[2], r1[2], r2[2], r3[2]],
        [r0[3], r1[3], r2[3], r3[3]],
    )
}

/// Adds the feedforward, transposes lane-major keystream words into
/// block-major order, and XORs them into four contiguous 64-byte
/// blocks. The fixed-size chunk lets the compiler drop every bounds
/// check, which this loop is hot enough to care about.
#[inline(always)]
fn xor_lane_group(fin: &[Lanes; 16], init: &[Lanes; 16], chunk: &mut [u8; 4 * BLOCK_LEN]) {
    let mut ks = [[0u32; 4]; 16];
    for i in 0..16 {
        ks[i] = vadd(fin[i], init[i]);
    }
    // rows[l * 4 + g] = keystream words 4g..4g+4 of block l
    let mut rows = [[0u32; 4]; 16];
    for g in 0..4 {
        let (t0, t1, t2, t3) = transpose4(ks[4 * g], ks[4 * g + 1], ks[4 * g + 2], ks[4 * g + 3]);
        rows[g] = t0;
        rows[4 + g] = t1;
        rows[8 + g] = t2;
        rows[12 + g] = t3;
    }
    for (r, row) in rows.iter().enumerate() {
        for (l, k) in row.iter().enumerate() {
            let p = r * 16 + 4 * l;
            let w = u32::from_le_bytes([chunk[p], chunk[p + 1], chunk[p + 2], chunk[p + 3]]);
            chunk[p..p + 4].copy_from_slice(&(w ^ k).to_le_bytes());
        }
    }
}

/// What varies across the [`WIDE_BLOCKS`] blocks of one core call; every
/// other state word comes from the key/nonce template.
#[derive(Clone, Copy)]
enum LaneStep {
    /// RFC 7539 keystream: block `l` sets the 32-bit block counter
    /// (word 12) to `counter + l`.
    Counter(u32),
    /// The DRBG's stream: block `l` sets the 64-bit nonce in words 13–14
    /// (little-endian, low word first) to `nonce + l`, carry included.
    Nonce(u64),
}

impl LaneStep {
    /// State words 12, 13 and 14 of block `l`.
    #[inline(always)]
    fn words(self, template: &[u32; 16], l: usize) -> (u32, u32, u32) {
        match self {
            LaneStep::Counter(counter) => {
                (counter.wrapping_add(l as u32), template[13], template[14])
            }
            LaneStep::Nonce(nonce) => {
                let n = nonce.wrapping_add(l as u64);
                (template[12], n as u32, (n >> 32) as u32)
            }
        }
    }
}

/// The fast-path core: generates [`WIDE_BLOCKS`] keystream blocks from
/// a precomputed key/nonce state and XORs them into `chunk`. `step`
/// places each block: lane `l` of chain a is block `l` and lane `l` of
/// chain b is block `4 + l`. The per-block words never round-trip
/// through memory — they are seeded into the lanes directly.
#[allow(clippy::too_many_lines)]
fn xor_wide_blocks(
    template: &[u32; 16],
    step: LaneStep,
    chunk: &mut [u8; WIDE_BLOCKS * BLOCK_LEN],
) {
    let splat = |w: u32| [w; 4];
    let (mut a0, mut a1, mut a2, mut a3) = (
        splat(template[0]),
        splat(template[1]),
        splat(template[2]),
        splat(template[3]),
    );
    let (mut a4, mut a5, mut a6, mut a7) = (
        splat(template[4]),
        splat(template[5]),
        splat(template[6]),
        splat(template[7]),
    );
    let (mut a8, mut a9, mut a10, mut a11) = (
        splat(template[8]),
        splat(template[9]),
        splat(template[10]),
        splat(template[11]),
    );
    let (mut a12, mut a13, mut a14) = ([0u32; 4], [0u32; 4], [0u32; 4]);
    let (mut b12, mut b13, mut b14) = ([0u32; 4], [0u32; 4], [0u32; 4]);
    for l in 0..4 {
        (a12[l], a13[l], a14[l]) = step.words(template, l);
        (b12[l], b13[l], b14[l]) = step.words(template, 4 + l);
    }
    let mut a15 = splat(template[15]);
    let (mut b0, mut b1, mut b2, mut b3) = (a0, a1, a2, a3);
    let (mut b4, mut b5, mut b6, mut b7) = (a4, a5, a6, a7);
    let (mut b8, mut b9, mut b10, mut b11) = (a8, a9, a10, a11);
    let mut b15 = a15;
    let init_a = [
        a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13, a14, a15,
    ];
    let init_b = [
        b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15,
    ];
    for _ in 0..10 {
        quarter_round_pair!(a0, a4, a8, a12, b0, b4, b8, b12);
        quarter_round_pair!(a1, a5, a9, a13, b1, b5, b9, b13);
        quarter_round_pair!(a2, a6, a10, a14, b2, b6, b10, b14);
        quarter_round_pair!(a3, a7, a11, a15, b3, b7, b11, b15);
        quarter_round_pair!(a0, a5, a10, a15, b0, b5, b10, b15);
        quarter_round_pair!(a1, a6, a11, a12, b1, b6, b11, b12);
        quarter_round_pair!(a2, a7, a8, a13, b2, b7, b8, b13);
        quarter_round_pair!(a3, a4, a9, a14, b3, b4, b9, b14);
    }
    let fin_a = [
        a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13, a14, a15,
    ];
    let fin_b = [
        b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15,
    ];
    let (lo, hi) = chunk.split_at_mut(4 * BLOCK_LEN);
    xor_lane_group(&fin_a, &init_a, lo.try_into().expect("split is exact"));
    xor_lane_group(&fin_b, &init_b, hi.try_into().expect("split is exact"));
}

impl ChaCha20 {
    /// Creates a cipher instance from a 32-byte key.
    #[must_use]
    pub fn new(key: &[u8; KEY_LEN]) -> Self {
        let mut key_words = [0u32; 8];
        for (i, chunk) in key.chunks_exact(4).enumerate() {
            key_words[i] = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        ChaCha20 { key_words }
    }

    /// The 16-word initial state for `nonce` with the counter slot left
    /// at zero — precomputed once per keystream call so the per-block
    /// work is rounds only.
    #[inline]
    fn state_template(&self, nonce: &[u8; NONCE_LEN]) -> [u32; 16] {
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&SIGMA);
        state[4..12].copy_from_slice(&self.key_words);
        state[13] = u32::from_le_bytes([nonce[0], nonce[1], nonce[2], nonce[3]]);
        state[14] = u32::from_le_bytes([nonce[4], nonce[5], nonce[6], nonce[7]]);
        state[15] = u32::from_le_bytes([nonce[8], nonce[9], nonce[10], nonce[11]]);
        state
    }

    /// Produces the 64-byte keystream block for (`nonce`, `counter`).
    ///
    /// Part of the frozen naive oracle: one block per call, scalar
    /// rounds. The AEAD layer also uses it directly for the one-time
    /// Poly1305 key (a single block, where the wide path buys nothing).
    #[must_use]
    pub fn block(&self, nonce: &[u8; NONCE_LEN], counter: u32) -> [u8; BLOCK_LEN] {
        let mut state = self.state_template(nonce);
        state[12] = counter;

        let mut working = state;
        for _ in 0..10 {
            quarter_round(&mut working, 0, 4, 8, 12);
            quarter_round(&mut working, 1, 5, 9, 13);
            quarter_round(&mut working, 2, 6, 10, 14);
            quarter_round(&mut working, 3, 7, 11, 15);
            quarter_round(&mut working, 0, 5, 10, 15);
            quarter_round(&mut working, 1, 6, 11, 12);
            quarter_round(&mut working, 2, 7, 8, 13);
            quarter_round(&mut working, 3, 4, 9, 14);
        }
        let mut out = [0u8; BLOCK_LEN];
        for i in 0..16 {
            let word = working[i].wrapping_add(state[i]);
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    /// Writes the [`WIDE_BLOCKS`] blocks at block counter 0 under the
    /// 64-bit nonces `nonce .. nonce + WIDE_BLOCKS` into `out`. Block `l`
    /// equals [`ChaCha20::block`] for the 12-byte nonce whose first eight
    /// bytes are `(nonce + l).to_le_bytes()` and whose last four are zero,
    /// so a step from nonce word 13 into word 14 carries.
    pub(crate) fn nonce_stepped_blocks(&self, nonce: u64, out: &mut [u8; WIDE_BLOCKS * BLOCK_LEN]) {
        out.fill(0);
        xor_wide_blocks(
            &self.state_template(&[0; NONCE_LEN]),
            LaneStep::Nonce(nonce),
            out,
        );
    }

    /// XORs the keystream starting at block `initial_counter` into `data`.
    ///
    /// Delegates to the multi-block fast path
    /// ([`apply_keystream_inplace`]); the original per-block code
    /// survives as [`apply_keystream_naive`].
    ///
    /// # Panics
    ///
    /// Panics if the block counter would wrap past `u32::MAX` (more than
    /// ~256 GiB under one nonce — a misuse in this codebase).
    ///
    /// [`apply_keystream_inplace`]: ChaCha20::apply_keystream_inplace
    /// [`apply_keystream_naive`]: ChaCha20::apply_keystream_naive
    pub fn apply_keystream(&self, nonce: &[u8; NONCE_LEN], initial_counter: u32, data: &mut [u8]) {
        self.apply_keystream_inplace(nonce, initial_counter, data);
    }

    /// Fast path: XORs the keystream into `data` in place, generating
    /// [`WIDE_BLOCKS`] blocks per core call from a precomputed key/nonce
    /// state. Bit-identical to [`apply_keystream_naive`] — the
    /// `keystream_wide_path_matches_naive` proptest holds it to that.
    ///
    /// # Panics
    ///
    /// Panics if the block counter would wrap past `u32::MAX`, matching
    /// the naive oracle's misuse guard.
    ///
    /// [`apply_keystream_naive`]: ChaCha20::apply_keystream_naive
    pub fn apply_keystream_inplace(
        &self,
        nonce: &[u8; NONCE_LEN],
        initial_counter: u32,
        data: &mut [u8],
    ) {
        let blocks = data.len().div_ceil(BLOCK_LEN) as u64;
        assert!(
            u64::from(initial_counter) + blocks <= u64::from(u32::MAX),
            "chacha20 block counter overflow"
        );
        let template = self.state_template(nonce);
        let mut counter = initial_counter;
        let mut chunks = data.chunks_exact_mut(WIDE_BLOCKS * BLOCK_LEN);
        for chunk in &mut chunks {
            xor_wide_blocks(
                &template,
                LaneStep::Counter(counter),
                chunk.try_into().expect("chunks_exact yields exact chunks"),
            );
            counter = counter.wrapping_add(WIDE_BLOCKS as u32);
        }
        for chunk in chunks.into_remainder().chunks_mut(BLOCK_LEN) {
            let mut state = template;
            state[12] = counter;
            let mut working = state;
            for _ in 0..10 {
                quarter_round(&mut working, 0, 4, 8, 12);
                quarter_round(&mut working, 1, 5, 9, 13);
                quarter_round(&mut working, 2, 6, 10, 14);
                quarter_round(&mut working, 3, 7, 11, 15);
                quarter_round(&mut working, 0, 5, 10, 15);
                quarter_round(&mut working, 1, 6, 11, 12);
                quarter_round(&mut working, 2, 7, 8, 13);
                quarter_round(&mut working, 3, 4, 9, 14);
            }
            let mut ks = [0u8; BLOCK_LEN];
            for i in 0..16 {
                let word = working[i].wrapping_add(state[i]);
                ks[4 * i..4 * i + 4].copy_from_slice(&word.to_le_bytes());
            }
            for (b, k) in chunk.iter_mut().zip(ks.iter()) {
                *b ^= k;
            }
            counter = counter.wrapping_add(1);
        }
    }

    /// Frozen naive reference oracle: the original one-block-at-a-time
    /// keystream application. Deliberately unoptimized — it exists so
    /// the fast path has an independent implementation to be verified
    /// against, and it must never be "sped up" to track the fast path.
    ///
    /// # Panics
    ///
    /// Panics if the block counter would wrap past `u32::MAX`.
    pub fn apply_keystream_naive(
        &self,
        nonce: &[u8; NONCE_LEN],
        initial_counter: u32,
        data: &mut [u8],
    ) {
        let mut counter = initial_counter;
        for chunk in data.chunks_mut(BLOCK_LEN) {
            let ks = self.block(nonce, counter);
            for (b, k) in chunk.iter_mut().zip(ks.iter()) {
                *b ^= k;
            }
            counter = counter
                .checked_add(1)
                .expect("chacha20 block counter overflow");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 7539 section 2.3.2 block function test vector.
    #[test]
    fn rfc7539_block() {
        let mut key = [0u8; 32];
        for (i, b) in key.iter_mut().enumerate() {
            *b = i as u8;
        }
        let nonce: [u8; 12] = [0, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let block = ChaCha20::new(&key).block(&nonce, 1);
        assert_eq!(
            hex(&block),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
             d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
        );
    }

    // RFC 7539 section 2.4.2 encryption test vector — exercised through
    // both the fast path and the frozen naive oracle.
    #[test]
    fn rfc7539_encrypt() {
        let mut key = [0u8; 32];
        for (i, b) in key.iter_mut().enumerate() {
            *b = i as u8;
        }
        let nonce: [u8; 12] = [0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you \
only one tip for the future, sunscreen would be it."
            .to_vec();
        for fast in [false, true] {
            let mut data = plaintext.clone();
            if fast {
                ChaCha20::new(&key).apply_keystream_inplace(&nonce, 1, &mut data);
            } else {
                ChaCha20::new(&key).apply_keystream_naive(&nonce, 1, &mut data);
            }
            assert_eq!(
                hex(&data[..32]),
                "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
            );
            assert_eq!(hex(&data[96..]), "5af90bbf74a35be6b40b8eedf2785e42874d");
        }
    }

    #[test]
    fn roundtrip_various_lengths() {
        let cipher = ChaCha20::new(&[7u8; 32]);
        for len in [0usize, 1, 63, 64, 65, 128, 1000] {
            let original: Vec<u8> = (0..len).map(|i| (i * 31 % 256) as u8).collect();
            let mut data = original.clone();
            cipher.apply_keystream(&[1; 12], 0, &mut data);
            if len > 0 {
                assert_ne!(data, original, "len {len} unchanged by cipher");
            }
            cipher.apply_keystream(&[1; 12], 0, &mut data);
            assert_eq!(data, original, "len {len} roundtrip");
        }
    }

    // The fast path must agree with the frozen oracle byte for byte at
    // every alignment: sub-block, block-aligned, wide-chunk-aligned, and
    // the straddling lengths on either side of each boundary.
    #[test]
    fn fast_path_matches_naive_oracle() {
        let cipher = ChaCha20::new(&[0x5a; 32]);
        let nonce = [3u8; 12];
        for len in [
            0usize, 1, 15, 16, 17, 63, 64, 65, 127, 128, 129, 255, 256, 257, 511, 512, 513, 1024,
            4096, 5000,
        ] {
            for counter in [0u32, 1, 2, 1000] {
                let original: Vec<u8> = (0..len).map(|i| (i * 37 % 256) as u8).collect();
                let mut fast = original.clone();
                let mut naive = original.clone();
                cipher.apply_keystream_inplace(&nonce, counter, &mut fast);
                cipher.apply_keystream_naive(&nonce, counter, &mut naive);
                assert_eq!(fast, naive, "len {len} counter {counter}");
            }
        }
    }

    // Both paths must refuse a counter that would wrap.
    #[test]
    fn counter_overflow_panics_on_both_paths() {
        let cipher = ChaCha20::new(&[1u8; 32]);
        for fast in [false, true] {
            let result = std::panic::catch_unwind(|| {
                let mut data = [0u8; 2 * BLOCK_LEN];
                if fast {
                    cipher.apply_keystream_inplace(&[0; 12], u32::MAX, &mut data);
                } else {
                    cipher.apply_keystream_naive(&[0; 12], u32::MAX, &mut data);
                }
            });
            assert!(result.is_err(), "fast={fast} should panic on wrap");
        }
    }

    #[test]
    fn different_nonce_different_stream() {
        let cipher = ChaCha20::new(&[7u8; 32]);
        assert_ne!(cipher.block(&[0; 12], 0), cipher.block(&[1; 12], 0));
        assert_ne!(cipher.block(&[0; 12], 0), cipher.block(&[0; 12], 1));
    }
}
