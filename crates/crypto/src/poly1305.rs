//! The Poly1305 one-time authenticator (RFC 7539).
//!
//! State lives in one radix from [`Poly1305::new`] to
//! [`Poly1305::finalize`]: the "donna-64" split of a 130-bit value into
//! limbs of 44, 44 and 42 bits, whose products fit `u128` (9 wide
//! multiplies per block). `new` splits `r` and the pad `s` and computes
//! `r²`, once per key. Every block is one step `h = (h + m) · r`, the padded final block
//! included; runs of full blocks go two at a time through the Horner
//! split `h = (h + m₁) · r² + m₂ · r`, which halves the serial
//! multiply-reduce chain.

/// Key length in bytes (r || s).
pub const KEY_LEN: usize = 32;
/// Tag length in bytes.
pub const TAG_LEN: usize = 16;
/// Internal block length in bytes.
pub const BLOCK_LEN: usize = 16;

const MASK44: u64 = (1 << 44) - 1;
const MASK42: u64 = (1 << 42) - 1;
/// 2¹²⁸, bit 40 of the top limb: the `0x01` byte above every full
/// block. The padded final block carries its `0x01` among its bytes.
const HIBIT: u64 = 1 << 40;

/// A value mod 2¹³⁰ − 5 in limbs of 44, 44 and 42 bits, least
/// significant first. Partially reduced values may carry a few bits
/// above limb 1's 44.
type Limbs = [u64; 3];

/// Splits 16 little-endian bytes into limbs and adds `hibit` on top.
fn limbs(block: &[u8], hibit: u64) -> Limbs {
    let t0 = u64::from_le_bytes(block[0..8].try_into().expect("16-byte block"));
    let t1 = u64::from_le_bytes(block[8..16].try_into().expect("16-byte block"));
    [
        t0 & MASK44,
        ((t0 >> 44) | (t1 << 20)) & MASK44,
        (t1 >> 24) | hibit,
    ]
}

/// `[20·x₁, 20·x₂]`: a limb product at or above 2¹³² folds back in
/// times 20, since 2¹³² = 4 · 2¹³⁰ ≡ 4 · 5 (mod 2¹³⁰ − 5).
fn times20(x: Limbs) -> [u64; 2] {
    [x[1] * 20, x[2] * 20]
}

/// The three column sums of `a · b` mod 2¹³⁰ − 5, `b20 = times20(b)`.
fn product(a: Limbs, b: Limbs, b20: [u64; 2]) -> [u128; 3] {
    let wide = |x: u64, y: u64| u128::from(x) * u128::from(y);
    let [a0, a1, a2] = a;
    let [b0, b1, b2] = b;
    let [s1, s2] = b20;
    [
        wide(a0, b0) + wide(a1, s2) + wide(a2, s1),
        wide(a0, b1) + wide(a1, b0) + wide(a2, s2),
        wide(a0, b2) + wide(a1, b1) + wide(a2, b0),
    ]
}

/// One partial carry pass over column sums; the carry out of the top
/// limb folds back into limb 0 times 5.
fn carry(d: [u128; 3]) -> Limbs {
    let [d0, d1, d2] = d;
    let d1 = d1 + (d0 >> 44);
    let d2 = d2 + (d1 >> 44);
    let h0 = (d0 as u64 & MASK44) + (d2 >> 42) as u64 * 5;
    [
        h0 & MASK44,
        (d1 as u64 & MASK44) + (h0 >> 44),
        d2 as u64 & MASK42,
    ]
}

/// One block: `h = (h + m) · r`, with `hibit` = [`HIBIT`] for a full
/// block and 0 for the padded final one.
fn step(h: Limbs, r: Limbs, block: &[u8], hibit: u64) -> Limbs {
    let [m0, m1, m2] = limbs(block, hibit);
    carry(product([h[0] + m0, h[1] + m1, h[2] + m2], r, times20(r)))
}

/// An incremental Poly1305 computation.
///
/// A Poly1305 key must be used for **one** message only; the AEAD layer in
/// [`crate::aead`] derives a fresh key per nonce.
///
/// # Example
///
/// ```
/// use silvasec_crypto::poly1305::Poly1305;
///
/// let mut mac = Poly1305::new(&[3u8; 32]);
/// mac.update(b"one-time authenticated data");
/// let tag = mac.finalize();
/// assert_eq!(tag.len(), 16);
/// ```
#[derive(Debug, Clone)]
pub struct Poly1305 {
    /// Clamped r.
    r: Limbs,
    /// r² mod 2¹³⁰ − 5, the multiplier of a block pair's first block.
    rr: Limbs,
    /// The accumulator.
    h: Limbs,
    /// s, added by `finalize`.
    pad: Limbs,
    buf: [u8; BLOCK_LEN],
    buf_len: usize,
}

impl Poly1305 {
    /// Creates an authenticator from a 32-byte one-time key.
    #[must_use]
    pub fn new(key: &[u8; KEY_LEN]) -> Self {
        // Clamp r (RFC 7539 §2.5), limb by limb.
        let [r0, r1, r2] = limbs(&key[..16], 0);
        let r = [
            r0 & 0xffc_0fff_ffff,
            r1 & 0xfff_ffc0_ffff,
            r2 & 0x00f_ffff_fc0f,
        ];
        Poly1305 {
            r,
            rr: carry(product(r, r, times20(r))),
            h: [0; 3],
            pad: limbs(&key[16..], 0),
            buf: [0; BLOCK_LEN],
            buf_len: 0,
        }
    }

    /// Absorbs a run of full blocks in place, two per iteration through
    /// `h = (h + m₁) · r² + m₂ · r`: the serial h → multiply → reduce
    /// chain advances once per 32 bytes, and the two products are
    /// independent work for the multiplier. An odd last block takes the
    /// one-block [`step`].
    fn process_blocks(&mut self, blocks: &[u8]) {
        debug_assert_eq!(blocks.len() % BLOCK_LEN, 0);
        let (r, r20) = (self.r, times20(self.r));
        let (rr, rr20) = (self.rr, times20(self.rr));
        let mut h = self.h;
        let mut pairs = blocks.chunks_exact(2 * BLOCK_LEN);
        for pair in &mut pairs {
            let [m0, m1, m2] = limbs(&pair[..BLOCK_LEN], HIBIT);
            let [x0, x1, x2] = product([h[0] + m0, h[1] + m1, h[2] + m2], rr, rr20);
            let [y0, y1, y2] = product(limbs(&pair[BLOCK_LEN..], HIBIT), r, r20);
            h = carry([x0 + y0, x1 + y1, x2 + y2]);
        }
        if let Some(block) = pairs.remainder().chunks_exact(BLOCK_LEN).next() {
            h = step(h, r, block, HIBIT);
        }
        self.h = h;
    }

    /// Absorbs message data.
    pub fn update(&mut self, data: &[u8]) {
        let mut data = data;
        if self.buf_len > 0 {
            let take = (BLOCK_LEN - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == BLOCK_LEN {
                self.h = step(self.h, self.r, &self.buf, HIBIT);
                self.buf_len = 0;
            }
        }
        let full = data.len() - data.len() % BLOCK_LEN;
        let (blocks, tail) = data.split_at(full);
        if !blocks.is_empty() {
            self.process_blocks(blocks);
        }
        if !tail.is_empty() {
            self.buf[..tail.len()].copy_from_slice(tail);
            self.buf_len = tail.len();
        }
    }

    /// Finishes the computation and returns the 16-byte tag.
    #[must_use]
    pub fn finalize(mut self) -> [u8; TAG_LEN] {
        if self.buf_len > 0 {
            // Pad the final partial block: append 0x01 then zeros, no hibit.
            let mut block = [0u8; BLOCK_LEN];
            block[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
            block[self.buf_len] = 1;
            self.h = step(self.h, self.r, &block, 0);
        }

        // Two full carry passes leave every limb within its width and
        // h below 2 · p.
        let [mut h0, mut h1, mut h2] = self.h;
        for _ in 0..2 {
            h2 += h1 >> 44;
            h1 &= MASK44;
            h0 += (h2 >> 42) * 5;
            h2 &= MASK42;
            h1 += h0 >> 44;
            h0 &= MASK44;
        }

        // g = h + 5 − 2¹³⁰ = h − p, selected when it does not borrow,
        // that is when h ≥ p.
        let g0 = h0 + 5;
        let g1 = h1 + (g0 >> 44);
        let g2 = (h2 + (g1 >> 44)).wrapping_sub(1 << 42);
        let mask = (g2 >> 63).wrapping_sub(1); // all-ones when h >= p
        let h0 = (h0 & !mask) | (g0 & MASK44 & mask);
        let h1 = (h1 & !mask) | (g1 & MASK44 & mask);
        let h2 = (h2 & !mask) | (g2 & mask);

        // tag = (h + s) mod 2¹²⁸.
        let [s0, s1, s2] = self.pad;
        let h0 = h0 + s0;
        let h1 = h1 + s1 + (h0 >> 44);
        let h2 = h2 + s2 + (h1 >> 44);
        let mut out = [0u8; TAG_LEN];
        out[..8].copy_from_slice(&((h0 & MASK44) | (h1 << 44)).to_le_bytes());
        out[8..].copy_from_slice(&(((h1 & MASK44) >> 20) | (h2 << 24)).to_le_bytes());
        out
    }

    /// Computes the tag of `data` under `key` in one shot.
    #[must_use]
    pub fn mac(key: &[u8; KEY_LEN], data: &[u8]) -> [u8; TAG_LEN] {
        let mut p = Poly1305::new(key);
        p.update(data);
        p.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    // RFC 7539 section 2.5.2 test vector.
    #[test]
    fn rfc7539_vector() {
        let key: [u8; 32] =
            unhex("85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b")
                .try_into()
                .unwrap();
        let tag = Poly1305::mac(&key, b"Cryptographic Forum Research Group");
        assert_eq!(hex(&tag), "a8061dc1305136c6c22b8baf0c0127a9");
    }

    // RFC 7539 appendix A.3 test vector 1: all-zero key and message.
    #[test]
    fn rfc7539_a3_vector1() {
        let key = [0u8; 32];
        let msg = [0u8; 64];
        assert_eq!(
            hex(&Poly1305::mac(&key, &msg)),
            "00000000000000000000000000000000"
        );
    }

    // RFC 7539 appendix A.3 test vector 2.
    #[test]
    fn rfc7539_a3_vector2() {
        let mut key = [0u8; 32];
        key[16..].copy_from_slice(&unhex("36e5f6b5c5e06070f0efca96227a863e"));
        let msg = b"Any submission to the IETF intended by the Contributor for publication as all or part of an IETF Internet-Draft or RFC and any statement made within the context of an IETF activity is considered an \"IETF Contribution\". Such statements include oral statements in IETF sessions, as well as written and electronic communications made at any time or place, which are addressed to";
        assert_eq!(
            hex(&Poly1305::mac(&key, msg)),
            "36e5f6b5c5e06070f0efca96227a863e"
        );
    }

    // RFC 7539 appendix A.3 test vector 3 (r = key part reused as tag).
    #[test]
    fn rfc7539_a3_vector3() {
        let mut key = [0u8; 32];
        key[..16].copy_from_slice(&unhex("36e5f6b5c5e06070f0efca96227a863e"));
        let msg = b"Any submission to the IETF intended by the Contributor for publication as all or part of an IETF Internet-Draft or RFC and any statement made within the context of an IETF activity is considered an \"IETF Contribution\". Such statements include oral statements in IETF sessions, as well as written and electronic communications made at any time or place, which are addressed to";
        assert_eq!(
            hex(&Poly1305::mac(&key, msg)),
            "f3477e7cd95417af89a6b8794c310cf0"
        );
    }

    /// Poly1305 from its definition over 32-bit-digit integers (least
    /// significant first): for each block of `len` bytes
    /// `h = (h + m + 2^(8·len)) · r mod 2¹³⁰ − 5`, tag `(h + s) mod 2¹²⁸`.
    fn mac_from_definition(key: &[u8; KEY_LEN], msg: &[u8]) -> [u8; TAG_LEN] {
        type Big = [u32; 9];
        let from_le = |bytes: &[u8]| {
            let mut out: Big = [0; 9];
            for (i, &b) in bytes.iter().enumerate() {
                out[i / 4] |= u32::from(b) << (8 * (i % 4));
            }
            out
        };
        let add = |a: &Big, b: &Big| {
            let mut out: Big = [0; 9];
            let mut carry = 0u64;
            for i in 0..9 {
                let t = u64::from(a[i]) + u64::from(b[i]) + carry;
                out[i] = t as u32;
                carry = t >> 32;
            }
            out
        };
        let mul = |a: &Big, b: &Big| {
            let mut wide = [0u32; 18];
            for i in 0..9 {
                let mut carry = 0u64;
                for j in 0..9 {
                    let t = u64::from(a[i]) * u64::from(b[j]) + u64::from(wide[i + j]) + carry;
                    wide[i + j] = t as u32;
                    carry = t >> 32;
                }
                wide[i + 9] = carry as u32;
            }
            assert!(wide[9..].iter().all(|&d| d == 0));
            let out: Big = wide[..9].try_into().unwrap();
            out
        };
        // Binary long division by p = 2¹³⁰ − 5.
        let p: Big = [0xffff_fffb, !0, !0, !0, 3, 0, 0, 0, 0];
        let reduce = |x: &Big| {
            let mut rem: Big = [0; 9];
            for bit in (0..288).rev() {
                for i in (1..9).rev() {
                    rem[i] = (rem[i] << 1) | (rem[i - 1] >> 31);
                }
                rem[0] = (rem[0] << 1) | ((x[bit / 32] >> (bit % 32)) & 1);
                if rem.iter().rev().ge(p.iter().rev()) {
                    let mut borrow = 0i64;
                    for i in 0..9 {
                        let t = i64::from(rem[i]) - i64::from(p[i]) - borrow;
                        rem[i] = t as u32;
                        borrow = i64::from(t < 0);
                    }
                }
            }
            rem
        };

        let mut r_bytes: [u8; 16] = key[..16].try_into().unwrap();
        for i in [3, 7, 11, 15] {
            r_bytes[i] &= 0x0f;
        }
        for i in [4, 8, 12] {
            r_bytes[i] &= 0xfc;
        }
        let r = from_le(&r_bytes);
        let mut h: Big = [0; 9];
        for block in msg.chunks(BLOCK_LEN) {
            let mut padded = block.to_vec();
            padded.push(1); // m + 2^(8·len)
            h = reduce(&mul(&add(&h, &from_le(&padded)), &r));
        }
        let sum = add(&h, &from_le(&key[16..]));
        let mut tag = [0u8; TAG_LEN];
        for (i, digit) in sum[..4].iter().enumerate() {
            tag[4 * i..4 * i + 4].copy_from_slice(&digit.to_le_bytes());
        }
        tag
    }

    // Two `update` calls split at the message start, around the first
    // 16-byte block boundary and mid-message.
    #[test]
    fn incremental_matches_oneshot() {
        let key: [u8; 32] = (0u8..32).collect::<Vec<_>>().try_into().unwrap();
        let data: Vec<u8> = (0..200u32).map(|i| (i % 256) as u8).collect();
        for split in [0usize, 1, 15, 16, 17, 100] {
            let mut p = Poly1305::new(&key);
            p.update(&data[..split]);
            p.update(&data[split..]);
            assert_eq!(p.finalize(), Poly1305::mac(&key, &data), "split {split}");
        }
    }

    #[test]
    fn partial_final_block() {
        let key: [u8; 32] = (1u8..33).collect::<Vec<_>>().try_into().unwrap();
        for len in 0..=40usize {
            let data = vec![0x5au8; len];
            assert_eq!(
                Poly1305::mac(&key, &data),
                mac_from_definition(&key, &data),
                "len {len}"
            );
        }
    }
}
