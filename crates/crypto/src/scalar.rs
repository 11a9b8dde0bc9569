//! Arithmetic modulo ℓ, the prime order of the edwards25519 group.
//!
//! ℓ = 2^252 + 27742317777372353535851937790883648493.
//!
//! Reduction uses shift-and-subtract long division, which is easy to verify
//! and fast enough for the simulation workloads in this repository.

/// ℓ as four little-endian 64-bit limbs.
pub const L: [u64; 4] = [
    0x5812_631a_5cf5_d3ed,
    0x14de_f9de_a2f7_9cd6,
    0x0000_0000_0000_0000,
    0x1000_0000_0000_0000,
];

/// A scalar modulo ℓ, stored as four little-endian 64-bit limbs.
///
/// # Example
///
/// ```
/// use silvasec_crypto::scalar::Scalar;
///
/// let a = Scalar::from_u64(5);
/// let b = Scalar::from_u64(7);
/// assert_eq!(a.mul(&b), Scalar::from_u64(35));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Scalar(pub(crate) [u64; 4]);

/// Compares two 576-bit numbers (little-endian limb arrays).
fn geq_576(a: &[u64; 9], b: &[u64; 9]) -> bool {
    for i in (0..9).rev() {
        if a[i] != b[i] {
            return a[i] > b[i];
        }
    }
    true
}

/// Subtracts `b` from `a` in place (576-bit); requires `a >= b`.
fn sub_576(a: &mut [u64; 9], b: &[u64; 9]) {
    let mut borrow = 0u64;
    for i in 0..9 {
        let (d1, b1) = a[i].overflowing_sub(b[i]);
        let (d2, b2) = d1.overflowing_sub(borrow);
        a[i] = d2;
        borrow = u64::from(b1) + u64::from(b2);
    }
    debug_assert_eq!(borrow, 0);
}

/// Shifts a 576-bit number right by one bit in place.
fn shr1_576(a: &mut [u64; 9]) {
    for i in 0..8 {
        a[i] = (a[i] >> 1) | (a[i + 1] << 63);
    }
    a[8] >>= 1;
}

/// Shifts a 576-bit number left by `k < 64` bits in place.
fn shl_small_576(a: &mut [u64; 9], k: u32) {
    if k == 0 {
        return;
    }
    for i in (1..9).rev() {
        a[i] = (a[i] << k) | (a[i - 1] >> (64 - k));
    }
    a[0] <<= k;
}

/// Reduces a 512-bit number (low 8 limbs of `n`) modulo ℓ.
///
/// Restoring long division: start with m = ℓ·2^259 (≈ 2^511, which exceeds
/// n/2 for any n < 2^512) and conditionally subtract while halving m down
/// to ℓ itself. The invariant "remainder < 2m before each step" holds from
/// the start because n < 2^512 < ℓ·2^260.
fn reduce_512(n: [u64; 8]) -> [u64; 4] {
    let mut r = [0u64; 9];
    r[..8].copy_from_slice(&n);

    // m = ℓ << 259: limbs shifted up by 4 words (256 bits) then 3 bits.
    let mut m = [0u64; 9];
    m[4..8].copy_from_slice(&L);
    shl_small_576(&mut m, 3);

    for _shift in (0..=259).rev() {
        if geq_576(&r, &m) {
            sub_576(&mut r, &m);
        }
        shr1_576(&mut m);
    }
    debug_assert_eq!(&r[4..9], &[0u64; 5][..]);
    [r[0], r[1], r[2], r[3]]
}

impl Scalar {
    /// The zero scalar.
    pub const ZERO: Scalar = Scalar([0; 4]);
    /// The one scalar.
    pub const ONE: Scalar = Scalar([1, 0, 0, 0]);

    /// Creates a scalar from a small integer.
    #[must_use]
    pub fn from_u64(x: u64) -> Self {
        Scalar([x, 0, 0, 0])
    }

    /// Reduces 32 little-endian bytes modulo ℓ.
    #[must_use]
    pub fn from_bytes_mod_order(bytes: &[u8; 32]) -> Self {
        let mut wide = [0u8; 64];
        wide[..32].copy_from_slice(bytes);
        Self::from_bytes_mod_order_wide(&wide)
    }

    /// Reduces 64 little-endian bytes modulo ℓ (for hash-to-scalar).
    #[must_use]
    pub fn from_bytes_mod_order_wide(bytes: &[u8; 64]) -> Self {
        let mut limbs = [0u64; 8];
        for (i, chunk) in bytes.chunks_exact(8).enumerate() {
            limbs[i] = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        }
        Scalar(reduce_512(limbs))
    }

    /// Encodes the scalar as 32 little-endian bytes.
    #[must_use]
    pub fn to_bytes(self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for (i, limb) in self.0.iter().enumerate() {
            out[8 * i..8 * i + 8].copy_from_slice(&limb.to_le_bytes());
        }
        out
    }

    /// Addition modulo ℓ.
    #[must_use]
    pub fn add(&self, rhs: &Self) -> Self {
        let mut wide = [0u64; 8];
        let mut carry = 0u64;
        for (i, out) in wide.iter_mut().enumerate().take(4) {
            let (s1, c1) = self.0[i].overflowing_add(rhs.0[i]);
            let (s2, c2) = s1.overflowing_add(carry);
            *out = s2;
            carry = u64::from(c1) + u64::from(c2);
        }
        wide[4] = carry;
        Scalar(reduce_512(wide))
    }

    /// Subtraction modulo ℓ.
    #[must_use]
    pub fn sub(&self, rhs: &Self) -> Self {
        // a - b = a + (ℓ - b) mod ℓ.
        self.add(&rhs.neg())
    }

    /// Negation modulo ℓ.
    #[must_use]
    pub fn neg(&self) -> Self {
        if *self == Scalar::ZERO {
            return Scalar::ZERO;
        }
        let mut out = [0u64; 4];
        let mut borrow = 0u64;
        for i in 0..4 {
            let (d1, b1) = L[i].overflowing_sub(self.0[i]);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out[i] = d2;
            borrow = u64::from(b1) + u64::from(b2);
        }
        debug_assert_eq!(borrow, 0, "scalar must already be reduced");
        Scalar(out)
    }

    /// Multiplication modulo ℓ.
    #[must_use]
    pub fn mul(&self, rhs: &Self) -> Self {
        let mut limbs = [0u64; 8];
        for i in 0..4 {
            let mut carry: u128 = 0;
            for j in 0..4 {
                let v =
                    u128::from(self.0[i]) * u128::from(rhs.0[j]) + u128::from(limbs[i + j]) + carry;
                limbs[i + j] = v as u64;
                carry = v >> 64;
            }
            limbs[i + 4] = carry as u64;
        }
        Scalar(reduce_512(limbs))
    }

    /// Whether the scalar is zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.0 == [0; 4]
    }

    /// Iterates over the significant bits of the scalar, most
    /// significant first.
    ///
    /// Leading zero bits are skipped (the returned vector starts at the
    /// highest set bit), so the double-and-add ladder driven by this
    /// iterator does no work on the zero prefix. For the zero scalar the
    /// vector is empty. Skipping leading zeros only removes doublings of
    /// the identity, so every consumer sees identical results — pinned
    /// by `bits_msb_first_skips_leading_zeros_same_result` below.
    #[must_use]
    pub fn bits_msb_first(&self) -> Vec<bool> {
        let top = match (0..253).rev().find(|&bit| self.bit(bit)) {
            Some(top) => top,
            None => return Vec::new(),
        };
        let mut bits = Vec::with_capacity(top + 1);
        for bit in (0..=top).rev() {
            bits.push(self.bit(bit));
        }
        bits
    }

    /// Returns bit `i` (little-endian numbering) of the scalar.
    fn bit(&self, i: usize) -> bool {
        (self.0[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Recodes the scalar into 64 signed radix-16 digits, least
    /// significant first, each in `[-8, 8]`.
    ///
    /// Σ dᵢ·16^i equals the scalar; since reduced scalars are below
    /// 2^253, the carry out of the top digit is absorbed there (d₆₃ stays
    /// in `[0, 8]`). This is the digit form the constant-time fixed-base
    /// multiplication [`crate::edwards::EdwardsPoint::mul_basepoint`]
    /// consumes.
    #[must_use]
    pub(crate) fn radix16_digits(&self) -> [i8; 64] {
        let bytes = self.to_bytes();
        let mut digits = [0i8; 64];
        for i in 0..32 {
            digits[2 * i] = (bytes[i] & 15) as i8;
            digits[2 * i + 1] = (bytes[i] >> 4) as i8;
        }
        // Recenter from [0, 15] to [-8, 7], pushing carries upward.
        for i in 0..63 {
            let carry = (digits[i] + 8) >> 4;
            digits[i] -= carry << 4;
            digits[i + 1] += carry;
        }
        digits
    }

    /// Recodes the scalar in width-`w` non-adjacent form, least
    /// significant digit first: at most one of any `w` consecutive
    /// digits is nonzero, and nonzero digits are odd and in
    /// `(-2^(w-1), 2^(w-1))`. `w` must be in `2..=12`.
    ///
    /// Variable-time: digit positions depend on the scalar value, so
    /// this must only be fed public scalars (verification-side use).
    #[must_use]
    pub(crate) fn non_adjacent_form(&self, w: u32) -> [i16; 256] {
        debug_assert!((2..=12).contains(&w));
        let mut naf = [0i16; 256];
        // Working copy with one spare limb: the "add back |digit|" step
        // for negative digits can briefly push the value past 2^253.
        let mut x = [self.0[0], self.0[1], self.0[2], self.0[3], 0u64];
        let width = 1u64 << w;
        let mut pos = 0usize;
        while x != [0; 5] {
            debug_assert!(pos < 256);
            if x[0] & 1 == 1 {
                let mut digit = (x[0] % width) as i64;
                if digit >= (width as i64) / 2 {
                    digit -= width as i64;
                    // x -= digit  (digit negative → add |digit|)
                    let mut carry = digit.unsigned_abs();
                    for limb in x.iter_mut() {
                        let (sum, overflow) = limb.overflowing_add(carry);
                        *limb = sum;
                        carry = u64::from(overflow);
                        if carry == 0 {
                            break;
                        }
                    }
                } else {
                    let mut borrow = digit as u64;
                    for limb in x.iter_mut() {
                        let (diff, underflow) = limb.overflowing_sub(borrow);
                        *limb = diff;
                        borrow = u64::from(underflow);
                        if borrow == 0 {
                            break;
                        }
                    }
                }
                naf[pos] = digit as i16;
            }
            // x >>= 1
            for i in 0..4 {
                x[i] = (x[i] >> 1) | (x[i + 1] << 63);
            }
            x[4] >>= 1;
            pos += 1;
        }
        naf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l_minus(x: u64) -> Scalar {
        Scalar::from_u64(x).neg()
    }

    #[test]
    fn l_reduces_to_zero() {
        let mut wide = [0u64; 8];
        wide[..4].copy_from_slice(&L);
        assert_eq!(reduce_512(wide), [0u64; 4]);
    }

    #[test]
    fn l_plus_one_reduces_to_one() {
        let mut wide = [0u64; 8];
        wide[..4].copy_from_slice(&L);
        wide[0] += 1;
        assert_eq!(reduce_512(wide), [1, 0, 0, 0]);
    }

    #[test]
    fn small_arithmetic() {
        let a = Scalar::from_u64(1_000_000);
        let b = Scalar::from_u64(999_999);
        assert_eq!(a.sub(&b), Scalar::ONE);
        assert_eq!(a.mul(&Scalar::ZERO), Scalar::ZERO);
        assert_eq!(a.mul(&Scalar::ONE), a);
        assert_eq!(
            Scalar::from_u64(12345).mul(&Scalar::from_u64(6789)),
            Scalar::from_u64(12345 * 6789)
        );
    }

    #[test]
    fn neg_is_additive_inverse() {
        for x in [0u64, 1, 42, u64::MAX] {
            let a = Scalar::from_u64(x);
            assert_eq!(a.add(&a.neg()), Scalar::ZERO, "x = {x}");
        }
    }

    #[test]
    fn wraparound_addition() {
        // (ℓ - 1) + 2 = 1 mod ℓ.
        assert_eq!(l_minus(1).add(&Scalar::from_u64(2)), Scalar::ONE);
    }

    #[test]
    fn wide_reduction_matches_double_reduction() {
        // (ℓ-1)² reduced must equal 1 (since -1 · -1 = 1 mod ℓ).
        let a = l_minus(1);
        assert_eq!(a.mul(&a), Scalar::ONE);
    }

    #[test]
    fn from_bytes_mod_order_wide_all_ones() {
        // Must not panic and must be < ℓ.
        let s = Scalar::from_bytes_mod_order_wide(&[0xff; 64]);
        // Multiply by one stays fixed → reduced form is stable.
        assert_eq!(s.mul(&Scalar::ONE), s);
    }

    #[test]
    fn bits_msb_first_small() {
        let bits = Scalar::from_u64(5).bits_msb_first();
        assert_eq!(bits, vec![true, false, true]);
        assert!(Scalar::ZERO.bits_msb_first().is_empty());
        assert_eq!(Scalar::ONE.bits_msb_first(), vec![true]);
    }

    #[test]
    fn bits_msb_first_skips_leading_zeros_same_result() {
        // Regression pin for the leading-zero skip: the trimmed bit
        // vector must equal the old full-width (253-entry) iteration
        // with its zero prefix stripped, for scalars of every size.
        for s in [
            Scalar::ZERO,
            Scalar::ONE,
            Scalar::from_u64(5),
            Scalar::from_u64(u64::MAX),
            Scalar::from_bytes_mod_order(&[0xa7; 32]),
            Scalar::from_u64(1).neg(), // ℓ − 1: full 253 bits
        ] {
            let mut full = Vec::with_capacity(253);
            for bit in (0..253).rev() {
                full.push((s.0[bit / 64] >> (bit % 64)) & 1 == 1);
            }
            let first_set = full.iter().position(|&b| b).unwrap_or(full.len());
            assert_eq!(s.bits_msb_first(), &full[first_set..], "{s:?}");
        }
    }

    #[test]
    fn radix16_digits_recompose() {
        for s in [
            Scalar::ZERO,
            Scalar::ONE,
            Scalar::from_u64(0xdead_beef),
            Scalar::from_bytes_mod_order(&[0xee; 32]),
            Scalar::from_u64(1).neg(),
        ] {
            let digits = s.radix16_digits();
            // Σ dᵢ·16^i must reconstruct the scalar; evaluate via Horner
            // in scalar arithmetic (digits can be negative).
            let sixteen = Scalar::from_u64(16);
            let mut acc = Scalar::ZERO;
            for &d in digits.iter().rev() {
                acc = acc.mul(&sixteen);
                let mag = Scalar::from_u64(d.unsigned_abs().into());
                acc = if d < 0 { acc.sub(&mag) } else { acc.add(&mag) };
            }
            assert_eq!(acc, s, "{s:?}");
            assert!(digits.iter().all(|&d| (-8..=8).contains(&d)));
            assert!(digits[63] >= 0);
        }
    }

    #[test]
    fn naf_recompose_and_shape() {
        // Width 5 recodes the variable point's scalar, width 9 (digits
        // up to ±255, past `i8`) the basepoint's.
        for w in [5u32, 9] {
            for s in [
                Scalar::ZERO,
                Scalar::ONE,
                Scalar::from_u64(0x1234_5678_9abc_def0),
                Scalar::from_bytes_mod_order(&[0x5c; 32]),
                Scalar::from_u64(1).neg(),
            ] {
                let naf = s.non_adjacent_form(w);
                let two = Scalar::from_u64(2);
                let mut acc = Scalar::ZERO;
                for &d in naf.iter().rev() {
                    acc = acc.mul(&two);
                    let mag = Scalar::from_u64(d.unsigned_abs().into());
                    acc = if d < 0 { acc.sub(&mag) } else { acc.add(&mag) };
                }
                assert_eq!(acc, s, "w={w} {s:?}");
                let half = 1i16 << (w - 1);
                for (i, &d) in naf.iter().enumerate() {
                    if d != 0 {
                        assert!(d % 2 != 0, "digit at {i} even");
                        assert!(d < half && d > -half);
                        // Non-adjacency: next w−1 digits are zero.
                        for k in 1..w as usize {
                            if i + k < 256 {
                                assert_eq!(naf[i + k], 0, "w={w} adjacency at {i}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn mul_commutative_and_associative() {
        let a = Scalar::from_bytes_mod_order(&[0x11; 32]);
        let b = Scalar::from_bytes_mod_order(&[0x22; 32]);
        let c = Scalar::from_bytes_mod_order(&[0x33; 32]);
        assert_eq!(a.mul(&b), b.mul(&a));
        assert_eq!(a.mul(&b).mul(&c), a.mul(&b.mul(&c)));
        assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
    }
}
