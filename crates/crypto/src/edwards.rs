//! The edwards25519 group: −x² + y² = 1 + d·x²·y² over GF(2^255 − 19).
//!
//! Points use extended twisted Edwards coordinates (X : Y : Z : T) with
//! x = X/Z, y = Y/Z, T = XY/Z. The wire encoding here is **uncompressed**
//! (x ‖ y, 64 bytes): unlike Ed25519 we never need a field square root,
//! which keeps the implementation small. This is a documented deviation
//! from the Ed25519 wire format (see DESIGN.md).
//!
//! # Scalar multiplication
//!
//! Two paths run, one per operation the program performs. The original
//! MSB-first double-and-add stays, frozen, as
//! [`EdwardsPoint::scalar_mul_naive`] and
//! [`EdwardsPoint::double_scalar_mul_naive`], the oracles of the
//! proptests.
//!
//! * **Fixed-base, constant-time** ([`EdwardsPoint::mul_basepoint`],
//!   key generation and signing): a lazily-built shared table of
//!   windowed multiples of B (8 cached multiples per signed radix-16
//!   digit position) turns k·B into 64 table lookups + 64 cached
//!   additions, with *zero* doublings. Table scans touch every entry and
//!   mask with [`crate::ct`] helpers, so the access pattern is
//!   independent of the secret scalar. Secret scalars meet no other
//!   path.
//! * **Straus/Shamir, variable-time**
//!   ([`EdwardsPoint::vartime_double_scalar_mul_basepoint`], the
//!   signature-verification equation k·A + s·B): width-5 NAF digits of k
//!   against eight odd multiples of A, width-9 NAF digits of s
//!   ([`BASEPOINT_NAF_WINDOW`]) against a static affine table of 128 odd
//!   basepoint multiples, one doubling chain for both. This path is
//!   **not** constant-time and must only see public inputs.

use crate::ct;
use crate::error::CryptoError;
use crate::field::FieldElement;
use crate::scalar::Scalar;
use std::sync::OnceLock;

/// Length of an encoded (uncompressed) point.
pub const POINT_LEN: usize = 64;

/// The curve constant d = −121665/121666.
const D_BYTES: [u8; 32] = [
    0xa3, 0x78, 0x59, 0x13, 0xca, 0x4d, 0xeb, 0x75, 0xab, 0xd8, 0x41, 0x41, 0x4d, 0x0a, 0x70, 0x00,
    0x98, 0xe8, 0x79, 0x77, 0x79, 0x40, 0xc7, 0x8c, 0x73, 0xfe, 0x6f, 0x2b, 0xee, 0x6c, 0x03, 0x52,
];
/// 2·d, used by the addition formula.
const D2_BYTES: [u8; 32] = [
    0x59, 0xf1, 0xb2, 0x26, 0x94, 0x9b, 0xd6, 0xeb, 0x56, 0xb1, 0x83, 0x82, 0x9a, 0x14, 0xe0, 0x00,
    0x30, 0xd1, 0xf3, 0xee, 0xf2, 0x80, 0x8e, 0x19, 0xe7, 0xfc, 0xdf, 0x56, 0xdc, 0xd9, 0x06, 0x24,
];
/// x-coordinate of the standard base point.
const BX_BYTES: [u8; 32] = [
    0x1a, 0xd5, 0x25, 0x8f, 0x60, 0x2d, 0x56, 0xc9, 0xb2, 0xa7, 0x25, 0x95, 0x60, 0xc7, 0x2c, 0x69,
    0x5c, 0xdc, 0xd6, 0xfd, 0x31, 0xe2, 0xa4, 0xc0, 0xfe, 0x53, 0x6e, 0xcd, 0xd3, 0x36, 0x69, 0x21,
];
/// y-coordinate of the standard base point (4/5).
const BY_BYTES: [u8; 32] = [
    0x58, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66,
    0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66,
];

fn d() -> FieldElement {
    FieldElement::from_bytes(&D_BYTES)
}

fn d2() -> FieldElement {
    FieldElement::from_bytes(&D2_BYTES)
}

/// A point on edwards25519 in extended coordinates.
///
/// # Example
///
/// ```
/// use silvasec_crypto::{edwards::EdwardsPoint, scalar::Scalar};
///
/// let b = EdwardsPoint::basepoint();
/// let two_b = b.add(&b);
/// assert_eq!(EdwardsPoint::mul_basepoint(&Scalar::from_u64(2)), two_b);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct EdwardsPoint {
    x: FieldElement,
    y: FieldElement,
    z: FieldElement,
    t: FieldElement,
}

/// A point prepared for repeated addition ("cached" form): stores
/// (Y + X, Y − X, Z, 2d·T) so [`EdwardsPoint::add_cached`] costs one
/// field multiplication less than the general addition.
#[derive(Debug, Clone, Copy)]
struct CachedPoint {
    y_plus_x: FieldElement,
    y_minus_x: FieldElement,
    z: FieldElement,
    t2d: FieldElement,
}

impl CachedPoint {
    /// The cached form of the identity (the neutral element for
    /// [`EdwardsPoint::add_cached`], used as the all-zero-digit filler
    /// in constant-time table scans).
    fn identity() -> Self {
        CachedPoint {
            y_plus_x: FieldElement::ONE,
            y_minus_x: FieldElement::ONE,
            z: FieldElement::ONE,
            t2d: FieldElement::ZERO,
        }
    }

    fn from_point(p: &EdwardsPoint) -> Self {
        CachedPoint {
            y_plus_x: p.y.add(&p.x),
            y_minus_x: p.y.sub(&p.x),
            z: p.z,
            t2d: p.t.mul(&d2()),
        }
    }

    /// Negation: swap the (Y±X) pair and negate 2d·T. Variable-time
    /// callers only.
    fn neg(&self) -> Self {
        CachedPoint {
            y_plus_x: self.y_minus_x,
            y_minus_x: self.y_plus_x,
            z: self.z,
            t2d: self.t2d.neg(),
        }
    }

    /// Replaces `self` with `other` when `mask` is all-ones (branchless).
    fn conditional_assign(&mut self, other: &Self, mask: u64) {
        self.y_plus_x.conditional_assign(&other.y_plus_x, mask);
        self.y_minus_x.conditional_assign(&other.y_minus_x, mask);
        self.z.conditional_assign(&other.z, mask);
        self.t2d.conditional_assign(&other.t2d, mask);
    }

    /// Negates the point when `bit` is 1 (branchless).
    fn conditional_negate(&mut self, bit: u64) {
        FieldElement::conditional_swap(&mut self.y_plus_x, &mut self.y_minus_x, bit);
        let negated = self.t2d.neg();
        self.t2d.conditional_assign(&negated, bit.wrapping_neg());
    }
}

/// A point with Z = 1 prepared for mixed addition: (y + x, y − x,
/// 2d·x·y). One field multiplication cheaper again than cached form;
/// only usable for precomputed (affine-normalized) tables.
#[derive(Debug, Clone, Copy)]
struct AffineNielsPoint {
    y_plus_x: FieldElement,
    y_minus_x: FieldElement,
    xy2d: FieldElement,
}

impl AffineNielsPoint {
    fn from_point(p: &EdwardsPoint) -> Self {
        let (x, y) = p.to_affine();
        AffineNielsPoint {
            y_plus_x: y.add(&x),
            y_minus_x: y.sub(&x),
            xy2d: x.mul(&y).mul(&d2()),
        }
    }

    fn neg(&self) -> Self {
        AffineNielsPoint {
            y_plus_x: self.y_minus_x,
            y_minus_x: self.y_plus_x,
            xy2d: self.xy2d.neg(),
        }
    }
}

/// Eight cached multiples [P, 2P, …, 8P]: one signed radix-16 digit's
/// worth of lookups, a row of the constant-time fixed-base table.
struct WindowTable([CachedPoint; 8]);

impl WindowTable {
    fn new(p: &EdwardsPoint) -> Self {
        let mut entries = [CachedPoint::from_point(p); 8];
        let mut cur = *p;
        for entry in entries.iter_mut().skip(1) {
            cur = cur.add(p);
            *entry = CachedPoint::from_point(&cur);
        }
        WindowTable(entries)
    }

    /// Looks up `digit`·P for a signed digit in [−8, 8], scanning every
    /// entry with arithmetic masks so the access pattern is independent
    /// of the digit (see DESIGN.md, constant-time boundary).
    fn select(&self, digit: i8) -> CachedPoint {
        let negative = ((i64::from(digit)) >> 63) as u64 & 1; // 1 iff digit < 0
        let abs = u64::from(digit.unsigned_abs());
        let mut r = CachedPoint::identity();
        for (j, entry) in self.0.iter().enumerate() {
            let mask = ct::eq_mask_u64(abs, j as u64 + 1);
            r.conditional_assign(entry, mask);
        }
        r.conditional_negate(negative);
        r
    }
}

/// Eight cached odd multiples [P, 3P, 5P, …, 15P]: the table of the
/// variable point's width-5 NAF digits in
/// [`EdwardsPoint::vartime_double_scalar_mul_basepoint`].
struct OddMultiples([CachedPoint; 8]);

impl OddMultiples {
    fn new(p: &EdwardsPoint) -> Self {
        let p2 = CachedPoint::from_point(&p.double());
        let mut entries = [CachedPoint::from_point(p); 8];
        let mut cur = *p;
        for entry in entries.iter_mut().skip(1) {
            cur = cur.add_cached(&p2);
            *entry = CachedPoint::from_point(&cur);
        }
        OddMultiples(entries)
    }

    /// Returns `d`·P for odd `d` in 1..=15. Variable-time.
    fn entry(&self, d: u16) -> &CachedPoint {
        debug_assert!(d % 2 == 1 && d <= 15);
        &self.0[usize::from(d / 2)]
    }
}

/// Window width of the static basepoint NAF table: width-9 digits
/// (odd, up to ±255) against 128 precomputed affine odd multiples.
/// Widening from the original width-8 drops the expected basepoint
/// additions per verification from ~253/9 to ~253/10 at the price of a
/// one-off table twice the size — a trade that pays for itself because
/// the table is shared, lazily built once per process, while the NAF
/// walk runs on every signature verified.
pub const BASEPOINT_NAF_WINDOW: u32 = 9;

/// Entries in the static basepoint NAF table: odd multiples
/// [B, 3B, …, (2^(w−1) − 1)·B] for w = [`BASEPOINT_NAF_WINDOW`].
const BASEPOINT_WNAF_ENTRIES: usize = 1 << (BASEPOINT_NAF_WINDOW - 2);

/// The lazily-built shared basepoint tables: 64 windowed rows for the
/// constant-time fixed-base path (row i holds multiples of 16^i·B) and
/// 128 affine odd multiples [B, 3B, …, 255B] for width-9 NAF on the
/// verification side.
struct BasepointTables {
    window: Box<[WindowTable; 64]>,
    wnaf: [AffineNielsPoint; BASEPOINT_WNAF_ENTRIES],
}

static BASEPOINT_TABLES: OnceLock<BasepointTables> = OnceLock::new();

fn basepoint_tables() -> &'static BasepointTables {
    BASEPOINT_TABLES.get_or_init(|| {
        let b = EdwardsPoint::basepoint();

        let mut rows = Vec::with_capacity(64);
        let mut cur = b;
        for _ in 0..64 {
            rows.push(WindowTable::new(&cur));
            // Advance to the next digit position: cur ← 16·cur.
            cur = cur.double().double().double().double();
        }
        let window: Box<[WindowTable; 64]> = match rows.into_boxed_slice().try_into() {
            Ok(array) => array,
            Err(_) => unreachable!("exactly 64 rows were pushed"),
        };

        let b2 = b.double();
        let mut odd = b;
        let wnaf = std::array::from_fn(|_| {
            let entry = AffineNielsPoint::from_point(&odd);
            odd = odd.add(&b2);
            entry
        });

        BasepointTables { window, wnaf }
    })
}

impl EdwardsPoint {
    /// The identity (neutral) element.
    #[must_use]
    pub fn identity() -> Self {
        EdwardsPoint {
            x: FieldElement::ZERO,
            y: FieldElement::ONE,
            z: FieldElement::ONE,
            t: FieldElement::ZERO,
        }
    }

    /// The standard base point B (order ℓ).
    #[must_use]
    pub fn basepoint() -> Self {
        let x = FieldElement::from_bytes(&BX_BYTES);
        let y = FieldElement::from_bytes(&BY_BYTES);
        EdwardsPoint {
            x,
            y,
            z: FieldElement::ONE,
            t: x.mul(&y),
        }
    }

    /// Constructs a point from affine coordinates, checking the curve
    /// equation.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidEncoding`] if (x, y) is not on the
    /// curve.
    pub fn from_affine(x: FieldElement, y: FieldElement) -> Result<Self, CryptoError> {
        // −x² + y² = 1 + d·x²·y²
        let xx = x.square();
        let yy = y.square();
        let lhs = yy.sub(&xx);
        let rhs = FieldElement::ONE.add(&d().mul(&xx).mul(&yy));
        if lhs != rhs {
            return Err(CryptoError::InvalidEncoding);
        }
        Ok(EdwardsPoint {
            x,
            y,
            z: FieldElement::ONE,
            t: x.mul(&y),
        })
    }

    /// Returns the affine coordinates (x, y).
    #[must_use]
    pub fn to_affine(&self) -> (FieldElement, FieldElement) {
        let z_inv = self.z.invert();
        (self.x.mul(&z_inv), self.y.mul(&z_inv))
    }

    /// Encodes the point as 64 bytes: x ‖ y, each 32 bytes little-endian.
    #[must_use]
    pub fn encode(&self) -> [u8; POINT_LEN] {
        let (x, y) = self.to_affine();
        let mut out = [0u8; POINT_LEN];
        out[..32].copy_from_slice(&x.to_bytes());
        out[32..].copy_from_slice(&y.to_bytes());
        out
    }

    /// Decodes a 64-byte uncompressed point, validating the curve equation.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidEncoding`] if the coordinates are not
    /// a point on the curve.
    pub fn decode(bytes: &[u8; POINT_LEN]) -> Result<Self, CryptoError> {
        let mut xb = [0u8; 32];
        let mut yb = [0u8; 32];
        xb.copy_from_slice(&bytes[..32]);
        yb.copy_from_slice(&bytes[32..]);
        // Reject non-canonical field encodings: bit 255 must be clear and
        // the value below p.
        let x = FieldElement::from_bytes(&xb);
        let y = FieldElement::from_bytes(&yb);
        if x.to_bytes() != xb || y.to_bytes() != yb {
            return Err(CryptoError::InvalidEncoding);
        }
        Self::from_affine(x, y)
    }

    /// Point addition (add-2008-hwcd-3 formulas for a = −1).
    #[must_use]
    pub fn add(&self, rhs: &Self) -> Self {
        let a = self.y.sub(&self.x).mul(&rhs.y.sub(&rhs.x));
        let b = self.y.add(&self.x).mul(&rhs.y.add(&rhs.x));
        let c = self.t.mul(&d2()).mul(&rhs.t);
        let zz = self.z.mul(&rhs.z);
        let dd = zz.add(&zz);
        let e = b.sub(&a);
        let f = dd.sub(&c);
        let g = dd.add(&c);
        let h = b.add(&a);
        EdwardsPoint {
            x: e.mul(&f),
            y: g.mul(&h),
            z: f.mul(&g),
            t: e.mul(&h),
        }
    }

    /// Mixed addition with a cached point (one multiplication cheaper:
    /// 2d·T is precomputed).
    ///
    /// Field additions and subtractions here use the carry-free `weak_*`
    /// forms: every weak result feeds straight into a multiply, and with
    /// reduce-bounded point fields on both sides no chain exceeds the
    /// 2^54 limb bound `mul` accepts. Every output coordinate is a `mul`
    /// result, so the point stays reduce-bounded.
    fn add_cached(&self, rhs: &CachedPoint) -> Self {
        self.add_cached_internal(rhs, true)
    }

    /// [`Self::add_cached`] with an optional T output. Like doublings,
    /// additions *read* T (the `self.t · 2d·T'` term) but their own T
    /// output is only ever consumed by a *following* addition — a
    /// doubling reads X, Y, Z alone. An add whose result feeds a
    /// doubling (most adds of the Straus loop below) can therefore skip
    /// the E·H multiplication. Callers must ensure
    /// `need_t` is true whenever the result is added to something or
    /// escapes this module.
    fn add_cached_internal(&self, rhs: &CachedPoint, need_t: bool) -> Self {
        let a = self.y.weak_sub(&self.x).mul(&rhs.y_minus_x);
        let b = self.y.weak_add(&self.x).mul(&rhs.y_plus_x);
        let c = self.t.mul(&rhs.t2d);
        let zz = self.z.mul(&rhs.z);
        let dd = zz.weak_add(&zz);
        let e = b.weak_sub(&a);
        let f = dd.weak_sub(&c);
        let g = dd.weak_add(&c);
        let h = b.weak_add(&a);
        EdwardsPoint {
            x: e.mul(&f),
            y: g.mul(&h),
            z: f.mul(&g),
            t: if need_t {
                e.mul(&h)
            } else {
                FieldElement::ZERO
            },
        }
    }

    /// Mixed addition with an affine-niels point (Z = 1 saves the Z·Z'
    /// multiplication on top of the cached form). Same carry-free
    /// `weak_*` discipline and optional T output as
    /// [`Self::add_cached_internal`].
    fn add_affine_niels(&self, rhs: &AffineNielsPoint, need_t: bool) -> Self {
        let a = self.y.weak_sub(&self.x).mul(&rhs.y_minus_x);
        let b = self.y.weak_add(&self.x).mul(&rhs.y_plus_x);
        let c = self.t.mul(&rhs.xy2d);
        let dd = self.z.weak_add(&self.z);
        let e = b.weak_sub(&a);
        let f = dd.weak_sub(&c);
        let g = dd.weak_add(&c);
        let h = b.weak_add(&a);
        EdwardsPoint {
            x: e.mul(&f),
            y: g.mul(&h),
            z: f.mul(&g),
            t: if need_t {
                e.mul(&h)
            } else {
                FieldElement::ZERO
            },
        }
    }

    /// Point doubling (dbl-2008-hwcd formulas for a = −1).
    #[must_use]
    pub fn double(&self) -> Self {
        self.double_internal(true)
    }

    /// Doubling with an optional T output. Doubling never *reads* T and
    /// T is only *consumed* by additions, so a doubling whose result
    /// feeds another doubling can skip the E·H multiplication. Callers
    /// must ensure `need_t` is true whenever the result is added to
    /// something (or escapes this module).
    /// Additions and subtractions use the carry-free `weak_*` field
    /// forms (every weak result feeds a multiply; the widest chain —
    /// `(X+Y)² − X² − Y²` — peaks below 2^53.5 per limb, inside the
    /// 2^54 bound `mul` accepts). `zz2` is the un-carried double of a
    /// reduce-bounded square, so `f` uses the wide (4p) subtraction.
    fn double_internal(&self, need_t: bool) -> Self {
        let xx = self.x.square();
        let yy = self.y.square();
        let zz2 = {
            let zz = self.z.square();
            zz.weak_add(&zz)
        };
        // With a = −1: E = (X+Y)² − X² − Y², G = Y² − X²,
        // H = −(X² + Y²), F = G − 2Z².
        let e = self
            .x
            .weak_add(&self.y)
            .square()
            .weak_sub(&xx)
            .weak_sub(&yy);
        let g = yy.weak_sub(&xx);
        let f = g.weak_sub_wide(&zz2);
        let h = xx.weak_add(&yy).weak_neg_wide();
        EdwardsPoint {
            x: e.mul(&f),
            y: g.mul(&h),
            z: f.mul(&g),
            t: if need_t {
                e.mul(&h)
            } else {
                FieldElement::ZERO
            },
        }
    }

    /// Negation: (x, y) → (−x, y).
    #[must_use]
    pub fn neg(&self) -> Self {
        EdwardsPoint {
            x: self.x.neg(),
            y: self.y,
            z: self.z,
            t: self.t.neg(),
        }
    }

    /// Constant-time fixed-base multiplication k·B through the shared
    /// precomputed basepoint table: 64 masked lookups + 64 cached
    /// additions, no doublings at all. Used by key generation and
    /// Schnorr signing.
    #[must_use]
    pub fn mul_basepoint(scalar: &Scalar) -> Self {
        let tables = basepoint_tables();
        let digits = scalar.radix16_digits();
        let mut acc = Self::identity();
        for (row, &digit) in tables.window.iter().zip(digits.iter()) {
            acc = acc.add_cached(&row.select(digit));
        }
        acc
    }

    /// Computes `k·a + s·B`, the verification equation, with one
    /// Straus/Shamir doubling chain: the width-5 NAF digits of `k` add
    /// odd multiples of `a` built per call, and the width-9 NAF digits of
    /// `s` ([`BASEPOINT_NAF_WINDOW`]) add entries of the static affine
    /// table of odd basepoint multiples. Fixed-size arrays only: nothing
    /// allocates. Doublings that feed another doubling skip the T output.
    ///
    /// **Variable-time**: digit positions leak through timing. It backs
    /// signature *verification* over public inputs; never use it with
    /// secret scalars.
    #[must_use]
    pub fn vartime_double_scalar_mul_basepoint(k: &Scalar, a: &Self, s: &Scalar) -> Self {
        let k_naf = k.non_adjacent_form(5);
        let s_naf = s.non_adjacent_form(BASEPOINT_NAF_WINDOW);
        let Some(top) = (0..256).rev().find(|&i| k_naf[i] != 0 || s_naf[i] != 0) else {
            return Self::identity();
        };
        let a_table = OddMultiples::new(a);
        let b_table = &basepoint_tables().wnaf;

        let mut acc = Self::identity();
        for i in (0..=top).rev() {
            let (kd, sd) = (k_naf[i], s_naf[i]);
            // T is read by the additions below and required on exit.
            acc = acc.double_internal(kd != 0 || sd != 0 || i == 0);
            // An add's own T output is consumed only by the basepoint
            // add at this digit position (the next doubling ignores T),
            // or by the caller when this is the final position.
            if kd != 0 {
                let entry = a_table.entry(kd.unsigned_abs());
                let need_t = sd != 0 || i == 0;
                acc = if kd > 0 {
                    acc.add_cached_internal(entry, need_t)
                } else {
                    acc.add_cached_internal(&entry.neg(), need_t)
                };
            }
            if sd != 0 {
                let entry = &b_table[usize::from(sd.unsigned_abs() / 2)];
                acc = if sd > 0 {
                    acc.add_affine_niels(entry, i == 0)
                } else {
                    acc.add_affine_niels(&entry.neg(), i == 0)
                };
            }
        }
        acc
    }

    /// Frozen seed implementation of point addition, kept verbatim as
    /// the reference oracle for the proptests. (The seed computed Z₁·Z₂
    /// twice; that redundancy is preserved deliberately — this function
    /// must not be optimized.)
    #[must_use]
    pub fn add_naive(&self, rhs: &Self) -> Self {
        let a = self.y.sub(&self.x).mul(&rhs.y.sub(&rhs.x));
        let b = self.y.add(&self.x).mul(&rhs.y.add(&rhs.x));
        let c = self.t.mul(&d2()).mul(&rhs.t);
        let dd = self.z.mul(&rhs.z).add(&self.z.mul(&rhs.z));
        let e = b.sub(&a);
        let f = dd.sub(&c);
        let g = dd.add(&c);
        let h = b.add(&a);
        EdwardsPoint {
            x: e.mul(&f),
            y: g.mul(&h),
            z: f.mul(&g),
            t: e.mul(&h),
        }
    }

    /// Frozen seed implementation of point doubling (reference oracle /
    /// bench baseline). The seed's `FieldElement::square` was a general
    /// multiplication, so the squarings here call `mul` explicitly to
    /// preserve the exact seed cost model; the Z² duplication is the
    /// seed's too. Must not be optimized.
    #[must_use]
    pub fn double_naive(&self) -> Self {
        let a = self.x.mul(&self.x);
        let b = self.y.mul(&self.y);
        let c = self.z.mul(&self.z).add(&self.z.mul(&self.z));
        let d = a.neg(); // a·X² with a = −1
        let e = self
            .x
            .add(&self.y)
            .mul(&self.x.add(&self.y))
            .sub(&a)
            .sub(&b);
        let g = d.add(&b);
        let f = g.sub(&c);
        let h = d.sub(&b);
        EdwardsPoint {
            x: e.mul(&f),
            y: g.mul(&h),
            z: f.mul(&g),
            t: e.mul(&h),
        }
    }

    /// Frozen seed scalar multiplication: MSB-first double-and-add over
    /// [`Scalar::bits_msb_first`]. Reference oracle for both fast paths
    /// (`scalar_mul_fast_paths_encode_identical_to_naive`).
    #[must_use]
    pub fn scalar_mul_naive(&self, scalar: &Scalar) -> Self {
        let mut acc = EdwardsPoint::identity();
        for bit in scalar.bits_msb_first() {
            acc = acc.double_naive();
            if bit {
                acc = acc.add_naive(self);
            }
        }
        acc
    }

    /// Frozen seed double-scalar multiplication `a·self + b·other`: two
    /// independent naive ladders plus one addition. Reference oracle for
    /// [`Self::vartime_double_scalar_mul_basepoint`].
    #[must_use]
    pub fn double_scalar_mul_naive(&self, a: &Scalar, other: &Self, b: &Scalar) -> Self {
        self.scalar_mul_naive(a)
            .add_naive(&other.scalar_mul_naive(b))
    }

    /// Whether this is the identity element.
    #[must_use]
    pub fn is_identity(&self) -> bool {
        // x = 0 and y = z.
        self.x.is_zero() && self.y == self.z
    }
}

impl PartialEq for EdwardsPoint {
    fn eq(&self, other: &Self) -> bool {
        // (X1/Z1, Y1/Z1) == (X2/Z2, Y2/Z2) ⇔ cross products match.
        self.x.mul(&other.z) == other.x.mul(&self.z) && self.y.mul(&other.z) == other.y.mul(&self.z)
    }
}

impl Eq for EdwardsPoint {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basepoint_is_on_curve() {
        let b = EdwardsPoint::basepoint();
        let (x, y) = b.to_affine();
        assert!(EdwardsPoint::from_affine(x, y).is_ok());
    }

    #[test]
    fn identity_laws() {
        let b = EdwardsPoint::basepoint();
        let id = EdwardsPoint::identity();
        assert_eq!(b.add(&id), b);
        assert_eq!(id.add(&b), b);
        assert!(id.is_identity());
        assert!(!b.is_identity());
    }

    #[test]
    fn double_matches_add() {
        let b = EdwardsPoint::basepoint();
        assert_eq!(b.double(), b.add(&b));
        let four = b.double().double();
        assert_eq!(four, b.add(&b).add(&b).add(&b));
    }

    #[test]
    fn neg_is_inverse() {
        let b = EdwardsPoint::basepoint();
        assert!(b.add(&b.neg()).is_identity());
    }

    #[test]
    fn scalar_mul_small() {
        let b = EdwardsPoint::basepoint();
        let mul = EdwardsPoint::mul_basepoint;
        assert!(mul(&Scalar::ZERO).is_identity());
        assert_eq!(mul(&Scalar::ONE), b);
        assert_eq!(mul(&Scalar::from_u64(2)), b.double());
        assert_eq!(mul(&Scalar::from_u64(5)), b.double().double().add(&b));
    }

    #[test]
    fn order_annihilates_basepoint() {
        // ℓ·B = identity.
        let b = EdwardsPoint::basepoint();
        // ℓ = L limbs; build ℓ−1 then add B once more.
        let l_minus_1 = Scalar::from_u64(1).neg();
        let almost = EdwardsPoint::mul_basepoint(&l_minus_1);
        assert!(almost.add(&b).is_identity());
    }

    #[test]
    fn scalar_mul_distributes() {
        let mul = EdwardsPoint::mul_basepoint;
        let a = Scalar::from_u64(123);
        let c = Scalar::from_u64(456);
        assert_eq!(mul(&a.add(&c)), mul(&a).add(&mul(&c)));
        assert_eq!(mul(&a.mul(&c)), mul(&a).scalar_mul_naive(&c));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let p = EdwardsPoint::mul_basepoint(&Scalar::from_u64(777));
        let enc = p.encode();
        let q = EdwardsPoint::decode(&enc).unwrap();
        assert_eq!(p, q);
        assert_eq!(q.encode(), enc);
    }

    #[test]
    fn decode_rejects_off_curve() {
        let mut enc = EdwardsPoint::basepoint().encode();
        enc[0] ^= 1; // perturb x
        assert_eq!(
            EdwardsPoint::decode(&enc),
            Err(CryptoError::InvalidEncoding)
        );
    }

    #[test]
    fn decode_rejects_noncanonical() {
        // Encode y = p (non-canonical zero) with x of the identity.
        let mut enc = [0u8; 64];
        enc[32] = 0xed;
        for b in enc[33..63].iter_mut() {
            *b = 0xff;
        }
        enc[63] = 0x7f;
        assert!(EdwardsPoint::decode(&enc).is_err());
    }

    #[test]
    fn double_scalar_mul_matches() {
        let p = EdwardsPoint::mul_basepoint(&Scalar::from_u64(31337));
        let k = Scalar::from_u64(99);
        let s = Scalar::from_u64(17);
        assert_eq!(
            EdwardsPoint::vartime_double_scalar_mul_basepoint(&k, &p, &s),
            p.scalar_mul_naive(&k).add(&EdwardsPoint::mul_basepoint(&s))
        );
    }

    /// A deterministic pseudo-random scalar for the equivalence tests.
    fn test_scalar(seed: u64) -> Scalar {
        let mut bytes = [0u8; 32];
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        for b in bytes.iter_mut() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *b = state as u8;
        }
        Scalar::from_bytes_mod_order(&bytes)
    }

    #[test]
    fn windowed_matches_naive_on_arbitrary_points() {
        // The width-5 window over odd multiples of an arbitrary point,
        // with no basepoint share.
        for seed in 0..8u64 {
            let k = test_scalar(seed);
            let p = EdwardsPoint::basepoint().scalar_mul_naive(&test_scalar(seed + 100));
            let fast = EdwardsPoint::vartime_double_scalar_mul_basepoint(&k, &p, &Scalar::ZERO);
            let slow = p.scalar_mul_naive(&k);
            assert_eq!(fast, slow, "seed {seed}");
            assert_eq!(fast.encode(), slow.encode(), "seed {seed}");
        }
    }

    #[test]
    fn basepoint_table_matches_naive() {
        let b = EdwardsPoint::basepoint();
        for seed in 0..8u64 {
            let s = test_scalar(seed);
            let fast = EdwardsPoint::mul_basepoint(&s);
            let slow = b.scalar_mul_naive(&s);
            assert_eq!(fast.encode(), slow.encode(), "seed {seed}");
        }
        // Edge digits: zero, one, ℓ−1 (all-253-bit), small powers of 16.
        for s in [
            Scalar::ZERO,
            Scalar::ONE,
            Scalar::from_u64(16),
            Scalar::from_u64(256),
            Scalar::from_u64(1).neg(),
        ] {
            assert_eq!(
                EdwardsPoint::mul_basepoint(&s).encode(),
                b.scalar_mul_naive(&s).encode(),
                "{s:?}"
            );
        }
    }

    #[test]
    fn straus_matches_naive() {
        let b = EdwardsPoint::basepoint();
        for seed in 0..6u64 {
            let k = test_scalar(seed);
            let s = test_scalar(seed + 50);
            let p = b.scalar_mul_naive(&test_scalar(seed + 200));
            // An arbitrary A, A = B and A = −B.
            for a in [p, b, b.neg()] {
                assert_eq!(
                    EdwardsPoint::vartime_double_scalar_mul_basepoint(&k, &a, &s).encode(),
                    b.double_scalar_mul_naive(&s, &a, &k).encode(),
                    "seed {seed}"
                );
            }
        }
    }

    #[test]
    fn straus_handles_zero_scalars() {
        let b = EdwardsPoint::basepoint();
        let p = EdwardsPoint::mul_basepoint(&Scalar::from_u64(7));
        let s = Scalar::from_u64(42);
        let mul = EdwardsPoint::vartime_double_scalar_mul_basepoint;
        assert!(mul(&Scalar::ZERO, &p, &Scalar::ZERO).is_identity());
        assert_eq!(mul(&Scalar::ZERO, &p, &s), EdwardsPoint::mul_basepoint(&s));
        assert_eq!(mul(&s, &p, &Scalar::ZERO), p.scalar_mul_naive(&s));
        // k·B − k·B: A = −B cancels the basepoint share exactly.
        assert!(mul(&s, &b.neg(), &s).is_identity());
    }

    #[test]
    fn wide_basepoint_naf_hits_table_extremes() {
        // Width-9 NAF digits reach ±255 (wnaf entry 127, the widened
        // table's last row). 255 recodes as a single digit; 257 as
        // [+1, 0…0, −255] — both must agree with the naive ladder.
        let b = EdwardsPoint::basepoint();
        let p = b.scalar_mul_naive(&test_scalar(7));
        let k = Scalar::from_u64(3);
        for v in [255u64, 257, 511, 0xffff_ffff] {
            let s = Scalar::from_u64(v);
            assert_eq!(
                EdwardsPoint::vartime_double_scalar_mul_basepoint(&k, &p, &s).encode(),
                b.double_scalar_mul_naive(&s, &p, &k).encode(),
                "s = {v}"
            );
        }
    }
}
