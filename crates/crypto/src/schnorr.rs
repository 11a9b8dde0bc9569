//! Schnorr signatures over the edwards25519 group.
//!
//! The scheme is Ed25519's structure — deterministic nonce, challenge
//! e = H(R ‖ A ‖ m), response s = r + e·a — with two documented deviations:
//!
//! 1. Points use the uncompressed 64-byte encoding from [`crate::edwards`]
//!    (no field square root needed), so a signature is 96 bytes
//!    (R: 64 ‖ s: 32) and a public key is 64 bytes.
//! 2. SHA-256 (via HKDF/HMAC domain separation) replaces SHA-512.
//!
//! Security-wise this is standard Fiat–Shamir Schnorr on a prime-order
//! subgroup; verification checks `s·B == R + e·A`.

use crate::edwards::{EdwardsPoint, POINT_LEN};
use crate::error::CryptoError;
use crate::hkdf;
use crate::hmac::HmacSha256;
use crate::scalar::Scalar;
use crate::sha256::Sha256;

/// Length of a serialized signature in bytes.
pub const SIGNATURE_LEN: usize = POINT_LEN + 32;
/// Length of a serialized verifying (public) key in bytes.
pub const PUBLIC_KEY_LEN: usize = POINT_LEN;
/// Length of a signing-key seed in bytes.
pub const SEED_LEN: usize = 32;

/// A Schnorr signature (R ‖ s).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Signature {
    /// The commitment point R, uncompressed.
    pub r_bytes: [u8; POINT_LEN],
    /// The response scalar s.
    pub s_bytes: [u8; 32],
}

impl Signature {
    /// Serializes the signature to 96 bytes.
    #[must_use]
    pub fn to_bytes(&self) -> [u8; SIGNATURE_LEN] {
        let mut out = [0u8; SIGNATURE_LEN];
        out[..POINT_LEN].copy_from_slice(&self.r_bytes);
        out[POINT_LEN..].copy_from_slice(&self.s_bytes);
        out
    }

    /// Parses a signature from 96 bytes.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidLength`] when `bytes` is not exactly
    /// [`SIGNATURE_LEN`] bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CryptoError> {
        if bytes.len() != SIGNATURE_LEN {
            return Err(CryptoError::InvalidLength {
                expected: SIGNATURE_LEN,
                actual: bytes.len(),
            });
        }
        let mut r_bytes = [0u8; POINT_LEN];
        let mut s_bytes = [0u8; 32];
        r_bytes.copy_from_slice(&bytes[..POINT_LEN]);
        s_bytes.copy_from_slice(&bytes[POINT_LEN..]);
        Ok(Signature { r_bytes, s_bytes })
    }
}

/// A verifying (public) key.
///
/// # Example
///
/// ```
/// use silvasec_crypto::schnorr::SigningKey;
///
/// let sk = SigningKey::from_seed(&[1u8; 32]);
/// let vk = sk.verifying_key();
/// let sig = sk.sign(b"firmware image digest");
/// assert!(vk.verify(b"firmware image digest", &sig).is_ok());
/// assert!(vk.verify(b"other message", &sig).is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyingKey {
    point: EdwardsPoint,
    encoded: [u8; PUBLIC_KEY_LEN],
}

impl VerifyingKey {
    /// Parses a verifying key from its 64-byte encoding.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidEncoding`] if the bytes are not a
    /// valid curve point.
    pub fn from_bytes(bytes: &[u8; PUBLIC_KEY_LEN]) -> Result<Self, CryptoError> {
        let point = EdwardsPoint::decode(bytes)?;
        if point.is_identity() {
            return Err(CryptoError::InvalidEncoding);
        }
        Ok(VerifyingKey {
            point,
            encoded: *bytes,
        })
    }

    /// The 64-byte encoding of this key.
    #[must_use]
    pub fn to_bytes(&self) -> [u8; PUBLIC_KEY_LEN] {
        self.encoded
    }

    /// Verifies `signature` over `message`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::VerificationFailed`] if the signature is not
    /// valid for this key and message, or [`CryptoError::InvalidEncoding`]
    /// if R is not a valid point.
    pub fn verify(&self, message: &[u8], signature: &Signature) -> Result<(), CryptoError> {
        let r = EdwardsPoint::decode(&signature.r_bytes)?;
        let s = Scalar::from_bytes_mod_order(&signature.s_bytes);
        // Reject non-canonical s (s must already be < ℓ).
        if s.to_bytes() != signature.s_bytes {
            return Err(CryptoError::VerificationFailed);
        }
        let e = challenge(&signature.r_bytes, &self.encoded, message);
        // s·B == R + e·A, checked as −e·A + s·B == R so both scalar
        // multiplications share one Straus/Shamir doubling chain (all
        // inputs here are public, so the variable-time path is fine).
        let v = EdwardsPoint::vartime_double_scalar_mul_basepoint(&e.neg(), &self.point, &s);
        if v == r {
            Ok(())
        } else {
            Err(CryptoError::VerificationFailed)
        }
    }
}

/// A signing (private) key derived deterministically from a 32-byte seed.
#[derive(Clone)]
pub struct SigningKey {
    secret: Scalar,
    prf_key: [u8; 32],
    verifying: VerifyingKey,
}

impl std::fmt::Debug for SigningKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print secret material.
        f.debug_struct("SigningKey")
            .field("verifying", &self.verifying)
            .finish_non_exhaustive()
    }
}

fn challenge(r_enc: &[u8; POINT_LEN], a_enc: &[u8; PUBLIC_KEY_LEN], message: &[u8]) -> Scalar {
    let mut h = Sha256::new();
    h.update(b"silvasec-schnorr-v1");
    h.update(r_enc);
    h.update(a_enc);
    h.update(message);
    let d1 = h.finalize();
    // Widen to 64 bytes for uniform reduction mod ℓ.
    let mut h2 = Sha256::new();
    h2.update(b"silvasec-schnorr-v1-widen");
    h2.update(&d1);
    let d2 = h2.finalize();
    let mut wide = [0u8; 64];
    wide[..32].copy_from_slice(&d1);
    wide[32..].copy_from_slice(&d2);
    Scalar::from_bytes_mod_order_wide(&wide)
}

impl SigningKey {
    /// Derives a signing key from a 32-byte seed.
    #[must_use]
    pub fn from_seed(seed: &[u8; SEED_LEN]) -> Self {
        let mut okm = [0u8; 96];
        hkdf::derive(b"silvasec-schnorr-keygen", seed, b"key-expansion", &mut okm);
        let mut wide = [0u8; 64];
        wide.copy_from_slice(&okm[..64]);
        let secret = Scalar::from_bytes_mod_order_wide(&wide);
        let mut prf_key = [0u8; 32];
        prf_key.copy_from_slice(&okm[64..]);

        let point = EdwardsPoint::mul_basepoint(&secret);
        let encoded = point.encode();
        SigningKey {
            secret,
            prf_key,
            verifying: VerifyingKey { point, encoded },
        }
    }

    /// The verifying key corresponding to this signing key.
    #[must_use]
    pub fn verifying_key(&self) -> VerifyingKey {
        self.verifying
    }

    /// Signs `message` deterministically (RFC 6979-style nonce derivation).
    #[must_use]
    pub fn sign(&self, message: &[u8]) -> Signature {
        // r = H(prf_key, message) widened, reduced mod ℓ.
        let mut mac1 = HmacSha256::new(&self.prf_key);
        mac1.update(b"nonce-1");
        mac1.update(message);
        let t1 = mac1.finalize();
        let mut mac2 = HmacSha256::new(&self.prf_key);
        mac2.update(b"nonce-2");
        mac2.update(message);
        let t2 = mac2.finalize();
        let mut wide = [0u8; 64];
        wide[..32].copy_from_slice(&t1);
        wide[32..].copy_from_slice(&t2);
        let mut r = Scalar::from_bytes_mod_order_wide(&wide);
        if r.is_zero() {
            // Vanishingly unlikely; nudge to 1 to keep R a valid point.
            r = Scalar::ONE;
        }

        let r_point = EdwardsPoint::mul_basepoint(&r);
        let r_bytes = r_point.encode();
        let e = challenge(&r_bytes, &self.verifying.encoded, message);
        let s = r.add(&e.mul(&self.secret));
        Signature {
            r_bytes,
            s_bytes: s.to_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_verify_roundtrip() {
        let sk = SigningKey::from_seed(&[42u8; 32]);
        let vk = sk.verifying_key();
        for msg in [&b""[..], b"a", b"forwarder stop command", &[0u8; 1000]] {
            let sig = sk.sign(msg);
            assert!(vk.verify(msg, &sig).is_ok());
        }
    }

    #[test]
    fn deterministic_signatures() {
        let sk = SigningKey::from_seed(&[1u8; 32]);
        assert_eq!(sk.sign(b"m"), sk.sign(b"m"));
        assert_ne!(sk.sign(b"m"), sk.sign(b"n"));
    }

    #[test]
    fn wrong_message_rejected() {
        let sk = SigningKey::from_seed(&[2u8; 32]);
        let sig = sk.sign(b"original");
        assert_eq!(
            sk.verifying_key().verify(b"forged", &sig),
            Err(CryptoError::VerificationFailed)
        );
    }

    #[test]
    fn wrong_key_rejected() {
        let sk1 = SigningKey::from_seed(&[3u8; 32]);
        let sk2 = SigningKey::from_seed(&[4u8; 32]);
        let sig = sk1.sign(b"m");
        assert!(sk2.verifying_key().verify(b"m", &sig).is_err());
    }

    #[test]
    fn tampered_signature_rejected() {
        let sk = SigningKey::from_seed(&[5u8; 32]);
        let sig = sk.sign(b"m");
        let bytes = sig.to_bytes();
        for i in (0..bytes.len()).step_by(7) {
            let mut bad = bytes;
            bad[i] ^= 0x40;
            let parsed = Signature::from_bytes(&bad).unwrap();
            assert!(
                sk.verifying_key().verify(b"m", &parsed).is_err(),
                "tamper at byte {i} accepted"
            );
        }
    }

    #[test]
    fn signature_serialization_roundtrip() {
        let sk = SigningKey::from_seed(&[6u8; 32]);
        let sig = sk.sign(b"m");
        let parsed = Signature::from_bytes(&sig.to_bytes()).unwrap();
        assert_eq!(parsed, sig);
        assert!(Signature::from_bytes(&[0u8; 95]).is_err());
    }

    #[test]
    fn verifying_key_roundtrip_and_validation() {
        let sk = SigningKey::from_seed(&[7u8; 32]);
        let vk = sk.verifying_key();
        let parsed = VerifyingKey::from_bytes(&vk.to_bytes()).unwrap();
        assert_eq!(parsed, vk);
        // Identity is rejected as a public key.
        let id_enc = crate::edwards::EdwardsPoint::identity().encode();
        assert!(VerifyingKey::from_bytes(&id_enc).is_err());
        // Garbage is rejected.
        assert!(VerifyingKey::from_bytes(&[9u8; 64]).is_err());
    }

    #[test]
    fn noncanonical_s_rejected() {
        // Take a valid signature and add ℓ to s (non-canonical but
        // algebraically equivalent) — must be rejected to prevent
        // malleability.
        let sk = SigningKey::from_seed(&[8u8; 32]);
        let sig = sk.sign(b"m");
        let s = Scalar::from_bytes_mod_order(&sig.s_bytes);
        // s + ℓ as raw 256-bit addition (may overflow 256 bits for large s;
        // skip the check in that case).
        let mut carry = 0u128;
        let mut raw = [0u64; 4];
        let s_limbs = {
            let b = s.to_bytes();
            let mut l = [0u64; 4];
            for (i, chunk) in b.chunks_exact(8).enumerate() {
                l[i] = u64::from_le_bytes(chunk.try_into().unwrap());
            }
            l
        };
        for i in 0..4 {
            let v = u128::from(s_limbs[i]) + u128::from(crate::scalar::L[i]) + carry;
            raw[i] = v as u64;
            carry = v >> 64;
        }
        if carry == 0 {
            let mut s_bytes = [0u8; 32];
            for (i, limb) in raw.iter().enumerate() {
                s_bytes[8 * i..8 * i + 8].copy_from_slice(&limb.to_le_bytes());
            }
            let bad = Signature {
                r_bytes: sig.r_bytes,
                s_bytes,
            };
            assert!(sk.verifying_key().verify(b"m", &bad).is_err());
        }
    }

    #[test]
    fn debug_hides_secret() {
        let sk = SigningKey::from_seed(&[9u8; 32]);
        let dbg = format!("{sk:?}");
        assert!(dbg.contains("SigningKey"));
        assert!(!dbg.contains("secret"));
    }
}
