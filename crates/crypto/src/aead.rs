//! The ChaCha20-Poly1305 AEAD construction (RFC 7539 section 2.8).
//!
//! Alongside the original allocating [`seal`]/[`open`] (kept frozen as
//! [`seal_naive`]/[`open_naive`] reference oracles), this module offers
//! one-pass in-place APIs: [`seal_in_place`] encrypts and MACs in a
//! single sweep over the caller's buffer, and [`open_in_place`]
//! verifies and decrypts the same way. The sweep works in
//! keystream-sized chunks so each chunk is touched once while cache-hot,
//! and every Poly1305 absorption lands on the copyless full-block path
//! (the AAD padding aligns the MAC to a block boundary before the
//! ciphertext starts).
//!
//! [`seal`]: ChaCha20Poly1305::seal
//! [`open`]: ChaCha20Poly1305::open
//! [`seal_naive`]: ChaCha20Poly1305::seal_naive
//! [`open_naive`]: ChaCha20Poly1305::open_naive
//! [`seal_in_place`]: ChaCha20Poly1305::seal_in_place
//! [`open_in_place`]: ChaCha20Poly1305::open_in_place

use crate::chacha20::{ChaCha20, BLOCK_LEN, KEY_LEN, NONCE_LEN, WIDE_BLOCKS};
use crate::ct;
use crate::error::CryptoError;
use crate::poly1305::{Poly1305, TAG_LEN};

/// Bytes processed per step of the one-pass sweep: one wide keystream
/// call, and a multiple of the Poly1305 block size so the MAC stays on
/// its copyless path across chunk boundaries.
const SWEEP_CHUNK: usize = WIDE_BLOCKS * BLOCK_LEN;

/// An authenticated cipher bound to one 256-bit key.
///
/// Each (key, nonce) pair must be used at most once for sealing; the secure
/// channel layer guarantees this with strictly increasing sequence numbers.
///
/// # Example
///
/// ```
/// use silvasec_crypto::aead::ChaCha20Poly1305;
///
/// let aead = ChaCha20Poly1305::new(&[9u8; 32]);
/// let ct = aead.seal(&[0; 12], b"frame header", b"emergency stop");
/// assert_eq!(aead.open(&[0; 12], b"frame header", &ct).unwrap(), b"emergency stop");
/// assert!(aead.open(&[1; 12], b"frame header", &ct).is_err());
/// ```
#[derive(Debug, Clone)]
pub struct ChaCha20Poly1305 {
    cipher: ChaCha20,
}

impl ChaCha20Poly1305 {
    /// Creates an AEAD instance from a 32-byte key.
    #[must_use]
    pub fn new(key: &[u8; KEY_LEN]) -> Self {
        ChaCha20Poly1305 {
            cipher: ChaCha20::new(key),
        }
    }

    /// Starts the record MAC: derives the one-time Poly1305 key from
    /// keystream block 0 and absorbs the AAD plus its padding, leaving
    /// the MAC block-aligned for the ciphertext sweep.
    fn mac_init(&self, nonce: &[u8; NONCE_LEN], aad: &[u8]) -> Poly1305 {
        // One-time Poly1305 key = first 32 bytes of keystream block 0.
        let block0 = self.cipher.block(nonce, 0);
        let mut otk = [0u8; 32];
        otk.copy_from_slice(&block0[..32]);

        let mut mac = Poly1305::new(&otk);
        mac.update(aad);
        mac.update(&[0u8; 16][..(16 - aad.len() % 16) % 16]);
        mac
    }

    /// Finishes the record MAC: ciphertext padding plus the two length
    /// words.
    fn mac_finish(mut mac: Poly1305, aad_len: usize, ct_len: usize) -> [u8; TAG_LEN] {
        mac.update(&[0u8; 16][..(16 - ct_len % 16) % 16]);
        mac.update(&(aad_len as u64).to_le_bytes());
        mac.update(&(ct_len as u64).to_le_bytes());
        mac.finalize()
    }

    fn tag(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], ciphertext: &[u8]) -> [u8; TAG_LEN] {
        let mut mac = self.mac_init(nonce, aad);
        mac.update(ciphertext);
        Self::mac_finish(mac, aad.len(), ciphertext.len())
    }

    /// Encrypts `plaintext` bound to `aad`, returning ciphertext || tag.
    ///
    /// Allocates once (exactly `plaintext.len() + overhead()`), then
    /// runs the same one-pass sweep as [`seal_in_place`].
    ///
    /// [`seal_in_place`]: ChaCha20Poly1305::seal_in_place
    #[must_use]
    pub fn seal(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(plaintext.len() + TAG_LEN);
        out.extend_from_slice(plaintext);
        self.seal_in_place(nonce, aad, &mut out);
        out
    }

    /// One-pass in-place seal: encrypts the plaintext in `buf` and
    /// appends the tag, touching each chunk of the buffer once —
    /// keystream XOR immediately followed by MAC absorption while the
    /// chunk is cache-hot. Reserves exactly [`overhead`] extra bytes, so
    /// a caller that reuses a warm buffer never reallocates.
    ///
    /// Bit-identical to the frozen [`seal_naive`] oracle (the
    /// `aead_in_place_matches_two_pass` proptest).
    ///
    /// [`overhead`]: ChaCha20Poly1305::overhead
    /// [`seal_naive`]: ChaCha20Poly1305::seal_naive
    pub fn seal_in_place(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], buf: &mut Vec<u8>) {
        buf.reserve_exact(TAG_LEN);
        let tag = self.seal_detached(nonce, aad, buf);
        buf.extend_from_slice(&tag);
    }

    /// Detached-tag variant of [`seal_in_place`]: encrypts `buf` in
    /// place with the same one-pass sweep and returns the tag instead of
    /// appending it, for callers that frame ciphertext and tag
    /// themselves (e.g. the record layer, which prefixes a header).
    ///
    /// [`seal_in_place`]: ChaCha20Poly1305::seal_in_place
    pub fn seal_detached(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        buf: &mut [u8],
    ) -> [u8; TAG_LEN] {
        let mut mac = self.mac_init(nonce, aad);
        let mut counter: u32 = 1;
        for chunk in buf.chunks_mut(SWEEP_CHUNK) {
            self.cipher.apply_keystream_inplace(nonce, counter, chunk);
            mac.update(chunk);
            counter = counter.wrapping_add((SWEEP_CHUNK / BLOCK_LEN) as u32);
        }
        Self::mac_finish(mac, aad.len(), buf.len())
    }

    /// Decrypts and verifies `sealed` (ciphertext || tag) bound to `aad`.
    ///
    /// Runs the same one-pass sweep as [`open_in_place`] after one exact
    /// allocation for the plaintext.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::VerificationFailed`] if the tag does not
    /// verify, and [`CryptoError::InvalidLength`] if `sealed` is shorter
    /// than a tag.
    ///
    /// [`open_in_place`]: ChaCha20Poly1305::open_in_place
    pub fn open(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        sealed: &[u8],
    ) -> Result<Vec<u8>, CryptoError> {
        if sealed.len() < TAG_LEN {
            return Err(CryptoError::InvalidLength {
                expected: TAG_LEN,
                actual: sealed.len(),
            });
        }
        let mut out = Vec::with_capacity(sealed.len());
        out.extend_from_slice(sealed);
        self.open_in_place(nonce, aad, &mut out)?;
        Ok(out)
    }

    /// One-pass in-place open: `buf` holds ciphertext || tag; each chunk
    /// is absorbed into the MAC and decrypted in the same sweep, then
    /// the tag is compared in constant time. On success `buf` is
    /// truncated to the plaintext. On failure the buffer is zeroed and
    /// truncated to empty — the speculative plaintext of a forged record
    /// never survives the call.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::VerificationFailed`] if the tag does not
    /// verify, and [`CryptoError::InvalidLength`] if `buf` is shorter
    /// than a tag.
    pub fn open_in_place(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        buf: &mut Vec<u8>,
    ) -> Result<(), CryptoError> {
        if buf.len() < TAG_LEN {
            return Err(CryptoError::InvalidLength {
                expected: TAG_LEN,
                actual: buf.len(),
            });
        }
        let ct_len = buf.len() - TAG_LEN;
        let (ciphertext, tag) = buf.split_at_mut(ct_len);
        match self.open_detached(nonce, aad, ciphertext, tag) {
            Ok(()) => {
                buf.truncate(ct_len);
                Ok(())
            }
            Err(e) => {
                // The ciphertext region is already zeroed; drop the tag
                // bytes too.
                buf.clear();
                Err(e)
            }
        }
    }

    /// Detached-tag variant of [`open_in_place`]: `buf` holds ciphertext
    /// only, with the tag supplied separately. On success `buf` holds
    /// the plaintext; on verification failure it is zeroed.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::VerificationFailed`] if the tag does not
    /// verify.
    ///
    /// [`open_in_place`]: ChaCha20Poly1305::open_in_place
    pub fn open_detached(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        buf: &mut [u8],
        tag: &[u8],
    ) -> Result<(), CryptoError> {
        let mut mac = self.mac_init(nonce, aad);
        let mut counter: u32 = 1;
        for chunk in buf.chunks_mut(SWEEP_CHUNK) {
            mac.update(chunk);
            self.cipher.apply_keystream_inplace(nonce, counter, chunk);
            counter = counter.wrapping_add((SWEEP_CHUNK / BLOCK_LEN) as u32);
        }
        let expected = Self::mac_finish(mac, aad.len(), buf.len());
        if !ct::eq(&expected, tag) {
            buf.iter_mut().for_each(|b| *b = 0);
            return Err(CryptoError::VerificationFailed);
        }
        Ok(())
    }

    /// Frozen naive reference oracle for [`seal`]: the original
    /// two-pass, allocating implementation on top of the frozen
    /// per-block keystream. Deliberately unoptimized — the
    /// `aead_in_place_matches_two_pass` proptest checks the one-pass
    /// path against it.
    ///
    /// [`seal`]: ChaCha20Poly1305::seal
    #[must_use]
    pub fn seal_naive(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        let mut out = plaintext.to_vec();
        self.cipher.apply_keystream_naive(nonce, 1, &mut out);
        let tag = self.tag(nonce, aad, &out);
        out.extend_from_slice(&tag);
        out
    }

    /// Frozen naive reference oracle for [`open`]: tag over the whole
    /// ciphertext first, then a separate decryption pass through the
    /// frozen per-block keystream.
    ///
    /// # Errors
    ///
    /// Same contract as [`open`].
    ///
    /// [`open`]: ChaCha20Poly1305::open
    pub fn open_naive(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        sealed: &[u8],
    ) -> Result<Vec<u8>, CryptoError> {
        if sealed.len() < TAG_LEN {
            return Err(CryptoError::InvalidLength {
                expected: TAG_LEN,
                actual: sealed.len(),
            });
        }
        let (ciphertext, tag) = sealed.split_at(sealed.len() - TAG_LEN);
        let expected = self.tag(nonce, aad, ciphertext);
        if !ct::eq(&expected, tag) {
            return Err(CryptoError::VerificationFailed);
        }
        let mut out = ciphertext.to_vec();
        self.cipher.apply_keystream_naive(nonce, 1, &mut out);
        Ok(out)
    }

    /// The number of bytes `seal` adds to a plaintext.
    #[must_use]
    pub const fn overhead() -> usize {
        TAG_LEN
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

    // RFC 7539 section 2.8.2 AEAD test vector.
    #[test]
    fn rfc7539_aead_vector() {
        let key: [u8; 32] =
            unhex("808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f")
                .try_into()
                .unwrap();
        let nonce: [u8; 12] = unhex("070000004041424344454647").try_into().unwrap();
        let aad = unhex("50515253c0c1c2c3c4c5c6c7");
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you \
only one tip for the future, sunscreen would be it.";

        let sealed = ChaCha20Poly1305::new(&key).seal(&nonce, &aad, plaintext);
        let (ct, tag) = sealed.split_at(sealed.len() - 16);
        assert_eq!(hex(&ct[..16]), "d31a8d34648e60db7b86afbc53ef7ec2");
        assert_eq!(hex(tag), "1ae10b594f09e26a7e902ecbd0600691");

        let opened = ChaCha20Poly1305::new(&key)
            .open(&nonce, &aad, &sealed)
            .unwrap();
        assert_eq!(opened, plaintext);
    }

    #[test]
    fn tampering_detected_everywhere() {
        let aead = ChaCha20Poly1305::new(&[5u8; 32]);
        let sealed = aead.seal(&[0; 12], b"aad", b"payload");
        for i in 0..sealed.len() {
            let mut bad = sealed.clone();
            bad[i] ^= 0x01;
            assert!(
                aead.open(&[0; 12], b"aad", &bad).is_err(),
                "byte {i} tamper missed"
            );
        }
    }

    #[test]
    fn wrong_aad_rejected() {
        let aead = ChaCha20Poly1305::new(&[5u8; 32]);
        let sealed = aead.seal(&[0; 12], b"header-a", b"payload");
        assert!(aead.open(&[0; 12], b"header-b", &sealed).is_err());
    }

    #[test]
    fn empty_plaintext_and_aad() {
        let aead = ChaCha20Poly1305::new(&[5u8; 32]);
        let sealed = aead.seal(&[2; 12], b"", b"");
        assert_eq!(sealed.len(), ChaCha20Poly1305::overhead());
        assert_eq!(aead.open(&[2; 12], b"", &sealed).unwrap(), b"");
    }

    #[test]
    fn short_input_is_invalid_length() {
        let aead = ChaCha20Poly1305::new(&[5u8; 32]);
        assert_eq!(
            aead.open(&[0; 12], b"", &[0u8; 15]),
            Err(CryptoError::InvalidLength {
                expected: 16,
                actual: 15
            })
        );
    }

    #[test]
    fn roundtrip_various_lengths() {
        let aead = ChaCha20Poly1305::new(&[8u8; 32]);
        for len in [0usize, 1, 15, 16, 17, 64, 100, 1000] {
            let pt: Vec<u8> = (0..len).map(|i| (i % 256) as u8).collect();
            let sealed = aead.seal(&[3; 12], b"a", &pt);
            assert_eq!(aead.open(&[3; 12], b"a", &sealed).unwrap(), pt, "len {len}");
        }
    }
}
