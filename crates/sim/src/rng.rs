//! The seeded simulation random number generator and distributions.
//!
//! [`SimRng`] wraps the crate-local ChaCha20 DRBG and adds the sampling
//! methods the world model needs. Independent subsystems fork labelled
//! child streams so that adding draws in one subsystem never perturbs
//! another — a prerequisite for meaningful ablation experiments.

use silvasec_crypto::drbg::ChaChaDrbg;

/// A deterministic random number generator for the simulation.
///
/// # Example
///
/// ```
/// use silvasec_sim::rng::SimRng;
///
/// let mut rng = SimRng::from_seed(42);
/// let mut comms = rng.fork("comms");
/// let mut attacks = rng.fork("attacks");
/// // The two streams are independent.
/// assert_ne!(comms.next_u64(), attacks.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: ChaChaDrbg,
    // Cached second Box–Muller sample.
    gauss_spare: Option<f64>,
}

impl SimRng {
    /// Creates a generator from a numeric seed.
    ///
    /// Allocation-free (the seed material is assembled on the stack):
    /// the episode-reset fast path re-seeds generators per episode and
    /// must stay at zero allocations.
    #[must_use]
    pub fn from_seed(seed: u64) -> Self {
        let mut material = [0u8; 24];
        material[..16].copy_from_slice(b"silvasec-sim-rng");
        material[16..].copy_from_slice(&seed.to_le_bytes());
        SimRng {
            inner: ChaChaDrbg::from_seed(&material),
            gauss_spare: None,
        }
    }

    /// Derives an independent labelled child generator.
    #[must_use]
    pub fn fork(&self, label: &str) -> Self {
        SimRng {
            inner: self.inner.fork(label.as_bytes()),
            gauss_spare: None,
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Uniform value in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        self.inner.next_f64()
    }

    /// Uniform value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is not finite.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo.is_finite() && hi.is_finite() && lo <= hi,
            "invalid range"
        );
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.inner.next_bounded(bound)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p.clamp(0.0, 1.0)
    }

    /// Standard normal sample (Box–Muller).
    pub fn gaussian(&mut self) -> f64 {
        if let Some(spare) = self.gauss_spare.take() {
            return spare;
        }
        // Avoid log(0).
        let u1 = loop {
            let v = self.uniform();
            if v > 1e-300 {
                break v;
            }
        };
        let u2 = self.uniform();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.gauss_spare = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal sample with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.gaussian()
    }

    /// Exponential sample with the given rate λ (mean 1/λ).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not positive.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "rate must be positive");
        let u = loop {
            let v = self.uniform();
            if v > 1e-300 {
                break v;
            }
        };
        -u.ln() / rate
    }

    /// Poisson sample with the given mean (Knuth's algorithm; suitable for
    /// the small means used by the world model).
    pub fn poisson(&mut self, mean: f64) -> u64 {
        if mean <= 0.0 {
            return 0;
        }
        let l = (-mean).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= self.uniform();
            if p <= l {
                return k;
            }
            k += 1;
            // Guard against pathological means.
            if k > 10_000_000 {
                return k;
            }
        }
    }

    /// Picks a uniformly random element of `items`, or `None` when empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            Some(&items[self.below(items.len() as u64) as usize])
        }
    }

    /// Fills `out` with pseudorandom bytes.
    pub fn fill_bytes(&mut self, out: &mut [u8]) {
        self.inner.fill_bytes(out);
    }

    /// Returns a fresh 32-byte seed (for keying crypto components).
    pub fn next_seed(&mut self) -> [u8; 32] {
        self.inner.next_seed()
    }
}

// ---------------------------------------------------------------------
// Stateless counter-based randomness.
//
// A full SimRng (ChaCha20 stream + fork labels) costs hundreds of bytes
// and a keyed setup per consumer; components that need one independent
// uniform draw per *counter tuple* — shadow fleet sites, ops queue
// backoff jitter — instead derive it from a splitmix64-style hash of
// (seed, id, …). Deterministic, order-independent, zero state.
// ---------------------------------------------------------------------

/// SplitMix64 finalizer: a cheap, well-mixed 64→64 bit hash.
#[must_use]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The `(b, c)` level of [`hash3`]: `hash3(a, b, c)` is
/// `mix64(a ^ hash2(b, c))`. A caller that draws for many `a` under one
/// `(b, c)` (many sites, one tick) computes this level once and pays one
/// [`mix64`] per draw.
#[must_use]
pub fn hash2(b: u64, c: u64) -> u64 {
    mix64(b ^ mix64(c))
}

/// Hash of three counters, suitable as an independent uniform draw per
/// `(a, b, c)` tuple.
#[must_use]
pub fn hash3(a: u64, b: u64, c: u64) -> u64 {
    mix64(a ^ hash2(b, c))
}

/// Maps a hash to a uniform draw in `[0, 1)` (53 mantissa bits).
#[must_use]
pub fn u01(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The integer form of the test `u01(h) < p`: for `p` in `[0, 1]` it
/// holds exactly when `h >> 11 < u01_threshold(p)`. Both sides of the
/// float test are exact (`h >> 11` has 53 bits, and scaling `p` by
/// `2⁵³` only moves its exponent), so the cut is `ceil(p · 2⁵³)`.
#[must_use]
pub fn u01_threshold(p: f64) -> u64 {
    (p * (1u64 << 53) as f64).ceil() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let mut a = SimRng::from_seed(1);
        let mut b = SimRng::from_seed(1);
        for _ in 0..50 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn forks_are_stable_and_independent() {
        let root = SimRng::from_seed(1);
        let mut f1 = root.fork("a");
        let mut f1_again = root.fork("a");
        let mut f2 = root.fork("b");
        assert_eq!(f1.next_u64(), f1_again.next_u64());
        assert_ne!(f1.next_u64(), f2.next_u64());
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = SimRng::from_seed(2);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.gaussian()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn exponential_mean() {
        let mut rng = SimRng::from_seed(3);
        let n = 20_000;
        let mean = (0..n).map(|_| rng.exponential(2.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn poisson_mean() {
        let mut rng = SimRng::from_seed(4);
        let n = 10_000;
        let mean = (0..n).map(|_| rng.poisson(3.0) as f64).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.15, "mean {mean}");
        assert_eq!(rng.poisson(0.0), 0);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::from_seed(5);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-0.5));
        assert!(rng.chance(1.5));
    }

    #[test]
    fn choose_behaviour() {
        let mut rng = SimRng::from_seed(6);
        let empty: [u32; 0] = [];
        assert_eq!(rng.choose(&empty), None);
        let one = [42u32];
        assert_eq!(rng.choose(&one), Some(&42));
        let many = [1u32, 2, 3];
        for _ in 0..20 {
            assert!(many.contains(rng.choose(&many).unwrap()));
        }
    }

    #[test]
    fn stateless_hash_is_deterministic_and_uniform() {
        assert_eq!(mix64(42), mix64(42));
        assert_ne!(mix64(42), mix64(43));
        assert_eq!(u01(hash3(1, 2, 3)), u01(hash3(1, 2, 3)));
        assert_ne!(u01(hash3(1, 2, 3)), u01(hash3(1, 2, 4)));
        let n = 10_000u64;
        let mean: f64 = (0..n).map(|i| u01(mix64(i))).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
        for i in 0..1_000u64 {
            let v = u01(mix64(i));
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn uniform_range_bounds() {
        let mut rng = SimRng::from_seed(7);
        for _ in 0..1000 {
            let v = rng.uniform_range(-5.0, 3.0);
            assert!((-5.0..3.0).contains(&v));
        }
        assert_eq!(rng.uniform_range(2.0, 2.0), 2.0);
    }
}
