//! Shared helpers for the benchmark harness.
//!
//! The table/figure regeneration binaries live in `src/bin/`. Each
//! binary prints the rows of one table or the series of one figure from
//! `EXPERIMENTS.md`. Performance is measured by the pathway benchmark
//! under `benchmark/`; the contracts behind its numbers are workspace
//! tests (`cargo test`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use silvasec::experiments::standard_config;
use silvasec::prelude::*;
use silvasec_channel::{HandshakePolicy, Identity, Initiator, Responder, Session};
use silvasec_crypto::schnorr::SigningKey;
use std::time::Instant;

/// Builds a two-party PKI and an established session pair, for the
/// channel-overhead binary (`exp6_overhead`).
#[must_use]
pub fn session_pair(seed: u8) -> (Session, Session) {
    let mut root = CertificateAuthority::new_root("root", &[seed; 32], Validity::new(0, 1_000_000));
    let store = TrustStore::with_roots([root.certificate().clone()]);
    let make = |id: &str, role, s: u8, root: &mut CertificateAuthority| {
        let key = SigningKey::from_seed(&[s; 32]);
        let cert = root.issue_mut(
            &Subject::new(id, role),
            &key.verifying_key(),
            KeyUsage::AUTHENTICATION,
            Validity::new(0, 500_000),
        );
        Identity::new(vec![cert], key)
    };
    let a = make(
        "a",
        ComponentRole::Forwarder,
        seed.wrapping_add(1),
        &mut root,
    );
    let b = make(
        "b",
        ComponentRole::BaseStation,
        seed.wrapping_add(2),
        &mut root,
    );
    let policy = HandshakePolicy::new(store, 100);
    let (init, hello) = Initiator::start(a, [seed.wrapping_add(3); 32], [seed.wrapping_add(4); 32]);
    let (resp, reply) = Responder::respond(
        b,
        &policy,
        &hello,
        [seed.wrapping_add(5); 32],
        [seed.wrapping_add(6); 32],
    )
    .expect("handshake");
    let (sa, finished) = init.finish(&policy, &reply).expect("finish");
    let sb = resp.complete(&finished).expect("complete");
    (sa, sb)
}

/// Formats a fraction as a percentage string.
#[must_use]
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Returns the median of a sample (mean of the middle two for even
/// sizes). Panics on an empty slice.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Flight-recorder overhead measured on the standard worksite episode
/// with interleaved enabled/disabled rounds (median of each arm), so a
/// frequency ramp or background load during the measurement biases
/// both arms equally instead of making the overhead look negative.
#[derive(Debug, Clone)]
pub struct RecorderOverhead {
    /// Simulated episode length, seconds.
    pub sim_secs: u64,
    /// Interleaved measurement rounds per arm.
    pub rounds: u32,
    /// Median wall-clock with the recorder enabled, seconds.
    pub enabled_wall_s: f64,
    /// Median wall-clock with the recorder disabled, seconds.
    pub disabled_wall_s: f64,
    /// Fractional wall-time overhead of recording, clamped at zero
    /// (`max(0, enabled / disabled - 1)`).
    pub overhead_frac: f64,
    /// Unclamped overhead; may dip below zero within the noise floor.
    pub raw_overhead_frac: f64,
    /// Measurement noise floor: relative half-spread of the disabled
    /// arm's round times. `raw_overhead_frac` within ±this of zero is
    /// indistinguishable from noise.
    pub noise_floor_frac: f64,
    /// Events recorded during the instrumented run.
    pub events: u64,
    /// Events recorded per wall-clock second.
    pub events_per_s: f64,
    /// Mean JSONL export size per flight-ring record, bytes.
    pub bytes_per_event: f64,
    /// Fraction of pushed records dropped by ring overflow.
    pub drop_rate: f64,
}

/// Measures recorder overhead on the standard secure worksite with
/// `rounds` interleaved enabled/disabled pairs.
#[must_use]
pub fn measure_recorder_overhead(seed: u64, sim_secs: u64, rounds: u32) -> RecorderOverhead {
    let rounds = rounds.max(1);
    let run = |enabled: bool| {
        let mut config = standard_config(SecurityPosture::secure());
        config.telemetry.enabled = enabled;
        let mut site = Worksite::new(&config, seed);
        let t = Instant::now();
        site.run(SimDuration::from_secs(sim_secs));
        (t.elapsed().as_secs_f64(), site)
    };
    // Warm-up pair (untimed): page in code and allocator state.
    let _ = run(true);
    let _ = run(false);
    let mut enabled_times = Vec::with_capacity(rounds as usize);
    let mut disabled_times = Vec::with_capacity(rounds as usize);
    let mut last_site = None;
    for _ in 0..rounds {
        let (t_on, site) = run(true);
        enabled_times.push(t_on);
        last_site = Some(site);
        let (t_off, _) = run(false);
        disabled_times.push(t_off);
    }
    let enabled_wall_s = median(&enabled_times);
    let disabled_wall_s = median(&disabled_times);
    let raw_overhead_frac = enabled_wall_s / disabled_wall_s.max(1e-9) - 1.0;
    let spread = disabled_times
        .iter()
        .fold(f64::NEG_INFINITY, |a, &b| a.max(b))
        - disabled_times.iter().fold(f64::INFINITY, |a, &b| a.min(b));
    let noise_floor_frac = spread / 2.0 / disabled_wall_s.max(1e-9);

    let site = last_site.expect("at least one round");
    let events = site.recorder().events_recorded();
    let jsonl = site.export_flight_jsonl();
    let lines = jsonl.lines().count();
    let stats = site.recorder().stats();
    let pushed: u64 = stats.iter().map(|s| s.pushed).sum();
    let dropped: u64 = stats.iter().map(|s| s.dropped).sum();
    RecorderOverhead {
        sim_secs,
        rounds,
        enabled_wall_s,
        disabled_wall_s,
        overhead_frac: raw_overhead_frac.max(0.0),
        raw_overhead_frac,
        noise_floor_frac,
        events,
        events_per_s: events as f64 / enabled_wall_s.max(1e-9),
        bytes_per_event: jsonl.len() as f64 / lines.max(1) as f64,
        drop_rate: if pushed == 0 {
            0.0
        } else {
            dropped as f64 / pushed as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_pair_works() {
        let (mut a, mut b) = session_pair(1);
        let rec = a.seal(b"x").unwrap();
        assert_eq!(b.open(&rec).unwrap(), b"x");
    }

    #[test]
    fn pct_format() {
        assert_eq!(pct(0.1234), "12.3%");
    }
}
