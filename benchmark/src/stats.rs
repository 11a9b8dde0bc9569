//! Order statistics for timing samples.

/// Linear-interpolated quantile `q` in `[0, 1]` of unsorted samples
/// (the "inclusive" definition: `q = 0` is the minimum, `q = 1` the
/// maximum). Returns `NaN` for no samples.
#[must_use]
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of unsorted samples (`NaN` for none).
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// First and third quartiles of unsorted samples.
#[must_use]
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    (quantile(samples, 0.25), quantile(samples, 0.75))
}

/// Percentiles a tail is reported at, in per-mille, highest first
/// (integers keep the nearest-rank arithmetic exact).
const TAIL_PER_MILLE: [usize; 3] = [999, 990, 900];

/// Samples that must rank above a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `per_mille / 10` of sorted samples, `None`
/// when fewer than [`TAIL_MIN_BEYOND`] samples rank above it.
fn nearest_rank(sorted: &[f64], per_mille: usize) -> Option<f64> {
    let n = sorted.len();
    let idx = (per_mille.min(1000) * n).div_ceil(1000).checked_sub(1)?;
    (n - 1 - idx >= TAIL_MIN_BEYOND).then(|| sorted[idx])
}

/// Nearest-rank percentile `per_mille / 10` of unsorted samples, `None`
/// when fewer than [`TAIL_MIN_BEYOND`] samples rank above it.
#[must_use]
pub fn percentile(samples: &[f64], per_mille: usize) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank(&sorted, per_mille)
}

/// The highest of p99.9 / p99 / p90 that leaves at least
/// [`TAIL_MIN_BEYOND`] samples above it, as `(percentile, value)`.
/// `None` when even p90 would have fewer than ten samples beyond it.
#[must_use]
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    TAIL_PER_MILLE
        .iter()
        .find_map(|&pm| Some((pm as f64 / 10.0, nearest_rank(&sorted, pm)?)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (2.0, 4.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 10 000 samples: p99.9 is the 9990th value, 10 above it.
        assert_eq!(tail(&ramp(10_000)), Some((99.9, 9_990.0)));
        // 9 999 samples: p99.9 would leave 9, so p99 (9900th, 99 above).
        assert_eq!(tail(&ramp(9_999)), Some((99.0, 9_900.0)));
        // 1 000 samples: p99 is the 990th value, exactly 10 above.
        assert_eq!(tail(&ramp(1_000)), Some((99.0, 990.0)));
        // 100 samples: p90 is the 90th value, 10 above.
        assert_eq!(tail(&ramp(100)), Some((90.0, 90.0)));
        // 99 samples: p90 is the 90th value, only 9 above.
        assert_eq!(tail(&ramp(99)), None);
        assert_eq!(tail(&[]), None);
        // A fixed percentile follows the same rule.
        assert_eq!(percentile(&ramp(1_000), 990), Some(990.0));
        assert_eq!(percentile(&ramp(1_000), 995), None);
        assert_eq!(percentile(&ramp(180), 900), Some(162.0));
        assert_eq!(percentile(&ramp(99), 900), None);
        for n in [100, 250, 999, 1_000, 5_000, 20_000] {
            let samples = ramp(n);
            let (_, value) = tail(&samples).unwrap();
            let beyond = samples.iter().filter(|&&s| s > value).count();
            assert!(beyond >= TAIL_MIN_BEYOND, "n={n}: {beyond} beyond");
        }
    }
}
