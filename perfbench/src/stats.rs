//! Order statistics over timing samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples`, linearly interpolated
/// between closest ranks; `NaN` for an empty set.
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

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// The per-position median across repetitions of one op sequence: entry
/// `j` is the median of the `j`-th op's latency over every repetition. A
/// burst of host noise that slows one repetition leaves it untouched.
/// Positions past the shortest repetition are dropped.
pub fn position_medians(reps: &[Vec<f64>]) -> Vec<f64> {
    let len = reps.iter().map(Vec::len).min().unwrap_or(0);
    (0..len)
        .map(|j| median(&reps.iter().map(|r| r[j]).collect::<Vec<_>>()))
        .collect()
}

/// The highest of p99 / p90 / p50 that leaves at least ten samples
/// beyond it, as `(percentile, value)`; a tail estimated from fewer
/// samples is noise, not a measurement.
pub fn tail(samples: &[f64]) -> (u32, f64) {
    for p in [99u32, 90] {
        // Samples beyond the p-th percentile: n · (100 − p) / 100 ≥ 10.
        if samples.len() * (100 - p as usize) >= 1000 {
            return (p, quantile(samples, f64::from(p) / 100.0));
        }
    }
    (50, median(samples))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&s), 2.5);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn position_medians_drop_a_slow_repetition() {
        let reps = vec![vec![1.0, 2.0], vec![1.0, 2.0], vec![9.0, 9.0]];
        assert_eq!(position_medians(&reps), vec![1.0, 2.0]);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let hundred: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail(&hundred).0, 90);
        let thousand: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&thousand).0, 99);
        assert_eq!(tail(&[1.0, 2.0]).0, 50);
    }
}
