//! Sample statistics: median, percentiles, geometric mean, and the rule
//! for the highest percentile worth reporting.

/// Sorts a copy of the samples (NaN-free by construction: every sample
/// is a measured duration or a count).
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// Percentile `p` in `[0, 100]` by linear interpolation between closest
/// ranks (the "inclusive" definition: p=0 is the minimum, p=100 the
/// maximum). Panics on an empty sample set — every caller guards it,
/// because a metric without samples is a harness bug, not a number.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample set");
    let v = sorted(samples);
    let rank = p.clamp(0.0, 100.0) / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Geometric mean of strictly positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of an empty set");
    assert!(
        values.iter().all(|&v| v > 0.0),
        "geomean needs positive values, got {values:?}"
    );
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// The highest of p90 / p99 / p99.9 that still has at least ten samples
/// beyond it; `None` when even p90 does not (fewer than 100 samples),
/// in which case only the median is reported.
pub fn highest_percentile(n: usize) -> Option<f64> {
    // (percentile, samples per sample beyond it)
    [(99.9, 1000), (99.0, 100), (90.0, 10)]
        .into_iter()
        .find(|&(_, per)| n >= 10 * per)
        .map(|(p, _)| p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_single() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn percentile_interpolates_and_clamps() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 90.0), 91.0);
        assert_eq!(percentile(&v, 100.0), 101.0);
        assert_eq!(percentile(&v, 250.0), 101.0);
        assert_eq!(percentile(&[10.0, 20.0], 25.0), 12.5);
    }

    #[test]
    #[should_panic(expected = "empty sample set")]
    fn percentile_of_nothing_panics() {
        percentile(&[], 50.0);
    }

    #[test]
    fn geomean_is_scale_symmetric() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[0.5, 2.0]) - 1.0).abs() < 1e-12);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive values")]
    fn geomean_rejects_zero() {
        geomean(&[1.0, 0.0]);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        assert_eq!(highest_percentile(99), None);
        assert_eq!(highest_percentile(100), Some(90.0));
        assert_eq!(highest_percentile(999), Some(90.0));
        assert_eq!(highest_percentile(1000), Some(99.0));
        assert_eq!(highest_percentile(9999), Some(99.0));
        assert_eq!(highest_percentile(10_000), Some(99.9));
    }
}
