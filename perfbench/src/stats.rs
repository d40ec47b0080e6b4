//! Order statistics with a sample-sufficiency rule.
//!
//! A tail percentile is only worth printing when enough samples lie
//! beyond it: with fewer than [`MIN_BEYOND`] samples past the rank, the
//! "p90" of one run is a handful of outliers and moves from run to run
//! for no reason in the code. [`Percentiles::p90`] is therefore `None`
//! until the population is large enough (100 samples), and a run whose
//! read population never gets there fails instead of printing one.

/// Samples that must lie strictly beyond a percentile's rank before the
/// percentile is reported.
pub const MIN_BEYOND: usize = 10;

/// Median and p90 of one latency population, in milliseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct Percentiles {
    /// Number of samples.
    pub n: usize,
    /// Median (mean of the middle pair for even `n`).
    pub p50: f64,
    /// Nearest-rank p90, only when [`MIN_BEYOND`] samples lie beyond it.
    pub p90: Option<f64>,
}

/// Samples lying strictly beyond the nearest-rank `q` percentile of `n`.
pub fn beyond(n: usize, q: f64) -> usize {
    let rank = (q * n as f64).ceil() as usize;
    n.saturating_sub(rank.max(1))
}

/// Summarises `values`; `None` for an empty population.
pub fn percentiles(values: &[f64]) -> Option<Percentiles> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let p50 = if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    let p90 = (beyond(n, 0.9) >= MIN_BEYOND).then(|| v[(0.9 * n as f64).ceil() as usize - 1]);
    Some(Percentiles { n, p50, p90 })
}

/// Median of a non-empty list.
pub fn median(values: &[f64]) -> f64 {
    percentiles(values).map_or(f64::NAN, |p| p.p50)
}

/// Arithmetic mean (0 for an empty list).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Smallest population whose p90 is reportable.
    const MIN_SAMPLES_P90: usize = 100;

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        for n in 1..MIN_SAMPLES_P90 {
            let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let p = percentiles(&v).unwrap();
            assert_eq!(p.p90, None, "n={n} must not print a p90");
            assert!(beyond(n, 0.9) < MIN_BEYOND);
        }
        for n in MIN_SAMPLES_P90..400 {
            let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let p = percentiles(&v).unwrap();
            let p90 = p.p90.expect("large populations print a p90");
            let past = v.iter().filter(|&&x| x > p90).count();
            assert!(past >= MIN_BEYOND, "n={n}: only {past} beyond");
        }
    }

    #[test]
    fn median_and_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentiles(&v).unwrap().p90, Some(90.0));
        assert!(percentiles(&[]).is_none());
    }
}
