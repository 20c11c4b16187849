//! Percentile and quartile helpers over timing samples.

/// Linear-interpolation percentile (`p` in `[0, 100]`) between the
/// closest ranks of the sorted samples — numpy's default method.
/// Returns `None` for an empty sample set.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// The median (`percentile(samples, 50)`); 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).unwrap_or(0.0)
}

/// Quartiles `[q1, q2, q3]` by Python's `statistics.quantiles(data, n=4)`
/// (its default "exclusive" method), which is how the benchmark's spread
/// is judged. Needs at least two samples.
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    let n = samples.len();
    if n < 2 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    // Python's integer arithmetic: j = i*m // 4 clamped to 1..n-1,
    // delta = i*m - 4*j (may fall outside 0..4 after clamping, which
    // extrapolates exactly as Python does).
    let m = (n + 1) as i64;
    let n = n as i64;
    let mut out = [0.0; 3];
    for (i, q) in (1..=3i64).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m - j * 4) as f64;
        let (lo, hi) = (sorted[(j - 1) as usize], sorted[j as usize]);
        *q = (lo * (4.0 - delta) + hi * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range as a share of the median (the spread the
/// benchmark's bounds are judged by).
pub fn iqr_share(samples: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(samples)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let xs = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile(&xs, 0.0), Some(15.0));
        assert_eq!(percentile(&xs, 100.0), Some(50.0));
        assert_eq!(percentile(&xs, 50.0), Some(35.0));
        assert!(close(percentile(&xs, 40.0).unwrap(), 29.0));
        assert!(close(percentile(&xs, 90.0).unwrap(), 46.0));
        // Order of the input does not matter.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn p90_of_one_to_hundred() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!(close(percentile(&xs, 90.0).unwrap(), 90.1));
        assert!(close(percentile(&xs, 50.0).unwrap(), 50.5));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 3.0, 1.0]), Some([1.25, 2.5, 3.75]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([3.5, 1.25, 9.0, 4.0, 6.5], n=4)
        //   == [2.375, 4.0, 7.75]
        assert_eq!(
            quartiles(&[3.5, 1.25, 9.0, 4.0, 6.5]),
            Some([2.375, 4.0, 7.75])
        );
        // statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
        assert_eq!(quartiles(&[10.0, 20.0, 30.0]), Some([10.0, 20.0, 30.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!(close(iqr_share(&xs).unwrap(), 5.5 / 5.5));
        assert_eq!(iqr_share(&[2.0, 2.0, 2.0]), Some(0.0));
    }
}
