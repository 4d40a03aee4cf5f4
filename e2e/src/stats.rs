//! The harness's own maths: medians, quartile spread, and the rule for
//! which tail percentile a sample can support.

/// Median of `values` (mean of the middle pair for even counts); 0 for an
/// empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// First and third quartile as Python's `statistics.quantiles(values,
/// n=4)` gives them (the default "exclusive" method) — the rule the
/// benchmark contract measures spread with. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        // j = i*(n+1) // 4, clamped to [1, n-1]; delta = i*(n+1) - j*4.
        let m = i * (n + 1);
        let j = (m / 4).clamp(1, n - 1);
        let delta = m as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median; 0 when there are
/// fewer than two values or the median is 0.
pub fn spread(values: &[f64]) -> f64 {
    let med = median(values);
    match quartiles(values) {
        Some((q1, q3)) if med != 0.0 => (q3 - q1) / med.abs(),
        _ => 0.0,
    }
}

/// The percentile ladder serving latencies are reported on, each with the
/// share of samples beyond it in parts per 10 000 (integers, so the
/// ten-sample rule has no rounding edge at n = 100 or 1000).
const LADDER: [(f64, usize); 5] = [
    (0.5, 5000),
    (0.9, 1000),
    (0.99, 100),
    (0.999, 10),
    (0.9999, 1),
];

/// The highest ladder percentile with at least ten samples beyond it —
/// a p99 of 300 samples rests on three of them and is not reported.
/// `None` below 20 samples (not even the median qualifies).
pub fn supported_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .rev()
        .find(|(_, beyond)| n * beyond >= 10 * 10_000)
        .map(|&(p, _)| p)
}

/// Nearest-rank percentile of an ascending-sorted sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    // The epsilon keeps 0.99 × 100 (99.00000000000001 in binary) at rank 99.
    let rank = (p * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `want` if the sample supports it, else the highest percentile it does
/// support (the median when nothing qualifies). Returns the percentile
/// actually used with its value.
pub fn percentile_or_supported(sorted: &[f64], want: f64) -> (f64, f64) {
    let p = supported_percentile(sorted.len()).map_or(0.5, |s| s.min(want));
    (p, percentile(sorted, p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let (q1, q3) = quartiles(&[4.0, 1.0, 2.0]).unwrap();
        assert_eq!((q1, q3), (1.0, 4.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]).unwrap();
        assert_eq!((q1, q3), (0.75, 2.25));
        assert!(quartiles(&[1.0]).is_none());
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        assert_eq!(supported_percentile(19), None);
        assert_eq!(supported_percentile(20), Some(0.5));
        assert_eq!(supported_percentile(99), Some(0.5));
        assert_eq!(supported_percentile(100), Some(0.9));
        assert_eq!(supported_percentile(999), Some(0.9));
        assert_eq!(supported_percentile(1000), Some(0.99));
        assert_eq!(supported_percentile(10_000), Some(0.999));
        assert_eq!(supported_percentile(1_000_000), Some(0.9999));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        // 100 samples support p90 at most: a p99 request is capped.
        assert_eq!(percentile_or_supported(&v, 0.99), (0.9, 90.0));
        assert_eq!(percentile_or_supported(&v[..10], 0.99), (0.5, 5.0));
    }
}
