//! Order statistics over latency samples.

/// Median of `xs` (mean of the middle pair for even counts); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The highest percentile that still has ten samples beyond it, as
/// `(percentile, value)`. Below twenty samples no tail is resolvable and
/// the median is returned as the 50th percentile.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    if xs.len() < 20 {
        return (50.0, median(xs));
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = v.len() - 11;
    (100.0 * (idx + 1) as f64 / v.len() as f64, v[idx])
}

/// Interquartile distance as a share of the median — the run-to-run
/// spread the driver compares against a metric's bound. Needs at least
/// two values; otherwise the spread is unknown and reported as 0.
pub fn iqr_share(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    // Same rule as Python's `statistics.quantiles(v, n=4)` (exclusive).
    let q = |p: f64| {
        let pos = p * (v.len() + 1) as f64;
        let lo = (pos.floor() as usize).clamp(1, v.len() - 1);
        let frac = pos - lo as f64;
        v[lo - 1] + frac * (v[lo] - v[lo - 1])
    };
    let m = median(&v);
    if m == 0.0 {
        0.0
    } else {
        (q(0.75) - q(0.25)) / m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_tail_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), (90.0, 90.0));
        assert_eq!(tail(&xs[..10]).0, 50.0);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&ten) - 5.5 / 5.5).abs() < 1e-12);
    }
}
