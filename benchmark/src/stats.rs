//! Order statistics over run samples.

/// The median of `xs` (mean of the two middle values for even counts).
///
/// # Panics
///
/// Panics on an empty slice: every metric has at least one sample.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The `n - 1` cut points dividing `xs` into `n` groups, by the same
/// rule as Python's `statistics.quantiles(xs, n=n)` (the default
/// "exclusive" method), so spreads read the same as that tool's.
///
/// # Panics
///
/// Panics on an empty slice or `n < 2`.
#[must_use]
pub fn quantiles(xs: &[f64], n: usize) -> Vec<f64> {
    assert!(
        !xs.is_empty() && n >= 2,
        "quantiles need samples and n >= 2"
    );
    let s = sorted(xs);
    let ld = s.len();
    if ld == 1 {
        return vec![s[0]; n - 1];
    }
    let m = ld + 1;
    (1..n)
        .map(|i| {
            let j = (i * m / n).clamp(1, ld - 1);
            // After clamping, `delta` can leave [0, n]: the outer cuts
            // of a small sample extrapolate, exactly as Python does.
            let delta = (i * m) as f64 - (j * n) as f64;
            (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64
        })
        .collect()
}

/// The distance between the first and third quartile.
#[must_use]
pub fn iqr(xs: &[f64]) -> f64 {
    let q = quantiles(xs, 4);
    q[2] - q[0]
}

/// The 90th percentile (the ninth decile cut).
#[must_use]
pub fn p90(xs: &[f64]) -> f64 {
    quantiles(xs, 10)[8]
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quantiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantiles(&xs, 4), vec![2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quantiles(&[2.0, 1.0], 4), vec![0.75, 1.5, 2.25]);
        // statistics.quantiles([1..5], n=10)[8] == 5.4 (clamped top)
        let xs: Vec<f64> = (1..=5).map(f64::from).collect();
        assert!((p90(&xs) - 5.4).abs() < 1e-12);
        assert_eq!(quantiles(&[4.0], 4), vec![4.0, 4.0, 4.0]);
    }

    #[test]
    fn iqr_is_order_blind() {
        let a = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0];
        assert_eq!(iqr(&a), 8.25 - 2.75);
    }
}
