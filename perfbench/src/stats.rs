//! Order statistics over measured samples.

/// Median of `values` (mean of the middle pair for an even count); NaN
/// when there are none, which marks the result incorrect.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median of integer counts.
pub fn median_u64(values: &[u64]) -> f64 {
    let v: Vec<f64> = values.iter().map(|&x| x as f64).collect();
    median(&v)
}

/// First and third quartiles by the "exclusive" method (what Python's
/// `statistics.quantiles(values, n=4)` computes), so the spreads printed
/// here match the ones the benchmark's acceptance check computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (f64::NAN, f64::NAN);
    }
    if n < 2 {
        return (v[0], v[0]);
    }
    let q = |i: i64| {
        // Position (n + 1) * i / 4, one-based, linearly interpolated (and
        // extrapolated at the ends, as Python does).
        let m = (n as i64 + 1) * i;
        let j = (m / 4).clamp(1, n as i64 - 1);
        let delta = (m - 4 * j) as f64;
        let j = j as usize;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// The highest percentile with at least ten samples above it, as
/// `(percentile, value)`; `None` with ten samples or fewer. Percentiles
/// are whole numbers, and the value is the nearest-rank sample.
pub fn tail(values: &[f64]) -> Option<(u32, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n <= 10 {
        return None;
    }
    // Nearest rank k = ceil(p/100 * n) leaves n - k samples above.
    let p = (1..100u32)
        .rev()
        .find(|&p| n - (p as usize * n).div_ceil(100) >= 10)?;
    let k = (p as usize * n).div_ceil(100).max(1);
    Some((p, v[k - 1]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), (1.0, 3.0));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        assert_eq!(tail(&[1.0; 10]), None);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), Some((90, 90.0)));
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&v), Some((50, 10.0)));
    }
}
