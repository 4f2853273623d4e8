//! Sample arithmetic: medians, nearest-rank percentiles, pooled
//! medians, and the quartiles the acceptance rule uses.

/// The median of `values` (mean of the two middle ones for an even
/// count); 0 for no samples.
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
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The nearest-rank `q`-percentile (`0 < q <= 1`): the smallest sample
/// with at least `q` of the samples at or below it; 0 for no samples.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The median of all samples of all rounds taken together.
pub fn pooled_median(rounds: &[Vec<f64>]) -> f64 {
    let all: Vec<f64> = rounds.iter().flatten().copied().collect();
    median(&all)
}

/// Largest per-round median divided by the smallest: the run's own
/// noise gauge. 1.0 when fewer than two rounds have samples.
pub fn round_spread(rounds: &[Vec<f64>]) -> f64 {
    let meds: Vec<f64> = rounds
        .iter()
        .filter(|r| !r.is_empty())
        .map(|r| median(r))
        .collect();
    let lo = meds.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = meds.iter().copied().fold(0.0, f64::max);
    if meds.len() < 2 || lo <= 0.0 {
        1.0
    } else {
        hi / lo
    }
}

/// First, second and third quartile as Python's
/// `statistics.quantiles(values, n=4)` computes them (exclusive
/// method). Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile distance as a share of the median.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn pooled_median_ignores_round_boundaries() {
        let rounds = vec![vec![1.0, 2.0, 3.0], vec![10.0, 20.0]];
        assert_eq!(pooled_median(&rounds), 3.0);
        assert!((round_spread(&rounds) - 7.5).abs() < 1e-12);
        assert_eq!(round_spread(&[vec![1.0]]), 1.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12);
        assert!((q2 - 5.5).abs() < 1e-12);
        assert!((q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q2, q3) = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert_eq!((q1, q2, q3), (1.5, 4.0, 12.0));
        assert!((iqr_share(&[16.0, 1.0, 8.0, 2.0, 4.0]) - 2.625).abs() < 1e-12);
    }
}
