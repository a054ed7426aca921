//! Order statistics for the ledger: medians, quartiles, the percentile
//! rule and the geometric mean. Everything takes samples as `f64` and
//! sorts a private copy, so callers keep their sample order.

/// The sorted copy every statistic below starts from.
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `p`-th percentile (0..=100) by linear interpolation between
/// closest ranks — the same rule as Python's
/// `statistics.quantiles(method="inclusive")`, so a reader can check a
/// number by hand from `result.json`. Empty input is 0.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    let Some(last) = v.len().checked_sub(1) else {
        return 0.0;
    };
    let rank = p.clamp(0.0, 100.0) / 100.0 * last as f64;
    let (lo, frac) = (rank.floor() as usize, rank.fract());
    let hi = (lo + 1).min(last);
    v[lo] + (v[hi] - v[lo]) * frac
}

pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// First and third quartile, printed beside every headline.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    (percentile(xs, 25.0), percentile(xs, 75.0))
}

/// The higher of p99 and p90 that still has at least ten of `n`
/// samples beyond it; `None` with too few samples for either, where
/// the median is the honest thing to report.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99.0, 90.0]
        .into_iter()
        .find(|p| n as f64 * (100.0 - p) / 100.0 >= 10.0)
}

/// Geometric mean; 0 for empty input or any non-positive sample (a
/// zero latency is a measurement failure, not a fast request).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() || xs.iter().any(|x| *x <= 0.0) {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_closest_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert_eq!(quartiles(&xs), (1.75, 3.25));
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 120 samples per image: p90 leaves 12 beyond, p99 only 1.2.
        assert_eq!(tail_percentile(120), Some(90.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(99), None);
        // 48 000 pooled samples: p99 leaves 480 beyond.
        assert_eq!(tail_percentile(48_000), Some(99.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        // Too few for any tail: never an invented p99.
        assert_eq!(tail_percentile(12), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[5.0, 5.0, 5.0]) - 5.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        assert_eq!(geomean(&[3.0, 0.0]), 0.0);
    }
}
