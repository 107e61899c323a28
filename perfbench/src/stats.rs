//! Percentile helpers shared by every phase.

/// A timing distribution: sample count, median, p90, p99 and the tail —
/// the highest percentile that still has at least [`TAIL_BEYOND`] samples
/// above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    /// `(percent level, value)` of the tail percentile; `None` with fewer
    /// than `TAIL_BEYOND + 1` samples.
    pub tail: Option<(f64, f64)>,
}

/// Samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// The median of `values` (mean of the two middle values for an even
/// count). `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    median_sorted(&v)
}

fn median_sorted(v: &[f64]) -> f64 {
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `q` (0..=1) of ascending `sorted`.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile of ascending `sorted` with at least
/// [`TAIL_BEYOND`] samples strictly beyond its rank, as
/// `(percent level, value)`.
pub fn tail_sorted(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let rank = n - TAIL_BEYOND;
    Some((100.0 * rank as f64 / n as f64, sorted[rank - 1]))
}

/// Summarizes `values` (any order).
pub fn summarize(values: &[f64]) -> Summary {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Summary {
        n: v.len(),
        p50: median_sorted(&v),
        p90: percentile_sorted(&v, 0.90),
        p99: percentile_sorted(&v, 0.99),
        tail: tail_sorted(&v),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.90), 90.0);
        assert_eq!(percentile_sorted(&v, 0.99), 99.0);
        assert_eq!(percentile_sorted(&v, 1.0), 100.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (level, value) = tail_sorted(&v).expect("100 samples have a tail");
        assert_eq!(value, 90.0);
        assert_eq!(level, 90.0);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), TAIL_BEYOND);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_sorted(&v), Some((99.0, 990.0)));
        assert_eq!(tail_sorted(&v[..10]), None);
        assert_eq!(tail_sorted(&v[..11]).map(|t| t.1), Some(1.0));
    }

    #[test]
    fn summary_carries_the_sample_count() {
        let v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 500.5);
        assert_eq!(s.p90, 900.0);
        assert_eq!(s.p99, 990.0);
        assert_eq!(s.tail, Some((99.0, 990.0)));
    }
}
