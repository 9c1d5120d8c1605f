//! Order statistics used by every report.

/// Median of `xs` (mean of the two middle values for even counts);
/// `0.0` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    }
}

/// Nearest-rank `q`-quantile (`0 < q <= 1`) of sorted `v`.
fn rank_quantile(v: &[f64], q: f64) -> f64 {
    let k = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[k - 1]
}

/// The tail percentile a sample of `count` values can support: `want`
/// (e.g. 0.99) if at least `min_beyond` samples lie above it, otherwise
/// the highest percentile that still has `min_beyond` samples beyond it
/// (`0.5` at the least). Returned as a fraction.
pub fn supported_tail(count: usize, want: f64, min_beyond: usize) -> f64 {
    if count == 0 {
        return 0.5;
    }
    let beyond_at_want = count - ((want * count as f64).ceil() as usize).min(count);
    if beyond_at_want >= min_beyond {
        return want;
    }
    let q = (count.saturating_sub(min_beyond)) as f64 / count as f64;
    q.max(0.5)
}

/// Latency summary: median, the supported tail (p99 when the sample
/// allows it) and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub p50: f64,
    pub tail: f64,
    /// The percentile `tail` reports, as a fraction (0.99 normally).
    pub tail_q: f64,
    pub count: usize,
}

/// Median and the highest percentile up to p99 with at least ten samples
/// beyond it.
pub fn tail(xs: &[f64]) -> Tail {
    if xs.is_empty() {
        return Tail {
            p50: 0.0,
            tail: 0.0,
            tail_q: 0.99,
            count: 0,
        };
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let q = supported_tail(v.len(), 0.99, 10);
    Tail {
        p50: median(&v),
        tail: rank_quantile(&v, q),
        tail_q: q,
        count: v.len(),
    }
}

/// Nearest-rank `q`-quantile of unsorted `xs`; `0.0` when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    rank_quantile(&v, q)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_quantile() {
        let xs: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.25), 3.0);
        assert_eq!(quantile(&xs, 1.0), 10.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond() {
        // 1000 samples: exactly 10 lie beyond p99.
        assert_eq!(supported_tail(1000, 0.99, 10), 0.99);
        // 999 samples: p99 would leave only 9 beyond; fall back to the
        // percentile that leaves exactly 10.
        let q = supported_tail(999, 0.99, 10);
        assert!(q < 0.99);
        assert_eq!(999 - (q * 999.0).ceil() as usize, 10);
        // Tiny samples bottom out at the median.
        assert_eq!(supported_tail(12, 0.99, 10), 0.5);
    }

    #[test]
    fn tail_reports_the_supported_percentile() {
        let xs: Vec<f64> = (1..=2000).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.count, 2000);
        assert_eq!(t.tail_q, 0.99);
        assert_eq!(t.tail, 1980.0);
        assert_eq!(t.p50, 1000.5);
        let few: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&few);
        assert_eq!(t.tail_q, 0.9);
        assert_eq!(t.tail, 90.0);
    }
}
