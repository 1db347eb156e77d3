//! Order statistics for timing samples.

/// Median of `v` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Nearest-rank rank (1-based) of quantile `q` in `n` samples, computed
/// in per-mille integers so that e.g. p90 of 100 samples is exactly the
/// 90th value.
fn rank(q: f64, n: usize) -> usize {
    let per_mille = (q * 1000.0).round() as usize;
    (per_mille * n).div_ceil(1000).clamp(1, n)
}

/// Nearest-rank `q`-quantile (`q` in `[0, 1]`) of `v`; 0 when empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s[rank(q, s.len()) - 1]
}

/// The tail percentile a sample of `n` supports: the highest of the
/// usual reporting points that leaves at least ten samples beyond it.
pub fn supported_tail(n: usize) -> f64 {
    [0.999, 0.99, 0.95, 0.9, 0.75, 0.5]
        .into_iter()
        .find(|&q| n > 0 && n - rank(q, n) >= 10)
        .unwrap_or(0.5)
}

/// Median, p90 and the tail a workload promises (`want`, e.g. 0.99),
/// with the percentile actually reported as the tail: the promised one
/// when the sample supports it, else the highest one that does.
#[derive(Clone, Debug)]
pub struct Summary {
    pub p50: f64,
    pub p90: f64,
    pub tail: f64,
    pub tail_q: f64,
}

pub fn summarize(v: &[f64], want: f64) -> Summary {
    let tail_q = want.min(supported_tail(v.len()));
    Summary {
        p50: median(v),
        p90: quantile(v, 0.9),
        tail: quantile(v, tail_q),
        tail_q,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.99), 990.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 1000.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(supported_tail(1000), 0.99);
        assert_eq!(supported_tail(999), 0.95);
        assert_eq!(supported_tail(100), 0.9);
        assert_eq!(supported_tail(5), 0.5);
        assert_eq!(summarize(&vec![1.0; 5000], 0.99).tail_q, 0.99);
    }
}
