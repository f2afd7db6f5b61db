//! Order statistics and means used by every workload.

/// Nearest-rank percentile of an ascending-sorted sample (`p` in
/// `0..=100`); 0 for an empty sample.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (mean of the two middle values for an even
/// count); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `(max - min) / median` of `values`: how far apart the passes of one
/// invocation are, as a share of their middle.
pub fn range_share(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / m
}

/// Geometric mean of positive values from their logarithms' sum.
#[derive(Debug, Clone, Copy, Default)]
pub struct Geomean {
    ln_sum: f64,
    count: u64,
}

impl Geomean {
    /// Adds one positive ratio.
    pub fn add(&mut self, ratio: f64) {
        self.ln_sum += ratio.ln();
        self.count += 1;
    }

    /// The mean so far; 0 before any value (so a missing mean reads as
    /// "not applicable", never as a ratio of 1).
    pub fn value(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            (self.ln_sum / self.count as f64).exp()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&s, 50.0), 5);
        assert_eq!(percentile(&s, 90.0), 9);
        assert_eq!(percentile(&s, 99.0), 10);
        assert_eq!(percentile(&s, 100.0), 10);
        assert_eq!(percentile(&s, 0.0), 1);
        assert_eq!(percentile(&[], 50.0), 0);
        assert_eq!(percentile(&[7], 90.0), 7);
    }

    #[test]
    fn median_and_range() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert!((range_share(&[90.0, 100.0, 110.0]) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn geomean_of_ratios() {
        let mut g = Geomean::default();
        assert_eq!(g.value(), 0.0);
        g.add(2.0);
        g.add(8.0);
        assert!((g.value() - 4.0).abs() < 1e-12);
    }
}
