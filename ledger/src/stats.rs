//! Latency arithmetic: medians, the tail percentile a sample supports,
//! and failures counted as misses.

/// Tail percentiles in preference order. A percentile is reported only
/// when at least [`MIN_BEYOND`] samples lie beyond it.
pub const TAIL_LADDER: [f64; 5] = [0.999, 0.99, 0.95, 0.9, 0.5];

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Round-trip times of one request kind, in milliseconds. A failed
/// request is recorded as a miss: it counts as slower than every
/// successful one, so it lands in (and can only raise) every percentile.
#[derive(Debug, Default, Clone)]
pub struct Latencies {
    samples: Vec<f64>,
    sorted: bool,
}

/// A percentile read from a sample: which quantile, its value, and how
/// many samples the sample held.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The quantile actually read (may be lower than asked for when the
    /// sample is too small).
    pub quantile: f64,
    /// Its value in milliseconds; infinite when it falls on a miss.
    pub value: f64,
    /// Number of samples, misses included.
    pub count: usize,
}

impl Latencies {
    /// Records one successful round trip.
    pub fn record(&mut self, ms: f64) {
        self.samples.push(ms);
        self.sorted = false;
    }

    /// Records one failed request.
    pub fn miss(&mut self) {
        self.samples.push(f64::INFINITY);
        self.sorted = false;
    }

    /// Number of samples, misses included.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.samples.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// Nearest-rank quantile `q` (0 < q ≤ 1), or `None` when empty.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        self.sort();
        Some(self.samples[nearest_rank(self.samples.len(), q)])
    }

    /// The median.
    pub fn median(&mut self) -> Option<Percentile> {
        let count = self.samples.len();
        self.quantile(0.5).map(|value| Percentile {
            quantile: 0.5,
            value,
            count,
        })
    }

    /// The highest percentile not above `wanted` that has at least
    /// [`MIN_BEYOND`] samples beyond it (see [`supported_tail`]).
    pub fn tail(&mut self, wanted: f64) -> Option<Percentile> {
        let count = self.samples.len();
        let quantile = supported_tail(count, wanted)?;
        self.quantile(quantile).map(|value| Percentile {
            quantile,
            value,
            count,
        })
    }
}

/// Zero-based index of the nearest-rank `q` quantile of `n` sorted
/// samples: the smallest sample with at least a `q` share at or below it.
pub fn nearest_rank(n: usize, q: f64) -> usize {
    let rank = (q * n as f64).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// The highest quantile of [`TAIL_LADDER`] that does not exceed `wanted`
/// and leaves at least [`MIN_BEYOND`] of `n` samples strictly beyond its
/// nearest-rank position; `None` when not even the median qualifies.
pub fn supported_tail(n: usize, wanted: f64) -> Option<f64> {
    if n == 0 {
        return None;
    }
    TAIL_LADDER
        .iter()
        .copied()
        .filter(|&q| q <= wanted)
        .find(|&q| n - 1 - nearest_rank(n, q) >= MIN_BEYOND)
}

/// Median of a slice of finite values (mean of the middle pair for even
/// lengths); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Geometric mean of positive values.
pub fn geometric_mean(values: &[f64]) -> f64 {
    let logs: f64 = values.iter().map(|v| v.ln()).sum();
    (logs / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_definition() {
        assert_eq!(nearest_rank(100, 0.5), 49);
        assert_eq!(nearest_rank(100, 0.99), 98);
        assert_eq!(nearest_rank(1, 0.99), 0);
        assert_eq!(nearest_rank(10, 0.05), 0);
        assert_eq!(nearest_rank(3, 0.5), 1);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of 1000 samples sits at index 989: 10 samples beyond.
        assert_eq!(supported_tail(1000, 0.99), Some(0.99));
        // 999 samples: p99 at index 989, only 9 beyond, so fall to p95.
        assert_eq!(supported_tail(999, 0.99), Some(0.95));
        // p99.9 needs 10 000 samples and is never reported above `wanted`.
        assert_eq!(supported_tail(10_000, 0.999), Some(0.999));
        assert_eq!(supported_tail(10_000, 0.99), Some(0.99));
        assert_eq!(supported_tail(9_999, 0.999), Some(0.99));
        // 100 samples support p90 (index 89, 10 beyond) but not p95.
        assert_eq!(supported_tail(100, 0.99), Some(0.9));
        // 21 samples support only the median (index 10, 10 beyond).
        assert_eq!(supported_tail(21, 0.99), Some(0.5));
        assert_eq!(supported_tail(20, 0.99), Some(0.5));
        assert_eq!(supported_tail(19, 0.99), None);
        assert_eq!(supported_tail(0, 0.99), None);
    }

    #[test]
    fn failures_count_as_misses_in_every_percentile() {
        let mut lat = Latencies::default();
        for i in 0..990 {
            lat.record(1.0 + i as f64 * 1e-3);
        }
        for _ in 0..10 {
            lat.miss();
        }
        let p99 = lat.tail(0.99).expect("supported");
        assert_eq!(p99.quantile, 0.99);
        assert_eq!(p99.count, 1000);
        // 10 misses out of 1000: p99 is the last success, one more miss
        // pushes it onto a miss.
        assert!(p99.value.is_finite());
        lat.miss();
        assert!(lat.tail(0.99).expect("supported").value.is_infinite());
        // Misses also shift the median up, never down.
        let mut half = Latencies::default();
        half.record(1.0);
        half.miss();
        half.miss();
        assert!(half.median().expect("non-empty").value.is_infinite());
    }

    #[test]
    fn median_and_geometric_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }
}
