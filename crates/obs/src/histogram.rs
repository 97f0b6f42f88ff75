//! Fixed-bucket histograms with percentile readout.

use impatience_json::Json;

/// A linear fixed-bucket histogram over `[0, range)` plus an overflow
/// bucket, tracking count, sum, and extremes exactly.
///
/// Quantiles interpolate within the containing bucket, so their error is
/// bounded by one bucket width; values at or above `range` resolve to
/// the exact maximum seen. Two histograms with the same shape can be
/// [`merge`](Histogram::merge)d losslessly, which is what the parallel
/// runner does with per-worker delay histograms.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    range: f64,
    /// Bucket count of the shape; `counts` holds this many entries, or
    /// none at all for a [`Histogram::shape_only`] one.
    buckets: usize,
    counts: Vec<u64>,
    overflow: u64,
    total: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// A histogram over `[0, range)` with `buckets` equal buckets.
    ///
    /// # Panics
    /// Panics unless `range > 0` and `buckets > 0`.
    pub fn new(range: f64, buckets: usize) -> Self {
        Histogram {
            counts: vec![0; buckets],
            ..Histogram::shape_only(range, buckets)
        }
    }

    /// A histogram that reports its shape and owns no bucket storage:
    /// what a recorder that can never record holds. Recording into it is
    /// a no-op.
    ///
    /// # Panics
    /// Panics unless `range > 0` and `buckets > 0`.
    pub(crate) fn shape_only(range: f64, buckets: usize) -> Self {
        assert!(
            range > 0.0 && range.is_finite(),
            "histogram range must be positive"
        );
        assert!(buckets > 0, "histogram needs at least one bucket");
        Histogram {
            range,
            buckets,
            counts: Vec::new(),
            overflow: 0,
            total: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one sample. Negative values clamp to the first bucket;
    /// non-finite values are ignored.
    #[inline]
    pub fn record(&mut self, value: f64) {
        if !value.is_finite() || self.counts.is_empty() {
            return;
        }
        if value >= self.range {
            self.overflow += 1;
        } else {
            let idx = ((value.max(0.0) / self.range) * self.counts.len() as f64) as usize;
            let idx = idx.min(self.counts.len() - 1);
            self.counts[idx] += 1;
        }
        self.total += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Upper edge of the bucketed span.
    pub fn range(&self) -> f64 {
        self.range
    }

    /// Number of equal buckets below the overflow bucket.
    pub fn buckets(&self) -> usize {
        self.buckets
    }

    /// Mean of the samples (exact), or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        (self.total > 0).then(|| self.sum / self.total as f64)
    }

    /// Smallest sample seen, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        (self.total > 0).then_some(self.min)
    }

    /// Largest sample seen, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.total > 0).then_some(self.max)
    }

    /// Samples that landed at or above the range (in the overflow
    /// bucket).
    pub fn overflow_count(&self) -> u64 {
        self.overflow
    }

    /// Sum of all samples (exact).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Number of samples strictly below `value` as resolvable by the
    /// bucket grid: counts every bucket whose upper edge is ≤ `value`.
    /// Used for Prometheus cumulative-bucket exposition.
    pub fn cumulative_below(&self, value: f64) -> u64 {
        if value <= 0.0 {
            return 0;
        }
        if value >= self.range {
            return self.total - self.overflow;
        }
        let width = self.range / self.counts.len() as f64;
        let whole = (value / width).floor() as usize;
        self.counts[..whole.min(self.counts.len())].iter().sum()
    }

    /// The `q`-quantile (`q` in `[0, 1]`), interpolated within its
    /// bucket; `None` if the histogram is empty.
    ///
    /// Uses the shared nearest-rank definition of [`crate::stats`] (the
    /// smallest value with at least `⌈q·n⌉` samples at or below it), so
    /// it matches [`crate::percentile`], which the runner's bands use, up
    /// to bucket resolution.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        if self.total == 0 {
            return None;
        }
        let rank = crate::stats::nearest_rank(q, self.total);
        let width = self.range / self.counts.len() as f64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if seen + c >= rank {
                // Interpolate the rank's position inside this bucket.
                let into = (rank - seen) as f64 / c as f64;
                let value = (i as f64 + into) * width;
                return Some(value.clamp(self.min, self.max));
            }
            seen += c;
        }
        // Rank lands in the overflow bucket: report the exact maximum.
        Some(self.max)
    }

    /// Median.
    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> Option<f64> {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }

    /// Fold another histogram of identical shape into this one (a no-op,
    /// like [`record`](Histogram::record), on one without storage).
    ///
    /// # Panics
    /// Panics if the shapes (range or bucket count) differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert!(
            self.range == other.range && self.buckets == other.buckets,
            "merging histograms of different shapes"
        );
        if self.counts.is_empty() {
            return;
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.overflow += other.overflow;
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Summary object: count, mean, min/max, p50/p95/p99, overflow.
    pub fn summary_json(&self) -> Json {
        Json::obj([
            ("count", Json::from(self.total)),
            ("mean", opt(self.mean())),
            ("min", opt(self.min())),
            ("max", opt(self.max())),
            ("p50", opt(self.p50())),
            ("p95", opt(self.p95())),
            ("p99", opt(self.p99())),
            ("overflow", Json::from(self.overflow)),
        ])
    }
}

fn opt(v: Option<f64>) -> Json {
    v.map(Json::from).unwrap_or(Json::Null)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_track_uniform_samples() {
        let mut h = Histogram::new(100.0, 1000);
        for i in 0..1000 {
            h.record(i as f64 / 10.0); // 0.0, 0.1, ..., 99.9
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.p50().unwrap();
        let p95 = h.p95().unwrap();
        assert!((p50 - 50.0).abs() < 0.2, "p50 = {p50}");
        assert!((p95 - 95.0).abs() < 0.2, "p95 = {p95}");
        assert!((h.mean().unwrap() - 49.95).abs() < 1e-9);
    }

    #[test]
    fn overflow_resolves_to_exact_max() {
        let mut h = Histogram::new(10.0, 10);
        h.record(5.0);
        h.record(123.0);
        h.record(456.0);
        assert_eq!(h.overflow_count(), 2);
        assert_eq!(h.quantile(1.0), Some(456.0));
        assert_eq!(h.max(), Some(456.0));
    }

    #[test]
    fn merge_equals_pooled_recording() {
        let mut a = Histogram::new(50.0, 25);
        let mut b = Histogram::new(50.0, 25);
        let mut pooled = Histogram::new(50.0, 25);
        for i in 0..200 {
            let x = (i * 37 % 60) as f64;
            if i % 2 == 0 {
                a.record(x)
            } else {
                b.record(x)
            }
            pooled.record(x);
        }
        a.merge(&b);
        assert_eq!(a, pooled);
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = Histogram::new(10.0, 10);
        assert_eq!(h.p50(), None);
        assert_eq!(h.mean(), None);
        assert!(h.summary_json().get("p50").unwrap().is_null());
    }

    #[test]
    fn single_sample_is_every_quantile() {
        let mut h = Histogram::new(10.0, 100);
        h.record(3.0);
        for q in [0.01, 0.5, 0.99, 1.0] {
            let v = h.quantile(q).unwrap();
            assert!((v - 3.0).abs() <= 0.1, "q={q} -> {v}");
        }
    }

    #[test]
    fn an_inactive_recorder_keeps_its_shape_and_no_buckets() {
        let disabled = crate::Recorder::disabled();
        let live = crate::Recorder::new(crate::TallySink);
        for (off, on) in [
            (&disabled.delay, &live.delay),
            (&disabled.inter_contact, &live.inter_contact),
        ] {
            assert_eq!(off.counts.capacity(), 0, "no heap bytes for buckets");
            assert_eq!(on.counts.len(), on.buckets());
            assert_eq!((off.range(), off.buckets()), (on.range(), on.buckets()));
        }

        // Recording and merging are no-ops, not index panics.
        let mut h = Histogram::shape_only(10.0, 10);
        h.record(3.0);
        let mut full = Histogram::new(10.0, 10);
        full.record(3.0);
        h.merge(&full);
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.cumulative_below(5.0), 0);
        full.merge(&h);
        assert_eq!(full.count(), 1);
    }

    #[test]
    fn ignores_nonfinite_clamps_negative() {
        let mut h = Histogram::new(10.0, 10);
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        assert_eq!(h.count(), 0);
        h.record(-5.0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.min(), Some(-5.0));
    }
}
