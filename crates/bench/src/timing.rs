//! A minimal wall-clock micro-benchmark harness.
//!
//! The workspace builds offline, so the Criterion dependency was
//! replaced with this self-contained runner: each `[[bench]]` target is
//! a plain `fn main()` (the manifests set `harness = false`) that calls
//! [`bench`] per case. The runner warms the case up, then adaptively
//! picks an iteration count that fills a fixed measurement window and
//! reports mean ns/iter. It is deliberately simple — no outlier
//! rejection or statistics — but stable enough for the relative
//! comparisons (indexed vs scan, 1 vs N backends, one-step vs
//! per-transaction) the experiment write-ups rely on.

use std::hint::black_box;
use std::time::{Duration, Instant};

const WARMUP: Duration = Duration::from_millis(50);
const MEASURE: Duration = Duration::from_millis(250);

/// Time `f` and print `label: <mean> ns/iter (<iters> iters)`.
///
/// The closure's return value is passed through [`black_box`] so the
/// optimizer cannot delete the measured work.
pub fn bench<T>(label: &str, mut f: impl FnMut() -> T) {
    // Warm-up: run until the warm-up window elapses, counting runs to
    // estimate a batch size for the measurement phase.
    let start = Instant::now();
    let mut warm_iters = 0u64;
    while start.elapsed() < WARMUP || warm_iters == 0 {
        black_box(f());
        warm_iters += 1;
        if warm_iters >= 1_000_000 {
            break;
        }
    }
    let per_iter = WARMUP.as_nanos().max(1) / u128::from(warm_iters.max(1));
    let target = (MEASURE.as_nanos() / per_iter.max(1)).clamp(1, 10_000_000) as u64;

    let start = Instant::now();
    for _ in 0..target {
        black_box(f());
    }
    let elapsed = start.elapsed();
    let ns = elapsed.as_nanos() / u128::from(target);
    println!("{label}: {ns} ns/iter ({target} iters)");
}

/// Print a group header so related cases read as a block.
pub fn group(name: &str) {
    println!("\n== {name} ==");
}

/// Sub-bucket resolution of [`Histogram`]: each power-of-two range is
/// split into `2^SUB_BITS` linear sub-buckets, bounding the relative
/// quantile error at `1 / 2^SUB_BITS` (12.5%).
const SUB_BITS: u32 = 3;
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) << SUB_BITS;

/// A fixed-memory log-linear latency histogram (nanoseconds).
///
/// Values land in log-spaced buckets — one group of eight linear
/// sub-buckets per power of two — so the whole structure is a flat
/// 496-slot array: no allocation per sample, mergeable across threads,
/// and quantiles in one pass. Exact `min`/`max` are tracked on the
/// side; `p50`/`p90`/`p99` are bucket upper bounds, accurate to the
/// sub-bucket width — without a statistics dependency.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram { buckets: vec![0; BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    fn index(v: u64) -> usize {
        if v < (1 << SUB_BITS) {
            return v as usize;
        }
        let msb = 63 - v.leading_zeros();
        let exp = msb - SUB_BITS;
        let sub = (v >> exp) & ((1 << SUB_BITS) - 1);
        (((exp + 1) as usize) << SUB_BITS) + sub as usize
    }

    /// Upper bound (inclusive) of bucket `i` — the value reported for
    /// quantiles landing in it.
    fn upper_bound(i: usize) -> u64 {
        let sub = (i as u64) & ((1 << SUB_BITS) - 1);
        let exp = (i >> SUB_BITS) as u32;
        if exp == 0 {
            sub
        } else {
            // The top bucket's bound exceeds u64; widen and clamp.
            let bound = ((1u128 << SUB_BITS) + sub as u128 + 1) << (exp - 1);
            (bound - 1).min(u64::MAX as u128) as u64
        }
    }

    /// Record one sample (nanoseconds).
    pub fn record(&mut self, ns: u64) {
        self.buckets[Self::index(ns)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(ns);
        self.min = self.min.min(ns);
        self.max = self.max.max(ns);
    }

    /// Fold `other`'s samples into `self` (per-thread merge).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min_ns(&self) -> u64 {
        if self.count == 0 { 0 } else { self.min }
    }

    /// Largest recorded sample.
    pub fn max_ns(&self) -> u64 {
        self.max
    }

    /// Mean of all samples (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// The value at percentile `p` (0–100): the upper bound of the
    /// bucket holding the `ceil(p% · count)`-th smallest sample,
    /// clamped to the exact observed min/max.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return Self::upper_bound(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.percentile(90.0)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }

    /// One-line summary in microseconds: `p50=… p90=… p99=… max=…`.
    pub fn summary_us(&self) -> String {
        let us = |ns: u64| ns as f64 / 1000.0;
        format!(
            "p50={:.1}µs p90={:.1}µs p99={:.1}µs max={:.1}µs (n={})",
            us(self.p50()),
            us(self.p90()),
            us(self.p99()),
            us(self.max_ns()),
            self.count
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..8 {
            h.record(v);
        }
        assert_eq!(h.min_ns(), 0);
        assert_eq!(h.max_ns(), 7);
        assert_eq!(h.percentile(100.0), 7);
        assert_eq!(h.count(), 8);
    }

    #[test]
    fn quantiles_are_within_sub_bucket_error() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.p50() as f64;
        assert!((430.0..=580.0).contains(&p50), "p50 off: {p50}");
        let p99 = h.p99() as f64;
        assert!((920.0..=1000.0).contains(&p99), "p99 off: {p99}");
        assert!(h.p50() <= h.p90() && h.p90() <= h.p99(), "quantiles must be monotone");
        assert_eq!(h.mean_ns(), 500);
    }

    #[test]
    fn merge_equals_recording_everything_in_one() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        for v in [3u64, 70, 900, 12_345, 999_999] {
            a.record(v);
            whole.record(v);
        }
        for v in [17u64, 250_000, 8] {
            b.record(v);
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.min_ns(), whole.min_ns());
        assert_eq!(a.max_ns(), whole.max_ns());
        for p in [10.0, 50.0, 90.0, 99.0] {
            assert_eq!(a.percentile(p), whole.percentile(p));
        }
    }

    #[test]
    fn wide_range_buckets_stay_in_bounds() {
        let mut h = Histogram::new();
        for shift in 0..63 {
            h.record(1u64 << shift);
        }
        h.record(u64::MAX);
        assert_eq!(h.count(), 64);
        assert_eq!(h.percentile(100.0), u64::MAX);
    }
}
