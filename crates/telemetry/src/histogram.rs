//! Mergeable log-bucketed latency histogram (HDR-style).
//!
//! See the crate-level essay for the bucket scheme and the relative-error
//! proof. In short: values below 64 get exact single-value buckets; larger
//! values share `2^SUB_BITS = 32` sub-buckets per power of two, so the
//! representative midpoint of any bucket is within `1/64` of every value
//! the bucket can hold. `record` is O(1), `merge` is O(buckets) and
//! associative, and quantile extraction walks the (at most 1920) buckets
//! once.

use std::time::Duration;

/// Sub-bucket resolution: each power-of-two range is split into
/// `2^SUB_BITS` linear sub-buckets.
const SUB_BITS: u32 = 5;
const SUB_COUNT: usize = 1 << SUB_BITS; // 32

/// Total number of buckets needed to cover the full `u64` range:
/// 64 exact buckets for values `0..64`, then 32 sub-buckets for each of
/// the remaining 58 exponents (`2^6 ..= 2^63`).
const BUCKETS: usize = SUB_COUNT * 2 + (64 - SUB_BITS as usize - 1) * SUB_COUNT; // 1920

/// Upper bound on the relative quantile error: for any recorded value `v`,
/// the bucket representative `r` satisfies `|r - v| * 64 <= v`.
pub const MAX_RELATIVE_ERROR: f64 = 1.0 / 64.0;

/// A mergeable log-bucketed histogram over `u64` samples (nanoseconds, by
/// convention, but any magnitude works).
///
/// Tracks exact lifetime `count`, `sum`, `min` and `max` alongside the
/// bucket counts, so means and extremes are exact while quantiles carry a
/// bounded relative error of [`MAX_RELATIVE_ERROR`].
#[derive(Clone, PartialEq, Eq)]
pub struct LogHistogram {
    counts: Box<[u64; BUCKETS]>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for LogHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogHistogram")
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("min", &self.min_value())
            .field("max", &self.max_value())
            .field("nonzero_buckets", &self.nonzero_buckets().len())
            .finish()
    }
}

/// Index of the bucket holding `v`.
///
/// Values `0..2*SUB_COUNT` (i.e. `0..64`) map to themselves — exact,
/// single-value buckets. Beyond that, a value with highest set bit `h`
/// lands in sub-bucket `(v >> (h - SUB_BITS)) & (SUB_COUNT - 1)` of
/// exponent group `h - SUB_BITS`.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < (2 * SUB_COUNT) as u64 {
        v as usize
    } else {
        let h = 63 - v.leading_zeros(); // >= 6
        let exp = h - SUB_BITS;
        (((exp + 1) as usize) << SUB_BITS) | ((v >> exp) as usize & (SUB_COUNT - 1))
    }
}

/// Inclusive `(lo, hi)` value range covered by bucket `index`.
fn bucket_bounds(index: usize) -> (u64, u64) {
    if index < 2 * SUB_COUNT {
        (index as u64, index as u64)
    } else {
        let exp = (index >> SUB_BITS) as u32 - 1;
        let sub = (index & (SUB_COUNT - 1)) as u64;
        let lo = (SUB_COUNT as u64 + sub) << exp;
        let width = 1u64 << exp;
        (lo, lo + (width - 1))
    }
}

/// Representative value reported for bucket `index`: the midpoint of its
/// range, which is what bounds the relative error at `1/64`.
fn bucket_representative(index: usize) -> u64 {
    let (lo, hi) = bucket_bounds(index);
    lo + (hi - lo) / 2
}

impl LogHistogram {
    /// An empty histogram. Allocation is one fixed ~15 KiB counts array.
    pub fn new() -> Self {
        Self {
            counts: Box::new([0; BUCKETS]),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one sample. O(1): one branch, one shift, one increment.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Record a [`Duration`] as nanoseconds (saturating at `u64::MAX`).
    pub fn record_duration(&mut self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Fold `other` into `self`. Associative and commutative: merging
    /// per-server histograms gives exactly the histogram that would have
    /// been produced by recording every sample into one instance.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
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

    /// Exact sum of all recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact smallest recorded sample.
    pub fn min_value(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact largest recorded sample.
    pub fn max_value(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Exact mean of the recorded samples.
    pub fn mean(&self) -> Option<u64> {
        (self.count > 0).then(|| self.sum / self.count)
    }

    /// Nearest-rank quantile estimate for `q in [0, 1]`, within
    /// [`MAX_RELATIVE_ERROR`] of the exact order statistic. `q = 0` and
    /// `q = 1` return the exact min/max (estimates are clamped to the
    /// exact extremes, which can only shrink the error).
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (index, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(bucket_representative(index).clamp(self.min, self.max));
            }
        }
        Some(self.max) // unreachable: counts always sum to self.count
    }

    /// The non-empty buckets as `(inclusive upper bound, count)` pairs in
    /// increasing value order — the shape Prometheus-style cumulative
    /// `_bucket{le=...}` series are built from.
    pub(crate) fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_bounds(i).1, c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = LogHistogram::new();
        for v in 0..64u64 {
            h.record(v);
        }
        for v in 0..64usize {
            assert_eq!(bucket_bounds(v), (v as u64, v as u64));
        }
        assert_eq!(h.count(), 64);
        assert_eq!(h.min_value(), Some(0));
        assert_eq!(h.max_value(), Some(63));
        // every bucket is single-valued, so quantiles are exact
        assert_eq!(h.quantile(0.5), Some(31));
    }

    #[test]
    fn bucket_index_is_monotone_and_bounds_contain_values() {
        let probes: Vec<u64> = (0..64)
            .chain((6..63).flat_map(|e| {
                let base = 1u64 << e;
                [base, base + 1, base + base / 3, base * 2 - 1]
            }))
            .chain([u64::MAX - 1, u64::MAX])
            .collect();
        let mut prev_index = 0usize;
        let mut prev_v = 0u64;
        for &v in &probes {
            let i = bucket_index(v);
            assert!(i < BUCKETS, "index {i} out of range for {v}");
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= v && v <= hi, "{v} outside bucket [{lo}, {hi}]");
            if v > prev_v {
                assert!(i >= prev_index, "index not monotone at {v}");
            }
            prev_index = i;
            prev_v = v;
        }
    }

    #[test]
    fn representative_error_is_within_documented_bound() {
        for v in (0..1u64 << 22).step_by(997).chain([1u64 << 40, u64::MAX]) {
            let r = bucket_representative(bucket_index(v));
            let err = r.abs_diff(v);
            // err * 64 <= v  <=>  relative error <= 1/64
            assert!(
                err.saturating_mul(64) <= v,
                "value {v}: representative {r}, error {err}"
            );
        }
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let samples: Vec<u64> = (0..2000u64).map(|i| i * i % 100_003 + i).collect();
        let mut all = LogHistogram::new();
        let mut left = LogHistogram::new();
        let mut right = LogHistogram::new();
        for (i, &s) in samples.iter().enumerate() {
            all.record(s);
            if i % 2 == 0 {
                left.record(s);
            } else {
                right.record(s);
            }
        }
        let mut merged = LogHistogram::new();
        merged.merge(&left);
        merged.merge(&right);
        assert_eq!(merged, all);
    }

    /// Asserts the `q` quantile of `h` is within the documented relative
    /// error (1/64) of the exact nearest-rank order statistic `exact`.
    fn assert_quantile_within_bound(h: &LogHistogram, q: f64, exact: u64) {
        let actual = h.quantile(q).unwrap();
        assert!(
            actual.abs_diff(exact) * 64 <= exact,
            "q{q}: {actual} is more than 1/64 away from exact {exact}"
        );
    }

    #[test]
    fn quantiles_are_within_the_bound_and_extremes_exact() {
        let mut h = LogHistogram::new();
        for i in 1..=100u64 {
            h.record(i * 1000);
        }
        assert_eq!(h.count(), 100);
        // min/mean/max are exact lifetime accumulators
        assert_eq!(
            (h.min_value(), h.mean(), h.max_value()),
            (Some(1000), Some(50_500), Some(100_000))
        );
        // nearest-rank order statistics: rank ceil(q * n)
        for (q, exact) in [
            (0.5, 50_000),
            (0.99, 99_000),
            (0.999, 100_000),
            (0.9999, 100_000),
        ] {
            assert_quantile_within_bound(&h, q, exact);
        }
    }

    #[test]
    fn quantiles_cover_the_whole_lifetime_not_a_window() {
        // a ring of recent samples would evict the early outlier; the
        // histogram keeps every sample at fixed memory
        let mut h = LogHistogram::new();
        let n = 200_000u64;
        h.record(5);
        for i in 0..n {
            h.record(1_000_000 + i);
        }
        assert_eq!(h.count(), n + 1);
        assert_eq!(h.min_value(), Some(5));
        assert_eq!(h.max_value(), Some(1_000_000 + n - 1));
        // the outlier is in the distribution but cannot drag the median
        assert_quantile_within_bound(&h, 0.5, 1_000_000 + n / 2 - 1);
        assert_quantile_within_bound(&h, 0.999, 1_000_000 + n * 999 / 1000 - 1);
    }

    #[test]
    fn a_bimodal_distribution_keeps_both_modes() {
        let mut h = LogHistogram::new();
        let half = 65_536u64;
        for v in [1_000u64, 5_000] {
            for _ in 0..half {
                h.record(v);
            }
        }
        assert_eq!(h.count(), 2 * half);
        // exact nearest-rank p50 (rank = half) is the last 1_000 sample
        assert_quantile_within_bound(&h, 0.5, 1_000);
        assert_quantile_within_bound(&h, 0.99, 5_000);
        assert_quantile_within_bound(&h, 0.999, 5_000);
    }

    #[test]
    fn quantiles_clamp_to_exact_extremes() {
        let mut h = LogHistogram::new();
        h.record(1_000_003);
        assert_eq!(h.quantile(0.0), Some(1_000_003));
        assert_eq!(h.quantile(1.0), Some(1_000_003));
        assert_eq!(h.mean(), Some(1_000_003));
    }

    #[test]
    fn empty_histogram_reports_nothing() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.99), None);
        assert_eq!(h.min_value(), None);
        assert_eq!(h.max_value(), None);
        assert_eq!(h.mean(), None);
        assert!(h.nonzero_buckets().is_empty());
    }
}
