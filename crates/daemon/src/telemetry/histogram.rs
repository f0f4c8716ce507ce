//! Log-bucketed latency histograms with a fixed, mergeable layout.
//!
//! The daemon records three latency families per shard — solve wall
//! time per method, coordinator→worker queue delay, and checkpoint
//! serialization cost — at one `record()` per observation on the
//! coordinator's hot path. That rules out anything that locks,
//! allocates, or resizes: this module is the classic HDR-histogram
//! compromise, specialised to a fixed layout so every histogram in the
//! process is bucket-for-bucket mergeable by addition.
//!
//! ## Bucket layout
//!
//! Values are non-negative integers (nanoseconds, in the daemon's use).
//!
//! * **Linear region** — values `0..64` get one bucket each (exact).
//! * **Log region** — each power-of-two octave `[2^e, 2^(e+1))` for
//!   `e = 6..=47` is split into 32 equal sub-buckets, so the bucket
//!   width is always ≤ 1/32 of the bucket's lower bound: every stored
//!   value is recoverable to within **3.125% relative error**. Values
//!   at or above `2^48` ns (≈ 3.3 days) clamp into the last bucket.
//!
//! Total: `64 + 42 × 32 = 1408` buckets, ~11 KiB per histogram — small
//! enough that the daemon keeps one per shard×method without blinking.
//!
//! Two faces share the layout: [`LogHistogram`] is the plain, mergeable
//! snapshot type (what aggregation, quantiles, and tests operate on);
//! [`AtomicLogHistogram`] is the writer face — relaxed `fetch_add` per
//! record, wait-free, safely shared between the recording thread and
//! the aggregator taking snapshots mid-run.

use std::sync::atomic::{AtomicU64, Ordering};

/// One bucket per value below this (the linear region).
const LINEAR_MAX: u64 = 64;

/// log2 of the sub-buckets per octave in the log region.
const SUB_BITS: u32 = 5;

/// Sub-buckets per octave (`1 << SUB_BITS`).
const SUB_PER_OCTAVE: usize = 1 << SUB_BITS;

/// First octave exponent of the log region (`2^6 = LINEAR_MAX`).
const FIRST_EXPONENT: u32 = 6;

/// Last octave exponent; values `>= 2^(LAST_EXPONENT + 1)` clamp.
const LAST_EXPONENT: u32 = 47;

/// Total bucket count of the fixed layout.
pub const N_BUCKETS: usize =
    LINEAR_MAX as usize + (LAST_EXPONENT - FIRST_EXPONENT + 1) as usize * SUB_PER_OCTAVE;

/// Largest value the layout stores without clamping.
const CLAMP_MAX: u64 = (1u64 << (LAST_EXPONENT + 1)) - 1;

/// Bucket index of a value under the fixed layout.
fn bucket_of(value: u64) -> usize {
    if value < LINEAR_MAX {
        return value as usize;
    }
    let value = value.min(CLAMP_MAX);
    let exponent = 63 - value.leading_zeros(); // >= FIRST_EXPONENT
    let sub = ((value >> (exponent - SUB_BITS)) as usize) & (SUB_PER_OCTAVE - 1);
    LINEAR_MAX as usize + (exponent - FIRST_EXPONENT) as usize * SUB_PER_OCTAVE + sub
}

/// Inclusive `[lo, hi]` value range of a bucket.
fn bucket_bounds(bucket: usize) -> (u64, u64) {
    if bucket < LINEAR_MAX as usize {
        return (bucket as u64, bucket as u64);
    }
    let rel = bucket - LINEAR_MAX as usize;
    let exponent = FIRST_EXPONENT + (rel / SUB_PER_OCTAVE) as u32;
    let sub = (rel % SUB_PER_OCTAVE) as u64;
    let width = 1u64 << (exponent - SUB_BITS);
    let lo = (SUB_PER_OCTAVE as u64 + sub) * width;
    (lo, lo + width - 1)
}

/// Representative value reported for a bucket: exact in the linear
/// region, the bucket midpoint in the log region (worst-case relative
/// error = half the ≤ 1/32 bucket width).
fn representative(bucket: usize) -> u64 {
    let (lo, hi) = bucket_bounds(bucket);
    lo + (hi - lo) / 2
}

/// A plain, mergeable histogram over the fixed layout. This is the
/// snapshot/aggregation face: dense bucket counts plus exact tracked
/// `count/sum/min/max`, so `max()` and `mean()` are exact while
/// mid-distribution quantiles carry the layout's ≤ 3.125% relative
/// error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    counts: Vec<u64>,
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

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            counts: vec![0; N_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, value: u64) {
        self.counts[bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Fold another histogram in. Bucket layouts are identical by
    /// construction, so a merge is pure addition — the result is
    /// exactly the histogram of the concatenated observation streams,
    /// independent of recording or merge order.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation (exact), `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (!self.is_empty()).then_some(self.min)
    }

    /// Largest observation (exact), `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (!self.is_empty()).then_some(self.max)
    }

    /// Mean observation, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (!self.is_empty()).then_some(self.sum as f64 / self.count as f64)
    }

    /// The `q`-quantile (`q` in `[0, 1]`), `None` when empty. The
    /// returned value is the representative of the bucket holding the
    /// rank-`⌈q·count⌉` observation, clamped into the exact observed
    /// `[min, max]` — so `quantile(1.0)` is the exact maximum and every
    /// estimate is within one bucket's relative error (≤ 3.125%) of the
    /// exact order statistic.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (bucket, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(representative(bucket).clamp(self.min, self.max));
            }
        }
        Some(self.max) // unreachable: counts sum to self.count
    }

    /// Median (see [`Self::quantile`]).
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> Option<u64> {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// Condense into the small summary the protocol serves.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            sum_ns: self.sum,
            min_ns: self.min().unwrap_or(0),
            max_ns: self.max().unwrap_or(0),
            mean_ns: self.mean().unwrap_or(0.0),
            p50_ns: self.p50().unwrap_or(0),
            p90_ns: self.p90().unwrap_or(0),
            p99_ns: self.p99().unwrap_or(0),
        }
    }
}

/// The condensed form of one histogram: what `stats` responses carry
/// and what [`crate::DaemonReport`] retains. All durations in
/// nanoseconds; quantiles inherit [`LogHistogram::quantile`]'s error
/// bound, `max_ns`/`mean_ns` are exact.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSummary {
    /// Observations recorded.
    pub count: u64,
    /// Sum of observations.
    pub sum_ns: u64,
    /// Exact minimum (0 when empty).
    pub min_ns: u64,
    /// Exact maximum (0 when empty).
    pub max_ns: u64,
    /// Exact mean (0 when empty).
    pub mean_ns: f64,
    /// Median estimate.
    pub p50_ns: u64,
    /// 90th-percentile estimate.
    pub p90_ns: u64,
    /// 99th-percentile estimate.
    pub p99_ns: u64,
}

/// The wait-free writer face: same layout, atomic bucket counts.
/// `record` is a handful of relaxed RMW operations — no locks, no
/// allocation — so a recorder can log every tick while the aggregator
/// snapshots concurrently. A snapshot is a near-point-in-time view:
/// each field is read atomically but the set is not a single cut,
/// which telemetry (monotone counters, converging quantiles) tolerates
/// by design.
#[derive(Debug)]
pub struct AtomicLogHistogram {
    counts: Box<[AtomicU64]>,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for AtomicLogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicLogHistogram {
    /// An empty recorder.
    pub fn new() -> Self {
        AtomicLogHistogram {
            counts: (0..N_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one observation (wait-free, relaxed ordering).
    pub fn record(&self, value: u64) {
        self.counts[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Materialize a plain [`LogHistogram`] from the current counts.
    /// The snapshot's total is derived from the bucket counts so the
    /// quantile walk is internally consistent even while writers race.
    pub fn snapshot(&self) -> LogHistogram {
        let counts: Vec<u64> = self
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let count: u64 = counts.iter().sum();
        let max = self.max.load(Ordering::Relaxed);
        let min = self.min.load(Ordering::Relaxed);
        LogHistogram {
            counts,
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 { u64::MAX } else { min.min(max) },
            max,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_contiguous_and_monotone() {
        let mut expected_lo = 0u64;
        for b in 0..N_BUCKETS {
            let (lo, hi) = bucket_bounds(b);
            assert_eq!(lo, expected_lo, "bucket {b} not contiguous");
            assert!(hi >= lo);
            assert_eq!(bucket_of(lo), b);
            assert_eq!(bucket_of(hi), b);
            expected_lo = hi + 1;
        }
        assert_eq!(expected_lo, CLAMP_MAX + 1);
    }

    #[test]
    fn relative_error_bound_holds_per_bucket() {
        for b in LINEAR_MAX as usize..N_BUCKETS {
            let (lo, hi) = bucket_bounds(b);
            assert!(
                (hi - lo) as f64 <= lo as f64 / 32.0,
                "bucket {b}: width {} vs lo {lo}",
                hi - lo
            );
        }
    }

    #[test]
    fn linear_region_is_exact() {
        let mut h = LogHistogram::new();
        for v in 0..LINEAR_MAX {
            h.record(v);
        }
        for v in 0..LINEAR_MAX {
            let q = (v + 1) as f64 / LINEAR_MAX as f64;
            assert_eq!(h.quantile(q), Some(v));
        }
    }

    #[test]
    fn huge_values_clamp_instead_of_panicking() {
        let mut h = LogHistogram::new();
        h.record(u64::MAX);
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), Some(u64::MAX)); // tracked exactly
        assert_eq!(h.quantile(0.5), Some(u64::MAX)); // clamped into [min, max]
    }

    #[test]
    fn merge_equals_concatenated_recording() {
        let values_a = [0u64, 1, 63, 64, 65, 1_000, 123_456, 7_777_777];
        let values_b = [5u64, 64, 2_000_000_000, 42];
        let mut merged = LogHistogram::new();
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        for &v in &values_a {
            a.record(v);
            merged.record(v);
        }
        for &v in &values_b {
            b.record(v);
            merged.record(v);
        }
        a.merge(&b);
        assert_eq!(a, merged);
    }

    #[test]
    fn atomic_snapshot_matches_plain_recording() {
        let atomic = AtomicLogHistogram::new();
        let mut plain = LogHistogram::new();
        for v in [3u64, 64, 100, 5_000, 0, 999_999_999] {
            atomic.record(v);
            plain.record(v);
        }
        assert_eq!(atomic.snapshot(), plain);
    }

    #[test]
    fn empty_summary_is_all_zero() {
        let s = LogHistogram::new().summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.max_ns, 0);
        assert_eq!(s.p99_ns, 0);
    }

    #[test]
    fn quantiles_track_exact_order_statistics() {
        let mut h = LogHistogram::new();
        let mut values: Vec<u64> = (0..10_000u64).map(|i| i * i * 13 + 17).collect();
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
            let exact = values[rank - 1];
            let est = h.quantile(q).unwrap();
            let tol = exact / 32 + 1;
            assert!(
                est.abs_diff(exact) <= tol,
                "q={q}: est {est} vs exact {exact}"
            );
        }
    }
}
