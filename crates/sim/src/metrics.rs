//! Measurement utilities shared by every experiment in the reproduction:
//! sample histograms with percentiles.

/// HDR-style log-linear buckets: values below `1 << sub_bits` land in their
/// own bucket (exact); above that, each power-of-two range is split into
/// `1 << sub_bits` equal sub-buckets, bounding the relative quantization
/// error at `2^-sub_bits`.
#[derive(Debug, Clone)]
struct Buckets {
    sub_bits: u32,
    /// Bucket occupancy, grown on demand (index via [`Buckets::index_of`]).
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Buckets {
    fn new(sub_bits: u32) -> Self {
        assert!(
            (1..=16).contains(&sub_bits),
            "sub_bits must be in 1..=16 (got {sub_bits})"
        );
        Buckets {
            sub_bits,
            counts: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket a value falls in. Total buckets are bounded by
    /// `(65 - sub_bits) << sub_bits` (≈ 2 k at the default resolution),
    /// regardless of how many samples are recorded.
    fn index_of(&self, v: u64) -> usize {
        let sub = 1u64 << self.sub_bits;
        if v < sub {
            return v as usize;
        }
        let exp = 63 - v.leading_zeros() as u64; // floor(log2 v) >= sub_bits
        let group = exp - self.sub_bits as u64 + 1;
        let offset = (v >> (exp - self.sub_bits as u64)) - sub;
        (group * sub + offset) as usize
    }

    /// The smallest value that maps to bucket `i` (the representative
    /// reported by percentile queries; never above any sample in `i`).
    fn low_edge(&self, i: usize) -> u64 {
        let sub = 1usize << self.sub_bits;
        if i < sub {
            return i as u64;
        }
        let group = (i / sub) as u64; // >= 1
        let offset = (i % sub) as u64;
        (sub as u64 + offset) << (group - 1)
    }

    fn record(&mut self, v: u64) {
        let i = self.index_of(v);
        if i >= self.counts.len() {
            self.counts.resize(i + 1, 0);
        }
        self.counts[i] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }
}

/// A latency/size histogram with two storage modes.
///
/// The default ([`Histogram::new`]) records every sample in a `Vec`,
/// supporting exact means and percentiles — simulation scales in this
/// repository mostly stay well under a few hundred million samples, so
/// exact recording avoids bucket-resolution artifacts in latency tails.
///
/// [`Histogram::bucketed`] switches to HDR-style log-linear buckets whose
/// memory is bounded by the value range, not the sample count — the right
/// mode for million-cell soaks and always-on tracing registries. Percentiles
/// then carry a bounded relative quantization error of `2^-sub_bits`
/// (reported values are bucket lower edges, so they never exceed the true
/// quantile's bucket).
#[derive(Debug, Clone)]
pub struct Histogram {
    repr: Repr,
}

#[derive(Debug, Clone)]
enum Repr {
    Exact { samples: Vec<u64>, sorted: bool },
    Bucketed(Buckets),
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty exact-mode histogram (every sample kept).
    pub fn new() -> Self {
        Histogram {
            repr: Repr::Exact {
                samples: Vec::new(),
                sorted: true,
            },
        }
    }

    /// An empty bucketed histogram with `1 << sub_bits` sub-buckets per
    /// power of two (relative error ≤ `2^-sub_bits`). Memory is bounded by
    /// the value *range* instead of the sample count.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= sub_bits <= 16`.
    pub fn bucketed(sub_bits: u32) -> Self {
        Histogram {
            repr: Repr::Bucketed(Buckets::new(sub_bits)),
        }
    }

    /// Records a sample.
    pub fn record(&mut self, value: u64) {
        match &mut self.repr {
            Repr::Exact { samples, sorted } => {
                samples.push(value);
                *sorted = false;
            }
            Repr::Bucketed(b) => b.record(value),
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> usize {
        match &self.repr {
            Repr::Exact { samples, .. } => samples.len(),
            Repr::Bucketed(b) => b.count as usize,
        }
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Arithmetic mean, or `None` when empty. Exact in both modes (the
    /// bucketed mode keeps a running sum of the raw values).
    pub fn mean(&self) -> Option<f64> {
        match &self.repr {
            Repr::Exact { samples, .. } => {
                if samples.is_empty() {
                    None
                } else {
                    Some(samples.iter().map(|&s| s as f64).sum::<f64>() / samples.len() as f64)
                }
            }
            Repr::Bucketed(b) => {
                if b.count == 0 {
                    None
                } else {
                    Some(b.sum as f64 / b.count as f64)
                }
            }
        }
    }

    /// Largest sample (exact in both modes).
    pub fn max(&self) -> Option<u64> {
        match &self.repr {
            Repr::Exact { samples, .. } => samples.iter().copied().max(),
            Repr::Bucketed(b) => (b.count > 0).then_some(b.max),
        }
    }

    /// Smallest sample (exact in both modes).
    pub fn min(&self) -> Option<u64> {
        match &self.repr {
            Repr::Exact { samples, .. } => samples.iter().copied().min(),
            Repr::Bucketed(b) => (b.count > 0).then_some(b.min),
        }
    }

    /// The `q`-quantile (`0.0..=1.0`) by the nearest-rank method, or `None`
    /// when empty. In bucketed mode the result is the lower edge of the
    /// rank's bucket (relative error ≤ `2^-sub_bits`), clamped to the
    /// recorded min/max.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn percentile(&mut self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "percentile out of range");
        match &mut self.repr {
            Repr::Exact { samples, sorted } => {
                if !*sorted {
                    samples.sort_unstable();
                    *sorted = true;
                }
                if samples.is_empty() {
                    return None;
                }
                let rank = ((q * samples.len() as f64).ceil() as usize).max(1) - 1;
                Some(samples[rank.min(samples.len() - 1)])
            }
            Repr::Bucketed(b) => {
                if b.count == 0 {
                    return None;
                }
                let rank = ((q * b.count as f64).ceil() as u64).max(1);
                let mut seen = 0u64;
                for (i, &n) in b.counts.iter().enumerate() {
                    seen += n;
                    if seen >= rank {
                        return Some(b.low_edge(i).clamp(b.min, b.max));
                    }
                }
                Some(b.max)
            }
        }
    }

    /// Read-only view of the raw samples (unsorted order not guaranteed).
    /// Bucketed histograms do not retain raw samples and return an empty
    /// slice.
    pub fn samples(&self) -> &[u64] {
        match &self.repr {
            Repr::Exact { samples, .. } => samples,
            Repr::Bucketed(_) => &[],
        }
    }

    /// Merges another histogram into this one. Exact-into-exact keeps every
    /// sample; same-resolution bucketed pairs add bucket counts (lossless
    /// relative to their shared quantization); any other combination
    /// re-records the other side's samples or bucket representatives.
    pub fn merge(&mut self, other: &Histogram) {
        match (&mut self.repr, &other.repr) {
            (Repr::Exact { samples, sorted }, Repr::Exact { samples: o, .. }) => {
                samples.extend_from_slice(o);
                *sorted = false;
            }
            (Repr::Bucketed(a), Repr::Bucketed(b)) if a.sub_bits == b.sub_bits => {
                if b.counts.len() > a.counts.len() {
                    a.counts.resize(b.counts.len(), 0);
                }
                for (i, &n) in b.counts.iter().enumerate() {
                    a.counts[i] += n;
                }
                a.count += b.count;
                a.sum += b.sum;
                a.min = a.min.min(b.min);
                a.max = a.max.max(b.max);
            }
            (_, Repr::Exact { samples: o, .. }) => {
                for &v in o {
                    self.record(v);
                }
            }
            (_, Repr::Bucketed(b)) => {
                // Cross-resolution: replay each bucket's lower edge, with
                // one sample pinned to each recorded extreme so min/max
                // stay exact.
                let first = b.counts.iter().position(|&n| n > 0);
                let last = b.counts.iter().rposition(|&n| n > 0);
                for (i, &n) in b.counts.iter().enumerate() {
                    if n == 0 {
                        continue;
                    }
                    let mut remaining = n;
                    if Some(i) == first {
                        self.record(b.min);
                        remaining -= 1;
                    }
                    if Some(i) == last && remaining > 0 {
                        self.record(b.max);
                        remaining -= 1;
                    }
                    let v = b.low_edge(i).clamp(b.min, b.max);
                    for _ in 0..remaining {
                        self.record(v);
                    }
                }
            }
        }
    }

    /// Summarizes what this bucketed histogram gained since `mark` — its
    /// bucket counts at an earlier point, empty for "since it was made" —
    /// and advances `mark` to now. This is what turns a cumulative registry
    /// histogram into a *per-interval* one without copying it: the walk
    /// reads each bucket once and writes the mark in the same pass.
    ///
    /// The delta is exact relative to the buckets' quantization. Its
    /// min/max are the edges of the first and last bucket that gained,
    /// clamped into the recorded range — so against an empty mark they are
    /// the exact extremes — and its percentiles are nearest-rank bucket
    /// lower edges clamped into them, as [`Histogram::percentile`]'s are.
    /// `None` (and `mark` untouched) when nothing was recorded since.
    ///
    /// # Panics
    ///
    /// Panics on an exact-mode histogram.
    pub fn delta_since(&self, mark: &mut Vec<u64>) -> Option<HistStat> {
        let Repr::Bucketed(b) = &self.repr else {
            panic!("delta_since needs a bucketed histogram");
        };
        // Buckets are only ever added, so the mark is a prefix in length.
        mark.resize(b.counts.len(), 0);
        let moved = |i: usize| b.counts[i] - mark[i];
        let first = (0..b.counts.len()).find(|&i| moved(i) > 0)?;
        let last = (first..b.counts.len()).rfind(|&i| moved(i) > 0)?;
        let count: u64 = (first..=last).map(moved).sum();
        let max = b.low_edge(last + 1).saturating_sub(1).min(b.max);
        let min = b.low_edge(first).max(b.min).min(max);
        let rank = |q: f64| ((q * count as f64).ceil() as u64).max(1);
        let (r50, r99) = (rank(0.5), rank(0.99));
        let (mut p50, mut p99, mut seen) = (None, None, 0);
        for (i, m) in mark.iter_mut().enumerate().take(last + 1).skip(first) {
            seen += b.counts[i] - *m;
            *m = b.counts[i];
            let edge = || b.low_edge(i).clamp(min, max);
            if p50.is_none() && seen >= r50 {
                p50 = Some(edge());
            }
            if p99.is_none() && seen >= r99 {
                p99 = Some(edge());
            }
        }
        Some(HistStat {
            count,
            min,
            p50: p50.unwrap_or(max),
            p99: p99.unwrap_or(max),
            max,
        })
    }
}

/// What one histogram gained over an interval — the summary
/// [`Histogram::delta_since`] computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistStat {
    /// Samples recorded over the interval.
    pub count: u64,
    /// Smallest sample: exact against an empty mark, else the lower edge
    /// of its bucket clamped into the recorded range.
    pub min: u64,
    /// Median.
    pub p50: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Largest sample: exact against an empty mark, else the upper edge
    /// of its bucket clamped into the recorded range.
    pub max: u64,
}

impl FromIterator<u64> for Histogram {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        let mut h = Histogram::new();
        for v in iter {
            h.record(v);
        }
        h
    }
}

impl Extend<u64> for Histogram {
    fn extend<I: IntoIterator<Item = u64>>(&mut self, iter: I) {
        for v in iter {
            self.record(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_since_recovers_the_interval_distribution() {
        let mut h = Histogram::bucketed(5);
        let mut mark = Vec::new();
        for v in [10u64, 20, 30, 1000] {
            h.record(v);
        }
        // Against an empty mark: the whole histogram, exact extremes and
        // the same percentiles the histogram itself reports.
        let whole = h.delta_since(&mut mark).unwrap();
        let mut all = h.clone();
        let expect = HistStat {
            count: 4,
            min: 10,
            p50: all.percentile(0.5).unwrap(),
            p99: all.percentile(0.99).unwrap(),
            max: 1000,
        };
        assert_eq!(whole, expect);
        // Nothing new: no summary, and the mark stays put.
        let held = mark.clone();
        assert_eq!(h.delta_since(&mut mark), None);
        assert_eq!(mark, held);
        // The next interval sees only its own samples, min/max at bucket
        // edges clamped into the recorded range.
        for v in [2000u64, 3000, 4000] {
            h.record(v);
        }
        let d = h.delta_since(&mut mark).unwrap();
        assert_eq!(d.count, 3);
        assert!((1984..=2000).contains(&d.min), "delta min {}", d.min);
        assert!((2944..=3000).contains(&d.p50), "delta p50 {}", d.p50);
        assert_eq!(d.max, 4000);
        assert_eq!(h.delta_since(&mut mark), None);
    }

    #[test]
    fn histogram_basic_stats() {
        let mut h: Histogram = (1..=100).collect();
        assert_eq!(h.count(), 100);
        assert_eq!(h.mean(), Some(50.5));
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(100));
        assert_eq!(h.percentile(0.5), Some(50));
        assert_eq!(h.percentile(0.99), Some(99));
        assert_eq!(h.percentile(1.0), Some(100));
        assert_eq!(h.percentile(0.0), Some(1));
    }

    #[test]
    fn histogram_empty() {
        let mut h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), None);
        assert_eq!(h.percentile(0.5), None);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        a.record(2000);
        let b: Histogram = vec![1000].into_iter().collect();
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), Some(1000));
        assert_eq!(a.max(), Some(2000));
    }

    #[test]
    fn histogram_percentile_after_interleaved_records() {
        let mut h = Histogram::new();
        h.record(5);
        assert_eq!(h.percentile(0.5), Some(5));
        h.record(1); // invalidates sort
        assert_eq!(h.percentile(0.0), Some(1));
    }

    #[test]
    #[should_panic(expected = "percentile out of range")]
    fn percentile_rejects_bad_q() {
        let mut h: Histogram = vec![1].into_iter().collect();
        let _ = h.percentile(1.5);
    }

    #[test]
    fn histogram_extend() {
        let mut h = Histogram::new();
        h.extend([3u64, 1, 2]);
        assert_eq!(h.count(), 3);
        assert_eq!(h.percentile(1.0), Some(3));
    }

    #[test]
    fn bucketed_tracks_exact_extremes_and_mean() {
        let mut h = Histogram::bucketed(5);
        for v in 1..=100_000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100_000);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(100_000));
        assert_eq!(h.mean(), Some(50_000.5));
        assert!(h.samples().is_empty());
    }

    #[test]
    fn bucketed_percentile_within_relative_error() {
        let sub_bits = 5;
        let mut exact = Histogram::new();
        let mut bucketed = Histogram::bucketed(sub_bits);
        for v in (0..200_000u64).map(|i| i * 7 + 3) {
            exact.record(v);
            bucketed.record(v);
        }
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            let e = exact.percentile(q).unwrap() as f64;
            let b = bucketed.percentile(q).unwrap() as f64;
            // Lower-edge convention: the bucketed answer sits at most one
            // bucket width (2^-sub_bits relative) below the exact one.
            assert!(b <= e, "q={q}: bucketed {b} above exact {e}");
            assert!(
                e - b <= e / f64::from(1u32 << sub_bits) + 1.0,
                "q={q}: bucketed {b} too far below exact {e}"
            );
        }
    }

    #[test]
    fn bucketed_memory_is_bounded_by_value_range() {
        let mut h = Histogram::bucketed(5);
        for i in 0..1_000_000u64 {
            h.record(i % 4096);
        }
        // 4096 = 2^12: at most (12 - 5 + 1) * 32 + 32 buckets ever exist.
        match &h.repr {
            Repr::Bucketed(b) => assert!(b.counts.len() <= 320, "{}", b.counts.len()),
            Repr::Exact { .. } => panic!("expected bucketed repr"),
        }
        assert_eq!(h.count(), 1_000_000);
    }

    #[test]
    fn bucketed_small_values_stay_exact() {
        let mut h = Histogram::bucketed(6);
        for v in [0u64, 1, 2, 3, 60, 63] {
            h.record(v);
        }
        // Everything below 2^6 has its own bucket: percentiles are exact.
        assert_eq!(h.percentile(0.0), Some(0));
        assert_eq!(h.percentile(0.5), Some(2));
        assert_eq!(h.percentile(1.0), Some(63));
    }

    #[test]
    fn bucketed_merge_same_resolution_adds_counts() {
        let mut a = Histogram::bucketed(5);
        let mut b = Histogram::bucketed(5);
        a.record(10);
        a.record(1_000);
        b.record(500_000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min(), Some(10));
        assert_eq!(a.max(), Some(500_000));
    }

    #[test]
    fn merge_across_modes_preserves_count_and_extremes() {
        let mut exact = Histogram::new();
        exact.record(7);
        let mut bucketed = Histogram::bucketed(5);
        bucketed.record(3);
        bucketed.record(90_000);
        exact.merge(&bucketed);
        assert_eq!(exact.count(), 3);
        assert_eq!(exact.min(), Some(3));
        assert_eq!(exact.max(), Some(90_000));

        let mut bucketed2 = Histogram::bucketed(4);
        bucketed2.merge(&exact);
        assert_eq!(bucketed2.count(), 3);
        assert_eq!(bucketed2.min(), Some(3));
        assert_eq!(bucketed2.max(), Some(90_000));
    }
}
