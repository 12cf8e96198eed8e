//! Lock-free, mergeable, log-bucketed wall-clock histograms.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Generates `n` log-spaced bucket upper bounds: `start, start*factor,
/// start*factor^2, …` — the standard shape for latency distributions,
/// where relative error matters and the tail spans orders of magnitude.
pub fn log_bounds(start: f64, factor: f64, n: usize) -> Vec<f64> {
    assert!(start > 0.0 && factor > 1.0, "bounds must grow");
    let mut bounds = Vec::with_capacity(n);
    let mut b = start;
    for _ in 0..n {
        bounds.push(b);
        b *= factor;
    }
    bounds
}

/// The default bucket bounds for end-to-end delivery latency in
/// seconds: 1 ms to ~16 s in powers of two — wide enough for a gossip
/// period of 50 ms and a recovery round trip under loss.
pub fn latency_seconds_bounds() -> Vec<f64> {
    log_bounds(0.001, 2.0, 15)
}

/// Bucket bounds for *dwell* and loop-iteration times in seconds:
/// 1 µs to ~16 s in powers of four. Queue dwell and node-loop
/// iterations live three orders of magnitude below delivery latency —
/// measuring them against [`latency_seconds_bounds`] collapses every
/// sample into the first bucket and reports a useless flat p99.
pub fn dwell_seconds_bounds() -> Vec<f64> {
    log_bounds(1e-6, 4.0, 12)
}

/// A lock-free fixed-bound histogram for wall-clock measurements.
///
/// Buckets are `(-inf, b0], (b0, b1], …, (b_{n-1}, +inf)` over bounds
/// fixed at construction, like [`agb_trace::Histogram`] — fixed bounds
/// are what make two histograms (two nodes, two scrapes, two runs)
/// *mergeable* by summing counters, which is how cluster-wide
/// p50/p99/p999 are computed from per-node scrapes. Unlike the trace
/// histogram, every cell is an atomic: recording is one relaxed
/// `fetch_add` per sample plus a CAS loop for the running sum, so nodes
/// record on their hot loops without a lock.
#[derive(Debug, Clone)]
pub struct WallHistogram {
    inner: Arc<Cells>,
}

#[derive(Debug)]
struct Cells {
    bounds: Vec<f64>,
    /// `bounds.len() + 1` counters; last catches overflow.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// f64 bits, maintained by CAS.
    sum_bits: AtomicU64,
}

impl WallHistogram {
    /// Creates an empty histogram over the given strictly ascending
    /// bucket upper bounds (normally obtained from a
    /// [`Registry`](crate::Registry) instead).
    pub fn new(bounds: &[f64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        WallHistogram {
            inner: Arc::new(Cells {
                bounds: bounds.to_vec(),
                buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
                count: AtomicU64::new(0),
                sum_bits: AtomicU64::new(0f64.to_bits()),
            }),
        }
    }

    /// Records one sample. Non-finite samples are ignored.
    pub fn observe(&self, value: f64) {
        if !value.is_finite() {
            return;
        }
        let cells = &*self.inner;
        let idx = cells
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(cells.bounds.len());
        cells.buckets[idx].fetch_add(1, Ordering::Relaxed);
        cells.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = cells.sum_bits.load(Ordering::Relaxed);
        loop {
            let new = (f64::from_bits(cur) + value).to_bits();
            match cells.sum_bits.compare_exchange_weak(
                cur,
                new,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// A point-in-time copy of the counters. Taken cell by cell while
    /// writers run, so the cells may straddle a sample — each cell is
    /// individually consistent and monotone across snapshots, which is
    /// the usual Prometheus scrape contract.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let cells = &*self.inner;
        HistogramSnapshot {
            bounds: cells.bounds.clone(),
            counts: cells
                .buckets
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            count: cells.count.load(Ordering::Relaxed),
            sum: f64::from_bits(cells.sum_bits.load(Ordering::Relaxed)),
        }
    }
}

/// An owned copy of a histogram's counters — what a scrape yields and
/// what per-node results merge into.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Bucket upper bounds.
    pub bounds: Vec<f64>,
    /// Per-bucket counts; `bounds.len() + 1` entries, last = overflow.
    pub counts: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: f64,
}

impl HistogramSnapshot {
    /// Element-wise sum with another snapshot over identical bounds —
    /// per-node histograms fold into the cluster-wide distribution.
    /// Returns `false` (and changes nothing) on a bounds mismatch.
    #[must_use]
    pub fn merge(&mut self, other: &HistogramSnapshot) -> bool {
        if self.bounds != other.bounds || self.counts.len() != other.counts.len() {
            return false;
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        true
    }

    /// Exact mean of the recorded samples, if any.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Approximate `q`-quantile (`0.0..=1.0`): the upper bound of the
    /// first bucket whose cumulative count reaches `q * count`; the
    /// overflow bucket reports the last finite bound (the snapshot does
    /// not carry a max).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(self.bounds[idx.min(self.bounds.len().saturating_sub(1))]);
            }
        }
        self.bounds.last().copied()
    }

    /// The p50/p90/p99/p999 quantiles in one call (the SLO report row).
    pub fn slo_quantiles(&self) -> Option<[f64; 4]> {
        Some([
            self.quantile(0.5)?,
            self.quantile(0.9)?,
            self.quantile(0.99)?,
            self.quantile(0.999)?,
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_bounds_grow_geometrically() {
        let b = log_bounds(1.0, 2.0, 4);
        assert_eq!(b, vec![1.0, 2.0, 4.0, 8.0]);
        assert_eq!(latency_seconds_bounds().len(), 15);
        assert!((latency_seconds_bounds()[0] - 0.001).abs() < 1e-12);
    }

    #[test]
    fn per_metric_presets_cover_their_scales() {
        // A 20 µs dwell sample must land above the first dwell bucket
        // but below the first *latency* bucket — the whole point of
        // per-metric presets.
        let dwell = dwell_seconds_bounds();
        assert!(dwell[0] < 20e-6 && *dwell.last().unwrap() > 1.0);
        let idx = dwell.iter().position(|&b| 20e-6 <= b).unwrap();
        assert!(idx > 0, "a 20 µs sample resolves past the first bucket");
        assert!(20e-6 < latency_seconds_bounds()[0]);
        // The preset is a valid strictly-ascending histogram bound set.
        let h = WallHistogram::new(&dwell);
        h.observe(100.0);
        assert_eq!(h.snapshot().count, 1);
    }

    #[test]
    fn observe_buckets_inclusively_and_sums() {
        let h = WallHistogram::new(&[1.0, 2.0]);
        for v in [0.5, 1.0, 1.5, 2.0, 9.0] {
            h.observe(v);
        }
        h.observe(f64::NAN);
        let s = h.snapshot();
        assert_eq!(s.counts, vec![2, 2, 1]);
        assert_eq!(s.count, 5);
        assert!((s.sum - 14.0).abs() < 1e-9);
        assert_eq!(s.mean(), Some(2.8));
    }

    #[test]
    fn concurrent_observers_lose_nothing() {
        let h = WallHistogram::new(&log_bounds(0.001, 2.0, 10));
        std::thread::scope(|s| {
            for t in 0..4 {
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..10_000 {
                        h.observe(0.0005 * ((t * 10_000 + i) % 7 + 1) as f64);
                    }
                });
            }
        });
        let s = h.snapshot();
        assert_eq!(s.count, 40_000);
        assert_eq!(s.counts.iter().sum::<u64>(), 40_000);
        // Sum survived the CAS races: 4 * sum over i of 0.0005*((i%7)+1).
        let expected: f64 = (0..40_000).map(|i| 0.0005 * ((i % 7 + 1) as f64)).sum();
        assert!((s.sum - expected).abs() < 1e-6, "{} vs {expected}", s.sum);
    }

    #[test]
    fn merge_requires_identical_bounds() {
        let a = WallHistogram::new(&[1.0, 2.0]);
        a.observe(0.5);
        let b = WallHistogram::new(&[1.0, 2.0]);
        b.observe(5.0);
        let mut m = a.snapshot();
        assert!(m.merge(&b.snapshot()));
        assert_eq!(m.counts, vec![1, 0, 1]);
        assert_eq!(m.count, 2);
        let other = WallHistogram::new(&[1.0, 3.0]).snapshot();
        assert!(!m.merge(&other));
        assert_eq!(m.count, 2, "failed merge must not change anything");
    }

    #[test]
    fn quantiles_walk_cumulative_counts() {
        let h = WallHistogram::new(&[1.0, 2.0, 4.0, 8.0]);
        for _ in 0..90 {
            h.observe(0.5);
        }
        for _ in 0..9 {
            h.observe(3.0);
        }
        h.observe(7.0);
        let s = h.snapshot();
        let [p50, p90, p99, p999] = s.slo_quantiles().unwrap();
        assert_eq!(p50, 1.0);
        assert_eq!(p90, 1.0);
        assert_eq!(p99, 4.0);
        assert_eq!(p999, 8.0);
        let empty = WallHistogram::new(&[1.0]).snapshot();
        assert_eq!(empty.quantile(0.5), None);
    }
}
