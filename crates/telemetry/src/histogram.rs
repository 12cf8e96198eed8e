//! Lock-free, mergeable, log-bucketed wall-clock histograms.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use agb_types::Histogram;

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
/// It buckets like the plain [`Histogram`] its
/// [`snapshot`](WallHistogram::snapshot) returns, over bounds fixed at
/// construction — fixed bounds are what make two histograms (two nodes,
/// two scrapes, two runs) *mergeable* by summing counters, which is how
/// cluster-wide p50/p99/p999 are computed from per-node scrapes. Unlike
/// the plain histogram, every cell is an atomic: recording is one
/// relaxed `fetch_add` per sample plus a CAS loop for the running sum,
/// so nodes record on their hot loops without a lock. It keeps no
/// minimum or maximum.
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
        cells.buckets[Histogram::bucket(&cells.bounds, value)].fetch_add(1, Ordering::Relaxed);
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
    pub fn snapshot(&self) -> Histogram {
        let cells = &*self.inner;
        Histogram::from_counts(
            cells.bounds.clone(),
            cells
                .buckets
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            cells.count.load(Ordering::Relaxed),
            f64::from_bits(cells.sum_bits.load(Ordering::Relaxed)),
        )
        .expect("the cells were built over ascending bounds, one bucket more")
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
        assert_eq!(h.snapshot().count(), 1);
    }

    #[test]
    fn observe_buckets_inclusively_and_sums() {
        let h = WallHistogram::new(&[1.0, 2.0]);
        for v in [0.5, 1.0, 1.5, 2.0, 9.0] {
            h.observe(v);
        }
        h.observe(f64::NAN);
        let s = h.snapshot();
        assert_eq!(s.counts(), vec![2, 2, 1]);
        assert_eq!(s.count(), 5);
        assert!((s.sum() - 14.0).abs() < 1e-9);
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
        assert_eq!(s.count(), 40_000);
        assert_eq!(s.counts().iter().sum::<u64>(), 40_000);
        // Sum survived the CAS races: 4 * sum over i of 0.0005*((i%7)+1).
        let expected: f64 = (0..40_000).map(|i| 0.0005 * ((i % 7 + 1) as f64)).sum();
        assert!(
            (s.sum() - expected).abs() < 1e-6,
            "{} vs {expected}",
            s.sum()
        );
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
