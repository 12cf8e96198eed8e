//! The one plain fixed-bound histogram, shared by the deterministic trace
//! plane and the wall-clock telemetry plane.

/// A histogram over fixed, strictly ascending bucket upper bounds.
///
/// Buckets are `(-inf, b0], (b0, b1], …, (b_{n-1}, +inf)`: `n` bounds
/// produce `n + 1` counters, the last catching overflow. Fixed bounds
/// make two histograms — two runs, two nodes, two scrapes — diff and
/// [`merge`](Histogram::merge) bucket by bucket.
///
/// Alongside the counters it keeps the sample count and sum, so means
/// are exact even though quantiles have bucket resolution, and the
/// smallest and largest sample when it saw them: [`observe`] keeps
/// them, while counts recorded elsewhere ([`from_counts`]) carry none.
///
/// [`observe`]: Histogram::observe
/// [`from_counts`]: Histogram::from_counts
///
/// # Example
///
/// ```
/// use agb_types::Histogram;
///
/// let mut h = Histogram::new(&[1.0, 2.0, 4.0, 8.0]);
/// for hops in [1.0, 1.0, 2.0, 3.0, 5.0] {
///     h.observe(hops);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.mean(), Some(2.4));
/// assert_eq!(h.max(), Some(5.0));
/// assert_eq!(h.quantile(0.5), Some(2.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Strictly ascending bucket upper bounds.
    bounds: Vec<f64>,
    /// `bounds.len() + 1` per-bucket counts, the last overflow.
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    /// Smallest and largest sample, when every sample went through
    /// `observe`; `None` when empty or when the counts came from
    /// elsewhere.
    range: Option<(f64, f64)>,
}

fn ascending(bounds: &[f64]) -> bool {
    bounds.windows(2).all(|w| w[0] < w[1])
}

impl Histogram {
    /// An empty histogram over `bounds`.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is not strictly ascending.
    pub fn new(bounds: &[f64]) -> Self {
        assert!(
            ascending(bounds),
            "histogram bounds must be strictly ascending"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
            range: None,
        }
    }

    /// Counts recorded elsewhere — a lock-free recorder's cells or a
    /// parsed scrape — over `bounds`: `count` samples summing to `sum`,
    /// extremes unknown. `None` unless `bounds` is strictly ascending and
    /// there is one more count than bounds.
    pub fn from_counts(bounds: Vec<f64>, counts: Vec<u64>, count: u64, sum: f64) -> Option<Self> {
        let valid = ascending(&bounds) && counts.len() == bounds.len() + 1;
        valid.then_some(Histogram {
            bounds,
            counts,
            count,
            sum,
            range: None,
        })
    }

    /// The bucket `value` falls in: the first bound at or above it, or
    /// the overflow bucket `bounds.len()`.
    pub fn bucket(bounds: &[f64], value: f64) -> usize {
        bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(bounds.len())
    }

    /// Records one sample. Non-finite samples are ignored (they carry no
    /// bucket and would poison the running sum).
    pub fn observe(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        self.counts[Self::bucket(&self.bounds, value)] += 1;
        self.range = match self.range {
            Some((lo, hi)) => Some((lo.min(value), hi.max(value))),
            None if self.count == 0 => Some((value, value)),
            None => None,
        };
        self.count += 1;
        self.sum += value;
    }

    /// Adds `other`'s samples bucket by bucket — per-node histograms
    /// fold into the cluster-wide distribution. Returns `false` (and
    /// changes nothing) when the bounds differ.
    #[must_use]
    pub fn merge(&mut self, other: &Histogram) -> bool {
        if self.bounds != other.bounds {
            return false;
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.range = match (self.range, other.range) {
            (Some((a, b)), Some((c, d))) => Some((a.min(c), b.max(d))),
            (mine, None) if other.count == 0 => mine,
            (None, theirs) if self.count == 0 => theirs,
            _ => None,
        };
        self.count += other.count;
        self.sum += other.sum;
        true
    }

    /// Bucket upper bounds.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts, the last one overflow.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Exact mean of the samples, if any.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Smallest sample, when known.
    pub fn min(&self) -> Option<f64> {
        self.range.map(|(lo, _)| lo)
    }

    /// Largest sample, when known.
    pub fn max(&self) -> Option<f64> {
        self.range.map(|(_, hi)| hi)
    }

    /// Approximate `q`-quantile (`0.0..=1.0`): the upper bound of the
    /// first bucket whose cumulative count reaches `q * count`. The
    /// overflow bucket reports the largest sample when known and the
    /// last finite bound otherwise; `None` when empty or when neither
    /// exists.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        let idx = self.counts.iter().position(|&c| {
            seen += c;
            seen >= target
        });
        match idx.and_then(|i| self.bounds.get(i)) {
            Some(&bound) => Some(bound),
            None => self.max().or_else(|| self.bounds.last().copied()),
        }
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
    fn buckets_are_inclusive_upper_bounds() {
        let mut h = Histogram::new(&[1.0, 2.0]);
        for v in [0.5, 1.0, 1.5, 2.0, 9.0] {
            h.observe(v);
        }
        assert_eq!(h.counts, [2, 2, 1]);
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 14.0);
        assert_eq!(h.range, Some((0.5, 9.0)));
    }

    #[test]
    fn empty_histogram_reports_none() {
        let h = Histogram::new(&[1.0]);
        assert_eq!(h.mean(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.slo_quantiles(), None);
    }

    #[test]
    fn non_finite_samples_are_ignored() {
        let mut h = Histogram::new(&[1.0]);
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            h.observe(v);
        }
        assert_eq!(h.count, 0);
        assert_eq!(h.range, None);
        h.observe(0.5);
        assert_eq!(h.mean(), Some(0.5));
    }

    #[test]
    fn quantile_walks_cumulative_counts() {
        let mut h = Histogram::new(&[1.0, 2.0, 4.0]);
        for v in [0.5, 0.5, 1.5, 3.0, 10.0] {
            h.observe(v);
        }
        assert_eq!(h.quantile(0.0), Some(1.0));
        assert_eq!(h.quantile(0.4), Some(1.0));
        assert_eq!(h.quantile(0.6), Some(2.0));
        assert_eq!(h.quantile(0.8), Some(4.0));
        // The overflow bucket reports the observed max ...
        assert_eq!(h.quantile(1.0), Some(10.0));
        // ... and the last finite bound when the max is unknown.
        h.range = None;
        assert_eq!(h.quantile(1.0), Some(4.0));
    }

    #[test]
    fn no_finite_bound_reports_the_max_or_nothing() {
        let mut h = Histogram::new(&[]);
        h.observe(3.0);
        assert_eq!(h.quantile(0.5), Some(3.0));
        h.range = None;
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn from_counts_checks_its_shape() {
        let h = Histogram::from_counts(vec![1.0, 2.0], vec![1, 0, 2], 3, 9.5).unwrap();
        assert_eq!((h.count(), h.max()), (3, None));
        assert_eq!(h.quantile(1.0), Some(2.0), "the last finite bound");
        assert!(Histogram::from_counts(vec![1.0, 1.0], vec![0, 0, 0], 0, 0.0).is_none());
        assert!(Histogram::from_counts(vec![f64::NAN, 1.0], vec![0, 0, 0], 0, 0.0).is_none());
        assert!(Histogram::from_counts(vec![1.0], vec![0], 0, 0.0).is_none());
    }

    #[test]
    fn merge_requires_identical_bounds() {
        let mut a = Histogram::new(&[1.0, 2.0]);
        a.observe(0.5);
        let mut b = Histogram::new(&[1.0, 2.0]);
        b.observe(5.0);
        assert!(a.merge(&b));
        assert_eq!(a.counts, [1, 0, 1]);
        assert_eq!(a.count, 2);
        assert_eq!(a.range, Some((0.5, 5.0)));
        assert!(!a.merge(&Histogram::new(&[1.0, 3.0])));
        assert_eq!(a.count, 2, "a failed merge changes nothing");
    }

    #[test]
    fn merge_forgets_a_range_only_one_side_knows() {
        let mut known = Histogram::new(&[1.0]);
        known.observe(0.5);
        let mut copied = known.clone();
        copied.range = None;
        assert!(copied.merge(&Histogram::new(&[1.0])), "an empty side");
        assert_eq!(copied.range, None);
        assert!(known.merge(&copied));
        assert_eq!(known.range, None, "the copied sample may exceed it");
    }
}
