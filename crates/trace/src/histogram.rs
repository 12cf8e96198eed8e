//! Fixed-bucket histograms for trace aggregates.

use agb_types::json::Json;

/// A histogram over fixed, caller-supplied bucket upper bounds.
///
/// Buckets are `(-inf, b0], (b0, b1], …, (b_{n-1}, +inf)`: `n` bounds
/// produce `n + 1` counters, the last catching overflow. Bounds are fixed
/// at construction so two runs (or two protocols in one report) bucket
/// identically and their histograms diff cleanly — the same reason the
/// metrics layer bins time series on a fixed grid.
///
/// Alongside the counters the histogram tracks count, sum, min and max of
/// the raw samples, so means are exact even though percentiles are
/// bucket-resolution approximations.
///
/// # Example
///
/// ```
/// use agb_trace::Histogram;
///
/// let mut h = Histogram::new("hops", &[1.0, 2.0, 4.0, 8.0]);
/// for hops in [1.0, 1.0, 2.0, 3.0, 5.0] {
///     h.observe(hops);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.mean(), Some(2.4));
/// assert_eq!(h.max(), Some(5.0));
/// assert!(h.quantile(0.5).unwrap() <= 2.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    name: &'static str,
    bounds: Vec<f64>,
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// Creates an empty histogram with the given bucket upper bounds
    /// (must be strictly ascending; checked in debug builds).
    pub fn new(name: &'static str, bounds: &[f64]) -> Self {
        debug_assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Histogram {
            name,
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The histogram's name (report row / JSON key).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Records one sample. Non-finite samples are ignored (they carry no
    /// bucket and would poison the running sum).
    pub fn observe(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Total samples observed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Exact mean of the raw samples, if any were observed.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Smallest observed sample.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observed sample.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Approximate `q`-quantile (`0.0..=1.0`): the upper bound of the
    /// first bucket whose cumulative count reaches `q * count`. The
    /// overflow bucket reports the observed maximum.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(if idx < self.bounds.len() {
                    self.bounds[idx]
                } else {
                    self.max
                });
            }
        }
        Some(self.max)
    }

    /// Rows for a dashboard table: `(bucket label, count)` for every
    /// non-empty bucket.
    pub fn rows(&self) -> Vec<(String, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(idx, &c)| {
                let label = if idx < self.bounds.len() {
                    format!("<= {}", trim_f64(self.bounds[idx]))
                } else {
                    format!("> {}", trim_f64(*self.bounds.last().unwrap_or(&0.0)))
                };
                (label, c)
            })
            .collect()
    }

    /// JSON form: name, bounds, per-bucket counts, and the running
    /// aggregates (stable key order via [`Json::obj`]).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::Str(self.name.to_string())),
            (
                "bounds",
                Json::Arr(self.bounds.iter().map(|&b| Json::Num(b)).collect()),
            ),
            (
                "counts",
                Json::Arr(self.counts.iter().map(|&c| Json::from(c)).collect()),
            ),
            ("count", Json::from(self.count)),
            ("sum", Json::Num(self.sum)),
            ("mean", self.mean().map_or(Json::Null, Json::Num)),
            ("min", self.min().map_or(Json::Null, Json::Num)),
            ("max", self.max().map_or(Json::Null, Json::Num)),
            ("p50", self.quantile(0.5).map_or(Json::Null, Json::Num)),
            ("p99", self.quantile(0.99).map_or(Json::Null, Json::Num)),
        ])
    }

    /// Folds the histogram's counters into a digest accumulator
    /// (order-stable: bucket index order).
    pub(crate) fn fold_digest(&self, mix: &mut impl FnMut(u64)) {
        mix(self.count);
        mix(self.sum.to_bits());
        for &c in &self.counts {
            mix(c);
        }
    }
}

fn trim_f64(v: f64) -> String {
    if v.fract() == 0.0 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_inclusive_upper_bounds() {
        let mut h = Histogram::new("t", &[1.0, 2.0]);
        h.observe(0.5);
        h.observe(1.0);
        h.observe(1.5);
        h.observe(2.0);
        h.observe(9.0);
        assert_eq!(h.counts, [2, 2, 1]);
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), Some(0.5));
        assert_eq!(h.max(), Some(9.0));
    }

    #[test]
    fn empty_histogram_reports_none() {
        let h = Histogram::new("t", &[1.0]);
        assert_eq!(h.mean(), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.quantile(0.5), None);
        assert!(h.rows().is_empty());
    }

    #[test]
    fn non_finite_samples_are_ignored() {
        let mut h = Histogram::new("t", &[1.0]);
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        h.observe(f64::NEG_INFINITY);
        assert_eq!(h.count(), 0);
        h.observe(0.5);
        assert_eq!(h.count(), 1);
        assert_eq!(h.mean(), Some(0.5));
    }

    #[test]
    fn quantile_walks_cumulative_counts() {
        let mut h = Histogram::new("t", &[1.0, 2.0, 4.0]);
        for v in [0.5, 0.5, 1.5, 3.0, 10.0] {
            h.observe(v);
        }
        assert_eq!(h.quantile(0.0), Some(1.0));
        assert_eq!(h.quantile(0.4), Some(1.0));
        assert_eq!(h.quantile(0.6), Some(2.0));
        assert_eq!(h.quantile(0.8), Some(4.0));
        // Overflow bucket reports the true max.
        assert_eq!(h.quantile(1.0), Some(10.0));
    }

    #[test]
    fn rows_label_overflow_and_skip_empty() {
        let mut h = Histogram::new("t", &[1.0, 2.0]);
        h.observe(0.5);
        h.observe(5.0);
        let rows = h.rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], ("<= 1".to_string(), 1));
        assert_eq!(rows[1], ("> 2".to_string(), 1));
    }

    #[test]
    fn json_has_stable_shape() {
        let mut h = Histogram::new("latency_rounds", &[1.0]);
        h.observe(0.5);
        let j = h.to_json();
        assert_eq!(j.get("name").unwrap().as_str(), Some("latency_rounds"));
        assert_eq!(j.get("count").unwrap().as_u64(), Some(1));
        assert_eq!(j.get("mean").unwrap().as_f64(), Some(0.5));
        assert_eq!(j.get("p50").unwrap().as_f64(), Some(1.0));
    }
}
