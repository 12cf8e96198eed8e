//! Small statistics primitives shared by the estimators and the metrics
//! layer: exponentially weighted moving averages and running means.

/// Exponentially weighted moving average, the `avgAge`/`avgTokens` smoother
/// of the paper's Figure 5(b).
///
/// The update rule is `avg ← α·avg + (1-α)·sample`: `α` close to 1 makes the
/// average insensitive to transient perturbations (the paper uses `α = 0.9`).
///
/// # Example
///
/// ```
/// use agb_types::Ewma;
/// let mut avg = Ewma::new(0.5, 10.0);
/// avg.update(0.0);
/// assert_eq!(avg.value(), 5.0);
/// avg.update(0.0);
/// assert_eq!(avg.value(), 2.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ewma {
    alpha: f64,
    value: f64,
    samples: u64,
}

impl Ewma {
    /// Creates a smoother with weight `alpha` in `[0, 1]` and an initial
    /// value.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `[0, 1]` or not finite.
    pub fn new(alpha: f64, initial: f64) -> Self {
        assert!(
            alpha.is_finite() && (0.0..=1.0).contains(&alpha),
            "EWMA alpha must be in [0,1], got {alpha}"
        );
        Ewma {
            alpha,
            value: initial,
            samples: 0,
        }
    }

    /// Folds one sample into the average and returns the new value.
    pub fn update(&mut self, sample: f64) -> f64 {
        self.value = self.alpha * self.value + (1.0 - self.alpha) * sample;
        self.samples += 1;
        self.value
    }

    /// Current smoothed value.
    pub fn value(&self) -> f64 {
        self.value
    }

    /// Number of samples folded in so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Resets to a new value, keeping the weight.
    pub fn reset(&mut self, value: f64) {
        self.value = value;
        self.samples = 0;
    }

    /// The configured weight `α`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }
}

/// Running mean/min/max/count over a stream of samples.
///
/// # Example
///
/// ```
/// use agb_types::RunningStats;
/// let mut s = RunningStats::new();
/// s.push(2.0);
/// s.push(4.0);
/// assert_eq!(s.mean(), 3.0);
/// assert_eq!(s.count(), 2);
/// assert_eq!(s.min(), Some(2.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunningStats {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one sample.
    pub fn push(&mut self, sample: f64) {
        self.count += 1;
        self.sum += sample;
        self.min = self.min.min(sample);
        self.max = self.max.max(sample);
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &RunningStats) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Mean of the samples (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of the samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest sample, if any.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, if any.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ewma_alpha_one_never_moves() {
        let mut e = Ewma::new(1.0, 5.0);
        e.update(100.0);
        assert_eq!(e.value(), 5.0);
    }

    #[test]
    fn ewma_alpha_zero_tracks_sample() {
        let mut e = Ewma::new(0.0, 5.0);
        e.update(100.0);
        assert_eq!(e.value(), 100.0);
    }

    #[test]
    fn ewma_counts_and_resets() {
        let mut e = Ewma::new(0.9, 0.0);
        e.update(1.0);
        e.update(1.0);
        assert_eq!(e.samples(), 2);
        e.reset(7.0);
        assert_eq!(e.value(), 7.0);
        assert_eq!(e.samples(), 0);
        assert_eq!(e.alpha(), 0.9);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn ewma_rejects_bad_alpha() {
        let _ = Ewma::new(1.5, 0.0);
    }

    #[test]
    fn running_stats_basics() {
        let mut s = RunningStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), None);
        s.push(1.0);
        s.push(3.0);
        assert_eq!(s.mean(), 2.0);
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(3.0));
        assert_eq!(s.sum(), 4.0);
    }

    #[test]
    fn running_stats_merge() {
        let mut a = RunningStats::new();
        a.push(1.0);
        let mut b = RunningStats::new();
        b.push(5.0);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.mean(), 3.0);
        assert_eq!(a.max(), Some(5.0));
    }
}
