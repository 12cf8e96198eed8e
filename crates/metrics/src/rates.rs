//! Throughput meters and the allowed-rate step tracker.

use std::collections::BTreeMap;

use agb_types::{DurationMs, FastHashMap, NodeId, TimeMs};

/// Counts discrete occurrences (admissions, deliveries) into time bins and
/// reports them as rates.
///
/// # Example
///
/// ```
/// use agb_metrics::RateMeter;
/// use agb_types::{DurationMs, TimeMs};
///
/// let mut m = RateMeter::new(DurationMs::from_secs(1));
/// for ms in [100, 200, 1500] {
///     m.record(TimeMs::from_millis(ms));
/// }
/// assert_eq!(m.total(), 3);
/// // 2 events in [0,1s), 1 in [1s,2s).
/// assert_eq!(m.rate_in(TimeMs::ZERO, TimeMs::from_secs(1)), 2.0);
/// assert_eq!(m.rate_in(TimeMs::from_secs(1), TimeMs::from_secs(2)), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RateMeter {
    bin: DurationMs,
    bins: FastHashMap<u64, u64>,
    total: u64,
}

impl RateMeter {
    /// Creates a meter with the given bin width.
    ///
    /// # Panics
    ///
    /// Panics if `bin` is zero.
    pub fn new(bin: DurationMs) -> Self {
        assert!(!bin.is_zero(), "bin width must be non-zero");
        RateMeter {
            bin,
            bins: FastHashMap::default(),
            total: 0,
        }
    }

    /// Records one occurrence at `at`.
    pub fn record(&mut self, at: TimeMs) {
        let b = at.as_millis() / self.bin.as_millis();
        *self.bins.entry(b).or_default() += 1;
        self.total += 1;
    }

    /// Folds in another meter's occurrences.
    ///
    /// # Panics
    ///
    /// Panics if the bin widths differ.
    pub fn merge(&mut self, other: &RateMeter) {
        assert_eq!(self.bin, other.bin, "merged meters of different bins");
        for (&b, &c) in &other.bins {
            *self.bins.entry(b).or_default() += c;
        }
        self.total += other.total;
    }

    /// The bin width.
    pub fn bin(&self) -> DurationMs {
        self.bin
    }

    /// Total occurrences recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Occurrences within `[from, to)` as a rate per second.
    pub fn rate_in(&self, from: TimeMs, to: TimeMs) -> f64 {
        if to <= from {
            return 0.0;
        }
        let bin_ms = self.bin.as_millis();
        let count: u64 = self
            .bins
            .iter()
            .filter(|(&b, _)| {
                let start = b * bin_ms;
                start >= from.as_millis() && start < to.as_millis()
            })
            .map(|(_, &c)| c)
            .sum();
        count as f64 / to.since(from).as_secs_f64()
    }
}

/// Tracks the adaptive controller's allowed rate per node as a step
/// function, and aggregates the group-wide allowed rate over time
/// (Fig. 9(a)).
///
/// # Example
///
/// ```
/// use agb_metrics::AllowedRateTracker;
/// use agb_types::{NodeId, TimeMs};
///
/// let mut t = AllowedRateTracker::new();
/// t.set_initial(NodeId::new(0), 5.0);
/// t.on_change(NodeId::new(0), 10.0, TimeMs::from_secs(2));
/// assert_eq!(t.aggregate_at(TimeMs::from_secs(1)), 5.0);
/// assert_eq!(t.aggregate_at(TimeMs::from_secs(3)), 10.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AllowedRateTracker {
    // Per node, in node order so the aggregate sums its f64 rates in one
    // reproducible order: change points (time, new rate), kept sorted by
    // insertion (events arrive in time order from the harness).
    steps: BTreeMap<NodeId, Vec<(TimeMs, f64)>>,
}

impl AllowedRateTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets a node's rate at time zero, registering it for tracking.
    pub fn set_initial(&mut self, node: NodeId, rate: f64) {
        self.steps
            .entry(node)
            .or_default()
            .insert(0, (TimeMs::ZERO, rate));
    }

    /// Records a rate change. Changes from nodes never registered with
    /// [`AllowedRateTracker::set_initial`] are ignored, so the aggregate
    /// covers exactly the sender population of interest (non-sender nodes
    /// also run controllers, but their idle allowances are not load).
    pub fn on_change(&mut self, node: NodeId, new_rate: f64, at: TimeMs) {
        if let Some(steps) = self.steps.get_mut(&node) {
            steps.push((at, new_rate));
        }
    }

    /// An empty tracker registered for the same nodes, with no steps yet:
    /// what one shard of the group records before [`merge`](Self::merge).
    pub fn partial(&self) -> AllowedRateTracker {
        AllowedRateTracker {
            steps: self.steps.keys().map(|&n| (n, Vec::new())).collect(),
        }
    }

    /// Appends another tracker's later steps of the nodes both track. A
    /// node's steps must all come from one tracker, so they stay in time
    /// order.
    pub fn merge(&mut self, other: &AllowedRateTracker) {
        for (node, theirs) in &other.steps {
            if let Some(mine) = self.steps.get_mut(node) {
                mine.extend_from_slice(theirs);
            }
        }
    }

    /// The rate of `node` in effect at `t` (0 if unknown).
    pub fn rate_at(&self, node: NodeId, t: TimeMs) -> f64 {
        let Some(steps) = self.steps.get(&node) else {
            return 0.0;
        };
        steps
            .iter()
            .take_while(|&&(at, _)| at <= t)
            .last()
            .map_or(0.0, |&(_, r)| r)
    }

    /// Sum of all nodes' rates in effect at `t`, added in node order.
    pub fn aggregate_at(&self, t: TimeMs) -> f64 {
        self.steps.keys().map(|&n| self.rate_at(n, t)).sum()
    }

    /// Aggregate allowed rate sampled at `bin` intervals over `[0, until]`.
    pub fn aggregate_series(&self, bin: DurationMs, until: TimeMs) -> Vec<(TimeMs, f64)> {
        let bin_ms = bin.as_millis().max(1);
        let mut out = Vec::new();
        let mut t = 0u64;
        while t <= until.as_millis() {
            let at = TimeMs::from_millis(t);
            out.push((at, self.aggregate_at(at)));
            t += bin_ms;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_meter_bins_and_rates() {
        let mut m = RateMeter::new(DurationMs::from_secs(2));
        for s in [0u64, 1, 2, 3, 3] {
            m.record(TimeMs::from_secs(s));
        }
        // Bin [0,2s): 2 events -> 1/s. Bin [2s,4s): 3 events -> 1.5/s.
        let rate = |from, to| m.rate_in(TimeMs::from_secs(from), TimeMs::from_secs(to));
        assert_eq!(rate(0, 2), 1.0);
        assert_eq!(rate(2, 4), 1.5);
        assert_eq!(rate(4, 6), 0.0);
        assert_eq!(m.total(), 5);
        assert_eq!(rate(0, 4), 1.25);
    }

    #[test]
    fn rate_in_degenerate_window() {
        let m = RateMeter::new(DurationMs::from_secs(1));
        assert_eq!(m.rate_in(TimeMs::from_secs(2), TimeMs::from_secs(2)), 0.0);
        assert_eq!(m.rate_in(TimeMs::from_secs(3), TimeMs::from_secs(1)), 0.0);
    }

    #[test]
    fn allowed_rate_steps_aggregate() {
        let mut t = AllowedRateTracker::new();
        t.set_initial(NodeId::new(0), 3.0);
        t.set_initial(NodeId::new(1), 3.0);
        t.on_change(NodeId::new(0), 1.5, TimeMs::from_secs(10));
        assert_eq!(t.aggregate_at(TimeMs::from_secs(5)), 6.0);
        assert_eq!(t.aggregate_at(TimeMs::from_secs(10)), 4.5);
        let series = t.aggregate_series(DurationMs::from_secs(5), TimeMs::from_secs(10));
        assert_eq!(
            series,
            vec![
                (TimeMs::ZERO, 6.0),
                (TimeMs::from_secs(5), 6.0),
                (TimeMs::from_secs(10), 4.5),
            ]
        );
    }

    #[test]
    fn aggregate_adds_rates_in_node_order() {
        // f64 addition is not associative: 1e16 + 1.0 rounds back to
        // 1e16, while nine 1.0s added first survive. Only ascending node
        // order gives the expected bits, whatever order nodes registered
        // in, in every tracker instance.
        let rates = [1e16, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        let expected = rates.iter().fold(0.0, |sum, r| sum + r);
        for _ in 0..32 {
            let mut t = AllowedRateTracker::new();
            for (i, &rate) in rates.iter().enumerate().rev() {
                t.set_initial(NodeId::new(i as u32), rate);
            }
            assert_eq!(
                t.aggregate_at(TimeMs::ZERO).to_bits(),
                expected.to_bits(),
                "{} != {expected}",
                t.aggregate_at(TimeMs::ZERO)
            );
        }
    }

    #[test]
    fn unknown_node_rate_is_zero() {
        let t = AllowedRateTracker::new();
        assert_eq!(t.rate_at(NodeId::new(9), TimeMs::ZERO), 0.0);
        assert_eq!(t.aggregate_at(TimeMs::ZERO), 0.0);
    }
}
