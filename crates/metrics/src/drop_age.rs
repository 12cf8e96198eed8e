//! Drop-age statistics: the congestion signal, measured.

use agb_types::FastHashMap;

use agb_core::PurgeReason;
use agb_types::{DurationMs, RunningStats, TimeMs};

/// Accumulates the ages of overflow (congestion) drops, globally and per
/// time bin. Age-cap removals are the end of an event's life, not
/// congestion, so they are not counted.
///
/// The paper's §2.3 observation — the average overflow-drop age at the
/// congestion knee is a buffer-size-independent constant — is checked by
/// feeding this collector and comparing [`DropAgeStats::mean_overflow_age`]
/// across configurations.
///
/// # Example
///
/// ```
/// use agb_metrics::DropAgeStats;
/// use agb_core::PurgeReason;
/// use agb_types::{DurationMs, TimeMs};
///
/// let mut d = DropAgeStats::new(DurationMs::from_secs(10));
/// d.record(5, PurgeReason::Overflow, TimeMs::from_secs(1));
/// d.record(7, PurgeReason::Overflow, TimeMs::from_secs(2));
/// d.record(11, PurgeReason::AgeCap, TimeMs::from_secs(3)); // not congestion
/// assert_eq!(d.mean_overflow_age(), Some(6.0));
/// assert_eq!(d.overflow_count(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DropAgeStats {
    bin: DurationMs,
    overflow: RunningStats,
    overflow_bins: FastHashMap<u64, RunningStats>,
}

impl DropAgeStats {
    /// Creates a collector with the given time-bin width for windowed
    /// queries.
    pub fn new(bin: DurationMs) -> Self {
        DropAgeStats {
            bin,
            overflow: RunningStats::new(),
            overflow_bins: FastHashMap::default(),
        }
    }

    /// Records one purge; only overflow drops count.
    pub fn record(&mut self, age: u32, reason: PurgeReason, at: TimeMs) {
        if reason == PurgeReason::Overflow {
            self.overflow.push(f64::from(age));
            let b = at.as_millis() / self.bin.as_millis().max(1);
            self.overflow_bins
                .entry(b)
                .or_default()
                .push(f64::from(age));
        }
    }

    /// Folds in another collector's drops. Ages are whole hops, so their
    /// f64 sums are exact and merge in any order.
    ///
    /// # Panics
    ///
    /// Panics if the bin widths differ.
    pub fn merge(&mut self, other: &DropAgeStats) {
        assert_eq!(self.bin, other.bin, "merged drop ages of different bins");
        self.overflow.merge(&other.overflow);
        for (&b, s) in &other.overflow_bins {
            self.overflow_bins.entry(b).or_default().merge(s);
        }
    }

    /// Mean age of overflow (congestion) drops, `None` if none occurred.
    pub fn mean_overflow_age(&self) -> Option<f64> {
        (self.overflow.count() > 0).then(|| self.overflow.mean())
    }

    /// Number of overflow drops.
    pub fn overflow_count(&self) -> u64 {
        self.overflow.count()
    }

    /// Mean overflow drop age over bins starting within `[from, to)`.
    pub fn mean_overflow_age_in(&self, from: TimeMs, to: TimeMs) -> Option<f64> {
        let bin_ms = self.bin.as_millis().max(1);
        let mut inside: Vec<(&u64, &RunningStats)> = self
            .overflow_bins
            .iter()
            .filter(|(&b, _)| b * bin_ms >= from.as_millis() && b * bin_ms < to.as_millis())
            .collect();
        inside.sort_by_key(|&(b, _)| *b);
        let mut acc = RunningStats::new();
        for (_, s) in inside {
            acc.merge(s);
        }
        (acc.count() > 0).then(|| acc.mean())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_overflow_drops_only() {
        let mut d = DropAgeStats::new(DurationMs::from_secs(1));
        d.record(4, PurgeReason::Overflow, TimeMs::ZERO);
        d.record(10, PurgeReason::AgeCap, TimeMs::ZERO);
        assert_eq!(d.mean_overflow_age(), Some(4.0));
        assert_eq!(d.overflow_count(), 1);
    }

    #[test]
    fn empty_means_are_none() {
        let d = DropAgeStats::new(DurationMs::from_secs(1));
        assert_eq!(d.mean_overflow_age(), None);
        assert_eq!(
            d.mean_overflow_age_in(TimeMs::ZERO, TimeMs::from_secs(9)),
            None
        );
    }

    #[test]
    fn windowed_mean_reads_the_bins_starting_inside() {
        let mut d = DropAgeStats::new(DurationMs::from_secs(10));
        d.record(2, PurgeReason::Overflow, TimeMs::from_secs(25));
        d.record(4, PurgeReason::Overflow, TimeMs::from_secs(26));
        d.record(8, PurgeReason::Overflow, TimeMs::from_secs(5));
        let window =
            |from, to| d.mean_overflow_age_in(TimeMs::from_secs(from), TimeMs::from_secs(to));
        assert_eq!(window(0, 10), Some(8.0));
        assert_eq!(window(10, 20), None);
        assert_eq!(window(20, 30), Some(3.0));
    }
}
