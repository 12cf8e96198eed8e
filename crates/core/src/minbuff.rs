//! Distributed discovery of resource availability — Figure 5(a).
//!
//! Every node advertises, in the header of its normal gossip messages, the
//! smallest buffer capacities it knows of for the current *sample period*
//! `s`. Receivers fold the advertisement into their own per-period estimate,
//! so the group-wide minimum spreads epidemically at no extra message cost.
//! The value actually used for congestion estimation is the minimum over a
//! window of the last `W` periods, which smooths the inaccurate estimates at
//! the start of each period while still letting stale minima expire when the
//! constrained node leaves or grows its buffer.
//!
//! §6 of the paper proposes tracking not just the minimum but the `m`
//! smallest buffers (optionally above a floor) so that one pathological node
//! cannot throttle the whole group; [`MinBuffEstimator`] implements the full
//! generalization and the classic behaviour is the `m = 1` special case.

use std::collections::VecDeque;

use agb_types::NodeId;

use crate::config::MinBuffConfig;

/// One advertised buffer capacity: which node, how many events it can hold.
///
/// Tagging values with the owning node is what makes the `m`-smallest
/// extension well-defined: repeated gossip of the same node's capacity must
/// not occupy several of the `m` tracked slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuffAd {
    /// The node whose capacity this is.
    pub node: NodeId,
    /// Its event-buffer capacity.
    pub capacity: u32,
}

/// Multiset of the `m` smallest known `(capacity, node)` pairs, deduplicated
/// by node (keeping the node's smallest advertised value).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KSmallestSet {
    track: usize,
    entries: Vec<BuffAd>, // sorted by (capacity, node)
}

impl KSmallestSet {
    /// Creates an empty set tracking the `track` smallest entries.
    ///
    /// # Panics
    ///
    /// Panics if `track == 0`.
    pub fn new(track: usize) -> Self {
        assert!(track > 0, "must track at least one entry");
        KSmallestSet {
            track,
            entries: Vec::with_capacity(track + 1),
        }
    }

    /// Folds one advertisement in.
    pub fn merge(&mut self, ad: BuffAd) {
        if let Some(existing) = self.entries.iter_mut().find(|e| e.node == ad.node) {
            if ad.capacity >= existing.capacity {
                return;
            }
            existing.capacity = ad.capacity;
        } else {
            self.entries.push(ad);
        }
        self.entries.sort_by_key(|e| (e.capacity, e.node));
        self.entries.truncate(self.track);
    }

    /// The tracked entries, ascending by capacity.
    pub fn entries(&self) -> &[BuffAd] {
        &self.entries
    }

    /// Whether no advertisement has been merged yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The period-windowed min-buffer estimator of Figure 5(a), generalized to
/// the `m`-smallest criterion of §6.
///
/// # Example
///
/// ```
/// use agb_core::{BuffAd, MinBuffConfig, MinBuffEstimator};
/// use agb_types::{DurationMs, NodeId, TimeMs};
///
/// let config = MinBuffConfig {
///     sample_period: DurationMs::from_secs(6),
///     window: 2,
///     ..MinBuffConfig::default()
/// };
/// let mut est = MinBuffEstimator::new(NodeId::new(0), 90, config);
/// assert_eq!(est.estimate(), 90);
/// // A gossip message for the current period advertises a 45-event buffer.
/// est.on_receive(0, &[BuffAd { node: NodeId::new(7), capacity: 45 }]);
/// assert_eq!(est.estimate(), 45);
/// ```
#[derive(Debug, Clone)]
pub struct MinBuffEstimator {
    self_id: NodeId,
    own_capacity: u32,
    config: MinBuffConfig,
    current_period: u64,
    current: KSmallestSet,
    /// Completed periods, most recent last; holds at most `window - 1` sets.
    completed: VecDeque<KSmallestSet>,
}

impl MinBuffEstimator {
    /// Creates an estimator for a node with the given buffer capacity.
    pub fn new(self_id: NodeId, own_capacity: u32, config: MinBuffConfig) -> Self {
        let mut current = KSmallestSet::new(config.track);
        current.merge(BuffAd {
            node: self_id,
            capacity: own_capacity,
        });
        MinBuffEstimator {
            self_id,
            own_capacity,
            config,
            current_period: 0,
            current,
            completed: VecDeque::new(),
        }
    }

    /// The period index the estimator currently lives in.
    pub fn current_period(&self) -> u64 {
        self.current_period
    }

    /// Updates the node's own capacity (runtime buffer resize).
    pub fn set_own_capacity(&mut self, capacity: u32) {
        self.own_capacity = capacity;
        // A *decrease* must be visible immediately; an increase only takes
        // effect from the next period (the old, smaller value stays valid
        // for the current one — conservative by design).
        self.current.merge(BuffAd {
            node: self.self_id,
            capacity,
        });
    }

    /// The node's own capacity.
    pub fn own_capacity(&self) -> u32 {
        self.own_capacity
    }

    /// Advances the local clock; rolls the period over when `now` enters a
    /// new sample period.
    pub fn on_tick(&mut self, now: agb_types::TimeMs) {
        let local = now.as_millis() / self.config.sample_period.as_millis().max(1);
        if local > self.current_period {
            self.rollover_to(local);
        }
    }

    /// Ingests the `(s, minBuff)` header of a received gossip message.
    ///
    /// Messages from a *later* period advance the local period (the paper's
    /// loose clock synchronization); messages from the current period are
    /// merged; stale messages are ignored. When a `floor` is configured
    /// (§6 extension), advertisements below it are discarded at ingestion,
    /// so pathological nodes neither influence the estimate nor propagate
    /// further.
    pub fn on_receive(&mut self, period: u64, ads: &[BuffAd]) {
        if period > self.current_period {
            self.rollover_to(period);
        }
        if period == self.current_period {
            let floor = self.config.floor.unwrap_or(0);
            for ad in ads.iter().filter(|a| a.capacity >= floor) {
                self.current.merge(*ad);
            }
        }
    }

    fn rollover_to(&mut self, period: u64) {
        let mut fresh = KSmallestSet::new(self.config.track);
        fresh.merge(BuffAd {
            node: self.self_id,
            capacity: self.own_capacity,
        });
        let finished = std::mem::replace(&mut self.current, fresh);
        self.completed.push_back(finished);
        while self.completed.len() > self.config.window.saturating_sub(1) {
            self.completed.pop_front();
        }
        self.current_period = period;
    }

    fn period_estimate(&self, set: &KSmallestSet) -> Option<u32> {
        // Below-floor values were already rejected at ingestion; the node's
        // own capacity is always present (merged unconditionally), so the
        // set is never empty after construction.
        let entries = set.entries();
        if entries.is_empty() {
            return None;
        }
        let k = self.config.track.min(entries.len());
        Some(entries[k - 1].capacity)
    }

    /// The capacity estimate to adapt against: the minimum of the per-period
    /// estimates over the window (current period included).
    pub fn estimate(&self) -> u32 {
        let current = self.period_estimate(&self.current);
        let completed = self
            .completed
            .iter()
            .filter_map(|s| self.period_estimate(s));
        completed.chain(current).min().unwrap_or(self.own_capacity)
    }

    /// The advertisement to stamp on outgoing gossip: the current period and
    /// its tracked smallest entries.
    pub fn advertisement(&self) -> (u64, Vec<BuffAd>) {
        (self.current_period, self.current.entries().to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agb_types::{DurationMs, TimeMs};

    fn ad(node: u32, cap: u32) -> BuffAd {
        BuffAd {
            node: NodeId::new(node),
            capacity: cap,
        }
    }

    fn config(window: usize) -> MinBuffConfig {
        MinBuffConfig {
            sample_period: DurationMs::from_secs(6),
            window,
            track: 1,
            floor: None,
        }
    }

    #[test]
    fn starts_with_own_capacity() {
        let est = MinBuffEstimator::new(NodeId::new(0), 90, config(2));
        assert_eq!(est.estimate(), 90);
        let (period, ads) = est.advertisement();
        assert_eq!(period, 0);
        assert_eq!(ads, vec![ad(0, 90)]);
    }

    #[test]
    fn learns_smaller_capacity_from_gossip() {
        let mut est = MinBuffEstimator::new(NodeId::new(0), 90, config(2));
        est.on_receive(0, &[ad(5, 45)]);
        assert_eq!(est.estimate(), 45);
        // Larger values do not displace the minimum.
        est.on_receive(0, &[ad(6, 120)]);
        assert_eq!(est.estimate(), 45);
    }

    #[test]
    fn later_period_message_advances_period() {
        let mut est = MinBuffEstimator::new(NodeId::new(0), 90, config(2));
        est.on_receive(3, &[ad(5, 45)]);
        assert_eq!(est.current_period(), 3);
        assert_eq!(est.estimate(), 45);
    }

    #[test]
    fn stale_period_message_is_ignored() {
        let mut est = MinBuffEstimator::new(NodeId::new(0), 90, config(2));
        est.on_receive(2, &[]);
        est.on_receive(1, &[ad(5, 10)]);
        assert_eq!(est.current_period(), 2);
        assert_eq!(est.estimate(), 90);
    }

    #[test]
    fn tick_rolls_over_by_local_clock() {
        let mut est = MinBuffEstimator::new(NodeId::new(0), 90, config(2));
        est.on_tick(TimeMs::from_secs(5));
        assert_eq!(est.current_period(), 0);
        est.on_tick(TimeMs::from_secs(6));
        assert_eq!(est.current_period(), 1);
        // Clock does not move the period backwards after loose-sync advance.
        est.on_receive(9, &[]);
        est.on_tick(TimeMs::from_secs(12));
        assert_eq!(est.current_period(), 9);
    }

    #[test]
    fn window_expires_stale_minimum() {
        // Window of 2: the estimate covers the current and previous period.
        let mut est = MinBuffEstimator::new(NodeId::new(0), 90, config(2));
        est.on_receive(0, &[ad(5, 45)]);
        assert_eq!(est.estimate(), 45);
        // Period 1: node 5 is gone; 45 still within window (period 0).
        est.on_receive(1, &[]);
        assert_eq!(est.estimate(), 45);
        // Period 2: period 0 drops out; estimate recovers.
        est.on_receive(2, &[]);
        assert_eq!(est.estimate(), 90);
    }

    #[test]
    fn capacity_decrease_is_immediate_increase_is_lagged() {
        let mut est = MinBuffEstimator::new(NodeId::new(0), 90, config(2));
        est.set_own_capacity(45);
        assert_eq!(est.estimate(), 45);
        est.set_own_capacity(60);
        // The 45 from earlier this period still binds (conservative).
        assert_eq!(est.estimate(), 45);
        est.on_receive(1, &[]);
        assert_eq!(est.estimate(), 45); // previous period still in window
        est.on_receive(2, &[]);
        assert_eq!(est.estimate(), 60);
        assert_eq!(est.own_capacity(), 60);
    }

    #[test]
    fn k_smallest_dedupes_by_node() {
        let mut set = KSmallestSet::new(2);
        set.merge(ad(1, 45));
        set.merge(ad(1, 45));
        set.merge(ad(1, 50)); // larger value from same node: ignored
        assert_eq!(set.entries(), &[ad(1, 45)]);
        set.merge(ad(2, 40));
        set.merge(ad(3, 90));
        // Tracks the 2 smallest across distinct nodes.
        assert_eq!(set.entries(), &[ad(2, 40), ad(1, 45)]);
        assert!(!set.is_empty());
    }

    #[test]
    fn k_smallest_node_update_can_shrink() {
        let mut set = KSmallestSet::new(2);
        set.merge(ad(1, 45));
        set.merge(ad(2, 50));
        set.merge(ad(2, 30));
        assert_eq!(set.entries(), &[ad(2, 30), ad(1, 45)]);
    }

    #[test]
    fn m_of_two_ignores_single_outlier() {
        let cfg = MinBuffConfig {
            sample_period: DurationMs::from_secs(6),
            window: 1,
            track: 2,
            floor: None,
        };
        let mut est = MinBuffEstimator::new(NodeId::new(0), 90, cfg);
        est.on_receive(0, &[ad(1, 5)]); // one pathological node
                                        // 2nd smallest of {5, 90} is 90: the outlier alone cannot throttle.
        assert_eq!(est.estimate(), 90);
        est.on_receive(0, &[ad(2, 45)]);
        // 2nd smallest of {5, 45, 90} is 45.
        assert_eq!(est.estimate(), 45);
    }

    #[test]
    fn floor_filters_tiny_advertisements() {
        let cfg = MinBuffConfig {
            sample_period: DurationMs::from_secs(6),
            window: 1,
            track: 1,
            floor: Some(20),
        };
        let mut est = MinBuffEstimator::new(NodeId::new(0), 90, cfg);
        est.on_receive(0, &[ad(1, 5)]);
        // 5 is below the floor; the estimate stays at the smallest value
        // >= 20, which is our own 90.
        assert_eq!(est.estimate(), 90);
        est.on_receive(0, &[ad(2, 45)]);
        assert_eq!(est.estimate(), 45);
    }

    #[test]
    fn advertisement_reflects_current_period_only() {
        let mut est = MinBuffEstimator::new(NodeId::new(0), 90, config(3));
        est.on_receive(0, &[ad(1, 30)]);
        est.on_receive(1, &[]);
        let (period, ads) = est.advertisement();
        assert_eq!(period, 1);
        // New period: only own capacity so far.
        assert_eq!(ads, vec![ad(0, 90)]);
        // But the windowed estimate still remembers 30.
        assert_eq!(est.estimate(), 30);
    }

    #[test]
    #[should_panic(expected = "track")]
    fn zero_track_panics() {
        let _ = KSmallestSet::new(0);
    }
}
