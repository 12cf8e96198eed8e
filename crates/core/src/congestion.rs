//! Local estimation of congestion — Figure 5(b).
//!
//! Given the group-wide minimum buffer estimate `minBuff`, every node can
//! compute, from purely local state, the ages of the events that a node with
//! exactly `minBuff` buffers *would have discarded*. The moving average of
//! those ages (`avgAge`) is the congestion signal: low average age means
//! events die young at the most constrained node, i.e. the system is
//! congested. Events already accounted for are remembered in `lost` so they
//! are never counted twice; the full local buffer is still used to store
//! events (only the *accounting* uses `minBuff`).

use agb_types::{EventId, Ewma};

use crate::buffer::EventBuffer;
use crate::config::CongestionConfig;

/// `avgAge` before any sample, in hops: optimistic, at the default age cap
/// `k`, so a cold start triggers no decrease.
const INITIAL_AGE: f64 = 10.0;
/// The optimistic age the no-drop relief drifts `avgAge` toward, in hops:
/// the default age cap `k`, the age an undisturbed event dies at.
const RELIEF_AGE: f64 = 10.0;

/// The `avgAge` congestion estimator.
///
/// # Example
///
/// ```
/// use agb_core::{CongestionConfig, CongestionEstimator, Event, EventBuffer};
/// use agb_types::{EventId, NodeId, Payload};
///
/// let config = CongestionConfig { alpha: 0.0, ..CongestionConfig::default() };
/// let mut est = CongestionEstimator::new(config);
/// let mut buf = EventBuffer::new(10);
/// buf.insert(Event::with_age(EventId::new(NodeId::new(0), 0), 6, Payload::new()));
/// buf.insert(Event::with_age(EventId::new(NodeId::new(0), 1), 2, Payload::new()));
/// // A node with a 1-event buffer would have dropped the age-6 event.
/// est.scan(&buf, 1, false);
/// assert_eq!(est.avg_age(), 6.0);
/// ```
#[derive(Debug, Clone)]
pub struct CongestionEstimator {
    config: CongestionConfig,
    avg_age: Ewma,
    lost: agb_types::FastHashSet<EventId>,
}

impl CongestionEstimator {
    /// Creates an estimator; `avgAge` starts at `INITIAL_AGE`.
    pub fn new(config: CongestionConfig) -> Self {
        let avg_age = Ewma::new(config.alpha, INITIAL_AGE);
        CongestionEstimator {
            config,
            avg_age,
            lost: agb_types::FastHashSet::default(),
        }
    }

    /// The would-drop scan, run after storing the events of each received
    /// gossip message: folds the ages of events a `min_buff`-sized buffer
    /// would evict into `avgAge`. This catches the events that survive in a
    /// local buffer *larger* than `minBuff` but would already be gone at
    /// the most constrained node; events the local buffer really evicted
    /// are accounted through [`CongestionEstimator::on_purged`].
    ///
    /// When there is nothing to drop (and `suppress_relief` is false, i.e.
    /// no real eviction just happened either) and `no_drop_relief` is
    /// enabled, the average instead drifts toward `RELIEF_AGE` — the escape
    /// hatch that lets a sender rediscover headroom after congestion clears
    /// entirely (see docs/ARCHITECTURE.md for why the paper's verbatim rule can
    /// deadlock).
    pub fn scan(&mut self, buffer: &EventBuffer, min_buff: usize, suppress_relief: bool) {
        let would = buffer.would_evict(min_buff, &self.lost);
        if would.is_empty() {
            if self.config.no_drop_relief && !suppress_relief && buffer.len() <= min_buff {
                self.avg_age.update(RELIEF_AGE);
            }
            return;
        }
        for (id, age) in would {
            self.avg_age.update(f64::from(age));
            self.lost.insert(id);
        }
    }

    /// Accounts an event that really left the local buffer.
    ///
    /// If it was already counted by a would-drop scan it is only removed
    /// from the `lost` bookkeeping; otherwise an *overflow* eviction is a
    /// genuine congestion signal and its age joins `avgAge`. (A node whose
    /// buffer is exactly `minBuff`-sized — the common homogeneous case —
    /// observes congestion through this path.) Age-cap removals are normal
    /// end of life and never count.
    pub fn on_purged(&mut self, purged: &crate::buffer::PurgedEvent) {
        if self.lost.remove(&purged.id) {
            return;
        }
        if purged.reason == crate::buffer::PurgeReason::Overflow {
            self.avg_age.update(f64::from(purged.age));
        }
    }

    /// Current congestion signal: the moving average age of would-drop
    /// events.
    pub fn avg_age(&self) -> f64 {
        self.avg_age.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::{PurgeReason, PurgedEvent};
    use crate::event::Event;
    use agb_types::{NodeId, Payload};

    fn id(s: u64) -> EventId {
        EventId::new(NodeId::new(0), s)
    }

    fn ev(s: u64, age: u32) -> Event {
        Event::with_age(id(s), age, Payload::new())
    }

    fn config(alpha: f64) -> CongestionConfig {
        CongestionConfig {
            alpha,
            no_drop_relief: false,
        }
    }

    /// An overflow purge of an age-`age` event the estimator never
    /// scanned: a genuine congestion sample.
    fn overflow(est: &mut CongestionEstimator, s: u64, age: u32) {
        est.on_purged(&PurgedEvent {
            id: id(s),
            age,
            reason: PurgeReason::Overflow,
        });
    }

    #[test]
    fn starts_at_initial_age() {
        let est = CongestionEstimator::new(config(0.9));
        assert_eq!(est.avg_age(), INITIAL_AGE);
    }

    #[test]
    fn counts_each_event_once() {
        let mut est = CongestionEstimator::new(config(0.5));
        let mut buf = EventBuffer::new(10);
        buf.insert(ev(0, 8));
        buf.insert(ev(1, 2));
        est.scan(&buf, 1, false);
        assert_eq!(est.avg_age(), 9.0);
        assert_eq!(est.lost.len(), 1);
        // Second scan with the same state: the age-8 event is already in
        // `lost`, and the remaining single event fits in min_buff=1, so
        // no sample moves the average.
        est.scan(&buf, 1, false);
        assert_eq!(est.avg_age(), 9.0);
        assert_eq!(est.lost.len(), 1);
    }

    #[test]
    fn scans_highest_ages_first() {
        let mut est = CongestionEstimator::new(config(0.0));
        let mut buf = EventBuffer::new(10);
        for (s, age) in [(0, 1), (1, 9), (2, 4)] {
            buf.insert(ev(s, age));
        }
        // min_buff = 1 -> two would-drops: ages 9 then 4; with alpha=0 the
        // average ends at the last sample.
        est.scan(&buf, 1, false);
        assert_eq!(est.lost.len(), 2);
        assert_eq!(est.avg_age(), 4.0);
    }

    #[test]
    fn removal_allows_recount_of_slot_not_event() {
        let mut est = CongestionEstimator::new(config(0.0));
        let mut buf = EventBuffer::new(10);
        buf.insert(ev(0, 8));
        buf.insert(ev(1, 2));
        est.scan(&buf, 1, false);
        assert_eq!(est.lost.len(), 1);
        assert_eq!(est.avg_age(), 8.0);
        // The event really leaves the buffer now: pruned from `lost`,
        // not double counted.
        overflow(&mut est, 0, 9);
        assert_eq!(est.lost.len(), 0);
        assert_eq!(est.avg_age(), 8.0);
    }

    #[test]
    fn real_overflow_purge_counts_when_not_prescanned() {
        let mut est = CongestionEstimator::new(config(0.0));
        overflow(&mut est, 7, 3);
        assert_eq!(est.avg_age(), 3.0);
    }

    #[test]
    fn age_cap_purge_never_counts() {
        let mut est = CongestionEstimator::new(config(0.0));
        est.on_purged(&PurgedEvent {
            id: id(7),
            age: 11,
            reason: PurgeReason::AgeCap,
        });
        assert_eq!(est.avg_age(), INITIAL_AGE);
    }

    #[test]
    fn suppress_relief_blocks_drift() {
        let mut est = CongestionEstimator::new(CongestionConfig {
            alpha: 0.5,
            no_drop_relief: true,
        });
        // Pull avgAge below the relief age first: 0.5 × 10 + 0.5 × 2.
        overflow(&mut est, 7, 2);
        assert_eq!(est.avg_age(), 6.0);
        let buf = EventBuffer::new(10);
        est.scan(&buf, 5, true);
        assert_eq!(est.avg_age(), 6.0);
    }

    #[test]
    fn relief_drifts_toward_relief_age() {
        let mut est = CongestionEstimator::new(CongestionConfig {
            alpha: 0.5,
            no_drop_relief: true,
        });
        overflow(&mut est, 7, 2);
        let buf = EventBuffer::new(10); // empty: nothing to drop
        est.scan(&buf, 5, false);
        assert_eq!(est.avg_age(), 8.0);
        est.scan(&buf, 5, false);
        assert_eq!(est.avg_age(), 9.0);
        assert_eq!(est.lost.len(), 0);
    }

    #[test]
    fn no_relief_when_disabled() {
        let mut est = CongestionEstimator::new(config(0.5));
        overflow(&mut est, 7, 2);
        let buf = EventBuffer::new(10);
        est.scan(&buf, 5, false);
        assert_eq!(est.avg_age(), 6.0);
    }

    #[test]
    fn no_relief_when_buffer_above_min_but_all_counted() {
        // Buffer holds 3 events, min_buff 1, but two are already in lost:
        // eligible (1) <= min_buff (1): no drops; relief requires
        // buffer.len() <= min_buff which is false -> no relief either.
        let mut est = CongestionEstimator::new(CongestionConfig {
            alpha: 0.0,
            no_drop_relief: true,
        });
        let mut buf = EventBuffer::new(10);
        for (s, age) in [(0, 9), (1, 8), (2, 1)] {
            buf.insert(ev(s, age));
        }
        est.scan(&buf, 1, false); // counts ages 9, 8
        let before = est.avg_age();
        est.scan(&buf, 1, false); // nothing new, no relief
        assert_eq!(est.avg_age(), before);
    }

    #[test]
    fn ewma_smooths_with_alpha() {
        let mut est = CongestionEstimator::new(config(0.9));
        let mut buf = EventBuffer::new(10);
        buf.insert(ev(0, 5));
        est.scan(&buf, 0, false);
        // 0.9 * 10 + 0.1 * 5 = 9.5
        assert!((est.avg_age() - 9.5).abs() < 1e-12);
    }
}
