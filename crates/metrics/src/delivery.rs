//! Per-message delivery tracking and atomicity.

use std::collections::BTreeMap;

use agb_types::{EventId, FastHashMap, NodeId, TimeMs};

use crate::churn::earliest;

/// A dense set of node ids, stored as a lazily grown bitset.
///
/// Delivery tracking inserts one entry per (message, receiver) pair —
/// the single highest-volume metrics operation at large scale — so
/// membership is a bit test instead of a hash probe, and a full group's
/// receiver set costs `n/8` bytes instead of a hash table.
///
/// # Example
///
/// ```
/// use agb_metrics::NodeSet;
/// use agb_types::NodeId;
///
/// let mut s = NodeSet::default();
/// assert!(s.insert(NodeId::new(70)));
/// assert!(!s.insert(NodeId::new(70)));
/// assert!(s.contains(NodeId::new(70)));
/// assert_eq!(s.len(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeSet {
    words: Vec<u64>,
    len: usize,
}

impl NodeSet {
    /// Adds `node`; returns whether it was newly inserted.
    pub fn insert(&mut self, node: NodeId) -> bool {
        let (word, bit) = (node.index() / 64, node.index() % 64);
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let mask = 1u64 << bit;
        if self.words[word] & mask != 0 {
            return false;
        }
        self.words[word] |= mask;
        self.len += 1;
        true
    }

    /// Whether `node` is in the set.
    pub fn contains(&self, node: NodeId) -> bool {
        let (word, bit) = (node.index() / 64, node.index() % 64);
        self.words.get(word).is_some_and(|w| w & (1u64 << bit) != 0)
    }

    /// Number of nodes in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Adds every node of `other`.
    pub fn union(&mut self, other: &NodeSet) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (mine, theirs) in self.words.iter_mut().zip(&other.words) {
            *mine |= theirs;
        }
        self.len = self.words.iter().map(|w| w.count_ones() as usize).sum();
    }
}

/// Everything known about one broadcast message.
#[derive(Debug, Clone, PartialEq)]
pub struct MessageRecord {
    /// When the origin admitted it (None if only deliveries were seen).
    pub admitted_at: Option<TimeMs>,
    /// Nodes that delivered it (each counted once).
    pub receivers: NodeSet,
    /// Time of the first delivery.
    pub first_delivery: Option<TimeMs>,
    /// Time of the last delivery.
    pub last_delivery: Option<TimeMs>,
    /// Sum of delivery ages (hops), for mean hop-count reporting.
    pub age_sum: u64,
}

impl MessageRecord {
    fn new() -> Self {
        MessageRecord {
            admitted_at: None,
            receivers: NodeSet::default(),
            first_delivery: None,
            last_delivery: None,
            age_sum: 0,
        }
    }

    /// Number of distinct receivers.
    pub fn receiver_count(&self) -> usize {
        self.receivers.len()
    }

    /// Mean age (hops) over this message's deliveries.
    pub fn mean_delivery_age(&self) -> f64 {
        if self.receivers.is_empty() {
            0.0
        } else {
            self.age_sum as f64 / self.receivers.len() as f64
        }
    }

    /// Folds in the record another tracker kept for the same message,
    /// from receivers this one never saw.
    fn merge(&mut self, other: &MessageRecord) {
        self.admitted_at = earliest(self.admitted_at, other.admitted_at);
        self.receivers.union(&other.receivers);
        self.first_delivery = earliest(self.first_delivery, other.first_delivery);
        self.last_delivery = self.last_delivery.max(other.last_delivery);
        self.age_sum += other.age_sum;
    }
}

/// Aggregate answer to "how reliable was the broadcast?".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AtomicityReport {
    /// Messages considered (after windowing).
    pub messages: usize,
    /// Mean fraction of the group reached, in `[0, 1]` (Fig. 8(a)).
    pub avg_receiver_fraction: f64,
    /// Fraction of messages delivered to more than `threshold` of the
    /// group (Fig. 8(b): threshold 0.95).
    pub atomic_fraction: f64,
}

/// Tracks deliveries of every message across a fixed group of `n` nodes.
///
/// # Example
///
/// ```
/// use agb_metrics::DeliveryTracker;
/// use agb_types::{EventId, NodeId, TimeMs};
///
/// let mut t = DeliveryTracker::new(4);
/// let id = EventId::new(NodeId::new(0), 0);
/// t.on_admitted(id, TimeMs::ZERO);
/// for n in 0..3 {
///     t.on_delivered(NodeId::new(n), id, 2, TimeMs::from_secs(1));
/// }
/// let report = t.atomicity(0.5, None);
/// assert_eq!(report.messages, 1);
/// assert_eq!(report.avg_receiver_fraction, 0.75);
/// assert_eq!(report.atomic_fraction, 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DeliveryTracker {
    n_nodes: usize,
    records: FastHashMap<EventId, MessageRecord>,
}

impl DeliveryTracker {
    /// Creates a tracker for a group of `n_nodes`.
    ///
    /// # Panics
    ///
    /// Panics if `n_nodes == 0`.
    pub fn new(n_nodes: usize) -> Self {
        assert!(n_nodes > 0, "group must have at least one node");
        DeliveryTracker {
            n_nodes,
            records: FastHashMap::default(),
        }
    }

    /// Group size.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Records the admission of a message at its origin (keeps the earliest
    /// admission time if called twice).
    pub fn on_admitted(&mut self, id: EventId, at: TimeMs) {
        let rec = self.records.entry(id).or_insert_with(MessageRecord::new);
        rec.admitted_at = Some(rec.admitted_at.map_or(at, |t| if at < t { at } else { t }));
    }

    /// Records a delivery. Duplicate deliveries at the same node are
    /// counted once.
    pub fn on_delivered(&mut self, node: NodeId, id: EventId, age: u32, at: TimeMs) {
        let rec = self.records.entry(id).or_insert_with(MessageRecord::new);
        if rec.receivers.insert(node) {
            rec.age_sum += u64::from(age);
            rec.first_delivery = Some(
                rec.first_delivery
                    .map_or(at, |t| if at < t { at } else { t }),
            );
            rec.last_delivery = Some(
                rec.last_delivery
                    .map_or(at, |t| if at > t { at } else { t }),
            );
        }
    }

    /// Folds in a tracker that saw other receivers of the same group:
    /// receiver sets unite, age sums add, and admission and delivery
    /// times keep their extremes, so trackers that split the receivers
    /// between them merge, in any order, to the one that saw them all.
    ///
    /// # Panics
    ///
    /// Panics if the group sizes differ.
    pub fn merge(&mut self, other: &DeliveryTracker) {
        assert_eq!(
            self.n_nodes, other.n_nodes,
            "merged trackers of different groups"
        );
        for (id, theirs) in &other.records {
            self.records
                .entry(*id)
                .or_insert_with(MessageRecord::new)
                .merge(theirs);
        }
    }

    /// Number of tracked messages.
    pub fn message_count(&self) -> usize {
        self.records.len()
    }

    /// The record for one message, if tracked.
    pub fn record(&self, id: EventId) -> Option<&MessageRecord> {
        self.records.get(&id)
    }

    /// Iterates over `(id, record)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&EventId, &MessageRecord)> {
        self.records.iter()
    }

    /// Windowed records in a deterministic (id-sorted) order, so
    /// float aggregation over them is reproducible regardless of hash-map
    /// iteration order.
    fn windowed(&self, window: Option<(TimeMs, TimeMs)>) -> impl Iterator<Item = &MessageRecord> {
        let mut selected: Vec<(&EventId, &MessageRecord)> = self
            .records
            .iter()
            .filter(move |(_, r)| match window {
                None => true,
                Some((from, to)) => match r.admitted_at.or(r.first_delivery) {
                    Some(t) => t >= from && t < to,
                    None => false,
                },
            })
            .collect();
        selected.sort_by_key(|&(id, _)| *id);
        selected.into_iter().map(|(_, r)| r)
    }

    /// Atomicity over messages admitted within `window` (or all).
    ///
    /// `threshold` is the fraction of the group that must deliver a message
    /// for it to count as atomic; the paper uses 0.95 ("messages to >95% of
    /// receivers").
    pub fn atomicity(&self, threshold: f64, window: Option<(TimeMs, TimeMs)>) -> AtomicityReport {
        let mut messages = 0usize;
        let mut fraction_sum = 0.0f64;
        let mut atomic = 0usize;
        for rec in self.windowed(window) {
            messages += 1;
            let frac = rec.receiver_count() as f64 / self.n_nodes as f64;
            fraction_sum += frac;
            if frac > threshold {
                atomic += 1;
            }
        }
        AtomicityReport {
            messages,
            avg_receiver_fraction: if messages == 0 {
                0.0
            } else {
                fraction_sum / messages as f64
            },
            atomic_fraction: if messages == 0 {
                0.0
            } else {
                atomic as f64 / messages as f64
            },
        }
    }

    /// Per-time-bin atomicity (the Fig. 9(b) time series): messages are
    /// bucketed by admission time; returns `(bin_start, report)` pairs in
    /// time order. Bins with no messages are omitted. Each bin adds its
    /// fractions in id order, as [`atomicity`](Self::atomicity) does.
    pub fn atomicity_series(
        &self,
        threshold: f64,
        bin: agb_types::DurationMs,
    ) -> Vec<(TimeMs, AtomicityReport)> {
        let bin_ms = bin.as_millis().max(1);
        let mut bins: BTreeMap<u64, (usize, f64, usize)> = BTreeMap::new();
        for rec in self.windowed(None) {
            let Some(t) = rec.admitted_at.or(rec.first_delivery) else {
                continue;
            };
            let b = t.as_millis() / bin_ms;
            let frac = rec.receiver_count() as f64 / self.n_nodes as f64;
            let entry = bins.entry(b).or_insert((0, 0.0, 0));
            entry.0 += 1;
            entry.1 += frac;
            if frac > threshold {
                entry.2 += 1;
            }
        }
        bins.into_iter()
            .map(|(b, (messages, frac_sum, atomic))| {
                (
                    TimeMs::from_millis(b * bin_ms),
                    AtomicityReport {
                        messages,
                        avg_receiver_fraction: frac_sum / messages as f64,
                        atomic_fraction: atomic as f64 / messages as f64,
                    },
                )
            })
            .collect()
    }

    /// Atomicity measured **among correct nodes**: for each message, the
    /// eligible receiver set is the nodes that stayed up throughout
    /// `[admission, admission + horizon]` according to `timeline`; the
    /// delivery fraction and the `threshold` criterion are computed against
    /// that set instead of the nominal group size.
    ///
    /// This is the churn experiments' headline metric: a crashed node
    /// cannot be expected to deliver, so it must not count against the
    /// protocol — while a node that stayed up and still missed the message
    /// must.
    ///
    /// Messages whose eligible set is empty (everyone churned) are skipped.
    pub fn correct_atomicity(
        &self,
        threshold: f64,
        window: Option<(TimeMs, TimeMs)>,
        timeline: &crate::MembershipTimeline,
        horizon: agb_types::DurationMs,
    ) -> AtomicityReport {
        let mut messages = 0usize;
        let mut fraction_sum = 0.0f64;
        let mut atomic = 0usize;
        for rec in self.windowed(window) {
            let Some(t0) = rec.admitted_at.or(rec.first_delivery) else {
                continue;
            };
            let eligible = timeline.correct_nodes(t0, t0 + horizon);
            if eligible.is_empty() {
                continue;
            }
            let reached = eligible
                .iter()
                .filter(|&&n| rec.receivers.contains(n))
                .count();
            messages += 1;
            let frac = reached as f64 / eligible.len() as f64;
            fraction_sum += frac;
            if frac > threshold {
                atomic += 1;
            }
        }
        AtomicityReport {
            messages,
            avg_receiver_fraction: if messages == 0 {
                0.0
            } else {
                fraction_sum / messages as f64
            },
            atomic_fraction: if messages == 0 {
                0.0
            } else {
                atomic as f64 / messages as f64
            },
        }
    }

    /// Mean delivery age (hops) across all windowed messages' deliveries.
    pub fn mean_delivery_age(&self, window: Option<(TimeMs, TimeMs)>) -> f64 {
        let mut ages = 0u64;
        let mut count = 0u64;
        for rec in self.windowed(window) {
            ages += rec.age_sum;
            count += rec.receivers.len() as u64;
        }
        if count == 0 {
            0.0
        } else {
            ages as f64 / count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agb_types::DurationMs;

    fn id(n: u32, s: u64) -> EventId {
        EventId::new(NodeId::new(n), s)
    }

    #[test]
    fn counts_receivers_once() {
        let mut t = DeliveryTracker::new(10);
        let m = id(0, 0);
        t.on_delivered(NodeId::new(1), m, 1, TimeMs::ZERO);
        t.on_delivered(NodeId::new(1), m, 3, TimeMs::from_secs(1));
        assert_eq!(t.record(m).unwrap().receiver_count(), 1);
        assert_eq!(t.record(m).unwrap().age_sum, 1);
    }

    #[test]
    fn atomicity_thresholds() {
        let mut t = DeliveryTracker::new(10);
        // Message A reaches all 10, message B reaches 5.
        for n in 0..10 {
            t.on_delivered(NodeId::new(n), id(0, 0), 1, TimeMs::ZERO);
        }
        for n in 0..5 {
            t.on_delivered(NodeId::new(n), id(0, 1), 1, TimeMs::ZERO);
        }
        let r = t.atomicity(0.95, None);
        assert_eq!(r.messages, 2);
        assert!((r.avg_receiver_fraction - 0.75).abs() < 1e-12);
        assert_eq!(r.atomic_fraction, 0.5);
    }

    #[test]
    fn threshold_is_strictly_greater() {
        let mut t = DeliveryTracker::new(10);
        for n in 0..5 {
            t.on_delivered(NodeId::new(n), id(0, 0), 1, TimeMs::ZERO);
        }
        // Exactly 50%: NOT ">50%".
        assert_eq!(t.atomicity(0.5, None).atomic_fraction, 0.0);
        assert_eq!(t.atomicity(0.49, None).atomic_fraction, 1.0);
    }

    #[test]
    fn windowing_filters_by_admission_time() {
        let mut t = DeliveryTracker::new(2);
        t.on_admitted(id(0, 0), TimeMs::from_secs(1));
        t.on_delivered(NodeId::new(0), id(0, 0), 0, TimeMs::from_secs(1));
        t.on_admitted(id(0, 1), TimeMs::from_secs(10));
        t.on_delivered(NodeId::new(0), id(0, 1), 0, TimeMs::from_secs(10));
        t.on_delivered(NodeId::new(1), id(0, 1), 1, TimeMs::from_secs(11));
        let early = t.atomicity(0.95, Some((TimeMs::ZERO, TimeMs::from_secs(5))));
        assert_eq!(early.messages, 1);
        assert!((early.avg_receiver_fraction - 0.5).abs() < 1e-12);
        let late = t.atomicity(0.95, Some((TimeMs::from_secs(5), TimeMs::from_secs(20))));
        assert_eq!(late.messages, 1);
        assert_eq!(late.avg_receiver_fraction, 1.0);
    }

    #[test]
    fn series_bins_by_admission() {
        let mut t = DeliveryTracker::new(2);
        for (seq, sec) in [(0, 0), (1, 1), (2, 10)] {
            t.on_admitted(id(0, seq), TimeMs::from_secs(sec));
            t.on_delivered(NodeId::new(0), id(0, seq), 0, TimeMs::from_secs(sec));
            t.on_delivered(NodeId::new(1), id(0, seq), 1, TimeMs::from_secs(sec));
        }
        let series = t.atomicity_series(0.95, DurationMs::from_secs(5));
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].0, TimeMs::ZERO);
        assert_eq!(series[0].1.messages, 2);
        assert_eq!(series[1].0, TimeMs::from_secs(10));
        assert_eq!(series[1].1.messages, 1);
        assert_eq!(series[1].1.atomic_fraction, 1.0);
    }

    #[test]
    fn mean_delivery_age_weights_by_delivery() {
        let mut t = DeliveryTracker::new(4);
        t.on_delivered(NodeId::new(0), id(0, 0), 2, TimeMs::ZERO);
        t.on_delivered(NodeId::new(1), id(0, 0), 4, TimeMs::ZERO);
        t.on_delivered(NodeId::new(0), id(0, 1), 6, TimeMs::ZERO);
        assert!((t.mean_delivery_age(None) - 4.0).abs() < 1e-12);
        assert!((t.record(id(0, 0)).unwrap().mean_delivery_age() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn correct_atomicity_excludes_churned_nodes() {
        use crate::MembershipTimeline;
        let mut t = DeliveryTracker::new(4);
        let mut tl = MembershipTimeline::new(4);
        // Node 3 is down for the whole dissemination window of message 0.
        tl.record(NodeId::new(3), TimeMs::from_secs(1), false);
        tl.record(NodeId::new(3), TimeMs::from_secs(60), true);
        t.on_admitted(id(0, 0), TimeMs::from_secs(5));
        for n in 0..3 {
            t.on_delivered(NodeId::new(n), id(0, 0), 1, TimeMs::from_secs(6));
        }
        // Raw atomicity counts node 3 as a miss...
        let raw = t.atomicity(0.95, None);
        assert!((raw.avg_receiver_fraction - 0.75).abs() < 1e-12);
        assert_eq!(raw.atomic_fraction, 0.0);
        // ...the correct-node report does not.
        let correct = t.correct_atomicity(0.95, None, &tl, agb_types::DurationMs::from_secs(10));
        assert_eq!(correct.messages, 1);
        assert_eq!(correct.avg_receiver_fraction, 1.0);
        assert_eq!(correct.atomic_fraction, 1.0);
    }

    #[test]
    fn correct_atomicity_still_counts_up_nodes_that_missed() {
        use crate::MembershipTimeline;
        let mut t = DeliveryTracker::new(4);
        let tl = MembershipTimeline::new(4);
        t.on_admitted(id(0, 0), TimeMs::from_secs(5));
        for n in 0..3 {
            t.on_delivered(NodeId::new(n), id(0, 0), 1, TimeMs::from_secs(6));
        }
        // All four nodes stayed up: node 3's miss is a real miss.
        let correct = t.correct_atomicity(0.95, None, &tl, agb_types::DurationMs::from_secs(10));
        assert!((correct.avg_receiver_fraction - 0.75).abs() < 1e-12);
        assert_eq!(correct.atomic_fraction, 0.0);
    }

    #[test]
    fn empty_tracker_reports_zeroes() {
        let t = DeliveryTracker::new(3);
        let r = t.atomicity(0.95, None);
        assert_eq!(r.messages, 0);
        assert_eq!(r.avg_receiver_fraction, 0.0);
        assert_eq!(r.atomic_fraction, 0.0);
        assert_eq!(t.mean_delivery_age(None), 0.0);
        assert_eq!(t.message_count(), 0);
        assert_eq!(t.n_nodes(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        let _ = DeliveryTracker::new(0);
    }
}
