//! Churn-aware measurement: who was *correct* when, and how fast rejoiners
//! catch back up.
//!
//! Under churn, raw atomicity is misleading: a message admitted while a
//! third of the group is crashed can never reach 100% of the nominal
//! membership, yet the broadcast may be perfectly reliable *among the
//! correct nodes*. [`MembershipTimeline`] records every node's up/down
//! intervals so [`DeliveryTracker`](crate::DeliveryTracker) can compute
//! delivery ratios against the per-message set of eligible receivers, and
//! [`CatchUpTracker`] measures how quickly a restarted node resumes
//! delivering (and, with the recovery layer, repairing) events.

use std::collections::BTreeMap;

use agb_types::{DurationMs, NodeId, TimeMs};

/// Per-node up/down intervals over a run.
///
/// Transitions are recorded by the scenario driver (the chaos engine knows
/// its schedule up front); queries answer "was `node` up at `t`" and "was
/// `node` up throughout `[from, to]`".
///
/// # Example
///
/// ```
/// use agb_metrics::MembershipTimeline;
/// use agb_types::{NodeId, TimeMs};
///
/// let mut tl = MembershipTimeline::new(3);
/// tl.record(NodeId::new(1), TimeMs::from_secs(10), false); // crash
/// tl.record(NodeId::new(1), TimeMs::from_secs(20), true); // restart
/// assert!(tl.up_at(NodeId::new(1), TimeMs::from_secs(5)));
/// assert!(!tl.up_at(NodeId::new(1), TimeMs::from_secs(15)));
/// assert!(!tl.up_during(NodeId::new(1), TimeMs::from_secs(5), TimeMs::from_secs(25)));
/// assert!(tl.up_during(NodeId::new(0), TimeMs::from_secs(5), TimeMs::from_secs(25)));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MembershipTimeline {
    n_nodes: usize,
    /// Transition lists per node, time-ordered: `(at, up)`. Nodes with no
    /// entry are up for the whole run.
    transitions: BTreeMap<NodeId, Vec<(TimeMs, bool)>>,
}

impl MembershipTimeline {
    /// A timeline for `n_nodes`, all up from time zero.
    pub fn new(n_nodes: usize) -> Self {
        MembershipTimeline {
            n_nodes,
            transitions: BTreeMap::new(),
        }
    }

    /// Group size.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Marks `node` as absent from time zero (a late joiner).
    pub fn set_absent_from_start(&mut self, node: NodeId) {
        self.record(node, TimeMs::ZERO, false);
    }

    /// Records a transition of `node` to up (`true`) or down (`false`) at
    /// `at`. Transitions may be recorded out of order; they are kept
    /// sorted.
    pub fn record(&mut self, node: NodeId, at: TimeMs, up: bool) {
        let list = self.transitions.entry(node).or_default();
        let pos = list.partition_point(|&(t, _)| t <= at);
        list.insert(pos, (at, up));
    }

    /// Whether `node` was up at `t`.
    pub fn up_at(&self, node: NodeId, t: TimeMs) -> bool {
        match self.transitions.get(&node) {
            None => true,
            Some(list) => list
                .iter()
                .rev()
                .find(|&&(at, _)| at <= t)
                .is_none_or(|&(_, up)| up),
        }
    }

    /// Whether `node` was up throughout the whole closed interval
    /// `[from, to]` — the "correct during this message's dissemination"
    /// criterion.
    pub fn up_during(&self, node: NodeId, from: TimeMs, to: TimeMs) -> bool {
        if !self.up_at(node, from) {
            return false;
        }
        match self.transitions.get(&node) {
            None => true,
            Some(list) => !list.iter().any(|&(at, up)| !up && at > from && at <= to),
        }
    }

    /// The nodes up throughout `[from, to]`.
    pub fn correct_nodes(&self, from: TimeMs, to: TimeMs) -> Vec<NodeId> {
        (0..self.n_nodes as u32)
            .map(NodeId::new)
            .filter(|&n| self.up_during(n, from, to))
            .collect()
    }

    /// Whether any transition was recorded (false = static membership).
    pub fn has_churn(&self) -> bool {
        !self.transitions.is_empty()
    }
}

/// One restart being tracked for catch-up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CatchUpRecord {
    /// The restarted node.
    pub node: NodeId,
    /// When it came back up.
    pub restarted_at: TimeMs,
    /// First post-restart application delivery, if any.
    pub first_delivery: Option<TimeMs>,
    /// First post-restart recovery-layer repair, if any.
    pub first_recovered: Option<TimeMs>,
}

impl CatchUpRecord {
    /// Latency from restart to the first delivery.
    pub fn delivery_latency(&self) -> Option<DurationMs> {
        self.first_delivery.map(|t| t.since(self.restarted_at))
    }
}

/// Measures post-rejoin catch-up: for every marked restart, the time until
/// the node delivers again (gossip has re-included it) and until the
/// recovery layer repairs its first gap (it is pulling missed history).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CatchUpTracker {
    records: Vec<CatchUpRecord>,
}

impl CatchUpTracker {
    /// Marks a restart of `node` at `at`.
    pub fn mark_restart(&mut self, node: NodeId, at: TimeMs) {
        self.records.push(CatchUpRecord {
            node,
            restarted_at: at,
            first_delivery: None,
            first_recovered: None,
        });
    }

    /// The same restart marks, with nothing observed after them yet.
    pub fn partial(&self) -> CatchUpTracker {
        let records = self
            .records
            .iter()
            .map(|r| CatchUpRecord {
                first_delivery: None,
                first_recovered: None,
                ..*r
            })
            .collect();
        CatchUpTracker { records }
    }

    /// Folds in a tracker holding the same restart marks: each restart
    /// keeps the earliest first delivery and first repair either saw.
    ///
    /// # Panics
    ///
    /// Panics if the two trackers hold different restart marks.
    pub fn merge(&mut self, other: &CatchUpTracker) {
        assert_eq!(
            self.records.len(),
            other.records.len(),
            "merged catch-up trackers with different restart marks"
        );
        for (mine, theirs) in self.records.iter_mut().zip(&other.records) {
            assert_eq!(
                (mine.node, mine.restarted_at),
                (theirs.node, theirs.restarted_at),
                "merged catch-up trackers with different restart marks"
            );
            mine.first_delivery = earliest(mine.first_delivery, theirs.first_delivery);
            mine.first_recovered = earliest(mine.first_recovered, theirs.first_recovered);
        }
    }

    /// Feeds a delivery observed at `node`.
    pub fn on_delivery(&mut self, node: NodeId, at: TimeMs) {
        for r in self.records.iter_mut().rev() {
            if r.node == node && at >= r.restarted_at {
                if r.first_delivery.is_none() {
                    r.first_delivery = Some(at);
                }
                break;
            }
        }
    }

    /// Feeds a recovery-layer repair observed at `node`.
    pub fn on_recovered(&mut self, node: NodeId, at: TimeMs) {
        for r in self.records.iter_mut().rev() {
            if r.node == node && at >= r.restarted_at {
                if r.first_recovered.is_none() {
                    r.first_recovered = Some(at);
                }
                break;
            }
        }
    }

    /// All tracked restarts.
    pub fn records(&self) -> &[CatchUpRecord] {
        &self.records
    }

    /// Mean restart→first-delivery latency in ms over restarts that caught
    /// up.
    pub fn mean_delivery_latency_ms(&self) -> Option<f64> {
        let latencies: Vec<u64> = self
            .records
            .iter()
            .filter_map(|r| r.delivery_latency().map(|d| d.as_millis()))
            .collect();
        if latencies.is_empty() {
            None
        } else {
            Some(latencies.iter().sum::<u64>() as f64 / latencies.len() as f64)
        }
    }

    /// Restarts that never delivered again (measurement horizon reached
    /// first).
    pub fn stragglers(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.first_delivery.is_none())
            .count()
    }
}

/// The earlier of two optional times (`None` is no time, not the
/// earliest).
pub(crate) fn earliest(a: Option<TimeMs>, b: Option<TimeMs>) -> Option<TimeMs> {
    a.into_iter().chain(b).min()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untouched_node_is_always_up() {
        let tl = MembershipTimeline::new(2);
        assert!(tl.up_at(NodeId::new(0), TimeMs::from_secs(100)));
        assert!(tl.up_during(NodeId::new(0), TimeMs::ZERO, TimeMs::from_secs(100)));
        assert!(!tl.has_churn());
        assert_eq!(tl.n_nodes(), 2);
    }

    #[test]
    fn crash_and_restart_intervals() {
        let mut tl = MembershipTimeline::new(3);
        tl.record(NodeId::new(1), TimeMs::from_secs(10), false);
        tl.record(NodeId::new(1), TimeMs::from_secs(20), true);
        assert!(tl.up_at(NodeId::new(1), TimeMs::from_secs(9)));
        assert!(!tl.up_at(NodeId::new(1), TimeMs::from_secs(10)));
        assert!(tl.up_at(NodeId::new(1), TimeMs::from_secs(20)));
        // Interval queries.
        assert!(tl.up_during(NodeId::new(1), TimeMs::ZERO, TimeMs::from_secs(9)));
        assert!(!tl.up_during(NodeId::new(1), TimeMs::ZERO, TimeMs::from_secs(10)));
        assert!(tl.up_during(NodeId::new(1), TimeMs::from_secs(20), TimeMs::from_secs(30)));
        assert!(tl.has_churn());
    }

    #[test]
    fn absent_from_start_until_joined() {
        let mut tl = MembershipTimeline::new(2);
        tl.set_absent_from_start(NodeId::new(1));
        tl.record(NodeId::new(1), TimeMs::from_secs(30), true);
        assert!(!tl.up_at(NodeId::new(1), TimeMs::from_secs(1)));
        assert!(tl.up_at(NodeId::new(1), TimeMs::from_secs(31)));
        assert_eq!(
            tl.correct_nodes(TimeMs::from_secs(40), TimeMs::from_secs(50)),
            vec![NodeId::new(0), NodeId::new(1)]
        );
        assert_eq!(
            tl.correct_nodes(TimeMs::ZERO, TimeMs::from_secs(50)),
            vec![NodeId::new(0)]
        );
    }

    #[test]
    fn out_of_order_records_are_sorted() {
        let mut tl = MembershipTimeline::new(1);
        tl.record(NodeId::new(0), TimeMs::from_secs(20), true);
        tl.record(NodeId::new(0), TimeMs::from_secs(10), false);
        assert!(!tl.up_at(NodeId::new(0), TimeMs::from_secs(15)));
        assert!(tl.up_at(NodeId::new(0), TimeMs::from_secs(25)));
    }

    #[test]
    fn catch_up_latency_per_restart() {
        let mut c = CatchUpTracker::default();
        c.mark_restart(NodeId::new(3), TimeMs::from_secs(10));
        // Deliveries before the restart don't count.
        c.on_delivery(NodeId::new(3), TimeMs::from_secs(5));
        assert_eq!(c.records()[0].first_delivery, None);
        c.on_delivery(NodeId::new(3), TimeMs::from_secs(12));
        c.on_delivery(NodeId::new(3), TimeMs::from_secs(14));
        c.on_recovered(NodeId::new(3), TimeMs::from_secs(13));
        let r = c.records()[0];
        assert_eq!(r.first_delivery, Some(TimeMs::from_secs(12)));
        assert_eq!(r.first_recovered, Some(TimeMs::from_secs(13)));
        assert_eq!(r.delivery_latency(), Some(DurationMs::from_secs(2)));
        assert_eq!(c.mean_delivery_latency_ms(), Some(2000.0));
        assert_eq!(c.stragglers(), 0);
    }

    #[test]
    fn second_restart_gets_its_own_record() {
        let mut c = CatchUpTracker::default();
        c.mark_restart(NodeId::new(0), TimeMs::from_secs(10));
        c.on_delivery(NodeId::new(0), TimeMs::from_secs(11));
        c.mark_restart(NodeId::new(0), TimeMs::from_secs(20));
        c.on_delivery(NodeId::new(0), TimeMs::from_secs(24));
        let rs = c.records();
        assert_eq!(rs.len(), 2);
        assert_eq!(rs[0].first_delivery, Some(TimeMs::from_secs(11)));
        assert_eq!(rs[1].first_delivery, Some(TimeMs::from_secs(24)));
        assert_eq!(c.mean_delivery_latency_ms(), Some(2500.0));
    }

    #[test]
    fn straggler_counted_when_no_delivery_follows() {
        let mut c = CatchUpTracker::default();
        c.mark_restart(NodeId::new(0), TimeMs::from_secs(10));
        assert_eq!(c.stragglers(), 1);
        assert_eq!(c.mean_delivery_latency_ms(), None);
    }
}
