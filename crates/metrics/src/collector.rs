//! The one-stop collector wired between the protocol nodes and the figure
//! harnesses.

use agb_core::ProtocolEvent;
use agb_types::{DurationMs, NodeId, TimeMs};

use crate::churn::{CatchUpTracker, MembershipTimeline};
use crate::delivery::{AtomicityReport, DeliveryTracker};
use crate::drop_age::DropAgeStats;
use crate::rates::{AllowedRateTracker, RateMeter};
use crate::recovery::RecoveryStats;

/// Consumes every [`ProtocolEvent`] from every node and maintains all the
/// aggregates the paper's figures need.
///
/// A collector can also be split by node: each [`partial`](Self::partial)
/// records the events of some of the nodes, and [`merge`](Self::merge)
/// folds the partials back, in any order, into the collector that saw
/// them all. The simulator keeps one partial per engine shard.
///
/// # Example
///
/// ```
/// use agb_core::ProtocolEvent;
/// use agb_metrics::MetricsCollector;
/// use agb_types::{DurationMs, EventId, NodeId, TimeMs};
///
/// let mut m = MetricsCollector::new(10, DurationMs::from_secs(1));
/// let id = EventId::new(NodeId::new(0), 0);
/// m.on_event(NodeId::new(0), &ProtocolEvent::Admitted { id, at: TimeMs::ZERO });
/// assert_eq!(m.admitted().total(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsCollector {
    n_nodes: usize,
    deliveries: DeliveryTracker,
    drop_ages: DropAgeStats,
    admitted: RateMeter,
    delivered: RateMeter,
    allowed: AllowedRateTracker,
    recovery: RecoveryStats,
    timeline: MembershipTimeline,
    catch_up: CatchUpTracker,
}

impl MetricsCollector {
    /// Creates a collector for an `n_nodes` group with the given time-bin
    /// width for windowed rate and drop-age queries.
    pub fn new(n_nodes: usize, bin: DurationMs) -> Self {
        MetricsCollector {
            n_nodes,
            deliveries: DeliveryTracker::new(n_nodes),
            drop_ages: DropAgeStats::new(bin),
            admitted: RateMeter::new(bin),
            delivered: RateMeter::new(bin),
            allowed: AllowedRateTracker::new(),
            recovery: RecoveryStats::default(),
            timeline: MembershipTimeline::new(n_nodes),
            catch_up: CatchUpTracker::default(),
        }
    }

    /// An empty collector for some of this collector's nodes: it tracks
    /// the allowed rates of the same senders and holds the same restart
    /// marks, but none of the membership transitions or initial rates,
    /// which stay with `self`.
    pub fn partial(&self) -> MetricsCollector {
        MetricsCollector {
            allowed: self.allowed.partial(),
            catch_up: self.catch_up.partial(),
            ..MetricsCollector::new(self.n_nodes, self.admitted.bin())
        }
    }

    /// Folds in a [`partial`](Self::partial) that saw other nodes' events.
    /// Every accumulator merges by set union, extremes, integer sums or
    /// per-node concatenation, so partials that split the nodes between
    /// them merge, in any order, to the collector that saw every event.
    ///
    /// # Panics
    ///
    /// Panics if the collectors differ in group size, bin width or
    /// restart marks, or if `other` recorded membership transitions,
    /// which only the collector merged into keeps.
    pub fn merge(&mut self, other: &MetricsCollector) {
        assert_eq!(
            self.n_nodes, other.n_nodes,
            "merged collectors of different groups"
        );
        assert!(
            !other.timeline.has_churn(),
            "a partial records no membership transitions"
        );
        self.deliveries.merge(&other.deliveries);
        self.drop_ages.merge(&other.drop_ages);
        self.admitted.merge(&other.admitted);
        self.delivered.merge(&other.delivered);
        self.allowed.merge(&other.allowed);
        self.recovery.merge(&other.recovery);
        self.catch_up.merge(&other.catch_up);
    }

    /// Group size.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Registers a node's initial allowed rate (adaptive senders).
    pub fn set_initial_rate(&mut self, node: NodeId, rate: f64) {
        self.allowed.set_initial(node, rate);
    }

    /// Dispatches one protocol event observed at `node`.
    pub fn on_event(&mut self, node: NodeId, event: &ProtocolEvent) {
        match event {
            ProtocolEvent::Admitted { id, at } => {
                self.deliveries.on_admitted(*id, *at);
                self.admitted.record(*at);
            }
            ProtocolEvent::Delivered { event, from: _, at } => {
                self.deliveries
                    .on_delivered(node, event.id(), event.age(), *at);
                self.delivered.record(*at);
                self.catch_up.on_delivery(node, *at);
            }
            ProtocolEvent::Dropped {
                id: _,
                age,
                reason,
                at,
            } => {
                self.drop_ages.record(*age, *reason, *at);
            }
            ProtocolEvent::RateChanged { new, at, .. } => {
                self.allowed.on_change(node, *new, *at);
            }
            ProtocolEvent::RecoveryRequested { ids, .. } => {
                self.recovery.on_requested(*ids);
            }
            ProtocolEvent::RecoveryServed { events, .. } => {
                self.recovery.on_served(*events);
            }
            ProtocolEvent::Recovered { at, .. } => {
                self.recovery.on_recovered();
                self.catch_up.on_recovered(node, *at);
            }
            ProtocolEvent::RecoveryDuplicate { .. } => {
                self.recovery.on_duplicate();
            }
            ProtocolEvent::RecoveryAbandoned { .. } => {
                self.recovery.on_abandoned();
            }
        }
    }

    /// Dispatches a batch of events observed at `node`.
    pub fn on_events<'a>(
        &mut self,
        node: NodeId,
        events: impl IntoIterator<Item = &'a ProtocolEvent>,
    ) {
        for e in events {
            self.on_event(node, e);
        }
    }

    /// The delivery tracker.
    pub fn deliveries(&self) -> &DeliveryTracker {
        &self.deliveries
    }

    /// Drop-age statistics.
    pub fn drop_ages(&self) -> &DropAgeStats {
        &self.drop_ages
    }

    /// Admissions (system input) meter.
    pub fn admitted(&self) -> &RateMeter {
        &self.admitted
    }

    /// Deliveries meter (all nodes).
    pub fn delivered(&self) -> &RateMeter {
        &self.delivered
    }

    /// The allowed-rate step tracker.
    pub fn allowed(&self) -> &AllowedRateTracker {
        &self.allowed
    }

    /// Recovery-layer aggregates (zeros when recovery is disabled).
    pub fn recovery(&self) -> &RecoveryStats {
        &self.recovery
    }

    /// Records a membership transition (node up/down) at `at` — called by
    /// the scenario driver as it schedules churn.
    pub fn record_membership(&mut self, node: NodeId, at: TimeMs, up: bool) {
        self.timeline.record(node, at, up);
        if up {
            self.mark_restart(node, at);
        }
    }

    /// Marks a restart of `node` at `at` for catch-up measurement only:
    /// how a partial learns of a restart the driver recorded.
    pub fn mark_restart(&mut self, node: NodeId, at: TimeMs) {
        self.catch_up.mark_restart(node, at);
    }

    /// Marks a node absent from the start of the run (late joiner).
    pub fn mark_absent_from_start(&mut self, node: NodeId) {
        self.timeline.set_absent_from_start(node);
    }

    /// The recorded up/down timeline.
    pub fn membership_timeline(&self) -> &MembershipTimeline {
        &self.timeline
    }

    /// Post-rejoin catch-up measurements.
    pub fn catch_up(&self) -> &CatchUpTracker {
        &self.catch_up
    }

    /// Convenience: atomicity among correct nodes (threshold 0.95) over an
    /// admission-time window, with `horizon` as the per-message
    /// dissemination allowance.
    pub fn correct_atomicity_95(
        &self,
        window: Option<(TimeMs, TimeMs)>,
        horizon: DurationMs,
    ) -> AtomicityReport {
        self.deliveries
            .correct_atomicity(0.95, window, &self.timeline, horizon)
    }

    /// Convenience: recovery control messages per delivered message.
    pub fn recovery_overhead_ratio(&self) -> f64 {
        self.recovery.overhead_ratio(self.delivered.total())
    }

    /// Convenience: atomicity (threshold 0.95, the paper's criterion) over
    /// an admission-time window.
    pub fn atomicity_95(&self, window: Option<(TimeMs, TimeMs)>) -> AtomicityReport {
        self.deliveries.atomicity(0.95, window)
    }

    /// Convenience: system input rate (admissions/s) in a window.
    pub fn input_rate(&self, from: TimeMs, to: TimeMs) -> f64 {
        self.admitted.rate_in(from, to)
    }

    /// Convenience: per-receiver goodput (deliveries / node / s) in a
    /// window — the paper's Fig. 7(b) "output rate".
    pub fn output_rate(&self, from: TimeMs, to: TimeMs) -> f64 {
        self.delivered.rate_in(from, to) / self.n_nodes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agb_core::{Event, PurgeReason};
    use agb_types::{EventId, Payload};

    fn id(s: u64) -> EventId {
        EventId::new(NodeId::new(0), s)
    }

    fn collector() -> MetricsCollector {
        MetricsCollector::new(4, DurationMs::from_secs(1))
    }

    #[test]
    fn routes_admissions_and_deliveries() {
        let mut m = collector();
        m.on_event(
            NodeId::new(0),
            &ProtocolEvent::Admitted {
                id: id(0),
                at: TimeMs::ZERO,
            },
        );
        for n in 0..4 {
            m.on_event(
                NodeId::new(n),
                &ProtocolEvent::Delivered {
                    event: Event::with_age(id(0), 2, Payload::new()),
                    from: NodeId::new(0),
                    at: TimeMs::from_millis(500),
                },
            );
        }
        assert_eq!(m.admitted().total(), 1);
        assert_eq!(m.delivered().total(), 4);
        let report = m.atomicity_95(None);
        assert_eq!(report.messages, 1);
        assert_eq!(report.avg_receiver_fraction, 1.0);
        assert_eq!(report.atomic_fraction, 1.0);
        // Input 1 msg in 1 s; output 4 deliveries / 4 nodes / 1 s.
        assert_eq!(m.input_rate(TimeMs::ZERO, TimeMs::from_secs(1)), 1.0);
        assert_eq!(m.output_rate(TimeMs::ZERO, TimeMs::from_secs(1)), 1.0);
    }

    #[test]
    fn routes_drops_by_reason() {
        let mut m = collector();
        m.on_event(
            NodeId::new(1),
            &ProtocolEvent::Dropped {
                id: id(0),
                age: 3,
                reason: PurgeReason::Overflow,
                at: TimeMs::ZERO,
            },
        );
        m.on_event(
            NodeId::new(1),
            &ProtocolEvent::Dropped {
                id: id(1),
                age: 11,
                reason: PurgeReason::AgeCap,
                at: TimeMs::ZERO,
            },
        );
        // Age-cap removals are end of life, not congestion: only the
        // overflow drop counts.
        assert_eq!(m.drop_ages().mean_overflow_age(), Some(3.0));
        assert_eq!(m.drop_ages().overflow_count(), 1);
    }

    #[test]
    fn routes_rate_changes() {
        let mut m = collector();
        m.set_initial_rate(NodeId::new(2), 4.0);
        m.on_event(
            NodeId::new(2),
            &ProtocolEvent::RateChanged {
                old: 4.0,
                new: 3.0,
                reason: agb_core::RateChangeReason::Congestion,
                at: TimeMs::from_secs(5),
            },
        );
        assert_eq!(
            m.allowed().rate_at(NodeId::new(2), TimeMs::from_secs(1)),
            4.0
        );
        assert_eq!(
            m.allowed().rate_at(NodeId::new(2), TimeMs::from_secs(6)),
            3.0
        );
    }

    /// A seeded stream over six nodes, in time order: admissions,
    /// deliveries (node 2 re-delivers one id after its history forgot
    /// it), drops of both kinds, rate changes of tracked and untracked
    /// nodes, recovery traffic, and deliveries and repairs around node
    /// 4's restart.
    fn seeded_stream(seed: u64) -> Vec<(NodeId, ProtocolEvent)> {
        let mut x = seed;
        let mut next = move |bound: u64| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (x >> 33) % bound
        };
        let forgotten = EventId::new(NodeId::new(5), 77);
        let mut stream = Vec::new();
        for step in 0..400u64 {
            let at = TimeMs::from_millis(step * 25);
            let redelivery = match step {
                80 => Some(1),
                360 => Some(3),
                _ => None,
            };
            if let Some(age) = redelivery {
                let event = Event::with_age(forgotten, age, Payload::new());
                let from = NodeId::new(5);
                stream.push((NodeId::new(2), ProtocolEvent::Delivered { event, from, at }));
            }
            let node = NodeId::new(next(6) as u32);
            let id = EventId::new(NodeId::new(next(6) as u32), next(40));
            let event = match next(9) {
                0 => ProtocolEvent::Admitted { id, at },
                1..=3 => ProtocolEvent::Delivered {
                    event: Event::with_age(id, next(8) as u32, Payload::new()),
                    from: NodeId::new(0),
                    at,
                },
                4 => ProtocolEvent::Dropped {
                    id,
                    age: next(12) as u32,
                    reason: if next(2) == 0 {
                        PurgeReason::Overflow
                    } else {
                        PurgeReason::AgeCap
                    },
                    at,
                },
                5 => ProtocolEvent::RateChanged {
                    old: 4.0,
                    new: 1.0 + next(8) as f64 / 2.0,
                    reason: agb_core::RateChangeReason::Congestion,
                    at,
                },
                6 => ProtocolEvent::RecoveryRequested {
                    to: NodeId::new(1),
                    ids: next(4) as usize,
                    at,
                },
                7 => ProtocolEvent::RecoveryServed {
                    to: NodeId::new(1),
                    events: next(3) as usize,
                    missed: 0,
                    at,
                },
                _ => ProtocolEvent::Recovered {
                    id,
                    from: NodeId::new(1),
                    at,
                },
            };
            stream.push((node, event));
        }
        stream
    }

    #[test]
    fn partials_split_by_node_merge_to_the_single_collector() {
        let stream = seeded_stream(27);
        let restart = (NodeId::new(4), TimeMs::from_secs(3), TimeMs::from_secs(5));
        let driver = |c: &mut MetricsCollector| {
            c.set_initial_rate(NodeId::new(0), 4.0);
            c.set_initial_rate(NodeId::new(1), 4.0);
        };

        let mut single = MetricsCollector::new(6, DurationMs::from_secs(1));
        driver(&mut single);
        single.record_membership(restart.0, restart.1, false);
        single.record_membership(restart.0, restart.2, true);
        for (node, event) in &stream {
            single.on_event(*node, event);
        }

        // The cluster's order: partials from the driver's registrations,
        // then churn recorded on the driver and marked on every partial.
        let mut base = MetricsCollector::new(6, DurationMs::from_secs(1));
        driver(&mut base);
        let mut partials = vec![base.partial(); 3];
        base.record_membership(restart.0, restart.1, false);
        base.record_membership(restart.0, restart.2, true);
        for p in &mut partials {
            p.mark_restart(restart.0, restart.2);
        }
        for (node, event) in &stream {
            partials[node.index() % 3].on_event(*node, event);
        }

        for order in [[0, 1, 2], [2, 1, 0], [1, 2, 0]] {
            let mut merged = base.clone();
            for i in order {
                merged.merge(&partials[i]);
            }
            assert_eq!(merged, single, "merge order {order:?}");
        }
        let forgotten = single
            .deliveries()
            .record(EventId::new(NodeId::new(5), 77))
            .expect("tracked");
        assert_eq!((forgotten.receiver_count(), forgotten.age_sum), (1, 1));
        assert!(single.catch_up().records()[0].first_delivery.is_some());
        assert!(
            single
                .allowed()
                .rate_at(NodeId::new(0), TimeMs::from_secs(9))
                != 4.0
        );
    }

    #[test]
    fn batch_dispatch() {
        let mut m = collector();
        m.set_initial_rate(NodeId::new(0), 4.0);
        let events = vec![
            ProtocolEvent::Admitted {
                id: id(0),
                at: TimeMs::ZERO,
            },
            ProtocolEvent::RateChanged {
                old: 4.0,
                new: 3.0,
                reason: agb_core::RateChangeReason::Congestion,
                at: TimeMs::ZERO,
            },
        ];
        m.on_events(NodeId::new(0), &events);
        assert_eq!(m.admitted().total(), 1);
        assert_eq!(m.allowed().rate_at(NodeId::new(0), TimeMs::ZERO), 3.0);
        assert_eq!(m.n_nodes(), 4);
    }
}
