//! The declarative chaos vocabulary: one [`ChaosSchedule`] is a list of
//! timed [`ChaosEvent`]s, validated against a group size and executed on
//! the simulator by [`crate::ChaosCluster`].

use agb_failure::AdversaryConfig;
use agb_sim::{AdversaryWindow, LinkFault, Partition};
use agb_types::{DurationMs, NodeId, TimeMs};

/// One scripted fault or lifecycle action.
#[derive(Debug, Clone, PartialEq)]
pub enum ChaosEvent {
    /// Crash-stop: the node goes silent, state kept.
    Crash {
        /// When.
        at: TimeMs,
        /// Which node.
        node: NodeId,
    },
    /// Restart with state loss: fresh protocol state, re-bootstrapped
    /// view, fresh randomness.
    Restart {
        /// When.
        at: TimeMs,
        /// Which node.
        node: NodeId,
    },
    /// A protocol-level join: the node spawns knowing only `contacts` and
    /// announces itself through subscription gossip.
    Join {
        /// When.
        at: TimeMs,
        /// The joining node (must be absent until now).
        node: NodeId,
        /// Its bootstrap contacts.
        contacts: Vec<NodeId>,
    },
    /// Graceful leave: farewell messages (buffer flush + unsubscription),
    /// then silence.
    Leave {
        /// When.
        at: TimeMs,
        /// The departing node.
        node: NodeId,
    },
    /// A failure-detector verdict: `at_node` evicts `dead` from its
    /// membership view and (with partial views) propagates the removal.
    Evict {
        /// When.
        at: TimeMs,
        /// The node doing the evicting.
        at_node: NodeId,
        /// The suspected-dead peer.
        dead: NodeId,
    },
    /// A clean network partition isolating `side_a` during
    /// `[from, until)`.
    Partition(Partition),
    /// A link degradation episode: every message touching `nodes` suffers
    /// `extra_latency` and an extra `extra_loss` drop probability during
    /// `[from, until)`.
    LinkFault(LinkFault),
    /// A sender burst storm: `count` messages offered at once at `node`.
    Burst {
        /// When.
        at: TimeMs,
        /// The bursting node.
        node: NodeId,
        /// Messages offered in the burst.
        count: usize,
    },
    /// A byte-level adversary episode: during `[from, until)` every
    /// message touching `nodes` (empty: every link) is subject to the
    /// fault rates in `faults` — corruption and truncation destroy the
    /// frame (counted and dropped at the receiver's checksum), duplication
    /// delivers it twice, reordering delays it past later traffic.
    Adversary(AdversaryWindow),
}

impl ChaosEvent {
    /// The virtual time at which the event begins to act.
    pub fn at(&self) -> TimeMs {
        match self {
            ChaosEvent::Crash { at, .. }
            | ChaosEvent::Restart { at, .. }
            | ChaosEvent::Join { at, .. }
            | ChaosEvent::Leave { at, .. }
            | ChaosEvent::Evict { at, .. }
            | ChaosEvent::Burst { at, .. } => *at,
            ChaosEvent::Partition(p) => p.from,
            ChaosEvent::LinkFault(f) => f.from,
            ChaosEvent::Adversary(w) => w.from,
        }
    }

    /// The primary node the event targets (None for network-wide events).
    pub fn node(&self) -> Option<NodeId> {
        match self {
            ChaosEvent::Crash { node, .. }
            | ChaosEvent::Restart { node, .. }
            | ChaosEvent::Join { node, .. }
            | ChaosEvent::Leave { node, .. }
            | ChaosEvent::Burst { node, .. } => Some(*node),
            ChaosEvent::Evict { at_node, .. } => Some(*at_node),
            ChaosEvent::Partition(_) | ChaosEvent::LinkFault(_) | ChaosEvent::Adversary(_) => None,
        }
    }
}

/// An ordered collection of chaos events with a fluent builder.
///
/// # Example
///
/// ```
/// use agb_chaos::ChaosSchedule;
/// use agb_types::{DurationMs, NodeId, TimeMs};
///
/// let mut s = ChaosSchedule::new();
/// s.crash(TimeMs::from_secs(10), NodeId::new(3))
///     .restart(TimeMs::from_secs(25), NodeId::new(3))
///     .link_fault(
///         TimeMs::from_secs(30),
///         TimeMs::from_secs(40),
///         vec![NodeId::new(1)],
///         DurationMs::from_millis(80),
///         0.3,
///     );
/// assert_eq!(s.len(), 3);
/// assert!(s.validate(8).is_ok());
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChaosSchedule {
    events: Vec<ChaosEvent>,
}

impl ChaosSchedule {
    /// An empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an already-built event.
    pub fn push(&mut self, event: ChaosEvent) -> &mut Self {
        self.events.push(event);
        self
    }

    /// Schedules a crash-stop.
    pub fn crash(&mut self, at: TimeMs, node: NodeId) -> &mut Self {
        self.push(ChaosEvent::Crash { at, node })
    }

    /// Schedules a restart with state loss.
    pub fn restart(&mut self, at: TimeMs, node: NodeId) -> &mut Self {
        self.push(ChaosEvent::Restart { at, node })
    }

    /// Schedules a protocol-level join through the given contacts.
    pub fn join(&mut self, at: TimeMs, node: NodeId, contacts: Vec<NodeId>) -> &mut Self {
        self.push(ChaosEvent::Join { at, node, contacts })
    }

    /// Schedules a graceful leave.
    pub fn leave(&mut self, at: TimeMs, node: NodeId) -> &mut Self {
        self.push(ChaosEvent::Leave { at, node })
    }

    /// Schedules a failure-detector eviction of `dead` at `at_node`.
    pub fn evict(&mut self, at: TimeMs, at_node: NodeId, dead: NodeId) -> &mut Self {
        self.push(ChaosEvent::Evict { at, at_node, dead })
    }

    /// Schedules a partition of `side_a` during `[from, until)`.
    pub fn partition(&mut self, from: TimeMs, until: TimeMs, side_a: Vec<NodeId>) -> &mut Self {
        self.push(ChaosEvent::Partition(Partition {
            side_a,
            from,
            until,
        }))
    }

    /// Schedules a link-degradation episode.
    pub fn link_fault(
        &mut self,
        from: TimeMs,
        until: TimeMs,
        nodes: Vec<NodeId>,
        extra_latency: DurationMs,
        extra_loss: f64,
    ) -> &mut Self {
        self.push(ChaosEvent::LinkFault(LinkFault {
            nodes,
            extra_latency,
            extra_loss,
            from,
            until,
        }))
    }

    /// Schedules a sender burst storm.
    pub fn burst(&mut self, at: TimeMs, node: NodeId, count: usize) -> &mut Self {
        self.push(ChaosEvent::Burst { at, node, count })
    }

    /// Schedules a byte-level adversary episode over `nodes` (empty: all
    /// links) during `[from, until)`.
    pub fn adversary(
        &mut self,
        from: TimeMs,
        until: TimeMs,
        nodes: Vec<NodeId>,
        faults: AdversaryConfig,
    ) -> &mut Self {
        self.push(ChaosEvent::Adversary(AdversaryWindow {
            nodes,
            faults,
            from,
            until,
        }))
    }

    /// Appends every event of `other`.
    pub fn merge(&mut self, other: &ChaosSchedule) -> &mut Self {
        self.events.extend(other.events.iter().cloned());
        self
    }

    /// The events in insertion order.
    pub fn events(&self) -> &[ChaosEvent] {
        &self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The nodes that *join* during the run — the executor keeps them out
    /// of the group at start.
    pub fn joiners(&self) -> Vec<NodeId> {
        let mut out = Vec::new();
        for e in &self.events {
            if let ChaosEvent::Join { node, .. } = e {
                if !out.contains(node) {
                    out.push(*node);
                }
            }
        }
        out
    }

    /// Validates the schedule against a group of `n_nodes`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found: out-of-range
    /// nodes, inverted time windows, loss probabilities outside `[0, 1]`,
    /// empty partition sides, or zero-sized bursts.
    pub fn validate(&self, n_nodes: usize) -> Result<(), String> {
        let check_node = |node: NodeId| -> Result<(), String> {
            if node.index() >= n_nodes {
                Err(format!("node {node} out of range for group of {n_nodes}"))
            } else {
                Ok(())
            }
        };
        for e in &self.events {
            if let Some(node) = e.node() {
                check_node(node)?;
            }
            match e {
                ChaosEvent::Join { contacts, .. } => {
                    if contacts.is_empty() {
                        return Err("join without contacts can never enter the group".into());
                    }
                    for &c in contacts {
                        check_node(c)?;
                    }
                }
                ChaosEvent::Evict { dead, .. } => check_node(*dead)?,
                ChaosEvent::Partition(Partition {
                    side_a,
                    from,
                    until,
                }) => {
                    if until <= from {
                        return Err(format!("partition window inverted: {from} >= {until}"));
                    }
                    if side_a.is_empty() || side_a.len() >= n_nodes {
                        return Err("partition side must be a proper non-empty subset".into());
                    }
                    for &n in side_a {
                        check_node(n)?;
                    }
                }
                ChaosEvent::LinkFault(LinkFault {
                    nodes,
                    extra_loss,
                    from,
                    until,
                    ..
                }) => {
                    if until <= from {
                        return Err(format!("link fault window inverted: {from} >= {until}"));
                    }
                    if nodes.is_empty() {
                        return Err("link fault over no nodes".into());
                    }
                    if !(0.0..=1.0).contains(extra_loss) {
                        return Err(format!("extra_loss {extra_loss} outside [0, 1]"));
                    }
                    for &n in nodes {
                        check_node(n)?;
                    }
                }
                ChaosEvent::Burst { count, .. } if *count == 0 => {
                    return Err("zero-sized burst".into());
                }
                ChaosEvent::Adversary(AdversaryWindow {
                    nodes,
                    faults,
                    from,
                    until,
                }) => {
                    if until <= from {
                        return Err(format!("adversary window inverted: {from} >= {until}"));
                    }
                    faults.validate()?;
                    if faults.is_inert() {
                        return Err("adversary with all-zero fault rates".into());
                    }
                    for &n in nodes {
                        check_node(n)?;
                    }
                }
                _ => {}
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_collects_events_in_order() {
        let mut s = ChaosSchedule::new();
        s.crash(TimeMs::from_secs(1), NodeId::new(0))
            .restart(TimeMs::from_secs(2), NodeId::new(0))
            .burst(TimeMs::from_secs(3), NodeId::new(1), 5);
        assert_eq!(s.len(), 3);
        assert_eq!(s.events()[0].at(), TimeMs::from_secs(1));
        assert_eq!(s.events()[2].node(), Some(NodeId::new(1)));
        assert!(!s.is_empty());
    }

    #[test]
    fn joiners_are_deduplicated() {
        let mut s = ChaosSchedule::new();
        s.join(TimeMs::from_secs(1), NodeId::new(5), vec![NodeId::new(0)]);
        s.leave(TimeMs::from_secs(5), NodeId::new(5));
        s.join(TimeMs::from_secs(9), NodeId::new(5), vec![NodeId::new(1)]);
        assert_eq!(s.joiners(), vec![NodeId::new(5)]);
    }

    #[test]
    fn validation_catches_problems() {
        let mut s = ChaosSchedule::new();
        s.crash(TimeMs::from_secs(1), NodeId::new(9));
        assert!(s.validate(4).is_err());
        assert!(s.validate(10).is_ok());

        let mut s = ChaosSchedule::new();
        s.partition(
            TimeMs::from_secs(5),
            TimeMs::from_secs(5),
            vec![NodeId::new(0)],
        );
        assert!(s.validate(4).is_err());

        let mut s = ChaosSchedule::new();
        s.link_fault(
            TimeMs::from_secs(1),
            TimeMs::from_secs(2),
            vec![NodeId::new(0)],
            DurationMs::ZERO,
            1.5,
        );
        assert!(s.validate(4).is_err());

        let mut s = ChaosSchedule::new();
        s.join(TimeMs::from_secs(1), NodeId::new(1), vec![]);
        assert!(s.validate(4).is_err());

        let mut s = ChaosSchedule::new();
        s.burst(TimeMs::from_secs(1), NodeId::new(1), 0);
        assert!(s.validate(4).is_err());
    }

    #[test]
    fn merge_appends() {
        let mut a = ChaosSchedule::new();
        a.crash(TimeMs::from_secs(1), NodeId::new(0));
        let mut b = ChaosSchedule::new();
        b.restart(TimeMs::from_secs(2), NodeId::new(0));
        a.merge(&b);
        assert_eq!(a.len(), 2);
    }
}
