//! Executing a chaos schedule against the deterministic simulator.
//!
//! [`ChaosCluster`] compiles a [`ChaosSchedule`] onto an
//! [`agb_workload::GossipCluster`]: partitions, link faults and adversary
//! windows go into the cluster's network configuration before the build,
//! and the rest become timed engine actions — crash flags, protocol
//! rebuilds for restarts and joins, farewell actions for leaves. It probes
//! membership views as virtual time advances to measure how fast the
//! group re-converges around joins and restarts.

use std::cell::Ref;
use std::collections::BTreeMap;

use agb_metrics::{AtomicityReport, MetricsCollector};
use agb_sim::NetStats;
use agb_types::{DurationMs, NodeId, TimeMs};
use agb_workload::{ClusterConfig, GossipCluster, MembershipKind};

use crate::schedule::{ChaosEvent, ChaosSchedule};

/// One membership-convergence measurement: a node (re-)entered at `from`;
/// `converged_at` is the first probe at which at least
/// [`ChaosCluster::CONVERGENCE_QUORUM`] of the other live nodes held it in
/// their views.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvergenceRecord {
    /// The joining/restarting node.
    pub node: NodeId,
    /// When it entered.
    pub from: TimeMs,
    /// First probe at which the quorum was reached (None: horizon hit
    /// first).
    pub converged_at: Option<TimeMs>,
}

impl ConvergenceRecord {
    /// Entry-to-quorum latency.
    pub fn latency(&self) -> Option<DurationMs> {
        self.converged_at.map(|t| t.since(self.from))
    }
}

/// Headline numbers of one chaos run, with a stable digest for
/// determinism assertions (CI replays the same seed and compares).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosSummary {
    /// Atomicity against the nominal group (crashed nodes count as
    /// misses).
    pub raw: AtomicityReport,
    /// Atomicity among *correct* nodes only.
    pub correct: AtomicityReport,
    /// Total deliveries.
    pub delivered: u64,
    /// Events repaired by the recovery layer.
    pub recovered: u64,
    /// Recovery control messages per delivery.
    pub overhead: f64,
    /// Mean restart→first-delivery catch-up latency (ms).
    pub mean_catch_up_ms: Option<f64>,
    /// Restarts that never delivered again before the horizon.
    pub stragglers: usize,
    /// Mean join/restart→view-quorum convergence latency (ms).
    pub mean_convergence_ms: Option<f64>,
    /// Joins/restarts that never reached the view quorum.
    pub unconverged: usize,
    /// The engine's order-sensitive event checksum.
    pub checksum: u64,
}

impl ChaosSummary {
    /// A stable 64-bit digest of the summary (FNV-1a over a canonical
    /// rendering): two runs of the same seeded scenario are identical iff
    /// their digests agree.
    pub fn digest(&self) -> u64 {
        let canonical = format!(
            "{} {:.6} {:.6} {} {:.6} {:.6} {} {} {} {:.1} {:.1} {} {}",
            self.raw.messages,
            self.raw.avg_receiver_fraction,
            self.raw.atomic_fraction,
            self.correct.messages,
            self.correct.avg_receiver_fraction,
            self.correct.atomic_fraction,
            self.delivered,
            self.recovered,
            self.stragglers,
            self.mean_catch_up_ms.unwrap_or(-1.0),
            self.mean_convergence_ms.unwrap_or(-1.0),
            self.unconverged,
            self.checksum,
        );
        agb_types::fnv1a(canonical.as_bytes())
    }
}

/// Virtual time between membership probes.
const PROBE_EVERY: DurationMs = DurationMs::from_secs(1);

struct Watch {
    node: NodeId,
    from: TimeMs,
}

/// A [`GossipCluster`] under a compiled chaos schedule.
///
/// Build it from the cluster configuration and the schedule, then drive
/// virtual time with [`run_until`](Self::run_until); membership probes run
/// automatically every second of virtual time.
pub struct ChaosCluster {
    cluster: GossipCluster,
    watches: Vec<Watch>,
    convergence: Vec<ConvergenceRecord>,
    next_probe: TimeMs,
}

impl ChaosCluster {
    /// Fraction of other live nodes that must hold a (re-)joined node in
    /// their membership views for it to count as converged.
    pub const CONVERGENCE_QUORUM: f64 = 0.5;

    /// Builds the cluster and compiles the schedule onto it.
    ///
    /// The schedule's partitions, link faults and adversary windows are
    /// appended to [`ClusterConfig::network`]'s lists, stably sorted by
    /// `from`: that order fixes the order of the loss and adversary draws
    /// of overlapping windows. Nodes that `Join` during the schedule are
    /// automatically kept out of the group at start (added to
    /// [`ClusterConfig::absent_at_start`]).
    ///
    /// # Panics
    ///
    /// Panics if the schedule fails validation against the configured
    /// group size.
    pub fn new(mut config: ClusterConfig, schedule: &ChaosSchedule) -> Self {
        schedule
            .validate(config.n_nodes)
            .unwrap_or_else(|e| panic!("invalid chaos schedule: {e}"));
        for j in schedule.joiners() {
            if !config.absent_at_start.contains(&j) {
                config.absent_at_start.push(j);
            }
        }
        let mut by_start: Vec<&ChaosEvent> = schedule.events().iter().collect();
        by_start.sort_by_key(|e| e.at());
        let network = &mut config.network;
        for event in by_start {
            match event {
                ChaosEvent::Partition(p) => network.partitions.push(p.clone()),
                ChaosEvent::LinkFault(f) => network.link_faults.push(f.clone()),
                ChaosEvent::Adversary(w) => network.adversaries.push(w.clone()),
                _ => {}
            }
        }
        let watch_views = matches!(config.membership, MembershipKind::Partial(_));
        let mut cluster = GossipCluster::build(config);
        let mut epochs: BTreeMap<NodeId, u64> = BTreeMap::new();
        let mut watches = Vec::new();
        for event in schedule.events() {
            match event.clone() {
                ChaosEvent::Crash { at, node } => cluster.schedule_crash(at, node),
                ChaosEvent::Restart { at, node } => {
                    let epoch = epochs.entry(node).or_insert(0);
                    *epoch += 1;
                    cluster.schedule_restart(at, node, *epoch);
                    if watch_views {
                        watches.push(Watch { node, from: at });
                    }
                }
                ChaosEvent::Join { at, node, contacts } => {
                    let epoch = epochs.entry(node).or_insert(0);
                    *epoch += 1;
                    cluster.schedule_join(at, node, *epoch, contacts);
                    if watch_views {
                        watches.push(Watch { node, from: at });
                    }
                }
                ChaosEvent::Leave { at, node } => cluster.schedule_leave(at, node),
                ChaosEvent::Evict { at, at_node, dead } => {
                    cluster.schedule_evict(at, at_node, dead)
                }
                ChaosEvent::Burst { at, node, count } => cluster.schedule_burst(at, node, count),
                // Already in the network configuration.
                ChaosEvent::Partition(_) | ChaosEvent::LinkFault(_) | ChaosEvent::Adversary(_) => {}
            }
        }
        ChaosCluster {
            cluster,
            watches,
            convergence: Vec::new(),
            next_probe: TimeMs::ZERO,
        }
    }

    /// Runs until virtual time `t`, probing membership convergence along
    /// the way.
    pub fn run_until(&mut self, t: TimeMs) {
        while self.cluster.now() < t {
            let step_to = (self.next_probe.max(self.cluster.now()) + PROBE_EVERY).min(t);
            self.cluster.run_until(step_to);
            self.next_probe = step_to;
            self.probe();
        }
    }

    fn probe(&mut self) {
        if self.watches.is_empty() {
            return;
        }
        let now = self.cluster.now();
        let n = self.cluster.n_nodes();
        // Snapshot every live node's view once per probe; each watch then
        // only scans the snapshots.
        let views: Vec<Option<Vec<NodeId>>> = (0..n as u32)
            .map(|i| {
                let id = NodeId::new(i);
                if self.cluster.is_down(id) {
                    None
                } else {
                    Some(self.cluster.node(id).protocol().membership_view())
                }
            })
            .collect();
        let mut resolved = Vec::new();
        for (idx, watch) in self.watches.iter().enumerate() {
            if now < watch.from {
                continue;
            }
            let mut live = 0usize;
            let mut holding = 0usize;
            for (i, view) in views.iter().enumerate() {
                if i == watch.node.index() {
                    continue;
                }
                let Some(view) = view else { continue };
                live += 1;
                if view.contains(&watch.node) {
                    holding += 1;
                }
            }
            if live > 0 && holding as f64 / live as f64 >= Self::CONVERGENCE_QUORUM {
                resolved.push(idx);
                self.convergence.push(ConvergenceRecord {
                    node: watch.node,
                    from: watch.from,
                    converged_at: Some(now),
                });
            }
        }
        for idx in resolved.into_iter().rev() {
            self.watches.remove(idx);
        }
    }

    /// Convergence measurements so far; watches that never converged are
    /// included with `converged_at: None`.
    pub fn convergence(&self) -> Vec<ConvergenceRecord> {
        let mut out = self.convergence.clone();
        for w in &self.watches {
            out.push(ConvergenceRecord {
                node: w.node,
                from: w.from,
                converged_at: None,
            });
        }
        out.sort_by_key(|r| (r.from, r.node.as_u32()));
        out
    }

    /// The wrapped cluster.
    pub fn cluster(&self) -> &GossipCluster {
        &self.cluster
    }

    /// Mutable access to the wrapped cluster (extra scenario hooks).
    pub fn cluster_mut(&mut self) -> &mut GossipCluster {
        &mut self.cluster
    }

    /// Read access to the collected metrics.
    pub fn metrics(&self) -> Ref<'_, MetricsCollector> {
        self.cluster.metrics()
    }

    /// Snapshots the dissemination trace as a summary labeled `label`,
    /// if the cluster was built with
    /// [`ClusterConfig::trace`](agb_workload::ClusterConfig) enabled.
    /// Scheduled chaos (crashes, restarts, evictions, leaves) shows up
    /// as crash/restart/view-change records.
    pub fn trace_summary(&self, label: &str) -> Option<agb_trace::TraceSummary> {
        self.cluster.trace_summary(label)
    }

    /// Engine statistics (including the determinism checksum).
    pub fn sim_stats(&self) -> NetStats {
        self.cluster.sim_stats()
    }

    /// Current virtual time.
    pub fn now(&self) -> TimeMs {
        self.cluster.now()
    }

    /// Builds the run summary over an admission-time measurement window,
    /// allowing each message `horizon` to disseminate when deciding which
    /// nodes were *correct* for it.
    pub fn summary(&self, window: (TimeMs, TimeMs), horizon: DurationMs) -> ChaosSummary {
        let m = self.cluster.metrics();
        let raw = m.deliveries().atomicity(0.95, Some(window));
        let correct = m.correct_atomicity_95(Some(window), horizon);
        let convergence = self.convergence();
        let latencies: Vec<u64> = convergence
            .iter()
            .filter_map(|r| r.latency().map(|d| d.as_millis()))
            .collect();
        let mean_convergence_ms = if latencies.is_empty() {
            None
        } else {
            Some(latencies.iter().sum::<u64>() as f64 / latencies.len() as f64)
        };
        ChaosSummary {
            raw,
            correct,
            delivered: m.delivered().total(),
            recovered: m.recovery().recovered(),
            overhead: m.recovery_overhead_ratio(),
            mean_catch_up_ms: m.catch_up().mean_delivery_latency_ms(),
            stragglers: m.catch_up().stragglers(),
            mean_convergence_ms,
            unconverged: convergence
                .iter()
                .filter(|r| r.converged_at.is_none())
                .count(),
            checksum: self.cluster.sim_stats().checksum,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agb_membership::PartialViewConfig;
    use agb_types::TimeMs;
    use agb_workload::Algorithm;

    fn base_config(seed: u64) -> ClusterConfig {
        let mut c = ClusterConfig::new(20, seed);
        c.algorithm = Algorithm::Lpbcast;
        c.membership = MembershipKind::Partial(PartialViewConfig::default());
        c.n_senders = 2;
        c.offered_rate = 4.0;
        c
    }

    #[test]
    fn crash_restart_schedule_runs_and_summarizes() {
        let mut s = ChaosSchedule::new();
        s.crash(TimeMs::from_secs(5), NodeId::new(7))
            .restart(TimeMs::from_secs(12), NodeId::new(7));
        let mut chaos = ChaosCluster::new(base_config(3), &s);
        chaos.run_until(TimeMs::from_secs(40));
        let summary = chaos.summary(
            (TimeMs::from_secs(2), TimeMs::from_secs(30)),
            DurationMs::from_secs(10),
        );
        assert!(summary.raw.messages > 0);
        assert!(summary.correct.avg_receiver_fraction > 0.8);
        assert_ne!(summary.digest(), 0);
    }

    #[test]
    fn joiner_converges_into_views() {
        let mut s = ChaosSchedule::new();
        s.join(
            TimeMs::from_secs(8),
            NodeId::new(19),
            vec![NodeId::new(2), NodeId::new(3)],
        );
        let mut chaos = ChaosCluster::new(base_config(5), &s);
        chaos.run_until(TimeMs::from_secs(60));
        let conv = chaos.convergence();
        assert_eq!(conv.len(), 1);
        assert_eq!(conv[0].node, NodeId::new(19));
        assert!(
            conv[0].converged_at.is_some(),
            "joiner never reached the view quorum"
        );
    }

    #[test]
    fn same_seed_same_digest_different_seed_differs() {
        let run = |seed: u64| {
            let mut s = ChaosSchedule::new();
            s.crash(TimeMs::from_secs(4), NodeId::new(9))
                .restart(TimeMs::from_secs(10), NodeId::new(9))
                .link_fault(
                    TimeMs::from_secs(6),
                    TimeMs::from_secs(12),
                    vec![NodeId::new(4)],
                    DurationMs::from_millis(60),
                    0.3,
                )
                .burst(TimeMs::from_secs(8), NodeId::new(0), 15);
            let mut chaos = ChaosCluster::new(base_config(seed), &s);
            chaos.run_until(TimeMs::from_secs(30));
            chaos
                .summary(
                    (TimeMs::from_secs(2), TimeMs::from_secs(20)),
                    DurationMs::from_secs(8),
                )
                .digest()
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }

    #[test]
    fn scheduled_chaos_lands_in_the_trace() {
        let mut s = ChaosSchedule::new();
        s.crash(TimeMs::from_secs(5), NodeId::new(7))
            .restart(TimeMs::from_secs(12), NodeId::new(7))
            .evict(TimeMs::from_secs(14), NodeId::new(2), NodeId::new(7));
        let mut config = base_config(3);
        config.trace = agb_trace::TraceConfig::enabled();
        let mut chaos = ChaosCluster::new(config, &s);
        chaos.run_until(TimeMs::from_secs(30));
        let summary = chaos.trace_summary("chaos").expect("tracing enabled");
        assert_eq!(summary.counts.crashes, 1);
        assert_eq!(summary.counts.restarts, 1);
        assert!(summary.counts.view_changes >= 1);
        assert!(summary.counts.delivers > 0);
        // Untraced cluster returns no summary.
        let plain = ChaosCluster::new(base_config(3), &s);
        assert!(plain.trace_summary("chaos").is_none());
    }

    #[test]
    fn adversary_episode_corrupts_inside_window_only() {
        use agb_failure::AdversaryConfig;

        let run = |seed: u64| {
            let mut s = ChaosSchedule::new();
            s.adversary(
                TimeMs::from_secs(5),
                TimeMs::from_secs(15),
                vec![],
                AdversaryConfig::corrupting(0.3),
            );
            let mut chaos = ChaosCluster::new(base_config(seed), &s);
            chaos.run_until(TimeMs::from_secs(30));
            (
                chaos.cluster().sim_stats().corrupted,
                chaos
                    .summary(
                        (TimeMs::from_secs(2), TimeMs::from_secs(25)),
                        DurationMs::from_secs(8),
                    )
                    .digest(),
            )
        };
        let (corrupted, digest) = run(13);
        assert!(corrupted > 0, "the adversary destroyed frames");
        // Deterministic under the same seed.
        assert_eq!(run(13), (corrupted, digest));
        // Dissemination survives: the window ends, gossip redundancy and
        // recovery repair the holes.
        let mut s = ChaosSchedule::new();
        s.adversary(
            TimeMs::from_secs(5),
            TimeMs::from_secs(15),
            vec![],
            AdversaryConfig::corrupting(0.3),
        );
        let mut chaos = ChaosCluster::new(base_config(13), &s);
        chaos.run_until(TimeMs::from_secs(45));
        let summary = chaos.summary(
            (TimeMs::from_secs(18), TimeMs::from_secs(35)),
            DurationMs::from_secs(10),
        );
        assert!(
            summary.raw.avg_receiver_fraction > 0.9,
            "post-window fraction {}",
            summary.raw.avg_receiver_fraction
        );
    }

    #[test]
    fn adversary_validation_rejects_bad_windows() {
        use agb_failure::AdversaryConfig;

        let mut s = ChaosSchedule::new();
        s.adversary(
            TimeMs::from_secs(5),
            TimeMs::from_secs(5),
            vec![],
            AdversaryConfig::corrupting(0.3),
        );
        assert!(s.validate(4).is_err(), "inverted window");

        let mut s = ChaosSchedule::new();
        s.adversary(
            TimeMs::from_secs(5),
            TimeMs::from_secs(10),
            vec![],
            AdversaryConfig::default(),
        );
        assert!(s.validate(4).is_err(), "inert adversary");

        let mut s = ChaosSchedule::new();
        s.adversary(
            TimeMs::from_secs(5),
            TimeMs::from_secs(10),
            vec![NodeId::new(9)],
            AdversaryConfig::corrupting(0.3),
        );
        assert!(s.validate(4).is_err(), "out-of-range node");
        assert!(s.validate(10).is_ok());
    }

    #[test]
    fn chaos_windows_are_network_windows() {
        use agb_failure::AdversaryConfig;
        use agb_sim::{AdversaryWindow, LinkFault, Partition};

        let secs = TimeMs::from_secs;
        // Two overlapping faults on node 4: which one draws first decides
        // which loss threshold a draw meets.
        let early = LinkFault {
            nodes: vec![NodeId::new(4)],
            extra_latency: DurationMs::ZERO,
            extra_loss: 0.1,
            from: secs(4),
            until: secs(14),
        };
        let late = LinkFault {
            nodes: vec![NodeId::new(4), NodeId::new(5)],
            extra_latency: DurationMs::from_millis(20),
            extra_loss: 0.6,
            from: secs(8),
            until: secs(16),
        };
        let partition = Partition {
            side_a: (10..15).map(NodeId::new).collect(),
            from: secs(6),
            until: secs(12),
        };
        let adversary = AdversaryWindow {
            nodes: Vec::new(),
            faults: AdversaryConfig::corrupting(0.2),
            from: secs(5),
            until: secs(10),
        };
        let mut scripted = ChaosSchedule::new();
        scripted
            .push(ChaosEvent::LinkFault(late.clone()))
            .push(ChaosEvent::Partition(partition.clone()))
            .push(ChaosEvent::LinkFault(early.clone()))
            .push(ChaosEvent::Adversary(adversary.clone()));
        let digest = |config: ClusterConfig, schedule: &ChaosSchedule| {
            let mut chaos = ChaosCluster::new(config, schedule);
            chaos.run_until(secs(30));
            chaos
                .summary((secs(2), secs(20)), DurationMs::from_secs(8))
                .digest()
        };
        let mut configured = base_config(17);
        configured.network.link_faults = vec![early, late];
        configured.network.partitions = vec![partition];
        configured.network.adversaries = vec![adversary];
        assert_eq!(
            digest(base_config(17), &scripted),
            digest(configured, &ChaosSchedule::new())
        );
    }

    #[test]
    fn partition_blocks_and_heals() {
        let mut s = ChaosSchedule::new();
        s.partition(
            TimeMs::from_secs(5),
            TimeMs::from_secs(15),
            (10..20).map(NodeId::new).collect(),
        );
        let mut chaos = ChaosCluster::new(base_config(7), &s);
        chaos.run_until(TimeMs::from_secs(45));
        // Drops happened during the partition, but after healing the
        // overall dissemination recovers.
        assert!(chaos.sim_stats().drops > 0);
        let summary = chaos.summary(
            (TimeMs::from_secs(20), TimeMs::from_secs(35)),
            DurationMs::from_secs(10),
        );
        assert!(
            summary.raw.avg_receiver_fraction > 0.9,
            "post-heal fraction {}",
            summary.raw.avg_receiver_fraction
        );
    }
}
