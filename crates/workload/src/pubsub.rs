//! The motivating application of the paper's introduction: topic-based
//! publish/subscribe over multiple broadcast groups.
//!
//! Each information type (topic) maps to one broadcast group. A node may
//! subscribe to several topics and must split its fixed buffer budget
//! between them; subscribing to a new topic *shrinks* the per-topic buffers
//! of that node — exactly the dynamic, heterogeneous resource situation the
//! adaptive mechanism was designed for. [`PubSubSystem`] models this by
//! running one [`GossipCluster`] per topic and translating subscription
//! changes into runtime buffer resizes (and crash/recover for the joined /
//! left group).

use std::collections::{BTreeMap, BTreeSet};

use agb_core::{AdaptationConfig, GossipConfig};
use agb_metrics::MetricsCollector;
use agb_types::{DurationMs, NodeId, TimeMs, TopicId};

use crate::cluster::{ClusterConfig, GossipCluster};
use crate::Algorithm;

/// One topic and its subscriber set (global node ids).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopicGroup {
    /// The topic.
    pub topic: TopicId,
    /// Subscribed nodes, by global id.
    pub members: Vec<NodeId>,
}

/// Configuration of a multi-topic publish/subscribe deployment.
#[derive(Debug, Clone)]
pub struct PubSubConfig {
    /// Experiment seed.
    pub seed: u64,
    /// Per-node total buffer budget (events), split across subscriptions.
    pub total_buffer: usize,
    /// The topic groups.
    pub topics: Vec<TopicGroup>,
    /// Protocol run inside every group.
    pub algorithm: Algorithm,
    /// Base gossip parameters (per-group `max_events` is derived from the
    /// budget split, overriding `gossip.max_events`).
    pub gossip: GossipConfig,
    /// Adaptation parameters for [`Algorithm::Adaptive`].
    pub adaptation: AdaptationConfig,
    /// The first `publishers_per_topic` members of each group publish.
    pub publishers_per_topic: usize,
    /// Aggregate offered load per topic, msgs/s.
    pub offered_rate_per_topic: f64,
    /// Metrics bin width.
    pub metrics_bin: DurationMs,
}

impl PubSubConfig {
    /// A minimal config over the given topics.
    pub fn new(seed: u64, total_buffer: usize, topics: Vec<TopicGroup>) -> Self {
        PubSubConfig {
            seed,
            total_buffer,
            topics,
            algorithm: Algorithm::Adaptive,
            gossip: GossipConfig::default(),
            adaptation: AdaptationConfig::default(),
            publishers_per_topic: 1,
            offered_rate_per_topic: 1.0,
            metrics_bin: DurationMs::from_secs(1),
        }
    }
}

struct TopicCluster {
    topic: TopicId,
    members: Vec<NodeId>,
    cluster: GossipCluster,
}

impl TopicCluster {
    fn local(&self, global: NodeId) -> Option<NodeId> {
        self.members
            .iter()
            .position(|&m| m == global)
            .map(|i| NodeId::new(i as u32))
    }
}

/// A running multi-topic deployment.
pub struct PubSubSystem {
    clusters: Vec<TopicCluster>,
    subscriptions: BTreeMap<NodeId, BTreeSet<TopicId>>,
    total_buffer: usize,
}

impl PubSubSystem {
    /// Builds one gossip cluster per topic, with per-node buffer capacities
    /// derived from the subscription split.
    ///
    /// # Panics
    ///
    /// Panics if a topic has no members or the buffer budget is zero.
    pub fn build(config: PubSubConfig) -> Self {
        assert!(config.total_buffer > 0, "buffer budget must be positive");
        let mut subscriptions: BTreeMap<NodeId, BTreeSet<TopicId>> = BTreeMap::new();
        for group in &config.topics {
            assert!(
                !group.members.is_empty(),
                "topic {} has no members",
                group.topic
            );
            for &m in &group.members {
                subscriptions.entry(m).or_default().insert(group.topic);
            }
        }

        let mut clusters = Vec::with_capacity(config.topics.len());
        for (ti, group) in config.topics.iter().enumerate() {
            let mut cc = ClusterConfig::new(group.members.len(), config.seed ^ (ti as u64) << 32);
            cc.algorithm = config.algorithm;
            cc.gossip = config.gossip.clone();
            cc.adaptation = config.adaptation.clone();
            cc.n_senders = config.publishers_per_topic.min(group.members.len());
            cc.offered_rate = config.offered_rate_per_topic;
            cc.metrics_bin = config.metrics_bin;
            cc.buffer_overrides = group
                .members
                .iter()
                .enumerate()
                .map(|(local, global)| {
                    let k = subscriptions[global].len().max(1);
                    (NodeId::new(local as u32), (config.total_buffer / k).max(1))
                })
                .collect();
            clusters.push(TopicCluster {
                topic: group.topic,
                members: group.members.clone(),
                cluster: GossipCluster::build(cc),
            });
        }
        PubSubSystem {
            clusters,
            subscriptions,
            total_buffer: config.total_buffer,
        }
    }

    /// Number of topic groups.
    pub fn topic_count(&self) -> usize {
        self.clusters.len()
    }

    /// The topics a node currently subscribes to.
    pub fn subscriptions(&self, node: NodeId) -> Vec<TopicId> {
        self.subscriptions
            .get(&node)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Advances all topic groups to virtual time `t`.
    pub fn run_until(&mut self, t: TimeMs) {
        for tc in &mut self.clusters {
            tc.cluster.run_until(t);
        }
    }

    /// Metrics of one topic group.
    pub fn topic_metrics(&self, topic: TopicId) -> Option<std::cell::Ref<'_, MetricsCollector>> {
        self.clusters
            .iter()
            .find(|tc| tc.topic == topic)
            .map(|tc| tc.cluster.metrics())
    }

    /// The per-topic buffer capacity a node with `k` subscriptions gets.
    pub fn split_capacity(&self, k: usize) -> usize {
        (self.total_buffer / k.max(1)).max(1)
    }

    /// Schedules `node` leaving `topic` at time `at`: the node crashes in
    /// that topic's group and its buffers *grow* in all remaining groups.
    ///
    /// Schedule calls must be issued in non-decreasing time order, before
    /// running past `at` (the subscription bookkeeping is updated
    /// immediately).
    pub fn schedule_leave(&mut self, at: TimeMs, node: NodeId, topic: TopicId) {
        let Some(subs) = self.subscriptions.get_mut(&node) else {
            return;
        };
        if !subs.remove(&topic) {
            return;
        }
        let k_new = subs.len();
        let remaining: Vec<TopicId> = subs.iter().copied().collect();
        let new_cap = self.split_capacity(k_new);
        for tc in &mut self.clusters {
            if tc.topic == topic {
                if let Some(local) = tc.local(node) {
                    // Leaving: stop participating in this group.
                    tc.cluster.schedule_crash(at, local);
                }
            } else if remaining.contains(&tc.topic) {
                if let Some(local) = tc.local(node) {
                    tc.cluster.schedule_resize(at, local, new_cap);
                }
            }
        }
    }

    /// Schedules `node` (re-)joining `topic` at time `at`: it recovers in
    /// that group and buffers *shrink* in all of its groups.
    ///
    /// The node must appear in the topic's original member list (simulated
    /// groups have a fixed roster; joining is modeled as recovery).
    pub fn schedule_join(&mut self, at: TimeMs, node: NodeId, topic: TopicId) {
        let subs = self.subscriptions.entry(node).or_default();
        if !subs.insert(topic) {
            return;
        }
        let k_new = subs.len();
        let all: Vec<TopicId> = subs.iter().copied().collect();
        let new_cap = self.split_capacity(k_new);
        for tc in &mut self.clusters {
            if !all.contains(&tc.topic) {
                continue;
            }
            let Some(local) = tc.local(node) else {
                continue;
            };
            if tc.topic == topic {
                tc.cluster.schedule_recover(at, local);
            }
            tc.cluster.schedule_resize(at, local, new_cap);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_topic_config() -> PubSubConfig {
        // 12 nodes; nodes 0..8 on topic 0, nodes 4..12 on topic 1:
        // nodes 4..8 subscribe to both.
        let t0 = TopicGroup {
            topic: TopicId::new(0),
            members: (0..8).map(NodeId::new).collect(),
        };
        let t1 = TopicGroup {
            topic: TopicId::new(1),
            members: (4..12).map(NodeId::new).collect(),
        };
        let mut c = PubSubConfig::new(11, 40, vec![t0, t1]);
        c.offered_rate_per_topic = 1.0;
        c
    }

    #[test]
    fn buffer_budget_is_split_for_overlapping_nodes() {
        let sys = PubSubSystem::build(two_topic_config());
        assert_eq!(sys.topic_count(), 2);
        // Node 0 subscribes to one topic, node 4 to two.
        assert_eq!(sys.subscriptions(NodeId::new(0)), vec![TopicId::new(0)]);
        assert_eq!(
            sys.subscriptions(NodeId::new(4)),
            vec![TopicId::new(0), TopicId::new(1)]
        );
        assert_eq!(sys.split_capacity(1), 40);
        assert_eq!(sys.split_capacity(2), 20);
    }

    #[test]
    fn both_topics_disseminate() {
        let mut sys = PubSubSystem::build(two_topic_config());
        sys.run_until(TimeMs::from_secs(30));
        for t in [TopicId::new(0), TopicId::new(1)] {
            let m = sys.topic_metrics(t).unwrap();
            let report = m.deliveries().atomicity(0.95, None);
            assert!(report.messages > 0, "topic {t} published nothing");
            assert!(
                report.avg_receiver_fraction > 0.8,
                "topic {t} fraction {}",
                report.avg_receiver_fraction
            );
        }
    }

    #[test]
    fn leave_grows_remaining_buffers() {
        let mut sys = PubSubSystem::build(two_topic_config());
        sys.run_until(TimeMs::from_secs(5));
        // Node 4 leaves topic 1: its buffer in topic 0 grows 20 -> 40.
        sys.schedule_leave(TimeMs::from_secs(6), NodeId::new(4), TopicId::new(1));
        sys.run_until(TimeMs::from_secs(8));
        assert_eq!(sys.subscriptions(NodeId::new(4)), vec![TopicId::new(0)]);
        //

        // topic 0 cluster: node 4 is local index 4.
        let tc = &sys.clusters[0];
        assert_eq!(
            tc.cluster.node(NodeId::new(4)).protocol().buffer_capacity(),
            40
        );
    }

    #[test]
    fn join_shrinks_buffers_again() {
        let mut sys = PubSubSystem::build(two_topic_config());
        sys.schedule_leave(TimeMs::from_secs(2), NodeId::new(4), TopicId::new(1));
        sys.schedule_join(TimeMs::from_secs(10), NodeId::new(4), TopicId::new(1));
        sys.run_until(TimeMs::from_secs(12));
        assert_eq!(sys.subscriptions(NodeId::new(4)).len(), 2);
        let tc = &sys.clusters[0];
        assert_eq!(
            tc.cluster.node(NodeId::new(4)).protocol().buffer_capacity(),
            20
        );
    }

    #[test]
    fn unknown_leave_is_ignored() {
        let mut sys = PubSubSystem::build(two_topic_config());
        // Node 0 is not subscribed to topic 1; leaving it is a no-op.
        sys.schedule_leave(TimeMs::from_secs(1), NodeId::new(0), TopicId::new(1));
        assert_eq!(sys.subscriptions(NodeId::new(0)), vec![TopicId::new(0)]);
    }
}
