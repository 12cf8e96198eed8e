//! End-to-end integration tests: whole simulated clusters, both protocols.

use adaptive_gossip::experiments::common::paper_adaptation;
use adaptive_gossip::types::{DurationMs, NodeId, TimeMs};
use adaptive_gossip::workload::{Algorithm, ClusterConfig, GossipCluster, PhaseModel};

fn base(n: usize, seed: u64, algorithm: Algorithm, buffer: usize, offered: f64) -> ClusterConfig {
    let mut c = ClusterConfig::new(n, seed);
    c.algorithm = algorithm;
    c.gossip.max_events = buffer;
    c.n_senders = 4;
    c.offered_rate = offered;
    c.adaptation = paper_adaptation(offered / 4.0);
    c.max_backlog = 8;
    c
}

#[test]
fn lpbcast_is_reliable_under_capacity() {
    let mut cluster = GossipCluster::build(base(24, 1, Algorithm::Lpbcast, 60, 8.0));
    cluster.run_until(TimeMs::from_secs(60));
    let m = cluster.metrics();
    let report = m
        .deliveries()
        .atomicity(0.95, Some((TimeMs::from_secs(5), TimeMs::from_secs(45))));
    assert!(report.messages > 100, "messages: {}", report.messages);
    assert!(
        report.atomic_fraction > 0.95,
        "atomic fraction {}",
        report.atomic_fraction
    );
}

#[test]
fn lpbcast_degrades_when_overloaded() {
    // Buffer 12 with 40 msg/s is far beyond the knee (~12 msg/s).
    let mut cluster = GossipCluster::build(base(24, 2, Algorithm::Lpbcast, 12, 40.0));
    cluster.run_until(TimeMs::from_secs(60));
    let m = cluster.metrics();
    let report = m
        .deliveries()
        .atomicity(0.95, Some((TimeMs::from_secs(5), TimeMs::from_secs(45))));
    assert!(
        report.atomic_fraction < 0.5,
        "overloaded lpbcast should lose atomicity, got {}",
        report.atomic_fraction
    );
    // And the drop age collapses below the healthy range.
    let drop_age = m.drop_ages().mean_overflow_age().expect("drops occurred");
    assert!(drop_age < 4.0, "drop age {drop_age}");
}

#[test]
fn adaptive_preserves_atomicity_when_overloaded() {
    let mut cluster = GossipCluster::build(base(24, 3, Algorithm::Adaptive, 12, 40.0));
    cluster.run_until(TimeMs::from_secs(120));
    let m = cluster.metrics();
    let report = m
        .deliveries()
        .atomicity(0.95, Some((TimeMs::from_secs(60), TimeMs::from_secs(105))));
    assert!(report.messages > 20, "messages: {}", report.messages);
    assert!(
        report.atomic_fraction > 0.9,
        "adaptive should keep atomicity, got {}",
        report.atomic_fraction
    );
    // The input must have been throttled below the offered load.
    let input = m.input_rate(TimeMs::from_secs(60), TimeMs::from_secs(105));
    assert!(input < 30.0, "input was not throttled: {input}");
}

#[test]
fn adaptive_accepts_offered_load_under_capacity() {
    let mut cluster = GossipCluster::build(base(24, 4, Algorithm::Adaptive, 90, 10.0));
    cluster.run_until(TimeMs::from_secs(120));
    let m = cluster.metrics();
    let input = m.input_rate(TimeMs::from_secs(60), TimeMs::from_secs(110));
    assert!(
        input > 8.0,
        "uncongested adaptive should accept the offered 10 msg/s, got {input}"
    );
}

#[test]
fn same_seed_is_bit_identical() {
    let run = || {
        let mut cluster = GossipCluster::build(base(20, 9, Algorithm::Adaptive, 30, 20.0));
        cluster.run_until(TimeMs::from_secs(40));
        let stats = cluster.sim_stats();
        let admitted = cluster.metrics().admitted().total();
        let delivered = cluster.metrics().delivered().total();
        (stats.checksum, admitted, delivered)
    };
    assert_eq!(run(), run());
}

#[test]
fn different_seeds_differ() {
    let checksum = |seed| {
        let mut cluster = GossipCluster::build(base(20, seed, Algorithm::Lpbcast, 30, 20.0));
        cluster.run_until(TimeMs::from_secs(30));
        cluster.sim_stats().checksum
    };
    assert_ne!(checksum(1), checksum(2));
}

#[test]
fn staggered_phases_disseminate_faster_than_synchronized() {
    let run = |phases: PhaseModel| {
        let mut c = base(24, 5, Algorithm::Lpbcast, 60, 4.0);
        c.phases = phases;
        let mut cluster = GossipCluster::build(c);
        cluster.run_until(TimeMs::from_secs(60));
        let m = cluster.metrics();
        m.deliveries().mean_delivery_age(None)
    };
    let sync_age = run(PhaseModel::Synchronized);
    let stag_age = run(PhaseModel::Staggered);
    // Staggered ticks let messages chain through several nodes per period,
    // so delivery hops accumulate faster relative to rounds.
    assert!(
        sync_age > 2.0,
        "synchronized rounds need several hops: {sync_age}"
    );
    assert!(stag_age > 0.0);
}

#[test]
fn bigger_buffers_never_hurt_reliability() {
    let atomic = |buffer| {
        let mut cluster = GossipCluster::build(base(24, 6, Algorithm::Lpbcast, buffer, 25.0));
        cluster.run_until(TimeMs::from_secs(60));
        let m = cluster.metrics();
        m.deliveries()
            .atomicity(0.95, Some((TimeMs::from_secs(5), TimeMs::from_secs(45))))
            .atomic_fraction
    };
    let small = atomic(10);
    let large = atomic(80);
    assert!(
        large >= small,
        "reliability must not decrease with buffer size: {small} -> {large}"
    );
    assert!(large > 0.9, "large-buffer run should be reliable: {large}");
}

#[test]
fn message_loss_is_absorbed_by_redundancy() {
    let mut c = base(24, 7, Algorithm::Lpbcast, 60, 6.0);
    c.network = adaptive_gossip::sim::NetworkConfig {
        latency: adaptive_gossip::sim::LatencyModel::Constant(DurationMs::from_millis(10)),
        loss: 0.10,
        partitions: vec![],
        link_faults: vec![],
        adversaries: vec![],
    };
    let mut cluster = GossipCluster::build(c);
    cluster.run_until(TimeMs::from_secs(60));
    let m = cluster.metrics();
    let report = m
        .deliveries()
        .atomicity(0.95, Some((TimeMs::from_secs(5), TimeMs::from_secs(45))));
    assert!(
        report.avg_receiver_fraction > 0.95,
        "10% loss should be absorbed, got {}",
        report.avg_receiver_fraction
    );
    assert!(
        cluster.sim_stats().drops > 0,
        "loss model must have dropped"
    );
}

#[test]
fn partition_heals_and_dissemination_resumes() {
    let mut c = base(20, 8, Algorithm::Lpbcast, 60, 4.0);
    // Nodes 0..10 cut off from 10..20 between t=10s and t=20s.
    c.network.partitions = vec![adaptive_gossip::sim::Partition {
        side_a: (0..10).map(NodeId::new).collect(),
        from: TimeMs::from_secs(10),
        until: TimeMs::from_secs(20),
    }];
    let mut cluster = GossipCluster::build(c);
    cluster.run_until(TimeMs::from_secs(60));
    let m = cluster.metrics();
    // Messages admitted well after healing disseminate fully.
    let after = m
        .deliveries()
        .atomicity(0.95, Some((TimeMs::from_secs(25), TimeMs::from_secs(45))));
    assert!(
        after.avg_receiver_fraction > 0.95,
        "post-partition traffic should be fine, got {}",
        after.avg_receiver_fraction
    );
}

#[test]
fn crashed_nodes_do_not_block_the_rest() {
    let mut cluster = GossipCluster::build(base(20, 10, Algorithm::Lpbcast, 60, 4.0));
    // Crash 3 nodes permanently at t=5s.
    for i in 17..20 {
        cluster.schedule_crash(TimeMs::from_secs(5), NodeId::new(i));
    }
    cluster.run_until(TimeMs::from_secs(60));
    let m = cluster.metrics();
    let report = m.deliveries().atomicity(
        // 17 live of 20: the best possible fraction is 0.85.
        0.80,
        Some((TimeMs::from_secs(10), TimeMs::from_secs(45))),
    );
    assert!(
        report.atomic_fraction > 0.9,
        "live nodes should still receive everything, got {}",
        report.atomic_fraction
    );
}
