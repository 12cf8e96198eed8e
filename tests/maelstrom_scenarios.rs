//! Workspace-level Maelstrom scenarios through the facade: the checked
//! standard suite, atomicity among correct nodes with a crashed node,
//! and the recovery layer's lift over push-only lpbcast — all via the
//! line protocol.

use adaptive_gossip::maelstrom::{
    run_workload, standard_suite_threads, Flavor, HarnessConfig, WorkloadKind,
};
use adaptive_gossip::sim::{NetworkConfig, Partition};
use adaptive_gossip::types::{NodeId, TimeMs};

/// The acceptance scenario shape: loss + one partition window.
fn contested_broadcast(flavor: Flavor) -> HarnessConfig {
    let mut config = HarnessConfig::new(WorkloadKind::Broadcast, 16, 42);
    config.node.flavor = flavor;
    config.network = NetworkConfig::lossy(0.10);
    config.network.partitions = vec![Partition {
        side_a: (0..5).map(NodeId::new).collect(),
        from: TimeMs::from_secs(12),
        until: TimeMs::from_secs(22),
    }];
    config.n_ops = 20;
    config.ops_from = TimeMs::from_secs(4);
    config.ops_until = TimeMs::from_secs(28);
    config.read_at = TimeMs::from_secs(55);
    config.atomicity_threshold = 0.0;
    config
}

#[test]
fn standard_suite_passes_and_is_deterministic() {
    let a = standard_suite_threads(42, true, 1);
    assert!(a.passed(), "suite failed: {:?}", a.to_json().pretty());
    let b = standard_suite_threads(42, true, 1);
    assert_eq!(a.digest, b.digest, "same seed must give the same digest");
    // The acceptance scenario: broadcast with recovery stays ≥ 99%
    // atomic among correct nodes despite loss and the partition.
    let broadcast = &a.reports[0];
    assert_eq!(broadcast.workload.name(), "broadcast");
    assert_eq!(broadcast.flavor.name(), "adaptive-recovery");
    assert!(
        broadcast.avg_fraction >= 0.99,
        "atomicity {} below threshold",
        broadcast.avg_fraction
    );
}

#[test]
fn recovery_lifts_atomicity_over_push_only_lpbcast() {
    let lpbcast = run_workload(&contested_broadcast(Flavor::Lpbcast));
    let recovered = run_workload(&contested_broadcast(Flavor::AdaptiveRecovery));
    assert!(
        recovered.avg_fraction >= lpbcast.avg_fraction,
        "recovery must not lose ground: {} vs {}",
        recovered.avg_fraction,
        lpbcast.avg_fraction
    );
    assert!(
        recovered.avg_fraction >= 0.99,
        "recovery atomicity {} below 99%",
        recovered.avg_fraction
    );
}

#[test]
fn atomicity_is_measured_among_correct_nodes_only() {
    let mut config = contested_broadcast(Flavor::AdaptiveRecovery);
    // One node dies mid-run; the checker must exclude it, and the
    // remaining correct nodes must still converge.
    config.crashes = vec![(TimeMs::from_secs(10), NodeId::new(15))];
    let report = run_workload(&config);
    assert_eq!(report.n_correct, 15);
    assert!(report.passed(), "properties: {:?}", report.properties);
    assert!(
        report.avg_fraction >= 0.99,
        "correct-node atomicity {}",
        report.avg_fraction
    );
}

#[test]
fn g_counter_converges_under_loss() {
    let mut config = HarnessConfig::new(WorkloadKind::GCounter, 10, 7);
    config.network = NetworkConfig::lossy(0.15);
    config.n_ops = 15;
    config.ops_from = TimeMs::from_secs(3);
    config.ops_until = TimeMs::from_secs(20);
    config.read_at = TimeMs::from_secs(45);
    let report = run_workload(&config);
    assert!(report.passed(), "properties: {:?}", report.properties);
    assert_eq!(report.avg_fraction, 1.0, "all nodes must read the full sum");
}
