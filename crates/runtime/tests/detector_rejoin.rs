//! Live clusters count detector rejoins in their telemetry, as the
//! simulator's trace-count bridge does.

use std::time::Duration;

use agb_failure::DetectorConfig;
use agb_runtime::{RuntimeCluster, RuntimeClusterConfig};
use agb_telemetry::{names, Snapshot, TelemetryConfig};
use agb_types::NodeId;

#[test]
fn recovered_node_is_counted_as_rejoined() {
    let mut config = RuntimeClusterConfig::quick(6, 17);
    config.offered_rate = 10.0;
    config.telemetry = TelemetryConfig::recording();
    config.detector = Some(DetectorConfig::default());
    let cluster = RuntimeCluster::start(config).unwrap();
    // Learn the healthy rhythm, then silence node 5 for ~18 periods:
    // far past the evict-φ threshold of its monitors.
    cluster.run_for(Duration::from_millis(600));
    assert!(cluster.crash(NodeId::new(5)));
    cluster.run_for(Duration::from_millis(900));
    assert!(cluster.recover(NodeId::new(5)));
    cluster.run_for(Duration::from_millis(600));
    let mut merged = Snapshot::default();
    for r in cluster.telemetry_registries() {
        assert!(merged.merge(&r.snapshot()));
    }
    let _ = cluster.stop();
    let count = |kind| {
        (0..6)
            .map(|i| i.to_string())
            .filter_map(|n| merged.counter(names::LIFECYCLE, &[("kind", kind), ("node", &n)]))
            .sum::<u64>()
    };
    assert!(
        merged.counter_sum(names::DETECTOR_EVICTIONS) > 0,
        "the silent node was evicted"
    );
    assert_eq!(count("recover"), 1);
    assert!(count("rejoin") > 0, "the recovered node was welcomed back");
}
