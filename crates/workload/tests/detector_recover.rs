//! A node recovering from its own crash resumes failure detection
//! without blaming the peers it could not hear while it was down.

use agb_core::GossipConfig;
use agb_failure::DetectorConfig;
use agb_trace::{TraceConfig, TraceKind};
use agb_types::{NodeId, TimeMs};
use agb_workload::{Algorithm, ClusterConfig, GossipCluster};

#[test]
fn recovered_node_evicts_no_live_peer() {
    let mut config = ClusterConfig::new(16, 7);
    config.algorithm = Algorithm::Lpbcast;
    config.n_senders = 2;
    config.offered_rate = 2.0;
    let mut gossip = GossipConfig::default();
    gossip.max_events = 30;
    config.gossip = gossip;
    config.trace = TraceConfig {
        ring_capacity: 1 << 20,
        ..TraceConfig::enabled()
    };
    config.detector = Some(DetectorConfig::default());
    let mut cluster = GossipCluster::build(config);
    let victim = NodeId::new(9);
    cluster.schedule_crash(TimeMs::from_secs(10), victim);
    cluster.schedule_recover(TimeMs::from_secs(22), victim);
    cluster.run_until(TimeMs::from_secs(40));

    let trace = cluster.trace().expect("tracing enabled");
    assert_eq!(trace.evicted(), 0, "the ring kept every record");
    let evictions = |by: fn(NodeId) -> bool| {
        trace
            .records()
            .filter(|r| by(r.node))
            .filter_map(|r| match r.kind {
                TraceKind::DetectorEvict { peer } => Some((r.at, peer)),
                _ => None,
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(
        evictions(|n| n == NodeId::new(9)),
        vec![],
        "the recovered node blamed live peers for its own outage"
    );
    assert!(
        evictions(|n| n != NodeId::new(9))
            .iter()
            .any(|&(_, peer)| peer == victim),
        "its monitors still evicted the crashed node"
    );
}
