//! Acceptance scenarios for the wall-clock telemetry plane
//! (`agb-telemetry`), the threaded runtime's one observation plane: a
//! lossy UDP cluster stays scrapeable under load, the scraped series
//! merge into sane cluster-wide aggregates, transport failure paths land
//! in the shared vocabulary, and every node registers the series that
//! the benchmark and the telemetry report read.

use std::time::Duration;

use adaptive_gossip::profile::ProfileConfig;
use adaptive_gossip::recovery::RecoveryConfig;
use adaptive_gossip::runtime::{
    ChannelTransport, RuntimeCluster, RuntimeClusterConfig, Transport, TransportError,
    TransportKind, MAX_DATAGRAM,
};
use adaptive_gossip::telemetry::{names, parse_text, scrape, Snapshot, TelemetryConfig};
use adaptive_gossip::types::{NodeId, Payload};

fn telemetry_cluster(seed: u64, n: usize) -> RuntimeClusterConfig {
    let mut config = RuntimeClusterConfig::quick(n, seed);
    config.transport = TransportKind::Udp;
    config.n_senders = 2.min(n);
    config.offered_rate = 30.0;
    config.payload_size = 32; // room for the latency stamp
    config.loss = 0.2;
    config.recovery = Some(RecoveryConfig::default());
    config.telemetry = TelemetryConfig::serving();
    config
}

/// A lossy UDP cluster keeps answering `GET /metrics` while traffic
/// flows, every scrape parses, and the sent-counter never goes
/// backwards between scrapes of the same node.
#[test]
fn udp_cluster_stays_scrapeable_under_load() {
    let cluster = RuntimeCluster::start(telemetry_cluster(71, 5)).expect("bind UDP + endpoints");
    let addrs = cluster.telemetry_addrs();
    assert_eq!(addrs.len(), 5, "one endpoint per node");
    assert_eq!(cluster.node_addrs().len(), 5, "UDP ports are exposed");

    let target = addrs[0];
    let mut last_sent = 0u64;
    let mut scrapes = 0;
    for _ in 0..10 {
        cluster.run_for(Duration::from_millis(60));
        let text = scrape(target, Duration::from_secs(2)).expect("scrape mid-load");
        let snap = parse_text(&text);
        let sent = snap.counter_sum(names::MESSAGES_SENT);
        assert!(
            sent >= last_sent,
            "sent counter went backwards: {sent} < {last_sent}"
        );
        last_sent = sent;
        scrapes += 1;
    }
    assert_eq!(scrapes, 10);
    assert!(last_sent > 0, "the scraped node sent traffic");

    // Merge the final per-node registries: the cluster as a whole
    // delivered, lost injected datagrams, and measured latency.
    let mut merged = Snapshot::default();
    for r in cluster.telemetry_registries() {
        assert!(merged.merge(&r.snapshot()), "histogram bounds agree");
    }
    let _ = cluster.stop();
    assert!(merged.counter_sum(names::DELIVERIES) > 0);
    assert!(merged.counter_sum(names::LOSS_INJECTED) > 0);
    let latency = merged
        .histogram_merged(names::DELIVERY_LATENCY_SECONDS)
        .expect("latency histogram present");
    assert!(latency.count() > 0, "stamped deliveries were measured");
    let [p50, _, _, p999] = latency.slo_quantiles().expect("quantiles");
    assert!(p50 <= p999);
}

/// Transport refusals carry a typed cause that maps onto the
/// `agb_socket_send_errors_total{cause}` label vocabulary.
#[test]
fn transport_failures_map_onto_the_cause_vocabulary() {
    let mut transports = ChannelTransport::cluster(2);
    let t = transports.remove(0);

    let oversize = t
        .send(NodeId::new(1), Payload::from(vec![0u8; MAX_DATAGRAM + 1]))
        .expect_err("oversized datagram must be refused");
    assert!(matches!(oversize, TransportError::Oversize { .. }));
    assert_eq!(oversize.cause_label(), "oversize");

    let unknown = t
        .send(NodeId::new(9), Payload::from_static(b"hello"))
        .expect_err("unknown peer must be refused");
    assert!(matches!(unknown, TransportError::UnknownPeer(_)));
    assert_eq!(unknown.cause_label(), "unknown_peer");

    // Sane sends still work after refusals.
    t.send(NodeId::new(1), Payload::from_static(b"fine"))
        .expect("normal send");
}

/// Every node registers each series that the benchmark's
/// `udp-loopback` workload (`benchmark/src/udp.rs`) and the `repro
/// telemetry` report read, whether or not it has moved. A series that
/// vanished would read as 0 through `Snapshot::counter_sum`, and a
/// refused-offer count of 0 would look like an improvement.
#[test]
fn every_node_registers_the_series_readers_depend_on() {
    const COUNTERS: [&str; 13] = [
        names::MESSAGES_SENT,
        names::MESSAGES_RECEIVED,
        names::BYTES_SENT,
        names::SEND_ERRORS,
        names::DECODE_ERRORS,
        names::LOSS_INJECTED,
        names::PUBLISHES,
        names::DELIVERIES,
        names::DROPS,
        names::RECOVERY_EVENTS,
        names::ROUNDS,
        names::OFFERS_REFUSED,
        names::SHEDS,
    ];
    const HISTOGRAMS: [&str; 4] = [
        names::DELIVERY_LATENCY_SECONDS,
        names::RECOVERY_RTT_SECONDS,
        names::EGRESS_DWELL_SECONDS,
        names::LOOP_ITERATION_SECONDS,
    ];
    let mut config = RuntimeClusterConfig::quick(3, 73);
    config.telemetry = TelemetryConfig::recording();
    config.profile = ProfileConfig::enabled();
    let cluster = RuntimeCluster::start(config).expect("start");
    let snapshots: Vec<Snapshot> = cluster
        .telemetry_registries()
        .iter()
        .map(|r| r.snapshot())
        .collect();
    let _ = cluster.stop();
    assert_eq!(snapshots.len(), 3, "one registry per node");
    for (node, snap) in snapshots.iter().enumerate() {
        for name in COUNTERS {
            let registered = snap.counters.keys().any(|(n, _)| n == name);
            assert!(registered, "node {node} registers no {name}");
        }
        for name in HISTOGRAMS {
            let registered = snap.histograms.keys().any(|(n, _)| n == name);
            assert!(registered, "node {node} registers no {name}");
        }
    }
}
