//! Live telemetry end to end: a lossy UDP cluster serving per-node
//! `GET /metrics` endpoints, scraped over real TCP mid-run, the scraped
//! text parsed back into snapshots and merged into cluster-wide latency
//! SLO quantiles.
//!
//! Run with: `cargo run --release --example telemetry_scrape`

use std::time::Duration;

use adaptive_gossip::recovery::RecoveryConfig;
use adaptive_gossip::runtime::{RuntimeCluster, RuntimeClusterConfig, TransportKind};
use adaptive_gossip::telemetry::{names, parse_text, scrape, Snapshot, TelemetryConfig};
use adaptive_gossip::types::DurationMs;

fn main() -> std::io::Result<()> {
    let mut config = RuntimeClusterConfig::quick(8, 7);
    config.transport = TransportKind::Udp;
    config.gossip.gossip_period = DurationMs::from_millis(50);
    config.n_senders = 4;
    config.offered_rate = 40.0;
    config.payload_size = 32; // >= 12 bytes leaves room for the latency stamp
    config.loss = 0.15; // injected datagram loss, recovered via pull
    config.recovery = Some(RecoveryConfig::default());
    config.telemetry = TelemetryConfig::serving();

    println!("starting 8 UDP nodes with telemetry endpoints ...");
    let cluster = RuntimeCluster::start(config)?;
    let addrs = cluster.telemetry_addrs();
    for (i, addr) in addrs.iter().enumerate() {
        println!("  node {i}: http://{addr}/metrics");
    }

    // Let traffic flow, then scrape every node the way Prometheus
    // would: plain HTTP GET, text exposition back.
    cluster.run_for(Duration::from_secs(1));
    let mut merged = Snapshot::default();
    for addr in &addrs {
        let text = scrape(*addr, Duration::from_secs(2))?;
        assert!(merged.merge(&parse_text(&text)), "histogram bounds agree");
    }
    cluster.run_for(Duration::from_millis(500));
    let _ = cluster.stop();

    println!("cluster-wide, mid-run:");
    println!(
        "  sent {} / received {} / deliveries {} / loss injected {}",
        merged.counter_sum(names::MESSAGES_SENT),
        merged.counter_sum(names::MESSAGES_RECEIVED),
        merged.counter_sum(names::DELIVERIES),
        merged.counter_sum(names::LOSS_INJECTED),
    );
    if let Some(latency) = merged.histogram_merged(names::DELIVERY_LATENCY_SECONDS) {
        if let Some([p50, p90, p99, p999]) = latency.slo_quantiles() {
            println!(
                "  delivery latency (s): p50 {:.3}  p90 {:.3}  p99 {:.3}  p99.9 {:.3}  (n={})",
                p50,
                p90,
                p99,
                p999,
                latency.count()
            );
        }
    }
    Ok(())
}
