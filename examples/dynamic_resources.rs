//! The Figure 9 scenario as a runnable example: buffers shrink at runtime,
//! the adaptive senders throttle to the new capacity, then partially
//! recover when resources return.
//!
//! Run with: `cargo run --release --example dynamic_resources`

use adaptive_gossip::types::{DurationMs, NodeId, TimeMs};
use adaptive_gossip::workload::{Algorithm, ClusterConfig, GossipCluster};

fn main() {
    let mut config = ClusterConfig::new(60, 7);
    config.algorithm = Algorithm::Adaptive;
    config.n_senders = 10;
    config.offered_rate = 80.0;
    config.gossip.max_events = 90;
    config.adaptation.initial_rate = 8.0;
    config.max_backlog = 16;

    let mut cluster = GossipCluster::build(config);

    // 20% of the group loses half its buffers at t=60 s, recovers to 60
    // events at t=150 s.
    let squeezed: Vec<NodeId> = (48..60).map(NodeId::new).collect();
    for &node in &squeezed {
        cluster.schedule_resize(TimeMs::from_secs(60), node, 45);
    }
    for &node in &squeezed {
        cluster.schedule_resize(TimeMs::from_secs(150), node, 60);
    }

    println!("time(s)  aggregate-allowed(msg/s)  min-buff-estimate@sender0");
    let mut t = TimeMs::ZERO;
    while t < TimeMs::from_secs(240) {
        t += DurationMs::from_secs(10);
        cluster.run_until(t);
        let est = cluster
            .node(NodeId::new(0))
            .protocol()
            .min_buff_estimate()
            .unwrap_or(0);
        println!(
            "{:>6}  {:>24.1}  {:>25}",
            t.as_secs_f64(),
            cluster.aggregate_allowed_rate(10),
            est
        );
    }

    let metrics = cluster.metrics();
    let squeeze_window = Some((TimeMs::from_secs(60), TimeMs::from_secs(150)));
    let report = metrics.deliveries().atomicity(0.95, squeeze_window);
    println!(
        "\natomicity during the squeeze: {:.1}% of {} messages reached >95% of nodes",
        report.atomic_fraction * 100.0,
        report.messages
    );
}
