//! Pull-based recovery under message loss: the same lossy, aggressively
//! purging cluster run twice — push-only lpbcast vs. lpbcast wrapped in
//! the `agb-recovery` layer — printing the atomicity gap and the repair
//! cost.
//!
//! Run with: `cargo run --release --example lossy_recovery`

use adaptive_gossip::core::GossipConfig;
use adaptive_gossip::recovery::RecoveryConfig;
use adaptive_gossip::types::TimeMs;
use adaptive_gossip::workload::{Algorithm, ClusterConfig, GossipCluster};

fn build(with_recovery: bool) -> GossipCluster {
    // 20% independent message loss and a 3-round age cap: events leave
    // gossip buffers long before reaching everyone — the regime where
    // push-only gossip loses atomicity.
    let mut config = ClusterConfig::lossy(40, 42, 0.2);
    config.algorithm = Algorithm::Lpbcast;
    config.gossip = GossipConfig {
        fanout: 3,
        max_events: 30,
        age_cap: 3,
        ..GossipConfig::default()
    };
    config.n_senders = 4;
    config.offered_rate = 8.0;
    if with_recovery {
        config.recovery = Some(RecoveryConfig::default());
    }
    GossipCluster::build(config)
}

fn main() {
    println!("== pull-based recovery under 20% loss ==");
    let window = Some((TimeMs::from_secs(5), TimeMs::from_secs(60)));
    for with_recovery in [false, true] {
        let mut cluster = build(with_recovery);
        cluster.run_until(TimeMs::from_secs(75));
        let metrics = cluster.metrics();
        let report = metrics.deliveries().atomicity(0.95, window);
        let label = if with_recovery {
            "with recovery"
        } else {
            "push-only    "
        };
        println!(
            "{label}: atomic {:5.1}%  avg receivers {:5.1}%  recovered {:5}  \
             overhead {:.2} msgs/delivery",
            report.atomic_fraction * 100.0,
            report.avg_receiver_fraction * 100.0,
            metrics.recovery().recovered(),
            metrics.recovery_overhead_ratio(),
        );
    }
}
