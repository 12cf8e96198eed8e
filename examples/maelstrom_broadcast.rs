//! The Maelstrom broadcast workload under loss and a partition,
//! lpbcast vs adaptive+recovery — the external-checker view of the
//! recovery layer's atomicity win.
//!
//! ```sh
//! cargo run --release --example maelstrom_broadcast
//! ```
//!
//! Both runs script the same workload: 20 nodes, 10% message loss, a
//! 12-second partition isolating a third of the group, 30 broadcasts,
//! final reads well after the partition heals. The checker then
//! measures, per acknowledged value, the fraction of nodes that read it
//! back. (The same node adapter also runs as a real stdin/stdout binary
//! under the Maelstrom jar: `maelstrom_node --protocol adaptive-recovery`.)

use adaptive_gossip::maelstrom::{run_workload, Flavor, HarnessConfig, WorkloadKind};
use adaptive_gossip::sim::{NetworkConfig, Partition};
use adaptive_gossip::types::{NodeId, TimeMs};

fn scenario(flavor: Flavor) -> HarnessConfig {
    let mut config = HarnessConfig::new(WorkloadKind::Broadcast, 20, 42);
    config.node.flavor = flavor;
    config.network = NetworkConfig::lossy(0.10);
    config.network.partitions = vec![Partition {
        side_a: (0..7).map(NodeId::new).collect(),
        from: TimeMs::from_secs(15),
        until: TimeMs::from_secs(27),
    }];
    config.n_ops = 30;
    config.ops_from = TimeMs::from_secs(5);
    config.ops_until = TimeMs::from_secs(35);
    config.read_at = TimeMs::from_secs(60);
    config.atomicity_threshold = 0.0; // measuring, not gating
    config
}

fn main() {
    println!("Maelstrom broadcast: 20 nodes, 10% loss, 12 s partition, 30 broadcasts\n");
    for flavor in [Flavor::Lpbcast, Flavor::AdaptiveRecovery] {
        let report = run_workload(&scenario(flavor));
        println!(
            "{:>18}:  atomicity avg {:.4}  min {:.4}  ({} acked ops, {} net drops)",
            flavor.name(),
            report.avg_fraction,
            report.min_fraction,
            report.acked,
            report.drops
        );
        for p in &report.properties {
            println!("{:>22}{} {}", "", if p.ok { "✓" } else { "✗" }, p.detail);
        }
    }
    println!("\nThe pull-based recovery layer repairs what the partition and loss cost lpbcast.");
}
