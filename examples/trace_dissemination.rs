//! Causal dissemination tracing: the same lossy cluster run twice —
//! push-only vs. with pull-based recovery — comparing relay redundancy,
//! delivery latency tails, and dissemination-tree shape from the
//! `agb-trace` summaries.
//!
//! Run with: `cargo run --release --example trace_dissemination`

use adaptive_gossip::core::GossipConfig;
use adaptive_gossip::recovery::RecoveryConfig;
use adaptive_gossip::trace::{TraceConfig, TraceSummary};
use adaptive_gossip::types::TimeMs;
use adaptive_gossip::workload::{Algorithm, ClusterConfig, GossipCluster};

fn run(with_recovery: bool) -> TraceSummary {
    // 10% loss and a tight age cap: enough events are purged early that
    // the recovery leg has real repair work to show in its trace.
    let mut config = ClusterConfig::lossy(30, 42, 0.1);
    config.algorithm = Algorithm::Adaptive;
    config.gossip = GossipConfig {
        fanout: 3,
        max_events: 25,
        age_cap: 4,
        ..GossipConfig::default()
    };
    config.n_senders = 3;
    config.offered_rate = 9.0;
    config.trace = TraceConfig::enabled();
    if with_recovery {
        config.recovery = Some(RecoveryConfig::default());
    }
    let label = if with_recovery {
        "adaptive+recovery"
    } else {
        "adaptive"
    };
    let mut cluster = GossipCluster::build(config);
    cluster.run_until(TimeMs::from_secs(60));
    cluster.trace_summary(label).expect("tracing enabled")
}

fn main() {
    println!("== dissemination trace: push-only vs. recovery ==");
    for with_recovery in [false, true] {
        let s = run(with_recovery);
        let relays_per_delivery = s.counts.relays as f64 / s.counts.delivers.max(1) as f64;
        let dup_fraction =
            s.counts.duplicates as f64 / (s.counts.delivers + s.counts.duplicates).max(1) as f64;
        println!("{}:", s.label);
        println!(
            "  delivers {:6}  relays {:7}  redundancy {:.2} relays/delivery  \
             duplicates {:.1}%",
            s.counts.delivers,
            s.counts.relays,
            relays_per_delivery,
            dup_fraction * 100.0,
        );
        let q = |h: &adaptive_gossip::types::Histogram, p: f64| h.quantile(p).unwrap_or(f64::NAN);
        println!(
            "  latency p50 {:.0} rounds, p99 {:.0} rounds  (recovered {:5}, \
             repair RTT p50 {:.0} ms)",
            q(&s.latency, 0.50),
            q(&s.latency, 0.99),
            s.counts.recovered,
            q(&s.recovery_rtt, 0.50),
        );
        println!(
            "  trees: {} events, mean depth {:.2}, max depth {}, redundancy {:.2}",
            s.tree.events, s.tree.mean_depth, s.tree.max_depth, s.tree.redundancy,
        );
        println!("  trace digest: {:#018x}", s.digest);
    }
}
