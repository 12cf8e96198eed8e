//! Cost attribution end to end: one profiled adaptive + recovery
//! simulation, the where-does-the-round-go phase table, shard
//! load-balance stats, the per-subsystem memory table, and
//! inferno-ready collapsed stacks — plus the parity check that makes
//! the profiler trustworthy (identical engine checksum with profiling
//! on and off).
//!
//! Run with: `cargo run --release --example profile_round`

use adaptive_gossip::profile::{ProfileConfig, PHASES};
use adaptive_gossip::recovery::RecoveryConfig;
use adaptive_gossip::types::TimeMs;
use adaptive_gossip::workload::{Algorithm, ClusterConfig, GossipCluster};

fn config(profiled: bool) -> ClusterConfig {
    let mut c = ClusterConfig::lossy(200, 42, 0.05);
    c.algorithm = Algorithm::Adaptive;
    c.n_senders = 8;
    c.offered_rate = 40.0;
    c.recovery = Some(RecoveryConfig::default());
    if profiled {
        c.profile = ProfileConfig::enabled();
    }
    c
}

fn main() {
    let horizon = TimeMs::from_secs(30);
    println!("running 200 profiled nodes for 30 virtual seconds ...");
    let mut cluster = GossipCluster::build(config(true));
    cluster.run_until(horizon);
    let snapshot = cluster.profiler_snapshot().expect("profiling enabled");

    // Where does the round go? Percentages over the top-level phases;
    // route nests inside shard_exec.
    let total = snapshot.top_level_total_ns().max(1);
    println!(
        "\nphase breakdown ({:.1} ms engine time):",
        total as f64 / 1e6
    );
    for &phase in PHASES.iter() {
        let stat = snapshot.phase(phase);
        if stat.total_ns == 0 {
            continue;
        }
        println!(
            "  {}{:<12} {:>6.1}%  ({} scopes, {} items)",
            if phase.nested() { "  ↳ " } else { "" },
            phase.label(),
            stat.total_ns as f64 * 100.0 / total as f64,
            stat.count,
            stat.items,
        );
    }
    if let Some(ratio) = snapshot.mean_balance_ratio {
        println!("  shard balance: mean max/min busy ratio {ratio:.2}x");
    }

    // What stays resident? Deterministic entry-count arithmetic, so
    // the same numbers appear at any AGB_THREADS.
    let mem = cluster.mem_table();
    println!(
        "\nresident bytes per node ({} total):",
        mem.bytes_per_node()
    );
    for (label, usage) in mem.rows() {
        println!(
            "  {:<22} {:>8} B  ({} entries)",
            label,
            usage.bytes / mem.nodes(),
            usage.entries
        );
    }

    // Collapsed stacks: pipe into inferno-flamegraph for an SVG.
    println!("\ncollapsed stacks (inferno format):");
    print!("{}", snapshot.collapsed());

    // The profiler is a pure observer: re-run without it and compare
    // engine checksums.
    let profiled_checksum = cluster.sim_stats().checksum;
    let mut plain = GossipCluster::build(config(false));
    plain.run_until(horizon);
    assert_eq!(
        profiled_checksum,
        plain.sim_stats().checksum,
        "profiling must not change engine results"
    );
    println!("\nparity: profiled and unprofiled checksums match ({profiled_checksum:#018x})");
}
