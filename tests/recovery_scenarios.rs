//! Scenario tests of the pull-based recovery subsystem (`agb-recovery`)
//! driven through the deterministic simulator cluster.

use adaptive_gossip::core::GossipConfig;
use adaptive_gossip::recovery::RecoveryConfig;
use adaptive_gossip::types::TimeMs;
use adaptive_gossip::workload::{Algorithm, ClusterConfig, GossipCluster};
use proptest::prelude::*;

/// The loss-and-aggressive-purging regime the recovery layer exists for:
/// events leave gossip buffers after 3 rounds, fanout is modest, and the
/// network drops messages independently.
fn lossy_config(n_nodes: usize, seed: u64, loss: f64, with_recovery: bool) -> ClusterConfig {
    let mut c = ClusterConfig::lossy(n_nodes, seed, loss);
    c.algorithm = Algorithm::Lpbcast;
    c.gossip = GossipConfig {
        fanout: 3,
        max_events: 30,
        age_cap: 3,
        ..GossipConfig::default()
    };
    c.n_senders = 3;
    c.offered_rate = 6.0;
    if with_recovery {
        c.recovery = Some(RecoveryConfig::default());
    }
    c
}

/// Runs the cluster and reports the measured atomicity over an
/// admission-time window that excludes warmup and still-in-flight tails.
fn run_atomicity(config: ClusterConfig, horizon_s: u64) -> (f64, f64) {
    let mut cluster = GossipCluster::build(config);
    cluster.run_until(TimeMs::from_secs(horizon_s));
    let window = Some((TimeMs::from_secs(5), TimeMs::from_secs(horizon_s - 15)));
    let m = cluster.metrics();
    let report = m.deliveries().atomicity(0.95, window);
    (report.atomic_fraction, report.avg_receiver_fraction)
}

/// The tentpole acceptance scenario: under 20% message loss and
/// aggressive purging, recovery lifts 95%-atomicity from (near) zero to
/// (near) one.
#[test]
fn recovery_lifts_atomicity_under_20pct_loss() {
    let (atomic_off, avg_off) = run_atomicity(lossy_config(30, 7, 0.2, false), 60);
    let (atomic_on, avg_on) = run_atomicity(lossy_config(30, 7, 0.2, true), 60);

    assert!(
        atomic_off < 0.3,
        "push-only gossip should collapse here, got {atomic_off}"
    );
    assert!(
        atomic_on > 0.9,
        "recovery should restore atomicity, got {atomic_on}"
    );
    assert!(atomic_on > atomic_off + 0.5);
    assert!(
        avg_on > avg_off,
        "avg receivers must improve: {avg_off} -> {avg_on}"
    );
    assert!(avg_on > 0.95, "avg receivers with recovery: {avg_on}");
}

/// Recovery metrics are populated when the layer is active, and the repair
/// overhead stays bounded (well under one control message per delivery).
#[test]
fn recovery_metrics_report_requests_and_overhead() {
    let mut cluster = GossipCluster::build(lossy_config(24, 11, 0.2, true));
    cluster.run_until(TimeMs::from_secs(40));
    let m = cluster.metrics();
    let recovery = m.recovery();
    assert!(recovery.requests() > 0, "grafts must have been sent");
    assert!(recovery.recovered() > 0, "events must have been recovered");
    assert!(
        recovery.served_events() >= recovery.recovered(),
        "recoveries are served from caches"
    );
    let ratio = m.recovery_overhead_ratio();
    assert!(
        ratio > 0.0 && ratio < 1.0,
        "repair cost per delivery should be bounded, got {ratio}"
    );
}

/// Without the recovery layer the collector's recovery stats stay zero —
/// the plain path is genuinely untouched.
#[test]
fn plain_cluster_reports_zero_recovery() {
    let mut cluster = GossipCluster::build(lossy_config(16, 3, 0.2, false));
    cluster.run_until(TimeMs::from_secs(20));
    let m = cluster.metrics();
    assert_eq!(m.recovery().requests(), 0);
    assert_eq!(m.recovery().recovered(), 0);
    assert_eq!(m.recovery_overhead_ratio(), 0.0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A lossy-network simulation with recovery enabled is a pure function
    /// of its seed: same seed, same engine checksum and same metrics.
    #[test]
    fn lossy_recovery_sim_is_deterministic_per_seed(
        seed in any::<u64>(),
        loss in 0.05f64..0.35,
    ) {
        let run = |seed: u64| {
            let mut cluster = GossipCluster::build(lossy_config(16, seed, loss, true));
            cluster.run_until(TimeMs::from_secs(20));
            let stats = cluster.sim_stats();
            let m = cluster.metrics();
            (
                stats,
                m.admitted().total(),
                m.delivered().total(),
                m.recovery().requests(),
                m.recovery().served_events(),
                m.recovery().recovered(),
                m.recovery().duplicates(),
            )
        };
        let a = run(seed);
        let b = run(seed);
        prop_assert_eq!(a, b);
        // And a different seed takes a different trajectory.
        let c = run(seed.wrapping_add(1));
        prop_assert_ne!(a.0.checksum, c.0.checksum);
    }
}
