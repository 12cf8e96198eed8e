//! Acceptance scenarios for the chaos subsystem (`agb-chaos`): seeded
//! churn is replayable, and adaptive gossip + pull-based recovery sustains
//! delivery among correct nodes where the static baseline degrades.

use adaptive_gossip::chaos::{ChaosCluster, ChaosSummary, ChurnProfile};
use adaptive_gossip::membership::PartialViewConfig;
use adaptive_gossip::recovery::RecoveryConfig;
use adaptive_gossip::types::{DurationMs, NodeId, TimeMs};
use adaptive_gossip::workload::{Algorithm, ClusterConfig, MembershipKind};

/// The perturbed regime: partial views, 10% loss, aggressive purging.
fn cluster_config(seed: u64, adaptive_recovery: bool) -> ClusterConfig {
    let mut c = ClusterConfig::lossy(30, seed, 0.1);
    c.membership = MembershipKind::Partial(PartialViewConfig::default());
    c.gossip.fanout = 3;
    c.gossip.age_cap = 4;
    c.gossip.max_events = 30;
    c.n_senders = 3;
    c.offered_rate = 6.0;
    if adaptive_recovery {
        c.algorithm = Algorithm::Adaptive;
        c.adaptation.initial_rate = 2.0;
        c.recovery = Some(RecoveryConfig::default());
    } else {
        c.algorithm = Algorithm::Lpbcast;
    }
    c
}

/// Heavy scripted churn over the measurement window: crash/restart pairs
/// with state loss plus failure-detector evictions and a link flap.
fn churn_profile() -> ChurnProfile {
    let mut p = ChurnProfile::crashes(
        30,
        TimeMs::from_secs(10),
        TimeMs::from_secs(55),
        16.0,
        DurationMs::from_secs(8),
        3, // protect the senders
    );
    p.detectors = 2;
    p.detect_after = DurationMs::from_secs(2);
    p.link_flaps = 1;
    p.flap_extra_loss = 0.25;
    p.flap_extra_latency = DurationMs::from_millis(60);
    p
}

fn run_summary(seed: u64, adaptive_recovery: bool) -> ChaosSummary {
    let schedule = churn_profile().generate(seed);
    let mut chaos = ChaosCluster::new(cluster_config(seed, adaptive_recovery), &schedule);
    chaos.run_until(TimeMs::from_secs(75));
    chaos.summary(
        (TimeMs::from_secs(5), TimeMs::from_secs(55)),
        DurationMs::from_secs(10),
    )
}

/// Acceptance (a): a chaos run is a pure function of its seed — identical
/// seeds produce identical churn metrics, down to the engine checksum.
#[test]
fn identical_seeds_produce_identical_churn_metrics() {
    let a = run_summary(7, true);
    let b = run_summary(7, true);
    assert_eq!(a, b);
    assert_eq!(a.digest(), b.digest());
    // And a different seed takes a genuinely different trajectory.
    let c = run_summary(8, true);
    assert_ne!(a.checksum, c.checksum);
}

/// Acceptance (b): under heavy churn, adaptive + recovery sustains ≥ 90%
/// delivery among correct nodes while static lpbcast degrades measurably.
#[test]
fn adaptive_recovery_sustains_delivery_where_static_degrades() {
    let static_run = run_summary(7, false);
    let rec_run = run_summary(7, true);

    let static_ratio = static_run.correct.avg_receiver_fraction;
    let rec_ratio = rec_run.correct.avg_receiver_fraction;

    assert!(
        rec_ratio >= 0.9,
        "adaptive+recovery must sustain >=90% among correct nodes, got {rec_ratio}"
    );
    assert!(
        static_ratio < rec_ratio - 0.02,
        "static lpbcast should degrade measurably: static {static_ratio} vs recovery {rec_ratio}"
    );
    // The recovery layer did real repair work, and rejoiners caught up.
    assert!(rec_run.recovered > 0, "no recovery repairs happened");
    assert!(
        rec_run.mean_catch_up_ms.is_some(),
        "no rejoiner ever delivered again"
    );
}

/// Churned nodes re-enter through the protocol: a node that crashes, is
/// evicted by failure detectors (its unsubscription propagates through
/// digests), and restarts with state loss converges back into the partial
/// views of the survivors via its own subscription gossip.
#[test]
fn restarted_node_reconverges_after_eviction() {
    use adaptive_gossip::chaos::ChaosSchedule;
    let victim = NodeId::new(9);
    let mut schedule = ChaosSchedule::new();
    schedule.crash(TimeMs::from_secs(10), victim);
    for detector in [NodeId::new(4), NodeId::new(14), NodeId::new(21)] {
        schedule.evict(TimeMs::from_secs(12), detector, victim);
    }
    schedule.restart(TimeMs::from_secs(25), victim);
    let mut chaos = ChaosCluster::new(cluster_config(11, true), &schedule);
    chaos.run_until(TimeMs::from_secs(90));
    let convergence = chaos.convergence();
    assert_eq!(convergence.len(), 1);
    assert!(
        convergence[0].converged_at.is_some(),
        "restarted node never reconverged into the survivors' views"
    );
}

/// A scripted join through a single contact enters the group and delivers.
#[test]
fn scripted_join_enters_and_delivers() {
    use adaptive_gossip::chaos::ChaosSchedule;
    let mut schedule = ChaosSchedule::new();
    let joiner = NodeId::new(29);
    schedule.join(TimeMs::from_secs(12), joiner, vec![NodeId::new(4)]);
    let mut chaos = ChaosCluster::new(cluster_config(3, true), &schedule);
    chaos.run_until(TimeMs::from_secs(50));
    // The joiner is up, known to a quorum, and received traffic.
    assert!(!chaos.cluster().is_down(joiner));
    let conv = chaos.convergence();
    assert_eq!(conv.len(), 1);
    assert!(conv[0].converged_at.is_some(), "joiner never converged");
    let m = chaos.metrics();
    assert!(m.membership_timeline().up_at(joiner, TimeMs::from_secs(13)));
}
