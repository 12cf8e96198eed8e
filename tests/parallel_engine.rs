//! Acceptance scenarios for the sharded parallel simulation engine:
//! every thread count `K` reproduces the single-threaded run bit for
//! bit — engine checksum, message counts, queue peak, collected metrics
//! and chaos digests — across loss, link faults, recovery and scripted
//! churn.

use adaptive_gossip::chaos::{ChaosCluster, ChaosSchedule};
use adaptive_gossip::metrics::{AtomicityReport, MessageRecord, RecoveryStats};
use adaptive_gossip::recovery::RecoveryConfig;
use adaptive_gossip::sim::NetStats;
use adaptive_gossip::types::{DurationMs, EventId, NodeId, TimeMs};
use adaptive_gossip::workload::{Algorithm, ClusterConfig, GossipCluster, MembershipKind};
use proptest::prelude::*;

/// A small but busy cluster: adaptive gossip, senders, jittered
/// latency, optional loss/link-fault/recovery perturbations.
fn cluster_config(seed: u64, threads: usize, loss: f64, recovery: bool) -> ClusterConfig {
    let mut c = if loss > 0.0 {
        ClusterConfig::lossy(24, seed, loss)
    } else {
        ClusterConfig::new(24, seed)
    };
    c.algorithm = Algorithm::Adaptive;
    c.gossip.fanout = 3;
    c.gossip.max_events = 24;
    c.n_senders = 3;
    c.offered_rate = 6.0;
    c.adaptation.initial_rate = 2.0;
    c.threads = threads;
    if recovery {
        c.recovery = Some(RecoveryConfig::default());
    }
    c
}

/// Everything observable about a run: engine stats (incl. the
/// order-sensitive checksum), queue peak, and the metrics merged from
/// the shards' partial collectors, down to each message's receivers, so
/// a merge that drops a partial or counts a receiver twice diverges.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    stats: NetStats,
    peak_queue_depth: usize,
    events_processed: u64,
    admitted: u64,
    delivered: u64,
    /// Every message's record in id order: admission, receiver set and
    /// count, first and last delivery, and the sum of delivery ages.
    messages: Vec<(EventId, MessageRecord)>,
    atomicity: AtomicityReport,
    /// Overflow drops: count and mean age.
    overflow_drops: (u64, Option<f64>),
    allowed_rates: Vec<(TimeMs, f64)>,
    recovery: RecoveryStats,
}

fn fingerprint(cluster: &GossipCluster) -> Fingerprint {
    let m = cluster.metrics();
    let mut messages: Vec<_> = m
        .deliveries()
        .iter()
        .map(|(&id, r)| (id, r.clone()))
        .collect();
    messages.sort_by_key(|&(id, _)| id);
    Fingerprint {
        stats: cluster.sim_stats(),
        peak_queue_depth: cluster.peak_queue_depth(),
        events_processed: cluster.events_processed(),
        admitted: m.admitted().total(),
        delivered: m.delivered().total(),
        messages,
        atomicity: m.atomicity_95(None),
        overflow_drops: (
            m.drop_ages().overflow_count(),
            m.drop_ages().mean_overflow_age(),
        ),
        allowed_rates: m
            .allowed()
            .aggregate_series(DurationMs::from_secs(1), cluster.now()),
        recovery: m.recovery().clone(),
    }
}

fn run_cluster(
    seed: u64,
    threads: usize,
    loss: f64,
    recovery: bool,
    with_fault: bool,
) -> Fingerprint {
    let mut config = cluster_config(seed, threads, loss, recovery);
    if with_fault {
        config
            .network
            .link_faults
            .push(adaptive_gossip::sim::LinkFault {
                nodes: vec![NodeId::new(1), NodeId::new(5)],
                extra_latency: DurationMs::from_millis(40),
                extra_loss: 0.2,
                from: TimeMs::from_secs(4),
                until: TimeMs::from_secs(9),
            });
    }
    let mut cluster = GossipCluster::build(config);
    // Tiny threshold: with 24 nodes the worker path must actually run,
    // not fall back to inline batches.
    cluster.set_parallel_threshold(2);
    cluster.run_until(TimeMs::from_secs(15));
    fingerprint(&cluster)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The sequential-vs-parallel oracle: for random seeds, with and
    /// without recovery and link faults, K ∈ {2, 4, 8} reproduces the
    /// K = 1 run exactly — metrics, counts and engine checksum.
    #[test]
    fn sharded_runs_match_the_sequential_oracle(
        seed in any::<u64>(),
        loss in 0.0f64..0.25,
        recovery in any::<bool>(),
        with_fault in any::<bool>(),
    ) {
        let oracle = run_cluster(seed, 1, loss, recovery, with_fault);
        prop_assert!(oracle.stats.deliveries > 0, "run too quiet to be a meaningful oracle");
        for k in [2usize, 4, 8] {
            let sharded = run_cluster(seed, k, loss, recovery, with_fault);
            prop_assert_eq!(
                sharded, oracle,
                "K={} diverged from the sequential oracle (loss={}, recovery={}, fault={})",
                k, loss, recovery, with_fault
            );
        }
    }
}

/// A scripted chaos schedule (crash, restart, join, leave, partition,
/// link fault, burst) replayed at K = 4 produces the same
/// `ChaosSummary` digest as at K = 1 — control events pin to merge
/// barriers, so scenario scripting is thread-count-invariant too.
#[test]
fn chaos_schedule_digest_is_thread_count_invariant() {
    let run = |threads: usize| {
        let mut config = cluster_config(21, threads, 0.05, true);
        config.membership = MembershipKind::Partial;
        let joiner = NodeId::new(23);
        let mut s = ChaosSchedule::new();
        s.crash(TimeMs::from_secs(4), NodeId::new(9))
            .restart(TimeMs::from_secs(10), NodeId::new(9))
            .join(TimeMs::from_secs(8), joiner, vec![NodeId::new(2)])
            .leave(TimeMs::from_secs(12), NodeId::new(11))
            .partition(
                TimeMs::from_secs(6),
                TimeMs::from_secs(9),
                (14..20).map(NodeId::new).collect(),
            )
            .link_fault(
                TimeMs::from_secs(5),
                TimeMs::from_secs(11),
                vec![NodeId::new(4)],
                DurationMs::from_millis(50),
                0.25,
            )
            .burst(TimeMs::from_secs(7), NodeId::new(0), 12);
        let mut chaos = ChaosCluster::new(config, &s);
        chaos.cluster_mut().set_parallel_threshold(2);
        chaos.run_until(TimeMs::from_secs(30));
        chaos
            .summary(
                (TimeMs::from_secs(2), TimeMs::from_secs(25)),
                DurationMs::from_secs(8),
            )
            .digest()
    };
    let k1 = run(1);
    let k4 = run(4);
    assert_eq!(k1, k4, "chaos digest must not depend on the thread count");
}

/// `ClusterConfig::threads` defaults from `AGB_THREADS` but is an
/// ordinary field: explicit settings win, and the engine reports what
/// it runs with.
#[test]
fn thread_count_is_config_driven() {
    let mut config = cluster_config(3, 3, 0.0, false);
    config.threads = 3;
    let cluster = GossipCluster::build(config);
    assert_eq!(cluster.threads(), 3);
}
