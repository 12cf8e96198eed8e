//! Acceptance scenarios for dissemination tracing (`agb-trace`): the
//! trace is a pure observer (engine fingerprints are identical with
//! tracing on and off, at K = 1 and K = 4), and the trace itself is
//! deterministic (same summary digest across runs and thread counts).

use adaptive_gossip::recovery::RecoveryConfig;
use adaptive_gossip::sim::NetStats;
use adaptive_gossip::trace::{TraceConfig, TraceSummary};
use adaptive_gossip::types::TimeMs;
use adaptive_gossip::workload::{Algorithm, ClusterConfig, GossipCluster};
use proptest::prelude::*;

fn cluster_config(seed: u64, threads: usize, loss: f64, recovery: bool) -> ClusterConfig {
    let mut c = if loss > 0.0 {
        ClusterConfig::lossy(20, seed, loss)
    } else {
        ClusterConfig::new(20, seed)
    };
    c.algorithm = Algorithm::Adaptive;
    c.gossip.fanout = 3;
    c.gossip.max_events = 20;
    c.n_senders = 3;
    c.offered_rate = 6.0;
    c.threads = threads;
    if recovery {
        c.recovery = Some(RecoveryConfig::default());
    }
    c
}

/// Everything observable about the engine side of a run.
type Fingerprint = (NetStats, usize, u64, u64, u64, u64);

fn fingerprint(cluster: &GossipCluster) -> Fingerprint {
    let stats = cluster.sim_stats();
    let m = cluster.metrics();
    (
        stats,
        cluster.peak_queue_depth(),
        cluster.events_processed(),
        m.admitted().total(),
        m.delivered().total(),
        m.recovery().recovered(),
    )
}

fn run_cluster(
    seed: u64,
    threads: usize,
    loss: f64,
    recovery: bool,
    traced: bool,
) -> (Fingerprint, Option<TraceSummary>) {
    let mut config = cluster_config(seed, threads, loss, recovery);
    if traced {
        config.trace = TraceConfig::enabled();
    }
    let mut cluster = GossipCluster::build(config);
    // Tiny threshold: with 20 nodes the worker path must actually run.
    cluster.set_parallel_threshold(2);
    cluster.run_until(TimeMs::from_secs(12));
    (fingerprint(&cluster), cluster.trace_summary("t"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// For random seeds, with and without recovery: enabling tracing
    /// never changes engine results, at K = 1 or K = 4 — and the trace
    /// summary digest itself is identical across those thread counts.
    #[test]
    fn tracing_is_a_pure_observer_at_every_thread_count(
        seed in any::<u64>(),
        loss in 0.0f64..0.2,
        recovery in any::<bool>(),
    ) {
        let (oracle, none) = run_cluster(seed, 1, loss, recovery, false);
        prop_assert!(none.is_none(), "untraced run must have no summary");
        prop_assert!(oracle.0.deliveries > 0, "run too quiet to be a meaningful oracle");
        let mut digests = Vec::new();
        for k in [1usize, 4] {
            let (untraced, _) = run_cluster(seed, k, loss, recovery, false);
            prop_assert_eq!(&untraced, &oracle, "untraced K={} diverged", k);
            let (traced, summary) = run_cluster(seed, k, loss, recovery, true);
            prop_assert_eq!(&traced, &oracle, "traced K={} changed engine results", k);
            let summary = summary.expect("tracing enabled");
            prop_assert!(summary.counts.delivers > 0, "trace saw no deliveries");
            digests.push(summary.digest);
        }
        prop_assert_eq!(digests[0], digests[1], "trace digest must not depend on K");
    }
}

/// Two identical traced runs produce byte-identical `TraceSummary`
/// JSON — the property the committed `TRACE.json` reference and its
/// replay by `repro verify` rely on.
#[test]
fn trace_summary_json_is_reproducible() {
    let run = || {
        let (_, summary) = run_cluster(42, 2, 0.1, true, true);
        summary.expect("tracing enabled").to_json().pretty()
    };
    assert_eq!(run(), run());
}
