//! Scripted churn against a partial-view gossip group: one seed-driven
//! chaos schedule (crashes with state-loss restarts, failure-detector
//! evictions, a link flap) replayed over the static baseline and over
//! adaptive gossip + pull-based recovery, reporting delivery among
//! *correct* nodes, post-rejoin catch-up and view re-convergence.
//!
//! Run with: `cargo run --release --example churn_chaos`

use adaptive_gossip::chaos::{ChaosCluster, ChurnProfile};
use adaptive_gossip::membership::PartialViewConfig;
use adaptive_gossip::recovery::RecoveryConfig;
use adaptive_gossip::types::{DurationMs, TimeMs};
use adaptive_gossip::workload::{Algorithm, ClusterConfig, MembershipKind};

fn config(with_recovery: bool) -> ClusterConfig {
    let mut c = ClusterConfig::lossy(40, 42, 0.1);
    c.membership = MembershipKind::Partial(PartialViewConfig::default());
    c.gossip.fanout = 3;
    c.gossip.age_cap = 4;
    c.gossip.max_events = 30;
    c.n_senders = 4;
    c.offered_rate = 8.0;
    if with_recovery {
        c.algorithm = Algorithm::Adaptive;
        c.adaptation.initial_rate = 2.0;
        c.recovery = Some(RecoveryConfig::default());
    }
    c
}

fn main() {
    // Twelve crashes per minute over the middle 60 s: each victim loses
    // its state and rejoins through the membership protocol; two
    // survivors per crash evict the victim after a 2 s detection delay.
    let mut profile = ChurnProfile::crashes(
        40,
        TimeMs::from_secs(15),
        TimeMs::from_secs(75),
        12.0,
        DurationMs::from_secs(8),
        4,
    );
    profile.detectors = 2;
    profile.link_flaps = 2;
    let schedule = profile.generate(42);
    println!(
        "== scripted churn: {} chaos events over 60 s ==",
        schedule.len()
    );

    for with_recovery in [false, true] {
        let mut chaos = ChaosCluster::new(config(with_recovery), &schedule);
        chaos.run_until(TimeMs::from_secs(100));
        let summary = chaos.summary(
            (TimeMs::from_secs(10), TimeMs::from_secs(80)),
            DurationMs::from_secs(10),
        );
        let label = if with_recovery {
            "adaptive+recovery"
        } else {
            "static lpbcast   "
        };
        println!(
            "{label}: correct-node delivery {:5.1}%  atomic {:5.1}%  recovered {:5}  \
             catch-up {:6.0} ms  view convergence {:6.0} ms",
            summary.correct.avg_receiver_fraction * 100.0,
            summary.correct.atomic_fraction * 100.0,
            summary.recovered,
            summary.mean_catch_up_ms.unwrap_or(0.0),
            summary.mean_convergence_ms.unwrap_or(0.0),
        );
        println!(
            "                   digest {:#018x} (same seed => same digest)",
            summary.digest()
        );
    }
}
