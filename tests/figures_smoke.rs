//! Scaled-down qualitative checks of every figure's *shape* — the
//! assertions that make the reproduction regression-tested. Full-scale
//! numbers come from `repro fig2` … `repro fig9`.

use adaptive_gossip::experiments::common::{paper_adaptation, Windows};
use adaptive_gossip::types::{DurationMs, TimeMs};
use adaptive_gossip::workload::{Algorithm, ClusterConfig, GossipCluster};

/// A 24-node miniature of the paper cluster.
fn mini(algorithm: Algorithm, buffer: usize, offered: f64, seed: u64) -> ClusterConfig {
    let mut c = ClusterConfig::new(24, seed);
    c.algorithm = algorithm;
    c.gossip.max_events = buffer;
    c.n_senders = 4;
    c.offered_rate = offered;
    c.adaptation = paper_adaptation(offered / 4.0);
    c.max_backlog = ((2.0 * offered / 4.0).ceil() as usize).max(4);
    c
}

fn mini_windows() -> Windows {
    Windows {
        warmup: DurationMs::from_secs(30),
        measure: DurationMs::from_secs(60),
        cooldown: DurationMs::from_secs(15),
    }
}

fn run(config: ClusterConfig) -> adaptive_gossip::experiments::common::RunOutcome {
    adaptive_gossip::experiments::common::run_measured(config, mini_windows())
}

#[test]
fn fig2_shape_reliability_degrades_with_rate() {
    // Fixed small buffer, growing rate: atomicity must be monotonically
    // non-increasing (within noise) and collapse at the high end.
    let atomic = |rate: f64| run(mini(Algorithm::Lpbcast, 15, rate, 1)).atomic_fraction;
    let low = atomic(5.0);
    let mid = atomic(25.0);
    let high = atomic(60.0);
    assert!(low > 0.95, "low rate must be reliable: {low}");
    assert!(high < 0.5, "high rate must collapse: {high}");
    assert!(low >= mid - 0.1 && mid >= high - 0.1, "{low} {mid} {high}");
}

#[test]
fn fig4_shape_max_rate_grows_with_buffer_and_knee_age_constant() {
    use adaptive_gossip::experiments::calibrate::Criterion;
    // Tiny calibration at two buffer sizes.
    let windows = mini_windows();
    let probe = |buffer: usize, rate: f64| run(mini(Algorithm::Lpbcast, buffer, rate, 2));
    let knee = |buffer: usize| {
        let criterion = Criterion::Atomic(0.9);
        let mut lo = 2.0;
        let mut hi = buffer as f64 * 3.0;
        for _ in 0..6 {
            let mid = (lo + hi) / 2.0;
            let out = probe(buffer, mid);
            if criterion.met(&out) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        (lo, probe(buffer, lo).drop_age)
    };
    let _ = windows;
    let (rate_small, age_small) = knee(15);
    let (rate_large, age_large) = knee(45);
    assert!(
        rate_large > rate_small * 1.8,
        "max rate must grow ~linearly with buffer: {rate_small} -> {rate_large}"
    );
    // §2.3: the knee drop age is a constant independent of buffer size.
    let (a, b) = (age_small.unwrap_or(0.0), age_large.unwrap_or(0.0));
    assert!(
        (a - b).abs() < 1.0,
        "critical age must be buffer-independent: {a} vs {b}"
    );
}

#[test]
fn fig7_shape_adaptive_output_equals_input_lpbcast_loses() {
    let lp = run(mini(Algorithm::Lpbcast, 15, 40.0, 3));
    let ad = run(mini(Algorithm::Adaptive, 15, 40.0, 3));
    // lpbcast admits everything and loses a chunk of it.
    assert!(lp.input_rate > 35.0, "lpbcast input {}", lp.input_rate);
    assert!(
        lp.output_rate < lp.input_rate * 0.95,
        "lpbcast must lose: in {} out {}",
        lp.input_rate,
        lp.output_rate
    );
    // adaptive bounds input and loses (almost) nothing.
    assert!(
        ad.input_rate < lp.input_rate * 0.8,
        "adaptive must throttle: {}",
        ad.input_rate
    );
    assert!(
        ad.output_rate > ad.input_rate * 0.95,
        "adaptive output must match input: in {} out {}",
        ad.input_rate,
        ad.output_rate
    );
}

#[test]
fn fig8_shape_adaptive_beats_lpbcast_when_congested() {
    let lp = run(mini(Algorithm::Lpbcast, 15, 40.0, 4));
    let ad = run(mini(Algorithm::Adaptive, 15, 40.0, 4));
    assert!(
        ad.atomic_fraction > lp.atomic_fraction + 0.3,
        "adaptive {} vs lpbcast {}",
        ad.atomic_fraction,
        lp.atomic_fraction
    );
    assert!(
        ad.avg_receiver_fraction > lp.avg_receiver_fraction,
        "adaptive receivers {} vs lpbcast {}",
        ad.avg_receiver_fraction,
        lp.avg_receiver_fraction
    );
}

#[test]
fn fig6_shape_allowed_rate_meets_offered_load_above_the_crossover() {
    let offered = 40.0;
    let lp = run(mini(Algorithm::Lpbcast, 15, offered, 6));
    let allowed = |buffer| run(mini(Algorithm::Adaptive, buffer, offered, 6));
    let (small, mid, large) = (allowed(15), allowed(30), allowed(120));
    // Below the crossover the small buffer is congested: adaptive allows
    // well under the offered load that lpbcast admits in full.
    assert!(
        small.mean_allowed < offered * 0.5 && small.mean_allowed < lp.input_rate * 0.5,
        "adaptive must throttle below the crossover: allowed {} vs offered {offered}, lpbcast input {}",
        small.mean_allowed,
        lp.input_rate
    );
    // Above it the buffer's knee exceeds the offered load, which the
    // adaptive senders are then allowed and admit.
    assert!(
        large.input_rate > offered * 0.8,
        "adaptive must admit about the offered load above the crossover: {}",
        large.input_rate
    );
    // In between, the allowed rate rises with the buffer.
    assert!(
        mid.mean_allowed > small.mean_allowed * 1.2 && large.mean_allowed > mid.mean_allowed * 1.2,
        "allowed rate must rise with the buffer: {} -> {} -> {}",
        small.mean_allowed,
        mid.mean_allowed,
        large.mean_allowed
    );
}

#[test]
fn fig9_shape_allowed_rate_tracks_resize() {
    let mut cluster = GossipCluster::build(mini(Algorithm::Adaptive, 40, 35.0, 5));
    let squeezed: Vec<_> = (20..24).map(adaptive_gossip::types::NodeId::new).collect();
    cluster.run_until(TimeMs::from_secs(60));
    let phase1 = cluster.aggregate_allowed_rate(4);
    for &n in &squeezed {
        cluster.schedule_resize(TimeMs::from_secs(61), n, 10);
    }
    cluster.run_until(TimeMs::from_secs(150));
    let phase2 = cluster.aggregate_allowed_rate(4);
    assert!(
        phase2 < phase1 * 0.7,
        "allowed rate must drop after the squeeze: {phase1} -> {phase2}"
    );
}
