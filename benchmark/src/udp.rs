//! The `udp-loopback` workload: real node threads exchanging datagrams
//! over 127.0.0.1.

use std::time::Duration;

use agb_core::{AdaptationConfig, GossipConfig, MinBuffConfig, RateConfig};
use agb_profile::ProfileConfig;
use agb_recovery::RecoveryConfig;
use agb_runtime::{RuntimeCluster, RuntimeClusterConfig, TransportKind};
use agb_telemetry::{names, Snapshot, TelemetryConfig};
use agb_types::{DurationMs, TimeMs};
use agb_workload::{Algorithm, ClusterConfig};

use crate::layers;
use crate::process::{self, Calibrator, Stopwatch, CAL_REFERENCE_S};
use crate::replay::{self, ReplayPlan};
use crate::report::{band_quantile, median, Report};
use crate::sim::{self, RECOVERY_ROWS};

const N_NODES: usize = 8;
const N_SENDERS: usize = 4;
/// Aggregate paced offer rate, msgs/s: above what the adaptive
/// controller allows, so it stays engaged.
const OFFERED_RATE: f64 = 400.0;
const LOSS: f64 = 0.05;
const PERIOD: DurationMs = DurationMs::from_millis(100);
const WARMUP: Duration = Duration::from_secs(2);
/// Run on after the window so messages admitted near its end can finish
/// spreading (the age cap is ten periods).
const DRAIN: Duration = Duration::from_millis(1_500);
const SETUP_REPS: usize = 25;
/// Each run's latency percentiles need at least this many messages.
pub const MIN_MESSAGES: usize = 1_000;

fn gossip_and_adaptation() -> (GossipConfig, AdaptationConfig) {
    let gossip = GossipConfig {
        gossip_period: PERIOD,
        fanout: 3,
        max_events: 60,
        ..GossipConfig::default()
    };
    let defaults = AdaptationConfig::default();
    let adaptation = AdaptationConfig {
        initial_rate: 100.0,
        rate: RateConfig {
            max_rate: 10_000.0,
            ..defaults.rate
        },
        min_buff: MinBuffConfig {
            sample_period: DurationMs::from_millis(600),
            ..defaults.min_buff
        },
        ..defaults
    };
    (gossip, adaptation)
}

/// The runtime cluster of the workload.
pub fn runtime_config(seed: u64, profile: bool) -> RuntimeClusterConfig {
    let (gossip, adaptation) = gossip_and_adaptation();
    let mut c = RuntimeClusterConfig::quick(N_NODES, seed);
    c.adaptive = true;
    c.gossip = gossip;
    c.adaptation = adaptation;
    c.n_senders = N_SENDERS;
    c.offered_rate = OFFERED_RATE;
    c.payload_size = 64;
    c.transport = TransportKind::Udp;
    c.metrics_bin = PERIOD;
    c.recovery = Some(RecoveryConfig::default());
    c.loss = LOSS;
    c.telemetry = TelemetryConfig::recording();
    c.profile = if profile {
        ProfileConfig::enabled()
    } else {
        ProfileConfig::disabled()
    };
    c
}

/// The same protocol stack as a simulator cluster, for the replay and
/// component legs.
pub fn replay_config(seed: u64) -> ClusterConfig {
    let (gossip, adaptation) = gossip_and_adaptation();
    let mut c = ClusterConfig::new(N_NODES, seed);
    c.algorithm = Algorithm::Adaptive;
    c.gossip = gossip;
    c.adaptation = adaptation;
    c.n_senders = N_SENDERS;
    c.offered_rate = OFFERED_RATE;
    c.payload_size = 64;
    c.recovery = Some(RecoveryConfig::default());
    c.threads = 1;
    c
}

fn snapshot(cluster: &RuntimeCluster) -> Snapshot {
    let mut merged = Snapshot::default();
    for r in cluster.telemetry_registries() {
        merged.merge(&r.snapshot());
    }
    merged
}

fn kind_sum(s: &Snapshot, name: &str, kind: &str) -> u64 {
    s.counters
        .iter()
        .filter(|((n, labels), _)| {
            n == name && labels.iter().any(|(k, v)| k == "kind" && v == kind)
        })
        .map(|(_, v)| v)
        .sum()
}

/// Counter deltas and clocks over one measured window.
struct Window {
    wall_s: f64,
    /// Process CPU seconds, less what the calibration itself used.
    cpu_s: f64,
    /// Calibration times sampled through the window.
    cals: Vec<f64>,
    allocs: u64,
    from: TimeMs,
    to: TimeMs,
    start: Snapshot,
    end: Snapshot,
}

impl Window {
    fn delta(&self, name: &str) -> u64 {
        self.end.counter_sum(name) - self.start.counter_sum(name)
    }

    fn kind_delta(&self, name: &str, kind: &str) -> u64 {
        kind_sum(&self.end, name, kind) - kind_sum(&self.start, name, kind)
    }

    fn raw_cpu_ms_per_1k(&self) -> f64 {
        self.cpu_s * 1e3 / (self.delta(names::DELIVERIES).max(1) as f64 / 1e3)
    }

    /// CPU per 1,000 deliveries at reference machine speed.
    fn cpu_ms_per_1k(&self) -> f64 {
        self.raw_cpu_ms_per_1k() * CAL_REFERENCE_S / median(&self.cals)
    }
}

/// Calibration samples per second of measured window.
const CAL_SAMPLES_PER_S: f64 = 2.0;

fn measure(cluster: &RuntimeCluster, seconds: f64, cal: &mut Calibrator) -> Window {
    cluster.run_for(WARMUP);
    let start = snapshot(cluster);
    let from = cluster.elapsed();
    let clock = Stopwatch::start();
    let samples = (seconds * CAL_SAMPLES_PER_S).ceil().max(1.0) as u32;
    let mut cals = Vec::with_capacity(samples as usize);
    let mut cal_cpu = 0.0;
    for i in 1..=samples {
        let due = seconds * f64::from(i) / f64::from(samples);
        cluster.run_for(Duration::from_secs_f64((due - clock.wall_s()).max(0.0)));
        if i < samples {
            let (wall, cpu) = cal.time_with_cpu();
            cals.push(wall);
            cal_cpu += cpu;
        }
    }
    let cpu_s = clock.cpu_s() - cal_cpu;
    let allocs = clock.allocs();
    let wall_s = clock.wall_s();
    let end = snapshot(cluster);
    let to = cluster.elapsed();
    cluster.run_for(DRAIN);
    if cals.is_empty() {
        cals.push(cal.time());
    }
    Window {
        wall_s,
        cpu_s,
        cals,
        allocs,
        from,
        to,
        start,
        end,
    }
}

fn start(config: &RuntimeClusterConfig) -> Result<RuntimeCluster, String> {
    RuntimeCluster::start(config.clone()).map_err(|e| format!("binding UDP sockets: {e}"))
}

/// Runs the workload; `seconds` is the measured window.
pub fn run(seed: u64, seconds: f64, trace: bool, min_messages: usize) -> Result<Report, String> {
    let mut report = Report::default();
    report.env("n_nodes", N_NODES);
    report.env("engine_threads", "none: one OS thread per node");
    report.env(
        "transport",
        "UDP over the loopback interface (127.0.0.1), not a real link",
    );
    if trace {
        return run_traced(seed, seconds, report);
    }

    let config = runtime_config(seed, false);
    let mut cal = Calibrator::new();
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut cluster = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = cluster.take() {
            let _ = RuntimeCluster::stop(previous);
        }
        let (secs, started) = cal.scaled(|| start(&config));
        times.push(secs);
        cluster = Some(started?);
    }
    let cluster = cluster.expect("SETUP_REPS > 0");
    let w = measure(&cluster, seconds, &mut cal);
    let final_snapshot = snapshot(&cluster);
    let metrics = cluster.stop();
    check_run(&metrics, &final_snapshot)?;

    let (lat, lost) = sim::latencies(&metrics, w.from, w.to);
    if lat.len() < min_messages {
        return Err(format!(
            "only {} messages admitted in the window; at least {min_messages} are needed",
            lat.len()
        ));
    }
    let atomicity = metrics.deliveries().atomicity(0.95, Some((w.from, w.to)));
    let deliveries = w.delta(names::DELIVERIES);
    let refused = w.delta(names::OFFERS_REFUSED);
    let publishes = w.delta(names::PUBLISHES);
    report.attempted = refused + publishes;
    report.failed = lost;

    report.set("setup_s", median(&times));
    report.set(
        "node_rounds_per_s",
        w.delta(names::ROUNDS) as f64 / w.wall_s,
    );
    report.set("peak_rss_mib", process::peak_rss_mib());
    drop(cal);
    report.set("delivered_per_s", deliveries as f64 / w.wall_s);
    report.set("latency_ms_p50", band_quantile(&lat, 0.50));
    report.set("latency_ms_p99", band_quantile(&lat, 0.99));
    report.set("cpu_ms_per_1k_deliveries", w.cpu_ms_per_1k());
    report.set(
        "wire_bytes_per_delivery",
        w.delta(names::BYTES_SENT) as f64 / deliveries.max(1) as f64,
    );
    report.set("delivery_ratio", atomicity.avg_receiver_fraction);
    report.set("atomic_ratio", atomicity.atomic_fraction);
    report.set(
        "offer_refused_ratio",
        sim::ratio(refused, refused + publishes),
    );
    report.env("latency_messages", lat.len());
    report.env("calibration_ms", median(&w.cals) * 1e3);
    report.env("raw_cpu_ms_per_1k_deliveries", w.raw_cpu_ms_per_1k());

    // Node state lives inside the node threads; the same stack replayed
    // under the same load gives its resident-bytes estimate.
    let rep = replay::replay(&replay_config(seed), replay_plan(false));
    report.set("bytes_per_node", rep.mem.bytes_per_node() as f64);
    Ok(report)
}

/// The replay covers 80 virtual seconds: node state grows with the
/// messages seen, and a long replay averages over the rate controller's
/// swings so the resident-bytes estimate is steady across seeds.
fn replay_plan(timed: bool) -> ReplayPlan {
    ReplayPlan {
        warm_rounds: 30,
        measure_rounds: 770,
        loss: LOSS,
        encode_every: 1,
        timed,
    }
}

/// Broadcast correctness plus a clean transport: no duplicate or
/// invented delivery, and no datagram failed to send or decode.
fn check_run(metrics: &agb_metrics::MetricsCollector, s: &Snapshot) -> Result<(), String> {
    sim::check_deliveries(metrics)?;
    let decode_errors = s.counter_sum(names::DECODE_ERRORS);
    let send_errors = s.counter_sum(names::SEND_ERRORS);
    if decode_errors != 0 || send_errors != 0 {
        return Err(format!(
            "transport errors: {decode_errors} decode, {send_errors} send"
        ));
    }
    Ok(())
}

fn run_traced(seed: u64, seconds: f64, mut report: Report) -> Result<Report, String> {
    let half = seconds / 2.0;
    let mut cal = Calibrator::new();
    let plain = start(&runtime_config(seed, false))?;
    let reference = measure(&plain, half, &mut cal);
    let _ = plain.stop();

    let cluster = start(&runtime_config(seed, true))?;
    let w = measure(&cluster, half, &mut cal);
    drop(cal);
    let s = snapshot(&cluster);
    let metrics = cluster.stop();
    check_run(&metrics, &s)?;
    let (_, lost) = sim::latencies(&metrics, w.from, w.to);
    let refused = w.delta(names::OFFERS_REFUSED);
    report.attempted = refused + w.delta(names::PUBLISHES);
    report.failed = lost;

    let deliveries = w.delta(names::DELIVERIES).max(1) as f64;
    let rounds = w.delta(names::ROUNDS).max(1) as f64;
    report.set("alloc.per_node_round", w.allocs as f64 / rounds);
    report.set("alloc.per_delivery", w.allocs as f64 / deliveries);
    report.set(
        "transport.datagrams_per_delivery",
        w.delta(names::MESSAGES_SENT) as f64 / deliveries,
    );
    report.set(
        "transport.send_errors",
        s.counter_sum(names::SEND_ERRORS) as f64,
    );
    report.set(
        "transport.decode_errors",
        s.counter_sum(names::DECODE_ERRORS) as f64,
    );
    report.set("egress.sheds", s.counter_sum(names::SHEDS) as f64);
    let p50_us = |name: &str| {
        s.histogram_merged(name)
            .and_then(|h| h.quantile(0.5))
            .map_or(0.0, |secs| secs * 1e6)
    };
    report.set("egress.dwell_us_p50", p50_us(names::EGRESS_DWELL_SECONDS));
    report.set(
        "node.loop_iter_us_p50",
        p50_us(names::LOOP_ITERATION_SECONDS),
    );
    for (metric, kind) in [
        ("node.gossip_frames_per_delivery", "gossip"),
        ("node.graft_frames_per_delivery", "graft"),
        ("node.retransmit_frames_per_delivery", "retransmit"),
    ] {
        report.set(
            metric,
            w.kind_delta(names::MESSAGES_SENT, kind) as f64 / deliveries,
        );
    }
    report.set("adapt.allowed_rate", metrics.allowed().aggregate_at(w.to));
    let rec = metrics.recovery();
    let all_rounds = s.counter_sum(names::ROUNDS).max(1) as f64;
    report.set(
        "recovery.requested_per_node_round",
        rec.requested_ids() as f64 / all_rounds,
    );
    report.set(
        "recovery.recovered_ratio",
        sim::ratio(rec.recovered(), rec.requested_ids()),
    );
    report.set("recovery.abandoned", rec.abandoned() as f64);
    report.set(
        "trace.overhead_ratio",
        w.cpu_ms_per_1k() / reference.cpu_ms_per_1k(),
    );

    let config = replay_config(seed);
    let rep = replay::replay(&config, replay_plan(true));
    sim::protocol_metrics(&rep, &mut report);
    report.set(
        "membership.bytes_per_node",
        replay::rows_per_node(&rep.mem, &["membership_view"]),
    );
    report.set(
        "buffer.bytes_per_node",
        replay::rows_per_node(&rep.mem, &["event_buffer", "event_ids"]),
    );
    report.set(
        "recovery.bytes_per_node",
        replay::rows_per_node(&rep.mem, RECOVERY_ROWS),
    );
    layers::wire_leg(&rep.captured, &mut report)?;
    layers::component_legs(&config, &mut report);
    report.zero_layers(&["sim."]);
    Ok(report)
}
