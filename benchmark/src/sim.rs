//! The simulator workloads: `sim-n10k` and `sim-recovery-lossy`.

use std::time::Instant;

use agb_metrics::MetricsCollector;
use agb_profile::{Phase, ProfileConfig, ProfilerSnapshot};
use agb_recovery::RecoveryConfig;
use agb_sim::NetworkConfig;
use agb_types::{DurationMs, TimeMs};
use agb_workload::{Algorithm, ClusterConfig, GossipCluster, PhaseModel};

use crate::layers;
use crate::process::{self, Calibrator, Stopwatch, CAL_REFERENCE_S};
use crate::replay::{self, ReplayPlan};
use crate::report::{band_quantile, median, Report};

/// One simulator workload.
#[derive(Debug, Clone, Copy)]
pub struct SimSpec {
    pub n: usize,
    pub recovery: bool,
    pub loss: f64,
    /// Engine threads `K`.
    pub threads: usize,
    /// Rounds per wall second the measured window is sized by (about
    /// this workload's pace on a 2-CPU machine). The window is a fixed
    /// number of rounds for a given `--seconds`, so every build of the
    /// program does the same work and state-dependent metrics (memory,
    /// latency) compare like for like; only the time it takes varies.
    pub nominal_rounds_per_s: f64,
}

impl SimSpec {
    /// `sim-n10k`: the largest per-node state, on the parallel engine.
    pub fn n10k() -> Self {
        SimSpec {
            n: 10_000,
            recovery: false,
            loss: 0.0,
            threads: process::nproc().min(2),
            nominal_rounds_per_s: 2.5,
        }
    }

    /// `sim-recovery-lossy`: the recovery layer at work, single-threaded.
    pub fn recovery_lossy() -> Self {
        SimSpec {
            n: 5_000,
            recovery: true,
            loss: 0.05,
            threads: 1,
            nominal_rounds_per_s: 2.2,
        }
    }

    /// Measured rounds for a window of `seconds`.
    pub fn measured_rounds(&self, seconds: f64) -> u64 {
        ((seconds * self.nominal_rounds_per_s).round() as u64).max(MIN_MEASURED_ROUNDS)
    }

    /// The workload's cluster: the paper's adaptive protocol at the
    /// benchmark's scale.
    pub fn cluster_config(&self, seed: u64) -> ClusterConfig {
        let mut c = ClusterConfig::new(self.n, seed);
        c.algorithm = Algorithm::Adaptive;
        c.gossip.fanout = 4;
        c.gossip.gossip_period = DurationMs::from_secs(1);
        c.gossip.max_events = 60;
        c.gossip.max_event_ids = 5_000;
        c.gossip.age_cap = 10;
        c.adaptation.initial_rate = 5.0;
        c.n_senders = 10;
        c.offered_rate = 50.0;
        c.payload_size = 64;
        c.network = if self.loss > 0.0 {
            NetworkConfig::lossy(self.loss)
        } else {
            NetworkConfig::default()
        };
        c.phases = PhaseModel::Synchronized;
        c.recovery = self.recovery.then(RecoveryConfig::default);
        c.threads = self.threads;
        c
    }
}

/// Rounds run before measuring: past the age cap, so buffers are full
/// and the rate controller has engaged.
const WARMUP_ROUNDS: u64 = 12;
/// Messages admitted in the last `DRAIN_ROUNDS` measured rounds are left
/// out of latency and delivery ratios: they may still be spreading.
const DRAIN_ROUNDS: u64 = 20;
const MIN_MEASURED_ROUNDS: u64 = DRAIN_ROUNDS + 10;
/// Cluster builds per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Engine counters at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checkpoint {
    pub checksum: u64,
    pub sends: u64,
    pub deliveries: u64,
}

fn checkpoint(cluster: &GossipCluster) -> Checkpoint {
    let s = cluster.sim_stats();
    Checkpoint {
        checksum: s.checksum,
        sends: s.sends,
        deliveries: s.deliveries,
    }
}

/// Collector totals the window is measured against.
#[derive(Debug, Clone, Copy, Default)]
struct Totals {
    delivered: u64,
    admitted: u64,
    refused: u64,
    requested_ids: u64,
    recovered: u64,
    abandoned: u64,
}

fn totals(cluster: &GossipCluster) -> Totals {
    let m = cluster.metrics();
    Totals {
        delivered: m.delivered().total(),
        admitted: m.admitted().total(),
        refused: cluster.suppressed_offers(),
        requested_ids: m.recovery().requested_ids(),
        recovered: m.recovery().recovered(),
        abandoned: m.recovery().abandoned(),
    }
}

/// What one measured window saw.
struct Window {
    rounds: u64,
    node_rounds: u64,
    /// Wall seconds of each measured round.
    round_walls: Vec<f64>,
    /// Calibration time around each round (mean of before and after).
    round_cals: Vec<f64>,
    wall_s: f64,
    cpu_s: f64,
    allocs: u64,
    events: u64,
    before: Totals,
    after: Totals,
    /// Virtual times bounding the messages latency is measured on.
    admitted_from: TimeMs,
    admitted_to: TimeMs,
    checkpoint: Checkpoint,
    profile: Option<(ProfilerSnapshot, ProfilerSnapshot)>,
}

impl Window {
    fn delivered(&self) -> u64 {
        self.after.delivered - self.before.delivered
    }

    fn admitted(&self) -> u64 {
        self.after.admitted - self.before.admitted
    }

    fn refused(&self) -> u64 {
        self.after.refused - self.before.refused
    }

    /// Node-rounds per second of the median measured round, each round's
    /// time scaled to the reference machine by the calibration around
    /// it: a stall or a slow spell of a shared host moves neither.
    fn node_rounds_per_s(&self) -> f64 {
        let scaled: Vec<f64> = self
            .round_walls
            .iter()
            .zip(&self.round_cals)
            .map(|(wall, cal)| wall * CAL_REFERENCE_S / cal)
            .collect();
        (self.node_rounds / self.rounds) as f64 / median(&scaled)
    }

    /// The same without calibration, for the `env` line.
    fn raw_node_rounds_per_s(&self) -> f64 {
        (self.node_rounds / self.rounds) as f64 / median(&self.round_walls)
    }

    /// Process CPU milliseconds per 1,000 deliveries, at reference speed.
    fn cpu_ms_per_1k(&self) -> f64 {
        let cpu_s = self.cpu_s * CAL_REFERENCE_S / median(&self.round_cals);
        cpu_s * 1e3 / (self.delivered().max(1) as f64 / 1e3)
    }
}

/// Warms the cluster up, then runs `rounds` whole rounds, timing each
/// and the calibration work between them.
fn measure(cluster: &mut GossipCluster, rounds: u64, cal: &mut Calibrator) -> Window {
    let period = cluster.config().round_period();
    let n = cluster.n_nodes() as u64;
    let warm_end = TimeMs::ZERO + period * WARMUP_ROUNDS;
    cluster.run_until(warm_end);
    cluster.reset_peak_queue_depth();

    let before = totals(cluster);
    let events_before = cluster.events_processed();
    let profile_before = cluster.profiler_snapshot();
    let mut cal_before = cal.time();
    let clock = Stopwatch::start();
    let mut round_walls = Vec::with_capacity(rounds as usize);
    let mut round_cals = Vec::with_capacity(rounds as usize);
    for r in 1..=rounds {
        let t = Instant::now();
        cluster.run_until(warm_end + period * r);
        round_walls.push(t.elapsed().as_secs_f64());
        let cal_after = cal.time();
        round_cals.push((cal_before + cal_after) / 2.0);
        cal_before = cal_after;
    }
    let cpu_s = clock.cpu_s();
    let allocs = clock.allocs();
    let profile = profile_before.zip(cluster.profiler_snapshot());
    Window {
        rounds,
        node_rounds: n * rounds,
        wall_s: round_walls.iter().sum(),
        round_walls,
        round_cals,
        cpu_s,
        allocs,
        events: cluster.events_processed() - events_before,
        before,
        after: totals(cluster),
        admitted_from: warm_end,
        admitted_to: warm_end + period * (rounds - DRAIN_ROUNDS),
        checkpoint: checkpoint(cluster),
        profile,
    }
}

/// Broadcast correctness over everything the collector saw: every
/// receiver delivered each message at most once, and nothing was
/// delivered that no node admitted.
pub fn check_deliveries(metrics: &MetricsCollector) -> Result<(), String> {
    let mut receivers = 0u64;
    for (id, rec) in metrics.deliveries().iter() {
        receivers += rec.receiver_count() as u64;
        if rec.receiver_count() > 0 && rec.admitted_at.is_none() {
            return Err(format!("validity: {id:?} was delivered but never admitted"));
        }
    }
    let delivered = metrics.delivered().total();
    if delivered != receivers {
        return Err(format!(
            "duplicate delivery: {delivered} deliveries for {receivers} distinct receivers"
        ));
    }
    Ok(())
}

/// Admission-to-last-receiver latencies (ms) of messages admitted in
/// `[from, to)`, and the messages among them no other node delivered.
pub fn latencies(metrics: &MetricsCollector, from: TimeMs, to: TimeMs) -> (Vec<f64>, u64) {
    let mut lat = Vec::new();
    let mut lost = 0;
    for (_, rec) in metrics.deliveries().iter() {
        let Some(admitted) = rec.admitted_at else {
            continue;
        };
        if admitted < from || admitted >= to {
            continue;
        }
        if rec.receiver_count() <= 1 {
            lost += 1;
        }
        if let Some(last) = rec.last_delivery {
            lat.push(last.since(admitted).as_millis() as f64);
        }
    }
    (lat, lost)
}

/// The engine is deterministic at every thread count: a small replica of
/// the workload, once on one thread and once on two with every batch
/// sent to the workers, must agree exactly.
fn determinism_check(spec: &SimSpec, seed: u64) -> Result<Checkpoint, String> {
    let run = |threads: usize| {
        let mut config = SimSpec {
            n: 200,
            threads,
            ..*spec
        }
        .cluster_config(seed);
        config.n_senders = 4;
        config.offered_rate = 20.0;
        let period = config.round_period();
        let mut cluster = GossipCluster::build(config);
        cluster.set_parallel_threshold(1);
        cluster.run_until(TimeMs::ZERO + period * 20);
        checkpoint(&cluster)
    };
    let (one, two) = (run(1), run(2));
    if one != two {
        return Err(format!(
            "engine diverged between K=1 {one:?} and K=2 {two:?}"
        ));
    }
    Ok(one)
}

/// Builds the cluster [`SETUP_REPS`] times; returns the median build
/// time, at reference speed, and the last cluster.
fn timed_setup(config: &ClusterConfig, cal: &mut Calibrator) -> (f64, GossipCluster) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut cluster = None;
    for _ in 0..SETUP_REPS {
        drop(cluster.take());
        let (secs, built) = cal.scaled(|| GossipCluster::build(config.clone()));
        times.push(secs);
        cluster = Some(built);
    }
    (median(&times), cluster.expect("SETUP_REPS > 0"))
}

/// Runs one simulator workload.
pub fn run(spec: SimSpec, seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    let mut report = Report::default();
    let config = spec.cluster_config(seed);
    report.env("engine_threads", spec.threads);
    report.env("n_nodes", spec.n);
    let replica = determinism_check(&spec, seed)?;
    report.env("replica_checksum", format!("{:#018x}", replica.checksum));

    if trace {
        return run_traced(spec, config, seconds, report);
    }

    let mut cal = Calibrator::new();
    let (setup_s, mut cluster) = timed_setup(&config, &mut cal);
    let w = measure(&mut cluster, spec.measured_rounds(seconds), &mut cal);
    drop(cal);
    report.env("measured_rounds", w.rounds);
    report.env("calibration_ms", median(&w.round_cals) * 1e3);
    report.env("raw_node_rounds_per_s", w.raw_node_rounds_per_s());
    report.env(
        "checkpoint",
        format!(
            "checksum {:#018x} sends {} deliveries {}",
            w.checkpoint.checksum, w.checkpoint.sends, w.checkpoint.deliveries
        ),
    );
    end_to_end(&cluster, &w, setup_s, &mut report)?;
    drop(cluster);

    let rep = replay::replay(&config, replay_plan(&spec, false));
    report.set(
        "wire_bytes_per_delivery",
        rep.wire_bytes / rep.deliveries.max(1) as f64,
    );
    Ok(report)
}

fn replay_plan(spec: &SimSpec, timed: bool) -> ReplayPlan {
    ReplayPlan {
        warm_rounds: WARMUP_ROUNDS,
        measure_rounds: 3,
        loss: spec.loss,
        // Frames of one round share a size distribution; a systematic
        // sample keeps encoding off the large workload's critical path.
        encode_every: if spec.n > 1_000 { 16 } else { 1 },
        timed,
    }
}

/// Checks the run's broadcasts, fills in `attempted` (offers in the
/// window) and `failed`, and returns the latencies of the messages
/// admitted in the window.
fn account(cluster: &GossipCluster, w: &Window, report: &mut Report) -> Result<Vec<f64>, String> {
    let metrics = cluster.metrics();
    check_deliveries(&metrics)?;
    let (lat, lost) = latencies(&metrics, w.admitted_from, w.admitted_to);
    if lat.is_empty() {
        return Err("no message was admitted in the latency window".into());
    }
    report.attempted = w.refused() + w.admitted();
    report.failed = lost;
    Ok(lat)
}

fn end_to_end(
    cluster: &GossipCluster,
    w: &Window,
    setup_s: f64,
    report: &mut Report,
) -> Result<(), String> {
    let lat = account(cluster, w, report)?;
    let atomicity = cluster
        .metrics()
        .deliveries()
        .atomicity(0.95, Some((w.admitted_from, w.admitted_to)));

    report.set("setup_s", setup_s);
    report.set("node_rounds_per_s", w.node_rounds_per_s());
    report.set(
        "bytes_per_node",
        cluster.mem_table().bytes_per_node() as f64,
    );
    report.set("peak_rss_mib", process::peak_rss_mib());
    report.set(
        "delivered_per_s",
        w.delivered() as f64 / w.node_rounds as f64 * w.node_rounds_per_s(),
    );
    report.set("latency_ms_p50", band_quantile(&lat, 0.50));
    report.set("latency_ms_p99", band_quantile(&lat, 0.99));
    report.set("cpu_ms_per_1k_deliveries", w.cpu_ms_per_1k());
    report.set("delivery_ratio", atomicity.avg_receiver_fraction);
    report.set("atomic_ratio", atomicity.atomic_fraction);
    report.set(
        "offer_refused_ratio",
        ratio(w.refused(), w.refused() + w.admitted()),
    );
    report.env("latency_messages", lat.len());
    Ok(())
}

/// Engine phases whose sum should account for the window's wall time.
const TOP_LEVEL: [Phase; 4] = [
    Phase::BatchLift,
    Phase::ShardExec,
    Phase::Merge,
    Phase::Control,
];
/// Accepted share of measured wall time the top-level phases cover.
pub const COVERAGE_TOLERANCE: (f64, f64) = (0.85, 1.05);

fn run_traced(
    spec: SimSpec,
    config: ClusterConfig,
    seconds: f64,
    mut report: Report,
) -> Result<Report, String> {
    // Untraced reference in the same process, for the overhead ratio.
    let rounds = spec.measured_rounds(seconds / 2.0);
    let mut cal = Calibrator::new();
    let mut plain = GossipCluster::build(config.clone());
    let reference = measure(&mut plain, rounds, &mut cal);
    drop(plain);

    let mut profiled = config.clone();
    profiled.profile = ProfileConfig::enabled();
    let mut cluster = GossipCluster::build(profiled);
    if let Some(p) = cluster.profiler_mut() {
        p.set_alloc_counter(agb_perf::alloc::allocation_count);
    }
    let w = measure(&mut cluster, rounds, &mut cal);
    drop(cal);
    if w.checkpoint != reference.checkpoint {
        return Err(format!(
            "profiling perturbed the engine: {:?} vs {:?}",
            w.checkpoint, reference.checkpoint
        ));
    }
    account(&cluster, &w, &mut report)?;

    let (before, after) = w.profile.as_ref().expect("profiled cluster");
    let nr = w.node_rounds as f64;
    let phase_ns = |p: Phase| (after.phase(p).total_ns - before.phase(p).total_ns) as f64;
    report.set("sim.batch_lift_ns", phase_ns(Phase::BatchLift) / nr);
    report.set("sim.shard_exec_ns", phase_ns(Phase::ShardExec) / nr);
    report.set("sim.merge_ns", phase_ns(Phase::Merge) / nr);
    report.set("sim.route_ns", phase_ns(Phase::Route) / nr);
    report.set("sim.control_ns", phase_ns(Phase::Control) / nr);
    let covered: f64 = TOP_LEVEL.iter().map(|&p| phase_ns(p)).sum();
    let coverage = covered / (w.wall_s * 1e9);
    report.set("sim.phase_coverage_ratio", coverage);
    if coverage < COVERAGE_TOLERANCE.0 || coverage > COVERAGE_TOLERANCE.1 {
        return Err(format!(
            "engine phases cover {coverage:.3} of measured wall time, outside {COVERAGE_TOLERANCE:?}"
        ));
    }
    report.set(
        "sim.shard_balance_ratio",
        after.mean_balance_ratio.unwrap_or(1.0),
    );
    report.set("sim.events_per_node_round", w.events as f64 / nr);
    report.set("sim.peak_queue_depth", cluster.peak_queue_depth() as f64);
    report.set("alloc.per_node_round", w.allocs as f64 / nr);
    report.set(
        "alloc.per_delivery",
        w.allocs as f64 / w.delivered().max(1) as f64,
    );

    let mem = cluster.mem_table();
    report.set(
        "membership.bytes_per_node",
        replay::rows_per_node(&mem, &["membership_view"]),
    );
    report.set(
        "buffer.bytes_per_node",
        replay::rows_per_node(&mem, &["event_buffer", "event_ids"]),
    );
    report.set(
        "recovery.bytes_per_node",
        replay::rows_per_node(&mem, RECOVERY_ROWS),
    );
    report.set(
        "adapt.allowed_rate",
        cluster.aggregate_allowed_rate(config.n_senders),
    );
    let requested = w.after.requested_ids - w.before.requested_ids;
    report.set("recovery.requested_per_node_round", requested as f64 / nr);
    report.set(
        "recovery.recovered_ratio",
        ratio(w.after.recovered - w.before.recovered, requested),
    );
    report.set(
        "recovery.abandoned",
        (w.after.abandoned - w.before.abandoned) as f64,
    );
    report.set(
        "trace.overhead_ratio",
        reference.node_rounds_per_s() / w.node_rounds_per_s(),
    );
    report.env("measured_rounds", w.rounds);
    drop(cluster);

    let rep = replay::replay(&config, replay_plan(&spec, true));
    protocol_metrics(&rep, &mut report);
    layers::wire_leg(&rep.captured, &mut report)?;
    drop(rep);
    layers::component_legs(&config, &mut report);
    report.zero_layers(&["transport.", "egress.", "node."]);
    Ok(report)
}

/// Memory-table rows owned by the recovery layer.
pub const RECOVERY_ROWS: &[&str] = &[
    "retransmission_cache",
    "missing_tracker",
    "recovery_seen_ids",
    "recovery_window",
];

pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Protocol-step metrics from a timed replay.
pub fn protocol_metrics(rep: &replay::ReplayOutcome, report: &mut Report) {
    report.set("protocol.on_round_ns", rep.on_round.mean_ns());
    report.set("protocol.on_receive_ns", rep.on_receive.mean_ns());
    report.set("protocol.offer_ns", rep.offer.mean_ns());
    report.set(
        "protocol.frames_per_node_round",
        rep.frames as f64 / rep.node_rounds.max(1) as f64,
    );
    report.set(
        "protocol.events_per_frame",
        rep.gossip_events as f64 / rep.gossip_frames.max(1) as f64,
    );
    report.set(
        "protocol.duplicate_ratio",
        ratio(
            rep.arrivals.saturating_sub(rep.remote_deliveries),
            rep.arrivals,
        ),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(spec: SimSpec) -> SimSpec {
        SimSpec { n: 300, ..spec }
    }

    #[test]
    fn sim_workloads_smoke_at_tiny_size() {
        for spec in [SimSpec::n10k(), SimSpec::recovery_lossy()] {
            for trace in [false, true] {
                let report = run(tiny(spec), 5, 0.5, trace).unwrap_or_else(|e| panic!("{e}"));
                report.result_line(trace).expect("every metric measured");
            }
        }
    }

    #[test]
    fn checksum_is_identical_at_one_and_two_threads() {
        for spec in [SimSpec::n10k(), SimSpec::recovery_lossy()] {
            let first = determinism_check(&spec, 11).expect("K=1 and K=2 agree");
            assert_eq!(
                determinism_check(&spec, 11),
                Ok(first),
                "same seed, same run"
            );
            assert_ne!(determinism_check(&spec, 12), Ok(first), "the seed matters");
        }
    }
}
