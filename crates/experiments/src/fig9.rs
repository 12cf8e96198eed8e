//! Figure 9 — adaptation to dynamic buffer sizes.
//!
//! The system starts with every node at 90 buffers and an offered load
//! below capacity. At `t₁`, 20% of the nodes shrink their buffers to 45
//! (capacity collapses below the offered load); at `t₂` they grow to 60
//! (still below the initial capacity). The adaptive senders must track the
//! "ideal" maximum rate through both transitions, and atomicity must stay
//! high while baseline lpbcast's collapses.
//!
//! The paper validated this scenario both in simulation and on its 60-
//! workstation prototype; [`run_sim`] and [`run_runtime`] reproduce both
//! legs (the runtime leg runs the same protocol over real UDP sockets with
//! time compressed by [`Fig9Config::runtime_time_scale`]).

use agb_metrics::Table;
use agb_types::{DurationMs, NodeId, TimeMs};
use agb_workload::{Algorithm, GossipCluster};

use crate::common::{
    paper_cluster, quick_mode, ATOMICITY_THRESHOLD, MAX_RATE_SLOPE, N_NODES, N_SENDERS,
};

/// Scenario parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig9Config {
    /// Experiment seed.
    pub seed: u64,
    /// Baseline buffer capacity (90 in the paper).
    pub base_buffer: usize,
    /// Capacity after the shrink (45).
    pub shrink_to: usize,
    /// Capacity after the partial recovery (60).
    pub grow_to: usize,
    /// How many nodes change (20% of the group).
    pub affected: usize,
    /// Shrink time.
    pub t1: TimeMs,
    /// Grow time.
    pub t2: TimeMs,
    /// End of the run.
    pub end: TimeMs,
    /// Offered aggregate load: below `max(base_buffer)` but above
    /// `max(grow_to)`.
    pub offered: f64,
    /// Time-series bin for the report.
    pub bin: DurationMs,
    /// Time compression of the threaded-runtime leg (e.g. 10 = the 1 s
    /// gossip period becomes 100 ms of wall-clock time).
    pub runtime_time_scale: u32,
}

impl Fig9Config {
    /// The paper's scenario (quick-mode aware).
    pub fn standard(seed: u64) -> Self {
        let (t1, t2, end) = if quick_mode() {
            (80u64, 170, 260)
        } else {
            (150, 300, 450)
        };
        Fig9Config {
            seed,
            base_buffer: 90,
            shrink_to: 45,
            grow_to: 60,
            affected: N_NODES / 5,
            t1: TimeMs::from_secs(t1),
            t2: TimeMs::from_secs(t2),
            end: TimeMs::from_secs(end),
            offered: MAX_RATE_SLOPE * 90.0 * 0.95,
            bin: DurationMs::from_secs(15),
            runtime_time_scale: 10,
        }
    }

    /// Nodes whose buffers change: the last `affected` nodes, so the
    /// sender population (nodes 0..N_SENDERS) keeps stable resources.
    pub fn affected_nodes(&self) -> Vec<NodeId> {
        (N_NODES - self.affected..N_NODES)
            .map(|i| NodeId::new(i as u32))
            .collect()
    }

    /// The "ideal" maximum sustainable rate at time `t`: the calibrated
    /// slope times the smallest buffer in the group.
    pub fn ideal_at(&self, t: TimeMs) -> f64 {
        let min_buffer = if t < self.t1 {
            self.base_buffer
        } else if t < self.t2 {
            self.shrink_to
        } else {
            self.grow_to
        };
        (MAX_RATE_SLOPE * min_buffer as f64).min(self.offered)
    }
}

/// One time-series row of the figure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig9Row {
    /// Bin start.
    pub time: TimeMs,
    /// Aggregate allowed rate of the adaptive senders (Fig. 9(a) "real").
    pub allowed: f64,
    /// The ideal maximum for the configuration in force (Fig. 9(a)
    /// dotted).
    pub ideal: f64,
    /// Adaptive atomicity in this bin (Fig. 9(b)).
    pub atomic_adaptive: f64,
    /// Baseline lpbcast atomicity in this bin (Fig. 9(b)).
    pub atomic_lpbcast: f64,
}

/// Aggregates of one simulation leg.
#[derive(Debug, Clone)]
pub struct Fig9Result {
    /// The time series.
    pub rows: Vec<Fig9Row>,
    /// Adaptive atomicity over the final phase (buffer = `grow_to`): the
    /// number the paper quotes as 87% (simulation) vs 92% (prototype).
    pub final_phase_atomicity: f64,
    /// Baseline atomicity over the final phase.
    pub final_phase_atomicity_lpbcast: f64,
}

fn build_cluster(config: &Fig9Config, algorithm: Algorithm) -> GossipCluster {
    let cc = paper_cluster(algorithm, config.base_buffer, config.offered, config.seed);
    let mut cluster = GossipCluster::build(cc);
    for node in config.affected_nodes() {
        cluster.schedule_resize(config.t1, node, config.shrink_to);
    }
    for node in config.affected_nodes() {
        cluster.schedule_resize(config.t2, node, config.grow_to);
    }
    cluster
}

/// Runs the simulation legs (adaptive and lpbcast) and assembles the time
/// series.
pub fn run_sim(config: &Fig9Config) -> Fig9Result {
    let mut adaptive = build_cluster(config, Algorithm::Adaptive);
    adaptive.run_until(config.end);
    let mut lpbcast = build_cluster(config, Algorithm::Lpbcast);
    lpbcast.run_until(config.end);

    let bin = config.bin;
    let ad_metrics = adaptive.metrics();
    let lp_metrics = lpbcast.metrics();
    let allowed_series = ad_metrics.allowed().aggregate_series(bin, config.end);
    let ad_atomic = ad_metrics
        .deliveries()
        .atomicity_series(ATOMICITY_THRESHOLD, bin);
    let lp_atomic = lp_metrics
        .deliveries()
        .atomicity_series(ATOMICITY_THRESHOLD, bin);

    let lookup = |series: &[(TimeMs, agb_metrics::AtomicityReport)], t: TimeMs| {
        series
            .iter()
            .find(|&&(bt, _)| bt == t)
            .map(|&(_, r)| r.atomic_fraction)
    };

    let mut rows = Vec::new();
    for &(t, allowed) in &allowed_series {
        if t + bin >= config.end {
            // The last bin's messages are still in flight at the horizon;
            // reporting it would show a spurious atomicity collapse.
            break;
        }
        rows.push(Fig9Row {
            time: t,
            allowed,
            ideal: config.ideal_at(t),
            atomic_adaptive: lookup(&ad_atomic, t).unwrap_or(f64::NAN),
            atomic_lpbcast: lookup(&lp_atomic, t).unwrap_or(f64::NAN),
        });
    }

    let final_window = Some((config.t2 + bin, config.end - bin));
    let final_phase_atomicity = ad_metrics
        .deliveries()
        .atomicity(ATOMICITY_THRESHOLD, final_window)
        .atomic_fraction;
    let final_phase_atomicity_lpbcast = lp_metrics
        .deliveries()
        .atomicity(ATOMICITY_THRESHOLD, final_window)
        .atomic_fraction;

    Fig9Result {
        rows,
        final_phase_atomicity,
        final_phase_atomicity_lpbcast,
    }
}

/// Aggregates of the threaded-runtime leg.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig9RuntimeResult {
    /// Atomicity over the final phase on the real runtime.
    pub final_phase_atomicity: f64,
    /// Messages observed in the final phase.
    pub messages: usize,
}

/// Runs the adaptive leg on the threaded UDP runtime with compressed time.
///
/// # Errors
///
/// Propagates socket errors from the UDP transport.
pub fn run_runtime(config: &Fig9Config) -> std::io::Result<Fig9RuntimeResult> {
    use agb_runtime::{RuntimeCluster, RuntimeClusterConfig, TransportKind};

    let scale = config.runtime_time_scale.max(1);
    let scale_f = f64::from(scale);
    let mut gossip = crate::common::paper_gossip(config.base_buffer);
    gossip.gossip_period = gossip.gossip_period / u64::from(scale);
    let mut adaptation =
        crate::common::paper_adaptation(config.offered * scale_f / N_SENDERS as f64);
    adaptation.min_buff.sample_period = adaptation.min_buff.sample_period / u64::from(scale);
    adaptation.rate.max_rate *= scale_f;

    let rc = RuntimeClusterConfig {
        n_nodes: N_NODES,
        seed: config.seed,
        adaptive: true,
        gossip,
        adaptation,
        n_senders: N_SENDERS,
        offered_rate: config.offered * scale_f,
        payload_size: 8,
        transport: TransportKind::Udp,
        metrics_bin: DurationMs::from_millis(1_000 / u64::from(scale)),
        recovery: None,
        bind_addr: std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
        loss: 0.0,
        telemetry: agb_telemetry::TelemetryConfig::disabled(),
        detector: None,
        adversary: None,
        profile: agb_profile::ProfileConfig::disabled(),
    };
    let cluster = RuntimeCluster::start(rc)?;
    let scaled = |ms: u64| std::time::Duration::from_millis(ms / u64::from(scale));

    cluster.run_for(scaled(config.t1.as_millis()));
    cluster.resize_group(config.affected_nodes(), config.shrink_to);
    cluster.run_for(scaled((config.t2 - config.t1).as_millis()));
    cluster.resize_group(config.affected_nodes(), config.grow_to);
    cluster.run_for(scaled((config.end - config.t2).as_millis()));
    let metrics = cluster.stop();

    let from = TimeMs::from_millis((config.t2 + config.bin).as_millis() / u64::from(scale));
    let to = TimeMs::from_millis((config.end - config.bin).as_millis() / u64::from(scale));
    let report = metrics
        .deliveries()
        .atomicity(ATOMICITY_THRESHOLD, Some((from, to)));
    Ok(Fig9RuntimeResult {
        final_phase_atomicity: report.atomic_fraction,
        messages: report.messages,
    })
}

/// Formats the time series as the paper's figure.
pub fn table(config: &Fig9Config, result: &Fig9Result) -> Table {
    let mut t = Table::new(
        format!(
            "Figure 9: dynamic buffer size (20% of nodes: {}→{} at {}, {}→{} at {})",
            config.base_buffer,
            config.shrink_to,
            config.t1,
            config.shrink_to,
            config.grow_to,
            config.t2
        ),
        &[
            "time (s)",
            "allowed (msg/s)",
            "ideal (msg/s)",
            "atomic adaptive (%)",
            "atomic lpbcast (%)",
        ],
    );
    for r in &result.rows {
        t.row(&[
            agb_metrics::format_f64(r.time.as_secs_f64()),
            agb_metrics::format_f64(r.allowed),
            agb_metrics::format_f64(r.ideal),
            if r.atomic_adaptive.is_nan() {
                "-".into()
            } else {
                agb_metrics::format_f64(r.atomic_adaptive * 100.0)
            },
            if r.atomic_lpbcast.is_nan() {
                "-".into()
            } else {
                agb_metrics::format_f64(r.atomic_lpbcast * 100.0)
            },
        ]);
    }
    t
}
