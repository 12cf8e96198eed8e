//! Observability experiment — `repro telemetry`: the live wall-clock
//! telemetry plane exercised end to end, plus its deterministic twin.
//!
//! Two legs share one metric vocabulary ([`agb_telemetry::names`]):
//!
//! * **Runtime leg** — a threaded [`RuntimeCluster`] over real UDP
//!   sockets with sender-side injected loss and pull-based recovery,
//!   every node serving `GET /metrics`. Mid-run, each endpoint is
//!   scraped over raw TCP, the per-node snapshots are merged, and the
//!   end-of-run registries yield the cluster-wide delivery-latency SLO
//!   report (p50/p90/p99/p999 straight off the summed histogram
//!   buckets). Wall-clock numbers vary run to run; this leg proves the
//!   plane works, not that it reproduces.
//! * **Sim leg** — the deterministic traced simulation (the
//!   `repro trace` scenario's adaptive+recovery leg), its
//!   [`TraceCounts`] folded through
//!   [`fold_trace_counts`] into the same metric names and rendered as
//!   Prometheus text. That exposition is byte-identical across runs and
//!   thread counts, and so is the trace's timestamp-shift-invariant
//!   `stable_digest`; both feed the repro digest.
//!
//! The report renders a live-ops dashboard (traffic, loss, drops,
//! recovery, SLO quantiles) and machine-readable `TELEMETRY.json`
//! (schema [`TELEMETRY_SCHEMA`]). Its `runtime` object is wall-clock;
//! `repro verify` compares everything else byte for byte.

use std::net::{IpAddr, Ipv4Addr};
use std::time::Duration;

use agb_core::{AdaptationConfig, GossipConfig};
use agb_metrics::{format_f64, Table};
use agb_recovery::RecoveryConfig;
use agb_runtime::{RuntimeCluster, RuntimeClusterConfig, TransportKind};
use agb_telemetry::{
    fold_trace_counts, names, parse_text, scrape, Registry, Snapshot, TelemetryConfig,
};
use agb_trace::TraceCounts;
use agb_types::{fnv1a, json::Json, DurationMs};
use agb_workload::{Algorithm, GossipCluster};

use crate::common::quick_mode;
use crate::report::{Report, WallClock};
use crate::trace::{horizon, trace_cluster};

/// Schema identifier written into `TELEMETRY.json`.
pub const TELEMETRY_SCHEMA: &str = "agb-telemetry/v1";

/// Sender-side injected datagram loss of the runtime leg.
pub const TELEMETRY_LOSS: f64 = 0.15;

/// Runtime-leg group size (quick-mode aware).
pub fn n_nodes() -> usize {
    if quick_mode() {
        8
    } else {
        12
    }
}

/// The runtime leg's cluster: UDP on loopback, lossy, recovering, every
/// node recording and serving telemetry. Also the configuration behind
/// the `telemetry_endpoint` CI smoke binary.
pub fn runtime_config(seed: u64) -> RuntimeClusterConfig {
    let n = n_nodes();
    let mut gossip = GossipConfig::default();
    gossip.gossip_period = DurationMs::from_millis(50);
    RuntimeClusterConfig {
        n_nodes: n,
        seed,
        adaptive: false,
        gossip,
        adaptation: AdaptationConfig::default(),
        n_senders: 4.min(n),
        offered_rate: 40.0,
        // Comfortably above STAMP_LEN, so payloads carry latency stamps.
        payload_size: 32,
        transport: TransportKind::Udp,
        metrics_bin: DurationMs::from_millis(250),
        recovery: Some(RecoveryConfig::default()),
        bind_addr: IpAddr::V4(Ipv4Addr::LOCALHOST),
        loss: TELEMETRY_LOSS,
        telemetry: TelemetryConfig::serving(),
        detector: None,
        adversary: None,
        egress_capacity: 0,
        profile: agb_profile::ProfileConfig::disabled(),
    }
}

/// What the wall-clock runtime leg measured.
#[derive(Debug, Clone)]
pub struct RuntimeLeg {
    /// Group size.
    pub n_nodes: usize,
    /// Injected loss probability.
    pub loss: f64,
    /// Endpoints successfully scraped mid-run (want: all of them).
    pub scraped: usize,
    /// Metric series visible in the merged mid-run scrape.
    pub mid_run_series: usize,
    /// The merged end-of-run snapshot across every node's registry.
    pub snapshot: Snapshot,
}

impl RuntimeLeg {
    /// Cluster-wide delivery-latency SLO quantiles `[p50, p90, p99,
    /// p999]` in seconds, if any deliveries carried stamps.
    pub fn latency_slo(&self) -> Option<[f64; 4]> {
        self.snapshot
            .histogram_merged(names::DELIVERY_LATENCY_SECONDS)?
            .slo_quantiles()
    }
}

/// What the deterministic sim leg produced.
#[derive(Debug, Clone)]
pub struct SimLeg {
    /// Protocol label of the traced leg.
    pub label: &'static str,
    /// The simulation's per-kind trace counts.
    pub counts: TraceCounts,
    /// Timestamp-shift-invariant digest of the trace summary.
    pub stable_digest: u64,
    /// The counts folded through the bridge and rendered as Prometheus
    /// text — byte-identical across runs.
    pub exposition: String,
}

/// The whole report behind `repro telemetry` and `TELEMETRY.json`.
#[derive(Debug, Clone)]
pub struct TelemetryReport {
    /// The experiment seed.
    pub seed: u64,
    /// Whether quick mode sized the scenario.
    pub quick: bool,
    /// The wall-clock runtime leg.
    pub runtime: RuntimeLeg,
    /// The deterministic sim leg.
    pub sim: SimLeg,
    /// Stable FNV digest over the reproducible subset (the sim leg's
    /// exposition text and stable trace digest).
    pub repro_digest: u64,
}

/// Runs the wall-clock runtime leg: sustained publish traffic under
/// injected loss, one mid-run scrape per endpoint, merged registries at
/// the end.
///
/// # Errors
///
/// Propagates socket errors from binding the UDP transports or the
/// telemetry endpoints.
pub fn run_runtime_leg(seed: u64) -> std::io::Result<RuntimeLeg> {
    let config = runtime_config(seed);
    let n = config.n_nodes;
    let loss = config.loss;
    let (warm, tail) = if quick_mode() {
        (Duration::from_millis(500), Duration::from_millis(500))
    } else {
        (Duration::from_millis(1_000), Duration::from_millis(1_000))
    };
    let cluster = RuntimeCluster::start(config)?;
    cluster.run_for(warm);

    // Mid-run scrape: every node's endpoint over raw TCP, merged.
    let mut mid = Snapshot::default();
    let mut scraped = 0;
    for addr in cluster.telemetry_addrs() {
        if let Ok(text) = scrape(addr, Duration::from_secs(2)) {
            mid.merge(&parse_text(&text));
            scraped += 1;
        }
    }
    let mid_run_series = mid.counters.len() + mid.gauges.len() + mid.histograms.len();

    cluster.run_for(tail);

    // End-of-run: merge the registries directly (no sockets needed).
    let mut snapshot = Snapshot::default();
    for r in cluster.telemetry_registries() {
        snapshot.merge(&r.snapshot());
    }
    let _ = cluster.stop();
    Ok(RuntimeLeg {
        n_nodes: n,
        loss,
        scraped,
        mid_run_series,
        snapshot,
    })
}

/// Runs the deterministic sim leg and folds its counts through the
/// bridge into rendered Prometheus text.
pub fn run_sim_leg(seed: u64) -> SimLeg {
    let label = "adaptive+recovery";
    let mut cluster = GossipCluster::build(trace_cluster(Algorithm::Adaptive, true, true, seed));
    cluster.run_until(horizon());
    let summary = cluster.trace_summary(label).expect("tracing enabled");
    let registry = Registry::new();
    fold_trace_counts(
        &registry,
        &[("leg", label), ("surface", "sim")],
        &summary.counts,
    );
    SimLeg {
        label,
        counts: summary.counts,
        stable_digest: summary.stable_digest,
        exposition: registry.render(),
    }
}

impl Report for TelemetryReport {
    const NAME: &'static str = "telemetry";
    const FILE: &'static str = "TELEMETRY.json";
    /// The runtime leg: its `runtime` JSON object and the live-ops and
    /// SLO tables.
    const WALL_CLOCK: WallClock = WallClock {
        json_keys: &["runtime"],
        tables: true,
    };

    /// Runs both legs and assembles the report.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from the runtime leg.
    fn run(seed: u64) -> std::io::Result<Self> {
        let runtime = run_runtime_leg(seed)?;
        let sim = run_sim_leg(seed);
        let mut buf = sim.exposition.clone().into_bytes();
        buf.extend_from_slice(&sim.stable_digest.to_le_bytes());
        let repro_digest = fnv1a(&buf);
        Ok(TelemetryReport {
            seed,
            quick: quick_mode(),
            runtime,
            sim,
            repro_digest,
        })
    }

    /// The live-ops dashboard and the SLO report (both wall-clock), then
    /// the deterministic sim leg.
    fn tables(&self) -> Vec<Table> {
        // Cluster-wide traffic, loss, drop, and recovery totals off the
        // merged end-of-run snapshot.
        let liveops = {
            let s = &self.runtime.snapshot;
            let mut t = Table::new(
                format!(
                    "Telemetry: live cluster totals ({} nodes over UDP, {:.0}% injected loss, \
                     {} endpoints scraped mid-run)",
                    self.runtime.n_nodes,
                    self.runtime.loss * 100.0,
                    self.runtime.scraped
                ),
                &["metric", "total"],
            );
            for name in [
                names::MESSAGES_SENT,
                names::MESSAGES_RECEIVED,
                names::BYTES_SENT,
                names::LOSS_INJECTED,
                names::SEND_ERRORS,
                names::PUBLISHES,
                names::DELIVERIES,
                names::DROPS,
                names::RECOVERY_EVENTS,
                names::ROUNDS,
            ] {
                t.row(&[name.to_string(), s.counter_sum(name).to_string()]);
            }
            t
        };
        // Cluster-wide quantiles off the merged histograms (delivery latency
        // and recovery RTT).
        let slo = {
            let s = &self.runtime.snapshot;
            let mut t = Table::new(
                "Telemetry: wall-clock SLO report (merged log-bucketed histograms)",
                &[
                    "histogram",
                    "count",
                    "mean (ms)",
                    "p50",
                    "p90",
                    "p99",
                    "p999 (ms)",
                ],
            );
            for name in [names::DELIVERY_LATENCY_SECONDS, names::RECOVERY_RTT_SECONDS] {
                let Some(h) = s.histogram_merged(name) else {
                    t.row(&[
                        name.to_string(),
                        "0".into(),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                    ]);
                    continue;
                };
                let ms =
                    |v: Option<f64>| v.map_or_else(|| "-".to_string(), |x| format_f64(x * 1_000.0));
                t.row(&[
                    name.to_string(),
                    h.count.to_string(),
                    ms(h.mean()),
                    ms(h.quantile(0.5)),
                    ms(h.quantile(0.9)),
                    ms(h.quantile(0.99)),
                    ms(h.quantile(0.999)),
                ]);
            }
            t
        };
        // The deterministic twin: the sim leg's counters as folded through
        // the bridge — same metric names as the live plane, reproducible
        // values.
        let sim = {
            let mut t = Table::new(
                format!(
                    "Telemetry: deterministic sim leg ({}) through the bridge",
                    self.sim.label
                ),
                &["metric", "labels", "value"],
            );
            let parsed = parse_text(&self.sim.exposition);
            for ((name, labels), value) in &parsed.counters {
                let rendered: Vec<String> =
                    labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
                t.row(&[name.clone(), rendered.join(","), value.to_string()]);
            }
            t
        };
        vec![liveops, slo, sim]
    }

    /// Either leg fails when it produced none of the evidence the
    /// experiment is after.
    fn failures(&self) -> Vec<String> {
        let mut out = Vec::new();
        let r = &self.runtime;
        let s = &r.snapshot;
        if r.scraped < r.n_nodes {
            out.push(format!(
                "runtime: only {}/{} endpoints answered the mid-run scrape",
                r.scraped, r.n_nodes
            ));
        }
        if r.mid_run_series == 0 {
            out.push("runtime: mid-run scrape carried no series".into());
        }
        if s.counter_sum(names::DELIVERIES) == 0 {
            out.push("runtime: no deliveries recorded".into());
        }
        if s.counter_sum(names::LOSS_INJECTED) == 0 {
            out.push("runtime: injected loss never fired".into());
        }
        match s.histogram_merged(names::DELIVERY_LATENCY_SECONDS) {
            Some(h) if h.count > 0 => {}
            _ => out.push("runtime: delivery-latency histogram is empty".into()),
        }
        if self.sim.counts.delivers == 0 {
            out.push("sim: no deliveries traced".into());
        }
        if !self.sim.exposition.contains(names::DELIVERIES) {
            out.push("sim: bridge exposition is missing the shared vocabulary".into());
        }
        out
    }

    /// The machine-readable report (schema [`TELEMETRY_SCHEMA`]).
    fn to_json(&self) -> Json {
        let s = &self.runtime.snapshot;
        let latency = self
            .runtime
            .latency_slo()
            .map(|q| Json::Arr(q.iter().map(|&v| Json::Num(v)).collect()))
            .unwrap_or(Json::Null);
        Json::obj([
            ("schema", Json::from(TELEMETRY_SCHEMA)),
            ("seed", Json::from(self.seed)),
            ("quick", Json::Bool(self.quick)),
            (
                "runtime",
                Json::obj([
                    // Wall-clock: informative, not comparable across runs.
                    ("wall_clock", Json::Bool(true)),
                    ("n_nodes", Json::from(self.runtime.n_nodes)),
                    ("loss", Json::Num(self.runtime.loss)),
                    ("scraped_endpoints", Json::from(self.runtime.scraped)),
                    ("mid_run_series", Json::from(self.runtime.mid_run_series)),
                    (
                        "messages_sent",
                        Json::from(s.counter_sum(names::MESSAGES_SENT)),
                    ),
                    (
                        "messages_received",
                        Json::from(s.counter_sum(names::MESSAGES_RECEIVED)),
                    ),
                    ("publishes", Json::from(s.counter_sum(names::PUBLISHES))),
                    ("deliveries", Json::from(s.counter_sum(names::DELIVERIES))),
                    (
                        "loss_injected",
                        Json::from(s.counter_sum(names::LOSS_INJECTED)),
                    ),
                    ("send_errors", Json::from(s.counter_sum(names::SEND_ERRORS))),
                    ("drops", Json::from(s.counter_sum(names::DROPS))),
                    (
                        "recovery_events",
                        Json::from(s.counter_sum(names::RECOVERY_EVENTS)),
                    ),
                    ("rounds", Json::from(s.counter_sum(names::ROUNDS))),
                    ("delivery_latency_slo_seconds", latency),
                ]),
            ),
            (
                "sim",
                Json::obj([
                    ("label", Json::from(self.sim.label)),
                    ("counts", self.sim.counts.to_json()),
                    (
                        "stable_digest",
                        Json::Str(format!("{:#018x}", self.sim.stable_digest)),
                    ),
                    ("exposition", Json::Str(self.sim.exposition.clone())),
                ]),
            ),
            (
                "repro_digest",
                Json::Str(format!("{:#018x}", self.repro_digest)),
            ),
        ])
    }

    fn digest(&self) -> u64 {
        self.repro_digest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runtime_config_is_lossy_serving_and_stampable() {
        let c = runtime_config(1);
        assert!(c.telemetry.enabled && c.telemetry.serve);
        assert!(c.loss > 0.0);
        assert!(c.recovery.is_some());
        assert!(c.payload_size >= agb_runtime::STAMP_LEN);
        assert!(c.gossip.validate().is_ok());
    }

    #[test]
    fn sim_leg_is_reproducible_and_uses_shared_names() {
        let a = run_sim_leg(5);
        let b = run_sim_leg(5);
        assert_eq!(a.exposition, b.exposition, "exposition must be stable");
        assert_eq!(a.stable_digest, b.stable_digest);
        assert!(a.counts.delivers > 0);
        assert!(a.exposition.contains(names::DELIVERIES));
        assert!(a.exposition.contains("surface=\"sim\""));
    }

    #[test]
    fn full_report_round_trips_and_diffs_clean() {
        let report = TelemetryReport::run(9).expect("runtime leg starts");
        assert_eq!(report.failures(), Vec::<String>::new());
        let json = report.to_json();
        assert_eq!(json.get("schema").unwrap().as_str(), Some(TELEMETRY_SCHEMA));
        let parsed = Json::parse(&json.pretty()).unwrap();
        assert_eq!(
            parsed.get("repro_digest").unwrap().as_str(),
            Some(format!("{:#018x}", report.repro_digest).as_str())
        );
        // The reproducible subset really is reproducible: the sim leg
        // re-run yields the identical repro JSON.
        let again = run_sim_leg(9);
        assert_eq!(again.exposition, report.sim.exposition);
        // Dashboard tables render.
        let tables = report.tables();
        assert!(tables[0].to_string().contains("agb_deliveries_total"));
        assert!(tables[1]
            .to_string()
            .contains("agb_delivery_latency_seconds"));
        assert!(tables[2].to_string().contains("surface=sim"));
    }
}
