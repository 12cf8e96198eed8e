//! Observability experiment — `repro telemetry`: the live wall-clock
//! telemetry plane exercised end to end.
//!
//! A threaded [`RuntimeCluster`] runs over real UDP sockets with
//! sender-side injected loss and pull-based recovery, every node serving
//! `GET /metrics`. Mid-run, each endpoint is scraped over raw TCP and the
//! per-node snapshots are merged; the end-of-run registries yield the
//! live-ops totals and the cluster-wide delivery-latency SLO report
//! (p50/p90/p99/p999 straight off the summed histogram buckets). Those
//! numbers are wall-clock: they vary run to run, and prove the plane
//! works, not that it reproduces.
//!
//! What does reproduce is the vocabulary. Every node registers all of
//! its series before its thread starts, so the list of series the
//! cluster exposes is a pure function of the code.
//! `TELEMETRY.json` (schema [`TELEMETRY_SCHEMA`]) pins that list and an
//! FNV digest over it; its `runtime` object is wall-clock, and
//! `repro verify` compares everything else byte for byte. The pin
//! matters because readers sum series by name through
//! [`Snapshot::counter_sum`], where a series that vanished reads as 0
//! instead of failing.

use std::collections::BTreeSet;
use std::net::{IpAddr, Ipv4Addr};
use std::time::Duration;

use agb_core::{AdaptationConfig, GossipConfig};
use agb_metrics::{format_f64, Table};
use agb_recovery::RecoveryConfig;
use agb_runtime::{RuntimeCluster, RuntimeClusterConfig, TransportKind};
use agb_telemetry::{names, parse_text, scrape, Snapshot, TelemetryConfig};
use agb_types::{fnv1a, json::Json, DurationMs};

use crate::common::quick_mode;
use crate::report::{Report, WallClock};

/// Schema identifier written into `TELEMETRY.json`.
pub const TELEMETRY_SCHEMA: &str = "agb-telemetry/v2";

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

/// The whole report behind `repro telemetry` and `TELEMETRY.json`.
#[derive(Debug, Clone)]
pub struct TelemetryReport {
    /// The experiment seed.
    pub seed: u64,
    /// Whether quick mode sized the scenario.
    pub quick: bool,
    /// The wall-clock runtime leg.
    pub runtime: RuntimeLeg,
    /// Every series the runtime leg's nodes registered, written
    /// `name{label="value",…}` without the `node` label, sorted.
    pub series: Vec<String>,
    /// FNV digest over `series`, one per line.
    pub repro_digest: u64,
}

/// Every series in `snapshot`, written `name{label="value",…}` without
/// the `node` label, sorted and de-duplicated: the cluster's metric
/// vocabulary, whatever the group size.
fn series_list(snapshot: &Snapshot) -> Vec<String> {
    let ids = snapshot.counters.keys();
    let ids = ids
        .chain(snapshot.gauges.keys())
        .chain(snapshot.histograms.keys());
    let series: BTreeSet<String> = ids
        .map(|(name, labels)| {
            let labels: Vec<String> = labels
                .iter()
                .filter(|(k, _)| k != "node")
                .map(|(k, v)| format!("{k}=\"{v}\""))
                .collect();
            if labels.is_empty() {
                name.clone()
            } else {
                format!("{name}{{{}}}", labels.join(","))
            }
        })
        .collect();
    series.into_iter().collect()
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

impl Report for TelemetryReport {
    const NAME: &'static str = "telemetry";
    const FILE: &'static str = "TELEMETRY.json";
    /// The runtime leg: its `runtime` JSON object and the live-ops and
    /// SLO tables.
    const WALL_CLOCK: WallClock = WallClock {
        json_keys: &["runtime"],
        tables: true,
    };

    /// Runs the runtime leg and lists the series it registered.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from the runtime leg.
    fn run(seed: u64) -> std::io::Result<Self> {
        let runtime = run_runtime_leg(seed)?;
        let series = series_list(&runtime.snapshot);
        let repro_digest = fnv1a(series.join("\n").as_bytes());
        Ok(TelemetryReport {
            seed,
            quick: quick_mode(),
            runtime,
            series,
            repro_digest,
        })
    }

    /// The live-ops dashboard and the SLO report, both wall-clock.
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
                    h.count().to_string(),
                    ms(h.mean()),
                    ms(h.quantile(0.5)),
                    ms(h.quantile(0.9)),
                    ms(h.quantile(0.99)),
                    ms(h.quantile(0.999)),
                ]);
            }
            t
        };
        vec![liveops, slo]
    }

    /// The runtime leg fails when it produced none of the evidence the
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
            Some(h) if h.count() > 0 => {}
            _ => out.push("runtime: delivery-latency histogram is empty".into()),
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
                "series",
                Json::Arr(self.series.iter().map(|s| Json::from(s.as_str())).collect()),
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
        // The series list is a pure function of the code: one node's
        // telemetry, registered and never run, yields the same list.
        let registry = agb_telemetry::Registry::new();
        let node = agb_types::NodeId::new(0);
        let _ = agb_runtime::NodeTelemetry::new(&registry, node, std::time::Instant::now());
        assert_eq!(report.series, series_list(&registry.snapshot()));
        assert!(report
            .series
            .contains(&"agb_drops_total{cause=\"age\"}".to_string()));
        assert!(report.series.iter().all(|s| !s.contains("node=")));
        // Dashboard tables render.
        let tables = report.tables();
        assert!(tables[0].to_string().contains("agb_deliveries_total"));
        assert!(tables[1]
            .to_string()
            .contains("agb_delivery_latency_seconds"));
    }
}
