//! Observability experiment — `repro trace`: causal dissemination tracing
//! under loss and a partition window, across the three protocol stacks.
//!
//! One lossy, partially-partitioned scenario is run with full trace
//! capture (`agb-trace`) on push-only lpbcast, the adaptive protocol,
//! and adaptive + pull-based recovery. The report renders the trace as a
//! text dashboard — counts, delivery-latency and hop histograms,
//! dissemination-tree statistics, the drop taxonomy, and the
//! recovery-repair table — and as machine-readable `TRACE.json` (schema
//! [`agb_trace::TRACE_SCHEMA`]) whose digest `repro verify` replays at
//! several engine thread counts.
//!
//! Every leg is also re-run with tracing *disabled* and the engine
//! determinism checksums compared: capture must be a pure observer.

use agb_metrics::{format_f64, Table};
use agb_recovery::RecoveryConfig;
use agb_sim::Partition;
use agb_trace::{TraceConfig, TraceSummary, TRACE_SCHEMA};
use agb_types::{fnv1a, json::Json, Histogram, NodeId, TimeMs};
use agb_workload::{Algorithm, ClusterConfig, GossipCluster};

use crate::common::quick_mode;
use crate::report::{metric_row, Report};

/// Independent per-message loss probability of the scenario.
pub const TRACE_LOSS: f64 = 0.10;
/// Gossip fanout — reduced from the paper's 4 so the loss axis bites.
pub const TRACE_FANOUT: usize = 3;
/// Event-buffer capacity: small enough to overflow under the offered
/// load, so `Drop{size}` records appear.
pub const TRACE_BUFFER: usize = 25;
/// Age cap — aggressive purging, so `Drop{age}` records appear.
pub const TRACE_AGE_CAP: u32 = 4;
/// Publisher count.
pub const TRACE_SENDERS: usize = 4;
/// Aggregate offered load, msgs/s.
pub const TRACE_RATE: f64 = 12.0;

/// Group size (quick-mode aware).
pub fn n_nodes() -> usize {
    if quick_mode() {
        24
    } else {
        40
    }
}

/// Run horizon.
fn horizon() -> TimeMs {
    TimeMs::from_secs(if quick_mode() { 60 } else { 90 })
}

/// The protocol legs of the comparison, in run (and report) order.
fn protocols() -> [(&'static str, Algorithm, bool); 3] {
    [
        ("lpbcast", Algorithm::Lpbcast, false),
        ("adaptive", Algorithm::Adaptive, false),
        ("adaptive+recovery", Algorithm::Adaptive, true),
    ]
}

/// The cluster configuration of one leg. `traced` toggles capture; the
/// engine results must not depend on it (checked by the parity leg).
fn trace_cluster(
    algorithm: Algorithm,
    with_recovery: bool,
    traced: bool,
    seed: u64,
) -> ClusterConfig {
    let n = n_nodes();
    let mut c = ClusterConfig::lossy(n, seed, TRACE_LOSS);
    c.algorithm = algorithm;
    c.gossip.fanout = TRACE_FANOUT;
    c.gossip.max_events = TRACE_BUFFER;
    c.gossip.age_cap = TRACE_AGE_CAP;
    c.n_senders = TRACE_SENDERS;
    c.offered_rate = TRACE_RATE;
    // A partition isolating a third of the group mid-run: the minority
    // misses events, and the recovery leg repairs the gaps afterwards.
    c.network.partitions = vec![Partition {
        side_a: (0..(n / 3) as u32).map(NodeId::new).collect(),
        from: TimeMs::from_secs(15),
        until: TimeMs::from_secs(27),
    }];
    if with_recovery {
        c.recovery = Some(RecoveryConfig::default());
    }
    if traced {
        c.trace = TraceConfig::enabled();
    }
    c
}

/// One traced protocol leg plus its untraced parity re-run.
#[derive(Debug, Clone)]
pub struct TraceRun {
    /// Protocol label (`lpbcast` / `adaptive` / `adaptive+recovery`).
    pub label: &'static str,
    /// The captured trace, aggregated.
    pub summary: TraceSummary,
    /// Engine determinism checksum of the traced run.
    pub engine_checksum: u64,
    /// Checksum of the identical scenario with tracing disabled.
    pub untraced_checksum: u64,
}

impl TraceRun {
    /// Whether tracing left the engine results untouched.
    pub fn parity(&self) -> bool {
        self.engine_checksum == self.untraced_checksum
    }
}

/// The whole report behind `repro trace` and `TRACE.json`.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// The experiment seed.
    pub seed: u64,
    /// Whether quick mode sized the scenario.
    pub quick: bool,
    /// Group size.
    pub n_nodes: usize,
    /// One entry per protocol leg, in run order.
    pub runs: Vec<TraceRun>,
    /// Stable FNV fold of every leg's trace digest and checksum.
    pub digest: u64,
}

/// Column headers: `metric` plus one column per protocol leg.
fn headers(report: &TraceReport) -> Vec<&str> {
    let mut h = vec!["metric"];
    h.extend(report.runs.iter().map(|r| r.label));
    h
}

impl Report for TraceReport {
    const NAME: &'static str = "trace";
    const FILE: &'static str = "TRACE.json";

    /// Runs the three traced legs plus their untraced parity re-runs.
    fn run(seed: u64) -> std::io::Result<Self> {
        let horizon = horizon();
        let mut runs = Vec::new();
        for (label, algorithm, with_recovery) in protocols() {
            let mut traced =
                GossipCluster::build(trace_cluster(algorithm, with_recovery, true, seed));
            traced.run_until(horizon);
            let summary = traced.trace_summary(label).expect("tracing enabled");
            let engine_checksum = traced.sim_stats().checksum;
            let mut plain =
                GossipCluster::build(trace_cluster(algorithm, with_recovery, false, seed));
            plain.run_until(horizon);
            runs.push(TraceRun {
                label,
                summary,
                engine_checksum,
                untraced_checksum: plain.sim_stats().checksum,
            });
        }
        let mut buf = Vec::with_capacity(runs.len() * 16);
        for r in &runs {
            buf.extend_from_slice(&r.summary.digest.to_le_bytes());
            buf.extend_from_slice(&r.engine_checksum.to_le_bytes());
        }
        Ok(TraceReport {
            seed,
            quick: quick_mode(),
            n_nodes: n_nodes(),
            runs,
            digest: fnv1a(&buf),
        })
    }

    /// The overview, drop-taxonomy and recovery-repair dashboards, then
    /// one delivery-latency histogram per leg.
    fn tables(&self) -> Vec<Table> {
        let runs = &self.runs;
        // Dissemination counts, latency and hop quantiles, and tree
        // statistics, one column per protocol.
        let mut overview = Table::new(
            format!(
                "Trace: dissemination under {:.0}% loss + partition ({} nodes, fanout {TRACE_FANOUT}, \
                 buffer {TRACE_BUFFER}, age cap {TRACE_AGE_CAP})",
                TRACE_LOSS * 100.0,
                self.n_nodes
            ),
            &headers(self),
        );
        let t = &mut overview;
        metric_row(
            t,
            "publishes",
            runs.iter().map(|r| r.summary.counts.publishes as f64),
        );
        metric_row(
            t,
            "relays",
            runs.iter().map(|r| r.summary.counts.relays as f64),
        );
        metric_row(
            t,
            "delivers",
            runs.iter().map(|r| r.summary.counts.delivers as f64),
        );
        metric_row(
            t,
            "duplicates",
            runs.iter().map(|r| r.summary.counts.duplicates as f64),
        );
        metric_row(
            t,
            "redundancy ratio",
            runs.iter().map(|r| r.summary.tree.redundancy),
        );
        metric_row(
            t,
            "latency p50 (rounds)",
            runs.iter()
                .map(|r| r.summary.latency.quantile(0.5).unwrap_or(f64::NAN)),
        );
        metric_row(
            t,
            "latency p99 (rounds)",
            runs.iter()
                .map(|r| r.summary.latency.quantile(0.99).unwrap_or(f64::NAN)),
        );
        metric_row(
            t,
            "hops p50",
            runs.iter()
                .map(|r| r.summary.hops.quantile(0.5).unwrap_or(f64::NAN)),
        );
        metric_row(
            t,
            "hops max",
            runs.iter()
                .map(|r| r.summary.hops.max().unwrap_or(f64::NAN)),
        );
        metric_row(
            t,
            "tree mean depth",
            runs.iter().map(|r| r.summary.tree.mean_depth),
        );
        metric_row(
            t,
            "tree max depth",
            runs.iter().map(|r| r.summary.tree.max_depth as f64),
        );
        metric_row(
            t,
            "mean buffer occupancy",
            runs.iter()
                .map(|r| r.summary.occupancy.mean().unwrap_or(f64::NAN)),
        );

        // The drop taxonomy: why events left buffers early.
        let mut drops = Table::new("Trace: drop taxonomy", &headers(self));
        let t = &mut drops;
        metric_row(
            t,
            "age drops",
            runs.iter().map(|r| r.summary.counts.drops_age as f64),
        );
        metric_row(
            t,
            "size drops",
            runs.iter().map(|r| r.summary.counts.drops_size as f64),
        );
        metric_row(
            t,
            "congestion drops",
            runs.iter()
                .map(|r| r.summary.counts.drops_congestion as f64),
        );

        // Graft/retransmit round trips and their measured RTTs
        // (all-zero columns on the push-only legs).
        let mut recovery = Table::new("Trace: recovery repair", &headers(self));
        let t = &mut recovery;
        metric_row(
            t,
            "ihave digests",
            runs.iter().map(|r| r.summary.counts.ihaves as f64),
        );
        metric_row(
            t,
            "grafts",
            runs.iter().map(|r| r.summary.counts.grafts as f64),
        );
        metric_row(
            t,
            "retransmits",
            runs.iter().map(|r| r.summary.counts.retransmits as f64),
        );
        metric_row(
            t,
            "recovered",
            runs.iter().map(|r| r.summary.counts.recovered as f64),
        );
        metric_row(
            t,
            "recovery duplicates",
            runs.iter()
                .map(|r| r.summary.counts.recovery_duplicates as f64),
        );
        metric_row(
            t,
            "abandoned",
            runs.iter()
                .map(|r| r.summary.counts.recovery_abandoned as f64),
        );
        metric_row(
            t,
            "repair RTT p50 (ms)",
            runs.iter()
                .map(|r| r.summary.recovery_rtt.quantile(0.5).unwrap_or(f64::NAN)),
        );
        metric_row(
            t,
            "repair RTT p99 (ms)",
            runs.iter()
                .map(|r| r.summary.recovery_rtt.quantile(0.99).unwrap_or(f64::NAN)),
        );

        let mut tables = vec![overview, drops, recovery];
        for run in runs {
            let mut t = Table::new(
                format!("Trace: delivery latency (rounds) — {}", run.label),
                &["bucket", "deliveries"],
            );
            for (bucket, count) in bucket_rows(&run.summary.latency) {
                t.row(&[bucket, count.to_string()]);
            }
            tables.push(t);
        }
        tables
    }

    /// A leg fails when tracing moved its engine checksum or it traced
    /// no deliveries.
    fn failures(&self) -> Vec<String> {
        let mut out = Vec::new();
        for r in &self.runs {
            if !r.parity() {
                out.push(format!(
                    "{}: engine checksum diverged under tracing ({:#018x} traced vs {:#018x} untraced)",
                    r.label, r.engine_checksum, r.untraced_checksum
                ));
            }
            if r.summary.counts.delivers == 0 {
                out.push(format!("{}: no deliveries traced", r.label));
            }
        }
        out
    }

    /// The machine-readable report (schema [`TRACE_SCHEMA`]).
    fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::from(TRACE_SCHEMA)),
            ("seed", Json::from(self.seed)),
            ("quick", Json::Bool(self.quick)),
            ("n_nodes", Json::from(self.n_nodes)),
            (
                "protocols",
                Json::Arr(
                    self.runs
                        .iter()
                        .map(|r| {
                            Json::obj([
                                (
                                    "engine_checksum",
                                    Json::Str(format!("{:#018x}", r.engine_checksum)),
                                ),
                                ("trace_parity", Json::Bool(r.parity())),
                                ("summary", r.summary.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("digest", Json::Str(format!("{:#018x}", self.digest))),
        ])
    }

    fn digest(&self) -> u64 {
        self.digest
    }
}

/// `(bucket label, count)` for every non-empty bucket of `h`.
fn bucket_rows(h: &Histogram) -> Vec<(String, u64)> {
    let last = h.bounds().last().copied().unwrap_or(0.0);
    let label = |idx| match h.bounds().get(idx) {
        Some(&b) => format!("<= {}", format_f64(b)),
        None => format!("> {}", format_f64(last)),
    };
    let rows = h.counts().iter().enumerate().filter(|&(_, &c)| c > 0);
    rows.map(|(idx, &c)| (label(idx), c)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_validate() {
        for (_, algorithm, with_recovery) in protocols() {
            let c = trace_cluster(algorithm, with_recovery, true, 1);
            assert!(c.gossip.validate().is_ok());
            assert!(c.trace.enabled);
            assert_eq!(c.recovery.is_some(), with_recovery);
            assert_eq!(c.network.partitions.len(), 1);
        }
        assert!(
            !trace_cluster(Algorithm::Lpbcast, false, false, 1)
                .trace
                .enabled
        );
    }

    #[test]
    fn bucket_rows_label_overflow_and_skip_empty() {
        let mut h = Histogram::new(&[1.0, 2.0]);
        h.observe(0.5);
        h.observe(5.0);
        let rows = bucket_rows(&h);
        assert_eq!(rows, [("<= 1".to_string(), 1), ("> 2".to_string(), 1)]);
    }

    #[test]
    fn report_has_parity_taxonomy_and_stable_digest() {
        let report = TraceReport::run(7).unwrap();
        assert_eq!(report.runs.len(), 3);
        assert_eq!(report.failures(), Vec::<String>::new());
        let recovery = &report.runs[2].summary;
        assert!(
            recovery.counts.recovered > 0,
            "partition must force repairs"
        );
        assert!(recovery.counts.drops() > 0, "pressure must force drops");
        // The JSON round-trips and carries the schema + digest.
        let json = report.to_json();
        assert_eq!(json.get("schema").unwrap().as_str(), Some(TRACE_SCHEMA));
        let parsed = Json::parse(&json.pretty()).unwrap();
        assert_eq!(
            parsed.get("digest").unwrap().as_str(),
            Some(format!("{:#018x}", report.digest).as_str())
        );
        // Tables render one column per protocol, then one latency
        // histogram per leg.
        let tables = report.tables();
        assert_eq!(tables.len(), 6);
        assert!(tables[0].to_string().contains("adaptive+recovery"));
        assert!(tables[1].to_string().contains("age drops"));
        assert!(tables[2].to_string().contains("grafts"));
        assert!(!tables[3].is_empty());
    }
}
