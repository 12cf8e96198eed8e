//! Topology experiment — `repro topology`: locality-biased sampling and
//! probabilistic forwarding on structured overlays.
//!
//! The paper's evaluation assumes a flat group; this experiment puts the
//! same engine on two structured overlays (a 4-neighbour grid and a
//! bridged-clique cluster topology) and compares three dissemination
//! stacks on each:
//!
//! | flavor | sampling | forwarding |
//! |---|---|---|
//! | `uniform` | uniform over the view | lpbcast (reship the buffer every round) |
//! | `biased` | [`LocalitySampler`](agb_membership::LocalitySampler) (overlay neighbours + uniform escape) | lpbcast |
//! | `routing` | locality-biased | GOSSIP3 probabilistic relay ([`agb_topology::RoutingNode`]) |
//!
//! Every leg runs with full trace capture, so the report can account
//! cross-region frames (the cost locality bias exists to cut) next to
//! atomicity and per-delivery overhead. The headline claims checked by
//! its [`Report::failures`]:
//!
//! 1. locality bias cuts the cross-region traffic fraction versus
//!    uniform sampling, on both shapes;
//! 2. probabilistic forwarding keeps ≥ 0.99 of messages atomic (the
//!    paper's 95%-of-receivers criterion) on the clustered topology while
//!    spending measurably fewer relayed copies per delivered message than
//!    uniform lpbcast.
//!
//! The report is written as `TOPOLOGY.json` (schema [`TOPOLOGY_SCHEMA`])
//! with a stable digest that `repro verify` replays at several engine
//! thread counts.

use agb_metrics::Table;
use agb_sim::NetworkConfig;
use agb_topology::RoutingConfig;
use agb_trace::{TraceConfig, TraceSummary};
use agb_types::{fnv1a, json::Json, DurationMs, Topology};
use agb_workload::{Algorithm, ClusterConfig, GossipCluster};

use crate::common::{measure, quick_mode, RunOutcome, Windows};
use crate::report::{metric_row, Report};

/// Schema tag of `TOPOLOGY.json`.
pub const TOPOLOGY_SCHEMA: &str = "agb-topology-report/v1";

/// Uniform-escape probability of the biased and routing legs: 10% of
/// samples ignore the overlay, keeping the view connected end to end.
pub const TOPOLOGY_ESCAPE: f64 = 0.1;
/// Gossip fanout `F` (both the lpbcast and the relay fanout).
pub const TOPOLOGY_FANOUT: usize = 4;
/// Event-buffer capacity of the lpbcast legs — ample; this experiment
/// studies the topology axis, not buffer pressure.
pub const TOPOLOGY_BUFFER: usize = 60;
/// Relay probability `p` of the routing leg — the generous corner of the
/// GOSSIP3 sweep: clique overlays need more relay pressure than the
/// defaults' open lattice to push every rumor across the bridges.
pub const TOPOLOGY_RELAY_P: f64 = 0.8;
/// Sure-relay zone `k` of the routing leg (hops always relayed).
pub const TOPOLOGY_SURE_HOPS: u32 = 3;
/// Rounds an accepted rumor is re-emitted before retiring — one more
/// than the default, so the last few peers of a clique are resampled.
pub const TOPOLOGY_RELAY_ROUNDS: u32 = 3;
/// Publisher count.
pub const TOPOLOGY_SENDERS: usize = 3;
/// Aggregate offered load, msgs/s.
pub const TOPOLOGY_RATE: f64 = 6.0;

/// The two overlay shapes of the sweep (quick-mode aware sizing; both
/// shapes have the same node count so columns are comparable).
pub fn shapes() -> [Topology; 2] {
    if quick_mode() {
        [Topology::grid(4, 6), Topology::clustered(4, 6, 2, 11)]
    } else {
        [Topology::grid(6, 8), Topology::clustered(6, 8, 3, 11)]
    }
}

/// Group size (quick-mode aware; identical for both shapes).
pub fn n_nodes() -> usize {
    shapes()[0].len()
}

/// The dissemination stacks compared on each shape, in run order.
pub fn flavors() -> [&'static str; 3] {
    ["uniform", "biased", "routing"]
}

/// Measurement windows (the cooldown also lets routing rumors retire).
pub fn topology_windows() -> Windows {
    if quick_mode() {
        Windows {
            warmup: DurationMs::from_secs(10),
            measure: DurationMs::from_secs(40),
            cooldown: DurationMs::from_secs(20),
        }
    } else {
        Windows {
            warmup: DurationMs::from_secs(15),
            measure: DurationMs::from_secs(90),
            cooldown: DurationMs::from_secs(30),
        }
    }
}

/// The cluster configuration of one leg.
///
/// # Panics
///
/// Panics if `flavor` is not one of [`flavors`].
pub fn topology_cluster(topo: Topology, flavor: &str, seed: u64) -> ClusterConfig {
    let mut c = ClusterConfig::new(topo.len(), seed);
    c.algorithm = match flavor {
        "uniform" | "biased" => Algorithm::Lpbcast,
        "routing" => Algorithm::Routing(RoutingConfig {
            relay_probability: TOPOLOGY_RELAY_P,
            sure_hops: TOPOLOGY_SURE_HOPS,
            relay_rounds: TOPOLOGY_RELAY_ROUNDS,
        }),
        other => panic!("unknown topology flavor {other:?}"),
    };
    c.gossip.fanout = TOPOLOGY_FANOUT;
    c.gossip.max_events = TOPOLOGY_BUFFER;
    c.n_senders = TOPOLOGY_SENDERS;
    c.offered_rate = TOPOLOGY_RATE;
    c.network = NetworkConfig::perfect(DurationMs::from_millis(10));
    // Every leg carries the topology (it feeds the probes' region map);
    // only the biased and routing legs sample through it.
    c.topology = Some(topo);
    if flavor != "uniform" {
        c.locality_escape = Some(TOPOLOGY_ESCAPE);
    }
    c.trace = TraceConfig::enabled();
    c
}

/// One measured leg of the shape × flavor sweep.
#[derive(Debug, Clone)]
pub struct TopologyLeg {
    /// Overlay shape label (`grid` / `clustered`).
    pub topo: &'static str,
    /// Dissemination stack label (`uniform` / `biased` / `routing`).
    pub flavor: &'static str,
    /// Windowed delivery aggregates (atomicity, rates).
    pub outcome: RunOutcome,
    /// The captured trace, aggregated.
    pub summary: TraceSummary,
    /// Engine determinism checksum.
    pub engine_checksum: u64,
    /// Frames the engine carried (sends).
    pub frames: u64,
}

impl TopologyLeg {
    /// Column label: `shape/flavor`.
    pub fn label(&self) -> String {
        format!("{}/{}", self.topo, self.flavor)
    }

    /// Relayed event copies per delivered event — the overhead measure
    /// probabilistic forwarding is built to cut.
    pub fn relays_per_delivery(&self) -> f64 {
        self.summary.counts.relays as f64 / (self.summary.counts.delivers as f64).max(1.0)
    }

    /// Engine frames per delivered event.
    pub fn frames_per_delivery(&self) -> f64 {
        self.frames as f64 / (self.summary.counts.delivers as f64).max(1.0)
    }

    /// Fraction of frames that crossed a region boundary.
    pub fn cross_fraction(&self) -> f64 {
        self.summary.counts.cross_partition_msgs as f64 / (self.frames as f64).max(1.0)
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("topology", Json::from(self.topo)),
            ("flavor", Json::from(self.flavor)),
            ("atomic_fraction", Json::Num(self.outcome.atomic_fraction)),
            (
                "avg_receiver_fraction",
                Json::Num(self.outcome.avg_receiver_fraction),
            ),
            ("messages", Json::from(self.outcome.messages)),
            ("relays", Json::from(self.summary.counts.relays)),
            ("delivers", Json::from(self.summary.counts.delivers)),
            ("relays_per_delivery", Json::Num(self.relays_per_delivery())),
            ("frames", Json::from(self.frames)),
            ("frames_per_delivery", Json::Num(self.frames_per_delivery())),
            (
                "cross_region_frames",
                Json::from(self.summary.counts.cross_partition_msgs),
            ),
            ("cross_fraction", Json::Num(self.cross_fraction())),
            (
                "latency_p50_rounds",
                Json::Num(self.summary.latency.quantile(0.5).unwrap_or(f64::NAN)),
            ),
            (
                "latency_p99_rounds",
                Json::Num(self.summary.latency.quantile(0.99).unwrap_or(f64::NAN)),
            ),
            (
                "engine_checksum",
                Json::Str(format!("{:#018x}", self.engine_checksum)),
            ),
            (
                "trace_digest",
                Json::Str(format!("{:#018x}", self.summary.stable_digest)),
            ),
        ])
    }
}

/// The whole report behind `repro topology` and `TOPOLOGY.json`.
#[derive(Debug, Clone)]
pub struct TopologyReport {
    /// The experiment seed.
    pub seed: u64,
    /// Whether quick mode sized the scenario.
    pub quick: bool,
    /// Group size (identical on both shapes).
    pub n_nodes: usize,
    /// One entry per shape × flavor, shapes outer, flavors inner.
    pub legs: Vec<TopologyLeg>,
    /// Stable FNV fold of every leg's trace digest and engine checksum.
    pub digest: u64,
}

impl TopologyReport {
    /// The leg for a shape/flavor pair.
    pub fn leg(&self, topo: &str, flavor: &str) -> Option<&TopologyLeg> {
        self.legs
            .iter()
            .find(|l| l.topo == topo && l.flavor == flavor)
    }
}

impl Report for TopologyReport {
    const NAME: &'static str = "topology";
    const FILE: &'static str = "TOPOLOGY.json";

    /// Runs the shape × flavor sweep.
    fn run(seed: u64) -> std::io::Result<Self> {
        let windows = topology_windows();
        let mut legs = Vec::new();
        for topo in shapes() {
            let shape = topo.label();
            for flavor in flavors() {
                let mut cluster =
                    GossipCluster::build(topology_cluster(topo.clone(), flavor, seed));
                cluster.run_until(windows.total());
                let outcome = measure(&cluster, windows);
                let summary = cluster
                    .trace_summary(&format!("{shape}/{flavor}"))
                    .expect("tracing enabled");
                let stats = cluster.sim_stats();
                legs.push(TopologyLeg {
                    topo: shape,
                    flavor,
                    outcome,
                    summary,
                    engine_checksum: stats.checksum,
                    frames: stats.sends,
                });
            }
        }
        let mut buf = Vec::with_capacity(legs.len() * 16);
        for leg in &legs {
            buf.extend_from_slice(&leg.summary.stable_digest.to_le_bytes());
            buf.extend_from_slice(&leg.engine_checksum.to_le_bytes());
        }
        Ok(TopologyReport {
            seed,
            quick: quick_mode(),
            n_nodes: n_nodes(),
            legs,
            digest: fnv1a(&buf),
        })
    }

    /// The headline dashboard: one column per shape/flavor leg.
    fn tables(&self) -> Vec<Table> {
        let labels: Vec<String> = self.legs.iter().map(TopologyLeg::label).collect();
        let mut headers = vec!["metric"];
        headers.extend(labels.iter().map(String::as_str));
        let mut t = Table::new(
            format!(
                "Topology: locality bias and probabilistic forwarding \
                 ({} nodes per shape, fanout {TOPOLOGY_FANOUT}, escape {TOPOLOGY_ESCAPE})",
                self.n_nodes
            ),
            &headers,
        );
        let legs = &self.legs;
        metric_row(
            &mut t,
            "atomic fraction",
            legs.iter().map(|l| l.outcome.atomic_fraction),
        );
        metric_row(
            &mut t,
            "avg receiver fraction",
            legs.iter().map(|l| l.outcome.avg_receiver_fraction),
        );
        metric_row(
            &mut t,
            "messages measured",
            legs.iter().map(|l| l.outcome.messages as f64),
        );
        metric_row(
            &mut t,
            "relays",
            legs.iter().map(|l| l.summary.counts.relays as f64),
        );
        metric_row(
            &mut t,
            "delivers",
            legs.iter().map(|l| l.summary.counts.delivers as f64),
        );
        metric_row(
            &mut t,
            "relays / delivery",
            legs.iter().map(TopologyLeg::relays_per_delivery),
        );
        metric_row(
            &mut t,
            "frames / delivery",
            legs.iter().map(TopologyLeg::frames_per_delivery),
        );
        metric_row(
            &mut t,
            "cross-region frames",
            legs.iter()
                .map(|l| l.summary.counts.cross_partition_msgs as f64),
        );
        metric_row(
            &mut t,
            "cross-region fraction",
            legs.iter().map(TopologyLeg::cross_fraction),
        );
        metric_row(
            &mut t,
            "latency p50 (rounds)",
            legs.iter()
                .map(|l| l.summary.latency.quantile(0.5).unwrap_or(f64::NAN)),
        );
        metric_row(
            &mut t,
            "latency p99 (rounds)",
            legs.iter()
                .map(|l| l.summary.latency.quantile(0.99).unwrap_or(f64::NAN)),
        );
        vec![t]
    }

    /// The headline claims of the module docs, plus per-leg liveness.
    fn failures(&self) -> Vec<String> {
        let mut out = Vec::new();
        for leg in &self.legs {
            if leg.outcome.messages == 0 {
                out.push(format!("{}: no messages measured", leg.label()));
            }
            if leg.summary.counts.delivers == 0 {
                out.push(format!("{}: no deliveries traced", leg.label()));
            }
            if leg.outcome.avg_receiver_fraction < 0.9 {
                out.push(format!(
                    "{}: dissemination collapsed (avg receiver fraction {:.3})",
                    leg.label(),
                    leg.outcome.avg_receiver_fraction
                ));
            }
        }
        for topo in shapes() {
            let shape = topo.label();
            let (Some(uniform), Some(biased), Some(routing)) = (
                self.leg(shape, "uniform"),
                self.leg(shape, "biased"),
                self.leg(shape, "routing"),
            ) else {
                out.push(format!("{shape}: missing legs"));
                continue;
            };
            if biased.cross_fraction() >= uniform.cross_fraction() {
                out.push(format!(
                    "{shape}: locality bias did not cut cross-region traffic \
                     (biased {:.3} vs uniform {:.3})",
                    biased.cross_fraction(),
                    uniform.cross_fraction()
                ));
            }
            if routing.relays_per_delivery() >= uniform.relays_per_delivery() {
                out.push(format!(
                    "{shape}: probabilistic forwarding did not cut relays/delivery \
                     (routing {:.2} vs uniform {:.2})",
                    routing.relays_per_delivery(),
                    uniform.relays_per_delivery()
                ));
            }
            if shape == "clustered" && routing.outcome.atomic_fraction < 0.99 {
                out.push(format!(
                    "{shape}: routing atomicity {:.4} below the 0.99 gate",
                    routing.outcome.atomic_fraction
                ));
            }
        }
        out
    }

    /// The machine-readable report (schema [`TOPOLOGY_SCHEMA`]).
    fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::from(TOPOLOGY_SCHEMA)),
            ("seed", Json::from(self.seed)),
            ("quick", Json::Bool(self.quick)),
            ("n_nodes", Json::from(self.n_nodes)),
            (
                "legs",
                Json::Arr(self.legs.iter().map(TopologyLeg::to_json).collect()),
            ),
            ("digest", Json::Str(format!("{:#018x}", self.digest))),
        ])
    }

    fn digest(&self) -> u64 {
        self.digest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_validate() {
        for topo in shapes() {
            assert!(topo.is_connected(), "{} must be connected", topo.label());
            for flavor in flavors() {
                let c = topology_cluster(topo.clone(), flavor, 1);
                assert!(c.gossip.validate().is_ok());
                assert_eq!(c.topology.as_ref().unwrap().len(), c.n_nodes);
                assert!(c.trace.enabled);
                assert_eq!(c.locality_escape.is_some(), flavor != "uniform");
                assert_eq!(
                    matches!(c.algorithm, Algorithm::Routing(_)),
                    flavor == "routing"
                );
            }
        }
        assert_eq!(shapes()[0].len(), shapes()[1].len());
    }

    #[test]
    #[should_panic(expected = "unknown topology flavor")]
    fn unknown_flavor_is_rejected() {
        topology_cluster(Topology::ring(8), "flooding", 1);
    }

    #[test]
    fn report_meets_the_headline_claims() {
        let report = TopologyReport::run(42).unwrap();
        assert_eq!(report.legs.len(), 6);
        assert_eq!(report.failures(), Vec::<String>::new());
        // Cross-region accounting is live on every leg.
        for leg in &report.legs {
            assert!(
                leg.summary.counts.cross_partition_msgs > 0,
                "{}: region map not wired",
                leg.label()
            );
        }
        // The JSON round-trips and carries the schema + digest.
        let json = report.to_json();
        assert_eq!(json.get("schema").unwrap().as_str(), Some(TOPOLOGY_SCHEMA));
        let parsed = Json::parse(&json.pretty()).unwrap();
        assert_eq!(
            parsed.get("digest").unwrap().as_str(),
            Some(format!("{:#018x}", report.digest).as_str())
        );
        // The table renders one column per leg.
        let overview = report.tables()[0].to_string();
        assert!(overview.contains("clustered/routing"));
        assert!(overview.contains("relays / delivery"));
    }

    #[test]
    fn single_leg_is_k_invariant() {
        let run_leg = |threads: usize| {
            let mut c = topology_cluster(shapes()[1].clone(), "routing", 9);
            c.threads = threads;
            let mut cluster = GossipCluster::build(c);
            cluster.set_parallel_threshold(1);
            cluster.run_until(agb_types::TimeMs::from_secs(40));
            let summary = cluster.trace_summary("k").unwrap();
            (cluster.sim_stats().checksum, summary.stable_digest)
        };
        assert_eq!(run_leg(1), run_leg(4));
    }
}
