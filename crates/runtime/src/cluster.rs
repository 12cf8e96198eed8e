//! Multi-threaded clusters: the reproduction of the paper's prototype
//! deployment ("60 processes ... deployed on 60 workstations").

use std::io;
use std::net::{IpAddr, Ipv4Addr, SocketAddr};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use agb_core::{AdaptationConfig, FrameProtocol, GossipConfig};
use agb_failure::{AdversaryConfig, ByteAdversary, DetectorConfig};
use agb_membership::FullView;
use agb_metrics::MetricsCollector;
use agb_node::{Algorithm, Input, NodeShell, StackSpec};
use agb_profile::ProfileConfig;
use agb_recovery::RecoveryConfig;
use agb_telemetry::{Registry, TelemetryConfig, TelemetryServer};
use agb_types::{DetRng, DurationMs, NodeId, Payload, SeedSequence, TimeMs};

use crate::node::{lock, spawn_node, NodeHandle, NodeRuntime};
use crate::telemetry::NodeTelemetry;
use crate::transport::{ChannelTransport, Transport, UdpTransport};

/// Transport selection for a runtime cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// One UDP socket per node on 127.0.0.1.
    Udp,
    /// In-process channels (no sockets; for CI).
    Channel,
}

/// Configuration of a threaded cluster.
#[derive(Debug, Clone)]
pub struct RuntimeClusterConfig {
    /// Number of node threads.
    pub n_nodes: usize,
    /// Seed for per-node RNG streams.
    pub seed: u64,
    /// Run the adaptive protocol instead of baseline lpbcast.
    pub adaptive: bool,
    /// Base gossip parameters. For wall-clock practicality, scale the
    /// paper's periods down (e.g. 100 ms instead of 5 s) — the protocol
    /// dynamics depend on rounds, not seconds.
    pub gossip: GossipConfig,
    /// Adaptation parameters (when `adaptive`).
    pub adaptation: AdaptationConfig,
    /// Nodes `0..n_senders` publish.
    pub n_senders: usize,
    /// Aggregate offered load, msgs/s, split across senders.
    pub offered_rate: f64,
    /// Payload size in bytes.
    pub payload_size: usize,
    /// Transport selection.
    pub transport: TransportKind,
    /// Metrics bin width.
    pub metrics_bin: DurationMs,
    /// Pull-based recovery layer (`agb-recovery`): `Some` wraps every
    /// node in a `RecoverableNode`.
    pub recovery: Option<RecoveryConfig>,
    /// Interface address the UDP transports bind (loopback by default;
    /// a real interface address takes the cluster onto a LAN). Ports are
    /// always OS-assigned — read the chosen ones back with
    /// [`RuntimeCluster::node_addrs`].
    pub bind_addr: IpAddr,
    /// Sender-side injected datagram loss probability in `[0, 1)`,
    /// drawn from a per-node deterministic RNG stream — exercises the
    /// recovery plane over real transports without an unreliable network.
    pub loss: f64,
    /// Wall-clock telemetry plane (`agb-telemetry`): per-node metric
    /// registries and, optionally, one exposition endpoint per node.
    pub telemetry: TelemetryConfig,
    /// φ-accrual failure detection (`agb-failure`): `Some` gives every
    /// node a ring-monitor detector fed by decoded frames, plus the
    /// heartbeat fallback for uncovered links; detector evictions flow
    /// through the protocol's own `evict_peer` path.
    pub detector: Option<DetectorConfig>,
    /// Sender-side byte-level adversary (`agb-failure`): encoded
    /// datagrams are mangled before they reach the transport, proving
    /// the hardened decode path panic-free over real sockets.
    pub adversary: Option<AdversaryConfig>,
    /// Runtime profiling handle (`agb-profile`): when enabled (and
    /// telemetry is on), node loops record per-iteration wall time and
    /// egress-queue dwell into the telemetry registry as histograms, so
    /// live scrapes see profile data too. Off by default — the loop
    /// then takes no extra clock reads.
    pub profile: ProfileConfig,
}

impl RuntimeClusterConfig {
    /// A small channel-transport cluster with scaled-down timing, suitable
    /// for tests.
    pub fn quick(n_nodes: usize, seed: u64) -> Self {
        let mut gossip = GossipConfig::default();
        gossip.gossip_period = DurationMs::from_millis(50);
        RuntimeClusterConfig {
            n_nodes,
            seed,
            adaptive: false,
            gossip,
            adaptation: AdaptationConfig::default(),
            n_senders: 1,
            offered_rate: 5.0,
            payload_size: 16,
            transport: TransportKind::Channel,
            metrics_bin: DurationMs::from_millis(250),
            recovery: None,
            bind_addr: IpAddr::V4(Ipv4Addr::LOCALHOST),
            loss: 0.0,
            telemetry: TelemetryConfig::disabled(),
            detector: None,
            adversary: None,
            profile: ProfileConfig::disabled(),
        }
    }
}

/// Builds one node's protocol state machine (initial spawn and the
/// restart-with-state-loss factory share this).
fn build_protocol(
    config: &RuntimeClusterConfig,
    id: NodeId,
    rng: DetRng,
) -> Box<dyn FrameProtocol + Send> {
    let algorithm = if config.adaptive {
        Algorithm::Adaptive
    } else {
        Algorithm::Lpbcast
    };
    let spec = StackSpec {
        algorithm: &algorithm,
        gossip: config.gossip.clone(),
        adaptation: &config.adaptation,
        recovery: config.recovery.clone(),
    };
    spec.build(id, config.n_nodes, FullView::new(config.n_nodes), None, rng)
}

/// What every node of one cluster shares when its thread is spawned.
struct Spawner<'a> {
    config: &'a RuntimeClusterConfig,
    seeds: SeedSequence,
    metrics: &'a Arc<Mutex<MetricsCollector>>,
    registries: &'a [Arc<Registry>],
    shutdown: &'a Arc<AtomicBool>,
    epoch: Instant,
    per_sender: f64,
    payload: Payload,
}

impl Spawner<'_> {
    fn spawn_all<T: Transport>(&self, transports: Vec<T>) -> Vec<NodeHandle> {
        let nodes = transports.into_iter().enumerate();
        nodes.map(|(i, t)| self.spawn(i, t)).collect()
    }

    fn spawn<T: Transport>(&self, i: usize, transport: T) -> NodeHandle {
        let (config, seeds) = (self.config, &self.seeds);
        let id = NodeId::new(i as u32);
        let rng: DetRng = seeds.rng_for("runtime-node", i as u64);
        let protocol = build_protocol(config, id, rng);
        let is_sender = i < config.n_senders && self.per_sender > 0.0;
        if is_sender && config.adaptive {
            lock(self.metrics).set_initial_rate(id, config.adaptation.initial_rate);
        }
        let observer = self
            .registries
            .get(i)
            .map(|r| NodeTelemetry::new(r, id, self.epoch))
            .unwrap_or_else(NodeTelemetry::disabled);
        spawn_node(
            id,
            NodeRuntime {
                shell: NodeShell::new(protocol, config.detector.as_ref(), config.n_nodes, observer),
                offered_rate: if is_sender { self.per_sender } else { 0.0 },
                payload: self.payload.clone(),
                max_backlog: 2,
                loss: config.loss,
                loss_rng: seeds.rng_for("runtime-loss", i as u64),
                adversary: config.adversary.clone().map(ByteAdversary::new),
                adversary_rng: seeds.rng_for("runtime-adversary", i as u64),
                profile: config.profile.enabled,
            },
            transport,
            Arc::clone(self.metrics),
            self.epoch,
            Arc::clone(self.shutdown),
        )
    }
}

/// A running threaded cluster.
pub struct RuntimeCluster {
    handles: Vec<NodeHandle>,
    metrics: Arc<Mutex<MetricsCollector>>,
    shutdown: Arc<AtomicBool>,
    epoch: Instant,
    /// Per-node metric registries (empty when telemetry is disabled).
    registries: Vec<Arc<Registry>>,
    /// Per-node exposition endpoints (empty unless `telemetry.serve`).
    servers: Vec<TelemetryServer>,
    /// UDP socket addresses by node (empty for the channel transport).
    node_addrs: Vec<SocketAddr>,
    /// The configuration restarts rebuild protocols from.
    config: RuntimeClusterConfig,
    /// Next restart epoch per node: each restart draws a fresh RNG
    /// stream, so a restarted node does not replay its randomness.
    restarts: Vec<AtomicU64>,
}

impl RuntimeCluster {
    /// Binds transports and spawns all node threads.
    ///
    /// # Errors
    ///
    /// Fails if UDP sockets cannot be bound.
    pub fn start(config: RuntimeClusterConfig) -> io::Result<Self> {
        assert!(config.n_nodes > 0, "cluster needs at least one node");
        assert!(
            config.n_senders <= config.n_nodes,
            "more senders than nodes"
        );
        assert!(
            (0.0..1.0).contains(&config.loss),
            "loss probability must be in [0, 1)"
        );
        let metrics = Arc::new(Mutex::new(MetricsCollector::new(
            config.n_nodes,
            config.metrics_bin,
        )));
        let shutdown = Arc::new(AtomicBool::new(false));
        let epoch = Instant::now();
        let seeds = SeedSequence::new(config.seed);
        let per_sender = if config.n_senders == 0 {
            0.0
        } else {
            config.offered_rate / config.n_senders as f64
        };
        let payload = Payload::from(vec![0u8; config.payload_size]);

        // The telemetry plane: one registry per node so exposition and
        // scrape-side merging mirror a real per-process deployment.
        let registries: Vec<Arc<Registry>> = if config.telemetry.enabled {
            (0..config.n_nodes)
                .map(|_| Arc::new(Registry::new()))
                .collect()
        } else {
            Vec::new()
        };
        let servers: Vec<TelemetryServer> = if config.telemetry.enabled && config.telemetry.serve {
            registries
                .iter()
                .map(|r| TelemetryServer::serve(Arc::clone(r), (config.telemetry.bind, 0)))
                .collect::<io::Result<_>>()?
        } else {
            Vec::new()
        };

        let spawner = Spawner {
            config: &config,
            seeds,
            metrics: &metrics,
            registries: &registries,
            shutdown: &shutdown,
            epoch,
            per_sender,
            payload,
        };
        let mut node_addrs = Vec::new();
        let handles = match config.transport {
            TransportKind::Udp => {
                let transports = UdpTransport::bind_cluster_on(config.bind_addr, config.n_nodes)?;
                if let Some(first) = transports.first() {
                    node_addrs = first.peer_addrs().to_vec();
                }
                spawner.spawn_all(transports)
            }
            TransportKind::Channel => spawner.spawn_all(ChannelTransport::cluster(config.n_nodes)),
        };
        Ok(RuntimeCluster {
            handles,
            metrics,
            shutdown,
            epoch,
            registries,
            servers,
            node_addrs,
            restarts: (0..config.n_nodes).map(|_| AtomicU64::new(1)).collect(),
            config,
        })
    }

    /// Number of node threads.
    pub fn n_nodes(&self) -> usize {
        self.handles.len()
    }

    /// The UDP socket address of every node (empty for the channel
    /// transport) — the ports the OS actually assigned.
    pub fn node_addrs(&self) -> &[SocketAddr] {
        &self.node_addrs
    }

    /// The per-node telemetry registries (empty when telemetry is
    /// disabled). Render or snapshot them directly for in-process reads.
    pub fn telemetry_registries(&self) -> &[Arc<Registry>] {
        &self.registries
    }

    /// The per-node telemetry exposition endpoints (empty unless the
    /// configuration asked for servers), indexed by node.
    pub fn telemetry_addrs(&self) -> Vec<SocketAddr> {
        self.servers
            .iter()
            .map(TelemetryServer::local_addr)
            .collect()
    }

    /// Wall-clock time since the cluster epoch, as protocol time.
    pub fn elapsed(&self) -> TimeMs {
        TimeMs::from_millis(self.epoch.elapsed().as_millis() as u64)
    }

    /// Offers one payload at `node`.
    pub fn offer(&self, node: NodeId, payload: Payload) -> bool {
        self.handles[node.index()].command(Input::Offer(payload))
    }

    /// Resizes the event buffer of one node.
    pub fn resize(&self, node: NodeId, capacity: usize) -> bool {
        self.handles[node.index()].command(Input::Resize(capacity))
    }

    /// Resizes a group of nodes.
    pub fn resize_group(&self, nodes: impl IntoIterator<Item = NodeId>, capacity: usize) {
        for n in nodes {
            self.resize(n, capacity);
        }
    }

    /// Crash-stops one node (state kept); returns `false` if it already
    /// exited.
    pub fn crash(&self, node: NodeId) -> bool {
        lock(&self.metrics).record_membership(node, self.elapsed(), false);
        self.handles[node.index()].command(Input::Crash)
    }

    /// Recovers a crashed node, state intact.
    pub fn recover(&self, node: NodeId) -> bool {
        lock(&self.metrics).record_membership(node, self.elapsed(), true);
        self.handles[node.index()].command(Input::Recover)
    }

    /// Restarts one node with state loss (fresh protocol state machine).
    pub fn restart(&self, node: NodeId) -> bool {
        lock(&self.metrics).record_membership(node, self.elapsed(), true);
        let epoch = self.restarts[node.index()].fetch_add(1, Ordering::Relaxed);
        let seeds = SeedSequence::new(self.config.seed);
        let rng: DetRng = seeds.rng_for("runtime-restart", node.index() as u64 + (epoch << 32));
        let protocol = build_protocol(&self.config, node, rng);
        self.handles[node.index()].command(Input::Restart(protocol))
    }

    /// Gracefully removes one node: farewell frames, then silence.
    pub fn leave(&self, node: NodeId) -> bool {
        lock(&self.metrics).record_membership(node, self.elapsed(), false);
        self.handles[node.index()].command(Input::Leave)
    }

    /// Lets the cluster run for `d` of wall-clock time.
    pub fn run_for(&self, d: Duration) {
        std::thread::sleep(d);
    }

    /// A snapshot of the collected metrics.
    pub fn metrics_snapshot(&self) -> MetricsCollector {
        lock(&self.metrics).clone()
    }

    /// Stops all node threads and returns the final metrics.
    pub fn stop(self) -> MetricsCollector {
        self.shutdown.store(true, Ordering::Relaxed);
        for h in self.handles {
            let _ = h.join.join();
        }
        match Arc::try_unwrap(self.metrics) {
            Ok(metrics) => metrics.into_inner().unwrap_or_else(PoisonError::into_inner),
            Err(metrics) => lock(&metrics).clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agb_telemetry::{names, Snapshot};

    /// Every node's registry merged into one cluster-wide snapshot.
    fn merged_telemetry(cluster: &RuntimeCluster) -> Snapshot {
        let mut merged = Snapshot::default();
        for r in cluster.telemetry_registries() {
            assert!(merged.merge(&r.snapshot()));
        }
        merged
    }

    #[test]
    fn channel_cluster_with_recovery_disseminates() {
        let mut config = RuntimeClusterConfig::quick(8, 5);
        config.offered_rate = 10.0;
        // Aggressive purging so the recovery layer has real gaps to repair
        // if any datagram is missed; mainly this exercises the frame codec
        // and reply path end to end.
        config.gossip.age_cap = 3;
        config.recovery = Some(RecoveryConfig::default());
        let cluster = RuntimeCluster::start(config).unwrap();
        cluster.run_for(Duration::from_millis(1200));
        let metrics = cluster.stop();
        let report = metrics.deliveries().atomicity(0.95, None);
        assert!(report.messages > 3, "only {} messages", report.messages);
        assert!(
            report.avg_receiver_fraction > 0.85,
            "fraction {}",
            report.avg_receiver_fraction
        );
    }

    #[test]
    fn channel_cluster_disseminates() {
        let mut config = RuntimeClusterConfig::quick(8, 3);
        config.offered_rate = 10.0;
        let cluster = RuntimeCluster::start(config).unwrap();
        cluster.run_for(Duration::from_millis(1200));
        let metrics = cluster.stop();
        let report = metrics.deliveries().atomicity(0.95, None);
        assert!(report.messages > 3, "only {} messages", report.messages);
        assert!(
            report.avg_receiver_fraction > 0.85,
            "fraction {}",
            report.avg_receiver_fraction
        );
    }

    #[test]
    fn adaptive_cluster_reports_rate_changes_under_pressure() {
        let mut config = RuntimeClusterConfig::quick(8, 5);
        config.adaptive = true;
        config.offered_rate = 200.0; // far beyond tiny-buffer capacity
        config.gossip.max_events = 8;
        config.adaptation.initial_rate = 200.0;
        let cluster = RuntimeCluster::start(config).unwrap();
        cluster.run_for(Duration::from_millis(1500));
        let metrics = cluster.stop();
        // Congestion must have forced the allowed rate down.
        let final_rate = metrics
            .allowed()
            .rate_at(NodeId::new(0), TimeMs::from_secs(3600));
        assert!(
            final_rate < 200.0,
            "adaptive sender should have throttled, rate {final_rate}"
        );
    }

    #[test]
    fn crash_recover_restart_lifecycle() {
        let mut config = RuntimeClusterConfig::quick(6, 21);
        config.offered_rate = 20.0;
        let cluster = RuntimeCluster::start(config).unwrap();
        cluster.run_for(Duration::from_millis(300));
        // Crash a receiver, let traffic flow past it, then restart it with
        // state loss.
        assert!(cluster.crash(NodeId::new(5)));
        cluster.run_for(Duration::from_millis(300));
        assert!(cluster.restart(NodeId::new(5)));
        cluster.run_for(Duration::from_millis(500));
        let metrics = cluster.stop();
        // The timeline recorded the outage and the catch-up tracker saw the
        // node deliver again after the restart.
        let tl = metrics.membership_timeline();
        assert!(tl.has_churn());
        let restarts = metrics.catch_up().records();
        assert_eq!(restarts.len(), 1);
        assert!(
            restarts[0].first_delivery.is_some(),
            "restarted node must deliver again"
        );
        let report = metrics.deliveries().atomicity(0.95, None);
        assert!(report.messages > 3);
    }

    #[test]
    fn leave_command_goes_silent() {
        let mut config = RuntimeClusterConfig::quick(4, 33);
        config.offered_rate = 10.0;
        let cluster = RuntimeCluster::start(config).unwrap();
        cluster.run_for(Duration::from_millis(200));
        assert!(cluster.leave(NodeId::new(3)));
        cluster.run_for(Duration::from_millis(400));
        let metrics = cluster.stop();
        // Node 3 is down in the recorded timeline from the leave on.
        assert!(!metrics
            .membership_timeline()
            .up_at(NodeId::new(3), TimeMs::from_secs(3600)));
    }

    #[test]
    fn telemetry_counts_crash_and_restart() {
        let mut config = RuntimeClusterConfig::quick(8, 11);
        config.offered_rate = 20.0;
        config.telemetry = TelemetryConfig::recording();
        let cluster = RuntimeCluster::start(config).unwrap();
        cluster.run_for(Duration::from_millis(300));
        assert!(cluster.crash(NodeId::new(7)));
        cluster.run_for(Duration::from_millis(200));
        assert!(cluster.restart(NodeId::new(7)));
        cluster.run_for(Duration::from_millis(200));
        let merged = merged_telemetry(&cluster);
        let _ = cluster.stop();
        let lifecycle = |kind| merged.counter(names::LIFECYCLE, &[("kind", kind), ("node", "7")]);
        assert_eq!(lifecycle("crash"), Some(1));
        assert_eq!(lifecycle("restart"), Some(1));
    }

    #[test]
    fn telemetry_cluster_records_and_serves() {
        use agb_telemetry::scrape;

        let mut config = RuntimeClusterConfig::quick(4, 7);
        config.offered_rate = 20.0;
        config.payload_size = 32; // room for the latency stamp
        config.telemetry = TelemetryConfig::serving();
        let cluster = RuntimeCluster::start(config).unwrap();
        let addrs = cluster.telemetry_addrs();
        assert_eq!(addrs.len(), 4, "one endpoint per node");
        cluster.run_for(Duration::from_millis(800));

        // Scrape node 0 over TCP *while the cluster is under load*.
        let body = scrape(addrs[0], Duration::from_secs(2)).expect("mid-run scrape");
        assert!(body.contains("# TYPE agb_messages_sent_total counter"));
        assert!(body.contains("agb_rounds_total{node=\"0\"}"));

        // Merge every node's registry into the cluster-wide snapshot.
        let merged = merged_telemetry(&cluster);
        assert!(
            merged.counter_sum(names::MESSAGES_SENT) > 0,
            "gossip flowed"
        );
        assert!(
            merged.counter_sum(names::DELIVERIES) > 0,
            "events delivered"
        );
        assert!(merged.counter_sum(names::ROUNDS) > 0, "rounds ran");
        let lat = merged
            .histogram_merged(names::DELIVERY_LATENCY_SECONDS)
            .expect("stamped payloads measured end-to-end latency");
        assert!(lat.count() > 0, "latency samples recorded");
        assert!(
            lat.quantile(0.5).unwrap() < 16.0,
            "p50 within the bucket range"
        );
        let _ = cluster.stop();
    }

    #[test]
    fn profiled_cluster_records_loop_and_dwell_histograms() {
        let mut config = RuntimeClusterConfig::quick(4, 23);
        config.offered_rate = 20.0;
        config.telemetry = TelemetryConfig::recording();
        config.profile = ProfileConfig::enabled();
        let cluster = RuntimeCluster::start(config).unwrap();
        cluster.run_for(Duration::from_millis(600));
        let merged = merged_telemetry(&cluster);
        let _ = cluster.stop();
        let iter = merged
            .histogram_merged(names::LOOP_ITERATION_SECONDS)
            .expect("loop-iteration histogram registered");
        assert!(iter.count() > 0, "iterations recorded");
        let dwell = merged
            .histogram_merged(names::EGRESS_DWELL_SECONDS)
            .expect("egress-dwell histogram registered");
        assert!(dwell.count() > 0, "dwell samples recorded");
        // The dwell preset resolves µs-scale samples: a healthy
        // channel-transport cluster flushes its egress queue within the
        // same loop iteration, far under one second at p50.
        assert!(dwell.quantile(0.5).unwrap() < 1.0, "µs-scale dwell p50");

        // Profile off (the default): the histograms stay empty even
        // with telemetry on.
        let mut config = RuntimeClusterConfig::quick(2, 24);
        config.telemetry = TelemetryConfig::recording();
        let cluster = RuntimeCluster::start(config).unwrap();
        cluster.run_for(Duration::from_millis(200));
        let merged = merged_telemetry(&cluster);
        let _ = cluster.stop();
        let iter = merged
            .histogram_merged(names::LOOP_ITERATION_SECONDS)
            .expect("registered but unrecorded");
        assert_eq!(iter.count(), 0, "profile handle off records nothing");
    }

    #[test]
    fn injected_loss_is_counted_and_recovery_repairs() {
        let mut config = RuntimeClusterConfig::quick(6, 9);
        config.offered_rate = 30.0;
        config.loss = 0.25;
        config.recovery = Some(RecoveryConfig::default());
        config.telemetry = TelemetryConfig::recording();
        let cluster = RuntimeCluster::start(config).unwrap();
        assert!(
            cluster.telemetry_addrs().is_empty(),
            "recording mode starts no servers"
        );
        cluster.run_for(Duration::from_millis(1_200));
        let merged = merged_telemetry(&cluster);
        let _ = cluster.stop();
        assert!(
            merged.counter_sum(names::LOSS_INJECTED) > 0,
            "the loss harness dropped datagrams"
        );
        assert!(
            merged.counter_sum(names::DELIVERIES) > 0,
            "dissemination survived the loss"
        );
    }

    #[test]
    fn detector_evicts_a_crashed_peer() {
        let mut config = RuntimeClusterConfig::quick(6, 17);
        config.offered_rate = 10.0;
        config.telemetry = TelemetryConfig::recording();
        config.detector = Some(DetectorConfig::default());
        let cluster = RuntimeCluster::start(config).unwrap();
        // Let the detectors learn the healthy inter-arrival rhythm first.
        cluster.run_for(Duration::from_millis(600));
        assert!(cluster.crash(NodeId::new(5)));
        // ~18 silent gossip periods: far past the evict-φ threshold.
        cluster.run_for(Duration::from_millis(900));
        let merged = merged_telemetry(&cluster);
        let _ = cluster.stop();
        assert!(
            merged.counter_sum(names::HEARTBEATS) > 0,
            "heartbeat fallback keeps monitored links sampled"
        );
        assert!(
            merged.counter_sum(names::SUSPICIONS) > 0,
            "the silent peer crosses the suspicion threshold"
        );
        assert!(
            merged.counter_sum(names::DETECTOR_EVICTIONS) > 0,
            "the silent peer is evicted through the protocol path"
        );
    }

    #[test]
    fn detector_has_no_false_positives_on_a_healthy_cluster() {
        let mut config = RuntimeClusterConfig::quick(6, 23);
        config.offered_rate = 10.0;
        config.telemetry = TelemetryConfig::recording();
        config.detector = Some(DetectorConfig::default());
        let cluster = RuntimeCluster::start(config).unwrap();
        cluster.run_for(Duration::from_millis(1_200));
        let merged = merged_telemetry(&cluster);
        let _ = cluster.stop();
        assert_eq!(
            merged.counter_sum(names::DETECTOR_EVICTIONS),
            0,
            "no evictions without a fault"
        );
    }

    #[test]
    fn byte_adversary_is_survived_and_counted() {
        let mut config = RuntimeClusterConfig::quick(6, 31);
        config.offered_rate = 30.0;
        config.recovery = Some(RecoveryConfig::default());
        config.telemetry = TelemetryConfig::recording();
        config.adversary = Some(AdversaryConfig {
            corrupt: 0.15,
            truncate: 0.05,
            duplicate: 0.10,
            reorder: 0.10,
            reorder_delay: DurationMs::from_millis(40),
        });
        let cluster = RuntimeCluster::start(config).unwrap();
        cluster.run_for(Duration::from_millis(1_500));
        let merged = merged_telemetry(&cluster);
        let metrics = cluster.stop();
        // Destructive faults landed and were rejected at decode, never
        // misdelivered — and dissemination still finished.
        assert!(
            merged.counter_sum(names::DECODE_ERRORS) > 0,
            "corrupted datagrams were counted at the decode boundary"
        );
        let report = metrics.deliveries().atomicity(0.95, None);
        assert!(report.messages > 3, "only {} messages", report.messages);
        assert!(
            report.avg_receiver_fraction > 0.80,
            "fraction {}",
            report.avg_receiver_fraction
        );
    }

    #[test]
    fn resize_command_is_accepted() {
        let config = RuntimeClusterConfig::quick(2, 9);
        let cluster = RuntimeCluster::start(config).unwrap();
        assert!(cluster.resize(NodeId::new(0), 10));
        cluster.resize_group([NodeId::new(0), NodeId::new(1)], 20);
        cluster.run_for(Duration::from_millis(100));
        let _ = cluster.stop();
    }
}
