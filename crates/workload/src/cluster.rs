//! Building gossip protocol nodes into the deterministic simulator.

use std::cell::{Ref, RefCell};
use std::rc::Rc;
use std::sync::Arc;

use agb_core::{AdaptationConfig, FrameProtocol, GossipConfig, GossipFrame, ProtocolEvent};
use agb_failure::DetectorConfig;
use agb_membership::{FullView, PartialView, PeerSampler};
use agb_metrics::MetricsCollector;
use agb_node::{Algorithm, Input, NodeShell, Overlay, StackSpec};
use agb_profile::{MemReport, MemTable, ProfileConfig, Profiler, ProfilerSnapshot};
use agb_recovery::RecoveryConfig;
use agb_sim::{NetStats, NetworkConfig, SimCtx, SimNode, Simulation, SimulationBuilder, TimerId};
use agb_trace::{Recorder, TraceConfig, TraceProbe, TraceSummary};
use agb_types::{DetRng, DurationMs, NodeId, Payload, SeedSequence, TimeMs, Topology};
use rand::RngExt;

use crate::senders::{SenderModel, SenderProcess};

/// Which membership service nodes use.
#[derive(Debug, Clone, PartialEq)]
pub enum MembershipKind {
    /// Static full view (the paper's closed-group experiments).
    Full,
    /// lpbcast partial views bootstrapped with random contacts.
    Partial,
}

/// Random contacts a partial view starts from without explicit ones, as a
/// join service would hand out; fewer than the view holds.
const BOOTSTRAP_CONTACTS: usize = 8;

/// How gossip-round timers are phased across nodes.
///
/// This choice decides what an event's *age* measures, and therefore the
/// whole shape of the reliability figures:
///
/// * [`Synchronized`](PhaseModel::Synchronized) — all nodes tick at the
///   same round boundaries (delivery latency ≪ period lands a message in
///   the receiver's *next* round). One forwarding hop costs exactly one
///   round, so age ≈ hops ≈ rounds-since-birth: this is the classic
///   round-based gossip simulation model the paper's figures come from.
/// * [`Staggered`](PhaseModel::Staggered) — ticks are uniformly phased
///   within the period, like unsynchronized real deployments. Messages can
///   chain through several favourably-phased nodes within one period, so
///   dissemination is faster and ages inflate relative to rounds. The
///   threaded runtime (`agb-runtime`) behaves this way inherently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseModel {
    /// Common round boundaries (the paper's simulation model).
    Synchronized,
    /// Uniformly random per-node phase.
    Staggered,
}

/// Everything needed to build a [`GossipCluster`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Group size `n`.
    pub n_nodes: usize,
    /// Experiment seed; every run is a pure function of it.
    pub seed: u64,
    /// Protocol selection.
    pub algorithm: Algorithm,
    /// Base gossip parameters (Figure 1).
    pub gossip: GossipConfig,
    /// Adaptation parameters (Figure 5); ignored by the baselines.
    pub adaptation: AdaptationConfig,
    /// Membership service.
    pub membership: MembershipKind,
    /// Simulated network.
    pub network: NetworkConfig,
    /// Nodes `0..n_senders` run sender applications.
    pub n_senders: usize,
    /// Aggregate offered load, msgs/s, split evenly across senders.
    pub offered_rate: f64,
    /// Payload bytes per message.
    pub payload_size: usize,
    /// Per-node buffer capacity overrides (heterogeneous groups).
    pub buffer_overrides: Vec<(NodeId, usize)>,
    /// Sender backlog bound (blocking-application window).
    pub max_backlog: usize,
    /// Gossip-round phasing (see [`PhaseModel`]).
    pub phases: PhaseModel,
    /// Pull-based recovery layer (`agb-recovery`): `Some` wraps every node
    /// in a `RecoverableNode`, `None` runs push-only gossip as the paper
    /// does.
    pub recovery: Option<RecoveryConfig>,
    /// Nodes that are *not* part of the group at start: their slots exist
    /// (ids are stable) but they stay down until a scheduled
    /// [`GossipCluster::schedule_join`] brings them in through the
    /// membership protocol.
    pub absent_at_start: Vec<NodeId>,
    /// Shard/worker threads for the simulation engine (`K`). Defaults to
    /// the `AGB_THREADS` environment variable (unset: 1). Results are
    /// bit-identical at every `K`; only wall-clock time changes.
    pub threads: usize,
    /// Dissemination tracing (`agb-trace`). Disabled by default; when
    /// enabled, records flow through the engine's post-event hook in
    /// canonical order, so the trace digest is bit-identical at every
    /// thread count. Tracing never changes protocol or engine results.
    pub trace: TraceConfig,
    /// Overlay topology hint (`None`: flat group, no locality structure).
    /// Must match `n_nodes` when set. It feeds three planes: the
    /// [`LocalitySampler`](agb_membership::LocalitySampler) wrap selected by
    /// [`Self::locality_escape`], per-node overlay degrees for
    /// [`Algorithm::Routing`], and — when tracing is enabled — the region
    /// map that arms the probes' cross-partition counter.
    pub topology: Option<Topology>,
    /// Wrap every node's membership view in a
    /// [`LocalitySampler`](agb_membership::LocalitySampler) with
    /// this uniform-escape probability (requires [`Self::topology`]).
    /// `None` keeps plain uniform sampling.
    pub locality_escape: Option<f64>,
    /// φ-accrual failure detection (`agb-failure`): `Some` gives every
    /// node a ring-monitor detector fed by frame arrivals plus the
    /// heartbeat fallback for uncovered links. Verdicts run at round
    /// boundaries in virtual time, so digests stay bit-identical at
    /// every thread count. `None` (the default) changes nothing.
    pub detector: Option<DetectorConfig>,
    /// Engine profiling (`agb-profile`). Disabled by default; when
    /// enabled the engine attaches phase timers (batch lift, shard
    /// exec, merge, routing, control) and shard load-balance tracking.
    /// Profiling only reads clocks and accumulates counters — engine
    /// checksums and protocol results are bit-identical with it on or
    /// off, at every thread count.
    pub profile: ProfileConfig,
}

impl ClusterConfig {
    /// A cluster of `n_nodes` with paper-default parameters and no senders.
    pub fn new(n_nodes: usize, seed: u64) -> Self {
        ClusterConfig {
            n_nodes,
            seed,
            algorithm: Algorithm::Lpbcast,
            gossip: GossipConfig::default(),
            adaptation: AdaptationConfig::default(),
            membership: MembershipKind::Full,
            network: NetworkConfig::perfect(DurationMs::from_millis(10)),
            n_senders: 0,
            offered_rate: 0.0,
            payload_size: 0,
            buffer_overrides: Vec::new(),
            max_backlog: 2,
            phases: PhaseModel::Synchronized,
            recovery: None,
            absent_at_start: Vec::new(),
            threads: agb_sim::threads_from_env(),
            trace: TraceConfig::disabled(),
            topology: None,
            locality_escape: None,
            detector: None,
            profile: ProfileConfig::disabled(),
        }
    }

    /// A lossy-LAN scenario: default latency jitter plus independent
    /// per-message loss — the regime the recovery layer exists for.
    pub fn lossy(n_nodes: usize, seed: u64, loss: f64) -> Self {
        let mut c = ClusterConfig::new(n_nodes, seed);
        c.network = NetworkConfig::lossy(loss);
        c
    }

    fn per_sender_rate(&self) -> f64 {
        if self.n_senders == 0 {
            0.0
        } else {
            self.offered_rate / self.n_senders as f64
        }
    }

    /// Builds the protocol state machine for one node.
    ///
    /// `epoch` selects the RNG streams: epoch 0 is the initial build (the
    /// streams every pre-churn experiment already uses); higher epochs are
    /// restarts-with-state-loss, which must not replay the original
    /// randomness. `contacts` overrides the bootstrap view for partial
    /// membership (a joiner entering through a contact node); `None` uses
    /// the standard bootstrap.
    pub fn make_protocol(
        &self,
        id: NodeId,
        epoch: u64,
        contacts: Option<Vec<NodeId>>,
    ) -> Box<dyn FrameProtocol + Send> {
        let seeds = SeedSequence::new(self.seed);
        let mut gossip = self.gossip.clone();
        if let Some(&(_, cap)) = self.buffer_overrides.iter().find(|&&(n, _)| n == id) {
            gossip.max_events = cap;
        }
        let (proto_label, boot_label) = if epoch == 0 {
            ("protocol", "bootstrap")
        } else {
            ("protocol-restart", "bootstrap-restart")
        };
        let stream = u64::from(id.as_u32()) + (epoch << 32);
        let spec = StackSpec {
            algorithm: &self.algorithm,
            gossip,
            adaptation: &self.adaptation,
            recovery: self.recovery.clone(),
        };
        // The topology sets the routing degree; with a `locality_escape`
        // it also biases the view towards the node's neighbours.
        let overlay = self.topology.as_ref().map(|t| Overlay {
            neighbors: t.neighbors(id).to_vec(),
            escape: self.locality_escape,
        });
        let n = self.n_nodes;
        let proto_rng: DetRng = seeds.rng_for(proto_label, stream);
        match &self.membership {
            MembershipKind::Full => spec.build(id, n, FullView::new(n), overlay, proto_rng),
            MembershipKind::Partial => {
                let mut boot_rng: DetRng = seeds.rng_for(boot_label, stream);
                let contacts = contacts.unwrap_or_else(|| {
                    FullView::new(n).sample(&mut boot_rng, BOOTSTRAP_CONTACTS, id)
                });
                let view = PartialView::with_initial_peers(id, contacts, &mut boot_rng);
                spec.build(id, n, view, overlay, proto_rng)
            }
        }
    }

    /// The gossip-round period driving the round timers: `T` of
    /// [`Self::gossip`], for every flavor.
    pub fn round_period(&self) -> DurationMs {
        self.gossip.gossip_period
    }
}

const ROUND: TimerId = TimerId(1);
const ARRIVAL: TimerId = TimerId(2);
/// Width of the metrics collector's time bins.
const METRICS_BIN: DurationMs = DurationMs::from_secs(1);

/// One engine shard's driver slot: the partial collector its nodes'
/// protocol events fold into, and the scratch each step drains them
/// into.
#[derive(Debug, Clone)]
pub struct ShardSlot {
    metrics: MetricsCollector,
    events: Vec<ProtocolEvent>,
}

/// One simulated host: a [`NodeShell`] plus (optionally) a sender
/// application.
///
/// The node holds no handle to a shared collector or recorder (so it
/// stays `Send` for the sharded engine). Each step folds its protocol
/// events into the metrics partial of the node's engine shard, on
/// whichever thread runs the batch. Trace records stay buffered in the
/// node until the engine's post-event hook drains them at the merge
/// barrier, in canonical event order — the order the single-threaded
/// engine produces, which the trace digest depends on.
pub struct ClusterNode {
    shell: NodeShell<TraceProbe>,
    sender: Option<SenderProcess>,
    payload: Payload,
    period: DurationMs,
    phase: DurationMs,
}

impl ClusterNode {
    /// Feeds one input, folds the events it caused into the shard's
    /// metrics partial, and sends what the shell emits.
    fn step(&mut self, input: Input, ctx: &mut SimCtx<'_, GossipFrame, ShardSlot>) {
        let mut out = Vec::new();
        let (now, node) = (ctx.now(), ctx.self_id());
        let slot = ctx.slot();
        self.shell.step(now, input, &mut out, &mut slot.events);
        slot.metrics.on_events(node, &slot.events);
        slot.events.clear();
        for (to, frame) in out {
            ctx.send(to, frame);
        }
    }

    /// The wrapped protocol (for inspection by tests and scenario hooks).
    pub fn protocol(&self) -> &dyn FrameProtocol {
        self.shell.protocol()
    }

    /// Offers arrivals suppressed by the blocked application so far.
    pub fn suppressed_offers(&self) -> u64 {
        self.sender.as_ref().map_or(0, SenderProcess::suppressed)
    }
}

impl SimNode for ClusterNode {
    type Msg = GossipFrame;
    type Slot = ShardSlot;

    fn on_start(&mut self, ctx: &mut SimCtx<'_, GossipFrame, ShardSlot>) {
        ctx.set_periodic_timer(ROUND, self.phase, self.period);
        if let Some(sender) = &self.sender {
            let delay = sender.next_at().since(ctx.now());
            ctx.set_timer(ARRIVAL, delay);
        }
    }

    fn on_timer(&mut self, timer: TimerId, ctx: &mut SimCtx<'_, GossipFrame, ShardSlot>) {
        let now = ctx.now();
        match timer {
            ROUND => {
                self.step(Input::Round, ctx);
                // Keep the sender alive across crash/recover cycles: the
                // one-shot ARRIVAL timer dies while the node is down, so
                // the (periodic, self-resuming) round re-arms it.
                if let Some(sender) = &self.sender {
                    ctx.set_timer(ARRIVAL, sender.next_at().since(now));
                }
            }
            ARRIVAL => {
                let Some(sender) = &mut self.sender else {
                    return;
                };
                let before = sender.suppressed();
                let offers = sender.poll(now, self.shell.protocol().pending_len());
                let refused = sender.suppressed() - before;
                ctx.set_timer(ARRIVAL, sender.next_at().since(now));
                if refused > 0 {
                    self.step(Input::Refused(refused), ctx);
                }
                for _ in 0..offers {
                    self.step(Input::Offer(self.payload.clone()), ctx);
                }
            }
            _ => {}
        }
    }

    fn on_message(
        &mut self,
        from: NodeId,
        frame: GossipFrame,
        ctx: &mut SimCtx<'_, GossipFrame, ShardSlot>,
    ) {
        self.step(Input::Frame { from, frame }, ctx);
    }
}

/// A complete simulated gossip deployment: protocol nodes, senders,
/// network, metrics.
pub struct GossipCluster {
    sim: Simulation<ClusterNode>,
    /// The facts the driver records itself: initial rates, membership
    /// transitions and restart marks.
    driver: MetricsCollector,
    /// `driver` with every shard's partial merged in, built by the first
    /// [`metrics`](Self::metrics) read since the simulation last moved.
    merged: RefCell<Option<MetricsCollector>>,
    trace: Option<Rc<RefCell<Recorder>>>,
    config: ClusterConfig,
    n_nodes: usize,
}

impl GossipCluster {
    /// Builds the cluster described by `config`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (zero nodes, more senders
    /// than nodes, invalid protocol configs).
    pub fn build(config: ClusterConfig) -> Self {
        assert!(config.n_nodes > 0, "cluster needs at least one node");
        assert!(
            config.n_senders <= config.n_nodes,
            "more senders than nodes"
        );
        config
            .gossip
            .validate()
            .unwrap_or_else(|e| panic!("invalid gossip config: {e}"));
        if matches!(config.algorithm, Algorithm::Adaptive) {
            config
                .adaptation
                .validate()
                .unwrap_or_else(|e| panic!("invalid adaptation config: {e}"));
        }
        if let Algorithm::Routing(rc) = &config.algorithm {
            rc.validate()
                .unwrap_or_else(|e| panic!("invalid routing config: {e}"));
        }
        if let Some(topo) = &config.topology {
            assert_eq!(
                topo.len(),
                config.n_nodes,
                "topology size must match n_nodes"
            );
        }
        assert!(
            config.locality_escape.is_none() || config.topology.is_some(),
            "locality_escape requires a topology"
        );

        let seeds = SeedSequence::new(config.seed);
        let mut driver = MetricsCollector::new(config.n_nodes, METRICS_BIN);
        let payload = Payload::from(vec![0u8; config.payload_size]);
        let per_sender_rate = config.per_sender_rate();
        let period = config.round_period();
        // One shared region map, handed to every probe: cross-partition
        // accounting is observational, so it only exists while tracing.
        let regions: Option<Arc<[u32]>> = if config.trace.enabled {
            config
                .topology
                .as_ref()
                .map(|t| Arc::from(t.regions().to_vec()))
        } else {
            None
        };

        for absent in &config.absent_at_start {
            assert!(
                absent.index() < config.n_nodes,
                "absent node {absent} out of range"
            );
            driver.mark_absent_from_start(*absent);
        }

        let mut nodes = Vec::with_capacity(config.n_nodes);
        for i in 0..config.n_nodes {
            let id = NodeId::new(i as u32);
            let protocol = config.make_protocol(id, 0, None);

            let sender = if i < config.n_senders && per_sender_rate > 0.0 {
                let model = SenderModel::Constant {
                    rate: per_sender_rate,
                };
                if matches!(config.algorithm, Algorithm::Adaptive) {
                    driver.set_initial_rate(id, config.adaptation.initial_rate);
                }
                Some(
                    SenderProcess::new(model, TimeMs::ZERO, seeds.rng_for("sender", i as u64))
                        .with_max_backlog(config.max_backlog),
                )
            } else {
                None
            };

            let phase = match config.phases {
                PhaseModel::Synchronized => period,
                PhaseModel::Staggered => {
                    let mut phase_rng: DetRng = seeds.rng_for("phase", i as u64);
                    DurationMs::from_millis(phase_rng.random_range(1..=period.as_millis().max(1)))
                }
            };

            let mut probe = TraceProbe::new(config.trace, id);
            if let Some(r) = &regions {
                probe.set_regions(Arc::clone(r));
            }
            nodes.push(ClusterNode {
                shell: NodeShell::new(protocol, config.detector.as_ref(), config.n_nodes, probe),
                sender,
                payload: payload.clone(),
                period,
                phase,
            });
        }

        let slot = ShardSlot {
            metrics: driver.partial(),
            events: Vec::new(),
        };
        let mut sim = SimulationBuilder::new(seeds.seed_for("sim", 0))
            .network(config.network.clone())
            .initially_down(config.absent_at_start.iter().copied())
            .threads(config.threads.max(1))
            .profile(config.profile)
            .build(nodes, slot);
        let trace = config
            .trace
            .enabled
            .then(|| Rc::new(RefCell::new(Recorder::new(config.trace).with_round(period))));
        // Probes buffer their trace records locally; this hook drains them
        // into the shared recorder, if tracing, after every handler
        // invocation, in canonical event order, always on the driving
        // thread.
        let hook_trace = trace.clone();
        sim.set_post_event_hook(Box::new(move |node: &mut ClusterNode| {
            if let Some(recorder) = &hook_trace {
                let mut recorder = recorder.borrow_mut();
                for record in node.shell.observer_mut().drain_pending() {
                    recorder.record(record);
                }
            }
        }));

        GossipCluster {
            sim,
            driver,
            merged: RefCell::new(None),
            trace,
            n_nodes: config.n_nodes,
            config,
        }
    }

    /// Group size.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Current virtual time.
    pub fn now(&self) -> TimeMs {
        self.sim.now()
    }

    /// Runs the simulation until virtual time `t`, using the configured
    /// shard count ([`ClusterConfig::threads`]); results are identical
    /// at every thread count.
    pub fn run_until(&mut self, t: TimeMs) {
        *self.merged.get_mut() = None;
        self.sim.run_until(t);
    }

    /// Runs the simulation for a further `d`.
    pub fn run_for(&mut self, d: DurationMs) {
        self.run_until(self.sim.now() + d);
    }

    /// The engine's shard/worker-thread count.
    pub fn threads(&self) -> usize {
        self.sim.threads()
    }

    /// Lowers the smallest event batch that is fanned out to worker
    /// threads (tests use this so tiny clusters exercise the worker
    /// path; results never depend on it).
    pub fn set_parallel_threshold(&mut self, min_batch: usize) {
        self.sim.set_parallel_threshold(min_batch);
    }

    /// Read access to the collected metrics: the driver's own facts
    /// merged with every shard's partial. The first read after the
    /// simulation moved merges them; later reads reuse the merge.
    pub fn metrics(&self) -> Ref<'_, MetricsCollector> {
        if self.merged.borrow().is_none() {
            let mut merged = self.driver.clone();
            for slot in self.sim.slots() {
                merged.merge(&slot.metrics);
            }
            *self.merged.borrow_mut() = Some(merged);
        }
        Ref::map(self.merged.borrow(), |m| m.as_ref().expect("merged above"))
    }

    /// Records a membership transition on the driver's collector, and a
    /// restart mark on every shard's partial too, which the catch-up
    /// tracker needs while the nodes run.
    fn record_membership(&mut self, node: NodeId, at: TimeMs, up: bool) {
        *self.merged.get_mut() = None;
        self.driver.record_membership(node, at, up);
        if up {
            for slot in self.sim.slots_mut() {
                slot.metrics.mark_restart(node, at);
            }
        }
    }

    /// Read access to the trace recorder, if tracing is enabled
    /// ([`ClusterConfig::trace`]).
    pub fn trace(&self) -> Option<Ref<'_, Recorder>> {
        self.trace.as_ref().map(|t| t.borrow())
    }

    /// Snapshots the trace into a [`TraceSummary`] labeled `label`, if
    /// tracing is enabled.
    pub fn trace_summary(&self, label: &str) -> Option<TraceSummary> {
        self.trace.as_ref().map(|t| t.borrow().summary(label))
    }

    /// Engine-level statistics (sends, drops, determinism checksum).
    pub fn sim_stats(&self) -> NetStats {
        self.sim.stats()
    }

    /// High-water mark of the engine's future event list (perf harness).
    pub fn peak_queue_depth(&self) -> usize {
        self.sim.peak_pending_events()
    }

    /// Restarts peak tracking of the future event list from its current
    /// depth (the perf harness calls this at the warmup/measure
    /// boundary so the reported peak covers measured rounds only).
    pub fn reset_peak_queue_depth(&mut self) {
        self.sim.reset_peak_pending_events();
    }

    /// Total engine events processed so far (perf harness).
    pub fn events_processed(&self) -> u64 {
        self.sim.events_processed()
    }

    /// Snapshot of the engine profiler's accumulated phase timings and
    /// shard-balance stats (`None` when [`ClusterConfig::profile`] is
    /// disabled).
    pub fn profiler_snapshot(&self) -> Option<ProfilerSnapshot> {
        self.sim.profiler_snapshot()
    }

    /// Mutable access to the attached engine profiler (for wiring an
    /// allocation counter), if profiling is enabled.
    pub fn profiler_mut(&mut self) -> Option<&mut Profiler> {
        self.sim.profiler_mut()
    }

    /// Memory-attribution table over the whole cluster: the engine's
    /// future event list, every node's per-subsystem breakdown
    /// ([`FrameProtocol::mem_breakdown`]), and the trace recorder when
    /// tracing is on. Byte figures are deterministic `size_of`
    /// estimates — identical at every thread count — and available
    /// whether or not profiling is enabled.
    pub fn mem_table(&self) -> MemTable {
        let mut table = MemTable::new(self.n_nodes as u64);
        table.record("engine_event_queue", self.sim.queue_mem());
        for node in self.sim.nodes() {
            for (label, usage) in node.protocol().mem_breakdown() {
                table.record(label, usage);
            }
        }
        if let Some(trace) = &self.trace {
            table.record("trace_recorder", trace.borrow().mem_usage());
        }
        table
    }

    /// Schedules a buffer resize for one node (the Figure 9 experiment
    /// shrinks 20% of the nodes, later grows them again).
    pub fn schedule_resize(&mut self, at: TimeMs, node: NodeId, capacity: usize) {
        self.sim.schedule_node_action(at, node, move |n, ctx| {
            n.step(Input::Resize(capacity), ctx);
        });
    }

    /// Schedules a crash: from `at` the node receives nothing and its
    /// timers are suppressed; its state survives for a later
    /// [`schedule_recover`](Self::schedule_recover).
    pub fn schedule_crash(&mut self, at: TimeMs, node: NodeId) {
        self.record_membership(node, at, false);
        // Controls are barrier events on the driving thread — no sends,
        // no RNG — so engine results are unchanged.
        self.sim
            .schedule_node_action(at, node, |n, ctx| n.step(Input::Crash, ctx));
        self.sim.schedule_crash(at, node);
    }

    /// Schedules a recovery from a crash, state intact.
    pub fn schedule_recover(&mut self, at: TimeMs, node: NodeId) {
        self.record_membership(node, at, true);
        self.sim.schedule_recover(at, node);
        self.sim
            .schedule_node_action(at, node, |n, ctx| n.step(Input::Recover, ctx));
    }

    /// Schedules a *restart with state loss* at `at`: the node comes back
    /// up with a freshly built protocol (empty buffers, empty dedup state,
    /// re-bootstrapped membership view) and re-enters through its normal
    /// start path. `epoch` must be unique per restart of this node (1, 2,
    /// …) so the rebuilt protocol draws fresh randomness.
    pub fn schedule_restart(&mut self, at: TimeMs, node: NodeId, epoch: u64) {
        self.record_membership(node, at, true);
        let protocol = self.config.make_protocol(node, epoch, None);
        self.sim.schedule_restart(at, node, move |n, ctx| {
            n.step(Input::Restart(protocol), ctx);
        });
    }

    /// Schedules a protocol-level *join* at `at`: the node (which must be
    /// listed in [`ClusterConfig::absent_at_start`], or crashed/left
    /// earlier) spawns with a view containing only `contacts` and
    /// announces itself through normal subscription gossip — nothing else
    /// in the group is told about it out of band.
    pub fn schedule_join(&mut self, at: TimeMs, node: NodeId, epoch: u64, contacts: Vec<NodeId>) {
        self.record_membership(node, at, true);
        let protocol = self.config.make_protocol(node, epoch, Some(contacts));
        self.sim.schedule_restart(at, node, move |n, ctx| {
            n.step(Input::Join(protocol), ctx);
        });
    }

    /// Schedules a *graceful leave* at `at`: the node emits farewell
    /// messages (flushing its buffer, carrying its own unsubscription for
    /// partial views) and then goes down for good.
    pub fn schedule_leave(&mut self, at: TimeMs, node: NodeId) {
        self.record_membership(node, at, false);
        self.sim
            .schedule_node_action(at, node, |n, ctx| n.step(Input::Leave, ctx));
        // Same instant, scheduled after the action: farewell first, then
        // silence.
        self.sim.schedule_crash(at, node);
    }

    /// Schedules an eviction: at `at`, `at_node` drops `dead` from its
    /// membership view (and, for partial views, starts propagating the
    /// unsubscription) — the external-failure-detector hook of churn
    /// scenarios.
    pub fn schedule_evict(&mut self, at: TimeMs, at_node: NodeId, dead: NodeId) {
        self.sim.schedule_node_action(at, at_node, move |n, ctx| {
            n.step(Input::Evict(dead), ctx);
        });
    }

    /// Schedules a sender burst storm: `count` messages offered at once at
    /// `node` at time `at`.
    pub fn schedule_burst(&mut self, at: TimeMs, node: NodeId, count: usize) {
        self.sim.schedule_node_action(at, node, move |n, ctx| {
            for _ in 0..count {
                n.step(Input::Offer(n.payload.clone()), ctx);
            }
        });
    }

    /// Whether `node` is currently down (crashed, left, or not yet
    /// joined).
    pub fn is_down(&self, node: NodeId) -> bool {
        self.sim.is_down(node)
    }

    /// The configuration the cluster was built from.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The allowed rate currently in force at `node` (None for baselines).
    pub fn allowed_rate(&self, node: NodeId) -> Option<f64> {
        self.sim.node(node).protocol().allowed_rate()
    }

    /// Sum of allowed rates over the first `n_senders` nodes.
    pub fn aggregate_allowed_rate(&self, n_senders: usize) -> f64 {
        (0..n_senders)
            .filter_map(|i| self.allowed_rate(NodeId::new(i as u32)))
            .sum()
    }

    /// Buffer occupancy of `node`.
    pub fn buffer_len(&self, node: NodeId) -> usize {
        self.sim.node(node).protocol().buffer_len()
    }

    /// Total offers suppressed by blocked sender applications.
    pub fn suppressed_offers(&self) -> u64 {
        self.sim.nodes().map(ClusterNode::suppressed_offers).sum()
    }

    /// Direct node access for scenario hooks and tests.
    pub fn node(&self, id: NodeId) -> &ClusterNode {
        self.sim.node(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agb_topology::RoutingConfig;

    fn small_config(algorithm: Algorithm) -> ClusterConfig {
        let mut c = ClusterConfig::new(16, 7);
        c.algorithm = algorithm;
        c.n_senders = 2;
        c.offered_rate = 2.0;
        let mut gossip = GossipConfig::default();
        gossip.max_events = 30;
        c.gossip = gossip;
        c
    }

    #[test]
    fn lpbcast_cluster_delivers_broadcasts() {
        let mut cluster = GossipCluster::build(small_config(Algorithm::Lpbcast));
        cluster.run_until(TimeMs::from_secs(30));
        let m = cluster.metrics();
        assert!(m.admitted().total() > 0, "senders must admit messages");
        let report = m.deliveries().atomicity(0.95, None);
        assert!(report.messages > 0);
        // Light load on a healthy group: high reliability.
        assert!(
            report.avg_receiver_fraction > 0.9,
            "avg receiver fraction {}",
            report.avg_receiver_fraction
        );
    }

    #[test]
    fn adaptive_cluster_runs_and_tracks_rates() {
        let mut cluster = GossipCluster::build(small_config(Algorithm::Adaptive));
        cluster.run_until(TimeMs::from_secs(30));
        assert!(cluster.allowed_rate(NodeId::new(0)).is_some());
        assert!(cluster.aggregate_allowed_rate(2) > 0.0);
        let m = cluster.metrics();
        assert!(m.admitted().total() > 0);
    }

    #[test]
    fn same_seed_reproduces_exactly() {
        let run = || {
            let mut c = GossipCluster::build(small_config(Algorithm::Adaptive));
            c.run_until(TimeMs::from_secs(20));
            let stats = c.sim_stats();
            let admitted = c.metrics().admitted().total();
            let delivered = c.metrics().delivered().total();
            (stats, admitted, delivered)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn different_seeds_diverge() {
        let run = |seed| {
            let mut config = small_config(Algorithm::Lpbcast);
            config.seed = seed;
            let mut c = GossipCluster::build(config);
            c.run_until(TimeMs::from_secs(20));
            c.sim_stats().checksum
        };
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn buffer_override_applies() {
        let mut config = small_config(Algorithm::Lpbcast);
        config.buffer_overrides = vec![(NodeId::new(3), 7)];
        let cluster = GossipCluster::build(config);
        assert_eq!(cluster.node(NodeId::new(3)).protocol().buffer_capacity(), 7);
        assert_eq!(
            cluster.node(NodeId::new(4)).protocol().buffer_capacity(),
            30
        );
    }

    #[test]
    fn scheduled_resize_takes_effect() {
        let mut cluster = GossipCluster::build(small_config(Algorithm::Adaptive));
        cluster.schedule_resize(TimeMs::from_secs(5), NodeId::new(1), 9);
        cluster.run_until(TimeMs::from_secs(6));
        assert_eq!(cluster.node(NodeId::new(1)).protocol().buffer_capacity(), 9);
    }

    #[test]
    fn partial_membership_cluster_works() {
        let mut config = small_config(Algorithm::Lpbcast);
        config.membership = MembershipKind::Partial;
        let mut cluster = GossipCluster::build(config);
        cluster.run_until(TimeMs::from_secs(30));
        let m = cluster.metrics();
        let report = m.deliveries().atomicity(0.95, None);
        assert!(report.messages > 0);
        assert!(
            report.avg_receiver_fraction > 0.8,
            "partial views should still disseminate: {}",
            report.avg_receiver_fraction
        );
    }

    #[test]
    fn static_rate_algorithm_throttles() {
        let mut config = small_config(Algorithm::LpbcastStatic {
            rate_per_sender: 0.5,
        });
        config.offered_rate = 10.0; // 5 msgs/s per sender offered
        let mut cluster = GossipCluster::build(config);
        cluster.run_until(TimeMs::from_secs(40));
        let m = cluster.metrics();
        let input = m.input_rate(TimeMs::from_secs(10), TimeMs::from_secs(40));
        // Two senders at 0.5 msg/s static limit: ~1 msg/s aggregate.
        assert!(input < 2.0, "static throttle must bind, got {input}");
        drop(m);
        assert!(cluster.suppressed_offers() > 0);
    }

    #[test]
    fn restart_with_state_loss_resets_protocol() {
        let mut cluster = GossipCluster::build(small_config(Algorithm::Lpbcast));
        cluster.schedule_crash(TimeMs::from_secs(5), NodeId::new(3));
        cluster.schedule_restart(TimeMs::from_secs(10), NodeId::new(3), 1);
        cluster.run_until(TimeMs::from_secs(11));
        // Fresh state: the dedup/event buffers were rebuilt. The node keeps
        // participating afterwards.
        assert!(!cluster.is_down(NodeId::new(3)));
        cluster.run_until(TimeMs::from_secs(30));
        let m = cluster.metrics();
        // Restart was recorded for catch-up measurement and in the
        // timeline.
        assert_eq!(m.catch_up().records().len(), 1);
        assert!(m.catch_up().records()[0].first_delivery.is_some());
        assert!(!m
            .membership_timeline()
            .up_at(NodeId::new(3), TimeMs::from_secs(7)));
        assert!(m
            .membership_timeline()
            .up_at(NodeId::new(3), TimeMs::from_secs(12)));
    }

    #[test]
    fn join_through_contact_enters_partial_views() {
        let mut config = small_config(Algorithm::Lpbcast);
        config.membership = MembershipKind::Partial;
        let joiner = NodeId::new(15);
        config.absent_at_start = vec![joiner];
        let mut cluster = GossipCluster::build(config);
        cluster.schedule_join(TimeMs::from_secs(10), joiner, 1, vec![NodeId::new(0)]);
        cluster.run_until(TimeMs::from_secs(40));
        // The joiner's subscription propagated beyond its contact: count
        // how many other nodes learned about it purely via gossip.
        let knowers = (0..15u32)
            .filter(|&i| {
                cluster
                    .node(NodeId::new(i))
                    .protocol()
                    .membership_view()
                    .contains(&joiner)
            })
            .count();
        assert!(knowers > 1, "only {knowers} nodes learned of the joiner");
        // And the joiner delivers traffic.
        let m = cluster.metrics();
        assert!(m.membership_timeline().up_at(joiner, TimeMs::from_secs(11)));
    }

    #[test]
    fn graceful_leave_propagates_unsubscription() {
        let mut config = small_config(Algorithm::Lpbcast);
        config.membership = MembershipKind::Partial;
        let mut cluster = GossipCluster::build(config);
        let leaver = NodeId::new(5);
        // Let views converge, then leave.
        cluster.schedule_leave(TimeMs::from_secs(15), leaver);
        cluster.run_until(TimeMs::from_secs(45));
        assert!(cluster.is_down(leaver));
        let still_known = (0..16u32)
            .filter(|&i| NodeId::new(i) != leaver)
            .filter(|&i| {
                cluster
                    .node(NodeId::new(i))
                    .protocol()
                    .membership_view()
                    .contains(&leaver)
            })
            .count();
        // The unsubscription keeps circulating; most views must have
        // dropped the leaver well before the horizon.
        assert!(
            still_known <= 4,
            "{still_known} views still hold the leaver"
        );
    }

    #[test]
    fn burst_storm_offers_messages() {
        let mut cluster = GossipCluster::build(small_config(Algorithm::Lpbcast));
        cluster.schedule_burst(TimeMs::from_secs(5), NodeId::new(7), 25);
        cluster.run_until(TimeMs::from_secs(6));
        let m = cluster.metrics();
        assert!(m.admitted().total() >= 25);
    }

    #[test]
    fn chaos_schedule_is_deterministic() {
        let run = || {
            let mut config = small_config(Algorithm::Lpbcast);
            config.membership = MembershipKind::Partial;
            let mut cluster = GossipCluster::build(config);
            cluster.schedule_crash(TimeMs::from_secs(4), NodeId::new(2));
            cluster.schedule_restart(TimeMs::from_secs(9), NodeId::new(2), 1);
            cluster.schedule_leave(TimeMs::from_secs(12), NodeId::new(9));
            cluster.schedule_burst(TimeMs::from_secs(14), NodeId::new(1), 10);
            cluster.run_until(TimeMs::from_secs(25));
            let stats = cluster.sim_stats();
            let m = cluster.metrics();
            (stats, m.admitted().total(), m.delivered().total())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn tracing_never_changes_engine_results() {
        let run = |traced: bool| {
            let mut config = small_config(Algorithm::Adaptive);
            config.network = NetworkConfig::lossy(0.1);
            config.recovery = Some(RecoveryConfig::default());
            if traced {
                config.trace = TraceConfig::enabled();
            }
            let mut c = GossipCluster::build(config);
            c.schedule_crash(TimeMs::from_secs(5), NodeId::new(3));
            c.schedule_restart(TimeMs::from_secs(9), NodeId::new(3), 1);
            c.run_until(TimeMs::from_secs(20));
            let m = c.metrics();
            (c.sim_stats(), m.admitted().total(), m.delivered().total())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn traced_run_records_the_taxonomy() {
        let mut config = small_config(Algorithm::Adaptive);
        config.network = NetworkConfig::lossy(0.1);
        config.recovery = Some(RecoveryConfig::default());
        config.trace = TraceConfig::enabled();
        let mut c = GossipCluster::build(config);
        c.run_until(TimeMs::from_secs(30));
        let trace = c.trace().expect("tracing enabled");
        let counts = trace.counts();
        assert!(counts.publishes > 0, "publishes");
        assert!(counts.relays > 0, "relays");
        assert!(counts.delivers > 0, "delivers");
        assert!(counts.duplicates > 0, "duplicates");
        assert!(trace.occupancy().count() > 0, "occupancy snapshots");
        assert!(trace.latency().count() > 0, "latency samples");
        assert!(trace.hops().count() > 0, "hop samples");
        let tree = trace.trees().stats();
        assert!(tree.events > 0 && tree.redundancy >= 1.0);
        // Publishes are mirrored by the metrics layer's admitted count.
        assert_eq!(counts.publishes, c.metrics().admitted().total());
    }

    #[test]
    fn trace_digest_is_identical_across_thread_counts() {
        let run = |threads: usize| {
            let mut config = small_config(Algorithm::Adaptive);
            config.network = NetworkConfig::lossy(0.15);
            config.recovery = Some(RecoveryConfig::default());
            config.trace = TraceConfig::enabled();
            config.threads = threads;
            let mut c = GossipCluster::build(config);
            c.set_parallel_threshold(1);
            c.schedule_crash(TimeMs::from_secs(6), NodeId::new(2));
            c.schedule_restart(TimeMs::from_secs(11), NodeId::new(2), 1);
            c.run_until(TimeMs::from_secs(25));
            c.trace_summary("k-invariance").unwrap()
        };
        let k1 = run(1);
        let k4 = run(4);
        assert_eq!(k1.digest, k4.digest);
        assert_eq!(k1, k4);
    }

    #[test]
    #[should_panic(expected = "more senders than nodes")]
    fn rejects_excess_senders() {
        let mut c = ClusterConfig::new(2, 1);
        c.n_senders = 3;
        let _ = GossipCluster::build(c);
    }

    #[test]
    #[should_panic(expected = "topology size must match n_nodes")]
    fn rejects_mismatched_topology() {
        let mut c = ClusterConfig::new(16, 1);
        c.topology = Some(Topology::grid(3, 3));
        let _ = GossipCluster::build(c);
    }

    #[test]
    #[should_panic(expected = "locality_escape requires a topology")]
    fn rejects_escape_without_topology() {
        let mut c = ClusterConfig::new(16, 1);
        c.locality_escape = Some(0.1);
        let _ = GossipCluster::build(c);
    }

    #[test]
    fn routing_cluster_delivers_on_a_grid() {
        let mut config = small_config(Algorithm::Routing(RoutingConfig::default()));
        config.topology = Some(Topology::grid(4, 4));
        config.locality_escape = Some(0.1);
        let mut cluster = GossipCluster::build(config);
        cluster.run_until(TimeMs::from_secs(30));
        let m = cluster.metrics();
        let report = m.deliveries().atomicity(0.95, None);
        assert!(report.messages > 0);
        assert!(
            report.avg_receiver_fraction > 0.9,
            "grid routing should still reach the group: {}",
            report.avg_receiver_fraction
        );
    }

    #[test]
    fn locality_bias_cuts_cross_region_frames() {
        // Clustered overlay: neighbour lists are intra-clique except for
        // the bridges, so biased sampling concentrates traffic inside
        // regions far more than any uniform run can.
        let run = |escape: Option<f64>| {
            let mut config = small_config(Algorithm::Lpbcast);
            config.topology = Some(Topology::clustered(4, 4, 2, 5));
            config.locality_escape = escape;
            config.trace = TraceConfig::enabled();
            let mut c = GossipCluster::build(config);
            c.run_until(TimeMs::from_secs(30));
            let trace = c.trace().unwrap();
            let counts = trace.counts();
            (counts.cross_partition_msgs, counts.delivers)
        };
        let (uniform_cross, uniform_delivers) = run(None);
        let (biased_cross, biased_delivers) = run(Some(0.1));
        assert!(uniform_cross > 0, "uniform gossip must cross regions");
        assert!(uniform_delivers > 0 && biased_delivers > 0);
        assert!(
            biased_cross < uniform_cross / 2,
            "bias must cut cross-region frames: biased {biased_cross}, uniform {uniform_cross}"
        );
    }

    #[test]
    fn detector_evicts_crashed_node_and_welcomes_it_back() {
        let mut config = small_config(Algorithm::Lpbcast);
        config.trace = TraceConfig::enabled();
        config.detector = Some(DetectorConfig::default());
        let mut cluster = GossipCluster::build(config);
        let victim = NodeId::new(9);
        cluster.schedule_crash(TimeMs::from_secs(10), victim);
        cluster.schedule_recover(TimeMs::from_secs(22), victim);
        cluster.run_until(TimeMs::from_secs(40));
        let counts = cluster.trace_summary("detector").unwrap().counts;
        assert!(counts.heartbeats > 0, "heartbeat fallback ran");
        assert!(counts.suspects > 0, "the silent node was suspected");
        assert!(counts.detector_evicts > 0, "the silent node was evicted");
        assert!(
            counts.rejoins > 0,
            "the recovered node speaking again was welcomed back"
        );
    }

    #[test]
    fn detector_has_no_false_positives_without_faults() {
        let mut config = small_config(Algorithm::Lpbcast);
        config.trace = TraceConfig::enabled();
        config.detector = Some(DetectorConfig::default());
        let mut cluster = GossipCluster::build(config);
        cluster.run_until(TimeMs::from_secs(60));
        let counts = cluster.trace_summary("healthy").unwrap().counts;
        assert_eq!(counts.detector_evicts, 0, "no evictions without a fault");
        assert_eq!(counts.suspects, 0, "no suspicion on a healthy group");
    }

    #[test]
    fn detector_digest_is_identical_across_thread_counts() {
        let run = |threads: usize| {
            let mut config = small_config(Algorithm::Lpbcast);
            config.network = NetworkConfig::lossy(0.1);
            config.recovery = Some(RecoveryConfig::default());
            config.trace = TraceConfig::enabled();
            config.detector = Some(DetectorConfig::default());
            config.threads = threads;
            let mut c = GossipCluster::build(config);
            c.set_parallel_threshold(1);
            c.schedule_crash(TimeMs::from_secs(8), NodeId::new(4));
            c.schedule_recover(TimeMs::from_secs(20), NodeId::new(4));
            c.run_until(TimeMs::from_secs(30));
            (c.sim_stats(), c.trace_summary("detector-k").unwrap())
        };
        let k1 = run(1);
        let k4 = run(4);
        assert_eq!(k1.0, k4.0);
        assert_eq!(k1.1.digest, k4.1.digest);
        assert!(k1.1.counts.detector_evicts > 0, "the detector acted");
    }

    #[test]
    fn profiling_never_changes_engine_results() {
        let run = |profiled: bool| {
            let mut config = small_config(Algorithm::Adaptive);
            config.network = NetworkConfig::lossy(0.1);
            config.recovery = Some(RecoveryConfig::default());
            if profiled {
                config.profile = ProfileConfig::enabled();
            }
            let mut c = GossipCluster::build(config);
            c.run_until(TimeMs::from_secs(20));
            let m = c.metrics();
            (c.sim_stats(), m.admitted().total(), m.delivered().total())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn profiled_cluster_reports_phases_and_memory() {
        let mut config = small_config(Algorithm::Adaptive);
        config.network = NetworkConfig::lossy(0.1);
        config.recovery = Some(RecoveryConfig::default());
        config.trace = TraceConfig::enabled();
        config.profile = ProfileConfig::enabled();
        let mut c = GossipCluster::build(config);
        c.run_until(TimeMs::from_secs(20));
        let snap = c.profiler_snapshot().expect("profiling enabled");
        assert!(snap.phase(agb_profile::Phase::BatchLift).count > 0);
        assert!(snap.phase(agb_profile::Phase::ShardExec).total_ns > 0);
        assert!(snap.phase(agb_profile::Phase::Route).count > 0);
        let table = c.mem_table();
        let labels: Vec<_> = table.rows().iter().map(|(l, _)| l.as_str()).collect();
        assert!(labels.contains(&"engine_event_queue"), "{labels:?}");
        assert!(labels.contains(&"event_buffer"), "{labels:?}");
        assert!(labels.contains(&"retransmission_cache"), "{labels:?}");
        assert!(labels.contains(&"membership_view"), "{labels:?}");
        assert!(labels.contains(&"trace_recorder"), "{labels:?}");
        assert!(table.total().bytes > 0);
        assert_eq!(table.nodes(), 16);
        // The mem table is deterministic: a second identical run
        // reproduces it row for row.
        let mut config2 = small_config(Algorithm::Adaptive);
        config2.network = NetworkConfig::lossy(0.1);
        config2.recovery = Some(RecoveryConfig::default());
        config2.trace = TraceConfig::enabled();
        let mut c2 = GossipCluster::build(config2);
        c2.run_until(TimeMs::from_secs(20));
        assert_eq!(c.mem_table().rows(), c2.mem_table().rows());
    }

    #[test]
    fn routing_cluster_is_deterministic() {
        let run = || {
            let mut config = small_config(Algorithm::Routing(RoutingConfig::default()));
            config.topology = Some(Topology::clustered(4, 4, 2, 3));
            config.locality_escape = Some(0.2);
            config.recovery = Some(RecoveryConfig::default());
            let mut c = GossipCluster::build(config);
            c.run_until(TimeMs::from_secs(25));
            let m = c.metrics();
            (c.sim_stats(), m.admitted().total(), m.delivered().total())
        };
        assert_eq!(run(), run());
    }
}
