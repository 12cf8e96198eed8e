//! The simulation engine: virtual clock, node registry, timer service and
//! message routing through the network model.
//!
//! # Execution model
//!
//! The future event list is processed one virtual *instant* at a time.
//! Within an instant, consecutive `Deliver`/`Timer` events form a
//! *batch*: they are lifted out of the queue together, executed against
//! per-node state with all effects buffered, and the effects are merged
//! back in canonical order (pop order; each event's effects in
//! generation order). Scheduled control actions act as barriers: they
//! split batches and always run on the calling thread:
//!
//! * [`Simulation::schedule_node_action`] runs a closure against one
//!   node with a [`SimCtx`], so it may send and arm timers like any
//!   handler;
//! * [`Simulation::schedule_restart`] clears a node's timers, marks it
//!   up and runs its closure and then its `on_start` in one invocation;
//! * [`Simulation::schedule_crash`] / [`Simulation::schedule_recover`]
//!   flip a node's down flag.
//!
//! The [`NetworkConfig`] is fixed when the simulation is built: a
//! partition, link fault or adversary window acts only inside its own
//! `[from, until)`, so fault windows need no scheduled event.
//!
//! Each shard of the engine's [`ShardMap`] owns one driver slot of the
//! node's [`SimNode::Slot`] type, fixed at build. A handler reaches its
//! node's slot through [`SimCtx::slot`] whether its batch runs inline or
//! on a worker, so a slot sees its nodes' facts in canonical order and
//! facts that merge in any order need no barrier.
//!
//! The post-event hook runs once after every handler invocation, the
//! node actions and restarts included.
//!
//! Because the merge order is canonical, a batch may be executed by one
//! thread or sharded across `K` scoped worker threads with bit-identical
//! results: same delivery order, same RNG draws (network randomness is a
//! stream per sending node), same [`NetStats::checksum`].
//! [`Simulation::run_until`] is the one run path: it fans a batch out
//! when `K > 1` ([`SimulationBuilder::threads`] / [`threads_from_env`])
//! and the batch reaches the parallel threshold, and runs it inline
//! otherwise. `K = 1` runs every batch inline; it is the oracle the
//! sharded execution is tested against.

use agb_profile::{MemUsage, Phase, ProfileConfig, Profiler, ProfilerSnapshot};
use agb_types::{DetRng, DurationMs, NodeId, SeedSequence, ShardMap, TimeMs};

use crate::network::{NetworkConfig, NetworkModel};
use crate::queue::EventQueue;
use crate::shard::{
    exec_events, exec_shard, invoke_on, BatchEvent, DeferredPush, EffectCursor, Lane, LaneScratch,
    TimerSlots,
};

/// Protocol-defined timer identifier.
///
/// Protocols may run several concurrent timers per node (gossip round,
/// sample-period rollover, workload ticks); the id distinguishes them in
/// [`SimNode::on_timer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId(pub u32);

/// A node (actor) hosted by the simulator.
///
/// All methods receive a [`SimCtx`] through which the node sends messages
/// and manages timers; nodes must not hold any other channel to the outside
/// world, which is what makes runs reproducible and lets the engine
/// execute handlers on worker threads.
pub trait SimNode {
    /// The message type exchanged between nodes. `Clone` lets the
    /// network's byte adversary deliver duplicated copies.
    type Msg: Clone;

    /// Driver state shared by the nodes of one engine shard (`()` for
    /// none), reached through [`SimCtx::slot`]; see
    /// [`Simulation::slots`].
    type Slot;

    /// Called once at simulation start (virtual time 0).
    fn on_start(&mut self, ctx: &mut SimCtx<'_, Self::Msg, Self::Slot>) {
        let _ = ctx;
    }

    /// Called when a timer previously set through the context fires.
    fn on_timer(&mut self, timer: TimerId, ctx: &mut SimCtx<'_, Self::Msg, Self::Slot>) {
        let _ = (timer, ctx);
    }

    /// Called when a message addressed to this node is delivered.
    fn on_message(
        &mut self,
        from: NodeId,
        msg: Self::Msg,
        ctx: &mut SimCtx<'_, Self::Msg, Self::Slot>,
    ) {
        let _ = (from, msg, ctx);
    }
}

#[derive(Debug)]
pub(crate) enum TimerKind {
    Once,
    Periodic(DurationMs),
}

/// A timer armed during one handler invocation.
#[derive(Debug)]
pub(crate) struct TimerRequest {
    pub(crate) timer: TimerId,
    pub(crate) first_after: DurationMs,
    pub(crate) kind: TimerKind,
}

/// Armed state of one timer id.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TimerSlot {
    pub(crate) gen: u64,
    pub(crate) period: Option<DurationMs>,
}

/// The node's window onto the simulated world.
///
/// Collects sends and timer requests during a handler invocation; the engine
/// applies them (routing messages through the network model) when the
/// handler returns. `S` is the node's [`SimNode::Slot`].
#[derive(Debug)]
pub struct SimCtx<'a, M, S = ()> {
    now: TimeMs,
    self_id: NodeId,
    outbox: &'a mut Vec<(NodeId, M)>,
    timer_reqs: &'a mut Vec<TimerRequest>,
    slot: &'a mut S,
}

impl<'a, M, S> SimCtx<'a, M, S> {
    pub(crate) fn new(
        now: TimeMs,
        self_id: NodeId,
        outbox: &'a mut Vec<(NodeId, M)>,
        timer_reqs: &'a mut Vec<TimerRequest>,
        slot: &'a mut S,
    ) -> Self {
        SimCtx {
            now,
            self_id,
            outbox,
            timer_reqs,
            slot,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> TimeMs {
        self.now
    }

    /// The driver slot of the invoked node's shard.
    pub fn slot(&mut self) -> &mut S {
        self.slot
    }

    /// The identity of the node being invoked.
    pub fn self_id(&self) -> NodeId {
        self.self_id
    }

    /// Sends `msg` to `to` through the simulated network.
    ///
    /// Delivery is not guaranteed: the network model may drop the message.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.outbox.push((to, msg));
    }

    /// Arms a one-shot timer that fires `after` from now.
    ///
    /// Re-arming an already armed timer id replaces it.
    pub fn set_timer(&mut self, timer: TimerId, after: DurationMs) {
        self.timer_reqs.push(TimerRequest {
            timer,
            first_after: after,
            kind: TimerKind::Once,
        });
    }

    /// Arms a periodic timer: first fire after `first_after`, then every
    /// `period`.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero (a zero period would livelock the engine).
    pub fn set_periodic_timer(
        &mut self,
        timer: TimerId,
        first_after: DurationMs,
        period: DurationMs,
    ) {
        assert!(!period.is_zero(), "periodic timer period must be non-zero");
        self.timer_reqs.push(TimerRequest {
            timer,
            first_after,
            kind: TimerKind::Periodic(period),
        });
    }
}

/// A scheduled action against one node (may send messages and arm
/// timers through the context).
type NodeActionFn<N> =
    Box<dyn FnOnce(&mut N, &mut SimCtx<'_, <N as SimNode>::Msg, <N as SimNode>::Slot>)>;
/// A callback run after every node-handler invocation (see
/// [`Simulation::set_post_event_hook`]).
type PostEventHook<N> = Box<dyn FnMut(&mut N)>;

enum EventKind<N: SimNode> {
    Deliver {
        from: NodeId,
        to: NodeId,
        msg: N::Msg,
    },
    Timer {
        node: NodeId,
        timer: TimerId,
        gen: u64,
    },
    NodeAction {
        node: NodeId,
        f: NodeActionFn<N>,
    },
    SetDown {
        node: NodeId,
        down: bool,
    },
    Restart {
        node: NodeId,
        f: NodeActionFn<N>,
    },
}

/// Aggregate engine statistics, including an order-sensitive checksum of all
/// engine events — two runs of the same seeded experiment are identical iff
/// their checksums agree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetStats {
    /// Messages handed to the network by nodes.
    pub sends: u64,
    /// Messages delivered to their destination.
    pub deliveries: u64,
    /// Messages dropped by the network (loss, partition or downed node).
    pub drops: u64,
    /// Timer fires dispatched to nodes.
    pub timer_fires: u64,
    /// Frames destroyed by the byte adversary (subset of `drops`).
    pub corrupted: u64,
    /// Order-sensitive checksum of the full event stream.
    pub checksum: u64,
}

impl NetStats {
    fn mix(&mut self, parts: [u64; 4]) {
        for p in parts {
            self.checksum ^= p;
            self.checksum = self.checksum.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// The number of worker threads selected by the `AGB_THREADS`
/// environment variable (clamped to `1..=64`; unset or malformed reads
/// as 1, i.e. single-threaded).
pub fn threads_from_env() -> usize {
    clamp_threads(agb_types::env_usize("AGB_THREADS"))
}

/// The clamp rule behind [`threads_from_env`]: unset/malformed → 1,
/// `0` → 1, anything above 64 → 64.
fn clamp_threads(parsed: Option<usize>) -> usize {
    parsed.map_or(1, |v| v.clamp(1, 64))
}

/// Default smallest batch worth fanning out to worker threads; smaller
/// batches run inline on the calling thread (identical results either
/// way — this is purely a spawn-overhead tradeoff).
const DEFAULT_PARALLEL_THRESHOLD: usize = 128;

/// Builder for [`Simulation`].
///
/// # Example
///
/// ```
/// use agb_sim::{SimulationBuilder, NetworkConfig};
/// use agb_types::DurationMs;
///
/// let builder = SimulationBuilder::new(7)
///     .network(NetworkConfig::perfect(DurationMs::from_millis(10)))
///     .threads(4);
/// # let _ = builder;
/// ```
#[derive(Debug, Clone)]
pub struct SimulationBuilder {
    seed: u64,
    network: NetworkConfig,
    initially_down: Vec<NodeId>,
    threads: usize,
    profile: ProfileConfig,
}

impl SimulationBuilder {
    /// Starts a builder with the given experiment seed and a default
    /// LAN-like network.
    pub fn new(seed: u64) -> Self {
        SimulationBuilder {
            seed,
            network: NetworkConfig::default(),
            initially_down: Vec::new(),
            threads: 1,
            profile: ProfileConfig::disabled(),
        }
    }

    /// Sets the network configuration.
    pub fn network(mut self, config: NetworkConfig) -> Self {
        self.network = config;
        self
    }

    /// Sets the shard/worker-thread count `K` that
    /// [`Simulation::run_until`] fans large batches out to (clamped to at
    /// least 1; `K = 1` runs every batch on the calling thread).
    ///
    /// The thread count never affects results — only wall-clock time.
    pub fn threads(mut self, k: usize) -> Self {
        self.threads = k.max(1);
        self
    }

    /// Attaches an engine profiler ([`agb_profile::Profiler`]) when
    /// `profile.enabled`: phase timings, shard load-balance stats and
    /// routing time are recorded as the simulation runs.
    ///
    /// Profiling reads clocks and accumulates counters only — it never
    /// touches RNG streams or effect ordering, so all engine results
    /// (checksums included) are bit-identical with and without it.
    pub fn profile(mut self, profile: ProfileConfig) -> Self {
        self.profile = profile;
        self
    }

    /// Marks nodes that start *down*: their `on_start` does not run at
    /// time zero, they receive no messages and fire no timers until a
    /// scheduled [`Simulation::schedule_restart`] brings them up.
    ///
    /// This is how churn scenarios host late joiners: the node slot exists
    /// from the beginning (ids are stable), but the node only enters the
    /// system when its join is scheduled.
    pub fn initially_down(mut self, nodes: impl IntoIterator<Item = NodeId>) -> Self {
        self.initially_down.extend(nodes);
        self
    }

    /// Builds the simulation over the given nodes, with a clone of `slot`
    /// as each shard's driver slot.
    ///
    /// `nodes[i]` is addressed as `NodeId::new(i)`. Each node's `on_start`
    /// runs at virtual time zero during the first call to a `run_*` method.
    pub fn build<N: SimNode>(self, nodes: Vec<N>, slot: N::Slot) -> Simulation<N>
    where
        N::Slot: Clone,
    {
        let seeds = SeedSequence::new(self.seed);
        let net_rng: DetRng = seeds.rng_for("network", 0);
        let n = nodes.len();
        let shards = ShardMap::new(n, self.threads);
        let mut down = vec![false; n];
        for id in &self.initially_down {
            down[id.index()] = true;
        }
        let mut net = NetworkModel::new(self.network, net_rng);
        net.ensure_streams(n);
        Simulation {
            nodes,
            queue: EventQueue::new(),
            now: TimeMs::ZERO,
            net,
            timers: (0..n).map(|_| Vec::new()).collect(),
            timer_gen: vec![0; n],
            down,
            stats: NetStats::default(),
            started: false,
            events_processed: 0,
            slots: vec![slot; shards.shards()],
            shards,
            par_threshold: DEFAULT_PARALLEL_THRESHOLD,
            hook: None,
            scratch: EngineScratch::default(),
            worker_scratch: Vec::new(),
            profiler: self.profile.enabled.then(|| Box::new(Profiler::new())),
        }
    }
}

/// Reusable engine-owned buffers for batch collection and inline
/// execution.
struct EngineScratch<M> {
    /// Single-lane scratch for inline execution and one-off invocations.
    inline: LaneScratch<M>,
    /// The current instant's collected batch.
    batch_events: Vec<BatchEvent<M>>,
    /// Target node of each batch event, in pop order.
    targets: Vec<NodeId>,
    /// Executing shard of each batch event (parallel batches only).
    shard_of: Vec<u32>,
    /// Per-shard merge cursors, reused across batches.
    cursors: Vec<EffectCursor>,
}

impl<M> Default for EngineScratch<M> {
    fn default() -> Self {
        EngineScratch {
            inline: LaneScratch::default(),
            batch_events: Vec::new(),
            targets: Vec::new(),
            shard_of: Vec::new(),
            cursors: Vec::new(),
        }
    }
}

/// The discrete-event simulation: owns the nodes, the clock, the future
/// event list and the network model.
pub struct Simulation<N: SimNode> {
    nodes: Vec<N>,
    queue: EventQueue<EventKind<N>>,
    now: TimeMs,
    net: NetworkModel,
    /// Per-node armed timers. Nodes run a handful of timers at most, so a
    /// small vec with linear lookup beats hashing on the per-fire path.
    timers: Vec<TimerSlots>,
    /// Monotonic per-node timer generation: survives timer-map clears on
    /// restart, so stale queued fires can never collide with re-armed
    /// timers.
    timer_gen: Vec<u64>,
    down: Vec<bool>,
    stats: NetStats,
    started: bool,
    events_processed: u64,
    /// The node ranges of the `K` shards `run_until` fans batches out to.
    shards: ShardMap,
    /// One driver slot per shard.
    slots: Vec<N::Slot>,
    /// Smallest batch worth fanning out to workers.
    par_threshold: usize,
    /// Post-invocation callback (trace draining and the like).
    hook: Option<PostEventHook<N>>,
    scratch: EngineScratch<N::Msg>,
    /// Per-worker scratch, index-aligned with shard indices.
    worker_scratch: Vec<LaneScratch<N::Msg>>,
    /// Attached profiler (phase timers, shard balance), absent by
    /// default. Never influences results.
    profiler: Option<Box<Profiler>>,
}

impl<N: SimNode> Simulation<N> {
    /// Current virtual time.
    pub fn now(&self) -> TimeMs {
        self.now
    }

    /// Number of hosted nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the simulation hosts no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Immutable access to a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> &N {
        &self.nodes[id.index()]
    }

    /// Iterates over all nodes.
    pub fn nodes(&self) -> impl Iterator<Item = &N> {
        self.nodes.iter()
    }

    /// Engine statistics so far.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// The driver slots, one per shard in shard order. Shard `s` holds a
    /// contiguous range of nodes, and only their handlers reach its slot,
    /// each node's in canonical order.
    pub fn slots(&self) -> &[N::Slot] {
        &self.slots
    }

    /// Mutable access to the driver slots between runs (e.g. to hand every
    /// shard a fact the driver learnt).
    pub fn slots_mut(&mut self) -> &mut [N::Slot] {
        &mut self.slots
    }

    /// Installs a callback invoked once after every node-handler
    /// invocation (message delivery, timer fire, node action, start, and
    /// a restart's closure with its `on_start`), with the invoked node, in
    /// canonical event order, always on the calling thread.
    ///
    /// This is the bridge for state that nodes must publish to a shared,
    /// non-`Send` sink in one global order (e.g. the workload cluster's
    /// trace recorder, whose digest depends on it): nodes buffer locally
    /// during handler execution and the hook drains them at the merge
    /// barrier, preserving the exact single-threaded ordering. Facts that
    /// merge in any order belong in the shard's slot instead, off the
    /// barrier.
    pub fn set_post_event_hook(&mut self, hook: Box<dyn FnMut(&mut N)>) {
        self.hook = Some(hook);
    }

    /// Mutable access to the attached profiler, if any (e.g. to wire
    /// an allocation counter or record extra phases).
    pub fn profiler_mut(&mut self) -> Option<&mut Profiler> {
        self.profiler.as_deref_mut()
    }

    /// Snapshot of the attached profiler's accumulated phase timings
    /// and shard balance, if profiling is enabled.
    pub fn profiler_snapshot(&self) -> Option<ProfilerSnapshot> {
        self.profiler.as_deref().map(Profiler::snapshot)
    }

    /// Estimated resident footprint of the future event list (queued
    /// events + bucket overhead). Deterministic `size_of` arithmetic.
    pub fn queue_mem(&self) -> MemUsage {
        MemUsage::new(self.queue.estimated_bytes(), self.queue.len() as u64)
    }

    /// The shard/worker-thread count `K`: the configured count, at most
    /// one per node.
    pub fn threads(&self) -> usize {
        self.shards.shards()
    }

    /// Lowers/raises the smallest batch that is fanned out to worker
    /// threads (default 128). Intended for tests that want tiny clusters
    /// to exercise the worker path; results never depend on this value.
    pub fn set_parallel_threshold(&mut self, min_batch: usize) {
        self.par_threshold = min_batch.max(1);
    }

    /// Schedules a crash: from `at` on, the node receives no messages and
    /// its timers do not fire (periodic timers keep rescheduling silently so
    /// they resume on recovery).
    pub fn schedule_crash(&mut self, at: TimeMs, node: NodeId) {
        self.queue.push(at, EventKind::SetDown { node, down: true });
    }

    /// Schedules a recovery from a previous crash.
    pub fn schedule_recover(&mut self, at: TimeMs, node: NodeId) {
        self.queue
            .push(at, EventKind::SetDown { node, down: false });
    }

    /// Schedules a *restart with state loss* (or the first spawn of an
    /// [`initially_down`](SimulationBuilder::initially_down) node): at `at`
    /// the node's pending timers are cleared and the node is marked up;
    /// then `f` runs to replace/reset its state and the node's `on_start`
    /// follows in the same invocation, so it re-enters the system through
    /// its own bootstrap path.
    pub fn schedule_restart(
        &mut self,
        at: TimeMs,
        node: NodeId,
        f: impl FnOnce(&mut N, &mut SimCtx<'_, N::Msg, N::Slot>) + 'static,
    ) {
        self.queue.push(
            at,
            EventKind::Restart {
                node,
                f: Box::new(f),
            },
        );
    }

    /// Schedules a closure that runs against one node at virtual time
    /// `at` (e.g. "at t₁, shrink the buffers of nodes 0..12", or a
    /// graceful leave emitting farewell messages). The closure receives a
    /// [`SimCtx`] and may send messages and arm timers; closures scheduled
    /// at the same instant run in scheduling order.
    pub fn schedule_node_action(
        &mut self,
        at: TimeMs,
        node: NodeId,
        f: impl FnOnce(&mut N, &mut SimCtx<'_, N::Msg, N::Slot>) + 'static,
    ) {
        self.queue.push(
            at,
            EventKind::NodeAction {
                node,
                f: Box::new(f),
            },
        );
    }

    /// Whether `node` is currently down (crashed or not yet spawned).
    pub fn is_down(&self, node: NodeId) -> bool {
        self.down[node.index()]
    }

    /// Total events processed.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Events currently waiting in the future event list.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// High-water mark of the future event list since the start of the
    /// run (or the last [`reset_peak_pending_events`](Self::reset_peak_pending_events)).
    pub fn peak_pending_events(&self) -> usize {
        self.queue.peak_len()
    }

    /// Restarts peak tracking of the future event list from its current
    /// length — the perf harness calls this at the warmup/measure
    /// boundary so the reported peak covers measured rounds only.
    pub fn reset_peak_pending_events(&mut self) {
        self.queue.reset_peak();
    }

    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.nodes.len() {
            // Initially-down nodes (late joiners) bootstrap through their
            // scheduled restart instead.
            if self.down[i] {
                continue;
            }
            self.invoke_with(NodeId::new(i as u32), |n, ctx| n.on_start(ctx));
        }
    }

    /// Pops the maximal run of consecutive `Deliver`/`Timer` events at
    /// instant `t` into the batch scratch, stopping at the first control
    /// event (a barrier) or time change.
    fn collect_run(&mut self, t: TimeMs) {
        debug_assert!(self.scratch.batch_events.is_empty());
        let token = self.profiler.as_ref().map(|p| p.enter(Phase::BatchLift));
        while let Some((at, item)) = self.queue.peek() {
            if at != t || !matches!(item, EventKind::Deliver { .. } | EventKind::Timer { .. }) {
                break;
            }
            let ev = match self.queue.pop().expect("peeked event") {
                EventKind::Deliver { from, to, msg } => BatchEvent::Deliver { from, to, msg },
                EventKind::Timer { node, timer, gen } => BatchEvent::Timer { node, timer, gen },
                _ => unreachable!("peek said batchable"),
            };
            self.scratch.targets.push(ev.target());
            self.scratch.batch_events.push(ev);
        }
        if let Some(token) = token {
            let items = self.scratch.batch_events.len() as u64;
            self.profiler
                .as_mut()
                .expect("token implies profiler")
                .exit(token, items);
        }
    }

    /// Executes the collected batch on the calling thread and merges its
    /// effects.
    fn exec_batch_inline(&mut self) {
        let mut inline = std::mem::take(&mut self.scratch.inline);
        let mut targets = std::mem::take(&mut self.scratch.targets);
        std::mem::swap(&mut self.scratch.batch_events, &mut inline.events);
        let token = self.profiler.as_ref().map(|p| p.enter(Phase::ShardExec));
        {
            let n = self.nodes.len();
            let (config, rngs) = self.net.lanes(n);
            let mut lane = Lane {
                base: 0,
                nodes: &mut self.nodes,
                timers: &mut self.timers,
                timer_gen: &mut self.timer_gen,
                rngs,
                shards: &self.shards,
                first_shard: 0,
                slots: &mut self.slots,
                down: &self.down,
                config,
                now: self.now,
                n_total: n,
                profiling: self.profiler.is_some(),
            };
            exec_events(
                &mut lane,
                &mut inline.events,
                &mut inline.outbox,
                &mut inline.timer_reqs,
                &mut inline.buf,
            );
        }
        if let Some(token) = token {
            let items = targets.len() as u64;
            self.profiler
                .as_mut()
                .expect("token implies profiler")
                .exit(token, items);
        }
        self.events_processed += targets.len() as u64;
        self.apply_run(std::slice::from_mut(&mut inline), &targets, &[]);
        targets.clear();
        self.scratch.targets = targets;
        self.scratch.inline = inline;
    }

    /// Merges buffered effects into the queue and stats in canonical
    /// order: event `i`'s effects before event `i+1`'s, each event's
    /// effects in generation order, the post-event hook after each
    /// invoked event.
    fn apply_run(
        &mut self,
        lanes: &mut [LaneScratch<N::Msg>],
        targets: &[NodeId],
        shard_of: &[u32],
    ) {
        let token = self.profiler.as_ref().map(|p| p.enter(Phase::Merge));
        let mut cursors = std::mem::take(&mut self.scratch.cursors);
        cursors.clear();
        cursors.resize(lanes.len(), EffectCursor::default());
        for (i, &target) in targets.iter().enumerate() {
            let s = shard_of.get(i).map_or(0, |&s| s as usize);
            let buf = &mut lanes[s].buf;
            let cur = &mut cursors[s];
            let mark = buf.marks[cur.marks];
            cur.marks += 1;
            while cur.pushes < mark.pushes as usize {
                let push = std::mem::replace(&mut buf.pushes[cur.pushes], DeferredPush::consumed());
                cur.pushes += 1;
                match push {
                    DeferredPush::Deliver { at, from, to, msg } => {
                        self.queue.push(at, EventKind::Deliver { from, to, msg });
                    }
                    DeferredPush::Timer {
                        at,
                        node,
                        timer,
                        gen,
                    } => {
                        self.queue.push(at, EventKind::Timer { node, timer, gen });
                    }
                }
            }
            while cur.mixes < mark.mixes as usize {
                self.stats.mix(buf.mixes[cur.mixes]);
                cur.mixes += 1;
            }
            if mark.invoked {
                if let Some(hook) = self.hook.as_mut() {
                    hook(&mut self.nodes[target.index()]);
                }
            }
        }
        let mut route_ns = 0u64;
        let mut route_sends = 0u64;
        for lane in lanes.iter_mut() {
            let c = lane.buf.counts;
            self.stats.sends += c.sends;
            self.stats.deliveries += c.deliveries;
            self.stats.drops += c.drops;
            self.stats.timer_fires += c.timer_fires;
            self.stats.corrupted += c.corrupted;
            route_ns += lane.buf.route_ns;
            route_sends += c.sends;
            lane.buf.clear();
        }
        self.scratch.cursors = cursors;
        if let Some(token) = token {
            let profiler = self.profiler.as_mut().expect("token implies profiler");
            // Routing time was spent inside handler execution but is
            // only harvestable here, once the per-shard effect buffers
            // are back on the calling thread.
            profiler.add_ns(Phase::Route, route_ns, route_sends);
            profiler.exit(token, targets.len() as u64);
        }
    }

    /// Executes one control (barrier) event on the calling thread.
    fn exec_control(&mut self, item: EventKind<N>) {
        let token = self.profiler.as_ref().map(|p| p.enter(Phase::Control));
        self.exec_control_inner(item);
        if let Some(token) = token {
            self.profiler
                .as_mut()
                .expect("token implies profiler")
                .exit(token, 1);
        }
    }

    fn exec_control_inner(&mut self, item: EventKind<N>) {
        match item {
            EventKind::Deliver { .. } | EventKind::Timer { .. } => {
                unreachable!("batch events are collected into runs, not dispatched as controls")
            }
            EventKind::NodeAction { node, f } => {
                self.invoke_with(node, |n, ctx| f(n, ctx));
            }
            EventKind::SetDown { node, down } => {
                self.down[node.index()] = down;
            }
            EventKind::Restart { node, f } => {
                self.timers[node.index()].clear();
                self.down[node.index()] = false;
                self.invoke_with(node, |n, ctx| {
                    f(n, ctx);
                    n.on_start(ctx);
                });
            }
        }
    }

    /// Invokes one handler outside a batch (start, restart, node action)
    /// and applies its effects immediately, including the post-event
    /// hook.
    fn invoke_with(
        &mut self,
        id: NodeId,
        g: impl FnOnce(&mut N, &mut SimCtx<'_, N::Msg, N::Slot>),
    ) {
        let mut inline = std::mem::take(&mut self.scratch.inline);
        {
            let n = self.nodes.len();
            let (config, rngs) = self.net.lanes(n);
            let mut lane = Lane {
                base: 0,
                nodes: &mut self.nodes,
                timers: &mut self.timers,
                timer_gen: &mut self.timer_gen,
                rngs,
                shards: &self.shards,
                first_shard: 0,
                slots: &mut self.slots,
                down: &self.down,
                config,
                now: self.now,
                n_total: n,
                profiling: self.profiler.is_some(),
            };
            invoke_on(
                &mut lane,
                id,
                g,
                &mut inline.outbox,
                &mut inline.timer_reqs,
                &mut inline.buf,
            );
            inline.buf.mark_event(true);
        }
        self.apply_run(std::slice::from_mut(&mut inline), &[id], &[]);
        self.scratch.inline = inline;
    }
}

impl<N> Simulation<N>
where
    N: SimNode + Send,
    N::Msg: Send,
    N::Slot: Send,
{
    /// Runs the simulation until virtual time `t` (inclusive), then sets the
    /// clock to `t`.
    ///
    /// A batch of at least the parallel threshold (see
    /// [`set_parallel_threshold`](Self::set_parallel_threshold)) is
    /// sharded across the configured `K` worker threads
    /// ([`SimulationBuilder::threads`]) when `K > 1`; every other batch
    /// runs inline on the calling thread. Results are bit-identical at
    /// every `K`: batches are merged in canonical order and network
    /// randomness is a stream per sending node, so neither delivery order
    /// nor RNG draws depend on who executed an event.
    ///
    /// # Panics
    ///
    /// Re-raises, with its original payload, a panic from a node handler
    /// on any thread.
    pub fn run_until(&mut self, t: TimeMs) {
        self.ensure_started();
        while let Some(next) = self.queue.peek_time() {
            if next > t {
                break;
            }
            self.process_instant(next);
        }
        self.now = self.now.max(t);
    }

    /// Runs for a further `d` of virtual time (see
    /// [`run_until`](Self::run_until)).
    pub fn run_for(&mut self, d: DurationMs) {
        let target = self.now + d;
        self.run_until(target);
    }

    /// Processes every event at instant `t`, fanning large batches out
    /// to worker threads.
    fn process_instant(&mut self, t: TimeMs) {
        self.now = self.now.max(t);
        loop {
            self.collect_run(t);
            let batch = self.scratch.batch_events.len();
            if batch > 0 {
                if self.shards.shards() > 1 && batch >= self.par_threshold {
                    self.exec_batch_parallel();
                } else {
                    self.exec_batch_inline();
                }
                continue;
            }
            match self.queue.peek_time() {
                Some(at) if at == t => {
                    let control = self.queue.pop().expect("peeked event");
                    self.events_processed += 1;
                    self.exec_control(control);
                }
                _ => break,
            }
        }
    }

    /// Executes the collected batch across shard workers and merges the
    /// effects in canonical order.
    ///
    /// Workers are scoped threads spawned per batch; measured overhead
    /// is ~1-2% of round time at the default threshold (sub-threshold
    /// batches stay inline). A persistent parked pool would shave that
    /// residue without changing results, at the cost of owning worker
    /// lifecycle — worth revisiting if profile data ever shows spawn
    /// cost mattering at scale.
    fn exec_batch_parallel(&mut self) {
        let n = self.nodes.len();
        let map = &self.shards;
        let k = map.shards();

        let mut workers = std::mem::take(&mut self.worker_scratch);
        if workers.len() < k {
            workers.resize_with(k, LaneScratch::default);
        }
        let mut targets = std::mem::take(&mut self.scratch.targets);
        let mut shard_of = std::mem::take(&mut self.scratch.shard_of);
        for ev in self.scratch.batch_events.drain(..) {
            let s = map.shard_of(ev.target().index());
            shard_of.push(s as u32);
            workers[s].events.push(ev);
        }

        let now = self.now;
        let profiling = self.profiler.is_some();
        let exec_token = self.profiler.as_ref().map(|p| p.enter(Phase::ShardExec));
        {
            let (config, rngs_all) = self.net.lanes(n);
            let down: &[bool] = &self.down;
            let mut nodes_rest: &mut [N] = &mut self.nodes;
            let mut timers_rest: &mut [TimerSlots] = &mut self.timers;
            let mut gens_rest: &mut [u64] = &mut self.timer_gen;
            let mut rngs_rest: &mut [DetRng] = rngs_all;
            let mut slots_rest: &mut [N::Slot] = &mut self.slots;
            let mut lanes: Vec<Lane<'_, N>> = Vec::with_capacity(k);
            for s in 0..k {
                let range = map.range(s);
                let (nodes, rest) = nodes_rest.split_at_mut(range.len());
                nodes_rest = rest;
                let (timers, rest) = timers_rest.split_at_mut(range.len());
                timers_rest = rest;
                let (timer_gen, rest) = gens_rest.split_at_mut(range.len());
                gens_rest = rest;
                let (rngs, rest) = rngs_rest.split_at_mut(range.len());
                rngs_rest = rest;
                let (slots, rest) = slots_rest.split_at_mut(1);
                slots_rest = rest;
                lanes.push(Lane {
                    base: range.start,
                    nodes,
                    timers,
                    timer_gen,
                    rngs,
                    shards: map,
                    first_shard: s,
                    slots,
                    down,
                    config,
                    now,
                    n_total: n,
                    profiling,
                });
            }

            std::thread::scope(|scope| {
                let mut pairs = lanes.into_iter().zip(workers.iter_mut());
                let first = pairs.next();
                let handles: Vec<_> = pairs
                    .map(|(mut lane, worker)| scope.spawn(move || exec_shard(&mut lane, worker)))
                    .collect();
                // Shard 0 executes on the calling thread while the
                // workers run.
                if let Some((mut lane, worker)) = first {
                    exec_shard(&mut lane, worker);
                }
                for handle in handles {
                    if let Err(payload) = handle.join() {
                        std::panic::resume_unwind(payload);
                    }
                }
            });
        }

        if let Some(token) = exec_token {
            let profiler = self.profiler.as_mut().expect("token implies profiler");
            profiler.exit(token, targets.len() as u64);
            let busy: Vec<u64> = workers[..k].iter().map(|w| w.busy_ns).collect();
            profiler.record_parallel_batch(&busy);
        }
        self.events_processed += targets.len() as u64;
        self.apply_run(&mut workers[..k], &targets, &shard_of);
        targets.clear();
        shard_of.clear();
        self.scratch.targets = targets;
        self.scratch.shard_of = shard_of;
        self.worker_scratch = workers;
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::LatencyModel;

    /// Counts timer fires and echoes received numbers back to the sender.
    struct Echo {
        fires: u32,
        received: Vec<(NodeId, u64)>,
        period: DurationMs,
    }

    impl Echo {
        fn new(period_ms: u64) -> Self {
            Echo {
                fires: 0,
                received: Vec::new(),
                period: DurationMs::from_millis(period_ms),
            }
        }
    }

    const TICK: TimerId = TimerId(1);

    impl SimNode for Echo {
        type Msg = u64;
        type Slot = ();

        fn on_start(&mut self, ctx: &mut SimCtx<'_, u64>) {
            ctx.set_periodic_timer(TICK, self.period, self.period);
        }

        fn on_timer(&mut self, timer: TimerId, ctx: &mut SimCtx<'_, u64>) {
            assert_eq!(timer, TICK);
            self.fires += 1;
            if ctx.self_id() == NodeId::new(0) {
                ctx.send(NodeId::new(1), u64::from(self.fires));
            }
        }

        fn on_message(&mut self, from: NodeId, msg: u64, ctx: &mut SimCtx<'_, u64>) {
            self.received.push((from, msg));
            if msg.is_multiple_of(2) && ctx.self_id() == NodeId::new(1) {
                ctx.send(from, msg * 10);
            }
        }
    }

    fn build(seed: u64) -> Simulation<Echo> {
        SimulationBuilder::new(seed)
            .network(NetworkConfig::perfect(DurationMs::from_millis(5)))
            .build(vec![Echo::new(100), Echo::new(100)], ())
    }

    #[test]
    fn periodic_timers_fire_expected_number_of_times() {
        let mut sim = build(1);
        sim.run_until(TimeMs::from_millis(1000));
        // Fires at 100, 200, ..., 1000 => 10 fires.
        assert_eq!(sim.node(NodeId::new(0)).fires, 10);
        assert_eq!(sim.node(NodeId::new(1)).fires, 10);
    }

    #[test]
    fn messages_flow_with_latency() {
        let mut sim = build(1);
        sim.run_until(TimeMs::from_millis(210));
        // Node 0 sent 1 at t=100 and 2 at t=200; both delivered at +5ms.
        let received = &sim.node(NodeId::new(1)).received;
        assert_eq!(received, &[(NodeId::new(0), 1), (NodeId::new(0), 2)]);
        // Echo of "2" arrives at node 0 at t=210.
        assert_eq!(
            sim.node(NodeId::new(0)).received,
            vec![(NodeId::new(1), 20)]
        );
    }

    #[test]
    fn run_until_is_inclusive_and_monotonic() {
        let mut sim = build(1);
        sim.run_until(TimeMs::from_millis(100));
        assert_eq!(sim.node(NodeId::new(0)).fires, 1);
        assert_eq!(sim.now(), TimeMs::from_millis(100));
        sim.run_for(DurationMs::from_millis(50));
        assert_eq!(sim.now(), TimeMs::from_millis(150));
    }

    #[test]
    fn same_seed_same_checksum() {
        let mut a = build(77);
        let mut b = build(77);
        a.run_until(TimeMs::from_secs(5));
        b.run_until(TimeMs::from_secs(5));
        assert_eq!(a.stats(), b.stats());
        assert_ne!(a.stats().checksum, 0);
    }

    #[test]
    fn different_network_seeds_diverge_with_jitter() {
        let make = |seed| {
            SimulationBuilder::new(seed)
                .network(NetworkConfig {
                    latency: LatencyModel::Uniform {
                        min: DurationMs::from_millis(1),
                        max: DurationMs::from_millis(50),
                    },
                    loss: 0.0,
                    partitions: vec![],
                    link_faults: vec![],
                    adversaries: vec![],
                })
                .build(vec![Echo::new(100), Echo::new(100)], ())
        };
        let mut a = make(1);
        let mut b = make(2);
        a.run_until(TimeMs::from_secs(5));
        b.run_until(TimeMs::from_secs(5));
        assert_ne!(a.stats().checksum, b.stats().checksum);
    }

    #[test]
    fn crash_suppresses_delivery_and_timers_until_recovery() {
        let mut sim = build(3);
        sim.schedule_crash(TimeMs::from_millis(150), NodeId::new(1));
        sim.schedule_recover(TimeMs::from_millis(450), NodeId::new(1));
        sim.run_until(TimeMs::from_millis(1000));
        let n1 = sim.node(NodeId::new(1));
        // Fires at 100 (up), 200..400 suppressed, 500..1000 (up) => 1 + 6.
        assert_eq!(n1.fires, 7);
        // Messages sent at 200,300,400 (+5ms latency) were dropped.
        let got: Vec<u64> = n1.received.iter().map(|&(_, m)| m).collect();
        assert!(got.contains(&1));
        assert!(!got.contains(&2));
        assert!(!got.contains(&3));
        assert!(got.contains(&5));
    }

    #[test]
    fn node_action_runs_at_scheduled_time() {
        let mut sim = build(5);
        sim.schedule_node_action(TimeMs::from_millis(250), NodeId::new(0), |node, ctx| {
            assert_eq!(ctx.now(), TimeMs::from_millis(250));
            node.fires = 1000;
        });
        sim.run_until(TimeMs::from_millis(300));
        // 1000 set at t=250, then one more fire at t=300.
        assert_eq!(sim.node(NodeId::new(0)).fires, 1001);
    }

    #[test]
    fn restart_clears_timers_and_reruns_on_start() {
        let mut sim = build(3);
        sim.schedule_crash(TimeMs::from_millis(150), NodeId::new(1));
        // Restart with state loss at t=450: fires counter reset, on_start
        // re-arms the periodic timer from t=450.
        sim.schedule_restart(TimeMs::from_millis(450), NodeId::new(1), |node, _| {
            *node = Echo::new(100);
        });
        sim.run_until(TimeMs::from_millis(1000));
        // Fresh timer fires at 550..1000 => 5 fires on the fresh state.
        assert_eq!(sim.node(NodeId::new(1)).fires, 5);
        assert!(!sim.is_down(NodeId::new(1)));
    }

    #[test]
    fn initially_down_node_spawns_on_restart() {
        let mut sim = SimulationBuilder::new(9)
            .network(NetworkConfig::perfect(DurationMs::from_millis(5)))
            .initially_down([NodeId::new(1)])
            .build(vec![Echo::new(100), Echo::new(100)], ());
        sim.schedule_restart(TimeMs::from_millis(500), NodeId::new(1), |_, _| {});
        sim.run_until(TimeMs::from_millis(1000));
        // Node 0 ran the whole time; node 1 only from t=500.
        assert_eq!(sim.node(NodeId::new(0)).fires, 10);
        assert_eq!(sim.node(NodeId::new(1)).fires, 5);
        // Messages sent while node 1 was down were dropped.
        assert!(sim.stats().drops > 0);
    }

    #[test]
    fn node_action_can_send_messages() {
        let mut sim = build(5);
        sim.schedule_node_action(TimeMs::from_millis(250), NodeId::new(0), |_, ctx| {
            assert_eq!(ctx.self_id(), NodeId::new(0));
            ctx.send(NodeId::new(1), 999);
        });
        sim.run_until(TimeMs::from_millis(300));
        let got: Vec<u64> = sim
            .node(NodeId::new(1))
            .received
            .iter()
            .map(|&(_, m)| m)
            .collect();
        assert!(got.contains(&999), "action-sent message delivered: {got:?}");
    }

    #[test]
    fn one_shot_timer_fires_once() {
        struct OneShot {
            fired: u32,
        }
        impl SimNode for OneShot {
            type Msg = ();
            type Slot = ();
            fn on_start(&mut self, ctx: &mut SimCtx<'_, ()>) {
                ctx.set_timer(TimerId(1), DurationMs::from_millis(10));
            }
            fn on_timer(&mut self, timer: TimerId, _ctx: &mut SimCtx<'_, ()>) {
                self.fired += timer.0;
            }
        }
        let mut sim = SimulationBuilder::new(1).build(vec![OneShot { fired: 0 }], ());
        sim.run_until(TimeMs::from_secs(1));
        assert_eq!(sim.node(NodeId::new(0)).fired, 1);
    }

    #[test]
    fn rearming_replaces_pending_timer() {
        struct Rearm {
            fired_at: Vec<TimeMs>,
        }
        impl SimNode for Rearm {
            type Msg = ();
            type Slot = ();
            fn on_start(&mut self, ctx: &mut SimCtx<'_, ()>) {
                ctx.set_timer(TimerId(1), DurationMs::from_millis(100));
                // Immediately re-arm with a different deadline.
                ctx.set_timer(TimerId(1), DurationMs::from_millis(40));
            }
            fn on_timer(&mut self, _t: TimerId, ctx: &mut SimCtx<'_, ()>) {
                self.fired_at.push(ctx.now());
            }
        }
        let mut sim = SimulationBuilder::new(1).build(vec![Rearm { fired_at: vec![] }], ());
        sim.run_until(TimeMs::from_secs(1));
        assert_eq!(
            sim.node(NodeId::new(0)).fired_at,
            vec![TimeMs::from_millis(40)]
        );
    }

    #[test]
    fn stats_count_sends_and_deliveries() {
        let mut sim = build(11);
        sim.run_until(TimeMs::from_secs(1));
        let stats = sim.stats();
        // Node 0 sends 10 msgs (t=100..1000). The 10th is still in flight at
        // the horizon, so node 1 echoes only the even ones among 1..9: 4.
        assert_eq!(stats.sends, 14);
        // Delivered: 9 from node 0, plus the 4 echoes.
        assert_eq!(stats.deliveries, 13);
        assert_eq!(stats.drops, 0);
        assert_eq!(stats.timer_fires, 20);
    }

    #[test]
    fn lossy_network_counts_drops() {
        let mut sim = SimulationBuilder::new(13)
            .network(NetworkConfig {
                latency: LatencyModel::Constant(DurationMs::from_millis(1)),
                loss: 1.0,
                partitions: vec![],
                link_faults: vec![],
                adversaries: vec![],
            })
            .build(vec![Echo::new(50), Echo::new(50)], ());
        sim.run_until(TimeMs::from_secs(1));
        let stats = sim.stats();
        assert_eq!(stats.deliveries, 0);
        assert_eq!(stats.drops, stats.sends);
        assert!(stats.sends > 0);
    }
}

#[cfg(test)]
mod sharded_tests {
    use super::*;
    use crate::network::LatencyModel;

    /// A chatty node: every tick it fans messages out to a deterministic
    /// set of peers; receipts are folded into a running digest so any
    /// reordering or divergence changes observable state. Each receipt
    /// also logs `(node, digest)` in the shard's slot.
    struct Chatty {
        digest: u64,
        fires: u64,
        n: u32,
        period: DurationMs,
    }

    const TICK: TimerId = TimerId(1);

    impl SimNode for Chatty {
        type Msg = u64;
        type Slot = Vec<(u32, u64)>;

        fn on_start(&mut self, ctx: &mut SimCtx<'_, u64, Self::Slot>) {
            let phase = DurationMs::from_millis(1 + u64::from(ctx.self_id().as_u32()) % 7);
            ctx.set_periodic_timer(TICK, phase, self.period);
        }

        fn on_timer(&mut self, _t: TimerId, ctx: &mut SimCtx<'_, u64, Self::Slot>) {
            self.fires += 1;
            let me = ctx.self_id().as_u32();
            for i in 1..=3u32 {
                let to = (me + i * 7 + self.fires as u32) % self.n;
                if to != me {
                    ctx.send(NodeId::new(to), u64::from(me) << 32 | self.fires);
                }
            }
        }

        fn on_message(&mut self, from: NodeId, msg: u64, ctx: &mut SimCtx<'_, u64, Self::Slot>) {
            self.digest = self
                .digest
                .wrapping_mul(0x100000001B3)
                .wrapping_add(msg ^ u64::from(from.as_u32()) ^ ctx.now().as_millis());
            let me = ctx.self_id().as_u32();
            ctx.slot().push((me, self.digest));
        }
    }

    fn chatty_sim(seed: u64, n: u32, threads: usize, lossy: bool) -> Simulation<Chatty> {
        let network = if lossy {
            NetworkConfig {
                latency: LatencyModel::Uniform {
                    min: DurationMs::from_millis(1),
                    max: DurationMs::from_millis(9),
                },
                loss: 0.15,
                partitions: vec![],
                link_faults: vec![],
                adversaries: vec![],
            }
        } else {
            NetworkConfig::perfect(DurationMs::from_millis(3))
        };
        chatty_sim_on(seed, n, threads, network)
    }

    fn chatty_sim_on(
        seed: u64,
        n: u32,
        threads: usize,
        network: NetworkConfig,
    ) -> Simulation<Chatty> {
        let nodes = (0..n)
            .map(|_| Chatty {
                digest: 0,
                fires: 0,
                n,
                period: DurationMs::from_millis(10),
            })
            .collect();
        let mut sim = SimulationBuilder::new(seed)
            .network(network)
            .threads(threads)
            .build(nodes, Vec::new());
        // Tiny threshold so small test populations exercise the worker
        // path for real.
        sim.set_parallel_threshold(2);
        sim
    }

    fn fingerprint(sim: &Simulation<Chatty>) -> (NetStats, u64, u64, usize) {
        let digest = sim
            .nodes()
            .fold(0u64, |acc, n| acc.wrapping_mul(31).wrapping_add(n.digest));
        (
            sim.stats(),
            digest,
            sim.events_processed(),
            sim.peak_pending_events(),
        )
    }

    #[test]
    fn sharded_matches_inline_oracle_across_thread_counts() {
        for lossy in [false, true] {
            let mut oracle = chatty_sim(11, 37, 1, lossy);
            oracle.run_until(TimeMs::from_millis(500));
            let expected = fingerprint(&oracle);
            assert!(expected.0.deliveries > 0);
            for k in [2usize, 3, 4, 8] {
                let mut sim = chatty_sim(11, 37, k, lossy);
                sim.run_until(TimeMs::from_millis(500));
                assert_eq!(
                    fingerprint(&sim),
                    expected,
                    "K={k} lossy={lossy} diverged from the K=1 oracle"
                );
            }
        }
    }

    #[test]
    fn worker_panic_reaches_the_caller_with_its_payload() {
        use std::panic::{catch_unwind, panic_any, AssertUnwindSafe};
        use std::thread::ThreadId;

        /// Node 1 panics on its first timer fire, reporting whether it
        /// ran off the calling thread.
        struct Faulty {
            caller: ThreadId,
        }
        impl SimNode for Faulty {
            type Msg = ();
            type Slot = ();
            fn on_start(&mut self, ctx: &mut SimCtx<'_, ()>) {
                ctx.set_timer(TICK, DurationMs::from_millis(10));
            }
            fn on_timer(&mut self, _t: TimerId, ctx: &mut SimCtx<'_, ()>) {
                if ctx.self_id() == NodeId::new(1) {
                    let on_worker = std::thread::current().id() != self.caller;
                    panic_any(("node 1 handler", on_worker));
                }
            }
        }
        let caller = std::thread::current().id();
        let mut sim = SimulationBuilder::new(3)
            .threads(2)
            .build(vec![Faulty { caller }, Faulty { caller }], ());
        sim.set_parallel_threshold(1);
        let payload = catch_unwind(AssertUnwindSafe(|| sim.run_until(TimeMs::from_secs(1))))
            .expect_err("the worker's panic propagates");
        let payload = payload
            .downcast_ref::<(&str, bool)>()
            .expect("the handler's own payload, not a generic scope panic");
        assert_eq!(*payload, ("node 1 handler", true), "raised on a worker");
    }

    #[test]
    fn sharded_run_respects_control_barriers() {
        let run = |k: usize| {
            // Every link loses 30% more from 300 ms on.
            let mut network = NetworkConfig::perfect(DurationMs::from_millis(3));
            network.link_faults.push(crate::network::LinkFault {
                nodes: (0..24).map(NodeId::new).collect(),
                extra_latency: DurationMs::ZERO,
                extra_loss: 0.3,
                from: TimeMs::from_millis(300),
                until: TimeMs::from_millis(450),
            });
            let mut sim = chatty_sim_on(13, 24, k, network);
            sim.schedule_crash(TimeMs::from_millis(40), NodeId::new(3));
            sim.schedule_recover(TimeMs::from_millis(120), NodeId::new(3));
            sim.schedule_restart(TimeMs::from_millis(200), NodeId::new(7), |node, _| {
                node.digest = 0;
                node.fires = 0;
            });
            sim.schedule_node_action(TimeMs::from_millis(250), NodeId::new(1), |_, ctx| {
                ctx.send(NodeId::new(2), 0xDEAD);
            });
            sim.run_until(TimeMs::from_millis(450));
            fingerprint(&sim)
        };
        let expected = run(1);
        for k in [2usize, 4, 8] {
            assert_eq!(run(k), expected, "K={k} diverged under control barriers");
        }
    }

    #[test]
    fn post_event_hook_sees_canonical_order_at_any_thread_count() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let run = |k: usize| {
            let mut sim = chatty_sim(9, 18, k, false);
            let log: Rc<RefCell<Vec<(u32, u64)>>> = Rc::default();
            let sink = Rc::clone(&log);
            sim.set_post_event_hook(Box::new(move |node: &mut Chatty| {
                sink.borrow_mut().push((node.n, node.digest));
            }));
            sim.run_until(TimeMs::from_millis(120));
            drop(sim); // releases the hook's clone of the log
            Rc::try_unwrap(log).map(RefCell::into_inner).unwrap()
        };
        let expected = run(1);
        assert!(!expected.is_empty());
        assert_eq!(run(4), expected);
    }

    #[test]
    fn each_shard_slot_sees_its_nodes_in_canonical_order() {
        let per_node = |k: usize| {
            let mut sim = chatty_sim(9, 18, k, true);
            sim.schedule_restart(TimeMs::from_millis(90), NodeId::new(11), |node, ctx| {
                node.digest = 0;
                ctx.slot().push((11, 0));
            });
            sim.run_until(TimeMs::from_millis(200));
            let map = ShardMap::new(18, k);
            assert_eq!(sim.slots().len(), map.shards());
            let mut logs = vec![Vec::new(); 18];
            for (s, slot) in sim.slots().iter().enumerate() {
                for &(node, digest) in slot {
                    assert_eq!(
                        map.shard_of(node as usize),
                        s,
                        "K={k}: node {node} in slot {s}"
                    );
                    logs[node as usize].push(digest);
                }
            }
            logs
        };
        let expected = per_node(1);
        assert!(expected.iter().all(|log| !log.is_empty()));
        for k in [2usize, 4] {
            assert_eq!(per_node(k), expected, "K={k}");
        }
    }

    #[test]
    fn profiler_never_changes_results_and_records_phases() {
        use agb_profile::{Phase, ProfileConfig};
        let profiled = |k: usize| {
            let network = NetworkConfig::perfect(DurationMs::from_millis(3));
            let nodes = (0..24)
                .map(|_| Chatty {
                    digest: 0,
                    fires: 0,
                    n: 24,
                    period: DurationMs::from_millis(10),
                })
                .collect();
            let mut sim = SimulationBuilder::new(21)
                .network(network)
                .threads(k)
                .profile(ProfileConfig::enabled())
                .build(nodes, Vec::new());
            sim.set_parallel_threshold(2);
            sim.run_until(TimeMs::from_millis(300));
            sim
        };
        let mut plain = chatty_sim(21, 24, 1, false);
        plain.run_until(TimeMs::from_millis(300));
        assert!(plain.profiler_snapshot().is_none());

        for k in [1usize, 4] {
            let sim = profiled(k);
            assert_eq!(
                fingerprint(&sim),
                fingerprint(&plain),
                "profiler perturbed results at K={k}"
            );
            let snap = sim.profiler_snapshot().expect("profiler attached");
            assert!(snap.phase(Phase::ShardExec).count > 0);
            assert!(snap.phase(Phase::Merge).items > 0);
            assert!(snap.phase(Phase::Route).items > 0, "route sends attributed");
            if k > 1 {
                assert!(snap.parallel_batches > 0, "K=4 must hit the worker path");
                assert!(snap.worst_balance_ratio.unwrap() >= 1.0);
            } else {
                assert_eq!(snap.parallel_batches, 0);
            }
            let mem = sim.queue_mem();
            assert_eq!(mem.entries, sim.pending_events() as u64);
        }
    }

    #[test]
    fn thread_count_clamp_rule() {
        // The pure rule behind threads_from_env (the env var itself is
        // not mutated here: tests run concurrently and cluster builders
        // read AGB_THREADS).
        assert_eq!(super::clamp_threads(None), 1, "unset/malformed → 1");
        assert_eq!(super::clamp_threads(Some(0)), 1, "zero clamps up");
        assert_eq!(super::clamp_threads(Some(5)), 5);
        assert_eq!(super::clamp_threads(Some(64)), 64);
        assert_eq!(super::clamp_threads(Some(10_000)), 64, "cap at 64");
        std::env::set_var("AGB_THREADS_TEST_PROBE", "5");
        assert_eq!(
            agb_types::env_usize("AGB_THREADS_TEST_PROBE"),
            Some(5),
            "env_usize is the parser threads_from_env builds on"
        );
        assert!(threads_from_env() >= 1);
    }
}
