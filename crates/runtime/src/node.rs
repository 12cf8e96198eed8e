//! The per-node runtime thread.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use agb_core::{FrameProtocol, GossipFrame};
use agb_failure::{ByteAdversary, Mutation, PhiDetector, Verdict};
use agb_metrics::MetricsCollector;
use agb_trace::{Recorder, TraceProbe, TraceSink};
use agb_types::{bernoulli, DetRng, NodeId, Payload, TimeMs};
use bytes::Bytes;
use crossbeam::channel::{Receiver, Sender};
use parking_lot::Mutex;

use crate::telemetry::{stamp_payload, LifecycleKind, NodeTelemetry, ShedClass};
use crate::transport::{RecvOutcome, Transport, TransportError, MAX_DATAGRAM};
use crate::wire;

/// Control-plane commands accepted by a running node.
#[derive(Debug)]
pub enum Command {
    /// Offer a payload for broadcast.
    Offer(Payload),
    /// Resize the event buffer (the Figure 9 runtime experiment).
    Resize(usize),
    /// Crash-stop: the node stops gossiping, receiving and offering, but
    /// keeps its state for a later [`Command::Recover`].
    Crash,
    /// Resume after a [`Command::Crash`], state intact.
    Recover,
    /// Restart with state loss: the protocol state machine is rebuilt from
    /// the node's factory (see [`NodeRuntime::rebuild`]) and the node
    /// resumes. Falls back to [`Command::Recover`] when no factory is
    /// installed.
    Restart,
    /// Graceful leave: emit farewell frames (flushing the buffer and, with
    /// partial views, propagating the unsubscription), then go silent.
    Leave,
}

/// Handle to a spawned node thread.
pub struct NodeHandle {
    /// The node's identity.
    pub node: NodeId,
    pub(crate) cmd_tx: Sender<Command>,
    pub(crate) join: JoinHandle<()>,
}

impl NodeHandle {
    /// Sends a control command; returns `false` if the node has stopped.
    pub fn command(&self, cmd: Command) -> bool {
        self.cmd_tx.send(cmd).is_ok()
    }
}

/// Parameters for one node thread.
pub struct NodeRuntime {
    /// The protocol state machine to drive (plain or recovery-wrapped).
    pub protocol: Box<dyn FrameProtocol + Send>,
    /// Offered load in msgs/s (0 = pure receiver), constant pacing.
    pub offered_rate: f64,
    /// Payload attached to offered messages.
    pub payload: Payload,
    /// Blocking-application backlog bound.
    pub max_backlog: usize,
    /// Factory rebuilding the protocol from scratch, used by
    /// [`Command::Restart`] to model restart-with-state-loss.
    pub rebuild: Option<Box<dyn Fn() -> Box<dyn FrameProtocol + Send> + Send>>,
    /// Causal-trace probe. A disabled probe records nothing and the loop
    /// takes none of the tracing branches.
    pub probe: TraceProbe,
    /// Wall-clock telemetry handles. A disabled instance records nothing
    /// and paced offers are not latency-stamped.
    pub telemetry: NodeTelemetry,
    /// Sender-side injected datagram loss probability in `[0, 1)` — a
    /// deterministic harness for exercising the recovery plane over real
    /// transports.
    pub loss: f64,
    /// RNG stream driving the loss draws.
    pub loss_rng: DetRng,
    /// φ-accrual failure detector (`None` = detection plane off). Fed
    /// by every decoded frame; verdicts drive `evict_peer` on the
    /// protocol.
    pub detector: Option<PhiDetector>,
    /// Ring successors owed a heartbeat whenever a round's regular
    /// gossip does not cover them (empty when the detection plane is
    /// off; see [`agb_failure::ring_successors`]).
    pub heartbeat_targets: Vec<NodeId>,
    /// Egress byte adversary harness (`None` = clean wire): mutates
    /// encoded datagrams before they reach the transport.
    pub adversary: Option<ByteAdversary>,
    /// RNG stream driving the adversary's fault draws.
    pub adversary_rng: DetRng,
    /// Bound on frames queued for transmission inside one loop
    /// iteration; beyond it the egress queue sheds in priority order
    /// (control > recovery > app).
    pub egress_capacity: usize,
    /// Record node-loop iteration times and egress-queue dwell into the
    /// telemetry plane (requires telemetry; off = no extra clock reads
    /// on the loop).
    pub profile: bool,
}

/// Maximum resend attempts of one retried frame.
const MAX_RETRIES: u32 = 4;
/// First-retry backoff; doubles per attempt up to [`RETRY_CAP`].
const RETRY_BASE: Duration = Duration::from_millis(10);
/// Backoff ceiling.
const RETRY_CAP: Duration = Duration::from_millis(160);
/// Default egress bound when the caller passes 0.
const DEFAULT_EGRESS_CAPACITY: usize = 1024;

/// The egress priority class of a frame: graft requests steer recovery
/// (control), retransmissions repair gaps (recovery), regular gossip
/// carries the app payload and is shed first under overload.
fn frame_class(frame: &GossipFrame) -> ShedClass {
    match frame {
        GossipFrame::Gossip { .. } => ShedClass::App,
        GossipFrame::Retransmit(_) => ShedClass::Recovery,
        GossipFrame::Graft(_) => ShedClass::Control,
    }
}

/// A frame awaiting a backed-off resend after an I/O send failure.
struct Retry {
    to: NodeId,
    frame: GossipFrame,
    attempts: u32,
    due: Instant,
}

/// The node's send side: bounded priority queues with overload
/// shedding, capped-exponential-backoff retries for control/recovery
/// frames, the injected-loss harness, and the byte adversary (with its
/// reorder hold-back buffer).
struct Egress {
    /// Per-class frame queues, indexed by [`ShedClass::as_u8`]
    /// (app, recovery, control). Entries carry their enqueue instant so
    /// the flush can report queue dwell to the telemetry plane.
    queues: [VecDeque<(NodeId, GossipFrame, Instant)>; 3],
    /// Whether flushes report queue dwell (the profiling handle).
    profiling: bool,
    capacity: usize,
    retries: Vec<Retry>,
    /// Datagrams the adversary held back for reordering, with their
    /// release times.
    holdback: Vec<(Instant, NodeId, Bytes)>,
    encoder: wire::FrameEncoder,
    loss: f64,
    loss_rng: DetRng,
    adversary: Option<ByteAdversary>,
    adversary_rng: DetRng,
}

impl Egress {
    fn new(
        capacity: usize,
        profiling: bool,
        loss: f64,
        loss_rng: DetRng,
        adversary: Option<ByteAdversary>,
        adversary_rng: DetRng,
    ) -> Self {
        Egress {
            queues: Default::default(),
            profiling,
            capacity: if capacity == 0 {
                DEFAULT_EGRESS_CAPACITY
            } else {
                capacity
            },
            retries: Vec::new(),
            holdback: Vec::new(),
            encoder: wire::FrameEncoder::default(),
            loss,
            loss_rng,
            adversary,
            adversary_rng,
        }
    }

    /// Queues one frame, shedding under overload: the victim is the
    /// oldest frame of the lowest-priority backlogged class at or below
    /// the incoming class — an app frame arriving into a queue full of
    /// higher classes sheds itself.
    fn enqueue(
        &mut self,
        to: NodeId,
        frame: GossipFrame,
        at: TimeMs,
        probe: &mut TraceProbe,
        telemetry: &NodeTelemetry,
    ) {
        const CLASSES: [ShedClass; 3] = [ShedClass::App, ShedClass::Recovery, ShedClass::Control];
        let class = frame_class(&frame);
        let idx = class.as_u8() as usize;
        let total: usize = self.queues.iter().map(VecDeque::len).sum();
        if total >= self.capacity {
            match (0..=idx).find(|&i| !self.queues[i].is_empty()) {
                Some(victim) => {
                    self.queues[victim].pop_front();
                    probe.on_sheds(at, victim as u8, 1);
                    telemetry.on_shed(CLASSES[victim]);
                }
                None => {
                    probe.on_sheds(at, class.as_u8(), 1);
                    telemetry.on_shed(class);
                    return;
                }
            }
        }
        self.queues[idx].push_back((to, frame, Instant::now()));
    }

    /// Transmits everything queued, highest class first. Control and
    /// recovery frames whose send fails with an I/O error are scheduled
    /// for a backed-off retry; app frames are best-effort (the gossip
    /// redundancy already covers them).
    fn flush<T: Transport>(&mut self, transport: &T, telemetry: &NodeTelemetry) {
        for idx in (0..3).rev() {
            while let Some((to, frame, queued_at)) = self.queues[idx].pop_front() {
                if self.profiling {
                    telemetry.on_egress_dwell(queued_at.elapsed().as_secs_f64());
                }
                let io_failed = self.transmit(transport, telemetry, to, &frame);
                if io_failed && idx >= 1 {
                    self.schedule_retry(to, frame, 0);
                }
            }
        }
    }

    fn schedule_retry(&mut self, to: NodeId, frame: GossipFrame, attempts: u32) {
        let backoff = RETRY_CAP.min(RETRY_BASE * 2u32.saturating_pow(attempts));
        self.retries.push(Retry {
            to,
            frame,
            attempts: attempts + 1,
            due: Instant::now() + backoff,
        });
    }

    /// Releases due hold-back datagrams and re-sends due retries. Called
    /// once per loop iteration.
    fn pump<T: Transport>(&mut self, transport: &T, telemetry: &NodeTelemetry) {
        let now = Instant::now();
        let mut i = 0;
        while i < self.holdback.len() {
            if self.holdback[i].0 <= now {
                let (_, to, bytes) = self.holdback.swap_remove(i);
                // Already counted as sent when held back; only failures
                // are news here.
                if let Err(e) = transport.send(to, bytes) {
                    telemetry.on_send_error(&e);
                }
            } else {
                i += 1;
            }
        }
        let mut i = 0;
        while i < self.retries.len() {
            if self.retries[i].due <= now {
                let r = self.retries.swap_remove(i);
                telemetry.on_send_retry();
                let io_failed = self.transmit(transport, telemetry, r.to, &r.frame);
                if io_failed && r.attempts < MAX_RETRIES {
                    self.schedule_retry(r.to, r.frame, r.attempts);
                }
            } else {
                i += 1;
            }
        }
    }

    /// Encodes `frame`, applies the injected-loss harness and the byte
    /// adversary, and hands each fragment to the transport, counting
    /// outcomes into the telemetry plane. Returns whether any fragment
    /// failed with an I/O error (the retryable cause).
    fn transmit<T: Transport>(
        &mut self,
        transport: &T,
        telemetry: &NodeTelemetry,
        to: NodeId,
        frame: &GossipFrame,
    ) -> bool {
        let mut io_failed = false;
        for frag in self.encoder.split_for_datagram(frame, MAX_DATAGRAM) {
            if self.loss > 0.0 && bernoulli(&mut self.loss_rng, self.loss) {
                telemetry.on_loss();
                continue;
            }
            let frag = match &self.adversary {
                Some(adv) => {
                    let mut bytes = frag.to_vec();
                    match adv.mutate(&mut bytes, &mut self.adversary_rng) {
                        Mutation::None => frag,
                        // The mangled datagram still goes out — the
                        // receiver's checksum is what must reject it.
                        Mutation::Corrupted | Mutation::Truncated => Bytes::from(bytes),
                        Mutation::Duplicated => {
                            io_failed |= send_raw(transport, telemetry, frame, to, frag.clone());
                            frag
                        }
                        Mutation::Reordered(delay) => {
                            // Count the send now (the frame was accepted
                            // for transmission); release later.
                            telemetry.on_sent(frame, frag.len());
                            self.holdback
                                .push((Instant::now() + delay.to_std(), to, frag));
                            continue;
                        }
                    }
                }
                None => frag,
            };
            io_failed |= send_raw(transport, telemetry, frame, to, frag);
        }
        io_failed
    }
}

/// Sends one encoded fragment, counting the outcome. Returns whether
/// the send failed with an I/O error.
fn send_raw<T: Transport>(
    transport: &T,
    telemetry: &NodeTelemetry,
    frame: &GossipFrame,
    to: NodeId,
    bytes: Bytes,
) -> bool {
    let len = bytes.len();
    match transport.send(to, bytes) {
        Ok(()) => {
            telemetry.on_sent(frame, len);
            false
        }
        Err(e) => {
            let retryable = matches!(e, TransportError::Io(_));
            telemetry.on_send_error(&e);
            retryable
        }
    }
}

/// Spawns the node's event loop on a dedicated OS thread.
///
/// The loop multiplexes: datagram reception (bounded waits), the periodic
/// gossip round at the protocol's configured period, control commands, and
/// constant-rate local offers. All protocol events are drained into the
/// shared collector.
#[allow(clippy::too_many_arguments)] // the node's full wiring, spelled out
pub fn spawn_node<T: Transport>(
    id: NodeId,
    runtime: NodeRuntime,
    transport: T,
    metrics: Arc<Mutex<MetricsCollector>>,
    trace: Option<Arc<Mutex<Recorder>>>,
    epoch: Instant,
    shutdown: Arc<AtomicBool>,
    cmd_rx: Receiver<Command>,
    cmd_tx: Sender<Command>,
) -> NodeHandle {
    let join = std::thread::Builder::new()
        .name(format!("agb-node-{}", id.index()))
        .spawn(move || {
            node_loop(
                id, runtime, transport, metrics, trace, epoch, shutdown, cmd_rx,
            )
        })
        .expect("spawn node thread");
    NodeHandle {
        node: id,
        cmd_tx,
        join,
    }
}

#[allow(clippy::too_many_arguments)] // mirrors spawn_node's wiring
fn node_loop<T: Transport>(
    id: NodeId,
    mut runtime: NodeRuntime,
    transport: T,
    metrics: Arc<Mutex<MetricsCollector>>,
    trace: Option<Arc<Mutex<Recorder>>>,
    epoch: Instant,
    shutdown: Arc<AtomicBool>,
    cmd_rx: Receiver<Command>,
) {
    let period = runtime.protocol.gossip_period().to_std();
    // Stagger rounds by node index to avoid synchronized bursts, like the
    // unsynchronized processes of the paper's testbed.
    let phase = period.mul_f64((id.index() % 16) as f64 / 16.0);
    let mut next_round = epoch + period + phase;
    let offer_gap = if runtime.offered_rate > 0.0 {
        Some(Duration::from_secs_f64(1.0 / runtime.offered_rate))
    } else {
        None
    };
    let mut next_offer = offer_gap.map(|g| epoch + g);

    let now_ms = |at: Instant| TimeMs::from_millis(at.duration_since(epoch).as_millis() as u64);
    // The send side: priority queues + shedding + retries + the
    // loss/adversary harnesses (owns the pooled frame encoder).
    let profiling = runtime.profile && runtime.telemetry.enabled();
    let mut egress = Egress::new(
        runtime.egress_capacity,
        profiling,
        runtime.loss,
        runtime.loss_rng.clone(),
        runtime.adversary.take(),
        runtime.adversary_rng.clone(),
    );
    // Bounded small: entries pin their payload bytes until the table's
    // wholesale reset, so a long-lived node must not retain tens of
    // thousands of distinct datagram-sized payloads.
    let mut interner = agb_types::PayloadInterner::new(1024);
    // Crash-stopped (or departed) until further command: datagrams are
    // drained and discarded, rounds and offers are suppressed.
    let mut down = false;
    // Previous iteration's wake instant; each loop top closes out the
    // prior iteration (including its bounded recv wait) into the
    // loop-iteration histogram.
    let mut iter_started: Option<Instant> = None;

    while !shutdown.load(Ordering::Relaxed) {
        if profiling {
            let woke = Instant::now();
            if let Some(t0) = iter_started {
                runtime
                    .telemetry
                    .on_loop_iteration(woke.duration_since(t0).as_secs_f64());
            }
            iter_started = Some(woke);
        }

        // 0. Release due reorder hold-backs and backed-off retries.
        egress.pump(&transport, &runtime.telemetry);

        // 1. Control commands.
        while let Ok(cmd) = cmd_rx.try_recv() {
            let now = now_ms(Instant::now());
            match cmd {
                Command::Offer(payload) => {
                    if !down {
                        runtime.protocol.offer(payload, now);
                    }
                }
                Command::Resize(cap) => {
                    runtime.protocol.set_buffer_capacity(cap, now);
                }
                Command::Crash => {
                    runtime.probe.on_crash(now);
                    runtime.telemetry.on_lifecycle(LifecycleKind::Crash);
                    down = true;
                }
                Command::Recover => {
                    runtime.probe.on_restart(now);
                    runtime.telemetry.on_lifecycle(LifecycleKind::Recover);
                    down = false;
                    next_round = Instant::now() + period;
                    if let Some(gap) = offer_gap {
                        next_offer = Some(Instant::now() + gap);
                    }
                }
                Command::Restart => {
                    if let Some(rebuild) = &runtime.rebuild {
                        runtime.protocol = rebuild();
                    }
                    runtime.probe.on_restart(now);
                    runtime.telemetry.on_lifecycle(LifecycleKind::Restart);
                    down = false;
                    next_round = Instant::now() + period;
                    if let Some(gap) = offer_gap {
                        next_offer = Some(Instant::now() + gap);
                    }
                }
                Command::Leave => {
                    let farewells = runtime.protocol.leave(now);
                    runtime.probe.observe_frames(now, &farewells);
                    runtime.telemetry.on_lifecycle(LifecycleKind::Leave);
                    for (to, frame) in farewells {
                        egress.enqueue(to, frame, now, &mut runtime.probe, &runtime.telemetry);
                    }
                    egress.flush(&transport, &runtime.telemetry);
                    down = true;
                }
            }
        }

        if down {
            // Keep the socket drained (datagrams addressed to a crashed
            // node are lost, not queued) and the command channel
            // responsive.
            if let RecvOutcome::Closed = transport.recv_outcome(Duration::from_millis(5)) {
                runtime.telemetry.on_recv_closed();
                break;
            }
            continue;
        }

        // 2. Paced local offers (blocking-application semantics: skip when
        //    the protocol backlog is full).
        if let (Some(gap), Some(next)) = (offer_gap, next_offer) {
            let mut at = next;
            while at <= Instant::now() {
                if runtime.protocol.pending_len() < runtime.max_backlog.max(1) {
                    // Under telemetry, stamp the send time into the payload
                    // so the delivering node can measure end-to-end latency.
                    let payload = if runtime.telemetry.enabled() {
                        stamp_payload(&runtime.payload, epoch)
                            .unwrap_or_else(|| runtime.payload.clone())
                    } else {
                        runtime.payload.clone()
                    };
                    runtime.protocol.offer(payload, now_ms(at));
                } else {
                    // Blocking application refused an offer: a congestion
                    // drop in the trace taxonomy.
                    runtime.probe.on_congestion_drops(now_ms(at), 1);
                    runtime.telemetry.on_offer_refused();
                    runtime.telemetry.on_congestion_drop();
                }
                at += gap;
            }
            next_offer = Some(at);
        }

        // 3. Receive until the next round deadline (bounded slice so
        //    commands stay responsive).
        let now_instant = Instant::now();
        let until_round = next_round.saturating_duration_since(now_instant);
        let slice = until_round.min(Duration::from_millis(5));
        match transport.recv_outcome(slice) {
            RecvOutcome::Datagram(bytes) => {
                match wire::decode_frame_interned(&bytes, &mut interner) {
                    Ok(frame) => {
                        let from = frame.sender();
                        runtime.probe.on_message(&frame);
                        runtime.telemetry.on_received(&frame, bytes.len());
                        let at = now_ms(Instant::now());
                        // Every decoded frame is an arrival sample for the
                        // detector — gossip piggybacks the liveness signal.
                        if let Some(det) = runtime.detector.as_mut() {
                            if let Some(Verdict::Rejoin(peer)) = det.observe(from, at) {
                                runtime.probe.on_rejoin(at, peer);
                            }
                        }
                        let replies = runtime.protocol.on_receive(from, frame, at);
                        for (to, reply) in replies {
                            egress.enqueue(to, reply, at, &mut runtime.probe, &runtime.telemetry);
                        }
                        egress.flush(&transport, &runtime.telemetry);
                        if runtime.probe.enabled() {
                            // Drain per datagram so the probe can attribute the
                            // events (and detect duplicates) to this sender.
                            let events = runtime.protocol.drain_events();
                            runtime.probe.on_events(&events);
                            runtime.probe.on_received(at, from, &events);
                            runtime.telemetry.on_events(&events);
                            if !events.is_empty() {
                                metrics.lock().on_events(id, &events);
                            }
                        }
                    }
                    Err(_) => {
                        // Corrupt datagram: drop, like the network would — but
                        // count it, unlike the network. The checksum trailer
                        // guarantees this path never misdelivers an
                        // adversary-mangled frame.
                        runtime.telemetry.on_decode_error();
                    }
                }
            }
            RecvOutcome::Timeout => {}
            RecvOutcome::Closed => {
                // Terminal transport teardown: no peer can reach this
                // node again, so the loop ends.
                runtime.telemetry.on_recv_closed();
                break;
            }
        }

        // 4. Gossip round.
        if Instant::now() >= next_round {
            let at = now_ms(next_round);
            let out = runtime.protocol.on_round(at);
            if runtime.probe.enabled() {
                runtime.probe.on_round(
                    at,
                    &out,
                    runtime.protocol.buffer_len(),
                    runtime.protocol.buffer_capacity(),
                );
            }
            if runtime.telemetry.enabled() {
                runtime.telemetry.on_round(
                    runtime.protocol.buffer_len(),
                    runtime.protocol.buffer_capacity(),
                );
            }
            // Heartbeat fallback: ring successors the regular gossip did
            // not cover this round still get an (empty) liveness frame,
            // so their detectors keep seeing ~one arrival per period.
            if !runtime.heartbeat_targets.is_empty() {
                for i in 0..runtime.heartbeat_targets.len() {
                    let hb = runtime.heartbeat_targets[i];
                    if !out.iter().any(|&(to, _)| to == hb) {
                        runtime.probe.on_heartbeat(at, hb);
                        runtime.telemetry.on_heartbeat();
                        egress.enqueue(
                            hb,
                            GossipFrame::heartbeat(id),
                            at,
                            &mut runtime.probe,
                            &runtime.telemetry,
                        );
                    }
                }
            }
            for (to, frame) in out {
                egress.enqueue(to, frame, at, &mut runtime.probe, &runtime.telemetry);
            }
            egress.flush(&transport, &runtime.telemetry);
            // Judge the monitored peers once per round; eviction removes
            // the condemned peer from this node's view through the same
            // path a scripted eviction uses.
            if let Some(det) = runtime.detector.as_mut() {
                for verdict in det.check(at) {
                    match verdict {
                        Verdict::Suspect(peer) => {
                            runtime.probe.on_suspect(at, peer);
                            runtime.telemetry.on_suspect();
                        }
                        Verdict::Evict(peer) => {
                            runtime.protocol.evict_peer(peer);
                            runtime.probe.on_detector_evict(at, peer);
                            runtime.telemetry.on_detector_evict();
                        }
                        Verdict::Rejoin(peer) => {
                            runtime.probe.on_rejoin(at, peer);
                        }
                    }
                }
            }
            next_round += period;
        }

        // 5. Drain protocol events into the shared collector, and flush
        //    any buffered trace records into the shared recorder.
        let events = runtime.protocol.drain_events();
        if !events.is_empty() {
            runtime.probe.on_events(&events);
            runtime.telemetry.on_events(&events);
            let mut m = metrics.lock();
            m.on_events(id, &events);
        }
        if runtime.telemetry.enabled() {
            runtime
                .telemetry
                .set_queue_depth(cmd_rx.len() + runtime.protocol.pending_len());
        }
        if runtime.probe.pending_len() > 0 {
            if let Some(recorder) = &trace {
                let mut r = recorder.lock();
                for record in runtime.probe.drain_pending() {
                    r.record(record);
                }
            } else {
                runtime.probe.drain_pending().for_each(drop);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::ChannelTransport;
    use agb_core::{GossipConfig, LpbcastNode};
    use agb_membership::FullView;
    use agb_types::{DetRng, DurationMs};
    use crossbeam::channel::unbounded;
    use rand::SeedableRng;

    #[test]
    fn two_nodes_exchange_a_broadcast() {
        let n = 2;
        let transports = ChannelTransport::cluster(n);
        let metrics = Arc::new(Mutex::new(MetricsCollector::new(
            n,
            DurationMs::from_millis(100),
        )));
        let shutdown = Arc::new(AtomicBool::new(false));
        let epoch = Instant::now();

        let mut handles = Vec::new();
        for (i, transport) in transports.into_iter().enumerate() {
            let id = NodeId::new(i as u32);
            let mut gossip = GossipConfig::default();
            gossip.gossip_period = DurationMs::from_millis(30);
            let protocol = Box::new(LpbcastNode::new(
                id,
                gossip,
                FullView::new(n),
                DetRng::seed_from_u64(i as u64),
            ));
            let (tx, rx) = unbounded();
            handles.push(spawn_node(
                id,
                NodeRuntime {
                    protocol,
                    offered_rate: 0.0,
                    payload: Payload::new(),
                    max_backlog: 2,
                    rebuild: None,
                    probe: TraceProbe::new(agb_trace::TraceConfig::disabled(), id),
                    telemetry: NodeTelemetry::disabled(),
                    loss: 0.0,
                    loss_rng: DetRng::seed_from_u64(0),
                    detector: None,
                    heartbeat_targets: vec![],
                    adversary: None,
                    adversary_rng: DetRng::seed_from_u64(0),
                    egress_capacity: 0,
                    profile: false,
                },
                transport,
                Arc::clone(&metrics),
                None,
                epoch,
                Arc::clone(&shutdown),
                rx,
                tx,
            ));
        }

        assert!(handles[0].command(Command::Offer(Payload::from_static(b"hi"))));
        std::thread::sleep(Duration::from_millis(400));
        shutdown.store(true, Ordering::Relaxed);
        for h in handles {
            h.join.join().unwrap();
        }
        let m = metrics.lock();
        let report = m.deliveries().atomicity(0.95, None);
        assert_eq!(report.messages, 1);
        assert_eq!(report.avg_receiver_fraction, 1.0, "both nodes deliver");
    }
}
