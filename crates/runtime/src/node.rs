//! The per-node runtime thread.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use agb_core::GossipFrame;
use agb_failure::{ByteAdversary, Mutation};
use agb_metrics::MetricsCollector;
use agb_node::{Input, NodeObserver, NodeShell, Outgoing, ShedClass};
use agb_types::{bernoulli, DetRng, NodeId, Payload, TimeMs};
use bytes::Bytes;

use crate::telemetry::{stamp_payload, NodeTelemetry};
use crate::transport::{RecvOutcome, Transport, TransportError, MAX_DATAGRAM};
use crate::wire;

/// Locks `mutex`, taking the guard even if a node thread panicked while
/// holding it: the collector only accumulates, so `stop()` and the
/// snapshots still report what was collected.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The sending half of a node's command queue. `std`'s channel reports
/// no length, so both halves count the queued commands for the
/// `agb_event_queue_depth` gauge.
struct CommandSender {
    tx: Sender<Input>,
    queued: Arc<AtomicUsize>,
}

/// The node thread's half of its command queue.
struct CommandReceiver {
    rx: Receiver<Input>,
    queued: Arc<AtomicUsize>,
}

/// A node's command queue.
fn command_queue() -> (CommandSender, CommandReceiver) {
    let (tx, rx) = mpsc::channel();
    let queued = Arc::new(AtomicUsize::new(0));
    let receiver = CommandReceiver {
        rx,
        queued: Arc::clone(&queued),
    };
    (CommandSender { tx, queued }, receiver)
}

impl CommandSender {
    /// Queues `input`; `false` if the receiving node has stopped.
    fn send(&self, input: Input) -> bool {
        // Counted before the send, so the receiver never counts below 0.
        self.queued.fetch_add(1, Ordering::Relaxed);
        let sent = self.tx.send(input).is_ok();
        if !sent {
            self.queued.fetch_sub(1, Ordering::Relaxed);
        }
        sent
    }
}

impl CommandReceiver {
    /// The oldest queued command, without waiting.
    fn try_recv(&self) -> Option<Input> {
        let input = self.rx.try_recv().ok()?;
        self.queued.fetch_sub(1, Ordering::Relaxed);
        Some(input)
    }

    /// Commands queued and not yet received.
    fn len(&self) -> usize {
        self.queued.load(Ordering::Relaxed)
    }
}

/// Handle to a spawned node thread.
pub(crate) struct NodeHandle {
    commands: CommandSender,
    pub(crate) join: JoinHandle<()>,
}

impl NodeHandle {
    /// Hands the node a control input (an offer, a resize or a lifecycle
    /// transition); returns `false` if the node has stopped. Offers to a
    /// crashed or departed node are dropped.
    pub(crate) fn command(&self, input: Input) -> bool {
        self.commands.send(input)
    }
}

/// Parameters for one node thread.
pub(crate) struct NodeRuntime {
    /// The node's protocol (plain or recovery-wrapped), its optional
    /// failure detector, and its telemetry handles. A disabled telemetry
    /// instance records nothing, and paced offers are latency-stamped
    /// only under telemetry.
    pub shell: NodeShell<NodeTelemetry>,
    /// Offered load in msgs/s (0 = pure receiver), constant pacing.
    pub offered_rate: f64,
    /// Payload attached to offered messages.
    pub payload: Payload,
    /// Sender-side injected datagram loss probability in `[0, 1)` — a
    /// deterministic harness for exercising the recovery plane over real
    /// transports.
    pub loss: f64,
    /// RNG stream driving the loss draws.
    pub loss_rng: DetRng,
    /// Egress byte adversary harness (`None` = clean wire): mutates
    /// encoded datagrams before they reach the transport.
    pub adversary: Option<ByteAdversary>,
    /// RNG stream driving the adversary's fault draws.
    pub adversary_rng: DetRng,
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
/// Bound on frames queued for transmission inside one loop iteration;
/// beyond it the egress queue sheds in priority order (control >
/// recovery > app), so memory stays bounded under overload.
const EGRESS_CAPACITY: usize = 1024;
/// Blocking-application backlog bound: a paced offer is refused while
/// this many offers wait in the protocol's queue.
const MAX_BACKLOG: usize = 2;

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
            capacity,
            retries: Vec::new(),
            holdback: Vec::new(),
            encoder: wire::FrameEncoder::default(),
            loss,
            loss_rng,
            adversary,
            adversary_rng,
        }
    }

    /// Queues every frame of `out` and transmits them.
    fn send_all<T: Transport>(
        &mut self,
        out: &mut Vec<Outgoing>,
        at: TimeMs,
        telemetry: &mut NodeTelemetry,
        transport: &T,
    ) {
        for (to, frame) in out.drain(..) {
            self.enqueue(to, frame, at, telemetry);
        }
        self.flush(transport, telemetry);
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
        telemetry: &mut NodeTelemetry,
    ) {
        const CLASSES: [ShedClass; 3] = [ShedClass::App, ShedClass::Recovery, ShedClass::Control];
        let class = ShedClass::of(&frame);
        let idx = class.as_u8() as usize;
        let total: usize = self.queues.iter().map(VecDeque::len).sum();
        if total >= self.capacity {
            match (0..=idx).find(|&i| !self.queues[i].is_empty()) {
                Some(victim) => {
                    self.queues[victim].pop_front();
                    telemetry.on_shed(at, CLASSES[victim]);
                }
                None => {
                    telemetry.on_shed(at, class);
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
pub(crate) fn spawn_node<T: Transport>(
    id: NodeId,
    runtime: NodeRuntime,
    transport: T,
    metrics: Arc<Mutex<MetricsCollector>>,
    epoch: Instant,
    shutdown: Arc<AtomicBool>,
) -> NodeHandle {
    let (commands, cmd_rx) = command_queue();
    let join = std::thread::Builder::new()
        .name(format!("agb-node-{}", id.index()))
        .spawn(move || node_loop(id, runtime, transport, metrics, epoch, shutdown, cmd_rx))
        .expect("spawn node thread");
    NodeHandle { commands, join }
}

fn node_loop<T: Transport>(
    id: NodeId,
    mut runtime: NodeRuntime,
    transport: T,
    metrics: Arc<Mutex<MetricsCollector>>,
    epoch: Instant,
    shutdown: Arc<AtomicBool>,
    cmd_rx: CommandReceiver,
) {
    let shell = &mut runtime.shell;
    let period = shell.protocol().gossip_period().to_std();
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
    let profiling = runtime.profile && shell.observer().enabled();
    let mut egress = Egress::new(
        EGRESS_CAPACITY,
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
    let mut out = Vec::new();
    // The iteration's protocol events, handed to the shared collector
    // under one lock at its end.
    let mut events = Vec::new();

    while !shutdown.load(Ordering::Relaxed) {
        if profiling {
            let woke = Instant::now();
            if let Some(t0) = iter_started {
                let secs = woke.duration_since(t0).as_secs_f64();
                shell.observer().on_loop_iteration(secs);
            }
            iter_started = Some(woke);
        }

        // 0. Release due reorder hold-backs and backed-off retries.
        egress.pump(&transport, shell.observer());

        // 1. Control inputs.
        while let Some(input) = cmd_rx.try_recv() {
            match input {
                Input::Offer(_) if down => continue,
                Input::Crash | Input::Leave => down = true,
                Input::Recover | Input::Restart(_) => {
                    down = false;
                    next_round = Instant::now() + period;
                    if let Some(gap) = offer_gap {
                        next_offer = Some(Instant::now() + gap);
                    }
                }
                _ => {}
            }
            let now = now_ms(Instant::now());
            shell.step(now, input, &mut out, &mut events);
            egress.send_all(&mut out, now, shell.observer_mut(), &transport);
        }

        if down {
            // Keep the socket drained (datagrams addressed to a crashed
            // node are lost, not queued) and the command channel
            // responsive.
            if let RecvOutcome::Closed = transport.recv_outcome(Duration::from_millis(5)) {
                shell.observer().on_recv_closed();
                break;
            }
            continue;
        }

        // 2. Paced local offers (blocking-application semantics: refuse
        //    when the protocol backlog is full).
        if let (Some(gap), Some(next)) = (offer_gap, next_offer) {
            let mut at = next;
            while at <= Instant::now() {
                let input = if shell.protocol().pending_len() < MAX_BACKLOG {
                    // Under telemetry, stamp the send time into the payload
                    // so the delivering node can measure end-to-end latency.
                    let payload = if shell.observer().enabled() {
                        stamp_payload(&runtime.payload, epoch)
                            .unwrap_or_else(|| runtime.payload.clone())
                    } else {
                        runtime.payload.clone()
                    };
                    Input::Offer(payload)
                } else {
                    Input::Refused(1)
                };
                shell.step(now_ms(at), input, &mut out, &mut events);
                at += gap;
            }
            next_offer = Some(at);
        }

        // 3. Receive until the next round deadline (bounded slice so
        //    commands stay responsive).
        let until_round = next_round.saturating_duration_since(Instant::now());
        match transport.recv_outcome(until_round.min(Duration::from_millis(5))) {
            RecvOutcome::Datagram(bytes) => {
                match wire::decode_frame_interned(&bytes, &mut interner) {
                    Ok(frame) => {
                        shell.observer().on_received(&frame, bytes.len());
                        let at = now_ms(Instant::now());
                        let from = frame.sender();
                        shell.step(at, Input::Frame { from, frame }, &mut out, &mut events);
                        egress.send_all(&mut out, at, shell.observer_mut(), &transport);
                    }
                    // Corrupt datagram: drop, like the network would — but
                    // count it, unlike the network. The checksum trailer
                    // guarantees this path never misdelivers an
                    // adversary-mangled frame.
                    Err(_) => shell.observer().on_decode_error(),
                }
            }
            RecvOutcome::Timeout => {}
            RecvOutcome::Closed => {
                // Terminal transport teardown: no peer can reach this
                // node again, so the loop ends.
                shell.observer().on_recv_closed();
                break;
            }
        }

        // 4. Gossip round.
        if Instant::now() >= next_round {
            let at = now_ms(next_round);
            shell.step(at, Input::Round, &mut out, &mut events);
            egress.send_all(&mut out, at, shell.observer_mut(), &transport);
            next_round += period;
        }

        // 5. Hand the iteration's protocol events to the shared
        //    collector.
        if !events.is_empty() {
            lock(&metrics).on_events(id, &events);
            events.clear();
        }
        let backlog = cmd_rx.len() + shell.protocol().pending_len();
        shell.observer().set_queue_depth(backlog);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::ChannelTransport;
    use agb_core::{GossipConfig, LpbcastNode};
    use agb_membership::FullView;
    use agb_types::{DetRng, DurationMs};
    use rand::SeedableRng;

    #[test]
    fn command_queue_counts_queued_commands() {
        let (tx, rx) = command_queue();
        assert_eq!(rx.len(), 0);
        assert!(tx.send(Input::Round));
        assert!(tx.send(Input::Resize(7)));
        assert_eq!(rx.len(), 2);
        assert!(matches!(rx.try_recv(), Some(Input::Round)));
        assert_eq!(rx.len(), 1);
        assert!(matches!(rx.try_recv(), Some(Input::Resize(7))));
        assert!(rx.try_recv().is_none());
        assert_eq!(rx.len(), 0);
        // A send to a stopped node is refused and leaves no count behind.
        drop(rx);
        assert!(!tx.send(Input::Round));
        assert_eq!(tx.queued.load(Ordering::Relaxed), 0);
    }

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
            handles.push(spawn_node(
                id,
                NodeRuntime {
                    shell: NodeShell::new(protocol, None, n, NodeTelemetry::disabled()),
                    offered_rate: 0.0,
                    payload: Payload::new(),
                    loss: 0.0,
                    loss_rng: DetRng::seed_from_u64(0),
                    adversary: None,
                    adversary_rng: DetRng::seed_from_u64(0),
                    profile: false,
                },
                transport,
                Arc::clone(&metrics),
                epoch,
                Arc::clone(&shutdown),
            ));
        }

        assert!(handles[0].command(Input::Offer(Payload::from_static(b"hi"))));
        std::thread::sleep(Duration::from_millis(400));
        shutdown.store(true, Ordering::Relaxed);
        for h in handles {
            h.join.join().unwrap();
        }
        let m = lock(&metrics);
        let report = m.deliveries().atomicity(0.95, None);
        assert_eq!(report.messages, 1);
        assert_eq!(report.avg_receiver_fraction, 1.0, "both nodes deliver");
    }

    /// A frame of `class` tagged by its sender id.
    fn tagged(class: ShedClass, tag: u32) -> GossipFrame {
        let sender = NodeId::new(tag);
        match class {
            ShedClass::App => GossipFrame::heartbeat(sender),
            ShedClass::Recovery => GossipFrame::Retransmit(agb_core::Retransmission {
                sender,
                events: Vec::new(),
            }),
            ShedClass::Control => GossipFrame::Graft(agb_core::GraftRequest {
                sender,
                ids: Vec::new(),
            }),
        }
    }

    fn enqueue_all(
        egress: &mut Egress,
        telemetry: &mut NodeTelemetry,
        frames: &[(ShedClass, u32)],
    ) {
        for &(class, tag) in frames {
            egress.enqueue(NodeId::new(1), tagged(class, tag), TimeMs::ZERO, telemetry);
        }
    }

    /// Flushes `egress` from node 0 and returns what node 1 received, in
    /// order.
    fn flushed(
        egress: &mut Egress,
        telemetry: &NodeTelemetry,
        transports: &[ChannelTransport],
    ) -> Vec<(ShedClass, u32)> {
        egress.flush(&transports[0], telemetry);
        let mut got = Vec::new();
        while let RecvOutcome::Datagram(bytes) = transports[1].recv_outcome(Duration::ZERO) {
            let frame = wire::decode_frame(&bytes).expect("egress sends valid frames");
            got.push((ShedClass::of(&frame), frame.sender().as_u32()));
        }
        got
    }

    #[test]
    fn full_egress_sheds_the_lowest_class_and_flushes_the_highest_first() {
        use agb_telemetry::{names, Registry};
        use ShedClass::{App, Control, Recovery};

        let registry = Registry::new();
        let mut telemetry = NodeTelemetry::new(&registry, NodeId::new(0), Instant::now());
        let transports = ChannelTransport::cluster(2);
        let rng = || DetRng::seed_from_u64(0);
        let mut egress = Egress::new(3, false, 0.0, rng(), None, rng());
        let sheds = |class| {
            let labels = [("class", class), ("node", "0")];
            registry.snapshot().counter(names::SHEDS, &labels)
        };

        // An app frame at a queue full of app frames evicts the oldest.
        enqueue_all(
            &mut egress,
            &mut telemetry,
            &[(App, 1), (App, 2), (App, 3), (App, 4)],
        );
        // Recovery, then control, arriving at a full queue of app and
        // recovery frames evict the oldest app frames (2, then 3).
        enqueue_all(&mut egress, &mut telemetry, &[(Recovery, 5), (Control, 6)]);
        assert_eq!(
            flushed(&mut egress, &telemetry, &transports),
            [(Control, 6), (Recovery, 5), (App, 4)],
            "a flush sends control first, then recovery, then app"
        );
        assert_eq!(sheds("app"), Some(3));

        // An app frame at a full queue of recovery and control frames
        // sheds itself; recovery and control arrivals shed the lowest
        // class queued.
        let frames = [(Recovery, 7), (Control, 8), (Control, 9), (App, 10)];
        enqueue_all(&mut egress, &mut telemetry, &frames);
        enqueue_all(
            &mut egress,
            &mut telemetry,
            &[(Recovery, 11), (Control, 12), (Control, 13)],
        );
        assert_eq!(
            flushed(&mut egress, &telemetry, &transports),
            [(Control, 9), (Control, 12), (Control, 13)]
        );
        assert_eq!(sheds("app"), Some(4));
        assert_eq!(sheds("recovery"), Some(2));
        assert_eq!(sheds("control"), Some(1));
    }
}
