//! The one sans-IO node shell and the observer vocabulary it speaks.

use agb_core::{FrameProtocol, GossipFrame, ProtocolEvent};
use agb_failure::{ring_monitors, ring_successors, DetectorConfig, PhiDetector, Verdict, MONITORS};
use agb_types::{NodeId, Payload, TimeMs};

/// A frame to send, addressed to a peer.
pub type Outgoing = (NodeId, GossipFrame);

/// Node lifecycle transitions, matching the `kind` label of
/// `agb_lifecycle_total`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LifecycleKind {
    /// Crash-stop (state kept).
    Crash,
    /// Resume after a crash.
    Recover,
    /// Restart with state loss.
    Restart,
    /// Graceful leave.
    Leave,
}

/// Egress priority classes, highest shed-resistance last: under
/// overload a driver's egress queue sheds `App` first, then `Recovery`;
/// `Control` frames (membership, graft requests) go last.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedClass {
    /// Regular gossip data frames.
    App,
    /// Retransmissions and recovery replies.
    Recovery,
    /// Membership and graft-request frames.
    Control,
}

impl ShedClass {
    /// The class of `frame`: graft requests steer recovery (control),
    /// retransmissions repair gaps (recovery), regular gossip carries
    /// the app payload.
    pub fn of(frame: &GossipFrame) -> Self {
        match frame {
            GossipFrame::Gossip { .. } => ShedClass::App,
            GossipFrame::Retransmit(_) => ShedClass::Recovery,
            GossipFrame::Graft(_) => ShedClass::Control,
        }
    }

    /// The trace-record class byte (0 = app, 1 = recovery, 2 = control).
    pub fn as_u8(self) -> u8 {
        match self {
            ShedClass::App => 0,
            ShedClass::Recovery => 1,
            ShedClass::Control => 2,
        }
    }
}

/// A sink for the facts a [`NodeShell`] observes. Every method defaults
/// to a no-op, so a sink implements only what it records.
#[allow(unused_variables)]
pub trait NodeObserver {
    /// Whether this sink records anything. The shell skips computing
    /// observation-only arguments (buffer occupancy, view size) when not.
    fn enabled(&self) -> bool {
        true
    }
    /// A gossip round emitted `frames` and left the buffer at
    /// `buffer_len` of `buffer_capacity`.
    fn on_round(
        &mut self,
        at: TimeMs,
        frames: &[Outgoing],
        buffer_len: usize,
        buffer_capacity: usize,
    ) {
    }
    /// A heartbeat went to a ring successor the round's gossip missed.
    fn on_heartbeat(&mut self, at: TimeMs, to: NodeId) {}
    /// The failure detector first suspected `peer`.
    fn on_suspect(&mut self, at: TimeMs, peer: NodeId) {}
    /// The failure detector condemned `peer`, and the node evicted it.
    fn on_detector_evict(&mut self, at: TimeMs, peer: NodeId) {}
    /// An evicted `peer` spoke again and was welcomed back.
    fn on_rejoin(&mut self, at: TimeMs, peer: NodeId) {}
    /// A frame is about to be handed to the protocol.
    fn on_message(&mut self, frame: &GossipFrame) {}
    /// The frame begun by [`on_message`](Self::on_message), sent by
    /// `from`, has been handled; its events have already gone to
    /// [`on_events`](Self::on_events).
    fn on_received(&mut self, at: TimeMs, from: NodeId) {}
    /// Protocol events drained after one input.
    fn on_events(&mut self, events: &[ProtocolEvent]) {}
    /// The blocked application refused `n` offers (congestion drops).
    fn on_refused(&mut self, at: TimeMs, n: u64) {}
    /// Frames sent outside the round path (leave farewells).
    fn on_frames(&mut self, at: TimeMs, frames: &[Outgoing]) {}
    /// The membership view now holds `view_size` peers.
    fn on_view_change(&mut self, at: TimeMs, view_size: usize) {}
    /// This node crashed, recovered, restarted or left.
    fn on_lifecycle(&mut self, at: TimeMs, kind: LifecycleKind) {}
    /// A driver's overloaded egress queue shed one frame of `class`.
    fn on_shed(&mut self, at: TimeMs, class: ShedClass) {}
}

/// No observer: records nothing.
impl NodeObserver for () {
    fn enabled(&self) -> bool {
        false
    }
}

/// One input to a [`NodeShell`].
pub enum Input {
    /// The gossip-round timer fired.
    Round,
    /// A decoded frame arrived from `from`.
    Frame {
        /// The transport-level sender.
        from: NodeId,
        /// The frame.
        frame: GossipFrame,
    },
    /// The local application offers a payload for broadcast.
    Offer(Payload),
    /// The blocked application refused this many offers.
    Refused(u64),
    /// Graceful leave: emit farewell frames.
    Leave,
    /// Drop a peer from the membership view (a scripted eviction).
    Evict(NodeId),
    /// Resize the event buffer.
    Resize(usize),
    /// Crash-stop, state kept.
    Crash,
    /// Resume after a crash, state intact.
    Recover,
    /// Restart with state loss: the freshly built protocol replaces the
    /// old one.
    Restart(Box<dyn FrameProtocol + Send>),
    /// A restart through contact nodes: like [`Input::Restart`], and the
    /// new view size is observed.
    Join(Box<dyn FrameProtocol + Send>),
}

/// The failure-detection plane of one node.
struct Liveness {
    detector: PhiDetector,
    /// Ring successors owed a heartbeat whenever a round's gossip does
    /// not cover them.
    heartbeats: Vec<NodeId>,
}

/// One node's protocol, failure detector and observer behind a single
/// [`step`](Self::step).
///
/// The shell is sans-IO: a driver feeds it inputs with their timestamps
/// and transmits the frames it returns. Drivers keep only their own I/O
/// (timers, sockets, line protocols). Neither the shell nor its protocol
/// stack holds event-queue storage between steps: each step lends the
/// stack a scratch the driver owns and clears, one per engine shard in
/// the simulator and one per node in the runtime and Maelstrom drivers.
pub struct NodeShell<O> {
    protocol: Box<dyn FrameProtocol + Send>,
    liveness: Option<Liveness>,
    observer: O,
}

impl<O: NodeObserver> NodeShell<O> {
    /// Wraps `protocol`, a node of an `n_nodes` group. With a `detector`
    /// configuration the node watches its [`MONITORS`] id-ring
    /// predecessors and owes heartbeats to as many successors.
    pub fn new(
        protocol: Box<dyn FrameProtocol + Send>,
        detector: Option<&DetectorConfig>,
        n_nodes: usize,
        observer: O,
    ) -> Self {
        let id = protocol.node_id();
        let liveness = detector.map(|dc| Liveness {
            detector: PhiDetector::new(
                dc.clone(),
                ring_monitors(id, n_nodes, MONITORS),
                TimeMs::ZERO,
            ),
            heartbeats: ring_successors(id, n_nodes, MONITORS),
        });
        NodeShell {
            protocol,
            liveness,
            observer,
        }
    }

    /// The protocol state machine.
    pub fn protocol(&self) -> &dyn FrameProtocol {
        self.protocol.as_ref()
    }

    /// The observer.
    pub fn observer(&self) -> &O {
        &self.observer
    }

    /// Mutable access to the observer (drivers drain buffered records and
    /// report their own I/O facts through it).
    pub fn observer_mut(&mut self) -> &mut O {
        &mut self.observer
    }

    /// Handles one input at `now`, appending the frames to send to `out`
    /// in send order: a round's heartbeats come before its gossip, and a
    /// frame's replies keep the protocol's order. The protocol events the
    /// input caused are appended to `events`, which the driver clears
    /// once it has consumed them: for the step, behind any events queued
    /// since the last one, `events` is lent to the stack as its queue
    /// ([`FrameProtocol::events`]), so the stack keeps no queue storage.
    pub fn step(
        &mut self,
        now: TimeMs,
        input: Input,
        out: &mut Vec<Outgoing>,
        events: &mut Vec<ProtocolEvent>,
    ) {
        let (start, join) = (events.len(), matches!(input, Input::Join(_)));
        self.lend(events);
        match input {
            Input::Round => self.round(now, out),
            Input::Frame { from, frame } => {
                self.observer.on_message(&frame);
                // Every arrival doubles as a liveness sample.
                let verdict = self
                    .liveness
                    .as_mut()
                    .and_then(|l| l.detector.observe(from, now));
                if let Some(Verdict::Rejoin(peer)) = verdict {
                    self.observer.on_rejoin(now, peer);
                }
                append(out, self.protocol.on_receive(from, frame, now));
                self.reclaim(events, start);
                self.observer.on_received(now, from);
                return;
            }
            Input::Offer(payload) => {
                self.protocol.offer(payload, now);
            }
            Input::Refused(n) => self.observer.on_refused(now, n),
            Input::Leave => {
                let farewells = self.protocol.leave(now);
                self.observer.on_frames(now, &farewells);
                self.observer.on_lifecycle(now, LifecycleKind::Leave);
                append(out, farewells);
            }
            Input::Evict(peer) => {
                self.protocol.evict_peer(peer);
                self.reclaim(events, start);
                self.view_changed(now);
                return;
            }
            Input::Resize(capacity) => self.protocol.set_buffer_capacity(capacity, now),
            Input::Crash => self.observer.on_lifecycle(now, LifecycleKind::Crash),
            Input::Recover => {
                // The outage was this node's, not its peers' silence.
                if let Some(l) = self.liveness.as_mut() {
                    l.detector.resume(now);
                }
                self.observer.on_lifecycle(now, LifecycleKind::Recover);
            }
            Input::Restart(protocol) | Input::Join(protocol) => {
                // The lent queue outlives the dropped protocol.
                *events = std::mem::take(self.protocol.events());
                self.protocol = protocol;
                self.lend(events);
                self.observer.on_lifecycle(now, LifecycleKind::Restart);
                if join {
                    self.view_changed(now);
                }
            }
        }
        self.reclaim(events, start);
    }

    fn round(&mut self, now: TimeMs, out: &mut Vec<Outgoing>) {
        let frames = self.protocol.on_round(now);
        if self.observer.enabled() {
            let (len, capacity) = (self.protocol.buffer_len(), self.protocol.buffer_capacity());
            self.observer.on_round(now, &frames, len, capacity);
        }
        let Some(l) = self.liveness.as_mut() else {
            append(out, frames);
            return;
        };
        // Heartbeat fallback: ring successors the regular gossip does not
        // cover this round still get an empty liveness frame, keeping
        // their detectors' sample streams regular.
        let me = self.protocol.node_id();
        for &hb in &l.heartbeats {
            if !frames.iter().any(|&(to, _)| to == hb) {
                self.observer.on_heartbeat(now, hb);
                out.push((hb, GossipFrame::heartbeat(me)));
            }
        }
        append(out, frames);
        // Judge monitored peers once per round; an eviction takes the
        // same path a scripted one does.
        for verdict in l.detector.check(now) {
            match verdict {
                Verdict::Suspect(peer) => self.observer.on_suspect(now, peer),
                Verdict::Evict(peer) => {
                    self.protocol.evict_peer(peer);
                    self.observer.on_detector_evict(now, peer);
                }
                Verdict::Rejoin(peer) => self.observer.on_rejoin(now, peer),
            }
        }
    }

    /// Appends whatever the protocol queued outside a step to `events`,
    /// then lends `events` to the protocol as its queue.
    fn lend(&mut self, events: &mut Vec<ProtocolEvent>) {
        let queue = self.protocol.events();
        events.append(queue);
        *queue = std::mem::take(events);
    }

    /// Takes the lent queue back into `events` and shows the events from
    /// `start` on to the observer.
    fn reclaim(&mut self, events: &mut Vec<ProtocolEvent>, start: usize) {
        *events = std::mem::take(self.protocol.events());
        if events.len() > start {
            self.observer.on_events(&events[start..]);
        }
    }

    fn view_changed(&mut self, now: TimeMs) {
        if self.observer.enabled() {
            let size = self.protocol.membership_view().len();
            self.observer.on_view_change(now, size);
        }
    }
}

/// Moves `frames` onto the end of `out`, reusing `frames`' allocation
/// when `out` is still empty.
fn append(out: &mut Vec<Outgoing>, mut frames: Vec<Outgoing>) {
    if out.is_empty() {
        *out = frames;
    } else {
        out.append(&mut frames);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Algorithm, StackSpec};
    use agb_core::{
        AdaptationConfig, Event, GossipConfig, GossipMessage, GraftRequest, IHaveDigest,
        PurgeReason, Retransmission,
    };
    use agb_membership::FullView;
    use agb_recovery::RecoveryConfig;
    use agb_topology::RoutingConfig;
    use agb_types::{DetRng, EventId};
    use rand::SeedableRng;

    const N: usize = 8;
    const CAPACITY: usize = 30;
    const BURST: u64 = 60;

    /// Every stack [`StackSpec::build`] makes: each algorithm, with and
    /// without the recovery layer, whose cache evicts and expires entries
    /// during the burst.
    fn stacks() -> Vec<(Algorithm, Option<RecoveryConfig>)> {
        let recovery = RecoveryConfig {
            cache_capacity: 16,
            cache_rounds: 1,
            ..RecoveryConfig::default()
        };
        let static_rate = Algorithm::LpbcastStatic {
            rate_per_sender: 2.0,
        };
        [
            Algorithm::Lpbcast,
            static_rate,
            Algorithm::Adaptive,
            Algorithm::Routing(RoutingConfig::default()),
        ]
        .into_iter()
        .flat_map(|a| [(a, None), (a, Some(recovery.clone()))])
        .collect()
    }

    fn build(
        algorithm: &Algorithm,
        recovery: Option<RecoveryConfig>,
    ) -> Box<dyn FrameProtocol + Send> {
        let spec = StackSpec {
            algorithm,
            gossip: GossipConfig {
                max_events: CAPACITY,
                ..GossipConfig::default()
            },
            adaptation: &AdaptationConfig::default(),
            recovery,
        };
        spec.build(
            NodeId::new(0),
            N,
            FullView::new(N),
            None,
            DetRng::seed_from_u64(3),
        )
    }

    fn eid(seq: u64) -> EventId {
        EventId::new(NodeId::new(1), seq)
    }

    /// A frame from node 1 carrying `count` unseen events from seq
    /// `first` on, and advertising as many ids after them.
    fn gossip(first: u64, count: u64) -> Input {
        let events: Vec<Event> = (first..first + count)
            .map(|s| Event::with_age(eid(s), (s % 2) as u32, Payload::new()))
            .collect();
        let msg = GossipMessage {
            sender: NodeId::new(1),
            sample_period: 0,
            min_buffs: Vec::new(),
            events: events.into(),
            membership: Default::default(),
        };
        let ids = (first + count..first + 2 * count).map(eid).collect();
        let frame = GossipFrame::Gossip {
            msg,
            ihave: Some(IHaveDigest { ids }),
        };
        let from = NodeId::new(1);
        Input::Frame { from, frame }
    }

    /// Offers, a frame that fills the buffer, a frame of [`BURST`] unseen
    /// events into the full buffer and a round; then a graft for cached
    /// ids, a retransmission of two advertised ids and a seen one, and a
    /// second round.
    fn burst() -> Vec<(TimeMs, Input)> {
        let first = CAPACITY as u64;
        let graft = GraftRequest {
            sender: NodeId::new(2),
            ids: (first..first + 4).map(eid).collect(),
        };
        let retransmit = Retransmission {
            sender: NodeId::new(1),
            events: [first + BURST, first + BURST + 1, first]
                .map(|s| Event::new(eid(s), Payload::new()))
                .to_vec(),
        };
        let frame = |from: u32, frame| Input::Frame {
            from: NodeId::new(from),
            frame,
        };
        let inputs = vec![
            Input::Offer(Payload::from_static(b"a")),
            Input::Offer(Payload::from_static(b"b")),
            gossip(0, first),
            gossip(first, BURST),
            Input::Round,
            frame(2, GossipFrame::Graft(graft)),
            frame(1, GossipFrame::Retransmit(retransmit)),
            Input::Round,
        ];
        let at = |i: usize| TimeMs::from_secs(1 + i as u64 / 4);
        inputs
            .into_iter()
            .enumerate()
            .map(|(i, x)| (at(i), x))
            .collect()
    }

    /// What [`NodeShell::step`] does with `input`, as direct calls.
    fn call(protocol: &mut dyn FrameProtocol, now: TimeMs, input: Input) -> Vec<Outgoing> {
        match input {
            Input::Offer(payload) => {
                protocol.offer(payload, now);
                Vec::new()
            }
            Input::Frame { from, frame } => protocol.on_receive(from, frame, now),
            Input::Round => protocol.on_round(now),
            _ => unreachable!("the burst has no other input"),
        }
    }

    /// What a layer reading its inner node's events feeds on: a drop
    /// counted twice moves `avg_age`.
    fn state(p: &dyn FrameProtocol) -> impl PartialEq + std::fmt::Debug {
        let rates = (p.allowed_rate(), p.avg_age(), p.avg_tokens());
        (
            p.buffer_len(),
            p.pending_len(),
            rates,
            p.min_buff_estimate(),
        )
    }

    fn assert_unallocated<O: NodeObserver>(shell: &mut NodeShell<O>) {
        let queue = shell.protocol.events();
        assert!(queue.is_empty() && queue.capacity() == 0, "{queue:?}");
    }

    #[test]
    fn every_stack_pushes_into_the_lent_scratch_in_drain_order() {
        for (algorithm, recovery) in stacks() {
            let what = format!("{algorithm:?}, recovery {}", recovery.is_some());
            let mut shell = NodeShell::new(build(&algorithm, recovery.clone()), None, N, ());
            let mut direct = build(&algorithm, recovery.clone());
            let (mut events, mut drained) = (Vec::new(), Vec::new());
            for ((now, input), (_, same)) in burst().into_iter().zip(burst()) {
                let mut out = Vec::new();
                shell.step(now, input, &mut out, &mut events);
                assert_unallocated(&mut shell);
                assert!(out == call(direct.as_mut(), now, same), "{what}");
                drained.extend(direct.drain_events());
                assert_eq!(state(shell.protocol()), state(direct.as_ref()), "{what}");
            }
            assert!(events == drained, "{what}");
            let overflows = events.iter().filter(|e| {
                matches!(
                    e,
                    ProtocolEvent::Dropped {
                        reason: PurgeReason::Overflow,
                        ..
                    }
                )
            });
            assert!(overflows.count() >= BURST as usize, "{what}");
            let recovered = events
                .iter()
                .any(|e| matches!(e, ProtocolEvent::Recovered { .. }));
            assert_eq!(recovered, recovery.is_some(), "{what}");
        }
    }

    /// Records every event the shell shows its observer.
    #[derive(Default)]
    struct Shown(Vec<ProtocolEvent>);

    impl NodeObserver for Shown {
        fn on_events(&mut self, events: &[ProtocolEvent]) {
            self.0.extend_from_slice(events);
        }
    }

    fn admitted_seqs(events: &[ProtocolEvent]) -> Vec<u64> {
        let seq = |e: &ProtocolEvent| match e {
            ProtocolEvent::Admitted { id, .. } => Some(id.seq()),
            _ => None,
        };
        events.iter().filter_map(seq).collect()
    }

    #[test]
    fn events_queued_between_steps_come_out_first() {
        let recovery = Some(RecoveryConfig::default());
        let protocol = build(&Algorithm::Adaptive, recovery);
        let mut shell = NodeShell::new(protocol, None, N, Shown::default());
        let (mut out, mut events) = (Vec::new(), Vec::new());
        shell.protocol.offer(Payload::new(), TimeMs::ZERO);
        shell.step(
            TimeMs::ZERO,
            Input::Offer(Payload::new()),
            &mut out,
            &mut events,
        );
        assert_unallocated(&mut shell);
        assert_eq!(admitted_seqs(&events), [0, 1]);
        assert!(matches!(events[0], ProtocolEvent::Admitted { .. }));
        assert_eq!(shell.observer().0, events);
    }

    #[test]
    fn restart_and_join_hand_the_lent_scratch_back() {
        for join in [false, true] {
            let recovery = Some(RecoveryConfig::default());
            let protocol = build(&Algorithm::Lpbcast, recovery.clone());
            let mut shell = NodeShell::new(protocol, None, N, Shown::default());
            let (mut out, mut events) = (Vec::new(), Vec::new());
            shell.step(
                TimeMs::ZERO,
                Input::Offer(Payload::new()),
                &mut out,
                &mut events,
            );
            // The new incarnation queued an admission before it was
            // handed in; the driver has not consumed the first step's.
            let mut fresh = build(&Algorithm::Lpbcast, recovery);
            fresh.offer(Payload::new(), TimeMs::ZERO);
            let input = if join {
                Input::Join(fresh)
            } else {
                Input::Restart(fresh)
            };
            shell.step(TimeMs::from_secs(1), input, &mut out, &mut events);
            assert_unallocated(&mut shell);
            shell.step(
                TimeMs::from_secs(1),
                Input::Offer(Payload::new()),
                &mut out,
                &mut events,
            );
            assert_unallocated(&mut shell);
            assert_eq!(admitted_seqs(&events), [0, 0, 1], "join {join}");
            assert_eq!(shell.observer().0, events, "join {join}");
        }
    }
}
