//! Property test of the node shell: random interleavings of every input a
//! driver can feed — offers, rounds, lossy/duplicating/reordering frame
//! delivery, byte-mangled frames, frames from outside the group, and the
//! whole lifecycle — over every flavor the stack builder assembles.
//!
//! Whatever the interleaving: no panic, no node incarnation delivers an
//! event twice, and every delivered payload was offered by some node.
//!
//! An event is its id *and* its payload. A sender restarted with state
//! loss numbers its broadcasts from zero again, so one id can name two
//! different events; keying deliveries by id alone would flag that id
//! reuse, which is a sender-side limitation outside the shell.

use std::collections::HashSet;

use agb_core::{AdaptationConfig, FrameProtocol, GossipConfig, GossipFrame, ProtocolEvent};
use agb_failure::{AdversaryConfig, ByteAdversary, DetectorConfig};
use agb_membership::{FullView, PartialView};
use agb_node::{Algorithm, Input, NodeShell, StackSpec};
use agb_recovery::RecoveryConfig;
use agb_runtime::wire::{decode_frame, encode_frame};
use agb_topology::RoutingConfig;
use agb_trace::{TraceConfig, TraceProbe};
use agb_types::{DetRng, DurationMs, EventId, NodeId, Payload, TimeMs};
use proptest::prelude::*;
use rand::SeedableRng;

const N: usize = 5;
const OUTSIDER: NodeId = NodeId::new(999);

/// One of the 12 flavor × recovery × view combinations.
#[derive(Debug, Clone, Copy)]
struct Flavor {
    algorithm: usize,
    recovery: bool,
    partial: bool,
}

impl Flavor {
    fn of(i: usize) -> Self {
        Flavor {
            algorithm: i % 3,
            recovery: (i / 3) % 2 == 1,
            partial: i / 6 == 1,
        }
    }

    /// A fresh protocol for node `id`; `epoch` separates restarts.
    fn build(self, id: NodeId, epoch: u64) -> Box<dyn FrameProtocol + Send> {
        let algorithm = match self.algorithm {
            0 => Algorithm::Lpbcast,
            1 => Algorithm::Adaptive,
            _ => Algorithm::Routing(RoutingConfig::default()),
        };
        let mut gossip = GossipConfig::default();
        gossip.fanout = 2;
        gossip.max_events = 8;
        let spec = StackSpec {
            algorithm: &algorithm,
            gossip,
            adaptation: &AdaptationConfig::default(),
            recovery: self.recovery.then(RecoveryConfig::default),
        };
        let seed = u64::from(id.as_u32()) + (epoch << 32);
        let rng = DetRng::seed_from_u64(seed);
        if self.partial {
            let peers = (0..N as u32).map(NodeId::new).filter(|&p| p != id);
            let mut boot = DetRng::seed_from_u64(seed ^ 0xB007);
            let view = PartialView::with_initial_peers(id, peers, &mut boot);
            spec.build(id, N, view, None, rng)
        } else {
            spec.build(id, N, FullView::new(N), None, rng)
        }
    }
}

/// One scripted action; `a` and `b` pick nodes and in-flight frames.
#[derive(Debug, Clone, Copy)]
enum Op {
    Offer(usize),
    Round(usize),
    Deliver(usize),
    Duplicate(usize),
    Drop(usize),
    Mangle(usize, u64),
    FromOutsider(usize),
    Crash(usize),
    Recover(usize),
    Restart(usize),
    Evict(usize, usize),
    Leave(usize),
}

fn arb_op() -> impl Strategy<Value = Op> {
    (0u8..24, 0usize..64, 0usize..64, any::<u64>()).prop_map(|(kind, a, b, seed)| match kind {
        0..=3 => Op::Offer(a),
        4..=8 => Op::Round(a),
        9..=12 => Op::Deliver(a),
        13 => Op::Duplicate(a),
        14 => Op::Drop(a),
        15..=16 => Op::Mangle(a, seed),
        17 => Op::FromOutsider(a),
        18 => Op::Crash(a),
        19 => Op::Recover(a),
        20 => Op::Restart(a),
        21 => Op::Evict(a, b),
        _ => Op::Leave(a),
    })
}

struct Node {
    shell: NodeShell<TraceProbe>,
    down: bool,
    incarnation: u64,
    delivered: HashSet<(EventId, Vec<u8>)>,
}

struct World {
    flavor: Flavor,
    nodes: Vec<Node>,
    /// Frames in flight: (sender, receiver, frame).
    flight: Vec<(NodeId, usize, GossipFrame)>,
    offered: HashSet<Vec<u8>>,
    now: TimeMs,
}

impl World {
    fn new(flavor: Flavor) -> Self {
        let nodes = (0..N as u32)
            .map(|i| {
                let id = NodeId::new(i);
                let probe = TraceProbe::new(TraceConfig::enabled(), id);
                Node {
                    shell: NodeShell::new(
                        flavor.build(id, 0),
                        Some(&DetectorConfig::default()),
                        N,
                        probe,
                    ),
                    down: false,
                    incarnation: 0,
                    delivered: HashSet::new(),
                }
            })
            .collect();
        World {
            flavor,
            nodes,
            flight: Vec::new(),
            offered: HashSet::new(),
            now: TimeMs::ZERO,
        }
    }

    /// Steps node `i` (if up) and checks what it delivered.
    fn step(&mut self, i: usize, input: Input) {
        let node = &mut self.nodes[i];
        let (mut out, mut events) = (Vec::new(), Vec::new());
        node.shell.step(self.now, input, &mut out, &mut events);
        for event in &events {
            if let ProtocolEvent::Delivered { event, .. } = event {
                assert!(
                    node.delivered
                        .insert((event.id(), event.payload().to_vec())),
                    "node {i} incarnation {} delivered {:?} twice ({:?})",
                    node.incarnation,
                    event.id(),
                    self.flavor
                );
                assert!(
                    self.offered.contains(&event.payload()[..]),
                    "node {i} delivered a payload nobody offered ({:?})",
                    self.flavor
                );
            }
        }
        node.shell.observer_mut().drain_pending().for_each(drop);
        let from = NodeId::new(i as u32);
        for (to, frame) in out {
            if to.index() < N {
                self.flight.push((from, to.index(), frame));
            }
        }
    }

    fn deliver(&mut self, from: NodeId, to: usize, frame: GossipFrame) {
        if !self.nodes[to].down {
            self.step(to, Input::Frame { from, frame });
        }
    }

    fn apply(&mut self, op: Op) {
        self.now += DurationMs::from_millis(97);
        let up = |w: &World, i: usize| !w.nodes[i].down;
        match op {
            Op::Offer(a) if up(self, a % N) => {
                let payload = format!("{}:{}", a % N, self.offered.len()).into_bytes();
                self.offered.insert(payload.clone());
                self.step(a % N, Input::Offer(Payload::from(payload)));
            }
            Op::Round(a) if up(self, a % N) => self.step(a % N, Input::Round),
            Op::Deliver(a)
            | Op::Duplicate(a)
            | Op::Drop(a)
            | Op::Mangle(a, _)
            | Op::FromOutsider(a)
                if !self.flight.is_empty() =>
            {
                let idx = a % self.flight.len();
                let (from, to, frame) = match op {
                    Op::Duplicate(_) | Op::FromOutsider(_) => self.flight[idx].clone(),
                    _ => self.flight.remove(idx),
                };
                match op {
                    Op::Deliver(_) | Op::Duplicate(_) => self.deliver(from, to, frame),
                    Op::FromOutsider(_) => self.deliver(OUTSIDER, to, frame),
                    Op::Mangle(_, seed) => {
                        let adversary = ByteAdversary::new(AdversaryConfig {
                            corrupt: 0.6,
                            truncate: 0.3,
                            duplicate: 0.0,
                            reorder: 0.0,
                            reorder_delay: DurationMs::from_millis(1),
                        });
                        let mut bytes = encode_frame(&frame).to_vec();
                        adversary.mutate(&mut bytes, &mut DetRng::seed_from_u64(seed));
                        if let Ok(frame) = decode_frame(&bytes) {
                            self.deliver(from, to, frame);
                        }
                    }
                    _ => {}
                }
            }
            Op::Crash(a) if up(self, a % N) => {
                self.step(a % N, Input::Crash);
                self.nodes[a % N].down = true;
            }
            Op::Recover(a) if !up(self, a % N) => {
                self.nodes[a % N].down = false;
                self.step(a % N, Input::Recover);
            }
            Op::Restart(a) => {
                let node = &mut self.nodes[a % N];
                node.incarnation += 1;
                node.delivered.clear();
                node.down = false;
                let protocol = self
                    .flavor
                    .build(NodeId::new((a % N) as u32), node.incarnation);
                self.step(a % N, Input::Restart(protocol));
            }
            Op::Evict(a, b) if up(self, a % N) => {
                let peer = if b % (N + 1) == N {
                    OUTSIDER
                } else {
                    NodeId::new((b % N) as u32)
                };
                self.step(a % N, Input::Evict(peer));
            }
            Op::Leave(a) if up(self, a % N) => {
                self.step(a % N, Input::Leave);
                self.nodes[a % N].down = true;
            }
            _ => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn shells_survive_any_interleaving(
        flavor in 0usize..12,
        ops in proptest::collection::vec(arb_op(), 40..240),
    ) {
        let mut world = World::new(Flavor::of(flavor));
        for op in ops {
            world.apply(op);
        }
    }
}

/// Every combination sees frames re-sent from outside the group, after
/// real traffic, without a panic.
#[test]
fn outsider_frames_are_harmless_on_every_flavor() {
    for i in 0..12 {
        let mut world = World::new(Flavor::of(i));
        for round in 0..6 {
            world.apply(Op::Offer(round));
            for node in 0..N {
                world.apply(Op::Round(node));
            }
            while !world.flight.is_empty() {
                world.apply(Op::FromOutsider(0));
                world.apply(Op::Deliver(0));
            }
        }
        assert!(
            world.nodes.iter().all(|n| !n.delivered.is_empty()),
            "{:?}: every node delivers",
            world.flavor
        );
    }
}
