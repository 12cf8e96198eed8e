//! [`MaelstromNode`] — the adapter that puts a gossip broadcast protocol
//! behind the Maelstrom line protocol.
//!
//! The adapter is a *sans-IO state machine over text lines*: feed it one
//! parsed [`Message`] (or a raw line) and it returns the messages to
//! transmit. The `init` handshake bootstraps a full membership view (the
//! roster maps onto dense [`NodeId`]s by sorted position), `topology`
//! hints become [`Flavor::Routing`]'s overlay (other flavors only
//! acknowledge them), client RPCs
//! (`broadcast`, `add`, `generate`, `read`) become inputs of the node's
//! [`NodeShell`], and inter-node `gossip` payloads
//! carry the protocol's own [`GossipFrame`](agb_core::GossipFrame) wire
//! bytes.
//! Timers are driven by the
//! virtual-time `tick` payload, so the same adapter runs under the
//! deterministic in-process harness and — fed wall-clock ticks — as a
//! real stdin/stdout binary under the Maelstrom jar.

use std::collections::BTreeSet;
use std::sync::Arc;

use agb_core::{AdaptationConfig, GossipConfig, ProtocolEvent};
use agb_membership::FullView;
use agb_node::{Algorithm, Input, NodeShell, Outgoing, Overlay, StackSpec};
use agb_recovery::RecoveryConfig;
use agb_runtime::wire::{decode_frame, encode_frame};
use agb_topology::RoutingConfig;
use agb_trace::{TraceConfig, TraceCounts, TraceProbe};
use agb_types::{DetRng, NodeId, Payload as AppPayload, SeedSequence, TimeMs};

use crate::protocol::{Body, Message, Payload, ProtoError};

/// Which protocol stack the node runs behind the line protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flavor {
    /// Baseline lpbcast, push-only.
    Lpbcast,
    /// The paper's adaptive protocol, push-only.
    Adaptive,
    /// Adaptive wrapped in the pull-based recovery layer.
    AdaptiveRecovery,
    /// GOSSIP3-style probabilistic forwarding (`agb-topology`); the
    /// `topology` message's neighbour hints become the overlay (degree +
    /// locality-biased sampling).
    Routing,
}

impl Flavor {
    /// Parses a CLI flag value.
    pub fn parse(s: &str) -> Option<Flavor> {
        match s {
            "lpbcast" => Some(Flavor::Lpbcast),
            "adaptive" => Some(Flavor::Adaptive),
            "adaptive-recovery" | "adaptive+recovery" => Some(Flavor::AdaptiveRecovery),
            "routing" | "topology-routing" => Some(Flavor::Routing),
            _ => None,
        }
    }

    /// Canonical flag spelling.
    pub fn name(self) -> &'static str {
        match self {
            Flavor::Lpbcast => "lpbcast",
            Flavor::Adaptive => "adaptive",
            Flavor::AdaptiveRecovery => "adaptive-recovery",
            Flavor::Routing => "routing",
        }
    }

    /// The protocol this flavor runs, with default parameters.
    pub(crate) fn algorithm(self) -> Algorithm {
        match self {
            Flavor::Lpbcast => Algorithm::Lpbcast,
            Flavor::Adaptive | Flavor::AdaptiveRecovery => Algorithm::Adaptive,
            Flavor::Routing => Algorithm::Routing(RoutingConfig::default()),
        }
    }
}

/// Which Maelstrom workload the node serves (decides the `read_ok`
/// shape; all three ride the same gossip dissemination underneath).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// `broadcast` / `read` → set of values.
    Broadcast,
    /// `add` / `read` → grow-only counter.
    GCounter,
    /// `generate` → globally unique ids.
    UniqueIds,
}

impl WorkloadKind {
    /// Parses a CLI flag value.
    pub fn parse(s: &str) -> Option<WorkloadKind> {
        match s {
            "broadcast" => Some(WorkloadKind::Broadcast),
            "g-counter" | "g_counter" | "counter" => Some(WorkloadKind::GCounter),
            "unique-ids" | "unique_ids" => Some(WorkloadKind::UniqueIds),
            _ => None,
        }
    }

    /// Canonical flag spelling.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Broadcast => "broadcast",
            WorkloadKind::GCounter => "g-counter",
            WorkloadKind::UniqueIds => "unique-ids",
        }
    }
}

/// Everything a [`MaelstromNode`] needs before `init` arrives.
///
/// Every node runs a full membership view, and its adaptation, recovery
/// and forwarding layers run with their default parameters.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Protocol stack selection.
    pub flavor: Flavor,
    /// Which workload's `read_ok` shape to speak.
    pub workload: WorkloadKind,
    /// Seed for the node's deterministic RNG streams.
    pub seed: u64,
    /// Base gossip parameters.
    pub gossip: GossipConfig,
    /// Region label per dense node id (same roster order as `init`).
    /// When set, each node's trace probe counts gossip frames crossing a
    /// region boundary (`cross_partition_msgs`).
    pub regions: Option<Vec<u32>>,
}

impl NodeConfig {
    /// Defaults: paper-default gossip parameters, no region map.
    pub fn new(flavor: Flavor, workload: WorkloadKind, seed: u64) -> Self {
        NodeConfig {
            flavor,
            workload,
            seed,
            gossip: GossipConfig::default(),
            regions: None,
        }
    }
}

/// Uniform escape-hatch probability of the locality bias that
/// [`Flavor::Routing`] applies once `topology` hints arrive.
const LOCALITY_ESCAPE: f64 = 0.1;

/// Application payload tags (first byte of every event payload).
const TAG_BROADCAST: u8 = 0;
const TAG_ADD: u8 = 1;

fn app_payload(tag: u8, value: i64) -> AppPayload {
    let mut bytes = Vec::with_capacity(9);
    bytes.push(tag);
    bytes.extend_from_slice(&value.to_le_bytes());
    AppPayload::from(bytes)
}

fn decode_app(payload: &[u8]) -> Option<(u8, i64)> {
    if payload.len() != 9 {
        return None;
    }
    let mut v = [0u8; 8];
    v.copy_from_slice(&payload[1..]);
    Some((payload[0], i64::from_le_bytes(v)))
}

/// Sort key giving Maelstrom ids their numeric order (`n2` before
/// `n10`): length first, then lexicographic.
fn roster_key(id: &str) -> (usize, &str) {
    (id.len(), id)
}

/// The initialized part of the node.
struct Running {
    me: String,
    /// Sorted roster; position = dense [`NodeId`].
    roster: Vec<String>,
    now: TimeMs,
    /// The protocol behind a trace probe, whose records are tallied into
    /// [`MaelstromNode::trace_counts`] and discarded (counts only — no
    /// ring buffer behind a line protocol).
    shell: NodeShell<TraceProbe>,
    /// Broadcast-workload deliveries (sorted, deduplicated).
    seen: BTreeSet<i64>,
    /// Grow-only counter: sum of all delivered `add` deltas.
    counter: i64,
    /// Unique-id mint counter.
    generated: u64,
    /// Protocol-event scratch each step drains into.
    events: Vec<ProtocolEvent>,
}

impl Running {
    fn node_of(&self, id: &str) -> Option<NodeId> {
        self.roster
            .iter()
            .position(|r| r == id)
            .map(|i| NodeId::new(i as u32))
    }
}

/// A gossip broadcast node speaking the Maelstrom line protocol.
///
/// See the [module docs](self) for the bridging rules.
pub struct MaelstromNode {
    config: NodeConfig,
    next_msg_id: u64,
    state: Option<Running>,
    /// Lines that failed to parse or had an unusable shape.
    proto_errors: u64,
    /// Tallied trace taxonomy (publishes, relays, delivers, drops, …).
    trace: TraceCounts,
}

impl MaelstromNode {
    /// A node awaiting its `init`.
    pub fn new(config: NodeConfig) -> Self {
        MaelstromNode {
            config,
            next_msg_id: 0,
            state: None,
            proto_errors: 0,
            trace: TraceCounts::default(),
        }
    }

    /// Broadcast values delivered so far (ascending).
    pub fn seen(&self) -> Vec<i64> {
        self.state
            .as_ref()
            .map(|r| r.seen.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Lines rejected by the protocol layer so far.
    pub fn proto_errors(&self) -> u64 {
        self.proto_errors
    }

    /// Trace-taxonomy tally of this node's protocol activity so far
    /// (publishes, relays, delivers, duplicates, drops, recovery round
    /// trips). Aggregated per workload by the harness checker.
    pub fn trace_counts(&self) -> &TraceCounts {
        &self.trace
    }

    /// Handles one raw protocol line; returns the lines to transmit.
    ///
    /// # Errors
    ///
    /// Propagates [`ProtoError`] for unusable input (the caller decides
    /// whether to log or drop); the error is also counted in
    /// [`proto_errors`](Self::proto_errors).
    pub fn handle_line(&mut self, line: &str) -> Result<Vec<String>, ProtoError> {
        match Message::parse_line(line) {
            Ok(msg) => Ok(self.handle(msg).iter().map(Message::to_line).collect()),
            Err(e) => {
                self.proto_errors += 1;
                Err(e)
            }
        }
    }

    /// Synthesizes a virtual-time tick (the line-protocol `tick`
    /// payload) and handles it — the binary's wall-clock ticker and
    /// convenience for tests.
    pub fn tick(&mut self, now_ms: u64) -> Vec<Message> {
        let dest = self
            .state
            .as_ref()
            .map_or_else(|| "?".to_string(), |r| r.me.clone());
        self.handle(Message {
            src: "ticker".into(),
            dest,
            body: Body::bare(Payload::Tick { now: now_ms }),
        })
    }

    /// Handles one parsed message; returns the messages to transmit.
    pub fn handle(&mut self, msg: Message) -> Vec<Message> {
        let Message { src, body, .. } = msg;
        let Body {
            msg_id, payload, ..
        } = body;
        match payload {
            Payload::Init { node_id, node_ids } => {
                let mut roster = node_ids;
                roster.sort_by(|a, b| roster_key(a).cmp(&roster_key(b)));
                roster.dedup();
                let Some(my_id) = roster.iter().position(|r| *r == node_id) else {
                    // A node must be in its own roster; assuming a dense
                    // id here would alias another node's identity.
                    self.proto_errors += 1;
                    self.next_msg_id += 1;
                    return vec![Message {
                        src: node_id,
                        dest: src,
                        body: Body {
                            msg_id: Some(self.next_msg_id),
                            in_reply_to: msg_id,
                            payload: Payload::Error {
                                code: 12, // malformed-request
                                text: "node_id missing from node_ids".into(),
                            },
                        },
                    }];
                };
                let my_id = NodeId::new(my_id as u32);
                let shell = make_shell(&self.config, my_id, roster.len(), None);
                self.state = Some(Running {
                    me: node_id,
                    roster,
                    now: TimeMs::ZERO,
                    shell,
                    seen: BTreeSet::new(),
                    counter: 0,
                    generated: 0,
                    events: Vec::new(),
                });
                vec![self.reply(&src, msg_id, Payload::InitOk)]
            }
            Payload::Topology { topology } => {
                let contacts = self.topology_contacts(&topology);
                if let (Flavor::Routing, Some(contacts)) = (self.config.flavor, contacts) {
                    if let Some(r) = self.state.as_mut() {
                        // Re-seeding replaces the protocol wholesale, so
                        // it is only safe while the node is still fresh:
                        // rebuilding after traffic would drop buffered
                        // events and the delivery-dedup history (acked
                        // offers lost, later copies double-delivered).
                        let p = r.shell.protocol();
                        let fresh = p.buffer_len() == 0
                            && p.pending_len() == 0
                            && r.seen.is_empty()
                            && r.counter == 0;
                        if fresh {
                            let id = p.node_id();
                            r.shell = make_shell(&self.config, id, r.roster.len(), Some(contacts));
                        }
                    }
                }
                vec![self.reply(&src, msg_id, Payload::TopologyOk)]
            }
            Payload::Broadcast { message } => {
                let mut out = Vec::new();
                if let Some(r) = self.state.as_mut() {
                    let offer = Input::Offer(app_payload(TAG_BROADCAST, message));
                    Self::step(r, &mut self.trace, offer);
                    out.push(self.reply(&src, msg_id, Payload::BroadcastOk));
                }
                out
            }
            Payload::Add { delta } => {
                let mut out = Vec::new();
                if let Some(r) = self.state.as_mut() {
                    let offer = Input::Offer(app_payload(TAG_ADD, delta));
                    Self::step(r, &mut self.trace, offer);
                    out.push(self.reply(&src, msg_id, Payload::AddOk));
                }
                out
            }
            Payload::Read => {
                let Some(r) = self.state.as_ref() else {
                    return Vec::new();
                };
                let payload = match self.config.workload {
                    WorkloadKind::GCounter => Payload::ReadOkValue { value: r.counter },
                    _ => Payload::ReadOk {
                        messages: r.seen.iter().copied().collect(),
                    },
                };
                vec![self.reply(&src, msg_id, payload)]
            }
            Payload::Generate => {
                let Some(r) = self.state.as_mut() else {
                    return Vec::new();
                };
                r.generated += 1;
                let id = format!("{}-{}", r.me, r.generated);
                vec![self.reply(&src, msg_id, Payload::GenerateOk { id })]
            }
            Payload::Gossip { frame } => {
                let Some(r) = self.state.as_mut() else {
                    return Vec::new();
                };
                let Ok(frame) = decode_frame(&frame) else {
                    self.proto_errors += 1;
                    return Vec::new();
                };
                let Some(from) = r.node_of(&src) else {
                    self.proto_errors += 1;
                    return Vec::new();
                };
                let replies = Self::step(r, &mut self.trace, Input::Frame { from, frame });
                self.frames_out(replies)
            }
            Payload::Tick { now } => {
                let Some(r) = self.state.as_mut() else {
                    return Vec::new();
                };
                r.now = r.now.max(TimeMs::from_millis(now));
                let out = Self::step(r, &mut self.trace, Input::Round);
                self.frames_out(out)
            }
            // Acks and errors terminate at this node.
            Payload::InitOk
            | Payload::TopologyOk
            | Payload::BroadcastOk
            | Payload::ReadOk { .. }
            | Payload::ReadOkValue { .. }
            | Payload::AddOk
            | Payload::GenerateOk { .. }
            | Payload::Error { .. } => Vec::new(),
        }
    }

    /// This node's neighbours in the topology hints, as dense ids, when
    /// present.
    fn topology_contacts(&self, topology: &[(String, Vec<String>)]) -> Option<Vec<NodeId>> {
        let r = self.state.as_ref()?;
        let (_, neighbours) = topology.iter().find(|(node, _)| *node == r.me)?;
        let contacts: Vec<NodeId> = neighbours.iter().filter_map(|n| r.node_of(n)).collect();
        (!contacts.is_empty()).then_some(contacts)
    }

    /// Feeds one input to the shell at the node's clock, folds the
    /// drained events into application state and the trace tally, and
    /// returns the frames to send.
    fn step(r: &mut Running, counts: &mut TraceCounts, input: Input) -> Vec<Outgoing> {
        let mut out = Vec::new();
        r.shell.step(r.now, input, &mut out, &mut r.events);
        for record in r.shell.observer_mut().drain_pending() {
            counts.observe(&record.kind);
        }
        for event in r.events.drain(..) {
            if let ProtocolEvent::Delivered { event, .. } = event {
                match decode_app(event.payload()) {
                    Some((TAG_BROADCAST, value)) => {
                        r.seen.insert(value);
                    }
                    Some((TAG_ADD, delta)) => {
                        r.counter += delta;
                    }
                    _ => {}
                }
            }
        }
        out
    }

    fn reply(&mut self, to: &str, in_reply_to: Option<u64>, payload: Payload) -> Message {
        self.next_msg_id += 1;
        let me = self
            .state
            .as_ref()
            .map_or_else(String::new, |r| r.me.clone());
        Message {
            src: me,
            dest: to.to_string(),
            body: Body {
                msg_id: Some(self.next_msg_id),
                in_reply_to,
                payload,
            },
        }
    }

    /// Wraps outgoing protocol frames as `gossip` line messages.
    fn frames_out(&self, frames: Vec<Outgoing>) -> Vec<Message> {
        let Some(r) = self.state.as_ref() else {
            return Vec::new();
        };
        let me = r.me.clone();
        frames
            .into_iter()
            .filter_map(|(to, frame)| {
                let dest = r.roster.get(to.index())?.clone();
                Some(Message {
                    src: me.clone(),
                    dest,
                    body: Body::bare(Payload::Gossip {
                        frame: encode_frame(&frame).to_vec(),
                    }),
                })
            })
            .collect()
    }
}

/// Builds the shell behind one Maelstrom node: its protocol over a full
/// view, under an always-on trace probe (armed with the region map, if
/// any).
///
/// `hints` carries this node's neighbour contacts when a `topology`
/// message re-seeds a [`Flavor::Routing`] protocol: they are its overlay,
/// setting the rescue-rule degree and feeding the locality-biased
/// sampler. `None` builds the `init`-time protocol.
fn make_shell(
    config: &NodeConfig,
    id: NodeId,
    n: usize,
    hints: Option<Vec<NodeId>>,
) -> NodeShell<TraceProbe> {
    let mut probe = TraceProbe::new(TraceConfig::enabled(), id);
    if let Some(regions) = &config.regions {
        probe.set_regions(Arc::from(regions.clone()));
    }
    let seeds = SeedSequence::new(config.seed);
    let proto_rng: DetRng = seeds.rng_for("maelstrom-protocol", u64::from(id.as_u32()));
    let algorithm = config.flavor.algorithm();
    let spec = StackSpec {
        algorithm: &algorithm,
        gossip: config.gossip.clone(),
        adaptation: &AdaptationConfig::default(),
        recovery: (config.flavor == Flavor::AdaptiveRecovery).then(RecoveryConfig::default),
    };
    // Routing always biases towards the hints; before they arrive the
    // neighbour list is empty, so draws stay plain uniform.
    let overlay = (config.flavor == Flavor::Routing).then(|| Overlay {
        neighbors: hints.unwrap_or_default(),
        escape: Some(LOCALITY_ESCAPE),
    });
    let protocol = spec.build(id, n, FullView::new(n), overlay, proto_rng);
    NodeShell::new(protocol, None, n, probe)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn init_line(me: &str, n: usize) -> String {
        let ids: Vec<String> = (0..n).map(|i| format!("n{i}")).collect();
        Message {
            src: "c0".into(),
            dest: me.into(),
            body: Body {
                msg_id: Some(1),
                in_reply_to: None,
                payload: Payload::Init {
                    node_id: me.into(),
                    node_ids: ids,
                },
            },
        }
        .to_line()
    }

    fn client(me: &str, msg_id: u64, payload: Payload) -> Message {
        Message {
            src: "c0".into(),
            dest: me.into(),
            body: Body {
                msg_id: Some(msg_id),
                in_reply_to: None,
                payload,
            },
        }
    }

    fn node(flavor: Flavor, workload: WorkloadKind, me: &str, n: usize) -> MaelstromNode {
        let mut node = MaelstromNode::new(NodeConfig::new(flavor, workload, 7));
        let out = node.handle_line(&init_line(me, n)).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out[0].contains("init_ok"), "{}", out[0]);
        node
    }

    #[test]
    fn init_assigns_dense_ids_by_numeric_order() {
        // 12 nodes: "n10" must sort after "n9", not between "n1" and "n2".
        let n = node(Flavor::Lpbcast, WorkloadKind::Broadcast, "n10", 12);
        let r = n.state.as_ref().expect("initialized");
        assert_eq!(r.shell.protocol().node_id(), NodeId::new(10));
    }

    #[test]
    fn init_outside_the_roster_is_rejected() {
        // A node_id absent from node_ids must not alias dense id 0.
        let mut n =
            MaelstromNode::new(NodeConfig::new(Flavor::Lpbcast, WorkloadKind::Broadcast, 7));
        let out = n.handle(client(
            "n9",
            1,
            Payload::Init {
                node_id: "n9".into(),
                node_ids: vec!["n0".into(), "n1".into()],
            },
        ));
        assert!(matches!(
            out[0].body.payload,
            Payload::Error { code: 12, .. }
        ));
        assert!(n.state.is_none());
        assert_eq!(n.proto_errors(), 1);
    }

    #[test]
    fn broadcast_self_delivers_and_reads_back() {
        let mut n = node(Flavor::Adaptive, WorkloadKind::Broadcast, "n0", 3);
        let out = n.handle(client("n0", 2, Payload::Broadcast { message: 77 }));
        assert!(matches!(out[0].body.payload, Payload::BroadcastOk));
        assert_eq!(out[0].body.in_reply_to, Some(2));
        let out = n.handle(client("n0", 3, Payload::Read));
        assert_eq!(out[0].body.payload, Payload::ReadOk { messages: vec![77] });
    }

    #[test]
    fn ticks_emit_gossip_that_a_peer_applies() {
        let mut a = node(Flavor::Adaptive, WorkloadKind::Broadcast, "n0", 2);
        let mut b = node(Flavor::Adaptive, WorkloadKind::Broadcast, "n1", 2);
        a.handle(client("n0", 2, Payload::Broadcast { message: 5 }));
        // First round at t=1s: n0 gossips its buffered event to n1.
        let out = a.tick(1_000);
        assert!(!out.is_empty(), "round must emit gossip");
        b.tick(1_000);
        for m in out {
            assert_eq!(m.dest, "n1");
            b.handle(m);
        }
        assert_eq!(b.seen(), vec![5]);
    }

    #[test]
    fn g_counter_sums_deltas_across_gossip() {
        let mut a = node(Flavor::Adaptive, WorkloadKind::GCounter, "n0", 2);
        let mut b = node(Flavor::Adaptive, WorkloadKind::GCounter, "n1", 2);
        a.handle(client("n0", 2, Payload::Add { delta: 3 }));
        b.handle(client("n1", 2, Payload::Add { delta: 4 }));
        for t in 1..=3u64 {
            for m in a.tick(t * 1_000) {
                b.handle(m);
            }
            for m in b.tick(t * 1_000) {
                a.handle(m);
            }
        }
        assert_eq!(a.state.as_ref().map(|r| r.counter), Some(7));
        assert_eq!(b.state.as_ref().map(|r| r.counter), Some(7));
        let out = a.handle(client("n0", 3, Payload::Read));
        assert_eq!(out[0].body.payload, Payload::ReadOkValue { value: 7 });
    }

    #[test]
    fn generate_mints_distinct_ids() {
        let mut n = node(Flavor::Lpbcast, WorkloadKind::UniqueIds, "n1", 3);
        let mut ids = std::collections::BTreeSet::new();
        for i in 0..10 {
            let out = n.handle(client("n1", 2 + i, Payload::Generate));
            let Payload::GenerateOk { id } = &out[0].body.payload else {
                panic!("expected generate_ok");
            };
            assert!(id.starts_with("n1-"));
            assert!(ids.insert(id.clone()), "duplicate {id}");
        }
    }

    #[test]
    fn topology_is_acknowledged_and_recorded() {
        let mut n = node(Flavor::Adaptive, WorkloadKind::Broadcast, "n0", 3);
        let out = n.handle(client(
            "n0",
            2,
            Payload::Topology {
                topology: vec![
                    ("n0".into(), vec!["n1".into()]),
                    ("n1".into(), vec!["n0".into(), "n2".into()]),
                    ("n2".into(), vec!["n1".into()]),
                ],
            },
        ));
        assert!(matches!(out[0].body.payload, Payload::TopologyOk));
    }

    #[test]
    fn messages_before_init_are_dropped() {
        let mut n =
            MaelstromNode::new(NodeConfig::new(Flavor::Lpbcast, WorkloadKind::Broadcast, 1));
        assert!(n
            .handle(client("n0", 1, Payload::Broadcast { message: 1 }))
            .is_empty());
        assert!(n.tick(1_000).is_empty());
    }

    #[test]
    fn routing_flavor_disseminates_over_topology_hints() {
        let mut a = node(Flavor::Routing, WorkloadKind::Broadcast, "n0", 2);
        let mut b = node(Flavor::Routing, WorkloadKind::Broadcast, "n1", 2);
        let hints = Payload::Topology {
            topology: vec![
                ("n0".into(), vec!["n1".into()]),
                ("n1".into(), vec!["n0".into()]),
            ],
        };
        a.handle(client("n0", 2, hints.clone()));
        b.handle(client("n1", 2, hints));
        a.handle(client("n0", 3, Payload::Broadcast { message: 9 }));
        let out = a.tick(1_000);
        assert!(!out.is_empty(), "routing round must emit gossip");
        b.tick(1_000);
        for m in out {
            assert_eq!(m.dest, "n1");
            b.handle(m);
        }
        assert_eq!(b.seen(), vec![9]);
    }

    #[test]
    fn routing_rebuild_keeps_the_fresh_guard() {
        // Hints arriving after traffic must not rebuild the protocol —
        // the delivered value would otherwise be double-deliverable.
        let mut n = node(Flavor::Routing, WorkloadKind::Broadcast, "n0", 2);
        n.handle(client("n0", 2, Payload::Broadcast { message: 4 }));
        assert_eq!(n.seen(), vec![4]);
        let out = n.handle(client(
            "n0",
            3,
            Payload::Topology {
                topology: vec![
                    ("n0".into(), vec!["n1".into()]),
                    ("n1".into(), vec!["n0".into()]),
                ],
            },
        ));
        assert!(matches!(out[0].body.payload, Payload::TopologyOk));
        assert_eq!(n.seen(), vec![4], "state must survive late hints");
    }

    #[test]
    fn region_map_tallies_cross_partition_frames() {
        let mut config = NodeConfig::new(Flavor::Lpbcast, WorkloadKind::Broadcast, 7);
        config.regions = Some(vec![0, 1]);
        let mut a = MaelstromNode::new(config);
        a.handle_line(&init_line("n0", 2)).unwrap();
        a.handle(client("n0", 2, Payload::Broadcast { message: 1 }));
        let out = a.tick(1_000);
        assert!(!out.is_empty());
        assert!(
            a.trace_counts().cross_partition_msgs > 0,
            "n0 -> n1 crosses the region boundary"
        );
    }

    #[test]
    fn bad_gossip_frame_counts_a_proto_error() {
        let mut n = node(Flavor::Adaptive, WorkloadKind::Broadcast, "n0", 2);
        n.handle(Message {
            src: "n1".into(),
            dest: "n0".into(),
            body: Body::bare(Payload::Gossip {
                frame: vec![0xDE, 0xAD],
            }),
        });
        assert_eq!(n.proto_errors(), 1);
    }
}
