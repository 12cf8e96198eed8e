//! The replay leg: a workload's protocol nodes, built with
//! [`ClusterConfig::make_protocol`], driven round by round by this
//! file's own loop instead of the simulation engine.
//!
//! Every frame a node emits is delivered within the same round (with
//! the workload's loss applied here), replies are routed until the round
//! is quiet, and sender applications poll at their own arrival times as
//! they do in the engine. The leg measures what the engine cannot show
//! from outside: the cost of each protocol entry point, frame and event
//! counts, and the encoded size of the frames the workload sends.

use std::collections::VecDeque;
use std::time::Instant;

use agb_core::{FrameProtocol, GossipFrame, ProtocolEvent};
use agb_profile::MemTable;
use agb_runtime::{wire::FrameEncoder, MAX_DATAGRAM};
use agb_types::{bernoulli, DurationMs, NodeId, Payload, SeedSequence, TimeMs};
use agb_workload::{ClusterConfig, SenderModel, SenderProcess};

/// Total nanoseconds and calls of one protocol entry point.
#[derive(Debug, Default, Clone, Copy)]
pub struct CallCost {
    pub ns: u64,
    pub calls: u64,
}

impl CallCost {
    pub fn mean_ns(&self) -> f64 {
        self.ns as f64 / self.calls.max(1) as f64
    }
}

/// What the measured rounds of a replay did.
#[derive(Debug, Default)]
pub struct ReplayOutcome {
    pub node_rounds: u64,
    pub frames: u64,
    pub gossip_frames: u64,
    pub gossip_events: u64,
    /// Events carried by frames that arrived (gossip and retransmit).
    pub arrivals: u64,
    /// First deliveries, origin self-deliveries included.
    pub deliveries: u64,
    /// First deliveries of events that arrived from another node.
    pub remote_deliveries: u64,
    /// Encoded datagram bytes of every frame sent (systematic sample,
    /// scaled back up).
    pub wire_bytes: f64,
    pub requested_ids: u64,
    pub recovered: u64,
    pub abandoned: u64,
    pub on_round: CallCost,
    pub on_receive: CallCost,
    pub offer: CallCost,
    /// A sample of frames from the measured rounds, for the wire leg.
    pub captured: Vec<GossipFrame>,
    /// Resident-memory attribution of all nodes after the last round.
    pub mem: MemTable,
}

/// How long to replay, and what to record.
#[derive(Debug, Clone, Copy)]
pub struct ReplayPlan {
    pub warm_rounds: u64,
    pub measure_rounds: u64,
    /// Independent per-frame loss applied by the routing loop.
    pub loss: f64,
    /// Encode every `encode_every`-th frame (1 = all).
    pub encode_every: u64,
    /// Time every protocol call (the traced run).
    pub timed: bool,
}

const CAPTURE_PER_KIND: usize = 48;
/// Link delay between a round and the arrival of its frames.
const LINK_DELAY: DurationMs = DurationMs::from_millis(10);

fn timed_call<T>(on: bool, cost: &mut CallCost, f: impl FnOnce() -> T) -> T {
    if !on {
        return f();
    }
    let t = Instant::now();
    let out = f();
    cost.ns += t.elapsed().as_nanos() as u64;
    cost.calls += 1;
    out
}

/// Replays `config` (the workload's cluster) for the planned rounds.
pub fn replay(config: &ClusterConfig, plan: ReplayPlan) -> ReplayOutcome {
    let n = config.n_nodes;
    let period = config.round_period();
    let seeds = SeedSequence::new(config.seed);
    let mut nodes: Vec<Box<dyn FrameProtocol + Send>> = (0..n)
        .map(|i| config.make_protocol(NodeId::new(i as u32), 0, None))
        .collect();
    let per_sender = if config.n_senders == 0 {
        0.0
    } else {
        config.offered_rate / config.n_senders as f64
    };
    let mut senders: Vec<SenderProcess> = (0..config.n_senders)
        .map(|i| {
            SenderProcess::new(
                SenderModel::Constant { rate: per_sender },
                TimeMs::ZERO,
                seeds.rng_for("replay-sender", i as u64),
            )
            .with_max_backlog(config.max_backlog)
        })
        .collect();
    let mut loss_rng = seeds.rng_for("replay-loss", 0);
    let payload = Payload::from(vec![0u8; config.payload_size]);
    let mut encoder = FrameEncoder::default();
    let mut queue: VecDeque<(NodeId, NodeId, GossipFrame)> = VecDeque::new();
    let mut drained: Vec<ProtocolEvent> = Vec::new();
    let mut out = ReplayOutcome::default();
    let (mut grafts, mut retransmits) = (0usize, 0usize);
    let mut frame_seq = 0u64;

    for r in 0..plan.warm_rounds + plan.measure_rounds {
        let measuring = r >= plan.warm_rounds;
        let timed = plan.timed && measuring;
        let now = TimeMs::ZERO + period * (r + 1);

        // Sender applications, each arrival at its own time.
        for (i, sender) in senders.iter_mut().enumerate() {
            let node = &mut nodes[i];
            while sender.next_at() <= now {
                let at = sender.next_at();
                let offers = sender.poll(at, node.pending_len());
                for _ in 0..offers {
                    timed_call(timed, &mut out.offer, || node.offer(payload.clone(), at));
                }
            }
        }

        for (i, node) in nodes.iter_mut().enumerate() {
            let frames = timed_call(timed, &mut out.on_round, || node.on_round(now));
            let from = NodeId::new(i as u32);
            queue.extend(frames.into_iter().map(|(to, f)| (from, to, f)));
        }
        if measuring {
            out.node_rounds += n as u64;
        }

        let arrive = now + LINK_DELAY;
        while let Some((from, to, frame)) = queue.pop_front() {
            if measuring {
                out.frames += 1;
                frame_seq += 1;
                if frame_seq.is_multiple_of(plan.encode_every) {
                    let bytes: usize = encoder
                        .split_for_datagram(&frame, MAX_DATAGRAM)
                        .iter()
                        .map(|d| d.len())
                        .sum();
                    out.wire_bytes += (bytes as u64 * plan.encode_every) as f64;
                }
                match &frame {
                    GossipFrame::Gossip { msg, .. } => {
                        out.gossip_frames += 1;
                        out.gossip_events += msg.events.len() as u64;
                        if out.captured.len() < CAPTURE_PER_KIND {
                            out.captured.push(frame.clone());
                        }
                    }
                    GossipFrame::Graft(_) if grafts < CAPTURE_PER_KIND => {
                        grafts += 1;
                        out.captured.push(frame.clone());
                    }
                    GossipFrame::Retransmit(_) if retransmits < CAPTURE_PER_KIND => {
                        retransmits += 1;
                        out.captured.push(frame.clone());
                    }
                    _ => {}
                }
            }
            if plan.loss > 0.0 && bernoulli(&mut loss_rng, plan.loss) {
                continue;
            }
            if measuring {
                out.arrivals += match &frame {
                    GossipFrame::Gossip { msg, .. } => msg.events.len() as u64,
                    GossipFrame::Retransmit(rt) => rt.events.len() as u64,
                    GossipFrame::Graft(_) => 0,
                };
            }
            let node = &mut nodes[to.index()];
            let replies = timed_call(timed, &mut out.on_receive, || {
                node.on_receive(from, frame, arrive)
            });
            queue.extend(replies.into_iter().map(|(dst, f)| (to, dst, f)));
        }

        for node in &mut nodes {
            let me = node.node_id();
            drained.clear();
            node.drain_events_into(&mut drained);
            if !measuring {
                continue;
            }
            for e in &drained {
                match e {
                    ProtocolEvent::Delivered { from, .. } => {
                        out.deliveries += 1;
                        if *from != me {
                            out.remote_deliveries += 1;
                        }
                    }
                    ProtocolEvent::RecoveryRequested { ids, .. } => {
                        out.requested_ids += *ids as u64
                    }
                    ProtocolEvent::Recovered { .. } => out.recovered += 1,
                    ProtocolEvent::RecoveryAbandoned { .. } => out.abandoned += 1,
                    _ => {}
                }
            }
        }
    }

    out.mem = MemTable::new(n as u64);
    for node in &nodes {
        for (label, usage) in node.mem_breakdown() {
            out.mem.record(label, usage);
        }
    }
    out
}

/// Resident bytes per node of the rows whose label is in `labels`.
pub fn rows_per_node(mem: &MemTable, labels: &[&str]) -> f64 {
    let bytes: u64 = mem
        .rows()
        .iter()
        .filter(|(l, _)| labels.contains(&l.as_str()))
        .map(|(_, u)| u.bytes)
        .sum();
    bytes as f64 / mem.nodes() as f64
}
