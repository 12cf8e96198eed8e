//! The deterministic in-process Maelstrom harness and checker.
//!
//! Runs `N` [`MaelstromNode`]s *over the line protocol* — nodes exchange
//! nothing but serialized JSON lines — on the sharded deterministic
//! simulation engine (`agb-sim`), whose [`NetworkConfig`] supplies
//! seeded loss, latency distributions and partition windows. Client RPCs
//! (`init`, `broadcast`, `add`, `generate`, `read`) are injected
//! reliably (Maelstrom clients retry; the network model applies only to
//! inter-node gossip), scripted by a [`HarnessConfig`], and the final
//! state is checked against the workload's properties:
//!
//! * **broadcast** — validity (no value read that was never broadcast)
//!   and atomicity among correct nodes (every acknowledged value read
//!   back by ≥ the configured fraction of never-crashed nodes);
//! * **unique-ids** — every `generate_ok` id globally unique;
//! * **g-counter** — eventual convergence: every correct node reads the
//!   sum of all acknowledged deltas.
//!
//! Every run is a pure function of its seed — at any engine thread
//! count — and folds into a stable FNV digest ([`WorkloadReport::digest`],
//! [`MaelstromSummary::digest`]) that CI replays and compares.

use agb_sim::{
    LatencyModel, NetworkConfig, Partition, SimCtx, SimNode, Simulation, SimulationBuilder, TimerId,
};
use agb_trace::TraceCounts;
use agb_types::{fnv1a, json::Json, DetRng, DurationMs, NodeId, SeedSequence, TimeMs};
use rand::RngExt;

use crate::node::{Flavor, MaelstromNode, NodeConfig, WorkloadKind};
use crate::protocol::{Body, Message, Payload};

const TICK: TimerId = TimerId(1);

/// Everything needed to run one scripted workload.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Group size.
    pub n_nodes: usize,
    /// Inter-node network: latency, loss, partition windows.
    pub network: NetworkConfig,
    /// The configuration every node starts from: the protocol stack
    /// under test, the workload to script and check, the seed (the whole
    /// run and its digest are a pure function of it), the gossip
    /// parameters and the region map. With a region map, the checker
    /// adds the `cross_region_traffic` property.
    pub node: NodeConfig,
    /// Upper bound on the fraction of inter-node frames allowed to cross
    /// a region boundary (only checked when [`NodeConfig::regions`] is
    /// set).
    pub max_cross_fraction: f64,
    /// Client operations to script (broadcasts / adds / generates).
    pub n_ops: usize,
    /// First client operation time.
    pub ops_from: TimeMs,
    /// Last client operation time (exclusive).
    pub ops_until: TimeMs,
    /// When final `read`s are injected (and the run's horizon).
    pub read_at: TimeMs,
    /// Minimum per-value fraction of correct nodes that must read an
    /// acknowledged broadcast value back (the atomicity property).
    pub atomicity_threshold: f64,
    /// Scripted crashes: from `at` on, the node is silent and excluded
    /// from the correct set.
    pub crashes: Vec<(TimeMs, NodeId)>,
    /// Engine shard threads (`K`); results are identical at every `K`.
    pub threads: usize,
    /// Engine parallel threshold override (tests force tiny batches
    /// onto the worker path).
    pub parallel_threshold: Option<usize>,
}

impl HarnessConfig {
    /// Paper-default parameters: adaptive + recovery on a lossless LAN,
    /// 20 ops in `[5 s, 35 s)`, reads at 60 s.
    pub fn new(workload: WorkloadKind, n_nodes: usize, seed: u64) -> Self {
        HarnessConfig {
            n_nodes,
            network: NetworkConfig::default(),
            node: NodeConfig::new(Flavor::AdaptiveRecovery, workload, seed),
            max_cross_fraction: 1.0,
            n_ops: 20,
            ops_from: TimeMs::from_secs(5),
            ops_until: TimeMs::from_secs(35),
            read_at: TimeMs::from_secs(60),
            atomicity_threshold: 0.99,
            crashes: Vec::new(),
            threads: agb_sim::threads_from_env(),
            parallel_threshold: None,
        }
    }
}

/// One checked property.
#[derive(Debug, Clone, PartialEq)]
pub struct Property {
    /// Property name (stable; folded into the digest).
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// Human-readable evidence.
    pub detail: String,
}

/// The checked outcome of one workload run.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    /// The workload that ran.
    pub workload: WorkloadKind,
    /// The protocol stack under test.
    pub flavor: Flavor,
    /// Group size.
    pub n_nodes: usize,
    /// Nodes that never crashed.
    pub n_correct: usize,
    /// The seed.
    pub seed: u64,
    /// Scripted client operations.
    pub ops: usize,
    /// Operations acknowledged by their node.
    pub acked: usize,
    /// Broadcast: mean per-value fraction of correct nodes that read the
    /// value back. G-counter: fraction of correct nodes converged.
    /// Unique-ids: 1.0.
    pub avg_fraction: f64,
    /// Worst per-value fraction (broadcast) / same as avg otherwise.
    pub min_fraction: f64,
    /// The checked properties.
    pub properties: Vec<Property>,
    /// Messages handed to the simulated network.
    pub sends: u64,
    /// Messages delivered by it.
    pub deliveries: u64,
    /// Messages it dropped (loss + partitions).
    pub drops: u64,
    /// Lines rejected by the protocol layer (must be 0).
    pub proto_errors: u64,
    /// Trace-taxonomy tally summed over all nodes (publishes, relays,
    /// delivers, duplicates, drops, recovery round trips).
    pub trace: TraceCounts,
    /// The engine's order-sensitive determinism checksum.
    pub engine_checksum: u64,
    /// Stable FNV digest of every deterministic field above.
    pub digest: u64,
}

impl WorkloadReport {
    /// Whether every property held.
    pub fn passed(&self) -> bool {
        self.properties.iter().all(|p| p.ok)
    }

    /// Machine-readable form (schema `agb-maelstrom/v1`, one entry of
    /// the summary's `workloads` array).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::from(self.workload.name())),
            ("flavor", Json::from(self.flavor.name())),
            ("n_nodes", Json::from(self.n_nodes)),
            ("n_correct", Json::from(self.n_correct)),
            ("seed", Json::from(self.seed)),
            ("ops", Json::from(self.ops)),
            ("acked", Json::from(self.acked)),
            ("avg_fraction", Json::Num(self.avg_fraction)),
            ("min_fraction", Json::Num(self.min_fraction)),
            (
                "properties",
                Json::Arr(
                    self.properties
                        .iter()
                        .map(|p| {
                            Json::obj([
                                ("name", Json::from(p.name)),
                                ("ok", Json::Bool(p.ok)),
                                ("detail", Json::Str(p.detail.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("sends", Json::from(self.sends)),
            ("deliveries", Json::from(self.deliveries)),
            ("drops", Json::from(self.drops)),
            ("proto_errors", Json::from(self.proto_errors)),
            ("trace", self.trace.to_json()),
            (
                "engine_checksum",
                Json::Str(format!("{:#018x}", self.engine_checksum)),
            ),
            ("digest", Json::Str(format!("{:#018x}", self.digest))),
        ])
    }
}

/// The whole suite's outcome: one report per workload plus the folded
/// digest CI compares across runs.
#[derive(Debug, Clone)]
pub struct MaelstromSummary {
    /// The suite seed.
    pub seed: u64,
    /// One report per workload run, in run order.
    pub reports: Vec<WorkloadReport>,
    /// FNV fold of all report digests, in order.
    pub digest: u64,
}

impl MaelstromSummary {
    /// Whether every property of every workload held.
    pub fn passed(&self) -> bool {
        self.reports.iter().all(WorkloadReport::passed)
    }

    /// The machine-readable report (schema `agb-maelstrom/v1`).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::from("agb-maelstrom/v1")),
            ("seed", Json::from(self.seed)),
            ("passed", Json::Bool(self.passed())),
            (
                "workloads",
                Json::Arr(self.reports.iter().map(WorkloadReport::to_json).collect()),
            ),
            ("digest", Json::Str(format!("{:#018x}", self.digest))),
        ])
    }
}

/// One node hosted by the engine: a [`MaelstromNode`] plus the plumbing
/// that feeds it lines and routes what it emits.
struct HarnessNode {
    inner: MaelstromNode,
    me: String,
    roster: Vec<String>,
    period: DurationMs,
    /// Replies addressed to clients (collected by the checker).
    client_outbox: Vec<Message>,
    /// Lines that failed to parse at the harness boundary (folded into
    /// the `no_protocol_errors` property alongside the node's own
    /// counter — a drop must never be invisible to the checker).
    parse_errors: u64,
}

impl HarnessNode {
    /// Feeds one line to the node and routes its output: node-addressed
    /// messages onto the simulated network, client-addressed ones into
    /// the local outbox.
    fn feed(&mut self, line: &str, ctx: &mut SimCtx<'_, String>) {
        match Message::parse_line(line) {
            Ok(msg) => {
                let out = self.inner.handle(msg);
                self.route(out, ctx);
            }
            Err(_) => self.parse_errors += 1,
        }
    }

    fn route(&mut self, out: Vec<Message>, ctx: &mut SimCtx<'_, String>) {
        for msg in out {
            match self.roster.iter().position(|r| *r == msg.dest) {
                Some(idx) => ctx.send(NodeId::new(idx as u32), msg.to_line()),
                None => self.client_outbox.push(msg),
            }
        }
    }
}

impl SimNode for HarnessNode {
    type Msg = String;
    type Slot = ();

    fn on_start(&mut self, ctx: &mut SimCtx<'_, String>) {
        // The Maelstrom handshake, over the wire format like everything
        // else: init with the full roster, then ring-topology hints.
        let init = Message {
            src: "c0".into(),
            dest: self.me.clone(),
            body: Body {
                msg_id: Some(0),
                in_reply_to: None,
                payload: Payload::Init {
                    node_id: self.me.clone(),
                    node_ids: self.roster.clone(),
                },
            },
        };
        self.feed(&init.to_line(), ctx);
        let n = self.roster.len();
        let topology = Message {
            src: "c0".into(),
            dest: self.me.clone(),
            body: Body {
                msg_id: Some(1),
                in_reply_to: None,
                payload: Payload::Topology {
                    topology: (0..n)
                        .map(|i| {
                            (
                                self.roster[i].clone(),
                                vec![
                                    self.roster[(i + n - 1) % n].clone(),
                                    self.roster[(i + 1) % n].clone(),
                                ],
                            )
                        })
                        .collect(),
                },
            },
        };
        self.feed(&topology.to_line(), ctx);
        ctx.set_periodic_timer(TICK, self.period, self.period);
    }

    fn on_timer(&mut self, timer: TimerId, ctx: &mut SimCtx<'_, String>) {
        if timer == TICK {
            let tick = Message {
                src: "harness".into(),
                dest: self.me.clone(),
                body: Body::bare(Payload::Tick {
                    now: ctx.now().as_millis(),
                }),
            };
            self.feed(&tick.to_line(), ctx);
        }
    }

    fn on_message(&mut self, _from: NodeId, line: String, ctx: &mut SimCtx<'_, String>) {
        self.feed(&line, ctx);
    }
}

/// What one scripted client operation was.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    Broadcast(i64),
    Add(i64),
    Generate,
}

/// Runs one scripted workload to completion and checks it.
///
/// # Panics
///
/// Panics on invalid configuration (zero nodes, crash of an unknown
/// node).
pub fn run_workload(config: &HarnessConfig) -> WorkloadReport {
    assert!(config.n_nodes > 0, "harness needs at least one node");
    for (_, node) in &config.crashes {
        assert!(
            node.index() < config.n_nodes,
            "crash of unknown node {node}"
        );
    }
    let seeds = SeedSequence::new(config.node.seed);
    let roster: Vec<String> = (0..config.n_nodes).map(|i| format!("n{i}")).collect();
    let period = config
        .node
        .flavor
        .algorithm()
        .round_period(&config.node.gossip);
    let nodes: Vec<HarnessNode> = roster
        .iter()
        .map(|me| HarnessNode {
            inner: MaelstromNode::new(config.node.clone()),
            me: me.clone(),
            roster: roster.clone(),
            period,
            client_outbox: Vec::new(),
            parse_errors: 0,
        })
        .collect();

    let mut sim = SimulationBuilder::new(seeds.seed_for("maelstrom-sim", 0))
        .network(config.network.clone())
        .threads(config.threads.max(1))
        .build(nodes, ());
    if let Some(min_batch) = config.parallel_threshold {
        sim.set_parallel_threshold(min_batch);
    }

    // Scripted crashes (correct nodes = the complement).
    for &(at, node) in &config.crashes {
        sim.schedule_crash(at, node);
    }
    let crashed: Vec<NodeId> = config.crashes.iter().map(|&(_, n)| n).collect();
    let correct: Vec<NodeId> = (0..config.n_nodes)
        .map(|i| NodeId::new(i as u32))
        .filter(|n| !crashed.contains(n))
        .collect();

    // Client operations: round-robin over correct nodes, evenly spaced
    // over the ops window, injected reliably (no loss on client RPCs).
    let mut delta_rng: DetRng = seeds.rng_for("maelstrom-deltas", 0);
    let span = config.ops_until.since(config.ops_from).as_millis().max(1);
    let mut ops: Vec<(u64, NodeId, Op)> = Vec::with_capacity(config.n_ops);
    for i in 0..config.n_ops {
        let msg_id = 1_000_000 + i as u64;
        let target = correct[i % correct.len()];
        let op = match config.node.workload {
            WorkloadKind::Broadcast => Op::Broadcast(100 + i as i64),
            WorkloadKind::GCounter => Op::Add(delta_rng.random_range(1u64..=9) as i64),
            WorkloadKind::UniqueIds => Op::Generate,
        };
        let at =
            config.ops_from + DurationMs::from_millis(span * i as u64 / config.n_ops.max(1) as u64);
        let payload = match op {
            Op::Broadcast(v) => Payload::Broadcast { message: v },
            Op::Add(d) => Payload::Add { delta: d },
            Op::Generate => Payload::Generate,
        };
        let line = Message {
            src: "c1".into(),
            dest: roster[target.index()].clone(),
            body: Body {
                msg_id: Some(msg_id),
                in_reply_to: None,
                payload,
            },
        }
        .to_line();
        sim.schedule_node_action(at, target, move |n: &mut HarnessNode, ctx| {
            n.feed(&line, ctx);
        });
        ops.push((msg_id, target, op));
    }

    // Final reads from every correct node (unique-ids has no read op).
    if config.node.workload != WorkloadKind::UniqueIds {
        for &node in &correct {
            let line = Message {
                src: "c1".into(),
                dest: roster[node.index()].clone(),
                body: Body {
                    msg_id: Some(2_000_000 + u64::from(node.as_u32())),
                    in_reply_to: None,
                    payload: Payload::Read,
                },
            }
            .to_line();
            sim.schedule_node_action(config.read_at, node, move |n: &mut HarnessNode, ctx| {
                n.feed(&line, ctx);
            });
        }
    }

    sim.run_until(config.read_at + DurationMs::from_millis(10));

    check(config, &mut sim, &ops, &correct)
}

/// Evaluates the workload's properties over the collected client
/// replies and folds the digest.
fn check(
    config: &HarnessConfig,
    sim: &mut Simulation<HarnessNode>,
    ops: &[(u64, NodeId, Op)],
    correct: &[NodeId],
) -> WorkloadReport {
    let stats = sim.stats();
    let mut proto_errors = 0;
    let mut trace = TraceCounts::default();
    // Ack lookup: which scripted op msg_ids were answered, and with what.
    let mut acks: Vec<(u64, Payload)> = Vec::new();
    let mut reads: Vec<(NodeId, Payload)> = Vec::new();
    for i in 0..config.n_nodes {
        let id = NodeId::new(i as u32);
        let node = sim.node(id);
        proto_errors += node.inner.proto_errors() + node.parse_errors;
        trace.merge(node.inner.trace_counts());
        for msg in &node.client_outbox {
            match msg.body.in_reply_to {
                Some(re) if re >= 2_000_000 => reads.push((id, msg.body.payload.clone())),
                Some(re) if re >= 1_000_000 => acks.push((re, msg.body.payload.clone())),
                _ => {}
            }
        }
    }

    let acked_ops: Vec<&(u64, NodeId, Op)> = ops
        .iter()
        .filter(|(msg_id, _, op)| {
            acks.iter().any(|(re, p)| {
                re == msg_id
                    && matches!(
                        (op, p),
                        (Op::Broadcast(_), Payload::BroadcastOk)
                            | (Op::Add(_), Payload::AddOk)
                            | (Op::Generate, Payload::GenerateOk { .. })
                    )
            })
        })
        .collect();

    let mut properties = Vec::new();
    let mut avg_fraction = 1.0;
    let mut min_fraction = 1.0;
    let mut digest_buf: Vec<u8> = Vec::new();

    properties.push(Property {
        name: "all_ops_acked",
        ok: acked_ops.len() == ops.len(),
        detail: format!("{}/{} client ops acknowledged", acked_ops.len(), ops.len()),
    });

    match config.node.workload {
        WorkloadKind::Broadcast => {
            let offered: Vec<i64> = ops
                .iter()
                .filter_map(|(_, _, op)| match op {
                    Op::Broadcast(v) => Some(*v),
                    _ => None,
                })
                .collect();
            let acked: Vec<i64> = acked_ops
                .iter()
                .filter_map(|(_, _, op)| match op {
                    Op::Broadcast(v) => Some(*v),
                    _ => None,
                })
                .collect();
            let node_sets: Vec<(NodeId, Vec<i64>)> = correct
                .iter()
                .filter_map(|&n| {
                    reads.iter().find(|(id, _)| *id == n).and_then(|(_, p)| {
                        if let Payload::ReadOk { messages } = p {
                            Some((n, messages.clone()))
                        } else {
                            None
                        }
                    })
                })
                .collect();
            properties.push(Property {
                name: "all_correct_nodes_read",
                ok: node_sets.len() == correct.len(),
                detail: format!(
                    "{}/{} correct nodes replied to read",
                    node_sets.len(),
                    correct.len()
                ),
            });
            let invented: usize = node_sets
                .iter()
                .map(|(_, msgs)| msgs.iter().filter(|m| !offered.contains(m)).count())
                .sum();
            properties.push(Property {
                name: "validity",
                ok: invented == 0,
                detail: format!("{invented} read values were never broadcast"),
            });
            let mut sum = 0.0;
            let mut min = 1.0f64;
            for v in &acked {
                let holders = node_sets
                    .iter()
                    .filter(|(_, msgs)| msgs.contains(v))
                    .count();
                let frac = holders as f64 / correct.len().max(1) as f64;
                sum += frac;
                min = min.min(frac);
            }
            avg_fraction = if acked.is_empty() {
                1.0
            } else {
                sum / acked.len() as f64
            };
            min_fraction = if acked.is_empty() { 1.0 } else { min };
            properties.push(Property {
                name: "atomicity_among_correct",
                ok: avg_fraction >= config.atomicity_threshold,
                detail: format!(
                    "avg fraction {:.4} (min {:.4}) over {} values × {} correct nodes, threshold {:.2}",
                    avg_fraction,
                    min_fraction,
                    acked.len(),
                    correct.len(),
                    config.atomicity_threshold
                ),
            });
            for (n, msgs) in &node_sets {
                mix_u64(&mut digest_buf, u64::from(n.as_u32()));
                for m in msgs {
                    mix_u64(&mut digest_buf, *m as u64);
                }
            }
        }
        WorkloadKind::UniqueIds => {
            let mut ids: Vec<String> = acks
                .iter()
                .filter_map(|(_, p)| match p {
                    Payload::GenerateOk { id } => Some(id.clone()),
                    _ => None,
                })
                .collect();
            ids.sort();
            let before = ids.len();
            ids.dedup();
            properties.push(Property {
                name: "global_uniqueness",
                ok: ids.len() == before && before == ops.len(),
                detail: format!("{} ids minted, {} distinct", before, ids.len()),
            });
            for id in &ids {
                mix_str(&mut digest_buf, id);
            }
        }
        WorkloadKind::GCounter => {
            let total: i64 = acked_ops
                .iter()
                .filter_map(|(_, _, op)| match op {
                    Op::Add(d) => Some(*d),
                    _ => None,
                })
                .sum();
            let values: Vec<(NodeId, i64)> = correct
                .iter()
                .filter_map(|&n| {
                    reads.iter().find(|(id, _)| *id == n).and_then(|(_, p)| {
                        if let Payload::ReadOkValue { value } = p {
                            Some((n, *value))
                        } else {
                            None
                        }
                    })
                })
                .collect();
            properties.push(Property {
                name: "all_correct_nodes_read",
                ok: values.len() == correct.len(),
                detail: format!(
                    "{}/{} correct nodes replied to read",
                    values.len(),
                    correct.len()
                ),
            });
            let converged = values.iter().filter(|(_, v)| *v == total).count();
            avg_fraction = converged as f64 / correct.len().max(1) as f64;
            min_fraction = avg_fraction;
            properties.push(Property {
                name: "eventual_convergence",
                ok: converged == correct.len(),
                detail: format!(
                    "{converged}/{} correct nodes read the full sum {total}",
                    correct.len()
                ),
            });
            for (n, v) in &values {
                mix_u64(&mut digest_buf, u64::from(n.as_u32()));
                mix_u64(&mut digest_buf, *v as u64);
            }
        }
    }

    if config.node.regions.is_some() {
        // Region-labelled run: dissemination must actually bridge the
        // regions (a zero count with atomic delivery would mean the
        // counter is wired wrong), and the cross-region share of frames
        // must stay under the configured cap — the locality story.
        let crossings = trace.cross_partition_msgs;
        let frac = crossings as f64 / stats.sends.max(1) as f64;
        properties.push(Property {
            name: "cross_region_traffic",
            ok: crossings > 0 && frac <= config.max_cross_fraction,
            detail: format!(
                "{crossings}/{} inter-node frames crossed a region boundary \
                 ({:.1}%, cap {:.0}%)",
                stats.sends,
                frac * 100.0,
                config.max_cross_fraction * 100.0
            ),
        });
    }

    properties.push(Property {
        name: "no_protocol_errors",
        ok: proto_errors == 0,
        detail: format!("{proto_errors} malformed lines"),
    });

    // Fold the digest: scenario identity, checker outcome, engine
    // checksum, and the read-back state mixed above.
    mix_str(&mut digest_buf, config.node.workload.name());
    mix_str(&mut digest_buf, config.node.flavor.name());
    mix_u64(&mut digest_buf, config.n_nodes as u64);
    mix_u64(&mut digest_buf, correct.len() as u64);
    mix_u64(&mut digest_buf, config.node.seed);
    mix_u64(&mut digest_buf, ops.len() as u64);
    mix_u64(&mut digest_buf, acked_ops.len() as u64);
    mix_u64(&mut digest_buf, (avg_fraction * 1e9).round() as u64);
    mix_u64(&mut digest_buf, (min_fraction * 1e9).round() as u64);
    for p in &properties {
        mix_str(&mut digest_buf, p.name);
        mix_u64(&mut digest_buf, u64::from(p.ok));
    }
    mix_u64(&mut digest_buf, stats.sends);
    mix_u64(&mut digest_buf, stats.deliveries);
    mix_u64(&mut digest_buf, stats.drops);
    for (name, count) in trace.as_pairs() {
        mix_str(&mut digest_buf, name);
        mix_u64(&mut digest_buf, count);
    }
    mix_u64(&mut digest_buf, stats.checksum);
    let digest = fnv1a(&digest_buf);

    WorkloadReport {
        workload: config.node.workload,
        flavor: config.node.flavor,
        n_nodes: config.n_nodes,
        n_correct: correct.len(),
        seed: config.node.seed,
        ops: ops.len(),
        acked: acked_ops.len(),
        avg_fraction,
        min_fraction,
        properties,
        sends: stats.sends,
        deliveries: stats.deliveries,
        drops: stats.drops,
        proto_errors,
        trace,
        engine_checksum: stats.checksum,
        digest,
    }
}

fn mix_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn mix_str(buf: &mut Vec<u8>, s: &str) {
    mix_u64(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

/// The standard workload suite behind `repro maelstrom`:
///
/// 1. **broadcast** — 25 nodes, 10% loss, one 12 s partition window,
///    adaptive + recovery;
/// 2. the same scenario on push-only **lpbcast** (comparison row);
/// 3. **broadcast/routing** — 20 nodes, probabilistic forwarding over
///    the ring topology hints, quadrant regions, cross-region traffic
///    checked;
/// 4. **unique-ids** — 12 nodes;
/// 5. **g-counter** — 15 nodes, 10% loss, adaptive + recovery.
pub fn standard_suite(seed: u64, quick: bool) -> MaelstromSummary {
    standard_suite_threads(seed, quick, agb_sim::threads_from_env())
}

/// [`standard_suite`] at an explicit engine thread count (the digest is
/// identical at every `K`).
pub fn standard_suite_threads(seed: u64, quick: bool, threads: usize) -> MaelstromSummary {
    let mut reports = Vec::new();

    // Broadcast under loss and a partition: the acceptance scenario.
    let mut broadcast = HarnessConfig::new(WorkloadKind::Broadcast, 25, seed);
    broadcast.network = NetworkConfig {
        latency: LatencyModel::default(),
        loss: 0.10,
        partitions: vec![Partition {
            side_a: (0..8).map(NodeId::new).collect(),
            from: TimeMs::from_secs(20),
            until: TimeMs::from_secs(32),
        }],
        link_faults: Vec::new(),
        adversaries: Vec::new(),
    };
    broadcast.n_ops = if quick { 24 } else { 48 };
    broadcast.ops_from = TimeMs::from_secs(5);
    broadcast.ops_until = TimeMs::from_secs(if quick { 40 } else { 50 });
    broadcast.read_at = TimeMs::from_secs(if quick { 70 } else { 85 });
    broadcast.threads = threads;
    reports.push(run_workload(&broadcast));

    // The same scenario on push-only lpbcast, as the comparison row: no
    // atomicity gate (threshold 0 — the point is to *show* the loss the
    // recovery layer wins back), every other property still checked.
    let mut baseline = broadcast.clone();
    baseline.node.flavor = Flavor::Lpbcast;
    baseline.atomicity_threshold = 0.0;
    reports.push(run_workload(&baseline));

    // Probabilistic forwarding over the harness's ring hints, with
    // quadrant region labels: the topology flavor's row — the same
    // broadcast checks plus bounded cross-region traffic.
    let routing_n = 20usize;
    let mut routing = HarnessConfig::new(WorkloadKind::Broadcast, routing_n, seed);
    routing.node.flavor = Flavor::Routing;
    routing.n_ops = if quick { 16 } else { 32 };
    routing.ops_from = TimeMs::from_secs(5);
    routing.ops_until = TimeMs::from_secs(if quick { 25 } else { 35 });
    routing.read_at = TimeMs::from_secs(if quick { 45 } else { 60 });
    routing.node.regions = Some((0..routing_n).map(|i| (i * 4 / routing_n) as u32).collect());
    routing.threads = threads;
    reports.push(run_workload(&routing));

    // Unique ids: pure RPC, no dissemination required.
    let mut unique = HarnessConfig::new(WorkloadKind::UniqueIds, 12, seed);
    unique.network = NetworkConfig::lossy(0.10);
    unique.n_ops = if quick { 48 } else { 96 };
    unique.ops_from = TimeMs::from_secs(2);
    unique.ops_until = TimeMs::from_secs(20);
    unique.read_at = TimeMs::from_secs(22);
    unique.threads = threads;
    reports.push(run_workload(&unique));

    // Grow-only counter: eventual convergence under loss.
    let mut counter = HarnessConfig::new(WorkloadKind::GCounter, 15, seed);
    counter.network = NetworkConfig::lossy(0.10);
    counter.n_ops = if quick { 20 } else { 40 };
    counter.ops_from = TimeMs::from_secs(5);
    counter.ops_until = TimeMs::from_secs(if quick { 30 } else { 40 });
    counter.read_at = TimeMs::from_secs(if quick { 55 } else { 70 });
    counter.threads = threads;
    reports.push(run_workload(&counter));

    let mut buf = Vec::with_capacity(reports.len() * 8);
    for r in &reports {
        mix_u64(&mut buf, r.digest);
    }
    let digest = fnv1a(&buf);
    MaelstromSummary {
        seed,
        reports,
        digest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(workload: WorkloadKind) -> HarnessConfig {
        let mut c = HarnessConfig::new(workload, 8, 11);
        c.n_ops = 8;
        c.ops_from = TimeMs::from_secs(2);
        c.ops_until = TimeMs::from_secs(10);
        c.read_at = TimeMs::from_secs(25);
        c.threads = 1;
        c
    }

    #[test]
    fn broadcast_on_a_clean_network_is_atomic() {
        let report = run_workload(&small(WorkloadKind::Broadcast));
        assert!(report.passed(), "properties: {:?}", report.properties);
        assert_eq!(report.acked, 8);
        assert_eq!(report.avg_fraction, 1.0);
        // The trace tally sees the same dissemination the checker does.
        assert_eq!(report.trace.publishes, 8, "one publish per client op");
        assert!(report.trace.relays > 0, "rounds relay events");
        assert!(report.trace.delivers > 0, "peers deliver");
    }

    #[test]
    fn unique_ids_are_unique() {
        let report = run_workload(&small(WorkloadKind::UniqueIds));
        assert!(report.passed(), "properties: {:?}", report.properties);
    }

    #[test]
    fn g_counter_converges() {
        let report = run_workload(&small(WorkloadKind::GCounter));
        assert!(report.passed(), "properties: {:?}", report.properties);
        assert_eq!(report.avg_fraction, 1.0);
    }

    #[test]
    fn routing_broadcast_is_atomic_and_crosses_regions() {
        let mut config = small(WorkloadKind::Broadcast);
        config.node.flavor = Flavor::Routing;
        config.node.regions = Some(vec![0, 0, 0, 0, 1, 1, 1, 1]);
        let report = run_workload(&config);
        assert!(report.passed(), "properties: {:?}", report.properties);
        assert!(
            report.trace.cross_partition_msgs > 0,
            "ring + escape hatch must bridge the two regions"
        );
        assert!(
            report
                .properties
                .iter()
                .any(|p| p.name == "cross_region_traffic" && p.ok),
            "properties: {:?}",
            report.properties
        );
    }

    #[test]
    fn same_seed_same_digest() {
        let a = run_workload(&small(WorkloadKind::Broadcast));
        let b = run_workload(&small(WorkloadKind::Broadcast));
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.engine_checksum, b.engine_checksum);
    }

    #[test]
    fn different_seeds_diverge() {
        let a = run_workload(&small(WorkloadKind::Broadcast));
        let mut config = small(WorkloadKind::Broadcast);
        config.node.seed = 12;
        let b = run_workload(&config);
        assert_ne!(a.digest, b.digest);
    }

    #[test]
    fn crashed_node_is_excluded_from_the_correct_set() {
        let mut config = small(WorkloadKind::Broadcast);
        config.crashes = vec![(TimeMs::from_secs(4), NodeId::new(7))];
        let report = run_workload(&config);
        assert_eq!(report.n_correct, 7);
        assert!(
            report.passed(),
            "correct nodes must stay atomic: {:?}",
            report.properties
        );
    }

    #[test]
    fn report_json_has_the_schema_fields() {
        let report = run_workload(&small(WorkloadKind::GCounter));
        let summary = MaelstromSummary {
            seed: 11,
            digest: report.digest,
            reports: vec![report],
        };
        let json = summary.to_json();
        assert_eq!(
            json.get("schema").unwrap().as_str(),
            Some("agb-maelstrom/v1")
        );
        let text = json.pretty();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed.get("passed").unwrap().as_bool(), Some(true));
    }
}
