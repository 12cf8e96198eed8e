//! **adaptive-gossip** — a Rust reproduction of *Adaptive Gossip-Based
//! Broadcast* (Rodrigues, Handurukande, Pereira, Guerraoui, Kermarrec;
//! IEEE DSN 2003).
//!
//! Gossip-based broadcast scales beautifully, but its probabilistic
//! reliability rests on every node having enough buffer space to keep
//! forwarding events until they have disseminated. The paper adds a fully
//! decentralized feedback loop: nodes discover the group's smallest buffer
//! by piggybacking it on normal gossip, estimate congestion locally from
//! the *age* at which events would be evicted at that most constrained
//! node, and throttle their senders with a randomized
//! multiplicative-increase/decrease controller — no extra messages, no
//! global knowledge.
//!
//! This crate is a facade re-exporting the workspace:
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`core`] | `agb-core` | lpbcast (Fig. 1), token bucket (Fig. 3), the adaptive mechanism (Fig. 5), §6 extensions |
//! | [`membership`] | `agb-membership` | full & partial (lpbcast) peer sampling, join/leave/eviction dynamics |
//! | [`recovery`] | `agb-recovery` | pull-based anti-entropy: `IHave` digests, `Graft` pulls, bounded retransmission cache |
//! | [`topology`] | `agb-topology` | GOSSIP3-style probabilistic forwarding over structured overlays (with locality-biased sampling from [`membership`]) |
//! | [`node`] | `agb-node` | one protocol stack builder and the sans-IO node shell (protocol, failure detector, observer) every execution surface runs |
//! | [`chaos`] | `agb-chaos` | scripted churn & fault injection: crash/restart/join/leave, partitions, link faults, burst storms |
//! | [`maelstrom`] | `agb-maelstrom` | Maelstrom line protocol, node adapter, deterministic workload harness + checker |
//! | [`sim`] | `agb-sim` | deterministic discrete-event network simulator |
//! | [`workload`] | `agb-workload` | sender models, cluster builder, pub/sub scenarios, schedules |
//! | [`runtime`] | `agb-runtime` | threaded UDP/channel runtime (the paper's 60-workstation prototype) |
//! | [`metrics`] | `agb-metrics` | delivery/atomicity/rate/drop-age measurement |
//! | [`trace`] | `agb-trace` | deterministic causal dissemination tracing: typed events, histograms, per-event trees |
//! | [`telemetry`] | `agb-telemetry` | live wall-clock metrics: lock-free registry, Prometheus-text exposition, scrape + cluster-wide merge |
//! | [`profile`] | `agb-profile` | engine cost attribution: phase timers, shard load balance, per-subsystem memory, collapsed stacks |
//! | [`experiments`] | `agb-experiments` | one harness per paper figure |
//! | [`types`] | `agb-types` | ids, virtual time, RNG streams, stats primitives |
//!
//! # Quickstart
//!
//! Simulate a 60-node adaptive group for a minute of virtual time:
//!
//! ```
//! use adaptive_gossip::types::TimeMs;
//! use adaptive_gossip::workload::{Algorithm, ClusterConfig, GossipCluster};
//!
//! let mut config = ClusterConfig::new(60, 42);
//! config.algorithm = Algorithm::Adaptive;
//! config.n_senders = 10;
//! config.offered_rate = 20.0; // msgs/s, aggregate
//! let mut cluster = GossipCluster::build(config);
//! cluster.run_until(TimeMs::from_secs(60));
//!
//! let metrics = cluster.metrics();
//! // Measure messages admitted before t=50s; later ones are still in flight.
//! let window = Some((TimeMs::ZERO, TimeMs::from_secs(50)));
//! let report = metrics.deliveries().atomicity(0.95, window);
//! assert!(report.avg_receiver_fraction > 0.95);
//! ```
//!
//! # Recovery
//!
//! Push-only gossip loses atomicity when events are purged before full
//! dissemination (aggressive age caps, small buffers, message loss). The
//! [`recovery`] layer adds the retransmission-request path lpbcast assumes:
//! set [`ClusterConfig::recovery`](workload::ClusterConfig) to
//! `Some(RecoveryConfig::default())` and every node piggybacks `IHave`
//! digests, pulls missing events with `Graft` requests, and serves them
//! from a bounded retransmission cache. The repair cost is reported by
//! `metrics().recovery()` and `recovery_overhead_ratio()`:
//!
//! ```
//! use adaptive_gossip::recovery::RecoveryConfig;
//! use adaptive_gossip::types::TimeMs;
//! use adaptive_gossip::workload::{Algorithm, ClusterConfig, GossipCluster};
//!
//! let mut config = ClusterConfig::lossy(20, 42, 0.2); // 20% message loss
//! config.n_senders = 2;
//! config.offered_rate = 4.0;
//! config.gossip.age_cap = 3; // aggressive purging
//! config.recovery = Some(RecoveryConfig::default());
//! let mut cluster = GossipCluster::build(config);
//! cluster.run_until(TimeMs::from_secs(30));
//! let metrics = cluster.metrics();
//! assert!(metrics.recovery().recovered() > 0);
//! assert!(metrics.recovery_overhead_ratio() < 1.0);
//! ```
//!
//! Run the full loss × buffer sweep with `repro recovery`, or the
//! two-run comparison in `examples/lossy_recovery.rs`
//! (`cargo run --release --example lossy_recovery`).
//!
//! # Churn & fault injection
//!
//! The [`chaos`] subsystem scripts the perturbations the adaptive
//! mechanism exists for: seed-deterministic schedules of crashes,
//! restarts with state loss, protocol-level joins and graceful leaves,
//! failure-detector evictions, partitions, link-level latency/loss
//! episodes and sender burst storms — executed against the simulator
//! (`ChaosCluster`).
//! Delivery is then measured **among correct nodes**
//! ([`metrics`]' `MembershipTimeline`), alongside post-rejoin catch-up
//! latency and membership re-convergence:
//!
//! ```
//! use adaptive_gossip::chaos::{ChaosCluster, ChaosSchedule};
//! use adaptive_gossip::membership::PartialViewConfig;
//! use adaptive_gossip::types::{DurationMs, NodeId, TimeMs};
//! use adaptive_gossip::workload::{ClusterConfig, MembershipKind};
//!
//! let mut schedule = ChaosSchedule::new();
//! schedule
//!     .crash(TimeMs::from_secs(10), NodeId::new(7))
//!     .restart(TimeMs::from_secs(20), NodeId::new(7));
//! let mut config = ClusterConfig::new(20, 42);
//! config.membership = MembershipKind::Partial(PartialViewConfig::default());
//! config.n_senders = 2;
//! config.offered_rate = 4.0;
//! let mut chaos = ChaosCluster::new(config, &schedule);
//! chaos.run_until(TimeMs::from_secs(45));
//! let summary = chaos.summary(
//!     (TimeMs::from_secs(2), TimeMs::from_secs(35)),
//!     DurationMs::from_secs(10),
//! );
//! assert!(summary.correct.avg_receiver_fraction > 0.9);
//! ```
//!
//! Run the churn-rate sweep with `repro churn`, or the scripted scenario
//! in `examples/churn_chaos.rs`
//! (`cargo run --release --example churn_chaos`).
//!
//! # External harness: Maelstrom workloads
//!
//! The [`maelstrom`] subsystem speaks the Maelstrom JSON line protocol —
//! the de-facto standard harness interface for distributed-systems
//! workloads — so any external checker can drive this system. It ships
//! a sans-IO node adapter ([`maelstrom::MaelstromNode`]) that bridges
//! `init`/`topology`/`broadcast`/`add`/`generate`/`read` onto any
//! gossip stack (lpbcast / adaptive / adaptive+recovery), a real
//! stdin/stdout binary (`maelstrom_node`) runnable under the Maelstrom
//! jar, and a deterministic in-process harness that scripts the
//! standard workloads over seeded loss/latency/partition windows and
//! checks their properties:
//!
//! ```
//! use adaptive_gossip::maelstrom::{HarnessConfig, WorkloadKind, run_workload};
//!
//! let mut config = HarnessConfig::new(WorkloadKind::GCounter, 10, 42);
//! config.n_ops = 12;
//! let report = run_workload(&config);
//! assert!(report.passed(), "{:?}", report.properties);
//! ```
//!
//! Run the checked three-workload suite with `repro maelstrom`
//! (stable summary digest, `MAELSTROM.json` report), or the scripted
//! scenario in `examples/maelstrom_broadcast.rs`.
//!
//! # Topology-aware gossip
//!
//! The paper's evaluation assumes a flat group where every peer is
//! equally cheap to reach. The [`topology`] subsystem drops that
//! assumption: a deterministic [`types::Topology`] (ring / grid /
//! bridged cliques) gives every node an overlay neighbour list and a
//! region label; the [`membership`] layer's `LocalitySampler` biases
//! peer sampling toward those neighbours (with a tunable uniform
//! escape so the group stays connected end to end); and
//! [`topology::RoutingNode`] replaces lpbcast's reship-the-buffer
//! forwarding with GOSSIP3-style probabilistic relay — always forward
//! young rumors, forward older ones with probability `p`, always
//! forward on low-degree nodes — which cuts relayed copies per
//! delivery by ~3× at equal atomicity (`repro topology`):
//!
//! ```
//! use adaptive_gossip::topology::RoutingConfig;
//! use adaptive_gossip::types::{TimeMs, Topology};
//! use adaptive_gossip::workload::{Algorithm, ClusterConfig, GossipCluster};
//!
//! let grid = Topology::grid(4, 5);
//! let mut config = ClusterConfig::new(grid.len(), 42);
//! config.algorithm = Algorithm::Routing(RoutingConfig::default());
//! config.topology = Some(grid); // also feeds cross-region accounting
//! config.locality_escape = Some(0.1); // 10% of samples stay uniform
//! config.n_senders = 2;
//! config.offered_rate = 4.0;
//! let mut cluster = GossipCluster::build(config);
//! cluster.run_until(TimeMs::from_secs(30));
//!
//! let metrics = cluster.metrics();
//! let window = Some((TimeMs::ZERO, TimeMs::from_secs(20)));
//! let report = metrics.deliveries().atomicity(0.95, window);
//! assert!(report.avg_receiver_fraction > 0.9);
//! ```
//!
//! Run the shape × flavor comparison with `repro topology` (uniform vs
//! locality-biased vs probabilistic forwarding on grid and clustered
//! overlays, stable digest, `TOPOLOGY.json`).
//!
//! # Observability
//!
//! Three complementary planes, one engine:
//!
//! * **Deterministic simulation tracing** ([`trace`]) — replayable
//!   records with simulated timestamps, for explaining *why* a run
//!   behaved as it did after the fact.
//! * **Live wall-clock telemetry** ([`telemetry`]) — always-on atomic
//!   counters/gauges/histograms on the threaded runtime, exposed as
//!   Prometheus text per node, for watching a *real* cluster right now.
//! * **Cost profiling** ([`profile`]) — opt-in phase timers, shard
//!   load-balance stats, and deterministic memory attribution, for
//!   knowing where a round's wall-clock and bytes go.
//!
//! ## Simulation tracing
//!
//! The [`trace`] subsystem records *why* dissemination behaved the way
//! it did, not just the end-state metrics: every publish/relay/deliver/
//! duplicate, the full drop taxonomy (age, buffer size, congestion),
//! recovery repair traffic, and per-event causal dissemination trees
//! (who infected whom, at what depth). Aggregates land in fixed-bucket
//! histograms — delivery latency in rounds, hops, buffer occupancy,
//! recovery RTT — and the whole trace carries a stable FNV digest that
//! is bit-identical across runs and `AGB_THREADS` settings. Tracing is
//! a pure observer: engine checksums are unchanged whether it is on or
//! off.
//!
//! ```
//! use adaptive_gossip::trace::TraceConfig;
//! use adaptive_gossip::types::TimeMs;
//! use adaptive_gossip::workload::{Algorithm, ClusterConfig, GossipCluster};
//!
//! let mut config = ClusterConfig::lossy(20, 42, 0.1);
//! config.algorithm = Algorithm::Adaptive;
//! config.n_senders = 2;
//! config.offered_rate = 6.0;
//! config.trace = TraceConfig::enabled();
//! let mut cluster = GossipCluster::build(config);
//! cluster.run_until(TimeMs::from_secs(30));
//!
//! let summary = cluster.trace_summary("adaptive").unwrap();
//! assert!(summary.counts.delivers > 0);
//! assert!(summary.tree.events > 0); // causal trees were reconstructed
//! let p99_rounds = summary.latency.quantile(0.99);
//! assert!(p99_rounds.is_some());
//! ```
//!
//! Run the full observability report with `repro trace` (three-protocol
//! dashboard under loss + partition, stable digest, `TRACE.json`), or
//! the redundancy comparison in `examples/trace_dissemination.rs`.
//!
//! ## Wall-clock telemetry
//!
//! The [`telemetry`] subsystem instruments the threaded runtime with
//! lock-free metrics (relaxed atomics on the hot path), renders them in
//! Prometheus text exposition format with stable names
//! ([`telemetry::names`]), serves them per node over a tiny std-only
//! TCP responder, and parses scrapes back into typed snapshots whose
//! log-bucketed histograms merge exactly — cluster-wide p99 latency
//! straight off the summed buckets. Those histograms are the same plain
//! [`types::Histogram`] the deterministic trace fills, and every runtime
//! node registers the whole vocabulary before it starts:
//!
//! ```
//! use adaptive_gossip::telemetry::{latency_seconds_bounds, parse_text, Registry};
//!
//! let registry = Registry::new();
//! registry
//!     .counter("agb_deliveries_total", "First deliveries", &[("node", "0")])
//!     .add(3);
//! registry
//!     .histogram(
//!         "agb_delivery_latency_seconds",
//!         "Publish to delivery",
//!         &[("node", "0")],
//!         &latency_seconds_bounds(),
//!     )
//!     .observe(0.012);
//!
//! let text = registry.render(); // what `GET /metrics` serves
//! assert!(text.contains("agb_deliveries_total{node=\"0\"} 3"));
//! let snapshot = parse_text(&text); // what a scraper reconstructs
//! assert_eq!(snapshot.counter_sum("agb_deliveries_total"), 3);
//! ```
//!
//! Run the live plane end to end with `repro telemetry` (lossy UDP
//! cluster, mid-run scrapes, SLO quantiles, and `TELEMETRY.json`, which
//! pins the series list), or the one-node scrape loop in
//! `examples/telemetry_scrape.rs`.
//!
//! ## Cost profiling
//!
//! The [`profile`] subsystem answers *where does the round go*: opt-in
//! RAII phase timers around the engine's hot phases (batch lift,
//! sharded handler execution, canonical merge-back, routing and codec
//! work), per-shard busy-time balance, and a per-subsystem memory
//! table computed from entry counts — deterministic, so it is
//! bit-identical at any `AGB_THREADS` and safe to commit
//! (`PROFILE.json`). Profiling only reads clocks: engine checksums are
//! unchanged whether it is on or off.
//!
//! ```
//! use adaptive_gossip::profile::{Phase, ProfileConfig};
//! use adaptive_gossip::recovery::RecoveryConfig;
//! use adaptive_gossip::types::TimeMs;
//! use adaptive_gossip::workload::{Algorithm, ClusterConfig, GossipCluster};
//!
//! let mut config = ClusterConfig::new(30, 42);
//! config.algorithm = Algorithm::Adaptive;
//! config.n_senders = 3;
//! config.offered_rate = 9.0;
//! config.recovery = Some(RecoveryConfig::default());
//! config.profile = ProfileConfig::enabled();
//! let mut cluster = GossipCluster::build(config);
//! cluster.run_until(TimeMs::from_secs(20));
//!
//! let snapshot = cluster.profiler_snapshot().unwrap();
//! assert!(snapshot.phase(Phase::ShardExec).total_ns > 0);
//! let mem = cluster.mem_table(); // resident bytes by subsystem
//! assert!(mem.bytes_per_node() > 0);
//! println!("{}", snapshot.collapsed()); // inferno-ready stacks
//! ```
//!
//! Run the attribution report with `repro profile` (phase table, shard
//! balance, memory table, `PROFILE.json` + optional collapsed-stack
//! file), or the single-round walkthrough in
//! `examples/profile_round.rs`.
//!
//! See `examples/` for runnable scenarios and `docs/ARCHITECTURE.md`
//! for the architecture handbook (crate map, data flow, the engine's
//! determinism invariants, and the new-protocol-flavor recipe).

#![forbid(unsafe_code)]

pub use agb_chaos as chaos;
pub use agb_core as core;
pub use agb_experiments as experiments;
pub use agb_maelstrom as maelstrom;
pub use agb_membership as membership;
pub use agb_metrics as metrics;
pub use agb_node as node;
pub use agb_perf as perf;
pub use agb_profile as profile;
pub use agb_recovery as recovery;
pub use agb_runtime as runtime;
pub use agb_sim as sim;
pub use agb_telemetry as telemetry;
pub use agb_topology as topology;
pub use agb_trace as trace;
pub use agb_types as types;
pub use agb_workload as workload;
