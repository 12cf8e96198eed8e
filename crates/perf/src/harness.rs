//! The macro-benchmark harness: full adaptive-gossip rounds at 1k–50k
//! nodes, with and without the recovery layer, measured in wall-clock
//! throughput and allocation counts.
//!
//! Every scenario is a normal [`GossipCluster`] run — the same code path
//! the figure reproductions drive — so a throughput number here is a
//! number for the real system, not for a stripped-down kernel. Timing
//! wraps only the measured window; warmup rounds bring buffers and
//! adaptation to steady state first.

use std::time::Instant;

use agb_core::{Event, GossipFrame, GossipMessage, IHaveDigest};
use agb_membership::MembershipDigest;
use agb_metrics::AtomicityReport;
use agb_profile::{ProfileConfig, PHASES};
use agb_recovery::RecoveryConfig;
use agb_runtime::wire;
use agb_sim::NetworkConfig;
use agb_types::{fnv1a, DurationMs, EventId, NodeId, Payload, TimeMs};
use agb_workload::{Algorithm, ClusterConfig, GossipCluster, PhaseModel};

use crate::alloc::allocation_count;
use crate::json::Json;

/// The bench JSON schema identifier. Bump when the report shape changes.
///
/// `v3` adds cost attribution from a profiled re-run of every scenario:
/// per-phase wall-nanosecond totals (`phases`), the mean shard busy
/// imbalance (`shard_balance_ratio`), and the end-of-run resident bytes
/// per node (`peak_resident_bytes_per_node`). The *measured* throughput
/// run stays profiler-off; the attribution run doubles as an overhead
/// guard by asserting its engine checksum equals the unprofiled run's.
pub const SCHEMA: &str = "agb-perf/v3";

/// Scale points of the sweep: quick mode stops at 10k nodes, full mode
/// adds 50k and 100k.
pub fn scale_points(quick: bool) -> Vec<usize> {
    if quick {
        vec![1_000, 5_000, 10_000]
    } else {
        vec![1_000, 5_000, 10_000, 50_000, 100_000]
    }
}

/// The engine thread count the harness runs with (`AGB_THREADS`).
pub fn harness_threads() -> usize {
    agb_sim::threads_from_env()
}

/// Whether quick mode is active (`AGB_QUICK`, truthy values on;
/// `0`/`false`/`off` explicitly off).
pub fn quick_mode() -> bool {
    agb_types::env_flag("AGB_QUICK")
}

/// One macro-benchmark scenario: a cluster scale plus the recovery
/// toggle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioSpec {
    /// Scenario key used in the JSON and the CI gate (stable across PRs).
    pub name: String,
    /// Group size.
    pub n_nodes: usize,
    /// Whether nodes run the pull-based recovery layer.
    pub recovery: bool,
    /// Virtual gossip rounds excluded from measurement.
    pub warmup_rounds: u64,
    /// Virtual gossip rounds measured.
    pub measure_rounds: u64,
}

impl ScenarioSpec {
    /// The standard sweep: every scale point with and without recovery.
    pub fn sweep(quick: bool) -> Vec<ScenarioSpec> {
        let (warmup, measure) = if quick { (3, 10) } else { (5, 20) };
        let mut specs = Vec::new();
        for n in scale_points(quick) {
            for recovery in [false, true] {
                specs.push(ScenarioSpec {
                    name: format!("n{n}{}", if recovery { "-recovery" } else { "" }),
                    n_nodes: n,
                    recovery,
                    warmup_rounds: warmup,
                    measure_rounds: measure,
                });
            }
        }
        specs
    }

    /// The cluster configuration this scenario runs.
    pub fn cluster_config(&self, seed: u64) -> ClusterConfig {
        let mut c = ClusterConfig::new(self.n_nodes, seed);
        c.algorithm = Algorithm::Adaptive;
        c.gossip.fanout = 4;
        c.gossip.gossip_period = DurationMs::from_secs(1);
        c.gossip.max_events = 60;
        c.gossip.max_event_ids = 5_000;
        c.gossip.age_cap = 10;
        c.adaptation.initial_rate = 5.0;
        c.n_senders = 10.min(self.n_nodes);
        c.offered_rate = 50.0;
        c.payload_size = 64;
        c.network = NetworkConfig::default();
        c.phases = PhaseModel::Synchronized;
        if self.recovery {
            c.recovery = Some(RecoveryConfig::default());
        }
        c
    }
}

/// Measured outcome of one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioResult {
    /// The spec this result measured.
    pub spec: ScenarioSpec,
    /// Wall-clock seconds of the measured window.
    pub wall_secs: f64,
    /// Virtual gossip rounds per wall second (the headline metric).
    pub rounds_per_sec: f64,
    /// Per-node round executions per wall second (`rounds/sec × n`).
    pub node_rounds_per_sec: f64,
    /// Network messages routed per wall second.
    pub messages_per_sec: f64,
    /// Engine events processed per wall second.
    pub events_per_sec: f64,
    /// Messages handed to the network during measurement.
    pub sends: u64,
    /// Messages delivered during measurement.
    pub deliveries: u64,
    /// High-water mark of the engine's future event list.
    pub peak_queue_depth: usize,
    /// Allocation events during measurement.
    pub allocations: u64,
    /// Allocation events per virtual round.
    pub allocs_per_round: u64,
    /// Engine determinism checksum at the end of the run.
    pub checksum: u64,
    /// The merged collector's admitted and delivered totals and its
    /// whole-run `atomicity_95` at the end of the run.
    pub collected: (u64, u64, AtomicityReport),
    /// Engine shard/worker threads the measured run used.
    pub threads: usize,
    /// Wall-clock speedup versus a single-threaded run of the same
    /// scenario (only measured when `threads > 1`; the harness re-runs
    /// the scenario at `K = 1` and asserts the checksums match).
    pub speedup: Option<f64>,
    /// Per-phase wall-nanosecond totals from the profiled attribution
    /// run, in [`PHASES`] order (empty until attribution runs).
    pub phase_ns: Vec<(&'static str, u64)>,
    /// Mean per-batch max/min shard busy ratio from the attribution run
    /// (`None` when the engine never ran a parallel batch, e.g. `K = 1`).
    pub shard_balance_ratio: Option<f64>,
    /// End-of-run resident bytes per node across all instrumented
    /// subsystems (deterministic: computed from entry counts, not the
    /// allocator), from the attribution run.
    pub peak_resident_bytes_per_node: u64,
}

/// Runs one scenario at the `AGB_THREADS` thread count.
///
/// When the thread count exceeds 1, a single-threaded run of the same
/// scenario is measured as well: its wall-clock anchors the reported
/// `speedup`, and its determinism checksum (plus message counts, queue
/// peak and the metrics merged from the shards' partial collectors)
/// must match the threaded run exactly — the engine's K-invariance,
/// asserted on every harness run.
pub fn run_scenario(spec: &ScenarioSpec, seed: u64) -> ScenarioResult {
    let threads = harness_threads();
    let mut result = run_scenario_at(spec, seed, threads);
    if threads > 1 {
        let baseline = run_scenario_at(spec, seed, 1);
        assert_eq!(
            (
                baseline.checksum,
                baseline.sends,
                baseline.deliveries,
                baseline.peak_queue_depth,
                baseline.collected
            ),
            (
                result.checksum,
                result.sends,
                result.deliveries,
                result.peak_queue_depth,
                result.collected
            ),
            "scenario {} diverged between K=1 and K={threads}",
            spec.name
        );
        result.speedup = Some(baseline.wall_secs / result.wall_secs.max(1e-9));
    }
    attribute_scenario(&mut result, spec, seed, threads);
    result
}

/// Re-runs the scenario with the profiler attached and folds phase
/// totals, shard balance, and per-node resident bytes into `result`.
///
/// The timed throughput run above stays profiler-off, so the gated
/// metrics never pay for instrumentation; this run is where the cost
/// attribution comes from — and it doubles as the overhead guard: the
/// profiled engine must reproduce the unprofiled run's checksum and
/// message counts exactly, or profiling perturbed the engine.
fn attribute_scenario(result: &mut ScenarioResult, spec: &ScenarioSpec, seed: u64, threads: usize) {
    let mut config = spec.cluster_config(seed);
    config.threads = threads.max(1);
    config.profile = ProfileConfig::enabled();
    let period = config.gossip.gossip_period;
    let mut cluster = GossipCluster::build(config);
    if let Some(profiler) = cluster.profiler_mut() {
        profiler.set_alloc_counter(allocation_count);
    }

    let warmup_until = TimeMs::ZERO + period.mul_f64(spec.warmup_rounds as f64);
    cluster.run_until(warmup_until);
    cluster.reset_peak_queue_depth();
    let sends_before = cluster.sim_stats().sends;
    let deliveries_before = cluster.sim_stats().deliveries;
    cluster.run_until(warmup_until + period.mul_f64(spec.measure_rounds as f64));

    let stats = cluster.sim_stats();
    assert_eq!(
        (
            result.checksum,
            result.sends,
            result.deliveries,
            result.peak_queue_depth
        ),
        (
            stats.checksum,
            stats.sends - sends_before,
            stats.deliveries - deliveries_before,
            cluster.peak_queue_depth()
        ),
        "scenario {} diverged profiler-on vs profiler-off",
        spec.name
    );

    let snapshot = cluster
        .profiler_snapshot()
        .expect("profiled cluster has a profiler");
    result.phase_ns = PHASES
        .iter()
        .map(|&p| (p.label(), snapshot.phase(p).total_ns))
        .collect();
    result.shard_balance_ratio = snapshot.mean_balance_ratio;
    result.peak_resident_bytes_per_node = cluster.mem_table().bytes_per_node();
}

/// Runs one scenario at an explicit engine thread count and measures it.
pub fn run_scenario_at(spec: &ScenarioSpec, seed: u64, threads: usize) -> ScenarioResult {
    let mut config = spec.cluster_config(seed);
    config.threads = threads.max(1);
    let period = config.gossip.gossip_period;
    let mut cluster = GossipCluster::build(config);

    let warmup_until = TimeMs::ZERO + period.mul_f64(spec.warmup_rounds as f64);
    cluster.run_until(warmup_until);
    // The peak-depth metric should describe the measured window, not
    // warmup transients.
    cluster.reset_peak_queue_depth();

    let sends_before = cluster.sim_stats().sends;
    let deliveries_before = cluster.sim_stats().deliveries;
    let events_before = cluster.events_processed();
    let allocs_before = allocation_count();
    let started = Instant::now();

    let measure_until = warmup_until + period.mul_f64(spec.measure_rounds as f64);
    cluster.run_until(measure_until);

    let wall_secs = started.elapsed().as_secs_f64().max(1e-9);
    let allocations = allocation_count() - allocs_before;
    let stats = cluster.sim_stats();
    let sends = stats.sends - sends_before;
    let deliveries = stats.deliveries - deliveries_before;
    let events = cluster.events_processed() - events_before;
    let rounds = spec.measure_rounds;
    let metrics = cluster.metrics();
    let collected = (
        metrics.admitted().total(),
        metrics.delivered().total(),
        metrics.atomicity_95(None),
    );

    ScenarioResult {
        spec: spec.clone(),
        wall_secs,
        rounds_per_sec: rounds as f64 / wall_secs,
        node_rounds_per_sec: rounds as f64 * spec.n_nodes as f64 / wall_secs,
        messages_per_sec: sends as f64 / wall_secs,
        events_per_sec: events as f64 / wall_secs,
        sends,
        deliveries,
        peak_queue_depth: cluster.peak_queue_depth(),
        allocations,
        allocs_per_round: allocations / rounds.max(1),
        checksum: stats.checksum,
        collected,
        threads: threads.max(1),
        speedup: None,
        phase_ns: Vec::new(),
        shard_balance_ratio: None,
        peak_resident_bytes_per_node: 0,
    }
}

/// Measured outcome of the wire-encode micro-leg (bytes encoded/sec
/// through the pooled [`wire::FrameEncoder`]).
#[derive(Debug, Clone, PartialEq)]
pub struct EncodeResult {
    /// Frames encoded.
    pub frames: u64,
    /// Total bytes produced.
    pub bytes: u64,
    /// Wall-clock seconds.
    pub wall_secs: f64,
    /// Bytes encoded per wall second.
    pub bytes_per_sec: f64,
    /// Frames encoded per wall second.
    pub frames_per_sec: f64,
    /// FNV checksum of one encoded frame (schema/codec determinism
    /// anchor).
    pub checksum: u64,
}

/// A representative gossip frame: a full 60-event buffer of 64-byte
/// payloads plus a piggybacked recovery digest — what a loaded node
/// actually puts on the wire each round.
fn representative_frame(seed: u64) -> GossipFrame {
    let payload = Payload::from(
        (0..64u64)
            .map(|i| (i.wrapping_mul(seed | 1) >> 3) as u8)
            .collect::<Vec<u8>>(),
    );
    let events: Vec<Event> = (0..60)
        .map(|s| {
            Event::with_age(
                EventId::new(NodeId::new((s % 10) as u32), seed.wrapping_add(s)),
                (s % 11) as u32,
                payload.clone(),
            )
        })
        .collect();
    let ids = (0..32)
        .map(|s| {
            EventId::new(
                NodeId::new((s % 7) as u32),
                seed.wrapping_mul(3).wrapping_add(s),
            )
        })
        .collect();
    GossipFrame::Gossip {
        msg: GossipMessage {
            sender: NodeId::new(1),
            sample_period: 4,
            min_buffs: vec![agb_core::BuffAd {
                node: NodeId::new(3),
                capacity: 60,
            }],
            events: events.into(),
            membership: MembershipDigest::default(),
        },
        ihave: Some(IHaveDigest { ids }),
    }
}

/// Runs the encode micro-leg.
pub fn run_encode_bench(seed: u64, quick: bool) -> EncodeResult {
    let frame = representative_frame(seed);
    let iterations: u64 = if quick { 5_000 } else { 50_000 };
    let mut encoder = wire::FrameEncoder::default();
    // Correctness anchor outside the timed loop: pooled output must equal
    // the legacy codec and round-trip.
    let reference = wire::encode_frame(&frame);
    assert_eq!(encoder.encode(&frame), reference, "pooled codec diverged");
    assert_eq!(
        wire::decode_frame(&reference).expect("reference frame decodes"),
        frame
    );

    let mut bytes = 0u64;
    let started = Instant::now();
    for _ in 0..iterations {
        let encoded = encoder.encode(&frame);
        bytes += encoded.len() as u64;
    }
    let wall_secs = started.elapsed().as_secs_f64().max(1e-9);
    EncodeResult {
        frames: iterations,
        bytes,
        wall_secs,
        bytes_per_sec: bytes as f64 / wall_secs,
        frames_per_sec: iterations as f64 / wall_secs,
        checksum: fnv1a(&reference),
    }
}

/// The complete bench report (`target/perf.json`).
#[derive(Debug, Clone, PartialEq)]
pub struct PerfReport {
    /// Experiment seed.
    pub seed: u64,
    /// Whether quick mode shaped the sweep.
    pub quick: bool,
    /// Engine shard/worker threads (`AGB_THREADS`).
    pub threads: usize,
    /// Scenario sweep results.
    pub scenarios: Vec<ScenarioResult>,
    /// Wire-encode micro-leg.
    pub encode: EncodeResult,
}

impl PerfReport {
    /// Runs the whole harness: the scale sweep plus the encode leg.
    ///
    /// Progress lines go to stderr so stdout stays a clean human
    /// summary.
    pub fn run(seed: u64) -> PerfReport {
        let quick = quick_mode();
        let mut scenarios = Vec::new();
        for spec in ScenarioSpec::sweep(quick) {
            eprintln!(
                "perf: running {} ({} rounds measured)...",
                spec.name, spec.measure_rounds
            );
            scenarios.push(run_scenario(&spec, seed));
        }
        let encode = run_encode_bench(seed, quick);
        PerfReport {
            seed,
            quick,
            threads: harness_threads(),
            scenarios,
            encode,
        }
    }

    /// Order-sensitive checksum over everything deterministic in the
    /// report (engine checksums, message counts, queue depths, resident
    /// bytes, codec bytes). Two runs of the same seed must agree on this
    /// value — *at any `AGB_THREADS`*: wall-clock fields (per-phase
    /// nanoseconds, balance ratios, the derived speedup) are excluded,
    /// and everything mixed here is thread-count-invariant by engine
    /// construction. Resident bytes qualify because the memory
    /// attribution is computed from entry counts, not the allocator.
    pub fn determinism_checksum(&self) -> u64 {
        let mut acc: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            acc ^= v;
            acc = acc.wrapping_mul(0x0000_0100_0000_01B3);
        };
        for s in &self.scenarios {
            mix(fnv1a(s.spec.name.as_bytes()));
            mix(s.checksum);
            mix(s.sends);
            mix(s.deliveries);
            mix(s.peak_queue_depth as u64);
            mix(s.peak_resident_bytes_per_node);
        }
        mix(self.encode.bytes);
        mix(self.encode.checksum);
        acc
    }

    /// The machine-readable report (stable schema, see `SCHEMA`).
    pub fn to_json(&self) -> Json {
        let scenarios = self
            .scenarios
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::Str(s.spec.name.clone())),
                    ("n_nodes", Json::Num(s.spec.n_nodes as f64)),
                    ("recovery", Json::Bool(s.spec.recovery)),
                    ("measure_rounds", Json::Num(s.spec.measure_rounds as f64)),
                    ("wall_secs", Json::Num(s.wall_secs)),
                    ("rounds_per_sec", Json::Num(s.rounds_per_sec)),
                    ("node_rounds_per_sec", Json::Num(s.node_rounds_per_sec)),
                    ("messages_per_sec", Json::Num(s.messages_per_sec)),
                    ("events_per_sec", Json::Num(s.events_per_sec)),
                    ("sends", Json::Num(s.sends as f64)),
                    ("deliveries", Json::Num(s.deliveries as f64)),
                    ("peak_queue_depth", Json::Num(s.peak_queue_depth as f64)),
                    ("allocations", Json::Num(s.allocations as f64)),
                    ("allocs_per_round", Json::Num(s.allocs_per_round as f64)),
                    ("checksum", Json::Str(format!("{:#018x}", s.checksum))),
                    ("threads", Json::Num(s.threads as f64)),
                    ("speedup", Json::Num(s.speedup.unwrap_or(1.0))),
                    (
                        "phases",
                        Json::obj(
                            s.phase_ns
                                .iter()
                                .map(|&(label, ns)| (label, Json::Num(ns as f64))),
                        ),
                    ),
                    (
                        "shard_balance_ratio",
                        Json::Num(s.shard_balance_ratio.unwrap_or(1.0)),
                    ),
                    (
                        "peak_resident_bytes_per_node",
                        Json::Num(s.peak_resident_bytes_per_node as f64),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("schema", Json::Str(SCHEMA.into())),
            ("seed", Json::Num(self.seed as f64)),
            ("quick", Json::Bool(self.quick)),
            ("threads", Json::Num(self.threads as f64)),
            ("scenarios", Json::Arr(scenarios)),
            (
                "encode",
                Json::obj([
                    ("frames", Json::Num(self.encode.frames as f64)),
                    ("bytes", Json::Num(self.encode.bytes as f64)),
                    ("wall_secs", Json::Num(self.encode.wall_secs)),
                    ("bytes_per_sec", Json::Num(self.encode.bytes_per_sec)),
                    ("frames_per_sec", Json::Num(self.encode.frames_per_sec)),
                    (
                        "checksum",
                        Json::Str(format!("{:#018x}", self.encode.checksum)),
                    ),
                ]),
            ),
            (
                "determinism_checksum",
                Json::Str(format!("{:#018x}", self.determinism_checksum())),
            ),
        ])
    }

    /// The human summary table printed alongside the JSON.
    pub fn human_summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "perf sweep (seed {}, {} mode, {} thread{})\n",
            self.seed,
            if self.quick { "quick" } else { "full" },
            self.threads,
            if self.threads == 1 { "" } else { "s" }
        ));
        out.push_str(&format!(
            "  {:<16} {:>12} {:>14} {:>14} {:>12} {:>14} {:>9} {:>11}\n",
            "scenario",
            "rounds/s",
            "node-rounds/s",
            "messages/s",
            "peak queue",
            "allocs/round",
            "speedup",
            "bytes/node"
        ));
        for s in &self.scenarios {
            let speedup = s
                .speedup
                .map_or_else(|| "     -".to_string(), |v| format!("{v:>5.2}x"));
            out.push_str(&format!(
                "  {:<16} {:>12.2} {:>14.0} {:>14.0} {:>12} {:>14} {:>9} {:>11}\n",
                s.spec.name,
                s.rounds_per_sec,
                s.node_rounds_per_sec,
                s.messages_per_sec,
                s.peak_queue_depth,
                s.allocs_per_round,
                speedup,
                s.peak_resident_bytes_per_node,
            ));
        }
        for s in &self.scenarios {
            // Percentages are of the *top-level* total — nested phases
            // (route inside shard_exec) would otherwise be
            // double-counted in the denominator.
            let total: u64 = PHASES
                .iter()
                .zip(&s.phase_ns)
                .filter(|(p, _)| !p.nested())
                .map(|(_, &(_, ns))| ns)
                .sum();
            if total == 0 {
                continue;
            }
            let mut phases: Vec<_> = s.phase_ns.iter().filter(|&&(_, ns)| ns > 0).collect();
            phases.sort_by_key(|&(_, ns)| std::cmp::Reverse(ns));
            let top: Vec<String> = phases
                .iter()
                .take(3)
                .map(|&&(label, ns)| format!("{label} {:.0}%", ns as f64 * 100.0 / total as f64))
                .collect();
            let balance = s
                .shard_balance_ratio
                .map_or_else(String::new, |r| format!(", shard balance {r:.2}x"));
            out.push_str(&format!(
                "  {:<16} phases: {}{balance}\n",
                s.spec.name,
                top.join(", ")
            ));
        }
        out.push_str(&format!(
            "  encode: {:.1} MB/s ({:.0} frames/s)\n",
            self.encode.bytes_per_sec / 1e6,
            self.encode.frames_per_sec
        ));
        out.push_str(&format!(
            "  perf determinism checksum: {:#018x}\n",
            self.determinism_checksum()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec(recovery: bool) -> ScenarioSpec {
        ScenarioSpec {
            name: format!("tiny{}", if recovery { "-recovery" } else { "" }),
            n_nodes: 40,
            recovery,
            warmup_rounds: 2,
            measure_rounds: 4,
        }
    }

    #[test]
    fn scenario_runs_and_measures() {
        let r = run_scenario(&tiny_spec(false), 7);
        assert!(r.sends > 0);
        assert!(r.deliveries > 0);
        assert!(r.rounds_per_sec > 0.0);
        assert!(r.peak_queue_depth > 0);
        assert!(r.allocations > 0);
        assert_ne!(r.checksum, 0);
        // v3 attribution rode along (and its internal assertion already
        // proved the profiled re-run reproduced this checksum).
        assert_eq!(r.phase_ns.len(), PHASES.len());
        let exec = r
            .phase_ns
            .iter()
            .find(|(label, _)| *label == "shard_exec")
            .unwrap();
        assert!(exec.1 > 0, "shard execution took no time?");
        assert!(r.peak_resident_bytes_per_node > 0);
    }

    #[test]
    fn attribution_is_deterministic_where_it_claims_to_be() {
        let a = run_scenario(&tiny_spec(true), 11);
        let b = run_scenario(&tiny_spec(true), 11);
        // Bytes are entry-count arithmetic: exactly reproducible.
        assert_eq!(
            a.peak_resident_bytes_per_node,
            b.peak_resident_bytes_per_node
        );
        // Phase labels (not times) are stable.
        let labels = |r: &ScenarioResult| r.phase_ns.iter().map(|&(l, _)| l).collect::<Vec<_>>();
        assert_eq!(labels(&a), labels(&b));
    }

    #[test]
    fn same_seed_same_checksum_and_counts() {
        let a = run_scenario(&tiny_spec(true), 9);
        let b = run_scenario(&tiny_spec(true), 9);
        assert_eq!(a.checksum, b.checksum);
        assert_eq!(a.sends, b.sends);
        assert_eq!(a.deliveries, b.deliveries);
        assert_eq!(a.peak_queue_depth, b.peak_queue_depth);
    }

    #[test]
    fn encode_bench_is_deterministic_in_bytes() {
        let a = run_encode_bench(42, true);
        let b = run_encode_bench(42, true);
        assert_eq!(a.bytes, b.bytes);
        assert_eq!(a.checksum, b.checksum);
        assert!(a.bytes_per_sec > 0.0);
    }

    #[test]
    fn report_json_is_schema_shaped() {
        let report = PerfReport {
            seed: 42,
            quick: true,
            threads: 1,
            scenarios: vec![run_scenario(&tiny_spec(false), 42)],
            encode: run_encode_bench(42, true),
        };
        let json = report.to_json();
        assert_eq!(json.get("schema").unwrap().as_str(), Some(SCHEMA));
        let scenarios = json.get("scenarios").unwrap().as_arr().unwrap();
        for key in [
            "name",
            "rounds_per_sec",
            "messages_per_sec",
            "peak_queue_depth",
            "bytes_per_sec",
            "allocs_per_round",
            "phases",
            "shard_balance_ratio",
            "peak_resident_bytes_per_node",
        ] {
            let holder = if key == "bytes_per_sec" {
                json.get("encode").unwrap()
            } else {
                &scenarios[0]
            };
            assert!(holder.get(key).is_some(), "schema key {key} missing");
        }
        // And it round-trips through the parser.
        let parsed = Json::parse(&json.pretty()).unwrap();
        assert_eq!(parsed, json);
    }

    #[test]
    fn sweep_covers_scales_with_and_without_recovery() {
        let specs = ScenarioSpec::sweep(true);
        assert_eq!(specs.len(), 6);
        assert!(specs.iter().any(|s| s.n_nodes == 10_000 && s.recovery));
        assert!(specs.iter().any(|s| s.n_nodes == 10_000 && !s.recovery));
        let full = ScenarioSpec::sweep(false);
        assert!(full.iter().any(|s| s.n_nodes == 50_000));
        assert!(full.iter().any(|s| s.n_nodes == 100_000));
    }
}
