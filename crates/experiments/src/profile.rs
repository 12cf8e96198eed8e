//! Profiling experiment — `repro profile`: where does the engine round
//! go, and what does it keep resident?
//!
//! Adaptive + recovery clusters at 1k and 10k nodes (50k added in full
//! mode) run with the `agb-profile` profiler attached: RAII phase
//! timers around the engine's hot phases, per-shard busy-time balance,
//! and deterministic memory attribution across every instrumented
//! subsystem (event queue, protocol buffers, retransmission cache,
//! missing-event tracker, membership views). Each leg is re-run with
//! profiling *disabled* and the engine determinism checksums compared:
//! the profiler must be a pure observer.
//!
//! Output splits along the PR 7 wall-clock/determinism line:
//!
//! * The **phase table** (phase percentages, shard balance, nanoseconds)
//!   is wall-clock — it varies run to run and never feeds a digest.
//! * **`PROFILE.json`** carries only the deterministic subset — engine
//!   checksums, message/event counts, and the memory table (entry-count
//!   arithmetic, identical at any `AGB_THREADS`) — and `repro verify`
//!   replays it at several thread counts.
//! * An optional **collapsed-stack** file (`AGB_PROFILE_FLAME_OUT`)
//!   holds `leg;engine;phase count` lines for inferno-style flamegraph
//!   renderers.

use agb_metrics::Table;
use agb_profile::{MemTable, Phase, ProfileConfig, ProfilerSnapshot, PHASES, PROFILE_SCHEMA};
use agb_recovery::RecoveryConfig;
use agb_sim::NetworkConfig;
use agb_types::{fnv1a, json::Json, DurationMs, TimeMs};
use agb_workload::{Algorithm, ClusterConfig, GossipCluster, PhaseModel};

use crate::common::quick_mode;
use crate::report::{Report, WallClock};

/// Scale points: quick mode profiles 1k and 10k nodes; full mode adds
/// 50k.
pub fn scale_points(quick: bool) -> Vec<usize> {
    if quick {
        vec![1_000, 10_000]
    } else {
        vec![1_000, 10_000, 50_000]
    }
}

/// Virtual gossip rounds each leg runs.
pub fn rounds(quick: bool) -> u64 {
    if quick {
        8
    } else {
        15
    }
}

/// The cluster configuration of one leg: the perf harness's
/// adaptive + recovery shape, so phase attribution describes the same
/// system the throughput numbers do. `profiled` toggles the profiler;
/// engine results must not depend on it (checked by the parity re-run).
pub fn profile_cluster(n_nodes: usize, profiled: bool, seed: u64) -> ClusterConfig {
    let mut c = ClusterConfig::new(n_nodes, seed);
    c.algorithm = Algorithm::Adaptive;
    c.gossip.fanout = 4;
    c.gossip.gossip_period = DurationMs::from_secs(1);
    c.gossip.max_events = 60;
    c.gossip.max_event_ids = 5_000;
    c.gossip.age_cap = 10;
    c.adaptation.initial_rate = 5.0;
    c.n_senders = 10.min(n_nodes);
    c.offered_rate = 50.0;
    c.payload_size = 64;
    c.network = NetworkConfig::default();
    c.phases = PhaseModel::Synchronized;
    c.recovery = Some(RecoveryConfig::default());
    if profiled {
        c.profile = ProfileConfig::enabled();
    }
    c
}

/// One profiled leg plus its unprofiled parity re-run.
#[derive(Debug, Clone)]
pub struct ProfileRun {
    /// Leg label (`n1000` / `n10000` / `n50000`).
    pub label: String,
    /// Group size.
    pub n_nodes: usize,
    /// Frozen profiler state: phase totals, histograms, shard balance.
    pub snapshot: ProfilerSnapshot,
    /// Per-subsystem memory attribution at end of run (deterministic).
    pub mem: MemTable,
    /// Engine determinism checksum of the profiled run.
    pub engine_checksum: u64,
    /// Checksum of the identical scenario with profiling disabled.
    pub unprofiled_checksum: u64,
    /// Messages handed to the network.
    pub sends: u64,
    /// Messages delivered.
    pub deliveries: u64,
    /// Engine events processed.
    pub events_processed: u64,
}

impl ProfileRun {
    /// Whether profiling left the engine results untouched.
    pub fn parity(&self) -> bool {
        self.engine_checksum == self.unprofiled_checksum
    }

    /// Phase share of the top-level total, as a fraction.
    pub fn phase_fraction(&self, phase: Phase) -> f64 {
        let total = self.snapshot.top_level_total_ns();
        if total == 0 {
            return 0.0;
        }
        self.snapshot.phase(phase).total_ns as f64 / total as f64
    }
}

/// The whole report behind `repro profile` and `PROFILE.json`.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    /// The experiment seed.
    pub seed: u64,
    /// Whether quick mode sized the sweep.
    pub quick: bool,
    /// One entry per scale point, in run order.
    pub runs: Vec<ProfileRun>,
    /// Stable FNV fold of the deterministic subset (checksums, counts,
    /// memory rows) — identical at any `AGB_THREADS`.
    pub digest: u64,
}

impl ProfileReport {
    /// Inferno-compatible collapsed-stack text across all legs, each
    /// leg's phases rooted under its label (`n10000;engine;merge 812`).
    pub fn collapsed(&self) -> String {
        let mut out = String::new();
        for r in &self.runs {
            for line in r.snapshot.collapsed().lines() {
                out.push_str(&r.label);
                out.push(';');
                out.push_str(line);
                out.push('\n');
            }
        }
        out
    }
}

/// Folds the deterministic subset — never wall-clock nanoseconds.
fn digest(runs: &[ProfileRun]) -> u64 {
    let mut buf = Vec::new();
    for r in runs {
        buf.extend_from_slice(&fnv1a(r.label.as_bytes()).to_le_bytes());
        buf.extend_from_slice(&(r.n_nodes as u64).to_le_bytes());
        buf.extend_from_slice(&r.engine_checksum.to_le_bytes());
        buf.extend_from_slice(&r.unprofiled_checksum.to_le_bytes());
        buf.extend_from_slice(&r.sends.to_le_bytes());
        buf.extend_from_slice(&r.deliveries.to_le_bytes());
        buf.extend_from_slice(&r.events_processed.to_le_bytes());
        for (label, u) in r.mem.rows() {
            buf.extend_from_slice(&fnv1a(label.as_bytes()).to_le_bytes());
            buf.extend_from_slice(&u.bytes.to_le_bytes());
            buf.extend_from_slice(&u.entries.to_le_bytes());
        }
    }
    fnv1a(&buf)
}

/// Column headers: `metric` plus one column per leg.
fn headers(report: &ProfileReport) -> Vec<&str> {
    let mut h = vec!["metric"];
    h.extend(report.runs.iter().map(|r| r.label.as_str()));
    h
}

impl Report for ProfileReport {
    const NAME: &'static str = "profile";
    const FILE: &'static str = "PROFILE.json";
    /// The phase table: shares of engine time, nanoseconds, shard balance
    /// and allocation counts vary run to run. The JSON carries none of it.
    const WALL_CLOCK: WallClock = WallClock {
        json_keys: &[],
        tables: true,
    };

    /// Runs the profiled legs plus their unprofiled parity re-runs, and
    /// writes the collapsed stacks to `AGB_PROFILE_FLAME_OUT` when it is set.
    fn run(seed: u64) -> std::io::Result<Self> {
        let quick = quick_mode();
        let horizon = TimeMs::ZERO + DurationMs::from_secs(1).mul_f64(rounds(quick) as f64);
        let mut runs = Vec::new();
        for n in scale_points(quick) {
            let mut profiled = GossipCluster::build(profile_cluster(n, true, seed));
            if let Some(p) = profiled.profiler_mut() {
                // Allocation attribution rides on the repro binary's
                // counting allocator; a plain fn pointer, so wiring it is
                // harmless when the allocator is absent (counts stay 0).
                p.set_alloc_counter(agb_perf::alloc::allocation_count);
            }
            profiled.run_until(horizon);
            let stats = profiled.sim_stats();
            let snapshot = profiled
                .profiler_snapshot()
                .expect("profiling enabled on this leg");
            let mem = profiled.mem_table();

            let mut plain = GossipCluster::build(profile_cluster(n, false, seed));
            plain.run_until(horizon);

            runs.push(ProfileRun {
                label: format!("n{n}"),
                n_nodes: n,
                snapshot,
                mem,
                engine_checksum: stats.checksum,
                unprofiled_checksum: plain.sim_stats().checksum,
                sends: stats.sends,
                deliveries: stats.deliveries,
                events_processed: profiled.events_processed(),
            });
        }
        let digest = digest(&runs);
        let report = ProfileReport {
            seed,
            quick,
            runs,
            digest,
        };
        // Collapsed stacks for inferno-style flamegraph renderers
        // (wall-clock: never committed, never digested).
        if let Ok(path) = std::env::var("AGB_PROFILE_FLAME_OUT") {
            std::fs::write(&path, report.collapsed())
                .map_err(|e| std::io::Error::new(e.kind(), format!("cannot write {path}: {e}")))?;
        }
        Ok(report)
    }

    /// The where-does-the-round-go table (wall-clock), then the
    /// memory-attribution table (deterministic).
    fn tables(&self) -> Vec<Table> {
        // Per-phase share of top-level engine time, plus shard balance, one
        // column per scale point.
        let phases = {
            let mut t = Table::new(
                "Profile: where does the round go (share of engine time)",
                &headers(self),
            );
            for &phase in PHASES.iter() {
                let name = if phase.nested() {
                    format!("  \u{21b3} {}", phase.label())
                } else {
                    phase.label().to_string()
                };
                let mut cells = vec![name];
                cells.extend(
                    self.runs
                        .iter()
                        .map(|r| format!("{:.1}%", r.phase_fraction(phase) * 100.0)),
                );
                t.row(&cells);
            }
            let mut total = vec!["engine total (ms)".to_string()];
            total.extend(
                self.runs
                    .iter()
                    .map(|r| format!("{:.1}", r.snapshot.top_level_total_ns() as f64 / 1e6)),
            );
            t.row(&total);
            let mut balance = vec!["shard balance (mean max/min)".to_string()];
            balance.extend(self.runs.iter().map(|r| {
                r.snapshot
                    .mean_balance_ratio
                    .map_or_else(|| "-".to_string(), |v| format!("{v:.2}x"))
            }));
            t.row(&balance);
            let mut allocs = vec!["allocs attributed".to_string()];
            allocs.extend(self.runs.iter().map(|r| {
                let total: u64 = r.snapshot.phases.iter().map(|s| s.allocs).sum();
                total.to_string()
            }));
            t.row(&allocs);
            t
        };
        // Estimated resident bytes per node by subsystem, one column per
        // scale point.
        let memory = {
            let mut t = Table::new(
                "Profile: resident bytes per node by subsystem (deterministic)",
                &headers(self),
            );
            // Union of subsystem labels across legs, already sorted per leg.
            let mut labels: Vec<&str> = Vec::new();
            for r in &self.runs {
                for (label, _) in r.mem.rows() {
                    if !labels.contains(&label.as_str()) {
                        labels.push(label);
                    }
                }
            }
            labels.sort_unstable();
            for label in labels {
                let mut cells = vec![label.to_string()];
                cells.extend(self.runs.iter().map(|r| {
                    r.mem.rows().iter().find(|(l, _)| l == label).map_or_else(
                        || "-".to_string(),
                        |(_, u)| (u.bytes / r.mem.nodes()).to_string(),
                    )
                }));
                t.row(&cells);
            }
            let mut total = vec!["total".to_string()];
            total.extend(self.runs.iter().map(|r| r.mem.bytes_per_node().to_string()));
            t.row(&total);
            t
        };
        vec![phases, memory]
    }

    /// A leg fails when profiling moved its engine checksum, or it
    /// delivered nothing, recorded no shard-exec time or attributed no
    /// memory.
    fn failures(&self) -> Vec<String> {
        let mut out = Vec::new();
        for r in &self.runs {
            if !r.parity() {
                out.push(format!(
                    "{}: engine checksum diverged under profiling ({:#018x} profiled vs {:#018x} plain)",
                    r.label, r.engine_checksum, r.unprofiled_checksum
                ));
            }
            if r.deliveries == 0 {
                out.push(format!("{}: no deliveries", r.label));
            }
            if r.snapshot.phase(Phase::ShardExec).total_ns == 0 {
                out.push(format!("{}: no shard-exec time recorded", r.label));
            }
            if r.mem.total().bytes == 0 {
                out.push(format!("{}: no memory attributed", r.label));
            }
        }
        out
    }

    /// The machine-readable report (schema [`PROFILE_SCHEMA`]).
    ///
    /// Deliberately carries **only the deterministic subset** — no
    /// wall-clock nanoseconds, so the file is bit-identical across
    /// machines, runs, and thread counts and can be committed for the
    /// canonical seed.
    fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::from(PROFILE_SCHEMA)),
            ("seed", Json::from(self.seed)),
            ("quick", Json::Bool(self.quick)),
            (
                "runs",
                Json::Arr(
                    self.runs
                        .iter()
                        .map(|r| {
                            Json::obj([
                                ("label", Json::Str(r.label.clone())),
                                ("n_nodes", Json::from(r.n_nodes)),
                                (
                                    "engine_checksum",
                                    Json::Str(format!("{:#018x}", r.engine_checksum)),
                                ),
                                ("profile_parity", Json::Bool(r.parity())),
                                ("sends", Json::from(r.sends)),
                                ("deliveries", Json::from(r.deliveries)),
                                ("events_processed", Json::from(r.events_processed)),
                                (
                                    "mem",
                                    Json::obj([
                                        ("bytes_per_node", Json::from(r.mem.bytes_per_node())),
                                        ("nodes", Json::from(r.mem.nodes())),
                                        (
                                            "rows",
                                            Json::Arr(
                                                r.mem
                                                    .rows()
                                                    .iter()
                                                    .map(|(label, u)| {
                                                        Json::obj([
                                                            ("subsystem", Json::Str(label.clone())),
                                                            ("bytes", Json::from(u.bytes)),
                                                            ("entries", Json::from(u.entries)),
                                                        ])
                                                    })
                                                    .collect(),
                                            ),
                                        ),
                                    ]),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("digest", Json::Str(format!("{:#018x}", self.digest))),
        ])
    }

    fn digest(&self) -> u64 {
        self.digest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature leg exercising the full pipeline without the 1k/10k
    /// scale (those run under `repro profile` and `repro verify`).
    fn tiny_report(seed: u64) -> ProfileReport {
        let horizon = TimeMs::from_secs(6);
        let mut profiled = GossipCluster::build(profile_cluster(48, true, seed));
        profiled.run_until(horizon);
        let stats = profiled.sim_stats();
        let mut plain = GossipCluster::build(profile_cluster(48, false, seed));
        plain.run_until(horizon);
        let runs = vec![ProfileRun {
            label: "n48".into(),
            n_nodes: 48,
            snapshot: profiled.profiler_snapshot().unwrap(),
            mem: profiled.mem_table(),
            engine_checksum: stats.checksum,
            unprofiled_checksum: plain.sim_stats().checksum,
            sends: stats.sends,
            deliveries: stats.deliveries,
            events_processed: profiled.events_processed(),
        }];
        let digest = digest(&runs);
        ProfileReport {
            seed,
            quick: true,
            runs,
            digest,
        }
    }

    #[test]
    fn profiled_leg_keeps_parity_and_attributes_costs() {
        let report = tiny_report(5);
        assert_eq!(report.failures(), Vec::<String>::new());
        let r = &report.runs[0];
        assert!(r.phase_fraction(Phase::ShardExec) > 0.0);
        assert!(r.mem.bytes_per_node() > 0);
        let mem_labels: Vec<_> = r.mem.rows().iter().map(|(l, _)| l.as_str()).collect();
        assert!(mem_labels.contains(&"engine_event_queue"));
        assert!(mem_labels.contains(&"retransmission_cache"));
    }

    #[test]
    fn json_is_deterministic_subset_only() {
        let a = tiny_report(9);
        let b = tiny_report(9);
        // Bit-identical across runs: no wall-clock leaked into the JSON.
        assert_eq!(a.to_json().pretty(), b.to_json().pretty());
        assert_eq!(a.digest, b.digest);
        let json = a.to_json();
        assert_eq!(json.get("schema").unwrap().as_str(), Some(PROFILE_SCHEMA));
        let parsed = Json::parse(&json.pretty()).unwrap();
        assert_eq!(
            parsed.get("digest").unwrap().as_str(),
            Some(format!("{:#018x}", a.digest).as_str())
        );
        assert!(!json.pretty().contains("total_ns"));
    }

    #[test]
    fn tables_and_flame_render() {
        let report = tiny_report(11);
        let tables = report.tables();
        let phases = tables[0].to_string();
        assert!(phases.contains("shard_exec"));
        assert!(phases.contains("engine total (ms)"));
        let mem = tables[1].to_string();
        assert!(mem.contains("event_buffer"));
        assert!(mem.contains("total"));
        let flame = report.collapsed();
        assert!(flame.contains("n48;engine;"));
        for line in flame.lines() {
            let (stack, count) = line.rsplit_once(' ').unwrap();
            assert!(stack.starts_with("n48;engine"));
            count.parse::<u64>().unwrap();
        }
    }
}
