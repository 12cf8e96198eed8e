//! Resilience experiment — `repro resilience`: the failure-detection
//! plane (`agb-failure`) under loss × corruption × churn.
//!
//! Six legs share one cluster shape (partial views, adaptive buffering,
//! pull-based recovery, full trace capture) and differ only in the fault
//! regime and in who evicts crashed nodes:
//!
//! | leg | loss | byte adversary | churn | eviction |
//! |---|---|---|---|---|
//! | `no-fault` | 0 | — | — | φ-accrual detector (must stay silent) |
//! | `loss` | 10% | — | — | φ-accrual detector |
//! | `corruption` | 0 | bit-flip/truncate/dup/reorder | — | φ-accrual detector |
//! | `loss+corruption` | 10% | bit-flip/truncate/dup/reorder | — | φ-accrual detector |
//! | `churn-scripted` | 10% | — | crashes + restarts | scripted (oracle evicts 2 s after each crash) |
//! | `churn-detector` | 10% | — | crashes + restarts | φ-accrual detector (no script) |
//!
//! The headline claims checked by its [`Report::failures`] mirror the
//! acceptance criteria of the failure-detection PR:
//!
//! 1. detector-driven eviction matches or beats the scripted oracle on
//!    correct-node atomicity under churn (`churn-detector` ≥
//!    `churn-scripted`);
//! 2. the detector produces **zero** false evictions — and zero
//!    suspicions — on the fault-free leg;
//! 3. dissemination survives every fault regime (per-leg delivery
//!    floors), and the byte adversary demonstrably fired on the
//!    corruption legs while leaking into no other leg.
//!
//! The report is written as `RESILIENCE.json` (schema
//! [`RESILIENCE_SCHEMA`]) with a stable digest; because verdicts ride on
//! virtual time in canonical order, the digest is bit-identical at every
//! engine thread count (`AGB_THREADS`), which `repro verify` replays.

use agb_chaos::{ChaosCluster, ChaosSchedule, ChaosSummary, ChurnProfile};
use agb_failure::{AdversaryConfig, DetectorConfig};
use agb_membership::PartialViewConfig;
use agb_metrics::Table;
use agb_recovery::RecoveryConfig;
use agb_trace::{TraceConfig, TraceSummary};
use agb_types::{fnv1a, json::Json, DurationMs, NodeId, TimeMs};
use agb_workload::{Algorithm, ClusterConfig, MembershipKind};

use crate::common::{paper_adaptation, quick_mode, Windows};
use crate::report::{metric_row, Report};

/// Schema tag of `RESILIENCE.json`.
pub const RESILIENCE_SCHEMA: &str = "agb-resilience-report/v1";

/// Group size of every leg.
pub const RES_NODES: usize = 40;
/// Publisher count (protected from churn so offered load is constant).
pub const RES_SENDERS: usize = 4;
/// Aggregate offered load, msgs/s.
pub const RES_RATE: f64 = 10.0;
/// Gossip fanout — modest, so faults actually hurt.
pub const RES_FANOUT: usize = 3;
/// Age cap `k`: events leave buffers after 4 rounds.
pub const RES_AGE_CAP: u32 = 4;
/// Event-buffer capacity.
pub const RES_BUFFER: usize = 30;
/// Independent per-message network loss of the lossy legs.
pub const RES_LOSS: f64 = 0.10;
/// Bit-flip probability of the adversary legs (truncation rides at a
/// third of it, duplication and reordering at 5% each).
pub const RES_CORRUPTION: f64 = 0.15;
/// Crash rate of the churn legs, crashes per minute of virtual time.
pub const RES_CRASHES_PER_MIN: f64 = 8.0;
/// Outage length of one crash — long enough for the detector to evict
/// well before the victim restarts.
pub const RES_OUTAGE: DurationMs = DurationMs::from_secs(10);
/// Per-message dissemination allowance when deciding which nodes were
/// correct.
pub const RES_HORIZON: DurationMs = DurationMs::from_secs(10);

/// Measurement windows of the resilience runs.
pub fn resilience_windows() -> Windows {
    if quick_mode() {
        Windows {
            warmup: DurationMs::from_secs(10),
            measure: DurationMs::from_secs(50),
            cooldown: DurationMs::from_secs(15),
        }
    } else {
        Windows {
            warmup: DurationMs::from_secs(15),
            measure: DurationMs::from_secs(90),
            cooldown: DurationMs::from_secs(20),
        }
    }
}

/// The sim-side detector tuning: default φ thresholds are sized for the
/// wall-clock runtime; here eviction is pulled in to ~4–5 silent rounds
/// so it lands inside [`RES_OUTAGE`] with margin, while the fault-free
/// leg still must stay completely quiet (gate 2).
pub fn resilience_detector() -> DetectorConfig {
    DetectorConfig {
        evict_phi: 2.0,
        ..DetectorConfig::default()
    }
}

/// The byte-adversary mix of the corruption legs.
pub fn adversary_faults(rate: f64) -> AdversaryConfig {
    AdversaryConfig {
        corrupt: rate,
        truncate: rate / 3.0,
        duplicate: 0.05,
        reorder: 0.05,
        reorder_delay: DurationMs::from_millis(40),
    }
}

/// One cell of the fault grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LegSpec {
    /// Leg label (doubles as the trace-summary label and JSON key).
    pub label: &'static str,
    /// Independent per-message loss.
    pub loss: f64,
    /// Byte-adversary bit-flip rate (`0` = adversary off).
    pub corruption: f64,
    /// Crash rate (`0` = no churn).
    pub crashes_per_min: f64,
    /// φ-accrual detector on.
    pub detector: bool,
    /// Scripted oracle evictions on (mutually exclusive with `detector`
    /// in this sweep, so the churn pair isolates the eviction mechanism).
    pub scripted: bool,
}

/// All legs in run order.
pub fn legs() -> [LegSpec; 6] {
    let grid = |label, loss, corruption| LegSpec {
        label,
        loss,
        corruption,
        crashes_per_min: 0.0,
        detector: true,
        scripted: false,
    };
    [
        grid("no-fault", 0.0, 0.0),
        grid("loss", RES_LOSS, 0.0),
        grid("corruption", 0.0, RES_CORRUPTION),
        grid("loss+corruption", RES_LOSS, RES_CORRUPTION),
        LegSpec {
            label: "churn-scripted",
            loss: RES_LOSS,
            corruption: 0.0,
            crashes_per_min: RES_CRASHES_PER_MIN,
            detector: false,
            scripted: true,
        },
        LegSpec {
            label: "churn-detector",
            loss: RES_LOSS,
            corruption: 0.0,
            crashes_per_min: RES_CRASHES_PER_MIN,
            detector: true,
            scripted: false,
        },
    ]
}

/// The cluster configuration of one leg.
pub fn resilience_cluster(spec: &LegSpec, seed: u64) -> ClusterConfig {
    let mut c = ClusterConfig::lossy(RES_NODES, seed, spec.loss);
    c.membership = MembershipKind::Partial(PartialViewConfig::default());
    c.gossip.fanout = RES_FANOUT;
    c.gossip.age_cap = RES_AGE_CAP;
    c.gossip.max_events = RES_BUFFER;
    c.n_senders = RES_SENDERS;
    c.offered_rate = RES_RATE;
    c.algorithm = Algorithm::Adaptive;
    c.adaptation = paper_adaptation(RES_RATE / RES_SENDERS as f64);
    c.recovery = Some(RecoveryConfig::default());
    c.trace = TraceConfig::enabled();
    if spec.detector {
        c.detector = Some(resilience_detector());
    }
    c
}

/// The chaos schedule of one leg: churn (with or without scripted
/// evictions) plus an adversary window spanning the whole run.
pub fn resilience_schedule(spec: &LegSpec, seed: u64) -> ChaosSchedule {
    let windows = resilience_windows();
    let mut schedule = if spec.crashes_per_min > 0.0 {
        let (from, to) = windows.measure_interval();
        let mut p = ChurnProfile::crashes(
            RES_NODES,
            from,
            to,
            spec.crashes_per_min,
            RES_OUTAGE,
            RES_SENDERS,
        );
        p.detectors = if spec.scripted { 2 } else { 0 };
        p.detect_after = DurationMs::from_secs(2);
        p.generate(seed)
    } else {
        ChaosSchedule::new()
    };
    if spec.corruption > 0.0 {
        let everyone: Vec<NodeId> = (0..RES_NODES as u32).map(NodeId::new).collect();
        schedule.adversary(
            TimeMs::ZERO,
            windows.total(),
            everyone,
            adversary_faults(spec.corruption),
        );
    }
    schedule
}

/// One measured leg.
#[derive(Debug, Clone)]
pub struct ResilienceLeg {
    /// The fault-grid cell.
    pub spec: LegSpec,
    /// Windowed delivery aggregates (raw and correct-node).
    pub summary: ChaosSummary,
    /// The captured trace, aggregated (detection-plane counters live
    /// here: heartbeats, suspicions, detector evictions, rejoins).
    pub trace: TraceSummary,
    /// Datagrams the byte adversary mutated.
    pub corrupted_frames: u64,
}

impl ResilienceLeg {
    fn to_json(&self) -> Json {
        let counts = &self.trace.counts;
        Json::obj([
            ("label", Json::from(self.spec.label)),
            ("loss", Json::Num(self.spec.loss)),
            ("corruption", Json::Num(self.spec.corruption)),
            ("crashes_per_min", Json::Num(self.spec.crashes_per_min)),
            ("detector", Json::Bool(self.spec.detector)),
            ("scripted_evictions", Json::Bool(self.spec.scripted)),
            ("messages", Json::from(self.summary.correct.messages)),
            (
                "atomic_fraction",
                Json::Num(self.summary.correct.atomic_fraction),
            ),
            (
                "avg_receiver_fraction",
                Json::Num(self.summary.correct.avg_receiver_fraction),
            ),
            (
                "raw_avg_receiver_fraction",
                Json::Num(self.summary.raw.avg_receiver_fraction),
            ),
            ("recovered", Json::from(self.summary.recovered)),
            ("heartbeats", Json::from(counts.heartbeats)),
            ("suspects", Json::from(counts.suspects)),
            ("detector_evicts", Json::from(counts.detector_evicts)),
            ("rejoins", Json::from(counts.rejoins)),
            ("corrupted_frames", Json::from(self.corrupted_frames)),
            (
                "summary_digest",
                Json::Str(format!("{:#018x}", self.summary.digest())),
            ),
            (
                "trace_digest",
                Json::Str(format!("{:#018x}", self.trace.stable_digest)),
            ),
        ])
    }
}

/// The whole report behind `repro resilience` and `RESILIENCE.json`.
#[derive(Debug, Clone)]
pub struct ResilienceReport {
    /// The experiment seed.
    pub seed: u64,
    /// Whether quick mode sized the scenario.
    pub quick: bool,
    /// Group size.
    pub n_nodes: usize,
    /// One entry per cell, in [`legs`] order.
    pub legs: Vec<ResilienceLeg>,
    /// Stable FNV fold of every leg's summary digest and trace digest.
    pub digest: u64,
}

impl ResilienceReport {
    /// The leg with the given label.
    pub fn leg(&self, label: &str) -> Option<&ResilienceLeg> {
        self.legs.iter().find(|l| l.spec.label == label)
    }
}

/// Runs one leg: builds the cluster, compiles the schedule, measures.
pub fn run_leg(spec: LegSpec, seed: u64) -> ResilienceLeg {
    let windows = resilience_windows();
    let schedule = resilience_schedule(&spec, seed);
    let mut chaos = ChaosCluster::new(resilience_cluster(&spec, seed), &schedule);
    chaos.run_until(windows.total());
    let (from, to) = windows.measure_interval();
    // Leave the horizon inside the run: messages admitted at the window
    // edge still get their dissemination allowance before the cooldown
    // ends.
    let summary = chaos.summary((from, to.min(windows.total() - RES_HORIZON)), RES_HORIZON);
    let trace = chaos.trace_summary(spec.label).expect("tracing enabled");
    let corrupted_frames = chaos.sim_stats().corrupted;
    ResilienceLeg {
        spec,
        summary,
        trace,
        corrupted_frames,
    }
}

impl Report for ResilienceReport {
    const NAME: &'static str = "resilience";
    const FILE: &'static str = "RESILIENCE.json";

    /// Runs the full grid.
    fn run(seed: u64) -> std::io::Result<Self> {
        let legs: Vec<ResilienceLeg> = legs().iter().map(|&spec| run_leg(spec, seed)).collect();
        let mut buf = Vec::with_capacity(legs.len() * 16);
        for leg in &legs {
            buf.extend_from_slice(&leg.summary.digest().to_le_bytes());
            buf.extend_from_slice(&leg.trace.stable_digest.to_le_bytes());
        }
        Ok(ResilienceReport {
            seed,
            quick: quick_mode(),
            n_nodes: RES_NODES,
            legs,
            digest: fnv1a(&buf),
        })
    }

    /// The headline dashboard: one column per leg.
    fn tables(&self) -> Vec<Table> {
        let mut headers = vec!["metric"];
        headers.extend(self.legs.iter().map(|l| l.spec.label));
        let mut t = Table::new(
            format!(
                "Resilience: φ-accrual detection + wire adversary + churn \
                 (n = {}, loss = {RES_LOSS}, corruption = {RES_CORRUPTION}, \
                 {RES_CRASHES_PER_MIN} crashes/min)",
                self.n_nodes
            ),
            &headers,
        );
        let legs = &self.legs;
        metric_row(
            &mut t,
            "atomic fraction (correct)",
            legs.iter().map(|l| l.summary.correct.atomic_fraction),
        );
        metric_row(
            &mut t,
            "avg receiver fraction (correct)",
            legs.iter().map(|l| l.summary.correct.avg_receiver_fraction),
        );
        metric_row(
            &mut t,
            "messages measured",
            legs.iter().map(|l| l.summary.correct.messages as f64),
        );
        metric_row(
            &mut t,
            "recovered events",
            legs.iter().map(|l| l.summary.recovered as f64),
        );
        metric_row(
            &mut t,
            "heartbeats",
            legs.iter().map(|l| l.trace.counts.heartbeats as f64),
        );
        metric_row(
            &mut t,
            "suspicions",
            legs.iter().map(|l| l.trace.counts.suspects as f64),
        );
        metric_row(
            &mut t,
            "detector evictions",
            legs.iter().map(|l| l.trace.counts.detector_evicts as f64),
        );
        metric_row(
            &mut t,
            "rejoins",
            legs.iter().map(|l| l.trace.counts.rejoins as f64),
        );
        metric_row(
            &mut t,
            "corrupted frames",
            legs.iter().map(|l| l.corrupted_frames as f64),
        );
        vec![t]
    }

    /// The headline claims of the module docs, plus per-leg liveness.
    fn failures(&self) -> Vec<String> {
        let mut out = Vec::new();
        for leg in &self.legs {
            let label = leg.spec.label;
            if leg.summary.correct.messages == 0 {
                out.push(format!("{label}: no messages measured"));
            }
            // Gate 3a: dissemination survives the fault regime. Churn legs
            // are judged on correct-node delivery, fault-only legs on raw.
            let (fraction, floor) = if leg.spec.crashes_per_min > 0.0 {
                (leg.summary.correct.avg_receiver_fraction, 0.85)
            } else {
                (leg.summary.raw.avg_receiver_fraction, 0.90)
            };
            if fraction < floor {
                out.push(format!(
                    "{label}: dissemination collapsed (receiver fraction {fraction:.3} < {floor})"
                ));
            }
            // Gate 3b: the adversary fired exactly where configured.
            if leg.spec.corruption > 0.0 && leg.corrupted_frames == 0 {
                out.push(format!("{label}: byte adversary never fired"));
            }
            if leg.spec.corruption == 0.0 && leg.corrupted_frames > 0 {
                out.push(format!(
                    "{label}: {} corrupted frames leaked into an adversary-free leg",
                    leg.corrupted_frames
                ));
            }
            // The detection plane must actually be live wherever it is on.
            if leg.spec.detector && leg.trace.counts.heartbeats == 0 {
                out.push(format!("{label}: detector on but no heartbeats traced"));
            }
        }
        // Gate 2: zero false positives on the fault-free leg.
        if let Some(nofault) = self.leg("no-fault") {
            let c = &nofault.trace.counts;
            if c.detector_evicts > 0 || c.suspects > 0 {
                out.push(format!(
                    "no-fault: false positives ({} suspicions, {} evictions)",
                    c.suspects, c.detector_evicts
                ));
            }
        } else {
            out.push("no-fault leg missing".into());
        }
        // Gate 1: the detector matches or beats the scripted oracle.
        match (self.leg("churn-detector"), self.leg("churn-scripted")) {
            (Some(det), Some(scripted)) => {
                if det.trace.counts.detector_evicts == 0 {
                    out.push("churn-detector: detector never evicted a crashed node".into());
                }
                let (d, s) = (
                    det.summary.correct.atomic_fraction,
                    scripted.summary.correct.atomic_fraction,
                );
                if d < s {
                    out.push(format!(
                        "churn: detector-driven eviction lost to the scripted oracle \
                         (atomicity {d:.4} < {s:.4})"
                    ));
                }
            }
            _ => out.push("churn legs missing".into()),
        }
        out
    }

    /// The machine-readable report (schema [`RESILIENCE_SCHEMA`]).
    fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::from(RESILIENCE_SCHEMA)),
            ("seed", Json::from(self.seed)),
            ("quick", Json::Bool(self.quick)),
            ("n_nodes", Json::from(self.n_nodes)),
            (
                "legs",
                Json::Arr(self.legs.iter().map(ResilienceLeg::to_json).collect()),
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

    #[test]
    fn configs_validate_per_leg() {
        for spec in legs() {
            let c = resilience_cluster(&spec, 1);
            assert!(c.gossip.validate().is_ok());
            assert_eq!(c.detector.is_some(), spec.detector);
            assert!(c.trace.enabled);
            assert!(c.recovery.is_some());
            let schedule = resilience_schedule(&spec, 42);
            assert!(schedule.validate(RES_NODES).is_ok());
            // Churn legs have a schedule; the no-fault leg has none.
            assert_eq!(
                schedule.is_empty(),
                spec.crashes_per_min == 0.0 && spec.corruption == 0.0
            );
        }
        assert!(!resilience_detector().heartbeat || resilience_detector().monitors > 0);
    }

    #[test]
    fn report_meets_the_headline_claims() {
        let report = ResilienceReport::run(42).unwrap();
        assert_eq!(report.legs.len(), 6);
        assert_eq!(report.failures(), Vec::<String>::new());
        // The JSON round-trips and carries the schema + digest.
        let json = report.to_json();
        assert_eq!(
            json.get("schema").unwrap().as_str(),
            Some(RESILIENCE_SCHEMA)
        );
        let parsed = Json::parse(&json.pretty()).unwrap();
        assert_eq!(
            parsed.get("digest").unwrap().as_str(),
            Some(format!("{:#018x}", report.digest).as_str())
        );
        // The table renders one column per leg.
        let overview = report.tables()[0].to_string();
        assert!(overview.contains("churn-detector"));
        assert!(overview.contains("detector evictions"));
    }

    #[test]
    fn single_leg_is_k_invariant() {
        let spec = legs()[5];
        assert_eq!(spec.label, "churn-detector");
        let schedule = resilience_schedule(&spec, 9);
        let run_leg = |threads: usize| {
            let mut c = resilience_cluster(&spec, 9);
            c.threads = threads;
            let mut chaos = ChaosCluster::new(c, &schedule);
            chaos.cluster_mut().set_parallel_threshold(1);
            chaos.run_until(TimeMs::from_secs(40));
            (
                chaos.sim_stats().checksum,
                chaos.trace_summary("k").unwrap().stable_digest,
            )
        };
        assert_eq!(run_leg(1), run_leg(4));
    }
}
