//! Churn experiment — delivery among correct nodes under rising scripted
//! churn (`agb-chaos`), comparing the static baseline, the adaptive
//! protocol, and adaptive + pull-based recovery.
//!
//! The scenario is the regime the paper leaves open: partial views, a
//! lossy network, aggressive purging, and a seed-deterministic schedule
//! of crashes with state-loss restarts, failure-detector evictions and
//! link-flap episodes. Crashed nodes are excluded from each message's
//! eligible receiver set ([`MembershipTimeline`]-based accounting), so
//! the reported ratios measure the protocol, not the outages; rejoining
//! nodes re-enter through subscription gossip and — with recovery — pull
//! the history they missed.
//!
//! [`MembershipTimeline`]: agb_metrics::MembershipTimeline

use agb_chaos::{ChaosCluster, ChaosSummary, ChurnProfile};
use agb_membership::PartialViewConfig;
use agb_metrics::Table;
use agb_recovery::RecoveryConfig;
use agb_types::{json::Json, DurationMs};
use agb_workload::{Algorithm, ClusterConfig, MembershipKind};

use crate::common::{paper_adaptation, quick_mode, Windows};
use crate::report::Report;

/// Schema identifier written into `CHURN.json`.
pub const CHURN_SCHEMA: &str = "agb-churn/v1";

/// Group size of the churn sweep.
pub const CHURN_NODES: usize = 40;
/// Crash rates swept (crashes per minute of virtual time).
pub const CHURN_RATES: [f64; 4] = [0.0, 4.0, 8.0, 16.0];
/// Publisher count (protected from churn so offered load is constant).
pub const CHURN_SENDERS: usize = 4;
/// Aggregate offered load, msgs/s.
pub const CHURN_RATE_MSGS: f64 = 10.0;
/// Gossip fanout — modest, so churn holes actually hurt.
pub const CHURN_FANOUT: usize = 3;
/// Age cap `k`: events leave buffers after 4 rounds.
pub const CHURN_AGE_CAP: u32 = 4;
/// Event-buffer capacity.
pub const CHURN_BUFFER: usize = 30;
/// Independent per-message network loss.
pub const CHURN_LOSS: f64 = 0.10;
/// Outage length of one crash.
pub const CHURN_OUTAGE: DurationMs = DurationMs::from_secs(8);
/// Per-message dissemination allowance when deciding which nodes were
/// correct.
pub const CHURN_HORIZON: DurationMs = DurationMs::from_secs(10);

/// Protocol variants compared by the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Baseline lpbcast, no adaptation, no recovery.
    Static,
    /// The adaptive protocol, no recovery.
    Adaptive,
    /// Adaptive wrapped in the pull-based recovery layer.
    AdaptiveRecovery,
}

impl Variant {
    /// All variants in sweep order.
    pub const ALL: [Variant; 3] = [
        Variant::Static,
        Variant::Adaptive,
        Variant::AdaptiveRecovery,
    ];

    /// Short display label.
    pub fn label(self) -> &'static str {
        match self {
            Variant::Static => "static",
            Variant::Adaptive => "adaptive",
            Variant::AdaptiveRecovery => "adaptive+rec",
        }
    }
}

/// Measurement windows of the churn runs.
pub fn churn_windows() -> Windows {
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

/// The cluster configuration of one sweep cell.
pub fn churn_cluster(variant: Variant, seed: u64) -> ClusterConfig {
    let mut c = ClusterConfig::lossy(CHURN_NODES, seed, CHURN_LOSS);
    c.membership = MembershipKind::Partial(PartialViewConfig::default());
    c.gossip.fanout = CHURN_FANOUT;
    c.gossip.age_cap = CHURN_AGE_CAP;
    c.gossip.max_events = CHURN_BUFFER;
    c.n_senders = CHURN_SENDERS;
    c.offered_rate = CHURN_RATE_MSGS;
    match variant {
        Variant::Static => {
            c.algorithm = Algorithm::Lpbcast;
        }
        Variant::Adaptive => {
            c.algorithm = Algorithm::Adaptive;
            c.adaptation = paper_adaptation(CHURN_RATE_MSGS / CHURN_SENDERS as f64);
        }
        Variant::AdaptiveRecovery => {
            c.algorithm = Algorithm::Adaptive;
            c.adaptation = paper_adaptation(CHURN_RATE_MSGS / CHURN_SENDERS as f64);
            c.recovery = Some(RecoveryConfig::default());
        }
    }
    c
}

/// The churn profile of one sweep cell: crashes with state-loss restarts
/// across the measurement window, two detector evictions per crash, and a
/// link flap per ~4 crashes/min of rate.
pub fn churn_profile(crashes_per_min: f64, windows: Windows) -> ChurnProfile {
    let (from, to) = windows.measure_interval();
    let mut p = ChurnProfile::crashes(
        CHURN_NODES,
        from,
        to,
        crashes_per_min,
        CHURN_OUTAGE,
        CHURN_SENDERS,
    );
    p.detectors = 2;
    p.detect_after = DurationMs::from_secs(2);
    p.link_flaps = (crashes_per_min / 4.0).round() as usize;
    p.flap_duration = DurationMs::from_secs(5);
    p.flap_extra_latency = DurationMs::from_millis(60);
    p.flap_extra_loss = 0.25;
    p
}

/// One measured cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnCell {
    /// The protocol variant.
    pub variant: Variant,
    /// The chaos run summary.
    pub summary: ChaosSummary,
}

/// One row of the sweep: all variants under the same churn schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnRow {
    /// Crashes per minute.
    pub crashes_per_min: f64,
    /// Cells in [`Variant::ALL`] order.
    pub cells: Vec<ChurnCell>,
}

/// Runs one cell: builds the cluster, compiles the schedule, measures.
pub fn run_cell(variant: Variant, crashes_per_min: f64, seed: u64) -> ChurnCell {
    let windows = churn_windows();
    let schedule = churn_profile(crashes_per_min, windows).generate(seed);
    let mut chaos = ChaosCluster::new(churn_cluster(variant, seed), &schedule);
    chaos.run_until(windows.total());
    let (from, to) = windows.measure_interval();
    // Leave the horizon inside the run: messages admitted at the window
    // edge still get their dissemination allowance before the cooldown
    // ends.
    let summary = chaos.summary(
        (from, to.min(windows.total() - CHURN_HORIZON)),
        CHURN_HORIZON,
    );
    ChurnCell { variant, summary }
}

/// The whole report behind `repro churn` and `CHURN.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnReport {
    /// The experiment seed.
    pub seed: u64,
    /// Whether quick mode sized the sweep.
    pub quick: bool,
    /// One row per crash rate, in [`CHURN_RATES`] order.
    pub rows: Vec<ChurnRow>,
}

impl Report for ChurnReport {
    const NAME: &'static str = "churn";
    const FILE: &'static str = "CHURN.json";

    /// Runs the full sweep.
    fn run(seed: u64) -> std::io::Result<Self> {
        let rows = CHURN_RATES
            .iter()
            .map(|&rate| ChurnRow {
                crashes_per_min: rate,
                cells: Variant::ALL
                    .iter()
                    .map(|&v| run_cell(v, rate, seed))
                    .collect(),
            })
            .collect();
        Ok(ChurnReport {
            seed,
            quick: quick_mode(),
            rows,
        })
    }

    /// The sweep as one table.
    fn tables(&self) -> Vec<Table> {
        let mut t = Table::new(
            format!(
                "Churn: delivery among correct nodes vs crash rate \
                 (n = {CHURN_NODES}, partial views, loss = {CHURN_LOSS}, \
                 fanout = {CHURN_FANOUT}, age cap = {CHURN_AGE_CAP})"
            ),
            &[
                "crashes/min",
                "correct delivery static (%)",
                "correct delivery adaptive (%)",
                "correct delivery adpt+rec (%)",
                "atomic adpt+rec (%)",
                "recovered events",
                "mean catch-up (ms)",
                "mean view convergence (ms)",
            ],
        );
        for r in &self.rows {
            let by = |v: Variant| {
                r.cells
                    .iter()
                    .find(|c| c.variant == v)
                    .expect("all variants present")
                    .summary
            };
            let rec = by(Variant::AdaptiveRecovery);
            t.row_f64(&[
                r.crashes_per_min,
                by(Variant::Static).correct.avg_receiver_fraction * 100.0,
                by(Variant::Adaptive).correct.avg_receiver_fraction * 100.0,
                rec.correct.avg_receiver_fraction * 100.0,
                rec.correct.atomic_fraction * 100.0,
                rec.recovered as f64,
                rec.mean_catch_up_ms.unwrap_or(0.0),
                rec.mean_convergence_ms.unwrap_or(0.0),
            ]);
        }
        vec![t]
    }

    /// The sweep measures and asserts nothing beyond its numbers.
    fn failures(&self) -> Vec<String> {
        Vec::new()
    }

    /// The machine-readable report (schema [`CHURN_SCHEMA`]): one object
    /// per crash rate × variant with the numbers the table prints and the
    /// cell's [`ChaosSummary::digest`].
    fn to_json(&self) -> Json {
        let ms = |v: Option<f64>| v.map_or(Json::Null, Json::Num);
        let cells = self.rows.iter().flat_map(|row| {
            row.cells.iter().map(move |cell| {
                let s = &cell.summary;
                Json::obj([
                    ("crashes_per_min", Json::Num(row.crashes_per_min)),
                    ("variant", Json::from(cell.variant.label())),
                    (
                        "correct_avg_receiver_fraction",
                        Json::Num(s.correct.avg_receiver_fraction),
                    ),
                    (
                        "correct_atomic_fraction",
                        Json::Num(s.correct.atomic_fraction),
                    ),
                    ("recovered", Json::from(s.recovered)),
                    ("mean_catch_up_ms", ms(s.mean_catch_up_ms)),
                    ("mean_convergence_ms", ms(s.mean_convergence_ms)),
                    ("digest", Json::Str(format!("{:#018x}", s.digest()))),
                ])
            })
        });
        Json::obj([
            ("schema", Json::from(CHURN_SCHEMA)),
            ("seed", Json::from(self.seed)),
            ("quick", Json::Bool(self.quick)),
            ("cells", Json::Arr(cells.collect())),
            ("digest", Json::Str(format!("{:#018x}", self.digest()))),
        ])
    }

    /// FNV fold of every cell's [`ChaosSummary::digest`], in sweep order.
    fn digest(&self) -> u64 {
        let mut bytes = Vec::with_capacity(self.rows.len() * Variant::ALL.len() * 8);
        for row in &self.rows {
            for cell in &row.cells {
                bytes.extend_from_slice(&cell.summary.digest().to_le_bytes());
            }
        }
        agb_types::fnv1a(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_validate_per_variant() {
        for v in Variant::ALL {
            let c = churn_cluster(v, 1);
            assert!(c.gossip.validate().is_ok());
            if v == Variant::AdaptiveRecovery {
                assert!(c.recovery.clone().expect("recovery on").validate().is_ok());
            } else {
                assert!(c.recovery.is_none());
            }
        }
        assert_eq!(Variant::Static.label(), "static");
    }

    #[test]
    fn profile_compiles_against_group() {
        let windows = churn_windows();
        let schedule = churn_profile(8.0, windows).generate(42);
        assert!(schedule.validate(CHURN_NODES).is_ok());
        assert!(!schedule.is_empty());
    }

    #[test]
    fn digest_is_order_sensitive_and_in_the_json() {
        let cell = |d: f64| ChurnCell {
            variant: Variant::Static,
            summary: ChaosSummary {
                raw: agb_metrics::AtomicityReport {
                    messages: 1,
                    avg_receiver_fraction: d,
                    atomic_fraction: d,
                },
                correct: agb_metrics::AtomicityReport {
                    messages: 1,
                    avg_receiver_fraction: d,
                    atomic_fraction: d,
                },
                delivered: 1,
                recovered: 0,
                overhead: 0.0,
                mean_catch_up_ms: None,
                stragglers: 0,
                mean_convergence_ms: None,
                unconverged: 0,
                checksum: 7,
            },
        };
        let report = |cells| ChurnReport {
            seed: 0,
            quick: true,
            rows: vec![ChurnRow {
                crashes_per_min: 0.0,
                cells,
            }],
        };
        let a = report(vec![cell(0.5), cell(0.9)]);
        let b = report(vec![cell(0.9), cell(0.5)]);
        assert_ne!(a.digest(), b.digest());
        assert_eq!(a.digest(), a.clone().digest());
        // The JSON carries the fold and one object per cell.
        let json = a.to_json();
        assert_eq!(json.get("schema").unwrap().as_str(), Some(CHURN_SCHEMA));
        assert_eq!(
            json.get("digest").unwrap().as_str(),
            Some(format!("{:#018x}", a.digest()).as_str())
        );
        assert_eq!(json.get("cells").unwrap().as_arr().unwrap().len(), 2);
    }
}
