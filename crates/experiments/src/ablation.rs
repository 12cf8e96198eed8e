//! Ablations over the §3.4 configuration parameters.
//!
//! The paper discusses — but does not plot — how `γ` (randomized
//! increase), `W` (min-buffer window), `α` (EWMA weight) and `δinc`/`δdec`
//! trade reaction speed against stability. These sweeps quantify each knob
//! on a shrink-recovery scenario (a compressed Figure 9): after 20% of the
//! nodes shrink their buffers, how fast does the allowed rate converge,
//! how much does it oscillate, and what reliability survives?

use agb_metrics::Table;
use agb_types::{DurationMs, TimeMs};
use agb_workload::{Algorithm, GossipCluster};

use crate::common::{
    paper_cluster, quick_mode, ATOMICITY_THRESHOLD, MAX_RATE_SLOPE, N_NODES, N_SENDERS,
};
use crate::fig9::Fig9Config;

/// One ablation variant.
#[derive(Debug, Clone)]
pub struct Variant {
    /// Display label, e.g. `"gamma=0"`.
    pub label: String,
    /// Mutation applied to the calibrated adaptation config.
    pub apply: fn(&mut agb_core::AdaptationConfig),
}

/// Measured behaviour of one variant on the shrink scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// Variant label.
    pub label: String,
    /// Mean |relative allowed-rate change| per adjustment after
    /// convergence — the oscillation measure.
    pub oscillation: f64,
    /// Mean aggregate allowed rate in the post-shrink steady window.
    pub steady_allowed: f64,
    /// The ideal maximum after the shrink.
    pub ideal: f64,
    /// Atomicity over the post-shrink window.
    pub atomicity: f64,
}

fn scenario_config(seed: u64) -> Fig9Config {
    let mut c = Fig9Config::standard(seed);
    // Only the shrink phase matters here; keep it short.
    let t1 = if quick_mode() { 60 } else { 100 };
    let end = t1 + if quick_mode() { 100 } else { 160 };
    c.t1 = TimeMs::from_secs(t1);
    c.t2 = TimeMs::from_secs(end + 1_000); // never reached
    c.end = TimeMs::from_secs(end);
    c
}

/// Runs one variant on the shrink scenario.
pub fn run_variant(variant: &Variant, seed: u64) -> AblationRow {
    let scenario = scenario_config(seed);
    let mut cc = paper_cluster(
        Algorithm::Adaptive,
        scenario.base_buffer,
        scenario.offered,
        seed,
    );
    (variant.apply)(&mut cc.adaptation);
    let mut cluster = GossipCluster::build(cc);
    for node in scenario.affected_nodes() {
        cluster.schedule_resize(scenario.t1, node, scenario.shrink_to);
    }
    cluster.run_until(scenario.end);

    // Steady window: the second half of the post-shrink phase.
    let settle = scenario.t1 + (scenario.end - scenario.t1) / 2;
    let metrics = cluster.metrics();
    let allowed_series = metrics
        .allowed()
        .aggregate_series(DurationMs::from_secs(1), scenario.end);
    let steady: Vec<f64> = allowed_series
        .iter()
        .filter(|&&(t, _)| t >= settle)
        .map(|&(_, v)| v)
        .collect();
    let steady_allowed = steady.iter().sum::<f64>() / steady.len().max(1) as f64;
    let mut osc = 0.0;
    let mut osc_n = 0u32;
    for w in steady.windows(2) {
        if w[0] > 0.0 {
            osc += (w[1] - w[0]).abs() / w[0];
            osc_n += 1;
        }
    }
    let atomicity = metrics
        .deliveries()
        .atomicity(ATOMICITY_THRESHOLD, Some((settle, scenario.end)))
        .atomic_fraction;
    AblationRow {
        label: variant.label.clone(),
        oscillation: if osc_n == 0 {
            0.0
        } else {
            osc / f64::from(osc_n)
        },
        steady_allowed,
        ideal: MAX_RATE_SLOPE * scenario.shrink_to as f64,
        atomicity,
    }
}

/// The standard variant set: γ, W, α and δ sweeps around the calibrated
/// configuration.
pub fn standard_variants() -> Vec<Variant> {
    vec![
        Variant {
            label: "baseline".into(),
            apply: |_| {},
        },
        Variant {
            label: "gamma=0 (no increase)".into(),
            apply: |a| a.rate.gamma = 0.0,
        },
        Variant {
            label: "gamma=1 (synchronized)".into(),
            apply: |a| a.rate.gamma = 1.0,
        },
        Variant {
            label: "W=1 (no window)".into(),
            apply: |a| a.min_buff.window = 1,
        },
        Variant {
            label: "W=8 (long window)".into(),
            apply: |a| a.min_buff.window = 8,
        },
        Variant {
            label: "alpha=0.5 (jumpy avgAge)".into(),
            apply: |a| a.congestion.alpha = 0.5,
        },
        Variant {
            label: "delta_dec=0.5 (harsh)".into(),
            apply: |a| a.rate.delta_dec = 0.5,
        },
        Variant {
            label: "no relief".into(),
            apply: |a| a.congestion.no_drop_relief = false,
        },
        Variant {
            label: "m=2 smallest (§6 ext)".into(),
            apply: |a| a.min_buff.track = 2,
        },
    ]
}

/// Runs the whole variant set.
pub fn run(seed: u64) -> Vec<AblationRow> {
    standard_variants()
        .iter()
        .map(|v| run_variant(v, seed))
        .collect()
}

/// One row of the §2.2 flow-control comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowControlRow {
    /// Strategy label.
    pub label: String,
    /// Atomicity before the shrink.
    pub atomicity_before: f64,
    /// Atomicity after the shrink.
    pub atomicity_after: f64,
    /// Input rate after the shrink.
    pub input_after: f64,
}

/// §2.2's argument, measured: a token bucket statically calibrated for the
/// *initial* resources is safe — until resources change. Compares
/// unthrottled lpbcast, statically-throttled lpbcast (calibrated to 90% of
/// the pre-shrink maximum), and the adaptive mechanism across a runtime
/// buffer shrink.
pub fn flow_control_comparison(seed: u64) -> Vec<FlowControlRow> {
    let scenario = scenario_config(seed);
    let static_rate = MAX_RATE_SLOPE * scenario.base_buffer as f64 * 0.9;
    let strategies: Vec<(String, Algorithm)> = vec![
        ("lpbcast (unthrottled)".into(), Algorithm::Lpbcast),
        (
            format!("static rate {} msg/s (Fig. 3)", static_rate.round()),
            Algorithm::LpbcastStatic {
                rate_per_sender: static_rate / N_SENDERS as f64,
            },
        ),
        ("adaptive (Fig. 5)".into(), Algorithm::Adaptive),
    ];
    strategies
        .into_iter()
        .map(|(label, algorithm)| {
            let cc = paper_cluster(algorithm, scenario.base_buffer, scenario.offered, seed);
            let mut cluster = GossipCluster::build(cc);
            for node in scenario.affected_nodes() {
                cluster.schedule_resize(scenario.t1, node, scenario.shrink_to);
            }
            cluster.run_until(scenario.end);
            let metrics = cluster.metrics();
            let settle = scenario.t1 + (scenario.end - scenario.t1) / 2;
            let before = metrics
                .deliveries()
                .atomicity(
                    ATOMICITY_THRESHOLD,
                    Some((TimeMs::from_secs(20), scenario.t1)),
                )
                .atomic_fraction;
            let after = metrics
                .deliveries()
                .atomicity(ATOMICITY_THRESHOLD, Some((settle, scenario.end)))
                .atomic_fraction;
            let input_after = metrics.input_rate(settle, scenario.end);
            FlowControlRow {
                label,
                atomicity_before: before,
                atomicity_after: after,
                input_after,
            }
        })
        .collect()
}

/// Formats the flow-control comparison.
pub fn flow_control_table(rows: &[FlowControlRow]) -> Table {
    let mut t = Table::new(
        "Flow control under a runtime buffer shrink (§2.2): static calibration goes stale",
        &[
            "strategy",
            "atomicity before (%)",
            "atomicity after (%)",
            "input after (msg/s)",
        ],
    );
    for r in rows {
        t.row(&[
            r.label.clone(),
            agb_metrics::format_f64(r.atomicity_before * 100.0),
            agb_metrics::format_f64(r.atomicity_after * 100.0),
            agb_metrics::format_f64(r.input_after),
        ]);
    }
    t
}

/// Formats the ablation table.
pub fn table(rows: &[AblationRow]) -> Table {
    let mut t = Table::new(
        format!(
            "Ablation: shrink-recovery behaviour, {} nodes, {} senders",
            N_NODES, N_SENDERS
        ),
        &[
            "variant",
            "steady allowed (msg/s)",
            "ideal (msg/s)",
            "oscillation (|Δ|/val)",
            "atomicity (%)",
        ],
    );
    for r in rows {
        t.row(&[
            r.label.clone(),
            agb_metrics::format_f64(r.steady_allowed),
            agb_metrics::format_f64(r.ideal),
            format!("{:.3}", r.oscillation),
            agb_metrics::format_f64(r.atomicity * 100.0),
        ]);
    }
    t
}
