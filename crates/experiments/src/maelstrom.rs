//! `repro maelstrom` — the Maelstrom-style workload suite.
//!
//! Runs the standard three workloads of `agb-maelstrom` (broadcast
//! under 10% loss and a partition window, unique-ids, grow-only
//! counter — all over the line protocol on the deterministic engine),
//! prints one row per workload plus the checker verdicts, and reports
//! the folded FNV digest that `repro verify` replays and compares across
//! runs.

use agb_maelstrom::{standard_suite, MaelstromSummary};
use agb_metrics::Table;
use agb_types::json::Json;

use crate::common::quick_mode;
use crate::report::Report;

impl Report for MaelstromSummary {
    const NAME: &'static str = "maelstrom";
    const FILE: &'static str = "MAELSTROM.json";

    /// Runs the standard suite.
    fn run(seed: u64) -> std::io::Result<Self> {
        Ok(standard_suite(seed, quick_mode()))
    }

    /// The per-workload summary table.
    fn tables(&self) -> Vec<Table> {
        let mut t = Table::new(
            "Maelstrom workloads (line protocol over the deterministic engine)",
            &[
                "workload",
                "flavor",
                "nodes",
                "ops",
                "acked",
                "atomicity",
                "min",
                "drops",
                "verdict",
            ],
        );
        for r in &self.reports {
            t.row(&[
                r.workload.name().to_string(),
                r.flavor.name().to_string(),
                format!("{}", r.n_nodes),
                format!("{}", r.ops),
                format!("{}", r.acked),
                format!("{:.4}", r.avg_fraction),
                format!("{:.4}", r.min_fraction),
                format!("{}", r.drops),
                if r.passed() {
                    "pass".to_string()
                } else {
                    "FAIL".to_string()
                },
            ]);
        }
        vec![t]
    }

    /// Every failed checker property.
    fn failures(&self) -> Vec<String> {
        self.reports
            .iter()
            .flat_map(|r| {
                r.properties
                    .iter()
                    .filter(|p| !p.ok)
                    .map(move |p| format!("{}: {} — {}", r.workload.name(), p.name, p.detail))
            })
            .collect()
    }

    fn to_json(&self) -> Json {
        MaelstromSummary::to_json(self)
    }

    fn digest(&self) -> u64 {
        self.digest
    }
}
