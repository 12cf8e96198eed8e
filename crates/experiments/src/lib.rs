//! Reproduction harnesses for every figure in the paper's evaluation.
//!
//! | Module | Paper figure | What it regenerates |
//! |--------|--------------|---------------------|
//! | [`calibrate`] | §2.3, Fig. 4 | max sustainable rate per buffer size, critical age |
//! | [`fig2`] | Fig. 2 | reliability degradation vs input rate |
//! | [`fig4`] | Fig. 4 | maximum input rate vs buffer size |
//! | [`fig6`] | Fig. 6 | offered / allowed / maximum rates vs buffer size |
//! | [`fig7`] | Fig. 7(a,b,c) | input rate, output rate, drop age — lpbcast vs adaptive |
//! | [`fig8`] | Fig. 8(a,b) | avg % receivers, % atomic — lpbcast vs adaptive |
//! | [`fig9`] | Fig. 9(a,b) | dynamic buffer resize time series, sim + threaded runtime |
//! | [`ablation`] | §3.4 | parameter sensitivity (γ, W, α, δ) |
//! | [`recovery`] | — (beyond the paper) | atomicity under loss × buffer, pull-based recovery on/off |
//! | [`churn`] | — (beyond the paper) | delivery among correct nodes under scripted churn (`agb-chaos`), `CHURN.json` |
//! | [`maelstrom`] | — (beyond the paper) | Maelstrom-style workloads (broadcast / unique-ids / g-counter) over the line protocol (`agb-maelstrom`) |
//! | [`trace`] | — (beyond the paper) | causal dissemination tracing dashboard + `TRACE.json` (`agb-trace`) |
//! | [`telemetry`] | — (beyond the paper) | live wall-clock telemetry plane: scraped runtime cluster + SLO report + deterministic bridge leg, `TELEMETRY.json` (`agb-telemetry`) |
//! | [`topology`] | — (beyond the paper) | locality-biased sampling + probabilistic forwarding on structured overlays, `TOPOLOGY.json` (`agb-topology`) |
//! | [`profile`] | — (beyond the paper) | engine cost attribution: phase timers, shard balance, per-subsystem resident bytes, `PROFILE.json` + collapsed stacks (`agb-profile`) |
//! | [`resilience`] | — (beyond the paper) | φ-accrual failure detection + wire-level byte adversary under loss × corruption × churn, `RESILIENCE.json` (`agb-failure`) |
//!
//! Every harness returns plain data and a formatted [`agb_metrics::Table`],
//! and is invoked by the `repro` binary. The seven reports with a
//! committed seed-42 file (churn, maelstrom, trace, telemetry, topology,
//! resilience, profile) implement [`report::Report`], which
//! `repro <name>` and `repro verify` drive.
//! Set `AGB_QUICK=1` for CI-sized runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod calibrate;
pub mod churn;
pub mod common;
pub mod fig2;
pub mod fig4;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod maelstrom;
pub mod profile;
pub mod recovery;
pub mod report;
pub mod resilience;
pub mod telemetry;
pub mod topology;
pub mod trace;
