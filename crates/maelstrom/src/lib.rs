//! `agb-maelstrom` — the Maelstrom-style workload subsystem.
//!
//! The paper validates adaptive gossip only on its own broadcast
//! workload. This crate turns the reproduction into a system any
//! external checker can drive, by teaching it the Maelstrom line
//! protocol (one JSON document per line on stdin/stdout — the de-facto
//! standard harness interface for distributed-systems workloads) and
//! pitting lpbcast / adaptive / adaptive+recovery against standard
//! workloads under loss and partitions. Three layers:
//!
//! * [`protocol`] — [`Message`]/[`Body`]/[`Payload`]: `init`,
//!   `topology`, `broadcast`, `read`, `add` (grow-only counter),
//!   `generate` (unique ids) and their replies, plus the internal
//!   `gossip` payload (hex-encoded [`GossipFrame`] wire bytes) and the
//!   virtual-time `tick`. Built on the dependency-free
//!   [`agb_types::json`] model — no serde.
//! * [`node`] — [`MaelstromNode`]: a sans-IO adapter that bridges the
//!   line protocol onto any [`FrameProtocol`] (`init` → membership
//!   bootstrap, `topology` → the routing flavor's overlay hints, client
//!   RPCs → event injection, `tick` → gossip rounds). The same adapter runs
//!   under the in-process harness and — fed wall-clock ticks — as the
//!   real `maelstrom_node` binary under the Maelstrom jar.
//! * [`harness`] — [`run_workload`]/[`standard_suite`]: a deterministic
//!   in-process harness executing scripted workloads over the sharded
//!   simulation engine (seeded loss/latency/partition windows via
//!   [`NetworkConfig`]), checking broadcast validity + atomicity among
//!   correct nodes, unique-id global uniqueness and g-counter eventual
//!   convergence, and emitting a stable FNV digest plus a
//!   machine-readable JSON report (schema `agb-maelstrom/v1`). Wired
//!   into `repro maelstrom`.
//!
//! # Example
//!
//! ```
//! use agb_maelstrom::{HarnessConfig, WorkloadKind, run_workload};
//!
//! let mut config = HarnessConfig::new(WorkloadKind::Broadcast, 10, 42);
//! config.n_ops = 10;
//! let report = run_workload(&config);
//! assert!(report.passed(), "{:?}", report.properties);
//! assert_eq!(report.avg_fraction, 1.0); // clean network: fully atomic
//! ```
//!
//! [`FrameProtocol`]: agb_core::FrameProtocol
//! [`GossipFrame`]: agb_core::GossipFrame
//! [`NetworkConfig`]: agb_sim::NetworkConfig

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod node;
pub mod protocol;

pub use harness::{
    run_workload, standard_suite, standard_suite_threads, HarnessConfig, MaelstromSummary,
    Property, WorkloadReport,
};
pub use node::{Flavor, MaelstromNode, NodeConfig, WorkloadKind};
pub use protocol::{Body, Message, Payload, ProtoError};
