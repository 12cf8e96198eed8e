//! Workload generation and simulator glue for the gossip experiments.
//!
//! The paper's evaluation always has the same anatomy: a group of nodes
//! running one of the two protocols inside the event-driven simulator, a
//! sender population imposing an offered load, optional runtime resource
//! changes, and metrics collection. This crate packages that anatomy:
//!
//! * [`SenderModel`] / [`SenderProcess`] — constant-rate and Poisson
//!   offered-load generators with the blocking-sender semantics of
//!   Figure 3 (an application blocked on `BROADCAST` stops producing);
//! * [`GossipCluster`] — builds `n` protocol nodes (baseline or adaptive)
//!   into an [`agb_sim::Simulation`], wires the sender processes and a
//!   shared [`MetricsCollector`](agb_metrics::MetricsCollector), and
//!   schedules scenario controls: buffer resizes (the Figure 9 runtime
//!   changes), crashes, recoveries, restarts, joins, leaves, evictions and
//!   sender bursts;
//! * [`pubsub`] — the motivating publish/subscribe application: overlapping
//!   topic groups splitting each node's buffer budget.
//!
//! # Example
//!
//! ```
//! use agb_types::{DurationMs, TimeMs};
//! use agb_workload::{Algorithm, ClusterConfig, GossipCluster};
//!
//! let mut config = ClusterConfig::new(16, 42);
//! config.algorithm = Algorithm::Adaptive;
//! config.n_senders = 2;
//! config.offered_rate = 2.0; // aggregate msgs/s
//! let mut cluster = GossipCluster::build(config);
//! cluster.run_until(TimeMs::from_secs(30));
//! let report = cluster.metrics().atomicity_95(None);
//! assert!(report.messages > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
pub mod pubsub;
mod senders;

pub use agb_node::Algorithm;
pub use cluster::{ClusterConfig, GossipCluster, MembershipKind, PhaseModel};
pub use senders::{SenderModel, SenderProcess};
