//! Scripted churn and fault injection for gossip broadcast experiments
//! on the deterministic simulator.
//!
//! The paper's adaptive mechanism exists to keep gossip reliable in
//! *perturbed* environments, yet its evaluation (and this reproduction's
//! figure harnesses) runs against a fixed membership with at most
//! independent loss. This crate opens the scenario axis: a declarative,
//! seed-deterministic fault-injection engine in the spirit of the
//! robustness studies of the gossip literature (tuneable gossip under
//! adversarial conditions, flooding-vs-gossip resilience).
//!
//! * [`ChaosSchedule`] — the vocabulary: crashes, restarts with state
//!   loss, protocol-level joins and graceful leaves, failure-detector
//!   evictions, sender burst storms, and the simulator's own fault
//!   windows (partitions, per-link latency/loss episodes, byte-adversary
//!   episodes);
//! * [`ChurnProfile`] — statistics-level scenario description compiled
//!   into one concrete schedule per seed;
//! * [`ChaosCluster`] — the executor: compiles a schedule's fault
//!   windows into the network configuration and its other events into
//!   engine actions on an [`agb_workload::GossipCluster`], probes
//!   membership views for convergence, and produces a [`ChaosSummary`]
//!   with a stable digest for determinism assertions.
//!
//! Churned nodes re-enter through the membership protocol itself
//! (bootstrap contact + subscription gossip), not by construction; with
//! the recovery layer enabled they also pull the history they missed.
//!
//! # Example
//!
//! A 20-node partial-view group where one node crashes, loses its state,
//! and rejoins — measured among correct nodes:
//!
//! ```
//! use agb_chaos::{ChaosCluster, ChaosSchedule};
//! use agb_membership::PartialViewConfig;
//! use agb_types::{DurationMs, NodeId, TimeMs};
//! use agb_workload::{Algorithm, ClusterConfig, MembershipKind};
//!
//! let mut schedule = ChaosSchedule::new();
//! schedule
//!     .crash(TimeMs::from_secs(10), NodeId::new(7))
//!     .restart(TimeMs::from_secs(20), NodeId::new(7));
//!
//! let mut config = ClusterConfig::new(20, 42);
//! config.membership = MembershipKind::Partial(PartialViewConfig::default());
//! config.n_senders = 2;
//! config.offered_rate = 4.0;
//!
//! let mut chaos = ChaosCluster::new(config, &schedule);
//! chaos.run_until(TimeMs::from_secs(45));
//! let summary = chaos.summary(
//!     (TimeMs::from_secs(2), TimeMs::from_secs(35)),
//!     DurationMs::from_secs(10),
//! );
//! assert!(summary.correct.avg_receiver_fraction > 0.9);
//! // Same seed, same schedule => same digest (replayable chaos).
//! assert_ne!(summary.digest(), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod profile;
mod schedule;
mod sim;

pub use profile::ChurnProfile;
pub use schedule::{ChaosEvent, ChaosSchedule};
pub use sim::{ChaosCluster, ChaosSummary, ConvergenceRecord};
