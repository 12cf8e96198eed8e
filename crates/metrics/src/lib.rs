//! Metrics for gossip broadcast experiments.
//!
//! Every figure in the paper's evaluation is a function of four measurement
//! families, which this crate implements:
//!
//! * **delivery tracking** ([`DeliveryTracker`]) — which nodes delivered
//!   which message, yielding *average % of receivers* (Fig. 8(a)) and
//!   *atomicity*, the fraction of messages reaching more than 95% of the
//!   group (Fig. 2, 8(b), 9(b));
//! * **drop ages** ([`DropAgeStats`]) — the average age of messages purged
//!   by buffer overflow, the congestion signal itself (Fig. 7(c), §2.3);
//! * **rates** ([`RateMeter`], [`AllowedRateTracker`]) — admitted input,
//!   delivered output and the adaptive controller's allowed rate over time
//!   (Fig. 6, 7(a,b), 9(a));
//! * **recovery** ([`RecoveryStats`]) — graft/retransmission counters and
//!   the repair cost per delivery of the pull-based repair layer
//!   (`agb-recovery`);
//! * **churn** ([`MembershipTimeline`], [`CatchUpTracker`]) — per-node
//!   up/down intervals, delivery ratios among *correct* nodes, and
//!   post-rejoin catch-up latency for the fault-injection scenarios
//!   (`agb-chaos`).
//!
//! [`MetricsCollector`] glues them together: feed it every
//! [`ProtocolEvent`](agb_core::ProtocolEvent) drained from every node and
//! query the figure-ready aggregates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod churn;
mod collector;
mod delivery;
mod drop_age;
mod rates;
mod recovery;
mod report;

pub use churn::{CatchUpRecord, CatchUpTracker, MembershipTimeline};
pub use collector::MetricsCollector;
pub use delivery::{AtomicityReport, DeliveryTracker, MessageRecord, NodeSet};
pub use drop_age::DropAgeStats;
pub use rates::{AllowedRateTracker, RateMeter};
pub use recovery::RecoveryStats;
pub use report::{format_f64, Table};
