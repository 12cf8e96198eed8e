//! Deterministic causal dissemination tracing for the gossip stack.
//!
//! Aggregate metrics (`agb-metrics`) say *that* a configuration delivered
//! 97% of its messages; this crate says *how*: which hops carried each
//! event, which copies were redundant, which buffer purged it and why,
//! and which `Graft` round-trip repaired it. The pieces:
//!
//! * [`TraceRecord`] / [`TraceKind`] — typed protocol-level events
//!   (Publish, Relay, Deliver, Duplicate, Drop by cause, IHave / Graft /
//!   Retransmit round-trips, view changes, crash/restart, buffer
//!   occupancy), each stamped with time, gossip round, the observing
//!   node, and — where applicable — peer, event id and hop count.
//! * [`Recorder`] — the consumer: a bounded ring of raw records plus
//!   streaming aggregates (per-kind [`TraceCounts`], fixed-bucket
//!   [`Histogram`](agb_types::Histogram)s for delivery latency in
//!   rounds, hops-to-delivery, buffer occupancy and recovery RTT, and
//!   per-event-id dissemination [`TreeBuilder`] stats), folded into an
//!   order-sensitive FNV digest.
//! * [`TraceProbe`] — the harness-side producer: maps
//!   [`ProtocolEvent`](agb_core::ProtocolEvent)s and observed
//!   [`GossipFrame`](agb_core::GossipFrame)s into records, buffering
//!   them locally so a `Send` node can be driven on worker threads and
//!   flushed into the shared [`Recorder`] at the engine's canonical
//!   merge point (the same post-event-hook path `agb-metrics` uses).
//!   With the deterministic sharded engine this makes the trace stream —
//!   and therefore the digest — bit-identical at every `AGB_THREADS`.
//! * [`TraceSummary`] — the post-run report (schema `agb-trace/v1`),
//!   JSON-serializable with a stable digest for CI replay comparison.
//!
//! Tracing is disabled by default and adds only a branch per handler
//! when off; recording never feeds back into protocol or engine state,
//! so engine checksums are identical with tracing on and off.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod probe;
mod record;
mod recorder;
mod summary;
mod tree;

pub use config::TraceConfig;
pub use probe::TraceProbe;
pub use record::{DropCause, TraceKind, TraceRecord};
pub use recorder::{Recorder, TraceCounts};
pub use summary::{TraceSummary, TRACE_SCHEMA};
pub use tree::{TreeBuilder, TreeStats};
