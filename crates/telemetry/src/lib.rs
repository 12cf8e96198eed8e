//! Live wall-clock telemetry for the threaded runtime cluster.
//!
//! `agb-trace` answers *why* a deterministic simulation behaved the way
//! it did, after the fact. This crate is the other half of the
//! observability story: what a **real, running** cluster is doing *right
//! now*, over real sockets, under real schedulers — where timestamps are
//! wall-clock and nothing is replayable. Both planes bucket their
//! distributions into the one plain [`Histogram`](agb_types::Histogram).
//! The pieces:
//!
//! * [`Counter`] / [`Gauge`] / [`WallHistogram`] — lock-free metric
//!   primitives. Counters and gauges are single atomics; histograms are
//!   fixed-bound bucket arrays of atomics with a CAS-maintained sum, so
//!   recording from a node's hot loop is a handful of relaxed atomic
//!   operations and the instrumentation can stay always-on.
//! * [`Registry`] — a named, labeled collection of those primitives.
//!   Registration (cold path) takes a mutex; every recorded sample
//!   (hot path) touches only atomics through cloned handles.
//! * [`Registry::render`] — Prometheus text exposition (format 0.0.4)
//!   with stable metric names and label order, usable without any
//!   sockets.
//! * [`TelemetryServer`] / [`scrape`] — a tiny std-only TCP responder
//!   answering `GET /metrics` per node, and the matching raw client.
//! * [`Snapshot`] / [`parse_text`] — the scraper side: parse exposition
//!   text back into typed series and [`merge`](Snapshot::merge) the
//!   per-node snapshots into cluster-wide aggregates — log-bucketed
//!   histograms merge exactly, so cluster-wide p50/p99/p999 come
//!   straight off the summed buckets.
//! * [`names`] — the metric vocabulary every runtime node registers.
//!
//! # Example
//!
//! ```
//! use agb_telemetry::{Registry, latency_seconds_bounds};
//!
//! let registry = Registry::new();
//! let sent = registry.counter(
//!     "agb_messages_sent_total",
//!     "Frames handed to the transport",
//!     &[("node", "3"), ("kind", "gossip")],
//! );
//! let latency = registry.histogram(
//!     "agb_delivery_latency_seconds",
//!     "Publish to delivery, end to end",
//!     &[("node", "3")],
//!     &latency_seconds_bounds(),
//! );
//! sent.inc();
//! latency.observe(0.042);
//!
//! let text = registry.render();
//! assert!(text.contains("agb_messages_sent_total{kind=\"gossip\",node=\"3\"} 1"));
//! assert!(text.contains("# TYPE agb_delivery_latency_seconds histogram"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod expose;
mod histogram;
mod metric;
pub mod names;
mod registry;
mod text;

pub use config::TelemetryConfig;
pub use expose::{scrape, TelemetryServer};
pub use histogram::{dwell_seconds_bounds, latency_seconds_bounds, log_bounds, WallHistogram};
pub use metric::{Counter, Gauge};
pub use registry::Registry;
pub use text::{parse_text, SeriesId, Snapshot};
