//! The runtime's metric vocabulary.
//!
//! Each runtime node registers every series below when its telemetry is
//! built, before the node thread starts, so every scrape of a node lists
//! the whole table. `TELEMETRY.json` pins the resulting series list
//! (every label but `node`), and `repro verify` fails when a series
//! appears or vanishes.
//!
//! | Metric | Type | Labels | Meaning |
//! |--------|------|--------|---------|
//! | [`MESSAGES_SENT`] | counter | `node`, `kind` | frames handed to the transport (`gossip`/`graft`/`retransmit`) |
//! | [`MESSAGES_RECEIVED`] | counter | `node`, `kind` | frames decoded off the transport (`gossip`/`graft`/`retransmit`) |
//! | [`BYTES_SENT`] | counter | `node` | datagram payload bytes sent |
//! | [`BYTES_RECEIVED`] | counter | `node` | datagram payload bytes received |
//! | [`SEND_ERRORS`] | counter | `node`, `cause` | transport send failures (`io`/`oversize`/`unknown_peer`) |
//! | [`DECODE_ERRORS`] | counter | `node` | datagrams that failed frame decoding |
//! | [`LOSS_INJECTED`] | counter | `node` | datagrams dropped by the injected-loss harness |
//! | [`PUBLISHES`] | counter | `node` | locally admitted broadcasts |
//! | [`DELIVERIES`] | counter | `node` | first deliveries to the application |
//! | [`DROPS`] | counter | `node`, `cause` | buffer/throttle drops (`age`/`size`/`congestion`) |
//! | [`RECOVERY_EVENTS`] | counter | `node`, `kind` | recovery plane (`graft`/`retransmit`/`recovered`/`duplicate`/`abandoned`) |
//! | [`LIFECYCLE`] | counter | `node`, `kind` | `crash`/`recover`/`restart`/`leave` transitions and detector `rejoin`s |
//! | [`ROUNDS`] | counter | `node` | gossip rounds executed |
//! | [`OFFERS_REFUSED`] | counter | `node` | offers refused by the blocking-application backlog |
//! | [`SUSPICIONS`] | counter | `node` | φ-accrual suspicion onsets |
//! | [`DETECTOR_EVICTIONS`] | counter | `node` | detector-driven peer evictions |
//! | [`HEARTBEATS`] | counter | `node` | explicit heartbeats sent (gossip did not cover the link) |
//! | [`SHEDS`] | counter | `node`, `class` | frames shed by overloaded queues (`app`/`recovery`/`control`) |
//! | [`SEND_RETRIES`] | counter | `node` | backed-off resends of recovery-class frames |
//! | [`RECV_CLOSED`] | counter | `node` | transport teardown observations |
//! | [`DELIVERY_LATENCY_SECONDS`] | histogram | `node` | publish → delivery, end to end wall clock |
//! | [`RECOVERY_RTT_SECONDS`] | histogram | `node` | `Graft` sent → event recovered |
//! | [`LOOP_ITERATION_SECONDS`] | histogram | `node` | one node-loop iteration, wake to sleep |
//! | [`EGRESS_DWELL_SECONDS`] | histogram | `node` | egress-queue dwell, enqueue to transport hand-off |
//! | [`BUFFER_EVENTS`] | gauge | `node` | event-buffer occupancy after the last round |
//! | [`BUFFER_CAPACITY`] | gauge | `node` | event-buffer capacity |
//! | [`EVENT_QUEUE_DEPTH`] | gauge | `node` | node-loop backlog (pending offers + queued commands) |
//!
//! Histograms use *per-metric* bucket presets
//! ([`latency_seconds_bounds`](crate::latency_seconds_bounds) for
//! ms-scale end-to-end paths,
//! [`dwell_seconds_bounds`](crate::dwell_seconds_bounds) for µs-scale
//! loop and queue internals) — one uniform bound set cannot resolve
//! scales three orders of magnitude apart.

/// `agb_messages_sent_total{node,kind}`.
pub const MESSAGES_SENT: &str = "agb_messages_sent_total";
/// `agb_messages_received_total{node,kind}`.
pub const MESSAGES_RECEIVED: &str = "agb_messages_received_total";
/// `agb_bytes_sent_total{node}`.
pub const BYTES_SENT: &str = "agb_bytes_sent_total";
/// `agb_bytes_received_total{node}`.
pub const BYTES_RECEIVED: &str = "agb_bytes_received_total";
/// `agb_socket_send_errors_total{node,cause}`.
pub const SEND_ERRORS: &str = "agb_socket_send_errors_total";
/// `agb_decode_errors_total{node}`.
pub const DECODE_ERRORS: &str = "agb_decode_errors_total";
/// `agb_loss_injected_total{node}`.
pub const LOSS_INJECTED: &str = "agb_loss_injected_total";
/// `agb_publishes_total{node}`.
pub const PUBLISHES: &str = "agb_publishes_total";
/// `agb_deliveries_total{node}`.
pub const DELIVERIES: &str = "agb_deliveries_total";
/// `agb_drops_total{node,cause}`.
pub const DROPS: &str = "agb_drops_total";
/// `agb_recovery_events_total{node,kind}`.
pub const RECOVERY_EVENTS: &str = "agb_recovery_events_total";
/// `agb_lifecycle_total{node,kind}`.
pub const LIFECYCLE: &str = "agb_lifecycle_total";
/// `agb_rounds_total{node}`.
pub const ROUNDS: &str = "agb_rounds_total";
/// `agb_offers_refused_total{node}`.
pub const OFFERS_REFUSED: &str = "agb_offers_refused_total";
/// `agb_delivery_latency_seconds{node}` (histogram).
pub const DELIVERY_LATENCY_SECONDS: &str = "agb_delivery_latency_seconds";
/// `agb_recovery_rtt_seconds{node}` (histogram).
pub const RECOVERY_RTT_SECONDS: &str = "agb_recovery_rtt_seconds";
/// `agb_buffer_events{node}` (gauge).
pub const BUFFER_EVENTS: &str = "agb_buffer_events";
/// `agb_buffer_capacity{node}` (gauge).
pub const BUFFER_CAPACITY: &str = "agb_buffer_capacity";
/// `agb_event_queue_depth{node}` (gauge).
pub const EVENT_QUEUE_DEPTH: &str = "agb_event_queue_depth";
/// `agb_suspicions_total{node}`.
pub const SUSPICIONS: &str = "agb_suspicions_total";
/// `agb_detector_evictions_total{node}`.
pub const DETECTOR_EVICTIONS: &str = "agb_detector_evictions_total";
/// `agb_heartbeats_total{node}`.
pub const HEARTBEATS: &str = "agb_heartbeats_total";
/// `agb_sheds_total{node,class}`.
pub const SHEDS: &str = "agb_sheds_total";
/// `agb_send_retries_total{node}`.
pub const SEND_RETRIES: &str = "agb_send_retries_total";
/// `agb_recv_closed_total{node}`.
pub const RECV_CLOSED: &str = "agb_recv_closed_total";
/// `agb_loop_iteration_seconds{node}` (histogram, dwell bounds).
pub const LOOP_ITERATION_SECONDS: &str = "agb_loop_iteration_seconds";
/// `agb_egress_dwell_seconds{node}` (histogram, dwell bounds).
pub const EGRESS_DWELL_SECONDS: &str = "agb_egress_dwell_seconds";

/// Help strings, one per metric name, so every node registers a metric
/// family with the same description.
pub mod help {
    /// Help for [`MESSAGES_SENT`](super::MESSAGES_SENT).
    pub const MESSAGES_SENT: &str = "Frames handed to the transport, by kind";
    /// Help for [`MESSAGES_RECEIVED`](super::MESSAGES_RECEIVED).
    pub const MESSAGES_RECEIVED: &str = "Frames decoded off the transport, by kind";
    /// Help for [`BYTES_SENT`](super::BYTES_SENT).
    pub const BYTES_SENT: &str = "Datagram payload bytes sent";
    /// Help for [`BYTES_RECEIVED`](super::BYTES_RECEIVED).
    pub const BYTES_RECEIVED: &str = "Datagram payload bytes received";
    /// Help for [`SEND_ERRORS`](super::SEND_ERRORS).
    pub const SEND_ERRORS: &str = "Transport send refusals and failures, by cause";
    /// Help for [`DECODE_ERRORS`](super::DECODE_ERRORS).
    pub const DECODE_ERRORS: &str = "Datagrams that failed frame decoding";
    /// Help for [`LOSS_INJECTED`](super::LOSS_INJECTED).
    pub const LOSS_INJECTED: &str = "Datagrams dropped by the injected-loss harness";
    /// Help for [`PUBLISHES`](super::PUBLISHES).
    pub const PUBLISHES: &str = "Broadcasts admitted at their origin";
    /// Help for [`DELIVERIES`](super::DELIVERIES).
    pub const DELIVERIES: &str = "First deliveries to the application";
    /// Help for [`DROPS`](super::DROPS).
    pub const DROPS: &str = "Buffer and throttle drops by cause";
    /// Help for [`RECOVERY_EVENTS`](super::RECOVERY_EVENTS).
    pub const RECOVERY_EVENTS: &str = "Recovery-plane events by kind";
    /// Help for [`LIFECYCLE`](super::LIFECYCLE).
    pub const LIFECYCLE: &str = "Node lifecycle transitions by kind";
    /// Help for [`ROUNDS`](super::ROUNDS).
    pub const ROUNDS: &str = "Gossip rounds executed";
    /// Help for [`OFFERS_REFUSED`](super::OFFERS_REFUSED).
    pub const OFFERS_REFUSED: &str = "Offers refused by the blocking-application backlog";
    /// Help for [`DELIVERY_LATENCY_SECONDS`](super::DELIVERY_LATENCY_SECONDS).
    pub const DELIVERY_LATENCY_SECONDS: &str = "Publish to delivery, end-to-end wall clock";
    /// Help for [`RECOVERY_RTT_SECONDS`](super::RECOVERY_RTT_SECONDS).
    pub const RECOVERY_RTT_SECONDS: &str = "Graft sent to event recovered, wall clock";
    /// Help for [`BUFFER_EVENTS`](super::BUFFER_EVENTS).
    pub const BUFFER_EVENTS: &str = "Event-buffer occupancy after the last round";
    /// Help for [`BUFFER_CAPACITY`](super::BUFFER_CAPACITY).
    pub const BUFFER_CAPACITY: &str = "Event-buffer capacity";
    /// Help for [`EVENT_QUEUE_DEPTH`](super::EVENT_QUEUE_DEPTH).
    pub const EVENT_QUEUE_DEPTH: &str = "Node-loop backlog: pending offers plus queued commands";
    /// Help for [`SUSPICIONS`](super::SUSPICIONS).
    pub const SUSPICIONS: &str = "Phi-accrual suspicion onsets";
    /// Help for [`DETECTOR_EVICTIONS`](super::DETECTOR_EVICTIONS).
    pub const DETECTOR_EVICTIONS: &str = "Detector-driven peer evictions";
    /// Help for [`HEARTBEATS`](super::HEARTBEATS).
    pub const HEARTBEATS: &str = "Explicit heartbeats sent when gossip did not cover the link";
    /// Help for [`SHEDS`](super::SHEDS).
    pub const SHEDS: &str = "Frames shed by overloaded queues, by priority class";
    /// Help for [`SEND_RETRIES`](super::SEND_RETRIES).
    pub const SEND_RETRIES: &str = "Backed-off resends of recovery-class frames";
    /// Help for [`RECV_CLOSED`](super::RECV_CLOSED).
    pub const RECV_CLOSED: &str = "Transport teardown observations by the node loop";
    /// Help for [`LOOP_ITERATION_SECONDS`](super::LOOP_ITERATION_SECONDS).
    pub const LOOP_ITERATION_SECONDS: &str = "One node-loop iteration, wake to sleep";
    /// Help for [`EGRESS_DWELL_SECONDS`](super::EGRESS_DWELL_SECONDS).
    pub const EGRESS_DWELL_SECONDS: &str = "Egress-queue dwell from enqueue to transport hand-off";
}
