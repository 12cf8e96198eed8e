//! Per-node wall-clock instrumentation: the runtime side of
//! `agb-telemetry`.
//!
//! Each node thread owns a [`NodeTelemetry`] holding pre-registered
//! handles into that node's metric registry, so the hot loop records with
//! relaxed atomics and never touches the registry mutex. A disabled
//! instance is a `None` and every hook is a no-op branch.

use std::collections::HashMap;
use std::time::Instant;

use agb_core::{GossipFrame, ProtocolEvent, PurgeReason};
use agb_node::{LifecycleKind, NodeObserver, Outgoing, ShedClass};
use agb_telemetry::{
    dwell_seconds_bounds, latency_seconds_bounds, names, Counter, Gauge, Registry, WallHistogram,
};
use agb_types::{NodeId, Payload, TimeMs};

use crate::transport::TransportError;

/// Marker prefix of latency-stamped payloads (see [`stamp_payload`]).
const STAMP_MAGIC: [u8; 4] = *b"AGBT";

/// Bytes a payload needs for a latency stamp: 4 magic + 8 millis.
pub const STAMP_LEN: usize = 12;

/// Stamps `template` with the current send time: the first [`STAMP_LEN`]
/// bytes become a magic marker plus milliseconds since `epoch`,
/// little-endian. Returns `None` when the payload is too small to carry
/// a stamp (the caller sends the template unmodified).
///
/// Every node of a cluster shares one process-wide `epoch`, so a stamp
/// read on delivery ([`read_stamp`]) measures true end-to-end wall-clock
/// latency without any cross-host clock agreement.
pub fn stamp_payload(template: &Payload, epoch: Instant) -> Option<Payload> {
    if template.len() < STAMP_LEN {
        return None;
    }
    let mut bytes = template.to_vec();
    bytes[..4].copy_from_slice(&STAMP_MAGIC);
    let millis = epoch.elapsed().as_millis() as u64;
    bytes[4..STAMP_LEN].copy_from_slice(&millis.to_le_bytes());
    Some(Payload::from(bytes))
}

/// Reads a [`stamp_payload`] stamp back: the send time in milliseconds
/// since the cluster epoch, or `None` if the payload is unstamped.
pub fn read_stamp(payload: &[u8]) -> Option<u64> {
    if payload.len() < STAMP_LEN || payload[..4] != STAMP_MAGIC {
        return None;
    }
    let mut millis = [0u8; 8];
    millis.copy_from_slice(&payload[4..STAMP_LEN]);
    Some(u64::from_le_bytes(millis))
}

/// A node's pre-registered metric handles (no-op when disabled).
pub struct NodeTelemetry {
    inner: Option<Box<Cells>>,
}

struct Cells {
    epoch: Instant,
    sent_gossip: Counter,
    sent_graft: Counter,
    sent_retransmit: Counter,
    received_gossip: Counter,
    received_graft: Counter,
    received_retransmit: Counter,
    bytes_sent: Counter,
    bytes_received: Counter,
    send_err_io: Counter,
    send_err_oversize: Counter,
    send_err_unknown: Counter,
    decode_errors: Counter,
    loss_injected: Counter,
    publishes: Counter,
    deliveries: Counter,
    drops_age: Counter,
    drops_size: Counter,
    drops_congestion: Counter,
    rec_graft: Counter,
    rec_retransmit: Counter,
    rec_recovered: Counter,
    rec_duplicate: Counter,
    rec_abandoned: Counter,
    lifecycle_crash: Counter,
    lifecycle_recover: Counter,
    lifecycle_restart: Counter,
    lifecycle_leave: Counter,
    lifecycle_rejoin: Counter,
    rounds: Counter,
    offers_refused: Counter,
    suspicions: Counter,
    detector_evictions: Counter,
    heartbeats: Counter,
    shed_app: Counter,
    shed_recovery: Counter,
    shed_control: Counter,
    send_retries: Counter,
    recv_closed: Counter,
    delivery_latency: WallHistogram,
    recovery_rtt: WallHistogram,
    loop_iteration: WallHistogram,
    egress_dwell: WallHistogram,
    buffer_events: Gauge,
    buffer_capacity: Gauge,
    event_queue_depth: Gauge,
    /// Open `Graft` round trips: advertiser -> request time.
    outstanding: HashMap<u32, Instant>,
}

impl NodeTelemetry {
    /// The no-op instance: every hook is one branch on `None`.
    pub fn disabled() -> Self {
        NodeTelemetry { inner: None }
    }

    /// Registers every series of this node in `registry` and keeps the
    /// handles. The cluster calls this before the node thread starts and
    /// nothing registers later, so the series a node exposes are a pure
    /// function of the code (`TELEMETRY.json` pins the list).
    pub fn new(registry: &Registry, node: NodeId, epoch: Instant) -> Self {
        let node_s = node.index().to_string();
        let n = node_s.as_str();
        let by_node: &[(&'static str, &str)] = &[("node", n)];
        let counter = |name, help| registry.counter(name, help, by_node);
        let labeled = |name, help, label: (&'static str, &str)| {
            registry.counter(name, help, &[("node", n), label])
        };
        let sent = |v| {
            labeled(
                names::MESSAGES_SENT,
                names::help::MESSAGES_SENT,
                ("kind", v),
            )
        };
        let received = |v| {
            labeled(
                names::MESSAGES_RECEIVED,
                names::help::MESSAGES_RECEIVED,
                ("kind", v),
            )
        };
        let send_error = |v| labeled(names::SEND_ERRORS, names::help::SEND_ERRORS, ("cause", v));
        let dropped = |v| labeled(names::DROPS, names::help::DROPS, ("cause", v));
        let recovery = |v| {
            labeled(
                names::RECOVERY_EVENTS,
                names::help::RECOVERY_EVENTS,
                ("kind", v),
            )
        };
        let lifecycle = |v| labeled(names::LIFECYCLE, names::help::LIFECYCLE, ("kind", v));
        let shed = |v| labeled(names::SHEDS, names::help::SHEDS, ("class", v));
        let cells = Cells {
            epoch,
            sent_gossip: sent("gossip"),
            sent_graft: sent("graft"),
            sent_retransmit: sent("retransmit"),
            received_gossip: received("gossip"),
            received_graft: received("graft"),
            received_retransmit: received("retransmit"),
            bytes_sent: counter(names::BYTES_SENT, names::help::BYTES_SENT),
            bytes_received: counter(names::BYTES_RECEIVED, names::help::BYTES_RECEIVED),
            send_err_io: send_error("io"),
            send_err_oversize: send_error("oversize"),
            send_err_unknown: send_error("unknown_peer"),
            decode_errors: counter(names::DECODE_ERRORS, names::help::DECODE_ERRORS),
            loss_injected: counter(names::LOSS_INJECTED, names::help::LOSS_INJECTED),
            publishes: counter(names::PUBLISHES, names::help::PUBLISHES),
            deliveries: counter(names::DELIVERIES, names::help::DELIVERIES),
            drops_age: dropped("age"),
            drops_size: dropped("size"),
            drops_congestion: dropped("congestion"),
            rec_graft: recovery("graft"),
            rec_retransmit: recovery("retransmit"),
            rec_recovered: recovery("recovered"),
            rec_duplicate: recovery("duplicate"),
            rec_abandoned: recovery("abandoned"),
            lifecycle_crash: lifecycle("crash"),
            lifecycle_recover: lifecycle("recover"),
            lifecycle_restart: lifecycle("restart"),
            lifecycle_leave: lifecycle("leave"),
            lifecycle_rejoin: lifecycle("rejoin"),
            rounds: counter(names::ROUNDS, names::help::ROUNDS),
            offers_refused: counter(names::OFFERS_REFUSED, names::help::OFFERS_REFUSED),
            suspicions: counter(names::SUSPICIONS, names::help::SUSPICIONS),
            detector_evictions: counter(names::DETECTOR_EVICTIONS, names::help::DETECTOR_EVICTIONS),
            heartbeats: counter(names::HEARTBEATS, names::help::HEARTBEATS),
            shed_app: shed("app"),
            shed_recovery: shed("recovery"),
            shed_control: shed("control"),
            send_retries: counter(names::SEND_RETRIES, names::help::SEND_RETRIES),
            recv_closed: counter(names::RECV_CLOSED, names::help::RECV_CLOSED),
            delivery_latency: registry.histogram(
                names::DELIVERY_LATENCY_SECONDS,
                names::help::DELIVERY_LATENCY_SECONDS,
                by_node,
                &latency_seconds_bounds(),
            ),
            recovery_rtt: registry.histogram(
                names::RECOVERY_RTT_SECONDS,
                names::help::RECOVERY_RTT_SECONDS,
                by_node,
                &latency_seconds_bounds(),
            ),
            // µs-scale internals get the dwell preset: against the
            // latency bounds every sample lands in the first bucket.
            loop_iteration: registry.histogram(
                names::LOOP_ITERATION_SECONDS,
                names::help::LOOP_ITERATION_SECONDS,
                by_node,
                &dwell_seconds_bounds(),
            ),
            egress_dwell: registry.histogram(
                names::EGRESS_DWELL_SECONDS,
                names::help::EGRESS_DWELL_SECONDS,
                by_node,
                &dwell_seconds_bounds(),
            ),
            buffer_events: registry.gauge(
                names::BUFFER_EVENTS,
                names::help::BUFFER_EVENTS,
                by_node,
            ),
            buffer_capacity: registry.gauge(
                names::BUFFER_CAPACITY,
                names::help::BUFFER_CAPACITY,
                by_node,
            ),
            event_queue_depth: registry.gauge(
                names::EVENT_QUEUE_DEPTH,
                names::help::EVENT_QUEUE_DEPTH,
                by_node,
            ),
            outstanding: HashMap::new(),
        };
        NodeTelemetry {
            inner: Some(Box::new(cells)),
        }
    }

    /// One fragment was accepted by the transport.
    pub fn on_sent(&self, frame: &GossipFrame, len: usize) {
        if let Some(c) = &self.inner {
            match frame {
                GossipFrame::Gossip { .. } => c.sent_gossip.inc(),
                GossipFrame::Graft(_) => c.sent_graft.inc(),
                GossipFrame::Retransmit(_) => c.sent_retransmit.inc(),
            }
            c.bytes_sent.add(len as u64);
        }
    }

    /// The transport refused a fragment.
    pub fn on_send_error(&self, err: &TransportError) {
        if let Some(c) = &self.inner {
            match err {
                TransportError::Io(_) => c.send_err_io.inc(),
                TransportError::Oversize { .. } => c.send_err_oversize.inc(),
                TransportError::UnknownPeer(_) => c.send_err_unknown.inc(),
            }
        }
    }

    /// The loss harness dropped a fragment before the transport.
    pub fn on_loss(&self) {
        if let Some(c) = &self.inner {
            c.loss_injected.inc();
        }
    }

    /// One datagram decoded into a frame.
    pub fn on_received(&self, frame: &GossipFrame, len: usize) {
        if let Some(c) = &self.inner {
            match frame {
                GossipFrame::Gossip { .. } => c.received_gossip.inc(),
                GossipFrame::Graft(_) => c.received_graft.inc(),
                GossipFrame::Retransmit(_) => c.received_retransmit.inc(),
            }
            c.bytes_received.add(len as u64);
        }
    }

    /// One datagram failed frame decoding.
    pub fn on_decode_error(&self) {
        if let Some(c) = &self.inner {
            c.decode_errors.inc();
        }
    }

    /// Updates the node-loop backlog gauge.
    pub fn set_queue_depth(&self, depth: usize) {
        if let Some(c) = &self.inner {
            c.event_queue_depth.set(depth as i64);
        }
    }

    /// One full node-loop iteration completed (wake to sleep), in
    /// seconds.
    pub fn on_loop_iteration(&self, secs: f64) {
        if let Some(c) = &self.inner {
            c.loop_iteration.observe(secs);
        }
    }

    /// One frame left the egress queue for the transport after dwelling
    /// `secs` seconds since enqueue.
    pub fn on_egress_dwell(&self, secs: f64) {
        if let Some(c) = &self.inner {
            c.egress_dwell.observe(secs);
        }
    }

    /// A recovery-class frame was re-sent after a backed-off retry.
    pub fn on_send_retry(&self) {
        if let Some(c) = &self.inner {
            c.send_retries.inc();
        }
    }

    /// The transport reported terminal teardown to the node loop.
    pub fn on_recv_closed(&self) {
        if let Some(c) = &self.inner {
            c.recv_closed.inc();
        }
    }
}

/// The runtime node's one observer: the telemetry plane counts the
/// shell's facts.
impl NodeObserver for NodeTelemetry {
    /// Whether recording is active (disabled instances skip payload
    /// stamping too).
    fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn on_round(&mut self, _at: TimeMs, _frames: &[Outgoing], len: usize, capacity: usize) {
        if let Some(c) = &self.inner {
            c.rounds.inc();
            c.buffer_events.set(len as i64);
            c.buffer_capacity.set(capacity as i64);
        }
    }

    fn on_heartbeat(&mut self, _at: TimeMs, _to: NodeId) {
        if let Some(c) = &self.inner {
            c.heartbeats.inc();
        }
    }

    fn on_suspect(&mut self, _at: TimeMs, _peer: NodeId) {
        if let Some(c) = &self.inner {
            c.suspicions.inc();
        }
    }

    fn on_detector_evict(&mut self, _at: TimeMs, _peer: NodeId) {
        if let Some(c) = &self.inner {
            c.detector_evictions.inc();
        }
    }

    fn on_rejoin(&mut self, _at: TimeMs, _peer: NodeId) {
        if let Some(c) = &self.inner {
            c.lifecycle_rejoin.inc();
        }
    }

    /// Folds drained protocol events: deliveries (with end-to-end latency
    /// when the payload carries a stamp), drops by cause, the recovery
    /// plane, and graft→recovered wall-clock round trips.
    fn on_events(&mut self, events: &[ProtocolEvent]) {
        let Some(c) = &mut self.inner else {
            return;
        };
        let now = Instant::now();
        let now_ms = now.duration_since(c.epoch).as_millis() as u64;
        for event in events {
            match event {
                ProtocolEvent::Admitted { .. } => c.publishes.inc(),
                ProtocolEvent::Delivered { event, .. } => {
                    c.deliveries.inc();
                    if let Some(sent_ms) = read_stamp(event.payload()) {
                        let secs = now_ms.saturating_sub(sent_ms) as f64 / 1_000.0;
                        c.delivery_latency.observe(secs);
                    }
                }
                ProtocolEvent::Dropped { reason, .. } => match reason {
                    PurgeReason::AgeCap => c.drops_age.inc(),
                    PurgeReason::Overflow => c.drops_size.inc(),
                },
                ProtocolEvent::RecoveryRequested { to, .. } => {
                    c.rec_graft.inc();
                    // Latest request wins: retries restart the RTT clock.
                    c.outstanding.insert(to.as_u32(), now);
                }
                ProtocolEvent::RecoveryServed { .. } => c.rec_retransmit.inc(),
                ProtocolEvent::Recovered { from, .. } => {
                    c.rec_recovered.inc();
                    if let Some(sent) = c.outstanding.remove(&from.as_u32()) {
                        c.recovery_rtt
                            .observe(now.duration_since(sent).as_secs_f64());
                    }
                }
                ProtocolEvent::RecoveryDuplicate { .. } => c.rec_duplicate.inc(),
                ProtocolEvent::RecoveryAbandoned { .. } => c.rec_abandoned.inc(),
                ProtocolEvent::RateChanged { .. } => {}
            }
        }
    }

    /// Refused offers count both as refusals and as congestion drops,
    /// matching the trace taxonomy.
    fn on_refused(&mut self, _at: TimeMs, n: u64) {
        if let Some(c) = &self.inner {
            c.offers_refused.add(n);
            c.drops_congestion.add(n);
        }
    }

    /// A crash or restart also forgets the open graft round trips: a
    /// repair after it must not be timed from a request sent before.
    fn on_lifecycle(&mut self, _at: TimeMs, kind: LifecycleKind) {
        if let Some(c) = &mut self.inner {
            match kind {
                LifecycleKind::Crash => c.lifecycle_crash.inc(),
                LifecycleKind::Recover => c.lifecycle_recover.inc(),
                LifecycleKind::Restart => c.lifecycle_restart.inc(),
                LifecycleKind::Leave => c.lifecycle_leave.inc(),
            }
            if matches!(kind, LifecycleKind::Crash | LifecycleKind::Restart) {
                c.outstanding.clear();
            }
        }
    }

    fn on_shed(&mut self, _at: TimeMs, class: ShedClass) {
        if let Some(c) = &self.inner {
            match class {
                ShedClass::App => c.shed_app.inc(),
                ShedClass::Recovery => c.shed_recovery.inc(),
                ShedClass::Control => c.shed_control.inc(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn stamp_round_trips_and_needs_room() {
        let epoch = Instant::now();
        let small = Payload::from(vec![0u8; STAMP_LEN - 1]);
        assert!(stamp_payload(&small, epoch).is_none());
        let template = Payload::from(vec![0u8; 64]);
        let stamped = stamp_payload(&template, epoch).expect("room for a stamp");
        assert_eq!(stamped.len(), 64, "stamping preserves the size");
        let sent = read_stamp(&stamped).expect("stamped");
        assert!(sent < 1_000, "stamped within this test's first second");
        // Unstamped payloads read as None, not garbage latencies.
        assert_eq!(read_stamp(&template), None);
        assert_eq!(read_stamp(b"AGB"), None);
    }

    #[test]
    fn disabled_instance_is_inert() {
        let mut t = NodeTelemetry::disabled();
        assert!(!t.enabled());
        t.on_decode_error();
        t.on_round(TimeMs::ZERO, &[], 3, 10);
        t.on_rejoin(TimeMs::ZERO, NodeId::new(1));
        t.on_events(&[]);
        t.set_queue_depth(5);
    }

    #[test]
    fn events_fold_into_counters_and_latency() {
        use agb_core::Event;
        use agb_types::{EventId, TimeMs};

        let registry = Registry::new();
        let epoch = Instant::now() - Duration::from_millis(500);
        let mut t = NodeTelemetry::new(&registry, NodeId::new(2), epoch);
        assert!(t.enabled());

        // A stamped payload "sent" 500 ms ago (at the epoch).
        let template = Payload::from(vec![0u8; 32]);
        let stamped = stamp_payload(&template, epoch).unwrap();
        // Rewrite the stamp to exactly 0 ms (the epoch itself).
        let mut bytes = stamped.to_vec();
        bytes[4..STAMP_LEN].copy_from_slice(&0u64.to_le_bytes());
        let event = Event::new(EventId::new(NodeId::new(0), 1), Payload::from(bytes));

        let id = EventId::new(NodeId::new(0), 1);
        t.on_events(&[
            ProtocolEvent::Admitted {
                id,
                at: TimeMs::from_millis(0),
            },
            ProtocolEvent::Delivered {
                event,
                from: NodeId::new(0),
                at: TimeMs::from_millis(500),
            },
            ProtocolEvent::Dropped {
                id,
                age: 9,
                reason: PurgeReason::Overflow,
                at: TimeMs::from_millis(500),
            },
        ]);

        let snap = registry.snapshot();
        assert_eq!(snap.counter(names::PUBLISHES, &[("node", "2")]), Some(1));
        assert_eq!(snap.counter(names::DELIVERIES, &[("node", "2")]), Some(1));
        assert_eq!(
            snap.counter(names::DROPS, &[("cause", "size"), ("node", "2")]),
            Some(1)
        );
        let lat = snap
            .histogram_merged(names::DELIVERY_LATENCY_SECONDS)
            .unwrap();
        assert_eq!(lat.count(), 1);
        assert!(
            lat.sum() >= 0.5,
            "observed ~0.5 s of latency, got {}",
            lat.sum()
        );
    }

    #[test]
    fn recovery_rtt_pairs_graft_with_recovered() {
        use agb_types::{EventId, TimeMs};

        let registry = Registry::new();
        let mut t = NodeTelemetry::new(&registry, NodeId::new(0), Instant::now());
        let peer = NodeId::new(7);
        t.on_events(&[ProtocolEvent::RecoveryRequested {
            to: peer,
            ids: 2,
            at: TimeMs::from_millis(0),
        }]);
        t.on_events(&[ProtocolEvent::Recovered {
            id: EventId::new(NodeId::new(1), 4),
            from: peer,
            at: TimeMs::from_millis(10),
        }]);
        // A second Recovered with no open graft records nothing.
        t.on_events(&[ProtocolEvent::Recovered {
            id: EventId::new(NodeId::new(1), 5),
            from: peer,
            at: TimeMs::from_millis(20),
        }]);
        let snap = registry.snapshot();
        let rtt = snap.histogram_merged(names::RECOVERY_RTT_SECONDS).unwrap();
        assert_eq!(rtt.count(), 1);
        assert_eq!(
            snap.counter(
                names::RECOVERY_EVENTS,
                &[("kind", "recovered"), ("node", "0")]
            ),
            Some(2)
        );
    }

    #[test]
    fn recovery_rtt_forgets_grafts_sent_before_a_crash_or_restart() {
        use agb_types::{EventId, TimeMs};
        use LifecycleKind::{Crash, Recover, Restart};

        for outage in [&[Crash, Recover][..], &[Restart]] {
            let registry = Registry::new();
            let mut t = NodeTelemetry::new(&registry, NodeId::new(0), Instant::now());
            let peer = NodeId::new(7);
            t.on_events(&[ProtocolEvent::RecoveryRequested {
                to: peer,
                ids: 1,
                at: TimeMs::ZERO,
            }]);
            for &kind in outage {
                t.on_lifecycle(TimeMs::from_millis(5), kind);
            }
            t.on_events(&[ProtocolEvent::Recovered {
                id: EventId::new(NodeId::new(1), 4),
                from: peer,
                at: TimeMs::from_millis(60),
            }]);
            let rtt = registry
                .snapshot()
                .histogram_merged(names::RECOVERY_RTT_SECONDS)
                .unwrap();
            assert_eq!(rtt.count(), 0, "{outage:?}: the outage is not a round trip");
        }
    }

    #[test]
    fn send_errors_count_by_cause() {
        let registry = Registry::new();
        let t = NodeTelemetry::new(&registry, NodeId::new(1), Instant::now());
        t.on_send_error(&TransportError::Oversize { len: 99, max: 10 });
        t.on_send_error(&TransportError::UnknownPeer(NodeId::new(9)));
        t.on_send_error(&TransportError::Io(std::io::Error::new(
            std::io::ErrorKind::WouldBlock,
            "full",
        )));
        t.on_send_error(&TransportError::Io(std::io::Error::new(
            std::io::ErrorKind::WouldBlock,
            "full",
        )));
        let snap = registry.snapshot();
        let series = |cause| snap.counter(names::SEND_ERRORS, &[("cause", cause), ("node", "1")]);
        assert_eq!(series("oversize"), Some(1));
        assert_eq!(series("unknown_peer"), Some(1));
        assert_eq!(series("io"), Some(2));
    }
}
