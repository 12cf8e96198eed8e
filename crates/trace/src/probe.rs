//! The harness-side trace producer.
//!
//! A [`TraceProbe`] observes one node shell ([`NodeObserver`]) in a
//! deterministic driving harness (the simulator's cluster node or the
//! Maelstrom adapter) and turns what the shell reports — outgoing
//! frames, drained [`ProtocolEvent`]s, detector verdicts, lifecycle
//! transitions — into [`TraceRecord`]s. Records accumulate in a local
//! buffer so nodes can stay `Send` and be driven on worker threads; the
//! harness drains the buffer into a shared [`Recorder`](crate::Recorder)
//! at its canonical merge point (the simulator's post-event hook), which
//! is what keeps the trace stream deterministic under sharded execution.
//!
//! The probe is purely observational: it never touches protocol state,
//! draws randomness, or sends messages, so engine results are identical
//! with tracing on and off.

use std::sync::Arc;

use agb_core::{GossipFrame, ProtocolEvent, PurgeReason};
use agb_node::{LifecycleKind, NodeObserver, Outgoing, ShedClass};
use agb_types::{EventId, NodeId, TimeMs};

use crate::config::TraceConfig;
use crate::record::{DropCause, TraceKind, TraceRecord};

/// Per-node trace producer. See the module docs above.
#[derive(Debug)]
pub struct TraceProbe {
    config: TraceConfig,
    node: NodeId,
    round: u32,
    /// Incoming event ids of the frame currently being handled,
    /// used to detect redundant arrivals (scratch; cleared per message).
    incoming: Vec<(EventId, u32)>,
    /// Topology region per dense node id, shared across a harness's
    /// probes. `None` (the default) disables cross-partition accounting.
    regions: Option<Arc<[u32]>>,
    pending: Vec<TraceRecord>,
}

impl TraceProbe {
    /// Creates a probe for `node` under `config`.
    pub fn new(config: TraceConfig, node: NodeId) -> Self {
        TraceProbe {
            config,
            node,
            round: 0,
            incoming: Vec::new(),
            regions: None,
            pending: Vec::new(),
        }
    }

    /// Arms cross-partition accounting: `regions[i]` is the topology
    /// region of dense node id `i`. Outgoing gossip frames whose target
    /// lives in a different region than this probe's node produce a
    /// [`TraceKind::CrossPartition`] record (one per frame — the unit of
    /// inter-region link cost). Out-of-range ids count as region 0.
    pub fn set_regions(&mut self, regions: Arc<[u32]>) {
        self.regions = Some(regions);
    }

    /// Drains buffered records in observation order. The harness must
    /// call this at its canonical merge point and feed the records to
    /// the shared sink in the returned order.
    pub fn drain_pending(&mut self) -> impl Iterator<Item = TraceRecord> + '_ {
        self.pending.drain(..)
    }

    fn push(&mut self, at: TimeMs, kind: TraceKind) {
        self.pending.push(TraceRecord {
            node: self.node,
            at,
            round: self.round,
            kind,
        });
    }
}

/// The probe records every fact the node shell reports.
impl NodeObserver for TraceProbe {
    /// Whether this probe records anything at all.
    fn enabled(&self) -> bool {
        self.config.enabled
    }

    /// Observes one completed gossip round: the frames the protocol
    /// emitted (relay copies and piggybacked `IHave` digests) plus a
    /// buffer-occupancy snapshot.
    fn on_round(
        &mut self,
        at: TimeMs,
        frames: &[Outgoing],
        buffer_len: usize,
        buffer_capacity: usize,
    ) {
        if !self.config.enabled {
            return;
        }
        self.round += 1;
        self.on_frames(at, frames);
        self.push(
            at,
            TraceKind::BufferOccupancy {
                len: buffer_len as u32,
                capacity: buffer_capacity as u32,
            },
        );
    }

    /// Observes outgoing frames outside the regular round path (leave
    /// farewells, immediate recovery replies). Data frames become
    /// `Relay`/`IHave` records; `Graft`/`Retransmit` frames are skipped
    /// here because the richer [`ProtocolEvent`]s
    /// (`RecoveryRequested`/`RecoveryServed`) already cover them.
    fn on_frames(&mut self, at: TimeMs, frames: &[Outgoing]) {
        if !self.config.enabled {
            return;
        }
        for (to, frame) in frames {
            if let GossipFrame::Gossip { msg, ihave } = frame {
                if let Some(regions) = &self.regions {
                    let region_of = |n: NodeId| regions.get(n.index()).copied().unwrap_or(0);
                    let target_region = region_of(*to);
                    if target_region != region_of(self.node) {
                        self.push(
                            at,
                            TraceKind::CrossPartition {
                                to: *to,
                                region: target_region,
                            },
                        );
                    }
                }
                for event in &msg.events {
                    self.push(
                        at,
                        TraceKind::Relay {
                            id: event.id(),
                            to: *to,
                            age: event.age(),
                        },
                    );
                }
                if let Some(digest) = ihave {
                    if !digest.ids.is_empty() {
                        self.push(
                            at,
                            TraceKind::IHave {
                                to: *to,
                                ids: digest.ids.len() as u32,
                            },
                        );
                    }
                }
            }
        }
    }

    /// Starts observing one incoming frame: remembers its event
    /// ids so [`on_received`](Self::on_received) can tell first
    /// deliveries from redundant arrivals. Call before handing the frame
    /// to the protocol.
    fn on_message(&mut self, frame: &GossipFrame) {
        if !self.config.enabled {
            return;
        }
        self.incoming.clear();
        if let GossipFrame::Gossip { msg, .. } = frame {
            for event in &msg.events {
                self.incoming.push((event.id(), event.age()));
            }
        }
    }

    /// Finishes observing the frame begun by [`on_message`](Self::on_message)
    /// (`from` = its sender): flags every incoming id that none
    /// of `events` delivered as a redundant arrival.
    fn on_received(&mut self, at: TimeMs, from: NodeId, events: &[ProtocolEvent]) {
        if !self.config.enabled {
            return;
        }
        for idx in 0..self.incoming.len() {
            let (id, _) = self.incoming[idx];
            let delivered = events.iter().any(|e| match e {
                ProtocolEvent::Delivered { event, .. } => event.id() == id,
                ProtocolEvent::Recovered { id: rid, at: _, .. } => *rid == id,
                _ => false,
            });
            if !delivered {
                self.push(at, TraceKind::Duplicate { id, from });
            }
        }
        self.incoming.clear();
    }

    /// Maps drained [`ProtocolEvent`]s into trace records (admissions,
    /// deliveries, buffer drops, recovery traffic).
    fn on_events(&mut self, events: &[ProtocolEvent]) {
        if !self.config.enabled {
            return;
        }
        for event in events {
            match event {
                ProtocolEvent::Admitted { id, at } => {
                    self.push(*at, TraceKind::Publish { id: *id });
                }
                ProtocolEvent::Delivered { event, from, at } => {
                    self.push(
                        *at,
                        TraceKind::Deliver {
                            id: event.id(),
                            from: *from,
                            hops: event.age(),
                        },
                    );
                }
                ProtocolEvent::Dropped {
                    id,
                    age,
                    reason,
                    at,
                    ..
                } => {
                    let cause = match reason {
                        PurgeReason::AgeCap => DropCause::Age,
                        PurgeReason::Overflow => DropCause::Size,
                    };
                    self.push(
                        *at,
                        TraceKind::Drop {
                            id: Some(*id),
                            age: *age,
                            cause,
                        },
                    );
                }
                ProtocolEvent::RecoveryRequested { to, ids, at } => {
                    self.push(
                        *at,
                        TraceKind::Graft {
                            to: *to,
                            ids: *ids as u32,
                        },
                    );
                }
                ProtocolEvent::RecoveryServed {
                    to,
                    events,
                    missed,
                    at,
                } => {
                    self.push(
                        *at,
                        TraceKind::Retransmit {
                            to: *to,
                            events: *events as u32,
                            missed: *missed as u32,
                        },
                    );
                }
                ProtocolEvent::Recovered { id, from, at } => {
                    self.push(
                        *at,
                        TraceKind::Recovered {
                            id: *id,
                            from: *from,
                        },
                    );
                }
                ProtocolEvent::RecoveryDuplicate { id, at } => {
                    self.push(*at, TraceKind::RecoveryDuplicate { id: *id });
                }
                ProtocolEvent::RecoveryAbandoned { id, at } => {
                    self.push(*at, TraceKind::RecoveryAbandoned { id: *id });
                }
                // Rate/estimator adjustments are adaptation telemetry, not
                // dissemination causality; the metrics layer owns them.
                ProtocolEvent::RateChanged { .. } | ProtocolEvent::PeriodRollover { .. } => {}
            }
        }
    }

    /// Records sender-side throttle suppressions (offers refused because
    /// the backlog was full): `n` congestion drops at `at`.
    fn on_refused(&mut self, at: TimeMs, n: u64) {
        if !self.config.enabled {
            return;
        }
        for _ in 0..n {
            self.push(
                at,
                TraceKind::Drop {
                    id: None,
                    age: 0,
                    cause: DropCause::Congestion,
                },
            );
        }
    }

    /// Records crashes and restarts; a restart resets the round counter,
    /// since the restarted protocol starts its rounds from scratch. A
    /// recover leaves no record, and a leave shows as its farewell
    /// frames.
    fn on_lifecycle(&mut self, at: TimeMs, kind: LifecycleKind) {
        if !self.config.enabled {
            return;
        }
        match kind {
            LifecycleKind::Crash => self.push(at, TraceKind::Crash),
            LifecycleKind::Restart => {
                self.round = 0;
                self.push(at, TraceKind::Restart);
            }
            LifecycleKind::Recover | LifecycleKind::Leave => {}
        }
    }

    /// Records a membership-view size change.
    fn on_view_change(&mut self, at: TimeMs, view_size: usize) {
        if self.config.enabled {
            self.push(
                at,
                TraceKind::ViewChange {
                    view_size: view_size as u32,
                },
            );
        }
    }

    /// Records the φ-accrual detector first suspecting `peer`.
    fn on_suspect(&mut self, at: TimeMs, peer: NodeId) {
        if self.config.enabled {
            self.push(at, TraceKind::Suspect { peer });
        }
    }

    /// Records the detector condemning `peer` and this node evicting it.
    fn on_detector_evict(&mut self, at: TimeMs, peer: NodeId) {
        if self.config.enabled {
            self.push(at, TraceKind::DetectorEvict { peer });
        }
    }

    /// Records an explicit heartbeat sent to a ring successor that
    /// regular gossip did not cover this round.
    fn on_heartbeat(&mut self, at: TimeMs, to: NodeId) {
        if self.config.enabled {
            self.push(at, TraceKind::Heartbeat { to });
        }
    }

    /// Records one frame shed by an overloaded egress queue.
    fn on_shed(&mut self, at: TimeMs, class: ShedClass) {
        if self.config.enabled {
            self.push(
                at,
                TraceKind::Shed {
                    class: class.as_u8(),
                },
            );
        }
    }

    /// Records a previously evicted `peer` being readmitted on fresh
    /// traffic.
    fn on_rejoin(&mut self, at: TimeMs, peer: NodeId) {
        if self.config.enabled {
            self.push(at, TraceKind::Rejoin { peer });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agb_core::{Event, GossipMessage};
    use agb_types::Payload;

    fn id(n: u32, s: u64) -> EventId {
        EventId::new(NodeId::new(n), s)
    }

    fn gossip_frame(sender: u32, ids: &[EventId]) -> GossipFrame {
        GossipFrame::plain(GossipMessage {
            sender: NodeId::new(sender),
            sample_period: 0,
            min_buffs: vec![],
            events: ids.iter().map(|&i| Event::new(i, Payload::new())).collect(),
            membership: Default::default(),
        })
    }

    #[test]
    fn disabled_probe_records_nothing() {
        let mut p = TraceProbe::new(TraceConfig::disabled(), NodeId::new(0));
        p.on_round(
            TimeMs::ZERO,
            &[(NodeId::new(1), gossip_frame(0, &[id(0, 0)]))],
            1,
            10,
        );
        p.on_events(&[ProtocolEvent::Admitted {
            id: id(0, 0),
            at: TimeMs::ZERO,
        }]);
        p.on_lifecycle(TimeMs::ZERO, LifecycleKind::Crash);
        assert_eq!(p.drain_pending().count(), 0);
    }

    #[test]
    fn round_output_becomes_relays_and_occupancy() {
        let mut p = TraceProbe::new(TraceConfig::enabled(), NodeId::new(0));
        let frames = vec![
            (NodeId::new(1), gossip_frame(0, &[id(0, 0), id(2, 5)])),
            (NodeId::new(2), gossip_frame(0, &[id(0, 0)])),
        ];
        p.on_round(TimeMs::from_secs(1), &frames, 2, 30);
        let recs: Vec<TraceRecord> = p.drain_pending().collect();
        let relays = recs
            .iter()
            .filter(|r| matches!(r.kind, TraceKind::Relay { .. }))
            .count();
        assert_eq!(relays, 3);
        assert!(matches!(
            recs.last().unwrap().kind,
            TraceKind::BufferOccupancy {
                len: 2,
                capacity: 30
            }
        ));
        assert!(recs.iter().all(|r| r.round == 1));
    }

    #[test]
    fn undelivered_incoming_ids_become_duplicates() {
        let mut p = TraceProbe::new(TraceConfig::enabled(), NodeId::new(3));
        let fresh = id(0, 0);
        let stale = id(0, 1);
        p.on_message(&gossip_frame(1, &[fresh, stale]));
        let events = vec![ProtocolEvent::Delivered {
            event: Event::new(fresh, Payload::new()),
            from: NodeId::new(1),
            at: TimeMs::from_secs(2),
        }];
        p.on_events(&events);
        p.on_received(TimeMs::from_secs(2), NodeId::new(1), &events);
        let recs: Vec<TraceRecord> = p.drain_pending().collect();
        assert_eq!(recs.len(), 2);
        assert!(matches!(recs[0].kind, TraceKind::Deliver { id, .. } if id == fresh));
        assert!(
            matches!(recs[1].kind, TraceKind::Duplicate { id, from } if id == stale && from == NodeId::new(1))
        );
    }

    #[test]
    fn region_map_counts_cross_partition_frames() {
        let mut p = TraceProbe::new(TraceConfig::enabled(), NodeId::new(0));
        // Nodes 0-1 in region 0, node 2 in region 1.
        p.set_regions(Arc::from(vec![0u32, 0, 1]));
        let frames = vec![
            (NodeId::new(1), gossip_frame(0, &[id(0, 0)])), // intra-region
            (NodeId::new(2), gossip_frame(0, &[id(0, 0)])), // cross-region
            (NodeId::new(9), gossip_frame(0, &[id(0, 0)])), // out of range -> region 0
        ];
        p.on_round(TimeMs::from_secs(1), &frames, 0, 10);
        let crossings: Vec<(NodeId, u32)> = p
            .drain_pending()
            .filter_map(|r| match r.kind {
                TraceKind::CrossPartition { to, region } => Some((to, region)),
                _ => None,
            })
            .collect();
        assert_eq!(crossings, vec![(NodeId::new(2), 1)]);
        // Without a region map the kind is never produced.
        let mut bare = TraceProbe::new(TraceConfig::enabled(), NodeId::new(0));
        bare.on_round(TimeMs::from_secs(1), &frames, 0, 10);
        assert!(bare
            .drain_pending()
            .all(|r| !matches!(r.kind, TraceKind::CrossPartition { .. })));
    }

    #[test]
    fn restart_resets_the_round_counter() {
        let mut p = TraceProbe::new(TraceConfig::enabled(), NodeId::new(0));
        p.on_round(TimeMs::from_secs(1), &[], 0, 10);
        p.on_round(TimeMs::from_secs(2), &[], 0, 10);
        p.on_lifecycle(TimeMs::from_secs(3), LifecycleKind::Crash);
        p.on_lifecycle(TimeMs::from_secs(4), LifecycleKind::Restart);
        p.on_round(TimeMs::from_secs(5), &[], 0, 10);
        let rounds: Vec<u32> = p.drain_pending().map(|r| r.round).collect();
        assert_eq!(rounds, vec![1, 2, 2, 0, 1]);
    }

    #[test]
    fn protocol_events_map_to_the_taxonomy() {
        let mut p = TraceProbe::new(TraceConfig::enabled(), NodeId::new(0));
        let at = TimeMs::from_secs(1);
        p.on_events(&[
            ProtocolEvent::Admitted { id: id(0, 0), at },
            ProtocolEvent::Dropped {
                id: id(0, 0),
                age: 10,
                reason: PurgeReason::AgeCap,
                at,
            },
            ProtocolEvent::Dropped {
                id: id(0, 1),
                age: 2,
                reason: PurgeReason::Overflow,
                at,
            },
            ProtocolEvent::RecoveryRequested {
                to: NodeId::new(2),
                ids: 3,
                at,
            },
            ProtocolEvent::RateChanged {
                old: 1.0,
                new: 2.0,
                reason: agb_core::RateChangeReason::Headroom,
                at,
            },
        ]);
        let kinds: Vec<&'static str> = p.drain_pending().map(|r| r.kind.label()).collect();
        assert_eq!(kinds, vec!["publish", "drop", "drop", "graft"]);
    }
}
