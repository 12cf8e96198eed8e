//! The standard trace sink: bounded raw-record ring + streaming
//! aggregates + order-sensitive digest.

use std::collections::VecDeque;

use agb_types::json::Json;
use agb_types::{DurationMs, FastHashMap, Histogram, NodeId, TimeMs};

use crate::config::TraceConfig;
use crate::record::{DropCause, TraceKind, TraceRecord};
use crate::tree::TreeBuilder;

pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
pub(crate) const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Per-kind record counts — the trace's drop taxonomy and traffic
/// summary in one flat struct.
///
/// Also used standalone (without a full [`Recorder`]) where only counts
/// are wanted, e.g. the Maelstrom harness's per-workload trace summary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCounts {
    /// Admissions at origins.
    pub publishes: u64,
    /// Forwarded copies.
    pub relays: u64,
    /// First deliveries.
    pub delivers: u64,
    /// Redundant gossip arrivals.
    pub duplicates: u64,
    /// Age-cap purges.
    pub drops_age: u64,
    /// Buffer-overflow evictions.
    pub drops_size: u64,
    /// Sender-side throttle suppressions.
    pub drops_congestion: u64,
    /// `IHave` digests piggybacked.
    pub ihaves: u64,
    /// `Graft` pull requests sent.
    pub grafts: u64,
    /// `Graft` replies served.
    pub retransmits: u64,
    /// Deliveries repaired through recovery.
    pub recovered: u64,
    /// Retransmissions that arrived after regular gossip already had.
    pub recovery_duplicates: u64,
    /// Events whose recovery ran out of retries.
    pub recovery_abandoned: u64,
    /// Membership-view size changes.
    pub view_changes: u64,
    /// Node crashes.
    pub crashes: u64,
    /// Node restarts.
    pub restarts: u64,
    /// Gossip frames sent across a topology-region boundary (only
    /// tallied when the probe carries a region map).
    pub cross_partition_msgs: u64,
    /// φ-accrual suspicion onsets.
    pub suspects: u64,
    /// Detector-driven evictions.
    pub detector_evicts: u64,
    /// Explicit heartbeats sent (gossip did not cover the link).
    pub heartbeats: u64,
    /// Frames shed by overloaded queues.
    pub sheds: u64,
    /// Evicted peers readmitted on fresh traffic.
    pub rejoins: u64,
}

impl TraceCounts {
    /// Tallies one record kind.
    pub fn observe(&mut self, kind: &TraceKind) {
        match kind {
            TraceKind::Publish { .. } => self.publishes += 1,
            TraceKind::Relay { .. } => self.relays += 1,
            TraceKind::Deliver { .. } => self.delivers += 1,
            TraceKind::Duplicate { .. } => self.duplicates += 1,
            TraceKind::Drop { cause, .. } => match cause {
                DropCause::Age => self.drops_age += 1,
                DropCause::Size => self.drops_size += 1,
                DropCause::Congestion => self.drops_congestion += 1,
            },
            TraceKind::IHave { .. } => self.ihaves += 1,
            TraceKind::Graft { .. } => self.grafts += 1,
            TraceKind::Retransmit { .. } => self.retransmits += 1,
            TraceKind::Recovered { .. } => self.recovered += 1,
            TraceKind::RecoveryDuplicate { .. } => self.recovery_duplicates += 1,
            TraceKind::RecoveryAbandoned { .. } => self.recovery_abandoned += 1,
            TraceKind::ViewChange { .. } => self.view_changes += 1,
            TraceKind::Crash => self.crashes += 1,
            TraceKind::Restart => self.restarts += 1,
            TraceKind::BufferOccupancy { .. } => {}
            TraceKind::CrossPartition { .. } => self.cross_partition_msgs += 1,
            TraceKind::Suspect { .. } => self.suspects += 1,
            TraceKind::DetectorEvict { .. } => self.detector_evicts += 1,
            TraceKind::Heartbeat { .. } => self.heartbeats += 1,
            TraceKind::Shed { .. } => self.sheds += 1,
            TraceKind::Rejoin { .. } => self.rejoins += 1,
        }
    }

    /// Element-wise sum (aggregating per-node or per-workload counts).
    pub fn merge(&mut self, other: &TraceCounts) {
        self.publishes += other.publishes;
        self.relays += other.relays;
        self.delivers += other.delivers;
        self.duplicates += other.duplicates;
        self.drops_age += other.drops_age;
        self.drops_size += other.drops_size;
        self.drops_congestion += other.drops_congestion;
        self.ihaves += other.ihaves;
        self.grafts += other.grafts;
        self.retransmits += other.retransmits;
        self.recovered += other.recovered;
        self.recovery_duplicates += other.recovery_duplicates;
        self.recovery_abandoned += other.recovery_abandoned;
        self.view_changes += other.view_changes;
        self.crashes += other.crashes;
        self.restarts += other.restarts;
        self.cross_partition_msgs += other.cross_partition_msgs;
        self.suspects += other.suspects;
        self.detector_evicts += other.detector_evicts;
        self.heartbeats += other.heartbeats;
        self.sheds += other.sheds;
        self.rejoins += other.rejoins;
    }

    /// Total records tallied (excluding occupancy snapshots, which are
    /// not counted).
    pub fn total(&self) -> u64 {
        self.as_pairs().iter().map(|&(_, v)| v).sum()
    }

    /// All drops, across the taxonomy.
    pub fn drops(&self) -> u64 {
        self.drops_age + self.drops_size + self.drops_congestion
    }

    /// `(label, count)` pairs in stable declaration order.
    pub fn as_pairs(&self) -> [(&'static str, u64); 22] {
        [
            ("publishes", self.publishes),
            ("relays", self.relays),
            ("delivers", self.delivers),
            ("duplicates", self.duplicates),
            ("drops_age", self.drops_age),
            ("drops_size", self.drops_size),
            ("drops_congestion", self.drops_congestion),
            ("ihaves", self.ihaves),
            ("grafts", self.grafts),
            ("retransmits", self.retransmits),
            ("recovered", self.recovered),
            ("recovery_duplicates", self.recovery_duplicates),
            ("recovery_abandoned", self.recovery_abandoned),
            ("view_changes", self.view_changes),
            ("crashes", self.crashes),
            ("restarts", self.restarts),
            ("cross_partition_msgs", self.cross_partition_msgs),
            ("suspects", self.suspects),
            ("detector_evicts", self.detector_evicts),
            ("heartbeats", self.heartbeats),
            ("sheds", self.sheds),
            ("rejoins", self.rejoins),
        ]
    }

    /// JSON object with one field per counter (stable key order).
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.as_pairs()
                .into_iter()
                .map(|(k, v)| (k.to_string(), Json::from(v)))
                .collect(),
        )
    }

    /// Folds the counts into a digest accumulator.
    pub fn fold_digest(&self, mix: &mut impl FnMut(u64)) {
        for (_, v) in self.as_pairs() {
            mix(v);
        }
    }
}

/// The trace consumer: keeps the most recent raw records in a
/// bounded ring and folds *every* record — including ones later evicted
/// from the ring — into streaming aggregates:
///
/// * [`TraceCounts`] per kind (the drop taxonomy),
/// * fixed-bucket [`Histogram`]s for delivery latency in gossip rounds,
///   hops-to-delivery, buffer occupancy, and recovery round-trip time,
/// * per-event dissemination trees ([`TreeBuilder`]),
/// * an order-sensitive FNV-1a [`digest`](Recorder::digest) over the
///   full record stream.
///
/// Records must arrive in the engine's canonical merge order; under the
/// deterministic sharded simulator that makes the digest bit-identical
/// at every `AGB_THREADS` setting.
#[derive(Debug)]
pub struct Recorder {
    config: TraceConfig,
    round: DurationMs,
    ring: VecDeque<TraceRecord>,
    evicted: u64,
    counts: TraceCounts,
    latency: Histogram,
    hops: Histogram,
    occupancy: Histogram,
    recovery_rtt: Histogram,
    trees: TreeBuilder,
    /// Open `Graft` round trips: (requester, advertiser) -> request time.
    outstanding: FastHashMap<(NodeId, NodeId), TimeMs>,
    digest: u64,
}

impl Recorder {
    /// Creates a recorder for `config`, assuming a 1-second gossip round
    /// for the latency conversion (override with
    /// [`with_round`](Self::with_round)).
    pub fn new(config: TraceConfig) -> Self {
        Recorder {
            config,
            round: DurationMs::from_secs(1),
            ring: VecDeque::new(),
            evicted: 0,
            counts: TraceCounts::default(),
            latency: Histogram::new(&[1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0]),
            hops: Histogram::new(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 12.0, 16.0]),
            occupancy: Histogram::new(&[5.0, 10.0, 20.0, 40.0, 80.0, 160.0, 320.0]),
            recovery_rtt: Histogram::new(&[
                50.0, 100.0, 200.0, 400.0, 800.0, 1_600.0, 3_200.0, 6_400.0,
            ]),
            trees: TreeBuilder::new(),
            outstanding: FastHashMap::default(),
            digest: FNV_OFFSET,
        }
    }

    /// Sets the gossip period used to convert delivery latency from
    /// milliseconds to rounds.
    pub fn with_round(mut self, round: DurationMs) -> Self {
        self.round = round;
        self
    }

    /// The recorder's configuration.
    pub fn config(&self) -> &TraceConfig {
        &self.config
    }

    /// Records retained in the ring (most recent last).
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.ring.iter()
    }

    /// Records folded into aggregates but evicted from the ring.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Per-kind counts (the drop taxonomy lives here).
    pub fn counts(&self) -> &TraceCounts {
        &self.counts
    }

    /// Delivery latency in gossip rounds (publish → first delivery).
    pub fn latency(&self) -> &Histogram {
        &self.latency
    }

    /// Hops-to-delivery (the delivered copy's age).
    pub fn hops(&self) -> &Histogram {
        &self.hops
    }

    /// Buffer occupancy snapshots (one per node per round).
    pub fn occupancy(&self) -> &Histogram {
        &self.occupancy
    }

    /// Recovery round-trip time (`Graft` sent → event recovered), ms.
    pub fn recovery_rtt(&self) -> &Histogram {
        &self.recovery_rtt
    }

    /// The dissemination-tree builder.
    pub fn trees(&self) -> &TreeBuilder {
        &self.trees
    }

    /// Streaming FNV-1a digest over every record seen, in order.
    /// Identical streams — across runs and thread counts — yield
    /// identical digests.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Estimated resident footprint of the retained ring and the open
    /// recovery round-trip table (the recorder's two growable stores).
    fn estimated_bytes(&self) -> u64 {
        let ring = self.ring.len() * std::mem::size_of::<TraceRecord>();
        let outstanding =
            self.outstanding.len() * (std::mem::size_of::<((NodeId, NodeId), TimeMs)>() + 8);
        (ring + outstanding) as u64
    }

    fn mix(&mut self, word: u64) {
        self.digest ^= word;
        self.digest = self.digest.wrapping_mul(FNV_PRIME);
    }

    fn fold_record(&mut self, r: &TraceRecord) {
        self.mix(r.kind.tag());
        self.mix(u64::from(r.node.as_u32()));
        self.mix(r.at.as_millis());
        self.mix(u64::from(r.round));
        if let Some(id) = r.kind.event_id() {
            self.mix(u64::from(id.origin().as_u32()));
            self.mix(id.seq());
        }
        match &r.kind {
            TraceKind::Relay { to, age, .. } => {
                self.mix(u64::from(to.as_u32()));
                self.mix(u64::from(*age));
            }
            TraceKind::Deliver { from, hops, .. } => {
                self.mix(u64::from(from.as_u32()));
                self.mix(u64::from(*hops));
            }
            TraceKind::Duplicate { from, .. } | TraceKind::Recovered { from, .. } => {
                self.mix(u64::from(from.as_u32()));
            }
            TraceKind::Drop { age, cause, .. } => {
                self.mix(u64::from(*age));
                self.mix(*cause as u64);
            }
            TraceKind::IHave { to, ids } | TraceKind::Graft { to, ids } => {
                self.mix(u64::from(to.as_u32()));
                self.mix(u64::from(*ids));
            }
            TraceKind::Retransmit { to, events, missed } => {
                self.mix(u64::from(to.as_u32()));
                self.mix(u64::from(*events));
                self.mix(u64::from(*missed));
            }
            TraceKind::ViewChange { view_size } => self.mix(u64::from(*view_size)),
            TraceKind::BufferOccupancy { len, capacity } => {
                self.mix(u64::from(*len));
                self.mix(u64::from(*capacity));
            }
            TraceKind::CrossPartition { to, region } => {
                self.mix(u64::from(to.as_u32()));
                self.mix(u64::from(*region));
            }
            _ => {}
        }
    }

    fn aggregate(&mut self, r: &TraceRecord) {
        match &r.kind {
            TraceKind::Deliver { id, hops, .. } => {
                self.hops.observe(f64::from(*hops));
                if let Some(published) = self.trees.publish_at(*id) {
                    let ms = r.at.since(published).as_millis() as f64;
                    let round = self.round.as_millis().max(1) as f64;
                    self.latency.observe(ms / round);
                }
            }
            TraceKind::BufferOccupancy { len, .. } => {
                self.occupancy.observe(f64::from(*len));
            }
            TraceKind::Graft { to, .. } => {
                // Latest request wins: retries restart the RTT clock.
                self.outstanding.insert((r.node, *to), r.at);
            }
            TraceKind::Recovered { from, .. } => {
                if let Some(sent) = self.outstanding.remove(&(r.node, *from)) {
                    self.recovery_rtt
                        .observe(r.at.since(sent).as_millis() as f64);
                }
            }
            TraceKind::Crash => {
                // Crashed state is lost; forget its open round trips.
                self.outstanding
                    .retain(|&(requester, _), _| requester != r.node);
            }
            _ => {}
        }
    }

    /// Consumes one record, in the engine's canonical merge order.
    /// Recording never feeds back into protocol state, which is what
    /// keeps engine checksums identical with tracing on and off.
    pub fn record(&mut self, record: TraceRecord) {
        self.fold_record(&record);
        self.counts.observe(&record.kind);
        self.trees.observe(&record);
        self.aggregate(&record);
        if self.config.ring_capacity == 0 {
            self.evicted += 1;
            return;
        }
        if self.ring.len() == self.config.ring_capacity {
            self.ring.pop_front();
            self.evicted += 1;
        }
        self.ring.push_back(record);
    }
}

impl agb_profile::MemReport for Recorder {
    fn mem_usage(&self) -> agb_profile::MemUsage {
        agb_profile::MemUsage::new(
            self.estimated_bytes(),
            self.ring.len() as u64 + self.outstanding.len() as u64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agb_types::EventId;

    fn rec(node: u32, at_ms: u64, kind: TraceKind) -> TraceRecord {
        TraceRecord {
            node: NodeId::new(node),
            at: TimeMs::from_millis(at_ms),
            round: (at_ms / 1_000) as u32,
            kind,
        }
    }

    fn id(n: u32, s: u64) -> EventId {
        EventId::new(NodeId::new(n), s)
    }

    #[test]
    fn latency_is_measured_from_publish_in_rounds() {
        let mut r = Recorder::new(TraceConfig::enabled());
        let e = id(0, 0);
        r.record(rec(0, 1_000, TraceKind::Publish { id: e }));
        r.record(rec(
            3,
            4_000,
            TraceKind::Deliver {
                id: e,
                from: NodeId::new(1),
                hops: 2,
            },
        ));
        assert_eq!(r.latency().count(), 1);
        assert_eq!(r.latency().mean(), Some(3.0));
        assert_eq!(r.hops().mean(), Some(2.0));
    }

    #[test]
    fn recovery_rtt_matches_graft_to_recovered() {
        let mut r = Recorder::new(TraceConfig::enabled());
        r.record(rec(
            2,
            5_000,
            TraceKind::Graft {
                to: NodeId::new(7),
                ids: 1,
            },
        ));
        r.record(rec(
            2,
            5_800,
            TraceKind::Recovered {
                id: id(0, 3),
                from: NodeId::new(7),
            },
        ));
        assert_eq!(r.recovery_rtt().count(), 1);
        assert_eq!(r.recovery_rtt().mean(), Some(800.0));
        // A second Recovered with no open graft records nothing.
        r.record(rec(
            2,
            6_000,
            TraceKind::Recovered {
                id: id(0, 4),
                from: NodeId::new(7),
            },
        ));
        assert_eq!(r.recovery_rtt().count(), 1);
    }

    #[test]
    fn crash_voids_open_round_trips() {
        let mut r = Recorder::new(TraceConfig::enabled());
        r.record(rec(
            2,
            5_000,
            TraceKind::Graft {
                to: NodeId::new(7),
                ids: 1,
            },
        ));
        r.record(rec(2, 5_500, TraceKind::Crash));
        r.record(rec(
            2,
            9_000,
            TraceKind::Recovered {
                id: id(0, 3),
                from: NodeId::new(7),
            },
        ));
        assert_eq!(r.recovery_rtt().count(), 0);
        assert_eq!(r.counts().crashes, 1);
    }

    #[test]
    fn ring_evicts_oldest_but_aggregates_keep_counting() {
        let mut r = Recorder::new(TraceConfig::enabled().with_ring_capacity(2));
        for seq in 0..5 {
            r.record(rec(0, seq, TraceKind::Publish { id: id(0, seq) }));
        }
        assert_eq!(r.records().count(), 2);
        assert_eq!(r.evicted(), 3);
        assert_eq!(r.counts().publishes, 5);
        assert_eq!(r.trees().stats().events, 5);
        let retained: Vec<u64> = r
            .records()
            .filter_map(|rec| rec.kind.event_id())
            .map(|e| e.seq())
            .collect();
        assert_eq!(retained, vec![3, 4]);
    }

    #[test]
    fn digest_is_order_sensitive_and_reproducible() {
        let a = {
            let mut r = Recorder::new(TraceConfig::enabled());
            r.record(rec(0, 0, TraceKind::Publish { id: id(0, 0) }));
            r.record(rec(1, 1, TraceKind::Publish { id: id(1, 0) }));
            r.digest()
        };
        let b = {
            let mut r = Recorder::new(TraceConfig::enabled());
            r.record(rec(0, 0, TraceKind::Publish { id: id(0, 0) }));
            r.record(rec(1, 1, TraceKind::Publish { id: id(1, 0) }));
            r.digest()
        };
        let swapped = {
            let mut r = Recorder::new(TraceConfig::enabled());
            r.record(rec(1, 1, TraceKind::Publish { id: id(1, 0) }));
            r.record(rec(0, 0, TraceKind::Publish { id: id(0, 0) }));
            r.digest()
        };
        assert_eq!(a, b);
        assert_ne!(a, swapped);
    }

    #[test]
    fn counts_merge_and_total() {
        let mut a = TraceCounts::default();
        a.observe(&TraceKind::Publish { id: id(0, 0) });
        a.observe(&TraceKind::Drop {
            id: None,
            age: 0,
            cause: DropCause::Congestion,
        });
        let mut b = TraceCounts::default();
        b.observe(&TraceKind::Crash);
        a.merge(&b);
        assert_eq!(a.publishes, 1);
        assert_eq!(a.drops_congestion, 1);
        assert_eq!(a.crashes, 1);
        assert_eq!(a.total(), 3);
        assert_eq!(a.drops(), 1);
        let j = a.to_json();
        assert_eq!(j.get("publishes").unwrap().as_u64(), Some(1));
    }
}
