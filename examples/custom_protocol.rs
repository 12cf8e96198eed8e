//! Grafting the paper's adaptation mechanism onto your own gossip stack.
//!
//! §5 argues the mechanism is generic: any gossip algorithm can adopt it by
//! (1) piggybacking `(period, minBuff)` on its messages, (2) running the
//! would-drop scan against the minimum estimate, and (3) throttling its
//! senders on the resulting `avgAge`. This example wires the three public
//! components — [`MinBuffEstimator`], [`CongestionEstimator`],
//! [`RateController`] — around a deliberately naive "flood relay" to show
//! the integration surface, then drives two hand-wired nodes.
//!
//! Run with: `cargo run --release --example custom_protocol`

use adaptive_gossip::core::{
    BuffAd, CongestionConfig, CongestionEstimator, Event, EventBuffer, MinBuffConfig,
    MinBuffEstimator, RateConfig, RateController, TokenBucket,
};
use adaptive_gossip::types::{DetRng, EventId, NodeId, Payload, TimeMs};
use rand::SeedableRng;

/// A toy flooding protocol with a bounded relay buffer — *not* lpbcast —
/// hosting the paper's adaptation components.
struct FloodNode {
    id: NodeId,
    buffer: EventBuffer,
    min_buff: MinBuffEstimator,
    congestion: CongestionEstimator,
    controller: RateController,
    bucket: TokenBucket,
    rng: DetRng,
    next_seq: u64,
}

/// What a flood message carries: the adaptation header plus events.
struct FloodMessage {
    period: u64,
    min_buffs: Vec<BuffAd>,
    events: Vec<Event>,
}

impl FloodNode {
    fn new(id: NodeId, capacity: usize, seed: u64) -> Self {
        let min_buff = MinBuffEstimator::new(id, capacity as u32, MinBuffConfig::default());
        FloodNode {
            id,
            buffer: EventBuffer::new(capacity),
            min_buff,
            congestion: CongestionEstimator::new(CongestionConfig::default()),
            controller: RateController::new(5.0, RateConfig::default()),
            bucket: TokenBucket::new(5.0, 4.0, TimeMs::ZERO),
            rng: DetRng::seed_from_u64(seed),
            next_seq: 0,
        }
    }

    /// Integration point 1: stamp the adaptation header on egress.
    fn emit(&mut self, now: TimeMs) -> FloodMessage {
        let _ = now;
        let (period, min_buffs) = self.min_buff.advertisement();
        FloodMessage {
            period,
            min_buffs,
            events: self.buffer.snapshot(),
        }
    }

    /// Integration point 2: merge the header + run the would-drop scan on
    /// ingress.
    fn receive(&mut self, msg: FloodMessage) {
        self.min_buff.on_receive(msg.period, &msg.min_buffs);
        let mut overflowed = false;
        for e in msg.events {
            if let Some(purged) = self.buffer.insert(e) {
                overflowed = true;
                self.congestion.on_purged(&purged);
            }
        }
        self.congestion
            .scan(&self.buffer, self.min_buff.estimate() as usize, overflowed);
    }

    /// Integration point 3: adjust the sender each round.
    fn round(&mut self, now: TimeMs) {
        self.buffer.increment_ages();
        self.min_buff.on_tick(now);
        let tokens = self.bucket.tokens(now);
        if let Some(change) = self.controller.adjust(
            self.congestion.avg_age(),
            tokens,
            self.bucket.max_tokens(),
            &mut self.rng,
        ) {
            self.bucket.set_rate(change.new, now);
            println!(
                "  {}: rate {:.2} -> {:.2} ({:?})",
                self.id, change.old, change.new, change.reason
            );
        }
    }

    fn publish(&mut self, now: TimeMs) -> bool {
        if self.bucket.try_acquire(now) {
            let id = EventId::new(self.id, self.next_seq);
            self.next_seq += 1;
            if let Some(purged) = self.buffer.insert(Event::new(id, Payload::new())) {
                self.congestion.on_purged(&purged);
            }
            true
        } else {
            false
        }
    }
}

fn main() {
    // Node B has a quarter of node A's buffer; A must discover that and
    // slow down — without any dedicated control messages.
    let mut a = FloodNode::new(NodeId::new(0), 64, 1);
    let mut b = FloodNode::new(NodeId::new(1), 16, 2);

    println!("adaptation on a custom flooding protocol:");
    for round in 0..40u64 {
        let now = TimeMs::from_secs(round);
        // A publishes as fast as its bucket allows.
        let mut published = 0;
        while a.publish(now) {
            published += 1;
        }
        a.round(now);
        b.round(now);
        // Exchange floods.
        let to_b = a.emit(now);
        let to_a = b.emit(now);
        b.receive(to_b);
        a.receive(to_a);
        if round % 10 == 0 {
            println!(
                "round {round:>2}: A published {published}, A.minBuff={}, A.avgAge={:.2}, A.rate={:.2}",
                a.min_buff.estimate(),
                a.congestion.avg_age(),
                a.controller.rate()
            );
        }
    }
    assert_eq!(
        a.min_buff.estimate(),
        16,
        "A discovered B's buffer size through piggybacked gossip"
    );
    println!(
        "final: A discovered minBuff={} and throttled to {:.2} msg/s",
        a.min_buff.estimate(),
        a.controller.rate()
    );
}
