//! Criterion micro-benchmarks of the protocol building blocks: buffer
//! insertion/eviction, duplicate suppression, estimator updates, wire
//! codec, and a whole simulated gossip round.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use agb_core::{
    AdaptationConfig, AdaptiveNode, BuffAd, CongestionConfig, CongestionEstimator, Event,
    EventBuffer, EventIdBuffer, FrameProtocol, GossipConfig, GossipFrame, LpbcastNode,
    MinBuffConfig, MinBuffEstimator, TokenBucket,
};
use agb_membership::FullView;
use agb_runtime::wire::{decode_frame, encode_frame};
use agb_types::{DetRng, EventId, NodeId, Payload, TimeMs};
use rand::SeedableRng;

fn ev(origin: u32, seq: u64, age: u32) -> Event {
    Event::with_age(EventId::new(NodeId::new(origin), seq), age, Payload::new())
}

fn bench_event_buffer(c: &mut Criterion) {
    c.bench_function("event_buffer_insert_evict_90", |b| {
        b.iter_batched(
            || {
                let mut buf = EventBuffer::new(90);
                for s in 0..90 {
                    buf.insert(ev(0, s, (s % 10) as u32));
                }
                (buf, 90u64)
            },
            |(mut buf, mut seq)| {
                for _ in 0..64 {
                    seq += 1;
                    black_box(buf.insert(ev(0, seq, 0)));
                }
                buf
            },
            BatchSize::SmallInput,
        );
    });

    c.bench_function("event_buffer_increment_ages_180", |b| {
        let mut buf = EventBuffer::new(180);
        for s in 0..180 {
            buf.insert(ev(0, s, 0));
        }
        b.iter(|| {
            buf.increment_ages();
            black_box(buf.len())
        });
    });

    c.bench_function("event_buffer_snapshot_180", |b| {
        let mut buf = EventBuffer::new(180);
        for s in 0..180 {
            buf.insert(ev(0, s, 0));
        }
        b.iter(|| black_box(buf.snapshot().len()));
    });
}

fn bench_id_buffer(c: &mut Criterion) {
    c.bench_function("event_id_buffer_insert_50k", |b| {
        b.iter_batched(
            || EventIdBuffer::new(50_000),
            |mut ids| {
                for s in 0..1_000u64 {
                    black_box(ids.insert(EventId::new(NodeId::new(1), s)));
                }
                ids
            },
            BatchSize::SmallInput,
        );
    });
}

fn bench_estimators(c: &mut Criterion) {
    c.bench_function("minbuff_receive_merge", |b| {
        let mut est = MinBuffEstimator::new(NodeId::new(0), 90, MinBuffConfig::default());
        let ads = [BuffAd {
            node: NodeId::new(5),
            capacity: 45,
        }];
        b.iter(|| black_box(est.on_receive(0, &ads)));
    });

    c.bench_function("congestion_scan_90_over_45", |b| {
        let mut buf = EventBuffer::new(90);
        for s in 0..90 {
            buf.insert(ev(0, s, (s % 10) as u32));
        }
        let mut est = CongestionEstimator::new(CongestionConfig::default());
        b.iter(|| {
            est.scan(&buf, 45, false);
            black_box(est.avg_age())
        });
    });

    c.bench_function("token_bucket_acquire", |b| {
        let mut bucket = TokenBucket::new(1_000_000.0, 64.0, TimeMs::ZERO);
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            black_box(bucket.try_acquire(TimeMs::from_millis(t)))
        });
    });
}

fn bench_wire(c: &mut Criterion) {
    let frame = GossipFrame::plain(agb_core::GossipMessage {
        sender: NodeId::new(3),
        sample_period: 17,
        min_buffs: vec![BuffAd {
            node: NodeId::new(9),
            capacity: 45,
        }],
        events: (0..90).map(|s| ev(2, s, 3)).collect(),
        membership: Default::default(),
    });
    c.bench_function("wire_encode_90_events", |b| {
        b.iter(|| black_box(encode_frame(&frame).len()));
    });
    let bytes = encode_frame(&frame);
    c.bench_function("wire_decode_90_events", |b| {
        b.iter(|| black_box(decode_frame(&bytes).unwrap().sender()));
    });
}

fn bench_protocol_round(c: &mut Criterion) {
    c.bench_function("lpbcast_round_90_events", |b| {
        let mut node = LpbcastNode::new(
            NodeId::new(0),
            GossipConfig::default(),
            FullView::new(60),
            DetRng::seed_from_u64(7),
        );
        for _ in 0..90 {
            node.broadcast_now(Payload::new(), TimeMs::ZERO);
        }
        let mut t = 0u64;
        b.iter(|| {
            t += 1_000;
            let out = node.on_round(TimeMs::from_millis(t));
            node.drain_events();
            black_box(out.len())
        });
    });

    c.bench_function("adaptive_receive_90_events", |b| {
        let mut node = AdaptiveNode::new(
            NodeId::new(0),
            GossipConfig::default(),
            AdaptationConfig::default(),
            FullView::new(60),
            DetRng::seed_from_u64(7),
        );
        let mut seq = 0u64;
        b.iter_batched(
            || {
                let events: Vec<Event> = (0..90)
                    .map(|i| {
                        seq += 1;
                        ev(2, seq * 100 + i, 2)
                    })
                    .collect();
                GossipFrame::plain(agb_core::GossipMessage {
                    sender: NodeId::new(2),
                    sample_period: 0,
                    min_buffs: vec![BuffAd {
                        node: NodeId::new(2),
                        capacity: 90,
                    }],
                    events: events.into(),
                    membership: Default::default(),
                })
            },
            |frame| {
                node.on_receive(NodeId::new(2), frame, TimeMs::ZERO);
                node.drain_events();
            },
            BatchSize::SmallInput,
        );
    });
}

criterion_group!(
    benches,
    bench_event_buffer,
    bench_id_buffer,
    bench_estimators,
    bench_wire,
    bench_protocol_round
);
criterion_main!(benches);
