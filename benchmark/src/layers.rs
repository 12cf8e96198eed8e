//! Per-layer legs that time calls into one layer's public functions from
//! outside: membership sampling, the event buffer and id history, the
//! adaptation parts, the recovery structures and the wire codec. Each is
//! sized from the workload's own configuration.

use std::hint::black_box;
use std::time::Instant;

use agb_core::{
    BuffAd, CongestionEstimator, Event, EventBuffer, EventIdBuffer, GossipFrame, MinBuffEstimator,
    TokenBucket,
};
use agb_membership::{FullView, PeerSampler};
use agb_perf::alloc::allocation_count;
use agb_recovery::{MissingTracker, RetransmissionCache};
use agb_runtime::{wire, MAX_DATAGRAM};
use agb_types::{DetRng, EventId, NodeId, Payload, PayloadInterner, TimeMs};
use agb_workload::ClusterConfig;
use rand::SeedableRng;

use crate::report::{median, Report};

/// Batches per leg; each leg reports the median batch.
const BATCHES: usize = 9;

/// Median nanoseconds per call over [`BATCHES`] batches of `ops` calls.
fn ns_per_op(ops: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut samples = Vec::with_capacity(BATCHES);
    let mut i = 0;
    for _ in 0..BATCHES {
        let t = Instant::now();
        for _ in 0..ops {
            f(i);
            i += 1;
        }
        samples.push(t.elapsed().as_nanos() as f64 / ops as f64);
    }
    median(&samples)
}

/// Like [`ns_per_op`], but each call consumes a fresh state prepared
/// outside the timed region.
fn ns_per_fresh<S>(ops: usize, mut prepare: impl FnMut() -> S, mut f: impl FnMut(&mut S)) -> f64 {
    let mut samples = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let mut states: Vec<S> = (0..ops).map(|_| prepare()).collect();
        let t = Instant::now();
        for s in &mut states {
            f(s);
        }
        samples.push(t.elapsed().as_nanos() as f64 / ops as f64);
        black_box(&states);
    }
    median(&samples)
}

fn event(i: usize, age: u32, payload: &Payload) -> Event {
    Event::with_age(
        EventId::new(NodeId::new((i % 16) as u32), i as u64),
        age,
        payload.clone(),
    )
}

/// A buffer filled to capacity with ages spread over `0..age_cap`.
fn full_buffer(capacity: usize, age_cap: u32, payload: &Payload) -> EventBuffer {
    let mut buf = EventBuffer::new(capacity);
    for i in 0..capacity {
        buf.insert(event(i, i as u32 % age_cap.max(1), payload));
    }
    buf
}

/// Membership, buffer, id-history, adaptation and recovery legs.
pub fn component_legs(config: &ClusterConfig, report: &mut Report) {
    let g = &config.gossip;
    let payload = Payload::from(vec![7u8; config.payload_size]);
    let mut rng = DetRng::seed_from_u64(config.seed);

    let view = FullView::new(config.n_nodes);
    let n = config.n_nodes;
    report.set(
        "membership.sample_ns",
        ns_per_op(20_000, |i| {
            black_box(view.sample(&mut rng, g.fanout, NodeId::new((i % n) as u32)));
        }),
    );
    drop(view);

    let mut buf = EventBuffer::new(g.max_events);
    report.set(
        "buffer.insert_ns",
        ns_per_op(20_000, |i| {
            black_box(buf.insert(event(i, i as u32 % g.age_cap, &payload)));
        }),
    );
    let full = full_buffer(g.max_events, g.age_cap, &payload);
    report.set(
        "buffer.purge_ns",
        ns_per_fresh(
            2_000,
            || full.clone(),
            |b| {
                b.increment_ages();
                black_box(b.purge_age_cap(g.age_cap));
            },
        ),
    );
    report.set(
        "buffer.snapshot_ns",
        ns_per_op(20_000, |_| {
            black_box(full.snapshot_shared());
        }),
    );
    let mut ids = EventIdBuffer::new(g.max_event_ids);
    for i in 0..g.max_event_ids {
        ids.insert(EventId::new(NodeId::new((i % 16) as u32), i as u64));
    }
    let span = 2 * g.max_event_ids;
    report.set(
        "ids.contains_ns",
        ns_per_op(50_000, |i| {
            let k = i.wrapping_mul(7_919) % span;
            black_box(ids.contains(EventId::new(NodeId::new((k % 16) as u32), k as u64)));
        }),
    );
    drop(ids);

    let a = &config.adaptation;
    let mut minbuff = MinBuffEstimator::new(NodeId::new(0), g.max_events as u32, a.min_buff);
    report.set(
        "adapt.minbuff_ns",
        ns_per_op(50_000, |i| {
            let ads = [BuffAd {
                node: NodeId::new((i % n) as u32),
                capacity: (g.max_events - i % 8) as u32,
            }];
            black_box(minbuff.on_receive(0, &ads));
        }),
    );
    let fresh = CongestionEstimator::new(a.congestion);
    report.set(
        "adapt.congestion_scan_ns",
        ns_per_fresh(
            5_000,
            || fresh.clone(),
            |est| est.scan(&full, g.max_events / 2, false),
        ),
    );
    let mut bucket = TokenBucket::new(a.initial_rate, a.bucket_capacity, TimeMs::ZERO);
    report.set(
        "adapt.token_bucket_ns",
        ns_per_op(100_000, |i| {
            black_box(bucket.try_acquire(TimeMs::from_millis(i as u64)));
        }),
    );

    // Recovery is a layer of its own: a workload without it reports
    // zeros rather than the cost of structures it never builds.
    let Some(rc) = config.recovery.clone() else {
        report.zero_layers(&["recovery.cache_", "recovery.missing_"]);
        return;
    };
    let mut cache = RetransmissionCache::new(rc.cache_capacity, rc.cache_rounds);
    report.set(
        "recovery.cache_insert_ns",
        ns_per_op(20_000, |i| cache.insert(event(i, 0, &payload))),
    );
    let mut warm = RetransmissionCache::new(rc.cache_capacity, rc.cache_rounds);
    for i in 0..rc.cache_capacity {
        warm.insert(event(i, 0, &payload));
    }
    report.set(
        "recovery.cache_round_ns",
        ns_per_fresh(2_000, || warm.clone(), |c| c.on_round()),
    );
    let mut missing = MissingTracker::with_capacity(rc.max_missing);
    let window = rc.max_missing / 2;
    report.set(
        "recovery.missing_note_ns",
        ns_per_op(50_000, |i| {
            let id = |k: usize| EventId::new(NodeId::new((k % 16) as u32), k as u64);
            black_box(missing.note(id(i), NodeId::new((i % n) as u32), i as u64));
            if i >= window {
                missing.resolve(id(i - window));
            }
        }),
    );
}

/// Encodes every captured frame into datagrams and decodes them back,
/// checking the round trip. Fails if a decoded frame differs.
pub fn wire_leg(frames: &[GossipFrame], report: &mut Report) -> Result<(), String> {
    if frames.is_empty() {
        return Err("the replay captured no frames for the wire leg".into());
    }
    let mut encoder = wire::FrameEncoder::default();
    let mut interner = PayloadInterner::new(4_096);
    let mut bytes = 0usize;
    for frame in frames {
        let datagrams = encoder.split_for_datagram(frame, MAX_DATAGRAM);
        bytes += datagrams.iter().map(|d| d.len()).sum::<usize>();
        if datagrams.len() == 1 {
            let back = wire::decode_frame_interned(&datagrams[0], &mut interner)
                .map_err(|e| format!("captured frame failed to decode: {e:?}"))?;
            if &back != frame {
                return Err("a frame changed across encode/decode".into());
            }
        }
    }
    let encoded: Vec<Vec<Payload>> = frames
        .iter()
        .map(|f| encoder.split_for_datagram(f, MAX_DATAGRAM))
        .collect();

    let allocs_before = allocation_count();
    for (f, d) in frames.iter().zip(&encoded) {
        black_box(encoder.split_for_datagram(f, MAX_DATAGRAM));
        for datagram in d {
            black_box(wire::decode_frame_interned(datagram, &mut interner).ok());
        }
    }
    let allocs = allocation_count() - allocs_before;

    let per_frame = frames.len();
    let mut k = 0;
    let encode_ns = ns_per_op(per_frame * 4, |_| {
        black_box(encoder.split_for_datagram(&frames[k % per_frame], MAX_DATAGRAM));
        k += 1;
    });
    let mut k = 0;
    let decode_ns = ns_per_op(per_frame * 4, |_| {
        for datagram in &encoded[k % per_frame] {
            black_box(wire::decode_frame_interned(datagram, &mut interner).ok());
        }
        k += 1;
    });
    report.set("wire.encode_ns", encode_ns);
    report.set("wire.decode_ns", decode_ns);
    report.set("wire.bytes_per_frame", bytes as f64 / per_frame as f64);
    report.set("wire.allocs_per_frame", allocs as f64 / per_frame as f64);
    Ok(())
}
