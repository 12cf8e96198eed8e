//! Property-based tests of the frame codec: arbitrary frames round-trip,
//! arbitrary bytes never panic the decoder, fragmentation preserves
//! content and respects the datagram bound.

use agb_core::{BuffAd, Event, GossipFrame, GossipMessage};
use agb_membership::{MembershipDigest, Unsubscription};
use agb_runtime::wire::{
    decode_frame, decode_frame_interned, encode_frame, split_frame_for_datagram, FrameEncoder,
};
use agb_types::{EventId, NodeId, Payload};
use bytes::Bytes;
use proptest::prelude::*;

fn arb_event() -> impl Strategy<Value = Event> {
    (
        0u32..64,
        0u64..10_000,
        0u32..64,
        proptest::collection::vec(any::<u8>(), 0..64),
    )
        .prop_map(|(origin, seq, age, payload)| {
            Event::with_age(
                EventId::new(NodeId::new(origin), seq),
                age,
                Payload::from(payload),
            )
        })
}

fn arb_message() -> impl Strategy<Value = GossipMessage> {
    (
        0u32..64,
        0u64..1_000,
        proptest::collection::vec((0u32..64, 1u32..1_000), 0..4),
        proptest::collection::vec(arb_event(), 0..24),
        proptest::collection::vec(0u32..64, 0..6),
        proptest::collection::vec((0u32..64, 1u32..32), 0..6),
    )
        .prop_map(
            |(sender, period, ads, events, subs, unsubs)| GossipMessage {
                sender: NodeId::new(sender),
                sample_period: period,
                min_buffs: ads
                    .into_iter()
                    .map(|(node, capacity)| BuffAd {
                        node: NodeId::new(node),
                        capacity,
                    })
                    .collect(),
                events: events.into(),
                membership: MembershipDigest {
                    subs: subs.into_iter().map(NodeId::new).collect(),
                    unsubs: unsubs
                        .into_iter()
                        .map(|(node, ttl)| Unsubscription {
                            node: NodeId::new(node),
                            ttl,
                        })
                        .collect(),
                },
            },
        )
}

fn arb_frame() -> impl Strategy<Value = GossipFrame> {
    use agb_core::{GraftRequest, IHaveDigest, Retransmission};
    (
        arb_message(),
        proptest::option::of(proptest::collection::vec((0u32..64, 0u64..10_000), 0..32)),
        0u8..3,
        0u32..64,
        proptest::collection::vec(arb_event(), 0..8),
    )
        .prop_map(|(msg, digest, kind, sender, events)| {
            let ids = |pairs: Vec<(u32, u64)>| -> Vec<EventId> {
                pairs
                    .into_iter()
                    .map(|(o, s)| EventId::new(NodeId::new(o), s))
                    .collect()
            };
            match kind {
                0 => GossipFrame::Gossip {
                    msg,
                    ihave: digest.map(|d| IHaveDigest { ids: ids(d) }),
                },
                1 => GossipFrame::Graft(GraftRequest {
                    sender: NodeId::new(sender),
                    ids: digest.map(ids).unwrap_or_default(),
                }),
                _ => GossipFrame::Retransmit(Retransmission {
                    sender: NodeId::new(sender),
                    events,
                }),
            }
        })
}

/// The events a frame carries (none for a graft).
fn frame_events(frame: &GossipFrame) -> Vec<Event> {
    match frame {
        GossipFrame::Gossip { msg, .. } => msg.events.as_slice().to_vec(),
        GossipFrame::Retransmit(r) => r.events.clone(),
        GossipFrame::Graft(_) => vec![],
    }
}

/// Checks a frame's datagrams: together they carry the frame's events in
/// order, and only a fragment holding at most one event (or a graft,
/// which goes out whole) may exceed `max`.
fn check_fragments(frame: &GossipFrame, frags: &[Bytes], max: usize) {
    prop_assert!(!frags.is_empty());
    let mut events = Vec::new();
    for f in frags {
        let decoded = decode_frame(f).expect("fragment decodes");
        let carried = frame_events(&decoded);
        if f.len() > max && !matches!(decoded, GossipFrame::Graft(_)) {
            prop_assert!(carried.len() <= 1, "only singletons may exceed max");
        }
        events.extend(carried);
    }
    prop_assert_eq!(events, frame_events(frame));
}

proptest! {
    #[test]
    fn frame_roundtrip_is_identity(frame in arb_frame()) {
        let decoded = decode_frame(&encode_frame(&frame)).expect("roundtrip");
        prop_assert_eq!(decoded, frame);
    }

    #[test]
    fn frame_decoder_never_panics_on_garbage(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let _ = decode_frame(&bytes); // must return Err, not panic
    }

    #[test]
    fn frame_fragmentation_preserves_events(frame in arb_frame(), max in 128usize..2048) {
        check_fragments(&frame, &split_frame_for_datagram(&frame, max), max);
    }
}

// The pooled/interned codec paths must be indistinguishable from the
// plain ones: pooled encoding byte-for-byte, interned decoding
// value-for-value, across arbitrary messages and frames.
proptest! {
    #[test]
    fn pooled_encode_matches_legacy_byte_for_byte(
        msgs in proptest::collection::vec(arb_message(), 1..6),
    ) {
        let mut encoder = FrameEncoder::default();
        // Sequential reuse of the same pooled buffer must never leak
        // state between frames.
        for msg in &msgs {
            let frame = GossipFrame::plain(msg.clone());
            prop_assert_eq!(encoder.encode(&frame), encode_frame(&frame));
        }
    }

    #[test]
    fn pooled_frame_encode_matches_legacy_byte_for_byte(
        frames in proptest::collection::vec(arb_frame(), 1..6),
    ) {
        let mut encoder = FrameEncoder::default();
        for frame in &frames {
            prop_assert_eq!(encoder.encode(frame), encode_frame(frame));
        }
    }

    #[test]
    fn interned_frame_decode_matches_legacy(frame in arb_frame()) {
        let bytes = encode_frame(&frame);
        let mut interner = agb_types::PayloadInterner::new(1024);
        let interned = decode_frame_interned(&bytes, &mut interner).expect("decodes");
        prop_assert_eq!(&interned, &decode_frame(&bytes).expect("decodes"));
        // Decoding the same bytes again serves payloads from the intern
        // table and still matches.
        let again = decode_frame_interned(&bytes, &mut interner).expect("decodes");
        prop_assert_eq!(again, interned);
    }

    #[test]
    fn pooled_split_respects_bound_and_content(frame in arb_frame(), max in 128usize..2048) {
        let mut encoder = FrameEncoder::default();
        check_fragments(&frame, &encoder.split_for_datagram(&frame, max), max);
    }
}
