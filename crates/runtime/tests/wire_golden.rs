//! Golden bytes of the frame codec: fixed frames must encode, and split
//! into datagrams, to exactly these bytes. The round-trip proptests
//! compare paths that share one body encoder, so only a pinned byte
//! string catches a format change.

use agb_core::{
    BuffAd, Event, GossipFrame, GossipMessage, GraftRequest, IHaveDigest, Retransmission,
};
use agb_membership::{MembershipDigest, Unsubscription};
use agb_runtime::wire::{decode_frame, encode_frame, FrameEncoder};
use agb_types::{EventId, NodeId, Payload};

/// Datagram bound for the split cases: small enough that the gossip and
/// retransmit frames fragment and the 12-id digest ships on its own.
const MAX_BYTES: usize = 128;

fn events(origin: u32, n: u64) -> Vec<Event> {
    (0..n)
        .map(|s| {
            Event::with_age(
                EventId::new(NodeId::new(origin), s),
                s as u32 + 1,
                Payload::from(vec![0xC0 + s as u8; 4]),
            )
        })
        .collect()
}

fn ids(origin: u32, n: u64) -> Vec<EventId> {
    (0..n)
        .map(|s| EventId::new(NodeId::new(origin), 100 + s))
        .collect()
}

fn gossip(digest: Vec<EventId>) -> GossipFrame {
    GossipFrame::Gossip {
        msg: GossipMessage {
            sender: NodeId::new(3),
            sample_period: 42,
            min_buffs: vec![BuffAd {
                node: NodeId::new(9),
                capacity: 45,
            }],
            events: events(1, 3).into(),
            membership: MembershipDigest {
                subs: vec![NodeId::new(4)],
                unsubs: vec![Unsubscription {
                    node: NodeId::new(5),
                    ttl: 9,
                }],
            },
        },
        ihave: Some(IHaveDigest { ids: digest }),
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// One golden case: the frame, its `encode_frame` bytes, and its
/// datagrams at [`MAX_BYTES`].
struct Golden {
    name: &'static str,
    frame: GossipFrame,
    encoded: &'static str,
    datagrams: &'static [&'static str],
}

fn cases() -> Vec<Golden> {
    vec![
        Golden {
            name: "gossip with digest",
            frame: gossip(ids(2, 2)),
            encoded: "a800010200020000006400000000000000020000006500000000000000a7030000002a000000000000000100\
                      090000002d000000010004000000010005000000090000000300000001000000000000000000000001000000\
                      04000000c0c0c0c00100000001000000000000000200000004000000c1c1c1c1010000000200000000000000\
                      0300000004000000c2c2c2c26d6e43b0",
            datagrams: &[
                "a800010200020000006400000000000000020000006500000000000000a7030000002a000000000000000100\
                 090000002d000000010004000000010005000000090000000200000001000000000000000000000001000000\
                 04000000c0c0c0c00100000001000000000000000200000004000000c1c1c1c1308574d2",
                "a80000a7030000002a000000000000000100090000002d000000010004000000010005000000090000000100\
                 00000100000002000000000000000300000004000000c2c2c2c281ac8b40",
            ],
        },
        Golden {
            name: "graft",
            frame: GossipFrame::Graft(GraftRequest {
                sender: NodeId::new(2),
                ids: ids(7, 2),
            }),
            encoded: "a801020000000200070000006400000000000000070000006500000000000000e35f2c05",
            datagrams: &["a801020000000200070000006400000000000000070000006500000000000000e35f2c05"],
        },
        Golden {
            name: "retransmit",
            frame: GossipFrame::Retransmit(Retransmission {
                sender: NodeId::new(4),
                events: events(6, 5),
            }),
            encoded: "a80204000000050000000600000000000000000000000100000004000000c0c0c0c006000000010000000000\
                      00000200000004000000c1c1c1c10600000002000000000000000300000004000000c2c2c2c2060000000300\
                      0000000000000400000004000000c3c3c3c30600000004000000000000000500000004000000c4c4c4c46997\
                      d435",
            datagrams: &[
                "a80204000000040000000600000000000000000000000100000004000000c0c0c0c006000000010000000000\
                 00000200000004000000c1c1c1c10600000002000000000000000300000004000000c2c2c2c2060000000300\
                 0000000000000400000004000000c3c3c3c3434bca48",
                "a80204000000010000000600000004000000000000000500000004000000c4c4c4c4993f03f5",
            ],
        },
        Golden {
            name: "gossip with a digest too large to piggyback",
            frame: gossip(ids(8, 12)),
            encoded: "a800010c00080000006400000000000000080000006500000000000000080000006600000000000000080000\
                      006700000000000000080000006800000000000000080000006900000000000000080000006a000000000000\
                      00080000006b00000000000000080000006c00000000000000080000006d00000000000000080000006e0000\
                      0000000000080000006f00000000000000a7030000002a000000000000000100090000002d00000001000400\
                      000001000500000009000000030000000100000000000000000000000100000004000000c0c0c0c001000000\
                      01000000000000000200000004000000c1c1c1c10100000002000000000000000300000004000000c2c2c2c2\
                      a0fe456e",
            datagrams: &[
                "a80000a7030000002a000000000000000100090000002d000000010004000000010005000000090000000300\
                 00000100000000000000000000000100000004000000c0c0c0c0010000000100000000000000020000000400\
                 0000c1c1c1c10100000002000000000000000300000004000000c2c2c2c26d0d3246",
                "a800010800080000006400000000000000080000006500000000000000080000006600000000000000080000\
                 006700000000000000080000006800000000000000080000006900000000000000080000006a000000000000\
                 00080000006b00000000000000a7030000000000000000000000000000000000000000005ab87beb",
                "a800010400080000006c00000000000000080000006d00000000000000080000006e00000000000000080000\
                 006f00000000000000a7030000000000000000000000000000000000000000007e26c462",
            ],
        },
    ]
}

#[test]
fn frames_encode_to_golden_bytes() {
    for case in cases() {
        let bytes = encode_frame(&case.frame);
        assert_eq!(hex(&bytes), case.encoded, "{}", case.name);
        assert_eq!(decode_frame(&bytes).unwrap(), case.frame, "{}", case.name);
    }
}

#[test]
fn frames_split_to_golden_datagrams() {
    let mut encoder = FrameEncoder::default();
    for case in cases() {
        let datagrams: Vec<String> = encoder
            .split_for_datagram(&case.frame, MAX_BYTES)
            .iter()
            .map(|d| hex(d))
            .collect();
        assert_eq!(datagrams, case.datagrams, "{}", case.name);
    }
}
