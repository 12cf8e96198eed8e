//! Binary wire codec for gossip frames.
//!
//! A small hand-rolled format (little-endian, length-prefixed) — frames
//! have a dozen fields, which does not justify pulling a serialization
//! framework. Every datagram is one sealed [`GossipFrame`]: a magic byte,
//! a tag, the tag's body and a checksum trailer. A gossip frame's body
//! embeds the gossip message, which opens with its own magic byte. Both
//! bytes version the format, so incompatible peers fail loudly instead of
//! mis-decoding.

use agb_core::{
    BuffAd, Event, GossipFrame, GossipMessage, GraftRequest, IHaveDigest, Retransmission,
};
use agb_membership::{MembershipDigest, Unsubscription};
use agb_types::{EventId, NodeId, Payload};
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Magic byte opening the gossip message inside a gossip frame; bump on
/// format changes.
const MAGIC: u8 = 0xA7;

/// Frame magic; distinct from [`MAGIC`] so a datagram holding a bare
/// message body fails loudly instead of mis-decoding.
const FRAME_MAGIC: u8 = 0xA8;

/// Frame tag: gossip data message (optionally with piggybacked digest).
const TAG_GOSSIP: u8 = 0;
/// Frame tag: graft (pull) request.
const TAG_GRAFT: u8 = 1;
/// Frame tag: retransmission reply.
const TAG_RETRANSMIT: u8 = 2;

/// Trailing frame-checksum width: a truncated FNV-1a over every byte
/// before it. UDP's 16-bit checksum (often offloaded away entirely) is
/// no defence against the byte-level adversary, and a length-guarded
/// parse alone can still mis-decode a bit-flipped frame into a
/// *different valid* frame. The trailer makes corruption detectable:
/// corrupt frames are counted and dropped, never misdelivered.
const CHECKSUM_LEN: usize = 4;

/// Wire bytes of one event besides its payload: origin, sequence number,
/// age and payload length.
const EVENT_HEADER: usize = 4 + 8 + 4 + 4;

/// Encoded length of one event.
fn event_len(event: &Event) -> usize {
    EVENT_HEADER + event.payload().len()
}

/// Checksum of a frame's pre-trailer bytes.
fn frame_checksum(bytes: &[u8]) -> u32 {
    agb_types::fnv1a(bytes) as u32
}

/// Appends the checksum trailer over everything already in `buf`.
fn seal_frame(buf: &mut BytesMut) {
    let sum = frame_checksum(buf);
    buf.put_u32_le(sum);
}

/// One datagram: the frame `write` puts into a fresh buffer, sealed.
fn sealed(capacity: usize, write: impl FnOnce(&mut BytesMut)) -> Bytes {
    let mut buf = BytesMut::with_capacity(capacity);
    write(&mut buf);
    seal_frame(&mut buf);
    buf.freeze()
}

/// Decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer is shorter than the declared content.
    Truncated,
    /// The magic/version byte did not match.
    BadMagic(u8),
    /// A declared length is implausible for the remaining buffer.
    BadLength,
    /// The frame checksum trailer did not match — bytes were corrupted
    /// in flight.
    BadChecksum,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "message truncated"),
            WireError::BadMagic(m) => write!(f, "bad magic byte {m:#04x}"),
            WireError::BadLength => write!(f, "declared length exceeds buffer"),
            WireError::BadChecksum => write!(f, "frame checksum mismatch"),
        }
    }
}

impl std::error::Error for WireError {}

/// Writes a gossip message body carrying `events` (the message's own
/// list, or one fragment of it).
fn put_message<B: BufMut>(buf: &mut B, msg: &GossipMessage, events: &[Event]) {
    buf.put_u8(MAGIC);
    buf.put_u32_le(msg.sender.as_u32());
    buf.put_u64_le(msg.sample_period);
    buf.put_u16_le(msg.min_buffs.len() as u16);
    for ad in &msg.min_buffs {
        buf.put_u32_le(ad.node.as_u32());
        buf.put_u32_le(ad.capacity);
    }
    buf.put_u16_le(msg.membership.subs.len() as u16);
    for s in &msg.membership.subs {
        buf.put_u32_le(s.as_u32());
    }
    buf.put_u16_le(msg.membership.unsubs.len() as u16);
    for u in &msg.membership.unsubs {
        buf.put_u32_le(u.node.as_u32());
        buf.put_u32_le(u.ttl);
    }
    put_events(buf, events);
}

/// Encoded length of `msg`'s body without its events.
fn message_overhead(msg: &GossipMessage) -> usize {
    let mut probe = Vec::new();
    put_message(&mut probe, msg, &[]);
    probe.len()
}

fn need(buf: &impl Buf, n: usize) -> Result<(), WireError> {
    if buf.remaining() < n {
        Err(WireError::Truncated)
    } else {
        Ok(())
    }
}

/// Reads a gossip message body, interning event payloads when an
/// interner is given.
fn get_message(
    bytes: &[u8],
    interner: &mut Option<&mut agb_types::PayloadInterner>,
) -> Result<GossipMessage, WireError> {
    let mut buf = bytes;
    need(&buf, 1)?;
    let magic = buf.get_u8();
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    need(&buf, 4 + 8 + 2)?;
    let sender = NodeId::new(buf.get_u32_le());
    let sample_period = buf.get_u64_le();
    let n_ads = buf.get_u16_le() as usize;
    if buf.remaining() < n_ads * 8 {
        return Err(WireError::BadLength);
    }
    let mut min_buffs = Vec::with_capacity(n_ads);
    for _ in 0..n_ads {
        let node = NodeId::new(buf.get_u32_le());
        let capacity = buf.get_u32_le();
        min_buffs.push(BuffAd { node, capacity });
    }
    need(&buf, 2)?;
    let n_subs = buf.get_u16_le() as usize;
    if buf.remaining() < n_subs * 4 {
        return Err(WireError::BadLength);
    }
    let subs = (0..n_subs).map(|_| NodeId::new(buf.get_u32_le())).collect();
    need(&buf, 2)?;
    let n_unsubs = buf.get_u16_le() as usize;
    if buf.remaining() < n_unsubs * 8 {
        return Err(WireError::BadLength);
    }
    let unsubs = (0..n_unsubs)
        .map(|_| {
            let node = NodeId::new(buf.get_u32_le());
            let ttl = buf.get_u32_le();
            Unsubscription { node, ttl }
        })
        .collect();
    let events = get_events_with(&mut buf, interner)?;
    Ok(GossipMessage {
        sender,
        sample_period,
        min_buffs,
        events: events.into(),
        membership: MembershipDigest { subs, unsubs },
    })
}

fn put_event_ids<B: BufMut>(buf: &mut B, ids: &[EventId]) {
    // RecoveryConfig::validate caps digest/graft sizes well below this;
    // silent u16 wrap-around would corrupt the whole frame.
    assert!(
        ids.len() <= usize::from(u16::MAX),
        "id list exceeds wire bound"
    );
    buf.put_u16_le(ids.len() as u16);
    for id in ids {
        buf.put_u32_le(id.origin().as_u32());
        buf.put_u64_le(id.seq());
    }
}

fn get_event_ids(buf: &mut &[u8]) -> Result<Vec<EventId>, WireError> {
    need(buf, 2)?;
    let n = buf.get_u16_le() as usize;
    if buf.remaining() < n * 12 {
        return Err(WireError::BadLength);
    }
    let mut ids = Vec::with_capacity(n);
    for _ in 0..n {
        let origin = NodeId::new(buf.get_u32_le());
        let seq = buf.get_u64_le();
        ids.push(EventId::new(origin, seq));
    }
    Ok(ids)
}

fn put_events<B: BufMut>(buf: &mut B, events: &[Event]) {
    buf.put_u32_le(events.len() as u32);
    for e in events {
        buf.put_u32_le(e.id().origin().as_u32());
        buf.put_u64_le(e.id().seq());
        buf.put_u32_le(e.age());
        buf.put_u32_le(e.payload().len() as u32);
        buf.put_slice(e.payload());
    }
}

fn get_events_with(
    buf: &mut &[u8],
    interner: &mut Option<&mut agb_types::PayloadInterner>,
) -> Result<Vec<Event>, WireError> {
    need(buf, 4)?;
    let n_events = buf.get_u32_le() as usize;
    // Each event needs at least its header: reject absurd counts early.
    if n_events > buf.remaining() / EVENT_HEADER + 1 {
        return Err(WireError::BadLength);
    }
    let mut events = Vec::with_capacity(n_events);
    for _ in 0..n_events {
        need(buf, EVENT_HEADER)?;
        let origin = NodeId::new(buf.get_u32_le());
        let seq = buf.get_u64_le();
        let age = buf.get_u32_le();
        let plen = buf.get_u32_le() as usize;
        need(buf, plen)?;
        let payload = match interner.as_deref_mut() {
            Some(interner) => interner.intern(&buf[..plen]),
            None => Payload::copy_from_slice(&buf[..plen]),
        };
        buf.advance(plen);
        events.push(Event::with_age(EventId::new(origin, seq), age, payload));
    }
    Ok(events)
}

/// Serializes a recovery-capable frame ([`GossipFrame`]).
///
/// A gossip frame carries the optional piggybacked digest, then the gossip
/// message body; graft and retransmission frames are the recovery layer's
/// pull traffic.
///
/// # Example
///
/// ```
/// use agb_core::{GossipFrame, GraftRequest};
/// use agb_runtime::wire::{decode_frame, encode_frame};
/// use agb_types::{EventId, NodeId};
///
/// let frame = GossipFrame::Graft(GraftRequest {
///     sender: NodeId::new(2),
///     ids: vec![EventId::new(NodeId::new(1), 7)],
/// });
/// assert_eq!(decode_frame(&encode_frame(&frame)).unwrap(), frame);
/// ```
pub fn encode_frame(frame: &GossipFrame) -> Bytes {
    sealed(8 + CHECKSUM_LEN + frame.wire_size(), |buf| {
        encode_frame_to(frame, buf)
    })
}

/// Serializes a recovery-capable frame by appending to a reusable buffer
/// (byte-identical to [`encode_frame`], without the per-call allocation).
pub fn encode_frame_into(frame: &GossipFrame, out: &mut Vec<u8>) {
    let start = out.len();
    encode_frame_to(frame, out);
    let sum = frame_checksum(&out[start..]);
    out.extend_from_slice(&sum.to_le_bytes());
}

fn encode_frame_to<B: BufMut>(frame: &GossipFrame, buf: &mut B) {
    match frame {
        GossipFrame::Gossip { msg, ihave } => {
            let digest = ihave.as_ref().map(|d| d.ids.as_slice());
            put_gossip(buf, msg, &msg.events, digest);
        }
        GossipFrame::Graft(graft) => {
            buf.put_u8(FRAME_MAGIC);
            buf.put_u8(TAG_GRAFT);
            buf.put_u32_le(graft.sender.as_u32());
            put_event_ids(buf, &graft.ids);
        }
        GossipFrame::Retransmit(retransmission) => {
            put_retransmit(buf, retransmission.sender, &retransmission.events);
        }
    }
}

/// Writes an unsealed gossip frame whose message carries `events`, with
/// `digest` piggybacked when given.
fn put_gossip<B: BufMut>(
    buf: &mut B,
    msg: &GossipMessage,
    events: &[Event],
    digest: Option<&[EventId]>,
) {
    buf.put_u8(FRAME_MAGIC);
    buf.put_u8(TAG_GOSSIP);
    match digest {
        Some(ids) => {
            buf.put_u8(1);
            put_event_ids(buf, ids);
        }
        None => buf.put_u8(0),
    }
    put_message(buf, msg, events);
}

/// Writes an unsealed retransmission frame carrying `events`.
fn put_retransmit<B: BufMut>(buf: &mut B, sender: NodeId, events: &[Event]) {
    buf.put_u8(FRAME_MAGIC);
    buf.put_u8(TAG_RETRANSMIT);
    buf.put_u32_le(sender.as_u32());
    put_events(buf, events);
}

/// A pooled frame encoder: encodes every frame into a recycled scratch
/// buffer instead of growing a fresh `BytesMut` per frame.
///
/// Steady-state encoding performs exactly one allocation per frame (the
/// immutable [`Bytes`] handed to the transport, which must own its
/// storage) instead of the grow-realloc churn of the buffer-per-frame
/// path.
///
/// # Example
///
/// ```
/// use agb_core::GossipFrame;
/// use agb_runtime::wire::{decode_frame, encode_frame, FrameEncoder};
/// # use agb_core::GossipMessage;
/// # use agb_types::NodeId;
///
/// let frame = GossipFrame::plain(GossipMessage {
///     sender: NodeId::new(1),
///     sample_period: 0,
///     min_buffs: vec![],
///     events: Default::default(),
///     membership: Default::default(),
/// });
/// let mut enc = FrameEncoder::default();
/// // Pooled encoding is byte-identical to the legacy path.
/// assert_eq!(enc.encode(&frame), encode_frame(&frame));
/// ```
#[derive(Debug, Default)]
pub struct FrameEncoder {
    pool: agb_types::BytePool,
}

impl FrameEncoder {
    /// Creates an encoder retaining at most `max_pooled` idle buffers.
    pub fn new(max_pooled: usize) -> Self {
        FrameEncoder {
            pool: agb_types::BytePool::new(max_pooled),
        }
    }

    /// Encodes a frame through the pool; byte-identical to
    /// [`encode_frame`].
    pub fn encode(&mut self, frame: &GossipFrame) -> Bytes {
        let mut buf = self.pool.take();
        encode_frame_into(frame, &mut buf);
        let bytes = Bytes::copy_from_slice(&buf);
        self.pool.put(buf);
        bytes
    }

    /// Splits a frame into datagrams like [`split_frame_for_datagram`],
    /// encoding through the pool.
    ///
    /// The common case — the frame fits in one datagram — takes a pooled
    /// fast path with zero buffer churn. Oversized frames fall back to
    /// [`split_frame_for_datagram`].
    pub fn split_for_datagram(&mut self, frame: &GossipFrame, max_bytes: usize) -> Vec<Bytes> {
        // wire_size() is an approximation, so it only gates the trial
        // encode when the frame is clearly oversized — never the
        // correctness of the fit check itself.
        if frame.wire_size() <= 2 * max_bytes {
            let mut buf = self.pool.take();
            encode_frame_into(frame, &mut buf);
            if buf.len() <= max_bytes {
                let bytes = Bytes::copy_from_slice(&buf);
                self.pool.put(buf);
                return vec![bytes];
            }
            self.pool.put(buf);
        }
        split_frame_for_datagram(frame, max_bytes)
    }
}

/// Deserializes a recovery-capable frame.
///
/// # Errors
///
/// Returns a [`WireError`] on truncated input, bad magic or tag bytes, or
/// implausible lengths.
pub fn decode_frame(bytes: &[u8]) -> Result<GossipFrame, WireError> {
    decode_frame_with(bytes, &mut None)
}

/// Deserializes a recovery-capable frame, interning event payloads
/// through the given [`agb_types::PayloadInterner`] so repeated identical
/// payloads share one allocation (value-identical to [`decode_frame`]).
///
/// # Errors
///
/// Same failure modes as [`decode_frame`].
pub fn decode_frame_interned(
    bytes: &[u8],
    interner: &mut agb_types::PayloadInterner,
) -> Result<GossipFrame, WireError> {
    decode_frame_with(bytes, &mut Some(interner))
}

fn decode_frame_with(
    bytes: &[u8],
    interner: &mut Option<&mut agb_types::PayloadInterner>,
) -> Result<GossipFrame, WireError> {
    need(&bytes, 1)?;
    if bytes[0] != FRAME_MAGIC {
        return Err(WireError::BadMagic(bytes[0]));
    }
    // Verify the checksum trailer before trusting a single declared
    // length: corrupted frames must fail here, not half-way through a
    // parse that might still happen to succeed with different content.
    if bytes.len() < 2 + CHECKSUM_LEN {
        return Err(WireError::Truncated);
    }
    let body_end = bytes.len() - CHECKSUM_LEN;
    let declared = u32::from_le_bytes(bytes[body_end..].try_into().expect("4-byte trailer"));
    if declared != frame_checksum(&bytes[..body_end]) {
        return Err(WireError::BadChecksum);
    }
    let mut buf = &bytes[1..body_end];
    let tag = buf.get_u8();
    match tag {
        TAG_GOSSIP => {
            need(&buf, 1)?;
            let ihave = match buf.get_u8() {
                0 => None,
                1 => Some(IHaveDigest {
                    ids: get_event_ids(&mut buf)?,
                }),
                other => return Err(WireError::BadMagic(other)),
            };
            let msg = get_message(buf, interner)?;
            Ok(GossipFrame::Gossip { msg, ihave })
        }
        TAG_GRAFT => {
            need(&buf, 4)?;
            let sender = NodeId::new(buf.get_u32_le());
            let ids = get_event_ids(&mut buf)?;
            Ok(GossipFrame::Graft(GraftRequest { sender, ids }))
        }
        TAG_RETRANSMIT => {
            need(&buf, 4)?;
            let sender = NodeId::new(buf.get_u32_le());
            let events = get_events_with(&mut buf, interner)?;
            Ok(GossipFrame::Retransmit(Retransmission { sender, events }))
        }
        other => Err(WireError::BadMagic(other)),
    }
}

/// Frame envelope bytes around an embedded gossip message: magic + tag +
/// digest flag + checksum trailer.
const GOSSIP_FRAME_OVERHEAD: usize = 3 + CHECKSUM_LEN;

/// Retransmission frame bytes besides its events: magic + tag + sender +
/// event count + checksum trailer.
const RETRANSMIT_FRAME_OVERHEAD: usize = 2 + 4 + 4 + CHECKSUM_LEN;

/// Splits a frame into datagrams no larger than `max_bytes` where
/// possible, partitioning event lists. Every gossip fragment repeats the
/// message header and membership digest — semantically safe, since
/// duplicate suppression and min-merging are idempotent. Fragments always
/// carry at least one event, so a single oversized event still goes out
/// alone.
///
/// The piggybacked digest travels with the first gossip fragment only —
/// its size is reserved out of that budget, so fragments respect
/// `max_bytes` even with large digests (an oversized digest falls back to
/// dedicated digest-only frames). Graft frames are already small and go
/// out whole.
pub fn split_frame_for_datagram(frame: &GossipFrame, max_bytes: usize) -> Vec<Bytes> {
    match frame {
        GossipFrame::Gossip { msg, ihave } => {
            let digest_size = ihave.as_ref().map_or(0, IHaveDigest::wire_size);
            // Piggyback only while the digest leaves at least half the
            // datagram for events; beyond that, ship it separately.
            let piggyback = digest_size > 0 && GOSSIP_FRAME_OVERHEAD + digest_size <= max_bytes / 2;
            let reserve = if piggyback {
                GOSSIP_FRAME_OVERHEAD + digest_size
            } else {
                GOSSIP_FRAME_OVERHEAD
            };
            let overhead = message_overhead(msg);
            let chunks = chunk_events(&msg.events, overhead, max_bytes.saturating_sub(reserve));
            let mut out = Vec::with_capacity(chunks.len() + 1);
            for (i, events) in chunks.into_iter().enumerate() {
                let digest = match ihave {
                    Some(digest) if piggyback && i == 0 => Some(digest.ids.as_slice()),
                    _ => None,
                };
                let size = reserve + overhead + events.iter().map(event_len).sum::<usize>();
                out.push(sealed(size, |buf| put_gossip(buf, msg, events, digest)));
            }
            if let (Some(digest), false) = (ihave, piggyback) {
                if !digest.ids.is_empty() {
                    out.extend(split_digest_frames(msg.sender, digest, max_bytes));
                }
            }
            out
        }
        GossipFrame::Graft(_) => vec![encode_frame(frame)],
        GossipFrame::Retransmit(retransmission) => {
            chunk_events(&retransmission.events, RETRANSMIT_FRAME_OVERHEAD, max_bytes)
                .into_iter()
                .map(|events| {
                    let size =
                        RETRANSMIT_FRAME_OVERHEAD + events.iter().map(event_len).sum::<usize>();
                    sealed(size, |buf| {
                        put_retransmit(buf, retransmission.sender, events)
                    })
                })
                .collect()
        }
    }
}

/// Partitions `events` into consecutive runs whose encoding fits
/// `max_bytes` after `overhead` bytes of envelope. Every run holds at least
/// one event, so an oversized event goes out alone; an empty list is one
/// empty run.
fn chunk_events(events: &[Event], overhead: usize, max_bytes: usize) -> Vec<&[Event]> {
    let mut chunks = Vec::new();
    let (mut start, mut used) = (0, overhead);
    for (i, event) in events.iter().enumerate() {
        let cost = event_len(event);
        if i > start && used + cost > max_bytes {
            chunks.push(&events[start..i]);
            (start, used) = (i, overhead);
        }
        used += cost;
    }
    chunks.push(&events[start..]);
    chunks
}

/// Ships a digest too large to piggyback in dedicated event-less gossip
/// frames, each within `max_bytes` (chunking the id list as needed). The
/// embedded message carries the sender only — the adaptive header and
/// membership digest already rode the event fragments, and replicating
/// them here could push a frame past the bound.
fn split_digest_frames(sender: NodeId, digest: &IHaveDigest, max_bytes: usize) -> Vec<Bytes> {
    let header = GossipMessage {
        sender,
        sample_period: 0,
        min_buffs: Vec::new(),
        events: agb_core::EventList::new(),
        membership: MembershipDigest::default(),
    };
    let base = GOSSIP_FRAME_OVERHEAD + message_overhead(&header) + 2;
    let per_chunk = (max_bytes.saturating_sub(base) / 12).max(1);
    digest
        .ids
        .chunks(per_chunk)
        .map(|ids| {
            sealed(base + 12 * ids.len(), |buf| {
                put_gossip(buf, &header, &[], Some(ids))
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_msg() -> GossipMessage {
        GossipMessage {
            sender: NodeId::new(3),
            sample_period: 42,
            min_buffs: vec![
                BuffAd {
                    node: NodeId::new(9),
                    capacity: 45,
                },
                BuffAd {
                    node: NodeId::new(2),
                    capacity: 60,
                },
            ],
            events: vec![
                Event::with_age(
                    EventId::new(NodeId::new(1), 7),
                    3,
                    Payload::from_static(b"payload-one"),
                ),
                Event::with_age(EventId::new(NodeId::new(2), 0), 0, Payload::new()),
            ]
            .into(),
            membership: MembershipDigest {
                subs: vec![NodeId::new(3), NodeId::new(4)],
                unsubs: vec![Unsubscription {
                    node: NodeId::new(5),
                    ttl: 9,
                }],
            },
        }
    }

    fn sample_digest() -> IHaveDigest {
        IHaveDigest {
            ids: vec![
                EventId::new(NodeId::new(1), 7),
                EventId::new(NodeId::new(2), 0),
            ],
        }
    }

    #[test]
    fn frame_roundtrips_all_variants() {
        let frames = [
            GossipFrame::plain(sample_msg()),
            GossipFrame::Gossip {
                msg: sample_msg(),
                ihave: Some(sample_digest()),
            },
            GossipFrame::Graft(GraftRequest {
                sender: NodeId::new(9),
                ids: sample_digest().ids,
            }),
            GossipFrame::Retransmit(Retransmission {
                sender: NodeId::new(4),
                events: sample_msg().events.to_vec(),
            }),
        ];
        for frame in frames {
            assert_eq!(decode_frame(&encode_frame(&frame)).unwrap(), frame);
        }
    }

    #[test]
    fn frame_codec_rejects_a_bare_message_body() {
        // A datagram holding only a message body opens with the body's
        // magic, not the frame's.
        let mut body = Vec::new();
        put_message(&mut body, &sample_msg(), &sample_msg().events);
        assert_eq!(body[0], MAGIC);
        assert_eq!(decode_frame(&body), Err(WireError::BadMagic(MAGIC)));
    }

    #[test]
    fn sealed_frame_with_absurd_event_count_is_bad_length() {
        // The count guard still protects gossip and retransmit frames
        // whose checksum is intact.
        let gossip = GossipFrame::plain(GossipMessage {
            events: Default::default(),
            ..sample_msg()
        });
        let retransmit = GossipFrame::Retransmit(Retransmission {
            sender: NodeId::new(4),
            events: vec![],
        });
        for frame in [gossip, retransmit] {
            let mut bytes = encode_frame(&frame).to_vec();
            // The event count is the last field before the trailer.
            let count_at = bytes.len() - CHECKSUM_LEN - 4;
            bytes[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            bytes.truncate(count_at + 4);
            let mut resealed = BytesMut::new();
            resealed.put_slice(&bytes);
            seal_frame(&mut resealed);
            assert_eq!(decode_frame(&resealed), Err(WireError::BadLength));
        }
    }

    #[test]
    fn frame_rejects_truncation_at_every_length() {
        let bytes = encode_frame(&GossipFrame::Gossip {
            msg: sample_msg(),
            ihave: Some(sample_digest()),
        });
        for cut in 0..bytes.len() {
            assert!(
                decode_frame(&bytes[..cut]).is_err(),
                "decoding a {cut}-byte prefix must fail"
            );
        }
    }

    #[test]
    fn frame_rejects_bad_tag() {
        let mut buf = BytesMut::new();
        buf.put_u8(FRAME_MAGIC);
        buf.put_u8(9);
        seal_frame(&mut buf);
        assert_eq!(decode_frame(&buf), Err(WireError::BadMagic(9)));
        // Unsealed short garbage is truncation, not a parse attempt.
        assert_eq!(decode_frame(&[FRAME_MAGIC, 9]), Err(WireError::Truncated));
    }

    #[test]
    fn frame_rejects_every_single_bit_flip() {
        let bytes = encode_frame(&GossipFrame::Gossip {
            msg: sample_msg(),
            ihave: Some(sample_digest()),
        });
        for at in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.to_vec();
                corrupt[at] ^= 1 << bit;
                assert!(
                    decode_frame(&corrupt).is_err(),
                    "flipping byte {at} bit {bit} must not decode"
                );
            }
        }
    }

    #[test]
    fn frame_rejects_trailing_garbage() {
        let mut bytes = encode_frame(&GossipFrame::plain(sample_msg())).to_vec();
        bytes.push(0xFF);
        assert_eq!(decode_frame(&bytes), Err(WireError::BadChecksum));
    }

    #[test]
    fn gossip_frame_split_carries_digest_once() {
        let mut msg = sample_msg();
        msg.events = (0..100)
            .map(|s| {
                Event::with_age(
                    EventId::new(NodeId::new(1), s),
                    1,
                    Payload::from_static(b"0123456789abcdef"),
                )
            })
            .collect();
        let frame = GossipFrame::Gossip {
            msg: msg.clone(),
            ihave: Some(sample_digest()),
        };
        let frags = split_frame_for_datagram(&frame, 512);
        assert!(frags.len() > 1);
        let mut events = Vec::new();
        let mut digests = 0;
        for (i, f) in frags.iter().enumerate() {
            assert!(f.len() <= 512, "fragment of {} bytes", f.len());
            let GossipFrame::Gossip { msg: m, ihave } = decode_frame(f).unwrap() else {
                panic!("expected gossip fragment");
            };
            if ihave.is_some() {
                assert_eq!(i, 0, "digest only on the first fragment");
                digests += 1;
            }
            events.extend(m.events);
        }
        assert_eq!(digests, 1);
        assert_eq!(events, msg.events);
    }

    #[test]
    fn retransmit_split_preserves_events() {
        let events: Vec<Event> = (0..50)
            .map(|s| {
                Event::with_age(
                    EventId::new(NodeId::new(3), s),
                    2,
                    Payload::from_static(b"0123456789abcdef0123456789abcdef"),
                )
            })
            .collect();
        let frame = GossipFrame::Retransmit(Retransmission {
            sender: NodeId::new(3),
            events: events.clone(),
        });
        let frags = split_frame_for_datagram(&frame, 256);
        assert!(frags.len() > 1);
        let mut recovered = Vec::new();
        for f in &frags {
            assert!(f.len() <= 256, "fragment of {} bytes", f.len());
            let GossipFrame::Retransmit(r) = decode_frame(f).unwrap() else {
                panic!("expected retransmit fragment");
            };
            assert_eq!(r.sender, NodeId::new(3));
            recovered.extend(r.events);
        }
        assert_eq!(recovered, events);
    }

    #[test]
    fn oversized_digest_never_breaks_the_datagram_bound() {
        // A digest too big to piggyback (512 ids ≈ 6 KB vs a 512-byte
        // datagram) must ship in dedicated chunked frames, with every
        // fragment within the bound and no id lost.
        let mut msg = sample_msg();
        msg.events = (0..40)
            .map(|s| {
                Event::with_age(
                    EventId::new(NodeId::new(1), s),
                    1,
                    Payload::from_static(b"0123456789abcdef"),
                )
            })
            .collect();
        let digest = IHaveDigest {
            ids: (0..512).map(|s| EventId::new(NodeId::new(9), s)).collect(),
        };
        let frame = GossipFrame::Gossip {
            msg: msg.clone(),
            ihave: Some(digest.clone()),
        };
        let frags = split_frame_for_datagram(&frame, 512);
        let mut events = Vec::new();
        let mut ids = Vec::new();
        for f in &frags {
            assert!(
                f.len() <= 512,
                "fragment of {} bytes exceeds bound",
                f.len()
            );
            let GossipFrame::Gossip { msg: m, ihave } = decode_frame(f).unwrap() else {
                panic!("expected gossip fragment");
            };
            events.extend(m.events);
            if let Some(d) = ihave {
                ids.extend(d.ids);
            }
        }
        assert_eq!(events, msg.events);
        assert_eq!(ids, digest.ids);
    }

    #[test]
    fn piggybacked_digest_size_is_reserved_from_the_bound() {
        // With a digest that does piggyback, the first fragment must not
        // exceed max_bytes (the digest's bytes are reserved out of the
        // event budget).
        let mut msg = sample_msg();
        msg.events = (0..100)
            .map(|s| {
                Event::with_age(
                    EventId::new(NodeId::new(1), s),
                    1,
                    Payload::from_static(b"0123456789abcdef"),
                )
            })
            .collect();
        let frame = GossipFrame::Gossip {
            msg,
            ihave: Some(IHaveDigest {
                ids: (0..16).map(|s| EventId::new(NodeId::new(9), s)).collect(),
            }),
        };
        for f in split_frame_for_datagram(&frame, 512) {
            assert!(
                f.len() <= 512,
                "fragment of {} bytes exceeds bound",
                f.len()
            );
        }
    }

    #[test]
    fn small_frames_stay_whole() {
        let graft = GossipFrame::Graft(GraftRequest {
            sender: NodeId::new(1),
            ids: sample_digest().ids,
        });
        assert_eq!(split_frame_for_datagram(&graft, 16).len(), 1);
        let gossip = GossipFrame::plain(sample_msg());
        assert_eq!(split_frame_for_datagram(&gossip, 64 * 1024).len(), 1);
    }
}
