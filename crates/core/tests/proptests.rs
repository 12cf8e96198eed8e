//! Property-based tests of the protocol building blocks.

use std::collections::{BTreeSet, VecDeque};

use agb_core::{
    BuffAd, Event, EventBuffer, EventIdBuffer, KSmallestSet, MinBuffConfig, MinBuffEstimator,
    PurgeReason, TokenBucket,
};
use agb_types::{DurationMs, EventId, NodeId, Payload, TimeMs};
use proptest::prelude::*;

fn ev(origin: u32, seq: u64, age: u32) -> Event {
    Event::with_age(EventId::new(NodeId::new(origin), seq), age, Payload::new())
}

/// The reference id history, on plain collections: 64-seq blocks of one
/// origin queue in the order their first remembered id arrived, and a
/// full history forgets the oldest block's lowest seq before it takes a
/// new id.
struct ModelIds {
    capacity: usize,
    /// One remembered id per non-empty block, oldest block first.
    blocks: VecDeque<EventId>,
    set: BTreeSet<EventId>,
}

impl ModelIds {
    fn new(capacity: usize) -> Self {
        ModelIds {
            capacity,
            blocks: VecDeque::new(),
            set: BTreeSet::new(),
        }
    }

    /// The remembered ids in `id`'s block, lowest seq first.
    fn block_of(&self, id: EventId) -> impl Iterator<Item = EventId> + '_ {
        let first = EventId::new(id.origin(), id.seq() & !63);
        let last = EventId::new(id.origin(), id.seq() | 63);
        self.set.range(first..=last).copied()
    }

    fn insert(&mut self, id: EventId) -> bool {
        if self.capacity == 0 {
            return true;
        }
        if self.set.contains(&id) {
            return false;
        }
        if self.set.len() == self.capacity {
            let oldest = self.blocks[0];
            let victim = self.block_of(oldest).next().expect("a queued block");
            self.set.remove(&victim);
            if self.block_of(oldest).next().is_none() {
                self.blocks.pop_front();
            }
        }
        if self.block_of(id).next().is_none() {
            self.blocks.push_back(id);
        }
        self.set.insert(id);
        true
    }
}

/// Sequence numbers near 0, on the edges of 64-seq blocks, 2^40 apart,
/// and at `u64::MAX`.
fn edge_seq() -> impl Strategy<Value = u64> {
    (0u8..5, 0u64..130, 1u64..4).prop_map(|(class, s, k)| match class {
        0 => s % 8,
        1 => 61 + s % 7,
        2 => 126 + s % 5,
        3 => (k << 40) + s,
        _ => u64::MAX - s,
    })
}

proptest! {
    /// The buffer never exceeds its capacity, no matter the insert stream.
    #[test]
    fn buffer_never_exceeds_capacity(
        capacity in 1usize..40,
        inserts in proptest::collection::vec((0u32..4, 0u64..200, 0u32..12), 0..200),
    ) {
        let mut buf = EventBuffer::new(capacity);
        for (origin, seq, age) in inserts {
            buf.insert(ev(origin, seq, age));
            prop_assert!(buf.len() <= capacity);
        }
    }

    /// Overflow eviction always removes a maximal-age event.
    #[test]
    fn buffer_evicts_a_maximal_age_event(
        capacity in 1usize..20,
        inserts in proptest::collection::vec((0u64..500, 0u32..12), 1..100),
    ) {
        let mut buf = EventBuffer::new(capacity);
        for (seq, age) in inserts {
            let ages_before: Vec<u32> = buf.iter().map(Event::age).collect();
            let max_before = ages_before.iter().copied().max().unwrap_or(0);
            let incoming = ev(0, seq, age);
            let was_new = !buf.contains(incoming.id());
            let purged = buf.insert(incoming);
            if was_new {
                if let Some(p) = purged {
                    prop_assert_eq!(p.reason, PurgeReason::Overflow);
                    prop_assert!(p.age >= max_before.min(p.age));
                    prop_assert!(p.age == max_before || p.age == age.max(max_before));
                }
            }
        }
    }

    /// `would_evict` predicts exactly what `set_capacity` then does.
    #[test]
    fn would_evict_predicts_shrink(
        capacity in 2usize..30,
        shrink_to in 0usize..30,
        inserts in proptest::collection::vec((0u64..100, 0u32..10), 0..60),
    ) {
        let mut buf = EventBuffer::new(capacity);
        for (seq, age) in inserts {
            buf.insert(ev(0, seq, age));
        }
        let predicted: Vec<EventId> = buf
            .would_evict(shrink_to, &agb_types::FastHashSet::default())
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        let actual: Vec<EventId> = buf
            .set_capacity(shrink_to)
            .into_iter()
            .map(|p| p.id)
            .collect();
        prop_assert_eq!(predicted, actual);
    }

    /// Duplicate suppression remembers at most `capacity` ids, and
    /// forgets them oldest block first, lowest seq first.
    #[test]
    fn id_buffer_bounded_and_exact(
        capacity in 1usize..50,
        ids in proptest::collection::vec(0u64..100, 0..200),
    ) {
        let mut buf = EventIdBuffer::new(capacity);
        let mut model = ModelIds::new(capacity);
        for seq in ids {
            let id = EventId::new(NodeId::new(0), seq);
            prop_assert_eq!(buf.insert(id), model.insert(id));
            prop_assert!(buf.len() <= capacity);
        }
        for &id in &model.set {
            prop_assert!(buf.contains(id));
        }
    }

    /// The block-bitset id history answers every `insert`, `contains`
    /// and `len` exactly as the reference model does.
    #[test]
    fn id_buffer_matches_hash_set_model(
        capacity in 0usize..=64,
        ops in proptest::collection::vec((any::<bool>(), 0u32..4, edge_seq()), 0..401),
    ) {
        let mut buf = EventIdBuffer::new(capacity);
        let mut model = ModelIds::new(capacity);
        let mut touched = Vec::new();
        for (insert, origin, seq) in ops {
            let id = EventId::new(NodeId::new(origin), seq);
            touched.push(id);
            if insert {
                prop_assert_eq!(buf.insert(id), model.insert(id), "insert {}", id);
            } else {
                prop_assert_eq!(buf.contains(id), model.set.contains(&id), "contains {}", id);
            }
            prop_assert_eq!(buf.len(), model.set.len());
        }
        for id in touched {
            prop_assert_eq!(buf.contains(id), model.set.contains(&id), "final contains {}", id);
        }
    }

    /// Tokens never go negative and never exceed the bucket size; total
    /// acquisitions never exceed initial + accrued tokens.
    #[test]
    fn token_bucket_conservation(
        rate in 0.0f64..100.0,
        max in 1.0f64..32.0,
        steps in proptest::collection::vec(0u64..500, 1..100),
    ) {
        let mut bucket = TokenBucket::new(rate, max, TimeMs::ZERO);
        let mut now = 0u64;
        let mut acquired = 0u64;
        for step in steps {
            now += step;
            if bucket.try_acquire(TimeMs::from_millis(now)) {
                acquired += 1;
            }
            let tokens = bucket.tokens_unrefreshed();
            prop_assert!(tokens >= 0.0, "negative tokens {tokens}");
            prop_assert!(tokens <= max + 1e-9, "over-full {tokens} > {max}");
        }
        let accrued = max + rate * now as f64 / 1000.0;
        prop_assert!(
            (acquired as f64) <= accrued + 1e-6,
            "acquired {acquired} > accrued {accrued}"
        );
    }

    /// The k-smallest set is sorted, bounded, and node-deduplicated.
    #[test]
    fn k_smallest_invariants(
        track in 1usize..6,
        ads in proptest::collection::vec((0u32..10, 1u32..200), 0..100),
    ) {
        let mut set = KSmallestSet::new(track);
        for (node, capacity) in &ads {
            set.merge(BuffAd { node: NodeId::new(*node), capacity: *capacity });
        }
        let entries = set.entries();
        prop_assert!(entries.len() <= track);
        for w in entries.windows(2) {
            prop_assert!((w[0].capacity, w[0].node) <= (w[1].capacity, w[1].node));
        }
        let nodes: BTreeSet<NodeId> = entries.iter().map(|e| e.node).collect();
        prop_assert_eq!(nodes.len(), entries.len(), "duplicate node in set");
        // The smallest entry equals the global per-node minimum.
        if let Some(first) = entries.first() {
            let global_min = ads
                .iter()
                .map(|&(_, c)| c)
                .min()
                .expect("entries nonempty implies ads nonempty");
            prop_assert_eq!(first.capacity, global_min);
        }
    }

    /// The windowed estimate never exceeds own capacity and never drops
    /// below the smallest value ever ingested.
    #[test]
    fn minbuff_estimate_bounds(
        own in 10u32..100,
        events in proptest::collection::vec((0u64..6, 0u32..8, 1u32..150), 0..80),
    ) {
        let config = MinBuffConfig {
            sample_period: DurationMs::from_secs(5),
            window: 3,
            track: 1,
            floor: None,
        };
        let mut est = MinBuffEstimator::new(NodeId::new(0), own, config);
        let mut smallest_seen = own;
        for (period, node, capacity) in events {
            est.on_receive(period, &[BuffAd {
                node: NodeId::new(node + 1),
                capacity,
            }]);
            smallest_seen = smallest_seen.min(capacity);
            let e = est.estimate();
            prop_assert!(e <= own, "estimate {e} above own {own}");
            prop_assert!(e >= smallest_seen, "estimate {e} below floor {smallest_seen}");
        }
    }

    /// Ages only move up under merges and increments.
    #[test]
    fn event_age_is_monotone(
        start in 0u32..100,
        ops in proptest::collection::vec(proptest::option::of(0u32..150), 0..50),
    ) {
        let mut e = ev(0, 0, start);
        let mut last = e.age();
        for op in ops {
            match op {
                Some(other) => e.merge_age(other),
                None => e.increment_age(),
            }
            prop_assert!(e.age() >= last);
            last = e.age();
        }
    }
}
