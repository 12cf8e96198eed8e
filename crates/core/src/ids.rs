//! The bounded duplicate-suppression digest (`eventIds` in Figure 1).

use std::collections::VecDeque;

use agb_types::{EventId, FastHashMap, NodeId};

/// Bounded set of already-seen event identifiers.
///
/// Figure 1 garbage-collects `eventIds` by removing the *oldest* elements
/// when the bound is exceeded; ids are much cheaper than events, so this
/// buffer is typically far larger than the event buffer. Evicting an id too
/// early can cause a circulating copy to be re-delivered — the paper accepts
/// this, and so do we (the metrics layer counts deliveries once per node).
///
/// # Layout and cost
///
/// Lookups go to a map from `(origin, seq >> 6)` to a 64-bit word of seen
/// bits: one 24 B entry per 64-seq block of one origin. A FIFO of block
/// keys (16 B each) decides eviction: a key joins when its word turns
/// non-zero, and once `capacity` ids are remembered each new id first
/// forgets the lowest seq of the oldest block; a block leaves the map and
/// the FIFO with its last bit. Each origin numbers its broadcasts 0, 1, 2,
/// …, so the rule drops each origin's oldest id first, as Fig. 1 says (one
/// origin's ids, arriving in order, leave in per-id FIFO order). The worst
/// case — every id from a different origin or block — costs 40 B per id.
///
/// The saving rests on that numbering: a node's window of ids packs into
/// few blocks per origin. With `w` active origins, `n` remembered ids span
/// at most about `n / 64 + w` blocks: under 1 B per id once the window is
/// much larger than `64 w` (every benchmark workload has at most 10 origins).
///
/// # Example
///
/// ```
/// use agb_core::EventIdBuffer;
/// use agb_types::{EventId, NodeId};
///
/// let mut ids = EventIdBuffer::new(2);
/// let id = |s| EventId::new(NodeId::new(0), s);
/// assert!(ids.insert(id(0)));
/// assert!(!ids.insert(id(0))); // duplicate
/// ids.insert(id(1));
/// ids.insert(id(2)); // evicts id(0)
/// assert!(!ids.contains(id(0)));
/// assert!(ids.contains(id(2)));
/// ```
#[derive(Debug, Clone)]
pub struct EventIdBuffer {
    capacity: usize,
    len: usize,
    /// Keys of the non-empty blocks, in the order their words turned non-zero.
    order: VecDeque<(NodeId, u64)>,
    /// Seen bits per 64-seq block; every stored word is non-zero.
    blocks: FastHashMap<(NodeId, u64), u64>,
}

/// The block key and bit mask of `id`.
fn slot(id: EventId) -> ((NodeId, u64), u64) {
    ((id.origin(), id.seq() >> 6), 1 << (id.seq() & 63))
}

impl EventIdBuffer {
    /// Creates a buffer remembering at most `capacity` ids.
    ///
    /// Storage grows on demand: a large-scale simulation hosts one of
    /// these per node, and eager per-node reservations of the full bound
    /// dominate resident memory long before the dedup window fills.
    pub fn new(capacity: usize) -> Self {
        EventIdBuffer {
            capacity,
            len: 0,
            order: VecDeque::new(),
            blocks: FastHashMap::default(),
        }
    }

    /// Records `id` as seen. Returns `true` if it was new, `false` if it was
    /// already known (i.e. the incoming event is a duplicate).
    pub fn insert(&mut self, id: EventId) -> bool {
        if self.capacity == 0 {
            return true; // Degenerate: remembers nothing, everything is new.
        }
        if self.len == self.capacity {
            if self.contains(id) {
                return false;
            }
            let oldest = self.order[0];
            let word = self
                .blocks
                .get_mut(&oldest)
                .expect("queued blocks are mapped");
            *word &= *word - 1; // forget its lowest seq
            if *word == 0 {
                self.blocks.remove(&oldest);
                self.order.pop_front();
            }
            self.len -= 1;
        }
        let (block, bit) = slot(id);
        let word = self.blocks.entry(block).or_insert(0);
        if *word & bit != 0 {
            return false;
        }
        if *word == 0 {
            self.order.push_back(block);
        }
        *word |= bit;
        self.len += 1;
        true
    }

    /// Whether `id` has been seen (and not yet evicted).
    pub fn contains(&self, id: EventId) -> bool {
        let (block, bit) = slot(id);
        self.blocks.get(&block).is_some_and(|word| word & bit != 0)
    }

    /// Number of remembered ids.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no ids are remembered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The configured bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl agb_profile::MemReport for EventIdBuffer {
    fn mem_usage(&self) -> agb_profile::MemUsage {
        use std::mem::size_of;
        let per_block = 2 * size_of::<(NodeId, u64)>() + size_of::<u64>();
        agb_profile::MemUsage::new((self.blocks.len() * per_block) as u64, self.len as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agb_profile::MemReport;

    fn id(s: u64) -> EventId {
        EventId::new(NodeId::new(1), s)
    }

    #[test]
    fn detects_duplicates() {
        let mut b = EventIdBuffer::new(10);
        assert!(b.insert(id(1)));
        assert!(!b.insert(id(1)));
        assert!(b.contains(id(1)));
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn evicts_fifo_when_full() {
        let mut b = EventIdBuffer::new(3);
        for s in 0..5 {
            b.insert(id(s));
        }
        assert_eq!(b.len(), 3);
        assert!(!b.contains(id(0)));
        assert!(!b.contains(id(1)));
        assert!(b.contains(id(2)));
        assert!(b.contains(id(4)));
    }

    #[test]
    fn evicts_the_oldest_blocks_lowest_seq() {
        let at = |origin, seq| EventId::new(NodeId::new(origin), seq);
        let mut b = EventIdBuffer::new(3);
        b.insert(at(1, 5));
        b.insert(at(2, 0));
        b.insert(at(1, 3)); // joins the oldest block
        b.insert(at(3, 0)); // forgets (1, 3), its lowest seq
        assert!(!b.contains(at(1, 3)) && b.contains(at(1, 5)));
        b.insert(at(1, 4)); // forgets (1, 5) and its block; (1, 4) re-queues it
        assert!(!b.contains(at(1, 5)) && b.contains(at(1, 4)));
        assert_eq!(
            b.order,
            [
                (NodeId::new(2), 0),
                (NodeId::new(3), 0),
                (NodeId::new(1), 0)
            ]
        );
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn evicted_id_reads_as_new_again() {
        let mut b = EventIdBuffer::new(1);
        b.insert(id(0));
        b.insert(id(1)); // evicts 0
        assert!(b.insert(id(0)), "evicted id must be accepted as new");
    }

    #[test]
    fn zero_capacity_never_remembers() {
        let mut b = EventIdBuffer::new(0);
        assert!(b.insert(id(0)));
        assert!(b.insert(id(0)));
        assert!(b.is_empty());
        assert_eq!(b.capacity(), 0);
    }

    #[test]
    fn worst_case_layout_costs_at_most_40_bytes_per_id() {
        // Every id from a different origin: one map entry per id.
        let capacity = 1_000;
        let mut b = EventIdBuffer::new(capacity);
        for origin in 0..2 * capacity as u32 {
            b.insert(EventId::new(NodeId::new(origin), 63));
        }
        assert_eq!(b.len(), capacity);
        assert_eq!(b.blocks.len(), capacity);
        assert!(b.mem_usage().bytes <= 40 * capacity as u64);
    }

    #[test]
    fn sequential_ids_share_blocks() {
        // Ten origins numbering their broadcasts 0, 1, 2, …: the window
        // packs into about n / 64 + 10 blocks, and the block FIFO holds
        // one key per block, not one id per id.
        let capacity = 5_000;
        let mut b = EventIdBuffer::new(capacity);
        for seq in 0..2_000u64 {
            for origin in 0..10 {
                b.insert(EventId::new(NodeId::new(origin), seq));
            }
        }
        assert_eq!(b.len(), capacity);
        let blocks = b.blocks.len();
        assert!(blocks <= capacity / 64 + 2 * 10, "{blocks} blocks");
        let queued = b.order.len();
        assert!(queued <= capacity / 64 + 2 * 10, "{queued} queued blocks");
        let bytes = b.mem_usage().bytes;
        assert!(bytes <= capacity as u64, "{bytes} B for {capacity} ids");
    }
}
