//! The bounded retransmission cache.
//!
//! Events enter the cache when they are first delivered locally and stay
//! servable after the gossip [`EventBuffer`](agb_core::EventBuffer) has
//! purged them — that gap is precisely where lpbcast's atomicity breaks
//! and pull-based repair operates. The cache has its **own** purge policy
//! (FIFO capacity bound plus a round-count age cap), deliberately
//! decoupled from the gossip buffer so that serving retransmissions never
//! competes with dissemination for buffer slots.
//!
//! The cache also decides what the node advertises: `IHave` digests are
//! drawn from its FIFO ([`RetransmissionCache::advertise`]), so every
//! advertised id is one a `Graft` can be served from.

use std::collections::VecDeque;

use agb_types::FastHashMap;

use agb_core::Event;
use agb_types::EventId;

#[derive(Debug, Clone)]
struct CachedEvent {
    event: Event,
    cached_at_round: u64,
}

/// Bounded FIFO store of recently delivered events, indexed by id.
///
/// # Example
///
/// ```
/// use agb_recovery::RetransmissionCache;
/// use agb_core::Event;
/// use agb_types::{EventId, NodeId, Payload};
///
/// let mut cache = RetransmissionCache::new(2, 10);
/// let id = |s| EventId::new(NodeId::new(0), s);
/// cache.insert(Event::new(id(0), Payload::new()));
/// cache.insert(Event::new(id(1), Payload::new()));
/// cache.insert(Event::new(id(2), Payload::new())); // evicts id(0)
/// assert!(cache.get(id(0)).is_none());
/// assert!(cache.get(id(2)).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct RetransmissionCache {
    capacity: usize,
    max_rounds: u32,
    slots: FastHashMap<EventId, CachedEvent>,
    order: VecDeque<EventId>,
    /// Where the next [`advertise`](Self::advertise) slice starts.
    cursor: usize,
    round: u64,
}

impl RetransmissionCache {
    /// Creates a cache holding at most `capacity` events, each for at most
    /// `max_rounds` rounds.
    pub fn new(capacity: usize, max_rounds: u32) -> Self {
        RetransmissionCache {
            capacity,
            max_rounds,
            // Grown on demand: one cache per node at 10k+ simulated
            // nodes makes eager full-bound reservations prohibitive.
            slots: FastHashMap::default(),
            order: VecDeque::new(),
            cursor: 0,
            round: 0,
        }
    }

    /// Caches a delivered event. Duplicate ids refresh nothing (the first
    /// cached copy is as servable as any).
    pub fn insert(&mut self, event: Event) {
        if self.capacity == 0 || self.slots.contains_key(&event.id()) {
            return;
        }
        self.order.push_back(event.id());
        self.slots.insert(
            event.id(),
            CachedEvent {
                event,
                cached_at_round: self.round,
            },
        );
        while self.order.len() > self.capacity {
            if let Some(old) = self.order.pop_front() {
                self.slots.remove(&old);
            }
        }
    }

    /// Looks up a cached event.
    pub fn get(&self, id: EventId) -> Option<&Event> {
        self.slots.get(&id).map(|c| &c.event)
    }

    /// The next `n` cached ids (fewer if fewer are cached), oldest
    /// first, continuing where the previous call stopped and wrapping
    /// around the FIFO, so successive digests cover the whole cache.
    pub fn advertise(&mut self, n: usize) -> Vec<EventId> {
        let len = self.order.len();
        if len == 0 {
            return Vec::new();
        }
        let start = self.cursor % len;
        let take = n.min(len);
        self.cursor = (start + take) % len;
        (0..take).map(|i| self.order[(start + i) % len]).collect()
    }

    /// Advances the cache clock one gossip round and applies the age
    /// purge.
    pub fn on_round(&mut self) {
        self.round += 1;
        let max_rounds = u64::from(self.max_rounds);
        while let Some(&front) = self.order.front() {
            let expired = self
                .slots
                .get(&front)
                .is_some_and(|c| self.round - c.cached_at_round > max_rounds);
            if !expired {
                break;
            }
            self.order.pop_front();
            self.slots.remove(&front);
        }
    }

    /// Number of cached events.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The configured capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl agb_profile::MemReport for RetransmissionCache {
    fn mem_usage(&self) -> agb_profile::MemUsage {
        // Each cached event appears in the id-indexed slot map and the
        // FIFO order queue; payload bytes are shared-buffer estimates.
        let per_slot =
            (2 * std::mem::size_of::<EventId>() + std::mem::size_of::<CachedEvent>() + 8) as u64;
        let payloads: u64 = self
            .slots
            .values()
            .map(|c| c.event.payload().len() as u64)
            .sum();
        agb_profile::MemUsage::new(
            self.slots.len() as u64 * per_slot + payloads,
            self.slots.len() as u64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agb_types::{NodeId, Payload};

    fn ev(s: u64) -> Event {
        Event::new(EventId::new(NodeId::new(1), s), Payload::new())
    }

    #[test]
    fn fifo_eviction_at_capacity() {
        let mut c = RetransmissionCache::new(3, 100);
        for s in 0..5 {
            c.insert(ev(s));
        }
        assert_eq!(c.len(), 3);
        assert!(c.get(ev(0).id()).is_none());
        assert!(c.get(ev(1).id()).is_none());
        assert!(c.get(ev(4).id()).is_some());
    }

    #[test]
    fn age_purge_after_max_rounds() {
        let mut c = RetransmissionCache::new(10, 2);
        c.insert(ev(0));
        c.on_round();
        c.insert(ev(1));
        c.on_round();
        assert_eq!(c.len(), 2, "both within the round cap");
        c.on_round(); // ev(0) now 3 rounds old > 2
        assert!(c.get(ev(0).id()).is_none());
        assert!(c.get(ev(1).id()).is_some());
        c.on_round();
        assert!(c.is_empty());
    }

    #[test]
    fn duplicate_insert_is_noop() {
        let mut c = RetransmissionCache::new(2, 10);
        c.insert(ev(0));
        c.insert(ev(0));
        assert_eq!(c.len(), 1);
        assert_eq!(c.capacity(), 2);
    }

    #[test]
    fn advertise_rotates_over_the_fifo() {
        let mut c = RetransmissionCache::new(3, 100);
        assert!(c.advertise(2).is_empty());
        for s in 0..4 {
            c.insert(ev(s)); // evicts ev(0)
        }
        let ids = |seqs: &[u64]| seqs.iter().map(|&s| ev(s).id()).collect::<Vec<_>>();
        assert_eq!(c.advertise(2), ids(&[1, 2]));
        assert_eq!(c.advertise(2), ids(&[3, 1]));
        assert_eq!(c.advertise(5), ids(&[2, 3, 1]));
    }

    #[test]
    fn zero_capacity_caches_nothing() {
        let mut c = RetransmissionCache::new(0, 10);
        c.insert(ev(0));
        assert!(c.is_empty());
    }
}
