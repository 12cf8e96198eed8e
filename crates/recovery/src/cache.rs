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

use agb_core::Event;
use agb_types::EventId;

#[derive(Debug, Clone)]
struct CachedEvent {
    event: Event,
    cached_at_round: u64,
}

/// Bounded FIFO store of recently delivered events.
///
/// The cache is one queue of its entries, oldest first, and a lookup
/// scans it. At the configured bound (256 entries by default) a scan
/// reads at most 12 KiB of contiguous entries, once per delivered event
/// and once per grafted id; an id index beside the queue would about
/// double the cache's bytes.
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
    /// Cached events, oldest first.
    entries: VecDeque<CachedEvent>,
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
            entries: VecDeque::new(),
            cursor: 0,
            round: 0,
        }
    }

    /// Caches a delivered event. Duplicate ids refresh nothing (the first
    /// cached copy is as servable as any).
    pub fn insert(&mut self, event: Event) {
        if self.capacity == 0 || self.get(event.id()).is_some() {
            return;
        }
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
        }
        self.entries.push_back(CachedEvent {
            event,
            cached_at_round: self.round,
        });
    }

    /// Looks up a cached event.
    pub fn get(&self, id: EventId) -> Option<&Event> {
        self.entries
            .iter()
            .map(|c| &c.event)
            .find(|event| event.id() == id)
    }

    /// The next `n` cached ids (fewer if fewer are cached), oldest
    /// first, continuing where the previous call stopped and wrapping
    /// around the FIFO, so successive digests cover the whole cache.
    pub fn advertise(&mut self, n: usize) -> Vec<EventId> {
        let len = self.entries.len();
        if len == 0 {
            return Vec::new();
        }
        let start = self.cursor % len;
        let take = n.min(len);
        self.cursor = (start + take) % len;
        (0..take)
            .map(|i| self.entries[(start + i) % len].event.id())
            .collect()
    }

    /// Advances the cache clock one gossip round and applies the age
    /// purge.
    pub fn on_round(&mut self) {
        self.round += 1;
        let max_rounds = u64::from(self.max_rounds);
        while self
            .entries
            .front()
            .is_some_and(|c| self.round - c.cached_at_round > max_rounds)
        {
            self.entries.pop_front();
        }
    }

    /// Number of cached events.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The configured capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl agb_profile::MemReport for RetransmissionCache {
    fn mem_usage(&self) -> agb_profile::MemUsage {
        // Payload bytes are shared-buffer estimates.
        let entries = self.entries.len() * std::mem::size_of::<CachedEvent>();
        let payloads: usize = self.entries.iter().map(|c| c.event.payload().len()).sum();
        agb_profile::MemUsage::new((entries + payloads) as u64, self.entries.len() as u64)
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
