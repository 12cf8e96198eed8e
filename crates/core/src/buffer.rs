//! The bounded, age-purged event buffer (`events` in Figure 1).
//!
//! When the buffer overflows, the *oldest* events — those with the highest
//! age, i.e. the most widely disseminated ones — are discarded first, the
//! age-based purging heuristic of Kouznetsov et al. (SRDS 2001) that the
//! paper adopts. The ages of overflow victims are the raw material of the
//! congestion signal in the adaptive mechanism.

use agb_types::{EventId, FastHashMap, FastHashSet};

use crate::event::Event;

/// An event purged from the buffer, with the reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PurgedEvent {
    /// The purged event's id.
    pub id: EventId,
    /// Its age at purge time.
    pub age: u32,
    /// Why it was purged.
    pub reason: PurgeReason,
}

/// Why an event left the buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PurgeReason {
    /// Evicted because the buffer exceeded its capacity — the congestion
    /// signal.
    Overflow,
    /// Removed because its age exceeded the age cap `k` — normal end of
    /// life after (presumed) full dissemination.
    AgeCap,
}

#[derive(Debug, Clone)]
struct Slot {
    event: Event,
    inserted: u64,
}

/// Bounded buffer of events with age-based eviction (highest age first,
/// FIFO among equal ages).
///
/// Capacity is dynamic: the paper's Figure 9 experiment shrinks and grows
/// node buffers at runtime, which maps to [`EventBuffer::set_capacity`].
///
/// # Example
///
/// ```
/// use agb_core::{Event, EventBuffer};
/// use agb_types::{EventId, NodeId, Payload};
///
/// let mut buf = EventBuffer::new(2);
/// let id = |s| EventId::new(NodeId::new(0), s);
/// buf.insert(Event::with_age(id(0), 5, Payload::new()));
/// buf.insert(Event::with_age(id(1), 1, Payload::new()));
/// let purged = buf.insert(Event::with_age(id(2), 3, Payload::new()));
/// // Overflow evicts the highest-age event (age 5).
/// assert_eq!(purged.map(|p| p.age), Some(5));
/// assert_eq!(buf.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct EventBuffer {
    /// Slots stored inline in the map: the dedup/merge probe on the
    /// receive hot path touches exactly one table, which matters at 10k+
    /// nodes where every probe is a cold cache access.
    slots: FastHashMap<EventId, Slot>,
    capacity: usize,
    next_seq: u64,
}

impl EventBuffer {
    /// Creates a buffer holding at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        EventBuffer {
            slots: FastHashMap::default(),
            capacity,
            next_seq: 0,
        }
    }

    /// Current capacity (the node's `|events|max`).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Changes the capacity at runtime. If the buffer shrinks below the
    /// current occupancy, the overflow victims are returned.
    pub fn set_capacity(&mut self, capacity: usize) -> Vec<PurgedEvent> {
        self.capacity = capacity;
        let mut purged = Vec::new();
        while self.slots.len() > self.capacity {
            purged.push(self.evict_one());
        }
        purged
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Whether `id` is currently buffered.
    pub fn contains(&self, id: EventId) -> bool {
        self.slots.contains_key(&id)
    }

    /// Inserts a new event; if the buffer overflows, evicts the oldest
    /// (highest-age) event and returns it. The buffer never holds more
    /// than its capacity, so one insert displaces at most one event.
    ///
    /// Inserting an id that is already buffered max-merges the age instead
    /// (duplicate handling of Figure 1).
    pub fn insert(&mut self, event: Event) -> Option<PurgedEvent> {
        if let Some(slot) = self.slots.get_mut(&event.id()) {
            slot.event.merge_age(event.age());
            return None;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.slots.insert(
            event.id(),
            Slot {
                event,
                inserted: seq,
            },
        );
        if self.slots.len() > self.capacity {
            Some(self.evict_one())
        } else {
            None
        }
    }

    /// Max-merges the age of a buffered duplicate; returns whether the id
    /// was present.
    pub fn merge_age(&mut self, id: EventId, age: u32) -> bool {
        match self.slots.get_mut(&id) {
            Some(slot) => {
                slot.event.merge_age(age);
                true
            }
            None => false,
        }
    }

    /// Increments the age of every buffered event by one round.
    pub fn increment_ages(&mut self) {
        for slot in self.slots.values_mut() {
            slot.event.increment_age();
        }
    }

    /// Removes all events whose age exceeds `age_cap` (Figure 1's `k`)
    /// and returns them.
    pub fn purge_age_cap(&mut self, age_cap: u32) -> Vec<PurgedEvent> {
        let victims: Vec<EventId> = self
            .slots
            .iter()
            .filter(|(_, s)| s.event.age() > age_cap)
            .map(|(&id, _)| id)
            .collect();
        let mut purged: Vec<PurgedEvent> = victims
            .into_iter()
            .map(|id| {
                let slot = self.slots.remove(&id).expect("victim present");
                PurgedEvent {
                    id,
                    age: slot.event.age(),
                    reason: PurgeReason::AgeCap,
                }
            })
            .collect();
        // Deterministic reporting order regardless of storage order.
        purged.sort_by_key(|p| p.id);
        purged
    }

    /// Evicts the overflow victim: highest age, FIFO (earliest insertion)
    /// among equal ages, then smallest id — the age-based purging
    /// heuristic with a fully deterministic tiebreak.
    fn evict_one(&mut self) -> PurgedEvent {
        let victim = self
            .slots
            .iter()
            .max_by(|(ida, a), (idb, b)| {
                a.event
                    .age()
                    .cmp(&b.event.age())
                    .then_with(|| b.inserted.cmp(&a.inserted))
                    .then_with(|| idb.cmp(ida))
            })
            .map(|(&id, _)| id)
            .expect("non-empty: len > capacity >= 0");
        let slot = self.slots.remove(&victim).expect("victim present");
        PurgedEvent {
            id: victim,
            age: slot.event.age(),
            reason: PurgeReason::Overflow,
        }
    }

    /// The ages of the `count` events that would be evicted if the capacity
    /// were smaller — the would-drop scan of Figure 5(b). Skips ids in
    /// `already_counted`. Returns `(id, age)` pairs in eviction order.
    pub fn would_evict(
        &self,
        hypothetical_capacity: usize,
        already_counted: &FastHashSet<EventId>,
    ) -> Vec<(EventId, u32)> {
        // Fast path for the common case (nothing already counted): the
        // scan runs once per received message, so the eligibility count
        // must not probe the counted set per buffered event when that
        // set is empty.
        let eligible = if already_counted.is_empty() {
            self.slots.len()
        } else {
            self.slots
                .values()
                .filter(|s| !already_counted.contains(&s.event.id()))
                .count()
        };
        if eligible <= hypothetical_capacity {
            return Vec::new();
        }
        let excess = eligible - hypothetical_capacity;
        let mut candidates: Vec<&Slot> = self
            .slots
            .values()
            .filter(|s| !already_counted.contains(&s.event.id()))
            .collect();
        // Eviction order: highest age first, then FIFO, then id.
        candidates.sort_by(|a, b| {
            b.event
                .age()
                .cmp(&a.event.age())
                .then_with(|| a.inserted.cmp(&b.inserted))
                .then_with(|| a.event.id().cmp(&b.event.id()))
        });
        candidates
            .into_iter()
            .take(excess)
            .map(|slot| (slot.event.id(), slot.event.age()))
            .collect()
    }

    /// Snapshot of the buffered events for gossip emission, in insertion
    /// order for determinism, as a shared [`EventList`](crate::EventList):
    /// one allocation backs every gossip copy emitted this round.
    pub fn snapshot_shared(&self) -> crate::event::EventList {
        let mut slots: Vec<&Slot> = self.slots.values().collect();
        slots.sort_by_key(|s| s.inserted);
        slots.into_iter().map(|s| s.event.clone()).collect()
    }

    /// Iterates over buffered events in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        self.slots.values().map(|s| &s.event)
    }
}

impl agb_profile::MemReport for EventBuffer {
    fn mem_usage(&self) -> agb_profile::MemUsage {
        let slot = (std::mem::size_of::<EventId>() + std::mem::size_of::<Slot>()) as u64;
        let payloads: u64 = self
            .slots
            .values()
            .map(|s| s.event.payload().len() as u64)
            .sum();
        agb_profile::MemUsage::new(
            self.slots.len() as u64 * slot + payloads,
            self.slots.len() as u64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agb_types::{NodeId, Payload};

    fn ev(seq: u64, age: u32) -> Event {
        Event::with_age(EventId::new(NodeId::new(0), seq), age, Payload::new())
    }

    #[test]
    fn insert_within_capacity_never_purges() {
        let mut buf = EventBuffer::new(3);
        assert!(buf.insert(ev(0, 0)).is_none());
        assert!(buf.insert(ev(1, 0)).is_none());
        assert!(buf.insert(ev(2, 0)).is_none());
        assert_eq!(buf.len(), 3);
        assert!(!buf.is_empty());
    }

    #[test]
    fn overflow_evicts_highest_age_first() {
        let mut buf = EventBuffer::new(2);
        buf.insert(ev(0, 2));
        buf.insert(ev(1, 9));
        let purged = buf.insert(ev(2, 0)).expect("overflow victim");
        assert_eq!(purged.age, 9);
        assert_eq!(purged.reason, PurgeReason::Overflow);
        assert!(buf.contains(EventId::new(NodeId::new(0), 0)));
        assert!(buf.contains(EventId::new(NodeId::new(0), 2)));
    }

    #[test]
    fn overflow_tie_breaks_fifo() {
        let mut buf = EventBuffer::new(2);
        buf.insert(ev(0, 5)); // inserted first
        buf.insert(ev(1, 5));
        let purged = buf.insert(ev(2, 0)).expect("overflow victim");
        // Equal ages: the earlier-inserted one goes first.
        assert_eq!(purged.id, EventId::new(NodeId::new(0), 0));
    }

    #[test]
    fn duplicate_insert_merges_age() {
        let mut buf = EventBuffer::new(2);
        buf.insert(ev(0, 1));
        let purged = buf.insert(ev(0, 6));
        assert!(purged.is_none());
        assert_eq!(buf.len(), 1);
        let snap = buf.snapshot_shared();
        assert_eq!(snap[0].age(), 6);
    }

    #[test]
    fn merge_age_reports_presence() {
        let mut buf = EventBuffer::new(2);
        buf.insert(ev(0, 1));
        assert!(buf.merge_age(EventId::new(NodeId::new(0), 0), 4));
        assert!(!buf.merge_age(EventId::new(NodeId::new(0), 99), 4));
        assert_eq!(buf.snapshot_shared()[0].age(), 4);
    }

    #[test]
    fn increment_ages_touches_all() {
        let mut buf = EventBuffer::new(4);
        buf.insert(ev(0, 0));
        buf.insert(ev(1, 3));
        buf.increment_ages();
        let mut ages: Vec<u32> = buf.iter().map(Event::age).collect();
        ages.sort_unstable();
        assert_eq!(ages, vec![1, 4]);
    }

    #[test]
    fn age_cap_purges_only_old_events() {
        let mut buf = EventBuffer::new(10);
        buf.insert(ev(0, 3));
        buf.insert(ev(1, 10));
        buf.insert(ev(2, 11));
        let purged = buf.purge_age_cap(10);
        assert_eq!(purged.len(), 1);
        assert_eq!(purged[0].id, EventId::new(NodeId::new(0), 2));
        assert_eq!(purged[0].reason, PurgeReason::AgeCap);
        assert_eq!(buf.len(), 2);
    }

    #[test]
    fn shrinking_capacity_evicts_oldest() {
        let mut buf = EventBuffer::new(4);
        for (seq, age) in [(0, 1), (1, 7), (2, 3), (3, 5)] {
            buf.insert(ev(seq, age));
        }
        let purged = buf.set_capacity(2);
        assert_eq!(buf.capacity(), 2);
        let ages: Vec<u32> = purged.iter().map(|p| p.age).collect();
        assert_eq!(ages, vec![7, 5]);
        assert_eq!(buf.len(), 2);
    }

    #[test]
    fn would_evict_matches_actual_eviction_order() {
        let mut buf = EventBuffer::new(10);
        for (seq, age) in [(0, 1), (1, 7), (2, 3), (3, 5)] {
            buf.insert(ev(seq, age));
        }
        let empty = FastHashSet::default();
        let would = buf.would_evict(2, &empty);
        let ages: Vec<u32> = would.iter().map(|&(_, a)| a).collect();
        assert_eq!(ages, vec![7, 5]);
        // Shrinking for real gives the same victims.
        let purged = buf.set_capacity(2);
        let actual: Vec<EventId> = purged.iter().map(|p| p.id).collect();
        let predicted: Vec<EventId> = would.iter().map(|&(id, _)| id).collect();
        assert_eq!(actual, predicted);
    }

    #[test]
    fn would_evict_skips_already_counted() {
        let mut buf = EventBuffer::new(10);
        for (seq, age) in [(0, 9), (1, 8), (2, 1)] {
            buf.insert(ev(seq, age));
        }
        let mut counted = FastHashSet::default();
        counted.insert(EventId::new(NodeId::new(0), 0));
        // Eligible = {1, 2}; capacity 1 -> one victim: age 8.
        let would = buf.would_evict(1, &counted);
        assert_eq!(would.len(), 1);
        assert_eq!(would[0].1, 8);
    }

    #[test]
    fn would_evict_none_when_under_capacity() {
        let mut buf = EventBuffer::new(10);
        buf.insert(ev(0, 1));
        let empty = FastHashSet::default();
        assert!(buf.would_evict(5, &empty).is_empty());
        assert!(buf.would_evict(1, &empty).is_empty());
    }

    #[test]
    fn snapshot_is_insertion_ordered() {
        let mut buf = EventBuffer::new(5);
        for seq in [3, 1, 2] {
            buf.insert(ev(seq, 0));
        }
        let ids: Vec<u64> = buf.snapshot_shared().iter().map(|e| e.id().seq()).collect();
        assert_eq!(ids, vec![3, 1, 2]);
    }

    #[test]
    fn zero_capacity_buffer_rejects_everything() {
        let mut buf = EventBuffer::new(0);
        let purged = buf.insert(ev(0, 2));
        assert_eq!(purged.map(|p| p.age), Some(2));
        assert!(buf.is_empty());
    }
}
