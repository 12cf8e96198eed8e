//! The simulator's future event list: a time-ordered queue with
//! deterministic FIFO tie-breaking.
//!
//! Implemented as a `BTreeMap` of per-instant FIFO buckets rather than a
//! binary heap. Discrete-event gossip workloads are massively
//! time-collided — synchronized round timers all fire at the same instant
//! and constant-latency deliveries land together — so bucketing turns
//! `O(log n)` sift operations (each moving large event payloads) into
//! amortized `O(1)` pushes onto the back of a `VecDeque`. Ordering is
//! identical to the previous heap with an insertion-sequence tie-break:
//! earliest time first, FIFO within a time.

use std::collections::{BTreeMap, VecDeque};

use agb_types::TimeMs;

/// Time-bucketed future event list with FIFO tie-breaking.
///
/// Insertion order as the tie-break makes simultaneous events
/// deterministic, which is what allows byte-identical reruns from the
/// same seed.
#[derive(Debug)]
pub(crate) struct EventQueue<E> {
    buckets: BTreeMap<TimeMs, VecDeque<E>>,
    len: usize,
    peak_len: usize,
}

impl<E> EventQueue<E> {
    pub fn new() -> Self {
        EventQueue {
            buckets: BTreeMap::new(),
            len: 0,
            peak_len: 0,
        }
    }

    /// Schedules `item` at virtual time `at`.
    pub fn push(&mut self, at: TimeMs, item: E) {
        self.buckets.entry(at).or_default().push_back(item);
        self.len += 1;
        self.peak_len = self.peak_len.max(self.len);
    }

    /// Removes and returns the earliest event (FIFO among equal times).
    pub fn pop(&mut self) -> Option<E> {
        let mut entry = self.buckets.first_entry()?;
        let item = entry.get_mut().pop_front().expect("buckets are non-empty");
        if entry.get().is_empty() {
            entry.remove();
        }
        self.len -= 1;
        Some(item)
    }

    /// Time of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<TimeMs> {
        self.buckets.first_key_value().map(|(&at, _)| at)
    }

    /// The earliest event (time and item) without removing it.
    ///
    /// Lets the engine's batch collector decide whether the next event
    /// joins a parallel run before committing to the pop.
    pub fn peek(&self) -> Option<(TimeMs, &E)> {
        self.buckets
            .first_key_value()
            .and_then(|(&at, bucket)| bucket.front().map(|item| (at, item)))
    }

    /// Restarts peak tracking from the current length (the perf harness
    /// calls this at the warmup/measure boundary so the reported peak
    /// reflects measured rounds only).
    pub fn reset_peak(&mut self) {
        self.peak_len = self.len;
    }

    pub fn len(&self) -> usize {
        self.len
    }

    /// The high-water mark of the queue length over the whole run.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Estimated resident bytes: queued items plus per-bucket container
    /// overhead (`VecDeque` header + B-tree slot). A `size_of`
    /// estimate, deterministic by construction.
    pub fn estimated_bytes(&self) -> u64 {
        let per_item = std::mem::size_of::<E>() as u64;
        let per_bucket =
            (std::mem::size_of::<VecDeque<E>>() + std::mem::size_of::<TimeMs>() + 16) as u64;
        self.len as u64 * per_item + self.buckets.len() as u64 * per_bucket
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(TimeMs::from_millis(30), "c");
        q.push(TimeMs::from_millis(10), "a");
        q.push(TimeMs::from_millis(20), "b");
        assert_eq!(q.pop().unwrap(), "a");
        assert_eq!(q.pop().unwrap(), "b");
        assert_eq!(q.pop().unwrap(), "c");
        assert!(q.pop().is_none());
    }

    #[test]
    fn equal_times_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        let t = TimeMs::from_millis(5);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap(), i);
        }
    }

    #[test]
    fn peek_time_matches_next_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(TimeMs::from_millis(7), ());
        q.push(TimeMs::from_millis(3), ());
        assert_eq!(q.peek_time(), Some(TimeMs::from_millis(3)));
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.peek_time(), Some(TimeMs::from_millis(7)));
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(TimeMs::from_millis(10), 1);
        q.push(TimeMs::from_millis(5), 0);
        assert_eq!(q.pop().unwrap(), 0);
        q.push(TimeMs::from_millis(8), 2);
        q.push(TimeMs::from_millis(8), 3);
        assert_eq!(q.pop().unwrap(), 2);
        assert_eq!(q.pop().unwrap(), 3);
        assert_eq!(q.pop().unwrap(), 1);
    }

    #[test]
    fn peak_len_tracks_high_water_mark() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.push(TimeMs::from_millis(i), i);
        }
        for _ in 0..10 {
            q.pop();
        }
        assert_eq!(q.len(), 0);
        assert_eq!(q.peak_len(), 10);
    }

    #[test]
    fn reset_peak_restarts_from_current_len() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.push(TimeMs::from_millis(i), i);
        }
        for _ in 0..7 {
            q.pop();
        }
        assert_eq!(q.peak_len(), 10);
        q.reset_peak();
        assert_eq!(q.peak_len(), 3);
        q.push(TimeMs::from_millis(99), 99);
        assert_eq!(q.peak_len(), 4);
    }

    #[test]
    fn peek_exposes_front_item_without_removal() {
        let mut q = EventQueue::new();
        assert!(q.peek().is_none());
        q.push(TimeMs::from_millis(9), "b");
        q.push(TimeMs::from_millis(3), "a");
        let (at, item) = q.peek().unwrap();
        assert_eq!(at, TimeMs::from_millis(3));
        assert_eq!(*item, "a");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().unwrap(), "a");
    }
}
