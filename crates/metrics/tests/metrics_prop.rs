//! Property-based tests of the metrics layer.

use agb_metrics::{DeliveryTracker, RateMeter};
use agb_types::{DurationMs, EventId, NodeId, TimeMs};
use proptest::prelude::*;

proptest! {
    /// Receiver fractions are always within [0, 1] and atomicity never
    /// exceeds the average-fraction-derived bound.
    #[test]
    fn delivery_tracker_fractions_are_sane(
        n_nodes in 1usize..16,
        deliveries in proptest::collection::vec((0u64..8, 0u32..16, 0u32..10), 0..200),
    ) {
        let mut t = DeliveryTracker::new(n_nodes);
        for (msg, node, age) in deliveries {
            t.on_delivered(
                NodeId::new(node % n_nodes as u32),
                EventId::new(NodeId::new(0), msg),
                age,
                TimeMs::ZERO,
            );
        }
        let r = t.atomicity(0.95, None);
        prop_assert!((0.0..=1.0).contains(&r.avg_receiver_fraction));
        prop_assert!((0.0..=1.0).contains(&r.atomic_fraction));
        for (_, rec) in t.iter() {
            prop_assert!(rec.receiver_count() <= n_nodes);
        }
    }

    /// A message delivered to every node is always atomic; one delivered
    /// to none never is.
    #[test]
    fn atomicity_extremes(n_nodes in 2usize..20, threshold in 0.0f64..0.99) {
        let mut t = DeliveryTracker::new(n_nodes);
        for node in 0..n_nodes {
            t.on_delivered(
                NodeId::new(node as u32),
                EventId::new(NodeId::new(0), 0),
                1,
                TimeMs::ZERO,
            );
        }
        let r = t.atomicity(threshold, None);
        prop_assert_eq!(r.atomic_fraction, 1.0);
        prop_assert_eq!(r.avg_receiver_fraction, 1.0);
    }

    /// RateMeter's total counts every event, and the windowed rate over
    /// the full span reproduces it.
    #[test]
    fn rate_meter_conservation(
        bin_ms in 1u64..5_000,
        events in proptest::collection::vec(0u64..100_000, 0..200),
    ) {
        let mut m = RateMeter::new(DurationMs::from_millis(bin_ms));
        for &t in &events {
            m.record(TimeMs::from_millis(t));
        }
        prop_assert_eq!(m.total(), events.len() as u64);
        let span_ms = (100_000 / bin_ms + 1) * bin_ms;
        let rate = m.rate_in(TimeMs::ZERO, TimeMs::from_millis(span_ms));
        let from_rate = rate * span_ms as f64 / 1000.0;
        prop_assert!((from_rate - events.len() as f64).abs() < 1e-6);
    }
}
