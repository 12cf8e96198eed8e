//! Property tests: the lock-free recorder and the plain histogram bucket
//! alike, and plain histograms merge like one fed both streams.

use agb_telemetry::WallHistogram;
use agb_types::Histogram;
use proptest::prelude::*;

/// Strictly ascending bounds (possibly none) from positive steps.
fn bounds_from(steps: &[f64]) -> Vec<f64> {
    steps
        .iter()
        .scan(-5.0, |b, step| {
            *b += step;
            Some(*b)
        })
        .collect()
}

/// Samples drawn at random, or exactly on a bound when the draw says so.
fn samples_from(bounds: &[f64], draws: &[(bool, usize, f64)]) -> Vec<f64> {
    draws
        .iter()
        .map(|&(on_bound, i, v)| match bounds.get(i) {
            Some(&b) if on_bound => b,
            _ => v,
        })
        .collect()
}

fn plain(bounds: &[f64], samples: &[f64]) -> Histogram {
    let mut h = Histogram::new(bounds);
    for &v in samples {
        h.observe(v);
    }
    h
}

fn assert_sums_close(a: f64, b: f64) {
    assert!(
        (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0),
        "sums {a} and {b} differ"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_two_recorders_bucket_alike(
        steps in collection::vec(0.01f64..10.0, 0..8),
        draws in collection::vec((any::<bool>(), 0usize..8, -10.0f64..60.0), 0..64),
    ) {
        let bounds = bounds_from(&steps);
        let samples = samples_from(&bounds, &draws);
        let wall = WallHistogram::new(&bounds);
        for &v in &samples {
            wall.observe(v);
        }
        let snapshot = wall.snapshot();
        let expected = plain(&bounds, &samples);
        prop_assert_eq!(snapshot.bounds(), expected.bounds());
        prop_assert_eq!(snapshot.counts(), expected.counts());
        prop_assert_eq!(snapshot.count(), expected.count());
        assert_sums_close(snapshot.sum(), expected.sum());
    }

    #[test]
    fn merging_equals_one_histogram_fed_both_streams(
        steps in collection::vec(0.01f64..10.0, 0..8),
        draws in collection::vec((any::<bool>(), 0usize..8, -10.0f64..60.0), 0..64),
        split in 0usize..64,
    ) {
        let bounds = bounds_from(&steps);
        let samples = samples_from(&bounds, &draws);
        let (left, right) = samples.split_at(split.min(samples.len()));
        let mut merged = plain(&bounds, left);
        prop_assert!(merged.merge(&plain(&bounds, right)));
        let whole = plain(&bounds, &samples);
        prop_assert_eq!(merged.counts(), whole.counts());
        prop_assert_eq!(merged.count(), whole.count());
        prop_assert_eq!((merged.min(), merged.max()), (whole.min(), whole.max()));
        assert_sums_close(merged.sum(), whole.sum());
    }
}
