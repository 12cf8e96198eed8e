//! Property-based tests of the statistics primitives.

use agb_types::{Ewma, RunningStats};
use proptest::prelude::*;

proptest! {
    /// EWMA output always lies within the range spanned by the initial
    /// value and all samples.
    #[test]
    fn ewma_stays_in_hull(
        alpha in 0.0f64..=1.0,
        initial in -100.0f64..100.0,
        samples in proptest::collection::vec(-100.0f64..100.0, 0..50),
    ) {
        let mut e = Ewma::new(alpha, initial);
        let mut lo = initial;
        let mut hi = initial;
        for s in samples {
            e.update(s);
            lo = lo.min(s);
            hi = hi.max(s);
            prop_assert!(e.value() >= lo - 1e-9 && e.value() <= hi + 1e-9);
        }
    }

    /// RunningStats' count and mean agree with a two-pass computation.
    #[test]
    fn running_stats_match_two_pass(
        samples in proptest::collection::vec(-1e3f64..1e3, 0..100),
    ) {
        let mut r = RunningStats::new();
        for &s in &samples {
            r.push(s);
        }
        let mean = if samples.is_empty() {
            0.0
        } else {
            samples.iter().sum::<f64>() / samples.len() as f64
        };
        prop_assert_eq!(r.count(), samples.len() as u64);
        prop_assert!((r.mean() - mean).abs() < 1e-9 * (1.0 + mean.abs()));
    }
}
