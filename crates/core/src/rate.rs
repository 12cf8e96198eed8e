//! The sender rate controller — Figure 5(c).
//!
//! Every gossip round the sender compares the congestion signal `avgAge`
//! against two thresholds bracketing the critical age `a_crit`:
//!
//! * `avgAge < L` (low-age mark) — events die too young at the most
//!   constrained node: **decrease** the allowed rate multiplicatively.
//! * `avgAge > H` (high-age mark) *and* the current allowance is actually
//!   being used (low `avgTokens`) — there is headroom: **increase** the
//!   rate, but only with probability `γ`, so that a large sender population
//!   does not surge in lockstep.
//!
//! A high `avgTokens` (unused allowance) also forces a decrease: otherwise
//! an idle sender could bank an inflated allowance and later burst-congest
//! the system (§3.3).

use agb_types::{bernoulli, DetRng};

use crate::config::RateConfig;

/// Rate floor, msgs/s: keeps a throttled sender probing even under
/// congestion.
pub(crate) const MIN_RATE: f64 = 0.05;
/// `avgTokens` at or below this fraction of the bucket depth `max` counts
/// as a fully used allowance (§3.3).
const TOKEN_LOW_FRAC: f64 = 0.25;
/// `avgTokens` at or above this fraction of `max` counts as an unused
/// allowance (§3.3).
const TOKEN_HIGH_FRAC: f64 = 0.75;

/// Why the controller changed (or refused to change) the rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RateChangeReason {
    /// `avgAge` fell below the low-age mark: the system is congested.
    Congestion,
    /// The allowance was not being used; reclaimed to prevent later bursts.
    UnusedAllowance,
    /// `avgAge` above the high-age mark with a fully used allowance.
    Headroom,
}

/// A rate adjustment performed by the controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateChange {
    /// Rate before, messages/second.
    pub old: f64,
    /// Rate after, messages/second.
    pub new: f64,
    /// What triggered it.
    pub reason: RateChangeReason,
}

/// The threshold + randomized multiplicative-increase/decrease controller.
///
/// # Example
///
/// ```
/// use agb_core::{RateConfig, RateController};
/// use agb_types::DetRng;
/// use rand::SeedableRng;
///
/// let config = RateConfig {
///     low_age: 4.0,
///     high_age: 6.0,
///     delta_dec: 0.5,
///     gamma: 1.0,
///     ..RateConfig::default()
/// };
/// let mut ctl = RateController::new(10.0, config);
/// let mut rng = DetRng::seed_from_u64(0);
/// // Congested: avgAge below L.
/// let change = ctl.adjust(3.0, 0.0, 5.0, &mut rng).unwrap();
/// assert_eq!(change.new, 5.0);
/// ```
#[derive(Debug, Clone)]
pub struct RateController {
    config: RateConfig,
    rate: f64,
}

impl RateController {
    /// Creates a controller starting at `initial_rate` messages/second
    /// (clamped into `[MIN_RATE, max_rate]`).
    pub fn new(initial_rate: f64, config: RateConfig) -> Self {
        let rate = initial_rate.clamp(MIN_RATE, config.max_rate);
        RateController { config, rate }
    }

    /// The current allowed rate, messages/second.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Runs one adjustment round.
    ///
    /// * `avg_age` — the congestion signal from the estimator;
    /// * `avg_tokens` / `max_tokens` — the smoothed token-bucket level and
    ///   its capacity, measuring how much of the allowance is being used.
    ///
    /// Returns the change applied, if any.
    pub fn adjust(
        &mut self,
        avg_age: f64,
        avg_tokens: f64,
        max_tokens: f64,
        rng: &mut DetRng,
    ) -> Option<RateChange> {
        let unused = avg_tokens >= TOKEN_HIGH_FRAC * max_tokens;
        let fully_used = avg_tokens <= TOKEN_LOW_FRAC * max_tokens;

        if avg_age <= self.config.low_age || unused {
            let reason = if avg_age <= self.config.low_age {
                RateChangeReason::Congestion
            } else {
                RateChangeReason::UnusedAllowance
            };
            return self.apply(self.rate * (1.0 - self.config.delta_dec), reason);
        }
        if avg_age >= self.config.high_age && fully_used && bernoulli(rng, self.config.gamma) {
            return self.apply(
                self.rate * (1.0 + self.config.delta_inc),
                RateChangeReason::Headroom,
            );
        }
        None
    }

    fn apply(&mut self, target: f64, reason: RateChangeReason) -> Option<RateChange> {
        let new = target.clamp(MIN_RATE, self.config.max_rate);
        if (new - self.rate).abs() < f64::EPSILON {
            return None;
        }
        let change = RateChange {
            old: self.rate,
            new,
            reason,
        };
        self.rate = new;
        Some(change)
    }

    /// Overrides the rate directly (used by tests and by operators seeding
    /// a known-good rate).
    pub fn set_rate(&mut self, rate: f64) {
        self.rate = rate.clamp(MIN_RATE, self.config.max_rate);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> DetRng {
        DetRng::seed_from_u64(5)
    }

    fn config() -> RateConfig {
        RateConfig {
            low_age: 4.0,
            high_age: 6.0,
            delta_dec: 0.25,
            delta_inc: 0.10,
            gamma: 1.0, // deterministic increase for tests
            max_rate: 100.0,
        }
    }

    #[test]
    fn decreases_on_congestion() {
        let mut ctl = RateController::new(10.0, config());
        let change = ctl.adjust(3.0, 0.0, 4.0, &mut rng()).unwrap();
        assert_eq!(change.reason, RateChangeReason::Congestion);
        assert!((change.new - 7.5).abs() < 1e-12);
        assert_eq!(ctl.rate(), change.new);
    }

    #[test]
    fn decreases_on_unused_allowance_even_with_high_age() {
        let mut ctl = RateController::new(10.0, config());
        // avgAge says headroom, but the bucket is nearly full: reclaim.
        let change = ctl.adjust(9.0, 3.9, 4.0, &mut rng()).unwrap();
        assert_eq!(change.reason, RateChangeReason::UnusedAllowance);
        assert!(change.new < 10.0);
    }

    #[test]
    fn increases_on_headroom_with_full_usage() {
        let mut ctl = RateController::new(10.0, config());
        let change = ctl.adjust(7.0, 0.5, 4.0, &mut rng()).unwrap();
        assert_eq!(change.reason, RateChangeReason::Headroom);
        assert!((change.new - 11.0).abs() < 1e-12);
    }

    #[test]
    fn holds_in_deadband() {
        let mut ctl = RateController::new(10.0, config());
        // avgAge between L and H: no adjustment regardless of tokens.
        assert!(ctl.adjust(5.0, 0.0, 4.0, &mut rng()).is_none());
        assert!(ctl.adjust(5.0, 2.0, 4.0, &mut rng()).is_none());
        assert_eq!(ctl.rate(), 10.0);
    }

    #[test]
    fn no_increase_when_allowance_partially_used() {
        let mut ctl = RateController::new(10.0, config());
        // avgTokens in the middle: neither unused-decrease nor increase.
        assert!(ctl.adjust(9.0, 2.0, 4.0, &mut rng()).is_none());
    }

    #[test]
    fn respects_min_and_max() {
        let mut ctl = RateController::new(0.06, config());
        ctl.adjust(1.0, 0.0, 4.0, &mut rng());
        assert_eq!(ctl.rate(), MIN_RATE);
        // Already at floor: further decreases are no-ops.
        assert!(ctl.adjust(1.0, 0.0, 4.0, &mut rng()).is_none());

        let mut hi = RateController::new(99.0, config());
        hi.adjust(9.0, 0.0, 4.0, &mut rng());
        hi.adjust(9.0, 0.0, 4.0, &mut rng());
        assert_eq!(hi.rate(), 100.0);
    }

    #[test]
    fn gamma_zero_never_increases() {
        let mut cfg = config();
        cfg.gamma = 0.0;
        let mut ctl = RateController::new(10.0, cfg);
        for _ in 0..100 {
            assert!(ctl.adjust(9.0, 0.0, 4.0, &mut rng()).is_none());
        }
    }

    #[test]
    fn gamma_fraction_increases_sometimes() {
        let mut cfg = config();
        cfg.gamma = 0.1;
        let mut ctl = RateController::new(1.0, cfg);
        let mut r = rng();
        let mut increases = 0;
        for _ in 0..1000 {
            if ctl.adjust(9.0, 0.0, 4.0, &mut r).is_some() {
                increases += 1;
            }
            ctl.set_rate(1.0);
        }
        assert!(
            (50..200).contains(&increases),
            "expected ~100 increases, got {increases}"
        );
    }

    #[test]
    fn initial_rate_is_clamped() {
        let ctl = RateController::new(1_000_000.0, config());
        assert_eq!(ctl.rate(), 100.0);
        let low = RateController::new(0.0, config());
        assert_eq!(low.rate(), MIN_RATE);
    }
}
