//! The token-bucket input throttle of Figure 3.
//!
//! The paper's pseudocode restores one token every `1000/rate` ms up to
//! `max`; this implementation refills continuously (fractional tokens) which
//! is equivalent in the limit and plays better with virtual time. A
//! `BROADCAST` call consumes one token; callers that find the bucket empty
//! queue the message (the application-blocking behaviour of Figure 3).

use agb_types::TimeMs;

/// Token bucket with a runtime-adjustable rate.
///
/// # Example
///
/// ```
/// use agb_core::TokenBucket;
/// use agb_types::TimeMs;
///
/// let mut b = TokenBucket::new(2.0, 5.0, TimeMs::ZERO);
/// assert!(b.try_acquire(TimeMs::ZERO)); // starts full
/// // rate 2 tokens/s: after 500 ms one token has been restored.
/// assert!(b.try_acquire(TimeMs::from_millis(500)));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TokenBucket {
    rate_per_sec: f64,
    max_tokens: f64,
    tokens: f64,
    last_refill: TimeMs,
}

impl TokenBucket {
    /// Creates a bucket that starts full.
    ///
    /// # Panics
    ///
    /// Panics if `rate_per_sec` is negative/non-finite or `max_tokens < 1`.
    pub fn new(rate_per_sec: f64, max_tokens: f64, now: TimeMs) -> Self {
        assert!(
            rate_per_sec.is_finite() && rate_per_sec >= 0.0,
            "rate must be finite and non-negative"
        );
        assert!(
            max_tokens.is_finite() && max_tokens >= 1.0,
            "max_tokens must be >= 1"
        );
        TokenBucket {
            rate_per_sec,
            max_tokens,
            tokens: max_tokens,
            last_refill: now,
        }
    }

    /// Restores tokens accrued since the last refill.
    pub fn refill(&mut self, now: TimeMs) {
        let elapsed = now.since(self.last_refill);
        if elapsed.is_zero() {
            return;
        }
        self.last_refill = now;
        self.tokens =
            (self.tokens + self.rate_per_sec * elapsed.as_secs_f64()).min(self.max_tokens);
    }

    /// Attempts to consume one token; refills first.
    pub fn try_acquire(&mut self, now: TimeMs) -> bool {
        self.refill(now);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Tokens currently available (after an implicit refill).
    pub fn tokens(&mut self, now: TimeMs) -> f64 {
        self.refill(now);
        self.tokens
    }

    /// Tokens available without refilling (pure read).
    pub fn tokens_unrefreshed(&self) -> f64 {
        self.tokens
    }

    /// The bucket size.
    pub fn max_tokens(&self) -> f64 {
        self.max_tokens
    }

    /// The refill rate in tokens (messages) per second.
    pub fn rate(&self) -> f64 {
        self.rate_per_sec
    }

    /// Adjusts the refill rate (the adaptive mechanism's knob). Accrued
    /// tokens are refilled at the old rate first.
    pub fn set_rate(&mut self, rate_per_sec: f64, now: TimeMs) {
        assert!(
            rate_per_sec.is_finite() && rate_per_sec >= 0.0,
            "rate must be finite and non-negative"
        );
        self.refill(now);
        self.rate_per_sec = rate_per_sec;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_full_and_drains() {
        let mut b = TokenBucket::new(1.0, 3.0, TimeMs::ZERO);
        assert!(b.try_acquire(TimeMs::ZERO));
        assert!(b.try_acquire(TimeMs::ZERO));
        assert!(b.try_acquire(TimeMs::ZERO));
        assert!(!b.try_acquire(TimeMs::ZERO));
    }

    #[test]
    fn refills_at_rate() {
        let mut b = TokenBucket::new(10.0, 5.0, TimeMs::ZERO);
        for _ in 0..5 {
            assert!(b.try_acquire(TimeMs::ZERO));
        }
        assert!(!b.try_acquire(TimeMs::ZERO));
        // 10 tokens/s -> one token per 100 ms.
        assert!(!b.try_acquire(TimeMs::from_millis(99)));
        assert!(b.try_acquire(TimeMs::from_millis(100)));
    }

    #[test]
    fn never_exceeds_max() {
        let mut b = TokenBucket::new(100.0, 2.0, TimeMs::ZERO);
        assert_eq!(b.tokens(TimeMs::from_secs(60)), 2.0);
    }

    #[test]
    fn never_goes_negative() {
        let mut b = TokenBucket::new(0.0, 1.0, TimeMs::ZERO);
        assert!(b.try_acquire(TimeMs::ZERO));
        for t in 0..100 {
            assert!(!b.try_acquire(TimeMs::from_millis(t)));
            assert!(b.tokens_unrefreshed() >= 0.0);
        }
    }

    #[test]
    fn set_rate_refills_at_old_rate_first() {
        let mut b = TokenBucket::new(10.0, 10.0, TimeMs::ZERO);
        for _ in 0..10 {
            assert!(b.try_acquire(TimeMs::ZERO));
        }
        // 500 ms at 10/s = 5 tokens accrued before the rate drops to 0.
        b.set_rate(0.0, TimeMs::from_millis(500));
        assert_eq!(b.tokens(TimeMs::from_secs(10)), 5.0);
        assert_eq!(b.rate(), 0.0);
    }

    #[test]
    fn zero_rate_bucket_is_static() {
        let mut b = TokenBucket::new(0.0, 2.0, TimeMs::ZERO);
        assert!(b.try_acquire(TimeMs::from_secs(1)));
        assert!(b.try_acquire(TimeMs::from_secs(2)));
        assert!(!b.try_acquire(TimeMs::from_secs(100)));
    }

    #[test]
    #[should_panic(expected = "rate")]
    fn rejects_negative_rate() {
        let _ = TokenBucket::new(-1.0, 2.0, TimeMs::ZERO);
    }

    #[test]
    #[should_panic(expected = "max_tokens")]
    fn rejects_tiny_bucket() {
        let _ = TokenBucket::new(1.0, 0.5, TimeMs::ZERO);
    }
}
