//! Offered-load generators.

use agb_types::{DetRng, DurationMs, TimeMs};
use rand::RngExt;

/// The arrival process of one sender application.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SenderModel {
    /// Deterministic arrivals at exactly `rate` msgs/s.
    Constant {
        /// Offered rate, msgs/s.
        rate: f64,
    },
    /// Poisson arrivals with mean `rate` msgs/s, drawn from the process's
    /// RNG stream.
    Poisson {
        /// Mean offered rate, msgs/s.
        rate: f64,
    },
}

/// Iterator-style arrival schedule for one sender.
///
/// The process models a *blocking* application (Figure 3's `BROADCAST`
/// waits for a token): arrivals that occur while the previous message is
/// still queued at the protocol are suppressed and counted, not queued —
/// call [`SenderProcess::poll`] with the protocol's current backlog.
///
/// # Example
///
/// ```
/// use agb_types::{DetRng, TimeMs};
/// use agb_workload::{SenderModel, SenderProcess};
/// use rand::SeedableRng;
///
/// let mut p = SenderProcess::new(
///     SenderModel::Constant { rate: 2.0 },
///     TimeMs::ZERO,
///     DetRng::seed_from_u64(1),
/// );
/// // 2 msg/s -> arrivals at 500 ms and 1000 ms within the first second.
/// assert_eq!(p.poll(TimeMs::from_secs(1), 0), 2);
/// ```
#[derive(Debug)]
pub struct SenderProcess {
    model: SenderModel,
    next_at: TimeMs,
    rng: DetRng,
    suppressed: u64,
    /// Maximum protocol backlog before arrivals are suppressed.
    max_backlog: usize,
}

impl SenderProcess {
    /// Creates a process whose first arrival is one interval after
    /// `start`.
    pub fn new(model: SenderModel, start: TimeMs, rng: DetRng) -> Self {
        let mut p = SenderProcess {
            model,
            next_at: start,
            rng,
            suppressed: 0,
            max_backlog: 2,
        };
        let gap = p.draw_gap();
        p.next_at = start + gap;
        p
    }

    /// Sets the backlog bound above which arrivals are suppressed
    /// (default 2).
    pub fn with_max_backlog(mut self, max_backlog: usize) -> Self {
        self.max_backlog = max_backlog;
        self
    }

    /// Time of the next scheduled arrival.
    pub fn next_at(&self) -> TimeMs {
        self.next_at
    }

    /// Arrivals suppressed because the application was blocked.
    pub fn suppressed(&self) -> u64 {
        self.suppressed
    }

    fn draw_gap(&mut self) -> DurationMs {
        match self.model {
            SenderModel::Constant { rate } => {
                if rate <= 0.0 {
                    DurationMs::from_secs(u64::MAX / 2_000)
                } else {
                    DurationMs::from_millis(((1_000.0 / rate).round() as u64).max(1))
                }
            }
            SenderModel::Poisson { rate } => {
                if rate <= 0.0 {
                    DurationMs::from_secs(u64::MAX / 2_000)
                } else {
                    let u: f64 = self.rng.random::<f64>().max(f64::MIN_POSITIVE);
                    let gap_ms = -(u.ln()) * 1_000.0 / rate;
                    DurationMs::from_millis((gap_ms.round() as u64).max(1))
                }
            }
        }
    }

    /// Advances the schedule to `now` and returns how many messages the
    /// application offers. `backlog` is the protocol's pending queue
    /// length: arrivals beyond `max_backlog` are suppressed (the blocked
    /// application cannot produce).
    pub fn poll(&mut self, now: TimeMs, backlog: usize) -> u32 {
        let mut offered = 0u32;
        while self.next_at <= now {
            if backlog + offered as usize >= self.max_backlog.max(1) {
                self.suppressed += 1;
            } else {
                offered += 1;
            }
            let gap = self.draw_gap();
            self.next_at += gap;
        }
        offered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> DetRng {
        DetRng::seed_from_u64(33)
    }

    #[test]
    fn constant_rate_counts() {
        let mut p = SenderProcess::new(SenderModel::Constant { rate: 10.0 }, TimeMs::ZERO, rng())
            .with_max_backlog(1000);
        let n = p.poll(TimeMs::from_secs(10), 0);
        assert_eq!(n, 100);
        assert_eq!(p.suppressed(), 0);
    }

    #[test]
    fn poisson_rate_is_approximately_right() {
        let mut p = SenderProcess::new(SenderModel::Poisson { rate: 20.0 }, TimeMs::ZERO, rng())
            .with_max_backlog(100_000);
        let n = p.poll(TimeMs::from_secs(200), 0);
        let rate = f64::from(n) / 200.0;
        assert!((rate - 20.0).abs() < 1.5, "measured {rate}");
    }

    #[test]
    fn blocked_application_suppresses() {
        let mut p = SenderProcess::new(SenderModel::Constant { rate: 10.0 }, TimeMs::ZERO, rng())
            .with_max_backlog(2);
        // Backlog already at bound: everything suppressed.
        let n = p.poll(TimeMs::from_secs(1), 2);
        assert_eq!(n, 0);
        assert_eq!(p.suppressed(), 10);
        // Backlog cleared: arrivals resume (at most max_backlog per poll).
        let n = p.poll(TimeMs::from_secs(2), 0);
        assert_eq!(n, 2);
        assert_eq!(p.suppressed(), 18);
    }

    #[test]
    fn zero_rate_never_fires() {
        let mut p = SenderProcess::new(SenderModel::Constant { rate: 0.0 }, TimeMs::ZERO, rng());
        assert_eq!(p.poll(TimeMs::from_secs(3600), 0), 0);
    }

    #[test]
    fn deterministic_given_same_seed() {
        let mk = || {
            SenderProcess::new(SenderModel::Poisson { rate: 5.0 }, TimeMs::ZERO, rng())
                .with_max_backlog(1000)
        };
        let mut a = mk();
        let mut b = mk();
        for s in 1..=20 {
            assert_eq!(
                a.poll(TimeMs::from_secs(s), 0),
                b.poll(TimeMs::from_secs(s), 0)
            );
        }
    }
}
