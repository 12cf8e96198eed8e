//! Protocol configuration, mapping one-to-one onto the paper's parameters
//! (§3.4 "System configuration").

use agb_types::{ConfigError, ConfigResult, DurationMs};

use crate::rate::MIN_RATE;

/// Parameters of the base gossip algorithm (Figure 1).
///
/// | Field           | Paper symbol      |
/// |-----------------|-------------------|
/// | `fanout`        | `F`               |
/// | `gossip_period` | `T`               |
/// | `max_events`    | `|events|max`     |
/// | `max_event_ids` | `|eventIds|max`   |
/// | `age_cap`       | `k`               |
///
/// Every flavor reads `F`, `T`, its buffer bound (`max_events`) and its
/// id window (`max_event_ids`) from here, and every execution surface
/// times its rounds by `T`. Figure 3's static input rate is not a field: agb-node's
/// `Algorithm::LpbcastStatic` installs it with
/// [`LpbcastNode::with_static_rate`](crate::LpbcastNode::with_static_rate).
///
/// # Example
///
/// ```
/// use agb_core::GossipConfig;
///
/// let config = GossipConfig { fanout: 4, ..GossipConfig::default() };
/// assert!(config.validate().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GossipConfig {
    /// Number of random peers gossiped to per round (`F`).
    pub fanout: usize,
    /// Gossip round period (`T`).
    pub gossip_period: DurationMs,
    /// Event-buffer capacity (`|events|max`) — the contended resource.
    pub max_events: usize,
    /// Duplicate-suppression digest capacity (`|eventIds|max`).
    pub max_event_ids: usize,
    /// Maximum age before an event is garbage-collected (`k`).
    pub age_cap: u32,
}

impl Default for GossipConfig {
    /// The paper's experimental configuration: fanout 4, 60-process groups;
    /// the gossip period is normalized to 1 s of virtual time (the paper's
    /// prototype used 5 s of wall-clock time — only the ratio of rate ×
    /// period to buffer size matters).
    fn default() -> Self {
        GossipConfig {
            fanout: 4,
            gossip_period: DurationMs::from_secs(1),
            max_events: 90,
            max_event_ids: 50_000,
            age_cap: 10,
        }
    }
}

impl GossipConfig {
    /// Validates parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the offending field.
    pub fn validate(&self) -> ConfigResult<()> {
        if self.fanout == 0 {
            return Err(ConfigError::new("fanout", "must be at least 1"));
        }
        if self.gossip_period.is_zero() {
            return Err(ConfigError::new("gossip_period", "must be non-zero"));
        }
        if self.max_events == 0 {
            return Err(ConfigError::new("max_events", "must be at least 1"));
        }
        if self.max_event_ids < self.max_events {
            return Err(ConfigError::new(
                "max_event_ids",
                "must be at least max_events (ids are cheaper than events)",
            ));
        }
        if self.age_cap == 0 {
            return Err(ConfigError::new("age_cap", "must be at least 1"));
        }
        Ok(())
    }
}

/// Parameters of the distributed min-buffer estimator (Figure 5(a) + §6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MinBuffConfig {
    /// Sample period `Ts`. §3.4: at least the critical age × gossip period,
    /// so that one node's minimum reaches everyone within a period.
    pub sample_period: DurationMs,
    /// Number of recent periods `W` whose minima are combined.
    pub window: usize,
    /// Track the `m` smallest buffers instead of the strict minimum
    /// (§6 extension); `1` reproduces the paper's mechanism.
    pub track: usize,
    /// Ignore advertised capacities below this floor (§6 extension).
    pub floor: Option<u32>,
}

impl Default for MinBuffConfig {
    fn default() -> Self {
        MinBuffConfig {
            sample_period: DurationMs::from_secs(6),
            window: 4,
            track: 1,
            floor: None,
        }
    }
}

impl MinBuffConfig {
    /// Validates parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the offending field.
    pub fn validate(&self) -> ConfigResult<()> {
        if self.sample_period.is_zero() {
            return Err(ConfigError::new("sample_period", "must be non-zero"));
        }
        if self.window == 0 {
            return Err(ConfigError::new("window", "must be at least 1"));
        }
        if self.track == 0 {
            return Err(ConfigError::new("track", "must be at least 1"));
        }
        Ok(())
    }
}

/// Parameters of the congestion estimator (Figure 5(b)).
///
/// `avgAge` starts at `INITIAL_AGE` = 10 hops, optimistic at the default
/// age cap `k` so a cold start decreases nothing, and the no-drop relief
/// drifts it toward `RELIEF_AGE` = 10 hops, again `k`; both constants live
/// beside [`CongestionEstimator`](crate::CongestionEstimator).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CongestionConfig {
    /// EWMA weight `α` for `avgAge` (§3.4 recommends close to 1; the paper
    /// uses 0.9).
    pub alpha: f64,
    /// Drift `avgAge` toward `RELIEF_AGE` on receives with nothing to drop
    /// (see docs/ARCHITECTURE.md on why pure Figure 5(b) can wedge).
    pub no_drop_relief: bool,
}

impl Default for CongestionConfig {
    fn default() -> Self {
        CongestionConfig {
            alpha: 0.9,
            no_drop_relief: true,
        }
    }
}

impl CongestionConfig {
    /// Validates parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the offending field.
    pub fn validate(&self) -> ConfigResult<()> {
        if !self.alpha.is_finite() || !(0.0..=1.0).contains(&self.alpha) {
            return Err(ConfigError::new("alpha", "must be within [0, 1]"));
        }
        Ok(())
    }
}

/// Parameters of the rate controller (Figure 5(c)).
///
/// The controller keeps three constants beside
/// [`RateController`](crate::RateController): the rate floor `MIN_RATE` =
/// 0.05 msgs/s, which keeps senders probing under congestion, and the
/// marks on the token bucket's depth `max` (§3.3's `avgTokens`): at most
/// `TOKEN_LOW_FRAC` = 0.25 × `max` counts as a fully used allowance, at
/// least `TOKEN_HIGH_FRAC` = 0.75 × `max` as an unused one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateConfig {
    /// Low-age mark `L`: decrease below this.
    pub low_age: f64,
    /// High-age mark `H`: increase above this (if the allowance is used).
    pub high_age: f64,
    /// Multiplicative decrease `δdec`.
    pub delta_dec: f64,
    /// Multiplicative increase `δinc`.
    pub delta_inc: f64,
    /// Probability `γ` that an eligible sender actually increases this
    /// round (de-synchronizes sender populations; the paper uses 0.1).
    pub gamma: f64,
    /// Rate ceiling, msgs/s.
    pub max_rate: f64,
}

impl Default for RateConfig {
    /// Thresholds bracket the critical age measured on the default
    /// simulator configuration (see `agb-experiments::calibrate`).
    fn default() -> Self {
        RateConfig {
            low_age: 5.0,
            high_age: 7.0,
            delta_dec: 0.25,
            delta_inc: 0.10,
            gamma: 0.1,
            max_rate: 10_000.0,
        }
    }
}

impl RateConfig {
    /// Validates parameter ranges and mutual consistency.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the offending field.
    pub fn validate(&self) -> ConfigResult<()> {
        for (name, v) in [
            ("low_age", self.low_age),
            ("high_age", self.high_age),
            ("max_rate", self.max_rate),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(ConfigError::new(name, "must be finite and non-negative"));
            }
        }
        if self.low_age > self.high_age {
            return Err(ConfigError::new(
                "low_age",
                "must not exceed high_age (§3.4: a considerable gap prevents oscillation)",
            ));
        }
        for (name, v) in [("delta_dec", self.delta_dec), ("delta_inc", self.delta_inc)] {
            if !v.is_finite() || !(0.0..1.0).contains(&v) {
                return Err(ConfigError::new(name, "must be within [0, 1)"));
            }
        }
        if !self.gamma.is_finite() || !(0.0..=1.0).contains(&self.gamma) {
            return Err(ConfigError::new("gamma", "must be within [0, 1]"));
        }
        if self.max_rate < MIN_RATE {
            return Err(ConfigError::new(
                "max_rate",
                format!("must be at least the rate floor, {MIN_RATE} msgs/s"),
            ));
        }
        Ok(())
    }
}

/// Full configuration of the adaptive mechanism (Figure 5).
///
/// `avgTokens` is smoothed with `TOKEN_ALPHA` = 0.9, the paper's `α`,
/// beside [`AdaptiveNode`](crate::AdaptiveNode).
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptationConfig {
    /// Distributed min-buffer estimation (Figure 5(a)).
    pub min_buff: MinBuffConfig,
    /// Local congestion estimation (Figure 5(b)).
    pub congestion: CongestionConfig,
    /// Rate control (Figure 5(c)).
    pub rate: RateConfig,
    /// The sender's initial allowed rate, msgs/s.
    pub initial_rate: f64,
    /// Token bucket depth in messages (burst tolerance). The paper's `max`.
    pub bucket_capacity: f64,
}

impl Default for AdaptationConfig {
    fn default() -> Self {
        AdaptationConfig {
            min_buff: MinBuffConfig::default(),
            congestion: CongestionConfig::default(),
            rate: RateConfig::default(),
            initial_rate: 1.0,
            bucket_capacity: 4.0,
        }
    }
}

impl AdaptationConfig {
    /// Validates all sub-configurations.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the offending field.
    pub fn validate(&self) -> ConfigResult<()> {
        self.min_buff.validate()?;
        self.congestion.validate()?;
        self.rate.validate()?;
        if !self.initial_rate.is_finite() || self.initial_rate <= 0.0 {
            return Err(ConfigError::new("initial_rate", "must be positive"));
        }
        if !self.bucket_capacity.is_finite() || self.bucket_capacity < 1.0 {
            return Err(ConfigError::new("bucket_capacity", "must be at least 1"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        assert!(GossipConfig::default().validate().is_ok());
        assert!(MinBuffConfig::default().validate().is_ok());
        assert!(CongestionConfig::default().validate().is_ok());
        assert!(RateConfig::default().validate().is_ok());
        assert!(AdaptationConfig::default().validate().is_ok());
    }

    #[test]
    fn gossip_config_rejects_bad_fields() {
        let mut c = GossipConfig::default();
        c.fanout = 0;
        assert_eq!(c.validate().unwrap_err().field(), "fanout");

        let mut c = GossipConfig::default();
        c.gossip_period = DurationMs::ZERO;
        assert_eq!(c.validate().unwrap_err().field(), "gossip_period");

        let mut c = GossipConfig::default();
        c.max_events = 0;
        assert_eq!(c.validate().unwrap_err().field(), "max_events");

        let mut c = GossipConfig::default();
        c.max_event_ids = c.max_events - 1;
        assert_eq!(c.validate().unwrap_err().field(), "max_event_ids");

        let mut c = GossipConfig::default();
        c.age_cap = 0;
        assert_eq!(c.validate().unwrap_err().field(), "age_cap");
    }

    #[test]
    fn rate_config_rejects_inverted_thresholds() {
        let mut c = RateConfig::default();
        c.low_age = 8.0;
        c.high_age = 6.0;
        assert_eq!(c.validate().unwrap_err().field(), "low_age");

        let mut c = RateConfig::default();
        c.max_rate = MIN_RATE / 2.0;
        assert_eq!(c.validate().unwrap_err().field(), "max_rate");

        let mut c = RateConfig::default();
        c.delta_dec = 1.0;
        assert_eq!(c.validate().unwrap_err().field(), "delta_dec");

        let mut c = RateConfig::default();
        c.gamma = 1.5;
        assert_eq!(c.validate().unwrap_err().field(), "gamma");
    }

    #[test]
    fn congestion_config_rejects_bad_alpha() {
        let mut c = CongestionConfig::default();
        c.alpha = 1.1;
        assert_eq!(c.validate().unwrap_err().field(), "alpha");
    }

    #[test]
    fn minbuff_config_rejects_zeroes() {
        let mut c = MinBuffConfig::default();
        c.window = 0;
        assert_eq!(c.validate().unwrap_err().field(), "window");
        let mut c = MinBuffConfig::default();
        c.track = 0;
        assert_eq!(c.validate().unwrap_err().field(), "track");
        let mut c = MinBuffConfig::default();
        c.sample_period = DurationMs::ZERO;
        assert!(c.validate().is_err());
    }

    #[test]
    fn adaptation_config_rejects_bad_top_level_fields() {
        let mut c = AdaptationConfig::default();
        c.initial_rate = -1.0;
        assert_eq!(c.validate().unwrap_err().field(), "initial_rate");
        let mut c = AdaptationConfig::default();
        c.bucket_capacity = 0.0;
        assert_eq!(c.validate().unwrap_err().field(), "bucket_capacity");
    }
}
