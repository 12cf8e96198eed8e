//! Configuration of the pull-based recovery layer.

use agb_types::{ConfigError, ConfigResult};

/// Parameters of the recovery layer (`RecoverableNode`).
///
/// The defaults are deliberately conservative: digests add ≈ 0.4 kB to a
/// gossip message, and every recovery budget is bounded so that repair
/// traffic cannot itself congest the group — the failure mode the paper's
/// adaptive mechanism exists to prevent.
///
/// # Example
///
/// ```
/// use agb_recovery::RecoveryConfig;
///
/// let config = RecoveryConfig { digest_size: 16, ..RecoveryConfig::default() };
/// assert!(config.validate().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// Maximum ids advertised per piggybacked `IHave` digest, drawn in
    /// rotation from the retransmission cache (each round advertises the
    /// next slice of it).
    pub digest_size: usize,
    /// Retransmission-cache capacity in events — the cache's own resource
    /// bound, purged FIFO independently of the gossip buffer. It is also
    /// the advertisement window: only cached ids are advertised.
    pub cache_capacity: usize,
    /// Rounds a cached event stays servable before the cache's age purge
    /// removes it.
    pub cache_rounds: u32,
    /// Rounds to wait for a retransmission before re-requesting a missing
    /// id from the next advertiser.
    pub graft_timeout_rounds: u32,
    /// Pull attempts per missing id before recovery is abandoned.
    pub max_retries: u32,
    /// Maximum missing ids grafted per round (request-side budget).
    pub max_grafts_per_round: usize,
    /// Maximum events served from the cache per round (serve-side budget).
    pub serve_budget_per_round: usize,
    /// Maximum open gaps tracked at once (memory bound for the missing
    /// tracker; overflow gaps are re-noticed by later advertisements).
    pub max_missing: usize,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            digest_size: 32,
            cache_capacity: 256,
            cache_rounds: 30,
            graft_timeout_rounds: 2,
            max_retries: 4,
            max_grafts_per_round: 64,
            serve_budget_per_round: 128,
            max_missing: 4096,
        }
    }
}

impl RecoveryConfig {
    /// Validates parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the offending field.
    pub fn validate(&self) -> ConfigResult<()> {
        // The wire codec counts ids with a u16; cap the id-carrying
        // budgets far below that bound (4096 ids ≈ 48 kB, a datagram's
        // worth).
        const MAX_IDS: usize = 4096;
        if self.digest_size == 0 {
            return Err(ConfigError::new("digest_size", "must be at least 1"));
        }
        if self.digest_size > MAX_IDS {
            return Err(ConfigError::new("digest_size", "must be at most 4096"));
        }
        if self.max_grafts_per_round > MAX_IDS {
            return Err(ConfigError::new(
                "max_grafts_per_round",
                "must be at most 4096",
            ));
        }
        if self.serve_budget_per_round > MAX_IDS {
            return Err(ConfigError::new(
                "serve_budget_per_round",
                "must be at most 4096",
            ));
        }
        if self.cache_capacity == 0 {
            return Err(ConfigError::new("cache_capacity", "must be at least 1"));
        }
        if self.cache_rounds == 0 {
            return Err(ConfigError::new("cache_rounds", "must be at least 1"));
        }
        if self.graft_timeout_rounds == 0 {
            return Err(ConfigError::new(
                "graft_timeout_rounds",
                "must be at least 1",
            ));
        }
        if self.max_retries == 0 {
            return Err(ConfigError::new("max_retries", "must be at least 1"));
        }
        if self.max_grafts_per_round == 0 {
            return Err(ConfigError::new(
                "max_grafts_per_round",
                "must be at least 1",
            ));
        }
        if self.serve_budget_per_round == 0 {
            return Err(ConfigError::new(
                "serve_budget_per_round",
                "must be at least 1",
            ));
        }
        if self.max_missing == 0 {
            return Err(ConfigError::new("max_missing", "must be at least 1"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_validates() {
        assert!(RecoveryConfig::default().validate().is_ok());
    }

    #[test]
    fn rejects_bad_fields() {
        let mut c = RecoveryConfig::default();
        c.digest_size = 0;
        assert_eq!(c.validate().unwrap_err().field(), "digest_size");

        let mut c = RecoveryConfig::default();
        c.digest_size = 5000;
        assert_eq!(c.validate().unwrap_err().field(), "digest_size");

        let mut c = RecoveryConfig::default();
        c.max_grafts_per_round = 70_000;
        assert_eq!(c.validate().unwrap_err().field(), "max_grafts_per_round");

        let mut c = RecoveryConfig::default();
        c.serve_budget_per_round = 70_000;
        assert_eq!(c.validate().unwrap_err().field(), "serve_budget_per_round");

        let mut c = RecoveryConfig::default();
        c.cache_capacity = 0;
        assert_eq!(c.validate().unwrap_err().field(), "cache_capacity");

        let mut c = RecoveryConfig::default();
        c.cache_rounds = 0;
        assert_eq!(c.validate().unwrap_err().field(), "cache_rounds");

        let mut c = RecoveryConfig::default();
        c.graft_timeout_rounds = 0;
        assert_eq!(c.validate().unwrap_err().field(), "graft_timeout_rounds");

        let mut c = RecoveryConfig::default();
        c.max_retries = 0;
        assert_eq!(c.validate().unwrap_err().field(), "max_retries");

        let mut c = RecoveryConfig::default();
        c.max_grafts_per_round = 0;
        assert_eq!(c.validate().unwrap_err().field(), "max_grafts_per_round");

        let mut c = RecoveryConfig::default();
        c.serve_budget_per_round = 0;
        assert_eq!(c.validate().unwrap_err().field(), "serve_budget_per_round");

        let mut c = RecoveryConfig::default();
        c.max_missing = 0;
        assert_eq!(c.validate().unwrap_err().field(), "max_missing");
    }
}
