//! Configuration of the pull-based recovery layer.

use agb_types::{ConfigError, ConfigResult};

/// Parameters of the recovery layer (`RecoverableNode`): the bounds of the
/// retransmission cache and of the missing tracker.
///
/// Every other bound is a constant beside `RecoverableNode`, sized so
/// that repair traffic cannot itself congest the group (the failure mode
/// the paper's adaptive mechanism exists to prevent): each piggybacked
/// `IHave` digest advertises [`DIGEST_SIZE`](crate::DIGEST_SIZE) = 32 ids,
/// about 0.4 kB, in rotation through the cache; a node grafts at most
/// `MAX_GRAFTS_PER_ROUND` = 64 ids and serves at most
/// `SERVE_BUDGET_PER_ROUND` = 128 events per round; and it re-requests a
/// missing id after `GRAFT_TIMEOUT_ROUNDS` = 2 rounds, from the next
/// advertiser, up to `MAX_RETRIES` = 4 attempts before abandoning it.
///
/// # Example
///
/// ```
/// use agb_recovery::RecoveryConfig;
///
/// let config = RecoveryConfig { cache_capacity: 64, ..RecoveryConfig::default() };
/// assert!(config.validate().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// Retransmission-cache capacity in events — the cache's own resource
    /// bound, purged FIFO independently of the gossip buffer. It is also
    /// the advertisement window: only cached ids are advertised.
    pub cache_capacity: usize,
    /// Rounds a cached event stays servable before the cache's age purge
    /// removes it.
    pub cache_rounds: u32,
    /// Maximum open gaps tracked at once (memory bound for the missing
    /// tracker; overflow gaps are re-noticed by later advertisements).
    pub max_missing: usize,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            cache_capacity: 256,
            cache_rounds: 30,
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
        if self.cache_capacity == 0 {
            return Err(ConfigError::new("cache_capacity", "must be at least 1"));
        }
        if self.cache_rounds == 0 {
            return Err(ConfigError::new("cache_rounds", "must be at least 1"));
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
        c.cache_capacity = 0;
        assert_eq!(c.validate().unwrap_err().field(), "cache_capacity");

        let mut c = RecoveryConfig::default();
        c.cache_rounds = 0;
        assert_eq!(c.validate().unwrap_err().field(), "cache_rounds");

        let mut c = RecoveryConfig::default();
        c.max_missing = 0;
        assert_eq!(c.validate().unwrap_err().field(), "max_missing");
    }
}
