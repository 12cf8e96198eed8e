//! Tunables for the probabilistic forwarding flavor.

use agb_types::{ConfigError, ConfigResult};

/// Parameters of GOSSIP3-style probabilistic forwarding.
///
/// The defaults are the conservative corner of the Haas/Halpern/Li sweep
/// (`p = 0.65`, `k = 2`, four-neighbour rescue), which their evaluation
/// shows reaches practically all nodes while cutting messages sharply
/// versus flooding. The rescue degree is the constant `RESCUE_DEGREE` = 4
/// beside [`RoutingNode`](crate::RoutingNode), the paper's value.
///
/// What every flavor shares comes from the `GossipConfig` the node is
/// built with: the fanout `F` (targets per relay round), the relay
/// buffer's bound (`max_events`; overflow evicts the highest age first,
/// FIFO within equal ages) and the duplicate-suppression id window
/// (`max_event_ids`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoutingConfig {
    /// Relay probability `p` for rumors past the warm-up zone.
    pub relay_probability: f64,
    /// Rumors younger than this many hops are always relayed (`k`).
    pub sure_hops: u32,
    /// Rounds an accepted rumor stays in the relay buffer, i.e. how many
    /// times it is re-emitted before retiring.
    pub relay_rounds: u32,
}

impl Default for RoutingConfig {
    fn default() -> Self {
        RoutingConfig {
            relay_probability: 0.65,
            sure_hops: 2,
            relay_rounds: 2,
        }
    }
}

impl RoutingConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the offending field.
    pub fn validate(&self) -> ConfigResult<()> {
        if !(0.0..=1.0).contains(&self.relay_probability) {
            return Err(ConfigError::new(
                "relay_probability",
                "must be within [0, 1]",
            ));
        }
        if self.relay_rounds == 0 {
            return Err(ConfigError::new("relay_rounds", "must be at least 1"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_validates() {
        assert!(RoutingConfig::default().validate().is_ok());
    }

    type Mutation = fn(&mut RoutingConfig);

    #[test]
    fn each_field_is_checked() {
        let cases: Vec<(Mutation, &str)> = vec![
            (|c| c.relay_probability = 1.5, "relay_probability"),
            (|c| c.relay_probability = -0.1, "relay_probability"),
            (|c| c.relay_rounds = 0, "relay_rounds"),
        ];
        for (mutate, field) in cases {
            let mut c = RoutingConfig::default();
            mutate(&mut c);
            let err = c.validate().expect_err(field);
            assert_eq!(err.field(), field);
        }
    }
}
