//! Tracing configuration: the on/off switch and the raw-record ring
//! capacity.

/// Configuration for a tracing run.
///
/// The default is **disabled**: harnesses carry a `TraceConfig`
/// unconditionally and pay only an `enabled` branch per handler
/// invocation when tracing is off.
///
/// # Example
///
/// ```
/// use agb_trace::TraceConfig;
///
/// assert!(TraceConfig::enabled().enabled);
/// assert!(!TraceConfig::default().enabled);
/// let big = TraceConfig::enabled().with_ring_capacity(1 << 20);
/// assert_eq!(big.ring_capacity, 1 << 20);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Master switch. When `false`, probes emit nothing and the recorder
    /// is never consulted.
    pub enabled: bool,
    /// Maximum raw [`TraceRecord`](crate::TraceRecord)s retained by the
    /// ring buffer; older records are evicted first (aggregates —
    /// histograms, counts, trees, the digest — still see every record).
    pub ring_capacity: usize,
}

impl TraceConfig {
    /// Default ring capacity: enough for a full 60-node paper-scale run.
    pub const DEFAULT_RING_CAPACITY: usize = 65_536;

    /// Tracing off (the default; zero overhead beyond one branch).
    pub fn disabled() -> Self {
        TraceConfig {
            enabled: false,
            ring_capacity: Self::DEFAULT_RING_CAPACITY,
        }
    }

    /// Tracing on, default ring capacity.
    pub fn enabled() -> Self {
        TraceConfig {
            enabled: true,
            ..Self::disabled()
        }
    }

    /// Returns this config with the raw-record ring capacity set.
    pub fn with_ring_capacity(mut self, capacity: usize) -> Self {
        self.ring_capacity = capacity;
        self
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_disabled() {
        assert!(!TraceConfig::default().enabled);
    }
}
