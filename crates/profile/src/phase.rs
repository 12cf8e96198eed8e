//! Engine phase taxonomy.

/// A hot phase of the engine round, identified for cost attribution.
///
/// Phases partition where an engine instant's wall-clock time goes:
/// lifting the event batch off the queue, executing handlers (serially
/// or across shards), merging buffered effects back in canonical order,
/// executing control events, and the routing work accumulated inside
/// handler execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Popping the maximal Deliver/Timer run off the event queue.
    BatchLift,
    /// Handler execution for a batch (all shards; wall time of the
    /// parallel section when sharded).
    ShardExec,
    /// Canonical merge-back of buffered effects (pushes, stat mixes,
    /// trace records, post-event hooks).
    Merge,
    /// Control-event execution (membership churn, partitions, restarts).
    Control,
    /// Network routing + per-send RNG draws inside handler execution
    /// (sub-phase of [`Phase::ShardExec`], measured via effect buffers).
    Route,
}

/// All phases, in reporting order.
pub const PHASES: [Phase; 5] = [
    Phase::BatchLift,
    Phase::ShardExec,
    Phase::Merge,
    Phase::Control,
    Phase::Route,
];

impl Phase {
    /// Stable snake_case label used in reports, JSON, and collapsed
    /// stacks.
    pub fn label(self) -> &'static str {
        match self {
            Phase::BatchLift => "batch_lift",
            Phase::ShardExec => "shard_exec",
            Phase::Merge => "merge",
            Phase::Control => "control",
            Phase::Route => "route",
        }
    }

    /// Dense index into per-phase accumulator arrays.
    pub(crate) fn index(self) -> usize {
        match self {
            Phase::BatchLift => 0,
            Phase::ShardExec => 1,
            Phase::Merge => 2,
            Phase::Control => 3,
            Phase::Route => 4,
        }
    }

    /// Whether this phase is a sub-phase nested inside
    /// [`Phase::ShardExec`] (affects collapsed-stack frames and keeps
    /// phase percentages from double-counting).
    pub fn nested(self) -> bool {
        self == Phase::Route
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_unique_and_indices_dense() {
        let mut seen = std::collections::HashSet::new();
        for (i, p) in PHASES.iter().enumerate() {
            assert_eq!(p.index(), i);
            assert!(seen.insert(p.label()));
        }
    }

    #[test]
    fn nested_phases_are_the_handler_subphases() {
        assert!(Phase::Route.nested());
        assert!(!Phase::ShardExec.nested());
        assert!(!Phase::Merge.nested());
    }
}
