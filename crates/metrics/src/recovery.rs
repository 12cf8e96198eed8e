//! Aggregates of the pull-based recovery layer (`agb-recovery`).

/// Counters for the recovery control plane, fed from the
/// `ProtocolEvent::Recovery*` events.
///
/// "Overhead" counts recovery *control messages* (graft requests sent plus
/// retransmissions served): the traffic the pull layer adds on top of
/// regular gossip. [`overhead_ratio`](RecoveryStats::overhead_ratio)
/// normalizes it against deliveries so experiments can report repair cost
/// per useful delivery.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    requests: u64,
    requested_ids: u64,
    serves: u64,
    served_events: u64,
    recovered: u64,
    duplicates: u64,
    abandoned: u64,
    /// Frames actually put on the wire (grafts + non-empty serves);
    /// empty-handed serves send nothing and count nothing here.
    control_messages: u64,
}

impl RecoveryStats {
    /// Records a sent graft request carrying `ids` missing ids.
    pub fn on_requested(&mut self, ids: usize) {
        self.requests += 1;
        self.requested_ids += ids as u64;
        self.control_messages += 1;
    }

    /// Records a served graft that retransmitted `events` events.
    pub fn on_served(&mut self, events: usize) {
        self.serves += 1;
        self.served_events += events as u64;
        if events > 0 {
            self.control_messages += 1;
        }
    }

    /// Records a recovered (previously missing, now delivered) event.
    pub fn on_recovered(&mut self) {
        self.recovered += 1;
    }

    /// Records a redundant retransmitted event.
    pub fn on_duplicate(&mut self) {
        self.duplicates += 1;
    }

    /// Records an abandoned recovery.
    pub fn on_abandoned(&mut self) {
        self.abandoned += 1;
    }

    /// Adds another node group's counters.
    pub fn merge(&mut self, other: &RecoveryStats) {
        self.requests += other.requests;
        self.requested_ids += other.requested_ids;
        self.serves += other.serves;
        self.served_events += other.served_events;
        self.recovered += other.recovered;
        self.duplicates += other.duplicates;
        self.abandoned += other.abandoned;
        self.control_messages += other.control_messages;
    }

    /// Graft request frames sent.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Missing ids requested across all grafts.
    pub fn requested_ids(&self) -> u64 {
        self.requested_ids
    }

    /// Graft requests answered (including empty-handed).
    pub fn serves(&self) -> u64 {
        self.serves
    }

    /// Events retransmitted from caches.
    pub fn served_events(&self) -> u64 {
        self.served_events
    }

    /// Events delivered through retransmission that were tracked missing.
    pub fn recovered(&self) -> u64 {
        self.recovered
    }

    /// Retransmitted events that were already delivered (wasted repair
    /// bandwidth).
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Missing ids given up on after the retry budget.
    pub fn abandoned(&self) -> u64 {
        self.abandoned
    }

    /// Recovery control messages per delivered message — the headline
    /// repair-cost number (`deliveries` from the collector's meter).
    /// Empty-handed serves send no frame and cost nothing.
    pub fn overhead_ratio(&self, deliveries: u64) -> f64 {
        if deliveries == 0 {
            return 0.0;
        }
        self.control_messages as f64 / deliveries as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = RecoveryStats::default();
        s.on_requested(3);
        s.on_requested(2);
        s.on_served(2);
        s.on_served(0);
        s.on_recovered();
        s.on_duplicate();
        s.on_abandoned();
        assert_eq!(s.requests(), 2);
        assert_eq!(s.requested_ids(), 5);
        assert_eq!(s.serves(), 2);
        assert_eq!(s.served_events(), 2);
        assert_eq!(s.recovered(), 1);
        assert_eq!(s.duplicates(), 1);
        assert_eq!(s.abandoned(), 1);
    }

    #[test]
    fn overhead_counts_control_messages() {
        let mut s = RecoveryStats::default();
        s.on_requested(1);
        s.on_served(1);
        // Empty-handed serves send no frame, so they add no overhead.
        s.on_served(0);
        // The ratio counts on-wire frames only: 1 graft + 1 non-empty
        // serve.
        assert_eq!(s.overhead_ratio(4), 0.5);
    }

    #[test]
    fn ratio_handles_zero_deliveries() {
        let s = RecoveryStats::default();
        assert_eq!(s.overhead_ratio(0), 0.0);
    }
}
