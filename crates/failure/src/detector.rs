//! The φ-accrual-style adaptive failure detector.
//!
//! Classic accrual detection (Hayashibara et al.) replaces the binary
//! alive/dead verdict with a continuous suspicion level φ derived from
//! the distribution of heartbeat inter-arrival times. This implementation
//! keeps the adaptive core — a sliding window of per-peer inter-arrival
//! samples, suspicion that grows with the time since the last arrival
//! relative to the learned mean — under an exponential arrival model,
//! which needs no variance estimate and behaves well on the small sample
//! windows a gossip substrate produces:
//!
//! ```text
//! φ(t) = log10(e) · (t − t_last) / mean_window
//! ```
//!
//! so φ = 1 means the silence is ~2.3× the learned mean, φ = 2 means
//! ~4.6×, each unit another 10× drop in the probability that the peer is
//! alive. Two thresholds split the scale: `suspect_phi` raises a
//! [`Verdict::Suspect`] (observable, reversible), `evict_phi` raises a
//! [`Verdict::Evict`] (the caller routes it into
//! `GossipMembership::evict`, which propagates a TTL'd unsubscription).
//! An arrival from an evicted peer yields [`Verdict::Rejoin`] and resets
//! its window — the rejoin path back from a false or stale eviction.

use agb_types::{FastHashMap, NodeId, TimeMs};

/// log10(e): converts "multiples of the mean inter-arrival" to φ units
/// under the exponential arrival model.
const LOG10_E: f64 = core::f64::consts::LOG10_E;

/// Tuning of one [`PhiDetector`].
#[derive(Debug, Clone, PartialEq)]
pub struct DetectorConfig {
    /// Ring-monitor degree: each node watches this many id-ring
    /// predecessors and owes heartbeats to as many successors.
    pub monitors: usize,
    /// Inter-arrival samples kept per monitored peer.
    pub window: usize,
    /// Samples required before a peer can be judged at all (a fresh or
    /// rejoined peer gets this much grace).
    pub min_samples: usize,
    /// φ at which a peer becomes suspected (counted, traced, no action).
    pub suspect_phi: f64,
    /// φ at which a peer is evicted from the local view.
    pub evict_phi: f64,
    /// Send an empty-gossip heartbeat to ring successors the node did not
    /// already gossip to this round.
    pub heartbeat: bool,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            monitors: 2,
            window: 16,
            min_samples: 4,
            // ~2.9× the learned mean silence → suspect; ~6.9× → evict.
            // With the heartbeat fallback the mean tracks one gossip
            // period, so eviction lands after ~7 silent rounds while a
            // handful of consecutive real losses stays below suspicion.
            suspect_phi: 1.25,
            evict_phi: 3.0,
            heartbeat: true,
        }
    }
}

impl DetectorConfig {
    /// Validates threshold ordering and window arithmetic.
    pub fn validate(&self) -> Result<(), String> {
        if self.monitors == 0 {
            return Err("detector monitors must be >= 1".into());
        }
        if self.window == 0 || self.min_samples == 0 {
            return Err("detector window/min_samples must be >= 1".into());
        }
        if self.min_samples > self.window {
            return Err("detector min_samples must fit in the window".into());
        }
        if !(self.suspect_phi > 0.0 && self.evict_phi > self.suspect_phi) {
            return Err("detector thresholds must satisfy 0 < suspect_phi < evict_phi".into());
        }
        Ok(())
    }
}

/// Where a peer sits on the suspicion scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuspicionState {
    /// Arrivals within the learned rhythm.
    Alive,
    /// φ crossed `suspect_phi`; an arrival clears it.
    Suspect,
    /// φ crossed `evict_phi`; the caller evicted the peer. Only a fresh
    /// arrival (rejoin) leaves this state.
    Evicted,
}

/// A state transition the caller must act on, in ascending severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `peer` crossed the suspicion threshold.
    Suspect(NodeId),
    /// `peer` crossed the eviction threshold: remove it from the local
    /// membership view.
    Evict(NodeId),
    /// A previously evicted `peer` spoke again: let it back in.
    Rejoin(NodeId),
}

impl Verdict {
    /// The peer the verdict is about.
    pub fn peer(&self) -> NodeId {
        match self {
            Verdict::Suspect(p) | Verdict::Evict(p) | Verdict::Rejoin(p) => *p,
        }
    }
}

#[derive(Debug, Clone)]
struct PeerState {
    last: TimeMs,
    /// Inter-arrival samples, ms; bounded ring of `window` entries.
    samples: Vec<u64>,
    next_slot: usize,
    sum: u64,
    state: SuspicionState,
}

impl PeerState {
    fn new(now: TimeMs) -> Self {
        PeerState {
            last: now,
            samples: Vec::new(),
            next_slot: 0,
            sum: 0,
            state: SuspicionState::Alive,
        }
    }

    fn push(&mut self, sample: u64, window: usize) {
        if self.samples.len() < window {
            self.samples.push(sample);
        } else {
            self.sum -= self.samples[self.next_slot];
            self.samples[self.next_slot] = sample;
            self.next_slot = (self.next_slot + 1) % window;
        }
        self.sum += sample;
    }

    fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            // Clamp below by 1 ms so a burst of same-instant arrivals
            // cannot zero the mean and make φ explode.
            Some((self.sum as f64 / self.samples.len() as f64).max(1.0))
        }
    }
}

/// Per-node adaptive failure detector. One instance lives inside each
/// simulated or runtime node; all state is local, so verdicts depend only
/// on that node's own (canonical) arrival order — which is what keeps
/// simulator digests bit-identical at any `AGB_THREADS`.
#[derive(Debug)]
pub struct PhiDetector {
    config: DetectorConfig,
    /// Monitored peers in a stable check order.
    monitored: Vec<NodeId>,
    peers: FastHashMap<NodeId, PeerState>,
}

impl PhiDetector {
    /// Creates a detector monitoring `monitored` (typically the node's
    /// ring predecessors, see [`ring_monitors`](crate::ring_monitors)).
    ///
    /// `now` starts every peer's silence clock: a peer that never speaks
    /// at all still accrues suspicion from the detector's birth.
    pub fn new(config: DetectorConfig, monitored: Vec<NodeId>, now: TimeMs) -> Self {
        let peers = monitored
            .iter()
            .map(|&p| (p, PeerState::new(now)))
            .collect();
        PhiDetector {
            config,
            monitored,
            peers,
        }
    }

    /// The detector's configuration.
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// The monitored peer set, in check order.
    pub fn monitored(&self) -> &[NodeId] {
        &self.monitored
    }

    /// Feeds one arrival from `peer` (any decoded frame counts).
    /// Arrivals from unmonitored peers are ignored. Returns
    /// [`Verdict::Rejoin`] when the arrival resurrects an evicted peer.
    pub fn observe(&mut self, peer: NodeId, now: TimeMs) -> Option<Verdict> {
        let window = self.config.window;
        let state = self.peers.get_mut(&peer)?;
        if state.state == SuspicionState::Evicted {
            // Back from the dead: restart the window so stale pre-crash
            // rhythm does not bias the fresh one.
            *state = PeerState::new(now);
            return Some(Verdict::Rejoin(peer));
        }
        let gap = now.since(state.last).as_millis();
        state.push(gap, window);
        state.last = now;
        state.state = SuspicionState::Alive;
        None
    }

    /// Restarts the silence clock of every monitored peer not already
    /// evicted. Call when this node comes back from its own outage: the
    /// gap it could not listen through says nothing about its peers, so
    /// neither the next [`check`](Self::check) nor the next sample may
    /// count it.
    pub fn resume(&mut self, now: TimeMs) {
        for state in self.peers.values_mut() {
            if state.state != SuspicionState::Evicted {
                state.last = now;
            }
        }
    }

    /// Current suspicion level of `peer`: 0 when fresh or unmonitored.
    pub fn phi(&self, peer: NodeId, now: TimeMs) -> f64 {
        let Some(state) = self.peers.get(&peer) else {
            return 0.0;
        };
        if state.samples.len() < self.config.min_samples {
            return 0.0;
        }
        let Some(mean) = state.mean() else {
            return 0.0;
        };
        let elapsed = now.since(state.last).as_millis() as f64;
        LOG10_E * elapsed / mean
    }

    /// Judges every monitored peer, returning new transitions in stable
    /// (check-order) sequence. Call once per gossip round.
    pub fn check(&mut self, now: TimeMs) -> Vec<Verdict> {
        let mut verdicts = Vec::new();
        for i in 0..self.monitored.len() {
            let peer = self.monitored[i];
            let phi = self.phi(peer, now);
            let Some(state) = self.peers.get_mut(&peer) else {
                continue;
            };
            match state.state {
                SuspicionState::Alive if phi >= self.config.evict_phi => {
                    state.state = SuspicionState::Evicted;
                    verdicts.push(Verdict::Suspect(peer));
                    verdicts.push(Verdict::Evict(peer));
                }
                SuspicionState::Alive if phi >= self.config.suspect_phi => {
                    state.state = SuspicionState::Suspect;
                    verdicts.push(Verdict::Suspect(peer));
                }
                SuspicionState::Suspect if phi >= self.config.evict_phi => {
                    state.state = SuspicionState::Evicted;
                    verdicts.push(Verdict::Evict(peer));
                }
                _ => {}
            }
        }
        verdicts
    }

    /// Current state of `peer` (Alive for unmonitored peers).
    pub fn state(&self, peer: NodeId) -> SuspicionState {
        self.peers
            .get(&peer)
            .map(|s| s.state)
            .unwrap_or(SuspicionState::Alive)
    }

    /// Peers currently in the evicted state, in check order.
    pub fn evicted(&self) -> Vec<NodeId> {
        self.monitored
            .iter()
            .copied()
            .filter(|p| self.state(*p) == SuspicionState::Evicted)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> TimeMs {
        TimeMs::from_millis(ms)
    }

    fn detector(peers: &[u32]) -> PhiDetector {
        PhiDetector::new(
            DetectorConfig::default(),
            peers.iter().copied().map(NodeId::new).collect(),
            t(0),
        )
    }

    /// Feeds `peer` a steady 1 Hz rhythm through `upto_ms`.
    fn steady(d: &mut PhiDetector, peer: u32, upto_ms: u64) {
        for ms in (1_000..=upto_ms).step_by(1_000) {
            assert!(d.observe(NodeId::new(peer), t(ms)).is_none());
        }
    }

    #[test]
    fn steady_arrivals_never_suspect() {
        let mut d = detector(&[1]);
        steady(&mut d, 1, 60_000);
        assert!(d.check(t(60_500)).is_empty());
        assert_eq!(d.state(NodeId::new(1)), SuspicionState::Alive);
        assert!(d.phi(NodeId::new(1), t(60_500)) < 1.0);
    }

    #[test]
    fn silence_escalates_suspect_then_evict() {
        let mut d = detector(&[1]);
        steady(&mut d, 1, 20_000);
        // ~3.5 means of silence: suspect only.
        let v1 = d.check(t(23_500));
        assert_eq!(v1, vec![Verdict::Suspect(NodeId::new(1))]);
        // ~8 means of silence: eviction fires once.
        let v2 = d.check(t(28_000));
        assert_eq!(v2, vec![Verdict::Evict(NodeId::new(1))]);
        assert_eq!(d.state(NodeId::new(1)), SuspicionState::Evicted);
        assert_eq!(d.evicted(), vec![NodeId::new(1)]);
        // No re-fire while it stays dead.
        assert!(d.check(t(60_000)).is_empty());
    }

    #[test]
    fn long_silence_evicts_in_one_check_with_both_verdicts() {
        let mut d = detector(&[1]);
        steady(&mut d, 1, 20_000);
        let v = d.check(t(40_000));
        assert_eq!(
            v,
            vec![
                Verdict::Suspect(NodeId::new(1)),
                Verdict::Evict(NodeId::new(1))
            ]
        );
    }

    #[test]
    fn arrival_clears_suspicion() {
        let mut d = detector(&[1]);
        steady(&mut d, 1, 20_000);
        assert_eq!(d.check(t(23_500)).len(), 1);
        assert_eq!(d.state(NodeId::new(1)), SuspicionState::Suspect);
        d.observe(NodeId::new(1), t(24_000));
        assert_eq!(d.state(NodeId::new(1)), SuspicionState::Alive);
        assert!(d.check(t(24_500)).is_empty());
    }

    #[test]
    fn rejoin_resets_the_window() {
        let mut d = detector(&[1]);
        steady(&mut d, 1, 10_000);
        d.check(t(60_000));
        assert_eq!(d.state(NodeId::new(1)), SuspicionState::Evicted);
        let v = d.observe(NodeId::new(1), t(70_000));
        assert_eq!(v, Some(Verdict::Rejoin(NodeId::new(1))));
        assert_eq!(d.state(NodeId::new(1)), SuspicionState::Alive);
        // Fresh grace period: too few samples to judge.
        assert!(d.check(t(80_000)).is_empty());
    }

    #[test]
    fn resume_forgives_the_own_outage_but_not_an_eviction() {
        let mut d = detector(&[1, 2]);
        steady(&mut d, 1, 20_000);
        steady(&mut d, 2, 10_000);
        assert!(d.check(t(20_000)).contains(&Verdict::Evict(NodeId::new(2))));
        // This node is down from 20 s to 80 s; peer 1 was not silent.
        d.resume(t(80_000));
        assert!(d.check(t(80_000)).is_empty());
        assert!(d.observe(NodeId::new(1), t(81_000)).is_none());
        assert!(d.check(t(81_500)).is_empty());
        // An already evicted peer stays evicted until it speaks.
        assert_eq!(d.state(NodeId::new(2)), SuspicionState::Evicted);
        assert_eq!(
            d.observe(NodeId::new(2), t(81_000)),
            Some(Verdict::Rejoin(NodeId::new(2)))
        );
    }

    #[test]
    fn unmonitored_peers_are_ignored() {
        let mut d = detector(&[1]);
        assert!(d.observe(NodeId::new(9), t(1_000)).is_none());
        assert_eq!(d.phi(NodeId::new(9), t(50_000)), 0.0);
        assert!(d.check(t(50_000)).len() <= 1); // only peer 1 can fire
    }

    #[test]
    fn grace_period_before_min_samples() {
        let mut d = detector(&[1]);
        d.observe(NodeId::new(1), t(1_000));
        d.observe(NodeId::new(1), t(2_000));
        // Two samples < min_samples(4): silence cannot be judged yet.
        assert!(d.check(t(500_000)).is_empty());
    }

    #[test]
    fn same_instant_burst_does_not_zero_the_mean() {
        let mut d = detector(&[1]);
        for _ in 0..8 {
            d.observe(NodeId::new(1), t(1_000));
        }
        // Mean clamps at 1 ms; a 1 s silence is huge but finite.
        let phi = d.phi(NodeId::new(1), t(2_000));
        assert!(phi.is_finite() && phi > 0.0);
    }

    #[test]
    fn adapts_to_slow_rhythms() {
        // 10 s cadence: a 15 s gap is unremarkable, a 90 s gap fatal.
        let mut d = detector(&[1]);
        for ms in (10_000..=100_000).step_by(10_000) {
            d.observe(NodeId::new(1), t(ms));
        }
        assert!(d.check(t(115_000)).is_empty());
        let v = d.check(t(190_000));
        assert!(v.contains(&Verdict::Evict(NodeId::new(1))));
    }

    #[test]
    fn config_validation() {
        assert!(DetectorConfig::default().validate().is_ok());
        let mut c = DetectorConfig::default();
        c.evict_phi = c.suspect_phi;
        assert!(c.validate().is_err());
        let mut c = DetectorConfig::default();
        c.min_samples = c.window + 1;
        assert!(c.validate().is_err());
        let mut c = DetectorConfig::default();
        c.monitors = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn verdict_peer_accessor() {
        assert_eq!(Verdict::Suspect(NodeId::new(3)).peer(), NodeId::new(3));
        assert_eq!(Verdict::Evict(NodeId::new(4)).peer(), NodeId::new(4));
        assert_eq!(Verdict::Rejoin(NodeId::new(5)).peer(), NodeId::new(5));
    }
}
