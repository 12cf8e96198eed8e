//! Seed-driven schedule generation: a [`ChurnProfile`] describes the
//! *statistics* of the perturbation (churn rate, outage length, link
//! flapping) and compiles, for a given seed, into one
//! concrete deterministic [`ChaosSchedule`].

use agb_types::{DetRng, DurationMs, NodeId, TimeMs};
use rand::{RngExt, SeedableRng};

use crate::schedule::ChaosSchedule;

/// Statistical description of a churn scenario.
///
/// `generate(seed)` is a pure function: the same profile and seed always
/// produce the same schedule, which is what makes whole chaos experiments
/// replayable from a single integer.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnProfile {
    /// Group size (victims are drawn from `0..n_nodes`).
    pub n_nodes: usize,
    /// Churn starts here (leave a warmup window before it).
    pub start: TimeMs,
    /// Churn ends here (leave a cooldown window after it).
    pub end: TimeMs,
    /// Crash events per minute of virtual time.
    pub crashes_per_min: f64,
    /// How long a crashed node stays down; it then restarts with state
    /// loss, re-entering via the membership protocol.
    pub outage: DurationMs,
    /// Nodes never crashed (typically the senders, so offered load is
    /// constant across the sweep).
    pub protect: Vec<NodeId>,
    /// After each crash, this many random survivors evict the victim
    /// (an external failure-detector model); `0` disables eviction.
    pub detectors: usize,
    /// Detection delay between a crash and its evictions.
    pub detect_after: DurationMs,
    /// Number of link-flap episodes spread over the churn window.
    pub link_flaps: usize,
    /// Length of one link-flap episode.
    pub flap_duration: DurationMs,
    /// Latency inflation during a flap.
    pub flap_extra_latency: DurationMs,
    /// Loss spike during a flap.
    pub flap_extra_loss: f64,
}

impl ChurnProfile {
    /// A crash/restart-only profile at the given rate, protecting the
    /// first `protect_first` nodes (the senders).
    pub fn crashes(
        n_nodes: usize,
        start: TimeMs,
        end: TimeMs,
        crashes_per_min: f64,
        outage: DurationMs,
        protect_first: usize,
    ) -> Self {
        ChurnProfile {
            n_nodes,
            start,
            end,
            crashes_per_min,
            outage,
            protect: (0..protect_first as u32).map(NodeId::new).collect(),
            detectors: 0,
            detect_after: DurationMs::from_secs(2),
            link_flaps: 0,
            flap_duration: DurationMs::from_secs(5),
            flap_extra_latency: DurationMs::from_millis(50),
            flap_extra_loss: 0.2,
        }
    }

    /// Compiles the profile into a concrete schedule.
    ///
    /// # Panics
    ///
    /// Panics if the profile is degenerate (no churn window, or no
    /// unprotected victim candidates while crashes are requested).
    pub fn generate(&self, seed: u64) -> ChaosSchedule {
        assert!(self.end > self.start, "churn window is empty");
        let window = self.end.since(self.start);
        let window_ms = window.as_millis().max(1);
        let mut rng = DetRng::seed_from_u64(seed ^ 0xC0A5_0F0D_BAD5_EED5);
        let mut schedule = ChaosSchedule::new();

        let crashes = (self.crashes_per_min * window_ms as f64 / 60_000.0).round() as usize;
        let victims: Vec<NodeId> = (0..self.n_nodes as u32)
            .map(NodeId::new)
            .filter(|n| !self.protect.contains(n))
            .collect();
        assert!(
            (crashes == 0 && self.link_flaps == 0) || !victims.is_empty(),
            "every node is protected but crashes/link flaps were requested"
        );
        // One victim can only be re-crashed after it came back: track the
        // time each node becomes available again.
        let mut busy_until: Vec<TimeMs> = vec![TimeMs::ZERO; self.n_nodes];
        let mut times: Vec<u64> = (0..crashes)
            .map(|_| rng.random_range(0..window_ms))
            .collect();
        times.sort_unstable();
        for t in times {
            let at = self.start + DurationMs::from_millis(t);
            // Pick the first available victim from a random starting point;
            // skip the crash if everyone is currently down (extreme rates).
            let start_idx = rng.random_range(0..victims.len());
            let victim = (0..victims.len())
                .map(|k| victims[(start_idx + k) % victims.len()])
                .find(|v| busy_until[v.index()] <= at);
            let Some(victim) = victim else { continue };
            let back_at = at + self.outage;
            busy_until[victim.index()] = back_at;
            schedule.crash(at, victim);
            if self.detectors > 0 {
                let detect_at = at + self.detect_after;
                if detect_at < back_at {
                    let mut chosen = 0usize;
                    let mut offset = rng.random_range(0..victims.len());
                    while chosen < self.detectors.min(victims.len() - 1) {
                        let detector = victims[offset % victims.len()];
                        offset += 1;
                        if detector != victim && busy_until[detector.index()] <= detect_at {
                            schedule.evict(detect_at, detector, victim);
                            chosen += 1;
                        }
                        if offset > 2 * victims.len() {
                            break;
                        }
                    }
                }
            }
            schedule.restart(back_at, victim);
        }

        for _ in 0..self.link_flaps {
            let t = rng.random_range(0..window_ms);
            let from = self.start + DurationMs::from_millis(t);
            let node = victims[rng.random_range(0..victims.len())];
            schedule.link_fault(
                from,
                from + self.flap_duration,
                vec![node],
                self.flap_extra_latency,
                self.flap_extra_loss,
            );
        }

        schedule
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::ChaosEvent;

    fn profile(rate: f64) -> ChurnProfile {
        ChurnProfile::crashes(
            20,
            TimeMs::from_secs(10),
            TimeMs::from_secs(70),
            rate,
            DurationMs::from_secs(10),
            3,
        )
    }

    #[test]
    fn same_seed_same_schedule() {
        let p = profile(8.0);
        assert_eq!(p.generate(7), p.generate(7));
        assert_ne!(p.generate(7), p.generate(8));
    }

    #[test]
    fn rate_controls_event_count() {
        // 60 s window at 6 crashes/min => ~6 crash+restart pairs.
        let s = profile(6.0).generate(3);
        let crashes = s
            .events()
            .iter()
            .filter(|e| matches!(e, ChaosEvent::Crash { .. }))
            .count();
        let restarts = s
            .events()
            .iter()
            .filter(|e| matches!(e, ChaosEvent::Restart { .. }))
            .count();
        assert_eq!(crashes, 6);
        assert_eq!(restarts, crashes);
        assert!(s.validate(20).is_ok());
    }

    #[test]
    fn protected_nodes_never_crash() {
        let s = profile(30.0).generate(11);
        for e in s.events() {
            if let ChaosEvent::Crash { node, .. } = e {
                assert!(node.index() >= 3, "protected node {node} crashed");
            }
        }
    }

    #[test]
    fn victims_are_not_recrashed_while_down() {
        let s = profile(40.0).generate(5);
        let mut down: Vec<(NodeId, TimeMs)> = Vec::new();
        for e in s.events() {
            match e {
                ChaosEvent::Crash { at, node } => {
                    assert!(
                        !down.iter().any(|&(n, until)| n == *node && *at < until),
                        "node {node} crashed while already down"
                    );
                    down.push((*node, *at + DurationMs::from_secs(10)));
                }
                ChaosEvent::Restart { .. } => {}
                _ => {}
            }
        }
    }

    #[test]
    fn detectors_emit_evictions_within_outage() {
        let mut p = profile(6.0);
        p.detectors = 2;
        p.detect_after = DurationMs::from_secs(3);
        let s = p.generate(9);
        let evictions = s
            .events()
            .iter()
            .filter(|e| matches!(e, ChaosEvent::Evict { .. }))
            .count();
        assert!(evictions > 0);
        assert!(s.validate(20).is_ok());
    }

    #[test]
    fn flaps_generate_events() {
        let mut p = profile(0.0);
        p.link_flaps = 3;
        let s = p.generate(2);
        let flaps = s
            .events()
            .iter()
            .filter(|e| matches!(e, ChaosEvent::LinkFault(_)))
            .count();
        assert_eq!(flaps, 3);
        assert!(s.validate(20).is_ok());
    }
}
